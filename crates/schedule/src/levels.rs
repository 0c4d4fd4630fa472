//! Level schedules.

use crate::depgraph::DepGraph;
use gplu_sparse::Idx;

/// A level schedule: columns grouped so that every column's dependencies
/// lie in strictly earlier levels (the paper's Figure 1(d)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Levels {
    /// Level number of each column.
    pub level_of: Vec<u32>,
    /// Columns of each level, ascending within a level.
    pub groups: Vec<Vec<Idx>>,
}

impl Levels {
    /// Builds the grouped representation from per-column level numbers.
    pub fn from_level_of(level_of: Vec<u32>) -> Levels {
        let n_levels = level_of.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let mut groups: Vec<Vec<Idx>> = vec![Vec::new(); n_levels];
        for (col, &l) in level_of.iter().enumerate() {
            groups[l as usize].push(col as Idx);
        }
        Levels { level_of, groups }
    }

    /// Number of levels (the span of the parallel schedule).
    pub fn n_levels(&self) -> usize {
        self.groups.len()
    }

    /// Widest level (peak column parallelism).
    pub fn max_width(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Checks the schedule against a dependency graph: every edge must
    /// cross strictly upward in level, and level numbers must be exactly
    /// the longest-path depths (no slack — the paper's recurrence).
    pub fn validate(&self, g: &DepGraph) -> Result<(), String> {
        if self.level_of.len() != g.n() {
            return Err(format!(
                "schedule covers {} columns, graph has {}",
                self.level_of.len(),
                g.n()
            ));
        }
        // Exact longest-path check: level(j) == 1 + max level of parents
        // (0 when no parents). Edges ascend, so one forward scan suffices.
        let mut want = vec![0u32; g.n()];
        for t in 0..g.n() {
            for &j in g.out(t) {
                let j = j as usize;
                want[j] = want[j].max(want[t] + 1);
            }
        }
        for (col, (&got, &want)) in self.level_of.iter().zip(&want).enumerate() {
            if got != want {
                return Err(format!(
                    "column {col}: level {got}, longest-path depth {want}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_partition_columns() {
        let l = Levels::from_level_of(vec![0, 1, 0, 2, 1]);
        assert_eq!(l.n_levels(), 3);
        assert_eq!(l.groups[0], vec![0, 2]);
        assert_eq!(l.groups[1], vec![1, 4]);
        assert_eq!(l.groups[2], vec![3]);
        assert_eq!(l.max_width(), 2);
    }

    #[test]
    fn validate_accepts_longest_path_and_rejects_slack() {
        // Chain 0 -> 1 -> 2.
        let g = DepGraph {
            ptr: vec![0, 1, 2, 2],
            adj: vec![1, 2],
            indegree: vec![0, 1, 1],
        };
        assert!(Levels::from_level_of(vec![0, 1, 2]).validate(&g).is_ok());
        // Padding a level (legal topologically, but not the recurrence).
        assert!(Levels::from_level_of(vec![0, 2, 3]).validate(&g).is_err());
        // Violating the order outright.
        assert!(Levels::from_level_of(vec![0, 0, 1]).validate(&g).is_err());
    }
}
