//! Per-phase timing and accounting — what the paper's Figures 4–6 break
//! their bars into.

use crate::recovery::RecoveryLog;
use gplu_sim::{GpuStatsSnapshot, SimTime};

/// Per-phase GPU statistics deltas: each field is the difference of the
/// snapshots taken at that phase's boundaries. This is the single source
/// of truth for per-phase device accounting (kernel counts, transfer
/// bytes, unified-memory fault groups).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Host pre-processing (typically only advances the clock).
    pub preprocess: GpuStatsSnapshot,
    /// Symbolic factorization (across every ladder attempt).
    pub symbolic: GpuStatsSnapshot,
    /// Levelization.
    pub levelize: GpuStatsSnapshot,
    /// Numeric factorization (across every ladder attempt).
    pub numeric: GpuStatsSnapshot,
}

/// Fleet accounting for a multi-device run: who did the work, who died,
/// and what the interconnect charged. `None` on single-[`gplu_sim::Gpu`]
/// runs.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Devices the fleet was built with.
    pub devices: usize,
    /// Devices that died during the run (injected faults); their shards
    /// were re-run on the survivors.
    pub dead: Vec<usize>,
    /// Per-device clock advance across the whole run, nanoseconds, indexed
    /// by device ordinal. Barriers level the live clocks, so live devices
    /// read alike; `per_device_busy_ns` says who did the work.
    pub per_device_ns: Vec<f64>,
    /// `per_device_ns` less the time the device waited at barriers for a
    /// slower one: its busy time.
    pub per_device_busy_ns: Vec<f64>,
    /// Symbolic source rows re-run on survivors after device deaths.
    pub resharded_rows: usize,
    /// Numeric columns re-run on survivors after device deaths.
    pub resharded_cols: usize,
    /// Cross-device exchange legs priced on the interconnect.
    pub exchanges: u64,
    /// Bytes moved across the interconnect.
    pub exchange_bytes: u64,
    /// Simulated time charged to the interconnect (summed over devices).
    pub exchange_ns: f64,
}

/// Timing and accounting of one end-to-end factorization.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// Host-side pre-processing (ordering + diagonal repair).
    pub preprocess: SimTime,
    /// Symbolic factorization phase.
    pub symbolic: SimTime,
    /// Levelization (scheduling) phase.
    pub levelize: SimTime,
    /// Numeric factorization phase.
    pub numeric: SimTime,

    /// Fill-ins discovered (new nonzeros beyond the input pattern).
    pub new_fill_ins: usize,
    /// Nonzeros of the filled matrix.
    pub fill_nnz: usize,
    /// Out-of-core chunk size used by symbolic (0 when not chunked).
    pub chunk_size: usize,
    /// Out-of-core iterations run by symbolic.
    pub symbolic_iterations: usize,
    /// Levels in the schedule.
    pub n_levels: usize,
    /// Widest level.
    pub max_level_width: usize,
    /// Numeric kernel mode mix (levels typed A/B/C).
    pub mode_mix: (usize, usize, usize),
    /// Dense-format concurrency limit `M`, when the dense engine ran.
    pub m_limit: Option<usize>,
    /// Binary-search probes, when the binary-search engine ran.
    pub probes: u64,
    /// Merge-join destination-cursor advances, when the merge engine ran.
    pub merge_steps: u64,
    /// BLAS-3 update tiles, when the supernode-blocked engine ran.
    pub gemm_tiles: u64,
    /// Diagonal entries repaired during pre-processing.
    pub repaired_diagonals: usize,
    /// Columns whose pivot row deviates from the natural diagonal
    /// (threshold pivoting only; 0 on the no-swap fast path).
    pub pivot_swaps: usize,
    /// Structural entries added by dynamic symbolic expansion after a
    /// pivot permutation.
    pub pattern_expanded: usize,
    /// Simulated time of threshold-pivot discovery plus pattern
    /// expansion, when the cold pass ran them. Host work that is part of
    /// no phase: [`PhaseReport::total`] leaves it out.
    pub pivot_discovery: Option<SimTime>,
    /// Relative residual measured by the acceptance gate, when it ran.
    pub residual: Option<f64>,
    /// Per-phase GPU statistics deltas (snapshot differences taken at the
    /// phase boundaries by the pipeline).
    pub phase_stats: PhaseStats,
    /// Every corrective action taken to keep the run alive (OOM backoff,
    /// engine/format degradation, late pivot repair). Empty on a clean
    /// run.
    pub recovery: RecoveryLog,
    /// Multi-device accounting, set only by the fleet pipeline.
    pub fleet: Option<FleetReport>,
}

impl PhaseReport {
    /// Total factorization time (the end-to-end bar of Figure 4).
    pub fn total(&self) -> SimTime {
        self.preprocess + self.symbolic + self.levelize + self.numeric
    }

    /// GPU-side total (symbolic + levelize + numeric), the quantity the
    /// normalized figures compare.
    pub fn gpu_total(&self) -> SimTime {
        self.symbolic + self.levelize + self.numeric
    }

    /// Unified-memory fault groups raised during symbolic (Table 3's
    /// count) — derived from the symbolic-phase snapshot delta rather than
    /// tracked separately, so there is exactly one source of truth.
    pub fn fault_groups(&self) -> u64 {
        self.phase_stats.symbolic.fault_groups
    }

    /// One-line human-readable summary. Engine-specific counters (probes,
    /// merge steps) and recovery actions are appended only when present.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "pre {} | sym {} ({} iters, chunk {}) | lvl {} ({} levels) | num {} | fill {} (+{})",
            self.preprocess,
            self.symbolic,
            self.symbolic_iterations,
            self.chunk_size,
            self.levelize,
            self.n_levels,
            self.numeric,
            self.fill_nnz,
            self.new_fill_ins,
        );
        if self.probes > 0 {
            s.push_str(&format!(" | probes {}", self.probes));
        }
        if self.merge_steps > 0 {
            s.push_str(&format!(" | merge {}", self.merge_steps));
        }
        if self.gemm_tiles > 0 {
            s.push_str(&format!(" | gemm tiles {}", self.gemm_tiles));
        }
        if self.pivot_swaps > 0 {
            s.push_str(&format!(" | pivot swaps {}", self.pivot_swaps));
        }
        if self.pattern_expanded > 0 {
            s.push_str(&format!(" | pattern +{}", self.pattern_expanded));
        }
        if let Some(r) = self.residual {
            s.push_str(&format!(" | residual {r:.2e}"));
        }
        let repaired = self.recovery.repaired_pivots();
        if repaired > 0 {
            s.push_str(&format!(" | repaired pivots {repaired}"));
        }
        if !self.recovery.is_empty() {
            s.push_str(&format!(" | recovery: {}", self.recovery.summary()));
        }
        if let Some(fl) = &self.fleet {
            s.push_str(&format!(
                " | fleet {}x ({} dead, {} exchange legs)",
                fl.devices,
                fl.dead.len(),
                fl.exchanges
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{Phase, RecoveryAction};

    #[test]
    fn totals_add_up() {
        let r = PhaseReport {
            preprocess: SimTime::from_us(1.0),
            symbolic: SimTime::from_us(2.0),
            levelize: SimTime::from_us(3.0),
            numeric: SimTime::from_us(4.0),
            ..Default::default()
        };
        assert!((r.total().as_ns() - 10_000.0).abs() < 1e-9);
        assert!((r.gpu_total().as_ns() - 9_000.0).abs() < 1e-9);
    }

    #[test]
    fn summary_mentions_phases() {
        let r = PhaseReport {
            fill_nnz: 42,
            ..Default::default()
        };
        let s = r.summary();
        assert!(s.contains("sym") && s.contains("num") && s.contains("42"));
        // A clean run with no engine counters stays terse.
        assert!(!s.contains("probes") && !s.contains("merge") && !s.contains("recovery"));
        assert!(!s.contains("pivot") && !s.contains("residual"));

        // Engine counters and recovery show up exactly when present.
        let mut busy = PhaseReport {
            probes: 7,
            merge_steps: 9,
            pivot_swaps: 3,
            pattern_expanded: 11,
            residual: Some(2.5e-12),
            ..Default::default()
        };
        busy.recovery.record(
            Phase::Numeric,
            RecoveryAction::FormatDegraded {
                from: "Dense".into(),
                to: "SparseMerge".into(),
            },
        );
        busy.recovery.record(
            Phase::Numeric,
            RecoveryAction::PivotRepaired {
                col: 0,
                value: 1.0,
                magnitude: 1.0,
            },
        );
        let s = busy.summary();
        assert!(s.contains("probes 7"), "{s}");
        assert!(s.contains("merge 9"), "{s}");
        assert!(s.contains("pivot swaps 3"), "{s}");
        assert!(s.contains("pattern +11"), "{s}");
        assert!(s.contains("residual 2.50e-12"), "{s}");
        assert!(s.contains("repaired pivots 1"), "{s}");
        assert!(
            s.contains("recovery:") && s.contains("Dense -> SparseMerge"),
            "{s}"
        );
    }

    #[test]
    fn fault_groups_come_from_symbolic_phase_stats() {
        let mut r = PhaseReport::default();
        assert_eq!(r.fault_groups(), 0);
        r.phase_stats.symbolic.fault_groups = 17;
        r.phase_stats.numeric.fault_groups = 99; // not symbolic: ignored
        assert_eq!(r.fault_groups(), 17);
    }
}
