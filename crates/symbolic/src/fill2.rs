//! The fill2 per-row traversal (the paper's Algorithm 1).
//!
//! For a source row `src`, the traversal discovers every column of the
//! filled row `As(src, :)`: the original entries of `A(src, :)` plus every
//! fill-in `(src, j)` licensed by Theorem 1. It sweeps a *threshold* upward
//! over discovered vertices `< src`; from each threshold it BFS-explores
//! the adjacency of `A`, classifying each newly reached vertex as a fill-in
//! (if above the threshold) or as a further frontier vertex (if below).
//!
//! This single function is the kernel body shared by the CPU baseline, the
//! out-of-core GPU stages (`symbolic_1` counting / `symbolic_2` storing)
//! and the unified-memory variants — they differ only in memory management
//! and cost accounting, exactly as in the paper. The out-of-core stages
//! share one host traversal per row: the simulated clock charges both.

use gplu_sparse::{Csr, Idx};

/// Reusable per-worker state: the `c·n` words of traversal storage the
/// paper's chunk sizing is built around (fill stamps + two frontier
/// queues; the remaining words of `c = 6` are the emit buffers owned by
/// the call sites).
#[derive(Debug)]
pub struct Fill2Workspace {
    /// Visit stamps: `fill[v] == epoch` means `v` was reached during the
    /// current traversal. Stamps are unique per *call* — not per row — so
    /// the array never needs clearing between rows (the `fill(:) = 0` of
    /// Algorithm 1 happens once, at construction), and a pooled workspace
    /// may safely revisit a row it already traversed (the Algorithm 4
    /// prepass samples rows the driver traverses again; the driver itself
    /// traverses each row once and replays its metrics for every later
    /// kernel).
    fill: Vec<u32>,
    /// Stamp of the most recent traversal; bumped on every call.
    epoch: u32,
    queue: Vec<Idx>,
    next: Vec<Idx>,
    /// One bit per vertex: set while the vertex is a discovered threshold
    /// the sweep has not consumed yet. The sweep consumes every bit it
    /// sets, so the bitmap is all-zero between calls.
    thresholds: Vec<u64>,
}

impl Fill2Workspace {
    /// Workspace for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        Fill2Workspace {
            fill: vec![u32::MAX; n],
            epoch: 0,
            queue: Vec::with_capacity(64),
            next: Vec::with_capacity(64),
            thresholds: vec![0; n.div_ceil(64)],
        }
    }

    /// Starts a traversal: returns a stamp distinct from every value
    /// currently in `fill`. On the (astronomically rare) epoch wrap the
    /// stamp array is re-cleared so stale `u32::MAX`-era stamps cannot
    /// alias.
    fn next_stamp(&mut self) -> u32 {
        if self.epoch >= u32::MAX - 1 {
            self.fill.fill(u32::MAX);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Matrix dimension this workspace serves.
    pub fn n(&self) -> usize {
        self.fill.len()
    }

    /// Traversals this workspace has run: one stamp each.
    #[cfg(test)]
    pub(crate) fn traversals(&self) -> u64 {
        u64::from(self.epoch)
    }
}

/// Traversal metrics for one source row — these drive both the simulator's
/// cost accounting and the paper's Figure 3 / Algorithm 4 analyses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowMetrics {
    /// Frontier BFS iterations executed (each is one block-wide step).
    pub steps: u64,
    /// Adjacency entries scanned.
    pub edges: u64,
    /// Total frontier vertices processed — the paper's per-row "number of
    /// frontiers" (Figure 3's y-axis, Algorithm 4's split criterion).
    pub frontiers: u64,
    /// Largest instantaneous frontier queue — what the dynamic-assignment
    /// variant sizes its shrunken part-1 queues against.
    pub max_queue: u64,
    /// Entries emitted for the filled row (originals + fill-ins, incl. the
    /// diagonal).
    pub emitted: u32,
}

/// Runs the fill2 traversal for row `src`.
///
/// Every column of the filled row `As(src, :)` is passed to `emit`
/// (unsorted; the diagonal and original entries included). The out-of-core
/// driver collects them once, in the first kernel over the row; the
/// device's counting and storing stages are both charged from the
/// returned metrics.
pub fn fill2_row(
    a: &Csr,
    src: u32,
    ws: &mut Fill2Workspace,
    mut emit: impl FnMut(Idx),
) -> RowMetrics {
    debug_assert_eq!(ws.n(), a.n_rows(), "workspace sized for a different matrix");
    let mut m = RowMetrics::default();
    let stamp = ws.next_stamp();
    let fill = &mut ws.fill;
    let thresholds = &mut ws.thresholds;
    let srcu = src as usize;
    // Every vertex emitted below `src` is a threshold of the sweep.
    let mut discover = |v: Idx, thresholds: &mut [u64], m: &mut RowMetrics| {
        if v < src {
            thresholds[v as usize / 64] |= 1 << (v % 64);
        }
        emit(v);
        m.emitted += 1;
    };

    // Seed: the original entries of row `src` (Algorithm 1 lines 1-10).
    // The diagonal is guaranteed structurally present after pre-processing.
    fill[srcu] = stamp;
    discover(src, thresholds, &mut m);
    for &v in a.row_cols(srcu) {
        if v == src {
            continue; // diagonal already emitted
        }
        fill[v as usize] = stamp;
        discover(v, thresholds, &mut m);
    }

    // Threshold sweep (lines 11-27) over the discovered vertices `< src`
    // in ascending order, a bitmap word at a time. Fill-ins below `src`
    // discovered later in the sweep still get their turn because they are
    // always greater than the current threshold: they land in the current
    // word's higher bits or in a later word.
    for word in 0..srcu.div_ceil(64) {
        while thresholds[word] != 0 {
            let bit = thresholds[word].trailing_zeros();
            thresholds[word] &= !(1 << bit);
            let threshold = word as Idx * 64 + bit;
            ws.queue.clear();
            ws.queue.push(threshold);
            while !ws.queue.is_empty() {
                m.steps += 1;
                m.frontiers += ws.queue.len() as u64;
                m.max_queue = m.max_queue.max(ws.queue.len() as u64);
                ws.next.clear();
                for &u in &ws.queue {
                    for &w in a.row_cols(u as usize) {
                        m.edges += 1;
                        if fill[w as usize] == stamp {
                            continue;
                        }
                        fill[w as usize] = stamp;
                        if w > threshold {
                            // New fill-in of row `src` (L side if w < src,
                            // U side if w > src); if below `src` it will
                            // also serve as a later threshold.
                            discover(w, thresholds, &mut m);
                        } else {
                            // Intermediate vertex: keep traversing.
                            ws.next.push(w);
                        }
                    }
                }
                std::mem::swap(&mut ws.queue, &mut ws.next);
            }
        }
    }
    m
}

/// Convenience: runs fill2 for row `src` and returns the **sorted** filled
/// row pattern.
pub fn fill2_row_sorted(a: &Csr, src: u32, ws: &mut Fill2Workspace) -> (Vec<Idx>, RowMetrics) {
    let mut cols = Vec::new();
    let metrics = fill2_row(a, src, ws, |c| cols.push(c));
    cols.sort_unstable();
    (cols, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sparse::convert::coo_to_csr;
    use gplu_sparse::Coo;

    /// The running example of the paper's Figure 1 would need its exact
    /// matrix; we use a small crafted case with a known fill-in instead:
    ///
    /// ```text
    ///   A = 1 . . 1        row 3 has a(3,0); eliminating column 0
    ///       . 1 . .        reaches a(0,3)… path 3 -> 0 -> 3 is the
    ///       1 . 1 .        diagonal, but 2 -> 0 -> 3 (intermediate 0 <
    ///       1 . . 1        min(2,3)) creates fill-in (2, 3).
    /// ```
    fn example() -> gplu_sparse::Csr {
        let mut c = Coo::new(4, 4);
        for i in 0..4 {
            c.push(i, i, 1.0);
        }
        c.push(0, 3, 1.0);
        c.push(2, 0, 1.0);
        c.push(3, 0, 1.0);
        coo_to_csr(&c)
    }

    #[test]
    fn finds_expected_fill_in() {
        let a = example();
        let mut ws = Fill2Workspace::new(4);
        let (row2, _) = fill2_row_sorted(&a, 2, &mut ws);
        // Originals: {0, 2}; fill-in (2,3) via path 2 -> 0 -> 3.
        assert_eq!(row2, vec![0, 2, 3]);
    }

    #[test]
    fn row_zero_is_just_its_originals() {
        let a = example();
        let mut ws = Fill2Workspace::new(4);
        let (row0, m) = fill2_row_sorted(&a, 0, &mut ws);
        assert_eq!(row0, vec![0, 3]);
        assert_eq!(m.frontiers, 0, "no thresholds below row 0");
    }

    #[test]
    fn workspace_reuse_needs_no_clearing() {
        let a = example();
        let mut ws = Fill2Workspace::new(4);
        // Process rows out of order; stamps must not leak between rows.
        let (r3a, _) = fill2_row_sorted(&a, 3, &mut ws);
        let (r2, _) = fill2_row_sorted(&a, 2, &mut ws);
        let (r3b, _) = fill2_row_sorted(&a, 3, &mut ws);
        assert_eq!(r3a, r3b);
        assert_eq!(r2, vec![0, 2, 3]);
    }

    #[test]
    fn revisiting_a_row_with_fill_keeps_its_fill_ins() {
        // The split prepass and the driver can hand the *same* row to the
        // *same* pooled workspace twice. Row 2 has a genuine fill-in
        // (2,3); a per-row stamp would see the first pass's marks and drop
        // it in the second.
        let a = example();
        let mut ws = Fill2Workspace::new(4);
        let (first, _) = fill2_row_sorted(&a, 2, &mut ws);
        let (second, _) = fill2_row_sorted(&a, 2, &mut ws);
        assert_eq!(first, vec![0, 2, 3]);
        assert_eq!(first, second, "fill-ins lost on revisit");
    }

    #[test]
    fn metrics_count_real_work() {
        let a = example();
        let mut ws = Fill2Workspace::new(4);
        let (_, m) = fill2_row_sorted(&a, 3, &mut ws);
        assert!(m.edges > 0);
        assert!(m.steps > 0);
        assert_eq!(m.emitted as usize, 2, "row 3: {{0, 3}} with no new fill");
    }

    #[test]
    fn chain_path_with_large_intermediates_gives_no_fill() {
        // Lower bidiagonal + full first row. Row 5 reaches everything via
        // 5 -> 4 -> 3 -> 2 -> 1 -> 0, but those intermediates are NOT all
        // smaller than the would-be fill targets, so Theorem 1 licenses no
        // fill-in for row 5: the sweep must come back empty-handed.
        let n = 6;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0);
            if i > 0 {
                c.push(i, i - 1, 1.0);
            }
            c.push(0, i, 1.0);
        }
        let a = coo_to_csr(&c);
        let mut ws = Fill2Workspace::new(n);
        let (row5, _) = fill2_row_sorted(&a, 5, &mut ws);
        assert_eq!(row5, vec![4, 5]);
    }

    #[test]
    fn hub_row_fills_through_small_intermediate() {
        // Row 5 connects to vertex 0, and row 0 is dense: every column j
        // has the path 5 -> 0 -> j with intermediate 0 < min(5, j), so the
        // whole row fills in.
        let n = 6;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0);
            c.push(0, i, 1.0);
        }
        c.push(5, 0, 1.0);
        let a = coo_to_csr(&c);
        let mut ws = Fill2Workspace::new(n);
        let (row5, _) = fill2_row_sorted(&a, 5, &mut ws);
        assert_eq!(row5, vec![0, 1, 2, 3, 4, 5]);
    }

    /// The sweep as first written: tests every vertex below `src` against
    /// the stamp array. Kept as the reference the bitmap sweep must match.
    fn fill2_row_full_scan(
        a: &Csr,
        src: u32,
        ws: &mut Fill2Workspace,
        mut emit: impl FnMut(Idx),
    ) -> RowMetrics {
        let mut m = RowMetrics::default();
        let stamp = ws.next_stamp();
        let fill = &mut ws.fill;
        fill[src as usize] = stamp;
        emit(src);
        m.emitted += 1;
        for &v in a.row_cols(src as usize) {
            if v == src {
                continue;
            }
            fill[v as usize] = stamp;
            emit(v);
            m.emitted += 1;
        }
        for threshold in 0..src {
            if fill[threshold as usize] != stamp {
                continue;
            }
            ws.queue.clear();
            ws.queue.push(threshold);
            while !ws.queue.is_empty() {
                m.steps += 1;
                m.frontiers += ws.queue.len() as u64;
                m.max_queue = m.max_queue.max(ws.queue.len() as u64);
                ws.next.clear();
                for &u in &ws.queue {
                    for &w in a.row_cols(u as usize) {
                        m.edges += 1;
                        if fill[w as usize] == stamp {
                            continue;
                        }
                        fill[w as usize] = stamp;
                        if w > threshold {
                            emit(w);
                            m.emitted += 1;
                        } else {
                            ws.next.push(w);
                        }
                    }
                }
                std::mem::swap(&mut ws.queue, &mut ws.next);
            }
        }
        m
    }

    mod props {
        use super::*;
        use gplu_sparse::gen::circuit::{circuit, CircuitParams};
        use gplu_sparse::gen::mesh::{mesh, MeshParams};
        use gplu_sparse::gen::random::{banded_dominant, random_dominant};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// The bitmap sweep visits the same thresholds in the same
            /// order as the full scan: same emit sequence (not just the
            /// same set) and the same five metrics on every row, which is
            /// what keeps the symbolic phase's simulated time unchanged.
            #[test]
            fn prop_bitmap_sweep_equals_full_scan(
                family in 0usize..4,
                n in 20usize..200,
                density in 2.0f64..9.0,
                seed in 0u64..1000,
            ) {
                let a = match family {
                    0 => random_dominant(n, density, seed),
                    1 => banded_dominant(n, 1 + density as usize / 2, seed),
                    2 => mesh(&MeshParams::for_target(n, density, seed)),
                    _ => circuit(&CircuitParams { n, nnz_per_row: density, seed, ..Default::default() }),
                };
                let n = a.n_rows();
                let mut ws = Fill2Workspace::new(n);
                let mut reference_ws = Fill2Workspace::new(n);
                for src in 0..n as u32 {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    let m = fill2_row(&a, src, &mut ws, |c| got.push(c));
                    let r = fill2_row_full_scan(&a, src, &mut reference_ws, |c| want.push(c));
                    prop_assert_eq!(&got, &want, "emit order, row {}", src);
                    prop_assert_eq!(m, r, "metrics, row {}", src);
                    prop_assert!(ws.thresholds.iter().all(|&w| w == 0), "bitmap left dirty");
                }
            }
        }
    }
}
