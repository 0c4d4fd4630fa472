//! The kernel core's dense accumulator and its factorization-scoped pool.
//!
//! [`crate::outcome::process_column_with`] eliminates one column in an
//! `O(n)` buffer with direct row indexing (Gilbert–Peierls; the GLU 3.0
//! dense-column discipline). The buffer is never cleared: membership of a
//! row in the current column is an epoch stamp in `mark`, so starting a
//! column costs one counter bump, not an `O(n)` sweep. Beside it sits the
//! sweep buffer: one supernode run's own rows and common tail, gathered
//! contiguously so the core applies the run's dependencies as streaming
//! slice updates. It is kept here so a run costs no allocation once the
//! scratch has seen the longest one.

use parking_lot::Mutex;

/// One block's dense accumulator: `x[row]` holds the working value of the
/// current column's entry in `row`, valid only where `mark[row]` equals
/// the stamp handed out for the current column. `depth[row]` is the
/// binary-search discipline's price list (how many probes Algorithm 6
/// takes to find `row` in the current column) and stays empty until a
/// column asks for it, so the other disciplines never pay its `n` bytes.
/// `sweep` holds the current supernode run's rows, gathered from `x`; see
/// [`crate::outcome::process_column_with`].
#[derive(Debug, Default)]
pub struct ColumnScratch {
    x: Vec<f64>,
    mark: Vec<u32>,
    depth: Vec<u8>,
    sweep: Vec<f64>,
    epoch: u32,
}

/// One column's view of a [`ColumnScratch`], from [`ColumnScratch::begin`].
pub(crate) struct Accumulator<'a> {
    /// Distinct from every value currently in `mark`.
    pub stamp: u32,
    /// Working values, valid where `mark` holds `stamp` (exactly `n` long).
    pub x: &'a mut [f64],
    /// Membership stamps (exactly `n` long).
    pub mark: &'a mut [u32],
    /// Probe depths (at least `n` long when asked for, else as left).
    pub depth: &'a mut [u8],
    /// The sweep buffer, as the last run left it.
    pub sweep: &'a mut Vec<f64>,
}

impl ColumnScratch {
    /// Starts a column of an `n`-row pattern: returns a stamp distinct
    /// from every value currently in the mark array, plus the accumulator
    /// and mark arrays (each exactly `n` long), the probe-depth array
    /// (at least `n` long when `probe_depths` is set, else as it was
    /// left) and the sweep buffer. Stamps are unique per *call*,
    /// never derived from the column index, so a scratch that has
    /// already seen column `j` — of this pattern or another — or a pooled
    /// scratch handed to another column cannot read a stale mark as
    /// membership; depths are read only where the mark matches.
    /// On epoch wrap the marks are re-cleared so old stamps cannot alias.
    pub(crate) fn begin(&mut self, n: usize, probe_depths: bool) -> Accumulator<'_> {
        if self.mark.len() < n {
            self.x.resize(n, 0.0);
            self.mark.resize(n, 0);
        }
        if probe_depths && self.depth.len() < n {
            self.depth.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        Accumulator {
            stamp: self.epoch,
            x: &mut self.x[..n],
            mark: &mut self.mark[..n],
            depth: &mut self.depth,
            sweep: &mut self.sweep,
        }
    }
}

/// Pool of [`ColumnScratch`]es, one per concurrently executing block,
/// created by the level drivers and dropped with the factorization (so
/// the `12·n` bytes per block, and the sweep buffer, never outlive it).
#[derive(Debug, Default)]
pub(crate) struct ScratchPool {
    pool: Mutex<Vec<ColumnScratch>>,
}

impl ScratchPool {
    /// Runs `f` with a pooled (or fresh) scratch.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut ColumnScratch) -> R) -> R {
        let mut ws = self.pool.lock().pop().unwrap_or_default();
        let r = f(&mut ws);
        self.pool.lock().push(ws);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_unique_per_call_and_survive_the_wrap() {
        let mut ws = ColumnScratch::default();
        let acc = ws.begin(4, false);
        let s1 = acc.stamp;
        acc.mark[2] = s1;
        let acc = ws.begin(4, false);
        assert_ne!(s1, acc.stamp);
        assert_ne!(
            acc.mark[2], acc.stamp,
            "a previous call's mark is not membership"
        );

        // Park the epoch at the top: the next call stamps u32::MAX, the
        // one after wraps — and must not see the u32::MAX-era mark, nor a
        // mark left by the very first epoch, as current.
        ws.epoch = u32::MAX - 1;
        let acc = ws.begin(4, false);
        assert_eq!(acc.stamp, u32::MAX);
        acc.mark[0] = acc.stamp;
        acc.mark[1] = 1;
        let acc = ws.begin(4, false);
        assert_eq!(acc.stamp, 1);
        assert_eq!(acc.mark, [0, 0, 0, 0], "wrap re-clears every stale stamp");
    }

    #[test]
    fn grows_to_the_largest_pattern_seen() {
        let mut ws = ColumnScratch::default();
        assert_eq!(ws.begin(3, false).x.len(), 3);
        assert_eq!(ws.begin(8, false).mark.len(), 8);
        assert_eq!(ws.begin(2, false).x.len(), 2);
    }

    #[test]
    fn the_sweep_buffer_keeps_its_capacity_across_columns() {
        let mut ws = ColumnScratch::default();
        ws.begin(4, false).sweep.extend([1.0; 64]);
        let cap = ws.begin(4, false).sweep.capacity();
        assert!(cap >= 64, "the longest run's buffer is kept: {cap}");
    }

    #[test]
    fn probe_depths_are_sized_only_on_request() {
        let mut ws = ColumnScratch::default();
        assert!(ws.begin(8, false).depth.is_empty(), "no probes, no bytes");
        assert_eq!(ws.begin(8, true).depth.len(), 8);
        assert_eq!(ws.begin(3, false).depth.len(), 8, "kept, like x and mark");
    }

    #[test]
    fn pool_reuses_returned_scratches() {
        let pool = ScratchPool::default();
        pool.with(|ws| {
            ws.begin(16, false);
            // A nested checkout gets its own scratch.
            pool.with(|inner| assert_eq!(inner.epoch, 0));
        });
        assert_eq!(pool.pool.lock().len(), 2);
        pool.with(|ws| {
            ws.begin(16, false);
        });
        assert_eq!(pool.pool.lock().len(), 2, "checkouts are returned");
    }
}
