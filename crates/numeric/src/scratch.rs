//! The kernel core's dense accumulator and its factorization-scoped pool.
//!
//! [`crate::outcome::process_column_with`] eliminates one column in an
//! `O(n)` buffer with direct row indexing (Gilbert–Peierls; the GLU 3.0
//! dense-column discipline). The buffer is never cleared: membership of a
//! row in the current column is an epoch stamp in `mark`, so starting a
//! column costs one counter bump, not an `O(n)` sweep.

use parking_lot::Mutex;

/// One block's dense accumulator: `x[row]` holds the working value of the
/// current column's entry in `row`, valid only where `mark[row]` equals
/// the stamp handed out for the current column. `depth[row]` is the
/// binary-search discipline's price list (how many probes Algorithm 6
/// takes to find `row` in the current column) and stays empty until a
/// column asks for it, so the other disciplines never pay its `n` bytes.
#[derive(Debug, Default)]
pub struct ColumnScratch {
    x: Vec<f64>,
    mark: Vec<u32>,
    depth: Vec<u8>,
    epoch: u32,
}

impl ColumnScratch {
    /// Starts a column of an `n`-row pattern: returns a stamp distinct
    /// from every value currently in the mark array, plus the accumulator
    /// and mark arrays (each exactly `n` long) and the probe-depth array
    /// (at least `n` long when `probe_depths` is set, else as it was
    /// left). Stamps are unique per *call*, never derived from the
    /// column index, so a scratch that has already seen column `j` — of
    /// this pattern or another — or a pooled scratch handed to another
    /// column cannot read a stale mark as membership; depths are read
    /// only where the mark matches.
    /// On epoch wrap the marks are re-cleared so old stamps cannot alias.
    pub(crate) fn begin(
        &mut self,
        n: usize,
        probe_depths: bool,
    ) -> (u32, &mut [f64], &mut [u32], &mut [u8]) {
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
        (
            self.epoch,
            &mut self.x[..n],
            &mut self.mark[..n],
            &mut self.depth,
        )
    }
}

/// Pool of [`ColumnScratch`]es, one per concurrently executing block,
/// created by the level drivers and dropped with the factorization (so
/// the `12·n` bytes per block never outlive it).
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
        let (s1, _, mark, _) = ws.begin(4, false);
        mark[2] = s1;
        let (s2, _, mark, _) = ws.begin(4, false);
        assert_ne!(s1, s2);
        assert_ne!(mark[2], s2, "a previous call's mark is not membership");

        // Park the epoch at the top: the next call stamps u32::MAX, the
        // one after wraps — and must not see the u32::MAX-era mark, nor a
        // mark left by the very first epoch, as current.
        ws.epoch = u32::MAX - 1;
        let (top, _, mark, _) = ws.begin(4, false);
        assert_eq!(top, u32::MAX);
        mark[0] = top;
        mark[1] = 1;
        let (wrapped, _, mark, _) = ws.begin(4, false);
        assert_eq!(wrapped, 1);
        assert_eq!(mark, [0, 0, 0, 0], "wrap re-clears every stale stamp");
    }

    #[test]
    fn grows_to_the_largest_pattern_seen() {
        let mut ws = ColumnScratch::default();
        assert_eq!(ws.begin(3, false).1.len(), 3);
        assert_eq!(ws.begin(8, false).2.len(), 8);
        assert_eq!(ws.begin(2, false).1.len(), 2);
    }

    #[test]
    fn probe_depths_are_sized_only_on_request() {
        let mut ws = ColumnScratch::default();
        assert!(ws.begin(8, false).3.is_empty(), "no probes, no bytes");
        assert_eq!(ws.begin(8, true).3.len(), 8);
        assert_eq!(ws.begin(3, false).3.len(), 8, "kept, like x and mark");
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
