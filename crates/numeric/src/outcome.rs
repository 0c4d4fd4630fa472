//! Shared outcome type, the per-column functional kernel core (one dense
//! accumulator behind all three access disciplines, which differ only in
//! the location counter they report), and the per-factorization
//! pivot-position cache.
//!
//! The core consumes a column's dependencies a supernode run at a time:
//! consecutive dependency columns whose lower parts nest
//! (`lower(t) = {t + 1} ∪ lower(t + 1)`, recorded by the cache as chain
//! ends) share one row list, so the run's rows are gathered into one
//! contiguous buffer once and swept column by column: each dependency's
//! update is one streaming slice operation over its finished lower part,
//! read from the [`ColumnStore`] as a plain slice. Every row still
//! receives the same subtractions in the same order, so the factor bits,
//! the counters and every price are those of the one-dependency-at-a-time
//! walk.

use crate::modes::ModeMix;
use crate::scratch::ColumnScratch;
use crate::values::ColumnStore;
use gplu_sim::{GpuStatsSnapshot, SimTime};
use gplu_sparse::{Csc, Idx, SparseError};

/// Result of a GPU numeric factorization.
#[derive(Debug, Clone)]
pub struct NumericOutcome {
    /// The combined factor (unit-diagonal `L` strictly below the diagonal,
    /// `U` on and above) on the filled pattern.
    pub lu: Csc,
    /// Simulated time of the numeric phase.
    pub time: SimTime,
    /// GPU statistics delta of the home device (the one the phase's
    /// factors end on). A split level's shares on other devices are not
    /// in it: a whole-fleet figure sums every device's delta
    /// ([`gplu_sim::FleetStats::summed_since`]).
    pub stats: GpuStatsSnapshot,
    /// How many levels ran in each kernel mode.
    pub mode_mix: ModeMix,
    /// Dense format only: the `M = L_free/(n·sizeof)` concurrency limit.
    pub m_limit: Option<usize>,
    /// Dense format only: total batched kernel launches (levels split into
    /// `⌈width/M⌉` batches).
    pub batches: u64,
    /// Binary-search format only: total probes (Algorithm 6).
    pub probes: u64,
    /// Merge format only: total two-pointer advances of the destination
    /// cursor (the streaming analog of `probes`).
    pub merge_steps: u64,
    /// Blocked format only: total BLAS-3 update tiles executed by the
    /// supernode block kernels.
    pub gemm_tiles: u64,
    /// Static-pivoting deltas applied at division time, as
    /// `(col, delta)` sorted by column — empty unless the run used
    /// [`PivotRule::Perturb`] and a pivot actually fell below the floor.
    /// The factors exactly factor the input with each `a_jj` bumped by
    /// its delta, so callers mirror these into the matrix before any
    /// residual check.
    pub perturbations: Vec<(usize, f64)>,
}

/// How the *device* kernel being modelled locates the update targets
/// inside a destination column — a price list, not an algorithm.
///
/// All three execute on one host core — scatter the column into an `O(n)`
/// accumulator, update by direct row indexing, gather back — so each
/// target position receives its subtractions in ascending dependency
/// order and then the division, the factor bits are the same, and a
/// failing column leaves the store untouched whichever discipline ran.
/// The discipline selects which location counter of [`ColCosts`] the
/// core fills in, in closed form from positions alone; nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDiscipline {
    /// Dense per-column buffers (GLU 3.0): each target row indexes an
    /// `O(n)` scatter buffer directly — which is exactly how the core
    /// executes it. No location counter.
    Dense,
    /// Sorted CSC with per-element binary search — the paper's
    /// Algorithm 6. [`ColCosts::probes`] (which prices Figure 8 /
    /// Table 4) is, per located target, the number of iterations that
    /// search takes to reach it: the depth of its position in the
    /// column's search tree, `≈ log2(nnz_col)`.
    BinarySearch,
    /// Sorted CSC with a two-pointer merge-join of the source segment and
    /// the destination column. Both sides are sorted by row, so one
    /// forward walk locates every target: `O(nnz_t + nnz_j)` per update
    /// instead of `O(nnz_t · log nnz_j)`, and no probe surcharge. The
    /// walk's cursor advances are [`ColCosts::merge_steps`] — per
    /// dependency, the distance in column `j` from `u_tj` to the
    /// segment's last row.
    Merge,
}

/// Per-factorization cache of the structure every engine otherwise
/// re-derives over and over: for each column `j`, the first
/// strictly-sub-diagonal position `lower_bound_after(j, j)`, whether the
/// diagonal entry `(j, j)` is present (it then sits just before), and the
/// end of the fundamental supernode chain `j` starts.
///
/// Built once per factorization in `O(nnz)`; afterwards the per-column
/// pivot lookup, the per-dependency source-segment start and the extent
/// of a supernode run are `O(1)` array reads instead of searches. (The
/// *update* probes Algorithm 6 is priced for are unaffected — those
/// locate fill positions in the destination column, which this cache
/// cannot know.) 13 bytes per column: what a refactorization plan's
/// budget charges for it (16) still covers it.
#[derive(Debug, Clone, Default)]
pub struct PivotCache {
    /// `lower_bound_after(j, j)`: first position in column `j` whose row
    /// exceeds `j`.
    lower_start: Vec<usize>,
    /// Whether `(j, j)` is structurally present, at `lower_start[j] - 1`.
    has_diag: Vec<bool>,
    /// Last column `e ≥ j` such that every `c` in `j..e` has
    /// `lower(c) = {c + 1} ∪ lower(c + 1)`, where `lower(c)` is the row
    /// set of column `c` strictly below its diagonal.
    chain_end: Vec<Idx>,
}

impl PivotCache {
    /// Scans the pattern once and records every column's positions and
    /// chain end. A chain link compares `lower(c)` with `lower(c + 1)`
    /// only when their lengths say it can hold, so the scan is `O(nnz)`.
    pub fn build(pattern: &Csc) -> PivotCache {
        let n = pattern.n_cols();
        let (col_ptr, row_idx) = (&pattern.col_ptr, &pattern.row_idx);
        let lower_start: Vec<usize> = (0..n).map(|j| pattern.lower_bound_after(j, j)).collect();
        let has_diag = (0..n)
            .map(|j| {
                let lb = lower_start[j];
                lb > col_ptr[j] && row_idx[lb - 1] as usize == j
            })
            .collect();
        let mut chain_end: Vec<Idx> = (0..n as Idx).collect();
        for c in (0..n.saturating_sub(1)).rev() {
            let lower = &row_idx[lower_start[c]..col_ptr[c + 1]];
            let next = &row_idx[lower_start[c + 1]..col_ptr[c + 2]];
            if lower.first() == Some(&(c as Idx + 1)) && lower[1..] == *next {
                chain_end[c] = chain_end[c + 1];
            }
        }
        PivotCache {
            lower_start,
            has_diag,
            chain_end,
        }
    }

    /// Position of the diagonal entry of column `j`, if present.
    #[inline]
    pub fn diag(&self, j: usize) -> Option<usize> {
        self.has_diag[j].then(|| self.lower_start[j] - 1)
    }

    /// First position in column `j` whose row index exceeds `j` (the start
    /// of the `L` segment).
    #[inline]
    pub fn lower_start(&self, j: usize) -> usize {
        self.lower_start[j]
    }

    /// Last column of the fundamental supernode chain starting at `j`:
    /// the largest `e` with `lower(c) = {c + 1} ∪ lower(c + 1)` for every
    /// `c` in `j..e` (`j` itself when the chain is a single column). Then
    /// `lower(j)` is the rows `j + 1..=e` followed by `lower(e)`, in that
    /// order.
    #[inline]
    pub fn chain_end(&self, j: usize) -> usize {
        self.chain_end[j] as usize
    }

    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        self.lower_start.capacity() * std::mem::size_of::<usize>()
            + self.has_diag.capacity()
            + self.chain_end.capacity() * std::mem::size_of::<Idx>()
    }

    /// Number of columns covered.
    pub fn len(&self) -> usize {
        self.lower_start.len()
    }

    /// True when built for an empty pattern.
    pub fn is_empty(&self) -> bool {
        self.lower_start.is_empty()
    }
}

/// Engine-level pivot handling, derived from the pipeline's
/// `PivotPolicy` and threaded through [`crate::engine::run_levels`] into
/// every kernel core call.
///
/// A column's pivot value is final before its division step (the level
/// barrier guarantees every update has been applied), so a rule applied
/// at division time is deterministic, independent of the access
/// discipline, and identical across all five engines — the bit-identity
/// contract survives. The engines run [`PivotRule::Exact`] or, under the
/// static policy, [`PivotRule::Perturb`]. [`PivotRule::Threshold`] is
/// only the discovery sweep's ([`crate::pivoting::discover_pivots_swept`]):
/// threshold pivoting picks its row order before any engine runs, and the
/// engines then factorize the permuted system exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PivotRule {
    /// Reject zero/non-finite pivots with [`SparseError::ZeroPivot`]
    /// (the historical behavior; also what threshold-pivoted runs use).
    #[default]
    Exact,
    /// Static perturbation: a pivot with `|pivot| < threshold` is replaced
    /// by `±threshold` (keeping its sign; `+threshold` for an exact zero)
    /// before the division. Equivalent to bumping the input diagonal
    /// `a_jj` by the same delta, so the factors exactly factor the
    /// perturbed matrix.
    Perturb {
        /// The magnitude floor below which pivots are clamped.
        threshold: f64,
    },
    /// Threshold pivoting's no-swap test: column `j` keeps its diagonal
    /// pivot only when every value of the finished column is finite,
    /// `x_jj ≠ 0`, the largest `|x_ij|` over rows `i ≥ j` is `> 0`, and
    /// `|x_jj| ≥ tau · max` — the comparison
    /// [`crate::pivoting::discover_pivots`] keeps the diagonal by. A column
    /// that fails is [`SparseError::ZeroPivot`]: its diagonal is not the
    /// pivot, and the sweep that runs this rule hands the matrix to
    /// `discover_pivots`. The finiteness of the column's rows above the
    /// diagonal is this rule's own: past a non-finite value `0 · ∞` would
    /// make the core's arithmetic differ from the discovery's, which
    /// skips structurally present zeros.
    Threshold {
        /// Relative pivot tolerance in `(0, 1]`.
        tau: f64,
    },
}

impl PivotRule {
    /// Applies the rule to a finished pivot value: returns the value to
    /// divide by and the delta added to it (`None` when untouched).
    /// [`PivotRule::Threshold`] reads the whole column, in
    /// [`process_column_with`], and never changes the pivot.
    #[inline]
    pub fn apply(self, pivot: f64) -> (f64, Option<f64>) {
        match self {
            PivotRule::Exact | PivotRule::Threshold { .. } => (pivot, None),
            PivotRule::Perturb { threshold } => {
                if pivot.is_finite() && pivot.abs() < threshold {
                    let clamped = if pivot == 0.0 {
                        threshold
                    } else {
                        pivot.signum() * threshold
                    };
                    (clamped, Some(clamped - pivot))
                } else {
                    (pivot, None)
                }
            }
        }
    }
}

/// Operation counts of one column's factorization, for cost charging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColCosts {
    /// Dependency columns consumed (update steps).
    pub deps: u64,
    /// Multiply–add items applied.
    pub items: u64,
    /// Binary-search probes (binary-search access only).
    pub probes: u64,
    /// Destination-cursor advances (merge access only).
    pub merge_steps: u64,
    /// Entries of the column (scatter/gather volume for the dense format).
    pub nnz: u64,
    /// Sub-diagonal values that were non-zero before the division — the
    /// `nzL(j)` of the Gilbert–Peierls flop count. Counted under
    /// [`PivotRule::Threshold`] only, whose test reads those values anyway;
    /// zero under every other rule.
    pub lower_nz: u64,
}

/// Factorizes column `j` against finished columns of the shared
/// [`ColumnStore`] (`pattern` supplies the immutable structure, `cache`
/// the pre-computed pivot/segment positions, `scratch` the block's dense
/// accumulator) — [`process_column_with`] under [`PivotRule::Exact`].
pub fn process_column(
    pattern: &Csc,
    store: &ColumnStore<'_>,
    j: usize,
    discipline: AccessDiscipline,
    cache: &PivotCache,
    scratch: &mut ColumnScratch,
) -> Result<ColCosts, SparseError> {
    process_column_with(
        pattern,
        store,
        j,
        discipline,
        cache,
        PivotRule::Exact,
        scratch,
    )
    .map(|(c, _)| c)
}

/// The dense-accumulator core behind every engine and every discipline:
/// open column `j` in the store, scatter it into `x[row]`, eliminate
/// against each dependency, apply `rule` to the pivot, and publish the
/// factors — one read and one write per entry of the column, plain `f64`
/// arithmetic in between. Returns the column's costs plus the
/// static-perturbation delta applied to the pivot, if any; the perturbed
/// pivot is written back so the factor is self-consistent (it exactly
/// factors the input with `a_jj` bumped by the delta).
///
/// Dependencies are consumed a *run* at a time: consecutive dependency
/// columns `t..t+w` of column `j` that lie in one fundamental supernode
/// chain ([`PivotCache::chain_end`]), so each `lower(t+i)` is the run's
/// own later rows followed by the common tail `R = lower(t+w-1)`. The
/// core gathers the run's rows `t..t+w` and then `R` into one contiguous
/// buffer `y` and sweeps it column by column: for each dependency `t+i`
/// in ascending order whose `u = y[i]` is non-zero, it subtracts `u ×`
/// the finished lower part of column `t+i` — exactly the rows of
/// `y[i+1..]`, one contiguous slice of the store — from `y[i+1..]`. Then
/// it checks the tail's marks in order and scatters `y` back. A run of
/// width 1 updates its tail in place through the tail's row list: the
/// same sweep with an empty triangle and the same arithmetic, without the
/// gather.
///
/// Per target position the subtractions therefore still arrive in
/// ascending dependency order, then the division — the order a
/// sorted-CSC walk applies them in — so the factor bits are the walk's.
/// A dependency whose `u_tj` is exactly `0.0` is skipped, and a missing
/// fill is the first unmarked row of the first non-skipped segment, as
/// in the walk. `discipline` prices that walk without taking it (see
/// [`AccessDiscipline`]): for merge, per dependency with a non-empty
/// segment the destination cursor advanced from just past `u_tj` to just
/// past the segment's last row; for binary search, every located target
/// cost its depth in the column's search tree.
///
/// **Failure-atomic and write-once:** every check runs on the
/// accumulator and the column is published only once they have all
/// passed, so an `Err` leaves the store exactly as it was. A written
/// column cannot be opened again — its stored values are its factors,
/// and a second pass would eliminate them a second time — so running it
/// again, or running it before one of its dependencies is sealed
/// ([`ColumnStore::seal`]), is [`SparseError::OutOfOrder`].
///
/// Kept out of line: the level driver's kernel body is a closure
/// instantiated per engine type per downstream crate, and one shared copy
/// of the hot loop beats a copy in each.
#[inline(never)]
pub fn process_column_with(
    pattern: &Csc,
    store: &ColumnStore<'_>,
    j: usize,
    discipline: AccessDiscipline,
    cache: &PivotCache,
    rule: PivotRule,
    scratch: &mut ColumnScratch,
) -> Result<(ColCosts, Option<f64>), SparseError> {
    let column = store
        .open(j)
        .ok_or(SparseError::OutOfOrder { col: j, dep: j })?;
    let (start, end) = (pattern.col_ptr[j], pattern.col_ptr[j + 1]);
    let rows = &pattern.row_idx[start..end];
    let mut costs = ColCosts {
        nnz: rows.len() as u64,
        ..ColCosts::default()
    };
    let count_probes = discipline == AccessDiscipline::BinarySearch;
    let count_steps = discipline == AccessDiscipline::Merge;
    let acc = scratch.begin(pattern.n_rows(), count_probes);
    let (stamp, x, mark, depth, y) = (acc.stamp, acc.x, acc.mark, acc.depth, acc.sweep);
    for (&r, &v) in rows.iter().zip(column.values()) {
        x[r as usize] = v;
        mark[r as usize] = stamp;
    }
    if count_probes {
        probe_depths(rows, 1, depth);
    }
    // Column `c`'s sealed factors below its diagonal.
    let lower = |c: usize| -> Result<&[f64], SparseError> {
        let col = store
            .column(c)
            .ok_or(SparseError::OutOfOrder { col: j, dep: c })?;
        Ok(&col[cache.lower_start(c) - pattern.col_ptr[c]..])
    };

    let n_deps = rows.partition_point(|&r| (r as usize) < j);
    let mut k = 0;
    while k < n_deps {
        // The run: `t`, then each next dependency that is the next column
        // of `t`'s chain. (A row the chain needs but column `j` lacks cuts
        // the run short; the tail check then finds it unmarked.)
        let t = rows[k] as usize;
        let reach = cache.chain_end(t);
        let mut w = 1;
        while t + w <= reach && k + w < n_deps && rows[k + w] as usize == t + w {
            w += 1;
        }
        costs.deps += w as u64;
        let tail_col = t + w - 1;
        let tail = &pattern.row_idx[cache.lower_start(tail_col)..pattern.col_ptr[tail_col + 1]];

        // How many of the run's dependencies applied (non-zero `u`), and
        // the sum of their offsets `i` in the run.
        let (mut applied, mut dep_offsets) = (0u64, 0usize);
        if w == 1 {
            let u = x[t];
            if u != 0.0 {
                for (&r, &l) in tail.iter().zip(lower(t)?) {
                    let r = r as usize;
                    if mark[r] != stamp {
                        return Err(SparseError::MissingFill { row: r, col: j });
                    }
                    x[r] -= l * u;
                }
                applied = 1;
            }
        } else {
            // `y[c]` is row `t + c` for `c < w`, then the tail's rows; the
            // lower part of column `t + i` is the rows of `y[i + 1..]`.
            y.clear();
            y.extend_from_slice(&x[t..t + w]);
            y.extend(tail.iter().map(|&r| x[r as usize]));
            for i in 0..w {
                if count_probes {
                    // Row `t + i` received every dependency applied so far.
                    costs.probes += applied * depth[t + i] as u64;
                }
                let u = y[i];
                if u == 0.0 {
                    continue;
                }
                for (v, &l) in y[i + 1..].iter_mut().zip(lower(t + i)?) {
                    *v -= l * u;
                }
                applied += 1;
                dep_offsets += i;
            }
            if applied > 0 {
                if let Some(&r) = tail.iter().find(|&&r| mark[r as usize] != stamp) {
                    return Err(SparseError::MissingFill {
                        row: r as usize,
                        col: j,
                    });
                }
                x[t..t + w].copy_from_slice(&y[..w]);
                for (&r, &v) in tail.iter().zip(&y[w..]) {
                    x[r as usize] = v;
                }
            }
        }
        if applied == 0 {
            k += w;
            continue; // every `u` of the run was zero: nothing was touched
        }

        // Dependency `t + i` updated the `w - 1 - i` run rows after it and
        // the whole tail.
        costs.items += applied * (w - 1 + tail.len()) as u64 - dep_offsets as u64;
        if count_probes {
            // Every row of the tail was just found marked, so its depth
            // is this column's.
            costs.probes += applied * tail.iter().map(|&r| depth[r as usize] as u64).sum::<u64>();
        }
        if count_steps {
            // Every segment of the run ends at the tail's last row (or, with
            // an empty tail, at the run's last row `t + w - 1`, found at
            // `k + w - 1`); the cursor of dependency `t + i` walks from
            // position `k + i` to there.
            let end_pos = match tail.last() {
                Some(&last) => k + w + rows[k + w..].partition_point(|&r| r < last),
                None => k + w - 1,
            };
            costs.merge_steps += applied * (end_pos - k) as u64 - dep_offsets as u64;
        }
        k += w;
    }

    // The pivot is final here (the level barrier ordered every update
    // before this call), so the static-perturbation rule applies
    // deterministically regardless of engine or access discipline.
    let diag_pos = cache.diag(j).ok_or(SparseError::ZeroDiagonal { row: j })?;
    let diag = diag_pos - start;
    if let PivotRule::Threshold { tau } = rule {
        costs.lower_nz =
            keeps_diagonal(rows, x, diag, tau).ok_or(SparseError::ZeroPivot { col: j })?;
    }
    let (pivot, perturbed) = rule.apply(x[j]);
    if pivot == 0.0 || !pivot.is_finite() {
        return Err(SparseError::ZeroPivot { col: j });
    }
    column.publish(|col| {
        let (above, from_diag) = col.split_at_mut(diag);
        for (v, &r) in above.iter_mut().zip(rows) {
            *v = x[r as usize];
        }
        from_diag[0] = pivot;
        for (v, &r) in from_diag[1..].iter_mut().zip(&rows[diag + 1..]) {
            *v = x[r as usize] / pivot;
        }
    });
    costs.items += (rows.len() - diag - 1) as u64;
    Ok((costs, perturbed))
}

/// [`PivotRule::Threshold`]'s test over the finished column `x` (its
/// rows `rows`, the diagonal at `rows[diag]`): `Some(nzL)`, the count of
/// non-zero sub-diagonal values, when the diagonal is kept. (`max > 0`
/// follows from `x_jj ≠ 0`, which the maximum covers.)
fn keeps_diagonal(rows: &[Idx], x: &[f64], diag: usize, tau: f64) -> Option<u64> {
    if !rows.iter().all(|&r| x[r as usize].is_finite()) {
        return None;
    }
    let pivot = x[rows[diag] as usize];
    let lower = rows[diag + 1..].iter().map(|&r| x[r as usize]);
    let max = lower.clone().fold(pivot.abs(), |m, v| m.max(v.abs()));
    (pivot != 0.0 && pivot.abs() >= tau * max).then(|| lower.filter(|&v| v != 0.0).count() as u64)
}

/// Records in `depth[row]`, for every row of the sorted column `rows`,
/// how many probes Algorithm 6's search takes to find it: `level` for the
/// midpoint the search tries first, one more for each halving below it.
/// The split is that of [`Csc`]'s own column search (`mid = (fs + fe) / 2`
/// over a closed range; a column's offset in `row_idx` is added to both
/// ends and drops out), and a search tree is at most 32 levels deep.
fn probe_depths(rows: &[gplu_sparse::Idx], level: u8, depth: &mut [u8]) {
    if let Some(last) = rows.len().checked_sub(1) {
        let mid = last / 2;
        depth[rows[mid] as usize] = level;
        probe_depths(&rows[..mid], level + 1, depth);
        probe_depths(&rows[mid + 1..], level + 1, depth);
    }
}

/// Structural cost estimate of a column's factorization: `(deps, items)`
/// where `items` counts the multiply–adds plus the division entries —
/// what cost-only co-stripes (type-C cooperative blocks) charge without
/// touching values; exact up to deps whose current value happens to be
/// 0.0. Every `lower_bound_after` is served by the [`PivotCache`], so it
/// is `O(nnz_j)` with no binary searches. The level driver calls this
/// once per column per level and hands the result to every stripe.
pub fn column_cost_estimate_cached(pattern: &Csc, cache: &PivotCache, j: usize) -> (u64, u64) {
    let (start, end) = (pattern.col_ptr[j], pattern.col_ptr[j + 1]);
    let mut deps = 0u64;
    let mut items = 0u64;
    for k in start..end {
        let t = pattern.row_idx[k] as usize;
        if t >= j {
            break;
        }
        deps += 1;
        items += (pattern.col_ptr[t + 1] - cache.lower_start(t)) as u64;
    }
    items += (end - cache.lower_start(j)) as u64;
    (deps, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::ValueStore;

    /// [`super::process_column`], then the seal the level driver applies
    /// at the level boundary, so that later columns can read this one.
    fn process_column(
        pattern: &Csc,
        store: &mut ColumnStore<'_>,
        j: usize,
        discipline: AccessDiscipline,
        cache: &PivotCache,
        scratch: &mut ColumnScratch,
    ) -> Result<ColCosts, SparseError> {
        let costs = super::process_column(pattern, store, j, discipline, cache, scratch);
        store.seal([j]);
        costs
    }
    use gplu_schedule::{levelize_cpu, DepGraph, Levels};
    use gplu_sim::CostModel;
    use gplu_sparse::convert::{coo_to_csr, csr_to_csc};
    use gplu_sparse::gen::hard::HardKind;
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_sparse::gen::{circuit, mesh};
    use gplu_sparse::Csr;
    use gplu_symbolic::symbolic_cpu;
    use proptest::prelude::*;
    use std::sync::Barrier;

    fn filled(a: &Csr) -> Csc {
        csr_to_csc(&symbolic_cpu(a, &CostModel::default()).result.filled)
    }

    fn filled_with_levels(a: &Csr) -> (Csc, Levels) {
        let sym = symbolic_cpu(a, &CostModel::default()).result.filled;
        let levels = levelize_cpu(&DepGraph::build(&sym), &CostModel::default()).levels;
        (csr_to_csc(&sym), levels)
    }

    fn all_ones_2x2() -> Csc {
        let mut coo = gplu_sparse::Coo::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0);
            }
        }
        filled(&coo_to_csr(&coo))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const ALL: [AccessDiscipline; 3] = [
        AccessDiscipline::Dense,
        AccessDiscipline::BinarySearch,
        AccessDiscipline::Merge,
    ];

    /// The sorted-CSC walks the engines ran before the accumulator core,
    /// updates applied in place: for every dependency a compare-and-advance
    /// cursor over column `j` (dense, merge), or Algorithm 6's probing loop
    /// — one `find_in_col` per target (binary search). Reference for
    /// values, costs (`merge_steps` is the cursor's advance count, `probes`
    /// the search's iterations) and errors.
    fn process_column_walk(
        pattern: &Csc,
        vals: &ValueStore,
        j: usize,
        discipline: AccessDiscipline,
        cache: &PivotCache,
        rule: PivotRule,
    ) -> Result<(ColCosts, Option<f64>), SparseError> {
        let count_steps = discipline == AccessDiscipline::Merge;
        let mut costs = ColCosts::default();
        let (start, end) = (pattern.col_ptr[j], pattern.col_ptr[j + 1]);
        costs.nnz = (end - start) as u64;

        for k in start..end {
            let t = pattern.row_idx[k] as usize;
            if t >= j {
                break;
            }
            costs.deps += 1;
            let u_tj = vals.get(k);
            if u_tj == 0.0 {
                continue;
            }
            let mut dst = k + 1;
            for src in cache.lower_start(t)..pattern.col_ptr[t + 1] {
                let i = pattern.row_idx[src];
                if discipline == AccessDiscipline::BinarySearch {
                    let (pos, probes) = pattern.find_in_col(i as usize, j);
                    costs.probes += probes as u64;
                    costs.items += 1;
                    let pos = pos.ok_or(SparseError::MissingFill {
                        row: i as usize,
                        col: j,
                    })?;
                    vals.set(pos, vals.get(pos) - vals.get(src) * u_tj);
                    continue;
                }
                while dst < end && pattern.row_idx[dst] < i {
                    dst += 1;
                    costs.merge_steps += count_steps as u64;
                }
                if dst >= end || pattern.row_idx[dst] != i {
                    return Err(SparseError::MissingFill {
                        row: i as usize,
                        col: j,
                    });
                }
                costs.items += 1;
                vals.set(dst, vals.get(dst) - vals.get(src) * u_tj);
                dst += 1;
                costs.merge_steps += count_steps as u64;
            }
        }

        let diag_pos = cache.diag(j).ok_or(SparseError::ZeroDiagonal { row: j })?;
        let (pivot, perturbed) = rule.apply(vals.get(diag_pos));
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(SparseError::ZeroPivot { col: j });
        }
        if perturbed.is_some() {
            vals.set(diag_pos, pivot);
        }
        for k in (diag_pos + 1)..end {
            costs.items += 1;
            vals.set(k, vals.get(k) / pivot);
        }
        Ok((costs, perturbed))
    }

    /// Runs every column in level order through both kernels on separate
    /// stores, under every discipline, up to the first failing column, and
    /// asserts identical results (costs, perturbation deltas or the error)
    /// per column and identical value bits at the end. Returns how many
    /// columns skipped a dependency on an exact-zero `u_tj`, and the last
    /// failing column seen.
    fn assert_accumulator_equals_walk(
        pattern: &Csc,
        levels: &Levels,
        label: &str,
    ) -> Result<(usize, Option<usize>), TestCaseError> {
        let cache = PivotCache::build(pattern);
        let mut skipped = 0;
        let mut last_failed = None;
        for d in ALL {
            // 1e-8 is the pipeline's static-pivoting floor; 1e-2 makes the
            // clamp fire dozens of times on the hard families.
            for rule in [
                PivotRule::Exact,
                PivotRule::Perturb { threshold: 1e-8 },
                PivotRule::Perturb { threshold: 1e-2 },
            ] {
                let mut values = pattern.vals.clone();
                let mut got = ColumnStore::new(&mut values, &pattern.col_ptr);
                let want = ValueStore::new(&pattern.vals);
                let mut scratch = ColumnScratch::default();
                let mut failed = None;
                'levels: for cols in &levels.groups {
                    for &j in cols {
                        let j = j as usize;
                        let g =
                            process_column_with(pattern, &got, j, d, &cache, rule, &mut scratch);
                        got.seal([j]);
                        let w = process_column_walk(pattern, &want, j, d, &cache, rule);
                        prop_assert_eq!(&g, &w, "{}: {:?} {:?} column {}", label, d, rule, j);
                        match g {
                            Ok((c, _)) => {
                                let structural = column_cost_estimate_cached(pattern, &cache, j).1;
                                skipped += (c.items < structural) as usize;
                            }
                            Err(_) => {
                                failed = Some(j);
                                break 'levels;
                            }
                        }
                    }
                }
                // The walk half-writes a failing column; every other
                // position must agree to the bit.
                let (got, mut want) = (got.snapshot(), want.into_vec());
                if let Some(j) = failed {
                    let range = pattern.col_ptr[j]..pattern.col_ptr[j + 1];
                    want[range.clone()].copy_from_slice(&pattern.vals[range.clone()]);
                    prop_assert!(
                        bits(&got[range.clone()]) == bits(&pattern.vals[range]),
                        "{}: {:?} {:?} failing column {} written",
                        label,
                        d,
                        rule,
                        j
                    );
                }
                let differs = (0..got.len()).find(|&k| got[k].to_bits() != want[k].to_bits());
                prop_assert_eq!(differs, None, "{}: {:?} {:?} value bits", label, d, rule);
                last_failed = failed.or(last_failed);
            }
        }
        Ok((skipped, last_failed))
    }

    fn assert_on_matrix(a: &Csr, label: &str) -> Result<(), TestCaseError> {
        let (pattern, levels) = filled_with_levels(a);
        assert_accumulator_equals_walk(&pattern, &levels, label).map(|_| ())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_accumulator_equals_walk(
            n in 20usize..120,
            density in 3.0f64..6.0,
            band in 2usize..8,
            seed in 0u64..500,
        ) {
            assert_on_matrix(&random_dominant(n, density, seed), "random")?;
            assert_on_matrix(&banded_dominant(n, band, seed), "banded")?;
            assert_on_matrix(
                &mesh::mesh(&mesh::MeshParams::for_target(n.max(25), density, seed)),
                "mesh",
            )?;
            assert_on_matrix(
                &circuit::circuit(&circuit::CircuitParams {
                    n: n.max(30),
                    nnz_per_row: density,
                    seed,
                    ..Default::default()
                }),
                "circuit",
            )?;
            // Unpivoted hard traffic: tiny, cancelling and structurally
            // absent pivots, so the error and perturbation paths run too.
            for kind in HardKind::ALL {
                assert_on_matrix(&kind.generate(n, seed), kind.name())?;
            }
        }

        /// Long supernode runs ([`bordered`]): runs up to 200 wide with a
        /// non-empty tail, exact-zero `u`s inside a run (rows of the block
        /// that are zero off the diagonal), and a fill position cut from
        /// the tail of one column's run — a block column's or, as wide as
        /// the block, a border column's.
        #[test]
        fn prop_long_runs_equal_the_walk(
            sparse in 1usize..30,
            block in 64usize..200,
            border in 2usize..16,
            zero_rows in proptest::collection::vec(0usize..200, 0..4),
            cut in 0usize..3000,
            seed in 0u64..500,
        ) {
            let zero_rows: Vec<usize> = zero_rows.iter().map(|z| sparse + z % block).collect();
            let (closed, levels) = filled_with_levels(&bordered(sparse, block, border, seed, &zero_rows));
            let n = closed.n_cols();
            // Two cases in three cut row `n - 1` from a column after the
            // first of the block: a block column or a border column but the
            // last, each of which holds it in the tail of a run.
            let lone = sparse + block;
            let cut = match cut / 1000 {
                0 => Some(sparse + 1 + cut % (block - 1)),
                1 => Some(lone + 1 + cut % (border - 1)),
                _ => None,
            };
            let pattern = match cut {
                Some(j) => without(&closed, n - 1, j),
                None => closed,
            };
            let (skipped, failed) = assert_accumulator_equals_walk(&pattern, &levels, "bordered")?;
            let uncut_zeros = !zero_rows.is_empty() && cut.is_none();
            prop_assert!(!uncut_zeros || skipped > 0, "a zero `u` is skipped");
            prop_assert_eq!(failed, cut, "the cut fill is what fails");
        }
    }

    #[test]
    fn accumulator_equals_walk_across_explicit_zero_dependencies() {
        // Zero the first super-diagonal entry of every other column: no
        // earlier dependency can update it, so it is still an exact 0.0
        // when the kernel reads it as `u_tj` and the dependency is skipped.
        let (mut pattern, levels) = filled_with_levels(&random_dominant(80, 5.0, 67));
        for j in (0..80).step_by(2) {
            let first = pattern.col_ptr[j];
            if (pattern.row_idx[first] as usize) < j {
                pattern.vals[first] = 0.0;
            }
        }
        let (skipped, _) =
            assert_accumulator_equals_walk(&pattern, &levels, "explicit zeros").expect("equal");
        assert!(skipped > 0, "the zero-u_tj skip path must be exercised");
    }

    #[test]
    fn two_threads_share_the_pool_over_wide_levels() {
        let (pattern, levels) = filled_with_levels(&random_dominant(200, 3.0, 68));
        assert!(levels.groups.iter().any(|g| g.len() >= 8), "wide level");
        let cache = PivotCache::build(&pattern);
        let want = ValueStore::new(&pattern.vals);
        for j in levels.groups.iter().flatten() {
            let j = *j as usize;
            process_column_walk(
                &pattern,
                &want,
                j,
                AccessDiscipline::Merge,
                &cache,
                PivotRule::Exact,
            )
            .expect("walk ok");
        }

        let mut values = pattern.vals.clone();
        let mut got = ColumnStore::new(&mut values, &pattern.col_ptr);
        let pool = crate::scratch::ScratchPool::default();
        for cols in &levels.groups {
            let (left, right) = cols.split_at(cols.len() / 2);
            // Both threads hold a checked-out scratch at the same time on
            // their first column (levels of one column run on one thread).
            let both = Barrier::new(2);
            let rendezvous = !left.is_empty();
            std::thread::scope(|s| {
                for half in [left, right] {
                    let (pattern, got, cache, pool, both) = (&pattern, &got, &cache, &pool, &both);
                    s.spawn(move || {
                        for (i, &j) in half.iter().enumerate() {
                            pool.with(|ws| {
                                if rendezvous && i == 0 {
                                    both.wait();
                                }
                                super::process_column(
                                    pattern,
                                    got,
                                    j as usize,
                                    AccessDiscipline::Merge,
                                    cache,
                                    ws,
                                )
                                .expect("column ok");
                            });
                        }
                    });
                }
            });
            got.seal(cols.iter().map(|&j| j as usize));
        }
        assert_eq!(bits(&got.snapshot()), bits(&want.snapshot()));
    }

    #[test]
    fn rerunning_a_column_on_the_same_scratch_sees_no_stale_marks() {
        // Column j of the closed pattern, then the same column of a
        // pattern with one of its fill rows removed, on one scratch: a
        // stamp derived from `j` would still find the removed row marked
        // and drop the update into a stale accumulator slot.
        let (pattern, open, (row, col)) = unclosed_pattern();
        let cache = PivotCache::build(&pattern);
        let open_cache = PivotCache::build(&open);
        let mut scratch = ColumnScratch::default();
        let mut values = pattern.vals.clone();
        let mut vals = ColumnStore::new(&mut values, &pattern.col_ptr);
        for j in 0..=col {
            process_column(
                &pattern,
                &mut vals,
                j,
                AccessDiscipline::Dense,
                &cache,
                &mut scratch,
            )
            .expect("closed pattern factorizes");
        }
        let mut values = open.vals.clone();
        let mut vals = ColumnStore::new(&mut values, &open.col_ptr);
        let mut err = None;
        for j in 0..=col {
            if let Err(e) = process_column(
                &open,
                &mut vals,
                j,
                AccessDiscipline::Dense,
                &open_cache,
                &mut scratch,
            ) {
                err = Some((j, e));
                break;
            }
        }
        assert_eq!(err, Some((col, SparseError::MissingFill { row, col })));
    }

    /// A closed filled pattern and a copy with one pure fill-in position
    /// `(row, col)` removed, so column `col` raises `MissingFill` there.
    fn unclosed_pattern() -> (Csc, Csc, (usize, usize)) {
        let a = random_dominant(40, 4.0, 69);
        let pattern = filled(&a);
        let a_csc = csr_to_csc(&a);
        for col in 0..40 {
            for &row in pattern.col_rows(col) {
                let row = row as usize;
                if row > col && a_csc.find_in_col(row, col).0.is_none() {
                    let open = without(&pattern, row, col);
                    return (pattern, open, (row, col));
                }
            }
        }
        panic!("the fill of a random matrix has a sub-diagonal fill-in");
    }

    /// `pattern` with its entry `(row, col)` removed.
    fn without(pattern: &Csc, row: usize, col: usize) -> Csc {
        let k = pattern.find_in_col(row, col).0.expect("present");
        let mut col_ptr = pattern.col_ptr.clone();
        for p in &mut col_ptr[col + 1..] {
            *p -= 1;
        }
        let (mut row_idx, mut vals) = (pattern.row_idx.clone(), pattern.vals.clone());
        row_idx.remove(k);
        vals.remove(k);
        let (m, n) = (pattern.n_rows(), pattern.n_cols());
        Csc::from_parts_unchecked(m, n, col_ptr, row_idx, vals)
    }

    /// Runs columns `0..=col` through both kernels and asserts that, under
    /// every discipline, the accumulator's failing column raises the
    /// walk's error and leaves the store exactly as it found it.
    fn assert_failure_is_atomic(pattern: &Csc, col: usize, want_err: SparseError) {
        let cache = PivotCache::build(pattern);
        for d in ALL {
            let mut values = pattern.vals.clone();
            let mut got = ColumnStore::new(&mut values, &pattern.col_ptr);
            let want = ValueStore::new(&pattern.vals);
            let mut scratch = ColumnScratch::default();
            for j in 0..col {
                process_column(pattern, &mut got, j, d, &cache, &mut scratch).expect("prefix ok");
                process_column_walk(pattern, &want, j, d, &cache, PivotRule::Exact)
                    .expect("prefix ok");
            }
            let before = bits(&got.snapshot());
            let err = process_column(pattern, &mut got, col, d, &cache, &mut scratch).unwrap_err();
            assert_eq!(err, want_err, "{d:?}");
            assert_eq!(
                process_column_walk(pattern, &want, col, d, &cache, PivotRule::Exact).unwrap_err(),
                err,
                "{d:?}: same error as the walk"
            );
            assert_eq!(bits(&got.snapshot()), before, "{d:?}: store untouched");
        }
    }

    /// The store refuses a second write: running a finished column again,
    /// or a column before one of its dependencies, is
    /// [`SparseError::OutOfOrder`] and leaves every value as it was.
    #[test]
    fn out_of_order_columns_are_refused_and_leave_the_store_untouched() {
        let pattern = six(None, &[]);
        let cache = PivotCache::build(&pattern);
        let mut values = pattern.vals.clone();
        let mut store = ColumnStore::new(&mut values, &pattern.col_ptr);
        let mut scratch = ColumnScratch::default();
        let d = AccessDiscipline::Merge;
        let early = process_column(&pattern, &mut store, 4, d, &cache, &mut scratch);
        assert_eq!(early, Err(SparseError::OutOfOrder { col: 4, dep: 0 }));
        assert_eq!(
            bits(&store.snapshot()),
            bits(&pattern.vals),
            "nothing written"
        );
        for j in 0..6 {
            process_column(&pattern, &mut store, j, d, &cache, &mut scratch).expect("in order");
        }
        let factors = bits(&store.snapshot());
        for j in 0..6 {
            let again = process_column(&pattern, &mut store, j, d, &cache, &mut scratch);
            assert_eq!(again, Err(SparseError::OutOfOrder { col: j, dep: j }));
        }
        assert_eq!(bits(&store.snapshot()), factors, "the factors stand");
    }

    #[test]
    fn missing_fill_leaves_the_store_untouched() {
        let (_, open, (row, col)) = unclosed_pattern();
        assert_failure_is_atomic(&open, col, SparseError::MissingFill { row, col });
    }

    #[test]
    fn zero_pivot_leaves_the_store_untouched() {
        assert_failure_is_atomic(&all_ones_2x2(), 1, SparseError::ZeroPivot { col: 1 });
    }

    #[test]
    fn zero_diagonal_leaves_the_store_untouched() {
        // Column 2 holds rows {0, 1} and no diagonal: dependency 0 updates
        // its (1, 2) entry (which the walk writes in place) before the
        // missing pivot position is discovered.
        let pattern = Csc::from_parts_unchecked(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 1, 1, 0, 1],
            vec![2.0, 1.0, 3.0, 1.0, 1.0],
        );
        assert_failure_is_atomic(&pattern, 2, SparseError::ZeroDiagonal { row: 2 });
    }

    #[test]
    fn all_disciplines_match_sequential() {
        let a = random_dominant(40, 4.0, 61);
        let pattern = filled(&a);
        let cache = PivotCache::build(&pattern);
        let mut seq = pattern.clone();
        crate::seq::factorize_seq(&mut seq).expect("seq factorizes");
        let mut scratch = ColumnScratch::default();

        for &d in &ALL {
            let mut values = pattern.vals.clone();
            let mut vals = ColumnStore::new(&mut values, &pattern.col_ptr);
            for j in 0..40 {
                process_column(&pattern, &mut vals, j, d, &cache, &mut scratch).expect("column ok");
            }
            let got = vals.snapshot();
            for (k, (&want, got)) in seq.vals.iter().zip(&got).enumerate() {
                assert!(
                    (want - got).abs() < 1e-12,
                    "{d:?}: value {k} differs: {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn merge_is_bit_identical_to_sequential() {
        // Merge applies every position's updates in exactly the sequential
        // order, so the factors must agree to the last bit, not merely to
        // a tolerance.
        let a = random_dominant(60, 5.0, 63);
        let pattern = filled(&a);
        let cache = PivotCache::build(&pattern);
        let mut seq = pattern.clone();
        crate::seq::factorize_seq(&mut seq).expect("seq factorizes");

        let mut values = pattern.vals.clone();
        let mut vals = ColumnStore::new(&mut values, &pattern.col_ptr);
        let mut scratch = ColumnScratch::default();
        for j in 0..60 {
            process_column(
                &pattern,
                &mut vals,
                j,
                AccessDiscipline::Merge,
                &cache,
                &mut scratch,
            )
            .expect("ok");
        }
        assert_eq!(vals.snapshot(), seq.vals);
    }

    #[test]
    fn probes_counted_only_for_binary_search() {
        let a = random_dominant(30, 4.0, 62);
        let pattern = filled(&a);
        let cache = PivotCache::build(&pattern);
        let mut values = pattern.vals.clone();
        let mut vals = ColumnStore::new(&mut values, &pattern.col_ptr);
        let mut scratch = ColumnScratch::default();
        let mut dense_probes = 0;
        let mut items = 0;
        for j in 0..30 {
            let c = process_column(
                &pattern,
                &mut vals,
                j,
                AccessDiscipline::Dense,
                &cache,
                &mut scratch,
            )
            .expect("ok");
            dense_probes += c.probes;
            items += c.items;
        }
        // With the pivot cache even the diagonal lookup is search-free.
        assert_eq!(dense_probes, 0);
        assert!(items > 0);

        let mut values = pattern.vals.clone();
        let mut vals = ColumnStore::new(&mut values, &pattern.col_ptr);
        let mut sparse_probes = 0;
        for j in 0..30 {
            sparse_probes += process_column(
                &pattern,
                &mut vals,
                j,
                AccessDiscipline::BinarySearch,
                &cache,
                &mut scratch,
            )
            .expect("ok")
            .probes;
        }
        assert!(sparse_probes > 0, "binary search must pay probes");
    }

    #[test]
    fn merge_steps_bound_by_column_traffic() {
        // Each destination entry is passed at most once per dependency, so
        // merge_steps ≤ Σ_deps nnz_j — the O(nnz) streaming bound; probes
        // stay zero.
        let a = random_dominant(50, 5.0, 64);
        let pattern = filled(&a);
        let cache = PivotCache::build(&pattern);
        let mut values = pattern.vals.clone();
        let mut vals = ColumnStore::new(&mut values, &pattern.col_ptr);
        let mut scratch = ColumnScratch::default();
        for j in 0..50 {
            let c = process_column(
                &pattern,
                &mut vals,
                j,
                AccessDiscipline::Merge,
                &cache,
                &mut scratch,
            )
            .expect("ok");
            assert_eq!(c.probes, 0);
            assert!(
                c.merge_steps <= c.deps * c.nnz,
                "col {j}: merge_steps {} exceeds deps·nnz {}",
                c.merge_steps,
                c.deps * c.nnz
            );
        }
    }

    #[test]
    fn perturb_rule_clamps_tiny_pivots_and_keeps_sign() {
        let rule = PivotRule::Perturb { threshold: 1e-3 };
        assert_eq!(rule.apply(5.0), (5.0, None));
        assert_eq!(rule.apply(-5.0), (-5.0, None));
        let (p, d) = rule.apply(0.0);
        assert_eq!(p, 1e-3);
        assert_eq!(d, Some(1e-3));
        let (p, d) = rule.apply(1e-6);
        assert_eq!(p, 1e-3);
        assert_eq!(d, Some(1e-3 - 1e-6));
        let (p, d) = rule.apply(-1e-6);
        assert_eq!(p, -1e-3);
        assert_eq!(d, Some(-1e-3 + 1e-6));
        // Non-finite pivots are never masked by a perturbation.
        assert_eq!(rule.apply(f64::NAN).1, None);
    }

    #[test]
    fn perturb_rule_survives_exact_zero_pivot() {
        // [[1,1],[1,1]] cancels to an exact zero pivot in column 1; the
        // perturb rule must clamp it instead of erroring, and the clamped
        // value must land in the store.
        let pattern = all_ones_2x2();
        let cache = PivotCache::build(&pattern);
        let mut values = pattern.vals.clone();
        let mut vals = ColumnStore::new(&mut values, &pattern.col_ptr);
        let rule = PivotRule::Perturb { threshold: 1e-8 };
        let mut scratch = ColumnScratch::default();
        for j in 0..2 {
            process_column_with(
                &pattern,
                &vals,
                j,
                AccessDiscipline::Merge,
                &cache,
                rule,
                &mut scratch,
            )
            .expect("perturbed column factorizes");
            vals.seal([j]);
        }
        let got = vals.snapshot();
        let diag1 = cache.diag(1).expect("diagonal present");
        assert_eq!(got[diag1], 1e-8, "clamped pivot written back");
    }

    /// `lower(c)` as a set: the rows of column `c` strictly below `c`.
    fn lower_set(p: &Csc, c: usize) -> std::collections::BTreeSet<usize> {
        p.col_rows(c)
            .iter()
            .map(|&r| r as usize)
            .filter(|&r| r > c)
            .collect()
    }

    /// Every family's filled pattern, and its unfilled one (whose chains
    /// are shorter and rarer): each chain end is the last column `e` with
    /// `lower(c) == {c + 1} ∪ lower(c + 1)` for every `c` in `j..e`, and
    /// the diagonal and segment positions are what the searches find.
    #[test]
    fn chain_ends_match_their_definition() {
        let mut linked = 0;
        for (name, a) in gplu_sparse::gen::families() {
            for pattern in [prepared(&a).0, csr_to_csc(&a)] {
                let cache = PivotCache::build(&pattern);
                let n = pattern.n_cols();
                assert_eq!(cache.len(), n, "{name}");
                assert!(cache.heap_bytes() <= 16 * n, "{name}: 16 bytes per column");
                let links: Vec<bool> = (0..n)
                    .map(|c| {
                        let mut next = if c + 1 < n {
                            lower_set(&pattern, c + 1)
                        } else {
                            Default::default()
                        };
                        next.insert(c + 1);
                        c + 1 < n && lower_set(&pattern, c) == next
                    })
                    .collect();
                linked += links.iter().filter(|&&l| l).count();
                for j in 0..n {
                    let end = (j..n).find(|&e| !links[e]).unwrap_or(n - 1);
                    assert_eq!(cache.chain_end(j), end, "{name}: chain end of {j}");
                    assert_eq!(
                        cache.diag(j),
                        pattern.find_in_col(j, j).0,
                        "{name}: diag {j}"
                    );
                    let lower = pattern.lower_bound_after(j, j);
                    assert_eq!(cache.lower_start(j), lower, "{name}: lower {j}");
                }
            }
        }
        assert!(linked > 0, "some family has supernode chains");
    }

    /// A six-column pattern, closed under fill, with the values of a
    /// diagonally dominant matrix (symmetric structure):
    ///
    /// * columns 0, 1, 2 form one chain (`lower = {1,2,4,5}, {2,4,5},
    ///   {4,5}`); column 3's `lower` is `{5}`, column 4's `{5}`;
    /// * column 4 depends on the run 0..=2 with common tail `{4, 5}`;
    /// * column 5 depends on that run, then on 3, then on 4, whose chain
    ///   reaches column 5 itself.
    ///
    /// `drop` removes one `(row, col)` entry and `zero` sets entries to
    /// exactly 0.0.
    fn six(drop: Option<(usize, usize)>, zero: &[(usize, usize)]) -> Csc {
        let cols: [&[usize]; 6] = [
            &[0, 1, 2, 4, 5],
            &[0, 1, 2, 4, 5],
            &[0, 1, 2, 4, 5],
            &[3, 5],
            &[0, 1, 2, 4, 5],
            &[0, 1, 2, 3, 4, 5],
        ];
        let mut coo = gplu_sparse::Coo::new(6, 6);
        for (j, rows) in cols.iter().enumerate() {
            for &i in rows.iter().filter(|&&i| Some((i, j)) != drop) {
                let v = if i == j {
                    8.0
                } else {
                    1.0 / (1 + i + 2 * j) as f64
                };
                coo.push(i, j, if zero.contains(&(i, j)) { 0.0 } else { v });
            }
        }
        gplu_sparse::convert::coo_to_csc(&coo)
    }

    /// Factors `pattern` column by column through the core and the walk,
    /// under every discipline, and returns the core's per-column results
    /// after asserting they are the walk's (values to the bit, costs and
    /// errors exactly). Stops at the first error.
    fn core_vs_walk(pattern: &Csc) -> Vec<Result<ColCosts, SparseError>> {
        let cache = PivotCache::build(pattern);
        let mut first = None;
        for d in ALL {
            let mut values = pattern.vals.clone();
            let mut got = ColumnStore::new(&mut values, &pattern.col_ptr);
            let want = ValueStore::new(&pattern.vals);
            let mut scratch = ColumnScratch::default();
            let mut results = Vec::new();
            for j in 0..pattern.n_cols() {
                let g = process_column(pattern, &mut got, j, d, &cache, &mut scratch);
                let w = process_column_walk(pattern, &want, j, d, &cache, PivotRule::Exact);
                assert_eq!(g, w.map(|(c, _)| c), "{d:?} column {j}");
                let failed = g.is_err();
                results.push(g);
                if failed {
                    break;
                }
            }
            if results.last().is_some_and(|r| r.is_ok()) {
                assert_eq!(bits(&got.snapshot()), bits(&want.snapshot()), "{d:?} bits");
            }
            first.get_or_insert(results);
        }
        first.expect("three disciplines ran")
    }

    #[test]
    fn runs_keep_the_walk_s_errors_skips_and_ends() {
        let cache = PivotCache::build(&six(None, &[]));
        let ends: Vec<usize> = (0..6).map(|j| cache.chain_end(j)).collect();
        assert_eq!(ends, [2, 2, 2, 3, 5, 5]);

        // The closed pattern: column 4 consumes one run of width 3, and
        // column 5's run from 4 is cut short by column 5 itself.
        let ok = core_vs_walk(&six(None, &[]));
        assert!(ok.iter().all(Result::is_ok));
        assert_eq!(ok[5].as_ref().map(|c| c.deps), Ok(5));

        // A fill missing from the common tail: the first non-skipped
        // dependency of the run finds row 5 absent from column 4.
        let tail = core_vs_walk(&six(Some((5, 4)), &[]));
        assert_eq!(tail[4], Err(SparseError::MissingFill { row: 5, col: 4 }));

        // A fill missing from the run's own rows: row 1 is not in column
        // 4, so the run stops at 0 and its segment finds row 1 absent.
        let triangle = core_vs_walk(&six(Some((1, 4)), &[]));
        assert_eq!(
            triangle[4],
            Err(SparseError::MissingFill { row: 1, col: 4 })
        );

        // Exact zeros: `u_04` and `u_14` are 0.0, so only dependency 2
        // updates the tail; its structural estimate counts all three.
        let zeros = core_vs_walk(&six(None, &[(0, 4), (1, 4)]));
        let items = zeros[4].as_ref().expect("column 4 factorizes").items;
        assert!(items < column_cost_estimate_cached(&six(None, &[]), &cache, 4).1);

        // Every `u` of the run zero: no dependency touches the tail, so
        // its missing row is never looked for.
        let skipped = core_vs_walk(&six(Some((5, 4)), &[(0, 4), (1, 4), (2, 4)]));
        assert!(skipped[4].is_ok(), "{:?}", skipped[4]);
    }

    /// FNV-1a over 64-bit words, so a pin is one literal per format.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A family matrix as the pipeline hands it to numeric: minimum-degree
    /// ordered, every structurally absent diagonal made an explicit zero,
    /// filled and levelized.
    fn prepared(a: &Csr) -> (Csc, Levels) {
        filled_with_levels(&permuted(a))
    }

    /// `a` ordered by minimum degree, with an explicit zero wherever its
    /// diagonal is missing: the matrix [`prepared`]'s pattern fills.
    fn permuted(a: &Csr) -> Csr {
        use gplu_sparse::ordering::{order, OrderingKind};
        use gplu_sparse::perm::{permute_csr, Permutation};
        let p = Permutation::from_order(&order(a, OrderingKind::MinDegree)).expect("permutation");
        let b = permute_csr(a, &p, &p);
        let n = b.n_rows();
        let mut coo = gplu_sparse::Coo::new(n, n);
        for i in 0..n {
            for (j, v) in b.row_iter(i) {
                coo.push(i, j, v);
            }
            if b.get(i, i).is_none() {
                coo.push(i, i, 0.0);
            }
        }
        coo_to_csr(&coo)
    }

    /// Words of a factorization's result: the error, or the value bits
    /// and the `(col, delta)` perturbations in column order.
    fn result_words<T>(
        r: &Result<T, impl std::fmt::Debug>,
        vals: impl FnOnce(&T) -> (Vec<u64>, Vec<(usize, f64)>),
    ) -> Vec<u64> {
        match r {
            Ok(v) => {
                let (mut words, mut perturbs) = vals(v);
                perturbs.sort_by_key(|&(c, _)| c);
                words.extend(perturbs.iter().flat_map(|&(c, d)| [c as u64, d.to_bits()]));
                words
            }
            Err(e) => format!("{e:?}").bytes().map(u64::from).collect(),
        }
    }

    /// The five formats' hashes for one matrix under one rule: the
    /// sequential reference (its factor, perturbations, and the core's
    /// `deps`/`items` totals in column order), then the dense, merge,
    /// sparse and blocked engines (factor, perturbations, the `probes`,
    /// `merge_steps` and tile totals, simulated time).
    fn format_hashes(pattern: &Csc, levels: &Levels, rule: PivotRule) -> [u64; 5] {
        use crate::{run_levels, NumericEngine, NumericError};
        use crate::{BlockPlan, BlockedEngine, DenseEngine, MergeEngine, SparseEngine};
        use gplu_sim::{Gpu, GpuConfig};
        use gplu_trace::NOOP;

        let mut lu = pattern.clone();
        let seq = crate::seq::factorize_seq_rule(&mut lu, rule);
        let mut words = result_words(&seq, |p| (bits(&lu.vals), p.clone()));
        let cache = PivotCache::build(pattern);
        let mut values = pattern.vals.clone();
        let mut vals = ColumnStore::new(&mut values, &pattern.col_ptr);
        let mut scratch = ColumnScratch::default();
        let d = AccessDiscipline::Dense;
        for j in 0..pattern.n_cols() {
            match process_column_with(pattern, &vals, j, d, &cache, rule, &mut scratch) {
                Ok((c, _)) => words.extend([c.deps, c.items]),
                Err(_) => break, // the reference's error is hashed above
            }
            vals.seal([j]);
        }
        let plan = BlockPlan::detect(pattern, &cache, 0.5);
        let engine = |r: Result<crate::FleetNumericOutcome, NumericError>| {
            fnv(result_words(&r.map(|run| run.outcome), |o| {
                let mut words = bits(&o.lu.vals);
                words.extend([
                    o.probes,
                    o.merge_steps,
                    o.gemm_tiles,
                    o.time.as_ns().to_bits(),
                ]);
                (words, o.perturbations.clone())
            }))
        };
        // One device for the four runs, in this order, as when the pins
        // were taken.
        let gpu = Gpu::new(GpuConfig::v100());
        let mut engines: [Box<dyn NumericEngine + '_>; 4] = [
            Box::<DenseEngine>::default(),
            Box::<MergeEngine>::default(),
            Box::new(SparseEngine::new(None)),
            Box::new(BlockedEngine::new(&plan)),
        ];
        let mut hashes = [fnv(words); 5];
        for (h, e) in hashes[1..].iter_mut().zip(&mut engines) {
            let fleet = (&gpu).into();
            *h = engine(run_levels(
                &mut **e, &fleet, pattern, levels, &NOOP, None, None, None, rule, None,
            ));
        }
        hashes
    }

    /// Every family of [`gplu_sparse::gen::families`] under
    /// [`PivotRule::Exact`], and the adversarial kinds again under
    /// [`PivotRule::Perturb`], hashed per format. The literals were
    /// captured before the core consumed supernode runs in one pass, so
    /// a changed factor bit, perturbation, counter or price names the
    /// family, rule and format it hit. (The engine-versus-sequential
    /// suites cannot: every format runs the same core.)
    #[test]
    fn factor_bits_are_pinned_per_family_and_format() {
        #[rustfmt::skip]
        const PINS: &[(&str, bool, [u64; 5])] = &[
            ("circuit/300", false, [0xb3432d48701494bb, 0x8097c38399f796d9, 0xe3aac47dc687e9ec, 0x5ca216160f73f7d8, 0x4b0276357bc9d685]),
            ("planar/300", false, [0x7cce7147eae15f67, 0xb83f67ea133e7f44, 0xb83f67ea133e7f44, 0xb83f67ea133e7f44, 0xb83f67ea133e7f44]),
            ("banded/300", false, [0xb009fb0aa8589c28, 0x8ab8ddb0cc8f8ad4, 0x2e885d23fa6fb508, 0x322e6aea1acf24a4, 0xfdfa6cbfe948c0c3]),
            ("random/300", false, [0x2d6ea41989249e64, 0x81fa01ab56328aa4, 0xe0ca737c08dcf8eb, 0xbf62a3183445c101, 0x7af19f4277df6b71]),
            ("near_singular/300", false, [0x353b059990dba23b, 0xc7926a3d9161a3b3, 0xe76b22ec47546ee9, 0x0771dea7b8b6c168, 0x8160aa52e06951dd]),
            ("near_singular/300", true, [0x59ff7b9d2cf0eb6c, 0xb52d58c671c95d7c, 0x39cf14734cb8fbb2, 0xdf50ff5b4cb6f943, 0xa82fb193fd528f16]),
            ("graded/300", false, [0x4ea58200a2fd5922, 0x564844cdf70d7e26, 0xbb98b76ce3734aa2, 0xe994c9405ec49c76, 0x0e8666af049c90fa]),
            ("graded/300", true, [0x4ea58200a2fd5922, 0x564844cdf70d7e26, 0xbb98b76ce3734aa2, 0xe994c9405ec49c76, 0x0e8666af049c90fa]),
            ("zero_diag/300", false, [0x97748ca4279b9897, 0x0332b2ccd66b2759, 0x0332b2ccd66b2759, 0x0332b2ccd66b2759, 0x0332b2ccd66b2759]),
            ("zero_diag/300", true, [0xff1249513ef5ae42, 0xaac447027221702e, 0x5155e27a832bb25d, 0x7ea0eb8f541707b4, 0x0f9fe6faeb804fef]),
            ("sign_alternating/300", false, [0x99b239c7748acd93, 0x488a0be3d08fc0ce, 0x868e1507346b8ad1, 0xf168a434009930ce, 0x83a4b3f73532d942]),
            ("sign_alternating/300", true, [0x99b239c7748acd93, 0x488a0be3d08fc0ce, 0x868e1507346b8ad1, 0xf168a434009930ce, 0x83a4b3f73532d942]),
            ("circuit/2000", false, [0x35c6b5b719697147, 0x479ebb43e5170a2a, 0xcd9a38d6efd11c37, 0x755685081c89ac22, 0x6d8f65f86c5181df]),
            ("planar/2000", false, [0xd8b32aa752659afd, 0x545aae66d03680da, 0x545aae66d03680da, 0x545aae66d03680da, 0x545aae66d03680da]),
            ("banded/2000", false, [0x125f58a2993f0c3c, 0x5466212b4afd4733, 0x3df5c7f0913efaca, 0x3ef51fcd9f3ddc25, 0xc9d607d97d7b0385]),
            ("random/2000", false, [0xa3544fd18c3a1f2a, 0xb18698bec7de5524, 0xd7614de94041d501, 0xe6b687458214ad4e, 0xab8b1e22be1163be]),
            ("near_singular/2000", false, [0x9ff447ce45e5c51e, 0xbf4a887a6690c7be, 0xbf4a887a6690c7be, 0xbf4a887a6690c7be, 0xbf4a887a6690c7be]),
            ("near_singular/2000", true, [0xde0384ecc58a9f6c, 0x1b5d6ef7cd1f0465, 0xfd448fd24d062363, 0xca048017a1927abc, 0x5149b193242037d2]),
            ("graded/2000", false, [0xcb3ac845ea40e1ad, 0xa3fc35786d8f5a6c, 0x5772dd68dd76a179, 0xe711c06bfe09c80a, 0x415de13382f5bb81]),
            ("graded/2000", true, [0xcb3ac845ea40e1ad, 0xa3fc35786d8f5a6c, 0x5772dd68dd76a179, 0xe711c06bfe09c80a, 0x415de13382f5bb81]),
            ("zero_diag/2000", false, [0x03af571693b74cca, 0x66a2a99a5d03591b, 0x66a2a99a5d03591b, 0x66a2a99a5d03591b, 0x66a2a99a5d03591b]),
            ("zero_diag/2000", true, [0x56573669e1e5a4a5, 0xef0f8026636f5fdf, 0x7e47c66e8c651063, 0x2063631a55a10fcc, 0x2fe0f5265d5345fe]),
            ("sign_alternating/2000", false, [0xc83edf251a7c1acb, 0x1e1b0343b15552d9, 0x5188b30ffcfd24eb, 0x43516b7e4431c5a1, 0x288d732d72252465]),
            ("sign_alternating/2000", true, [0xa58ea86e5ebf0696, 0xbc93c3d1c8f612e4, 0x5b67c1aaf8269d32, 0x58174c5045bb2400, 0x7cdf079ec3bb7090]),
        ];
        use rayon::prelude::*;
        let hard: Vec<&str> = HardKind::ALL.iter().map(|k| k.name()).collect();
        let got: Vec<(String, bool, [u64; 5])> = gplu_sparse::gen::families()
            .into_par_iter()
            .flat_map_iter(|(name, a)| {
                let (pattern, levels) = prepared(&a);
                let perturb = hard.contains(&name.split('/').next().expect("kind"));
                let rules = [
                    (false, PivotRule::Exact),
                    (true, PivotRule::Perturb { threshold: 1e-2 }),
                ];
                let rows = rules.into_iter().take(1 + perturb as usize);
                rows.map(|(p, rule)| (name.clone(), p, format_hashes(&pattern, &levels, rule)))
                    .collect::<Vec<_>>()
            })
            .collect();
        let want: Vec<(String, bool, [u64; 5])> = PINS
            .iter()
            .map(|&(n, p, h)| (n.to_string(), p, h))
            .collect();
        if got != want {
            for (name, perturb, h) in &got {
                println!(
                    "            (\"{name}\", {perturb}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
                    h[0], h[1], h[2], h[3], h[4]
                );
            }
        }
        assert_eq!(got.len(), want.len(), "one row per family and rule");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                g, w,
                "factor bits drifted ([seq, dense, merge, sparse, blocked])"
            );
        }
    }

    /// The residual gate's oracle: `L·(U·v)` over explicit split copies
    /// of the combined factor, as the gate computed it before it read the
    /// factor in place.
    fn residual_over_split_copies(a: &Csr, lu: &Csc, probes: usize) -> f64 {
        let (n, (l, u)) = (lu.n_cols(), gplu_sparse::verify::split_combined(lu));
        let norm_a = a.frobenius_norm().max(1e-300);
        let mut worst: f64 = 0.0;
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..probes.max(1) {
            let v: Vec<f64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
                })
                .collect();
            let (av, luv) = (a.spmv(&v), l.spmv(&u.spmv(&v)));
            let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
            let err = av
                .iter()
                .zip(&luv)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            worst = worst.max(err / (norm_a * vnorm / (n as f64).sqrt()));
        }
        worst
    }

    /// The residual gate reads the combined factor in place, and gets the
    /// split copies' residual to the bit: over every family's exact
    /// factors and the adversarial kinds' factors under `Perturb`.
    #[test]
    fn residual_probe_is_bit_equal_to_the_split_copies() {
        use gplu_sparse::verify::residual_probe;
        use rayon::prelude::*;
        let hard: Vec<&str> = HardKind::ALL.iter().map(|k| k.name()).collect();
        let checked: usize = gplu_sparse::gen::families()
            .into_par_iter()
            .map(|(name, a)| {
                let a = permuted(&a);
                let pattern = filled(&a);
                let perturb = Some(PivotRule::Perturb { threshold: 1e-2 })
                    .filter(|_| hard.contains(&name.split('/').next().expect("kind")));
                let mut checked = 0;
                for rule in std::iter::once(PivotRule::Exact).chain(perturb) {
                    let mut lu = pattern.clone();
                    if crate::seq::factorize_seq_rule(&mut lu, rule).is_err() {
                        continue;
                    }
                    for probes in 1..=3 {
                        let (got, want) = (
                            residual_probe(&a, &lu, probes),
                            residual_over_split_copies(&a, &lu, probes),
                        );
                        assert_eq!(got.to_bits(), want.to_bits(), "{name} {rule:?} {probes}");
                    }
                    checked += 1;
                }
                checked
            })
            .collect::<Vec<usize>>()
            .into_iter()
            .sum();
        assert!(
            checked > gplu_sparse::gen::families().len(),
            "{checked} factors"
        );
    }

    #[test]
    fn zero_pivot_detected() {
        let pattern = all_ones_2x2();
        let cache = PivotCache::build(&pattern);
        let mut values = pattern.vals.clone();
        let mut vals = ColumnStore::new(&mut values, &pattern.col_ptr);
        let mut scratch = ColumnScratch::default();
        let d = AccessDiscipline::BinarySearch;
        process_column(&pattern, &mut vals, 0, d, &cache, &mut scratch).expect("col 0 fine");
        assert!(matches!(
            process_column(&pattern, &mut vals, 1, d, &cache, &mut scratch),
            Err(SparseError::ZeroPivot { col: 1 })
        ));
    }

    /// A bordered matrix whose filled pattern holds one long supernode
    /// chain: `sparse` sparse columns, a dense block of `block` columns,
    /// one column coupled only to the sparse ones, then a border of
    /// `border` rows and columns coupled to every block column (and to the
    /// sparse columns). The block is one chain and its common tail the
    /// border rows (the lone column is not in it, so the chain ends at the
    /// block's last column): every border column consumes one run as wide
    /// as the block with a non-empty tail, and every block column a run of
    /// all the block columns before it. The rows in `zero_rows` (rows of
    /// the block) are exact zeros off the diagonal, so every later column's
    /// `u` there is exactly 0.0: a skipped dependency inside a run.
    fn bordered(sparse: usize, block: usize, border: usize, seed: u64, zero_rows: &[usize]) -> Csr {
        let n = sparse + block + 1 + border;
        let lone = sparse + block;
        let mut state = 0x2545_f491_4f6c_dd1d_u64 ^ seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut coo = gplu_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, n as f64 + next());
        }
        let mut push = |i: usize, j: usize, v: f64| {
            coo.push(i, j, if zero_rows.contains(&i) { 0.0 } else { v });
        };
        for i in 0..sparse {
            let r = lone + 1 + i % border;
            push(i, r, next());
            push(r, i, next());
            if i % 4 == 0 {
                push(i, lone, next());
                push(lone, i, next());
            }
            if i % 3 == 0 && i + 5 < sparse {
                push(i + 5, i, next());
                push(i, i + 5, next());
            }
        }
        for j in sparse..lone {
            for i in (sparse..lone).filter(|&i| i != j) {
                push(i, j, next());
            }
            for r in lone + 1..n {
                push(r, j, next());
                push(j, r, next());
            }
        }
        coo_to_csr(&coo)
    }

    /// Long runs, pinned: the sequential reference and the four formats
    /// on one device ([`format_hashes`]), and the merge engine on a
    /// two-device fleet (factor, cursor steps, makespan and each
    /// device's clock), on a [`bordered`] matrix with a chain of 160
    /// columns over a 20-row tail. The literals were taken before
    /// the core consumed a run as one column sweep.
    #[test]
    fn long_supernode_runs_are_pinned_per_format_and_on_a_fleet() {
        const PIN: [u64; 6] = [
            0xf00bb558457eac73,
            0xf93aabdfd369cf33,
            0x13fca57f0f11e62d,
            0xec53faa763b40a28,
            0xcb7535f05f277656,
            0x87796721a2d8a4b3,
        ];
        use gplu_sim::{DeviceFleet, GpuConfig};
        let (pattern, levels) = filled_with_levels(&bordered(40, 160, 20, 0, &[]));
        let cache = PivotCache::build(&pattern);
        let end = cache.chain_end(40);
        assert!(end + 1 - 40 >= 128, "chain 40..={end}");
        assert!(cache.lower_start(end) < pattern.col_ptr[end + 1], "a tail");
        let mut got = format_hashes(&pattern, &levels, PivotRule::Exact).to_vec();
        let fleet = DeviceFleet::new(2, GpuConfig::v100());
        let run = crate::run_levels(
            &mut crate::MergeEngine,
            &fleet,
            &pattern,
            &levels,
            &gplu_trace::NOOP,
            None,
            None,
            None,
            PivotRule::Exact,
            None,
        )
        .expect("the fleet factorizes");
        let mut words = bits(&run.outcome.lu.vals);
        words.extend([run.outcome.merge_steps, run.outcome.time.as_ns().to_bits()]);
        let clocks = fleet.stats().devices.into_iter().map(|d| d.stats.now);
        words.extend(clocks.map(|t| t.as_ns().to_bits()));
        got.push(fnv(words));
        if got != PIN {
            println!("{got:#018x?}");
        }
        assert_eq!(
            got, PIN,
            "[seq, dense, merge, sparse, blocked, 2-device merge]"
        );
    }
}
