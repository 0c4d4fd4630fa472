//! Shared outcome type, the per-column functional kernel core (one dense
//! accumulator behind all three access disciplines, which differ only in
//! the location counter they report), and the per-factorization
//! pivot-position cache.

use crate::modes::ModeMix;
use crate::scratch::ColumnScratch;
use crate::values::ValueStore;
use gplu_sim::{GpuStatsSnapshot, SimTime};
use gplu_sparse::{Csc, SparseError};

/// Result of a GPU numeric factorization.
#[derive(Debug, Clone)]
pub struct NumericOutcome {
    /// The combined factor (unit-diagonal `L` strictly below the diagonal,
    /// `U` on and above) on the filled pattern.
    pub lu: Csc,
    /// Simulated time of the numeric phase.
    pub time: SimTime,
    /// GPU statistics delta.
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

/// Per-factorization cache of the two structural positions every engine
/// otherwise re-derives over and over: for each column `j`, the position
/// of the diagonal entry `(j, j)` and the first strictly-sub-diagonal
/// position `lower_bound_after(j, j)`.
///
/// Built once per factorization in `O(nnz)`; afterwards the per-column
/// pivot lookup and the per-dependency source-segment start are `O(1)`
/// array reads instead of binary searches. (The *update* probes
/// Algorithm 6 is priced for are unaffected — those locate fill positions
/// in the destination column, which this cache cannot know.)
#[derive(Debug, Clone)]
pub struct PivotCache {
    /// Position of `(j, j)` in column `j`'s index range, or `usize::MAX`
    /// when the diagonal is structurally absent.
    diag_pos: Vec<usize>,
    /// `lower_bound_after(j, j)`: first position in column `j` whose row
    /// exceeds `j`.
    lower_start: Vec<usize>,
}

impl PivotCache {
    /// Scans the pattern once and records both positions for every column.
    pub fn build(pattern: &Csc) -> PivotCache {
        let n = pattern.n_cols();
        let mut diag_pos = vec![usize::MAX; n];
        let mut lower_start = vec![0usize; n];
        for j in 0..n {
            let lb = pattern.lower_bound_after(j, j);
            lower_start[j] = lb;
            if lb > pattern.col_ptr[j] && pattern.row_idx[lb - 1] as usize == j {
                diag_pos[j] = lb - 1;
            }
        }
        PivotCache {
            diag_pos,
            lower_start,
        }
    }

    /// Position of the diagonal entry of column `j`, if present.
    #[inline]
    pub fn diag(&self, j: usize) -> Option<usize> {
        let p = self.diag_pos[j];
        (p != usize::MAX).then_some(p)
    }

    /// First position in column `j` whose row index exceeds `j` (the start
    /// of the `L` segment).
    #[inline]
    pub fn lower_start(&self, j: usize) -> usize {
        self.lower_start[j]
    }

    /// Number of columns covered.
    pub fn len(&self) -> usize {
        self.diag_pos.len()
    }

    /// True when built for an empty pattern.
    pub fn is_empty(&self) -> bool {
        self.diag_pos.is_empty()
    }
}

/// Engine-level pivot handling, derived from the pipeline's
/// `PivotPolicy` and threaded through [`crate::engine::run_levels`] into
/// every kernel core call.
///
/// Only the *static* policy acts at this layer: a column's pivot value is
/// final before its division step (the level barrier guarantees every
/// update has been applied), so clamping a tiny pivot at division time is
/// deterministic, independent of the access discipline, and identical
/// across all five engines — the bit-identity contract survives.
/// Threshold pivoting, by contrast, is a host-side *pre-pass*
/// ([`crate::pivoting::discover_pivots`]) that permutes the artifacts
/// before any engine runs; at this layer it looks like [`PivotRule::Exact`].
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
}

impl PivotRule {
    /// Applies the rule to a finished pivot value: returns the value to
    /// divide by and the delta added to it (`None` when untouched).
    #[inline]
    pub fn apply(self, pivot: f64) -> (f64, Option<f64>) {
        match self {
            PivotRule::Exact => (pivot, None),
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
}

/// Factorizes column `j` against finished columns of the shared
/// [`ValueStore`] (`pattern` supplies the immutable structure, `cache`
/// the pre-computed pivot/segment positions, `scratch` the block's dense
/// accumulator) — [`process_column_with`] under [`PivotRule::Exact`].
///
/// Only the block owning column `j` calls this for `j`, so the writes are
/// data-race-free; reads target columns finished in earlier levels.
pub fn process_column(
    pattern: &Csc,
    vals: &ValueStore,
    j: usize,
    discipline: AccessDiscipline,
    cache: &PivotCache,
    scratch: &mut ColumnScratch,
) -> Result<ColCosts, SparseError> {
    process_column_with(
        pattern,
        vals,
        j,
        discipline,
        cache,
        PivotRule::Exact,
        scratch,
    )
    .map(|(c, _)| c)
}

/// The dense-accumulator core behind every engine and every discipline:
/// scatter column `j` into `x[row]`, eliminate against each dependency by
/// direct indexing, apply `rule` to the pivot, and gather back — one load
/// and one store per entry of the shared store, plain `f64` arithmetic in
/// between. Returns the column's costs plus the static-perturbation delta
/// applied to the pivot, if any; the perturbed pivot is written back so
/// the factor is self-consistent (it exactly factors the input with
/// `a_jj` bumped by the delta).
///
/// Per target position the subtractions arrive in ascending dependency
/// order, then the division — the order a sorted-CSC walk applies them
/// in — so the factor bits are the walk's. `discipline` prices that walk
/// without taking it (see [`AccessDiscipline`]): for merge, per
/// dependency with a non-empty segment the destination cursor advanced
/// from just past `u_tj` to just past the segment's last row; for binary
/// search, every located target cost its depth in the column's search
/// tree.
///
/// **Failure-atomic:** every check runs on the accumulator and the store
/// is written only once they have all passed, so an `Err` leaves `vals`
/// exactly as it was. A column that returned `Ok` must not be run again:
/// its stored values are now its factors, and a second pass would
/// eliminate them a second time.
///
/// Kept out of line: the level driver's kernel body is a closure
/// instantiated per engine type per downstream crate, and one shared copy
/// of the hot loop beats a copy in each.
#[inline(never)]
pub fn process_column_with(
    pattern: &Csc,
    vals: &ValueStore,
    j: usize,
    discipline: AccessDiscipline,
    cache: &PivotCache,
    rule: PivotRule,
    scratch: &mut ColumnScratch,
) -> Result<(ColCosts, Option<f64>), SparseError> {
    let (start, end) = (pattern.col_ptr[j], pattern.col_ptr[j + 1]);
    let rows = &pattern.row_idx[start..end];
    let mut costs = ColCosts {
        nnz: rows.len() as u64,
        ..ColCosts::default()
    };
    let count_probes = discipline == AccessDiscipline::BinarySearch;
    let count_steps = discipline == AccessDiscipline::Merge;
    let (stamp, x, mark, depth) = scratch.begin(pattern.n_rows(), count_probes);
    for (k, &r) in rows.iter().enumerate() {
        x[r as usize] = vals.get(start + k);
        mark[r as usize] = stamp;
    }
    if count_probes {
        probe_depths(rows, 1, depth);
    }

    for (k, &t) in rows.iter().enumerate() {
        let t = t as usize;
        if t >= j {
            break;
        }
        costs.deps += 1;
        let u_tj = x[t];
        if u_tj == 0.0 {
            continue;
        }
        let t_lower = cache.lower_start(t);
        let seg = &pattern.row_idx[t_lower..pattern.col_ptr[t + 1]];
        for (s, &r) in seg.iter().enumerate() {
            let r = r as usize;
            if mark[r] != stamp {
                return Err(SparseError::MissingFill { row: r, col: j });
            }
            x[r] -= vals.get(t_lower + s) * u_tj;
        }
        costs.items += seg.len() as u64;
        if count_probes {
            // Every row of `seg` was just found marked, so its depth is
            // this column's.
            costs.probes += seg.iter().map(|&r| depth[r as usize] as u64).sum::<u64>();
        }
        if let (true, Some(&last)) = (count_steps, seg.last()) {
            // `last` was just found in the column, past position `k`.
            costs.merge_steps += 1 + rows[k + 1..].partition_point(|&r| r < last) as u64;
        }
    }

    // The pivot is final here (the level barrier ordered every update
    // before this call), so the static-perturbation rule applies
    // deterministically regardless of engine or access discipline.
    let diag_pos = cache.diag(j).ok_or(SparseError::ZeroDiagonal { row: j })?;
    let (pivot, perturbed) = rule.apply(x[j]);
    if pivot == 0.0 || !pivot.is_finite() {
        return Err(SparseError::ZeroPivot { col: j });
    }
    let diag = diag_pos - start;
    for (k, &r) in rows[..diag].iter().enumerate() {
        vals.set(start + k, x[r as usize]);
    }
    vals.set(diag_pos, pivot);
    for (k, &r) in rows[diag + 1..].iter().enumerate() {
        vals.set(diag_pos + 1 + k, x[r as usize] / pivot);
    }
    costs.items += (rows.len() - diag - 1) as u64;
    Ok((costs, perturbed))
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
    /// columns skipped a dependency on an exact-zero `u_tj`.
    fn assert_accumulator_equals_walk(
        pattern: &Csc,
        levels: &Levels,
        label: &str,
    ) -> Result<usize, TestCaseError> {
        let cache = PivotCache::build(pattern);
        let mut skipped = 0;
        for d in ALL {
            // 1e-8 is the pipeline's static-pivoting floor; 1e-2 makes the
            // clamp fire dozens of times on the hard families.
            for rule in [
                PivotRule::Exact,
                PivotRule::Perturb { threshold: 1e-8 },
                PivotRule::Perturb { threshold: 1e-2 },
            ] {
                let got = ValueStore::new(&pattern.vals);
                let want = ValueStore::new(&pattern.vals);
                let mut scratch = ColumnScratch::default();
                let mut failed = None;
                'levels: for cols in &levels.groups {
                    for &j in cols {
                        let j = j as usize;
                        let g =
                            process_column_with(pattern, &got, j, d, &cache, rule, &mut scratch);
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
                let (got, mut want) = (got.into_vec(), want.into_vec());
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
            }
        }
        Ok(skipped)
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
        let skipped =
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

        let got = ValueStore::new(&pattern.vals);
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
                                process_column(
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
        let vals = ValueStore::new(&pattern.vals);
        for j in 0..=col {
            process_column(
                &pattern,
                &vals,
                j,
                AccessDiscipline::Dense,
                &cache,
                &mut scratch,
            )
            .expect("closed pattern factorizes");
        }
        let vals = ValueStore::new(&open.vals);
        let mut err = None;
        for j in 0..=col {
            if let Err(e) = process_column(
                &open,
                &vals,
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
            for k in pattern.col_ptr[col]..pattern.col_ptr[col + 1] {
                let row = pattern.row_idx[k] as usize;
                if row > col && a_csc.find_in_col(row, col).0.is_none() {
                    let mut col_ptr = pattern.col_ptr.clone();
                    for p in &mut col_ptr[col + 1..] {
                        *p -= 1;
                    }
                    let mut row_idx = pattern.row_idx.clone();
                    let mut vals = pattern.vals.clone();
                    row_idx.remove(k);
                    vals.remove(k);
                    let open = Csc::from_parts_unchecked(40, 40, col_ptr, row_idx, vals);
                    return (pattern, open, (row, col));
                }
            }
        }
        panic!("the fill of a random matrix has a sub-diagonal fill-in");
    }

    /// Runs columns `0..=col` through both kernels and asserts that, under
    /// every discipline, the accumulator's failing column raises the
    /// walk's error and leaves the store exactly as it found it.
    fn assert_failure_is_atomic(pattern: &Csc, col: usize, want_err: SparseError) {
        let cache = PivotCache::build(pattern);
        for d in ALL {
            let got = ValueStore::new(&pattern.vals);
            let want = ValueStore::new(&pattern.vals);
            let mut scratch = ColumnScratch::default();
            for j in 0..col {
                process_column(pattern, &got, j, d, &cache, &mut scratch).expect("prefix ok");
                process_column_walk(pattern, &want, j, d, &cache, PivotRule::Exact)
                    .expect("prefix ok");
            }
            let before = bits(&got.snapshot());
            let err = process_column(pattern, &got, col, d, &cache, &mut scratch).unwrap_err();
            assert_eq!(err, want_err, "{d:?}");
            assert_eq!(
                process_column_walk(pattern, &want, col, d, &cache, PivotRule::Exact).unwrap_err(),
                err,
                "{d:?}: same error as the walk"
            );
            assert_eq!(bits(&got.snapshot()), before, "{d:?}: store untouched");
        }
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
            let vals = ValueStore::new(&pattern.vals);
            for j in 0..40 {
                process_column(&pattern, &vals, j, d, &cache, &mut scratch).expect("column ok");
            }
            let got = vals.into_vec();
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

        let vals = ValueStore::new(&pattern.vals);
        let mut scratch = ColumnScratch::default();
        for j in 0..60 {
            process_column(
                &pattern,
                &vals,
                j,
                AccessDiscipline::Merge,
                &cache,
                &mut scratch,
            )
            .expect("ok");
        }
        assert_eq!(vals.into_vec(), seq.vals);
    }

    #[test]
    fn probes_counted_only_for_binary_search() {
        let a = random_dominant(30, 4.0, 62);
        let pattern = filled(&a);
        let cache = PivotCache::build(&pattern);
        let vals = ValueStore::new(&pattern.vals);
        let mut scratch = ColumnScratch::default();
        let mut dense_probes = 0;
        let mut items = 0;
        for j in 0..30 {
            let c = process_column(
                &pattern,
                &vals,
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

        let vals = ValueStore::new(&pattern.vals);
        let mut sparse_probes = 0;
        for j in 0..30 {
            sparse_probes += process_column(
                &pattern,
                &vals,
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
        let vals = ValueStore::new(&pattern.vals);
        let mut scratch = ColumnScratch::default();
        for j in 0..50 {
            let c = process_column(
                &pattern,
                &vals,
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
    fn pivot_cache_matches_searches() {
        let a = random_dominant(35, 4.0, 65);
        let pattern = filled(&a);
        let cache = PivotCache::build(&pattern);
        assert_eq!(cache.len(), 35);
        for j in 0..35 {
            assert_eq!(cache.diag(j), pattern.find_in_col(j, j).0, "diag {j}");
            assert_eq!(
                cache.lower_start(j),
                pattern.lower_bound_after(j, j),
                "lower {j}"
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
        let vals = ValueStore::new(&pattern.vals);
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
        }
        let got = vals.into_vec();
        let diag1 = cache.diag(1).expect("diagonal present");
        assert_eq!(got[diag1], 1e-8, "clamped pivot written back");
    }

    #[test]
    fn zero_pivot_detected() {
        let pattern = all_ones_2x2();
        let cache = PivotCache::build(&pattern);
        let vals = ValueStore::new(&pattern.vals);
        let mut scratch = ColumnScratch::default();
        let d = AccessDiscipline::BinarySearch;
        process_column(&pattern, &vals, 0, d, &cache, &mut scratch).expect("col 0 fine");
        assert!(matches!(
            process_column(&pattern, &vals, 1, d, &cache, &mut scratch),
            Err(SparseError::ZeroPivot { col: 1 })
        ));
    }
}
