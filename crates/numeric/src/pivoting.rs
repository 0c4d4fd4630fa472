//! Pivot policies and the host-side threshold-pivot discovery pre-pass.
//!
//! The level-scheduled GPU engines cannot pivot at runtime: swapping rows
//! mid-factorization would invalidate the level schedule (and with it the
//! cross-engine bit-identity contract), which is why the GLU family —
//! and this reproduction — push stability handling out of the numeric
//! kernels. This module supplies the two policies that close the gap for
//! ill-conditioned traffic:
//!
//! * **Static perturbation** acts *inside* the engines, at the one point
//!   where it is order-independent: a column's pivot value is final before
//!   its division step, so clamping `|pivot| < threshold` there
//!   ([`crate::outcome::PivotRule::Perturb`]) is deterministic and
//!   identical across all five engines. The applied deltas are reported in
//!   [`crate::NumericOutcome::perturbations`] so the caller can mirror
//!   them into the input diagonal (the factors exactly factor the bumped
//!   matrix) and judge the result with a residual gate.
//!
//! * **Threshold pivoting** runs *before* the engines as a sequential
//!   host pre-pass ([`discover_pivots`]): a Gilbert–Peierls left-looking
//!   factorization with threshold partial pivoting over the preprocessed
//!   matrix, producing a row permutation. The engines then factorize the
//!   permuted matrix with no pivoting at all — same artifacts, same level
//!   schedule discipline, bit-identical across engines. When the chosen
//!   pivot order deviates from the natural diagonal the predicted fill
//!   pattern no longer covers the factorization; the symbolic expansion
//!   pass (gplu-symbolic) repairs the pattern before levelization.
//!
//! The discovery pass performs the same eliminations the engines will
//! (dependency columns ascending, one subtract per target), so the pivot
//! values it inspects are the values the engines will divide by — if
//! discovery succeeds, the engines will not trip a zero pivot on the
//! permuted system.
//!
//! **Factor once when nothing swaps.** On traffic whose diagonal clears
//! tau everywhere, `discover_pivots` would eliminate the whole matrix on
//! the host only to return the identity, and the engines would then
//! eliminate it again. So discovery first tries the diagonal
//! ([`discover_pivots_swept`]): a column-order sweep of the engines' own
//! kernel core ([`crate::outcome::process_column_with`]) over the static
//! fill pattern symbolic has already built, under
//! [`PivotRule::Threshold`], which checks each finished column at
//! division time — where static perturbation acts — with
//! `discover_pivots`' comparison. Column order is the serialization every
//! level schedule reduces to, so the sweep's values are the engines'
//! bits. When every column keeps its diagonal, discovery is the identity
//! with `discover_pivots`' exact flop count (rebuilt from the factors, so
//! the simulated clock is charged the same), and the factors and each
//! column's location counter go to the numeric phase
//! ([`SweptFactors`]): the level driver stores them column by column in
//! place of eliminating, through the same launches, prices, hooks and
//! resume cuts. At the first rejected column the sweep's state is dropped
//! and `discover_pivots` runs as before; nothing it returns changes.
//!
//! The engines themselves do not check the threshold. Checking there and
//! running discovery only after a rejection would drop discovery's clock
//! charge ahead of levelization: levelize and numeric would start at
//! another clock offset, and their f64 durations would differ in the
//! last bits from a run that charges discovery first — which the
//! benchmark's layered replay, still running `discover_pivots` and the
//! full engine, compares to the bit.

use crate::outcome::{process_column_with, AccessDiscipline, ColCosts, PivotCache, PivotRule};
use crate::scratch::ColumnScratch;
use crate::values::ColumnStore;
use gplu_sparse::convert::csr_to_csc;
use gplu_sparse::{Csc, Csr, Idx, SparseError};

/// Default threshold-pivoting relative tolerance: a diagonal pivot is kept
/// unless it is smaller than `tau` times the largest candidate in its
/// column. `0.1` is the classical partial-threshold compromise (markowitz
/// solvers ship the same default): strong enough to cap element growth,
/// loose enough to keep the natural diagonal — and the predicted fill
/// pattern — on well-conditioned traffic.
pub const DEFAULT_PIVOT_TAU: f64 = 0.1;

/// How the factorization handles small or zero pivots.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PivotPolicy {
    /// No pivoting (the paper's convention): a zero pivot is a typed
    /// error, optionally patched by `--repair-singular`.
    #[default]
    NoPivot,
    /// Static perturbation: pivots with magnitude below `threshold` are
    /// clamped to `±threshold` at division time, inside the engines.
    Static {
        /// The magnitude floor below which pivots are clamped.
        threshold: f64,
    },
    /// Threshold partial pivoting: a host pre-pass picks a row
    /// permutation keeping the diagonal pivot only when
    /// `|pivot| ≥ tau · max|candidate|`, and the engines factorize the
    /// permuted system.
    Threshold {
        /// Relative pivot tolerance in `(0, 1]`; `1.0` is full partial
        /// pivoting.
        tau: f64,
    },
}

impl PivotPolicy {
    /// Short stable name for telemetry, recovery events and reports.
    pub fn name(&self) -> &'static str {
        match self {
            PivotPolicy::NoPivot => "none",
            PivotPolicy::Static { .. } => "static",
            PivotPolicy::Threshold { .. } => "threshold",
        }
    }
}

/// Result of the threshold-pivot discovery pre-pass.
#[derive(Debug, Clone)]
pub struct PivotDiscovery {
    /// Forward row map: original (preprocessed) row → pivot position.
    /// Feed to `Permutation::from_forward` to permute the matrix.
    pub pinv: Vec<Idx>,
    /// Number of columns whose chosen pivot row differs from the natural
    /// diagonal. Zero means the permutation is the identity and every
    /// downstream artifact is unchanged — the no-swap fast path.
    pub swaps: usize,
    /// Elimination flops the pass performed, for host-cost pricing.
    pub flops: u64,
}

/// The factors of a discovery sweep in which every column kept its
/// diagonal, for the numeric phase to store instead of eliminating.
#[derive(Debug, Clone)]
pub struct SweptFactors {
    /// The access discipline the sweep priced its columns under. An
    /// engine of another discipline eliminates for itself.
    pub discipline: AccessDiscipline,
    /// The factors, in the swept pattern's CSC order.
    vals: Vec<f64>,
    /// Per column, the location counter the kernel core reported: probes
    /// under binary search, cursor steps under merge, zero under dense.
    located: Vec<u64>,
}

impl SweptFactors {
    /// Publishes column `j`'s factors in `store` (laid out like the swept
    /// pattern) and returns the costs the kernel core recorded for it —
    /// what [`process_column_with`] would have done and returned, and the
    /// same [`SparseError::OutOfOrder`] for a column already finished.
    pub fn store_column(
        &self,
        pattern: &Csc,
        store: &ColumnStore<'_>,
        j: usize,
    ) -> Result<ColCosts, SparseError> {
        let column = store
            .open(j)
            .ok_or(SparseError::OutOfOrder { col: j, dep: j })?;
        column.publish(|col| {
            col.copy_from_slice(&self.vals[pattern.col_ptr[j]..pattern.col_ptr[j + 1]])
        });
        let located = self.located[j];
        Ok(match self.discipline {
            AccessDiscipline::BinarySearch => ColCosts {
                probes: located,
                ..ColCosts::default()
            },
            AccessDiscipline::Merge => ColCosts {
                merge_steps: located,
                ..ColCosts::default()
            },
            AccessDiscipline::Dense => ColCosts::default(),
        })
    }
}

/// Threshold-pivot discovery that tries the diagonal first (module docs).
/// `pattern` is the static fill of `a` in CSC, carrying `a`'s values,
/// `cache` its [`PivotCache`], and `discipline` the access discipline the
/// numeric phase's first engine prices.
///
/// When every column keeps its diagonal, returns the identity discovery —
/// `discover_pivots(a, tau)` to the bit: no swaps and Gilbert–Peierls'
/// exact flop count `n + Σ_j nzL(j) + Σ_j Σ_{t<j, U(t,j)≠0} nzL(t)` — with
/// the sweep's factors. Otherwise returns what `discover_pivots(a, tau)`
/// returns, without factors.
pub fn discover_pivots_swept(
    a: &Csr,
    pattern: &Csc,
    cache: &PivotCache,
    tau: f64,
    discipline: AccessDiscipline,
) -> Result<(PivotDiscovery, Option<SweptFactors>), SparseError> {
    match sweep(pattern, cache, tau, discipline) {
        Some((disc, factors)) => Ok((disc, Some(factors))),
        None => discover_pivots(a, tau).map(|disc| (disc, None)),
    }
}

/// The column-order sweep of [`discover_pivots_swept`]; `None` at the
/// first column that does not keep its diagonal.
fn sweep(
    pattern: &Csc,
    cache: &PivotCache,
    tau: f64,
    discipline: AccessDiscipline,
) -> Option<(PivotDiscovery, SweptFactors)> {
    let n = pattern.n_cols();
    let mut vals = pattern.vals.clone();
    let mut store = ColumnStore::new(&mut vals, &pattern.col_ptr);
    let mut scratch = ColumnScratch::default();
    let rule = PivotRule::Threshold { tau };
    let mut lower_nz: Vec<u64> = Vec::with_capacity(n);
    let mut located = Vec::with_capacity(n);
    let mut flops = n as u64;
    for j in 0..n {
        let (costs, _) =
            process_column_with(pattern, &store, j, discipline, cache, rule, &mut scratch).ok()?;
        // Dependency `t` with a non-zero `U(t, j)` applied its `nzL(t)`
        // non-zero multipliers; the division produced `nzL(j)`.
        store.seal([j]);
        let finished = store.column(j).unwrap_or_default();
        for (&t, &u) in pattern.col_rows(j).iter().zip(finished) {
            if t as usize >= j {
                break;
            }
            if u != 0.0 {
                flops += lower_nz[t as usize];
            }
        }
        flops += costs.lower_nz;
        lower_nz.push(costs.lower_nz);
        located.push(costs.probes + costs.merge_steps);
    }
    let disc = PivotDiscovery {
        pinv: (0..n as Idx).collect(),
        swaps: 0,
        flops,
    };
    drop(store);
    let factors = SweptFactors {
        discipline,
        vals,
        located,
    };
    Some((disc, factors))
}

/// Which rows the active column of [`discover_pivots`] occupies.
struct Occupancy {
    in_col: Vec<bool>,
    /// The occupied rows, in first-touch order.
    touched: Vec<usize>,
    /// Bit `t` set: the row at pivot position `t` is occupied, so column
    /// `t` of L has an update to apply. All-zero between columns.
    pending: Vec<u64>,
}

impl Occupancy {
    /// Marks row `i` as occupied; `pinv[i]` is its pivot position
    /// (`usize::MAX` while unassigned).
    #[inline]
    fn occupy(&mut self, i: usize, pinv: &[usize]) {
        if !self.in_col[i] {
            self.in_col[i] = true;
            self.touched.push(i);
            let pos = pinv[i];
            if pos != usize::MAX {
                self.pending[pos / 64] |= 1 << (pos % 64);
            }
        }
    }
}

/// Runs Gilbert–Peierls left-looking LU with threshold partial pivoting
/// over `a` (the preprocessed matrix) and returns the row permutation it
/// chose. `tau ∈ (0, 1]`: the natural diagonal row is kept whenever
/// `|x_jj| ≥ tau · max|x_candidates|`, so on diagonally dominant traffic
/// the result is the identity and `swaps == 0`.
///
/// Errors with [`SparseError::ZeroPivot`] when a column has no usable
/// pivot at all (exact numerical singularity) — no permutation can save
/// such a matrix, and the caller's recovery ladder takes over.
pub fn discover_pivots(a: &Csr, tau: f64) -> Result<PivotDiscovery, SparseError> {
    let n = a.n_rows();
    let acsc = csr_to_csc(a);
    // perm[t] = original row assigned to pivot position t.
    let mut perm = vec![usize::MAX; n];
    let mut pinv = vec![usize::MAX; n];
    // L columns by pivot position, back to back in one arena: (original
    // row, multiplier), rows unassigned at build time.
    let mut l_ptr = Vec::with_capacity(n + 1);
    l_ptr.push(0usize);
    let mut l_rows: Vec<Idx> = Vec::new();
    let mut l_vals: Vec<f64> = Vec::new();
    // Dense accumulator for the active column + its occupancy.
    let mut x = vec![0.0f64; n];
    let mut occ = Occupancy {
        in_col: vec![false; n],
        touched: Vec::new(),
        pending: vec![0u64; n.div_ceil(64)],
    };
    let mut swaps = 0usize;
    let mut flops = 0u64;

    for j in 0..n {
        for (i, v) in acsc.col_iter(j) {
            x[i] = v;
            occ.occupy(i, &pinv);
        }
        // Left-looking elimination in ascending pivot order — the same
        // update order (and the same arithmetic) the engines apply. A
        // row occupied while eliminating position t was unassigned when
        // column t of L was built, so its own position is above t: it
        // lands in the current word's higher bits or in a later word,
        // and one ascending sweep reaches it.
        for word in 0..j.div_ceil(64) {
            while occ.pending[word] != 0 {
                let bit = occ.pending[word].trailing_zeros() as usize;
                occ.pending[word] &= !(1 << bit);
                let t = word * 64 + bit;
                let u_tj = x[perm[t]];
                if u_tj == 0.0 {
                    continue;
                }
                let col = l_ptr[t]..l_ptr[t + 1];
                for (&i, &lv) in l_rows[col.clone()].iter().zip(&l_vals[col]) {
                    let i = i as usize;
                    occ.occupy(i, &pinv);
                    x[i] -= lv * u_tj;
                    flops += 1;
                }
            }
        }
        // Pivot selection among rows not yet assigned to earlier pivots.
        let mut best = usize::MAX;
        let mut best_mag = 0.0f64;
        for &i in &occ.touched {
            if pinv[i] == usize::MAX {
                let m = x[i].abs();
                if m > best_mag || (m == best_mag && m > 0.0 && i < best) {
                    best_mag = m;
                    best = i;
                }
            }
        }
        if best == usize::MAX || best_mag == 0.0 || !best_mag.is_finite() {
            return Err(SparseError::ZeroPivot { col: j });
        }
        // Keep the natural diagonal when it clears the threshold — that
        // preserves the predicted fill pattern; otherwise swap to the
        // largest candidate.
        let diag_ok = pinv[j] == usize::MAX && x[j].abs() >= tau * best_mag && x[j] != 0.0;
        let chosen = if diag_ok { j } else { best };
        if chosen != j {
            swaps += 1;
        }
        perm[j] = chosen;
        pinv[chosen] = j;
        let piv = x[chosen];
        for &i in &occ.touched {
            if pinv[i] == usize::MAX && x[i] != 0.0 {
                l_rows.push(i as Idx);
                l_vals.push(x[i] / piv);
                flops += 1;
            }
        }
        l_ptr.push(l_rows.len());
        for &i in &occ.touched {
            x[i] = 0.0;
            occ.in_col[i] = false;
        }
        occ.touched.clear();
    }

    Ok(PivotDiscovery {
        pinv: pinv.iter().map(|&p| p as Idx).collect(),
        swaps,
        flops: flops + n as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factorize_seq;
    use gplu_sim::CostModel;
    use gplu_sparse::convert::coo_to_csr;
    use gplu_sparse::gen::hard::HardKind;
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_sparse::perm::permute_csr;
    use gplu_sparse::{Coo, Permutation};
    use gplu_symbolic::symbolic_cpu;
    use proptest::prelude::*;

    /// Discovery with every earlier pivot position scanned per column
    /// and one heap vector per L column — the reference `discover_pivots`
    /// must match in `pinv`, `swaps` and `flops`.
    fn discover_pivots_scan(a: &Csr, tau: f64) -> Result<PivotDiscovery, SparseError> {
        let n = a.n_rows();
        let acsc = csr_to_csc(a);
        // perm[t] = original row assigned to pivot position t.
        let mut perm = vec![usize::MAX; n];
        let mut pinv = vec![usize::MAX; n];
        // L columns by pivot position: (original row, multiplier), rows
        // unassigned at build time.
        let mut lcols: Vec<Vec<(Idx, f64)>> = vec![Vec::new(); n];
        // Dense accumulator for the active column + occupancy worklist.
        let mut x = vec![0.0f64; n];
        let mut in_col = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        let mut swaps = 0usize;
        let mut flops = 0u64;

        for j in 0..n {
            for (i, v) in acsc.col_iter(j) {
                x[i] = v;
                if !in_col[i] {
                    in_col[i] = true;
                    touched.push(i);
                }
            }
            for t in 0..j {
                let u_tj = x[perm[t]];
                if u_tj == 0.0 {
                    continue;
                }
                for &(i, lv) in &lcols[t] {
                    let i = i as usize;
                    if !in_col[i] {
                        in_col[i] = true;
                        touched.push(i);
                    }
                    x[i] -= lv * u_tj;
                    flops += 1;
                }
            }
            let mut best = usize::MAX;
            let mut best_mag = 0.0f64;
            for &i in &touched {
                if pinv[i] == usize::MAX {
                    let m = x[i].abs();
                    if m > best_mag || (m == best_mag && m > 0.0 && i < best) {
                        best_mag = m;
                        best = i;
                    }
                }
            }
            if best == usize::MAX || best_mag == 0.0 || !best_mag.is_finite() {
                return Err(SparseError::ZeroPivot { col: j });
            }
            let diag_ok = pinv[j] == usize::MAX && x[j].abs() >= tau * best_mag && x[j] != 0.0;
            let chosen = if diag_ok { j } else { best };
            if chosen != j {
                swaps += 1;
            }
            perm[j] = chosen;
            pinv[chosen] = j;
            let piv = x[chosen];
            let mut lcol = Vec::new();
            for &i in &touched {
                if pinv[i] == usize::MAX && x[i] != 0.0 {
                    lcol.push((i as Idx, x[i] / piv));
                    flops += 1;
                }
            }
            lcols[j] = lcol;
            for &i in &touched {
                x[i] = 0.0;
                in_col[i] = false;
            }
            touched.clear();
        }

        Ok(PivotDiscovery {
            pinv: pinv.iter().map(|&p| p as Idx).collect(),
            swaps,
            flops: flops + n as u64,
        })
    }

    #[test]
    fn dominant_matrix_needs_no_swaps() {
        for seed in [1, 2, 3] {
            let a = random_dominant(120, 4.0, seed);
            let d = discover_pivots(&a, DEFAULT_PIVOT_TAU).expect("dominant factorizes");
            assert_eq!(d.swaps, 0, "seed {seed}: dominant diagonal must hold");
            for (r, &p) in d.pinv.iter().enumerate() {
                assert_eq!(p as usize, r, "identity pinv");
            }
            assert!(d.flops > 0);
        }
    }

    #[test]
    fn tiny_diagonal_forces_a_swap() {
        // [[eps, 1], [1, 1]]: the natural pivot eps fails tau=0.1 against
        // candidate 1.0, so rows must swap.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1e-14);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo_to_csr(&coo);
        let d = discover_pivots(&a, DEFAULT_PIVOT_TAU).expect("pivotable");
        // A transposition deviates from the natural diagonal in both of
        // its columns, so it counts as two swaps.
        assert_eq!(d.swaps, 2);
        assert_eq!(d.pinv, vec![1, 0], "rows exchanged");
    }

    #[test]
    fn exact_cancellation_survives_via_swap() {
        // [[1,1],[1,1]] has U(1,1) = 0 without pivoting — the matrix is
        // genuinely singular, so even discovery must reject it.
        let mut coo = Coo::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0);
            }
        }
        let a = coo_to_csr(&coo);
        assert!(matches!(
            discover_pivots(&a, DEFAULT_PIVOT_TAU),
            Err(SparseError::ZeroPivot { col: 1 })
        ));

        // But [[1,1,0],[1,1,1],[0,1,1]] is nonsingular and only needs the
        // swap: column 1 cancels on the diagonal yet row 2 offers 1.0.
        let mut coo = Coo::new(3, 3);
        for (i, j, v) in [
            (0, 0, 1.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 1.0),
        ] {
            coo.push(i, j, v);
        }
        let a = coo_to_csr(&coo);
        let d = discover_pivots(&a, DEFAULT_PIVOT_TAU).expect("swap saves it");
        assert!(d.swaps > 0);
    }

    #[test]
    fn permuted_system_factorizes_without_pivoting() {
        // The permutation discovery returns must make plain no-pivot LU
        // succeed on the permuted matrix (oracle: dense LU).
        let mut coo = Coo::new(4, 4);
        for (i, j, v) in [
            (0, 0, 1e-13),
            (0, 1, 2.0),
            (0, 3, 1.0),
            (1, 0, 3.0),
            (1, 1, 1.0),
            (1, 2, 0.5),
            (2, 1, 1.0),
            (2, 2, 4.0),
            (3, 0, 1.0),
            (3, 3, 2.0),
        ] {
            coo.push(i, j, v);
        }
        let a = coo_to_csr(&coo);
        let d = discover_pivots(&a, DEFAULT_PIVOT_TAU).expect("pivotable");
        assert!(d.swaps > 0);
        let p = Permutation::from_forward(d.pinv.clone()).expect("bijection");
        let b = permute_csr(&a, &p, &Permutation::identity(4));
        let dense = gplu_sparse::convert::csr_to_dense(&b);
        dense
            .lu_no_pivot()
            .expect("permuted system is factorizable");
    }

    #[test]
    fn full_partial_pivoting_at_tau_one() {
        let a = banded_dominant(60, 3, 9);
        // tau = 1.0 keeps the diagonal only when it ties the max — the
        // dominant diagonal always does.
        let d = discover_pivots(&a, 1.0).expect("ok");
        assert_eq!(d.swaps, 0);
    }

    /// The static fill of `a` as CSC, carrying `a`'s values.
    fn filled(a: &Csr) -> Csc {
        csr_to_csc(&symbolic_cpu(a, &CostModel::default()).result.filled)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sweep is `discover_pivots` whenever it keeps every diagonal:
        /// the same `(pinv, swaps, flops)` or the same error, over every
        /// family at both taus. Its factors are the sequential reference's
        /// bits and its location counters are the exact core's; and it
        /// keeps every diagonal whenever `discover_pivots` swaps nothing.
        #[test]
        fn prop_sweep_equals_discover_pivots(
            family in 0usize..6,
            n in 8usize..200,
            density in 2.0f64..7.0,
            seed in 0u64..1000,
            full in 0usize..2,
            disc_idx in 0usize..3,
        ) {
            let a = match family {
                0 => random_dominant(n, density, seed),
                1 => banded_dominant(n, 1 + density as usize / 2, seed),
                k => HardKind::ALL[k - 2].generate(n, seed),
            };
            let tau = if full == 1 { 1.0 } else { DEFAULT_PIVOT_TAU };
            let discipline = [
                AccessDiscipline::Dense,
                AccessDiscipline::BinarySearch,
                AccessDiscipline::Merge,
            ][disc_idx];
            let pattern = filled(&a);
            let cache = PivotCache::build(&pattern);
            let got = discover_pivots_swept(&a, &pattern, &cache, tau, discipline);
            let want = discover_pivots(&a, tau);
            match (got, want) {
                (Ok((got, factors)), Ok(want)) => {
                    prop_assert_eq!(got.pinv, want.pinv);
                    prop_assert_eq!(got.swaps, want.swaps);
                    prop_assert_eq!(got.flops, want.flops);
                    prop_assert_eq!(factors.is_some(), want.swaps == 0);
                    if let Some(f) = factors {
                        let (mut vals, mut sunk) = (pattern.vals.clone(), pattern.vals.clone());
                        let mut store = ColumnStore::new(&mut vals, &pattern.col_ptr);
                        let sink = ColumnStore::new(&mut sunk, &pattern.col_ptr);
                        let mut ws = ColumnScratch::default();
                        for j in 0..n {
                            let exact = process_column_with(
                                &pattern, &store, j, discipline, &cache, PivotRule::Exact, &mut ws,
                            )
                            .expect("exact core").0;
                            store.seal([j]);
                            let stored = f.store_column(&pattern, &sink, j).expect("open");
                            prop_assert_eq!(
                                (stored.probes, stored.merge_steps),
                                (exact.probes, exact.merge_steps)
                            );
                        }
                        let mut lu = pattern.clone();
                        factorize_seq(&mut lu).expect("the sweep's factors exist");
                        let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(bits(sink.snapshot()), bits(lu.vals));
                    }
                }
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
        }

        #[test]
        fn prop_bitmap_sweep_equals_full_scan(
            family in 0usize..6,
            n in 8usize..200,
            density in 2.0f64..7.0,
            seed in 0u64..1000,
            full in 0usize..2,
        ) {
            let a = match family {
                0 => random_dominant(n, density, seed),
                1 => banded_dominant(n, 1 + density as usize / 2, seed),
                k => HardKind::ALL[k - 2].generate(n, seed),
            };
            let tau = if full == 1 { 1.0 } else { DEFAULT_PIVOT_TAU };
            match (discover_pivots(&a, tau), discover_pivots_scan(&a, tau)) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.pinv, want.pinv);
                    prop_assert_eq!(got.swaps, want.swaps);
                    prop_assert_eq!(got.flops, want.flops);
                }
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
        }
    }
}
