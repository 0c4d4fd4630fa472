//! Dynamic symbolic expansion — in-place pattern repair after a pivot
//! permutation.
//!
//! When threshold-pivot discovery (gplu-numeric) chooses a row order that
//! deviates from the natural diagonal, the fill pattern predicted for the
//! *unpermuted* matrix no longer covers the factorization of the permuted
//! one: left-looking updates would land on structurally missing positions
//! (`MissingFill`). Rather than discarding the symbolic investment and
//! re-running the full fill pass, this module grows the affected columns
//! in place.
//!
//! The input is the predicted filled matrix with its **rows permuted** by
//! the discovered pivot order (original `A` entries carried along, fills
//! as explicit zeros). Its pattern is a superset of the permuted `A`'s
//! pattern, so the left-looking closure of it is a superset of the true
//! fill of the permuted system — completing the closure is sufficient for
//! every engine to factorize without `MissingFill`.
//!
//! Closure rule (exactly the engines' access contract): for every column
//! `j` and every dependency entry `(t, j)` with `t < j`, each sub-diagonal
//! row of column `t` must also be present in column `j`. Columns are
//! repaired in ascending order, so column `t < j` is already final when
//! `j` is processed, and the closure of column `j` is a reachability sweep
//! (the formulation of the symbolic stage itself, and of GSoFa/GLU3.0):
//! the column's rows are stamped in a marker array, its rows `< j` seed a
//! frontier, and each frontier dependency walks the sub-diagonal suffix of
//! its final column exactly once — an unstamped row joins column `j` and,
//! when `< j`, the next frontier. The column is sorted once, when its
//! frontier runs dry.
//!
//! The pass is *bounded*: the permuted old fill can close to far more
//! entries than a fresh symbolic pass on the permuted matrix would
//! predict. The caller supplies a budget of added entries; when the
//! closure blows past it the outcome reports `closed == false` and the
//! caller falls back to a full re-symbolic pass — the last rung before
//! rejection on the recovery ladder.

use gplu_sparse::convert::{csc_to_csr, csr_to_csc};
use gplu_sparse::{Csc, Csr, Idx, Val};

/// Result of a bounded in-place pattern expansion.
#[derive(Debug)]
pub struct ExpandOutcome {
    /// The expanded filled matrix: input entries in place, inserted
    /// positions as explicit zeros. Only meaningful when `closed`.
    pub filled: Csr,
    /// Number of structural entries inserted (including repaired
    /// diagonals).
    pub added: usize,
    /// Maximum number of growing frontier generations any single column
    /// needed — how deep the swap-induced fill cascaded.
    pub rounds: usize,
    /// Whether the closure completed within `budget`. When false the
    /// pattern is unusable and the caller must re-run symbolic
    /// factorization on the permuted matrix.
    pub closed: bool,
}

/// Completes the left-looking closure of `filled_perm` (the row-permuted
/// predicted fill), inserting at most `budget` explicit-zero entries.
///
/// On dominant traffic — where discovery keeps the natural diagonal and
/// the caller passes the unpermuted fill — the input is already closed
/// and the pass returns it unchanged with `added == 0`.
pub fn expand_fill(filled_perm: &Csr, budget: usize) -> ExpandOutcome {
    let n = filled_perm.n_rows();
    debug_assert_eq!(n, filled_perm.n_cols(), "square systems only");
    let input = csr_to_csc(filled_perm);

    // Output arena: the final columns back to back, rows ascending.
    // `sub[t]` is where column `t`'s sub-diagonal suffix starts in it.
    let mut col_ptr = Vec::with_capacity(n + 1);
    col_ptr.push(0usize);
    let mut rows: Vec<Idx> = Vec::with_capacity(input.nnz());
    let mut vals: Vec<Val> = Vec::with_capacity(input.nnz());
    let mut sub: Vec<usize> = Vec::with_capacity(n);

    // mark[r] == j: row r is already in column j (no column is Idx::MAX).
    let mut mark = vec![Idx::MAX; n];
    // Rows inserted into the active column, in discovery order.
    let mut fresh: Vec<Idx> = Vec::new();
    let mut frontier: Vec<Idx> = Vec::new();
    let mut next: Vec<Idx> = Vec::new();

    let mut added = 0usize;
    let mut rounds = 0usize;
    let mut closed = true;

    for j in 0..n {
        let diag = j as Idx;
        let in_rows = input.col_rows(j);
        fresh.clear();
        // Once the budget is blown the remaining columns pass through
        // unrepaired; the caller discards the pattern.
        if closed {
            for &r in in_rows {
                mark[r as usize] = diag;
            }
            // The engines address every pivot through the diagonal slot;
            // make sure it exists structurally (its value is repaired
            // numerically).
            if mark[j] != diag {
                mark[j] = diag;
                fresh.push(diag);
                added += 1;
            }
            frontier.clear();
            frontier.extend(in_rows.iter().take_while(|&&r| r < diag));
            let mut generation = 0usize;
            // One generation inserts exactly what one pass over the whole
            // dependency prefix would: the prefix's older members walked
            // their columns in an earlier generation and those columns are
            // final, so re-walking them finds every row stamped.
            while !frontier.is_empty() {
                let before = fresh.len();
                next.clear();
                for &t in &frontier {
                    let t = t as usize;
                    for &r in &rows[sub[t]..col_ptr[t + 1]] {
                        if mark[r as usize] != diag {
                            mark[r as usize] = diag;
                            fresh.push(r);
                            if r < diag {
                                next.push(r);
                            }
                        }
                    }
                }
                if fresh.len() == before {
                    break;
                }
                added += fresh.len() - before;
                generation += 1;
                rounds = rounds.max(generation);
                if added > budget {
                    closed = false;
                    break;
                }
                std::mem::swap(&mut frontier, &mut next);
            }
        }

        // Merge the input column with its sorted insertions.
        fresh.sort_unstable();
        let mut zeros = fresh.iter().copied().peekable();
        for (&r, &v) in in_rows.iter().zip(input.col_vals(j)) {
            while let Some(z) = zeros.next_if(|&z| z < r) {
                rows.push(z);
                vals.push(0.0);
            }
            rows.push(r);
            vals.push(v);
        }
        for z in zeros {
            rows.push(z);
            vals.push(0.0);
        }
        let start = col_ptr[j];
        sub.push(start + rows[start..].partition_point(|&r| r <= diag));
        col_ptr.push(rows.len());
    }

    ExpandOutcome {
        filled: csc_to_csr(&Csc::from_parts_unchecked(n, n, col_ptr, rows, vals)),
        added,
        rounds,
        closed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::symbolic_cpu;
    use crate::reference::fill_by_elimination;
    use gplu_sim::CostModel;
    use gplu_sparse::convert::coo_to_csr;
    use gplu_sparse::gen::circuit::{circuit, CircuitParams};
    use gplu_sparse::gen::hard::HardKind;
    use gplu_sparse::gen::mesh::{mesh, MeshParams};
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_sparse::perm::permute_csr;
    use gplu_sparse::{Coo, Permutation};
    use proptest::prelude::*;
    use rand::Rng;

    /// Inserts `row` into the sorted column `col` as an explicit zero if
    /// absent; returns whether an insertion happened.
    fn insert_zero(col: &mut Vec<(Idx, Val)>, row: Idx) -> bool {
        match col.binary_search_by_key(&row, |&(r, _)| r) {
            Ok(_) => false,
            Err(pos) => {
                col.insert(pos, (row, 0.0));
                true
            }
        }
    }

    /// The closure as a literal fixpoint — the definition `expand_fill`
    /// must reproduce field for field: every pass replays the column's
    /// whole dependency prefix with sorted inserts until a pass adds
    /// nothing, and the budget is checked after each growing pass.
    fn expand_fill_fixpoint(filled_perm: &Csr, budget: usize) -> ExpandOutcome {
        let n = filled_perm.n_rows();
        let mut cols: Vec<Vec<(Idx, Val)>> = vec![Vec::new(); n];
        for i in 0..n {
            for (j, v) in filled_perm.row_iter(i) {
                cols[j].push((i as Idx, v));
            }
        }

        let mut added = 0usize;
        let mut rounds = 0usize;
        let mut closed = true;

        'outer: for j in 0..n {
            let (left, right) = cols.split_at_mut(j);
            let colj = &mut right[0];
            if insert_zero(colj, j as Idx) {
                added += 1;
            }
            let mut pass = 0usize;
            loop {
                let mut grew = false;
                // Snapshot the dependency prefix: insertions below may
                // extend it, which the next pass picks up.
                let deps: Vec<usize> = colj
                    .iter()
                    .map(|&(r, _)| r as usize)
                    .take_while(|&r| r < j)
                    .collect();
                for t in deps {
                    for &(r, _) in &left[t] {
                        if (r as usize) > t && insert_zero(colj, r) {
                            added += 1;
                            grew = true;
                        }
                    }
                }
                if !grew {
                    break;
                }
                pass += 1;
                rounds = rounds.max(pass);
                if added > budget {
                    closed = false;
                    break 'outer;
                }
            }
        }

        let mut coo = Coo::new(n, n);
        for (j, col) in cols.iter().enumerate() {
            for &(i, v) in col {
                coo.push(i as usize, j, v);
            }
        }
        ExpandOutcome {
            filled: coo_to_csr(&coo),
            added,
            rounds,
            closed,
        }
    }

    /// `expand_fill` against the fixpoint on one input, over the budgets
    /// that cut at the first cascade, mid-closure, late, and never.
    fn assert_matches_fixpoint(fp: &Csr) {
        let nnz = fp.nnz();
        for budget in [8, nnz / 4, nnz, 4 * nnz + 256] {
            let got = expand_fill(fp, budget);
            let want = expand_fill_fixpoint(fp, budget);
            assert_eq!(got.closed, want.closed, "closed @ budget {budget}");
            assert_eq!(got.added, want.added, "added @ budget {budget}");
            assert_eq!(got.rounds, want.rounds, "rounds @ budget {budget}");
            // Equal even when cut: finished columns, the partial column
            // and the untouched tail are all emitted the same way.
            assert_eq!(got.filled.row_ptr, want.filled.row_ptr);
            assert_eq!(got.filled.col_idx, want.filled.col_idx);
            assert_eq!(got.filled.vals, want.filled.vals);
        }
    }

    fn permute_rows(f: &Csr, forward: Vec<Idx>) -> Csr {
        let p = Permutation::from_forward(forward).expect("bijection");
        permute_csr(f, &p, &Permutation::identity(f.n_cols()))
    }

    fn filled_of(a: &Csr) -> Csr {
        symbolic_cpu(a, &CostModel::default()).result.filled
    }

    /// The engines' access contract the expansion must establish.
    fn assert_closed(f: &Csr) {
        let n = f.n_rows();
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for &j in f.row_cols(i) {
                cols[j as usize].push(i);
            }
        }
        for j in 0..n {
            assert!(cols[j].contains(&j), "diagonal ({j},{j}) missing");
            let deps: Vec<usize> = cols[j].iter().copied().filter(|&t| t < j).collect();
            for t in deps {
                for &r in &cols[t] {
                    if r > t {
                        assert!(cols[j].contains(&r), "dep ({t},{j}) needs target ({r},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn already_closed_pattern_is_untouched() {
        for seed in [11, 12] {
            let a = random_dominant(80, 3.0, seed);
            let f = filled_of(&a);
            let out = expand_fill(&f, 0);
            assert!(out.closed);
            assert_eq!(out.added, 0, "symbolic fill is already a closure");
            assert_eq!(out.rounds, 0);
            assert_eq!(out.filled.row_ptr, f.row_ptr);
            assert_eq!(out.filled.col_idx, f.col_idx);
            assert_eq!(out.filled.vals, f.vals);
            assert_closed(&out.filled);
        }
    }

    #[test]
    fn repairs_swap_induced_fill() {
        // Permute rows of a predicted fill by a few transpositions — the
        // situation after threshold pivoting rejects some diagonals — and
        // check the expansion restores the engines' closure invariant and
        // covers the true fill of the permuted matrix.
        let a = banded_dominant(60, 3, 21);
        let f = filled_of(&a);
        let n = f.n_rows();
        let mut fwd: Vec<Idx> = (0..n as Idx).collect();
        fwd.swap(3, 17);
        fwd.swap(30, 31);
        fwd.swap(44, 58);
        let p = Permutation::from_forward(fwd).expect("bijection");
        let fp = permute_csr(&f, &p, &Permutation::identity(n));
        let out = expand_fill(&fp, fp.nnz() * 8);
        assert!(out.closed, "small swaps close within budget");
        assert!(out.added > 0, "row swaps must introduce new positions");
        assert_closed(&out.filled);

        // Superset of the minimal fill of the permuted matrix: every true
        // fill position has a slot.
        let ap = permute_csr(&a, &p, &Permutation::identity(n));
        let oracle = fill_by_elimination(&ap);
        for (i, row) in oracle.iter().enumerate() {
            for &j in row {
                assert!(
                    out.filled.get(i, j as usize).is_some(),
                    "oracle fill ({i},{j}) missing from expansion"
                );
            }
        }

        // Original values rode along; fills are explicit zeros.
        for i in 0..n {
            for (j, v) in ap.row_iter(i) {
                if v != 0.0 {
                    assert_eq!(out.filled.get(i, j), Some(v));
                }
            }
        }
    }

    #[test]
    fn blown_budget_reports_unclosed() {
        let a = random_dominant(80, 2.0, 22);
        let f = filled_of(&a);
        let n = f.n_rows();
        // Reverse the rows — maximal deviation, massive induced fill.
        let fwd: Vec<Idx> = (0..n as Idx).rev().collect();
        let p = Permutation::from_forward(fwd).expect("bijection");
        let fp = permute_csr(&f, &p, &Permutation::identity(n));
        let out = expand_fill(&fp, 8);
        assert!(!out.closed, "budget of 8 entries cannot absorb a reversal");
        assert!(out.added > 8);
    }

    #[test]
    fn inserts_missing_diagonal() {
        let mut coo = Coo::new(3, 3);
        for (i, j, v) in [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (2, 2, 3.0)] {
            coo.push(i, j, v);
        }
        let f = coo_to_csr(&coo);
        let out = expand_fill(&f, 16);
        assert!(out.closed);
        assert_eq!(out.filled.get(1, 1), Some(0.0), "diagonal slot repaired");
        assert_closed(&out.filled);
    }

    #[test]
    fn missing_diagonal_in_a_cascading_column() {
        // Column 2 has no diagonal slot and reaches row 3 only through
        // two generations: dep 0 brings row 1, dep 1 brings rows 2 and 3.
        let mut coo = Coo::new(4, 4);
        for (i, j, v) in [
            (0, 0, 1.0),
            (1, 0, 2.0),
            (1, 1, 3.0),
            (2, 1, 4.0),
            (3, 1, 5.0),
            (0, 2, 6.0),
            (3, 3, 7.0),
        ] {
            coo.push(i, j, v);
        }
        let f = coo_to_csr(&coo);
        let out = expand_fill(&f, 16);
        assert!(out.closed);
        // (2,2) diagonal, (1,2) from dep 0, (3,2) from dep 1; row 2 was
        // stamped by the diagonal repair, so dep 1 does not count it twice.
        assert_eq!(out.added, 3);
        assert_eq!(out.rounds, 2);
        assert_eq!(out.filled.get(2, 2), Some(0.0));
        assert_eq!(out.filled.get(1, 2), Some(0.0));
        assert_eq!(out.filled.get(3, 2), Some(0.0));
        assert_eq!(out.filled.get(0, 2), Some(6.0), "input values ride along");
        assert_closed(&out.filled);
        assert_matches_fixpoint(&f);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_frontier_closure_equals_fixpoint(
            family in 0usize..4,
            n in 12usize..90,
            density in 2.0f64..6.0,
            seed in 0u64..1000,
            swap_share in 0.0f64..1.0,
        ) {
            let a = match family {
                0 => random_dominant(n, density, seed),
                1 => banded_dominant(n, 1 + density as usize / 2, seed),
                2 => mesh(&MeshParams::for_target(n, density, seed)),
                _ => circuit(&CircuitParams { n, nnz_per_row: density, seed, ..Default::default() }),
            };
            let f = filled_of(&a);
            let n = f.n_rows();
            // 0 … n/2 random row transpositions of the predicted fill.
            let mut rng = gplu_sparse::gen::rng(seed ^ 0xE4BA);
            let mut fwd: Vec<Idx> = (0..n as Idx).collect();
            for _ in 0..(swap_share * (n / 2) as f64) as usize {
                fwd.swap(rng.gen_range(0..n), rng.gen_range(0..n));
            }
            assert_matches_fixpoint(&permute_rows(&f, fwd));
        }

        /// The permutations the pipeline feeds in: threshold discovery on
        /// the adversarial families, applied to the predicted fill.
        #[test]
        fn prop_discovered_pivot_orders_equal_fixpoint(
            kind in 0usize..4,
            n in 24usize..120,
            seed in 0u64..1000,
            full in 0usize..2,
        ) {
            let a = HardKind::ALL[kind].generate(n, seed);
            let tau = if full == 1 { 1.0 } else { 0.1 };
            let d = gplu_numeric::discover_pivots(&a, tau).expect("hard families are pivotable");
            assert_matches_fixpoint(&permute_rows(&filled_of(&a), d.pinv));
        }
    }
}
