//! Test oracles for symbolic factorization.
//!
//! Two independent computations of the filled pattern, used to certify the
//! fill2 traversal and every GPU variant built on it:
//!
//! * [`fill_by_theorem1`] — literal Theorem 1 (Rose–Tarjan): for each row
//!   `i`, BFS over the graph of `A` restricted to intermediate vertices
//!   `< i`, recording every reached `j` whose path intermediates are also
//!   `< j`. O(n · nnz); fine at oracle scales.
//! * [`fill_by_elimination`] — classical row-merge symbolic Gaussian
//!   elimination: row `i`'s pattern is the closure of merging, for each
//!   `k < i` in the pattern (ascending), the already-filled row `k`
//!   restricted to columns `> k`.

use gplu_sparse::{Csr, Idx};
use std::collections::BTreeSet;

/// Filled pattern by direct Theorem-1 reachability. Returns sorted rows.
pub fn fill_by_theorem1(a: &Csr) -> Vec<Vec<Idx>> {
    let n = a.n_rows();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        // reached[v]: v is reachable from i via intermediates < min(i, ·)…
        // Track the standard invariant: BFS may only pass *through*
        // vertices smaller than i; a reached vertex j is a fill candidate,
        // and the path to it so far used intermediates < i. For j < i the
        // vertex may later be passed through only while it is also < the
        // eventual target — handled by only expanding vertices < i, and
        // only *emitting* j when every intermediate on some path is
        // < min(i, j). The textbook equivalent formulation: j is in the
        // filled row i iff there is a path i -> j through vertices smaller
        // than both endpoints; expanding in increasing-vertex order makes
        // plain BFS over "< i" vertices exact, because any path through an
        // intermediate m with j < m < i can be re-rooted at m, which is
        // itself reached and emitted, and the segment m -> j has
        // intermediates < m… which is the same closure fill2 computes.
        //
        // To stay genuinely independent of fill2's argument, this oracle
        // instead iterates the closure to a fixed point over candidate
        // intermediate sets.
        let mut row: BTreeSet<Idx> = a.row_cols(i).iter().copied().collect();
        row.insert(i as Idx);
        // Fixed-point: j joins row i if some m in row i with m < i and
        // m < j has j in (the current) filled row m. Rows are built in
        // ascending i, so filled rows < i are final.
        loop {
            let mut grew = false;
            let members: Vec<Idx> = row.iter().copied().filter(|&m| (m as usize) < i).collect();
            for m in members {
                for &j in &out[m as usize] as &Vec<Idx> {
                    if j > m && !row.contains(&j) {
                        row.insert(j);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        out.push(row.into_iter().collect());
    }
    out
}

/// Filled pattern by row-merge symbolic elimination. Returns sorted rows.
pub fn fill_by_elimination(a: &Csr) -> Vec<Vec<Idx>> {
    let n = a.n_rows();
    let mut filled: Vec<Vec<Idx>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut row: BTreeSet<Idx> = a.row_cols(i).iter().copied().collect();
        row.insert(i as Idx);
        // Merge filled rows k for ascending k < i currently in the
        // pattern. Newly inserted columns are always > k, so a single
        // ascending scan with a cursor visits every needed k.
        let mut cursor: Idx = 0;
        while let Some(&k) = row.range(cursor..(i as Idx)).next() {
            for &c in &filled[k as usize] {
                if c > k {
                    row.insert(c);
                }
            }
            cursor = k + 1;
        }
        filled.push(row.into_iter().collect());
    }
    filled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill2::Traversals;
    use gplu_sparse::convert::coo_to_csr;
    use gplu_sparse::gen::random::random_dominant;
    use gplu_sparse::Coo;
    use proptest::prelude::*;

    fn fill_by_fill2(a: &Csr) -> Vec<Vec<Idx>> {
        let traversals = Traversals::new(a);
        traversals.traverse_all();
        let filled = traversals.into_result().filled;
        (0..a.n_rows())
            .map(|i| filled.row_cols(i).to_vec())
            .collect()
    }

    #[test]
    fn oracles_agree_on_crafted_case() {
        let mut c = Coo::new(4, 4);
        for i in 0..4 {
            c.push(i, i, 1.0);
        }
        c.push(0, 3, 1.0);
        c.push(2, 0, 1.0);
        c.push(3, 0, 1.0);
        let a = coo_to_csr(&c);
        let t1 = fill_by_theorem1(&a);
        let ge = fill_by_elimination(&a);
        assert_eq!(t1, ge);
        assert_eq!(t1[2], vec![0, 2, 3]);
    }

    #[test]
    fn oracles_and_fill2_agree_on_random_matrices() {
        for seed in 0..8 {
            let a = random_dominant(30, 4.0, seed);
            let t1 = fill_by_theorem1(&a);
            let ge = fill_by_elimination(&a);
            let f2 = fill_by_fill2(&a);
            assert_eq!(t1, ge, "theorem1 vs elimination, seed {seed}");
            assert_eq!(ge, f2, "elimination vs fill2, seed {seed}");
        }
    }

    #[test]
    fn diagonal_matrix_has_no_fill() {
        let a = Csr::identity(5);
        for rows in [
            fill_by_theorem1(&a),
            fill_by_elimination(&a),
            fill_by_fill2(&a),
        ] {
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row, &vec![i as Idx]);
            }
        }
    }

    #[test]
    fn fill_pattern_contains_originals() {
        let a = random_dominant(25, 5.0, 99);
        let ge = fill_by_elimination(&a);
        for (i, row) in ge.iter().enumerate() {
            for &c in a.row_cols(i) {
                assert!(row.binary_search(&c).is_ok(), "original ({i},{c}) lost");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The three independent computations of the filled pattern agree
        /// on arbitrary small matrices with full diagonals.
        #[test]
        fn prop_three_way_pattern_agreement(
            n in 2usize..18,
            density in 1.5f64..5.0,
            seed in 0u64..1000,
        ) {
            let a = random_dominant(n, density, seed);
            let t1 = fill_by_theorem1(&a);
            let ge = fill_by_elimination(&a);
            let f2 = fill_by_fill2(&a);
            prop_assert_eq!(&t1, &ge);
            prop_assert_eq!(&ge, &f2);
        }

        /// Fill is monotone: the filled pattern always contains A.
        #[test]
        fn prop_fill_contains_original(
            n in 2usize..18,
            density in 1.5f64..5.0,
            seed in 0u64..1000,
        ) {
            let a = random_dominant(n, density, seed);
            let ge = fill_by_elimination(&a);
            for (i, row) in ge.iter().enumerate() {
                for &c in a.row_cols(i) {
                    prop_assert!(row.binary_search(&c).is_ok());
                }
            }
        }
    }
}
