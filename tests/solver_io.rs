//! Solver + I/O integration: Matrix Market round trips feeding the
//! pipeline, permutation bookkeeping, and the Table 4 diagonal-repair
//! path.

mod common;

use common::gpu_for;
use gplu::prelude::*;
use gplu::sparse::convert::coo_to_csr;
use gplu::sparse::gen::planar::{planar, PlanarParams};
use gplu::sparse::gen::random::random_dominant;
use gplu::sparse::io::{read_matrix_market, write_matrix_market};
use gplu::sparse::verify::check_solution;
use gplu::sparse::Coo;

#[test]
fn matrix_market_round_trip_then_factorize() {
    let a = random_dominant(150, 4.0, 9);
    // Serialize to Matrix Market, read back, factorize the copy.
    let mut coo = Coo::new(150, 150);
    for i in 0..150 {
        for (j, v) in a.row_iter(i) {
            coo.push(i, j, v);
        }
    }
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &coo).expect("write");
    let read = coo_to_csr(&read_matrix_market(&buf[..]).expect("read"));
    assert_eq!(a, read, "round trip must be lossless");

    let f =
        LuFactorization::compute(&gpu_for(&read), &read, &LuOptions::default()).expect("pipeline");
    let b = read.spmv(&vec![2.0; 150]);
    let x = f.solve(&b).expect("solve");
    assert!(check_solution(&read, &x, &b, 1e-8));
}

#[test]
fn rank_deficient_planar_is_repaired_and_factored() {
    // The Table 4 path: missing diagonals repaired with 1000.
    let a = planar(&PlanarParams {
        side: 24,
        tri_prob: 0.4,
        missing_diag_fraction: 0.4,
        seed: 12,
    });
    assert!(!a.has_full_diagonal(), "fixture must be deficient");
    let f = LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("pipeline");
    assert!(f.report.repaired_diagonals > 0);
    // The factors solve the *repaired* system exactly.
    let b = f.preprocessed.spmv(&vec![1.0; a.n_rows()]);
    let y = gplu::sparse::triangular::solve_lu(&f.lu, &b).expect("solve repaired");
    let residual: f64 = f
        .preprocessed
        .spmv(&y)
        .iter()
        .zip(&b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max);
    assert!(
        residual < 1e-8 * 1000.0,
        "repaired-system residual {residual}"
    );
}

#[test]
fn static_pivot_handles_permuted_diagonal() {
    // An anti-diagonal-dominant system: without static pivoting the
    // diagonal is structurally empty.
    let n = 60;
    let mut coo = Coo::new(n, n);
    let mut rng = 1u64;
    for i in 0..n {
        coo.push(i, n - 1 - i, 10.0);
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (rng >> 33) as usize % n;
        if j != n - 1 - i {
            coo.push(i, j, 0.5);
        }
    }
    let a = coo_to_csr(&coo);
    let opts = LuOptions {
        preprocess: gplu::core::PreprocessOptions {
            static_pivot: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let f = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("pipeline");
    assert_eq!(
        f.report.repaired_diagonals, 0,
        "matching should avoid value repair"
    );
    let x_true = vec![1.0; n];
    let b = a.spmv(&x_true);
    let x = f.solve(&b).expect("solve");
    assert!(check_solution(&a, &x, &b, 1e-8));
}

#[test]
fn permutations_are_invertible_bookkeeping() {
    let a = random_dominant(80, 4.0, 33);
    let f = LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("pipeline");
    // p_row . p_row^{-1} = id, and the preprocessed matrix really is the
    // permutation of A.
    let inv = f.p_row.inverse();
    for i in 0..80 {
        assert_eq!(inv.apply(f.p_row.apply(i)), i);
    }
    for i in 0..80 {
        for (j, v) in a.row_iter(i) {
            assert_eq!(
                f.preprocessed.get(f.p_row.apply(i), f.p_col.apply(j)),
                Some(v),
                "entry ({i},{j}) lost in permutation"
            );
        }
    }
}
