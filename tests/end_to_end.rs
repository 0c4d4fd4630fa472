//! Cross-crate integration: the full pipeline against every substrate,
//! with property-based checks on solve correctness.

mod common;

use common::{assert_device_empty, assert_factors_bits_eq, gpu_for};
use gplu::prelude::*;
use gplu::sparse::gen::random::{banded_dominant, random_dominant};
use gplu::sparse::verify::{check_solution, residual_probe};
use proptest::prelude::*;

#[test]
fn pipeline_factors_and_solves_random_system() {
    let a = random_dominant(400, 4.0, 2024);
    let f = LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("pipeline");
    assert!(residual_probe(&f.preprocessed, &f.lu, 4) < 1e-9);

    let x_true: Vec<f64> = (0..400).map(|i| (i as f64).sin()).collect();
    let b = a.spmv(&x_true);
    let x = f.solve(&b).expect("solve");
    assert!(check_solution(&a, &x, &b, 1e-8));
}

#[test]
fn pipeline_handles_banded_system() {
    let a = banded_dominant(600, 5, 7);
    let f = LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("pipeline");
    let b = a.spmv(&vec![1.0; 600]);
    let x = f.solve(&b).expect("solve");
    assert!(check_solution(&a, &x, &b, 1e-8));
}

#[test]
fn repeated_solves_reuse_factors() {
    let a = random_dominant(200, 4.0, 88);
    let f = LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("pipeline");
    for seed in 0..5u64 {
        let x_true: Vec<f64> = (0..200)
            .map(|i| ((i as u64 ^ seed) % 11) as f64 - 5.0)
            .collect();
        let b = a.spmv(&x_true);
        let x = f.solve(&b).expect("solve");
        assert!(check_solution(&a, &x, &b, 1e-8), "rhs seed {seed}");
    }
}

#[test]
fn suite_analog_smoke_every_family() {
    // One matrix per generator family through the full pipeline.
    use gplu::sparse::gen::suite::{large_suite, paper_suite};
    let picks = [
        paper_suite()
            .into_iter()
            .find(|e| e.abbr == "OT2")
            .expect("circuit family"),
        paper_suite()
            .into_iter()
            .find(|e| e.abbr == "WI")
            .expect("mesh family"),
        large_suite().into_iter().next().expect("planar family"),
    ];
    for entry in picks {
        let a = entry.generate(8192);
        let f =
            LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("pipeline");
        assert!(
            residual_probe(&f.preprocessed, &f.lu, 3) < 1e-8,
            "{}: residual too large",
            entry.abbr
        );
    }
}

#[test]
fn device_memory_is_clean_after_pipeline() {
    let a = random_dominant(300, 4.0, 5);
    let gpu = gpu_for(&a);
    let _ = LuFactorization::compute(&gpu, &a, &LuOptions::default()).expect("pipeline");
    assert_device_empty(&gpu, "after the pipeline");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any diagonally dominant matrix, the pipeline's factors solve
    /// A x = b to high accuracy.
    #[test]
    fn prop_pipeline_solves(
        n in 20usize..120,
        density in 2.0f64..6.0,
        seed in 0u64..500,
    ) {
        let a = random_dominant(n, density, seed);
        let f = LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default())
            .expect("pipeline");
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = a.spmv(&x_true);
        let x = f.solve(&b).expect("solve");
        prop_assert!(check_solution(&a, &x, &b, 1e-7));
    }

    /// Both numeric formats produce bit-identical factors on any input.
    #[test]
    fn prop_formats_agree(
        n in 20usize..100,
        seed in 0u64..500,
    ) {
        let a = random_dominant(n, 3.5, seed);
        let run = |format| {
            let opts = LuOptions { format, ..Default::default() };
            LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("pipeline")
        };
        let dense = run(NumericFormat::Dense);
        let sparse = run(NumericFormat::Sparse);
        assert_factors_bits_eq(&sparse, &dense, &format!("n={n} seed={seed}: sparse vs dense"));
    }
}
