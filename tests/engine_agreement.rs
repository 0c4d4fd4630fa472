//! Every implementation of every phase must agree exactly: the paper's
//! engineering claim is that the GPU versions compute *the same
//! factorization* as the CPU baselines, just faster. These tests pin that
//! across the whole matrix (pun intended) of engines.

mod common;

use common::{assert_bits_eq, assert_factors_bits_eq, gpu_for, ENGINES};
use gplu::baseline::{factorize_glu30, factorize_um_pipeline};
use gplu::prelude::*;
use gplu::sparse::gen::random::random_dominant;
use gplu::sparse::gen::suite::paper_suite;

#[test]
fn all_four_symbolic_engines_agree_bitwise() {
    let a = random_dominant(350, 4.0, 314);
    let run = |symbolic| {
        let opts = LuOptions {
            symbolic,
            ..Default::default()
        };
        LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("pipeline")
    };
    let reference = run(ENGINES[0]);
    for engine in &ENGINES[1..] {
        let ctx = format!("{engine:?} vs {:?}", ENGINES[0]);
        assert_factors_bits_eq(&run(*engine), &reference, &ctx);
    }
}

#[test]
fn baselines_agree_with_pipeline() {
    let a = random_dominant(300, 4.0, 315);
    let ours = LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("pipeline");
    let glu = factorize_glu30(&gpu_for(&a), &a, &gplu::core::PreprocessOptions::default())
        .expect("glu30");
    let um = factorize_um_pipeline(&gpu_for(&a), &a, true, &LuOptions::default()).expect("um");
    assert_bits_eq(&glu.lu.vals, &ours.lu.vals, "GLU 3.0 baseline");
    assert_bits_eq(&um.lu.vals, &ours.lu.vals, "UM pipeline");
}

#[test]
fn engines_agree_on_paper_analogs() {
    // A cheap sweep over a few Table 2 analogs at a deep scale.
    for abbr in ["G7", "OT2", "MI"] {
        let entry = paper_suite()
            .into_iter()
            .find(|e| e.abbr == abbr)
            .expect("known");
        let a = entry.generate(8192);
        let ours =
            LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("pipeline");
        let glu = factorize_glu30(&gpu_for(&a), &a, &gplu::core::PreprocessOptions::default())
            .expect("glu30");
        assert_bits_eq(&glu.lu.vals, &ours.lu.vals, &format!("{abbr}: baseline"));
    }
}

#[test]
fn determinism_across_runs() {
    // Twenty repeats in one process: the pool hands blocks to threads in a
    // different order every time, and neither the factors, the solution
    // nor either simulated time may notice.
    let a = random_dominant(400, 4.0, 316);
    let b: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i % 7) as f64).collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let run = || {
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute(&gpu, &a, &LuOptions::default()).expect("compute");
        let plan = f.solve_plan();
        let (x, solve_time) = f.solve_on_gpu(&gpu, &plan, &b).expect("solve_on_gpu");
        // The same right-hand side inside a batch is the same solve.
        let twice: Vec<f64> = b.iter().map(|v| 2.0 * v).collect();
        let (xs, _) = f
            .solve_many_on_gpu(&gpu, &plan, &[b.clone(), twice, vec![1.0; a.n_rows()]])
            .expect("solve_many_on_gpu");
        assert_bits_eq(&xs[0], &x, "batched rhs 0 vs single solve");
        (
            bits(&f.lu.vals),
            bits(&x),
            xs.iter().map(|x| bits(x)).collect::<Vec<_>>(),
            f.report.fill_nnz,
            f.report.n_levels,
            // Simulated times are part of the contract too, to the bit.
            f.report.total().as_ns().to_bits(),
            solve_time.as_ns().to_bits(),
        )
    };
    let first = run();
    for repeat in 1..20 {
        assert_eq!(run(), first, "repeat {repeat} differs from the first run");
    }
}
