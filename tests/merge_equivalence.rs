//! Property-based equivalence of every numeric engine: across random,
//! banded, mesh and circuit generators, the merge-join, binary-search and
//! supernode-blocked engines must all produce factors **bit-identical**
//! to the sequential reference (every engine applies the same updates in
//! the same order — the disciplines differ only in how positions are
//! located and how the traffic is priced).

mod common;

use common::{assert_bits_eq, assert_factors_bits_eq, gpu_for};
use gplu::numeric::{
    factorize_gpu_blocked, factorize_gpu_blocked_run_cached, factorize_gpu_merge,
    factorize_gpu_sparse, factorize_seq, BlockPlan, PivotCache, PivotRule, DEFAULT_BLOCK_THRESHOLD,
};
use gplu::prelude::*;
use gplu::schedule::{levelize_cpu, DepGraph};
use gplu::sparse::convert::csr_to_csc;
use gplu::sparse::gen::{circuit, mesh, random};
use gplu::sparse::Csr;
use gplu::symbolic::symbolic_cpu;
use gplu_trace::NOOP;
use proptest::prelude::*;

/// Runs symbolic + levelization, then every GPU engine and the sequential
/// reference, asserting bitwise agreement of all factors.
fn assert_engines_equivalent(a: &Csr, label: &str) -> Result<(), TestCaseError> {
    let sym = symbolic_cpu(a, &CostModel::default());
    let pattern = csr_to_csc(&sym.result.filled);
    let levels = levelize_cpu(&DepGraph::build(&sym.result.filled), &CostModel::default()).levels;

    let mut seq = pattern.clone();
    factorize_seq(&mut seq).expect("sequential reference factorizes");

    let merge = factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels)
        .expect("merge engine ok");
    let bsearch = factorize_gpu_sparse(&Gpu::new(GpuConfig::v100()), &pattern, &levels)
        .expect("binary-search engine ok");
    let blocked = factorize_gpu_blocked(
        &Gpu::new(GpuConfig::v100()),
        &pattern,
        &levels,
        DEFAULT_BLOCK_THRESHOLD,
    )
    .expect("blocked engine ok");

    assert_bits_eq(&merge.lu.vals, &seq.vals, &format!("{label}: merge vs seq"));
    assert_bits_eq(
        &bsearch.lu.vals,
        &seq.vals,
        &format!("{label}: bsearch vs seq"),
    );
    assert_bits_eq(
        &blocked.lu.vals,
        &seq.vals,
        &format!("{label}: blocked vs seq"),
    );
    prop_assert_eq!(merge.probes, 0, "{}: merge must not probe", label);
    prop_assert_eq!(blocked.probes, 0, "{}: blocked must not probe", label);
    prop_assert_eq!(
        blocked.merge_steps,
        merge.merge_steps,
        "{}: blocked walks the same merge cursor",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engines_match_seq_on_random(
        n in 20usize..120,
        density in 2.0f64..6.0,
        seed in 0u64..500,
    ) {
        let a = random::random_dominant(n, density, seed);
        assert_engines_equivalent(&a, "random")?;
    }

    #[test]
    fn engines_match_seq_on_banded(
        n in 20usize..150,
        band in 2usize..8,
        seed in 0u64..500,
    ) {
        let a = random::banded_dominant(n, band, seed);
        assert_engines_equivalent(&a, "banded")?;
    }

    #[test]
    fn engines_match_seq_on_mesh(
        n in 25usize..120,
        density in 3.0f64..6.0,
        seed in 0u64..500,
    ) {
        let a = mesh::mesh(&mesh::MeshParams::for_target(n, density, seed));
        assert_engines_equivalent(&a, "mesh")?;
    }

    #[test]
    fn engines_match_seq_on_circuit(
        n in 30usize..150,
        nnz_per_row in 3.0f64..7.0,
        seed in 0u64..500,
    ) {
        let a = circuit::circuit(&circuit::CircuitParams {
            n,
            nnz_per_row,
            seed,
            ..Default::default()
        });
        assert_engines_equivalent(&a, "circuit")?;
    }
}

/// The pipeline run with `format` on its own fault-free device.
fn pipeline(a: &Csr, format: NumericFormat) -> LuFactorization {
    let opts = LuOptions {
        format,
        ..Default::default()
    };
    LuFactorization::compute(&gpu_for(a), a, &opts)
        .unwrap_or_else(|e| panic!("{format:?} pipeline: {e}"))
}

#[test]
fn merge_through_the_pipeline_is_bit_identical_too() {
    // End-to-end: the SparseMerge pipeline format against Sparse.
    let a = random::random_dominant(300, 4.0, 321);
    let merge = pipeline(&a, NumericFormat::SparseMerge);
    let bsearch = pipeline(&a, NumericFormat::Sparse);
    assert_factors_bits_eq(&merge, &bsearch, "merge vs binary search");
    assert!(merge.report.merge_steps > 0);
    assert!(bsearch.report.probes > 0);
}

#[test]
fn blocked_through_the_pipeline_is_bit_identical_too() {
    // End-to-end: the forced SparseBlocked pipeline format against
    // SparseMerge — bit-identical values, BLAS-3 tiles actually counted.
    let a = random::banded_dominant(300, 8, 77);
    let blocked = pipeline(&a, NumericFormat::SparseBlocked);
    let merge = pipeline(&a, NumericFormat::SparseMerge);
    assert_factors_bits_eq(&blocked, &merge, "blocked vs merge");
    assert!(
        blocked.report.gemm_tiles > 0,
        "band-8 fill must form blocks"
    );
    assert_eq!(merge.report.gemm_tiles, 0);
}

#[test]
fn zero_blocks_degenerates_to_merge_exactly() {
    // A plan with no supernodes must reproduce the merge engine exactly:
    // same values, same cursor walk, same simulated time, no tiles.
    let a = random::random_dominant(150, 3.0, 9);
    let sym = symbolic_cpu(&a, &CostModel::default());
    let pattern = csr_to_csc(&sym.result.filled);
    let levels = levelize_cpu(&DepGraph::build(&sym.result.filled), &CostModel::default()).levels;

    let cache = PivotCache::build(&pattern);
    // An unreachable threshold (Jaccard never exceeds 1) forces the
    // degenerate all-singleton plan.
    let plan = BlockPlan::detect(&pattern, &cache, 1.1);
    assert_eq!(plan.n_blocks(), 0);

    let blocked = factorize_gpu_blocked_run_cached(
        &Gpu::new(GpuConfig::v100()),
        &pattern,
        &levels,
        &plan,
        &NOOP,
        None,
        None,
        None,
        PivotRule::Exact,
    )
    .expect("blocked engine ok");
    let merge = factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels)
        .expect("merge engine ok");

    assert_bits_eq(&blocked.lu.vals, &merge.lu.vals, "zero-block plan vs merge");
    assert_eq!(blocked.merge_steps, merge.merge_steps);
    assert_eq!(blocked.gemm_tiles, 0);
    assert_eq!(blocked.time, merge.time);
}
