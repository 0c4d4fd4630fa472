//! Wall-clock benches of the per-column kernel core itself: the three
//! access disciplines of `process_column` over one filled pattern, plus
//! the cost of building the `PivotCache` they share. All three run the
//! same dense-accumulator arithmetic, so this isolates what pricing a
//! location counter costs (the probe-depth descent and sum, the
//! merge-step `partition_point`s, or nothing) from the engine/simulator
//! machinery the `numeric` bench includes.
//!
//! The `core` rows run the core alone (dense discipline, column order)
//! over a mesh and a circuit filled pattern shaped like the fleet
//! workload's, and also print the host time per multiply–add; it is
//! printed for dense blocks of 300 and 700 columns too, where every
//! column is one long supernode run.
//!
//! ```sh
//! cargo bench -p gplu-bench --bench numeric_kernel
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gplu_bench::Prepared;
use gplu_numeric::values::ColumnStore;
use gplu_numeric::{AccessDiscipline, ColumnScratch, PivotCache};
use gplu_sim::CostModel;
use gplu_sparse::convert::{coo_to_csr, csr_to_csc};
use gplu_sparse::gen::suite::large_suite;
use gplu_sparse::gen::{circuit, mesh};
use gplu_sparse::{Coo, Csc, Csr};
use gplu_symbolic::symbolic_cpu;
use std::time::Instant;

/// The preprocessed (ordered, diagonal-complete) matrix's filled pattern.
fn filled(a: &Csr) -> Csc {
    let pre = gplu_core::preprocess(
        a,
        &gplu_core::PreprocessOptions::default(),
        &CostModel::default(),
    )
    .expect("generator matrices preprocess cleanly");
    csr_to_csc(
        &symbolic_cpu(&pre.matrix, &CostModel::default())
            .result
            .filled,
    )
}

/// One pass of the core over every column in order; returns the
/// multiply–adds it applied (its `items` less the divisions).
fn core_pass(pattern: &Csc, cache: &PivotCache, discipline: AccessDiscipline) -> u64 {
    let mut vals = pattern.vals.clone();
    let mut store = ColumnStore::new(&mut vals, &pattern.col_ptr);
    let mut scratch = ColumnScratch::default();
    let mut madds = 0;
    for j in 0..pattern.n_cols() {
        let costs = gplu_numeric::outcome::process_column(
            pattern,
            &store,
            j,
            discipline,
            cache,
            &mut scratch,
        )
        .expect("column ok");
        store.seal([j]);
        madds += costs.items - (pattern.col_ptr[j + 1] - cache.lower_start(j)) as u64;
    }
    madds
}

fn bench_numeric_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("numeric_kernel");
    group.sample_size(20);
    let entry = large_suite().into_iter().next().expect("suite non-empty"); // hugetrace
    let prep = Prepared::new(entry, 4096);
    let (pre, _fill) = gplu_bench::fill_size_of(&prep);
    let sym = symbolic_cpu(&pre, &CostModel::default());
    let pattern = csr_to_csc(&sym.result.filled);
    let cache = PivotCache::build(&pattern);

    group.bench_with_input(
        BenchmarkId::new("pivot_cache_build", "HT20"),
        &pattern,
        |b, p| b.iter(|| PivotCache::build(black_box(p))),
    );
    for (name, discipline) in [
        ("binary_search", AccessDiscipline::BinarySearch),
        ("merge", AccessDiscipline::Merge),
        ("dense", AccessDiscipline::Dense),
    ] {
        group.bench_with_input(BenchmarkId::new(name, "HT20"), &pattern, |b, p| {
            b.iter(|| core_pass(p, &cache, discipline))
        });
    }

    let shapes = [
        (
            "mesh",
            mesh::mesh(&mesh::MeshParams::for_target(1900, 37.0, 7)),
        ),
        (
            "circuit",
            circuit::circuit(&circuit::CircuitParams {
                n: 2400,
                nnz_per_row: 9.0,
                seed: 7,
                ..Default::default()
            }),
        ),
    ];
    for (name, a) in shapes {
        let pattern = filled(&a);
        let cache = PivotCache::build(&pattern);
        group.bench_with_input(BenchmarkId::new("core", name), &pattern, |b, p| {
            b.iter(|| core_pass(p, &cache, AccessDiscipline::Dense))
        });
        print_ns_per_madd(name, &pattern, &cache);
    }
    // Dense blocks: one supernode chain, so every column is one run as
    // wide as the columns before it (printed only; a pass is long).
    for s in [300, 700] {
        let pattern = filled(&dense_block(s));
        print_ns_per_madd(&format!("dense{s}"), &pattern, &PivotCache::build(&pattern));
    }
    group.finish();
}

/// Prints the fastest of a few core passes, per multiply–add.
fn print_ns_per_madd(name: &str, pattern: &Csc, cache: &PivotCache) {
    let mut best = f64::INFINITY;
    let mut madds = 0;
    for _ in 0..5 {
        let t0 = Instant::now();
        madds = black_box(core_pass(pattern, cache, AccessDiscipline::Dense));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    println!(
        "  numeric_kernel/core/{name}: {:.2} ns per multiply–add ({madds} per pass, n {}, fill {})",
        best * 1e9 / madds as f64,
        pattern.n_cols(),
        pattern.nnz()
    );
}

/// A dense, diagonally dominant `s × s` matrix.
fn dense_block(s: usize) -> Csr {
    let mut coo = Coo::new(s, s);
    for j in 0..s {
        for i in 0..s {
            let v = if i == j {
                s as f64
            } else {
                1.0 / (1 + i + 2 * j) as f64
            };
            coo.push(i, j, v);
        }
    }
    coo_to_csr(&coo)
}

criterion_group!(benches, bench_numeric_kernel);
criterion_main!(benches);
