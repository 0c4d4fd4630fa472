//! Wall-clock benches of the per-column kernel core itself: the three
//! access disciplines of `process_column` over one filled pattern, plus
//! the cost of building the `PivotCache` they share. All three run the
//! same dense-accumulator arithmetic, so this isolates what pricing a
//! location counter costs (the probe-depth descent and sum, the
//! merge-step `partition_point`s, or nothing) from the engine/simulator
//! machinery the `numeric` bench includes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gplu_bench::Prepared;
use gplu_numeric::values::ValueStore;
use gplu_numeric::{AccessDiscipline, ColumnScratch, PivotCache};
use gplu_sim::CostModel;
use gplu_sparse::convert::csr_to_csc;
use gplu_sparse::gen::suite::large_suite;
use gplu_symbolic::symbolic_cpu;

fn bench_numeric_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("numeric_kernel");
    group.sample_size(20);
    let entry = large_suite().into_iter().next().expect("suite non-empty"); // hugetrace
    let prep = Prepared::new(entry, 4096);
    let (pre, _fill) = gplu_bench::fill_size_of(&prep);
    let sym = symbolic_cpu(&pre, &CostModel::default());
    let pattern = csr_to_csc(&sym.result.filled);
    let n = pattern.n_cols();
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
            b.iter(|| {
                let vals = ValueStore::new(&p.vals);
                let mut scratch = ColumnScratch::default();
                for j in 0..n {
                    gplu_numeric::outcome::process_column(
                        p,
                        &vals,
                        j,
                        discipline,
                        &cache,
                        &mut scratch,
                    )
                    .expect("column ok");
                }
                vals
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_numeric_kernel);
criterion_main!(benches);
