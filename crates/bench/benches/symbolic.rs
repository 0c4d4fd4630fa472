//! Wall-clock benches of the symbolic-factorization engines (companion to
//! Figures 4/6: the simulated-time comparisons are the `fig*`
//! experiments of `figures`; these measure the real Rust implementations).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gplu_bench::Prepared;
use gplu_sim::CostModel;
use gplu_sparse::gen::suite::paper_suite;
use gplu_symbolic::{symbolic_cpu, symbolic_ooc, symbolic_ooc_dynamic, symbolic_um, UmMode};

fn bench_symbolic(c: &mut Criterion) {
    let mut group = c.benchmark_group("symbolic");
    group.sample_size(10);
    for abbr in ["OT2", "WI"] {
        let entry = paper_suite()
            .into_iter()
            .find(|e| e.abbr == abbr)
            .expect("known abbr");
        let prep = Prepared::new(entry, 256);
        let (pre, fill) = gplu_bench::fill_size_of(&prep);

        group.bench_with_input(BenchmarkId::new("cpu", abbr), &pre, |b, a| {
            b.iter(|| symbolic_cpu(a, &CostModel::default()))
        });
        group.bench_with_input(BenchmarkId::new("ooc", abbr), &pre, |b, a| {
            b.iter(|| symbolic_ooc(&prep.gpu_symbolic(fill), a).expect("ok"))
        });
        group.bench_with_input(BenchmarkId::new("ooc_dynamic", abbr), &pre, |b, a| {
            b.iter(|| symbolic_ooc_dynamic(&prep.gpu_symbolic(fill), a).expect("ok"))
        });
        group.bench_with_input(BenchmarkId::new("um_prefetch", abbr), &pre, |b, a| {
            b.iter(|| symbolic_um(&prep.gpu_symbolic(fill), a, UmMode::Prefetch).expect("ok"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_symbolic);
criterion_main!(benches);
