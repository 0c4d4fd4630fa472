//! Head-to-head of the two streaming CSC numeric kernels: merge-join
//! access vs the supernode-blocked BLAS-3 engine, across the four
//! structural classes the blocking pass cares about (circuit, mesh,
//! banded, delaunay-class planar fill). Measures **both** clocks:
//!
//! * *wall-clock* of the engine call — the host performs every cursor
//!   advance either way, so this is a real measurement of the shared
//!   arithmetic plus the blocking bookkeeping,
//! * *simulated* device time — the cost model's verdict, where blocked
//!   columns run their flops at the pipelined GEMM rate and fetch source
//!   tiles once per block instead of once per column.
//!
//! Both engines are measured on the **captured-schedule replay** path
//! (a prebuilt pivot cache) — the configuration the end-to-end loop
//! actually runs on every factorization after the first. As on every run
//! without a checkpoint hook, the levels run as one kernel — one 5 µs host
//! launch, then an in-kernel dependency wait per level — so the comparison
//! measures the access discipline.
//!
//! Also reports the blocking plan's shape (block count, blocked-column
//! share, mean width), the BLAS-3 vs streaming byte split of the blocked
//! run, and which engine the `Auto` crossover would pick. Both engines
//! must agree bitwise on every matrix, or the run aborts.
//!
//! Writes `BENCH_blocked_numeric.json` and prints a table.
//!
//! Usage: `blocked_numeric [--reps N]` (default 5 repetitions per engine)

use gplu_bench::{geomean, Table};
use gplu_numeric::outcome::column_cost_estimate_cached;
use gplu_numeric::{
    factorize_gpu_blocked_run_cached, factorize_gpu_merge_run_cached, BlockPlan, NumericOutcome,
    PivotCache, PivotRule, DEFAULT_BLOCK_THRESHOLD,
};
use gplu_schedule::{levelize_cpu, DepGraph, Levels};
use gplu_sim::{CostModel, Gpu, GpuConfig};
use gplu_sparse::gen::{circuit, mesh, planar, random};
use gplu_sparse::{Csc, Csr};
use gplu_symbolic::symbolic_cpu;
use gplu_trace::NOOP;
use std::fmt::Write as _;
use std::time::Instant;

/// One engine's measurements on one matrix.
struct Measured {
    wall_ms_median: f64,
    wall_ms_min: f64,
    sim_ns: f64,
    outcome: NumericOutcome,
}

fn measure(reps: usize, run: impl Fn(&Gpu) -> NumericOutcome) -> Measured {
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let gpu = Gpu::new(GpuConfig::v100());
            let start = Instant::now();
            let _ = run(&gpu);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let outcome = run(&Gpu::new(GpuConfig::v100()));
    Measured {
        wall_ms_median: walls[walls.len() / 2],
        wall_ms_min: walls[0],
        sim_ns: outcome.time.as_ns(),
        outcome,
    }
}

fn reps_from_args() -> usize {
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--reps" {
            return it.next().and_then(|v| v.parse().ok()).unwrap_or(5);
        }
    }
    5
}

/// Preprocess + symbolic + levelize: the shared front half of the
/// pipeline, identical for both engines.
fn prepare(a: &Csr) -> (Csc, Levels) {
    let pre = gplu_core::preprocess(
        a,
        &gplu_core::PreprocessOptions::default(),
        &CostModel::default(),
    )
    .expect("suite analogs preprocess cleanly");
    let sym = symbolic_cpu(&pre.matrix, &CostModel::default());
    let pattern = gplu_sparse::convert::csr_to_csc(&sym.result.filled);
    let levels = levelize_cpu(&DepGraph::build(&sym.result.filled), &CostModel::default()).levels;
    (pattern, levels)
}

/// The blocked run's memory traffic, split into BLAS-3 tile fetches
/// (supernode-member columns, amortized by block width) and plain
/// streaming bytes (singletons) — computed from the same per-column item
/// estimate the engines themselves price with.
fn byte_split(pattern: &Csc, cache: &PivotCache, plan: &BlockPlan, cost: &CostModel) -> (u64, u64) {
    let (mut blas3, mut streaming) = (0u64, 0u64);
    for j in 0..pattern.n_cols() {
        let items = column_cost_estimate_cached(pattern, cache, j).1;
        let width = plan.width_of(j) as u64;
        if width >= 2 {
            blas3 += cost.tiled_mem_bytes(items, width);
        } else {
            streaming += items * 8;
        }
    }
    (blas3, streaming)
}

fn main() {
    let reps = reps_from_args();
    println!("blocked numeric head-to-head: merge-join vs supernode-blocked CSC ({reps} reps)\n");

    // The three sparse-fill classes at n=2000; the dense-fill delaunay
    // class at n=8000, where the filled update streams (not launches)
    // dominate the replayed numeric phase.
    let suite: Vec<(&str, &str, Csr)> = vec![
        (
            "circuit",
            "circuit",
            circuit::circuit(&circuit::CircuitParams {
                n: 2000,
                nnz_per_row: 6.0,
                seed: 11,
                ..Default::default()
            }),
        ),
        (
            "mesh",
            "mesh",
            mesh::mesh(&mesh::MeshParams::for_target(2000, 5.0, 12)),
        ),
        ("banded", "banded", random::banded_dominant(2000, 8, 13)),
        (
            "delaunay",
            "planar",
            planar::planar(&planar::PlanarParams::for_target(8000, 6.0, 14)),
        ),
    ];

    let mut t = Table::new([
        "matrix",
        "n",
        "fill nnz",
        "blocks",
        "blk cols",
        "mean w",
        "auto",
        "mg wall",
        "bk wall",
        "mg sim",
        "bk sim",
        "sim spdup",
    ]);
    let mut rows = String::new();
    let mut sim_speedups = Vec::new();
    let cost = CostModel::default();

    for (name, class, a) in &suite {
        let (pattern, levels) = prepare(a);
        let cache = PivotCache::build(&pattern);
        let plan = BlockPlan::detect(&pattern, &cache, DEFAULT_BLOCK_THRESHOLD);
        let fill = pattern.nnz();
        let fill_density = fill as f64 / pattern.n_cols().max(1) as f64;
        let auto_blocked = cost.blocked_crossover(fill_density, plan.mean_width());
        let (blas3_bytes, streaming_bytes) = byte_split(&pattern, &cache, &plan, &cost);

        let mg = measure(reps, |gpu| {
            factorize_gpu_merge_run_cached(
                gpu,
                &pattern,
                &levels,
                &NOOP,
                None,
                None,
                Some(&cache),
                PivotRule::Exact,
            )
            .expect("merge ok")
        });
        let bk = measure(reps, |gpu| {
            factorize_gpu_blocked_run_cached(
                gpu,
                &pattern,
                &levels,
                &plan,
                &NOOP,
                None,
                None,
                Some(&cache),
                PivotRule::Exact,
            )
            .expect("blocked ok")
        });
        assert_eq!(
            mg.outcome.lu.vals, bk.outcome.lu.vals,
            "{name}: engines disagree"
        );
        assert_eq!(bk.outcome.probes, 0);

        let sim_speedup = mg.sim_ns / bk.sim_ns;
        sim_speedups.push(sim_speedup);

        t.row([
            name.to_string(),
            pattern.n_cols().to_string(),
            fill.to_string(),
            plan.n_blocks().to_string(),
            plan.blocked_cols().to_string(),
            format!("{:.2}", plan.mean_width()),
            if auto_blocked { "blocked" } else { "merge" }.to_string(),
            format!("{:.2} ms", mg.wall_ms_median),
            format!("{:.2} ms", bk.wall_ms_median),
            format!("{:.2} ms", mg.sim_ns / 1e6),
            format!("{:.2} ms", bk.sim_ns / 1e6),
            format!("{sim_speedup:.2}x"),
        ]);

        if !rows.is_empty() {
            rows.push(',');
        }
        write!(
            rows,
            "\n    {{\"name\": \"{name}\", \"class\": \"{class}\", \"n\": {}, \"fill_nnz\": {fill}, \
             \"fill_density\": {fill_density:.4}, \
             \"plan\": {{\"blocks\": {}, \"blocked_cols\": {}, \"mean_width\": {:.4}, \
             \"blas3_bytes\": {blas3_bytes}, \"streaming_bytes\": {streaming_bytes}}}, \
             \"auto_picks\": \"{}\", \
             \"merge\": {{\"wall_ms_median\": {:.4}, \"wall_ms_min\": {:.4}, \
             \"sim_time_ns\": {:.1}, \"merge_steps\": {}}}, \
             \"blocked\": {{\"wall_ms_median\": {:.4}, \"wall_ms_min\": {:.4}, \
             \"sim_time_ns\": {:.1}, \"merge_steps\": {}, \"gemm_tiles\": {}}}, \
             \"sim_speedup\": {sim_speedup:.4}}}",
            pattern.n_cols(),
            plan.n_blocks(),
            plan.blocked_cols(),
            plan.mean_width(),
            if auto_blocked { "blocked" } else { "merge" },
            mg.wall_ms_median,
            mg.wall_ms_min,
            mg.sim_ns,
            mg.outcome.merge_steps,
            bk.wall_ms_median,
            bk.wall_ms_min,
            bk.sim_ns,
            bk.outcome.merge_steps,
            bk.outcome.gemm_tiles,
        )
        .expect("string write");
    }

    t.print();
    println!(
        "\nblocked speedup over merge-join: simulated geomean {:.2}x",
        geomean(&sim_speedups)
    );

    let json = format!(
        "{{\n  \"bench\": \"blocked_numeric\",\n  \"reps\": {reps},\n  \
         \"block_threshold\": {DEFAULT_BLOCK_THRESHOLD},\n  \
         \"matrices\": [{rows}\n  ],\n  \"geomean_sim_speedup\": {:.4}\n}}\n",
        geomean(&sim_speedups)
    );
    std::fs::write("BENCH_blocked_numeric.json", &json).expect("write BENCH_blocked_numeric.json");
    println!("wrote BENCH_blocked_numeric.json");
}
