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

use crate::{filled_schedule, geomean, Measured, Opts, Table};
use gplu_numeric::outcome::column_cost_estimate_cached;
use gplu_numeric::{
    factorize_gpu_blocked_run_cached, factorize_gpu_merge_run_cached, BlockPlan, PivotCache,
    PivotRule, DEFAULT_BLOCK_THRESHOLD,
};
use gplu_sim::{CostModel, Gpu, GpuConfig};
use gplu_sparse::gen::{circuit, mesh, planar, random};
use gplu_sparse::{Csc, Csr};
use gplu_trace::{JsonValue, NOOP};

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

pub(crate) fn run(o: &Opts) -> JsonValue {
    let reps = o.reps.unwrap_or(5);
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
    let mut rows = Vec::new();
    let mut sim_speedups = Vec::new();
    let cost = CostModel::default();

    for (name, class, a) in &suite {
        let pre = gplu_core::preprocess(
            a,
            &gplu_core::PreprocessOptions::default(),
            &CostModel::default(),
        )
        .expect("suite analogs preprocess cleanly");
        let (pattern, levels) = filled_schedule(&pre.matrix);
        let cache = PivotCache::build(&pattern);
        let plan = BlockPlan::detect(&pattern, &cache, DEFAULT_BLOCK_THRESHOLD);
        let fill = pattern.nnz();
        let fill_density = fill as f64 / pattern.n_cols().max(1) as f64;
        let auto_blocked = cost.blocked_crossover(fill_density, plan.mean_width());
        let (blas3_bytes, streaming_bytes) = byte_split(&pattern, &cache, &plan, &cost);

        let v100 = || Gpu::new(GpuConfig::v100());
        let mg = Measured::new(reps, v100, |gpu| {
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
        let bk = Measured::new(reps, v100, |gpu| {
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

        let sim_speedup = mg.sim_ns() / bk.sim_ns();
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
            format!("{:.2} ms", mg.sim_ns() / 1e6),
            format!("{:.2} ms", bk.sim_ns() / 1e6),
            format!("{sim_speedup:.2}x"),
        ]);

        rows.push(
            JsonValue::obj()
                .set("name", *name)
                .set("class", *class)
                .set("n", pattern.n_cols())
                .set("fill_nnz", fill)
                .set("fill_density", fill_density)
                .set(
                    "plan",
                    JsonValue::obj()
                        .set("blocks", plan.n_blocks())
                        .set("blocked_cols", plan.blocked_cols())
                        .set("mean_width", plan.mean_width())
                        .set("blas3_bytes", blas3_bytes)
                        .set("streaming_bytes", streaming_bytes),
                )
                .set("auto_picks", if auto_blocked { "blocked" } else { "merge" })
                .set(
                    "merge",
                    mg.json().set("merge_steps", mg.outcome.merge_steps),
                )
                .set(
                    "blocked",
                    bk.json()
                        .set("merge_steps", bk.outcome.merge_steps)
                        .set("gemm_tiles", bk.outcome.gemm_tiles),
                )
                .set("sim_speedup", sim_speedup),
        );
    }

    t.print();
    println!(
        "\nblocked speedup over merge-join: simulated geomean {:.2}x",
        geomean(&sim_speedups)
    );

    JsonValue::obj()
        .set("wall", JsonValue::obj().set("reps", reps))
        .set("block_threshold", DEFAULT_BLOCK_THRESHOLD)
        .set("matrices", rows)
        .set("geomean_sim_speedup", geomean(&sim_speedups))
}
