//! Head-to-head of the two sorted-CSC numeric kernels: binary-search
//! access (the paper's Algorithm 6) vs merge-join access (the `O(nnz)`
//! streaming refinement), on the Table 4 analog suite. The discipline's
//! cost is on the simulated clock and in the located-work counters, and
//! those are what this bench pins:
//!
//! * *simulated* device time — the cost model's verdict, where binary
//!   search pays `probe_flop_items` and merge does not,
//! * `probes` and `merge_steps` — what the device kernel's location work
//!   would be, reported by the kernel core in closed form,
//! * *wall-clock* of the engine call — both engines run the same host
//!   arithmetic (one dense-accumulator core), so the wall columns time
//!   the pricing of a counter, not the location work: the host performs
//!   no probe and no cursor advance.
//!
//! Writes `BENCH_numeric_kernel.json` next to the working directory and
//! prints a table. Both engines must agree bitwise on every matrix, or
//! the run aborts.
//!
//! Usage: `numeric_kernel [--scale N] [--reps N] [--only A,B]`
//! (default scale 1/1024, 5 repetitions per engine)

use gplu_bench::{fill_size_of, geomean, Args, Prepared, Table};
use gplu_numeric::{factorize_gpu_merge, factorize_gpu_sparse, NumericOutcome};
use gplu_schedule::{levelize_cpu, DepGraph, Levels};
use gplu_sim::{CostModel, Gpu};
use gplu_sparse::convert::csr_to_csc;
use gplu_sparse::gen::suite::{large_suite, DEFAULT_LARGE_SCALE};
use gplu_sparse::Csc;
use gplu_symbolic::symbolic_cpu;
use std::fmt::Write as _;
use std::time::Instant;

/// One engine's measurements on one matrix.
struct Measured {
    wall_ms_median: f64,
    wall_ms_min: f64,
    sim_ns: f64,
    outcome: NumericOutcome,
}

fn measure(
    reps: usize,
    gpu_of: impl Fn() -> Gpu,
    run: impl Fn(&Gpu) -> NumericOutcome,
) -> Measured {
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let gpu = gpu_of();
            let start = Instant::now();
            let _ = run(&gpu);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let gpu = gpu_of();
    let outcome = run(&gpu);
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

fn prepare(prep: &Prepared) -> (Csc, Levels, usize) {
    let (pre, fill) = fill_size_of(prep);
    let sym = symbolic_cpu(&pre, &CostModel::default());
    let pattern = csr_to_csc(&sym.result.filled);
    let levels = levelize_cpu(&DepGraph::build(&sym.result.filled), &CostModel::default()).levels;
    (pattern, levels, fill)
}

fn main() {
    let args = Args::parse();
    let scale = args.scale_or(DEFAULT_LARGE_SCALE);
    let reps = reps_from_args();
    println!(
        "numeric kernel head-to-head: binary-search vs merge-join CSC (scale 1/{scale}, {reps} reps)\n"
    );

    let mut t = Table::new([
        "matrix",
        "n",
        "fill nnz",
        "probes",
        "merge steps",
        "bs wall",
        "mg wall",
        "wall spdup",
        "bs sim",
        "mg sim",
        "sim spdup",
    ]);
    let mut rows = String::new();
    let mut wall_speedups = Vec::new();
    let mut sim_speedups = Vec::new();

    for entry in large_suite() {
        if !args.selected(entry.abbr) {
            continue;
        }
        let prep = Prepared::new(entry.clone(), scale);
        let (pattern, levels, fill) = prepare(&prep);
        let n = pattern.n_cols();

        let bs = measure(
            reps,
            || prep.gpu_numeric(fill),
            |gpu| factorize_gpu_sparse(gpu, &pattern, &levels).expect("bsearch ok"),
        );
        let mg = measure(
            reps,
            || prep.gpu_numeric(fill),
            |gpu| factorize_gpu_merge(gpu, &pattern, &levels).expect("merge ok"),
        );
        assert_eq!(
            bs.outcome.lu.vals, mg.outcome.lu.vals,
            "{}: engines disagree",
            entry.abbr
        );
        assert!(
            bs.outcome.probes > 0,
            "{}: Algorithm 6 must probe",
            entry.abbr
        );
        assert_eq!(mg.outcome.probes, 0);

        let wall_speedup = bs.wall_ms_median / mg.wall_ms_median;
        let sim_speedup = bs.sim_ns / mg.sim_ns;
        wall_speedups.push(wall_speedup);
        sim_speedups.push(sim_speedup);

        t.row([
            entry.abbr.to_string(),
            n.to_string(),
            fill.to_string(),
            bs.outcome.probes.to_string(),
            mg.outcome.merge_steps.to_string(),
            format!("{:.2} ms", bs.wall_ms_median),
            format!("{:.2} ms", mg.wall_ms_median),
            format!("{wall_speedup:.2}x"),
            format!("{:.2} ms", bs.sim_ns / 1e6),
            format!("{:.2} ms", mg.sim_ns / 1e6),
            format!("{sim_speedup:.2}x"),
        ]);

        if !rows.is_empty() {
            rows.push(',');
        }
        write!(
            rows,
            "\n    {{\"name\": \"{}\", \"abbr\": \"{}\", \"n\": {}, \"fill_nnz\": {}, \
             \"binary_search\": {{\"wall_ms_median\": {:.4}, \"wall_ms_min\": {:.4}, \
             \"sim_time_ns\": {:.1}, \"probes\": {}}}, \
             \"merge\": {{\"wall_ms_median\": {:.4}, \"wall_ms_min\": {:.4}, \
             \"sim_time_ns\": {:.1}, \"merge_steps\": {}}}, \
             \"wall_speedup\": {:.4}, \"sim_speedup\": {:.4}}}",
            entry.name,
            entry.abbr,
            n,
            fill,
            bs.wall_ms_median,
            bs.wall_ms_min,
            bs.sim_ns,
            bs.outcome.probes,
            mg.wall_ms_median,
            mg.wall_ms_min,
            mg.sim_ns,
            mg.outcome.merge_steps,
            wall_speedup,
            sim_speedup,
        )
        .expect("string write");
    }

    t.print();
    println!(
        "\nmerge-join speedup over binary search: wall-clock geomean {:.2}x, simulated geomean {:.2}x",
        geomean(&wall_speedups),
        geomean(&sim_speedups)
    );

    let json = format!(
        "{{\n  \"bench\": \"numeric_kernel\",\n  \"scale\": {scale},\n  \"reps\": {reps},\n  \
         \"matrices\": [{rows}\n  ],\n  \"geomean_wall_speedup\": {:.4},\n  \
         \"geomean_sim_speedup\": {:.4}\n}}\n",
        geomean(&wall_speedups),
        geomean(&sim_speedups)
    );
    std::fs::write("BENCH_numeric_kernel.json", &json).expect("write BENCH_numeric_kernel.json");
    println!("wrote BENCH_numeric_kernel.json");
}
