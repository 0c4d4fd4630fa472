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
//! Writes `BENCH_numeric_kernel.json` and prints a table. Both engines
//! must agree bitwise on every matrix, or the run aborts.

use crate::{fill_size_of, filled_schedule, geomean, Measured, Opts, Table};
use gplu_numeric::{factorize_gpu_merge, factorize_gpu_sparse};
use gplu_sparse::gen::suite::{large_suite, DEFAULT_LARGE_SCALE};
use gplu_trace::JsonValue;

pub(crate) fn run(o: &Opts) -> JsonValue {
    let scale = o.scale_or(DEFAULT_LARGE_SCALE);
    let reps = o.reps.unwrap_or(5);
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
    let mut rows = Vec::new();
    let mut wall_speedups = Vec::new();
    let mut sim_speedups = Vec::new();

    for prep in o.prepared(large_suite(), scale) {
        let entry = &prep.entry;
        let (pre, fill) = fill_size_of(&prep);
        let (pattern, levels) = filled_schedule(&pre);
        let n = pattern.n_cols();

        let bs = Measured::new(
            reps,
            || prep.gpu_numeric(fill),
            |gpu| factorize_gpu_sparse(gpu, &pattern, &levels).expect("bsearch ok"),
        );
        let mg = Measured::new(
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
        let sim_speedup = bs.sim_ns() / mg.sim_ns();
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
            format!("{:.2} ms", bs.sim_ns() / 1e6),
            format!("{:.2} ms", mg.sim_ns() / 1e6),
            format!("{sim_speedup:.2}x"),
        ]);

        rows.push(
            JsonValue::obj()
                .set("name", entry.name)
                .set("abbr", entry.abbr)
                .set("n", n)
                .set("fill_nnz", fill)
                .set("binary_search", bs.json().set("probes", bs.outcome.probes))
                .set(
                    "merge",
                    mg.json().set("merge_steps", mg.outcome.merge_steps),
                )
                .set("wall", JsonValue::obj().set("wall_speedup", wall_speedup))
                .set("sim_speedup", sim_speedup),
        );
    }

    t.print();
    println!(
        "\nmerge-join speedup over binary search: wall-clock geomean {:.2}x, simulated geomean {:.2}x",
        geomean(&wall_speedups),
        geomean(&sim_speedups)
    );

    JsonValue::obj()
        .set("scale", scale)
        .set(
            "wall",
            JsonValue::obj()
                .set("reps", reps)
                .set("geomean_wall_speedup", geomean(&wall_speedups)),
        )
        .set("matrices", rows)
        .set("geomean_sim_speedup", geomean(&sim_speedups))
}
