//! Tiered-serving bench: what the `gplu-server` factor cache actually
//! buys on repeat traffic. For each pattern the three tiers are timed on
//! the **simulated** clock:
//!
//! * *cold* — the full pipeline (preprocess + symbolic + levelize +
//!   numeric), what a cache miss costs,
//! * *warm* — [`RefactorPlan::refactorize`] on drifted values (value
//!   scatter + numeric kernels on the cached pattern artifacts),
//! * *cached solve* — batched triangular solve against cached factors,
//!   what a full (pattern + value) hit costs.
//!
//! Warm results are asserted bit-identical to a cold factorization of the
//! same drifted values before anything is timed. Writes
//! `BENCH_refactorization.json` and prints a table.

use crate::{drift_values, geomean, gpu_for, Opts, Table};
use gplu_core::{LuFactorization, LuOptions};
use gplu_numeric::TriSolvePlan;
use gplu_sparse::gen::circuit::{circuit, CircuitParams};
use gplu_sparse::gen::mesh::{mesh, MeshParams};
use gplu_sparse::gen::random::banded_dominant;
use gplu_sparse::Csr;
use gplu_trace::JsonValue;

struct Row {
    name: &'static str,
    n: usize,
    nnz: usize,
    cold_ns: f64,
    warm_ns: f64,
    solve_ns: f64,
}

pub(crate) fn run(o: &Opts) -> JsonValue {
    let reps = o.reps.unwrap_or(5);
    println!("tiered-serving bench: cold factorize vs warm refactorize vs cached solve ({reps} value versions per pattern)\n");

    let inputs: Vec<(&'static str, Csr)> = vec![
        (
            "circuit-2k",
            circuit(&CircuitParams {
                n: 2000,
                nnz_per_row: 8.0,
                seed: 11,
                ..Default::default()
            }),
        ),
        (
            "mesh-40x40",
            mesh(&MeshParams {
                nx: 40,
                ny: 40,
                nz: 1,
                dof: 1,
                keep: 0.95,
                seed: 12,
            }),
        ),
        ("banded-4k", banded_dominant(4000, 2, 13)),
    ];

    let opts = LuOptions::default();
    let mut t = Table::new([
        "pattern",
        "n",
        "nnz",
        "cold sim",
        "warm sim",
        "solve sim",
        "warm spdup",
        "solve spdup",
    ]);
    let mut rows_json = Vec::new();
    let mut warm_speedups = Vec::new();
    let mut solve_speedups = Vec::new();

    for (name, a) in &inputs {
        // Cold reference: full pipeline on the base values.
        let gpu = gpu_for(a);
        let f0 = LuFactorization::compute(&gpu, a, &opts).expect("cold factorization");
        let plan = f0.refactor_plan(a, &opts).expect("refactor plan");
        let solve_plan = TriSolvePlan::new(&f0.lu);
        let b = a.spmv(&vec![1.0; a.n_rows()]);

        let mut cold_ns = Vec::new();
        let mut warm_ns = Vec::new();
        let mut solve_ns = Vec::new();
        for version in 0..reps as u64 {
            let a_v = drift_values(a, version);

            let gpu_cold = gpu_for(&a_v);
            let cold =
                LuFactorization::compute(&gpu_cold, &a_v, &opts).expect("cold factorization");
            cold_ns.push(cold.report.total().as_ns());

            let gpu_warm = gpu_for(&a_v);
            let warm = plan
                .refactorize(&gpu_warm, &a_v)
                .expect("warm refactorization");
            warm_ns.push(warm.report.total().as_ns());
            assert_eq!(
                cold.lu.vals, warm.lu.vals,
                "{name} v{version}: warm factors must be bit-identical to cold"
            );

            // Cached-solve tier: the factors already exist; the job only
            // pays the batched triangular solve.
            let gpu_solve = gpu_for(&a_v);
            let (_, ts) = warm
                .solve_many_on_gpu(&gpu_solve, &solve_plan, std::slice::from_ref(&b))
                .expect("cached solve");
            solve_ns.push(ts.as_ns());
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let row = Row {
            name,
            n: a.n_rows(),
            nnz: a.nnz(),
            cold_ns: avg(&cold_ns),
            warm_ns: avg(&warm_ns),
            solve_ns: avg(&solve_ns),
        };
        let warm_speedup = row.cold_ns / row.warm_ns;
        let solve_speedup = row.cold_ns / row.solve_ns;
        warm_speedups.push(warm_speedup);
        solve_speedups.push(solve_speedup);

        t.row([
            row.name.to_string(),
            row.n.to_string(),
            row.nnz.to_string(),
            format!("{:.3} ms", row.cold_ns / 1e6),
            format!("{:.3} ms", row.warm_ns / 1e6),
            format!("{:.3} ms", row.solve_ns / 1e6),
            format!("{warm_speedup:.2}x"),
            format!("{solve_speedup:.2}x"),
        ]);

        rows_json.push(
            JsonValue::obj()
                .set("name", row.name)
                .set("n", row.n)
                .set("nnz", row.nnz)
                .set("cold_sim_ns", row.cold_ns)
                .set("warm_sim_ns", row.warm_ns)
                .set("cached_solve_sim_ns", row.solve_ns)
                .set("warm_speedup", warm_speedup)
                .set("cached_solve_speedup", solve_speedup),
        );
    }

    t.print();
    let warm_geo = geomean(&warm_speedups);
    let solve_geo = geomean(&solve_speedups);
    println!(
        "\nspeedup over cold factorization: warm refactorize geomean {warm_geo:.2}x, \
         cached solve geomean {solve_geo:.2}x"
    );

    assert!(
        warm_geo >= 3.0,
        "warm refactorization must be at least 3x faster than cold (got {warm_geo:.2}x)"
    );
    JsonValue::obj()
        .set("reps", reps)
        .set("matrices", rows_json)
        .set("geomean_warm_speedup", warm_geo)
        .set("geomean_cached_solve_speedup", solve_geo)
}
