//! Cost and payoff of the robustness ladder: what threshold pivoting and
//! the residual gate charge on polite (diagonally dominant) traffic, and
//! what they buy on the adversarial hard corpus.
//!
//! Two experiments:
//!
//! * **overhead** — the dominant families under `NoPivot` vs
//!   `Threshold{tau=0.1}`: the discovery pre-pass finds nothing to swap,
//!   so its cost (plus the gate's probe solves) is pure overhead and must
//!   stay small (the acceptance bar is < 10% wall regression);
//! * **payoff** — every [`HardKind`] family under each policy, classified
//!   into the three-state contract (gate pass / recovered / typed
//!   rejection). No-pivot LU should be rejected by the gate on much of
//!   this corpus; threshold pivoting should convert those rejections into
//!   verified factorizations.
//!
//! Writes `BENCH_pivoting.json` and prints two tables.

use crate::{gpu_for, wall_ms, Opts, Table};
use gplu_core::{GpluError, LuFactorization, LuOptions};
use gplu_numeric::{PivotPolicy, DEFAULT_PIVOT_TAU};
use gplu_sparse::gen::hard::HardKind;
use gplu_sparse::gen::{circuit, mesh, random};
use gplu_sparse::Csr;
use gplu_trace::JsonValue;

const THRESHOLD: PivotPolicy = PivotPolicy::Threshold {
    tau: DEFAULT_PIVOT_TAU,
};

struct Measured {
    wall_ms_median: f64,
    sim_ns: f64,
    swaps: u64,
    result: Result<LuFactorization, GpluError>,
}

fn measure(a: &Csr, opts: &LuOptions, reps: usize) -> Measured {
    let (wall_ms_median, _) = wall_ms(
        reps,
        || gpu_for(a),
        |gpu| {
            let _ = LuFactorization::compute(&gpu, a, opts);
        },
    );
    let result = LuFactorization::compute(&gpu_for(a), a, opts);
    let (sim_ns, swaps) = match &result {
        Ok(f) => (f.report.total().as_ns(), f.report.pivot_swaps as u64),
        Err(_) => (0.0, 0),
    };
    Measured {
        wall_ms_median,
        sim_ns,
        swaps,
        result,
    }
}

impl Measured {
    /// The run's BENCH entry: its median wall time and its simulated time.
    fn json(&self) -> JsonValue {
        let wall = JsonValue::obj().set("wall_ms_median", self.wall_ms_median);
        JsonValue::obj()
            .set("wall", wall)
            .set("sim_time_ns", self.sim_ns)
    }
}

/// Three-state classification of a pipeline outcome on hard traffic.
fn state(m: &Measured) -> &'static str {
    match &m.result {
        Ok(f) if f.report.recovery.is_empty() => "gate-pass",
        Ok(_) => "recovered",
        Err(_) => "rejected",
    }
}

pub(crate) fn run(o: &Opts) -> JsonValue {
    let reps = o.reps.unwrap_or(5);
    println!("pivoting cost/payoff: NoPivot vs Threshold(tau={DEFAULT_PIVOT_TAU}) ({reps} reps)\n");

    // ---- Overhead on polite traffic ------------------------------------
    let dominant: Vec<(&str, Csr)> = vec![
        (
            "circuit",
            circuit::circuit(&circuit::CircuitParams {
                n: 1500,
                nnz_per_row: 6.0,
                seed: 21,
                ..Default::default()
            }),
        ),
        (
            "mesh",
            mesh::mesh(&mesh::MeshParams::for_target(1500, 5.0, 22)),
        ),
        ("banded", random::banded_dominant(1500, 8, 23)),
        ("random", random::random_dominant(1500, 5.0, 24)),
    ];

    let mut t = Table::new([
        "matrix", "n", "np wall", "th wall", "overhead", "np sim", "th sim", "swaps",
    ]);
    let mut overhead_rows = Vec::new();
    let mut worst_overhead: f64 = 0.0;
    for (name, a) in &dominant {
        let np = measure(a, &LuOptions::default(), reps);
        let th = measure(a, &LuOptions::default().with_pivot(THRESHOLD), reps);
        assert!(
            np.result.is_ok() && th.result.is_ok(),
            "{name}: dominant corpus must pass"
        );
        let overhead = th.wall_ms_median / np.wall_ms_median - 1.0;
        worst_overhead = worst_overhead.max(overhead);
        t.row([
            name.to_string(),
            a.n_rows().to_string(),
            format!("{:.2} ms", np.wall_ms_median),
            format!("{:.2} ms", th.wall_ms_median),
            format!("{:+.1}%", overhead * 100.0),
            format!("{:.2} ms", np.sim_ns / 1e6),
            format!("{:.2} ms", th.sim_ns / 1e6),
            th.swaps.to_string(),
        ]);
        overhead_rows.push(
            JsonValue::obj()
                .set("name", *name)
                .set("n", a.n_rows())
                .set("nopivot", np.json())
                .set("threshold", th.json().set("swaps", th.swaps))
                .set("wall", JsonValue::obj().set("wall_overhead", overhead)),
        );
    }
    t.print();
    println!(
        "\nworst-case wall overhead on dominant traffic: {:+.1}%\n",
        worst_overhead * 100.0
    );

    // ---- Payoff on the hard corpus -------------------------------------
    let policies: [(&str, LuOptions); 4] = [
        ("nopivot", LuOptions::default()),
        (
            "static",
            LuOptions::default().with_pivot(PivotPolicy::Static { threshold: 1e-8 }),
        ),
        ("threshold", LuOptions::default().with_pivot(THRESHOLD)),
        ("escalate", {
            let mut o = LuOptions::default();
            o.gate.escalate = true;
            o
        }),
    ];
    let seeds = [41u64, 42, 43];
    let mut t = Table::new(["family", "policy", "pass", "recovered", "rejected", "swaps"]);
    let mut hard_rows = Vec::new();
    for kind in HardKind::ALL {
        for (pname, opts) in &policies {
            let (mut pass, mut rec, mut rej, mut swaps) = (0u32, 0u32, 0u32, 0u64);
            for &seed in &seeds {
                let a = kind.generate(400, seed);
                let m = measure(&a, opts, 1);
                match state(&m) {
                    "gate-pass" => pass += 1,
                    "recovered" => rec += 1,
                    _ => rej += 1,
                }
                swaps += m.swaps;
            }
            t.row([
                kind.name().to_string(),
                pname.to_string(),
                pass.to_string(),
                rec.to_string(),
                rej.to_string(),
                swaps.to_string(),
            ]);
            hard_rows.push(
                JsonValue::obj()
                    .set("family", kind.name())
                    .set("policy", *pname)
                    .set("instances", seeds.len())
                    .set("gate_pass", pass)
                    .set("recovered", rec)
                    .set("rejected", rej)
                    .set("swaps", swaps),
            );
        }
    }
    t.print();

    println!();
    JsonValue::obj()
        .set(
            "wall",
            JsonValue::obj()
                .set("reps", reps)
                .set("worst_wall_overhead", worst_overhead),
        )
        .set("tau", DEFAULT_PIVOT_TAU)
        .set("dominant_overhead", overhead_rows)
        .set("hard_corpus", hard_rows)
}
