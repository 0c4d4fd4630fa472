//! The metric catalogue — the names every later change is judged by — and
//! the derivation of per-layer values from a traced pass's raw numbers.
//! BENCHMARK.json lists exactly these names (a unit test holds it to that).

use crate::stats::{median, percentile};
use crate::trace::Layers;
use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.005,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.03,
    },
];

/// `(name, unit, higher is better)` of every per-layer metric, by layer.
pub const PER_LAYER: [(&str, &str, bool); 91] = [
    // sparse / core::preprocess
    ("preprocess.wall_ms", "ms", false),
    ("preprocess.sim_ms", "ms", false),
    ("sparse.convert_wall_ms", "ms", false),
    ("sparse.verify_wall_ms", "ms", false),
    // symbolic
    ("symbolic.wall_ms", "ms", false),
    ("symbolic.sim_ms", "ms", false),
    ("symbolic.iterations", "count", false),
    ("symbolic.chunk_size", "rows", true),
    ("symbolic.fill_nnz", "count", false),
    ("symbolic.new_fill_ins", "count", false),
    ("symbolic.overflow_ratio", "ratio", false),
    ("symbolic.kernels", "count", false),
    ("symbolic.xfer_bytes", "bytes", false),
    ("symbolic.wall_ns_per_fill_nnz", "ns", false),
    // schedule
    ("schedule.depgraph_wall_ms", "ms", false),
    ("schedule.levelize_wall_ms", "ms", false),
    ("schedule.sim_ms", "ms", false),
    ("schedule.levels", "count", false),
    ("schedule.max_width", "count", true),
    ("schedule.device_launches", "count", false),
    // numeric: engines
    ("numeric.block_detect_wall_ms", "ms", false),
    ("numeric.factor_wall_ms", "ms", false),
    ("numeric.sim_ms", "ms", false),
    ("numeric.merge_steps", "count", false),
    ("numeric.probes", "count", false),
    ("numeric.gemm_tiles", "count", false),
    ("numeric.kernels", "count", false),
    ("numeric.dense_ops", "count", false),
    ("numeric.merge_ops", "count", false),
    ("numeric.blocked_ops", "count", false),
    ("numeric.wall_ns_per_merge_step", "ns", false),
    // numeric: pivoting
    ("numeric.pivot_discover_wall_ms", "ms", false),
    ("numeric.pivot_swaps", "count", false),
    ("numeric.pattern_expanded", "count", false),
    ("numeric.escalations", "count", false),
    // numeric: trisolve
    ("trisolve.plan_wall_ms", "ms", false),
    ("trisolve.solve_wall_ms", "ms", false),
    ("trisolve.sim_ms", "ms", false),
    ("trisolve.rhs", "count", true),
    ("trisolve.wall_us_per_level", "us", false),
    // gpu-sim
    ("sim.kernels_host", "count", false),
    ("sim.kernels_device", "count", false),
    ("sim.h2d_bytes", "bytes", false),
    ("sim.d2h_bytes", "bytes", false),
    ("sim.kernel_sim_ms", "ms", false),
    ("sim.xfer_sim_ms", "ms", false),
    ("sim.peak_device_mib", "MiB", false),
    ("sim.wall_us_per_launch", "us", false),
    // core: pipeline, refactor, codec
    ("core.compute_wall_ms", "ms", false),
    ("core.glue_wall_ms", "ms", false),
    ("core.gate_wall_ms", "ms", false),
    ("core.op_wall_ms_p90", "ms", false),
    ("core.recovery_events", "count", false),
    ("core.refactor_plan_wall_ms", "ms", false),
    ("core.refactorize_wall_ms", "ms", false),
    ("core.refactorize_sim_ms", "ms", false),
    ("core.plan_bytes", "bytes", false),
    ("core.plan_encode_wall_ms", "ms", false),
    ("core.plan_decode_wall_ms", "ms", false),
    ("core.plan_snapshot_bytes", "bytes", false),
    // core::fleet + gpu-sim fleet
    ("fleet.compute_wall_ms", "ms", false),
    ("fleet.symbolic_wall_ms", "ms", false),
    ("fleet.numeric_wall_ms", "ms", false),
    ("fleet.exchanges", "count", false),
    ("fleet.exchange_bytes", "bytes", false),
    ("fleet.exchange_sim_ms", "ms", false),
    ("fleet.busy_imbalance", "ratio", false),
    ("fleet.speedup_vs_1dev_sim", "ratio", true),
    // server
    ("server.jobs", "count", true),
    ("server.tier_cold", "count", false),
    ("server.tier_warm", "count", true),
    ("server.tier_warm_host", "count", false),
    ("server.tier_cached_solve", "count", true),
    ("server.hot_hit_rate", "ratio", true),
    ("server.plans_built", "count", false),
    ("server.evictions", "count", false),
    ("server.demotions", "count", false),
    ("server.promotions", "count", false),
    ("server.max_depth", "count", false),
    ("server.rejected", "count", false),
    ("server.queue_wait_ms_p50", "ms", false),
    ("server.queue_wait_ms_p90", "ms", false),
    ("server.job_wall_ms_p90", "ms", false),
    ("server.cold_wall_ms_p50", "ms", false),
    ("server.warm_wall_ms_p50", "ms", false),
    ("server.cached_solve_wall_ms_p50", "ms", false),
    ("server.solve_wall_ms_p50", "ms", false),
    // checkpoint
    ("checkpoint.plan_save_wall_ms", "ms", false),
    ("checkpoint.plan_load_wall_ms", "ms", false),
    // trace (harness)
    ("trace.overhead_ratio", "ratio", false),
    ("trace.coverage", "ratio", true),
];

/// Per-layer metrics that are a percentile of samples pooled over all
/// traced passes: `(metric, sample name, percentile)`.
const POOLED: [(&str, &str, f64); 8] = [
    ("core.op_wall_ms_p90", "core.op_wall_ms", 90.0),
    ("server.queue_wait_ms_p50", "server.queue_wait_ms", 50.0),
    ("server.queue_wait_ms_p90", "server.queue_wait_ms", 90.0),
    ("server.job_wall_ms_p90", "server.job_wall_ms", 90.0),
    ("server.cold_wall_ms_p50", "server.cold_wall_ms", 50.0),
    ("server.warm_wall_ms_p50", "server.warm_wall_ms", 50.0),
    (
        "server.cached_solve_wall_ms_p50",
        "server.cached_solve_wall_ms",
        50.0,
    ),
    ("server.solve_wall_ms_p50", "server.solve_wall_ms", 50.0),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Σ of the layer walls the replay decomposes a cold `compute` into.
fn layer_wall_sum(l: &Layers) -> f64 {
    [
        "preprocess.wall_ms",
        "symbolic.wall_ms",
        "numeric.pivot_discover_wall_ms",
        "schedule.depgraph_wall_ms",
        "schedule.levelize_wall_ms",
        "sparse.convert_wall_ms",
        "numeric.block_detect_wall_ms",
        "numeric.factor_wall_ms",
        "core.gate_wall_ms",
    ]
    .iter()
    .map(|n| l.get(n))
    .sum()
}

/// One traced pass's value of every per-layer metric that is defined per
/// pass (everything but the pooled percentiles and the overhead ratio).
/// A layer the workload never enters reads 0.
pub fn pass_values(l: &Layers) -> BTreeMap<&'static str, f64> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(name, _, _) in &PER_LAYER {
        v.insert(name, l.get(name));
    }
    v.insert(
        "symbolic.chunk_size",
        ratio(l.get("symbolic.chunk_rows"), l.get("ops.factorized")),
    );
    v.insert(
        "symbolic.overflow_ratio",
        ratio(l.get("symbolic.overflow_rows"), l.get("symbolic.rows")),
    );
    v.insert(
        "symbolic.wall_ns_per_fill_nnz",
        ratio(l.get("symbolic.wall_ms") * 1e6, l.get("symbolic.fill_nnz")),
    );
    // Host time per simulated merge event; on `warm_refactor` the numeric
    // engine runs inside `refactorize`, whose wall stands in for it.
    v.insert(
        "numeric.wall_ns_per_merge_step",
        ratio(
            (l.get("numeric.factor_wall_ms") + l.get("core.refactorize_wall_ms")) * 1e6,
            l.get("numeric.merge_steps"),
        ),
    );
    v.insert(
        "trisolve.wall_us_per_level",
        ratio(
            l.get("trisolve.solve_wall_ms") * 1e3,
            l.get("trisolve.levels"),
        ),
    );
    v.insert(
        "sim.wall_us_per_launch",
        ratio(
            l.get("launch.wall_ms") * 1e3,
            l.get("launches.levelize_numeric") + l.get("launches.trisolve"),
        ),
    );
    // Exactly one of the two compute walls is non-zero on a workload that
    // replays a cold pipeline.
    let compute = l.get("core.compute_wall_ms") + l.get("fleet.compute_wall_ms");
    let layers = layer_wall_sum(l);
    let (covered, covering) = if compute > 0.0 {
        v.insert("core.glue_wall_ms", compute - layers);
        (layers, compute)
    } else if l.get("core.refactorize_wall_ms") > 0.0 {
        (
            l.get("core.refactorize_wall_ms") + l.get("trisolve.solve_wall_ms"),
            l.get("ops.wall_ms"),
        )
    } else {
        (l.get("server.job_wall_sum_ms"), l.get("ops.wall_ms"))
    };
    v.insert("trace.coverage", ratio(covered, covering));
    v.insert(
        "fleet.busy_imbalance",
        ratio(l.get("fleet.busy_max_ns"), l.get("fleet.busy_mean_ns")),
    );
    v.insert(
        "fleet.speedup_vs_1dev_sim",
        ratio(l.get("fleet.one_device_ns"), l.get("fleet.makespan_ns")),
    );
    v
}

/// Final per-layer values — the median over traced passes of each per-pass
/// value, pooled percentiles over all passes' samples, and the overhead
/// ratio of a traced pass to the untraced reference pass — and the number
/// of operation-latency samples the pooled percentiles rest on.
pub fn per_layer(
    passes: &[Layers],
    traced_pass_ms: &[f64],
    untraced_pass_ms: f64,
) -> (BTreeMap<&'static str, f64>, usize) {
    let per_pass: Vec<_> = passes.iter().map(pass_values).collect();
    let mut out = BTreeMap::new();
    for &(name, _, _) in &PER_LAYER {
        let vals: Vec<f64> = per_pass.iter().map(|p| p[name]).collect();
        out.insert(name, median(&vals));
    }
    for &(metric, sample, p) in &POOLED {
        let pooled: Vec<f64> = passes
            .iter()
            .flat_map(|l| l.samples.get(sample).into_iter().flatten().copied())
            .collect();
        out.insert(
            metric,
            if pooled.is_empty() {
                0.0
            } else {
                percentile(&pooled, p)
            },
        );
    }
    out.insert(
        "trace.overhead_ratio",
        ratio(median(traced_pass_ms), untraced_pass_ms),
    );
    let op_samples = passes
        .iter()
        .map(|l| l.samples.get("core.op_wall_ms").map_or(0, Vec::len))
        .sum();
    (out, op_samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                m.bound
            );
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        for &(name, unit, higher) in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                if higher { "higher" } else { "lower" }
            );
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for (name, _) in crate::workloads::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{name}\", \"why\": ")));
        }
    }

    #[test]
    fn derived_values_and_medians() {
        let mut a = Layers::default();
        a.add("core.compute_wall_ms", 100.0);
        a.add("symbolic.wall_ms", 60.0);
        a.add("numeric.factor_wall_ms", 30.0);
        a.add("symbolic.fill_nnz", 1000.0);
        a.add("numeric.merge_steps", 3000.0);
        a.sample("core.op_wall_ms", 5.0);
        let v = pass_values(&a);
        assert_eq!(v["core.glue_wall_ms"], 10.0);
        assert_eq!(v["trace.coverage"], 0.9);
        assert_eq!(v["symbolic.wall_ns_per_fill_nnz"], 60_000.0);
        assert_eq!(v["numeric.wall_ns_per_merge_step"], 10_000.0);
        assert_eq!(v["server.jobs"], 0.0, "layers never entered read 0");

        let mut b = Layers::default();
        b.add("core.compute_wall_ms", 200.0);
        b.sample("core.op_wall_ms", 7.0);
        let (out, op_samples) = per_layer(&[a, b], &[300.0, 500.0], 200.0);
        assert_eq!(out["core.compute_wall_ms"], 150.0);
        assert_eq!(out["trace.overhead_ratio"], 2.0);
        assert_eq!(out["core.op_wall_ms_p90"], 7.0);
        assert_eq!(op_samples, 2);
        assert_eq!(out.len(), PER_LAYER.len());
    }
}
