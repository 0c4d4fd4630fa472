//! Device-memory fault sweep: whatever a fault does to a run — the
//! recovery ladder works around it, or the run ends in a typed error — no
//! device keeps a byte of it, and no unified-memory page stays resident.
//!
//! Every allocation is a guard that frees itself on drop, so this holds by
//! construction. The sweep checks it over the public pipeline: each kernel
//! fails at every launch ordinal it reaches, and every allocation ordinal
//! fails, until the fault no longer fires; a checkpointed run is killed at
//! every crash point.

mod common;

use common::{assert_device_empty, config_for, gpu_for, gpu_with_plan, TempDir, FORMATS};
use gplu::prelude::*;
use gplu::sparse::gen::random::random_dominant;

/// Every kernel the pipeline launches, by phase.
const KERNELS: [&str; 16] = [
    // Symbolic: Algorithms 3/4 (on every fleet shard too), the
    // unified-memory fallback.
    "symbolic_1",
    "symbolic_2",
    "symbolic_retry",
    "prefix_sum",
    "um_symbolic_1",
    "um_symbolic_2",
    // Levelization (Algorithm 5).
    "cons_graph",
    "cnt_indegree",
    "cons_queue",
    "update",
    // Numeric, one kernel per format.
    "numeric_dense",
    "numeric_sparse",
    "numeric_merge",
    "numeric_blocked",
    // The GPU triangular solve.
    "trisolve_l",
    "trisolve_u",
];

fn faulted_gpu(a: &Csr, spec: &str) -> Gpu {
    let plan = FaultPlan::parse(spec).expect("valid fault spec");
    gpu_with_plan(a, plan)
}

/// True when the device's fault plan fired.
fn fired(gpu: &Gpu) -> bool {
    let s = gpu.stats();
    s.injected_launch_faults + s.injected_oom > 0
}

/// Calls `attempt` with every single-fault spec — the Nth launch of each
/// kernel, then the Nth allocation, for N = 1, 2, … — until it reports
/// that the fault did not fire. Returns how many attempts it fired in.
fn sweep(mut attempt: impl FnMut(&str) -> bool) -> usize {
    let faults = KERNELS.iter().map(|k| format!("badlaunch:{k}"));
    let mut fired_runs = 0;
    for fault in faults.chain(["oom:alloc".to_string()]) {
        for k in 1.. {
            if !attempt(&format!("{fault}={k}")) {
                break;
            }
            fired_runs += 1;
        }
    }
    fired_runs
}

#[test]
fn every_fault_outcome_leaves_every_device_empty() {
    let a = random_dominant(120, 4.0, 7);

    // `compute` under every symbolic engine the ladder starts from: the
    // out-of-core engines across all five formats, the unified-memory
    // engines (the ladder's fallback) under the default format.
    let ooc = [SymbolicEngine::Ooc, SymbolicEngine::OocDynamic]
        .into_iter()
        .flat_map(|s| FORMATS.map(|f| (s, f)));
    let um = [SymbolicEngine::UmPrefetch, SymbolicEngine::UmNoPrefetch]
        .map(|s| (s, NumericFormat::Auto));
    for (symbolic, format) in ooc.chain(um) {
        let opts = LuOptions {
            symbolic,
            format,
            ..Default::default()
        };
        let runs = sweep(|spec| {
            let gpu = faulted_gpu(&a, spec);
            let _ = LuFactorization::compute(&gpu, &a, &opts);
            assert_device_empty(&gpu, &format!("compute {symbolic:?}/{format:?} {spec}"));
            fired(&gpu)
        });
        assert!(runs > 0, "{symbolic:?}/{format:?}: no fault fired");
    }

    // `compute_checkpointed`, killed at every crash point a clean run
    // passes, under dense (whose arena adds its buffer pool), merge and
    // blocked. Sparse and Auto run the arena of one of these.
    for format in [
        NumericFormat::Dense,
        NumericFormat::SparseMerge,
        NumericFormat::SparseBlocked,
    ] {
        let opts = LuOptions {
            format,
            ..Default::default()
        };
        let run = |gpu: &Gpu, tag: &str| {
            let dir = TempDir::new(&format!("device-memory-{tag}"));
            let ckpt = CheckpointOptions::new(dir.path()).every(2);
            LuFactorization::compute_checkpointed(gpu, &a, &opts, &ckpt, &gplu_trace::NOOP)
        };
        let clean = gpu_for(&a);
        run(&clean, "clean").expect("clean checkpointed run");
        let crash_points = clean.stats().crash_points;
        assert!(crash_points > 0);
        for k in 1..=crash_points {
            let gpu = faulted_gpu(&a, &format!("crash:at={k}"));
            let err = run(&gpu, &format!("crash-{k}")).expect_err("crash plan kills the run");
            assert_eq!(err, GpluError::Crashed { ordinal: k });
            assert_device_empty(&gpu, &format!("checkpointed {format:?} crash at {k}"));
        }
    }

    // `compute_fleet` on two devices, every fault on device 1.
    for format in FORMATS {
        let opts = LuOptions {
            format,
            ..Default::default()
        };
        let runs = sweep(|spec| {
            let plans = FaultPlan::parse_fleet(&format!("dev=1:{spec}"), 2).expect("valid spec");
            let fleet =
                DeviceFleet::with_fault_plans(2, config_for(&a), CostModel::default(), &plans);
            let _ = LuFactorization::compute_fleet(&fleet, &a, &opts);
            for (d, gpu) in fleet.devices().iter().enumerate() {
                assert_device_empty(gpu, &format!("fleet {format:?} dev=1:{spec}, device {d}"));
            }
            fired(fleet.device(1))
        });
        assert!(runs > 0, "fleet {format:?}: no fault fired");
    }

    // `solve_on_gpu` with the factors of a clean run.
    let f = LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("clean run");
    let plan = f.solve_plan();
    let b = a.spmv(&vec![1.0; a.n_rows()]);
    let runs = sweep(|spec| {
        let gpu = faulted_gpu(&a, spec);
        let _ = f.solve_on_gpu(&gpu, &plan, &b);
        assert_device_empty(&gpu, &format!("solve_on_gpu {spec}"));
        fired(&gpu)
    });
    assert!(runs > 0, "solve_on_gpu: no fault fired");
}
