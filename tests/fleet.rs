//! Multi-device fleet suite: sharded execution must be invisible in the
//! results.
//!
//! The contract:
//!
//! 1. **bit-identity** — a `--devices N` run shards symbolic fill
//!    counting by source-row range and splits a numeric level by column
//!    range when that quotes cheaper than running it on the home device,
//!    but the factor it produces (pattern and every value bit) is the
//!    single-device pipeline's, for every symbolic engine, numeric
//!    format and fleet size, fault-free or under faults;
//! 2. **fault isolation** — a `dev=K:` fault plan kills exactly that
//!    device; a survivor pays for what it held, the run completes
//!    bit-identically, and the recovery log records the
//!    [`RecoveryAction::DeviceLost`];
//! 3. **a fleet fails like a device** — a plan on every device ends as
//!    one device with that plan ends: a failure sheds its device only
//!    while another can take the work;
//! 4. **locality scheduling** — the service routes a hot pattern back to
//!    the device that built its plan, so per-device hit rates stay
//!    meaningful.
//!
//! Every case is deterministic: the proptest shim derives inputs from
//! fixed seeds.

mod common;

use common::{assert_factors_bits_eq, block_banded, config_for, drift, gpu_for, ENGINES, FORMATS};
use gplu::core::{check_run_report, RecoveryAction, RunReport};
use gplu::prelude::*;
use gplu::server::ExecTier;
use gplu::sparse::gen::circuit::{circuit, CircuitParams};
use gplu::sparse::gen::random::random_dominant;
use gplu::sparse::ordering::OrderingKind;
use gplu::trace::Recorder;
use proptest::prelude::*;

fn fleet_for(a: &Csr, devices: usize) -> DeviceFleet<'static> {
    DeviceFleet::new(devices, config_for(a))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Core invariant: sharding is a pricing concern, never a numerical
    /// one — any engine x format x fleet size reproduces the
    /// single-device bits.
    #[test]
    fn fleet_is_bit_identical_for_every_engine_and_count(
        seed in 0u64..1000,
        n in 80usize..240,
        devices_idx in 0usize..4,
        engine_idx in 0usize..4,
        format_idx in 0usize..5,
    ) {
        let devices = [1usize, 2, 4, 8][devices_idx];
        let (engine, format) = (ENGINES[engine_idx], FORMATS[format_idx]);
        let a = random_dominant(n, 4.0, seed);
        let opts = LuOptions {
            symbolic: engine,
            format,
            ..LuOptions::default()
        };
        let single = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("single");
        let fleet = fleet_for(&a, devices);
        let sharded = LuFactorization::compute_fleet(&fleet, &a, &opts).expect("fleet");
        assert_factors_bits_eq(
            &sharded,
            &single,
            &format!("{engine:?}/{format:?} x {devices} devices"),
        );
        let fr = sharded.report.fleet.as_ref().expect("fleet report");
        prop_assert_eq!(fr.devices, devices);
        prop_assert!(fr.dead.is_empty());
        // A real fleet must price the fill-count merge's exchange; one
        // device must not.
        prop_assert_eq!(fr.exchanges > 0, devices > 1);
    }
}

#[test]
fn fleet_solves_the_system_it_factorized() {
    let a = circuit(&CircuitParams {
        n: 400,
        nnz_per_row: 6.0,
        seed: 9,
        ..Default::default()
    });
    let fleet = fleet_for(&a, 4);
    let f = LuFactorization::compute_fleet(&fleet, &a, &LuOptions::default()).expect("fleet");
    let x_true = vec![1.0; a.n_rows()];
    let b = a.spmv(&x_true);
    let x = f.solve(&b).expect("solve");
    let err = x
        .iter()
        .zip(&x_true)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f64, f64::max);
    assert!(err < 1e-8, "solve error {err}");
}

#[test]
fn dead_device_reshards_onto_survivors_bit_identically() {
    // Wide levels so device 1's shard is never empty when the fault fires.
    let a = block_banded(64, 12, 4, 77);
    let opts = LuOptions::default();
    let single = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("single");

    let plans = FaultPlan::parse_fleet("dev=1:oom:alloc=1:persistent", 4).expect("plans");
    let cfg = config_for(&a);
    let fleet = DeviceFleet::with_fault_plans(4, cfg, CostModel::default(), &plans);
    let f = LuFactorization::compute_fleet(&fleet, &a, &opts).expect("fleet survives the death");

    assert_factors_bits_eq(&f, &single, "post-death reshard");
    let fr = f.report.fleet.as_ref().expect("fleet report");
    assert_eq!(fr.dead, vec![1], "exactly the targeted device dies");
    assert!(
        fr.resharded_rows + fr.resharded_cols > 0,
        "the dead device's shard must be re-run on survivors"
    );
    let lost: Vec<_> = f
        .report
        .recovery
        .events()
        .iter()
        .filter_map(|e| match e.action {
            RecoveryAction::DeviceLost { device, resharded } => Some((device, resharded)),
            _ => None,
        })
        .collect();
    assert!(
        lost.iter()
            .any(|&(device, resharded)| device == 1 && resharded > 0),
        "recovery log must carry the DeviceLost entry, got {lost:?}"
    );
}

#[test]
fn device_lost_between_dense_batches_reshards_bit_identically() {
    // 40 020-byte devices hold the staged factor plus M = 3 dense column
    // buffers: one device would need six batches a level, so at latencies
    // scaled until a split pays for the host launch it costs the next
    // level, every level is split and each of the two devices runs its 8
    // columns in batches of 3 + 3 + 2. (At default latencies a split no
    // longer beats the next level's 50 ns in-kernel wait, nothing splits
    // and device 1 lands only 5 faults.) Device 1's K-th allocation fails
    // — in symbolic, staging or the buffer pool — or either device loses
    // its K-th batch launch, a level's first or a later one with earlier
    // batches already finished; either way the survivor takes over and
    // the factors are the single-device run's. A finished column factored
    // a second time is a silent wrong answer with the gate off and a
    // typed rejection of a healthy run with it on.
    let a = block_banded(16, 30, 4, 73);
    let cfg = GpuConfig::v100().with_memory(40_020);
    let cost = CostModel::default().scaled_latencies(10);
    for gate_on in [false, true] {
        let mut opts = LuOptions {
            format: NumericFormat::Dense,
            ..LuOptions::default().with_ordering(OrderingKind::Natural)
        };
        opts.gate.enabled = gate_on;
        let single = LuFactorization::compute(&Gpu::new(cfg.clone()), &a, &opts).expect("single");
        assert_eq!(single.report.m_limit, Some(3));
        // The numeric phase allocates once per device (the pool), so dying
        // between batches means losing the K-th launch of the numeric
        // kernel — one launch per batch. Device 0 is also the pipeline's
        // lead, whose symbolic and levelize allocations are not this
        // suite's subject.
        let batch_lost = |dev: usize| {
            (1..=100).map(move |k| (dev, format!("dev={dev}:badlaunch:numeric_dense={k}")))
        };
        let faults = (1..=40)
            .map(|k| (1, format!("dev=1:oom:alloc={k}")))
            .chain(batch_lost(0))
            .chain(batch_lost(1));
        let mut fired = [0usize; 2];
        for (dev, spec) in faults {
            let label = format!("gate {gate_on}, {spec}");
            let plans = FaultPlan::parse_fleet(&spec, 2).expect("plans");
            let fleet = DeviceFleet::with_fault_plans(2, cfg.clone(), cost.clone(), &plans);
            let f = LuFactorization::compute_fleet(&fleet, &a, &opts)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_factors_bits_eq(&f, &single, &label);
            let dead = &f.report.fleet.as_ref().expect("fleet report").dead;
            let logged = f.report.recovery.events().iter().any(
                |e| matches!(e.action, RecoveryAction::DeviceLost { device, .. } if device == dev),
            );
            assert_eq!(logged, !dead.is_empty(), "{label}: DeviceLost entry");
            fired[dev] += usize::from(logged);
        }
        assert!(
            fired[0] >= 30 && fired[1] >= 30,
            "faults must land: {fired:?}"
        );
    }
}

#[test]
fn whole_fleet_fault_plans_broadcast_without_device_prefix() {
    // An unprefixed spec reaches every device. Device 0's second
    // allocation fails while device 1 can take its rows, so device 0 is
    // shed and its half of the rows moves to device 1; device 1's own
    // second allocation fails with no survivor left, so it stays alive
    // and its failure goes to the engine ladder, which runs unified memory
    // on it — what one device with this plan does. The rows device 0 shed
    // were run again on device 1 all the same, and the report counts them.
    let a = block_banded(32, 12, 4, 78);
    let plans = FaultPlan::parse_fleet("oom:alloc=2", 2).expect("plans");
    assert_eq!(plans.len(), 2);
    let fleet = DeviceFleet::with_fault_plans(2, config_for(&a), CostModel::default(), &plans);
    let opts = LuOptions::default();
    let rec = Recorder::new();
    let f =
        LuFactorization::compute_fleet_traced(&fleet, &a, &opts, &rec).expect("the pair survives");
    let single = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("single");
    assert_factors_bits_eq(&f, &single, "oom:alloc=2 on both devices");
    assert_eq!(fleet.alive(), vec![1]);
    let lost = |f: &LuFactorization| -> Vec<_> {
        (f.report.recovery.events().iter())
            .filter(|e| matches!(e.action, RecoveryAction::DeviceLost { .. }))
            .map(|e| e.action.clone())
            .collect()
    };
    let half = a.n_rows() / 2;
    assert_eq!(
        lost(&f),
        vec![RecoveryAction::DeviceLost {
            device: 0,
            resharded: half
        }]
    );
    let report = RunReport::new(a.n_rows(), a.nnz(), f.report.clone(), &rec.into_events());
    check_run_report(&report.to_json()).expect("the report passes its own validator");

    // A numeric level split across the pair loses its first batch launch
    // on both devices: device 0 is shed and its share moves to device 1,
    // whose own failure fails the dense rung. The merge rung runs that
    // share on device 1 all the same, and the report counts it.
    let a = block_banded(16, 30, 4, 73);
    let cfg = GpuConfig::v100().with_memory(40_020);
    let cost = CostModel::default().scaled_latencies(10);
    let opts = LuOptions {
        format: NumericFormat::Dense,
        ..LuOptions::default().with_ordering(OrderingKind::Natural)
    };
    let single = LuFactorization::compute(&Gpu::new(cfg.clone()), &a, &opts).expect("single");
    let plans = FaultPlan::parse_fleet("badlaunch:numeric_dense=1", 2).expect("plans");
    let fleet = DeviceFleet::with_fault_plans(2, cfg, cost, &plans);
    let rec = Recorder::new();
    let f = LuFactorization::compute_fleet_traced(&fleet, &a, &opts, &rec).expect("degrades");
    assert_factors_bits_eq(&f, &single, "badlaunch:numeric_dense=1 on both devices");
    // Level 0's sixteen columns, eight a device.
    assert_eq!(
        lost(&f),
        vec![RecoveryAction::DeviceLost {
            device: 0,
            resharded: 8
        }]
    );
    let report = RunReport::new(a.n_rows(), a.nnz(), f.report.clone(), &rec.into_events());
    check_run_report(&report.to_json()).expect("the report passes its own validator");
}

/// Every whole-fleet plan the fleet suites use, on both devices of a pair,
/// ends as one device with that plan ends: the same outcome class, and on
/// success the clean run's factor bits. A failure sheds its device only
/// while the other can take the work; the last device's failure goes to
/// the ladders a lone device runs.
#[test]
fn a_fleet_with_a_plan_on_every_device_fails_like_one_device() {
    let a = block_banded(32, 12, 4, 78);
    let cfg = config_for(&a);
    let cost = CostModel::default();
    let kernels = [
        "symbolic_1",
        "symbolic_2",
        "prefix_sum",
        "numeric_dense",
        "numeric_sparse",
        "numeric_merge",
        "numeric_blocked",
    ];
    let specs = (1..=8)
        .map(|k| format!("oom:alloc={k}"))
        .chain(["oom:alloc=1:persistent".into(), "squeeze:alloc=2:1".into()])
        .chain(kernels.iter().map(|k| format!("badlaunch:{k}=1")));
    // The outcome class: success, or the error's variant.
    let class = |r: &Result<LuFactorization, GpluError>| {
        r.as_ref().map(drop).map_err(std::mem::discriminant)
    };
    let mut classes = std::collections::HashSet::new();
    for spec in specs {
        let mut fired = false;
        for format in FORMATS {
            let opts = LuOptions {
                format,
                ..LuOptions::default()
            };
            let label = format!("{spec} {format:?}");
            let clean = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("clean");
            let plan = FaultPlan::parse(&spec).expect("plan");
            let gpu = Gpu::with_fault_plan(cfg.clone(), cost.clone(), plan);
            let lone = LuFactorization::compute(&gpu, &a, &opts);
            fired |= gpu.stats().injected_faults() > 0;
            let plans = FaultPlan::parse_fleet(&spec, 2).expect("plans");
            let fleet = DeviceFleet::with_fault_plans(2, cfg.clone(), cost.clone(), &plans);
            let pair = LuFactorization::compute_fleet(&fleet, &a, &opts);
            assert_eq!(class(&pair), class(&lone), "{label}: {pair:?} vs {lone:?}");
            if let Ok(f) = &pair {
                assert_factors_bits_eq(f, &clean, &label);
            }
            assert!(fleet.n_alive() >= 1, "{label}: the last device stays alive");
            classes.insert(class(&lone));
        }
        assert!(fired, "{spec}: the plan never fired");
    }
    assert!(
        classes.len() > 1,
        "some plan must fail the run: {classes:?}"
    );
}

#[test]
fn service_routes_hot_patterns_to_the_device_holding_their_plan() {
    let base = circuit(&CircuitParams {
        n: 250,
        nnz_per_row: 6.0,
        seed: 61,
        ..Default::default()
    });
    let svc = SolverService::start(ServiceConfig {
        workers: 1,
        devices: 4,
        ..Default::default()
    });

    // Cold job homes the pattern on some device (not hot-flagged, so it
    // doesn't count against the hot hit rate it is about to enable).
    let r = svc
        .submit(JobSpec::new(drift(&base, 0), JobKind::Factorize))
        .expect("submit")
        .wait()
        .expect("cold job");
    assert_eq!(r.tier, ExecTier::Cold);
    let home = r.device;

    // Every later refactorization of the pattern lands on the same device
    // and hits its plan.
    for version in 1..=3u64 {
        let r = svc
            .submit(JobSpec::new(drift(&base, version), JobKind::Factorize).hot())
            .expect("submit")
            .wait()
            .expect("hot job");
        assert_ne!(r.tier, ExecTier::Cold, "v{version} must hit the plan");
        assert_eq!(r.device, home, "v{version} must follow the plan's home");
    }

    let stats = svc.stats();
    let d = &stats.devices[home];
    assert_eq!(d.jobs, 4, "all four jobs landed on the home device");
    assert!(
        (d.hot_hit_rate() - 1.0).abs() < f64::EPSILON,
        "home device served every hot job from its plan"
    );
    assert!(d.plan_bytes > 0, "the cold build charged the home arena");
    for (k, other) in stats.devices.iter().enumerate() {
        if k != home {
            assert_eq!(other.jobs, 0, "device {k} must stay idle");
        }
    }
    svc.shutdown();
}
