//! The fleet-taking entry points: [`LuFactorization::compute_fleet`] runs
//! the pipeline's one driver ([`crate::pipeline`]) on a caller-built
//! [`DeviceFleet`].
//!
//! There is no second pipeline behind these: `compute` itself runs that
//! driver on a borrowed fleet of one. What an entry point taking a fleet
//! chooses is only that [`crate::PhaseReport::fleet`] is filled
//! (per-device clock advance and busy time, deaths, interconnect traffic),
//! at every device count — `compute_fleet` on one device is `compute`.
//!
//! Sharding never touches values — the out-of-core symbolic engines run
//! one two-stage shard per live device over its source rows (unified
//! memory runs on the lead), and the numeric phase splits a schedule level
//! by column range when the cost model quotes the split below running it
//! whole on the home device — but both compute on host-deterministic
//! state, so the factors are **bit-identical** to `compute` for every
//! engine and device count (the `fleet` integration suite proves it).
//! What the fleet changes is *pricing*: each device's clock advances only
//! for its own shard, and every fill-count merge and every leg a split
//! level ships is charged on the NVLink interconnect terms of the cost
//! model.
//!
//! A device that fails (injected OOM past the chunk backoff, or a launch
//! fault) while another is still alive is marked dead, a survivor pays for
//! what it alone held, and the loss lands in the recovery log as
//! [`RecoveryAction::DeviceLost`]. Both phases hand the *last* live
//! device's failure to their ladders, exactly as a lone `Gpu`'s.
//!
//! [`RecoveryAction::DeviceLost`]: crate::RecoveryAction::DeviceLost

use crate::error::GpluError;
use crate::pipeline::{compute_on, LuFactorization, LuOptions};
use gplu_sim::DeviceFleet;
use gplu_trace::{TraceSink, NOOP};

impl LuFactorization {
    /// Runs the full pipeline across `fleet`. See the module docs for the
    /// sharding discipline; the result is bit-identical to
    /// [`LuFactorization::compute`] on one device with the same options.
    ///
    /// [`crate::PhaseReport::fleet`] carries the per-device accounting
    /// (clock advance, busy time, deaths, interconnect traffic).
    pub fn compute_fleet(
        fleet: &DeviceFleet<'_>,
        a: &gplu_sparse::Csr,
        opts: &LuOptions,
    ) -> Result<Self, GpluError> {
        Self::compute_fleet_traced(fleet, a, opts, &NOOP)
    }

    /// [`LuFactorization::compute_fleet`] with telemetry: the spans of
    /// [`LuFactorization::compute_traced`], with the live device count in
    /// the `devices` attribute of the phase spans; a `numeric.level` span's
    /// `devices` is how many devices that level ran on, and its end event
    /// carries the two quotes that decided it.
    pub fn compute_fleet_traced(
        fleet: &DeviceFleet<'_>,
        a: &gplu_sparse::Csr,
        opts: &LuOptions,
        trace: &dyn TraceSink,
    ) -> Result<Self, GpluError> {
        compute_on(fleet, true, a, opts, None, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{NumericFormat, SymbolicEngine};
    use crate::telemetry::RunReport;
    use crate::RecoveryAction;
    use gplu_sim::{FaultPlan, Gpu, GpuConfig};
    use gplu_sparse::gen::random::random_dominant;
    use gplu_trace::{JsonValue, Recorder};

    fn bits_equal(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn fleet_run_is_bit_identical_and_reports_the_fleet_section() {
        let a = random_dominant(150, 4.0, 5);
        let opts = LuOptions::default();
        let single =
            LuFactorization::compute(&Gpu::new(GpuConfig::v100()), &a, &opts).expect("single");
        let fleet = DeviceFleet::new(4, GpuConfig::v100());
        let f = LuFactorization::compute_fleet(&fleet, &a, &opts).expect("fleet");
        assert!(bits_equal(&single.lu.vals, &f.lu.vals));
        let fr = f.report.fleet.as_ref().expect("fleet report");
        assert_eq!(fr.devices, 4);
        assert!(fr.dead.is_empty());
        assert!(fr.exchanges > 0, "the fill-count merge prices its legs");
        assert_eq!(fr.per_device_ns.len(), 4);
        assert!(fr.per_device_ns.iter().all(|&ns| ns > 0.0));
        // Barriers level the clocks; busy time is what tells devices apart.
        // The levelize phase runs on device 0 while the others wait.
        let busy = &fr.per_device_busy_ns;
        assert_eq!(busy.len(), 4);
        assert!(busy.iter().zip(&fr.per_device_ns).all(|(b, t)| b <= t));
        assert!(busy[0] > busy[1], "device 0 led: {busy:?}");
        // A single-device run has no fleet section at all.
        assert!(single.report.fleet.is_none());
    }

    #[test]
    fn traced_fleet_run_feeds_the_run_report_fleet_json() {
        let a = random_dominant(120, 4.0, 9);
        let fleet = DeviceFleet::new(2, GpuConfig::v100());
        let rec = Recorder::new();
        let f = LuFactorization::compute_fleet_traced(&fleet, &a, &LuOptions::default(), &rec)
            .expect("fleet");
        let events = rec.into_events();
        let has_attr = |name: &str, attr: &str| {
            let mut named = events.iter().filter(|e| e.name == name);
            named.any(|e| e.attrs.iter().any(|(k, _)| *k == attr))
        };
        assert!(
            has_attr("numeric.level", "devices"),
            "fleet spans must carry the device-count attribute"
        );
        // Why a level was or was not split is in the trace: both quotes,
        // and the interconnect's part of the split one.
        for attr in ["quote_home_ns", "quote_split_ns", "legs_ns"] {
            assert!(has_attr("numeric.level", attr), "level spans lack {attr}");
        }
        let attr_of = |e: &gplu_trace::TraceEvent, key: &str| {
            let found = e.attrs.iter().find(|(k, _)| *k == key);
            found.and_then(|(_, v)| v.as_f64())
        };
        let quoted = events
            .iter()
            .filter(|e| e.name == "numeric.level")
            .filter_map(|e| {
                let quotes = (attr_of(e, "quote_home_ns")?, attr_of(e, "quote_split_ns")?);
                let launch = e.attr("launch").and_then(|v| v.as_str());
                Some((attr_of(e, "devices")?, quotes, launch))
            });
        for (ran_on, (home, split), launch) in quoted {
            assert_eq!(
                ran_on > 1.0,
                split < home,
                "a level leaves home exactly when the split quote is lower"
            );
            // Each share of a split level is a host launch on its device.
            assert!(ran_on == 1.0 || launch == Some("host"), "{launch:?}");
        }
        // The level loop is the single-device one: per-level engine
        // attributes and drift samples at every fleet size.
        assert!(
            has_attr("numeric.level", "batches") || has_attr("numeric.level", "merge_steps"),
            "level spans must carry the engine's per-level counter"
        );
        assert!(
            events.iter().any(|e| e.name == "drift.sample"),
            "fleet runs must feed the drift profiler"
        );
        let json = RunReport::new(a.n_rows(), a.nnz(), f.report.clone(), &events).to_json();
        let fl = json.get("fleet").expect("fleet section in the run report");
        assert_eq!(fl.get("devices").and_then(JsonValue::as_u64), Some(2));
        for key in ["per_device_ns", "per_device_busy_ns"] {
            let len = fl.get(key).and_then(JsonValue::as_arr).map(<[_]>::len);
            assert_eq!(len, Some(2), "{key}");
        }
    }

    #[test]
    fn the_last_live_devices_failure_degrades_the_format_at_every_count() {
        let a = random_dominant(200, 4.0, 11);
        let opts = LuOptions {
            format: NumericFormat::Dense,
            ..Default::default()
        };
        let clean = LuFactorization::compute(&Gpu::new(GpuConfig::v100()), &a, &opts).expect("ok");
        for devices in [1, 2] {
            // Every device rejects the dense kernel: devices with a
            // survivor beside them are lost, the last one hands its error
            // to the format ladder — as a lone `Gpu` does.
            let plan = FaultPlan::new().persistent_bad_launch("numeric_dense", 1);
            let fleet = DeviceFleet::with_fault_plans(
                devices,
                GpuConfig::v100(),
                gplu_sim::CostModel::default(),
                &vec![plan; devices],
            );
            let f = LuFactorization::compute_fleet(&fleet, &a, &opts)
                .unwrap_or_else(|e| panic!("{devices} devices: {e}"));
            assert!(bits_equal(&clean.lu.vals, &f.lu.vals), "{devices} devices");
            let log = f.report.recovery.events();
            assert!(
                log.iter().any(|e| matches!(
                    &e.action,
                    RecoveryAction::FormatDegraded { from, to }
                        if from == "Dense" && to == "SparseMerge"
                )),
                "{devices} devices: {}",
                f.report.recovery.summary()
            );
            let lost: Vec<usize> = log
                .iter()
                .filter_map(|e| match e.action {
                    RecoveryAction::DeviceLost { device, .. } => Some(device),
                    _ => None,
                })
                .collect();
            assert_eq!(lost, (0..devices - 1).collect::<Vec<_>>());
            assert_eq!(fleet.n_alive(), 1);
        }
    }

    /// A fleet of one is `compute`: the same symbolic engine, priced the
    /// same, on every engine the ladder starts from.
    #[test]
    fn compute_fleet_on_one_device_is_compute_to_the_bit_for_every_symbolic_engine() {
        let a = random_dominant(600, 4.0, 13);
        let cfg = GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
        for symbolic in [
            SymbolicEngine::Ooc,
            SymbolicEngine::OocDynamic,
            SymbolicEngine::UmNoPrefetch,
            SymbolicEngine::UmPrefetch,
        ] {
            let opts = LuOptions {
                symbolic,
                ..Default::default()
            };
            let gpu = Gpu::new(cfg.clone());
            let single = LuFactorization::compute(&gpu, &a, &opts).expect("compute");
            let fleet = DeviceFleet::new(1, cfg.clone());
            let f = LuFactorization::compute_fleet(&fleet, &a, &opts).expect("compute_fleet");
            let (s, r) = (&single.report, &f.report);
            assert!(bits_equal(&single.lu.vals, &f.lu.vals), "{symbolic:?}");
            assert_eq!(single.lu.row_idx, f.lu.row_idx, "{symbolic:?}");
            let bits = |t: gplu_sim::SimTime| t.as_ns().to_bits();
            assert_eq!(bits(s.total()), bits(r.total()), "{symbolic:?}");
            assert_eq!(bits(s.symbolic), bits(r.symbolic), "{symbolic:?}");
            assert_eq!(s.chunk_size, r.chunk_size, "{symbolic:?}");
            assert_eq!(s.symbolic_iterations, r.symbolic_iterations, "{symbolic:?}");
            // Debug prints each f64 in its shortest round-trip form.
            let stats = |r: &crate::PhaseReport| format!("{:?}", r.phase_stats);
            assert_eq!(stats(s), stats(r), "{symbolic:?}");
            assert_eq!(bits(gpu.now()), bits(fleet.device(0).now()), "{symbolic:?}");
            if matches!(symbolic, SymbolicEngine::Ooc | SymbolicEngine::OocDynamic) {
                assert!(s.symbolic_iterations > 1, "{symbolic:?} must chunk");
            }
        }
    }

    /// One device of two fails its first traversal-state allocation once:
    /// the two-stage shard halves its chunk and carries on, as a lone
    /// device does, and no device is lost.
    #[test]
    fn a_transient_oom_on_one_device_backs_off_its_chunk_and_loses_no_device() {
        let a = random_dominant(600, 4.0, 17);
        let cfg = GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
        let opts = LuOptions::default();
        let clean = LuFactorization::compute(&Gpu::new(cfg.clone()), &a, &opts).expect("clean");
        // Ordinal 3 on device 1: matrix, counts, then the state of its
        // first counting chunk.
        let plans = FaultPlan::parse_fleet("dev=1:oom:alloc=3", 2).expect("plans");
        let cost = gplu_sim::CostModel::default();
        let fleet = DeviceFleet::with_fault_plans(2, cfg, cost, &plans);
        let f = LuFactorization::compute_fleet(&fleet, &a, &opts).expect("backoff absorbs it");
        assert_eq!(fleet.device(1).stats().injected_oom, 1);
        let log = f.report.recovery.events();
        assert!(
            log.iter()
                .any(|e| matches!(e.action, RecoveryAction::ChunkBackoff { backoffs: 1, .. })),
            "{}",
            f.report.recovery.summary()
        );
        assert!(
            !log.iter()
                .any(|e| matches!(e.action, RecoveryAction::DeviceLost { .. })),
            "{}",
            f.report.recovery.summary()
        );
        assert_eq!(fleet.n_alive(), 2);
        let fr = f.report.fleet.as_ref().expect("fleet report");
        assert!(fr.dead.is_empty() && fr.resharded_rows == 0);
        assert_eq!(clean.lu.col_ptr, f.lu.col_ptr);
        assert_eq!(clean.lu.row_idx, f.lu.row_idx);
        assert!(bits_equal(&clean.lu.vals, &f.lu.vals));
    }

    /// A fleet's symbolic statistics are every device's delta summed: the
    /// launches and bytes of the same sharded engine run alone on a fresh
    /// fleet of two, device by device. On one device the sum is that
    /// device's own delta, as `compute` reports it.
    #[test]
    fn fleet_symbolic_stats_sum_every_device_s_delta() {
        let a = random_dominant(600, 4.0, 17);
        let cfg = GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
        let opts = LuOptions {
            symbolic: SymbolicEngine::OocDynamic,
            ..Default::default()
        };
        let fleet = DeviceFleet::new(2, cfg.clone());
        let f = LuFactorization::compute_fleet(&fleet, &a, &opts).expect("compute_fleet");

        let pre = crate::preprocess(&a, &opts.preprocess, fleet.device(0).cost()).expect("pre");
        let alone = DeviceFleet::new(2, cfg.clone());
        let before = alone.stats();
        gplu_symbolic::symbolic_ooc_dynamic_run(&alone, &pre.matrix, &NOOP, None, None)
            .expect("the phase alone");
        let after = alone.stats();
        let launches_and_bytes = |s: &gplu_sim::GpuStatsSnapshot| {
            [s.kernels_host, s.kernels_device, s.h2d_bytes, s.d2h_bytes]
        };
        let per_device: Vec<[u64; 4]> = after
            .devices
            .iter()
            .zip(&before.devices)
            .map(|(now, then)| launches_and_bytes(&now.stats.since(&then.stats)))
            .collect();
        assert!(
            per_device.iter().all(|d| d[0] > 0),
            "both devices ran: {per_device:?}"
        );
        let sum: Vec<u64> = (0..4)
            .map(|k| per_device[0][k] + per_device[1][k])
            .collect();
        assert_eq!(
            launches_and_bytes(&f.report.phase_stats.symbolic).to_vec(),
            sum
        );

        let single = LuFactorization::compute(&Gpu::new(cfg.clone()), &a, &opts).expect("compute");
        let one = DeviceFleet::new(1, cfg);
        let f1 = LuFactorization::compute_fleet(&one, &a, &opts).expect("fleet of one");
        assert_eq!(
            format!("{:?}", single.report.phase_stats.symbolic),
            format!("{:?}", f1.report.phase_stats.symbolic)
        );
    }

    /// The numeric twin: every device stages the pattern, and at launch
    /// latencies a tenth of the V100's the dense engine splits levels
    /// across both devices, each share a launch of its own. So the
    /// numeric phase's statistics are every device's delta summed too,
    /// and with the other phases' they account for every launch and byte
    /// the fleet ran.
    #[test]
    fn fleet_numeric_stats_sum_every_device_s_delta() {
        let a = random_dominant(600, 4.0, 17);
        let cfg = GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
        let cost = gplu_sim::CostModel::default().scaled_latencies(10);
        let fleet = DeviceFleet::with_cost(2, cfg, cost);
        let opts = LuOptions {
            format: NumericFormat::Dense,
            ..Default::default()
        };
        let before = fleet.stats();
        let f = LuFactorization::compute_fleet(&fleet, &a, &opts).expect("compute_fleet");
        let after = fleet.stats();
        let launches_and_bytes = |s: &gplu_sim::GpuStatsSnapshot| {
            [s.kernels_host, s.kernels_device, s.h2d_bytes, s.d2h_bytes]
        };
        let p = &f.report.phase_stats;
        assert!(p.numeric.kernels_host > 1, "levels split: {:?}", p.numeric);
        let phases = p.preprocess + p.symbolic + p.levelize + p.numeric;
        assert_eq!(
            launches_and_bytes(&phases),
            launches_and_bytes(&after.summed_since(&before))
        );
    }

    #[test]
    fn dead_device_lands_in_the_recovery_log() {
        let a = random_dominant(200, 4.0, 7);
        let plans = FaultPlan::parse_fleet("dev=1:oom:alloc=1:persistent", 4).expect("plans");
        let fleet = DeviceFleet::with_fault_plans(
            4,
            GpuConfig::v100(),
            gplu_sim::CostModel::default(),
            &plans,
        );
        let f = LuFactorization::compute_fleet(&fleet, &a, &LuOptions::default())
            .expect("survivors absorb the shard");
        let fr = f.report.fleet.as_ref().expect("fleet report");
        assert_eq!(fr.dead, vec![1]);
        assert!(f.report.recovery.events().iter().any(|e| matches!(
            e.action,
            RecoveryAction::DeviceLost { device: 1, resharded } if resharded > 0
        )));
    }
}
