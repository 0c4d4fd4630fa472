//! The fleet-taking entry points: [`LuFactorization::compute_fleet`] runs
//! the pipeline's one driver ([`crate::pipeline`]) on a caller-built
//! [`DeviceFleet`].
//!
//! There is no second pipeline behind these: `compute` itself runs that
//! driver on a borrowed fleet of one. What an entry point taking a fleet
//! chooses is the symbolic engine — fill counting sharded by source-row
//! range (`symbolic_fleet`, priced as `FleetOoc`) instead of the
//! `opts.symbolic` ladder — and that [`crate::PhaseReport::fleet`] is
//! filled (per-device busy times, deaths, interconnect traffic), at every
//! device count including one.
//!
//! Sharding never touches values — the symbolic phase splits by source
//! row and the numeric phase splits each schedule level by column range,
//! but both compute on host-deterministic state, so the factors are
//! **bit-identical** to `compute` for every engine and device count (the
//! `fleet` integration suite proves it). What the fleet changes is
//! *pricing*: each device's clock advances only for its own shard, and
//! every level barrier / fill-count merge is charged on the NVLink
//! interconnect terms of the cost model.
//!
//! A device that fails (injected OOM or launch fault) while another is
//! still alive is marked dead, its work reshards onto the survivors, and
//! the loss lands in the recovery log as [`RecoveryAction::DeviceLost`].
//! The numeric phase hands the *last* live device's failure to the format
//! ladder instead, exactly as a lone `Gpu`'s; only an injected crash or a
//! whole-fleet death in the symbolic phase is terminal.
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
    /// (busy times, deaths, interconnect traffic).
    pub fn compute_fleet(
        fleet: &DeviceFleet<'_>,
        a: &gplu_sparse::Csr,
        opts: &LuOptions,
    ) -> Result<Self, GpluError> {
        Self::compute_fleet_traced(fleet, a, opts, &NOOP)
    }

    /// [`LuFactorization::compute_fleet`] with telemetry: the spans of
    /// [`LuFactorization::compute_traced`], with the live device count in
    /// the `devices` attribute of the phase and per-level numeric spans.
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
    use crate::pipeline::NumericFormat;
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
        assert!(fr.exchanges > 0, "level barriers price the exchange");
        assert_eq!(fr.per_device_ns.len(), 4);
        assert!(fr.per_device_ns.iter().all(|&ns| ns > 0.0));
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
        assert_eq!(
            fl.get("per_device_ns")
                .and_then(JsonValue::as_arr)
                .map(<[JsonValue]>::len),
            Some(2)
        );
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
