//! Multi-GPU out-of-core symbolic factorization — the scale-out extension
//! of Algorithm 3.
//!
//! The paper's closest prior work (GSOFA \[11\]) ran partial symbolic
//! factorization on up to 264 GPUs because per-row traversals are
//! embarrassingly parallel across source rows; the paper itself notes a
//! distributed collection "can increase the aggregate available memory".
//! This module extends the single-device out-of-core engine the same way:
//! the source rows are partitioned across the live devices (each with its
//! own copy of `A`, as in GSOFA), every device runs the one two-stage
//! chunk loop ([`crate::dynamic`]) on its rows, priced as a lone device
//! prices them, and the host assembles the pattern from the shared
//! traversal memo. Simulated time is the **makespan** over the devices
//! plus the fill-count all-gather. A lone device is one shard, `0..n`, and
//! no gather. A failing device is shed under the fleet's one loss rule
//! ([`DeviceFleet::lose`]) and its rows re-run on the survivors; the last
//! live device's failure is the caller's, at every fleet size.
//!
//! Partitioning matters because per-row work is wildly skewed (Figure 3:
//! late rows dominate). Two strategies are provided:
//! * [`Partition::Blocked`] — contiguous row ranges (the obvious split;
//!   the last device gets all the heavy rows),
//! * [`Partition::Strided`] — round-robin rows (interleaves the skew, the
//!   static load-balancing GSOFA-style deployments use).

use crate::dynamic::{plan_split, two_stage, SplitRule, TwoStageRun};
use crate::fill2::Traversals;
use crate::result::SymbolicResult;
use crate::resume::{ChunkHook, SymbolicResume};
use gplu_sim::{DeviceFleet, SimError, SimTime};
use gplu_sparse::Csr;
use gplu_trace::{TraceSink, NOOP};

/// How source rows are assigned to devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Device `d` owns rows `d·n/k .. (d+1)·n/k`.
    Blocked,
    /// Device `d` owns rows `{ r : r mod k == d }`.
    Strided,
}

/// Outcome of a fleet symbolic run. Which devices it lost, the rows
/// their losses cost and each device's clock are the fleet's to say
/// ([`DeviceFleet::is_dead`], [`DeviceFleet::stats`]).
#[derive(Debug, Clone)]
pub struct FleetSymbolicOutcome {
    /// The factorization pattern (identical to single-device).
    pub result: SymbolicResult,
    /// The shards' chunk-loop counters, added up.
    pub run: TwoStageRun,
    /// Post-barrier makespan of the phase.
    pub time: SimTime,
    /// Parallel efficiency over the devices that did work.
    pub efficiency: f64,
}

/// Runs Algorithm 4 ([`crate::symbolic_ooc_dynamic`]) sharded by source
/// row across the live devices of `fleet` (GSoFa-style: every device holds
/// its own copy of `A`), then prices the fill-count all-gather on the
/// interconnect and barriers.
///
/// A device failure (injected OOM past the backoff, launch fault,
/// squeeze-induced OOM) goes through the fleet's one loss rule
/// ([`DeviceFleet::lose`]): while another live device can take the work,
/// the failing device is marked dead and its rows reshard round-robin onto
/// the survivors. The last live device's failure is returned with the
/// device alive, as a lone `Gpu` returns it, and a terminal error is
/// returned at once. Because each row's traversal is independent and
/// deterministic, the merged pattern is bit-identical to the single-device
/// engines no matter how many devices run or die.
pub fn symbolic_fleet(
    fleet: &DeviceFleet<'_>,
    a: &Csr,
    partition: Partition,
) -> Result<FleetSymbolicOutcome, SimError> {
    run_sharded(fleet, a, partition, plan_split, &NOOP, None, None)
}

/// What [`symbolic_fleet`] and both out-of-core `_run` entry points run:
/// one [`two_stage`] per live device under `split_rule`, then the
/// count all-gather. Resume state and the chunk hook need a fleet of one.
pub(crate) fn run_sharded(
    fleet: &DeviceFleet<'_>,
    a: &Csr,
    partition: Partition,
    split_rule: SplitRule,
    trace: &dyn TraceSink,
    resume: Option<&SymbolicResume>,
    mut hook: Option<&mut ChunkHook<'_>>,
) -> Result<FleetSymbolicOutcome, SimError> {
    let n = a.n_rows();
    let before: Vec<_> = fleet.devices().iter().map(|g| g.stats()).collect();
    let alive = fleet.alive();
    if alive.is_empty() {
        return Err(SimError::Aborted("no live devices in fleet".into()));
    }
    if alive.len() > 1 && (resume.is_some() || hook.is_some()) {
        return Err(SimError::Aborted("resume needs a fleet of one".into()));
    }

    // Each row's one host traversal, shared by every device. Set once, so
    // re-running a dead device's rows on a survivor charges them again but
    // cannot double-count them.
    let traversals = Traversals::new(a);
    let k = alive.len();
    let share = |slot: usize| match partition {
        Partition::Blocked => (slot * n / k..(slot + 1) * n / k).step_by(1),
        Partition::Strided => (slot..n).step_by(k),
    };
    let mut pending: Vec<(usize, Vec<u32>)> = (alive.iter().enumerate())
        .map(|(slot, &d)| (d, share(slot).map(|r| r as u32).collect()))
        .collect();
    let mut owned = vec![0u64; fleet.len()];
    let mut run: Option<TwoStageRun> = None;
    while !pending.is_empty() {
        let mut failed_rows: Vec<u32> = Vec::new();
        for (d, rows) in pending.drain(..) {
            if rows.is_empty() {
                continue;
            }
            let gpu = fleet.device(d);
            let hook = hook.as_deref_mut();
            match two_stage(gpu, a, &rows, &traversals, trace, split_rule, resume, hook) {
                Ok(r) => {
                    owned[d] += rows.len() as u64 * 4;
                    run = Some(run.map_or(r, |t| t.and(r)));
                }
                Err(e) => {
                    // Counted as it moves off `d`, whether or not a
                    // survivor finishes it.
                    fleet.lose(d, e)?;
                    fleet.reshard(rows.len());
                    failed_rows.extend(rows);
                }
            }
        }
        if failed_rows.is_empty() {
            break;
        }
        // Round-robin the dead devices' rows onto the survivors (`lose`
        // leaves at least one).
        let survivors = fleet.alive();
        failed_rows.sort_unstable();
        for (i, &d) in survivors.iter().enumerate() {
            let share = failed_rows.iter().skip(i).step_by(survivors.len());
            pending.push((d, share.copied().collect()));
        }
    }

    let elapsed = || -> Vec<SimTime> {
        let devices = fleet.devices().iter().zip(&before);
        devices.map(|(g, b)| g.stats().since(b).now).collect()
    };
    // Each working device's busy share, read before the count merge: the
    // barrier below levels every live clock, which would make any
    // partition look perfectly balanced.
    let busy: SimTime = {
        let t = elapsed();
        fleet.alive().iter().map(|&d| t[d]).sum()
    };

    // GSoFa's count merge: every live device gathers the others' per-row
    // fill counts (4 bytes per row it does not own) over the peer links,
    // then the fleet barriers before the host-side pattern merge.
    fleet.all_gather(&owned);

    let per_device = elapsed();
    let worked: Vec<SimTime> = fleet
        .alive()
        .iter()
        .map(|&d| per_device[d])
        .filter(|t| t.as_ns() > 0.0)
        .collect();
    let makespan = worked.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let efficiency = if makespan.as_ns() > 0.0 && !worked.is_empty() {
        busy.as_ns() / (worked.len() as f64 * makespan.as_ns())
    } else {
        1.0
    };

    Ok(FleetSymbolicOutcome {
        result: traversals.into_result(),
        run: run.unwrap_or_default(),
        time: makespan,
        efficiency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooc::symbolic_ooc;
    use gplu_sim::GpuConfig;
    use gplu_sparse::gen::random::banded_dominant;

    fn device_fleet(a: &Csr, k: usize) -> DeviceFleet<'static> {
        DeviceFleet::new(k, GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()))
    }

    #[test]
    fn more_devices_reduce_makespan() {
        let a = banded_dominant(1500, 6, 52);
        let one = symbolic_fleet(&device_fleet(&a, 1), &a, Partition::Strided).expect("k=1");
        let four = symbolic_fleet(&device_fleet(&a, 4), &a, Partition::Strided).expect("k=4");
        assert!(
            four.time.as_ns() < one.time.as_ns() / 2.0,
            "4 devices {} should at least halve 1 device {}",
            four.time,
            one.time
        );
    }

    #[test]
    fn strided_beats_blocked_on_skewed_work() {
        // Banded matrices have the Figure 3 skew: late rows are much
        // heavier, so a blocked split starves devices 0..k-1.
        let a = banded_dominant(1600, 6, 53);
        let blocked =
            symbolic_fleet(&device_fleet(&a, 4), &a, Partition::Blocked).expect("blocked");
        let strided =
            symbolic_fleet(&device_fleet(&a, 4), &a, Partition::Strided).expect("strided");
        assert!(
            strided.time < blocked.time,
            "strided {} must beat blocked {} under skew",
            strided.time,
            blocked.time
        );
        assert!(strided.efficiency > blocked.efficiency);
    }

    #[test]
    fn efficiency_is_a_fraction() {
        let a = banded_dominant(600, 4, 54);
        let out = symbolic_fleet(&device_fleet(&a, 3), &a, Partition::Strided).expect("runs");
        assert!(out.efficiency > 0.0 && out.efficiency <= 1.0 + 1e-9);
    }

    #[test]
    fn fleet_matches_single_device_pattern_at_every_count() {
        let a = banded_dominant(800, 5, 51);
        let single = symbolic_ooc(device_fleet(&a, 1).device(0), &a).expect("single");
        for k in [1, 2, 4, 8] {
            for partition in [Partition::Blocked, Partition::Strided] {
                let f = device_fleet(&a, k);
                let out = symbolic_fleet(&f, &a, partition).expect("fleet");
                assert_eq!(
                    single.result.filled, out.result.filled,
                    "k={k} {partition:?}"
                );
                assert_eq!(f.n_alive(), k);
                assert_eq!(f.stats().resharded, 0);
            }
        }
    }

    #[test]
    fn fleet_charges_interconnect_for_count_gather() {
        let a = banded_dominant(600, 4, 55);
        let f = device_fleet(&a, 4);
        symbolic_fleet(&f, &a, Partition::Strided).expect("fleet");
        let ic = f.stats().interconnect;
        assert_eq!(ic.exchanges, 4, "one gather leg per live device");
        assert!(ic.bytes > 0);
        // A single device never touches the interconnect.
        let f1 = device_fleet(&a, 1);
        symbolic_fleet(&f1, &a, Partition::Strided).expect("fleet");
        assert_eq!(f1.stats().interconnect.exchanges, 0);
    }

    #[test]
    fn dead_device_reshards_onto_survivors_bit_identically() {
        let a = banded_dominant(700, 5, 56);
        let single = symbolic_ooc(device_fleet(&a, 1).device(0), &a).expect("single");
        // Device 2's first launch dies persistently: it is marked dead
        // and its rows re-run on the survivors.
        let plans =
            gplu_sim::FaultPlan::parse_fleet("dev=2:badlaunch:*=1:persistent", 4).expect("plans");
        let f = DeviceFleet::with_fault_plans(
            4,
            GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()),
            gplu_sim::CostModel::default(),
            &plans,
        );
        let out = symbolic_fleet(&f, &a, Partition::Strided).expect("fleet survives");
        assert!(f.stats().resharded > 0);
        assert_eq!(f.alive(), vec![0, 1, 3]);
        assert_eq!(single.result.filled, out.result.filled, "bit-identical");
    }

    #[test]
    fn the_last_live_device_fails_alive_like_a_lone_device() {
        let a = banded_dominant(300, 3, 57);
        let cfg = GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
        let cost = gplu_sim::CostModel::default();
        let lone = {
            let plans = gplu_sim::FaultPlan::parse_fleet("badlaunch:*=1:persistent", 1);
            let f =
                DeviceFleet::with_fault_plans(1, cfg.clone(), cost.clone(), &plans.expect("plans"));
            symbolic_fleet(&f, &a, Partition::Blocked).expect_err("a lone device fails")
        };
        let plans = gplu_sim::FaultPlan::parse_fleet("badlaunch:*=1:persistent", 2).expect("plans");
        let f = DeviceFleet::with_fault_plans(2, cfg, cost, &plans);
        let err = symbolic_fleet(&f, &a, Partition::Blocked).expect_err("the pair fails");
        assert_eq!(err, lone);
        assert_eq!(f.alive(), vec![1], "device 0 is shed, device 1 stays alive");
    }
}
