//! Multi-GPU out-of-core symbolic factorization — the scale-out extension
//! of Algorithm 3.
//!
//! The paper's closest prior work (GSOFA \[11\]) ran partial symbolic
//! factorization on up to 264 GPUs because per-row traversals are
//! embarrassingly parallel across source rows; the paper itself notes a
//! distributed collection "can increase the aggregate available memory".
//! This module extends the single-device out-of-core engine the same way:
//! the source rows are partitioned across `k` simulated devices (each with
//! its own copy of `A`, as in GSOFA), every device runs the two-stage
//! out-of-core procedure on its slice, and the host concatenates the
//! results. Simulated time is the **makespan** over the devices plus the
//! final gather.
//!
//! Partitioning matters because per-row work is wildly skewed (Figure 3:
//! late rows dominate). Two strategies are provided:
//! * [`Partition::Blocked`] — contiguous row ranges (the obvious split;
//!   the last device gets all the heavy rows),
//! * [`Partition::Strided`] — round-robin rows (interleaves the skew, the
//!   static load-balancing GSOFA-style deployments use).

use crate::fill2::Traversals;
use crate::ooc::{charge_row, chunk_size_for, row_state_bytes};
use crate::result::SymbolicResult;
use gplu_sim::{BlockCtx, DeviceFleet, Gpu, SimError, SimTime};
use gplu_sparse::Csr;

/// How source rows are assigned to devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Device `d` owns rows `d·n/k .. (d+1)·n/k`.
    Blocked,
    /// Device `d` owns rows `{ r : r mod k == d }`.
    Strided,
}

/// Outcome of a fleet symbolic run, with liveness and reshard accounting.
#[derive(Debug, Clone)]
pub struct FleetSymbolicOutcome {
    /// The factorization pattern (identical to single-device).
    pub result: SymbolicResult,
    /// Per-device simulated time spent in this phase, indexed by device
    /// ordinal (zero for devices that were dead on entry).
    pub per_device: Vec<SimTime>,
    /// Post-barrier makespan of the phase.
    pub time: SimTime,
    /// Parallel efficiency over the devices that did work.
    pub efficiency: f64,
    /// Devices that died *during this phase* (their work was resharded).
    pub died: Vec<usize>,
    /// Rows re-run on survivors after device deaths.
    pub resharded_rows: usize,
}

/// Runs the two-stage out-of-core fill counting sharded by source-row
/// range across the live devices of `fleet` (GSoFa-style: every device
/// holds its own copy of `A` and traverses its row slice), then prices
/// the fill-count all-gather on the interconnect and barriers.
///
/// A device failure (injected OOM, launch fault, squeeze-induced OOM)
/// marks that device dead and reshards its rows round-robin onto the
/// survivors; the run fails only when a crash is injected
/// ([`SimError::Crashed`] is terminal by design) or every device dies.
/// Because each row's traversal is independent and deterministic, the
/// merged pattern is bit-identical to the single-device engines no matter
/// how many devices run or die.
pub fn symbolic_fleet(
    fleet: &DeviceFleet<'_>,
    a: &Csr,
    partition: Partition,
) -> Result<FleetSymbolicOutcome, SimError> {
    let n = a.n_rows();
    let before: Vec<_> = fleet.devices().iter().map(|g| g.stats()).collect();

    // Each row's one host traversal. Set once, so re-running a dead
    // device's rows on a survivor charges them again but cannot
    // double-count them.
    let traversals = Traversals::new(a);

    // Runs both stages over `rows` on one device; idempotent, so a dead
    // device's slice can simply be re-run elsewhere. Both stages charge a
    // full traversal per row; the host runs fill2 in the first kernel over
    // a row only.
    let run_rows = |gpu: &Gpu, rows: &[u32]| -> Result<(), SimError> {
        if rows.is_empty() {
            return Ok(());
        }
        let a_bytes = (n as u64 + 1 + a.nnz() as u64) * 4;
        let _a_dev = gpu.mem.alloc(a_bytes)?;
        gpu.h2d(a_bytes);
        let chunk = chunk_size_for(gpu, n).clamp(1, rows.len().max(1));
        let _state_dev = gpu.mem.alloc(chunk as u64 * row_state_bytes(n))?;
        for stage in ["fleet_symbolic_1", "fleet_symbolic_2"] {
            for batch in rows.chunks(chunk.max(1)) {
                gpu.launch(stage, batch.len(), 1024, &|b: usize, ctx: &mut BlockCtx| {
                    charge_row(ctx, &traversals.row(batch[b]));
                })?;
            }
        }
        let my_nnz: u64 = rows.iter().map(|&r| traversals.row(r).emitted as u64).sum();
        if my_nnz > 0 {
            gpu.d2h(my_nnz * 4);
        }
        Ok(())
    };

    let assign_rows = |owners: &[usize]| -> Vec<(usize, Vec<u32>)> {
        let k = owners.len();
        owners
            .iter()
            .enumerate()
            .map(|(slot, &d)| {
                let rows = match partition {
                    Partition::Blocked => {
                        let start = slot * n / k;
                        let end = (slot + 1) * n / k;
                        (start as u32..end as u32).collect()
                    }
                    Partition::Strided => (slot as u32..)
                        .step_by(k)
                        .take_while(|&r| (r as usize) < n)
                        .collect(),
                };
                (d, rows)
            })
            .collect()
    };

    let alive = fleet.alive();
    if alive.is_empty() {
        return Err(SimError::BadLaunch("no live devices in fleet".into()));
    }
    let mut pending = assign_rows(&alive);
    let mut died = Vec::new();
    let mut resharded_rows = 0usize;
    let mut last_err: Option<SimError> = None;
    while !pending.is_empty() {
        let mut failed_rows: Vec<u32> = Vec::new();
        for (d, rows) in pending.drain(..) {
            match run_rows(fleet.device(d), &rows) {
                Ok(()) => {}
                Err(e @ SimError::Crashed { .. }) => return Err(e),
                Err(e) => {
                    fleet.mark_dead(d);
                    died.push(d);
                    failed_rows.extend(rows);
                    last_err = Some(e);
                }
            }
        }
        if failed_rows.is_empty() {
            break;
        }
        let survivors = fleet.alive();
        if survivors.is_empty() {
            return Err(last_err.unwrap_or(SimError::BadLaunch(
                "every fleet device died during symbolic".into(),
            )));
        }
        // Round-robin the dead devices' rows onto the survivors.
        resharded_rows += failed_rows.len();
        let mut shards: Vec<(usize, Vec<u32>)> =
            survivors.iter().map(|&d| (d, Vec::new())).collect();
        for (i, r) in failed_rows.into_iter().enumerate() {
            shards[i % survivors.len()].1.push(r);
        }
        pending = shards;
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
    let counts_bytes: Vec<u64> = {
        let mut owned = vec![0u64; fleet.len()];
        for (slot, &d) in fleet.alive().iter().enumerate() {
            let k = fleet.n_alive();
            let rows = match partition {
                Partition::Blocked => ((slot + 1) * n / k - slot * n / k) as u64,
                Partition::Strided => n.div_ceil(k).min(n) as u64,
            };
            owned[d] = rows * 4;
        }
        owned
    };
    fleet.all_gather(&counts_bytes);

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

    let result = traversals.into_result();
    Ok(FleetSymbolicOutcome {
        result,
        per_device,
        time: makespan,
        efficiency,
        died,
        resharded_rows,
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
        assert_eq!(out.per_device.len(), 3);
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
                assert!(out.died.is_empty());
                assert_eq!(out.resharded_rows, 0);
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
        assert_eq!(out.died, vec![2]);
        assert!(out.resharded_rows > 0);
        assert!(f.is_dead(2));
        assert_eq!(f.n_alive(), 3);
        assert_eq!(single.result.filled, out.result.filled, "bit-identical");
    }

    #[test]
    fn whole_fleet_death_is_an_error() {
        let a = banded_dominant(300, 3, 57);
        let plans = gplu_sim::FaultPlan::parse_fleet("badlaunch:*=1:persistent", 2).expect("plans");
        let f = DeviceFleet::with_fault_plans(
            2,
            GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()),
            gplu_sim::CostModel::default(),
            &plans,
        );
        assert!(symbolic_fleet(&f, &a, Partition::Blocked).is_err());
        assert_eq!(f.n_alive(), 0);
    }
}
