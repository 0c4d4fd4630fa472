//! A fleet of independent simulated devices plus the interconnect that
//! joins them.
//!
//! Every device of a [`DeviceFleet`] owns its *own* memory arena, clock,
//! statistics and (optionally) fault injector — exactly the isolation a
//! real multi-GPU node provides. What the fleet adds on top is the part a
//! single [`Gpu`] cannot model:
//!
//! * **cross-device exchange** priced through the NVLink terms of
//!   [`CostModel`](crate::CostModel): one receive primitive
//!   ([`DeviceFleet::receive`]) and the all-gather built from it
//!   ([`DeviceFleet::all_gather`]),
//! * **barriers** that advance every live clock to the fleet-wide maximum
//!   (a sharded phase cannot finish before its slowest shard) and record
//!   how long each device waited there,
//! * **liveness tracking** under one loss rule ([`DeviceFleet::lose`]): a
//!   failure sheds its device only while another live device can take
//!   the work, so callers reshard onto the survivors, and the last live
//!   device's failure goes to the caller, as a lone device's does.
//!
//! Sharded drivers (`gplu-symbolic`'s fleet fill counting, `gplu-numeric`'s
//! level-partitioned engines) compute values in exactly the same
//! deterministic host-side code as their single-device counterparts; the
//! fleet only changes *pricing* — which is what keeps sharded results
//! bit-identical at every device count.

use crate::clock::SimTime;
use crate::config::GpuConfig;
use crate::cost::CostModel;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::launch::Gpu;
use crate::stats::GpuStatsSnapshot;
use parking_lot::Mutex;

/// Interconnect accounting accumulated across the fleet's lifetime.
#[derive(Debug, Default, Clone)]
pub struct InterconnectStats {
    /// Number of priced cross-device exchanges (one leg per receive; an
    /// all-gather over `k` devices counts `k` legs).
    pub exchanges: u64,
    /// Total bytes moved across the interconnect.
    pub bytes: u64,
    /// Total simulated time charged to exchanges (summed over devices —
    /// legs on different devices overlap in wall-clock).
    pub time: SimTime,
}

/// One device's slice of a fleet statistics snapshot.
#[derive(Debug, Clone)]
pub struct FleetDeviceStats {
    /// Device ordinal within the fleet.
    pub device: usize,
    /// Whether the device has been marked dead.
    pub dead: bool,
    /// The device's own counters.
    pub stats: GpuStatsSnapshot,
    /// Clock advance spent waiting at barriers for a slower device — the
    /// part of `stats.now` that is not busy time.
    pub barrier_wait: SimTime,
    /// Arena bytes currently allocated.
    pub mem_used: u64,
    /// Arena high-water mark.
    pub mem_peak: u64,
    /// Arena capacity.
    pub mem_capacity: u64,
}

impl FleetDeviceStats {
    /// The device's clock advance since the earlier reading `then`, and
    /// the part of it not spent waiting at barriers: its busy time.
    pub fn elapsed_and_busy_since(&self, then: &FleetDeviceStats) -> (SimTime, SimTime) {
        let elapsed = self.stats.since(&then.stats).now;
        let waited = self.barrier_wait - then.barrier_wait;
        (elapsed, elapsed.saturating_sub(waited))
    }
}

/// A consistent reading of the whole fleet.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Per-device snapshots, indexed by device ordinal.
    pub devices: Vec<FleetDeviceStats>,
    /// Interconnect accounting.
    pub interconnect: InterconnectStats,
    /// Work units (rows or columns) lost devices shed onto survivors.
    pub resharded: usize,
}

impl FleetStats {
    /// Every device's statistics delta since the earlier reading `then`,
    /// summed: what a phase the whole fleet ran on cost.
    pub fn summed_since(&self, then: &FleetStats) -> GpuStatsSnapshot {
        let deltas = self.devices.iter().zip(&then.devices);
        deltas
            .map(|(now, then)| now.stats.since(&then.stats))
            .fold(GpuStatsSnapshot::default(), |sum, d| sum + d)
    }
}

/// `N` independent simulated devices joined by an NVLink-priced
/// interconnect. See the module docs.
///
/// A fleet normally owns its devices (`DeviceFleet<'static>`); a **fleet
/// of one** can instead borrow a caller's [`Gpu`] ([`From<&Gpu>`]), which
/// is how the single-device entry points run on the fleet drivers while
/// the caller keeps reading its own clock, arena and statistics.
#[derive(Debug)]
pub struct DeviceFleet<'a> {
    devices: Devices<'a>,
    dead: Mutex<Vec<bool>>,
    barrier_wait: Mutex<Vec<SimTime>>,
    interconnect: Mutex<InterconnectStats>,
    resharded: Mutex<usize>,
}

#[derive(Debug)]
enum Devices<'a> {
    Owned(Vec<Gpu>),
    Borrowed(&'a [Gpu]),
}

impl std::ops::Deref for Devices<'_> {
    type Target = [Gpu];

    fn deref(&self) -> &[Gpu] {
        match self {
            Devices::Owned(v) => v,
            Devices::Borrowed(s) => s,
        }
    }
}

impl<'a> From<&'a Gpu> for DeviceFleet<'a> {
    /// A fleet of one that borrows `gpu`: everything the fleet does lands
    /// on the caller's device.
    fn from(gpu: &'a Gpu) -> Self {
        DeviceFleet::over(Devices::Borrowed(std::slice::from_ref(gpu)))
    }
}

impl DeviceFleet<'static> {
    /// A fleet of `n` identical devices with the default cost model.
    pub fn new(n: usize, cfg: GpuConfig) -> Self {
        DeviceFleet::with_cost(n, cfg, CostModel::default())
    }

    /// A fleet of `n` identical devices with an explicit cost model.
    pub fn with_cost(n: usize, cfg: GpuConfig, cost: CostModel) -> Self {
        let n = n.max(1);
        let devices = (0..n)
            .map(|_| Gpu::with_cost(cfg.clone(), cost.clone()))
            .collect();
        DeviceFleet::from_devices(devices)
    }

    /// A fleet with one deterministic [`FaultPlan`] per device (see
    /// [`FaultPlan::parse_fleet`] for the `dev=K:` selector grammar).
    /// `plans` shorter than `n` leaves the remaining devices fault-free.
    pub fn with_fault_plans(
        n: usize,
        cfg: GpuConfig,
        cost: CostModel,
        plans: &[FaultPlan],
    ) -> Self {
        let n = n.max(1);
        let devices = (0..n)
            .map(|d| {
                let plan = plans.get(d).cloned().unwrap_or_default();
                Gpu::with_fault_plan(cfg.clone(), cost.clone(), plan)
            })
            .collect();
        DeviceFleet::from_devices(devices)
    }

    /// Wraps pre-built devices (heterogeneous configs allowed).
    pub fn from_devices(devices: Vec<Gpu>) -> Self {
        assert!(!devices.is_empty(), "a fleet needs at least one device");
        DeviceFleet::over(Devices::Owned(devices))
    }
}

impl<'a> DeviceFleet<'a> {
    fn over(devices: Devices<'a>) -> Self {
        let n = devices.len();
        DeviceFleet {
            devices,
            dead: Mutex::new(vec![false; n]),
            barrier_wait: Mutex::new(vec![SimTime::ZERO; n]),
            interconnect: Mutex::new(InterconnectStats::default()),
            resharded: Mutex::new(0),
        }
    }

    /// Number of devices (dead ones included).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True only for the degenerate case `from_devices` forbids.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device at ordinal `d`.
    pub fn device(&self, d: usize) -> &Gpu {
        &self.devices[d]
    }

    /// All devices, indexed by ordinal.
    pub fn devices(&self) -> &[Gpu] {
        &self.devices
    }

    /// The one loss rule: decides what device `d` failing with `e` means.
    /// A terminal error ([`SimError::is_terminal`]) is returned. So is the
    /// failure of the last live device, which stays alive: its caller's
    /// ladder handles it, as a lone device's. Otherwise `d` is marked dead:
    /// it keeps its clock and stats (the work it completed stays priced)
    /// but drops out of barriers, exchanges and [`DeviceFleet::alive`],
    /// and its work is the survivors' to take over.
    pub fn lose(&self, d: usize, e: SimError) -> Result<(), SimError> {
        let mut dead = self.dead.lock();
        let survivor = (0..dead.len()).any(|o| o != d && !dead[o]);
        if e.is_terminal() || !survivor {
            return Err(e);
        }
        dead[d] = true;
        Ok(())
    }

    /// Counts `units` of a lost device's work taken over by survivors, on
    /// every path: a run that later fails still moved it.
    pub fn reshard(&self, units: usize) {
        *self.resharded.lock() += units;
    }

    /// Whether device `d` has been marked dead.
    pub fn is_dead(&self, d: usize) -> bool {
        self.dead.lock()[d]
    }

    /// Ordinals of live devices, ascending.
    pub fn alive(&self) -> Vec<usize> {
        let dead = self.dead.lock();
        (0..self.devices.len()).filter(|&d| !dead[d]).collect()
    }

    /// Number of live devices.
    pub fn n_alive(&self) -> usize {
        self.dead.lock().iter().filter(|&&d| !d).count()
    }

    /// Prices device `d` receiving `bytes` over the peer link in one leg:
    /// its clock advances by the transfer time (the sender's DMA engine
    /// runs beside its kernels and is not charged). The one exchange
    /// primitive; callers coalesce what a device needs into one call.
    pub fn receive(&self, d: usize, bytes: u64) -> SimTime {
        let t = SimTime::from_ns(self.devices[d].cost().nvlink_transfer_ns(bytes));
        self.devices[d].advance(t);
        let mut ic = self.interconnect.lock();
        ic.exchanges += 1;
        ic.bytes += bytes;
        ic.time += t;
        t
    }

    /// Prices an **all-gather at a barrier**: every live device `d`
    /// contributed `bytes[d]` and must receive everyone else's
    /// contribution, so it pays one receive of `total − bytes[d]`; the
    /// fleet then barriers. With one live device (or one total
    /// contributor) nothing moves. Returns the post-barrier makespan.
    pub fn all_gather(&self, bytes: &[u64]) -> SimTime {
        let alive = self.alive();
        let total: u64 = alive
            .iter()
            .map(|&d| bytes.get(d).copied().unwrap_or(0))
            .sum();
        if alive.len() > 1 && total > 0 {
            for &d in &alive {
                self.receive(d, total - bytes.get(d).copied().unwrap_or(0));
            }
        }
        self.barrier()
    }

    /// Idles device `d` until `t` — a no-op when its clock is already
    /// there — and counts the advance as barrier wait, not work.
    pub fn wait_until(&self, d: usize, t: SimTime) {
        let now = self.devices[d].now();
        if now < t {
            let gap = SimTime::from_ns(t.as_ns() - now.as_ns());
            self.devices[d].advance(gap);
            self.barrier_wait.lock()[d] += gap;
        }
    }

    /// Advances every live device's clock to the fleet-wide maximum (a
    /// synchronization point: no shard proceeds before the slowest); the
    /// laggards' advance is barrier wait. Returns the barrier time.
    pub fn barrier(&self) -> SimTime {
        let alive = self.alive();
        let max = alive
            .iter()
            .map(|&d| self.devices[d].now())
            .fold(SimTime::ZERO, SimTime::max);
        for &d in &alive {
            self.wait_until(d, max);
        }
        max
    }

    /// The latest clock among live devices ([`DeviceFleet::lose`] leaves
    /// at least one). Reads clocks only — level loops call this per span
    /// timestamp.
    pub fn makespan(&self) -> SimTime {
        let dead = self.dead.lock();
        let live = self.devices.iter().zip(dead.iter()).filter(|(_, &d)| !d);
        live.map(|(gpu, _)| gpu.now())
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// A consistent snapshot of every device plus the interconnect.
    pub fn stats(&self) -> FleetStats {
        let dead = self.dead.lock().clone();
        let wait = self.barrier_wait.lock();
        let devices = self
            .devices
            .iter()
            .enumerate()
            .map(|(d, gpu)| FleetDeviceStats {
                device: d,
                dead: dead[d],
                stats: gpu.stats(),
                barrier_wait: wait[d],
                mem_used: gpu.mem.used_bytes(),
                mem_peak: gpu.mem.peak_bytes(),
                mem_capacity: gpu.mem.capacity(),
            })
            .collect();
        FleetStats {
            devices,
            interconnect: self.interconnect.lock().clone(),
            resharded: *self.resharded.lock(),
        }
    }
}

/// Splits `0..n_items` into `parts` contiguous ranges whose lengths differ
/// by at most one (the first `n_items % parts` ranges get the extra item).
/// Trailing ranges are empty when `parts > n_items`.
pub fn split_even(n_items: usize, parts: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let parts = parts.max(1);
    let base = n_items / parts;
    let extra = n_items % parts;
    (0..parts).map(move |p| {
        let start = p * base + p.min(extra);
        start..start + base + usize::from(p < extra)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> DeviceFleet<'static> {
        DeviceFleet::new(n, GpuConfig::v100())
    }

    #[test]
    fn devices_have_independent_clocks_and_arenas() {
        let f = fleet(3);
        f.device(0).advance(SimTime::from_ns(1000.0));
        let a = f.device(1).mem.alloc(4096).expect("alloc ok");
        assert_eq!(f.device(0).now(), SimTime::from_ns(1000.0));
        assert_eq!(f.device(1).now(), SimTime::ZERO);
        assert_eq!(f.device(1).mem.used_bytes(), 4096);
        assert_eq!(f.device(0).mem.used_bytes(), 0);
        drop(a);
        assert_eq!(f.device(1).mem.used_bytes(), 0);
    }

    #[test]
    fn receive_charges_one_leg_to_the_receiver_only() {
        let f = fleet(2);
        let t = f.receive(1, 1 << 20);
        let expect = f.device(1).cost().nvlink_transfer_ns(1 << 20);
        assert!((t.as_ns() - expect).abs() < 1e-9);
        assert_eq!(f.device(0).now(), SimTime::ZERO);
        assert_eq!(f.device(1).now(), t);
        let ic = f.stats().interconnect;
        assert_eq!((ic.exchanges, ic.bytes, ic.time), (1, 1 << 20, t));
    }

    #[test]
    fn barrier_advances_laggards_to_max() {
        let f = fleet(3);
        f.device(2).advance(SimTime::from_ns(5000.0));
        let m = f.barrier();
        assert_eq!(m, SimTime::from_ns(5000.0));
        for d in 0..3 {
            assert_eq!(f.device(d).now(), m);
        }
        // The laggards' advance is wait, not work; the slowest waited none.
        let waits: Vec<_> = f.stats().devices.iter().map(|d| d.barrier_wait).collect();
        assert_eq!(waits, vec![m, m, SimTime::ZERO]);
    }

    #[test]
    fn all_gather_charges_receives_and_barriers() {
        let f = fleet(2);
        let m = f.all_gather(&[1000, 3000]);
        // Device 0 receives 3000 bytes, device 1 receives 1000; the
        // barrier pulls both to the slower (device 0) finish.
        let t0 = f.device(0).cost().nvlink_transfer_ns(3000);
        assert!((m.as_ns() - t0).abs() < 1e-9);
        assert_eq!(f.device(0).now(), f.device(1).now());
        let ic = f.stats().interconnect;
        assert_eq!(ic.exchanges, 2);
        assert_eq!(ic.bytes, 4000);
    }

    #[test]
    fn single_device_all_gather_moves_nothing() {
        let f = fleet(1);
        assert_eq!(f.all_gather(&[1 << 20]), SimTime::ZERO);
        assert_eq!(f.stats().interconnect.exchanges, 0);
    }

    #[test]
    fn a_borrowed_fleet_of_one_is_the_callers_device() {
        let gpu = Gpu::new(GpuConfig::v100());
        let f = DeviceFleet::from(&gpu);
        f.device(0).advance(SimTime::from_ns(700.0));
        let a = f.device(0).mem.alloc(4096).expect("alloc ok");
        assert_eq!(f.barrier(), SimTime::from_ns(700.0));
        assert_eq!(f.makespan(), gpu.now());
        assert_eq!(gpu.now(), SimTime::from_ns(700.0));
        assert_eq!(gpu.mem.used_bytes(), 4096);
        drop(a);
        assert_eq!(gpu.mem.used_bytes(), 0);
    }

    #[test]
    fn dead_devices_drop_out_of_barriers_and_exchange() {
        let f = fleet(3);
        f.device(1).advance(SimTime::from_ns(9000.0));
        assert_eq!(f.lose(1, SimError::BadLaunch("fault".into())), Ok(()));
        assert!(f.is_dead(1));
        assert_eq!(f.alive(), vec![0, 2]);
        assert_eq!(f.n_alive(), 2);
        // The dead device's clock no longer drags the barrier.
        let m = f.barrier();
        assert_eq!(m, SimTime::ZERO);
        // all_gather only prices the survivors.
        f.all_gather(&[100, 100, 100]);
        assert_eq!(f.stats().interconnect.exchanges, 2);
        // Makespan ignores the dead clock too.
        assert!(f.makespan() < SimTime::from_ns(9000.0));
    }

    #[test]
    fn a_failure_sheds_its_device_only_while_a_survivor_takes_the_work() {
        let oom = || SimError::OutOfMemory {
            requested: 1,
            free: 0,
            capacity: 0,
        };
        let f = fleet(3);
        assert_eq!(
            f.lose(1, SimError::Crashed { ordinal: 1 }),
            Err(SimError::Crashed { ordinal: 1 })
        );
        let abort = SimError::Aborted("stop".into());
        assert_eq!(f.lose(1, abort.clone()), Err(abort));
        assert_eq!(f.n_alive(), 3, "a terminal error loses no device");
        assert_eq!(f.lose(1, oom()), Ok(()));
        assert_eq!(f.lose(0, SimError::BadLaunch("fault".into())), Ok(()));
        assert_eq!(f.alive(), vec![2]);
        assert_eq!(f.lose(2, oom()), Err(oom()), "the last live device");
        assert_eq!(f.alive(), vec![2], "stays alive");
        // A fleet of one is the same rule with no survivor.
        let one = fleet(1);
        assert_eq!(one.lose(0, oom()), Err(oom()));
        assert_eq!(one.n_alive(), 1);
    }

    #[test]
    fn fleet_stats_expose_arena_occupancy() {
        let f = fleet(2);
        let a = f.device(1).mem.alloc(1 << 16).expect("alloc ok");
        let s = f.stats();
        assert_eq!(s.devices.len(), 2);
        assert_eq!(s.devices[1].mem_used, 1 << 16);
        assert_eq!(s.devices[0].mem_used, 0);
        assert_eq!(s.devices[1].device, 1);
        drop(a);
        assert_eq!(f.stats().devices[1].mem_used, 0);
        assert_eq!(f.stats().devices[1].mem_peak, 1 << 16);
    }

    #[test]
    fn split_even_covers_and_balances() {
        let split = |n, parts| split_even(n, parts).collect::<Vec<_>>();
        assert_eq!(split(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(split(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(split(0, 3), vec![0..0, 0..0, 0..0]);
        // Every item lands in exactly one range.
        let mut seen = [false; 10];
        for r in split_even(10, 3) {
            for i in r {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn per_device_fault_plans_are_isolated() {
        let plans = FaultPlan::parse_fleet("dev=1:oom:alloc=1", 2).expect("parse ok");
        let f = DeviceFleet::with_fault_plans(2, GpuConfig::v100(), CostModel::default(), &plans);
        assert!(f.device(0).mem.alloc(16).is_ok(), "device 0 untouched");
        assert!(f.device(1).mem.alloc(16).is_err(), "device 1 injected");
    }
}
