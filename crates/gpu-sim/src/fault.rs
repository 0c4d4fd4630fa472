//! Deterministic fault injection for the simulated GPU.
//!
//! Real out-of-core solvers live next to failure: `cudaMalloc` returns
//! `cudaErrorMemoryAllocation` under fragmentation or external pressure,
//! kernels fail to launch, and the free-memory headroom a chunk size was
//! computed from can evaporate mid-run. A [`FaultPlan`] scripts those
//! events **deterministically** — by allocation ordinal and by per-kernel
//! launch ordinal — so recovery paths (chunk backoff, engine degradation)
//! can be driven and asserted on in ordinary unit tests, and a chaos suite
//! can replay hundreds of schedules from fixed seeds.
//!
//! Three fault kinds are modelled:
//!
//! * **OOM** — the Nth call to [`DeviceMemory::alloc`] fails with
//!   [`SimError::OutOfMemory`]. *Transient* faults fire exactly once (the
//!   retry succeeds); *persistent* faults fire on every allocation from
//!   the Nth onward (the device never recovers).
//! * **Capacity squeeze** — at the Nth allocation the device capacity
//!   shrinks to `keep_percent` of its current value (floored at the bytes
//!   already live). Models external memory pressure; the squeeze itself
//!   does not fail the allocation, but later requests see less headroom.
//! * **BadLaunch** — the Nth launch of a *named* kernel fails with
//!   [`SimError::BadLaunch`] before any block runs (`"*"` matches every
//!   kernel). Transient or persistent, as above.
//! * **Crash** — the Nth *crash point* kills the run with
//!   [`SimError::Crashed`]. Crash points are passed by the pipeline at
//!   checkpoint sites (immediately before and after each durable write),
//!   so `crash:at=N` models process death at every possible durability
//!   boundary. Crashes are terminal ([`SimError::is_terminal`]): recovery
//!   ladders do not degrade around them — a later run resumes from the
//!   last valid checkpoint.
//!
//! Every other fault is a device failure: on a fleet it sheds the device
//! while another live device can take the work, and otherwise goes to the
//! caller's ladder ([`crate::DeviceFleet::lose`]). This module and the
//! launcher are the only places a [`SimError::BadLaunch`] is built.
//!
//! Plans come from the builder API, from a compact spec string
//! (`FaultPlan::parse("oom:alloc=3,badlaunch:numeric_dense=1")`, also read
//! from the `GPLU_FAULT_PLAN` environment variable), or from a seed
//! ([`FaultPlan::from_seed`]) that expands to a small random schedule via
//! SplitMix64 — same seed, same schedule, forever.
//!
//! [`DeviceMemory::alloc`]: crate::DeviceMemory::alloc

use crate::error::SimError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable holding a fault-plan spec string.
pub const FAULT_PLAN_ENV: &str = "GPLU_FAULT_PLAN";

/// An OOM fault scheduled by allocation ordinal (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OomFault {
    /// Allocation ordinal the fault fires on.
    pub nth: u64,
    /// Transient (fires once) vs persistent (fires from `nth` onward).
    pub persistent: bool,
}

/// A capacity squeeze scheduled by allocation ordinal (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SqueezeFault {
    /// Allocation ordinal the squeeze is applied at.
    pub nth: u64,
    /// New capacity as a percentage of the current capacity (clamped to
    /// the bytes currently live, so existing allocations survive).
    pub keep_percent: u64,
}

/// A launch failure scheduled by per-kernel launch ordinal (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchFault {
    /// Kernel name to match (`"*"` matches every kernel).
    pub kernel: String,
    /// Launch ordinal (per kernel name) the fault fires on.
    pub nth: u64,
    /// Transient vs persistent, as for [`OomFault`].
    pub persistent: bool,
}

/// Which side of a disk operation a [`DiskFault`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// Loading a persisted entry.
    Read,
    /// Persisting or removing an entry.
    Write,
}

/// A disk-tier I/O failure scheduled by per-op ordinal (1-based).
///
/// Read and write ordinals count independently: `diskfault:read=2` fires
/// on the second disk *read*, however many writes happen in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFault {
    /// Which operation stream the fault is scheduled on.
    pub op: DiskOp,
    /// Operation ordinal (per stream) the fault fires on.
    pub nth: u64,
    /// Transient vs persistent, as for [`OomFault`].
    pub persistent: bool,
}

/// A deterministic schedule of injected device faults.
///
/// Immutable once built; attach it to a GPU with
/// [`Gpu::with_fault_plan`](crate::Gpu::with_fault_plan).
#[derive(Debug, Clone, Default, PartialEq)]
#[must_use = "a fault plan does nothing until attached to a Gpu"]
pub struct FaultPlan {
    oom: Vec<OomFault>,
    squeezes: Vec<SqueezeFault>,
    launches: Vec<LaunchFault>,
    crashes: Vec<u64>,
    disk: Vec<DiskFault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.oom.is_empty()
            && self.squeezes.is_empty()
            && self.launches.is_empty()
            && self.crashes.is_empty()
            && self.disk.is_empty()
    }

    /// Fails the `nth` allocation (1-based) once; the retry succeeds.
    pub fn oom_on_alloc(mut self, nth: u64) -> Self {
        self.oom.push(OomFault {
            nth,
            persistent: false,
        });
        self
    }

    /// Fails every allocation from the `nth` onward.
    pub fn persistent_oom_from(mut self, nth: u64) -> Self {
        self.oom.push(OomFault {
            nth,
            persistent: true,
        });
        self
    }

    /// Shrinks device capacity to `keep_percent`% at the `nth` allocation.
    pub fn squeeze_at(mut self, nth: u64, keep_percent: u64) -> Self {
        self.squeezes.push(SqueezeFault {
            nth,
            keep_percent: keep_percent.min(100),
        });
        self
    }

    /// Fails the `nth` launch of `kernel` once (`"*"` = any kernel).
    pub fn bad_launch(mut self, kernel: &str, nth: u64) -> Self {
        self.launches.push(LaunchFault {
            kernel: kernel.to_string(),
            nth,
            persistent: false,
        });
        self
    }

    /// Fails every launch of `kernel` from the `nth` onward.
    pub fn persistent_bad_launch(mut self, kernel: &str, nth: u64) -> Self {
        self.launches.push(LaunchFault {
            kernel: kernel.to_string(),
            nth,
            persistent: true,
        });
        self
    }

    /// Kills the run at the `nth` crash point (1-based).
    pub fn crash_at(mut self, nth: u64) -> Self {
        self.crashes.push(nth);
        self
    }

    /// Fails the `nth` disk operation of the given kind once.
    pub fn disk_fault(mut self, op: DiskOp, nth: u64) -> Self {
        self.disk.push(DiskFault {
            op,
            nth,
            persistent: false,
        });
        self
    }

    /// Fails every disk operation of the given kind from the `nth` onward
    /// (the disk tier never recovers — degraded-mode territory).
    pub fn persistent_disk_fault(mut self, op: DiskOp, nth: u64) -> Self {
        self.disk.push(DiskFault {
            op,
            nth,
            persistent: true,
        });
        self
    }

    /// Scheduled OOM faults.
    pub fn oom_faults(&self) -> &[OomFault] {
        &self.oom
    }

    /// Scheduled crash-point ordinals.
    pub fn crash_faults(&self) -> &[u64] {
        &self.crashes
    }

    /// Scheduled capacity squeezes.
    pub fn squeeze_faults(&self) -> &[SqueezeFault] {
        &self.squeezes
    }

    /// Scheduled launch faults.
    pub fn launch_faults(&self) -> &[LaunchFault] {
        &self.launches
    }

    /// Scheduled disk-tier faults.
    pub fn disk_faults(&self) -> &[DiskFault] {
        &self.disk
    }

    /// Parses a comma-separated spec string:
    ///
    /// * `oom:alloc=N[:persistent]` — OOM on the Nth allocation,
    /// * `squeeze:alloc=N:K` — shrink capacity to K% at the Nth allocation,
    /// * `badlaunch:KERNEL=N[:persistent]` — fail the Nth launch of KERNEL,
    /// * `crash:at=N` — kill the run at the Nth checkpoint crash point,
    /// * `diskfault:read=N[:persistent]` / `diskfault:write=N[:persistent]`
    ///   — fail the Nth disk-tier read/write,
    /// * `seed:S` — expand a seeded schedule (see [`FaultPlan::from_seed`]).
    ///
    /// Example: `oom:alloc=3,badlaunch:numeric_dense=1,squeeze:alloc=4:50`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for raw in spec.split(',') {
            let item = raw.trim();
            if item.is_empty() {
                continue;
            }
            let mut parts = item.split(':');
            let kind = parts.next().unwrap_or_default();
            match kind {
                "oom" => {
                    let nth = parse_alloc_ordinal(parts.next(), item)?;
                    match parts.next() {
                        None => plan = plan.oom_on_alloc(nth),
                        Some("persistent") => plan = plan.persistent_oom_from(nth),
                        Some(other) => {
                            return Err(format!("'{item}': unknown modifier '{other}'"));
                        }
                    }
                }
                "squeeze" => {
                    let nth = parse_alloc_ordinal(parts.next(), item)?;
                    let keep = parts
                        .next()
                        .ok_or_else(|| format!("'{item}': squeeze needs a keep percentage"))?
                        .parse::<u64>()
                        .map_err(|_| format!("'{item}': keep percentage must be an integer"))?;
                    if keep > 100 {
                        return Err(format!("'{item}': keep percentage must be <= 100"));
                    }
                    plan = plan.squeeze_at(nth, keep);
                }
                "badlaunch" => {
                    let body = parts
                        .next()
                        .ok_or_else(|| format!("'{item}': badlaunch needs KERNEL=N"))?;
                    let (kernel, nth) = body
                        .split_once('=')
                        .ok_or_else(|| format!("'{item}': badlaunch needs KERNEL=N"))?;
                    if kernel.is_empty() {
                        return Err(format!("'{item}': empty kernel name"));
                    }
                    let nth = parse_positive(nth, item)?;
                    match parts.next() {
                        None => plan = plan.bad_launch(kernel, nth),
                        Some("persistent") => plan = plan.persistent_bad_launch(kernel, nth),
                        Some(other) => {
                            return Err(format!("'{item}': unknown modifier '{other}'"));
                        }
                    }
                }
                "crash" => {
                    let body = parts
                        .next()
                        .ok_or_else(|| format!("'{item}': expected at=N"))?;
                    let (key, nth) = body
                        .split_once('=')
                        .ok_or_else(|| format!("'{item}': expected at=N"))?;
                    if key != "at" {
                        return Err(format!("'{item}': unknown trigger '{key}' (expected at)"));
                    }
                    let nth = parse_positive(nth, item)?;
                    if parts.next().is_some() {
                        return Err(format!("'{item}': crash takes no modifier"));
                    }
                    plan = plan.crash_at(nth);
                }
                "diskfault" => {
                    let body = parts
                        .next()
                        .ok_or_else(|| format!("'{item}': expected read=N or write=N"))?;
                    let (key, nth) = body
                        .split_once('=')
                        .ok_or_else(|| format!("'{item}': expected read=N or write=N"))?;
                    let op = match key {
                        "read" => DiskOp::Read,
                        "write" => DiskOp::Write,
                        other => {
                            return Err(format!(
                                "'{item}': unknown trigger '{other}' (expected read or write)"
                            ));
                        }
                    };
                    let nth = parse_positive(nth, item)?;
                    match parts.next() {
                        None => plan = plan.disk_fault(op, nth),
                        Some("persistent") => plan = plan.persistent_disk_fault(op, nth),
                        Some(other) => {
                            return Err(format!("'{item}': unknown modifier '{other}'"));
                        }
                    }
                }
                "seed" => {
                    let seed = parts
                        .next()
                        .ok_or_else(|| format!("'{item}': seed needs a value"))?
                        .parse::<u64>()
                        .map_err(|_| format!("'{item}': seed must be an integer"))?;
                    let seeded = FaultPlan::from_seed(seed);
                    plan.oom.extend(seeded.oom);
                    plan.squeezes.extend(seeded.squeezes);
                    plan.launches.extend(seeded.launches);
                    plan.crashes.extend(seeded.crashes);
                    plan.disk.extend(seeded.disk);
                }
                other => {
                    return Err(format!(
                        "'{item}': unknown fault kind '{other}' \
                         (expected oom, squeeze, badlaunch, crash, diskfault or seed)"
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// Parses a fleet spec: one plan per device of an `devices`-wide
    /// fleet. Items prefixed `dev=K:` target device `K` only (e.g.
    /// `dev=2:oom:alloc=3` — kill the third allocation *on device 2*);
    /// unprefixed items broadcast to every device. Everything after the
    /// selector uses the ordinary [`FaultPlan::parse`] grammar.
    ///
    /// Example: `dev=1:badlaunch:*=1:persistent,squeeze:alloc=2:50` gives
    /// device 1 a dead launch path while every device (1 included) sees
    /// the capacity squeeze.
    pub fn parse_fleet(spec: &str, devices: usize) -> Result<Vec<Self>, String> {
        let devices = devices.max(1);
        let mut per: Vec<Vec<&str>> = vec![Vec::new(); devices];
        for raw in spec.split(',') {
            let item = raw.trim();
            if item.is_empty() {
                continue;
            }
            if let Some(rest) = item.strip_prefix("dev=") {
                let (idx, body) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("'{item}': device selector needs dev=K:FAULT"))?;
                let d = idx
                    .parse::<usize>()
                    .map_err(|_| format!("'{item}': device index must be an integer"))?;
                if d >= devices {
                    return Err(format!(
                        "'{item}': device {d} outside fleet of {devices} devices"
                    ));
                }
                if body.trim().is_empty() {
                    return Err(format!("'{item}': device selector needs dev=K:FAULT"));
                }
                per[d].push(body);
            } else {
                for dev_items in per.iter_mut() {
                    dev_items.push(item);
                }
            }
        }
        per.into_iter()
            .map(|items| FaultPlan::parse(&items.join(",")))
            .collect()
    }

    /// Expands `seed` into a small random fault schedule (1–3 faults) via
    /// SplitMix64. Deterministic: the same seed always yields the same
    /// plan, which is what lets a chaos suite replay failures by seed.
    pub fn from_seed(seed: u64) -> Self {
        // Kernel names the pipeline actually launches, so seeded launch
        // faults land on real code paths.
        const KERNELS: &[&str] = &[
            "symbolic_1",
            "symbolic_2",
            "symbolic_retry",
            "prefix_sum",
            "numeric_dense",
            "numeric_sparse",
            "numeric_merge",
            "trisolve_l",
            "trisolve_u",
            "um_symbolic_1",
            "um_symbolic_2",
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || splitmix64(&mut state);
        let mut plan = FaultPlan::new();
        let count = 1 + (next() % 3);
        for _ in 0..count {
            match next() % 100 {
                // Transient OOM dominates: it is the recoverable case the
                // backoff and degradation machinery exists for.
                0..=44 => plan = plan.oom_on_alloc(1 + next() % 24),
                45..=59 => plan = plan.persistent_oom_from(2 + next() % 40),
                60..=74 => plan = plan.squeeze_at(2 + next() % 16, 35 + next() % 55),
                75..=89 => {
                    let kernel = KERNELS[(next() % KERNELS.len() as u64) as usize];
                    plan = plan.bad_launch(kernel, 1 + next() % 3);
                }
                _ => {
                    let kernel = KERNELS[(next() % KERNELS.len() as u64) as usize];
                    plan = plan.persistent_bad_launch(kernel, 1 + next() % 2);
                }
            }
        }
        plan
    }
}

fn parse_alloc_ordinal(part: Option<&str>, item: &str) -> Result<u64, String> {
    let body = part.ok_or_else(|| format!("'{item}': expected alloc=N"))?;
    let (key, nth) = body
        .split_once('=')
        .ok_or_else(|| format!("'{item}': expected alloc=N"))?;
    if key != "alloc" {
        return Err(format!(
            "'{item}': unknown trigger '{key}' (expected alloc)"
        ));
    }
    parse_positive(nth, item)
}

fn parse_positive(s: &str, item: &str) -> Result<u64, String> {
    match s.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("'{item}': ordinal must be a positive integer")),
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What [`FaultInjector::on_alloc`] decided for one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AllocVerdict {
    /// Apply a capacity squeeze to this percentage before the allocation.
    pub squeeze_keep_percent: Option<u64>,
    /// Fail this allocation with an injected OOM.
    pub inject_oom: bool,
}

/// Runtime state of a [`FaultPlan`]: monotone ordinals plus fired-fault
/// counters. Shared (`Arc`) between the allocator and the launch path.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    allocs: AtomicU64,
    launch_counts: Mutex<HashMap<String, u64>>,
    disk_reads: AtomicU64,
    disk_writes: AtomicU64,
    injected_oom: AtomicU64,
    injected_launches: AtomicU64,
    injected_squeezes: AtomicU64,
    injected_crashes: AtomicU64,
    injected_disk: AtomicU64,
}

impl FaultInjector {
    /// Wraps a plan with fresh counters.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            allocs: AtomicU64::new(0),
            launch_counts: Mutex::new(HashMap::new()),
            disk_reads: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            injected_oom: AtomicU64::new(0),
            injected_launches: AtomicU64::new(0),
            injected_squeezes: AtomicU64::new(0),
            injected_crashes: AtomicU64::new(0),
            injected_disk: AtomicU64::new(0),
        }
    }

    /// The schedule this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advances the allocation ordinal and returns the verdict for this
    /// allocation. Called exactly once per [`DeviceMemory::alloc`]
    /// request, successful or not.
    ///
    /// [`DeviceMemory::alloc`]: crate::DeviceMemory::alloc
    pub(crate) fn on_alloc(&self) -> AllocVerdict {
        let nth = self.allocs.fetch_add(1, Ordering::Relaxed) + 1;
        let squeeze_keep_percent = self
            .plan
            .squeezes
            .iter()
            .find(|s| s.nth == nth)
            .map(|s| s.keep_percent);
        if squeeze_keep_percent.is_some() {
            self.injected_squeezes.fetch_add(1, Ordering::Relaxed);
        }
        let inject_oom = self.plan.oom.iter().any(|f| {
            if f.persistent {
                nth >= f.nth
            } else {
                nth == f.nth
            }
        });
        if inject_oom {
            self.injected_oom.fetch_add(1, Ordering::Relaxed);
        }
        AllocVerdict {
            squeeze_keep_percent,
            inject_oom,
        }
    }

    /// Advances the per-kernel launch ordinal for `name` and returns the
    /// injected error when a scheduled launch fault fires.
    pub(crate) fn on_launch(&self, name: &str) -> Option<SimError> {
        if self.plan.launches.is_empty() {
            return None;
        }
        let nth = {
            let mut counts = self.launch_counts.lock();
            let c = counts.entry(name.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        let hit = self.plan.launches.iter().any(|f| {
            (f.kernel == "*" || f.kernel == name)
                && if f.persistent {
                    nth >= f.nth
                } else {
                    nth == f.nth
                }
        });
        if hit {
            self.injected_launches.fetch_add(1, Ordering::Relaxed);
            Some(SimError::BadLaunch(format!(
                "injected fault: kernel '{name}' launch #{nth}"
            )))
        } else {
            None
        }
    }

    /// Decides whether the crash point with the given (1-based) ordinal
    /// kills the run. The ordinal itself is counted by the GPU so that
    /// runs without an injector still number their crash points.
    pub(crate) fn on_crash_point(&self, ordinal: u64) -> bool {
        let hit = self.plan.crashes.contains(&ordinal);
        if hit {
            self.injected_crashes.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Advances the disk-op ordinal for `op` and reports whether a
    /// scheduled disk fault fires there. Called by the service's
    /// disk-tier adapter around every plan-store read/write.
    pub fn on_disk_op(&self, op: DiskOp) -> bool {
        if self.plan.disk.is_empty() {
            return false;
        }
        let counter = match op {
            DiskOp::Read => &self.disk_reads,
            DiskOp::Write => &self.disk_writes,
        };
        let nth = counter.fetch_add(1, Ordering::Relaxed) + 1;
        let hit = self.plan.disk.iter().any(|f| {
            f.op == op
                && if f.persistent {
                    nth >= f.nth
                } else {
                    nth == f.nth
                }
        });
        if hit {
            self.injected_disk.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Injected OOM failures so far.
    pub fn injected_oom(&self) -> u64 {
        self.injected_oom.load(Ordering::Relaxed)
    }

    /// Injected launch failures so far.
    pub fn injected_launches(&self) -> u64 {
        self.injected_launches.load(Ordering::Relaxed)
    }

    /// Capacity squeezes applied so far.
    pub fn injected_squeezes(&self) -> u64 {
        self.injected_squeezes.load(Ordering::Relaxed)
    }

    /// Injected crashes so far (0 or 1 per run in practice).
    pub fn injected_crashes(&self) -> u64 {
        self.injected_crashes.load(Ordering::Relaxed)
    }

    /// Injected disk-tier faults so far.
    pub fn injected_disk(&self) -> u64 {
        self.injected_disk.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_faults() {
        let p = FaultPlan::new()
            .oom_on_alloc(3)
            .persistent_oom_from(10)
            .squeeze_at(4, 50)
            .bad_launch("numeric_dense", 1)
            .persistent_bad_launch("prefix_sum", 2);
        assert_eq!(p.oom_faults().len(), 2);
        assert_eq!(p.squeeze_faults().len(), 1);
        assert_eq!(p.launch_faults().len(), 2);
        assert!(!p.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn parse_round_trips_the_builder() {
        let parsed =
            FaultPlan::parse("oom:alloc=3, oom:alloc=10:persistent, squeeze:alloc=4:50, badlaunch:numeric_dense=1, badlaunch:prefix_sum=2:persistent")
                .expect("valid spec");
        let built = FaultPlan::new()
            .oom_on_alloc(3)
            .persistent_oom_from(10)
            .squeeze_at(4, 50)
            .bad_launch("numeric_dense", 1)
            .persistent_bad_launch("prefix_sum", 2);
        assert_eq!(parsed, built);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "oom",
            "oom:alloc",
            "oom:alloc=0",
            "oom:alloc=x",
            "oom:alloc=3:sometimes",
            "oom:launch=3",
            "squeeze:alloc=4",
            "squeeze:alloc=4:101",
            "badlaunch:=1",
            "badlaunch:k",
            "seed:x",
            "quux:alloc=1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert!(FaultPlan::parse("").expect("ok").is_empty());
        assert!(FaultPlan::parse(" , ").expect("ok").is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_vary_by_seed() {
        for seed in 0..200u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b, "seed {seed} must be reproducible");
            assert!(!a.is_empty(), "seeded plans always schedule something");
        }
        let distinct = (0..50u64)
            .map(FaultPlan::from_seed)
            .collect::<Vec<_>>()
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count();
        assert!(distinct > 30, "seeds must actually vary the schedule");
    }

    #[test]
    fn seed_spec_matches_from_seed() {
        assert_eq!(
            FaultPlan::parse("seed:42").expect("ok"),
            FaultPlan::from_seed(42)
        );
    }

    #[test]
    fn crash_parse_builder_and_injector_agree() {
        let parsed = FaultPlan::parse("crash:at=3, oom:alloc=1").expect("valid spec");
        let built = FaultPlan::new().crash_at(3).oom_on_alloc(1);
        assert_eq!(parsed, built);
        assert_eq!(built.crash_faults(), &[3]);
        assert!(!FaultPlan::new().crash_at(1).is_empty());

        let inj = FaultInjector::new(FaultPlan::new().crash_at(2));
        assert!(!inj.on_crash_point(1));
        assert!(inj.on_crash_point(2));
        assert!(!inj.on_crash_point(3));
        assert_eq!(inj.injected_crashes(), 1);

        for bad in [
            "crash",
            "crash:at",
            "crash:at=0",
            "crash:alloc=1",
            "crash:at=1:persistent",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    #[test]
    fn diskfault_parse_builder_and_injector_agree() {
        let parsed =
            FaultPlan::parse("diskfault:read=2, diskfault:write=1:persistent").expect("valid");
        let built = FaultPlan::new()
            .disk_fault(DiskOp::Read, 2)
            .persistent_disk_fault(DiskOp::Write, 1);
        assert_eq!(parsed, built);
        assert_eq!(built.disk_faults().len(), 2);
        assert!(!FaultPlan::new().disk_fault(DiskOp::Read, 1).is_empty());

        let inj = FaultInjector::new(built);
        // Read and write ordinals count independently.
        assert!(!inj.on_disk_op(DiskOp::Read), "first read is clean");
        assert!(inj.on_disk_op(DiskOp::Write), "persistent from write #1");
        assert!(inj.on_disk_op(DiskOp::Read), "second read fires");
        assert!(!inj.on_disk_op(DiskOp::Read), "transient: third is clean");
        assert!(inj.on_disk_op(DiskOp::Write), "persistent keeps firing");
        assert_eq!(inj.injected_disk(), 3);

        for bad in [
            "diskfault",
            "diskfault:read",
            "diskfault:read=0",
            "diskfault:seek=1",
            "diskfault:read=1:sometimes",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    #[test]
    fn fleet_parse_routes_selectors_and_broadcasts() {
        let plans = FaultPlan::parse_fleet(
            "dev=2:oom:alloc=3, badlaunch:numeric_merge=1, dev=0:crash:at=1",
            4,
        )
        .expect("valid fleet spec");
        assert_eq!(plans.len(), 4);
        // The broadcast launch fault lands everywhere.
        for p in &plans {
            assert_eq!(p.launch_faults().len(), 1);
        }
        // Selector-targeted faults land only on their device.
        assert_eq!(plans[0].crash_faults(), &[1]);
        assert!(plans[1].crash_faults().is_empty());
        assert_eq!(plans[2].oom_faults().len(), 1);
        assert!(plans[0].oom_faults().is_empty());
        assert!(plans[3].oom_faults().is_empty() && plans[3].crash_faults().is_empty());
    }

    #[test]
    fn fleet_parse_rejects_bad_selectors() {
        for bad in [
            "dev=4:oom:alloc=1", // outside a 4-device fleet
            "dev=x:oom:alloc=1",
            "dev=1:",
            "dev=1",
            "dev=1:quux:alloc=1",
        ] {
            assert!(
                FaultPlan::parse_fleet(bad, 4).is_err(),
                "'{bad}' should be rejected"
            );
        }
        // An ordinary single-device spec is a valid broadcast.
        let plans = FaultPlan::parse_fleet("oom:alloc=2", 2).expect("ok");
        assert!(plans.iter().all(|p| p.oom_faults().len() == 1));
        // Empty spec: every device fault-free.
        let plans = FaultPlan::parse_fleet("", 3).expect("ok");
        assert!(plans.iter().all(FaultPlan::is_empty));
    }

    #[test]
    fn transient_oom_fires_exactly_once() {
        let inj = FaultInjector::new(FaultPlan::new().oom_on_alloc(2));
        assert!(!inj.on_alloc().inject_oom);
        assert!(inj.on_alloc().inject_oom);
        assert!(!inj.on_alloc().inject_oom);
        assert_eq!(inj.injected_oom(), 1);
    }

    #[test]
    fn persistent_oom_fires_from_nth_onward() {
        let inj = FaultInjector::new(FaultPlan::new().persistent_oom_from(2));
        assert!(!inj.on_alloc().inject_oom);
        assert!(inj.on_alloc().inject_oom);
        assert!(inj.on_alloc().inject_oom);
        assert_eq!(inj.injected_oom(), 2);
    }

    #[test]
    fn launch_ordinals_are_per_kernel() {
        let inj = FaultInjector::new(FaultPlan::new().bad_launch("b", 2));
        assert!(inj.on_launch("a").is_none());
        assert!(inj.on_launch("b").is_none());
        assert!(inj.on_launch("a").is_none());
        assert!(inj.on_launch("b").is_some(), "second launch of b");
        assert!(inj.on_launch("b").is_none(), "transient: third is clean");
        assert_eq!(inj.injected_launches(), 1);
    }

    #[test]
    fn wildcard_kernel_matches_everything() {
        let inj = FaultInjector::new(FaultPlan::new().persistent_bad_launch("*", 1));
        assert!(inj.on_launch("anything").is_some());
        assert!(inj.on_launch("else").is_some());
        assert_eq!(inj.injected_launches(), 2);
    }
}
