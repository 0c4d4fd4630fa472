//! The simulated GPU and its launch machinery.

use crate::clock::SimTime;
use crate::config::GpuConfig;
use crate::cost::CostModel;
use crate::error::SimError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::kernel::{BlockCost, BlockCtx, Kernel};
use crate::memory::DeviceMemory;
use crate::stats::GpuStatsSnapshot;
use crate::unified::{UmAlloc, UmSpace};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Where a launch originates: from the host (CUDA runtime API), from
/// device code via *dynamic parallelism* (the paper's Algorithm 5), or
/// from nowhere — the next level of a kernel that is already running. The
/// only difference is the overhead ([`CostModel::launch_ns`]) — exactly
/// the saving the paper claims for its GPU topological sort, and the one
/// a synchronization-free level loop (Liu et al., the paper's ref. \[28\])
/// claims over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchKind {
    /// Host-side launch (runtime-API latency).
    Host,
    /// Device-side child launch (dynamic parallelism).
    Device,
    /// Not a launch: the next level of an already running kernel, whose
    /// blocks wait on in-kernel dependency flags for the level before.
    /// Functionally, and to the fault injector, it is a launch like any
    /// other.
    Continue,
}

impl LaunchKind {
    /// The kind of one level of a run of levels fused into one kernel:
    /// the level that opens the run is launched as `opener`, every later
    /// one continues the running kernel.
    pub fn level(opens_run: bool, opener: LaunchKind) -> LaunchKind {
        if opens_run {
            opener
        } else {
            LaunchKind::Continue
        }
    }
}

/// How to *functionally* execute the blocks of a kernel.
///
/// Pricing is identical either way; `Seq` exists so kernels whose
/// unified-memory paging behaviour must be deterministic (the UM baselines
/// feeding Table 3) replay blocks in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Blocks are claimed dynamically by the launching thread and the
    /// resident pool workers, so which thread runs which block varies; the
    /// per-block results come back in block-id order (fast wall-clock,
    /// default).
    Par,
    /// Blocks run sequentially in block-id order (deterministic paging).
    Seq,
}

/// Outcome of one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Number of blocks launched.
    pub grid: usize,
    /// Simulated end-to-end kernel time (incl. launch overhead).
    pub time: SimTime,
    /// Wave-scheduled compute makespan.
    pub compute: SimTime,
    /// HBM bandwidth bound over the kernel's total traffic.
    pub bandwidth: SimTime,
    /// Serialized unified-memory fault service time.
    pub fault: SimTime,
    /// Unified-memory fault groups raised.
    pub fault_groups: u64,
    /// Concurrency the wave scheduler used.
    pub concurrency: usize,
}

/// What the cost model charges for one launch, worked out from its blocks'
/// accounting alone ([`Gpu::quote`]): nothing runs and no clock moves.
/// Every launch charges exactly its quote, so a caller weighing two
/// placements of the same work compares the numbers the clocks would show.
#[derive(Debug, Clone, Copy)]
pub struct LaunchQuote {
    /// End-to-end kernel time (incl. launch overhead) — the scheduled
    /// clock's advance.
    pub time: SimTime,
    /// The roofline bound the analytic clock advances by.
    pub analytic: SimTime,
    /// Wave-scheduled compute makespan.
    pub compute: SimTime,
    /// HBM bandwidth bound over the kernel's total traffic.
    pub bandwidth: SimTime,
    /// Serialized unified-memory fault service time.
    pub fault: SimTime,
    /// Unified-memory fault groups raised.
    pub fault_groups: u64,
    /// Concurrency the wave scheduler used.
    pub concurrency: usize,
}

#[derive(Debug, Default)]
struct GpuState {
    now_ns: f64,
    /// The analytic ("roofline") clock: what the cost model *predicts*
    /// each operation should take, accumulated alongside the scheduled
    /// clock. Exact-cost operations (transfers, prefetches, `advance`,
    /// empty launches) charge identically to `now_ns`; kernel launches
    /// charge the ideal-packing bound instead of the greedy
    /// list-scheduling makespan. The gap between the two clocks over a
    /// span is the *cost-model drift* the profiler in `gplu-core` tracks.
    analytic_ns: f64,
    kernels_host: u64,
    kernels_device: u64,
    dependency_waits: u64,
    kernel_time_ns: f64,
    fault_time_ns: f64,
    fault_groups: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    xfer_time_ns: f64,
    prefetch_time_ns: f64,
    crash_points: u64,
}

/// A simulated GPU: configuration, cost model, device memory, unified
/// memory and a monotone clock.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    cost: CostModel,
    /// Device-memory allocator (out-of-core decisions key off this).
    pub mem: DeviceMemory,
    /// Unified-memory space.
    pub um: UmSpace,
    state: Mutex<GpuState>,
    faults: Option<Arc<FaultInjector>>,
}

impl Gpu {
    /// Creates a GPU from a configuration with the default cost model.
    pub fn new(cfg: GpuConfig) -> Self {
        Gpu::with_cost(cfg, CostModel::default())
    }

    /// Creates a GPU with an explicit cost model.
    pub fn with_cost(cfg: GpuConfig, cost: CostModel) -> Self {
        Gpu::build(cfg, cost, None)
    }

    /// Creates a GPU that replays a deterministic [`FaultPlan`]: scheduled
    /// allocation failures, capacity squeezes and kernel-launch failures
    /// fire at their exact ordinals. An empty plan behaves like
    /// [`Gpu::with_cost`].
    pub fn with_fault_plan(cfg: GpuConfig, cost: CostModel, plan: FaultPlan) -> Self {
        let injector = (!plan.is_empty()).then(|| Arc::new(FaultInjector::new(plan)));
        Gpu::build(cfg, cost, injector)
    }

    fn build(cfg: GpuConfig, cost: CostModel, faults: Option<Arc<FaultInjector>>) -> Self {
        let mem = DeviceMemory::with_faults(cfg.device_memory, faults.clone());
        let um = UmSpace::new(&cost, cfg.device_memory);
        Gpu {
            cfg,
            cost,
            mem,
            um,
            state: Mutex::new(GpuState::default()),
            faults,
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The fault injector attached to this GPU, when a plan is active.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.state.lock().now_ns)
    }

    /// One consistent reading of both clocks, `(scheduled_ns,
    /// analytic_ns)`: the scheduled clock (what [`Gpu::now`] reports) and
    /// the analytic roofline clock the cost model predicts. Span-level
    /// deltas of the pair feed the drift profiler; taking both under one
    /// lock keeps a delta self-consistent even with concurrent callers.
    pub fn clocks(&self) -> (f64, f64) {
        let s = self.state.lock();
        (s.now_ns, s.analytic_ns)
    }

    /// Advances the clock by host-side work priced externally (e.g. the
    /// CPU share of a hybrid phase).
    pub fn advance(&self, t: SimTime) {
        let mut s = self.state.lock();
        s.now_ns += t.as_ns();
        s.analytic_ns += t.as_ns();
    }

    /// Explicit host→device transfer of `bytes`.
    pub fn h2d(&self, bytes: u64) -> SimTime {
        let t = SimTime::from_ns(self.cost.pcie_transfer_ns(bytes));
        let mut s = self.state.lock();
        s.h2d_bytes += bytes;
        s.xfer_time_ns += t.as_ns();
        s.now_ns += t.as_ns();
        s.analytic_ns += t.as_ns();
        t
    }

    /// Explicit device→host transfer of `bytes`.
    pub fn d2h(&self, bytes: u64) -> SimTime {
        let t = SimTime::from_ns(self.cost.pcie_transfer_ns(bytes));
        let mut s = self.state.lock();
        s.d2h_bytes += bytes;
        s.xfer_time_ns += t.as_ns();
        s.now_ns += t.as_ns();
        s.analytic_ns += t.as_ns();
        t
    }

    /// Unified-memory prefetch of a byte range (bulk PCIe move, no fault
    /// penalty) — `cudaMemPrefetchAsync`. Host-backed and materialised
    /// pages are charged at PCIe rate; populating fresh device scratch is
    /// free.
    pub fn um_prefetch(&self, alloc: &UmAlloc<'_>, offset: u64, len: u64) -> SimTime {
        let bytes = self.um.prefetch(alloc, offset, len);
        let t = if bytes == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_ns(self.cost.pcie_transfer_ns(bytes))
        };
        let mut s = self.state.lock();
        s.prefetch_time_ns += t.as_ns();
        s.now_ns += t.as_ns();
        s.analytic_ns += t.as_ns();
        t
    }

    /// Launches a kernel from the host: one block per grid index. See
    /// [`Gpu::launch_striped`].
    pub fn launch<K: Kernel>(
        &self,
        name: &str,
        grid: usize,
        threads_per_block: usize,
        kernel: &K,
    ) -> Result<KernelReport, SimError> {
        let (kind, exec) = (LaunchKind::Host, Exec::Par);
        self.launch_striped(name, grid, 1, threads_per_block, kind, exec, None, kernel)
    }

    /// Launches a child kernel from device code (dynamic parallelism).
    pub fn launch_device<K: Kernel>(
        &self,
        name: &str,
        grid: usize,
        threads_per_block: usize,
        kernel: &K,
    ) -> Result<KernelReport, SimError> {
        let (kind, exec) = (LaunchKind::Device, Exec::Par);
        self.launch_striped(name, grid, 1, threads_per_block, kind, exec, None, kernel)
    }

    /// Full-control launch of `cols × stripes` blocks of `kind` — a plain
    /// grid is `stripes = 1` and `cap = None`. `stripes ≥ 1` blocks
    /// cooperate on each column (GLU 3.0's type-C row striping), and the
    /// concurrency is additionally capped at `cap` blocks — the
    /// dense-format numeric kernel's `M = L/(n·sizeof)` limit from the
    /// paper's Section 3.4 (each concurrent block owns an `O(n)` dense
    /// column buffer, so fewer than `TB_max` blocks can be resident).
    ///
    /// Functionally executes `kernel` once per column, passing it the
    /// column index `c` in `0..cols` (in parallel unless `exec` is
    /// [`Exec::Seq`]); the stripes of a column price alike, so that one
    /// call's [`BlockCost`] stands for each of blocks
    /// `c·stripes .. (c+1)·stripes`, in block order. Then prices the grid:
    ///
    /// * per-block compute times are wave-scheduled onto
    ///   `min(grid, TB_max, cap)` concurrent block slots (greedy list
    ///   scheduling, the standard Graham bound),
    /// * the kernel cannot beat the HBM bandwidth bound over its total
    ///   memory traffic,
    /// * unified-memory fault service is **serialized** across blocks
    ///   (the GPU fault handler is a global bottleneck — this is what makes
    ///   on-demand paging slow in the paper's Table 3),
    /// * plus the launch overhead of `kind`.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_striped<K: Kernel>(
        &self,
        name: &str,
        cols: usize,
        stripes: usize,
        threads_per_block: usize,
        kind: LaunchKind,
        exec: Exec,
        cap: Option<usize>,
        kernel: &K,
    ) -> Result<KernelReport, SimError> {
        if threads_per_block == 0 || threads_per_block > self.cfg.max_threads_per_block {
            return Err(SimError::BadLaunch(format!(
                "threads_per_block {threads_per_block} outside 1..={}",
                self.cfg.max_threads_per_block
            )));
        }
        if let Some(inj) = &self.faults {
            // Injected launch failure: the kernel never starts, no blocks
            // run, no time passes (the runtime rejects it up front).
            if let Some(err) = inj.on_launch(name) {
                return Err(err);
            }
        }
        // Functional execution with per-column accounting.
        let run_one = |c: usize| {
            let mut ctx = BlockCtx::new(&self.cost, Some(&self.um), threads_per_block);
            kernel.run_block(c, &mut ctx);
            ctx.cost()
        };
        let per_col: Vec<BlockCost> = match exec {
            Exec::Par => (0..cols).into_par_iter().map(run_one).collect(),
            Exec::Seq => (0..cols).map(run_one).collect(),
        };
        let per_block: Vec<BlockCost> = match stripes {
            1 => per_col,
            _ => per_col
                .iter()
                .flat_map(|&b| std::iter::repeat_n(b, stripes))
                .collect(),
        };

        let q = self.quote(kind, cap, &per_block);
        let mut s = self.state.lock();
        match kind {
            LaunchKind::Host => s.kernels_host += 1,
            LaunchKind::Device => s.kernels_device += 1,
            LaunchKind::Continue => s.dependency_waits += 1,
        }
        s.now_ns += q.time.as_ns();
        s.analytic_ns += q.analytic.as_ns();
        s.kernel_time_ns += q.time.as_ns();
        s.fault_time_ns += q.fault.as_ns();
        s.fault_groups += q.fault_groups;

        Ok(KernelReport {
            grid: per_block.len(),
            time: q.time,
            compute: q.compute,
            bandwidth: q.bandwidth,
            fault: q.fault,
            fault_groups: q.fault_groups,
            concurrency: q.concurrency,
        })
    }

    /// A block context outside any launch: pricing code reports to it as
    /// it would inside a kernel, and [`BlockCtx::cost`] hands the result to
    /// [`Gpu::quote`]. It has no unified-memory space — a UM touch moves
    /// pages, which a quote must not.
    pub fn scratch_block(&self, threads_per_block: usize) -> BlockCtx<'_> {
        BlockCtx::new(&self.cost, None, threads_per_block)
    }

    /// Prices a launch of `kind` over `blocks` (in block-id order), its
    /// concurrency additionally capped at `cap` — the whole pricing rule
    /// of [`Gpu::launch_striped`], and the one place it is written: launches
    /// charge what this returns. An empty grid still pays the launch
    /// overhead (matches CUDA).
    pub fn quote(&self, kind: LaunchKind, cap: Option<usize>, blocks: &[BlockCost]) -> LaunchQuote {
        let launch_ns = self.cost.launch_ns(kind);
        let slots = blocks
            .len()
            .min(self.cfg.tb_max)
            .min(cap.unwrap_or(usize::MAX))
            .max(1);
        let compute_ns = makespan(blocks.iter().map(|b| b.compute_ns), slots);
        let total_bytes: u64 = blocks.iter().map(|b| b.mem_bytes).sum();
        let bw_ns = total_bytes as f64 * self.cost.hbm_ns_per_byte;
        let fault_ns: f64 = blocks.iter().map(|b| b.fault_ns).sum();

        // The analytic clock charges the roofline bound the cost model
        // predicts without running the list scheduler: perfect packing of
        // the per-block times onto `slots` (the critical block or the
        // work/width bound, whichever dominates), under the same launch +
        // bandwidth + fault terms. Divergence between this and the
        // scheduled time is scheduling/quantization drift.
        let max_block_ns = blocks.iter().map(|b| b.compute_ns).fold(0.0, f64::max);
        let sum_block_ns: f64 = blocks.iter().map(|b| b.compute_ns).sum();
        let ideal_ns = max_block_ns.max(sum_block_ns / slots as f64);
        LaunchQuote {
            time: SimTime::from_ns(launch_ns + compute_ns.max(bw_ns) + fault_ns),
            analytic: SimTime::from_ns(launch_ns + ideal_ns.max(bw_ns) + fault_ns),
            compute: SimTime::from_ns(compute_ns),
            bandwidth: SimTime::from_ns(bw_ns),
            fault: SimTime::from_ns(fault_ns),
            fault_groups: blocks.iter().map(|b| b.fault_groups).sum(),
            concurrency: slots,
        }
    }

    /// Passes a *crash point*: a numbered site where an injected
    /// `crash:at=N` fault may kill the run with [`SimError::Crashed`].
    /// The pipeline places crash points around durable checkpoint writes;
    /// ordinals are counted even without a fault plan, so a clean run's
    /// [`GpuStatsSnapshot::crash_points`] enumerates every ordinal a chaos
    /// suite can target.
    pub fn crash_point(&self) -> Result<(), SimError> {
        let ordinal = {
            let mut s = self.state.lock();
            s.crash_points += 1;
            s.crash_points
        };
        if let Some(inj) = &self.faults {
            if inj.on_crash_point(ordinal) {
                return Err(SimError::Crashed { ordinal });
            }
        }
        Ok(())
    }

    /// Statistics snapshot (difference snapshots for phase accounting).
    pub fn stats(&self) -> GpuStatsSnapshot {
        let (injected_oom, injected_launch_faults, injected_squeezes, injected_crashes) =
            match &self.faults {
                Some(f) => (
                    f.injected_oom(),
                    f.injected_launches(),
                    f.injected_squeezes(),
                    f.injected_crashes(),
                ),
                None => (0, 0, 0, 0),
            };
        let s = self.state.lock();
        GpuStatsSnapshot {
            now: SimTime::from_ns(s.now_ns),
            kernels_host: s.kernels_host,
            kernels_device: s.kernels_device,
            dependency_waits: s.dependency_waits,
            kernel_time: SimTime::from_ns(s.kernel_time_ns),
            fault_time: SimTime::from_ns(s.fault_time_ns),
            fault_groups: s.fault_groups,
            h2d_bytes: s.h2d_bytes,
            d2h_bytes: s.d2h_bytes,
            xfer_time: SimTime::from_ns(s.xfer_time_ns),
            prefetch_time: SimTime::from_ns(s.prefetch_time_ns),
            injected_oom,
            injected_launch_faults,
            injected_squeezes,
            injected_crashes,
            crash_points: s.crash_points,
        }
    }
}

/// A block time as the scheduler sees it: integer nanoseconds ×1000 (times
/// here are ≥ 0 and far below u64 range).
fn ticks(t: f64) -> u64 {
    (t * 1000.0).round() as u64
}

/// Greedy list-scheduling makespan of `times` on `slots` identical machines
/// (assign each job in order to the earliest-finishing slot).
fn makespan<I: ExactSizeIterator<Item = f64>>(times: I, slots: usize) -> f64 {
    if times.len() <= slots {
        // Every job gets an idle slot: the scheduler below would pop a
        // zero each time, so the makespan is the longest rounded job.
        return times.map(ticks).max().unwrap_or(0) as f64 / 1000.0;
    }
    list_schedule(times, slots)
}

fn list_schedule<I: Iterator<Item = f64>>(times: I, slots: usize) -> f64 {
    let mut heap: BinaryHeap<Reverse<u64>> = (0..slots).map(|_| Reverse(0u64)).collect();
    let mut max_finish = 0u64;
    for t in times {
        let Reverse(earliest) = heap.pop().expect("slots >= 1");
        let finish = earliest + ticks(t);
        max_finish = max_finish.max(finish);
        heap.push(Reverse(finish));
    }
    max_finish as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::v100())
    }

    #[test]
    fn makespan_perfectly_divides_equal_jobs() {
        let times = vec![10.0; 8];
        assert!((makespan(times.into_iter(), 4) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn makespan_bounded_by_longest_job() {
        let times = vec![100.0, 1.0, 1.0, 1.0];
        assert!((makespan(times.into_iter(), 4) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn launch_advances_clock_and_counts() {
        let g = gpu();
        let before = g.now();
        let rep = g
            .launch("noop", 320, 1024, &|_b: usize, ctx: &mut BlockCtx| {
                ctx.step(100);
            })
            .expect("launch ok");
        assert!(g.now() > before);
        assert_eq!(rep.grid, 320);
        assert_eq!(rep.concurrency, 160, "tb_max caps concurrency");
        // 320 equal blocks on 160 slots = 2 waves.
        let one_block = g.cost().block_step_ns + 100.0 * g.cost().block_item_ns;
        assert!((rep.compute.as_ns() - 2.0 * one_block).abs() < 1.0);
        assert_eq!(g.stats().kernels_host, 1);
    }

    /// A striped launch runs its kernel once per column and charges what
    /// launching every stripe's block would: the same clocks, report and
    /// stats, under a cap or not, for every launch kind. An injected launch
    /// fault runs no block at all.
    #[test]
    fn a_striped_launch_charges_every_stripe_and_runs_each_column_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let price = |c: usize, ctx: &mut BlockCtx| {
            ctx.bulk_flops(3, 1000 * (c as u64 % 5 + 1));
            ctx.mem(64 * c as u64);
        };
        let shapes = [
            (3, 64, None),
            (5, 64, Some(7)),
            (40, 8, Some(3)),
            (200, 2, None),
            (1, 1, None),
            (0, 64, None),
        ];
        for (cols, stripes, cap) in shapes {
            for kind in [LaunchKind::Host, LaunchKind::Device, LaunchKind::Continue] {
                let (striped, every) = (gpu(), gpu());
                let ran = AtomicUsize::new(0);
                let body = |c: usize, ctx: &mut BlockCtx| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    price(c, ctx);
                };
                let a = striped
                    .launch_striped("k", cols, stripes, 1024, kind, Exec::Par, cap, &body)
                    .expect("ok");
                let each = |b: usize, ctx: &mut BlockCtx| price(b / stripes, ctx);
                let b = every
                    .launch_striped("k", cols * stripes, 1, 1024, kind, Exec::Seq, cap, &each)
                    .expect("ok");
                assert_eq!(ran.load(Ordering::Relaxed), cols, "once per column");
                let words = |r: &KernelReport| {
                    let times = [r.time, r.compute, r.bandwidth, r.fault];
                    let bits = times.map(|t| t.as_ns().to_bits());
                    (r.grid, bits, r.fault_groups, r.concurrency)
                };
                assert_eq!(words(&a), words(&b), "{cols}x{stripes} {cap:?} {kind:?}");
                let (sc, ec) = (striped.clocks(), every.clocks());
                assert_eq!(
                    (sc.0.to_bits(), sc.1.to_bits()),
                    (ec.0.to_bits(), ec.1.to_bits())
                );
                assert_eq!(striped.stats(), every.stats());
            }
        }

        let g = Gpu::with_fault_plan(
            GpuConfig::v100(),
            CostModel::default(),
            FaultPlan::new().bad_launch("k", 1),
        );
        let ran = AtomicUsize::new(0);
        let body = |_c: usize, ctx: &mut BlockCtx| {
            ran.fetch_add(1, Ordering::Relaxed);
            ctx.step(1);
        };
        let err = g.launch_striped("k", 4, 64, 1024, LaunchKind::Host, Exec::Par, None, &body);
        assert!(matches!(err, Err(SimError::BadLaunch(_))));
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no block runs");
        assert_eq!(g.now(), SimTime::ZERO);
        let s = g.stats();
        assert_eq!((s.kernels_host, s.injected_launch_faults), (0, 1));
    }

    #[test]
    fn device_launch_is_cheaper() {
        let g = gpu();
        let h = g
            .launch("h", 1, 32, &|_b: usize, ctx: &mut BlockCtx| ctx.step(1))
            .expect("ok");
        let d = g
            .launch_device("d", 1, 32, &|_b: usize, ctx: &mut BlockCtx| ctx.step(1))
            .expect("ok");
        assert!(d.time < h.time);
        let s = g.stats();
        assert_eq!((s.kernels_host, s.kernels_device), (1, 1));
    }

    #[test]
    fn a_continued_level_pays_a_block_step_and_is_not_a_launch() {
        // Three levels of one kernel: a child launch, then two levels that
        // wait on dependency flags. Each wait is priced as one block step,
        // counted apart from the launches, and still runs its blocks.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = gpu();
        let ran = AtomicUsize::new(0);
        let k = |_b: usize, ctx: &mut BlockCtx| {
            ran.fetch_add(1, Ordering::Relaxed);
            ctx.step(1);
        };
        let mut reports = Vec::new();
        for level in 0..3 {
            let kind = LaunchKind::level(level == 0, LaunchKind::Device);
            reports.push(
                g.launch_striped("k", 4, 1, 32, kind, Exec::Seq, None, &k)
                    .expect("ok"),
            );
        }
        let overhead = |r: &KernelReport| r.time.as_ns() - r.compute.as_ns();
        assert_eq!(overhead(&reports[0]), g.cost().device_launch_ns);
        assert_eq!(overhead(&reports[1]), g.cost().block_step_ns);
        assert_eq!(ran.load(Ordering::Relaxed), 12);
        let s = g.stats();
        assert_eq!(
            (s.kernels_host, s.kernels_device, s.dependency_waits),
            (0, 1, 2)
        );
    }

    #[test]
    fn empty_launch_still_costs_overhead() {
        let g = gpu();
        let rep = g
            .launch("empty", 0, 32, &|_b: usize, _ctx: &mut BlockCtx| {})
            .expect("ok");
        assert!((rep.time.as_ns() - g.cost().host_launch_ns).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_bound_kicks_in() {
        let g = gpu();
        // One block moving 1 GB: bandwidth time ~1.1 ms dwarfs compute.
        let rep = g
            .launch("bw", 1, 1024, &|_b: usize, ctx: &mut BlockCtx| {
                ctx.mem(1 << 30);
                ctx.step(1);
            })
            .expect("ok");
        assert!(rep.bandwidth > rep.compute);
        assert!(rep.time >= rep.bandwidth);
    }

    #[test]
    fn rejects_oversized_blocks() {
        let g = gpu();
        let err = g.launch("bad", 1, 2048, &|_b: usize, _ctx: &mut BlockCtx| {});
        assert!(matches!(err, Err(SimError::BadLaunch(_))));
    }

    #[test]
    fn um_faults_serialize_into_kernel_time() {
        let cfg = GpuConfig::v100().with_memory(1 << 20);
        let cost = crate::CostModel {
            um_page_bytes: 64 * 1024,
            ..Default::default()
        };
        let g = Gpu::with_cost(cfg, cost);
        let a = g.um.alloc(512 * 1024);
        let page = g.um.page_bytes();
        let rep = g
            .launch_striped(
                "um",
                4,
                1,
                1024,
                LaunchKind::Host,
                Exec::Seq,
                None,
                &|b: usize, ctx: &mut BlockCtx| {
                    ctx.um_read(&a, b as u64 * page, page);
                },
            )
            .expect("ok");
        assert!(rep.fault_groups > 0);
        assert!(rep.fault.as_ns() > 0.0);
        assert_eq!(g.stats().fault_groups, rep.fault_groups);
        drop(a);
        assert_eq!(g.um.resident_pages(), 0);
    }

    #[test]
    fn transfers_accumulate() {
        let g = gpu();
        g.h2d(1 << 20);
        g.d2h(1 << 10);
        let s = g.stats();
        assert_eq!(s.h2d_bytes, 1 << 20);
        assert_eq!(s.d2h_bytes, 1 << 10);
        assert!(s.xfer_time.as_ns() > 2.0 * g.cost().pcie_latency_ns - 1.0);
    }

    mod props {
        use super::super::{list_schedule, makespan};
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A quote is the clock advance of the launch it describes, to
            /// the bit: host, device, continued and M-capped launches, grids
            /// under and over `TB_max`, compute- and bandwidth-bound
            /// blocks, the empty grid included.
            #[test]
            fn prop_quote_equals_the_launch_clock_advance(
                items in proptest::collection::vec(0u64..200_000, 0..400),
                bytes in 0u64..4_000_000,
                threads_idx in 0usize..3,
                cap in 1usize..200,
                kind_idx in 0usize..6,
            ) {
                let threads = [32, 256, 1024][threads_idx];
                let price = |b: usize, ctx: &mut BlockCtx| {
                    ctx.bulk_flops(3, items[b]);
                    ctx.mem(bytes * (b as u64 % 3));
                };
                let g = gpu();
                let blocks: Vec<BlockCost> = (0..items.len())
                    .map(|b| {
                        let mut ctx = g.scratch_block(threads);
                        price(b, &mut ctx);
                        ctx.cost()
                    })
                    .collect();
                let (quote, report) = match kind_idx {
                    0 => (
                        g.quote(LaunchKind::Host, None, &blocks),
                        g.launch("k", items.len(), threads, &price),
                    ),
                    1 => (
                        g.quote(LaunchKind::Device, None, &blocks),
                        g.launch_device("k", items.len(), threads, &price),
                    ),
                    2 => {
                        let kind = LaunchKind::Continue;
                        (
                            g.quote(kind, None, &blocks),
                            g.launch_striped("k", items.len(), 1, threads, kind, Exec::Par, None, &price),
                        )
                    }
                    // M-capped batches: host-launched, tail-launched and
                    // continued.
                    k => {
                        use LaunchKind::*;
                        let kind = [Host, Device, Continue][k - 3];
                        (
                            g.quote(kind, Some(cap), &blocks),
                            g.launch_striped("k", items.len(), 1, threads, kind, Exec::Par, Some(cap), &price),
                        )
                    }
                };
                let report = report.expect("launch ok");
                prop_assert_eq!(quote.time.as_ns().to_bits(), report.time.as_ns().to_bits());
                let (now, analytic) = g.clocks();
                prop_assert_eq!(quote.time.as_ns().to_bits(), now.to_bits());
                prop_assert_eq!(quote.analytic.as_ns().to_bits(), analytic.to_bits());
                prop_assert_eq!(quote.concurrency, report.concurrency);
            }

            /// With a slot per block the shortcut prices exactly what the
            /// list scheduler would, to the bit.
            #[test]
            fn prop_idle_slot_shortcut_equals_list_scheduler(
                times in proptest::collection::vec(0.0f64..1.0e7, 1..96),
                spare in 0usize..8,
            ) {
                let slots = times.len() + spare;
                let fast = makespan(times.iter().copied(), slots);
                let slow = list_schedule(times.iter().copied(), slots);
                prop_assert_eq!(fast.to_bits(), slow.to_bits());
            }

            /// Greedy list scheduling respects the classic bounds:
            /// max(longest job, total/slots) <= makespan <= total/slots + longest.
            #[test]
            fn prop_makespan_bounds(
                times in proptest::collection::vec(0.0f64..10_000.0, 1..64),
                slots in 1usize..32,
            ) {
                let total: f64 = times.iter().sum();
                let longest = times.iter().copied().fold(0.0, f64::max);
                let m = makespan(times.iter().copied(), slots);
                let lower = longest.max(total / slots as f64);
                // Quantisation in the heap packs times at 1/1000 ns.
                prop_assert!(m + 0.01 * times.len() as f64 >= lower - 1e-6);
                prop_assert!(m <= total / slots as f64 + longest + 0.01 * times.len() as f64);
            }

            /// One slot serializes exactly.
            #[test]
            fn prop_single_slot_is_sum(
                times in proptest::collection::vec(0.0f64..1_000.0, 1..32),
            ) {
                let total: f64 = times.iter().sum();
                let m = makespan(times.iter().copied(), 1);
                prop_assert!((m - total).abs() <= 0.001 * times.len() as f64 + 1e-6);
            }
        }
    }

    #[test]
    fn injected_bad_launch_fires_on_exact_ordinal() {
        let g = Gpu::with_fault_plan(
            GpuConfig::v100(),
            CostModel::default(),
            FaultPlan::new().bad_launch("victim", 2),
        );
        let k = |_b: usize, ctx: &mut BlockCtx| ctx.step(1);
        assert!(g.launch("victim", 1, 32, &k).is_ok());
        let t_before = g.now();
        let err = g.launch("victim", 1, 32, &k);
        assert!(matches!(err, Err(SimError::BadLaunch(_))));
        assert_eq!(g.now(), t_before, "a rejected launch costs no time");
        assert!(g.launch("victim", 1, 32, &k).is_ok(), "transient");
        assert!(g.launch("bystander", 1, 32, &k).is_ok());
        let s = g.stats();
        assert_eq!(s.injected_launch_faults, 1);
        assert_eq!(s.kernels_host, 3, "the rejected launch is not counted");
    }

    #[test]
    fn injected_counters_flow_into_stats_and_since() {
        let g = Gpu::with_fault_plan(
            GpuConfig::v100(),
            CostModel::default(),
            FaultPlan::new().oom_on_alloc(1).squeeze_at(2, 90),
        );
        assert!(g.mem.alloc(16).is_err());
        let mid = g.stats();
        assert_eq!((mid.injected_oom, mid.injected_squeezes), (1, 0));
        let _ = g.mem.alloc(16).expect("squeeze does not fail the alloc");
        let s = g.stats();
        assert_eq!((s.injected_oom, s.injected_squeezes), (1, 1));
        assert_eq!(s.injected_faults(), 2);
        let d = s.since(&mid);
        assert_eq!((d.injected_oom, d.injected_squeezes), (0, 1));
    }

    #[test]
    fn crash_points_count_and_fire_on_ordinal() {
        // Without a plan: crash points are numbered but never fire.
        let clean = gpu();
        for _ in 0..3 {
            clean.crash_point().expect("no plan, no crash");
        }
        assert_eq!(clean.stats().crash_points, 3);
        assert_eq!(clean.stats().injected_crashes, 0);

        // With crash:at=2: the second crash point kills the run.
        let g = Gpu::with_fault_plan(
            GpuConfig::v100(),
            CostModel::default(),
            FaultPlan::new().crash_at(2),
        );
        assert!(g.crash_point().is_ok());
        assert_eq!(
            g.crash_point(),
            Err(SimError::Crashed { ordinal: 2 }),
            "second crash point fires"
        );
        assert!(g.crash_point().is_ok(), "exact ordinal only");
        let s = g.stats();
        assert_eq!((s.crash_points, s.injected_crashes), (3, 1));
    }

    #[test]
    fn empty_fault_plan_is_inert() {
        let g = Gpu::with_fault_plan(GpuConfig::v100(), CostModel::default(), FaultPlan::new());
        assert!(g.fault_injector().is_none());
        assert_eq!(g.stats().injected_faults(), 0);
    }

    #[test]
    fn seq_and_par_price_identically() {
        // Same kernel priced under both execution modes (no UM involved).
        let k = |b: usize, ctx: &mut BlockCtx| {
            ctx.step((b as u64 % 7) * 100);
        };
        let g1 = gpu();
        let g2 = gpu();
        let r1 = g1
            .launch_striped("k", 64, 1, 256, LaunchKind::Host, Exec::Par, None, &k)
            .expect("ok");
        let r2 = g2
            .launch_striped("k", 64, 1, 256, LaunchKind::Host, Exec::Seq, None, &k)
            .expect("ok");
        assert!((r1.time.as_ns() - r2.time.as_ns()).abs() < 1e-6);
    }
}
