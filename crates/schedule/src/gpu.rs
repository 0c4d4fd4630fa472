//! GPU levelization: Kahn's algorithm with dynamic parallelism — the
//! paper's Algorithm 5 and its second contribution.
//!
//! The whole procedure runs on the device: a host-launched parent `Topo`
//! kernel orchestrates the wavefronts from device code (CUDA dynamic
//! parallelism). Against the prior art that bounced back to the CPU to
//! launch each level's kernels [Saxena et al. 37], the wavefront loop
//! never pays the ~5 µs host round-trip — on graphs with thousands of
//! levels this is the difference the paper claims.
//!
//! Structure (Algorithm 5):
//! * `cons_graph` — builds the dependency adjacency on the device,
//! * `cnt_indegree` — counts in-degrees,
//! * `Topo` (parent) — one dynamic-parallelism child launch of the
//!   initial `cons_queue`, then the wavefront loop: `update` decrements
//!   the in-degrees of the current queue's out-neighbours (atomics),
//!   collecting vertices that hit zero; `cons_queue` compacts them into
//!   the next queue and assigns the level number.
//!
//! **Beyond Algorithm 5 as written:** the paper launches `update` and
//! `cons_queue` as two child kernels per wavefront (0.6 µs each). Here
//! they are phases of the one child kernel the initial `cons_queue`
//! opened, each waiting in-kernel on a dependency flag the phase before
//! set ([`LaunchKind::Continue`], priced at `block_step_ns`) — the same
//! discipline the numeric and triangular-solve level loops use, and GLU
//! 3.0's one-kernel level tail. One levelize is three host launches, one
//! child launch and two waits per wavefront; the levels are unchanged.

use crate::depgraph::DepGraph;
use crate::levels::Levels;
use crossbeam::queue::SegQueue;
use gplu_sim::{BlockCtx, Exec, Gpu, GpuStatsSnapshot, Kernel, LaunchKind, SimError, SimTime};
use gplu_sparse::Idx;
use gplu_trace::{TraceSink, NOOP};
use std::sync::atomic::{AtomicU32, Ordering};

/// Outcome of GPU levelization.
#[derive(Debug, Clone)]
pub struct GpuLevelizeOutcome {
    /// The level schedule.
    pub levels: Levels,
    /// Simulated time of the whole procedure (graph build + topo sort).
    pub time: SimTime,
    /// Device-side child-kernel launches performed by `Topo`: one, whose
    /// later phases are in-kernel dependency waits
    /// (`stats.dependency_waits`).
    pub device_launches: u64,
    /// GPU statistics delta.
    pub stats: GpuStatsSnapshot,
}

/// Runs levelization on the GPU (Algorithm 5).
pub fn levelize_gpu(gpu: &Gpu, g: &DepGraph) -> Result<GpuLevelizeOutcome, SimError> {
    levelize_gpu_traced(gpu, g, &NOOP)
}

/// [`levelize_gpu`] with telemetry: one `levelize.wavefront` span per Kahn
/// wavefront, carrying the wavefront index and its width (the number of
/// queue vertices the `update` phase processed), plus a
/// `levelize.width` counter sample per wavefront.
pub fn levelize_gpu_traced(
    gpu: &Gpu,
    g: &DepGraph,
    trace: &dyn TraceSink,
) -> Result<GpuLevelizeOutcome, SimError> {
    let n = g.n();
    let before = gpu.stats();

    // Device storage: adjacency (ptr + adj), in-degrees, level numbers and
    // the two queues.
    let graph_bytes = ((n + 1) as u64 + g.n_edges() as u64) * 4;
    let _graph_dev = gpu.mem.alloc(graph_bytes)?;
    gpu.h2d(graph_bytes);
    let _work_dev = gpu.mem.alloc(4 * 4 * n as u64)?;
    let level_of = topo_sort(gpu, g, trace)?;

    let stats = gpu.stats().since(&before);
    Ok(GpuLevelizeOutcome {
        levels: Levels::from_level_of(level_of),
        time: stats.now,
        device_launches: stats.kernels_device,
        stats,
    })
}

/// One phase of `Topo`'s child kernel: the phase that opens the run is
/// the dynamic-parallelism launch, every later one continues it.
fn phase<K: Kernel>(
    gpu: &Gpu,
    name: &str,
    grid: usize,
    opens: bool,
    k: &K,
) -> Result<(), SimError> {
    let kind = LaunchKind::level(opens, LaunchKind::Device);
    gpu.launch_striped(name, grid, 1, 1024, kind, Exec::Par, None, k)
        .map(drop)
}

/// Lines 14–16 of Algorithm 5 on resident device buffers (the in-degree,
/// level and two queue arrays): returns each column's level.
fn topo_sort(gpu: &Gpu, g: &DepGraph, trace: &dyn TraceSink) -> Result<Vec<u32>, SimError> {
    let n = g.n();

    // cons_graph: the device-side adjacency construction (line 14).
    gpu.launch(
        "cons_graph",
        g.n_edges().div_ceil(1024).max(1),
        1024,
        &|_b: usize, ctx: &mut BlockCtx| {
            ctx.step(1024);
            ctx.mem(1024 * 8);
        },
    )?;

    // cnt_indegree (line 15): one pass over the edges.
    let indegree: Vec<AtomicU32> = g.indegree.iter().map(|&d| AtomicU32::new(d)).collect();
    gpu.launch(
        "cnt_indegree",
        g.n_edges().div_ceil(1024).max(1),
        1024,
        &|_b: usize, ctx: &mut BlockCtx| {
            ctx.step(1024);
            ctx.mem(1024 * 4);
        },
    )?;

    // Topo parent kernel (line 16): one host launch; everything below is
    // its one child kernel.
    gpu.launch("Topo", 1, 32, &|_b: usize, ctx: &mut BlockCtx| {
        ctx.serial(16); // parent bookkeeping
    })?;

    let mut level_of = vec![0u32; n];

    // Initial queue: vertices with no incoming edges (child cons_queue,
    // line 4): scan all in-degrees. The child launch that opens the run.
    let found: SegQueue<Idx> = SegQueue::new();
    phase(
        gpu,
        "cons_queue",
        n.div_ceil(1024).max(1),
        true,
        &|b: usize, ctx: &mut BlockCtx| {
            let start = b * 1024;
            let end = (start + 1024).min(n);
            ctx.step((end - start) as u64);
            ctx.mem((end - start) as u64 * 4);
            for (v, d) in indegree.iter().enumerate().take(end).skip(start) {
                if d.load(Ordering::Relaxed) == 0 {
                    found.push(v as Idx);
                }
            }
        },
    )?;

    let mut queue: Vec<Idx> = std::iter::from_fn(|| found.pop()).collect();
    queue.sort_unstable();

    let mut level_num = 1u32;
    let mut scheduled = queue.len();
    while !queue.is_empty() {
        // update (line 7): one block per queue vertex, threads over its
        // out-edges; decrements are atomic.
        let q = std::mem::take(&mut queue);
        trace.span_begin(
            "levelize.wavefront",
            "level",
            gpu.now().as_ns(),
            &[
                ("wavefront", (level_num as u64 - 1).into()),
                ("width", q.len().into()),
            ],
        );
        trace.counter("levelize.width", "level", gpu.now().as_ns(), q.len() as f64);
        phase(
            gpu,
            "update",
            q.len(),
            false,
            &|b: usize, ctx: &mut BlockCtx| {
                let v = q[b] as usize;
                let out = g.out(v);
                ctx.step(out.len() as u64);
                ctx.mem(out.len() as u64 * 8);
                for &j in out {
                    if indegree[j as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                        found.push(j);
                    }
                }
            },
        )?;

        // cons_queue (line 9): compact the vertices that reached
        // in-degree zero into the next queue and stamp their level. Cost
        // is proportional to the vertices actually compacted.
        let mut next: Vec<Idx> = std::iter::from_fn(|| found.pop()).collect();
        next.sort_unstable();
        phase(
            gpu,
            "cons_queue",
            next.len().div_ceil(1024).max(1),
            false,
            &|b: usize, ctx: &mut BlockCtx| {
                let items = 1024.min(next.len().saturating_sub(b * 1024)) as u64;
                ctx.step(items);
                ctx.mem(items * 4);
            },
        )?;

        for &v in &next {
            level_of[v as usize] = level_num;
        }
        trace.span_end(
            "levelize.wavefront",
            "level",
            gpu.now().as_ns(),
            &[("next_width", next.len().into())],
        );
        scheduled += next.len();
        level_num += 1;
        queue = next;
    }

    gpu.d2h(n as u64 * 4); // level numbers back to the host scheduler
    if scheduled != n {
        // A cycle would mean the dependency graph was not a DAG — edges
        // always ascend, so this is unreachable unless the graph is
        // corrupt.
        return Err(SimError::Aborted(format!(
            "topological sort visited {scheduled} of {n} columns (cycle?)"
        )));
    }
    Ok(level_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::levelize_cpu;
    use gplu_sim::{CostModel, FaultPlan, GpuConfig};
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_trace::{EventKind, Recorder};

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::v100())
    }

    #[test]
    fn matches_cpu_levels() {
        let a = random_dominant(300, 4.0, 41);
        let g = DepGraph::build(&a);
        let gpu_out = levelize_gpu(&gpu(), &g).expect("runs");
        let cpu_out = levelize_cpu(&g, &CostModel::default());
        assert_eq!(gpu_out.levels.level_of, cpu_out.levels.level_of);
        gpu_out.levels.validate(&g).expect("valid schedule");
    }

    #[test]
    fn kahn_levels_equal_longest_path() {
        // Kahn wavefronts and the longest-path recurrence coincide.
        let a = banded_dominant(500, 3, 42);
        let g = DepGraph::build(&a);
        let out = levelize_gpu(&gpu(), &g).expect("runs");
        out.levels.validate(&g).expect("wavefront == longest path");
    }

    #[test]
    fn one_child_launch_then_two_waits_per_wavefront() {
        // The literals are the simulated times of Algorithm 5 as written
        // (two 600 ns child launches per wavefront); each of the 2·L
        // phases now pays a 50 ns wait instead, and nothing else moves.
        let c = CostModel::default();
        let saved = c.device_launch_ns - c.block_step_ns;
        for (name, a, paper_ns) in [
            ("banded", banded_dominant(400, 2, 43), 533_801.333_333_333_4),
            (
                "random",
                random_dominant(300, 4.0, 41),
                57_750.333_333_333_336,
            ),
            ("identity", gplu_sparse::Csr::identity(64), 37_653.0),
        ] {
            let g = DepGraph::build(&a);
            let out = levelize_gpu(&gpu(), &g).expect("runs");
            let waves = out.levels.n_levels() as u64;
            let s = &out.stats;
            assert_eq!(
                (s.kernels_host, s.kernels_device, s.dependency_waits),
                (3, 1, 2 * waves),
                "{name}"
            );
            assert_eq!(out.device_launches, 1, "{name}");
            let cpu = levelize_cpu(&g, &c);
            assert_eq!(out.levels.level_of, cpu.levels.level_of, "{name}");
            let want = paper_ns - 2.0 * waves as f64 * saved;
            let got = out.time.as_ns();
            assert!((got - want).abs() <= 1e-9 * want, "{name}: {got} vs {want}");
        }
    }

    #[test]
    fn a_failed_levelize_frees_its_buffers_and_charges_no_rejected_phase() {
        let a = random_dominant(200, 3.0, 44);
        let g = DepGraph::build(&a);
        let recorder = Recorder::new();
        let clean = levelize_gpu_traced(&gpu(), &g, &recorder).expect("runs");
        // Clean-run clock at each wavefront's begin and end.
        let stamps = |kind: EventKind| -> Vec<f64> {
            let events = recorder.events();
            let spans = events.iter().filter(|e| e.name == "levelize.wavefront");
            spans.filter(|e| e.kind == kind).map(|e| e.ts_ns).collect()
        };
        let (begins, ends) = (stamps(EventKind::Begin), stamps(EventKind::End));
        let waves = clean.levels.n_levels() as u64;
        assert_eq!(begins.len() as u64, waves);
        let faulted = |plan: FaultPlan| {
            let gpu = Gpu::with_fault_plan(GpuConfig::v100(), CostModel::default(), plan);
            let err = levelize_gpu(&gpu, &g).expect_err("the fault must land");
            assert_eq!(gpu.mem.used_bytes(), 0, "leaked after {err}");
            (err, gpu.stats())
        };
        for k in 1..=waves {
            // Wavefront k's update: 2k - 2 phases continued before it.
            let (err, s) = faulted(FaultPlan::new().bad_launch("update", k));
            assert!(matches!(err, SimError::BadLaunch(_)), "update {k}: {err}");
            assert_eq!(s.dependency_waits, 2 * k - 2, "update {k}");
            assert_eq!(s.now.as_ns(), begins[k as usize - 1], "update {k}");
        }
        for k in 1..=waves + 1 {
            // cons_queue ordinal 1 opens the run; ordinal k > 1 closes
            // wavefront k - 1, after its update was charged.
            let (err, s) = faulted(FaultPlan::new().bad_launch("cons_queue", k));
            assert!(matches!(err, SimError::BadLaunch(_)), "cons_queue {k}");
            assert_eq!(s.kernels_device, u64::from(k > 1), "cons_queue {k}");
            assert_eq!(
                s.dependency_waits,
                (2 * k).saturating_sub(3),
                "cons_queue {k}"
            );
            if k > 1 {
                let w = k as usize - 2;
                assert!(begins[w] < s.now.as_ns(), "cons_queue {k}");
                let cons_queue_ns = ends[w] - s.now.as_ns();
                assert!(cons_queue_ns >= CostModel::default().block_step_ns);
            } else {
                assert!(s.now.as_ns() < begins[0], "cons_queue 1");
            }
        }
        // The work buffer's allocation fails with the graph already on
        // the device.
        let (err, s) = faulted(FaultPlan::new().oom_on_alloc(2));
        assert!(matches!(err, SimError::OutOfMemory { .. }), "{err}");
        assert_eq!(s.kernels_host, 0);
    }

    #[test]
    fn all_independent_columns_is_one_level() {
        let g = DepGraph::build(&gplu_sparse::Csr::identity(64));
        let out = levelize_gpu(&gpu(), &g).expect("runs");
        assert_eq!(out.levels.n_levels(), 1);
        assert_eq!(out.levels.max_width(), 64);
    }

    #[test]
    fn frees_device_memory() {
        let a = random_dominant(200, 3.0, 44);
        let g = DepGraph::build(&a);
        let gpu = gpu();
        levelize_gpu(&gpu, &g).expect("runs");
        assert_eq!(gpu.mem.used_bytes(), 0);
    }
}
