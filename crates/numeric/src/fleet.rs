//! The fleet numeric driver: level-partitioned factorization across a
//! [`DeviceFleet`].
//!
//! Within one schedule level every column depends only on columns of
//! *earlier* levels, so a level's columns can be computed anywhere — the
//! split changes which device pays for which column, never the values.
//! [`run_levels_fleet`] partitions each level's columns into contiguous
//! per-device chunks, runs the same [`NumericEngine`] kernels the
//! single-device driver runs, then prices the **boundary-column
//! all-gather** at the level barrier (every device must see the level's
//! updated column values before the next level starts) on the fleet's
//! NVLink interconnect. Values live in one shared host-side
//! [`ValueStore`] — the simulator separates functional execution from
//! pricing — which is what makes fleet results bit-identical to the
//! single-device run for every engine and device count.
//!
//! A device failure (injected OOM or launch fault) marks the device dead
//! and reshards its chunk onto the survivors; column recomputation is
//! idempotent, so the retry is safe. Injected crashes stay terminal, as
//! everywhere else in the pipeline.
//!
//! The fleet path is a cold end-to-end run: level-granular resume and
//! the captured-schedule replay fast path remain single-device features.

use crate::blocked::{BlockPlan, BlockedEngine};
use crate::dense::DenseEngine;
use crate::engine::{LevelRun, NumericEngine};
use crate::error::NumericError;
use crate::merge::MergeEngine;
use crate::modes::{launch_shape, ModeMix};
use crate::outcome::{column_cost_estimate_cached, NumericOutcome, PivotCache, PivotRule};
use crate::scratch::ScratchPool;
use crate::sparse::SparseEngine;
use crate::values::ValueStore;
use gplu_schedule::Levels;
use gplu_sim::{split_even, DeviceAlloc, DeviceFleet, SimError, SimTime};
use gplu_sparse::{Csc, Idx, SparseError};
use gplu_trace::TraceSink;
use parking_lot::Mutex;
use std::borrow::Cow;

/// Outcome of a fleet numeric run: the ordinary [`NumericOutcome`]
/// (bit-identical factors, makespan time) plus fleet accounting.
#[derive(Debug, Clone)]
pub struct FleetNumericOutcome {
    /// The factors and counters, as the single-device driver reports them.
    pub outcome: NumericOutcome,
    /// Per-device simulated time spent in this phase, indexed by device
    /// ordinal.
    pub per_device: Vec<SimTime>,
    /// Devices that died during this phase (their chunks were resharded).
    pub died: Vec<usize>,
    /// Columns re-run on survivors after device deaths.
    pub resharded_cols: usize,
}

/// One device's share of a level: its columns and their hoisted item
/// counts, index-parallel. Borrowed from the level on the first attempt,
/// owned when a reshard reassembles the columns of failed devices.
struct Chunk<'a> {
    device: usize,
    cols: Cow<'a, [Idx]>,
    items: Cow<'a, [u64]>,
}

/// Runs `engine` over the level schedule sharded across the live devices
/// of `fleet`. See the module docs for the partitioning and exchange
/// discipline.
pub fn run_levels_fleet<E: NumericEngine>(
    engine: &mut E,
    fleet: &DeviceFleet,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    let n = pattern.n_cols();
    let before: Vec<_> = fleet.devices().iter().map(|g| g.stats()).collect();
    let mut died: Vec<usize> = Vec::new();
    let mut resharded_cols = 0usize;

    // Stage the CSC structure + values + level numbers on every live
    // device (each holds a full copy, the GSoFa layout the symbolic
    // fleet also uses). A device that cannot even stage is dead on
    // arrival for this phase.
    let csc_bytes = ((n + 1) as u64 + 2 * pattern.nnz() as u64) * 4;
    let mut arenas: Vec<Option<(DeviceAlloc, DeviceAlloc)>> = Vec::new();
    for d in 0..fleet.len() {
        arenas.push(None);
        if fleet.is_dead(d) {
            continue;
        }
        let gpu = fleet.device(d);
        let staged = gpu.mem.alloc(csc_bytes).and_then(|csc_dev| {
            gpu.h2d(csc_bytes);
            match gpu.mem.alloc(n as u64 * 4) {
                Ok(lvl_dev) => Ok((csc_dev, lvl_dev)),
                Err(e) => {
                    let _ = gpu.mem.free(csc_dev);
                    Err(e)
                }
            }
        });
        match staged {
            Ok(pair) => arenas[d] = Some(pair),
            Err(e @ SimError::Crashed { .. }) => return Err(e.into()),
            Err(_) => {
                fleet.mark_dead(d);
                died.push(d);
            }
        }
    }
    let alive = fleet.alive();
    let Some(&lead) = alive.first() else {
        return Err(NumericError::Sim(SimError::BadLaunch(
            "no live devices in fleet".into(),
        )));
    };
    engine.begin(fleet.device(lead), pattern)?;

    let vals = ValueStore::new(&pattern.vals);
    let cache = PivotCache::build(pattern);
    let mut mix = ModeMix::default();
    let error: Mutex<Option<SparseError>> = Mutex::new(None);
    let perturbs: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
    let scratch = ScratchPool::default();

    for (li, cols) in levels.groups.iter().enumerate() {
        let t = engine.classify(pattern, &cache, cols);
        match t {
            crate::modes::LevelType::A => mix.a += 1,
            crate::modes::LevelType::B => mix.b += 1,
            crate::modes::LevelType::C => mix.c += 1,
        }
        let (threads, stripes) = launch_shape(t);
        trace.span_begin(
            "numeric.level",
            "level",
            fleet.makespan().as_ns(),
            &[
                ("level", li.into()),
                ("width", cols.len().into()),
                ("devices", fleet.n_alive().into()),
            ],
        );
        let items_of: Vec<u64> = cols
            .iter()
            .map(|&j| column_cost_estimate_cached(pattern, &cache, j as usize).1)
            .collect();

        // Contiguous per-device column chunks, borrowed straight out of the
        // level (`split_even` hands out ranges); only a reshard builds
        // owned lists. `gather_bytes[d]` collects the value bytes device d
        // actually produced this level (reshards shift bytes to the
        // survivors that did the work).
        let mut gather_bytes = vec![0u64; fleet.len()];
        let owners = fleet.alive();
        let mut pending: Vec<Chunk<'_>> = owners
            .iter()
            .zip(split_even(cols.len(), owners.len()))
            .map(|(&device, r)| Chunk {
                device,
                cols: Cow::from(&cols[r.clone()]),
                items: Cow::from(&items_of[r]),
            })
            .collect();
        let mut last_err: Option<SimError> = None;
        while !pending.is_empty() {
            let mut failed: Vec<(Idx, u64)> = Vec::new();
            for chunk in pending.drain(..) {
                if chunk.cols.is_empty() {
                    continue;
                }
                let d = chunk.device;
                let gpu = fleet.device(d);
                let run = LevelRun {
                    gpu,
                    pattern,
                    cache: &cache,
                    vals: &vals,
                    scratch: &scratch,
                    error: &error,
                    level: li,
                    cols: &chunk.cols,
                    mode: t,
                    threads,
                    stripes,
                    items_of: &chunk.items,
                    rule,
                    perturbs: &perturbs,
                    tail_launch: false,
                };
                match engine.run_level(&run) {
                    Ok(()) => {
                        gather_bytes[d] += chunk
                            .cols
                            .iter()
                            .map(|&j| {
                                let j = j as usize;
                                (pattern.col_ptr[j + 1] - pattern.col_ptr[j]) as u64 * 8
                            })
                            .sum::<u64>();
                    }
                    Err(e @ SimError::Crashed { .. }) => return Err(e.into()),
                    Err(e) => {
                        if let Some((csc_dev, lvl_dev)) = arenas[d].take() {
                            let _ = fleet.device(d).mem.free(lvl_dev);
                            let _ = fleet.device(d).mem.free(csc_dev);
                        }
                        fleet.mark_dead(d);
                        died.push(d);
                        failed.extend(chunk.cols.iter().copied().zip(chunk.items.iter().copied()));
                        last_err = Some(e);
                    }
                }
            }
            if failed.is_empty() {
                break;
            }
            let survivors = fleet.alive();
            if survivors.is_empty() {
                return Err(NumericError::Sim(last_err.unwrap_or(SimError::BadLaunch(
                    "every fleet device died during numeric".into(),
                ))));
            }
            resharded_cols += failed.len();
            let mut shards: Vec<(Vec<Idx>, Vec<u64>)> = vec![Default::default(); survivors.len()];
            for (i, (col, items)) in failed.into_iter().enumerate() {
                let shard = &mut shards[i % survivors.len()];
                shard.0.push(col);
                shard.1.push(items);
            }
            pending = survivors
                .iter()
                .zip(shards)
                .map(|(&device, (c, i))| Chunk {
                    device,
                    cols: Cow::from(c),
                    items: Cow::from(i),
                })
                .collect();
        }

        // Level barrier: all-gather the level's updated columns so every
        // device enters the next level with the full value state.
        fleet.all_gather(&gather_bytes);
        trace.span_end(
            "numeric.level",
            "level",
            fleet.makespan().as_ns(),
            &[
                ("level", li.into()),
                ("width", cols.len().into()),
                ("mode", t.letter().into()),
                ("devices", fleet.n_alive().into()),
            ],
        );
        if let Some(e) = error.lock().take() {
            return Err(NumericError::from_sparse_at_level(e, li));
        }
    }

    // Tear down the arenas; one device ships the (identical) factored
    // values back to the host.
    for (d, arena) in arenas.iter_mut().enumerate() {
        if let Some((csc_dev, lvl_dev)) = arena.take() {
            let gpu = fleet.device(d);
            gpu.mem.free(lvl_dev)?;
            gpu.mem.free(csc_dev)?;
        }
    }
    let ship = fleet.alive().first().copied().unwrap_or(lead);
    fleet.device(ship).d2h(pattern.nnz() as u64 * 4);
    fleet.barrier();

    let lu = Csc::from_parts_unchecked(
        pattern.n_rows(),
        n,
        pattern.col_ptr.clone(),
        pattern.row_idx.clone(),
        vals.into_vec(),
    );
    let per_device: Vec<SimTime> = fleet
        .devices()
        .iter()
        .zip(&before)
        .map(|(g, b)| g.stats().since(b).now)
        .collect();
    let makespan = fleet
        .alive()
        .iter()
        .map(|&d| per_device[d])
        .fold(SimTime::ZERO, SimTime::max);
    let stats = fleet.device(ship).stats().since(&before[ship]);
    let c = engine.counters();
    let mut perturbations = perturbs.into_inner();
    perturbations.sort_unstable_by_key(|&(col, _)| col);
    // A chunk that partially ran before its device died records its
    // perturbations twice when the survivor re-runs it; the recomputed
    // deltas are identical, so dedup by column.
    perturbations.dedup_by_key(|&mut (col, _)| col);
    let mut out = NumericOutcome {
        lu,
        time: makespan,
        stats,
        mode_mix: mix,
        m_limit: None,
        batches: c.batches,
        probes: c.probes,
        merge_steps: c.merge_steps,
        gemm_tiles: c.gemm_tiles,
        perturbations,
    };
    engine.finish(&mut out);
    Ok(FleetNumericOutcome {
        outcome: out,
        per_device,
        died,
        resharded_cols,
    })
}

/// Merge-join engine across a fleet (the production numeric path).
pub fn factorize_fleet_merge(
    fleet: &DeviceFleet,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    let mut engine = MergeEngine::new();
    run_levels_fleet(&mut engine, fleet, pattern, levels, trace, rule)
}

/// Binary-search engine across a fleet.
pub fn factorize_fleet_sparse(
    fleet: &DeviceFleet,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    let mut engine = SparseEngine::new(None);
    run_levels_fleet(&mut engine, fleet, pattern, levels, trace, rule)
}

/// Dense-column engine across a fleet.
pub fn factorize_fleet_dense(
    fleet: &DeviceFleet,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    let mut engine = DenseEngine::new();
    run_levels_fleet(&mut engine, fleet, pattern, levels, trace, rule)
}

/// Supernode-blocked engine across a fleet.
pub fn factorize_fleet_blocked(
    fleet: &DeviceFleet,
    pattern: &Csc,
    levels: &Levels,
    plan: &BlockPlan,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    let mut engine = BlockedEngine::new(plan);
    run_levels_fleet(&mut engine, fleet, pattern, levels, trace, rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::factorize_gpu_merge;
    use gplu_schedule::{levelize_cpu, DepGraph};
    use gplu_sim::{CostModel, Gpu, GpuConfig};
    use gplu_sparse::convert::csr_to_csc;
    use gplu_sparse::gen::random::banded_dominant;
    use gplu_symbolic::symbolic_cpu;
    use gplu_trace::NOOP;

    /// `blocks` independent banded chains: every schedule level is
    /// `blocks` wide, so a fleet actually has columns to split.
    fn block_banded(blocks: usize, m: usize, band: usize, seed: u64) -> gplu_sparse::Csr {
        let n = blocks * m;
        let mut coo = gplu_sparse::Coo::new(n, n);
        for b in 0..blocks {
            let base = b * m;
            let block = banded_dominant(m, band, seed.wrapping_add(b as u64));
            for i in 0..m {
                for (j, v) in block.row_iter(i) {
                    coo.push(base + i, base + j, v);
                }
            }
        }
        gplu_sparse::gen::assemble_dominant(coo, 1.0)
    }

    fn setup(blocks: usize, m: usize, band: usize, seed: u64) -> (Csc, Levels) {
        let a = block_banded(blocks, m, band, seed);
        let sym = symbolic_cpu(&a, &CostModel::default());
        let g = DepGraph::build(&sym.result.filled);
        let levels = levelize_cpu(&g, &CostModel::default()).levels;
        (csr_to_csc(&sym.result.filled), levels)
    }

    fn fleet(_pattern: &Csc, k: usize) -> DeviceFleet {
        DeviceFleet::new(k, GpuConfig::v100())
    }

    #[test]
    fn fleet_matches_single_device_bits_for_every_engine_and_count() {
        let (pattern, levels) = setup(10, 50, 4, 71);
        let single_gpu = Gpu::new(GpuConfig::v100());
        let single = factorize_gpu_merge(&single_gpu, &pattern, &levels).expect("single");
        let plan = BlockPlan::detect(&pattern, &PivotCache::build(&pattern), 0.5);
        for k in [1, 2, 4, 8] {
            let runs: Vec<(&str, FleetNumericOutcome)> = vec![
                (
                    "merge",
                    factorize_fleet_merge(
                        &fleet(&pattern, k),
                        &pattern,
                        &levels,
                        &NOOP,
                        PivotRule::Exact,
                    )
                    .expect("merge"),
                ),
                (
                    "sparse",
                    factorize_fleet_sparse(
                        &fleet(&pattern, k),
                        &pattern,
                        &levels,
                        &NOOP,
                        PivotRule::Exact,
                    )
                    .expect("sparse"),
                ),
                (
                    "dense",
                    factorize_fleet_dense(
                        &fleet(&pattern, k),
                        &pattern,
                        &levels,
                        &NOOP,
                        PivotRule::Exact,
                    )
                    .expect("dense"),
                ),
                (
                    "blocked",
                    factorize_fleet_blocked(
                        &fleet(&pattern, k),
                        &pattern,
                        &levels,
                        &plan,
                        &NOOP,
                        PivotRule::Exact,
                    )
                    .expect("blocked"),
                ),
            ];
            for (name, out) in runs {
                assert_eq!(
                    single.lu.vals, out.outcome.lu.vals,
                    "{name} k={k} must be bit-identical"
                );
                assert!(out.died.is_empty());
            }
        }
    }

    #[test]
    fn fleet_scaling_reduces_makespan_and_prices_exchange() {
        // Wide levels (2048 chains) so a single device is wave-limited, and
        // scaled launch/interconnect latencies so per-level compute — the
        // part the fleet actually divides — dominates the fixed overheads,
        // as it does at production matrix sizes.
        let (pattern, levels) = setup(2048, 10, 6, 72);
        let cost = CostModel::default().scaled_latencies(10);
        let f1 = DeviceFleet::with_cost(1, GpuConfig::v100(), cost.clone());
        let one =
            factorize_fleet_merge(&f1, &pattern, &levels, &NOOP, PivotRule::Exact).expect("k=1");
        let f4 = DeviceFleet::with_cost(4, GpuConfig::v100(), cost);
        let four =
            factorize_fleet_merge(&f4, &pattern, &levels, &NOOP, PivotRule::Exact).expect("k=4");
        assert!(
            four.outcome.time.as_ns() < one.outcome.time.as_ns(),
            "4 devices {} must beat 1 device {}",
            four.outcome.time,
            one.outcome.time
        );
        assert_eq!(f1.stats().interconnect.exchanges, 0);
        let ic = f4.stats().interconnect;
        assert!(ic.exchanges > 0, "level barriers must price the exchange");
        assert!(ic.bytes > 0);
    }

    #[test]
    fn dead_device_reshards_mid_phase_bit_identically() {
        let (pattern, levels) = setup(8, 50, 4, 73);
        let single_gpu = Gpu::new(GpuConfig::v100());
        let single = factorize_gpu_merge(&single_gpu, &pattern, &levels).expect("single");
        // Device 1 loses its launch path after 3 successful level chunks.
        let plans =
            gplu_sim::FaultPlan::parse_fleet("dev=1:badlaunch:numeric_merge=4:persistent", 4)
                .expect("plans");
        let f = DeviceFleet::with_fault_plans(4, GpuConfig::v100(), CostModel::default(), &plans);
        let out = factorize_fleet_merge(&f, &pattern, &levels, &NOOP, PivotRule::Exact)
            .expect("fleet survives");
        assert_eq!(out.died, vec![1]);
        assert!(out.resharded_cols > 0);
        assert_eq!(f.n_alive(), 3);
        assert_eq!(single.lu.vals, out.outcome.lu.vals, "bit-identical");
    }
}
