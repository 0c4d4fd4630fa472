//! The fleet-taking numeric entry points and the fleet accounting every
//! run reports ([`FleetNumericOutcome`]). Every entry point of the crate,
//! `Gpu`-taking (a borrowed fleet of one) or fleet-taking, ends in one
//! expression: an engine handed to `run_on`. The level loop, its
//! sharding and its device-loss discipline live in [`crate::engine`].

use crate::blocked::{BlockPlan, BlockedEngine};
use crate::dense::DenseEngine;
use crate::engine::{run_levels, NumericEngine};
use crate::error::NumericError;
use crate::merge::MergeEngine;
use crate::outcome::{NumericOutcome, PivotCache, PivotRule};
use crate::resume::{LevelHook, NumericResume};
use gplu_schedule::Levels;
use gplu_sim::{DeviceFleet, SimTime};
use gplu_sparse::Csc;
use gplu_trace::TraceSink;

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

/// [`run_levels`] on an engine taken by value — what lets every entry
/// point construct its engine in the call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_on<E: NumericEngine>(
    mut engine: E,
    fleet: &DeviceFleet<'_>,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    resume: Option<&NumericResume>,
    hook: Option<&mut LevelHook<'_>>,
    pivot: Option<&PivotCache>,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    run_levels(
        &mut engine,
        fleet,
        pattern,
        levels,
        trace,
        resume,
        hook,
        pivot,
        rule,
    )
}

/// Merge-join engine across a fleet (the production numeric path).
pub fn factorize_fleet_merge(
    fleet: &DeviceFleet<'_>,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    run_on(
        MergeEngine,
        fleet,
        pattern,
        levels,
        trace,
        None,
        None,
        None,
        rule,
    )
}

/// Dense-column engine across a fleet.
pub fn factorize_fleet_dense(
    fleet: &DeviceFleet<'_>,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    run_on(
        DenseEngine::default(),
        fleet,
        pattern,
        levels,
        trace,
        None,
        None,
        None,
        rule,
    )
}

/// Supernode-blocked engine across a fleet.
pub fn factorize_fleet_blocked(
    fleet: &DeviceFleet<'_>,
    pattern: &Csc,
    levels: &Levels,
    plan: &BlockPlan,
    trace: &dyn TraceSink,
    rule: PivotRule,
) -> Result<FleetNumericOutcome, NumericError> {
    run_on(
        BlockedEngine::new(plan),
        fleet,
        pattern,
        levels,
        trace,
        None,
        None,
        None,
        rule,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::LevelProgress;
    use crate::sparse::SparseEngine;
    use crate::{
        factorize_gpu_blocked_run_cached, factorize_gpu_dense_run_cached, factorize_gpu_merge,
        factorize_gpu_merge_run_cached, factorize_gpu_sparse,
    };
    use gplu_schedule::{levelize_cpu, DepGraph};
    use gplu_sim::{CostModel, FaultPlan, Gpu, GpuConfig, SimError};
    use gplu_sparse::convert::csr_to_csc;
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
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
        filled_with_levels(&block_banded(blocks, m, band, seed))
    }

    fn filled_with_levels(a: &gplu_sparse::Csr) -> (Csc, Levels) {
        let sym = symbolic_cpu(a, &CostModel::default());
        let g = DepGraph::build(&sym.result.filled);
        let levels = levelize_cpu(&g, &CostModel::default()).levels;
        (csr_to_csc(&sym.result.filled), levels)
    }

    fn fleet(k: usize) -> DeviceFleet<'static> {
        DeviceFleet::new(k, GpuConfig::v100())
    }

    #[test]
    fn fleet_matches_single_device_bits_for_every_engine_and_count() {
        let (pattern, levels) = setup(10, 50, 4, 71);
        let plan = BlockPlan::detect(&pattern, &PivotCache::build(&pattern), 0.5);
        let (p, l, x) = (&pattern, &levels, PivotRule::Exact);
        let gpu = || Gpu::new(GpuConfig::v100());
        let singles = [
            factorize_gpu_merge_run_cached(&gpu(), p, l, &NOOP, None, None, None, x),
            factorize_gpu_sparse(&gpu(), p, l),
            factorize_gpu_dense_run_cached(&gpu(), p, l, &NOOP, None, None, None, x),
            factorize_gpu_blocked_run_cached(&gpu(), p, l, &plan, &NOOP, None, None, None, x),
        ]
        .map(|run| run.expect("single device"));
        for k in [1, 2, 4, 8] {
            let runs = [
                ("merge", factorize_fleet_merge(&fleet(k), p, l, &NOOP, x)),
                (
                    "sparse",
                    run_on(
                        SparseEngine::new(None),
                        &fleet(k),
                        p,
                        l,
                        &NOOP,
                        None,
                        None,
                        None,
                        x,
                    ),
                ),
                ("dense", factorize_fleet_dense(&fleet(k), p, l, &NOOP, x)),
                (
                    "blocked",
                    factorize_fleet_blocked(&fleet(k), p, l, &plan, &NOOP, x),
                ),
            ];
            for ((name, run), single) in runs.into_iter().zip(&singles) {
                let out = run.expect(name);
                assert_eq!(
                    singles[0].lu.vals, out.outcome.lu.vals,
                    "{name} k={k} must be bit-identical"
                );
                assert!(out.died.is_empty());
                if k == 1 {
                    // A fleet of one is the single-device run, to the clock.
                    let (f, g) = (&out.outcome, single);
                    assert_eq!(f.time, g.time, "{name}: simulated time");
                    assert_eq!(
                        (f.probes, f.merge_steps, f.batches, f.gemm_tiles),
                        (g.probes, g.merge_steps, g.batches, g.gemm_tiles),
                        "{name}: counters"
                    );
                }
            }
        }
    }

    /// Pins the simulated clock and every engine counter as literals, so
    /// a refactor of the driver or the kernel body that moves a charge,
    /// a launch or a count by one bit fails here rather than in a bench
    /// diff. Rows: (matrix, engine, devices, `time` bits, probes,
    /// merge steps, batches, GEMM tiles, M, host launches on the lead).
    #[test]
    fn pricing_and_counters_are_pinned_for_every_engine_and_count() {
        type Row = (
            &'static str,
            &'static str,
            usize,
            u64,
            u64,
            u64,
            u64,
            u64,
            Option<usize>,
            u64,
        );
        #[rustfmt::skip]
        const GOLDEN: [Row; 16] = [
            ("random", "dense", 1, 0x41358ad36aaaaaab, 0, 0, 235, 0, Some(10737252), 235),
            ("random", "sparse", 1, 0x4133b8412aaaaaaa, 7156451, 0, 0, 0, None, 235),
            ("random", "merge", 1, 0x413381ea04444445, 0, 1713573, 0, 0, None, 235),
            ("random", "blocked", 1, 0x4133614a84444443, 0, 1713573, 0, 1147, None, 235),
            ("random", "dense", 2, 0x413cb70e46d3a06f, 0, 0, 264, 0, Some(10737252), 235),
            ("random", "sparse", 2, 0x413ae47be2fc962e, 7156451, 0, 0, 0, None, 235),
            ("random", "merge", 2, 0x413aae25a06d3a0a, 0, 1713573, 0, 0, None, 235),
            ("random", "blocked", 2, 0x413a8d8ead3a06d2, 0, 1713573, 0, 1147, None, 235),
            ("banded", "dense", 1, 0x41175d9bfffffffa, 0, 0, 50, 0, Some(8589916), 50),
            ("banded", "sparse", 1, 0x41113eeffffffffd, 16182, 0, 0, 0, None, 50),
            ("banded", "merge", 1, 0x41113b0c00000000, 0, 6691, 0, 0, None, 50),
            ("banded", "blocked", 1, 0x4111353c00000000, 0, 6691, 0, 499, None, 50),
            ("banded", "dense", 2, 0x411d79d451eb851c, 0, 0, 100, 0, Some(8589916), 50),
            ("banded", "sparse", 2, 0x41175b2851eb8522, 16182, 0, 0, 0, None, 50),
            ("banded", "merge", 2, 0x4117574451eb8521, 0, 6691, 0, 0, None, 50),
            ("banded", "blocked", 2, 0x41175174da740da8, 0, 6691, 0, 499, None, 50),
        ];
        let random = filled_with_levels(&random_dominant(400, 4.0, 21));
        let banded = setup(10, 50, 4, 71);
        for (matrix, engine, k, time_bits, probes, steps, batches, tiles, m, launches) in GOLDEN {
            let (pattern, levels) = if matrix == "random" { &random } else { &banded };
            let plan = BlockPlan::detect(pattern, &PivotCache::build(pattern), 0.5);
            let mut boxed: Box<dyn crate::NumericEngine + '_> = match engine {
                "dense" => Box::<DenseEngine>::default(),
                "sparse" => Box::new(SparseEngine::new(None)),
                "merge" => Box::<MergeEngine>::default(),
                _ => Box::new(BlockedEngine::new(&plan)),
            };
            let out = run_levels(
                &mut *boxed,
                &fleet(k),
                pattern,
                levels,
                &NOOP,
                None,
                None,
                None,
                PivotRule::Exact,
            )
            .expect("runs")
            .outcome;
            assert_eq!(
                (
                    out.time.as_ns().to_bits(),
                    out.probes,
                    out.merge_steps,
                    out.batches,
                    out.gemm_tiles,
                    out.m_limit,
                    out.stats.kernels_host
                ),
                (time_bits, probes, steps, batches, tiles, m, launches),
                "{matrix} / {engine} / {k} devices"
            );
        }
    }

    #[test]
    fn a_run_cut_at_a_level_resumes_bit_identically_at_every_count() {
        let (pattern, levels) = setup(6, 40, 4, 74);
        let cut_after = levels.groups.len() / 2;
        for k in [1, 2] {
            let run = |resume: Option<&NumericResume>, hook: Option<&mut LevelHook<'_>>| {
                run_levels(
                    &mut MergeEngine,
                    &fleet(k),
                    &pattern,
                    &levels,
                    &NOOP,
                    resume,
                    hook,
                    None,
                    PivotRule::Exact,
                )
            };
            let whole = run(None, None).expect("uninterrupted").outcome;

            // Snapshot at the level barrier, then abort the run there.
            let mut cut: Option<NumericResume> = None;
            let mut hook = |p: &LevelProgress<'_>| -> Result<(), SimError> {
                if p.level + 1 < cut_after {
                    return Ok(());
                }
                cut = Some(NumericResume {
                    start_level: p.level + 1,
                    vals: (0..p.vals.len()).map(|i| p.vals.get(i)).collect(),
                    mode_mix: p.mode_mix,
                    probes: p.probes,
                    merge_steps: p.merge_steps,
                    batches: p.batches,
                    gemm_tiles: p.gemm_tiles,
                });
                Err(SimError::BadLaunch("cut".into()))
            };
            assert!(run(None, Some(&mut hook)).is_err(), "k={k}: the cut aborts");
            let cut = cut.expect("hook ran");
            assert_eq!(cut.start_level, cut_after);

            let resumed = run(Some(&cut), None).expect("resumed").outcome;
            assert_eq!(whole.lu.vals, resumed.lu.vals, "k={k}: bit-identical");
            assert_eq!(whole.merge_steps, resumed.merge_steps, "k={k}: counters");
            assert_eq!(whole.mode_mix, resumed.mode_mix, "k={k}: mode mix");
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

    #[test]
    fn a_device_lost_between_dense_batches_never_factors_a_column_twice() {
        // The kernel core is not idempotent, and M-capped batches let a
        // share die with some of its columns finished. Two devices with
        // room for M = 3 buffers take 8 columns of every level each, in
        // batches of 3 + 3 + 2; device 1's K-th allocation fails — in
        // staging, on a level's first buffer (nothing ran yet) or on a
        // later one (earlier batches already hold factors). Device 0 must
        // pay for the whole share and factor only what is unfinished.
        let (pattern, levels) = setup(16, 30, 4, 73);
        let single = factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels)
            .expect("single device");
        let n = pattern.n_cols() as u64;
        let staged = (n + 1 + 2 * pattern.nnz() as u64) * 4 + n * 4;
        let cfg = GpuConfig::v100().with_memory(staged + 3 * n * 4 + 64);
        for k in 1..=40 {
            let plans = FaultPlan::parse_fleet(&format!("dev=1:oom:alloc={k}"), 2).expect("plans");
            let f = DeviceFleet::with_fault_plans(2, cfg.clone(), CostModel::default(), &plans);
            let out = factorize_fleet_dense(&f, &pattern, &levels, &NOOP, PivotRule::Exact)
                .expect("device 0 survives");
            assert_eq!(out.outcome.m_limit, Some(3));
            assert_eq!(
                out.died,
                vec![1],
                "alloc={k}: every fault lands in this phase"
            );
            let (want, got) = (&single.lu.vals, &out.outcome.lu.vals);
            let differ = (0..want.len()).filter(|&i| want[i].to_bits() != got[i].to_bits());
            assert_eq!(differ.count(), 0, "alloc={k}: values off the merge factors");
            // Staging allocates twice; a share lost later is paid for whole.
            assert_eq!(out.resharded_cols, if k > 2 { 8 } else { 0 }, "alloc={k}");
        }
    }
}
