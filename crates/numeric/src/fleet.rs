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
use gplu_sim::DeviceFleet;
use gplu_sparse::Csc;
use gplu_trace::TraceSink;

/// Outcome of a fleet numeric run: the ordinary [`NumericOutcome`]
/// (bit-identical factors, makespan time). Which devices were lost, the
/// columns their losses cost and each device's clock are the fleet's to
/// say ([`DeviceFleet::is_dead`], [`DeviceFleet::stats`]).
#[derive(Debug, Clone)]
pub struct FleetNumericOutcome {
    /// The factors and counters, as the single-device driver reports them.
    pub outcome: NumericOutcome,
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
        None,
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
        factorize_gpu_blocked_run_cached, factorize_gpu_dense, factorize_gpu_dense_run_cached,
        factorize_gpu_merge, factorize_gpu_merge_run_cached, factorize_gpu_sparse,
    };
    use gplu_schedule::{levelize_cpu, DepGraph};
    use gplu_sim::{CostModel, FaultPlan, Gpu, GpuConfig, SimError};
    use gplu_sparse::convert::csr_to_csc;
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_symbolic::symbolic_cpu;
    use gplu_trace::{EventKind, Recorder, TraceEvent, NOOP};

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

    const ENGINES: [&str; 4] = ["merge", "sparse", "dense", "blocked"];

    /// `run_levels` on the engine called `name`, cold, no hooks.
    fn run_engine(
        name: &str,
        fleet: &DeviceFleet<'_>,
        pattern: &Csc,
        levels: &Levels,
        plan: &BlockPlan,
    ) -> Result<FleetNumericOutcome, NumericError> {
        run_engine_with(name, fleet, pattern, levels, plan, None, &NOOP)
    }

    /// [`run_engine`] with an optional per-level hook installed, traced.
    fn run_engine_with(
        name: &str,
        fleet: &DeviceFleet<'_>,
        pattern: &Csc,
        levels: &Levels,
        plan: &BlockPlan,
        hook: Option<&mut LevelHook<'_>>,
        trace: &dyn TraceSink,
    ) -> Result<FleetNumericOutcome, NumericError> {
        let mut boxed: Box<dyn NumericEngine + '_> = match name {
            "dense" => Box::<DenseEngine>::default(),
            "sparse" => Box::new(SparseEngine::new(None)),
            "merge" => Box::<MergeEngine>::default(),
            _ => Box::new(BlockedEngine::new(plan)),
        };
        run_levels(
            &mut *boxed,
            fleet,
            pattern,
            levels,
            trace,
            None,
            hook,
            None,
            PivotRule::Exact,
            None,
        )
    }

    #[test]
    fn fleet_matches_single_device_bits_for_every_engine_and_count() {
        // Ten chains side by side (levels ten wide) and one pure chain
        // (every level one column: nothing to split, so nothing may move).
        let wide = setup(10, 50, 4, 71);
        let chain = filled_with_levels(&banded_dominant(300, 4, 75));
        for (pattern, levels) in [&wide, &chain] {
            let plan = BlockPlan::detect(pattern, &PivotCache::build(pattern), 0.5);
            let (p, l, x) = (pattern, levels, PivotRule::Exact);
            let gpu = || Gpu::new(GpuConfig::v100());
            let singles = [
                factorize_gpu_merge_run_cached(&gpu(), p, l, &NOOP, None, None, None, x),
                factorize_gpu_sparse(&gpu(), p, l),
                factorize_gpu_dense_run_cached(&gpu(), p, l, &NOOP, None, None, None, x),
                factorize_gpu_blocked_run_cached(&gpu(), p, l, &plan, &NOOP, None, None, None, x),
            ]
            .map(|run| run.expect("single device"));
            let is_chain = levels.groups.iter().all(|g| g.len() == 1);
            for k in [1, 2, 4, 8] {
                for (name, single) in ENGINES.into_iter().zip(&singles) {
                    let f = fleet(k);
                    let out = run_engine(name, &f, p, l, &plan).expect(name);
                    assert_eq!(
                        singles[0].lu.vals, out.outcome.lu.vals,
                        "{name} k={k} must be bit-identical"
                    );
                    assert_eq!(f.n_alive(), k);
                    let (got, one) = (&out.outcome, single);
                    // A level leaves the home device only when the quote
                    // says that is cheaper: more devices never cost time.
                    assert!(
                        got.time <= one.time,
                        "{name} k={k}: {} > {}",
                        got.time,
                        one.time
                    );
                    if k == 1 || is_chain {
                        // A fleet of one — or one with nothing to split —
                        // is the single-device run, to the clock.
                        assert_eq!(got.time, one.time, "{name} k={k}: simulated time");
                        assert_eq!(f.stats().interconnect.exchanges, 0, "{name} k={k}");
                    }
                    assert_eq!(
                        (got.probes, got.merge_steps, got.gemm_tiles),
                        (one.probes, one.merge_steps, one.gemm_tiles),
                        "{name} k={k}: counters"
                    );
                }
            }
        }
        // Room for M = 3 dense buffers: one device runs a ten-wide level in
        // four batches of the one running kernel. A split halves the
        // batches but makes each share, and the next level, a host launch
        // — the quote must charge it all of that.
        let (pattern, levels) = &wide;
        let n = pattern.n_cols() as u64;
        let staged = (n + 1 + 2 * pattern.nnz() as u64) * 4 + n * 4;
        let cfg = GpuConfig::v100().with_memory(staged + 3 * n * 4 + 64);
        let one = factorize_gpu_dense(&Gpu::new(cfg.clone()), pattern, levels).expect("one device");
        assert_eq!(one.m_limit, Some(3));
        assert_eq!(one.stats.kernels_host, 1);
        for k in [2, 4, 8] {
            let f = DeviceFleet::new(k, cfg.clone());
            let got = factorize_fleet_dense(&f, pattern, levels, &NOOP, PivotRule::Exact)
                .expect("fleet")
                .outcome;
            assert_eq!(one.lu.vals, got.lu.vals, "M = 3, k={k}: bit-identical");
            assert!(
                got.time <= one.time,
                "M = 3, k={k}: {} > {}",
                got.time,
                one.time
            );
        }
    }

    /// Pins the simulated clock and every engine counter as literals, so
    /// a refactor of the driver or the kernel body that moves a charge,
    /// a launch or a count by one bit fails here rather than in a bench
    /// diff. Rows: (matrix, engine, devices, hooked, `time` bits, probes,
    /// merge steps, batches, GEMM tiles, M, host launches and in-kernel
    /// dependency waits on the home device, exchange legs, exchange
    /// bytes). An unsplit run is one kernel: one host launch, then a wait
    /// per later level or dense batch. At these sizes and default
    /// latencies only the dense engine on the wide matrix ever quotes a
    /// split below the home device, so every other 2-device row is its
    /// 1-device row with zero legs. A hooked row runs with a no-op
    /// [`LevelHook`] installed: the host has work at every level boundary,
    /// every level is a host launch, and the row is, to the bit, what the
    /// run cost when every cold level was host-launched (PR 23's literals,
    /// unchanged by PRs 24 and 26). No numeric level is a child launch.
    #[test]
    fn pricing_and_counters_are_pinned_for_every_engine_and_count() {
        type Row = (
            &'static str,
            &'static str,
            usize,
            bool,
            u64,
            u64,
            u64,
            u64,
            u64,
            Option<usize>,
            u64,
            u64,
            u64,
            u64,
        );
        #[rustfmt::skip]
        const GOLDEN: [Row; 26] = [
            ("random", "dense", 1, false, 0x410ef1bb55555550, 0, 0, 235, 0, Some(10737252), 1, 234, 0, 0),
            ("random", "sparse", 1, false, 0x41005d2955555554, 7156451, 0, 0, 0, None, 1, 234, 0, 0),
            ("random", "merge", 1, false, 0x40fd54e044444446, 0, 1713573, 0, 0, None, 1, 234, 0, 0),
            ("random", "blocked", 1, false, 0x40fb4ae844444442, 0, 1713573, 0, 1147, None, 1, 234, 0, 0),
            ("random", "dense", 2, false, 0x410ef1bb55555550, 0, 0, 235, 0, Some(10737252), 1, 234, 0, 0),
            ("random", "sparse", 2, false, 0x41005d2955555554, 7156451, 0, 0, 0, None, 1, 234, 0, 0),
            ("random", "merge", 2, false, 0x40fd54e044444446, 0, 1713573, 0, 0, None, 1, 234, 0, 0),
            ("random", "blocked", 2, false, 0x40fb4ae844444442, 0, 1713573, 0, 1147, None, 1, 234, 0, 0),
            ("banded", "dense", 1, false, 0x41011f8800000004, 0, 0, 50, 0, Some(8589916), 1, 49, 0, 0),
            ("banded", "sparse", 1, false, 0x40e388c000000008, 16182, 0, 0, 0, None, 1, 49, 0, 0),
            ("banded", "merge", 1, false, 0x40e369a000000000, 0, 6691, 0, 0, None, 1, 49, 0, 0),
            ("banded", "blocked", 1, false, 0x40e33b2000000000, 0, 6691, 0, 499, None, 1, 49, 0, 0),
            ("banded", "dense", 2, false, 0x41011f8800000004, 0, 0, 50, 0, Some(8589916), 1, 49, 0, 0),
            ("banded", "sparse", 2, false, 0x40e388c000000008, 16182, 0, 0, 0, None, 1, 49, 0, 0),
            ("banded", "merge", 2, false, 0x40e369a000000000, 0, 6691, 0, 0, None, 1, 49, 0, 0),
            ("banded", "blocked", 2, false, 0x40e33b2000000000, 0, 6691, 0, 499, None, 1, 49, 0, 0),
            ("wide", "dense", 1, false, 0x41276fb244444444, 0, 0, 12, 0, Some(894764), 1, 11, 0, 0),
            ("wide", "dense", 2, false, 0x4122f3e90a3d70a3, 0, 0, 24, 0, Some(894764), 12, 0, 15, 174688),
            ("wide", "dense", 4, false, 0x4117df97f258bf24, 0, 0, 48, 0, Some(894764), 12, 0, 21, 263336),
            ("random", "dense", 1, true, 0x41358ad36aaaaaab, 0, 0, 235, 0, Some(10737252), 235, 0, 0, 0),
            ("random", "sparse", 1, true, 0x4133b8412aaaaaaa, 7156451, 0, 0, 0, None, 235, 0, 0, 0),
            ("random", "merge", 1, true, 0x413381ea04444445, 0, 1713573, 0, 0, None, 235, 0, 0, 0),
            ("random", "blocked", 1, true, 0x4133614a84444443, 0, 1713573, 0, 1147, None, 235, 0, 0, 0),
            ("wide", "dense", 1, true, 0x4129191644444444, 0, 0, 12, 0, Some(894764), 12, 0, 0, 0),
            ("wide", "dense", 2, true, 0x4122f3e90a3d70a3, 0, 0, 24, 0, Some(894764), 12, 0, 15, 174688),
            ("wide", "dense", 4, true, 0x4117df97f258bf24, 0, 0, 48, 0, Some(894764), 12, 0, 21, 263336),
        ];
        let random = filled_with_levels(&random_dominant(400, 4.0, 21));
        let banded = setup(10, 50, 4, 71);
        let wide = setup(400, 12, 6, 76);
        for (
            matrix,
            engine,
            k,
            hooked,
            time_bits,
            probes,
            steps,
            batches,
            tiles,
            m,
            launches,
            waits,
            legs,
            bytes,
        ) in GOLDEN
        {
            let (pattern, levels) = match matrix {
                "random" => &random,
                "banded" => &banded,
                _ => &wide,
            };
            let plan = BlockPlan::detect(pattern, &PivotCache::build(pattern), 0.5);
            let f = fleet(k);
            let mut noop = |_: &LevelProgress<'_, '_>| -> Result<(), SimError> { Ok(()) };
            let hook: Option<&mut LevelHook<'_>> = if hooked { Some(&mut noop) } else { None };
            let out = run_engine_with(engine, &f, pattern, levels, &plan, hook, &NOOP)
                .expect("runs")
                .outcome;
            let ic = f.stats().interconnect;
            assert_eq!(
                (
                    out.time.as_ns().to_bits(),
                    out.probes,
                    out.merge_steps,
                    out.batches,
                    out.gemm_tiles,
                    out.m_limit,
                    out.stats.kernels_host,
                    out.stats.dependency_waits,
                    ic.exchanges,
                    ic.bytes
                ),
                (time_bits, probes, steps, batches, tiles, m, launches, waits, legs, bytes),
                "{matrix} / {engine} / {k} devices / hooked {hooked}"
            );
            assert_eq!(
                out.stats.kernels_device, 0,
                "a numeric level is never a child"
            );
        }
    }

    #[test]
    fn a_continued_run_advances_the_home_clock_by_its_quotes() {
        // Placement compares quotes, so on a run whose levels continue one
        // kernel the quotes must be what the clock shows: every level that
        // stays home — the kick-off host launch and every later level, a
        // dependency wait — advances the home device's clock by its
        // `quote_home_ns`, for every engine, dense at M = 3 (four batches a
        // ten-wide level) included.
        let (pattern, levels) = setup(10, 50, 4, 71);
        let plan = BlockPlan::detect(&pattern, &PivotCache::build(&pattern), 0.5);
        let n = pattern.n_cols() as u64;
        let staged = (n + 1 + 2 * pattern.nnz() as u64) * 4 + n * 4;
        let cfg = GpuConfig::v100().with_memory(staged + 3 * n * 4 + 64);
        for name in ENGINES {
            let trace = Recorder::new();
            let f = DeviceFleet::new(2, cfg.clone());
            run_engine_with(name, &f, &pattern, &levels, &plan, None, &trace).expect("runs");
            let events = trace.into_events();
            let num = |e: &TraceEvent, key: &str| e.attr(key).and_then(|v| v.as_f64());
            let (mut continued, mut batched) = (0, 0);
            for (end, sample) in events.iter().zip(&events[1..]) {
                let level_end = end.name == "numeric.level" && end.kind == EventKind::End;
                if !level_end || num(end, "devices") != Some(1.0) {
                    continue;
                }
                let (quote, observed) = (num(end, "quote_home_ns"), num(sample, "observed_ns"));
                let (quote, observed) = (quote.expect("quoted"), observed.expect("sampled"));
                assert!(
                    (quote - observed).abs() < 1e-6,
                    "{name}: {quote} vs {observed}"
                );
                continued +=
                    usize::from(end.attr("launch").and_then(|v| v.as_str()) == Some("continue"));
                batched += usize::from(num(end, "batches").is_some_and(|b| b > 1.0));
            }
            assert!(
                continued + 1 >= levels.n_levels(),
                "{name}: {continued} continued"
            );
            assert_eq!(
                batched > 0,
                name == "dense",
                "{name}: {batched} batched levels"
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
                    None,
                )
            };
            let whole = run(None, None).expect("uninterrupted").outcome;

            // Snapshot at the level barrier, then abort the run there.
            let mut cut: Option<NumericResume> = None;
            let mut hook = |p: &LevelProgress<'_, '_>| -> Result<(), SimError> {
                if p.level + 1 < cut_after {
                    return Ok(());
                }
                cut = Some(NumericResume {
                    start_level: p.level + 1,
                    vals: p.vals.snapshot(),
                    mode_mix: p.mode_mix,
                    probes: p.probes,
                    merge_steps: p.merge_steps,
                    batches: p.batches,
                    gemm_tiles: p.gemm_tiles,
                });
                Err(SimError::Aborted("cut".into()))
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
        // as it does at production matrix sizes: a shape where the quote
        // says the split pays, for every engine.
        let (pattern, levels) = setup(2048, 10, 6, 72);
        let plan = BlockPlan::detect(&pattern, &PivotCache::build(&pattern), 0.5);
        let cost = CostModel::default().scaled_latencies(10);
        for name in ENGINES {
            let f1 = DeviceFleet::with_cost(1, GpuConfig::v100(), cost.clone());
            let one = run_engine(name, &f1, &pattern, &levels, &plan).expect("k=1");
            let f4 = DeviceFleet::with_cost(4, GpuConfig::v100(), cost.clone());
            let before = f4.stats();
            let four = run_engine(name, &f4, &pattern, &levels, &plan).expect("k=4");
            assert!(
                four.outcome.time.as_ns() < one.outcome.time.as_ns(),
                "{name}: 4 devices {} must beat 1 device {}",
                four.outcome.time,
                one.outcome.time
            );
            assert_eq!(f1.stats().interconnect.exchanges, 0);
            let ic = f4.stats().interconnect;
            assert!(
                ic.exchanges > 0,
                "{name}: split levels must price their legs"
            );
            assert!(ic.bytes > 0);
            // Every device worked, and the busy times say who waited.
            let after = f4.stats().devices;
            let (elapsed, busy): (Vec<_>, Vec<_>) = (after.iter().zip(&before.devices))
                .map(|(now, then)| now.elapsed_and_busy_since(then))
                .unzip();
            assert!(busy.iter().all(|t| t.as_ns() > 0.0));
            assert!(busy[1] < elapsed[1], "{name}");
        }
    }

    /// Device `dev`'s `nth` launch of `name`'s kernel — and every later
    /// one — fails, on a `k`-device fleet.
    fn fleet_losing(
        k: usize,
        cost: &CostModel,
        dev: usize,
        name: &str,
        nth: usize,
    ) -> DeviceFleet<'static> {
        let spec = format!("dev={dev}:badlaunch:numeric_{name}={nth}:persistent");
        let plans = FaultPlan::parse_fleet(&spec, k).expect("plans");
        DeviceFleet::with_fault_plans(k, GpuConfig::v100(), cost.clone(), &plans)
    }

    #[test]
    fn a_lost_home_is_rebuilt_on_a_survivor_bit_identically_and_priced() {
        // Eight chains at default latencies: no level leaves the home
        // device, so device 0 alone holds everything when its 4th launch
        // fails. Device 1 takes over and pays again for the three
        // finished levels it never saw before it can run the fourth.
        let (pattern, levels) = setup(8, 50, 4, 73);
        let plan = BlockPlan::detect(&pattern, &PivotCache::build(&pattern), 0.5);
        let cost = CostModel::default();
        let single = factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels)
            .expect("single device");
        for name in ENGINES {
            let clean = run_engine(name, &fleet(4), &pattern, &levels, &plan).expect("clean");
            let f = fleet_losing(4, &cost, 0, name, 4);
            let out = run_engine(name, &f, &pattern, &levels, &plan).expect("fleet survives");
            assert_eq!(f.alive(), vec![1, 2, 3], "{name}");
            assert_eq!(
                f.stats().resharded,
                4 * 8,
                "{name}: levels 0..=3 paid again"
            );
            assert_eq!(single.lu.vals, out.outcome.lu.vals, "{name}: bit-identical");
            assert_eq!(clean.outcome.merge_steps, out.outcome.merge_steps, "{name}");
            // The sole-holder rule is priced, not assumed.
            assert!(
                out.outcome.time > clean.outcome.time,
                "{name}: losing home cost nothing ({} vs {})",
                out.outcome.time,
                clean.outcome.time
            );
        }
    }

    #[test]
    fn a_device_lost_on_a_split_level_reshards_bit_identically() {
        // 2048 chains at latencies scaled until a split pays for the child
        // launch it costs the next level: every level is split four ways.
        // Each device's 2nd launch is its share of level 1.
        let (pattern, levels) = setup(2048, 10, 6, 72);
        let plan = BlockPlan::detect(&pattern, &PivotCache::build(&pattern), 0.5);
        let cost = CostModel::default().scaled_latencies(40);
        let single = factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels)
            .expect("single device");
        let share = |level: usize, dev| {
            let mut shares = gplu_sim::split_even(levels.groups[level].len(), 4);
            shares.nth(dev).expect("four shares").len()
        };
        for name in ENGINES {
            let clean_fleet = DeviceFleet::with_cost(4, GpuConfig::v100(), cost.clone());
            let clean = run_engine(name, &clean_fleet, &pattern, &levels, &plan).expect("clean");
            // A non-home share dies: the home device pays for it whole.
            let f = fleet_losing(4, &cost, 2, name, 2);
            let out = run_engine(name, &f, &pattern, &levels, &plan).expect("home survives");
            assert_eq!(
                (f.alive(), f.stats().resharded),
                (vec![0, 1, 3], share(1, 2)),
                "{name}"
            );
            assert_eq!(single.lu.vals, out.outcome.lu.vals, "{name}: bit-identical");
            // The home device dies in its own share: device 1 fetches what
            // the survivors hold and pays again for what only home held —
            // its shares of levels 0 and 1, less five level-0 columns that
            // level-1 shares elsewhere had received as dependencies.
            let f = fleet_losing(4, &cost, 0, name, 2);
            let out = run_engine(name, &f, &pattern, &levels, &plan).expect("a survivor adopts");
            assert_eq!(
                (f.alive(), f.stats().resharded),
                (vec![1, 2, 3], share(0, 0) + share(1, 0) - 5),
                "{name}"
            );
            assert_eq!(single.lu.vals, out.outcome.lu.vals, "{name}: bit-identical");
            assert!(
                out.outcome.time > clean.outcome.time,
                "{name}: home loss is priced"
            );
        }
    }

    #[test]
    fn a_device_lost_between_dense_batches_never_factors_a_column_twice() {
        // The kernel core is not idempotent, and M-capped batches let a
        // share die with some of its columns finished. Two devices with
        // room for M = 3 buffers, at latencies scaled until a split pays
        // for the host launch it costs the next level: one device would
        // need six batches a level, so every level is split, 8 columns
        // each in batches of 3 + 3 + 2. One device fails its K-th
        // allocation — staging's two or the buffer pool, before anything
        // ran — or its K-th batch launch: a level's first (nothing of the
        // share ran yet) or a later one (earlier batches already hold
        // factors). The survivor must pay for the whole share and factor
        // only what is unfinished; when the lost device was home, it pays
        // for home's share of every earlier level too, and the run is
        // dearer for it.
        let (pattern, levels) = setup(16, 30, 4, 73);
        let single = factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels)
            .expect("single device");
        let n = pattern.n_cols() as u64;
        let staged = (n + 1 + 2 * pattern.nnz() as u64) * 4 + n * 4;
        let cfg = GpuConfig::v100().with_memory(staged + 3 * n * 4 + 64);
        let cost = CostModel::default().scaled_latencies(10);
        let run = |spec: &str| {
            let plans = FaultPlan::parse_fleet(spec, 2).expect("plans");
            let f = DeviceFleet::with_fault_plans(2, cfg.clone(), cost.clone(), &plans);
            let out = factorize_fleet_dense(&f, &pattern, &levels, &NOOP, PivotRule::Exact)
                .expect("the other device survives");
            (out, f.alive(), f.stats().resharded)
        };
        let (clean, alive, _) = run("");
        assert_eq!(alive, [0, 1]);
        assert_eq!(clean.outcome.batches as usize, 2 * 3 * levels.n_levels());
        // Home's share of every level is a host launch: every level split.
        let home = &clean.outcome.stats;
        assert_eq!(home.kernels_host as usize, levels.n_levels());
        assert_eq!(home.dependency_waits as usize, 2 * levels.n_levels());
        for dev in [0, 1] {
            let allocs = (1..=3).map(|k| (format!("dev={dev}:oom:alloc={k}"), 0));
            let launches = (1..=3 * levels.n_levels()).map(|k| {
                // A lost share is paid for whole; a lost home, once per
                // level it had finished or begun.
                let levels_owed = if dev == 0 { (k - 1) / 3 + 1 } else { 1 };
                let spec = format!("dev={dev}:badlaunch:numeric_dense={k}:persistent");
                (spec, 8 * levels_owed)
            });
            for (label, owed) in allocs.chain(launches) {
                let (out, alive, resharded) = run(&label);
                assert_eq!(out.outcome.m_limit, Some(3));
                assert_eq!(alive, [1 - dev], "{label}: every fault lands in this phase");
                let (want, got) = (&single.lu.vals, &out.outcome.lu.vals);
                let differ = (0..want.len()).filter(|&i| want[i].to_bits() != got[i].to_bits());
                assert_eq!(differ.count(), 0, "{label}: values off the merge factors");
                assert_eq!(resharded, owed, "{label}");
                if dev == 0 && owed > 0 {
                    assert!(
                        out.outcome.time > clean.outcome.time,
                        "{label}: home loss is priced"
                    );
                }
            }
        }
    }
}
