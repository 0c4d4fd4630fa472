//! The [`NumericEngine`] trait, the one kernel body and the one level loop.
//!
//! **What an engine states.** The four GPU formats run the same arithmetic
//! ([`crate::outcome::process_column_with`]); they differ in how the
//! device kernel *locates* an update target and what must stay resident —
//! that is, in price. A [`NumericEngine`] is that price list: the kernel
//! name launches and fault plans key off, the [`AccessDiscipline`] whose
//! location counter its runs report, a per-stripe [`price`] that charges
//! one block's share of a column to the cost model, and the few hooks
//! exactly one engine overrides (dense: sizing `M` and its buffer pool,
//! M-capped batched launches, stamping `M` on the outcome; binary search:
//! the forced-mode classification; blocked: its tile count and block
//! attributes).
//!
//! **What the driver owns.** Everything else, written once in
//! [`run_levels`], which every numeric run — one device or many, cold,
//! resumed or replayed — goes through on a [`DeviceFleet`] (a single `Gpu`
//! is a borrowed fleet of one). It stages the CSC structure and level
//! numbers on every live device, seeds the value store and the run's one
//! counter set (optionally from a resume cut), walks the level schedule
//! classifying each level into a GLU 3.0 kernel mode, and launches the one
//! kernel body per placed share per level, once per column: it prices the
//! column's stripe through the engine (the launch charges that block to
//! every stripe of the column, [`gplu_sim::Gpu::launch_striped`]), checks
//! an accumulator out of the factorization's pool, runs the kernel core
//! on the column (or stores the column's factors from threshold
//! discovery's sweep), folds the column's costs into the counters and
//! records a perturbation or the level's first error.
//! The driver wraps each level in a `numeric.level` trace span carrying
//! the level's counter deltas, the placement's quotes and a drift sample,
//! feeds the checkpoint hook after every level, and assembles the outcome.
//!
//! **The launch rule.** The level numbers are device-resident and nothing
//! is allocated between two levels, so a run of consecutive levels with
//! no host boundary is one kernel: the host launches the run's first
//! level and every later level continues it ([`LaunchKind::Continue`]),
//! its blocks waiting on an in-kernel dependency flag for the level
//! before instead of a launch (the synchronization-free discipline of Liu
//! et al., the paper's ref. \[28\], and GLU 3.0's one-kernel mode-C tail)
//! — cold, resumed and replayed runs alike. The host has work at a
//! level's boundary when it is the first executed level (the kick-off,
//! also after a resume), a [`LevelHook`] is installed (the hook reads the
//! value store on the host after every level), the level is split across
//! devices (each share is a host launch on its device), or the level
//! before it was split, settled columns or re-paid orphans (the host
//! re-enters). A level's span end says which (`launch` = `host` |
//! `continue`, `host_reason`). Functional execution keeps `(level,
//! block)` order and every level still passes the fault injector.
//!
//! **Sharding: placement by quote.** Within one schedule level every
//! column depends only on columns of *earlier* levels, so a level's
//! columns can be computed anywhere — placement changes which device pays
//! for which column, never the values. One device is **home**: the lowest
//! live ordinal. It holds every finished column at every level boundary
//! and ships the factors. Per level the driver prices two placements with
//! the cost model's own launch pricing ([`gplu_sim::Gpu::quote`], fed by
//! the engine's [`price`] on scratch blocks — the number the clock would
//! advance by, to the bit): the whole level on the home device, and the
//! level cut [`split_even`] across the live devices, where a non-home
//! share first receives, in one leg, the dependency columns it does not
//! hold (rows `t < j` of its columns' patterns; a per-device residency
//! bitset remembers what each device computed or received) and the other
//! shares' columns come home afterwards in one coalesced leg. The level
//! is split only when the slowest share with its inbound leg, plus that
//! return leg, plus the host launch the split costs the next level in
//! place of a dependency wait, quotes *below* the home device alone;
//! otherwise nothing leaves home, no leg is paid and no barrier is
//! crossed. So per level a fleet costs at most what one device does, a
//! chain never leaves its device, and a fleet of one — which quotes
//! nothing — is priced exactly as the device alone. Values live in one
//! shared host-side [`ColumnStore`] — the simulator separates functional
//! execution from pricing — which is what makes the factors bit-identical
//! at every device count.
//!
//! **Device loss and the reshard rule.** A device that fails (injected
//! OOM or launch fault) goes through the fleet's one loss rule
//! ([`DeviceFleet::lose`]): while another device is still alive it is
//! marked dead, and what it held dies with it. Each level ends with a
//! settlement that makes the home device whole: columns some live device
//! holds come home over the interconnect; columns no live device holds
//! are paid for again on the home device. For a lost non-home share that
//! is the share, whole: nothing it computed had come home. When the home
//! device itself is lost the next live ordinal becomes home — no earlier
//! than the moment of the failure — and pays again, level by level from
//! the start of the run, for every finished column only the dead device
//! held. Paying is not recomputing, though. The kernel core is *not*
//! idempotent — a finished column's stored values are its factors, and
//! eliminating them again is a wrong answer — and a share can die with
//! some columns finished (the dense engine's second or later batch
//! failing to launch). So the body runs the core **at most once per
//! column per run**, a rule the value store itself keeps: a column is
//! written once and then refuses to open again, so a column paid for
//! again whose core already completed is priced and skipped. The *last*
//! live device is never declared dead: its error is returned to the
//! caller's format ladder, exactly what a lone `Gpu` does. Terminal
//! errors — an injected crash, a host abort such as a failed checkpoint
//! write from the level hook — are returned at once, as everywhere in the
//! pipeline.
//!
//! The sequential reference ([`crate::seq`]) is the host-side
//! instantiation of the same interface: it runs the identical kernel
//! core column by column with no device, which is why all engines agree
//! bit-for-bit.
//!
//! [`price`]: NumericEngine::price

use crate::error::NumericError;
use crate::fleet::FleetNumericOutcome;
use crate::modes::{classify_level_cached, launch_shape, LevelType, ModeMix};
use crate::outcome::{
    column_cost_estimate_cached, process_column_with, AccessDiscipline, NumericOutcome, PivotCache,
    PivotRule,
};
use crate::pivoting::SweptFactors;
use crate::resume::{LevelHook, LevelProgress, NumericResume};
use crate::scratch::ScratchPool;
use crate::values::ColumnStore;
use gplu_schedule::Levels;
use gplu_sim::{
    split_even, BlockCost, BlockCtx, DeviceAlloc, DeviceFleet, Exec, Gpu, LaunchKind, SimError,
    SimTime,
};
use gplu_sparse::{Csc, Idx, SparseError};
use gplu_trace::{AttrValue, TraceSink};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why the host launched a level, as its `numeric.level` span end's
/// `host_reason` says (module docs, the launch rule): the kick-off, a
/// level hook, a split level, re-entry after a split or settle, and a
/// re-run of orphaned columns.
pub const HOST_REASONS: [&str; 5] = [KICKOFF, HOOK, SPLIT, REENTRY, RESHARD];
const KICKOFF: &str = "kickoff";
const HOOK: &str = "hook";
const SPLIT: &str = "split";
const REENTRY: &str = "reentry";
const RESHARD: &str = "reshard";

/// The run's one counter set: the kernel body and the dense launch hook
/// add to it ([`SharedCounters`]), the checkpoint hook, the level spans
/// and the outcome read it. Each engine drives a subset and the rest stay
/// at zero, so checkpoint/resume and telemetry never special-case one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Binary-search probes (the binary-search engine).
    pub probes: u64,
    /// Destination-cursor advances (the merge and blocked engines).
    pub merge_steps: u64,
    /// M-capped kernel batches (the dense engine).
    pub batches: u64,
    /// BLAS-3 update tiles executed (the blocked engine).
    pub gemm_tiles: u64,
}

impl EngineCounters {
    /// Component-wise `self - before` (counters are monotone).
    pub fn delta(&self, before: &EngineCounters) -> EngineCounters {
        EngineCounters {
            probes: self.probes - before.probes,
            merge_steps: self.merge_steps - before.merge_steps,
            batches: self.batches - before.batches,
            gemm_tiles: self.gemm_tiles - before.gemm_tiles,
        }
    }
}

/// [`EngineCounters`] as the run shares them: the kernel body and the
/// dense launch hook add to them without a lock, once per column. They
/// are statistics that publish no other data, so `Relaxed` suffices; a
/// launch returns only after all its blocks, which orders every addition
/// before the driver reads them.
#[derive(Debug, Default)]
pub(crate) struct SharedCounters {
    probes: AtomicU64,
    merge_steps: AtomicU64,
    batches: AtomicU64,
    gemm_tiles: AtomicU64,
}

impl SharedCounters {
    fn new(c: EngineCounters) -> Self {
        SharedCounters {
            probes: c.probes.into(),
            merge_steps: c.merge_steps.into(),
            batches: c.batches.into(),
            gemm_tiles: c.gemm_tiles.into(),
        }
    }

    pub(crate) fn get(&self) -> EngineCounters {
        EngineCounters {
            probes: self.probes.load(Ordering::Relaxed),
            merge_steps: self.merge_steps.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            gemm_tiles: self.gemm_tiles.load(Ordering::Relaxed),
        }
    }

    fn add(counter: &AtomicU64, v: u64) {
        if v > 0 {
            counter.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// The one kernel body as a launch sees it: called once per column with
/// `(index into the share's columns, block context)`.
pub type ColumnKernel<'a> = dyn Fn(usize, &mut BlockCtx<'_>) + Sync + 'a;

/// One device's share of one level, as an engine's pricing and launch
/// hooks see it.
pub struct LevelRun<'a> {
    /// The device running this share of the level.
    pub gpu: &'a Gpu,
    /// The filled pattern (sorted CSC).
    pub pattern: &'a Csc,
    /// This device's columns of the level (all of them on one device).
    pub cols: &'a [Idx],
    /// Threads per block for the level's kernel mode.
    pub threads: usize,
    /// Blocks cooperating per column (type C row-striping).
    pub stripes: usize,
    /// How this share's first kernel starts: as the next level of the
    /// kernel the level before runs in ([`LaunchKind::Continue`]) or, when
    /// the host has work at the level's boundary, as a host launch.
    pub kind: LaunchKind,
    pub(crate) counters: &'a SharedCounters,
}

impl LevelRun<'_> {
    /// Counts one M-capped kernel batch (the dense engine's launch hook).
    pub fn count_batch(&self) {
        SharedCounters::add(&self.counters.batches, 1);
    }
}

/// One GPU numeric format, as a price list over the shared kernel body.
/// The level iteration, the body itself, the counters, the fault surface,
/// resume cuts and trace spans are owned by [`run_levels`].
pub trait NumericEngine: Sync {
    /// Kernel name — launch accounting and fault plans key off this.
    fn kernel_name(&self) -> &'static str;

    /// The access discipline this engine prices: which location counter
    /// the kernel core reports for its columns.
    fn discipline(&self) -> AccessDiscipline;

    /// Charges one block's share of column `col` to `ctx`: the column's
    /// `items` structural multiply–adds (and whatever the format adds to
    /// them), split `run.stripes` ways. It runs once per column, and every
    /// stripe of the column is charged what it reports.
    fn price(&self, run: &LevelRun<'_>, col: usize, items: u64, ctx: &mut BlockCtx<'_>);

    /// One-time setup after the CSC structure and level numbers are
    /// resident on the device. Returns the bytes the engine keeps
    /// allocated for the whole run on every device that runs its levels,
    /// given the widest level: the dense engine sizes its `M` from the
    /// remaining free memory here and asks for its buffer pool.
    fn begin(&mut self, _gpu: &Gpu, _pattern: &Csc, _widest: usize) -> Result<u64, NumericError> {
        Ok(0)
    }

    /// Classifies one level into a kernel mode. The binary-search
    /// engine's forced-mode ablation overrides this.
    fn classify(&self, pattern: &Csc, cache: &PivotCache, cols: &[Idx]) -> LevelType {
        classify_level_cached(pattern, cache, cols)
    }

    /// Launches the kernel `body` over one device's share of a level: one
    /// kernel of `run.kind`, a block per column stripe. The dense engine
    /// overrides this with its M-capped batches.
    fn launch(&self, run: &LevelRun<'_>, body: &ColumnKernel<'_>) -> Result<(), SimError> {
        run.gpu.launch_striped(
            self.kernel_name(),
            run.cols.len(),
            run.stripes,
            run.threads,
            run.kind,
            Exec::Par,
            None,
            &body,
        )?;
        Ok(())
    }

    /// What [`launch`](NumericEngine::launch) would advance the share's
    /// device clock by, given the share's per-block costs in block-id
    /// order (`run.stripes` per column) — without launching. The placement
    /// rule compares these; an engine that overrides `launch` overrides
    /// this to match it.
    fn quote(&self, run: &LevelRun<'_>, blocks: &[BlockCost]) -> SimTime {
        run.gpu.quote(run.kind, None, blocks).time
    }

    /// BLAS-3 update tiles column `col`'s `items` occupy (the blocked
    /// engine's supernode members; zero everywhere else).
    fn gemm_tiles(&self, _col: usize, _items: u64) -> u64 {
        0
    }

    /// Appends engine-specific attributes to the level's span-end event,
    /// after the discipline's own counter; `delta` is this level's
    /// counter contribution.
    fn level_attrs(
        &self,
        _run: &LevelRun<'_>,
        _delta: &EngineCounters,
        _attrs: &mut Vec<(&'static str, AttrValue)>,
    ) {
    }

    /// Stamps engine-specific outcome fields (the dense engine's `M`).
    fn finish(&self, _out: &mut NumericOutcome) {}
}

/// Runs `engine` over the level schedule on the live devices of `fleet` —
/// the scaffolding every numeric entry point shares. See the module docs
/// for the placement, exchange and device-loss discipline.
///
/// A supplied `pivot` cache (the pattern-keyed refactorization fast path)
/// saves building one; it does not change how the run is launched or
/// priced. Supplied `swept` factors of `pattern` (threshold discovery's
/// sweep, [`crate::pivoting::discover_pivots_swept`]) are stored column by
/// column where the kernel core would run, with the counters the core
/// recorded for them — when the engine prices their discipline; otherwise
/// they are ignored. Nothing else changes: each column is still stored
/// once, at the level that holds it.
#[allow(clippy::too_many_arguments)]
pub fn run_levels<E: NumericEngine + ?Sized>(
    engine: &mut E,
    fleet: &DeviceFleet<'_>,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    resume: Option<&NumericResume>,
    mut hook: Option<&mut LevelHook<'_>>,
    pivot: Option<&PivotCache>,
    rule: PivotRule,
    swept: Option<&SweptFactors>,
) -> Result<FleetNumericOutcome, NumericError> {
    let n = pattern.n_cols();
    let before = fleet.stats();

    // Resident on every live device (each holds a full copy, the GSoFa
    // layout the symbolic fleet also uses): the CSC structure + values
    // (float) + level numbers. A device that cannot stage is lost to the
    // survivors; the last live device's failure is the caller's to handle.
    let csc_bytes = ((n + 1) as u64 + 2 * pattern.nnz() as u64) * 4;
    let mut arenas: Vec<Vec<DeviceAlloc>> = (0..fleet.len()).map(|_| Vec::new()).collect();
    // A failing device frees what it staged; the fleet decides the rest.
    let lose = |d: usize, e: SimError, arena: &mut Vec<DeviceAlloc>| {
        arena.clear();
        fleet.lose(d, e)
    };
    for d in fleet.alive() {
        let gpu = fleet.device(d);
        let staged = gpu.mem.alloc(csc_bytes).and_then(|csc_dev| {
            arenas[d].push(csc_dev);
            gpu.h2d(csc_bytes);
            gpu.mem.alloc(n as u64 * 4)
        });
        match staged {
            Ok(lvl_dev) => arenas[d].push(lvl_dev),
            Err(e) => lose(d, e, &mut arenas[d])?,
        }
    }
    let Some(&first_staged) = fleet.alive().first() else {
        return Err(SimError::Aborted("no live devices in fleet".into()).into());
    };

    if let Some(r) = resume {
        r.check(pattern.nnz(), levels.groups.len())
            .map_err(NumericError::Input)?;
    }
    let counters =
        SharedCounters::new(
            resume.map_or_else(EngineCounters::default, |r| EngineCounters {
                probes: r.probes,
                merge_steps: r.merge_steps,
                batches: r.batches,
                gemm_tiles: r.gemm_tiles,
            }),
        );
    // What the engine keeps for the whole run (the dense buffer pool), on
    // every device: no allocation is left between two levels.
    let pool_bytes = engine.begin(fleet.device(first_staged), pattern, levels.max_width())?;
    if pool_bytes > 0 {
        for d in fleet.alive() {
            match fleet.device(d).mem.alloc(pool_bytes) {
                Ok(pool) => arenas[d].push(pool),
                Err(e) => lose(d, e, &mut arenas[d])?,
            }
        }
    }
    // The home device: the lowest live ordinal. It runs every level that
    // is not split, holds every finished column at every level boundary,
    // and ships the factors. (`lose` never takes the last one.)
    let mut home = fleet.alive()[0];
    let discipline = engine.discipline();
    let swept = swept.filter(|f| f.discipline == discipline);

    let start_level = resume.map_or(0, |r| r.start_level);
    let mut vals = resume.map_or(&pattern.vals, |r| &r.vals).clone();
    // One write per column per run: the reshard rule's memory (module
    // docs). A resumed run's earlier levels are sealed as they stand.
    let mut store = ColumnStore::new(&mut vals, &pattern.col_ptr);
    store.finish_as_is(
        levels.groups[..start_level]
            .iter()
            .flatten()
            .map(|&j| j as usize),
    );
    let cache_storage;
    let cache = match pivot {
        Some(c) => c,
        None => {
            cache_storage = PivotCache::build(pattern);
            &cache_storage
        }
    };
    let mut mix = resume.map_or_else(ModeMix::default, |r| r.mode_mix);
    let error: Mutex<Option<SparseError>> = Mutex::new(None);
    let perturbs: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
    let scratch = ScratchPool::default();
    // True when the host touched the run at the last level boundary — it
    // split the level, brought columns home or re-paid orphans — so the
    // next level has no device-side parent to be launched from.
    let mut reentry = false;
    // Which finished columns each device holds. Staging shipped the value
    // store as it stood, so a resumed run's earlier levels are everywhere.
    let mut holds = Residency::new(fleet.len(), n);
    for d in fleet.alive() {
        for resumed in &levels.groups[..start_level] {
            holds.extend(d, resumed);
        }
    }
    let items_of = |cols: &[Idx]| -> Vec<u64> {
        let items = |&j: &Idx| column_cost_estimate_cached(pattern, cache, j as usize).1;
        cols.iter().map(items).collect()
    };

    for (li, cols) in levels.groups.iter().enumerate() {
        if li < start_level {
            continue; // already durable in the resumed value store
        }
        let t = engine.classify(pattern, cache, cols);
        match t {
            LevelType::A => mix.a += 1,
            LevelType::B => mix.b += 1,
            LevelType::C => mix.c += 1,
        }
        let (threads, stripes) = launch_shape(t);
        let counters_before = counters.get();
        // One structural cost estimate per column, shared by the
        // placement's quotes and the kernel body.
        let items = items_of(cols);
        // The launch rule (module docs): a level continues the kernel the
        // level before runs in unless the host has work at its boundary.
        let hosted = if li == start_level {
            Some(KICKOFF)
        } else if hook.is_some() {
            Some(HOOK)
        } else {
            reentry.then_some(REENTRY)
        };
        // The whole level as the home device would run it; every device's
        // share of a split is this with its own `gpu` and `cols`, launched
        // from the host.
        let level = LevelRun {
            gpu: fleet.device(home),
            pattern,
            cols,
            threads,
            stripes,
            kind: LaunchKind::level(hosted.is_some(), LaunchKind::Host),
            counters: &counters,
        };
        // Placement by quote (module docs). A fleet of one quotes nothing.
        // A split hands the next level back to the host: where that level
        // would otherwise continue the running kernel, the split is charged
        // for it.
        let owners = fleet.alive();
        let next_continues = hook.is_none() && li + 1 < levels.groups.len();
        let placement = (owners.len() > 1).then(|| {
            Placement::quote(
                engine,
                fleet,
                &owners,
                &level,
                &items,
                &holds,
                next_continues,
            )
        });
        let split = placement.as_ref().filter(|p| p.split_ns < p.home_ns);
        let mut host_reason = hosted.or(split.map(|_| SPLIT));
        let ran_on = split.map_or(1, |p| {
            p.shares.iter().filter(|s| !s.range.is_empty()).count()
        });
        trace.span_begin(
            "numeric.level",
            "level",
            fleet.makespan().as_ns(),
            &[
                ("level", li.into()),
                ("width", cols.len().into()),
                ("devices", ran_on.into()),
            ],
        );
        let clk0 = trace.enabled().then(|| level.gpu.clocks());

        // Runs `cols` of a level shaped like `shape` on device `d`; true
        // when they ran. A failing device is lost (`lose`) and false
        // returned, its columns left for the level's settlement below.
        let mut run_share = |d: usize,
                             shape: &LevelRun<'_>,
                             cols: &[Idx],
                             items: &[u64],
                             holds: &Residency|
         -> Result<bool, SimError> {
            if cols.is_empty() {
                return Ok(true);
            }
            let share = LevelRun {
                gpu: fleet.device(d),
                cols,
                ..*shape
            };
            // The one kernel body: it prices the column's stripe and
            // performs the functional arithmetic — once per column per run.
            let body = |i: usize, ctx: &mut BlockCtx<'_>| {
                let col = cols[i] as usize;
                engine.price(&share, col, items[i], ctx);
                let core = match swept {
                    Some(f) => f.store_column(pattern, &store, col).map(|c| (c, None)),
                    None => scratch.with(|ws| {
                        process_column_with(pattern, &store, col, discipline, cache, rule, ws)
                    }),
                };
                match core {
                    Ok((costs, perturb)) => {
                        if let Some(delta) = perturb {
                            perturbs.lock().push((col, delta));
                        }
                        let tiles = engine.gemm_tiles(col, items[i]);
                        SharedCounters::add(&counters.probes, costs.probes);
                        SharedCounters::add(&counters.merge_steps, costs.merge_steps);
                        SharedCounters::add(&counters.gemm_tiles, tiles);
                    }
                    // Paid for again after its core completed: the store
                    // refused the second write, so the column is priced only.
                    Err(SparseError::OutOfOrder { col: c, dep }) if c == dep => {}
                    Err(e) => {
                        error.lock().get_or_insert(e);
                    }
                }
            };
            match engine.launch(&share, &body) {
                Ok(()) => Ok(true),
                Err(e) => {
                    lose(d, e, &mut arenas[d])?;
                    // Counted as it moves off `d` — its share and the
                    // finished columns no live device holds — whether or
                    // not a survivor finishes it.
                    let alive = fleet.alive();
                    let stranded = levels.groups[start_level..=li]
                        .iter()
                        .flatten()
                        .filter(|&&j| holds.has(d, j) && !alive.iter().any(|&o| holds.has(o, j)))
                        .count();
                    fleet.reshard(cols.len() + stranded);
                    Ok(false)
                }
            }
        };
        // What the host launches itself: the shares of a split level and
        // the columns a settlement pays for again.
        let hosted_shape = LevelRun {
            kind: LaunchKind::Host,
            ..level
        };

        match split {
            None => {
                if run_share(home, &level, cols, &items, &holds)? {
                    holds.extend(home, cols);
                }
            }
            // Every share starts when the home device reaches the level;
            // a non-home share first receives, in one leg, the dependency
            // columns it does not hold.
            Some(p) => {
                fleet.barrier();
                for (&d, share) in owners.iter().zip(&p.shares) {
                    if share.need_bytes > 0 {
                        fleet.receive(d, share.need_bytes);
                        holds.extend(d, &share.need);
                    }
                }
                for (&d, share) in owners.iter().zip(&p.shares) {
                    let r = share.range.clone();
                    if run_share(
                        d,
                        &hosted_shape,
                        &cols[r.clone()],
                        &items[r.clone()],
                        &holds,
                    )? {
                        holds.extend(d, &cols[r]);
                    }
                }
            }
        }
        reentry = split.is_some();

        // Settlement: the level ends with the home device holding every
        // column finished so far. Columns a live device holds come home in
        // one coalesced leg once the slowest share is in — a split level's
        // return leg. Columns no live device holds are paid for again on
        // the home device, level by level (price-and-skip where written):
        // a dead share's columns and, when the home device itself was
        // lost, everything it alone held since the run began.
        loop {
            let alive = fleet.alive();
            let mut since = li;
            if alive[0] != home {
                // A survivor takes over no earlier than the old home
                // failed, and owes the whole run's columns, not the level's.
                fleet.wait_until(alive[0], fleet.device(home).now());
                (home, since) = (alive[0], start_level);
            }
            let mut inbound = 0u64;
            let mut lost_home = false;
            for (l, lcols) in levels.groups.iter().enumerate().take(li + 1).skip(since) {
                let mut orphans: Vec<Idx> = Vec::new();
                for &j in lcols.iter().filter(|&&j| !holds.has(home, j)) {
                    if alive.iter().any(|&d| holds.has(d, j)) {
                        inbound += col_bytes(pattern, j);
                    } else {
                        orphans.push(j);
                    }
                }
                if orphans.is_empty() {
                    continue;
                }
                reentry = true;
                host_reason.get_or_insert(RESHARD);
                let (threads, stripes) = if l == li {
                    (threads, stripes)
                } else {
                    launch_shape(engine.classify(pattern, cache, lcols))
                };
                let shape = LevelRun {
                    threads,
                    stripes,
                    ..hosted_shape
                };
                if !run_share(home, &shape, &orphans, &items_of(&orphans), &holds)? {
                    lost_home = true;
                    break;
                }
                holds.extend(home, &orphans);
            }
            if lost_home {
                continue;
            }
            if inbound > 0 {
                reentry = true;
                fleet.barrier();
                fleet.receive(home, inbound);
                for lcols in &levels.groups[since..=li] {
                    holds.extend(home, lcols);
                }
            }
            break;
        }
        // Every column of the level is written now (or failed): later
        // levels read them without a lock.
        store.seal(cols.iter().map(|&j| j as usize));

        if trace.enabled() {
            let delta = counters.get().delta(&counters_before);
            let mut attrs: Vec<(&'static str, AttrValue)> = vec![
                ("level", li.into()),
                ("width", cols.len().into()),
                ("mode", t.letter().into()),
                ("devices", ran_on.into()),
                ("launch", host_reason.map_or("continue", |_| "host").into()),
                match discipline {
                    AccessDiscipline::Dense => ("batches", delta.batches.into()),
                    AccessDiscipline::BinarySearch => ("probes", delta.probes.into()),
                    AccessDiscipline::Merge => ("merge_steps", delta.merge_steps.into()),
                },
            ];
            if let Some(reason) = host_reason {
                attrs.push(("host_reason", reason.into()));
            }
            if let Some(p) = &placement {
                attrs.push(("quote_home_ns", AttrValue::F64(p.home_ns)));
                attrs.push(("quote_split_ns", AttrValue::F64(p.split_ns)));
                attrs.push(("legs_ns", AttrValue::F64(p.legs_ns)));
            }
            engine.level_attrs(&level, &delta, &mut attrs);
            trace.span_end("numeric.level", "level", fleet.makespan().as_ns(), &attrs);
            // Predicted-vs-observed sample for the drift profiler, read on
            // the device that was home when the level began: levels that
            // executed BLAS-3 tiles are priced by the GEMM terms of the
            // cost model, everything else by the scalar kernel terms —
            // distinct pricing paths, so they drift independently.
            if let Some((obs0, pred0)) = clk0 {
                let (obs1, pred1) = level.gpu.clocks();
                if obs1 > obs0 {
                    let kind = if delta.gemm_tiles > 0 {
                        "gemm_tile"
                    } else {
                        "numeric_level"
                    };
                    trace.instant(
                        "drift.sample",
                        "drift",
                        obs1,
                        &[
                            ("kind", kind.into()),
                            ("predicted_ns", AttrValue::F64(pred1 - pred0)),
                            ("observed_ns", AttrValue::F64(obs1 - obs0)),
                        ],
                    );
                }
            }
        }
        if let Some(e) = error.lock().take() {
            return Err(NumericError::from_sparse_at_level(e, li));
        }
        if let Some(h) = hook.as_mut() {
            let c = counters.get();
            h(&LevelProgress {
                level: li,
                n_levels: levels.groups.len(),
                vals: &store,
                mode_mix: mix,
                probes: c.probes,
                merge_steps: c.merge_steps,
                batches: c.batches,
                gemm_tiles: c.gemm_tiles,
            })?;
        }
    }

    // Tear down the arenas; the home device ships the factored values
    // back to the host.
    drop(arenas);
    fleet.device(home).d2h(pattern.nnz() as u64 * 4);
    fleet.barrier();

    drop(store);
    let lu = Csc::from_parts_unchecked(
        pattern.n_rows(),
        n,
        pattern.col_ptr.clone(),
        pattern.row_idx.clone(),
        vals,
    );
    let after = fleet.stats();
    let elapsed = |d: usize| after.devices[d].stats.since(&before.devices[d].stats);
    let makespan = fleet
        .alive()
        .iter()
        .map(|&d| elapsed(d).now)
        .fold(SimTime::ZERO, SimTime::max);
    let stats = elapsed(home);
    let c = counters.get();
    // Deterministic artifact: levels run in order, but within a level the
    // recording order is the launch's block order — sort by column (each
    // column's core ran once, so each records at most once).
    let mut perturbations = perturbs.into_inner();
    perturbations.sort_unstable_by_key(|&(col, _)| col);
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
    Ok(FleetNumericOutcome { outcome: out })
}

/// What a finished column weighs on the interconnect: its values.
fn col_bytes(pattern: &Csc, j: Idx) -> u64 {
    pattern.col_rows(j as usize).len() as u64 * 8
}

/// Which finished columns each device holds: `devices × n` bits.
struct Residency {
    words: usize,
    bits: Vec<u64>,
}

impl Residency {
    fn new(devices: usize, n: usize) -> Self {
        let words = n.div_ceil(64);
        Residency {
            words,
            bits: vec![0; devices * words],
        }
    }

    fn has(&self, d: usize, col: Idx) -> bool {
        (self.bits[d * self.words + col as usize / 64] >> (col % 64)) & 1 == 1
    }

    fn extend(&mut self, d: usize, cols: &[Idx]) {
        for &j in cols {
            self.bits[d * self.words + j as usize / 64] |= 1 << (j % 64);
        }
    }
}

/// One device's `split_even` share of a level, as the placement rule
/// priced it.
struct Share {
    /// The share's columns, as a range of the level.
    range: std::ops::Range<usize>,
    /// Dependency columns (rows `t < j` of the share's patterns) the
    /// device does not hold, and their bytes: its one inbound leg.
    need: Vec<Idx>,
    need_bytes: u64,
}

/// Both ways to run one level, priced: whole on the home device, or cut
/// `split_even` across the live devices. The level is split only when
/// `split_ns < home_ns`.
struct Placement {
    /// The whole level launched on the home device.
    home_ns: f64,
    /// The slowest share (a host launch on its device) with its inbound
    /// leg, plus the one coalesced return leg that brings the other
    /// shares' columns home, plus the host launch the next level pays
    /// instead of continuing the running kernel.
    split_ns: f64,
    /// The interconnect's part of `split_ns`: the slowest share's inbound
    /// leg and the return leg.
    legs_ns: f64,
    /// Per live device, in ordinal order (the home device first).
    shares: Vec<Share>,
}

impl Placement {
    fn quote<E: NumericEngine + ?Sized>(
        engine: &E,
        fleet: &DeviceFleet<'_>,
        owners: &[usize],
        level: &LevelRun<'_>,
        items: &[u64],
        holds: &Residency,
        next_continues: bool,
    ) -> Placement {
        let (pattern, cols) = (level.pattern, level.cols);
        let kernel_ns = |d: usize, r: &std::ops::Range<usize>, kind: LaunchKind| -> f64 {
            if r.is_empty() {
                return 0.0;
            }
            let share = LevelRun {
                gpu: fleet.device(d),
                cols: &cols[r.clone()],
                kind,
                ..*level
            };
            quote_share(engine, &share, &items[r.clone()])
        };
        let home = owners[0];
        let home_ns = kernel_ns(home, &(0..cols.len()), level.kind);
        let link_ns = |d: usize, bytes: u64| match bytes {
            0 => 0.0,
            _ => fleet.device(d).cost().nvlink_transfer_ns(bytes),
        };
        let mut slowest = (0.0f64, 0.0f64); // (inbound leg + kernel, inbound leg)
        let mut return_bytes = 0u64;
        let shares: Vec<Share> = owners
            .iter()
            .zip(split_even(cols.len(), owners.len()))
            .map(|(&d, range)| {
                let mut need: Vec<Idx> = Vec::new();
                if d != home {
                    for &j in &cols[range.clone()] {
                        let deps = pattern.col_rows(j as usize).iter().take_while(|&&t| t < j);
                        need.extend(deps.filter(|&&t| !holds.has(d, t)));
                        return_bytes += col_bytes(pattern, j);
                    }
                    need.sort_unstable();
                    need.dedup();
                }
                let need_bytes = need.iter().map(|&t| col_bytes(pattern, t)).sum();
                let leg = link_ns(d, need_bytes);
                let total = leg + kernel_ns(d, &range, LaunchKind::Host);
                if total > slowest.0 {
                    slowest = (total, leg);
                }
                Share {
                    range,
                    need,
                    need_bytes,
                }
            })
            .collect();
        let return_ns = link_ns(home, return_bytes);
        // The host launches the level after a split; continuing the
        // running kernel there is what the split gives up.
        let cost = fleet.device(home).cost();
        let reentry_ns = if next_continues {
            cost.launch_ns(LaunchKind::Host) - cost.launch_ns(LaunchKind::Continue)
        } else {
            0.0
        };
        Placement {
            home_ns,
            split_ns: slowest.0 + return_ns + reentry_ns,
            legs_ns: slowest.1 + return_ns,
            shares,
        }
    }
}

/// What `engine.launch` advances `share`'s device clock by, its columns
/// weighing `items`: every column priced once on a scratch block, and
/// that block charged to each of its stripes — the launch's own rule.
fn quote_share<E: NumericEngine + ?Sized>(engine: &E, share: &LevelRun<'_>, items: &[u64]) -> f64 {
    let mut blocks: Vec<BlockCost> = Vec::with_capacity(share.cols.len() * share.stripes);
    for (&j, &it) in share.cols.iter().zip(items) {
        let mut ctx = share.gpu.scratch_block(share.threads);
        engine.price(share, j as usize, it, &mut ctx);
        blocks.extend(std::iter::repeat_n(ctx.cost(), share.stripes));
    }
    engine.quote(share, &blocks).as_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::LevelType;
    use crate::{BlockPlan, BlockedEngine, DenseEngine, MergeEngine, SparseEngine};
    use gplu_schedule::{levelize_cpu, DepGraph};
    use gplu_sim::{CostModel, GpuConfig};
    use gplu_sparse::convert::csr_to_csc;
    use gplu_sparse::gen::random::random_dominant;
    use gplu_symbolic::symbolic_cpu;

    /// Every engine's quote of a level is the clock advance of launching
    /// it, to the bit: many columns or one, each kernel mode's shape (type
    /// C's 64 stripes included), host-launched or continued — and the
    /// dense engine's M-capped batches, several to a level on a device
    /// with room for eight buffers. Only a hosted level's first kernel is
    /// a launch; every other batch is a dependency wait.
    #[test]
    fn a_level_s_quote_is_the_clock_advance_of_its_launch() {
        let a = random_dominant(256, 3.0, 72);
        let cost = CostModel::default();
        let filled = symbolic_cpu(&a, &cost).result.filled;
        let levels = levelize_cpu(&DepGraph::build(&filled), &cost).levels;
        let pattern = csr_to_csc(&filled);
        let cache = PivotCache::build(&pattern);
        let plan = BlockPlan::detect(&pattern, &cache, 0.5);
        let widest = levels
            .groups
            .iter()
            .max_by_key(|g| g.len())
            .expect("levels");
        let last = levels.groups.last().expect("levels");
        let roomy = GpuConfig::v100();
        let tight = GpuConfig::v100().with_memory(8 * 256 * 4 + 512);
        assert!(widest.len() > 2 * 8, "{} columns", widest.len());
        let mut several_batches = false;
        for (name, cfg) in [
            ("dense", &roomy),
            ("dense", &tight),
            ("merge", &roomy),
            ("sparse", &roomy),
            ("blocked", &roomy),
        ] {
            let eight_buffers = std::ptr::eq(cfg, &tight);
            for cols in [&widest[..], &widest[..1], &last[..]] {
                let items: Vec<u64> = cols
                    .iter()
                    .map(|&j| column_cost_estimate_cached(&pattern, &cache, j as usize).1)
                    .collect();
                for t in [LevelType::A, LevelType::B, LevelType::C] {
                    for kind in [LaunchKind::Host, LaunchKind::Continue] {
                        let gpu = Gpu::new(cfg.clone());
                        let mut engine: Box<dyn NumericEngine> = match name {
                            "dense" => Box::new(DenseEngine::default()),
                            "merge" => Box::new(MergeEngine),
                            "sparse" => Box::new(SparseEngine::new(None)),
                            _ => Box::new(BlockedEngine::new(&plan)),
                        };
                        let pool = engine.begin(&gpu, &pattern, cols.len()).expect("sized");
                        let counters = SharedCounters::default();
                        let (threads, stripes) = launch_shape(t);
                        let run = LevelRun {
                            gpu: &gpu,
                            pattern: &pattern,
                            cols,
                            threads,
                            stripes,
                            kind,
                            counters: &counters,
                        };
                        let quote = quote_share(&*engine, &run, &items);
                        let body = |i: usize, ctx: &mut BlockCtx<'_>| {
                            engine.price(&run, cols[i] as usize, items[i], ctx)
                        };
                        engine.launch(&run, &body).expect("launches");
                        let ctx = format!("{name} {t:?} {kind:?} width {}", cols.len());
                        assert_eq!(gpu.now().as_ns().to_bits(), quote.to_bits(), "{ctx}");
                        let kernels = counters.get().batches.max(1);
                        if eight_buffers && cols.len() == widest.len() {
                            // M = 8 on the tight device: a pool of
                            // min(M, widest) = 8 dense buffers, and the
                            // level launched as ⌈widest / 8⌉ batches.
                            let batches = widest.len().div_ceil(8) as u64;
                            assert_eq!((kernels, pool), (batches, 8 * 256 * 4), "{ctx}");
                            several_batches = true;
                        }
                        let s = gpu.stats();
                        let hosted = u64::from(kind == LaunchKind::Host);
                        assert_eq!(
                            (s.kernels_host, s.kernels_device, s.dependency_waits),
                            (hosted, 0, kernels - hosted),
                            "{ctx}"
                        );
                    }
                }
            }
        }
        assert!(several_batches, "the tight device splits the widest level");
    }

    /// The home device of two loses its `k`-th launch: the survivor takes
    /// over and pays again for every column the run had finished — priced
    /// only, since the store refuses to open a finished column — and the
    /// factors are the lone device's to the bit.
    #[test]
    fn paying_again_for_finished_columns_leaves_their_factors_untouched() {
        use gplu_sim::FaultPlan;
        let a = random_dominant(256, 3.0, 72);
        let cost = CostModel::default();
        let filled = symbolic_cpu(&a, &cost).result.filled;
        let levels = levelize_cpu(&DepGraph::build(&filled), &cost).levels;
        let pattern = csr_to_csc(&filled);
        let run = |fleet: &DeviceFleet<'_>| {
            let trace = &gplu_trace::NOOP;
            run_levels(
                &mut MergeEngine,
                fleet,
                &pattern,
                &levels,
                trace,
                None,
                None,
                None,
                PivotRule::Exact,
                None,
            )
        };
        let gpu = Gpu::new(GpuConfig::v100());
        let want = run(&DeviceFleet::from(&gpu))
            .expect("one device")
            .outcome
            .lu
            .vals;
        for k in [2, 5, 9] {
            let plans = FaultPlan::parse_fleet(&format!("dev=0:badlaunch:numeric_merge={k}"), 2)
                .expect("plans");
            let fleet = DeviceFleet::with_fault_plans(2, GpuConfig::v100(), cost.clone(), &plans);
            let got = run(&fleet).expect("the survivor finishes");
            assert_eq!(fleet.alive(), [1], "k={k}");
            // Everything before the failing level was finished on device 0.
            let finished_before: usize = levels.groups[..k - 1].iter().map(Vec::len).sum();
            let resharded = fleet.stats().resharded;
            assert!(resharded > finished_before, "k={k}: {resharded}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.outcome.lu.vals), bits(&want), "k={k}");
        }
    }
}
