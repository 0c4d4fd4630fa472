//! The pipeline's one invariant, checked over the product of its
//! configurations: whatever the numeric format, pivoting policy, symbolic
//! engine, device count, or a crash and resume in between, a run ends as
//! its canonical run ends — and its solution is what an independent
//! oracle computes.
//!
//! **The generator.** Every matrix of [`corpus`] — each generator family
//! (circuit, mesh, planar, banded, uniform random and the four
//! `gen::hard` kinds, grading over four decades) at `n` = 60 and 100, the
//! eight-decade grading at `n` = 100, and one block-banded matrix whose
//! levels split across devices — under every [`POLICIES`] entry,
//! crossed with every numeric format and every [`Run`] of [`RUNS`]:
//! straight on one device, straight on a two-device fleet, or killed at a
//! seeded crash-point ordinal and resumed. Two axes go by rotation over
//! the cells ([`cells`]): the symbolic engine, and one extra four-device
//! cell per matrix and policy; [`the_rotation_covers_every_pair`] proves
//! that every (engine, format), (engine, devices) and (four devices,
//! format) pair occurs. One exclusion: crash and resume run on one device
//! only — [`LuFactorization::compute_checkpointed`] takes a lone `Gpu`,
//! and checkpointing a fleet needs a watermark per device in the snapshot.
//!
//! **The checker** ([`check_cell`]) compares each cell with its canonical
//! run — the same matrix and policy, `compute` on one device, untraced:
//! the same outcome class (`Ok`, or the same [`GpluError`] variant) inside
//! the three-state contract; on `Ok`, factors and device solution equal to
//! the bit, the counters of the engine the format names, the system
//! changed exactly when the canonical run changed it, the solution within
//! [`oracle_tolerance`] of the host solve and, unless the system was
//! changed, of dense LU with partial pivoting, and interconnect exchanges
//! exactly when more than one device ran; a run report that passes its own validator; and no
//! device byte or unified-memory page left behind. The canonical run is
//! repeated once, and its simulated total must not move a bit.
//!
//! The oracle ([`gplu::sparse::Dense::lu_partial_pivot`]) shares no
//! ordering, pattern, pivot order or arithmetic with the engines, which
//! all share one sparse kernel core and could be wrong together.

mod common;

use common::{
    assert_bits_eq, assert_contract, assert_device_empty, assert_factors_bits_eq, block_banded,
    config_for, system_modified, TempDir, ENGINES, FORMATS,
};
use gplu::core::{check_run_report, PreprocessOptions, RunReport, DEFAULT_PIVOT_TAU};
use gplu::prelude::*;
use gplu::sparse::convert::csr_to_dense;
use gplu::sparse::gen::hard::{self, HardKind};
use gplu::sparse::gen::{circuit, mesh, planar, random};
use gplu::trace::{AttrValue, EventKind, Recorder, TraceEvent};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The pivoting axis.
const POLICIES: [PivotPolicy; 3] = [
    PivotPolicy::NoPivot,
    PivotPolicy::Static { threshold: 1e-8 },
    PivotPolicy::Threshold {
        tau: DEFAULT_PIVOT_TAU,
    },
];

/// How a cell runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Run {
    /// `compute_fleet_traced` on a fleet of this many devices.
    Straight(usize),
    /// `compute_checkpointed` on one device, killed at a crash-point
    /// ordinal seeded by the cell, then resumed on a fresh device.
    Resume,
}

/// The runs every (matrix, policy, format) gets.
const RUNS: [Run; 3] = [Run::Straight(1), Run::Straight(2), Run::Resume];

/// One point of the product.
#[derive(Clone, Copy, Debug)]
struct Cell {
    format: NumericFormat,
    engine: SymbolicEngine,
    run: Run,
}

/// Every matrix of the product, each with `n ≤ 150`: the families at two
/// seeds and sizes, the eight-decade grading, and the block-banded one on
/// its own device.
fn corpus() -> Vec<Problem> {
    let mut out = Vec::new();
    for seed in 0..2u64 {
        let n = 60 + 40 * seed as usize;
        let a = circuit::circuit(&circuit::CircuitParams {
            n,
            nnz_per_row: 5.0,
            seed,
            ..Default::default()
        });
        out.push(Problem::new(format!("circuit/{seed}"), a));
        let grid = mesh::MeshParams::for_target(n, 7.0, seed);
        out.push(Problem::new(format!("mesh/{seed}"), mesh::mesh(&grid)));
        let tri = planar::PlanarParams::for_target(n, 6.0, seed);
        out.push(Problem::new(format!("planar/{seed}"), planar::planar(&tri)));
        let band = random::banded_dominant(n, 2 + seed as usize, seed);
        out.push(Problem::new(format!("banded/{seed}"), band));
        let uniform = random::random_dominant(n, 4.0, seed);
        out.push(Problem::new(format!("random/{seed}"), uniform));
        for kind in HardKind::ALL {
            // Four decades keep the grading and the oracle bound; the
            // eight of `HardKind::Graded` follow with a wider one.
            let a = match kind {
                HardKind::Graded => hard::graded(n, 4, 100 + seed),
                _ => kind.generate(n, 100 + seed),
            };
            out.push(Problem::new(format!("{}/{seed}", kind.name()), a));
        }
    }
    // Eight decades of grading, as `HardKind::Graded` generates them: the
    // condition number puts the oracle's own answer 5e-8–3e-6 away from
    // any other backward-stable solver's.
    let mut graded = Problem::new("graded_8_decades".into(), hard::graded(100, 8, 7));
    graded.slack = 1e3;
    out.push(graded);
    // Independent banded blocks make wide levels. On a device that holds
    // a few dense column buffers, with launches a tenth of the default
    // price, splitting a level across devices quotes below running it
    // whole: the dense format's levels really split.
    let mut split = Problem::new("block_banded".into(), block_banded(12, 12, 4, 73));
    split.config = GpuConfig::v100().with_memory(14_000);
    split.cost = CostModel::default().scaled_latencies(10);
    out.push(split);
    out
}

/// The cells of matrix `m` under policy `p`: every format × every run,
/// and one four-device cell. The engine and the four-device cell's format
/// rotate with the indices.
fn cells(m: usize, p: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    for (f, &format) in FORMATS.iter().enumerate() {
        for (r, &run) in RUNS.iter().enumerate() {
            let engine = ENGINES[(m + p + f + r) % ENGINES.len()];
            out.push(Cell {
                format,
                engine,
                run,
            });
        }
    }
    out.push(Cell {
        format: FORMATS[(m + p) % FORMATS.len()],
        engine: ENGINES[(m + 2 * p) % ENGINES.len()],
        run: Run::Straight(4),
    });
    out
}

/// The options of a cell. Static row pivoting in preprocessing (a
/// zero-free diagonal) lets every policy factor the matrix as given.
fn options(format: NumericFormat, engine: SymbolicEngine, policy: PivotPolicy) -> LuOptions {
    LuOptions {
        format,
        symbolic: engine,
        preprocess: PreprocessOptions {
            static_pivot: true,
            ..Default::default()
        },
        pivot: policy,
        ..Default::default()
    }
}

/// The bound (relative to the oracle's max-norm) on a solution's distance
/// from the oracle's and from the host solve of the same factors.
/// Threshold pivoting holds every family to 1e-8. Without it a
/// factorization the residual gate accepts (relative residual ≤ 1e-6) may
/// carry more element growth: `planar/1` lands 3.1e-8 from the oracle
/// under `NoPivot` and `Static` with no diagonal changed, and the device
/// and host solves of hard matrices differ by up to 2.8e-9.
fn oracle_tolerance(policy: PivotPolicy) -> f64 {
    match policy {
        PivotPolicy::Threshold { .. } => 1e-8,
        _ => 1e-7,
    }
}

/// One matrix with its right-hand side, the oracle's answer and the
/// device every run of it gets.
struct Problem {
    name: String,
    a: Csr,
    b: Vec<f64>,
    oracle: Vec<f64>,
    /// Scales [`oracle_tolerance`] for an ill-conditioned matrix.
    slack: f64,
    config: GpuConfig,
    cost: CostModel,
}

impl Problem {
    fn new(name: String, a: Csr) -> Self {
        let n = a.n_rows();
        assert!(n <= 150, "{name}: n = {n}");
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 / 7.0).collect();
        let b = a.spmv(&x_true);
        let oracle = csr_to_dense(&a)
            .lu_partial_pivot()
            .unwrap_or_else(|e| panic!("{name}: oracle: {e}"))
            .solve(&b);
        let config = config_for(&a);
        let cost = CostModel::default();
        Problem {
            name,
            a,
            b,
            oracle,
            slack: 1.0,
            config,
            cost,
        }
    }

    fn gpu(&self, plan: FaultPlan) -> Gpu {
        Gpu::with_fault_plan(self.config.clone(), self.cost.clone(), plan)
    }
}

/// What a run left to compare: the outcome, the device solution of an
/// `Ok` one, and the trace.
struct Outcome {
    result: Result<LuFactorization, GpluError>,
    x: Option<Vec<f64>>,
    events: Vec<TraceEvent>,
}

/// The outcome class: `Ok`, or the error's variant.
fn class(r: &Result<LuFactorization, GpluError>) -> Result<(), std::mem::Discriminant<GpluError>> {
    r.as_ref().map(drop).map_err(std::mem::discriminant)
}

/// Solves on `gpu` when the run succeeded.
fn solve(
    f: &Result<LuFactorization, GpluError>,
    gpu: &Gpu,
    b: &[f64],
    ctx: &str,
) -> Option<Vec<f64>> {
    let f = f.as_ref().ok()?;
    let (x, t) = f
        .solve_on_gpu(gpu, &f.solve_plan(), b)
        .unwrap_or_else(|e| panic!("{ctx}: solve: {e}"));
    assert!(t > SimTime::ZERO, "{ctx}: the solve charged no time");
    Some(x)
}

/// Runs `cell` traced, through the entry point that fits it, and checks
/// every device is empty afterwards.
fn run_cell(pb: &Problem, opts: &LuOptions, cell: Cell, seed: u64, ctx: &str) -> Outcome {
    let a = &pb.a;
    let rec = Recorder::new();
    match cell.run {
        Run::Straight(devices) => {
            let fleet = DeviceFleet::with_cost(devices, pb.config.clone(), pb.cost.clone());
            let result = LuFactorization::compute_fleet_traced(&fleet, a, opts, &rec);
            let x = solve(&result, fleet.device(0), &pb.b, ctx);
            for (d, gpu) in fleet.devices().iter().enumerate() {
                assert_device_empty(gpu, &format!("{ctx}: device {d}"));
            }
            let events = rec.into_events();
            Outcome { result, x, events }
        }
        Run::Resume => {
            let dir = TempDir::new("product");
            // Crash points bracket every snapshot write. A run that
            // finishes numeric writes at least three: preprocessed,
            // symbolic, levelized; and but for static pivoting, the level
            // watermark after level 4 (or the last). The seed picks one of
            // their points.
            let ckpt = CheckpointOptions::new(dir.path()).every(4);
            let writes = if matches!(opts.pivot, PivotPolicy::Static { .. }) {
                3
            } else {
                4
            };
            let ordinal = 1 + seed % (2 * writes);
            let crashing = pb.gpu(FaultPlan::new().crash_at(ordinal));
            let crashed = LuFactorization::compute_checkpointed(&crashing, a, opts, &ckpt, &rec);
            assert_device_empty(&crashing, &format!("{ctx}: crashed run"));
            match crashed {
                Err(GpluError::Crashed { ordinal: k }) => assert_eq!(k, ordinal, "{ctx}"),
                // The run failed before the crash point: that is the
                // cell's outcome, held to the canonical class.
                Err(_) => {
                    return Outcome {
                        result: crashed,
                        x: None,
                        events: rec.into_events(),
                    }
                }
                Ok(_) => panic!("{ctx}: ordinal {ordinal} is past the run's last crash point"),
            }
            let rec = Recorder::new();
            let gpu = pb.gpu(FaultPlan::new());
            let result =
                LuFactorization::compute_checkpointed(&gpu, a, opts, &ckpt.resume(true), &rec);
            let x = solve(&result, &gpu, &pb.b, ctx);
            assert_device_empty(&gpu, ctx);
            Outcome {
                result,
                x,
                events: rec.into_events(),
            }
        }
    }
}

/// Whether some `numeric.level` of the trace ran on more than one device.
fn a_level_split(events: &[TraceEvent]) -> bool {
    events.iter().any(|e| {
        e.name == "numeric.level"
            && e.kind == EventKind::End
            && matches!(e.attr("devices").and_then(AttrValue::as_u64), Some(d) if d > 1)
    })
}

/// The counters of the engine `format` names: dense batches under a
/// column-buffer limit, binary search probes, the merge and blocked
/// engines walk the merge cursor without probing, and only blocked ones
/// form tiles. `Auto` runs dense or merge.
fn assert_engine_ran(f: &LuFactorization, format: NumericFormat, ctx: &str) {
    let r = &f.report;
    let (dense, probes, steps) = (r.m_limit.is_some(), r.probes > 0, r.merge_steps > 0);
    let ran = match format {
        NumericFormat::Auto => (dense && !steps || !dense && steps) && !probes,
        NumericFormat::Dense => dense && !probes && !steps,
        NumericFormat::Sparse => !dense && probes && !steps,
        NumericFormat::SparseMerge => !dense && !probes && steps && r.gemm_tiles == 0,
        NumericFormat::SparseBlocked => !dense && !probes && steps,
    };
    assert!(
        ran,
        "{ctx}: M {:?}, {} probes, {} merge steps, {} tiles",
        r.m_limit, r.probes, r.merge_steps, r.gemm_tiles
    );
}

/// Holds one cell's outcome to the canonical run's.
fn check_cell(
    pb: &Problem,
    policy: PivotPolicy,
    canonical: &Outcome,
    cell: Cell,
    got: &Outcome,
    ctx: &str,
) {
    assert_eq!(
        class(&got.result),
        class(&canonical.result),
        "{ctx}: {:?} vs canonical {:?}",
        got.result.as_ref().map(drop),
        canonical.result.as_ref().map(drop)
    );
    assert_contract(&got.result, ctx);
    let (Ok(f), Ok(want)) = (&got.result, &canonical.result) else {
        return;
    };
    assert_factors_bits_eq(f, want, ctx);
    assert_engine_ran(f, cell.format, ctx);
    let x = got.x.as_deref().expect("an Ok run is solved");
    assert_bits_eq(
        x,
        canonical.x.as_deref().expect("solved"),
        &format!("{ctx}: solution"),
    );
    let (log, canon_log) = (&f.report.recovery, &want.report.recovery);
    let modified = system_modified(f);
    assert_eq!(
        modified,
        system_modified(want),
        "{ctx}: {log:?} vs canonical {canon_log:?}"
    );
    // The host solve of the same factors, and unless the system changed,
    // the oracle's solution.
    let host = f
        .solve(&pb.b)
        .unwrap_or_else(|e| panic!("{ctx}: host solve: {e}"));
    let mut references = vec![("host solve", &host)];
    if !modified {
        references.push(("oracle", &pb.oracle));
    }
    let scale = pb.oracle.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (name, y) in references {
        let err = (x.iter().zip(y)).fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        assert!(
            err <= oracle_tolerance(policy) * pb.slack * scale,
            "{ctx}: |x - x_{name}| = {err:.3e} against |x_oracle| = {scale:.3e}"
        );
    }
    let devices = match cell.run {
        Run::Straight(d) => {
            let fr = f
                .report
                .fleet
                .as_ref()
                .expect("a fleet run reports its fleet");
            assert_eq!((fr.devices, fr.dead.len()), (d, 0), "{ctx}: fleet");
            d
        }
        Run::Resume => 1,
    };
    let exchanges = f.report.fleet.as_ref().map_or(0, |fr| fr.exchanges);
    assert_eq!(exchanges > 0, devices > 1, "{ctx}: {exchanges} exchanges");
    let report = RunReport::new(pb.a.n_rows(), pb.a.nnz(), f.report.clone(), &got.events);
    check_run_report(&report.to_json()).unwrap_or_else(|e| panic!("{ctx}: run report: {e}"));
}

/// The canonical run of `pb` under `policy`: `compute` on one device,
/// untraced, repeated once to the simulated bit.
fn canonical(pb: &Problem, policy: PivotPolicy, ctx: &str) -> Outcome {
    let opts = options(NumericFormat::Auto, LuOptions::default().symbolic, policy);
    let run = || {
        let gpu = pb.gpu(FaultPlan::new());
        let result = LuFactorization::compute(&gpu, &pb.a, &opts);
        let x = solve(&result, &gpu, &pb.b, ctx);
        assert_device_empty(&gpu, ctx);
        Outcome {
            result,
            x,
            events: Vec::new(),
        }
    };
    let first = run();
    assert_contract(&first.result, ctx);
    // Threshold pivoting factors every matrix of the corpus as given.
    if let PivotPolicy::Threshold { .. } = policy {
        let f = first
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert!(!system_modified(f), "{ctx}: {:?}", f.report.recovery);
    }
    let total = |o: &Outcome| (o.result.as_ref().ok()).map(|f| f.report.total().as_ns().to_bits());
    let again = run();
    assert_eq!(class(&again.result), class(&first.result), "{ctx}: repeat");
    assert_eq!(
        total(&again),
        total(&first),
        "{ctx}: repeat's simulated total"
    );
    first
}

/// Runs and checks every cell of matrix `m`. Returns how many resume
/// cells resumed to `Ok`, and whether a numeric level split across devices.
fn check_problem(m: usize, pb: &Problem) -> (usize, bool) {
    let (mut resumed, mut split) = (0, false);
    for (p, &policy) in POLICIES.iter().enumerate() {
        let canon = canonical(pb, policy, &format!("{} {policy:?} canonical", pb.name));
        for (k, cell) in cells(m, p).into_iter().enumerate() {
            let ctx = format!("{} {policy:?} {cell:?}", pb.name);
            let opts = options(cell.format, cell.engine, policy);
            let seed = (m * 31 + p * 7 + k) as u64;
            let got = run_cell(pb, &opts, cell, seed, &ctx);
            check_cell(pb, policy, &canon, cell, &got, &ctx);
            resumed += usize::from(cell.run == Run::Resume && got.x.is_some());
            split |= cell.run != Run::Straight(1) && a_level_split(&got.events);
        }
    }
    (resumed, split)
}

#[test]
fn every_cell_matches_its_canonical_run_and_the_oracle() {
    // The matrices are independent: a few host threads take them in turn.
    let corpus = corpus();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let (resumed, split) = std::thread::scope(|s| {
        let worker = || {
            let (mut resumed, mut split) = (0, false);
            loop {
                let m = next.fetch_add(1, Ordering::Relaxed);
                let Some(pb) = corpus.get(m) else { break };
                let (r, s) = check_problem(m, pb);
                (resumed, split) = (resumed + r, split | s);
            }
            (resumed, split)
        };
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("a worker panicked"));
        joined.fold((0, false), |(r, s), (r2, s2)| (r + r2, s | s2))
    });
    assert!(resumed > 0, "no resume cell ran");
    assert!(split, "no numeric level split across devices");
}

#[test]
fn the_rotation_covers_every_pair() {
    let mut pairs = HashSet::new();
    for m in 0..corpus().len() {
        for p in 0..POLICIES.len() {
            for c in cells(m, p) {
                let devices = match c.run {
                    Run::Straight(d) => d,
                    Run::Resume => 1,
                };
                pairs.insert(format!("{:?} {:?}", c.engine, c.format));
                pairs.insert(format!("{:?} x{devices}", c.engine));
                if devices == 4 {
                    pairs.insert(format!("x4 {:?}", c.format));
                }
            }
        }
    }
    let want = ENGINES.len() * FORMATS.len() + ENGINES.len() * 3 + FORMATS.len();
    assert_eq!(pairs.len(), want, "{pairs:?}");
}
