//! Resilience suite: crash-consistent checkpoint/resume, proven by
//! killing the pipeline at **every** durability boundary.
//!
//! The invariant under test (the checkpoint subsystem's whole contract):
//!
//! 1. a clean checkpointed run is **bit-identical** to an uncheckpointed
//!    one — snapshotting never perturbs the answer;
//! 2. for every crash-point ordinal `k`, killing the run at `k`
//!    (`FaultPlan::crash_at`) and then resuming from the surviving
//!    snapshots reproduces the uninterrupted factors **bit-for-bit**,
//!    across all five numeric formats, with a run report that passes its
//!    own validator;
//! 3. corrupting every snapshot on disk turns resume into a typed
//!    [`GpluError::CheckpointCorrupt`] — never a panic, never a silently
//!    wrong answer;
//! 4. resuming against a different matrix is a typed
//!    [`GpluError::CheckpointMismatch`];
//! 5. a snapshot that cannot be written from inside an engine hook is a
//!    typed [`GpluError::Checkpoint`]: no ladder degrades around a broken
//!    disk.
//!
//! Deterministic: matrices derive from a fixed seed offset by
//! `GPLU_RESILIENCE_SEED` (the CI seed matrix), so each CI shard explores
//! a different matrix while every failure reproduces locally by exporting
//! the same value.

mod common;

use common::{
    assert_bits_eq, assert_factors_bits_eq, gpu_for, gpu_with_plan, seed_base, TempDir, FORMATS,
};
use gplu::core::{check_run_report, RecoveryAction, RunReport};
use gplu::prelude::*;
use gplu::sim::FaultPlan;
use gplu::sparse::gen::random::random_dominant;
use gplu_trace::{AttrValue, EventKind, Recorder, TraceEvent};
use std::path::Path;

/// The CI seed matrix's matrix-seed offset.
const SEED: &str = "GPLU_RESILIENCE_SEED";

/// The tentpole invariant: crash at every ordinal, resume, compare bits —
/// for each of the five numeric formats, and for both out-of-core
/// symbolic engines.
#[test]
fn crash_at_every_ordinal_then_resume_is_bit_identical() {
    let a = random_dominant(120, 4.0, 7 + seed_base(SEED));
    // Every format under the default symbolic engine (Algorithm 4), and
    // dense once more under Algorithm 3: the same driver on its other
    // split rule, so its symbolic-partial cut must resume too.
    let default_engine = LuOptions::default().symbolic;
    let ooc_once = [(NumericFormat::Dense, SymbolicEngine::Ooc)];
    let runs = FORMATS.map(|format| (format, default_engine)).into_iter();
    for (format, symbolic) in runs.chain(ooc_once) {
        let tag = format!("{format:?}-{symbolic:?}");
        let opts = LuOptions {
            format,
            symbolic,
            ..Default::default()
        };

        // Uncheckpointed reference.
        let reference = LuFactorization::compute(&gpu_for(&a), &a, &opts)
            .unwrap_or_else(|e| panic!("[{tag}] clean run failed: {e}"));

        // Clean checkpointed run: bit-identical, and its crash-point count
        // enumerates every durability boundary a kill could land on.
        let dir = TempDir::new(&format!("clean-{tag}"));
        let ckpt = CheckpointOptions::new(dir.path()).every(2);
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute_checkpointed(&gpu, &a, &opts, &ckpt, &gplu_trace::NOOP)
            .unwrap_or_else(|e| panic!("[{tag}] checkpointed run failed: {e}"));
        assert_factors_bits_eq(&f, &reference, &format!("[{tag}] checkpointed vs plain"));
        let n_ordinals = gpu.stats().crash_points;
        assert!(
            n_ordinals >= 4,
            "[{tag}] expected several crash points, got {n_ordinals}"
        );

        for k in 1..=n_ordinals {
            let dir = TempDir::new(&format!("crash-{tag}-{k}"));
            let ckpt = CheckpointOptions::new(dir.path()).every(2);

            // Kill the run at ordinal k.
            let gpu = gpu_with_plan(&a, FaultPlan::new().crash_at(k));
            let err =
                LuFactorization::compute_checkpointed(&gpu, &a, &opts, &ckpt, &gplu_trace::NOOP)
                    .expect_err("crash plan must kill the run");
            assert_eq!(
                err,
                GpluError::Crashed { ordinal: k },
                "[{tag}] crash at ordinal {k} surfaced as the wrong error"
            );

            // Resume on a fresh, fault-free device; its report passes its
            // own validator even when every level was already durable.
            let recorder = Recorder::new();
            let resumed = LuFactorization::compute_checkpointed(
                &gpu_for(&a),
                &a,
                &opts,
                &CheckpointOptions::new(dir.path()).every(2).resume(true),
                &recorder,
            )
            .unwrap_or_else(|e| panic!("[{tag}] resume after crash at {k} failed: {e}"));
            let ctx = format!("[{tag}] resume after crash at ordinal {k}");
            assert_factors_bits_eq(&resumed, &reference, &ctx);
            let events = recorder.into_events();
            let report = RunReport::new(a.n_rows(), a.nnz(), resumed.report, &events);
            check_run_report(&report.to_json()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
    }
}

/// Threshold pivoting on a dominant matrix: discovery keeps the diagonal,
/// and the numeric phase stores the discovery sweep's factors column by
/// column instead of eliminating. A crash at every ordinal, then resume:
/// the uninterrupted run's factors and engine counters, bit for bit, under
/// a merge-priced and a binary-search-priced first rung.
#[test]
fn crash_at_every_ordinal_under_threshold_pivoting_resumes_bit_identically() {
    let a = random_dominant(120, 4.0, 29 + seed_base(SEED));
    for format in [NumericFormat::Auto, NumericFormat::Sparse] {
        let tag = format!("{format:?}");
        let opts = LuOptions {
            format,
            ..LuOptions::default().with_pivot(PivotPolicy::Threshold { tau: 0.1 })
        };
        let reference = LuFactorization::compute(&gpu_for(&a), &a, &opts)
            .unwrap_or_else(|e| panic!("[{tag}] clean run failed: {e}"));
        assert_eq!(
            reference.report.pivot_swaps, 0,
            "[{tag}] dominant: no swaps"
        );
        let counters = |f: &LuFactorization| (f.report.probes, f.report.merge_steps);

        let gpu = gpu_for(&a);
        let clean_dir = TempDir::new(&format!("threshold-{tag}"));
        let ckpt = CheckpointOptions::new(clean_dir.path()).every(2);
        let f = LuFactorization::compute_checkpointed(&gpu, &a, &opts, &ckpt, &gplu_trace::NOOP)
            .unwrap_or_else(|e| panic!("[{tag}] checkpointed run failed: {e}"));
        assert_factors_bits_eq(&f, &reference, &format!("[{tag}] checkpointed vs plain"));
        assert_eq!(counters(&f), counters(&reference), "[{tag}]");
        let n_ordinals = gpu.stats().crash_points;
        assert!(n_ordinals >= 4, "[{tag}] only {n_ordinals} crash points");

        for k in 1..=n_ordinals {
            let dir = TempDir::new(&format!("threshold-crash-{tag}-{k}"));
            let gpu = gpu_with_plan(&a, FaultPlan::new().crash_at(k));
            let ckpt = CheckpointOptions::new(dir.path()).every(2);
            let err =
                LuFactorization::compute_checkpointed(&gpu, &a, &opts, &ckpt, &gplu_trace::NOOP)
                    .expect_err("crash plan must kill the run");
            assert_eq!(err, GpluError::Crashed { ordinal: k }, "[{tag}]");
            let resumed = LuFactorization::compute_checkpointed(
                &gpu_for(&a),
                &a,
                &opts,
                &CheckpointOptions::new(dir.path()).every(2).resume(true),
                &gplu_trace::NOOP,
            )
            .unwrap_or_else(|e| panic!("[{tag}] resume after crash at {k} failed: {e}"));
            let ctx = format!("[{tag}] resume after crash at ordinal {k}");
            assert_factors_bits_eq(&resumed, &reference, &ctx);
            assert_eq!(counters(&resumed), counters(&reference), "{ctx}");
        }
    }
}

/// Static pivoting clamps small pivots inside the engines, and the
/// pipeline mirrors each clamp's delta into the matrix and logs it once
/// the numeric phase ends. A crash at every ordinal, then resume: the
/// uninterrupted run's factors, matrix and logged clamps, bit for bit.
/// (The matrix is fixed, not offset by the CI seed: it must clamp.)
#[test]
fn crash_at_every_ordinal_under_static_pivoting_keeps_the_clamps() {
    let a = gplu::sparse::gen::hard::near_singular(60, 100);
    let mut opts = LuOptions::default().with_pivot(PivotPolicy::Static { threshold: 1e-8 });
    opts.preprocess.static_pivot = true;
    let clamps = |f: &LuFactorization| -> Vec<RecoveryAction> {
        let events = f.report.recovery.events().iter();
        let clamped = events.filter(|e| matches!(e.action, RecoveryAction::PivotPerturbed { .. }));
        clamped.map(|e| e.action.clone()).collect()
    };
    let reference = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("clean run");
    assert!(!clamps(&reference).is_empty(), "the matrix must clamp");
    let run = |gpu: &Gpu, dir: &TempDir, resume: bool| {
        let ckpt = CheckpointOptions::new(dir.path()).every(2).resume(resume);
        LuFactorization::compute_checkpointed(gpu, &a, &opts, &ckpt, &gplu_trace::NOOP)
    };
    let gpu = gpu_for(&a);
    run(&gpu, &TempDir::new("static-clean"), false).expect("checkpointed run");
    let n_ordinals = gpu.stats().crash_points;
    for k in 1..=n_ordinals {
        let dir = TempDir::new(&format!("static-crash-{k}"));
        let err = run(
            &gpu_with_plan(&a, FaultPlan::new().crash_at(k)),
            &dir,
            false,
        );
        assert_eq!(err.err(), Some(GpluError::Crashed { ordinal: k }));
        let resumed = run(&gpu_for(&a), &dir, true).expect("resume");
        let ctx = format!("resume after crash at ordinal {k}");
        assert_factors_bits_eq(&resumed, &reference, &ctx);
        let (got, want) = (&resumed.preprocessed.vals, &reference.preprocessed.vals);
        assert_bits_eq(got, want, &format!("{ctx}: mirrored matrix"));
        assert_eq!(clamps(&resumed), clamps(&reference), "{ctx}");
    }
}

#[test]
fn resumed_factors_solve_the_system() {
    let a = random_dominant(150, 4.0, 11 + seed_base(SEED));
    let dir = TempDir::new("solve");
    let ckpt = CheckpointOptions::new(dir.path()).every(2);
    let opts = LuOptions::default();

    // Find a late ordinal (inside the numeric phase) by counting first.
    let probe = gpu_for(&a);
    let probe_dir = TempDir::new("solve-probe");
    LuFactorization::compute_checkpointed(
        &probe,
        &a,
        &opts,
        &CheckpointOptions::new(probe_dir.path()).every(2),
        &gplu_trace::NOOP,
    )
    .expect("probe run");
    let late = probe.stats().crash_points.saturating_sub(1).max(1);

    let gpu = gpu_with_plan(&a, FaultPlan::new().crash_at(late));
    LuFactorization::compute_checkpointed(&gpu, &a, &opts, &ckpt, &gplu_trace::NOOP)
        .expect_err("crash");
    let f = LuFactorization::compute_checkpointed(
        &gpu_for(&a),
        &a,
        &opts,
        &ckpt.resume(true),
        &gplu_trace::NOOP,
    )
    .expect("resume");

    let x_true = vec![1.0; a.n_rows()];
    let b = a.spmv(&x_true);
    let x = f.solve(&b).expect("solve");
    assert!(
        gplu::sparse::verify::check_solution(&a, &x, &b, 1e-8),
        "resumed factorization does not solve the original system"
    );
}

/// The blocked engine crash-resumed from a mid-numeric-level snapshot:
/// bit-identical factors *and* an intact BLAS-3 tile count, proving the
/// `gemm_tiles` counter round-trips through the resume codec instead of
/// restarting from zero.
#[test]
fn blocked_resumes_mid_level_with_intact_tile_count() {
    use gplu::sparse::gen::random::banded_dominant;

    // Band 8 fill keeps adjacent columns similar, so supernodes form and
    // the run actually accumulates gemm tiles worth preserving.
    let a = banded_dominant(150, 8, 13 + seed_base(SEED));
    let opts = LuOptions {
        format: NumericFormat::SparseBlocked,
        ..Default::default()
    };
    let reference = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("clean blocked run");
    assert!(reference.report.gemm_tiles > 0, "blocks must form");

    // Find a late ordinal (inside the numeric phase) by counting first.
    let probe = gpu_for(&a);
    let probe_dir = TempDir::new("blocked-probe");
    LuFactorization::compute_checkpointed(
        &probe,
        &a,
        &opts,
        &CheckpointOptions::new(probe_dir.path()).every(2),
        &gplu_trace::NOOP,
    )
    .expect("probe run");
    let late = probe.stats().crash_points.saturating_sub(1).max(1);

    let dir = TempDir::new("blocked-crash");
    let ckpt = CheckpointOptions::new(dir.path()).every(2);
    let gpu = gpu_with_plan(&a, FaultPlan::new().crash_at(late));
    LuFactorization::compute_checkpointed(&gpu, &a, &opts, &ckpt, &gplu_trace::NOOP)
        .expect_err("crash plan must kill the run");

    let resumed = LuFactorization::compute_checkpointed(
        &gpu_for(&a),
        &a,
        &opts,
        &CheckpointOptions::new(dir.path()).every(2).resume(true),
        &gplu_trace::NOOP,
    )
    .expect("resume");
    assert_factors_bits_eq(&resumed, &reference, "blocked mid-level resume");
    assert_eq!(
        resumed.report.gemm_tiles, reference.report.gemm_tiles,
        "resumed tile count must match the uninterrupted run"
    );
}

/// Corrupting every snapshot on disk must surface as
/// [`GpluError::CheckpointCorrupt`] on resume — typed, no panic, and
/// never a silently wrong factorization.
#[test]
fn corrupted_snapshots_are_a_typed_error() {
    let a = random_dominant(100, 4.0, 23 + seed_base(SEED));
    let dir = TempDir::new("corrupt");
    let opts = LuOptions::default();
    LuFactorization::compute_checkpointed(
        &gpu_for(&a),
        &a,
        &opts,
        &CheckpointOptions::new(dir.path()).every(2),
        &gplu_trace::NOOP,
    )
    .expect("checkpointed run");

    // Flip one byte deep in every snapshot (past the header so the file
    // still looks like a checkpoint — the checksum must catch it).
    let mut flipped = 0;
    for entry in std::fs::read_dir(dir.path()).expect("read dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("ckpt") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("read snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).expect("write corrupted snapshot");
        flipped += 1;
    }
    assert!(flipped > 0, "no snapshots found to corrupt");

    let err = LuFactorization::compute_checkpointed(
        &gpu_for(&a),
        &a,
        &opts,
        &CheckpointOptions::new(dir.path()).every(2).resume(true),
        &gplu_trace::NOOP,
    )
    .expect_err("resume from corrupted snapshots must fail");
    assert!(
        matches!(err, GpluError::CheckpointCorrupt(_)),
        "expected CheckpointCorrupt, got {err:?}"
    );
}

/// Resuming someone else's checkpoint directory is a typed mismatch.
#[test]
fn resume_with_mismatched_matrix_is_a_typed_error() {
    let a = random_dominant(90, 4.0, 31 + seed_base(SEED));
    let b = random_dominant(90, 4.0, 32 + seed_base(SEED));
    let dir = TempDir::new("mismatch");
    let opts = LuOptions::default();
    LuFactorization::compute_checkpointed(
        &gpu_for(&a),
        &a,
        &opts,
        &CheckpointOptions::new(dir.path()).every(2),
        &gplu_trace::NOOP,
    )
    .expect("checkpointed run");

    let err = LuFactorization::compute_checkpointed(
        &gpu_for(&b),
        &b,
        &opts,
        &CheckpointOptions::new(dir.path()).every(2).resume(true),
        &gplu_trace::NOOP,
    )
    .expect_err("resume against the wrong matrix must fail");
    assert!(
        matches!(err, GpluError::CheckpointMismatch(_)),
        "expected CheckpointMismatch, got {err:?}"
    );
}

/// A cadence of zero can never cut a snapshot; the options reject it as a
/// typed configuration error before any work runs.
#[test]
fn zero_cadence_is_rejected() {
    let a = random_dominant(60, 4.0, 41 + seed_base(SEED));
    let dir = TempDir::new("zero");
    let err = LuFactorization::compute_checkpointed(
        &gpu_for(&a),
        &a,
        &LuOptions::default(),
        &CheckpointOptions::new(dir.path()).every(0),
        &gplu_trace::NOOP,
    )
    .expect_err("cadence 0 must be rejected");
    assert!(
        matches!(err, GpluError::Checkpoint(_)),
        "expected Checkpoint config error, got {err:?}"
    );
}

/// Checkpoint I/O failures are not engine failures: a snapshot that
/// cannot be written from inside the symbolic chunk hook or the numeric
/// level hook stops the run as a [`GpluError::Checkpoint`]. The engine
/// ladder (out-of-core → unified memory) and the format ladder (dense →
/// merge) each have a rung to degrade to, and neither takes it.
#[test]
fn a_failed_write_inside_an_engine_hook_is_a_checkpoint_error() {
    let a = random_dominant(120, 4.0, 7 + seed_base(SEED));
    let opts = LuOptions {
        format: NumericFormat::Dense,
        ..Default::default()
    };
    let run = |dir: &Path| {
        let recorder = Recorder::new();
        let ckpt = CheckpointOptions::new(dir).every(1);
        let gpu = gpu_for(&a);
        let out = LuFactorization::compute_checkpointed(&gpu, &a, &opts, &ckpt, &recorder);
        (out, recorder.into_events())
    };
    let text = |e: &TraceEvent, key: &str| match e.attr(key) {
        Some(AttrValue::Sym(s)) => s.to_string(),
        Some(AttrValue::Str(s)) => s.clone(),
        _ => String::new(),
    };
    // Every snapshot write begun, as (mark, seq).
    let saves = |events: &[TraceEvent]| -> Vec<(String, u64)> {
        let begun = events
            .iter()
            .filter(|e| e.name == "checkpoint.save" && e.kind == EventKind::Begin);
        begun
            .map(|e| {
                (
                    text(e, "mark"),
                    e.attr("seq").and_then(AttrValue::as_u64).unwrap(),
                )
            })
            .collect()
    };
    let dir = TempDir::new("hook-clean");
    let (clean, events) = run(dir.path());
    clean.expect("clean checkpointed run");
    let clean_saves = saves(&events);
    for mark in ["symbolic_partial", "numeric_partial"] {
        let &(_, seq) = clean_saves
            .iter()
            .find(|(m, _)| m == mark)
            .unwrap_or_else(|| panic!("no {mark} cut in {clean_saves:?}"));
        // A non-empty directory holds the path of that cut's temporary
        // file, so the write cannot create it.
        let dir = TempDir::new(&format!("hook-{mark}"));
        let blocker = dir.path().join(format!("snap-{seq:08}.tmp"));
        std::fs::create_dir_all(blocker.join("occupied")).expect("blocker");
        let (out, events) = run(dir.path());
        let err = out.expect_err("the write fails");
        assert!(
            matches!(err, GpluError::Checkpoint(_)),
            "{mark}: expected a checkpoint error, got {err:?}"
        );
        let last = saves(&events).pop();
        assert_eq!(
            last,
            Some((mark.to_string(), seq)),
            "{mark}: the hook's write"
        );
        let actions: Vec<String> = (events.iter())
            .filter(|e| e.name == "recovery")
            .map(|e| text(e, "action"))
            .collect();
        assert!(
            !actions
                .iter()
                .any(|a| a.contains("degraded") || a.contains("lost")),
            "{mark}: a ladder degraded around the write: {actions:?}"
        );
    }
}
