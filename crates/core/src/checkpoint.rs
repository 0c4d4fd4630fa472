//! Crash-consistent checkpoint/resume policy for the pipeline.
//!
//! The mechanism (snapshot container, checksums, atomic store) lives in
//! `gplu-checkpoint`; this module owns the *policy*: what state each
//! phase must persist for a later run to reproduce the factorization
//! bit-for-bit, when snapshots are cut, and how a `--resume` run
//! validates and replays one.
//!
//! # Schema
//!
//! Every snapshot is self-describing: a [`section::META`] mark says how
//! far the run had progressed, and the loader reads exactly the sections
//! that mark implies. Durable sections ([`section::FINGERPRINT`],
//! [`section::PREPROCESS`], [`section::SYMBOLIC`], [`section::LEVELS`],
//! [`section::RECOVERY`]) accumulate in the session's base snapshot as
//! phases complete; partial sections ([`section::SYMBOLIC_PARTIAL`],
//! [`section::NUMERIC`]) are attached only to the snapshot being cut, so
//! they naturally disappear once their phase finishes.
//!
//! # Resume invariants
//!
//! * The matrix fingerprint must match — resuming against a different
//!   matrix is [`GpluError::CheckpointMismatch`], checked before any
//!   state is trusted.
//! * Partial sections carry the engine/format tag that produced them and
//!   are replayed only on the *same* rung; a ladder that lands elsewhere
//!   restarts that phase from its last durable boundary instead. (All
//!   symbolic engines produce identical patterns, so this is a
//!   performance concern, never a correctness one.)
//! * Replayed state is validated (`check`) before use; malformed state
//!   is a typed error, never a panic.
//! * Crash points bracket every write ([`Gpu::crash_point`] before and
//!   after [`CheckpointStore::save`]), so the chaos suite can kill the
//!   run both with and without the snapshot on disk.

use crate::error::GpluError;
use crate::pipeline::{LuOptions, NumericFormat, SymbolicEngine};
use crate::recovery::{Phase, RecoveryAction, RecoveryLog};
use gplu_checkpoint::{
    decode_csr, decode_perm, encode_csr, encode_perm, section, xxh64, CheckpointStore, Dec, Enc,
    Snapshot,
};
use gplu_numeric::{ModeMix, NumericResume};
use gplu_schedule::Levels;
use gplu_sim::{Gpu, SimError, SimTime};
use gplu_sparse::{Csr, Permutation};
use gplu_symbolic::result::SymbolicMetrics;
use gplu_symbolic::{DynamicSplit, SymbolicResult, SymbolicResume};
use gplu_trace::TraceSink;
use std::path::PathBuf;

/// Simulated cost of streaming a snapshot to stable storage
/// (~20 GB/s, an NVMe-class device). Charged via [`Gpu::advance`] so
/// checkpointing shows up honestly in phase timings.
const WRITE_NS_PER_BYTE: f64 = 0.05;

/// Seed for the matrix fingerprint hash.
const MATRIX_FP_SEED: u64 = 0x6770_6c75_6d61_7478; // "gplumatx"
/// Seed for the structure-only pattern fingerprint hash. Distinct from
/// [`MATRIX_FP_SEED`] so a pattern key can never collide with a content
/// key even for an all-zero value array.
const PATTERN_FP_SEED: u64 = 0x6770_6c75_7061_7474; // "gplupatt"
/// Seed for the options fingerprint hash.
const OPTS_FP_SEED: u64 = 0x6770_6c75_6f70_7473; // "gpluopts"

/// User-facing checkpoint configuration (the CLI's `--checkpoint-dir`,
/// `--checkpoint-every`, `--resume`).
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory holding snapshots and the manifest.
    pub dir: PathBuf,
    /// Cut a partial snapshot every `every` completed numeric levels /
    /// symbolic chunks (phase boundaries always cut).
    pub every: usize,
    /// Resume from the latest valid snapshot in `dir` if one exists.
    pub resume: bool,
}

impl CheckpointOptions {
    /// Options writing to `dir` with the default cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            every: 8,
            resume: false,
        }
    }

    /// Sets the snapshot cadence.
    pub fn every(mut self, n: usize) -> Self {
        self.every = n;
        self
    }

    /// Enables resume-from-latest.
    pub fn resume(mut self, yes: bool) -> Self {
        self.resume = yes;
        self
    }

    /// Rejects configurations that can never work.
    pub fn validate(&self) -> Result<(), GpluError> {
        if self.every == 0 {
            return Err(GpluError::Checkpoint(
                "checkpoint cadence must be at least 1 (a cadence of 0 would never cut a snapshot)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// How far the run had progressed when a snapshot was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseMark {
    /// Pre-processing done; matrix/permutations durable.
    Preprocessed = 1,
    /// Mid-symbolic: a stage-1 chunk watermark is attached.
    SymbolicPartial = 2,
    /// Symbolic done; filled pattern durable.
    Symbolic = 3,
    /// Levelization done; level schedule durable.
    Levelized = 4,
    /// Mid-numeric: a level watermark + value store is attached. The
    /// final snapshot of a completed run is this mark with
    /// `start_level == n_levels`.
    NumericPartial = 5,
}

impl PhaseMark {
    fn from_u8(v: u8) -> Result<PhaseMark, GpluError> {
        Ok(match v {
            1 => PhaseMark::Preprocessed,
            2 => PhaseMark::SymbolicPartial,
            3 => PhaseMark::Symbolic,
            4 => PhaseMark::Levelized,
            5 => PhaseMark::NumericPartial,
            other => return Err(corrupt(format!("unknown phase mark {other}"))),
        })
    }

    /// Stable name for traces and logs.
    pub fn name(self) -> &'static str {
        match self {
            PhaseMark::Preprocessed => "preprocessed",
            PhaseMark::SymbolicPartial => "symbolic_partial",
            PhaseMark::Symbolic => "symbolic",
            PhaseMark::Levelized => "levelized",
            PhaseMark::NumericPartial => "numeric_partial",
        }
    }
}

fn corrupt(msg: impl Into<String>) -> GpluError {
    GpluError::CheckpointCorrupt(msg.into())
}

/// Stable tag identifying the symbolic engine that produced a partial
/// snapshot.
pub(crate) fn engine_tag(e: SymbolicEngine) -> u8 {
    match e {
        SymbolicEngine::Ooc => 0,
        SymbolicEngine::OocDynamic => 1,
        SymbolicEngine::UmNoPrefetch => 2,
        SymbolicEngine::UmPrefetch => 3,
    }
}

/// Stable tag identifying the numeric format that produced a partial
/// snapshot. Ladder rungs are always concrete by the time a snapshot is
/// cut, so [`NumericFormat::Auto`] never appears on disk.
pub(crate) fn format_tag(f: NumericFormat) -> u8 {
    match f {
        NumericFormat::Dense => 0,
        NumericFormat::Sparse => 1,
        NumericFormat::SparseMerge => 2,
        NumericFormat::SparseBlocked => 3,
        NumericFormat::Auto => 255,
    }
}

/// Structural fingerprint of the input matrix: dimensions and sparsity
/// pattern only, values excluded. Every member of a refactorization
/// family (one circuit, many timesteps of drifting values) maps to the
/// same key — this is the pattern key of the solver service's factor
/// cache, where [`matrix_fingerprint`] would defeat reuse entirely.
pub fn pattern_fingerprint(a: &Csr) -> u64 {
    let mut e = Enc::new();
    e.u64(a.n_rows() as u64);
    e.u64(a.n_cols() as u64);
    e.vec_usize(&a.row_ptr);
    e.vec_u32(&a.col_idx);
    xxh64(&e.into_bytes(), PATTERN_FP_SEED)
}

/// Content fingerprint of the input matrix (structure + values).
pub fn matrix_fingerprint(a: &Csr) -> u64 {
    let mut e = Enc::new();
    e.u64(a.n_rows() as u64);
    e.u64(a.n_cols() as u64);
    e.vec_usize(&a.row_ptr);
    e.vec_u32(&a.col_idx);
    e.vec_f64(&a.vals);
    xxh64(&e.into_bytes(), MATRIX_FP_SEED)
}

/// Fingerprint of the pipeline options. Stored for diagnostics but not
/// enforced: the per-section engine/format tags gate partial-state reuse
/// individually, and durable outputs are option-independent facts about
/// the matrix.
pub fn options_fingerprint(opts: &LuOptions) -> u64 {
    xxh64(format!("{opts:?}").as_bytes(), OPTS_FP_SEED)
}

// ---------------------------------------------------------------------
// Section codecs
// ---------------------------------------------------------------------

fn encode_meta(mark: PhaseMark, clock_ns: f64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(mark as u8);
    e.f64(clock_ns);
    e.into_bytes()
}

fn decode_meta(b: &[u8]) -> Result<(PhaseMark, f64), GpluError> {
    let mut d = Dec::new(b);
    let mark = PhaseMark::from_u8(d.u8("meta.mark").map_err(corrupt_ck)?)?;
    let clock_ns = d.f64("meta.clock_ns").map_err(corrupt_ck)?;
    expect_drained(&d, "META")?;
    Ok((mark, clock_ns))
}

fn encode_fingerprint(matrix_fp: u64, opts_fp: u64, n: usize, nnz: usize) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(matrix_fp);
    e.u64(opts_fp);
    e.u64(n as u64);
    e.u64(nnz as u64);
    e.into_bytes()
}

struct Fingerprint {
    matrix_fp: u64,
    n: u64,
    nnz: u64,
}

fn decode_fingerprint(b: &[u8]) -> Result<Fingerprint, GpluError> {
    let mut d = Dec::new(b);
    let matrix_fp = d.u64("fp.matrix").map_err(corrupt_ck)?;
    let _opts_fp = d.u64("fp.opts").map_err(corrupt_ck)?;
    let n = d.u64("fp.n").map_err(corrupt_ck)?;
    let nnz = d.u64("fp.nnz").map_err(corrupt_ck)?;
    expect_drained(&d, "FINGERPRINT")?;
    Ok(Fingerprint { matrix_fp, n, nnz })
}

/// Durable pre-processing output: the (possibly diagonal-repaired)
/// permuted matrix and its permutations.
#[derive(Debug, Clone)]
pub struct PreState {
    /// The pre-processed matrix the rest of the pipeline consumes.
    pub matrix: Csr,
    /// Row permutation.
    pub p_row: Permutation,
    /// Column permutation.
    pub p_col: Permutation,
    /// Diagonals repaired so far (pre-processing + numeric-phase bumps).
    pub repaired: usize,
    /// Simulated pre-processing time, for report fidelity on resume.
    pub time_ns: f64,
}

fn encode_preprocess(p: &PreState) -> Vec<u8> {
    let mut e = Enc::new();
    encode_csr(&mut e, &p.matrix);
    encode_perm(&mut e, &p.p_row);
    encode_perm(&mut e, &p.p_col);
    e.u64(p.repaired as u64);
    e.f64(p.time_ns);
    e.into_bytes()
}

fn decode_preprocess(b: &[u8]) -> Result<PreState, GpluError> {
    let mut d = Dec::new(b);
    let matrix = decode_csr(&mut d).map_err(corrupt_ck)?;
    let p_row = decode_perm(&mut d).map_err(corrupt_ck)?;
    let p_col = decode_perm(&mut d).map_err(corrupt_ck)?;
    let repaired = d.u64("pre.repaired").map_err(corrupt_ck)? as usize;
    let time_ns = d.f64("pre.time_ns").map_err(corrupt_ck)?;
    expect_drained(&d, "PREPROCESS")?;
    Ok(PreState {
        matrix,
        p_row,
        p_col,
        repaired,
        time_ns,
    })
}

fn encode_symbolic_partial(engine: u8, r: &SymbolicResume) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(engine);
    e.u64(r.rows_done as u64);
    e.u64(r.iters_done as u64);
    e.u64(r.chunk as u64);
    e.u64(r.oom_backoffs as u64);
    e.vec_u32(&r.fill_counts);
    e.u64(r.agg_steps);
    e.u64(r.agg_edges);
    e.u64(r.agg_frontiers);
    e.u64(r.split.n1 as u64);
    e.u64(r.split.frontier_cap);
    e.u64(r.split.chunk1 as u64);
    e.u64(r.split.chunk2 as u64);
    e.vec_u32(&r.overflow_rows);
    e.into_bytes()
}

fn decode_symbolic_partial(b: &[u8]) -> Result<(u8, SymbolicResume), GpluError> {
    let mut d = Dec::new(b);
    let engine = d.u8("sym.engine").map_err(corrupt_ck)?;
    let resume = SymbolicResume {
        rows_done: d.u64("sym.rows_done").map_err(corrupt_ck)? as usize,
        iters_done: d.u64("sym.iters_done").map_err(corrupt_ck)? as usize,
        chunk: d.u64("sym.chunk").map_err(corrupt_ck)? as usize,
        oom_backoffs: d.u64("sym.oom_backoffs").map_err(corrupt_ck)? as usize,
        fill_counts: d.vec_u32("sym.fill_counts").map_err(corrupt_ck)?,
        agg_steps: d.u64("sym.agg_steps").map_err(corrupt_ck)?,
        agg_edges: d.u64("sym.agg_edges").map_err(corrupt_ck)?,
        agg_frontiers: d.u64("sym.agg_frontiers").map_err(corrupt_ck)?,
        split: DynamicSplit {
            n1: d.u64("sym.split.n1").map_err(corrupt_ck)? as usize,
            frontier_cap: d.u64("sym.split.frontier_cap").map_err(corrupt_ck)?,
            chunk1: d.u64("sym.split.chunk1").map_err(corrupt_ck)? as usize,
            chunk2: d.u64("sym.split.chunk2").map_err(corrupt_ck)? as usize,
        },
        overflow_rows: d.vec_u32("sym.overflow_rows").map_err(corrupt_ck)?,
    };
    expect_drained(&d, "SYMBOLIC_PARTIAL")?;
    Ok((engine, resume))
}

/// Durable symbolic output plus the report facts a resumed run can no
/// longer observe.
#[derive(Debug, Clone)]
pub struct SymbolicDone {
    /// The filled pattern and metrics.
    pub result: SymbolicResult,
    /// Effective stage-1 chunk size (report fidelity).
    pub chunk_size: usize,
    /// Out-of-core iterations taken (report fidelity).
    pub iterations: usize,
}

fn encode_symbolic_done(result: &SymbolicResult, chunk_size: usize, iterations: usize) -> Vec<u8> {
    let mut e = Enc::new();
    encode_csr(&mut e, &result.filled);
    e.vec_u32(&result.fill_count);
    e.u64(result.metrics.steps);
    e.u64(result.metrics.edges);
    e.u64(result.metrics.frontiers);
    e.u64(chunk_size as u64);
    e.u64(iterations as u64);
    e.into_bytes()
}

fn decode_symbolic_done(b: &[u8]) -> Result<SymbolicDone, GpluError> {
    let mut d = Dec::new(b);
    let filled = decode_csr(&mut d).map_err(corrupt_ck)?;
    let fill_count = d.vec_u32("symdone.fill_count").map_err(corrupt_ck)?;
    let steps = d.u64("symdone.steps").map_err(corrupt_ck)?;
    let edges = d.u64("symdone.edges").map_err(corrupt_ck)?;
    let frontiers = d.u64("symdone.frontiers").map_err(corrupt_ck)?;
    let chunk_size = d.u64("symdone.chunk_size").map_err(corrupt_ck)? as usize;
    let iterations = d.u64("symdone.iterations").map_err(corrupt_ck)? as usize;
    expect_drained(&d, "SYMBOLIC")?;
    if fill_count.len() != filled.n_rows() {
        return Err(corrupt(format!(
            "fill_count has {} entries for a {}-row pattern",
            fill_count.len(),
            filled.n_rows()
        )));
    }
    Ok(SymbolicDone {
        result: SymbolicResult {
            filled,
            fill_count,
            metrics: SymbolicMetrics {
                steps,
                edges,
                frontiers,
            },
        },
        chunk_size,
        iterations,
    })
}

fn encode_levels(level_of: &[u32]) -> Vec<u8> {
    let mut e = Enc::new();
    e.vec_u32(level_of);
    e.into_bytes()
}

fn decode_levels(b: &[u8]) -> Result<Vec<u32>, GpluError> {
    let mut d = Dec::new(b);
    let level_of = d.vec_u32("levels.level_of").map_err(corrupt_ck)?;
    expect_drained(&d, "LEVELS")?;
    Ok(level_of)
}

fn encode_numeric(format: u8, r: &NumericResume) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(format);
    e.u64(r.start_level as u64);
    e.vec_f64(&r.vals);
    e.u64(r.mode_mix.a as u64);
    e.u64(r.mode_mix.b as u64);
    e.u64(r.mode_mix.c as u64);
    e.u64(r.probes);
    e.u64(r.merge_steps);
    e.u64(r.batches);
    e.u64(r.gemm_tiles);
    e.into_bytes()
}

fn decode_numeric(b: &[u8]) -> Result<(u8, NumericResume), GpluError> {
    let mut d = Dec::new(b);
    let format = d.u8("num.format").map_err(corrupt_ck)?;
    let start_level = d.u64("num.start_level").map_err(corrupt_ck)? as usize;
    let vals = d.vec_f64("num.vals").map_err(corrupt_ck)?;
    let a = d.u64("num.mix_a").map_err(corrupt_ck)? as usize;
    let b_ = d.u64("num.mix_b").map_err(corrupt_ck)? as usize;
    let c = d.u64("num.mix_c").map_err(corrupt_ck)? as usize;
    let probes = d.u64("num.probes").map_err(corrupt_ck)?;
    let merge_steps = d.u64("num.merge_steps").map_err(corrupt_ck)?;
    let batches = d.u64("num.batches").map_err(corrupt_ck)?;
    let gemm_tiles = d.u64("num.gemm_tiles").map_err(corrupt_ck)?;
    expect_drained(&d, "NUMERIC")?;
    Ok((
        format,
        NumericResume {
            start_level,
            vals,
            mode_mix: ModeMix { a, b: b_, c },
            probes,
            merge_steps,
            batches,
            gemm_tiles,
        },
    ))
}

fn phase_tag(p: Phase) -> u8 {
    match p {
        Phase::Preprocess => 0,
        Phase::Symbolic => 1,
        Phase::Levelize => 2,
        Phase::Numeric => 3,
        Phase::Solve => 4,
        Phase::Cache => 5,
    }
}

fn phase_from_tag(t: u8) -> Result<Phase, GpluError> {
    Ok(match t {
        0 => Phase::Preprocess,
        1 => Phase::Symbolic,
        2 => Phase::Levelize,
        3 => Phase::Numeric,
        4 => Phase::Solve,
        5 => Phase::Cache,
        other => return Err(corrupt(format!("unknown recovery phase tag {other}"))),
    })
}

fn encode_recovery(log: &RecoveryLog) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(log.len() as u32);
    for ev in log.events() {
        e.u8(phase_tag(ev.phase));
        match &ev.action {
            RecoveryAction::ChunkBackoff {
                backoffs,
                final_chunk,
            } => {
                e.u8(0);
                e.u64(*backoffs as u64);
                e.u64(*final_chunk as u64);
            }
            RecoveryAction::StreamedOutput => e.u8(1),
            RecoveryAction::EngineDegraded { from, to } => {
                e.u8(2);
                e.str(from);
                e.str(to);
            }
            RecoveryAction::FormatDegraded { from, to } => {
                e.u8(3);
                e.str(from);
                e.str(to);
            }
            RecoveryAction::PivotRepaired {
                col,
                value,
                magnitude,
            } => {
                e.u8(4);
                e.u64(*col as u64);
                e.f64(*value);
                e.f64(*magnitude);
            }
            RecoveryAction::PivotEscalated { from, to } => {
                e.u8(5);
                e.str(from);
                e.str(to);
            }
            RecoveryAction::PivotPerturbed { cols, max_delta } => {
                e.u8(6);
                e.u64(*cols as u64);
                e.f64(*max_delta);
            }
            RecoveryAction::PatternExpanded { added, rounds } => {
                e.u8(7);
                e.u64(*added as u64);
                e.u64(*rounds as u64);
            }
            RecoveryAction::Resymbolic { abandoned } => {
                e.u8(8);
                e.u64(*abandoned as u64);
            }
            RecoveryAction::DiskEntryRejected { key, reason } => {
                e.u8(9);
                e.u64(*key);
                e.str(reason);
            }
            RecoveryAction::DeviceLost { device, resharded } => {
                e.u8(10);
                e.u64(*device as u64);
                e.u64(*resharded as u64);
            }
        }
    }
    e.into_bytes()
}

fn decode_recovery(b: &[u8]) -> Result<RecoveryLog, GpluError> {
    let mut d = Dec::new(b);
    let count = d.u32("rec.count").map_err(corrupt_ck)?;
    let mut log = RecoveryLog::default();
    for _ in 0..count {
        let phase = phase_from_tag(d.u8("rec.phase").map_err(corrupt_ck)?)?;
        let action = match d.u8("rec.action").map_err(corrupt_ck)? {
            0 => RecoveryAction::ChunkBackoff {
                backoffs: d.u64("rec.backoffs").map_err(corrupt_ck)? as usize,
                final_chunk: d.u64("rec.final_chunk").map_err(corrupt_ck)? as usize,
            },
            1 => RecoveryAction::StreamedOutput,
            2 => RecoveryAction::EngineDegraded {
                from: d.str("rec.from").map_err(corrupt_ck)?,
                to: d.str("rec.to").map_err(corrupt_ck)?,
            },
            3 => RecoveryAction::FormatDegraded {
                from: d.str("rec.from").map_err(corrupt_ck)?,
                to: d.str("rec.to").map_err(corrupt_ck)?,
            },
            4 => RecoveryAction::PivotRepaired {
                col: d.u64("rec.col").map_err(corrupt_ck)? as usize,
                value: d.f64("rec.value").map_err(corrupt_ck)?,
                magnitude: d.f64("rec.magnitude").map_err(corrupt_ck)?,
            },
            5 => RecoveryAction::PivotEscalated {
                from: d.str("rec.from").map_err(corrupt_ck)?,
                to: d.str("rec.to").map_err(corrupt_ck)?,
            },
            6 => RecoveryAction::PivotPerturbed {
                cols: d.u64("rec.cols").map_err(corrupt_ck)? as usize,
                max_delta: d.f64("rec.max_delta").map_err(corrupt_ck)?,
            },
            7 => RecoveryAction::PatternExpanded {
                added: d.u64("rec.added").map_err(corrupt_ck)? as usize,
                rounds: d.u64("rec.rounds").map_err(corrupt_ck)? as usize,
            },
            8 => RecoveryAction::Resymbolic {
                abandoned: d.u64("rec.abandoned").map_err(corrupt_ck)? as usize,
            },
            9 => RecoveryAction::DiskEntryRejected {
                key: d.u64("rec.key").map_err(corrupt_ck)?,
                reason: d.str("rec.reason").map_err(corrupt_ck)?,
            },
            10 => RecoveryAction::DeviceLost {
                device: d.u64("rec.device").map_err(corrupt_ck)? as usize,
                resharded: d.u64("rec.resharded").map_err(corrupt_ck)? as usize,
            },
            other => return Err(corrupt(format!("unknown recovery action tag {other}"))),
        };
        log.record(phase, action);
    }
    expect_drained(&d, "RECOVERY")?;
    Ok(log)
}

fn expect_drained(d: &Dec<'_>, what: &str) -> Result<(), GpluError> {
    if d.remaining() != 0 {
        return Err(corrupt(format!(
            "{what} section has {} trailing byte(s)",
            d.remaining()
        )));
    }
    Ok(())
}

fn corrupt_ck(e: gplu_checkpoint::CheckpointError) -> GpluError {
    GpluError::from(e)
}

// ---------------------------------------------------------------------
// Resume state
// ---------------------------------------------------------------------

/// Everything a resumed run replays, decoded and validated from the
/// latest valid snapshot.
#[derive(Debug)]
pub struct ResumeState {
    /// How far the snapshotted run had progressed.
    pub mark: PhaseMark,
    /// Simulated clock at cut time (restored so resumed timings continue
    /// rather than restart).
    pub clock_ns: f64,
    /// Sequence number of the snapshot this state came from.
    pub seq: u64,
    /// Pre-processing output (present at every mark).
    pub pre: PreState,
    /// Partial symbolic progress (mark == `SymbolicPartial` only).
    pub sym_partial: Option<(u8, SymbolicResume)>,
    /// Completed symbolic output (mark >= `Symbolic`).
    pub symbolic: Option<SymbolicDone>,
    /// Level schedule (mark >= `Levelized`).
    pub level_of: Option<Vec<u32>>,
    /// Partial numeric progress (mark == `NumericPartial` only).
    pub numeric: Option<(u8, NumericResume)>,
    /// Recovery log accumulated before the cut.
    pub recovery: RecoveryLog,
}

impl ResumeState {
    /// Rebuilds the level schedule, if the snapshot has one.
    pub fn levels(&self) -> Option<Levels> {
        self.level_of
            .as_ref()
            .map(|lo| Levels::from_level_of(lo.clone()))
    }
}

fn decode_resume(seq: u64, snap: &Snapshot) -> Result<ResumeState, GpluError> {
    let need = |id: u32, name: &str| {
        snap.section(id)
            .ok_or_else(|| corrupt(format!("snapshot #{seq} lacks required section {name}")))
    };
    let (mark, clock_ns) = decode_meta(need(section::META, "META")?)?;
    let pre = decode_preprocess(need(section::PREPROCESS, "PREPROCESS")?)?;
    let sym_partial = if mark == PhaseMark::SymbolicPartial {
        Some(decode_symbolic_partial(need(
            section::SYMBOLIC_PARTIAL,
            "SYMBOLIC_PARTIAL",
        )?)?)
    } else {
        None
    };
    let symbolic = if mark >= PhaseMark::Symbolic {
        Some(decode_symbolic_done(need(section::SYMBOLIC, "SYMBOLIC")?)?)
    } else {
        None
    };
    let level_of = if mark >= PhaseMark::Levelized {
        Some(decode_levels(need(section::LEVELS, "LEVELS")?)?)
    } else {
        None
    };
    let numeric = if mark == PhaseMark::NumericPartial {
        Some(decode_numeric(need(section::NUMERIC, "NUMERIC")?)?)
    } else {
        None
    };
    let recovery = match snap.section(section::RECOVERY) {
        Some(b) => decode_recovery(b)?,
        None => RecoveryLog::default(),
    };
    Ok(ResumeState {
        mark,
        clock_ns,
        seq,
        pre,
        sym_partial,
        symbolic,
        level_of,
        numeric,
        recovery,
    })
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// A live checkpointing session for one factorization: accumulates
/// durable sections as phases complete and cuts crash-consistent
/// snapshots at boundaries and in-phase watermarks.
#[derive(Debug)]
pub struct CheckpointSession {
    store: CheckpointStore,
    every: usize,
    next_seq: u64,
    base: Snapshot,
    /// Decoded resume state, if the session was opened with
    /// `resume: true` and a valid snapshot existed. The pipeline `take`s
    /// this to replay it.
    pub resume: Option<ResumeState>,
}

impl CheckpointSession {
    /// Opens (or resumes) a session for factorizing `a` under `lu_opts`.
    ///
    /// With `opts.resume`, the latest valid snapshot is loaded and
    /// verified against the matrix fingerprint; an empty or absent
    /// checkpoint directory silently starts a fresh run (so a single
    /// `--resume` invocation works whether or not a prior run got far
    /// enough to cut anything). A directory where *every* snapshot fails
    /// its checksum is [`GpluError::CheckpointCorrupt`].
    pub fn open(
        opts: &CheckpointOptions,
        a: &Csr,
        lu_opts: &LuOptions,
        gpu: &Gpu,
        trace: &dyn TraceSink,
    ) -> Result<CheckpointSession, GpluError> {
        opts.validate()?;
        let store = CheckpointStore::open(&opts.dir)?;
        let m_fp = matrix_fingerprint(a);
        let o_fp = options_fingerprint(lu_opts);
        let mut base = Snapshot::new();
        base.add_section(
            section::FINGERPRINT,
            encode_fingerprint(m_fp, o_fp, a.n_rows(), a.nnz()),
        );
        let mut resume = None;
        if opts.resume {
            trace.span_begin("checkpoint.load", "checkpoint", gpu.now().as_ns(), &[]);
            let loaded = store.load_latest()?;
            trace.span_end(
                "checkpoint.load",
                "checkpoint",
                gpu.now().as_ns(),
                &[("found", loaded.is_some().into())],
            );
            if let Some((seq, snap)) = loaded {
                trace.span_begin(
                    "checkpoint.verify",
                    "checkpoint",
                    gpu.now().as_ns(),
                    &[("seq", seq.into())],
                );
                let fp = decode_fingerprint(
                    snap.section(section::FINGERPRINT)
                        .ok_or_else(|| corrupt("snapshot lacks FINGERPRINT section"))?,
                )?;
                if fp.matrix_fp != m_fp {
                    return Err(GpluError::CheckpointMismatch(format!(
                        "snapshot #{seq} was cut for a different matrix \
                         (fingerprint {:016x}, n={}, nnz={}; this matrix has \
                         fingerprint {m_fp:016x}, n={}, nnz={})",
                        fp.matrix_fp,
                        fp.n,
                        fp.nnz,
                        a.n_rows(),
                        a.nnz(),
                    )));
                }
                let state = decode_resume(seq, &snap)?;
                // Carry the snapshot's durable sections forward so the
                // next cut doesn't lose completed phases.
                for id in [
                    section::PREPROCESS,
                    section::SYMBOLIC,
                    section::LEVELS,
                    section::RECOVERY,
                ] {
                    if let Some(payload) = snap.section(id) {
                        base.add_section(id, payload.to_vec());
                    }
                }
                trace.span_end(
                    "checkpoint.verify",
                    "checkpoint",
                    gpu.now().as_ns(),
                    &[("mark", state.mark.name().into())],
                );
                resume = Some(state);
            }
        }
        // Never clobber existing snapshots, resumed or not: new cuts go
        // strictly after whatever the directory already holds.
        let next_seq = store.max_seq()? + 1;
        Ok(CheckpointSession {
            store,
            every: opts.every,
            next_seq,
            base,
            resume,
        })
    }

    /// Snapshot cadence (levels / chunks between in-phase cuts).
    pub fn every(&self) -> usize {
        self.every
    }

    /// Installs the durable pre-processing section. Called again after a
    /// numeric-phase diagonal repair so every later snapshot carries the
    /// matrix actually being factorized.
    pub fn set_preprocess(&mut self, p: &PreState) {
        self.base
            .add_section(section::PREPROCESS, encode_preprocess(p));
    }

    /// Installs the durable symbolic section.
    pub fn set_symbolic(&mut self, result: &SymbolicResult, chunk_size: usize, iterations: usize) {
        self.base.add_section(
            section::SYMBOLIC,
            encode_symbolic_done(result, chunk_size, iterations),
        );
    }

    /// Installs the durable level-schedule section.
    pub fn set_levels(&mut self, level_of: &[u32]) {
        self.base
            .add_section(section::LEVELS, encode_levels(level_of));
    }

    /// Re-encodes the recovery log so corrective actions survive a
    /// restart.
    pub fn note_recovery(&mut self, log: &RecoveryLog) {
        self.base
            .add_section(section::RECOVERY, encode_recovery(log));
    }

    /// Builds the symbolic-partial payload for a cut.
    pub fn symbolic_partial_payload(engine: SymbolicEngine, r: &SymbolicResume) -> (u32, Vec<u8>) {
        (
            section::SYMBOLIC_PARTIAL,
            encode_symbolic_partial(engine_tag(engine), r),
        )
    }

    /// Builds the numeric-partial payload for a cut.
    pub fn numeric_partial_payload(format: NumericFormat, r: &NumericResume) -> (u32, Vec<u8>) {
        (section::NUMERIC, encode_numeric(format_tag(format), r))
    }

    /// Cuts a snapshot, from inside a running kernel loop. Crash points
    /// bracket the write; I/O failures surface as
    /// [`SimError::BadLaunch`] so the engine aborts (the pipeline
    /// rewraps them via [`CheckpointSession::cut`]'s mapping).
    pub fn cut_in_kernel(
        &mut self,
        gpu: &Gpu,
        trace: &dyn TraceSink,
        mark: PhaseMark,
        partial: Option<(u32, Vec<u8>)>,
    ) -> Result<(), SimError> {
        // The process may die before the write lands...
        gpu.crash_point()?;
        let mut snap = self.base.clone();
        snap.add_section(section::META, encode_meta(mark, gpu.now().as_ns()));
        if let Some((id, payload)) = partial {
            snap.add_section(id, payload);
        }
        let seq = self.next_seq;
        trace.span_begin(
            "checkpoint.save",
            "checkpoint",
            gpu.now().as_ns(),
            &[("seq", seq.into()), ("mark", mark.name().into())],
        );
        let bytes = self
            .store
            .save(seq, &snap)
            .map_err(|e| SimError::BadLaunch(format!("checkpoint write failed: {e}")))?;
        gpu.advance(SimTime::from_ns(bytes as f64 * WRITE_NS_PER_BYTE));
        trace.span_end(
            "checkpoint.save",
            "checkpoint",
            gpu.now().as_ns(),
            &[("seq", seq.into()), ("bytes", bytes.into())],
        );
        self.next_seq += 1;
        // ...or right after it did.
        gpu.crash_point()?;
        Ok(())
    }

    /// Cuts a snapshot at a phase boundary, mapping errors onto the
    /// pipeline surface ([`GpluError::Crashed`] for injected kills,
    /// [`GpluError::Checkpoint`] for I/O failures).
    pub fn cut(
        &mut self,
        gpu: &Gpu,
        trace: &dyn TraceSink,
        mark: PhaseMark,
        partial: Option<(u32, Vec<u8>)>,
    ) -> Result<(), GpluError> {
        self.cut_in_kernel(gpu, trace, mark, partial)
            .map_err(|e| match e {
                SimError::BadLaunch(msg) => GpluError::Checkpoint(msg),
                other => GpluError::from(other),
            })
    }
}

// Re-exported so integration code can name the section a partial payload
// targets without depending on gplu-checkpoint directly.
pub use gplu_checkpoint::section as section_ids;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryEvent;
    use gplu_sim::{Gpu, GpuConfig};
    use gplu_trace::NoopSink;

    fn small() -> Csr {
        let mut coo = gplu_sparse::Coo::new(3, 3);
        for (i, j, v) in [(0, 0, 4.0), (1, 1, 5.0), (2, 0, 1.0), (2, 2, 6.0)] {
            coo.push(i, j, v);
        }
        gplu_sparse::convert::coo_to_csr(&coo)
    }

    fn gpu_for(a: &Csr) -> Gpu {
        Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()))
    }

    #[test]
    fn matrix_fingerprint_is_sensitive_to_values_and_structure() {
        let a = small();
        let fp = matrix_fingerprint(&a);
        assert_eq!(fp, matrix_fingerprint(&small()), "deterministic");
        let mut b = small();
        b.vals[0] = 4.5;
        assert_ne!(fp, matrix_fingerprint(&b), "value change must show");
        let mut coo = gplu_sparse::Coo::new(3, 3);
        for (i, j, v) in [(0, 0, 4.0), (1, 1, 5.0), (2, 2, 6.0)] {
            coo.push(i, j, v);
        }
        let c = gplu_sparse::convert::coo_to_csr(&coo);
        assert_ne!(fp, matrix_fingerprint(&c), "structure change must show");
    }

    #[test]
    fn pattern_fingerprint_ignores_values_but_not_structure() {
        let a = small();
        let fp = pattern_fingerprint(&a);
        let mut drifted = small();
        for v in &mut drifted.vals {
            *v *= 1.5;
        }
        assert_eq!(
            fp,
            pattern_fingerprint(&drifted),
            "value drift keeps the pattern key"
        );
        assert_ne!(
            fp,
            matrix_fingerprint(&a),
            "pattern and content keys live in different hash domains"
        );
        let mut coo = gplu_sparse::Coo::new(3, 3);
        for (i, j, v) in [(0, 0, 4.0), (1, 1, 5.0), (2, 2, 6.0)] {
            coo.push(i, j, v);
        }
        let diag = gplu_sparse::convert::coo_to_csr(&coo);
        assert_ne!(fp, pattern_fingerprint(&diag), "structure change must show");
    }

    #[test]
    fn meta_and_fingerprint_round_trip() {
        let b = encode_meta(PhaseMark::Levelized, 123.5);
        let (mark, ns) = decode_meta(&b).unwrap();
        assert_eq!(mark, PhaseMark::Levelized);
        assert_eq!(ns, 123.5);
        let f = encode_fingerprint(7, 9, 100, 500);
        let fp = decode_fingerprint(&f).unwrap();
        assert_eq!((fp.matrix_fp, fp.n, fp.nnz), (7, 100, 500));
    }

    #[test]
    fn preprocess_round_trip() {
        let p = PreState {
            matrix: small(),
            p_row: Permutation::from_forward(vec![2, 0, 1]).unwrap(),
            p_col: Permutation::identity(3),
            repaired: 1,
            time_ns: 42.0,
        };
        let b = encode_preprocess(&p);
        let q = decode_preprocess(&b).unwrap();
        assert_eq!(q.matrix.col_idx, p.matrix.col_idx);
        assert_eq!(q.matrix.vals, p.matrix.vals);
        assert_eq!(q.p_row.as_slice(), p.p_row.as_slice());
        assert_eq!(q.repaired, 1);
        assert_eq!(q.time_ns, 42.0);
    }

    #[test]
    fn symbolic_partial_round_trip() {
        let r = SymbolicResume {
            rows_done: 2,
            iters_done: 1,
            chunk: 2,
            oom_backoffs: 1,
            fill_counts: vec![3, 2, 0],
            agg_steps: 9,
            agg_edges: 12,
            agg_frontiers: 5,
            split: DynamicSplit {
                n1: 2,
                frontier_cap: 4,
                chunk1: 8,
                chunk2: 2,
            },
            overflow_rows: vec![1],
        };
        let (tag, q) = decode_symbolic_partial(&encode_symbolic_partial(1, &r)).unwrap();
        assert_eq!(tag, 1);
        assert_eq!(q.fill_counts, r.fill_counts);
        assert_eq!((q.rows_done, q.iters_done, q.chunk), (2, 1, 2));
        assert_eq!(
            (q.agg_steps, q.agg_edges, q.agg_frontiers, q.oom_backoffs),
            (9, 12, 5, 1)
        );
        assert_eq!(q.split, r.split);
        assert_eq!(q.overflow_rows, vec![1]);
    }

    #[test]
    fn a_partial_snapshot_in_the_retired_payload_is_a_typed_error() {
        // Section id 4 carried the per-engine union payload (per-row
        // frontiers, an optional split). It must be refused, not decoded
        // field-shifted into the one-driver layout.
        let pre = PreState {
            matrix: small(),
            p_row: Permutation::identity(3),
            p_col: Permutation::identity(3),
            repaired: 0,
            time_ns: 0.0,
        };
        let mut snap = Snapshot::new();
        snap.add_section(section::META, encode_meta(PhaseMark::SymbolicPartial, 1.0));
        snap.add_section(section::PREPROCESS, encode_preprocess(&pre));
        snap.add_section(4, vec![0; 64]);
        let e = decode_resume(7, &snap).unwrap_err();
        assert!(
            matches!(&e, GpluError::CheckpointCorrupt(m) if m.contains("SYMBOLIC_PARTIAL")),
            "got {e:?}"
        );
    }

    #[test]
    fn numeric_and_levels_round_trip() {
        let r = NumericResume {
            start_level: 3,
            vals: vec![1.0, -2.5, 0.0],
            mode_mix: ModeMix { a: 1, b: 2, c: 0 },
            probes: 7,
            merge_steps: 11,
            batches: 4,
            gemm_tiles: 13,
        };
        let (tag, q) = decode_numeric(&encode_numeric(2, &r)).unwrap();
        assert_eq!(tag, 2);
        assert_eq!(q.start_level, 3);
        assert_eq!(q.vals, r.vals);
        assert_eq!(q.mode_mix, r.mode_mix);
        assert_eq!(
            (q.probes, q.merge_steps, q.batches, q.gemm_tiles),
            (7, 11, 4, 13)
        );

        let lo = vec![0u32, 1, 0, 2];
        assert_eq!(decode_levels(&encode_levels(&lo)).unwrap(), lo);
    }

    #[test]
    fn recovery_log_round_trips_every_action() {
        let mut log = RecoveryLog::default();
        log.record(
            Phase::Symbolic,
            RecoveryAction::ChunkBackoff {
                backoffs: 2,
                final_chunk: 64,
            },
        );
        log.record(Phase::Symbolic, RecoveryAction::StreamedOutput);
        log.record(
            Phase::Symbolic,
            RecoveryAction::EngineDegraded {
                from: "ooc_dynamic".into(),
                to: "ooc".into(),
            },
        );
        log.record(
            Phase::Numeric,
            RecoveryAction::FormatDegraded {
                from: "dense".into(),
                to: "sparse_merge".into(),
            },
        );
        log.record(
            Phase::Numeric,
            RecoveryAction::PivotRepaired {
                col: 5,
                value: 1e-8,
                magnitude: 3e-9,
            },
        );
        log.record(
            Phase::Numeric,
            RecoveryAction::PivotEscalated {
                from: "none".into(),
                to: "threshold(tau=0.1)".into(),
            },
        );
        log.record(
            Phase::Numeric,
            RecoveryAction::PivotPerturbed {
                cols: 3,
                max_delta: 2e-7,
            },
        );
        log.record(
            Phase::Symbolic,
            RecoveryAction::PatternExpanded {
                added: 17,
                rounds: 2,
            },
        );
        log.record(
            Phase::Symbolic,
            RecoveryAction::Resymbolic { abandoned: 400 },
        );
        let decoded = decode_recovery(&encode_recovery(&log)).unwrap();
        assert_eq!(decoded.len(), log.len());
        let evs: Vec<&RecoveryEvent> = decoded.events().iter().collect();
        assert!(matches!(
            evs[0].action,
            RecoveryAction::ChunkBackoff {
                backoffs: 2,
                final_chunk: 64
            }
        ));
        assert!(matches!(
            &evs[4].action,
            RecoveryAction::PivotRepaired { col: 5, value, magnitude }
                if *value == 1e-8 && *magnitude == 3e-9
        ));
        assert!(
            matches!(&evs[5].action, RecoveryAction::PivotEscalated { to, .. } if to.contains("tau=0.1"))
        );
        assert!(matches!(
            &evs[6].action,
            RecoveryAction::PivotPerturbed { cols: 3, max_delta } if *max_delta == 2e-7
        ));
        assert!(matches!(
            evs[7].action,
            RecoveryAction::PatternExpanded {
                added: 17,
                rounds: 2
            }
        ));
        assert!(matches!(
            evs[8].action,
            RecoveryAction::Resymbolic { abandoned: 400 }
        ));
    }

    #[test]
    fn truncated_sections_are_typed_corrupt_errors() {
        let full = encode_meta(PhaseMark::Symbolic, 1.0);
        for cut in 0..full.len() {
            let e = decode_meta(&full[..cut]).unwrap_err();
            assert!(
                matches!(e, GpluError::CheckpointCorrupt(_)),
                "cut at {cut} gave {e:?}"
            );
        }
        // Trailing garbage is equally corrupt.
        let mut padded = full.clone();
        padded.push(0);
        assert!(matches!(
            decode_meta(&padded),
            Err(GpluError::CheckpointCorrupt(_))
        ));
    }

    #[test]
    fn cadence_zero_is_rejected() {
        let opts = CheckpointOptions::new("/tmp/x").every(0);
        assert!(matches!(opts.validate(), Err(GpluError::Checkpoint(_))));
    }

    #[test]
    fn session_survives_an_empty_resume_directory() {
        let dir = tempdir();
        let a = small();
        let gpu = gpu_for(&a);
        let opts = CheckpointOptions::new(&dir).resume(true);
        let sess =
            CheckpointSession::open(&opts, &a, &LuOptions::default(), &gpu, &NoopSink).unwrap();
        assert!(sess.resume.is_none(), "nothing to resume from");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_a_different_matrix() {
        let dir = tempdir();
        let a = small();
        let gpu = gpu_for(&a);
        let lu_opts = LuOptions::default();
        let mut sess =
            CheckpointSession::open(&CheckpointOptions::new(&dir), &a, &lu_opts, &gpu, &NoopSink)
                .unwrap();
        sess.set_preprocess(&PreState {
            matrix: a.clone(),
            p_row: Permutation::identity(3),
            p_col: Permutation::identity(3),
            repaired: 0,
            time_ns: 0.0,
        });
        sess.cut(&gpu, &NoopSink, PhaseMark::Preprocessed, None)
            .unwrap();

        let mut b = small();
        b.vals[0] = 9.0;
        let err = CheckpointSession::open(
            &CheckpointOptions::new(&dir).resume(true),
            &b,
            &lu_opts,
            &gpu,
            &NoopSink,
        )
        .unwrap_err();
        assert!(matches!(err, GpluError::CheckpointMismatch(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cut_then_resume_replays_the_durable_sections() {
        let dir = tempdir();
        let a = small();
        let gpu = gpu_for(&a);
        let lu_opts = LuOptions::default();
        let mut sess =
            CheckpointSession::open(&CheckpointOptions::new(&dir), &a, &lu_opts, &gpu, &NoopSink)
                .unwrap();
        sess.set_preprocess(&PreState {
            matrix: a.clone(),
            p_row: Permutation::identity(3),
            p_col: Permutation::identity(3),
            repaired: 0,
            time_ns: 5.0,
        });
        let sym = SymbolicResult::from_patterns(
            &a,
            vec![vec![0], vec![1], vec![0, 2]],
            SymbolicMetrics {
                steps: 3,
                edges: 4,
                frontiers: 3,
            },
        );
        sess.set_symbolic(&sym, 2, 2);
        sess.set_levels(&[0, 0, 1]);
        sess.cut(&gpu, &NoopSink, PhaseMark::Levelized, None)
            .unwrap();

        let resumed = CheckpointSession::open(
            &CheckpointOptions::new(&dir).resume(true),
            &a,
            &lu_opts,
            &gpu,
            &NoopSink,
        )
        .unwrap();
        let state = resumed.resume.expect("resume state");
        assert_eq!(state.mark, PhaseMark::Levelized);
        assert_eq!(state.pre.time_ns, 5.0);
        assert_eq!(state.level_of.as_deref(), Some(&[0u32, 0, 1][..]));
        let done = state.symbolic.expect("symbolic section");
        assert_eq!(done.result.filled.col_idx, sym.filled.col_idx);
        assert_eq!(done.result.filled.vals, sym.filled.vals);
        assert_eq!((done.chunk_size, done.iterations), (2, 2));
        assert!(state.numeric.is_none(), "no numeric partial at this mark");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir() -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "gplu-core-ckpt-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }
}
