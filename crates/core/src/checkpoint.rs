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
//! Each section is one function generic over the codec's direction
//! (`gplu_checkpoint::Codec`) that visits its fields in byte order, so
//! the encoder and the decoder are the same code. Enums map to their
//! on-disk tags through one table each.
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
use crate::recovery::{Phase, RecoveryAction, RecoveryEvent, RecoveryLog};
use gplu_checkpoint::{
    decode, encode, section, tag_of, xxh64, CheckpointError, CheckpointStore, Codec, Dec, Enc,
    Snapshot,
};
use gplu_numeric::NumericResume;
use gplu_schedule::Levels;
use gplu_sim::{Gpu, SimError, SimTime};
use gplu_sparse::{Csr, Permutation};
use gplu_symbolic::{SymbolicResult, SymbolicResume};
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
    /// Directory holding the snapshots.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum PhaseMark {
    /// Pre-processing done; matrix/permutations durable.
    #[default]
    Preprocessed,
    /// Mid-symbolic: a stage-1 chunk watermark is attached.
    SymbolicPartial,
    /// Symbolic done; filled pattern durable.
    Symbolic,
    /// Levelization done; level schedule durable.
    Levelized,
    /// Mid-numeric: a level watermark + value store is attached. The
    /// final snapshot of a completed run is this mark with
    /// `start_level == n_levels`.
    NumericPartial,
}

impl PhaseMark {
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

/// A [`GpluError::CheckpointCorrupt`] carrying `msg`.
pub(crate) fn corrupt(msg: impl Into<String>) -> GpluError {
    GpluError::CheckpointCorrupt(msg.into())
}

// ---------------------------------------------------------------------
// Tag tables: each enum's variants once, beside their on-disk tag
// ---------------------------------------------------------------------

const MARKS: [(u8, PhaseMark); 5] = [
    (1, PhaseMark::Preprocessed),
    (2, PhaseMark::SymbolicPartial),
    (3, PhaseMark::Symbolic),
    (4, PhaseMark::Levelized),
    (5, PhaseMark::NumericPartial),
];

/// The symbolic engine that cut a partial snapshot.
const ENGINES: [(u8, SymbolicEngine); 4] = [
    (0, SymbolicEngine::Ooc),
    (1, SymbolicEngine::OocDynamic),
    (2, SymbolicEngine::UmNoPrefetch),
    (3, SymbolicEngine::UmPrefetch),
];

/// The numeric format of a partial snapshot or a plan. Ladder rungs are
/// concrete by the time a partial snapshot is cut, so
/// [`NumericFormat::Auto`] appears only in plans, whose warm path carries
/// its own replay ladder for it.
pub(crate) const FORMATS: [(u8, NumericFormat); 5] = [
    (0, NumericFormat::Dense),
    (1, NumericFormat::Sparse),
    (2, NumericFormat::SparseMerge),
    (3, NumericFormat::SparseBlocked),
    (255, NumericFormat::Auto),
];

const PHASES: [(u8, Phase); 6] = [
    (0, Phase::Preprocess),
    (1, Phase::Symbolic),
    (2, Phase::Levelize),
    (3, Phase::Numeric),
    (4, Phase::Solve),
    (5, Phase::Cache),
];

/// Each action's fields follow its tag, in the order [`recovery`] walks.
const ACTIONS: [(u8, RecoveryAction); 11] = [
    (
        0,
        RecoveryAction::ChunkBackoff {
            backoffs: 0,
            final_chunk: 0,
        },
    ),
    (1, RecoveryAction::StreamedOutput),
    (
        2,
        RecoveryAction::EngineDegraded {
            from: String::new(),
            to: String::new(),
        },
    ),
    (
        3,
        RecoveryAction::FormatDegraded {
            from: String::new(),
            to: String::new(),
        },
    ),
    (
        4,
        RecoveryAction::PivotRepaired {
            col: 0,
            value: 0.0,
            magnitude: 0.0,
        },
    ),
    (
        5,
        RecoveryAction::PivotEscalated {
            from: String::new(),
            to: String::new(),
        },
    ),
    (
        6,
        RecoveryAction::PivotPerturbed {
            cols: 0,
            max_delta: 0.0,
        },
    ),
    (
        7,
        RecoveryAction::PatternExpanded {
            added: 0,
            rounds: 0,
        },
    ),
    (8, RecoveryAction::Resymbolic { abandoned: 0 }),
    (
        9,
        RecoveryAction::DiskEntryRejected {
            key: 0,
            reason: String::new(),
        },
    ),
    (
        10,
        RecoveryAction::DeviceLost {
            device: 0,
            resharded: 0,
        },
    ),
];

/// Tag of the symbolic engine that cut a partial snapshot.
pub(crate) fn engine_tag(e: SymbolicEngine) -> u8 {
    tag_of(&ENGINES, &e)
}

/// Tag of the numeric format that cut a partial snapshot.
pub(crate) fn format_tag(f: NumericFormat) -> u8 {
    tag_of(&FORMATS, &f)
}

/// Structural fingerprint of the input matrix: dimensions and sparsity
/// pattern only, values excluded. Every member of a refactorization
/// family (one circuit, many timesteps of drifting values) maps to the
/// same key — this is the pattern key of the solver service's factor
/// cache, where [`matrix_fingerprint`] would defeat reuse entirely.
pub fn pattern_fingerprint(a: &Csr) -> u64 {
    let mut e = Enc::new();
    e.put(&(a.n_rows() as u64));
    e.put(&(a.n_cols() as u64));
    e.put(&a.row_ptr);
    e.put(&a.col_idx);
    xxh64(&e.into_bytes(), PATTERN_FP_SEED)
}

/// Content fingerprint of the input matrix (structure + values).
pub fn matrix_fingerprint(a: &Csr) -> u64 {
    let mut e = Enc::new();
    e.put(&(a.n_rows() as u64));
    e.put(&(a.n_cols() as u64));
    e.put(&a.row_ptr);
    e.put(&a.col_idx);
    e.put(&a.vals);
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
// Sections: one walk each, in byte order (`gplu_checkpoint::codec`)
// ---------------------------------------------------------------------

type Walked = Result<(), CheckpointError>;

#[derive(Debug, Default)]
struct Meta {
    mark: PhaseMark,
    clock_ns: f64,
}

fn meta<C: Codec>(c: &mut C, m: &mut Meta) -> Walked {
    c.tag(&mut m.mark, &MARKS, "meta.mark")?;
    c.field(&mut m.clock_ns, "meta.clock_ns")
}

#[derive(Debug, Default)]
struct Fingerprint {
    matrix_fp: u64,
    opts_fp: u64,
    n: u64,
    nnz: u64,
}

fn fingerprint<C: Codec>(c: &mut C, f: &mut Fingerprint) -> Walked {
    c.field(&mut f.matrix_fp, "fp.matrix")?;
    c.field(&mut f.opts_fp, "fp.opts")?;
    c.field(&mut f.n, "fp.n")?;
    c.field(&mut f.nnz, "fp.nnz")
}

/// Durable pre-processing output: the (possibly diagonal-repaired)
/// permuted matrix and its permutations.
#[derive(Debug, Clone, Default)]
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

fn preprocess<C: Codec>(c: &mut C, p: &mut PreState) -> Walked {
    c.field(&mut p.matrix, "pre.matrix")?;
    c.field(&mut p.p_row, "pre.p_row")?;
    c.field(&mut p.p_col, "pre.p_col")?;
    c.field(&mut p.repaired, "pre.repaired")?;
    c.field(&mut p.time_ns, "pre.time_ns")
}

/// The engine tag, then the chunk watermark it resumes from.
fn symbolic_partial<C: Codec>(c: &mut C, (engine, r): &mut (u8, SymbolicResume)) -> Walked {
    c.field(engine, "sym.engine")?;
    c.field(&mut r.rows_done, "sym.rows_done")?;
    c.field(&mut r.iters_done, "sym.iters_done")?;
    c.field(&mut r.chunk, "sym.chunk")?;
    c.field(&mut r.oom_backoffs, "sym.oom_backoffs")?;
    c.field(&mut r.fill_counts, "sym.fill_counts")?;
    c.field(&mut r.agg_steps, "sym.agg_steps")?;
    c.field(&mut r.agg_edges, "sym.agg_edges")?;
    c.field(&mut r.agg_frontiers, "sym.agg_frontiers")?;
    c.field(&mut r.split.n1, "sym.split.n1")?;
    c.field(&mut r.split.frontier_cap, "sym.split.frontier_cap")?;
    c.field(&mut r.split.chunk1, "sym.split.chunk1")?;
    c.field(&mut r.split.chunk2, "sym.split.chunk2")?;
    c.field(&mut r.overflow_rows, "sym.overflow_rows")
}

/// Durable symbolic output plus the report facts a resumed run can no
/// longer observe.
#[derive(Debug, Clone, Default)]
pub struct SymbolicDone {
    /// The filled pattern and metrics.
    pub result: SymbolicResult,
    /// Effective stage-1 chunk size (report fidelity).
    pub chunk_size: usize,
    /// Out-of-core iterations taken (report fidelity).
    pub iterations: usize,
}

fn symbolic_done<C: Codec>(c: &mut C, s: &mut SymbolicDone) -> Walked {
    let r = &mut s.result;
    c.field(&mut r.filled, "symdone.filled")?;
    c.field(&mut r.fill_count, "symdone.fill_count")?;
    c.field(&mut r.metrics.steps, "symdone.steps")?;
    c.field(&mut r.metrics.edges, "symdone.edges")?;
    c.field(&mut r.metrics.frontiers, "symdone.frontiers")?;
    c.field(&mut s.chunk_size, "symdone.chunk_size")?;
    c.field(&mut s.iterations, "symdone.iterations")?;
    if C::DECODES && r.fill_count.len() != r.filled.n_rows() {
        return Err(CheckpointError::Corrupt(format!(
            "fill_count has {} entries for a {}-row pattern",
            r.fill_count.len(),
            r.filled.n_rows()
        )));
    }
    Ok(())
}

fn levels<C: Codec>(c: &mut C, level_of: &mut Vec<u32>) -> Walked {
    c.field(level_of, "levels.level_of")
}

/// The format tag, then the level watermark it resumes from.
fn numeric<C: Codec>(c: &mut C, (format, r): &mut (u8, NumericResume)) -> Walked {
    c.field(format, "num.format")?;
    c.field(&mut r.start_level, "num.start_level")?;
    c.field(&mut r.vals, "num.vals")?;
    c.field(&mut r.mode_mix.a, "num.mix_a")?;
    c.field(&mut r.mode_mix.b, "num.mix_b")?;
    c.field(&mut r.mode_mix.c, "num.mix_c")?;
    c.field(&mut r.probes, "num.probes")?;
    c.field(&mut r.merge_steps, "num.merge_steps")?;
    c.field(&mut r.batches, "num.batches")?;
    c.field(&mut r.gemm_tiles, "num.gemm_tiles")
}

/// A `u32` count, then each event: its phase tag, its action tag and the
/// action's fields.
fn recovery<C: Codec>(c: &mut C, log: &mut RecoveryLog) -> Walked {
    let mut count = log.events.len() as u32;
    c.field(&mut count, "rec.count")?;
    for i in 0..count as usize {
        if C::DECODES {
            log.events.push(RecoveryEvent {
                phase: Phase::Preprocess,
                action: RecoveryAction::StreamedOutput,
            });
        }
        let ev = &mut log.events[i];
        c.tag(&mut ev.phase, &PHASES, "rec.phase")?;
        c.tag(&mut ev.action, &ACTIONS, "rec.action")?;
        match &mut ev.action {
            RecoveryAction::ChunkBackoff {
                backoffs,
                final_chunk,
            } => {
                c.field(backoffs, "rec.backoffs")?;
                c.field(final_chunk, "rec.final_chunk")?;
            }
            RecoveryAction::StreamedOutput => {}
            RecoveryAction::EngineDegraded { from, to }
            | RecoveryAction::FormatDegraded { from, to }
            | RecoveryAction::PivotEscalated { from, to } => {
                c.field(from, "rec.from")?;
                c.field(to, "rec.to")?;
            }
            RecoveryAction::PivotRepaired {
                col,
                value,
                magnitude,
            } => {
                c.field(col, "rec.col")?;
                c.field(value, "rec.value")?;
                c.field(magnitude, "rec.magnitude")?;
            }
            RecoveryAction::PivotPerturbed { cols, max_delta } => {
                c.field(cols, "rec.cols")?;
                c.field(max_delta, "rec.max_delta")?;
            }
            RecoveryAction::PatternExpanded { added, rounds } => {
                c.field(added, "rec.added")?;
                c.field(rounds, "rec.rounds")?;
            }
            RecoveryAction::Resymbolic { abandoned } => c.field(abandoned, "rec.abandoned")?,
            RecoveryAction::DiskEntryRejected { key, reason } => {
                c.field(key, "rec.key")?;
                c.field(reason, "rec.reason")?;
            }
            RecoveryAction::DeviceLost { device, resharded } => {
                c.field(device, "rec.device")?;
                c.field(resharded, "rec.resharded")?;
            }
        }
    }
    Ok(())
}

/// Decodes the payload of section `name` with `walk`.
fn decoded<'a, S: Default>(
    bytes: &'a [u8],
    name: &str,
    walk: impl FnOnce(&mut Dec<'a>, &mut S) -> Walked,
) -> Result<S, GpluError> {
    let mut s = S::default();
    decode(bytes, name, &mut s, walk)?;
    Ok(s)
}

/// Decodes the section `id` of snapshot `seq` with `walk`.
fn read<'a, S: Default>(
    snap: &'a Snapshot,
    seq: u64,
    (id, name): (u32, &str),
    walk: impl FnOnce(&mut Dec<'a>, &mut S) -> Walked,
) -> Result<S, GpluError> {
    let bytes = snap
        .section(id)
        .ok_or_else(|| corrupt(format!("snapshot #{seq} lacks required section {name}")))?;
    decoded(bytes, name, walk)
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
    let Meta { mark, clock_ns } = read(snap, seq, (section::META, "META"), meta)?;
    let pre = read(snap, seq, (section::PREPROCESS, "PREPROCESS"), preprocess)?;
    let sym_partial = (mark == PhaseMark::SymbolicPartial)
        .then(|| {
            read(
                snap,
                seq,
                (section::SYMBOLIC_PARTIAL, "SYMBOLIC_PARTIAL"),
                symbolic_partial,
            )
        })
        .transpose()?;
    let symbolic = (mark >= PhaseMark::Symbolic)
        .then(|| read(snap, seq, (section::SYMBOLIC, "SYMBOLIC"), symbolic_done))
        .transpose()?;
    let level_of = (mark >= PhaseMark::Levelized)
        .then(|| read(snap, seq, (section::LEVELS, "LEVELS"), levels))
        .transpose()?;
    let numeric = (mark == PhaseMark::NumericPartial)
        .then(|| read(snap, seq, (section::NUMERIC, "NUMERIC"), numeric))
        .transpose()?;
    let recovery = match snap.section(section::RECOVERY) {
        Some(_) => read(snap, seq, (section::RECOVERY, "RECOVERY"), recovery)?,
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
        let mut stamp = Fingerprint {
            matrix_fp: m_fp,
            opts_fp: o_fp,
            n: a.n_rows() as u64,
            nnz: a.nnz() as u64,
        };
        base.add_section(section::FINGERPRINT, encode(&mut stamp, fingerprint));
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
                let fp = read(
                    &snap,
                    seq,
                    (section::FINGERPRINT, "FINGERPRINT"),
                    fingerprint,
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
        let next_seq = store.keys()?.last().map_or(1, |seq| seq + 1);
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
    /// matrix actually being factorized. (Sections are walked through
    /// `&mut` in both directions; encoding only reads.)
    pub fn set_preprocess(&mut self, p: &mut PreState) {
        self.base
            .add_section(section::PREPROCESS, encode(p, preprocess));
    }

    /// Installs the durable symbolic section.
    pub fn set_symbolic(&mut self, done: &mut SymbolicDone) {
        self.base
            .add_section(section::SYMBOLIC, encode(done, symbolic_done));
    }

    /// Installs the durable level-schedule section.
    pub fn set_levels(&mut self, level_of: &mut Vec<u32>) {
        self.base
            .add_section(section::LEVELS, encode(level_of, levels));
    }

    /// Re-encodes the recovery log so corrective actions survive a
    /// restart.
    pub fn note_recovery(&mut self, log: &RecoveryLog) {
        self.base
            .add_section(section::RECOVERY, encode(&mut log.clone(), recovery));
    }

    /// Builds the symbolic-partial payload for a cut.
    pub fn symbolic_partial_payload(engine: SymbolicEngine, r: SymbolicResume) -> (u32, Vec<u8>) {
        let mut partial = (engine_tag(engine), r);
        (
            section::SYMBOLIC_PARTIAL,
            encode(&mut partial, symbolic_partial),
        )
    }

    /// Builds the numeric-partial payload for a cut.
    pub fn numeric_partial_payload(format: NumericFormat, r: NumericResume) -> (u32, Vec<u8>) {
        let mut partial = (format_tag(format), r);
        (section::NUMERIC, encode(&mut partial, numeric))
    }

    /// Cuts a snapshot, from inside a running kernel loop. Crash points
    /// bracket the write; an I/O failure surfaces as [`SimError::Aborted`],
    /// which stops the engine without costing it a device or a ladder rung
    /// and reaches the caller as [`GpluError::Checkpoint`].
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
        let mut stamp = Meta {
            mark,
            clock_ns: gpu.now().as_ns(),
        };
        snap.add_section(section::META, encode(&mut stamp, meta));
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
            .map_err(|e| SimError::Aborted(format!("checkpoint write failed: {e}")))?;
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
            .map_err(GpluError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sim::{Gpu, GpuConfig};
    use gplu_trace::NoopSink;
    use std::path::Path;

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
        let b = encode(
            &mut Meta {
                mark: PhaseMark::Levelized,
                clock_ns: 123.5,
            },
            meta,
        );
        let m: Meta = decoded(&b, "META", meta).unwrap();
        assert_eq!(m.mark, PhaseMark::Levelized);
        assert_eq!(m.clock_ns, 123.5);
        let f = encode(
            &mut Fingerprint {
                matrix_fp: 7,
                opts_fp: 9,
                n: 100,
                nnz: 500,
            },
            fingerprint,
        );
        let fp: Fingerprint = decoded(&f, "FINGERPRINT", fingerprint).unwrap();
        assert_eq!((fp.matrix_fp, fp.opts_fp, fp.n, fp.nnz), (7, 9, 100, 500));
    }

    #[test]
    fn preprocess_round_trip() {
        let mut p = PreState {
            matrix: small(),
            p_row: Permutation::from_forward(vec![2, 0, 1]).unwrap(),
            p_col: Permutation::identity(3),
            repaired: 1,
            time_ns: 42.0,
        };
        let b = encode(&mut p, preprocess);
        let q: PreState = decoded(&b, "PREPROCESS", preprocess).unwrap();
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
            split: gplu_symbolic::DynamicSplit {
                n1: 2,
                frontier_cap: 4,
                chunk1: 8,
                chunk2: 2,
            },
            overflow_rows: vec![1],
        };
        let (_, b) =
            CheckpointSession::symbolic_partial_payload(SymbolicEngine::OocDynamic, r.clone());
        let (tag, q): (u8, SymbolicResume) =
            decoded(&b, "SYMBOLIC_PARTIAL", symbolic_partial).unwrap();
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
        let mut snap = Snapshot::new();
        let mut m = Meta {
            mark: PhaseMark::SymbolicPartial,
            clock_ns: 1.0,
        };
        snap.add_section(section::META, encode(&mut m, meta));
        let mut pre = PreState {
            matrix: small(),
            p_row: Permutation::identity(3),
            p_col: Permutation::identity(3),
            repaired: 0,
            time_ns: 0.0,
        };
        snap.add_section(section::PREPROCESS, encode(&mut pre, preprocess));
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
            mode_mix: gplu_numeric::ModeMix { a: 1, b: 2, c: 0 },
            probes: 7,
            merge_steps: 11,
            batches: 4,
            gemm_tiles: 13,
        };
        let (_, b) =
            CheckpointSession::numeric_partial_payload(NumericFormat::SparseMerge, r.clone());
        let (tag, q): (u8, NumericResume) = decoded(&b, "NUMERIC", numeric).unwrap();
        assert_eq!(tag, 2);
        assert_eq!(q.start_level, 3);
        assert_eq!(q.vals, r.vals);
        assert_eq!(q.mode_mix, r.mode_mix);
        assert_eq!(
            (q.probes, q.merge_steps, q.batches, q.gemm_tiles),
            (7, 11, 4, 13)
        );

        let mut lo = vec![0u32, 1, 0, 2];
        let b = encode(&mut lo, levels);
        assert_eq!(decoded::<Vec<u32>>(&b, "LEVELS", levels).unwrap(), lo);
    }

    /// One action of each variant, in tag order, across every phase.
    fn every_action() -> RecoveryLog {
        let mut log = RecoveryLog::default();
        for (phase, action) in [
            (
                Phase::Symbolic,
                RecoveryAction::ChunkBackoff {
                    backoffs: 2,
                    final_chunk: 64,
                },
            ),
            (Phase::Preprocess, RecoveryAction::StreamedOutput),
            (
                Phase::Symbolic,
                RecoveryAction::EngineDegraded {
                    from: "ooc_dynamic".into(),
                    to: "um_prefetch".into(),
                },
            ),
            (
                Phase::Numeric,
                RecoveryAction::FormatDegraded {
                    from: "dense".into(),
                    to: "sparse_merge".into(),
                },
            ),
            (
                Phase::Numeric,
                RecoveryAction::PivotRepaired {
                    col: 5,
                    value: 1e-8,
                    magnitude: -0.0,
                },
            ),
            (
                Phase::Numeric,
                RecoveryAction::PivotEscalated {
                    from: "none".into(),
                    to: "threshold(tau=0.1)".into(),
                },
            ),
            (
                Phase::Numeric,
                RecoveryAction::PivotPerturbed {
                    cols: 3,
                    max_delta: 2e-7,
                },
            ),
            (
                Phase::Levelize,
                RecoveryAction::PatternExpanded {
                    added: 17,
                    rounds: 2,
                },
            ),
            (
                Phase::Symbolic,
                RecoveryAction::Resymbolic { abandoned: 400 },
            ),
            (
                Phase::Cache,
                RecoveryAction::DiskEntryRejected {
                    key: 0xFEED_F00D_1234_5678,
                    reason: "checksum mismatch".into(),
                },
            ),
            (
                Phase::Solve,
                RecoveryAction::DeviceLost {
                    device: 3,
                    resharded: 11,
                },
            ),
        ] {
            log.record(phase, action);
        }
        log
    }

    /// Cuts the committed fixture directory's two snapshots into `dir`:
    /// seq 1 at `Preprocessed`, seq 2 carrying every section.
    fn cut_fixture_snapshots(dir: &Path) {
        let a = small();
        let gpu = gpu_for(&a);
        let opts = CheckpointOptions::new(dir);
        let mut sess =
            CheckpointSession::open(&opts, &a, &LuOptions::default(), &gpu, &NoopSink).unwrap();
        sess.set_preprocess(&mut PreState {
            matrix: a.clone(),
            p_row: Permutation::from_forward(vec![2, 0, 1]).unwrap(),
            p_col: Permutation::identity(3),
            repaired: 1,
            time_ns: 42.25,
        });
        sess.cut(&gpu, &NoopSink, PhaseMark::Preprocessed, None)
            .unwrap();
        let metrics = gplu_symbolic::result::SymbolicMetrics {
            steps: 3,
            edges: 4,
            frontiers: 5,
        };
        sess.set_symbolic(&mut SymbolicDone {
            result: SymbolicResult::from_patterns(&a, vec![vec![0], vec![1], vec![0, 2]], metrics),
            chunk_size: 2,
            iterations: 7,
        });
        sess.set_levels(&mut vec![0, 0, 1]);
        sess.note_recovery(&every_action());
        let (id, payload) = CheckpointSession::symbolic_partial_payload(
            SymbolicEngine::OocDynamic,
            SymbolicResume {
                rows_done: 2,
                iters_done: 1,
                chunk: 2,
                oom_backoffs: 1,
                fill_counts: vec![1, 1, 0],
                agg_steps: 9,
                agg_edges: 12,
                agg_frontiers: 5,
                split: gplu_symbolic::DynamicSplit {
                    n1: 2,
                    frontier_cap: 4,
                    chunk1: 8,
                    chunk2: 2,
                },
                overflow_rows: vec![1],
            },
        );
        sess.base.add_section(id, payload);
        let numeric = CheckpointSession::numeric_partial_payload(
            NumericFormat::SparseBlocked,
            NumericResume {
                start_level: 1,
                vals: vec![4.0, -0.0, 0.25, f64::INFINITY, 6.0],
                mode_mix: gplu_numeric::ModeMix { a: 1, b: 2, c: 3 },
                probes: 7,
                merge_steps: 11,
                batches: 4,
                gemm_tiles: 13,
            },
        );
        sess.cut(&gpu, &NoopSink, PhaseMark::NumericPartial, Some(numeric))
            .unwrap();
    }

    #[test]
    fn recovery_log_round_trips_every_action() {
        let log = every_action();
        assert_eq!(log.len(), ACTIONS.len());
        let b = encode(&mut log.clone(), recovery);
        let decoded: RecoveryLog = decoded(&b, "RECOVERY", recovery).unwrap();
        assert_eq!(decoded, log);
    }

    #[test]
    fn every_tag_table_lists_each_tag_once() {
        fn unique<T>(table: &[(u8, T)]) -> bool {
            let mut tags: Vec<u8> = table.iter().map(|(t, _)| *t).collect();
            tags.sort_unstable();
            tags.windows(2).all(|w| w[0] < w[1])
        }
        assert!(unique(&MARKS) && unique(&ENGINES) && unique(&FORMATS));
        assert!(unique(&PHASES) && unique(&ACTIONS));
        for (tag, mark) in MARKS {
            assert_eq!(tag_of(&MARKS, &mark), tag);
        }
        for (tag, action) in &ACTIONS {
            assert_eq!(tag_of(&ACTIONS, action), *tag);
        }
    }

    #[test]
    fn truncated_sections_are_typed_corrupt_errors() {
        let full = encode(
            &mut Meta {
                mark: PhaseMark::Symbolic,
                clock_ns: 1.0,
            },
            meta,
        );
        for cut in 0..full.len() {
            let e = decoded::<Meta>(&full[..cut], "META", meta).unwrap_err();
            assert!(
                matches!(e, GpluError::CheckpointCorrupt(_)),
                "cut at {cut} gave {e:?}"
            );
        }
        // Trailing garbage is equally corrupt.
        let mut padded = full.clone();
        padded.push(0);
        assert!(matches!(
            decoded::<Meta>(&padded, "META", meta),
            Err(GpluError::CheckpointCorrupt(_))
        ));
        // So is a tag no table lists.
        let mut unknown = full;
        unknown[0] = 9;
        assert!(matches!(
            decoded::<Meta>(&unknown, "META", meta),
            Err(GpluError::CheckpointCorrupt(m)) if m.contains("unknown tag 9")
        ));
    }

    /// Decodes a fixture section with `$walk` and encodes it again.
    macro_rules! reencoded {
        ($bytes:expr, $walk:ident) => {{
            let mut s = decoded($bytes, stringify!($walk), $walk).expect(stringify!($walk));
            encode(&mut s, $walk)
        }};
    }

    #[test]
    fn committed_checkpoint_snapshot_decodes_and_re_encodes_byte_for_byte() {
        // Cut by an earlier build: seq 1 at `Preprocessed`, seq 2 carrying
        // every section and one recovery action of each variant.
        let fixtures =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/checkpoint");
        let file = std::fs::read(fixtures.join("snap-00000002.ckpt")).unwrap();

        // The directory works as committed; the manifest an older build
        // wrote beside the snapshots is not a key.
        let (seq, snap) = CheckpointStore::open(&fixtures)
            .unwrap()
            .load_latest()
            .unwrap()
            .expect("the fixture directory resumes");
        assert_eq!(seq, 2);
        let mut again = Snapshot::new();
        for id in snap.section_ids() {
            let bytes = snap.section(id).unwrap();
            let re = match id {
                section::META => reencoded!(bytes, meta),
                section::FINGERPRINT => reencoded!(bytes, fingerprint),
                section::PREPROCESS => reencoded!(bytes, preprocess),
                section::SYMBOLIC_PARTIAL => reencoded!(bytes, symbolic_partial),
                section::SYMBOLIC => reencoded!(bytes, symbolic_done),
                section::LEVELS => reencoded!(bytes, levels),
                section::NUMERIC => reencoded!(bytes, numeric),
                section::RECOVERY => reencoded!(bytes, recovery),
                other => panic!("unexpected section {other}"),
            };
            assert_eq!(re, bytes, "section {id}");
            again.add_section(id, re);
        }
        assert_eq!(snap.section_ids().len(), 8, "every section");
        assert_eq!(again.to_bytes(), file);
        let state = decode_resume(seq, &snap).unwrap();
        assert_eq!(state.mark, PhaseMark::NumericPartial);
        let tags: Vec<u8> = state
            .recovery
            .events()
            .iter()
            .map(|e| tag_of(&ACTIONS, &e.action))
            .collect();
        assert_eq!(
            tags,
            (0..11).collect::<Vec<u8>>(),
            "one action of each variant"
        );

        // This build cuts the same state into the same files, and no
        // others.
        let dir = tempdir();
        cut_fixture_snapshots(&dir);
        let mut cut: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        cut.sort();
        assert_eq!(cut, ["snap-00000001.ckpt", "snap-00000002.ckpt"]);
        for name in &cut {
            assert_eq!(
                std::fs::read(dir.join(name)).unwrap(),
                std::fs::read(fixtures.join(name)).unwrap(),
                "{name}"
            );
        }
        assert_eq!(state.recovery, every_action());
        std::fs::remove_dir_all(&dir).ok();
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
        sess.set_preprocess(&mut PreState {
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
        sess.set_preprocess(&mut PreState {
            matrix: a.clone(),
            p_row: Permutation::identity(3),
            p_col: Permutation::identity(3),
            repaired: 0,
            time_ns: 5.0,
        });
        let sym = SymbolicResult::from_patterns(
            &a,
            vec![vec![0], vec![1], vec![0, 2]],
            gplu_symbolic::result::SymbolicMetrics {
                steps: 3,
                edges: 4,
                frontiers: 3,
            },
        );
        sess.set_symbolic(&mut SymbolicDone {
            result: sym.clone(),
            chunk_size: 2,
            iterations: 2,
        });
        sess.set_levels(&mut vec![0, 0, 1]);
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
