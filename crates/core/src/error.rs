//! Pipeline error type.
//!
//! [`GpluError`] is the whole public failure surface of the pipeline:
//! `factorize` either returns a verified factorization or one of these —
//! never a panic. The structured variants ([`GpluError::DeviceOom`],
//! [`GpluError::SingularPivot`], [`GpluError::RecoveryExhausted`]) tell
//! callers *why* recovery stopped, not just that it did.

use crate::recovery::Phase;
use gplu_numeric::NumericError;
use gplu_sim::SimError;
use gplu_sparse::SparseError;
use std::fmt;

/// Errors from the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum GpluError {
    /// A matrix-side failure (singular, malformed, zero pivot, …).
    Sparse(SparseError),
    /// A device-side failure (out of memory, bad launch, …).
    Sim(SimError),
    /// The input violates a pipeline precondition.
    Input(String),
    /// Device memory was exhausted in `phase` and no further backoff or
    /// degradation was available.
    DeviceOom {
        /// Phase that ran out of memory.
        phase: Phase,
        /// How many engine/format attempts were made before giving up.
        attempts: usize,
    },
    /// A zero or non-finite pivot that the pipeline did not (or could
    /// not) repair.
    SingularPivot {
        /// Column whose pivot broke.
        col: usize,
        /// Level-schedule group executing at the time (`usize::MAX`
        /// outside a level schedule, e.g. in a triangular solve).
        level: usize,
    },
    /// The factorization could not pass the residual acceptance gate (or
    /// kept producing singular pivots) after every rung of the pivoting
    /// escalation ladder. This is the "no wrong answers" rejection: the
    /// factors were computed but failed verification, and the pipeline
    /// refuses to return them.
    NumericallySingular {
        /// Best relative residual achieved across the ladder
        /// (`f64::INFINITY` when every attempt died before the gate).
        residual: f64,
        /// The gate threshold the residual had to clear.
        threshold: f64,
        /// Number of ladder rungs attempted.
        attempts: usize,
    },
    /// A warm refactorization's new values no longer satisfy the
    /// threshold-pivoting row order captured in its plan. Replaying the
    /// plan would apply a stale pivot sequence, so the caller must run a
    /// cold factorization (and may rebuild the plan from it).
    StalePivotOrder {
        /// First column whose threshold winner differs from the plan's.
        col: usize,
        /// The threshold the captured order no longer clears.
        tau: f64,
    },
    /// Every rung of the recovery ladder for `phase` failed; `last` is
    /// the final rung's error.
    RecoveryExhausted {
        /// Phase whose ladder was exhausted.
        phase: Phase,
        /// Total attempts across the ladder.
        attempts: usize,
        /// Stringified error from the last attempt.
        last: String,
    },
    /// The process was killed at an injected crash point (fault plan
    /// `crash:at=N`). Terminal by design: no ladder degrades around it —
    /// a later run resumes from the last durable checkpoint.
    Crashed {
        /// Crash-point ordinal (1-based) the kill fired on.
        ordinal: u64,
    },
    /// A checkpoint snapshot failed its checksum or structural
    /// validation and no older valid snapshot was available.
    CheckpointCorrupt(String),
    /// A `--resume` snapshot was written for a different matrix than the
    /// one being factorized.
    CheckpointMismatch(String),
    /// Checkpoint configuration or I/O failure (bad flag combination,
    /// unwritable directory, failed write), and every other host abort
    /// ([`SimError::Aborted`]).
    Checkpoint(String),
    /// The solver service's bounded admission queue is full — the typed
    /// backpressure signal: resubmit later or shed load upstream.
    QueueFull {
        /// Jobs queued when admission was refused.
        depth: usize,
        /// The queue's configured capacity.
        cap: usize,
    },
    /// A queued job's deadline passed before a worker could start it; the
    /// job was dropped without running.
    DeadlineExceeded {
        /// How long the job waited, in wall-clock nanoseconds.
        waited_ns: u64,
        /// The deadline it missed, in wall-clock nanoseconds.
        deadline_ns: u64,
    },
    /// The job was cancelled by its submitter before a worker started it.
    Cancelled,
    /// The service shed this job at admission: it is running degraded
    /// (e.g. the persistent cache tier is down) and under queue pressure,
    /// and the job's tenant is not on the protected list. Distinct from
    /// [`GpluError::QueueFull`] so clients can tell "retry soon" from
    /// "reduce load until the degradation clears".
    LoadShed {
        /// Tenant whose job was shed.
        tenant: String,
        /// Queue depth at the shed decision.
        depth: usize,
    },
    /// The solver service has quarantined this job's sparsity pattern:
    /// earlier jobs on the same pattern kept failing numeric acceptance,
    /// so the service fast-rejects it without burning GPU time. Submit
    /// with stronger pivoting options or a repaired matrix to retry.
    Quarantined {
        /// Structure-only fingerprint of the quarantined pattern.
        pattern_fp: u64,
        /// Numeric rejections recorded against the pattern.
        strikes: u32,
    },
}

impl fmt::Display for GpluError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpluError::Sparse(e) => write!(f, "sparse error: {e}"),
            GpluError::Sim(e) => write!(f, "simulator error: {e}"),
            GpluError::Input(msg) => write!(f, "invalid input: {msg}"),
            GpluError::DeviceOom { phase, attempts } => write!(
                f,
                "device out of memory in {phase} phase after {attempts} attempt(s)"
            ),
            GpluError::SingularPivot { col, level } if *level == usize::MAX => {
                write!(f, "singular pivot in column {col}")
            }
            GpluError::SingularPivot { col, level } => {
                write!(f, "singular pivot in column {col} (level {level})")
            }
            GpluError::NumericallySingular {
                residual,
                threshold,
                attempts,
            } => write!(
                f,
                "numerically singular: residual {residual:.3e} failed the {threshold:.1e} \
                 acceptance gate after {attempts} pivoting attempt(s)"
            ),
            GpluError::StalePivotOrder { col, tau } => write!(
                f,
                "stale pivot order: column {col} no longer clears the plan's \
                 pivot threshold (tau={tau}) — run a cold factorization"
            ),
            GpluError::RecoveryExhausted {
                phase,
                attempts,
                last,
            } => write!(
                f,
                "recovery exhausted in {phase} phase after {attempts} attempt(s): {last}"
            ),
            GpluError::Crashed { ordinal } => {
                write!(f, "process killed at injected crash point #{ordinal}")
            }
            GpluError::CheckpointCorrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
            GpluError::CheckpointMismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            GpluError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            GpluError::QueueFull { depth, cap } => {
                write!(
                    f,
                    "service queue full ({depth} of {cap} slots) — backpressure"
                )
            }
            GpluError::DeadlineExceeded {
                waited_ns,
                deadline_ns,
            } => write!(
                f,
                "deadline exceeded: waited {waited_ns} ns against a {deadline_ns} ns deadline"
            ),
            GpluError::Cancelled => write!(f, "job cancelled before execution"),
            GpluError::LoadShed { tenant, depth } => write!(
                f,
                "load shed: tenant `{tenant}` job dropped at queue depth {depth} \
                 while the service is degraded"
            ),
            GpluError::Quarantined {
                pattern_fp,
                strikes,
            } => write!(
                f,
                "pattern {pattern_fp:#018x} is quarantined after {strikes} numeric rejection(s)"
            ),
        }
    }
}

impl std::error::Error for GpluError {}

impl GpluError {
    /// Maps a threshold-pivot discovery failure onto the pipeline surface:
    /// a column with no usable pivot is a [`GpluError::SingularPivot`]
    /// outside any level schedule, which the escalation ladder keys on.
    pub(crate) fn from_pivot_discovery(e: SparseError) -> Self {
        match e {
            SparseError::ZeroPivot { col } => GpluError::SingularPivot {
                col,
                level: usize::MAX,
            },
            other => GpluError::Sparse(other),
        }
    }
}

impl From<SparseError> for GpluError {
    fn from(e: SparseError) -> Self {
        GpluError::Sparse(e)
    }
}

impl From<SimError> for GpluError {
    fn from(e: SimError) -> Self {
        match e {
            // An injected kill keeps its identity across every layer so
            // callers (and the chaos suite) can distinguish "the process
            // died as scheduled" from a genuine device failure.
            SimError::Crashed { ordinal } => GpluError::Crashed { ordinal },
            // The host stopped the run; a failed snapshot write is the
            // reason one reaches a caller.
            SimError::Aborted(msg) => GpluError::Checkpoint(msg),
            other => GpluError::Sim(other),
        }
    }
}

impl From<NumericError> for GpluError {
    fn from(e: NumericError) -> Self {
        match e {
            NumericError::Sim(s) => GpluError::from(s),
            NumericError::SingularPivot { col, level } => GpluError::SingularPivot { col, level },
            NumericError::Input(msg) => GpluError::Input(msg),
        }
    }
}

impl From<gplu_checkpoint::CheckpointError> for GpluError {
    fn from(e: gplu_checkpoint::CheckpointError) -> Self {
        match e {
            gplu_checkpoint::CheckpointError::Corrupt(msg) => GpluError::CheckpointCorrupt(msg),
            gplu_checkpoint::CheckpointError::Io(msg) => GpluError::Checkpoint(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: GpluError = SparseError::ZeroPivot { col: 2 }.into();
        assert!(e.to_string().contains("column 2"));
        let e: GpluError = SimError::BadLaunch("grid of 7".into()).into();
        assert!(e.to_string().contains("7"));
        let e = GpluError::Input("empty matrix".into());
        assert!(e.to_string().contains("empty matrix"));
    }

    #[test]
    fn numeric_errors_map_onto_the_unified_surface() {
        let e: GpluError = NumericError::SingularPivot { col: 4, level: 1 }.into();
        assert_eq!(e, GpluError::SingularPivot { col: 4, level: 1 });
        let e: GpluError = NumericError::Sim(SimError::BadLaunch("grid".into())).into();
        assert!(matches!(e, GpluError::Sim(_)));
        let e: GpluError = NumericError::Input("bad rhs".into()).into();
        assert!(matches!(e, GpluError::Input(_)));
        let e: GpluError = NumericError::Sim(SimError::Aborted("write".into())).into();
        assert_eq!(e, GpluError::Checkpoint("write".into()));
    }

    #[test]
    fn structured_variants_display_their_context() {
        let e = GpluError::DeviceOom {
            phase: Phase::Symbolic,
            attempts: 2,
        };
        assert!(e.to_string().contains("symbolic"));
        assert!(e.to_string().contains("2 attempt"));
        let e = GpluError::RecoveryExhausted {
            phase: Phase::Numeric,
            attempts: 3,
            last: "out of device memory".into(),
        };
        assert!(e.to_string().contains("numeric"));
        assert!(e.to_string().contains("out of device memory"));
        let e = GpluError::SingularPivot {
            col: 9,
            level: usize::MAX,
        };
        assert!(!e.to_string().contains("level"));
        let e = GpluError::NumericallySingular {
            residual: 0.37,
            threshold: 1e-6,
            attempts: 4,
        };
        assert!(e.to_string().contains("3.700e-1"));
        assert!(e.to_string().contains("1.0e-6"));
        assert!(e.to_string().contains("4 pivoting attempt"));
        let e = GpluError::StalePivotOrder { col: 12, tau: 0.1 };
        assert!(e.to_string().contains("column 12"));
        assert!(e.to_string().contains("tau=0.1"));
        assert!(e.to_string().contains("cold factorization"));
    }

    #[test]
    fn service_variants_display_their_context() {
        let e = GpluError::QueueFull { depth: 64, cap: 64 };
        assert!(e.to_string().contains("64 of 64"));
        assert!(e.to_string().contains("backpressure"));
        let e = GpluError::DeadlineExceeded {
            waited_ns: 5_000,
            deadline_ns: 1_000,
        };
        assert!(e.to_string().contains("5000 ns"));
        assert!(e.to_string().contains("1000 ns deadline"));
        assert!(GpluError::Cancelled.to_string().contains("cancelled"));
        let e = GpluError::Quarantined {
            pattern_fp: 0xabcd,
            strikes: 3,
        };
        assert!(e.to_string().contains("0x000000000000abcd"));
        assert!(e.to_string().contains("3 numeric rejection"));
        // The service variants must stay comparable for test assertions.
        assert_eq!(GpluError::Cancelled, GpluError::Cancelled);
        assert_ne!(
            GpluError::QueueFull { depth: 1, cap: 2 },
            GpluError::QueueFull { depth: 2, cap: 2 }
        );
    }
}
