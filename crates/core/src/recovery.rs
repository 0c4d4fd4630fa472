//! Recovery accounting for the self-healing pipeline.
//!
//! Every phase of [`crate::LuFactorization::compute`] is allowed to fail
//! transiently — device allocations can be denied, kernels can be
//! rejected, pivots can cancel to zero — and the pipeline responds by
//! backing off, degrading to a more conservative engine, or repairing the
//! matrix. None of that may happen silently: each action is recorded as a
//! [`RecoveryEvent`] in the [`RecoveryLog`] attached to
//! [`crate::PhaseReport`], so callers (and the chaos suite) can audit
//! exactly how a factorization survived.

use std::fmt;

/// The pipeline phase in which an event or failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Host-side pre-processing (ordering, diagonal repair).
    Preprocess,
    /// GPU symbolic factorization.
    Symbolic,
    /// GPU levelization.
    Levelize,
    /// GPU numeric factorization.
    Numeric,
    /// Triangular solve.
    Solve,
    /// Factor-cache tier management (disk-tier loads and rewarm).
    Cache,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Preprocess => "preprocess",
            Phase::Symbolic => "symbolic",
            Phase::Levelize => "levelize",
            Phase::Numeric => "numeric",
            Phase::Solve => "solve",
            Phase::Cache => "cache",
        };
        f.write_str(s)
    }
}

/// One corrective action the pipeline took to keep a factorization alive.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// An out-of-core engine hit device OOM and geometrically shrank its
    /// chunk until the allocation fit.
    ChunkBackoff {
        /// Number of halvings performed across the phase.
        backoffs: usize,
        /// The chunk size (source rows) that finally fit.
        final_chunk: usize,
    },
    /// The symbolic output could not stay device-resident and was
    /// streamed back to the host per batch instead.
    StreamedOutput,
    /// A symbolic engine failed outright and the pipeline fell back to a
    /// more conservative one.
    EngineDegraded {
        /// Engine that failed (debug-formatted `SymbolicEngine`).
        from: String,
        /// Engine that ran instead.
        to: String,
    },
    /// A numeric format failed outright and the pipeline fell back to a
    /// less memory-hungry one.
    FormatDegraded {
        /// Format that failed (debug-formatted `NumericFormat`).
        from: String,
        /// Format that ran instead.
        to: String,
    },
    /// A singular pivot was patched with the repair value and the numeric
    /// phase was retried (the paper's Table 4 treatment, applied late).
    PivotRepaired {
        /// Column whose pivot was repaired.
        col: usize,
        /// Value written onto the diagonal.
        value: f64,
        /// Magnitude of the perturbation: `|value - old_diagonal|` (the
        /// full `|value|` when the diagonal was structurally absent).
        magnitude: f64,
    },
    /// The residual gate (or a singular pivot) rejected an attempt and
    /// the pivoting policy was escalated to the next ladder rung.
    PivotEscalated {
        /// Policy that produced the rejected attempt.
        from: String,
        /// Policy the retry runs under.
        to: String,
    },
    /// Static pivot perturbation clamped small pivots at division time;
    /// the factors exactly factor the correspondingly bumped matrix.
    PivotPerturbed {
        /// Number of columns whose pivot was clamped.
        cols: usize,
        /// Largest clamp delta applied.
        max_delta: f64,
    },
    /// Threshold pivoting permuted rows and the predicted fill pattern
    /// was grown in place to cover the new row order.
    PatternExpanded {
        /// Structural entries inserted.
        added: usize,
        /// Deepest per-column repair cascade.
        rounds: usize,
    },
    /// In-place expansion blew its budget and the symbolic phase was
    /// re-run from scratch on the permuted matrix — the last rung before
    /// rejection.
    Resymbolic {
        /// Entries the abandoned in-place expansion had inserted.
        abandoned: usize,
    },
    /// A fleet device died mid-phase (injected OOM or launch fault) and
    /// its shard of the work was re-run on the surviving devices. The
    /// result is still bit-identical; only the makespan degrades.
    DeviceLost {
        /// Ordinal of the device that died.
        device: usize,
        /// Work units (rows or columns) resharded onto survivors.
        resharded: usize,
    },
    /// A persisted factor-cache entry failed its checksum, schema-version
    /// or fingerprint validation on load and was rejected; the job fell
    /// back to a cold factorization (never a wrong answer).
    DiskEntryRejected {
        /// Pattern fingerprint the rejected entry was stored under.
        key: u64,
        /// Why the entry was refused.
        reason: String,
    },
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::ChunkBackoff {
                backoffs,
                final_chunk,
            } => write!(f, "chunk backoff x{backoffs} to {final_chunk} rows"),
            RecoveryAction::StreamedOutput => f.write_str("streamed output to host"),
            RecoveryAction::EngineDegraded { from, to } => {
                write!(f, "engine degraded {from} -> {to}")
            }
            RecoveryAction::FormatDegraded { from, to } => {
                write!(f, "format degraded {from} -> {to}")
            }
            RecoveryAction::PivotRepaired {
                col,
                value,
                magnitude,
            } => {
                write!(
                    f,
                    "pivot repaired at column {col} (value {value}, perturbation {magnitude:.3e})"
                )
            }
            RecoveryAction::PivotEscalated { from, to } => {
                write!(f, "pivoting escalated {from} -> {to}")
            }
            RecoveryAction::PivotPerturbed { cols, max_delta } => {
                write!(
                    f,
                    "static perturbation clamped {cols} pivot(s) (max delta {max_delta:.3e})"
                )
            }
            RecoveryAction::PatternExpanded { added, rounds } => {
                write!(
                    f,
                    "pattern expanded in place: +{added} entries in {rounds} round(s)"
                )
            }
            RecoveryAction::Resymbolic { abandoned } => {
                write!(
                    f,
                    "full re-symbolic pass (in-place expansion abandoned after +{abandoned})"
                )
            }
            RecoveryAction::DeviceLost { device, resharded } => {
                write!(
                    f,
                    "device {device} lost; {resharded} work unit(s) resharded onto survivors"
                )
            }
            RecoveryAction::DiskEntryRejected { key, reason } => {
                write!(
                    f,
                    "disk cache entry {key:#018x} rejected ({reason}); cold fallback"
                )
            }
        }
    }
}

/// A recovery action tagged with the phase it rescued.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Phase in which the action was taken.
    pub phase: Phase,
    /// What was done.
    pub action: RecoveryAction,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.phase, self.action)
    }
}

/// Ordered record of every corrective action taken during one
/// factorization. Empty when nothing went wrong.
#[must_use = "a recovery log documents degraded results; inspect or attach it"]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    pub(crate) events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    /// Appends an event.
    pub fn record(&mut self, phase: Phase, action: RecoveryAction) {
        self.events.push(RecoveryEvent { phase, action });
    }

    /// All events, in the order they were taken.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// True when no recovery was needed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if any recorded event degraded an engine or format — the
    /// result is correct but was produced by a non-requested path.
    pub fn degraded(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.action,
                RecoveryAction::EngineDegraded { .. } | RecoveryAction::FormatDegraded { .. }
            )
        })
    }

    /// Number of diagonals patched by singular-pivot repair — each one a
    /// deliberate perturbation of the input whose magnitude is recorded
    /// on the event.
    pub fn repaired_pivots(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.action, RecoveryAction::PivotRepaired { .. }))
            .count()
    }

    /// One-line summary for logs and the CLI.
    pub fn summary(&self) -> String {
        if self.events.is_empty() {
            return "no recovery needed".into();
        }
        let parts: Vec<String> = self.events.iter().map(|e| e.to_string()).collect();
        parts.join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_in_order_and_summarizes() {
        let mut log = RecoveryLog::default();
        assert!(log.is_empty());
        assert_eq!(log.summary(), "no recovery needed");

        log.record(
            Phase::Symbolic,
            RecoveryAction::ChunkBackoff {
                backoffs: 3,
                final_chunk: 8,
            },
        );
        log.record(
            Phase::Numeric,
            RecoveryAction::FormatDegraded {
                from: "Dense".into(),
                to: "SparseMerge".into(),
            },
        );
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert!(log.degraded());
        assert_eq!(log.events()[0].phase, Phase::Symbolic);
        let s = log.summary();
        assert!(s.contains("chunk backoff x3"));
        assert!(s.contains("Dense -> SparseMerge"));
    }

    #[test]
    fn backoff_alone_is_not_degradation() {
        let mut log = RecoveryLog::default();
        log.record(
            Phase::Symbolic,
            RecoveryAction::ChunkBackoff {
                backoffs: 1,
                final_chunk: 64,
            },
        );
        log.record(Phase::Symbolic, RecoveryAction::StreamedOutput);
        assert!(!log.degraded());
    }

    #[test]
    fn robustness_actions_display_and_count() {
        let mut log = RecoveryLog::default();
        log.record(
            Phase::Numeric,
            RecoveryAction::PivotRepaired {
                col: 3,
                value: 1.0,
                magnitude: 1.0,
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
                cols: 2,
                max_delta: 1e-8,
            },
        );
        log.record(
            Phase::Symbolic,
            RecoveryAction::PatternExpanded {
                added: 40,
                rounds: 2,
            },
        );
        log.record(
            Phase::Symbolic,
            RecoveryAction::Resymbolic { abandoned: 900 },
        );
        assert_eq!(log.repaired_pivots(), 1);
        assert!(!log.degraded(), "robustness actions are not degradations");
        let s = log.summary();
        assert!(s.contains("perturbation 1.000e0"));
        assert!(s.contains("escalated none -> threshold(tau=0.1)"));
        assert!(s.contains("clamped 2 pivot(s)"));
        assert!(s.contains("+40 entries in 2 round(s)"));
        assert!(s.contains("re-symbolic"));
    }

    #[test]
    fn phases_display_lowercase() {
        assert_eq!(Phase::Symbolic.to_string(), "symbolic");
        assert_eq!(Phase::Numeric.to_string(), "numeric");
    }
}
