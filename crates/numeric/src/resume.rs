//! Level-granular resume support for the numeric engines.
//!
//! Columns within a level are independent and each is processed with a
//! fixed arithmetic order, so the level barrier is a natural durability
//! point: the value store after level `k` is a pure function of the
//! pattern and schedule, identical across engines and runs. A checkpoint
//! cut there and replayed with [`NumericResume`] therefore produces
//! **bit-identical** factors — the invariant the crash/resume chaos suite
//! asserts.
//!
//! All GPU engines accept an optional [`NumericResume`] (skip levels
//! below the watermark, seed the value store and counters) and an
//! optional [`LevelHook`] invoked after every completed level. The hook
//! is where the pipeline cuts snapshots; it returns a terminal
//! [`SimError`] to stop the run — the injected [`SimError::Crashed`] of a
//! `crash:at=N` fault plan, or [`SimError::Aborted`] when a write fails.

use crate::modes::ModeMix;
use crate::values::ColumnStore;
use gplu_sim::SimError;

/// State to restart a numeric engine from the end of a completed level.
#[derive(Debug, Clone, Default)]
pub struct NumericResume {
    /// First level index to execute (levels `0..start_level` are done).
    pub start_level: usize,
    /// Value-store contents after level `start_level - 1`, bit-exact.
    pub vals: Vec<f64>,
    /// Mode mix accumulated over the completed levels.
    pub mode_mix: ModeMix,
    /// Binary-search probes accumulated (sparse engine).
    pub probes: u64,
    /// Merge-cursor steps accumulated (merge engine).
    pub merge_steps: u64,
    /// M-capped batches accumulated (dense engine).
    pub batches: u64,
    /// BLAS-3 update tiles accumulated (blocked engine).
    pub gemm_tiles: u64,
}

/// Progress handed to the [`LevelHook`] after each completed level.
#[derive(Debug)]
pub struct LevelProgress<'a, 'v> {
    /// Index of the level that just completed.
    pub level: usize,
    /// Total number of levels in the schedule.
    pub n_levels: usize,
    /// The live value store (snapshot it to persist).
    pub vals: &'a ColumnStore<'v>,
    /// Mode mix so far.
    pub mode_mix: ModeMix,
    /// Probes so far (sparse engine; 0 elsewhere).
    pub probes: u64,
    /// Merge steps so far (merge engine; 0 elsewhere).
    pub merge_steps: u64,
    /// Batches so far (dense engine; 0 elsewhere).
    pub batches: u64,
    /// BLAS-3 tiles so far (blocked engine; 0 elsewhere).
    pub gemm_tiles: u64,
}

/// Per-level callback. Returning an error stops the factorization with
/// it; a terminal one ([`SimError::is_terminal`]) is what a hook returns.
pub type LevelHook<'h> = dyn FnMut(&LevelProgress<'_, '_>) -> Result<(), SimError> + 'h;

impl NumericResume {
    /// Validates the resume state against a pattern/schedule pair.
    pub fn check(&self, nnz: usize, n_levels: usize) -> Result<(), String> {
        if self.vals.len() != nnz {
            return Err(format!(
                "resume state has {} values, pattern has {nnz} nonzeros",
                self.vals.len()
            ));
        }
        if self.start_level > n_levels {
            return Err(format!(
                "resume watermark {} exceeds schedule of {n_levels} levels",
                self.start_level
            ));
        }
        Ok(())
    }
}
