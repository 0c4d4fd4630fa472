//! Chunk-granular resume support for the out-of-core symbolic driver.
//!
//! Stage 1 of the two-stage procedure is a loop of independent per-row
//! traversals grouped into chunks; each chunk boundary is a natural
//! durability point because the counting state (`fill_count`, aggregate
//! traversal counters, the overflow set) after `k` chunks is a pure
//! function of the matrix and the row split — the traversal of one row
//! never reads another row's results. A checkpoint cut there and replayed
//! with [`SymbolicResume`] therefore reproduces the identical fill
//! pattern; stage 2 (position storing) is recomputed from the counts and
//! needs no partial state of its own.
//!
//! There is one driver ([`crate::dynamic`]) behind both out-of-core
//! engines, so there is one resume state: Algorithm 3 and Algorithm 4
//! differ only in the [`DynamicSplit`] it carries. The driver accepts an
//! optional [`SymbolicResume`] plus an optional [`ChunkHook`] invoked
//! after every completed stage-1 chunk. The hook is where the pipeline
//! cuts snapshots; it returns a [`SimError`] to abort the run — in
//! particular the injected [`SimError::Crashed`] of a `crash:at=N` fault
//! plan.

use crate::dynamic::DynamicSplit;
use gplu_sim::SimError;

/// State to restart a stage-1 counting loop from a completed chunk.
#[derive(Debug, Clone, Default)]
pub struct SymbolicResume {
    /// Source rows `0..rows_done` have final counts in [`Self::fill_counts`].
    pub rows_done: usize,
    /// Stage-1 chunks already executed (for iteration accounting).
    pub iters_done: usize,
    /// Effective stage-1 chunk size in force at the cut, after any OOM
    /// backoff. Report fidelity only: a resumed run sizes its chunks from
    /// [`Self::split`] and backs off again if it must.
    pub chunk: usize,
    /// OOM backoff halvings already taken.
    pub oom_backoffs: usize,
    /// Per-row filled-nonzero counts (length `n`; rows past the watermark
    /// are zero).
    pub fill_counts: Vec<u32>,
    /// Aggregate traversal steps over the completed rows.
    pub agg_steps: u64,
    /// Aggregate scanned edges over the completed rows.
    pub agg_edges: u64,
    /// Aggregate frontier inserts over the completed rows.
    pub agg_frontiers: u64,
    /// The row split the run works under. The watermark and the overflow
    /// set are relative to it, so a resumed run replays it instead of
    /// planning afresh.
    pub split: DynamicSplit,
    /// Part-1 rows whose shrunken queues overflowed in completed chunks;
    /// they are re-run after the counting stage.
    pub overflow_rows: Vec<u32>,
}

/// Progress handed to the [`ChunkHook`] after each completed stage-1
/// chunk. Carries owned snapshots so the hook can persist it directly;
/// [`ChunkProgress::to_resume`] converts it into the matching restart
/// state.
#[derive(Debug, Clone)]
pub struct ChunkProgress {
    /// Rows with final counts so far.
    pub rows_done: usize,
    /// Matrix dimension.
    pub n_rows: usize,
    /// Stage-1 chunks executed so far.
    pub iters_done: usize,
    /// Effective chunk size in force.
    pub chunk: usize,
    /// OOM backoffs so far.
    pub oom_backoffs: usize,
    /// Snapshot of the per-row fill counts (length `n`).
    pub fill_counts: Vec<u32>,
    /// Aggregate traversal steps so far.
    pub agg_steps: u64,
    /// Aggregate scanned edges so far.
    pub agg_edges: u64,
    /// Aggregate frontier inserts so far.
    pub agg_frontiers: u64,
    /// The row split in force.
    pub split: DynamicSplit,
    /// Overflowed part-1 rows so far.
    pub overflow_rows: Vec<u32>,
}

/// Per-chunk callback. Returning an error stops the phase with it; a
/// terminal one ([`SimError::is_terminal`]) is what a hook returns.
pub type ChunkHook<'h> = dyn FnMut(&ChunkProgress) -> Result<(), SimError> + 'h;

impl ChunkProgress {
    /// Converts the progress snapshot into the restart state that
    /// reproduces it.
    pub fn to_resume(&self) -> SymbolicResume {
        SymbolicResume {
            rows_done: self.rows_done,
            iters_done: self.iters_done,
            chunk: self.chunk,
            oom_backoffs: self.oom_backoffs,
            fill_counts: self.fill_counts.clone(),
            agg_steps: self.agg_steps,
            agg_edges: self.agg_edges,
            agg_frontiers: self.agg_frontiers,
            split: self.split,
            overflow_rows: self.overflow_rows.clone(),
        }
    }
}

impl SymbolicResume {
    /// Validates the restart state against an `n × n` matrix.
    pub fn check(&self, n: usize) -> Result<(), String> {
        if self.fill_counts.len() != n {
            return Err(format!(
                "resume state counts {} rows, matrix has {n}",
                self.fill_counts.len()
            ));
        }
        if self.rows_done > n {
            return Err(format!(
                "resume watermark {} exceeds matrix dimension {n}",
                self.rows_done
            ));
        }
        if self.split.n1 > n || (self.split.n1 > 0 && self.split.chunk1 == 0) {
            return Err(format!(
                "resume split {:?} does not fit a matrix of {n} rows",
                self.split
            ));
        }
        Ok(())
    }
}
