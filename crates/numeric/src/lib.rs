//! # gplu-numeric
//!
//! Numeric LU factorization on the (simulated) GPU — the phase where the
//! paper's third contribution lives: removing the dense-format memory
//! limit by switching to sorted CSC with binary-search access
//! (Section 3.4, Algorithm 6).
//!
//! ## Algorithm
//!
//! The factorization consumes the filled pattern `As` from the symbolic
//! phase and the level schedule from levelization. Columns within a level
//! are factorized concurrently, one thread block per column. The paper's
//! hybrid column-based right-looking updates (Algorithm 2) are applied
//! here **re-associated per target column** (a left-looking gather): when
//! column `j` is processed, it pulls every update
//! `As(i,j) -= As(i,t) · As(t,j)` from its already-final dependency
//! columns `t` (ascending), then divides its sub-diagonal by the pivot.
//! This computes bit-for-bit the same factors with the same dependency
//! structure and the same flop count — and it preserves exactly the
//! contrast the paper studies:
//!
//! * **dense format** ([`dense`]): each active column scatters into an
//!   `O(n)` dense buffer, so row accesses are direct — but only
//!   `M = L_free / (n·sizeof)` buffers fit on the device, capping
//!   concurrency below `TB_max` for huge matrices (Table 4),
//! * **sparse format** ([`sparse`]): no buffers; every row access is the
//!   binary search of Algorithm 6 (our [`gplu_sparse::Csc::find_in_col`])
//!   priced at its `log(col_nnz)` probe cost, but all `TB_max` blocks run,
//! * **merge format** ([`merge`]): sorted CSC like [`sparse`], but update
//!   targets are located by a two-pointer merge-join of the (sorted)
//!   source segment and destination column — `O(nnz)` total instead of
//!   `O(nnz · log nnz)`, with no probe surcharge,
//! * **blocked format** ([`blocked`]): sorted CSC with merge-join access,
//!   plus a post-symbolic blocking pass that groups adjacent columns with
//!   near-identical filled patterns into irregular supernode blocks whose
//!   updates are priced as tiled BLAS-3 traffic.
//!
//! What distinguishes the formats is where an update target is *located*
//! and what must stay resident on the device — never the arithmetic. So
//! there is one arithmetic: the kernel core [`outcome::process_column`]
//! eliminates every column, for every engine, in a pooled `O(n)`
//! accumulator ([`scratch`]) by direct row indexing, and is failure-atomic
//! (an `Err` leaves the value store untouched). Its
//! [`outcome::AccessDiscipline`] parameter is a price list: it selects
//! which location counter — binary-search `probes`, merge-cursor
//! `merge_steps`, or none — the core reports, in closed form from
//! positions alone. Per-factorization pivot/segment positions and
//! supernode chain ends are precomputed once in an
//! [`outcome::PivotCache`]; the core applies each run of chained
//! dependency columns as one column sweep over a contiguous buffer (same
//! order, same bits).
//!
//! An engine is likewise a price list: an [`engine::NumericEngine`] states
//! its kernel name, the discipline it prices, what one block's share of a
//! column costs the simulator, and the few hooks one format needs (the
//! dense engine's `M`-capped batched launches, the forced-mode ablation,
//! the blocked engine's tile count). [`engine::run_levels`] owns
//! everything else, once: device staging, level classification, the one
//! kernel body every level runs, the one counter set, the launch rule
//! (host launch or in-kernel dependency wait), sharding across a fleet,
//! device loss under the fleet's one rule ([`gplu_sim::DeviceFleet::lose`]:
//! a failing device is shed only while another live device can take its
//! work, whose survivors pay for its share again, but no column's core
//! ever runs twice; the last live device's failure goes to the caller's
//! format ladder) — trace spans, resume cuts and checkpoint hooks. The
//! sequential reference ([`seq`]) is the host-side instantiation of the
//! same kernel core, which is why all five agree bit-for-bit.
//!
//! GLU 3.0's three level types (Section 2.2) are classified in [`modes`]
//! and map to block/thread shapes per level.
//!
//! A factorization's values are held in a write-once column store
//! ([`values::ColumnStore`]) over one `Vec<f64>`: concurrent blocks each
//! publish their own column once and read finished ones as plain slices —
//! the level barrier provides the happens-before. The triangular solve
//! keeps an atomic-f64 store ([`values::ValueStore`]).

pub mod blocked;
pub mod dense;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod merge;
pub mod modes;
pub mod outcome;
pub mod pivoting;
pub mod resume;
pub mod scratch;
pub mod seq;
pub mod sparse;
pub mod trisolve;
pub mod values;

pub use blocked::{
    factorize_gpu_blocked, factorize_gpu_blocked_run_cached, BlockPlan, BlockedEngine,
    DEFAULT_BLOCK_THRESHOLD, TILE_WIDTH,
};
pub use dense::{factorize_gpu_dense, factorize_gpu_dense_run_cached, DenseEngine};
pub use engine::{run_levels, ColumnKernel, EngineCounters, LevelRun, NumericEngine, HOST_REASONS};
pub use error::NumericError;
pub use fleet::{
    factorize_fleet_blocked, factorize_fleet_dense, factorize_fleet_merge, FleetNumericOutcome,
};
pub use merge::{factorize_gpu_merge, factorize_gpu_merge_run_cached, MergeEngine};
pub use modes::{classify_level, classify_level_cached, classify_schedule, LevelType, ModeMix};
pub use outcome::{AccessDiscipline, NumericOutcome, PivotCache, PivotRule};
pub use pivoting::{
    discover_pivots, discover_pivots_swept, PivotDiscovery, PivotPolicy, SweptFactors,
    DEFAULT_PIVOT_TAU,
};
pub use resume::{LevelHook, LevelProgress, NumericResume};
pub use scratch::ColumnScratch;
pub use seq::{factorize_seq, factorize_seq_rule};
pub use sparse::{factorize_gpu_sparse, factorize_gpu_sparse_forced, SparseEngine};
pub use trisolve::{
    solve_gpu, solve_gpu_batch, solve_gpu_batch_traced, solve_gpu_traced, BatchSolveOutcome,
    TriSolveOutcome, TriSolvePlan,
};
