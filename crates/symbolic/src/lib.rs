//! # gplu-symbolic
//!
//! Symbolic LU factorization — the phase the paper moves onto the GPU
//! out-of-core (its first contribution, Section 3.2).
//!
//! Given the pre-processed matrix `A`, symbolic factorization computes the
//! nonzero *pattern* of the filled matrix `As = L + U` (original entries
//! plus *fill-ins*), which the numeric phase then populates. Fill-ins obey
//! Theorem 1 (Rose–Tarjan): `(i, j)` fills in iff a directed path `i → j`
//! exists in the graph of `A` whose intermediate vertices are all smaller
//! than both `i` and `j`.
//!
//! Implementations, all producing identical patterns (cross-checked by the
//! test suites):
//!
//! * [`fill2`] — the per-row frontier traversal of the paper's
//!   Algorithm 1, the kernel body shared by every GPU variant,
//! * `reference` — two independent oracles (direct Theorem-1 reachability
//!   and classical row-merge symbolic elimination) used only in tests,
//! * [`cpu`] — the "modified GLU 3.0" parallel CPU baseline of Figure 4,
//! * [`dynamic`] — the out-of-core two-stage GPU driver, and the
//!   dynamic-parallelism-assignment split rule (Algorithm 4) with the
//!   50 %-of-max-frontier split,
//! * [`ooc`] — Algorithm 3: the same driver under a split at row 0, plus
//!   the chunk arithmetic the out-of-core engines share,
//! * [`um`] — unified-memory GPU implementations with and without
//!   prefetching (the baselines of Figures 5/6 and Table 3),
//! * [`frontier`] — the frontier-size profiler behind Figure 3,
//! * [`multi`] — a multi-GPU scale-out of the out-of-core engine (the
//!   GSOFA-style distribution of the paper's related work).
//!
//! The result type [`SymbolicResult`] carries the filled pattern (with
//! values: `A`'s entries in place, explicit zeros at fill positions — what
//! Algorithm 2 consumes) plus traversal metrics.

pub mod cpu;
pub mod dynamic;
pub mod expand;
pub mod fill2;
pub mod frontier;
pub mod multi;
pub mod ooc;
pub mod reference;
pub mod result;
pub mod resume;
pub mod um;

pub use cpu::symbolic_cpu;
pub use dynamic::{
    symbolic_ooc_dynamic, symbolic_ooc_dynamic_run, symbolic_ooc_dynamic_traced, DynamicSplit,
};
pub use expand::{expand_fill, ExpandOutcome};
pub use fill2::{fill2_row, Fill2Workspace, RowMetrics};
pub use multi::{symbolic_fleet, FleetSymbolicOutcome, Partition};
pub use ooc::{symbolic_ooc, symbolic_ooc_run, symbolic_ooc_traced, OocOutcome};
pub use result::SymbolicResult;
pub use resume::{ChunkHook, ChunkProgress, SymbolicResume};
pub use um::{symbolic_um, symbolic_um_traced, UmMode, UmOutcome};
