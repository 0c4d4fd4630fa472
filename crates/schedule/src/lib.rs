//! # gplu-schedule
//!
//! The *scheduling* step between symbolic and numeric factorization: build
//! the column dependency graph of the filled matrix and group columns into
//! **levels** whose members can be factorized concurrently
//! (*levelization*, which the paper observes "is essentially a topological
//! sort" — Section 3.3).
//!
//! Dependencies (Section 2.2 + GLU 3.0's relaxed rule): column `j` depends
//! on column `t < j` iff the filled pattern has `As(t, j) ≠ 0` (the U
//! dependency the paper states) **or** `As(j, t) ≠ 0` (the second family
//! the paper defers to GLU 3.0 — the "double-U" orderings that make the
//! level schedule race-free together with atomic column updates). Both
//! families point from the smaller to the larger column id, so the
//! dependency DAG is the symmetrized filled pattern directed small → large.
//!
//! Two levelization engines:
//! * [`levelize_cpu`] — the serial CPU recurrence
//!   `level(k) = max(-1, level(c1), level(c2), …) + 1` every prior LU work
//!   used (the baseline),
//! * [`levelize_gpu`] — the paper's contribution: Kahn's algorithm run
//!   entirely on the GPU with *dynamic parallelism* (Algorithm 5): a
//!   parent `Topo` kernel opens one child kernel with the paper's
//!   dynamic-parallelism launch, paying device-launch (not host-launch)
//!   overhead. Beyond Algorithm 5 as written, each wavefront's `update`
//!   and `cons_queue` then run as phases of that child kernel behind
//!   in-kernel dependency waits instead of two child launches apiece.

pub mod cpu;
pub mod depgraph;
pub mod gpu;
pub mod levels;

pub use cpu::{levelize_cpu, CpuLevelizeOutcome};
pub use depgraph::DepGraph;
pub use gpu::{levelize_gpu, levelize_gpu_traced, GpuLevelizeOutcome};
pub use levels::Levels;
