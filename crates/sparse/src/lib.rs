//! # gplu-sparse
//!
//! Sparse-matrix substrate for the `gplu` workspace, the reproduction of
//! *"End-to-End LU Factorization of Large Matrices on GPUs"* (Xia et al.,
//! PPoPP 2023).
//!
//! The paper's pipeline consumes and produces sparse matrices in several
//! formats, and its evaluation runs on a specific set of SuiteSparse
//! matrices. This crate provides everything the rest of the workspace needs:
//!
//! * the three index formats the paper's algorithms use — [`Coo`] (assembly),
//!   [`Csr`] (row-wise symbolic factorization), sorted [`Csc`] (the
//!   binary-search numeric kernel of Algorithm 6) — plus a small [`Dense`]
//!   matrix used as a test oracle,
//! * lossless conversions between them ([`convert`]),
//! * Matrix Market I/O ([`io`]),
//! * synthetic generators reproducing the `n : nnz` shape of every matrix in
//!   the paper's Tables 2 and 4 ([`gen`]),
//! * row/column permutations ([`perm`]) and the pre-processing steps the
//!   paper delegates to prior work: fill-reducing orderings ([`ordering`])
//!   and static pivoting / diagonal repair ([`pivot`]),
//! * sparse triangular solves ([`triangular`]) and factorization residual
//!   checks ([`verify`]).
//!
//! Index type: matrix dimensions in this workspace stay below `u32::MAX`
//! even for the "huge" Table 4 analogs, so indices are [`Idx`] (`u32`) and
//! offset arrays are `usize`.

pub mod convert;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod gen;
pub mod io;
pub mod ordering;
pub mod perm;
pub mod pivot;
pub mod triangular;
pub mod verify;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::{Dense, DenseLu};
pub use error::SparseError;
pub use perm::Permutation;

/// Index type used for row/column ids throughout the workspace.
///
/// `u32` halves index-array memory traffic relative to `usize` (see the
/// workspace performance notes); all generated matrices keep `n < 2^32`.
pub type Idx = u32;

/// Value type for numeric computations.
///
/// The paper computes in `float`; we compute in `f64` so residual checks are
/// meaningful at every scale, while the *cost model* in `gplu-sim` charges
/// the paper's 4 bytes per value.
pub type Val = f64;
