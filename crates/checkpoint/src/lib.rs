//! # gplu-checkpoint
//!
//! Crash-consistent persistence for long factorizations and for the
//! plans that let a pattern's analysis be reused.
//!
//! The paper's whole premise is runs whose intermediates exceed device
//! memory — long, chunked, and restartable *in spirit* (Algorithm 3
//! already streams source rows in resumable chunks). This crate makes
//! them restartable *in practice*, and gives the solver service a disk
//! tier for its refactorization plans. It has three parts:
//!
//! * **The container** ([`Snapshot`]): a versioned, self-describing
//!   binary format — magic, format version, and per-section XXH64
//!   checksums seeded with the section id.
//! * **One description per section** ([`codec`]): a section is one
//!   function generic over [`Codec`] that visits its fields in byte
//!   order. [`Enc`] writes each field it is handed and [`Dec`] reads
//!   into it, so the field order — the byte order — is stated once for
//!   both directions. Enums map to their one-byte tags through one table
//!   each ([`Codec::tag`]). Every length and index is validated where it
//!   is read, and the sparse structures re-check their invariants.
//! * **One durable store** ([`Store`]): snapshot files keyed by a
//!   sequence number ([`CheckpointStore`], read latest-valid-wins) or by
//!   a pattern fingerprint ([`PlanStore`], read per key), written through
//!   tmp file + fsync + atomic rename. The directory is the only index:
//!   each file verifies itself. A [`DiskFaultHook`] may fail any of its
//!   operations on a seeded schedule.
//!
//! The crate is deliberately policy-free: *what* goes into each section
//! and *when* snapshots are cut is decided by the pipeline in
//! `gplu-core`, which owns the phase structure.
//!
//! Corruption of any kind — truncation, bit flips, a forged section id —
//! is detected and surfaced as [`CheckpointError::Corrupt`]; a resume
//! then falls back to the next older snapshot, and only when *no*
//! candidate verifies does it fail. A
//! checkpointed run can therefore never be resumed from torn state: it
//! either continues from a verified prefix of its own history or reports
//! corruption explicitly.

pub mod codec;
pub mod hash;
pub mod snapshot;
pub mod store;

pub use codec::{decode, encode, tag_of, Codec, Dec, Enc, Field};
pub use hash::xxh64;
pub use snapshot::{section, CheckpointError, Snapshot, FORMAT_VERSION, MAGIC};
pub use store::{CheckpointStore, DiskFaultHook, Fingerprint, KeyKind, PlanStore, Seq, Store};
