//! The versioned, self-describing snapshot container.
//!
//! On-disk layout (all little-endian):
//!
//! ```text
//! magic   8 B   "GPLUCKPT"
//! version 4 B   format version (currently 1)
//! count   4 B   number of sections
//! then per section:
//!   id        4 B   section identifier (see [`section`])
//!   len       8 B   payload length in bytes
//!   checksum  8 B   XXH64(payload, seed = id)
//!   payload   len B
//! ```
//!
//! Every payload carries its own checksum, seeded with the section id so
//! a payload cannot masquerade as a different section. Parsing is fully
//! bounds-checked: truncation, bad magic, an unknown version or any
//! checksum mismatch yields [`CheckpointError::Corrupt`] — never a panic,
//! never silently wrong data.

use crate::hash::xxh64;
use std::fmt;

/// Snapshot file magic.
pub const MAGIC: [u8; 8] = *b"GPLUCKPT";

/// Current snapshot format version.
pub const FORMAT_VERSION: u32 = 1;

/// Section identifiers of the pipeline checkpoint schema. A snapshot
/// carries the sections appropriate to how far the run had progressed;
/// later-phase snapshots include all earlier-phase sections so any single
/// snapshot is sufficient to resume.
pub mod section {
    /// Run metadata: phase watermark, sequence number, simulated clock.
    pub const META: u32 = 1;
    /// Input-matrix fingerprint (dimensions + structure/value hashes).
    pub const FINGERPRINT: u32 = 2;
    /// Pre-processing output: permuted matrix, permutations, repairs.
    pub const PREPROCESS: u32 = 3;
    /// Partial symbolic progress: stage-1 chunk watermark, fill counts,
    /// row split, overflow set, backoff state. (Id 4 was this section's
    /// per-engine payload and is retired, so a snapshot cut with it fails
    /// as "lacks required section" instead of being mis-decoded.)
    pub const SYMBOLIC_PARTIAL: u32 = 11;
    /// Completed symbolic output: filled CSR pattern + metrics.
    pub const SYMBOLIC: u32 = 5;
    /// Levelization output.
    pub const LEVELS: u32 = 6;
    /// Numeric progress: completed-level watermark + working values.
    pub const NUMERIC: u32 = 7;
    /// Serialized recovery log (corrective actions survive restarts).
    pub const RECOVERY: u32 = 8;
    /// Persisted refactorization-plan metadata: plan schema version,
    /// pattern fingerprint, format tag.
    pub const PLAN_META: u32 = 9;
    /// Persisted refactorization-plan body: permutations, patterns,
    /// schedule, scatter maps, policies.
    pub const PLAN_BODY: u32 = 10;
}

/// Errors from snapshot encoding/decoding and the checkpoint store.
#[derive(Debug)]
pub enum CheckpointError {
    /// The snapshot bytes are corrupt: bad magic, unknown version,
    /// truncation, checksum mismatch or a malformed payload.
    Corrupt(String),
    /// A filesystem operation failed.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// A snapshot: an ordered set of identified, checksummed sections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    sections: Vec<(u32, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Adds a section. Replaces any existing section with the same id, so
    /// builders can assemble snapshots incrementally.
    pub fn add_section(&mut self, id: u32, payload: Vec<u8>) {
        if let Some(slot) = self.sections.iter_mut().find(|(i, _)| *i == id) {
            slot.1 = payload;
        } else {
            self.sections.push((id, payload));
        }
    }

    /// Payload of the section with the given id.
    pub fn section(&self, id: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, p)| p.as_slice())
    }

    /// Ids of all sections present, in insertion order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.sections.iter().map(|(i, _)| *i).collect()
    }

    /// Serializes the snapshot.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            16 + self
                .sections
                .iter()
                .map(|(_, p)| 20 + p.len())
                .sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (id, payload) in &self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&xxh64(payload, u64::from(*id)).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses and verifies a snapshot.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CheckpointError> {
        let corrupt = |msg: String| Err(CheckpointError::Corrupt(msg));
        if data.len() < 16 {
            return corrupt(format!("file too short ({} B)", data.len()));
        }
        if data[..8] != MAGIC {
            return corrupt("bad magic (not a gplu checkpoint)".into());
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return corrupt(format!(
                "unsupported format version {version} (expected {FORMAT_VERSION})"
            ));
        }
        let count = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes")) as usize;
        let mut sections = Vec::new();
        let mut pos = 16usize;
        for k in 0..count {
            if data.len() - pos < 20 {
                return corrupt(format!("truncated at section {k} header"));
            }
            let id = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
            let len = u64::from_le_bytes(data[pos + 4..pos + 12].try_into().expect("8 bytes"));
            let sum = u64::from_le_bytes(data[pos + 12..pos + 20].try_into().expect("8 bytes"));
            pos += 20;
            if len > (data.len() - pos) as u64 {
                return corrupt(format!("truncated in section {id} payload"));
            }
            let payload = &data[pos..pos + len as usize];
            pos += len as usize;
            let actual = xxh64(payload, u64::from(id));
            if actual != sum {
                return corrupt(format!(
                    "checksum mismatch in section {id}: stored {sum:016x}, computed {actual:016x}"
                ));
            }
            sections.push((id, payload.to_vec()));
        }
        if pos != data.len() {
            return corrupt(format!(
                "{} trailing bytes after last section",
                data.len() - pos
            ));
        }
        Ok(Snapshot { sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.add_section(section::META, vec![1, 2, 3]);
        s.add_section(section::FINGERPRINT, vec![]);
        s.add_section(section::NUMERIC, (0u8..200).collect());
        s
    }

    #[test]
    fn round_trips() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("valid");
        assert_eq!(back, s);
        assert_eq!(back.section(section::META), Some(&[1u8, 2, 3][..]));
        assert_eq!(back.section(section::FINGERPRINT), Some(&[][..]));
        assert_eq!(back.section(99), None);
    }

    #[test]
    fn add_section_replaces_by_id() {
        let mut s = Snapshot::new();
        s.add_section(section::META, vec![1]);
        s.add_section(section::META, vec![2]);
        assert_eq!(s.section_ids(), vec![section::META]);
        assert_eq!(s.section(section::META), Some(&[2u8][..]));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            match Snapshot::from_bytes(&bad) {
                Err(CheckpointError::Corrupt(_)) => {}
                Ok(parsed) => {
                    // A flip inside a length/count field can only be
                    // accepted if it still parses to the same content —
                    // anything else must have been caught.
                    assert_eq!(parsed, sample(), "byte {i}: flip silently changed content");
                }
                Err(other) => panic!("byte {i}: unexpected error kind {other}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes[..cut]),
                    Err(CheckpointError::Corrupt(_))
                ),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(Snapshot::from_bytes(&bytes).is_err());

        let mut bytes = sample().to_bytes();
        bytes[8] = 0xFF; // version
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn payload_cannot_masquerade_as_another_section() {
        // Same payload bytes under two ids hash differently (id-seeded).
        let mut a = Snapshot::new();
        a.add_section(section::META, vec![9; 32]);
        let mut b = Snapshot::new();
        b.add_section(section::LEVELS, vec![9; 32]);
        let ba = a.to_bytes();
        let bb = b.to_bytes();
        // Swap the id field of `a` to LEVELS without fixing the checksum.
        let mut forged = ba.clone();
        forged[16..20].copy_from_slice(&bb[16..20]);
        assert!(Snapshot::from_bytes(&forged).is_err());
    }
}
