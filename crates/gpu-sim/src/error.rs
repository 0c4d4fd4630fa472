//! Simulator error type.

use std::fmt;

/// Errors raised by the GPU simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A device allocation did not fit. This is the signal that drives
    /// out-of-core execution: callers catch it (or pre-check with
    /// [`crate::DeviceMemory::free_bytes`]) and fall back to chunking.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
        /// Total device capacity.
        capacity: u64,
    },
    /// An access fell outside its allocation.
    AccessOutOfBounds {
        /// Handle of the allocation.
        handle: u64,
        /// Offending byte offset.
        offset: u64,
        /// Allocation length in bytes.
        len: u64,
    },
    /// Kernel grid configuration violates device limits.
    BadLaunch(String),
    /// The process was killed at an injected crash point (fault plan
    /// `crash:at=N`). Unlike every other fault this one is terminal:
    /// recovery ladders must not degrade around it — the pipeline dies
    /// and a later run resumes from the last durable checkpoint.
    Crashed {
        /// Crash-point ordinal (1-based) the kill fired on.
        ordinal: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory {
                requested,
                free,
                capacity,
            } => write!(
                f,
                "device out of memory: requested {requested} B, free {free} B of {capacity} B"
            ),
            SimError::AccessOutOfBounds {
                handle,
                offset,
                len,
            } => {
                write!(
                    f,
                    "access at offset {offset} outside allocation {handle} of {len} B"
                )
            }
            SimError::BadLaunch(msg) => write!(f, "bad kernel launch: {msg}"),
            SimError::Crashed { ordinal } => {
                write!(f, "process killed at injected crash point #{ordinal}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_contain_numbers() {
        let e = SimError::OutOfMemory {
            requested: 100,
            free: 10,
            capacity: 50,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("10") && s.contains("50"));
    }
}
