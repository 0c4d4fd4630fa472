//! Simulator error type.
//!
//! Two variants stop a run wherever they arise; every other one is a
//! device failure the caller may work around ([`SimError::is_terminal`]).
//! A device failure sheds its device only while another live device can
//! take the work ([`crate::DeviceFleet::lose`]); otherwise it goes to the
//! caller's recovery ladder, as on a lone device.

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
    /// A kernel failed to launch: its grid violates device limits, or a
    /// fault plan failed it.
    BadLaunch(String),
    /// The process was killed at an injected crash point (fault plan
    /// `crash:at=N`). Unlike every other fault this one is terminal
    /// ([`SimError::is_terminal`]): recovery ladders must not degrade
    /// around it — the pipeline dies and a later run resumes from the last
    /// durable checkpoint.
    Crashed {
        /// Crash-point ordinal (1-based) the kill fired on.
        ordinal: u64,
    },
    /// The host stopped the run: a checkpoint write from inside a kernel
    /// loop failed, or the run's own state is unusable (resume state that
    /// does not fit its matrix, no live device). Terminal, like
    /// [`SimError::Crashed`]: no device is lost and no ladder degrades.
    Aborted(String),
}

impl SimError {
    /// True for the errors that stop the run: an injected crash and a
    /// host abort. Every other error is a device failure.
    pub fn is_terminal(&self) -> bool {
        matches!(self, SimError::Crashed { .. } | SimError::Aborted(_))
    }
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
            SimError::Aborted(msg) => write!(f, "run aborted: {msg}"),
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
