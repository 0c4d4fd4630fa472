//! Device-memory allocator.
//!
//! Capacity is the whole point: the paper's out-of-core design exists
//! because the symbolic phase's intermediate state (`c·n` words per
//! in-flight source row, `c = 6`) does not fit. [`DeviceMemory`] tracks
//! usage against the configured capacity and **fails allocations that do
//! not fit**, which is the signal the out-of-core drivers react to. It
//! also records the high-water mark so experiments can report peak usage.
//!
//! An allocation is a [`DeviceAlloc`] guard that gives its bytes back when
//! it is dropped. A driver's buffers therefore live exactly as long as the
//! driver holds them, and an early `?` — a failed launch, an aborting
//! checkpoint hook, an allocation that does not fit — cannot leave them
//! charged against a device that outlives the run.

use crate::error::SimError;
use crate::fault::FaultInjector;
use parking_lot::Mutex;
use std::sync::Arc;

/// A live device allocation, freed when dropped.
#[derive(Debug)]
#[must_use = "an allocation is freed as soon as it is dropped"]
pub struct DeviceAlloc<'m> {
    mem: &'m DeviceMemory,
    id: u64,
    bytes: u64,
}

impl DeviceAlloc<'_> {
    /// Size of this allocation in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for DeviceAlloc<'_> {
    fn drop(&mut self) {
        self.mem.release(self.id);
    }
}

#[derive(Debug, Default)]
struct MemState {
    // Capacity lives under the lock so an injected squeeze can shrink it
    // mid-run without racing in-flight allocations.
    capacity: u64,
    in_use: u64,
    peak: u64,
    next_id: u64,
    live: std::collections::HashMap<u64, u64>,
}

/// A capacity-tracked device-memory allocator.
///
/// Only sizes are tracked — payload data lives in ordinary host `Vec`s held
/// by the algorithm implementations; see the crate docs for the functional
/// vs priced split.
#[derive(Debug)]
pub struct DeviceMemory {
    state: Mutex<MemState>,
    faults: Option<Arc<FaultInjector>>,
}

impl DeviceMemory {
    /// Creates an allocator with `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory::with_faults(capacity, None)
    }

    /// Creates an allocator whose requests pass through a fault injector.
    pub fn with_faults(capacity: u64, faults: Option<Arc<FaultInjector>>) -> Self {
        DeviceMemory {
            state: Mutex::new(MemState {
                capacity,
                ..MemState::default()
            }),
            faults,
        }
    }

    /// Total capacity in bytes (may shrink under an injected squeeze).
    pub fn capacity(&self) -> u64 {
        self.state.lock().capacity
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        let s = self.state.lock();
        s.capacity - s.in_use
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.state.lock().in_use
    }

    /// High-water mark over the allocator's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.state.lock().peak
    }

    /// Allocates `bytes`, failing with [`SimError::OutOfMemory`] when the
    /// request does not fit — the trigger for out-of-core fallback.
    pub fn alloc(&self, bytes: u64) -> Result<DeviceAlloc<'_>, SimError> {
        let mut s = self.state.lock();
        if let Some(inj) = &self.faults {
            let verdict = inj.on_alloc();
            if let Some(keep) = verdict.squeeze_keep_percent {
                // External memory pressure: live allocations survive, but
                // the headroom above them shrinks — and stays shrunk.
                s.capacity = (s.capacity * keep / 100).max(s.in_use);
            }
            if verdict.inject_oom {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    free: s.capacity - s.in_use,
                    capacity: s.capacity,
                });
            }
        }
        if s.in_use + bytes > s.capacity {
            return Err(SimError::OutOfMemory {
                requested: bytes,
                free: s.capacity - s.in_use,
                capacity: s.capacity,
            });
        }
        s.in_use += bytes;
        s.peak = s.peak.max(s.in_use);
        let id = s.next_id;
        s.next_id += 1;
        s.live.insert(id, bytes);
        Ok(DeviceAlloc {
            mem: self,
            id,
            bytes,
        })
    }

    /// Gives a dropped allocation's bytes back. An id [`reset`] already
    /// cleared is not live any more, and releasing it changes nothing.
    ///
    /// [`reset`]: DeviceMemory::reset
    fn release(&self, id: u64) {
        let mut s = self.state.lock();
        if let Some(bytes) = s.live.remove(&id) {
            s.in_use -= bytes;
        }
    }

    /// Frees every live allocation at once; their guards' later drops are
    /// no-ops. Every driver in the workspace owns its buffers instead: the
    /// benchmark's layered replay (`benchmark/src/replay.rs`) is the last
    /// caller, and ROADMAP item 1(b) deletes it.
    pub fn reset(&self) {
        let mut s = self.state.lock();
        s.live.clear();
        s.in_use = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let m = DeviceMemory::new(1000);
        let a = m.alloc(400).expect("fits");
        let b = m.alloc(600).expect("fits exactly");
        assert_eq!(m.free_bytes(), 0);
        assert!(matches!(m.alloc(1), Err(SimError::OutOfMemory { .. })));
        drop(a);
        assert_eq!(m.free_bytes(), 400);
        drop(b);
        assert_eq!(m.used_bytes(), 0);
        assert_eq!(m.peak_bytes(), 1000);
    }

    #[test]
    fn oom_reports_sizes() {
        let m = DeviceMemory::new(100);
        let _a = m.alloc(90).expect("fits");
        match m.alloc(20) {
            Err(SimError::OutOfMemory {
                requested,
                free,
                capacity,
            }) => {
                assert_eq!((requested, free, capacity), (20, 10, 100));
            }
            other => panic!("expected OOM, got {other:?}"),
        };
    }

    #[test]
    fn reset_clears_everything() {
        let m = DeviceMemory::new(100);
        let a = m.alloc(50).expect("fits");
        m.reset();
        assert_eq!(m.used_bytes(), 0);
        let b = m.alloc(100).expect("the whole device is free again");
        drop(a);
        assert_eq!(m.used_bytes(), 100, "a reset allocation's drop is a no-op");
        drop(b);
        assert_eq!(m.used_bytes(), 0);
    }

    mod injection {
        use super::*;
        use crate::fault::{FaultInjector, FaultPlan};

        fn mem_with(plan: FaultPlan, capacity: u64) -> DeviceMemory {
            DeviceMemory::with_faults(capacity, Some(Arc::new(FaultInjector::new(plan))))
        }

        #[test]
        fn transient_oom_fails_nth_alloc_only() {
            let m = mem_with(FaultPlan::new().oom_on_alloc(2), 1000);
            assert!(m.alloc(10).is_ok());
            assert!(matches!(m.alloc(10), Err(SimError::OutOfMemory { .. })));
            assert!(m.alloc(10).is_ok(), "transient fault clears on retry");
        }

        #[test]
        fn persistent_oom_never_recovers() {
            let m = mem_with(FaultPlan::new().persistent_oom_from(2), 1000);
            assert!(m.alloc(10).is_ok());
            for _ in 0..5 {
                assert!(matches!(m.alloc(1), Err(SimError::OutOfMemory { .. })));
            }
        }

        #[test]
        fn squeeze_shrinks_capacity_but_keeps_live_allocations() {
            let m = mem_with(FaultPlan::new().squeeze_at(2, 50), 1000);
            let a = m.alloc(700).expect("fits before squeeze");
            // The squeeze wants 500 but 700 bytes are live: floor at in-use.
            assert!(matches!(m.alloc(200), Err(SimError::OutOfMemory { .. })));
            assert_eq!(m.capacity(), 700);
            assert_eq!(m.free_bytes(), 0);
            drop(a);
            assert!(m.alloc(700).is_ok(), "squeezed capacity is reusable");
        }

        #[test]
        fn squeeze_persists_across_reset() {
            let m = mem_with(FaultPlan::new().squeeze_at(1, 40), 1000);
            let _ = m.alloc(10);
            assert_eq!(m.capacity(), 400);
            m.reset();
            assert_eq!(m.capacity(), 400, "external pressure outlives a phase");
        }
    }
}
