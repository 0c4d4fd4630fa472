//! Unified-memory page manager.
//!
//! Models CUDA unified (managed) memory as the paper's baselines use it:
//! allocations may **oversubscribe** the device; pages migrate to the
//! device on first touch (a GPU page fault), get evicted LRU when the
//! device fills, and can be moved in bulk ahead of time with
//! [`UmSpace::prefetch`] (`cudaMemPrefetchAsync`), which is exactly the
//! optimization distinguishing the paper's two UM baselines (Figure 6,
//! Table 3).
//!
//! Pages here are the UVM *fault-group migration blocks*: on Volta the
//! driver's tree prefetcher escalates per-fault migration up to 2 MiB, and
//! the paper's Table 3 fault-group counts divide out to exactly that
//! granularity (≈1.8 MiB of intermediate state per reported group). Each
//! non-resident page touched costs one fault-group service.
//!
//! Two kinds of allocation, priced differently:
//! * **host-backed** ([`UmSpace::alloc`]) — faults migrate real bytes over
//!   PCIe (the input matrix, host-initialised data),
//! * **device scratch** ([`UmSpace::alloc_scratch`]) — the traversal
//!   state the symbolic kernels create *on* the GPU: first-touch faults
//!   pay the handler/population service but move nothing. Once a scratch
//!   page is **evicted** it has real content on the host ("materialised"),
//!   and re-touching it pays full migration — the thrashing tax of
//!   oversubscription.

use crate::cost::CostModel;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};

/// A unified-memory allocation. Dropping it frees it, with its resident
/// pages and materialisation records.
#[derive(Debug)]
#[must_use = "an allocation is freed as soon as it is dropped"]
pub struct UmAlloc<'u> {
    space: &'u UmSpace,
    id: u64,
    bytes: u64,
    scratch: bool,
}

impl UmAlloc<'_> {
    /// Allocation size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for UmAlloc<'_> {
    fn drop(&mut self) {
        self.space.release(self.id);
    }
}

/// Result of touching a byte range: what faulted and migrated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TouchOutcome {
    /// Pages that were not resident and faulted in.
    pub faulted_pages: u64,
    /// Fault groups those pages were serviced in.
    pub fault_groups: u64,
    /// Bytes migrated host → device for the faulting pages.
    pub migrated_bytes: u64,
}

/// Aggregate unified-memory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UmStatsSnapshot {
    /// Total pages faulted in on demand.
    pub faulted_pages: u64,
    /// Total fault groups (the Table 3 count).
    pub fault_groups: u64,
    /// Pages evicted to make room.
    pub evicted_pages: u64,
    /// Pages moved by explicit prefetch.
    pub prefetched_pages: u64,
    /// Bytes migrated on demand (fault path).
    pub fault_migrated_bytes: u64,
}

#[derive(Debug, Default)]
struct UmState {
    next_id: u64,
    allocs: HashMap<u64, u64>,
    /// Resident pages: (alloc id, page index) → LRU stamp.
    resident: HashMap<(u64, u64), u64>,
    /// Scratch pages that were evicted with live content: re-touching
    /// them migrates real bytes.
    materialized: HashSet<(u64, u64)>,
    tick: u64,
    stats: UmStatsSnapshot,
}

/// The unified-memory space of one simulated GPU.
#[derive(Debug)]
pub struct UmSpace {
    page_bytes: u64,
    capacity_pages: u64,
    group_pages: u64,
    state: Mutex<UmState>,
}

impl UmSpace {
    /// Creates a UM space backed by `device_bytes` of device memory.
    pub fn new(cost: &CostModel, device_bytes: u64) -> Self {
        let page_bytes = cost.um_page_bytes.max(1);
        UmSpace {
            page_bytes,
            capacity_pages: (device_bytes / page_bytes).max(1),
            group_pages: cost.um_fault_group_pages.max(1),
            state: Mutex::new(UmState::default()),
        }
    }

    /// Page (fault-group block) size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Device residency capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Allocates host-backed managed memory. Oversubscription is allowed —
    /// that is the feature's purpose.
    pub fn alloc(&self, bytes: u64) -> UmAlloc<'_> {
        self.alloc_inner(bytes, false)
    }

    /// Allocates device-created scratch (first touch populates on the
    /// GPU; no PCIe migration until a page has been evicted).
    pub fn alloc_scratch(&self, bytes: u64) -> UmAlloc<'_> {
        self.alloc_inner(bytes, true)
    }

    fn alloc_inner(&self, bytes: u64, scratch: bool) -> UmAlloc<'_> {
        let mut s = self.state.lock();
        let id = s.next_id;
        s.next_id += 1;
        s.allocs.insert(id, bytes);
        UmAlloc {
            space: self,
            id,
            bytes,
            scratch,
        }
    }

    /// Frees a dropped allocation: its resident pages and materialisation
    /// records go with it.
    fn release(&self, id: u64) {
        let mut s = self.state.lock();
        s.allocs.remove(&id);
        s.resident.retain(|&(aid, _), _| aid != id);
        s.materialized.retain(|&(aid, _)| aid != id);
    }

    /// Touches `[offset, offset+len)` of `alloc` from device code. Returns
    /// what faulted; the caller (a [`crate::BlockCtx`]) prices it.
    pub fn touch(&self, alloc: &UmAlloc<'_>, offset: u64, len: u64) -> TouchOutcome {
        if len == 0 {
            return TouchOutcome::default();
        }
        debug_assert!(
            offset + len <= alloc.bytes,
            "UM touch beyond allocation: {}+{} > {}",
            offset,
            len,
            alloc.bytes
        );
        let first = offset / self.page_bytes;
        let last = (offset + len - 1) / self.page_bytes;
        let mut s = self.state.lock();
        let mut out = TouchOutcome::default();
        for page in first..=last {
            s.tick += 1;
            let tick = s.tick;
            let key = (alloc.id, page);
            if let std::collections::hash_map::Entry::Occupied(mut e) = s.resident.entry(key) {
                e.insert(tick); // refresh LRU
                continue;
            }
            self.make_room(&mut s);
            s.resident.insert(key, tick);
            s.stats.faulted_pages += 1;
            out.faulted_pages += 1;
            // Migration only when the page has host-side content.
            if !alloc.scratch || s.materialized.contains(&key) {
                s.stats.fault_migrated_bytes += self.page_bytes;
                out.migrated_bytes += self.page_bytes;
            }
        }
        out.fault_groups = out.faulted_pages.div_ceil(self.group_pages);
        s.stats.fault_groups += out.fault_groups;
        out
    }

    /// Prefetches `[offset, offset+len)` to the device in bulk (the
    /// `cudaMemPrefetchAsync` analog). Returns the bytes the caller must
    /// charge at PCIe rate: host-backed and materialised pages move real
    /// data; untouched scratch pages are populated for free.
    pub fn prefetch(&self, alloc: &UmAlloc<'_>, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        debug_assert!(offset + len <= alloc.bytes, "UM prefetch beyond allocation");
        let first = offset / self.page_bytes;
        let last = (offset + len - 1) / self.page_bytes;
        let mut s = self.state.lock();
        let mut moved = 0u64;
        let mut chargeable = 0u64;
        for page in first..=last {
            s.tick += 1;
            let tick = s.tick;
            let key = (alloc.id, page);
            if let std::collections::hash_map::Entry::Occupied(mut e) = s.resident.entry(key) {
                e.insert(tick);
                continue;
            }
            self.make_room(&mut s);
            s.resident.insert(key, tick);
            moved += 1;
            if !alloc.scratch || s.materialized.contains(&key) {
                chargeable += self.page_bytes;
            }
        }
        s.stats.prefetched_pages += moved;
        chargeable
    }

    /// Evicts the least-recently-used page if the device is full. Evicted
    /// pages become materialised (their content now lives on the host).
    fn make_room(&self, s: &mut UmState) {
        while s.resident.len() as u64 >= self.capacity_pages {
            let victim = s
                .resident
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(&k, _)| k)
                .expect("resident non-empty when at capacity");
            s.resident.remove(&victim);
            s.materialized.insert(victim);
            s.stats.evicted_pages += 1;
        }
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.state.lock().resident.len() as u64
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> UmStatsSnapshot {
        self.state.lock().stats
    }

    /// Clears residency and statistics (between experiments).
    pub fn reset(&self) {
        let mut s = self.state.lock();
        s.resident.clear();
        s.materialized.clear();
        s.stats = UmStatsSnapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(pages: u64) -> UmSpace {
        let cost = CostModel {
            um_page_bytes: 1024,
            um_fault_group_pages: 4,
            ..Default::default()
        };
        UmSpace::new(&cost, pages * 1024)
    }

    #[test]
    fn first_touch_faults_second_hits() {
        let um = space(16);
        let a = um.alloc(8 * 1024);
        let t1 = um.touch(&a, 0, 1024);
        assert_eq!(t1.faulted_pages, 1);
        assert_eq!(t1.fault_groups, 1);
        assert_eq!(t1.migrated_bytes, 1024, "host-backed pages migrate");
        let t2 = um.touch(&a, 0, 1024);
        assert_eq!(t2.faulted_pages, 0);
    }

    #[test]
    fn scratch_first_touch_moves_nothing() {
        let um = space(16);
        let a = um.alloc_scratch(8 * 1024);
        let t = um.touch(&a, 0, 4 * 1024);
        assert_eq!(t.faulted_pages, 4);
        assert!(t.fault_groups >= 1);
        assert_eq!(t.migrated_bytes, 0, "scratch is populated on device");
    }

    #[test]
    fn evicted_scratch_migrates_on_retouch() {
        let um = space(2);
        let a = um.alloc_scratch(4 * 1024);
        um.touch(&a, 0, 1024); // page 0
        um.touch(&a, 1024, 1024); // page 1 (device full)
        um.touch(&a, 2048, 2048); // pages 2,3 -> evict 0,1 (materialised)
        let t = um.touch(&a, 0, 1024); // re-touch page 0
        assert_eq!(t.faulted_pages, 1);
        assert_eq!(
            t.migrated_bytes, 1024,
            "materialised scratch pays migration"
        );
    }

    #[test]
    fn spanning_touch_groups_pages() {
        let um = space(16);
        let a = um.alloc(16 * 1024);
        // 8 pages, group size 4 -> 2 groups.
        let t = um.touch(&a, 0, 8 * 1024);
        assert_eq!(t.faulted_pages, 8);
        assert_eq!(t.fault_groups, 2);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let um = space(2);
        let a = um.alloc(4 * 1024);
        um.touch(&a, 0, 1024); // page 0
        um.touch(&a, 1024, 1024); // page 1 (fills device)
        um.touch(&a, 0, 1024); // refresh page 0
        um.touch(&a, 2048, 1024); // page 2 -> evicts page 1 (LRU)
        assert_eq!(um.touch(&a, 0, 1024).faulted_pages, 0);
        assert_eq!(um.touch(&a, 1024, 1024).faulted_pages, 1);
        assert!(um.stats().evicted_pages >= 2);
    }

    #[test]
    fn prefetch_prevents_faults_and_prices_correctly() {
        let um = space(16);
        let host = um.alloc(4 * 1024);
        let scratch = um.alloc_scratch(4 * 1024);
        assert_eq!(
            um.prefetch(&host, 0, 4 * 1024),
            4 * 1024,
            "host pages cost PCIe"
        );
        assert_eq!(
            um.prefetch(&scratch, 0, 4 * 1024),
            0,
            "fresh scratch is free"
        );
        assert_eq!(um.touch(&host, 0, 4 * 1024).faulted_pages, 0);
        assert_eq!(um.touch(&scratch, 0, 4 * 1024).faulted_pages, 0);
        assert_eq!(um.stats().fault_groups, 0);
    }

    #[test]
    fn oversubscription_thrashes_but_works() {
        let um = space(4);
        let a = um.alloc(64 * 1024); // 64 pages on a 4-page device
        let t = um.touch(&a, 0, 64 * 1024);
        assert_eq!(t.faulted_pages, 64);
        assert!(um.stats().evicted_pages >= 60);
        assert_eq!(um.resident_pages(), 4);
    }

    #[test]
    fn drop_frees_residency_and_materialisation() {
        let um = space(2);
        let a = um.alloc_scratch(4 * 1024);
        um.touch(&a, 0, 4 * 1024); // forces evictions -> materialised pages
        drop(a);
        assert_eq!(um.resident_pages(), 0);
        let b = um.alloc_scratch(4 * 1024);
        // Fresh allocation must not inherit materialisation.
        let t = um.touch(&b, 0, 1024);
        assert_eq!(t.migrated_bytes, 0);
    }

    #[test]
    fn reset_clears_stats() {
        let um = space(4);
        let a = um.alloc(1024);
        um.touch(&a, 0, 1024);
        assert!(um.stats().faulted_pages > 0);
        um.reset();
        assert_eq!(um.stats(), UmStatsSnapshot::default());
    }
}
