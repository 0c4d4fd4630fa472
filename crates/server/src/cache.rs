//! The tiered pattern-keyed factor cache.
//!
//! Key: the structure-only XXH64 fingerprint from
//! [`gplu_core::pattern_fingerprint`]. Value: every pattern-only artifact
//! a repeat factorization reuses — the [`RefactorPlan`] (permutations,
//! filled pattern, level schedule, pivot cache, value-scatter maps) and
//! the batched [`TriSolvePlan`] — plus the most recent factors keyed by
//! the *content* fingerprint, so a byte-identical resubmission skips the
//! numeric kernels entirely.
//!
//! # Tiers
//!
//! ```text
//!   device LRU ──demote──▶ host tier ──(write-behind)──▶ disk tier
//!       ▲                      │                            │
//!       └─────promote──────────┴────────promote─────────────┘
//! ```
//!
//! * **Device** — the hot set, accounted by a byte counter against the
//!   configured device budget. Insertion evicts least-recently-used
//!   entries until the entry fits; an entry larger than the whole budget
//!   is simply not cached.
//! * **Host** — a separately budgeted in-memory tier with a counter of its
//!   own. Plans evicted from the device tier *demote* here instead of
//!   dropping; the device charge is released before the host charge is
//!   taken, so the two budgets never double-count one entry.
//! * **Disk** — a persistent [`PlanStore`] of
//!   [`gplu_core::encode_plan`] snapshots (sectioned, checksummed,
//!   written atomically). Population is *write-behind*: workers enqueue
//!   newly built plans onto a flusher thread and never block on I/O. A
//!   load that fails its checksum, schema-version or fingerprint guard
//!   is rejected (counted, logged as a [`RecoveryAction`] event, and the
//!   bad file is removed) and the caller falls back to a cold
//!   factorization — corruption can cost time, never correctness.
//!   [`DISK_FAILURE_LIMIT`] consecutive I/O failures flip the tier into
//!   the `down` degraded mode: reads and writes stop, the service keeps
//!   running memory-only, and the state is surfaced in reports.
//!
//! A hit on any tier *promotes* the entry to the device tier (possibly
//! demoting someone else). Entries are handed out as `Arc`s, so eviction
//! frees the *budget* immediately but the artifacts live until the last
//! in-flight job drops its reference — eviction can never corrupt a
//! running refactorization (asserted in `tests/service.rs`).

use gplu_checkpoint::{CheckpointError, PlanStore};
use gplu_core::{
    decode_plan, encode_plan, LuFactorization, Phase, RecoveryAction, RecoveryLog, RefactorPlan,
};
use gplu_numeric::TriSolvePlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// Consecutive disk-tier I/O failures that flip the tier into the
/// `down` degraded mode (isolated per-entry corruption does not count —
/// only store-level read/write failures do).
pub const DISK_FAILURE_LIMIT: u64 = 3;

/// One cached pattern: the reusable plans plus the latest factors.
#[derive(Debug)]
pub struct CachedFactor {
    /// The refactorization fast path for this pattern.
    pub plan: RefactorPlan,
    /// Batched triangular-solve schedule for this pattern's factors.
    pub solve: TriSolvePlan,
    /// Most recent factors, keyed by the value fingerprint that produced
    /// them ([`gplu_core::matrix_fingerprint`]).
    latest: Mutex<Option<(u64, Arc<LuFactorization>)>>,
}

impl CachedFactor {
    /// A fresh entry with no factors yet.
    pub fn new(plan: RefactorPlan, solve: TriSolvePlan) -> Self {
        CachedFactor {
            plan,
            solve,
            latest: Mutex::new(None),
        }
    }

    /// The factors for exactly these values, if they are the ones most
    /// recently produced for this pattern.
    pub fn latest_for(&self, value_fp: u64) -> Option<Arc<LuFactorization>> {
        let guard = self.latest.lock().unwrap();
        guard
            .as_ref()
            .filter(|(fp, _)| *fp == value_fp)
            .map(|(_, f)| Arc::clone(f))
    }

    /// Publishes the factors produced for `value_fp`.
    pub fn store_latest(&self, value_fp: u64, f: Arc<LuFactorization>) {
        *self.latest.lock().unwrap() = Some((value_fp, f));
    }

    /// Bytes this entry charges against the cache budget.
    pub fn approx_bytes(&self) -> u64 {
        self.plan.approx_bytes() + self.solve.approx_bytes()
    }
}

/// Which tier a lookup was served from (hit provenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Resident in the device tier.
    Device,
    /// Found in the host tier and promoted.
    Host,
    /// Deserialized from the persistent store and promoted.
    Disk,
}

#[derive(Debug)]
struct Slot {
    entry: Arc<CachedFactor>,
    bytes: u64,
    stamp: u64,
}

/// One memory tier: its entries by pattern, the bytes they charge, and
/// the budget those bytes stay within.
#[derive(Debug)]
struct Tier {
    map: HashMap<u64, Slot>,
    used: u64,
    budget: u64,
    tick: u64,
}

impl Tier {
    fn new(budget: u64) -> Self {
        Tier {
            map: HashMap::new(),
            used: 0,
            budget,
            tick: 0,
        }
    }

    /// The entry for `fp`, marked most recently used.
    fn touch(&mut self, fp: u64) -> Option<Arc<CachedFactor>> {
        self.tick += 1;
        let slot = self.map.get_mut(&fp)?;
        slot.stamp = self.tick;
        Some(Arc::clone(&slot.entry))
    }

    /// Removes `fp` and releases its charge.
    fn take(&mut self, fp: u64) -> Option<Slot> {
        let slot = self.map.remove(&fp)?;
        self.used -= slot.bytes;
        Some(slot)
    }

    /// Evicts least-recently-used entries until `bytes` more fit, handing
    /// each to `evicted`: the caller demotes or drops it. False, with
    /// nothing evicted, when not even the emptied tier holds `bytes`.
    fn make_room(&mut self, bytes: u64, mut evicted: impl FnMut(u64, Slot)) -> bool {
        if bytes > self.budget {
            return false;
        }
        while self.used + bytes > self.budget {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(fp, _)| *fp);
            let Some(fp) = lru else { return false };
            let slot = self.take(fp).expect("lru key present");
            evicted(fp, slot);
        }
        true
    }

    /// Charges `bytes` and stores the entry as the most recently used;
    /// the caller made room.
    fn put(&mut self, fp: u64, entry: Arc<CachedFactor>, bytes: u64) {
        self.tick += 1;
        self.used += bytes;
        let stamp = self.tick;
        self.map.insert(
            fp,
            Slot {
                entry,
                bytes,
                stamp,
            },
        );
    }
}

#[derive(Debug)]
struct Inner {
    device: Tier,
    host: Tier,
}

/// Monotone counters the service report exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Pattern lookups served from the device tier.
    pub hits: u64,
    /// Pattern lookups rescued by the host tier (promoted on hit).
    pub host_hits: u64,
    /// Pattern lookups rescued by the disk tier (decoded + promoted).
    pub disk_hits: u64,
    /// Pattern lookups that found nothing on any tier.
    pub misses: u64,
    /// Entries inserted (== plans built *and* device-cached).
    pub insertions: u64,
    /// Entries whose device charge was released (demoted or removed).
    pub evictions: u64,
    /// Device evictions that landed in the host tier instead of dropping.
    pub demotions: u64,
    /// Entries dropped from the host tier to fit its budget.
    pub host_evictions: u64,
    /// Host/disk entries promoted back into the device tier.
    pub promotions: u64,
    /// Plans durably persisted by the write-behind flusher.
    pub disk_writes: u64,
    /// Flusher writes that failed (each counts toward tier-down).
    pub disk_write_failures: u64,
    /// Disk reads that failed at the I/O level (count toward tier-down).
    pub disk_read_failures: u64,
    /// Persisted entries rejected by checksum/schema/fingerprint guards
    /// (each one also leaves a [`RecoveryLog`] event and removes the bad
    /// file; the lookup falls back cold).
    pub disk_rejects: u64,
    /// Plans repopulated into the host tier by a boot-time rewarm.
    pub rewarmed: u64,
    /// Entries too large for the whole device budget, served uncached.
    pub oversize_skipped: u64,
}

/// What the write-behind flusher thread consumes, in order. `Flush` is
/// the drain barrier: its ack means every message enqueued before it has
/// been applied to the store.
enum FlushMsg {
    Persist(u64, Arc<CachedFactor>),
    Remove(u64),
    Flush(mpsc::SyncSender<()>),
}

/// Disk-tier state shared between the cache handle and the flusher.
#[derive(Debug, Default)]
struct DiskStats {
    writes: AtomicU64,
    write_failures: AtomicU64,
    read_failures: AtomicU64,
    consecutive_failures: AtomicU64,
    down: AtomicBool,
}

impl DiskStats {
    fn ok(&self) {
        self.consecutive_failures.store(0, Ordering::SeqCst);
    }

    fn fail(&self) {
        let c = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if c >= DISK_FAILURE_LIMIT {
            self.down.store(true, Ordering::SeqCst);
        }
    }
}

#[derive(Debug)]
struct DiskTier {
    store: Arc<PlanStore>,
    stats: Arc<DiskStats>,
    tx: Mutex<Option<mpsc::Sender<FlushMsg>>>,
    flusher: Mutex<Option<thread::JoinHandle<()>>>,
}

impl DiskTier {
    fn send(&self, msg: FlushMsg) {
        if let Some(tx) = self.tx.lock().unwrap().as_ref() {
            let _ = tx.send(msg);
        }
    }
}

fn flusher_loop(store: &PlanStore, stats: &DiskStats, rx: &mpsc::Receiver<FlushMsg>) {
    for msg in rx.iter() {
        match msg {
            FlushMsg::Persist(key, entry) => {
                if stats.down.load(Ordering::SeqCst) {
                    continue;
                }
                let snap = encode_plan(&entry.plan);
                match store.save(key, &snap) {
                    Ok(_) => {
                        stats.writes.fetch_add(1, Ordering::Relaxed);
                        stats.ok();
                    }
                    Err(_) => {
                        stats.write_failures.fetch_add(1, Ordering::Relaxed);
                        stats.fail();
                    }
                }
            }
            FlushMsg::Remove(key) => {
                if !stats.down.load(Ordering::SeqCst) {
                    let _ = store.remove(key);
                }
            }
            FlushMsg::Flush(ack) => {
                let _ = ack.send(());
            }
        }
    }
}

/// LRU pattern cache tiered device → host → disk. See the module docs
/// for the tier state machine.
#[derive(Debug)]
pub struct FactorCache {
    inner: Mutex<Inner>,
    disk: Option<DiskTier>,
    /// Audit trail of rejected persisted entries (satellite of the "no
    /// wrong answers" contract: every cold fallback is documented).
    rejects: Mutex<RecoveryLog>,
    hits: AtomicU64,
    host_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    demotions: AtomicU64,
    host_evictions: AtomicU64,
    promotions: AtomicU64,
    disk_rejects: AtomicU64,
    rewarmed: AtomicU64,
    oversize_skipped: AtomicU64,
}

impl FactorCache {
    /// A device-only cache with `budget_bytes` of accounting capacity
    /// (no host tier, no persistence — the original single-tier shape).
    pub fn new(budget_bytes: u64) -> Self {
        Self::with_tiers(budget_bytes, 0, None)
    }

    /// A tiered cache: device tier of `device_budget_bytes`, host tier
    /// of `host_budget_bytes` (0 disables demotion), and an optional
    /// persistent store. When a store is given, a write-behind flusher
    /// thread is started; it is joined on drop.
    pub fn with_tiers(
        device_budget_bytes: u64,
        host_budget_bytes: u64,
        store: Option<PlanStore>,
    ) -> Self {
        let disk = store.map(|store| {
            let store = Arc::new(store);
            let stats = Arc::new(DiskStats::default());
            let (tx, rx) = mpsc::channel();
            let flusher = {
                let store = Arc::clone(&store);
                let stats = Arc::clone(&stats);
                thread::spawn(move || flusher_loop(&store, &stats, &rx))
            };
            DiskTier {
                store,
                stats,
                tx: Mutex::new(Some(tx)),
                flusher: Mutex::new(Some(flusher)),
            }
        });
        FactorCache {
            inner: Mutex::new(Inner {
                device: Tier::new(device_budget_bytes),
                host: Tier::new(host_budget_bytes),
            }),
            disk,
            rejects: Mutex::new(RecoveryLog::default()),
            hits: AtomicU64::new(0),
            host_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            host_evictions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            disk_rejects: AtomicU64::new(0),
            rewarmed: AtomicU64::new(0),
            oversize_skipped: AtomicU64::new(0),
        }
    }

    /// Looks up a pattern across all tiers and bumps its recency.
    pub fn lookup(&self, pattern_fp: u64) -> Option<Arc<CachedFactor>> {
        self.lookup_tiered(pattern_fp).map(|(entry, _)| entry)
    }

    /// Looks up a pattern and reports which tier served it. A host or
    /// disk hit promotes the entry to the device tier (possibly demoting
    /// the device LRU).
    pub fn lookup_tiered(&self, pattern_fp: u64) -> Option<(Arc<CachedFactor>, CacheTier)> {
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(entry) = inner.device.touch(pattern_fp) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some((entry, CacheTier::Device));
            }
            if let Some(entry) = self.promote_locked(&mut inner, pattern_fp) {
                self.host_hits.fetch_add(1, Ordering::Relaxed);
                return Some((entry, CacheTier::Host));
            }
        }
        // Disk reads happen outside the map lock: deserialization is the
        // slow path and must not stall concurrent device hits.
        if let Some(entry) = self.load_from_disk(pattern_fp) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.promotions.fetch_add(1, Ordering::Relaxed);
            let bytes = entry.approx_bytes().max(1);
            let mut inner = self.inner.lock().unwrap();
            if let Some(slot) = inner.device.map.get(&pattern_fp) {
                // Raced another worker's promotion; share its entry.
                return Some((Arc::clone(&slot.entry), CacheTier::Disk));
            }
            self.insert_locked(&mut inner, pattern_fp, Arc::clone(&entry), bytes);
            return Some((entry, CacheTier::Disk));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts an entry, evicting (demoting) LRU patterns until its
    /// allocation fits, and enqueues it for write-behind persistence.
    ///
    /// Returns the shared handle either way; when the entry exceeds the
    /// entire device budget it is returned uncached (the job still
    /// completes — the cache only ever trades memory for speed, never
    /// correctness). If another worker raced the same pattern in, the
    /// existing entry wins and the new one is dropped.
    pub fn insert(&self, pattern_fp: u64, entry: CachedFactor) -> Arc<CachedFactor> {
        let bytes = entry.approx_bytes().max(1);
        let entry = Arc::new(entry);
        let winner = {
            let mut inner = self.inner.lock().unwrap();
            if let Some(slot) = inner.device.map.get(&pattern_fp) {
                // Lost a cold-miss race: both workers built plans, first
                // insertion wins so every later job shares one entry.
                return Arc::clone(&slot.entry);
            }
            if let Some(existing) = self.promote_locked(&mut inner, pattern_fp) {
                // The pattern was demoted (or rewarmed) concurrently;
                // the resident artifacts win over the rebuilt ones.
                return existing;
            }
            if self.insert_locked(&mut inner, pattern_fp, Arc::clone(&entry), bytes) {
                self.insertions.fetch_add(1, Ordering::Relaxed);
            }
            Arc::clone(&entry)
        };
        // Write-behind: persistence never runs under the map lock and
        // never blocks the worker that built the plan.
        if let Some(disk) = &self.disk {
            if !disk.stats.down.load(Ordering::SeqCst) {
                disk.send(FlushMsg::Persist(pattern_fp, Arc::clone(&winner)));
            }
        }
        winner
    }

    /// Moves `fp` host → device, if the host tier holds it.
    fn promote_locked(&self, inner: &mut Inner, fp: u64) -> Option<Arc<CachedFactor>> {
        let slot = inner.host.take(fp)?;
        self.promotions.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::clone(&slot.entry);
        self.insert_locked(inner, fp, slot.entry, slot.bytes);
        Some(entry)
    }

    /// Device-tier insertion under the lock: demotes the LRU until the
    /// entry fits. Returns false when the entry is bigger than the whole
    /// device budget.
    ///
    /// A demoted entry's device charge is released *before* the host
    /// charge is taken, so an entry is only ever accounted against one
    /// tier's budget at a time. An entry the host tier cannot hold simply
    /// drops (any in-flight `Arc` holders keep it alive; the disk tier
    /// may still hold its plan).
    fn insert_locked(
        &self,
        inner: &mut Inner,
        fp: u64,
        entry: Arc<CachedFactor>,
        bytes: u64,
    ) -> bool {
        let Inner { device, host } = inner;
        let fits = device.make_room(bytes, |victim, slot| {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if self.admit_to_host(host, victim, slot.entry, slot.bytes) {
                self.demotions.fetch_add(1, Ordering::Relaxed);
            }
        });
        if !fits {
            self.oversize_skipped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        device.put(fp, entry, bytes);
        true
    }

    /// Host-tier admission: drops the host LRU until the entry fits.
    /// Returns false when the entry is bigger than the whole host budget.
    fn admit_to_host(
        &self,
        host: &mut Tier,
        fp: u64,
        entry: Arc<CachedFactor>,
        bytes: u64,
    ) -> bool {
        let fits = host.make_room(bytes, |_, _| {
            self.host_evictions.fetch_add(1, Ordering::Relaxed);
        });
        if fits {
            host.put(fp, entry, bytes);
        }
        fits
    }

    /// Loads and validates a persisted plan. Corrupt, truncated,
    /// cross-version, or wrong-fingerprint entries are rejected: counted,
    /// recorded in the [`RecoveryLog`], and the bad file is removed so
    /// the next lookup goes straight to the cold path.
    fn load_from_disk(&self, pattern_fp: u64) -> Option<Arc<CachedFactor>> {
        let disk = self.disk.as_ref()?;
        if disk.stats.down.load(Ordering::SeqCst) {
            return None;
        }
        match disk.store.load(pattern_fp) {
            Ok(None) => None,
            Ok(Some(snap)) => match decode_plan(&snap, pattern_fp) {
                Ok(plan) => {
                    disk.stats.ok();
                    let solve = TriSolvePlan::new(plan.lu_pattern());
                    Some(Arc::new(CachedFactor::new(plan, solve)))
                }
                Err(e) => {
                    self.reject_disk_entry(disk, pattern_fp, &e.to_string());
                    None
                }
            },
            Err(CheckpointError::Corrupt(msg)) => {
                self.reject_disk_entry(disk, pattern_fp, &msg);
                None
            }
            Err(CheckpointError::Io(_)) => {
                // A store-level read failure (unreadable file, injected
                // disk fault): counts toward tier-down, the entry itself
                // is not condemned.
                disk.stats.read_failures.fetch_add(1, Ordering::Relaxed);
                disk.stats.fail();
                None
            }
        }
    }

    fn reject_disk_entry(&self, disk: &DiskTier, key: u64, reason: &str) {
        self.disk_rejects.fetch_add(1, Ordering::Relaxed);
        self.rejects.lock().unwrap().record(
            Phase::Cache,
            RecoveryAction::DiskEntryRejected {
                key,
                reason: reason.to_string(),
            },
        );
        disk.send(FlushMsg::Remove(key));
    }

    /// Repopulates the host tier from the persistent store (boot-time
    /// warm restart). Plans are decoded and validated exactly as on a
    /// lookup — rejects fall out with the same audit trail — and land in
    /// the host tier (not the device tier: first use promotes them, so
    /// the device LRU still reflects live traffic). Returns how many
    /// plans were rewarmed.
    pub fn rewarm(&self) -> usize {
        let Some(disk) = &self.disk else { return 0 };
        let keys = match disk.store.keys() {
            Ok(keys) => keys,
            Err(_) => {
                disk.stats.read_failures.fetch_add(1, Ordering::Relaxed);
                disk.stats.fail();
                return 0;
            }
        };
        let mut count = 0usize;
        for key in keys {
            if disk.stats.down.load(Ordering::SeqCst) {
                break;
            }
            let Some(entry) = self.load_from_disk(key) else {
                continue;
            };
            let bytes = entry.approx_bytes().max(1);
            let mut inner = self.inner.lock().unwrap();
            if inner.device.map.contains_key(&key) || inner.host.map.contains_key(&key) {
                continue;
            }
            if self.admit_to_host(&mut inner.host, key, entry, bytes) {
                self.rewarmed.fetch_add(1, Ordering::Relaxed);
                count += 1;
            }
        }
        count
    }

    /// Drops a pattern's entry from every tier and releases its budget
    /// (used when the residual gate rejects factors produced from a
    /// cached plan — the artifacts are suspect for the pattern's current
    /// traffic, including the persisted copy). In-flight holders keep
    /// their `Arc`s; only the cache forgets. Returns whether an entry
    /// was present in a memory tier.
    pub fn remove(&self, pattern_fp: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let mut present = false;
        if inner.device.take(pattern_fp).is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            present = true;
        }
        if inner.host.take(pattern_fp).is_some() {
            self.host_evictions.fetch_add(1, Ordering::Relaxed);
            present = true;
        }
        drop(inner);
        if let Some(disk) = &self.disk {
            disk.send(FlushMsg::Remove(pattern_fp));
        }
        present
    }

    /// Blocks until the write-behind flusher has applied every message
    /// enqueued so far (the drain half of drain-and-flush shutdown).
    /// Returns false when the disk tier is down or gone.
    pub fn flush(&self) -> bool {
        let Some(disk) = &self.disk else { return true };
        if disk.stats.down.load(Ordering::SeqCst) {
            return false;
        }
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        disk.send(FlushMsg::Flush(ack_tx));
        ack_rx.recv().is_ok()
    }

    /// Simulates a crash of the process owning this cache: pending
    /// write-behind work is abandoned (the flusher drops it), so only
    /// entries already durable on disk survive — exactly the torn state
    /// the restart chaos suite recovers from.
    pub fn simulate_crash(&self) {
        if let Some(disk) = &self.disk {
            disk.stats.down.store(true, Ordering::SeqCst);
        }
    }

    /// Device-cached patterns right now.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().device.map.len()
    }

    /// True when nothing is device-cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Host-tier entries right now.
    pub fn host_len(&self) -> usize {
        self.inner.lock().unwrap().host.map.len()
    }

    /// Device budget bytes currently charged (covers only device-resident
    /// entries — demoted entries are charged to
    /// [`FactorCache::host_used_bytes`] instead, never both).
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().unwrap().device.used
    }

    /// Host-tier bytes currently charged.
    pub fn host_used_bytes(&self) -> u64 {
        self.inner.lock().unwrap().host.used
    }

    /// Configured device budget.
    pub fn capacity(&self) -> u64 {
        self.inner.lock().unwrap().device.budget
    }

    /// Configured host-tier budget.
    pub fn host_capacity(&self) -> u64 {
        self.inner.lock().unwrap().host.budget
    }

    /// True when this cache was built with a persistent tier.
    pub fn disk_enabled(&self) -> bool {
        self.disk.is_some()
    }

    /// True when the persistent tier has degraded to `down` (too many
    /// consecutive I/O failures, or a simulated crash).
    pub fn disk_down(&self) -> bool {
        self.disk
            .as_ref()
            .is_some_and(|d| d.stats.down.load(Ordering::SeqCst))
    }

    /// Audit log of every rejected persisted entry.
    pub fn rejects_log(&self) -> RecoveryLog {
        self.rejects.lock().unwrap().clone()
    }

    /// Monotone counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        let (disk_writes, disk_write_failures, disk_read_failures) = match &self.disk {
            Some(d) => (
                d.stats.writes.load(Ordering::Relaxed),
                d.stats.write_failures.load(Ordering::Relaxed),
                d.stats.read_failures.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0),
        };
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            host_hits: self.host_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            host_evictions: self.host_evictions.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            disk_writes,
            disk_write_failures,
            disk_read_failures,
            disk_rejects: self.disk_rejects.load(Ordering::Relaxed),
            rewarmed: self.rewarmed.load(Ordering::Relaxed),
            oversize_skipped: self.oversize_skipped.load(Ordering::Relaxed),
        }
    }
}

impl Drop for FactorCache {
    fn drop(&mut self) {
        if let Some(disk) = &self.disk {
            // Closing the channel ends the flusher's loop after it has
            // drained whatever was already enqueued (or skipped it, when
            // the tier is down / crashed).
            disk.tx.lock().unwrap().take();
            if let Some(h) = disk.flusher.lock().unwrap().take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_core::{LuFactorization, LuOptions};
    use gplu_sim::{Gpu, GpuConfig};
    use gplu_sparse::gen::random::random_dominant;
    use gplu_sparse::Csr;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "gplu-factor-cache-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn entry_for(a: &Csr) -> CachedFactor {
        let gpu = Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()));
        let f = LuFactorization::compute(&gpu, a, &LuOptions::default()).expect("ok");
        let plan = f.refactor_plan(a, &LuOptions::default()).expect("plan");
        let solve = TriSolvePlan::new(&f.lu);
        CachedFactor::new(plan, solve)
    }

    #[test]
    fn lookup_miss_then_hit() {
        let a = random_dominant(60, 3.0, 1);
        let fp = gplu_core::pattern_fingerprint(&a);
        let cache = FactorCache::new(64 << 20);
        assert!(cache.lookup(fp).is_none());
        cache.insert(fp, entry_for(&a));
        assert!(cache.lookup(fp).is_some());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.insertions), (1, 1, 1));
        assert!(cache.used_bytes() > 0);
    }

    #[test]
    fn lru_eviction_respects_the_budget() {
        let mats: Vec<Csr> = (0..4).map(|s| random_dominant(60, 3.0, 10 + s)).collect();
        let one = entry_for(&mats[0]).approx_bytes();
        // Room for about two entries.
        let cache = FactorCache::new(one * 2 + one / 2);
        for m in &mats {
            cache.insert(gplu_core::pattern_fingerprint(m), entry_for(m));
        }
        assert!(cache.len() < 4, "budget must force eviction");
        assert!(cache.counters().evictions > 0);
        assert!(cache.used_bytes() <= cache.capacity());
        // Most recently inserted pattern survives.
        assert!(cache
            .lookup(gplu_core::pattern_fingerprint(&mats[3]))
            .is_some());
    }

    #[test]
    fn oversize_entries_are_served_uncached() {
        let a = random_dominant(60, 3.0, 20);
        let cache = FactorCache::new(16); // comically small
        let arc = cache.insert(gplu_core::pattern_fingerprint(&a), entry_for(&a));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.counters().oversize_skipped, 1);
        // The handle still works.
        assert!(arc.plan.n() == 60);
    }

    #[test]
    fn an_oversize_insert_evicts_nothing() {
        let small: Vec<Csr> = (0..2).map(|s| random_dominant(60, 3.0, 21 + s)).collect();
        let big = random_dominant(400, 3.0, 23);
        let one = entry_for(&small[0]).approx_bytes();
        let cache = FactorCache::new(one * 3);
        assert!(entry_for(&big).approx_bytes() > cache.capacity());
        for m in &small {
            cache.insert(gplu_core::pattern_fingerprint(m), entry_for(m));
        }
        let before = cache.counters();
        cache.insert(gplu_core::pattern_fingerprint(&big), entry_for(&big));
        let after = cache.counters();
        assert_eq!(after.oversize_skipped, before.oversize_skipped + 1);
        assert_eq!(
            (after.evictions, after.demotions),
            (before.evictions, before.demotions)
        );
        assert_eq!(cache.len(), 2, "the hot set stays on the device");
        for m in &small {
            let hit = cache.lookup_tiered(gplu_core::pattern_fingerprint(m));
            assert!(matches!(hit, Some((_, CacheTier::Device))));
        }
    }

    #[test]
    fn evicted_entries_stay_alive_for_holders() {
        let a = random_dominant(60, 3.0, 30);
        let b = random_dominant(60, 3.0, 31);
        let one = entry_for(&a).approx_bytes();
        let cache = FactorCache::new(one + one / 4); // exactly one fits
        let held = cache.insert(gplu_core::pattern_fingerprint(&a), entry_for(&a));
        cache.insert(gplu_core::pattern_fingerprint(&b), entry_for(&b));
        assert!(cache.lookup(gplu_core::pattern_fingerprint(&a)).is_none());
        // The evicted plan still refactorizes correctly.
        let gpu = Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()));
        assert!(held.plan.refactorize(&gpu, &a).is_ok());
    }

    #[test]
    fn insert_race_keeps_the_first_entry() {
        let a = random_dominant(60, 3.0, 40);
        let fp = gplu_core::pattern_fingerprint(&a);
        let cache = FactorCache::new(64 << 20);
        let first = cache.insert(fp, entry_for(&a));
        let second = cache.insert(fp, entry_for(&a));
        assert!(Arc::ptr_eq(&first, &second), "first insertion wins");
        assert_eq!(cache.counters().insertions, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn demotion_moves_bytes_between_budgets_without_double_counting() {
        let mats: Vec<Csr> = (0..3).map(|s| random_dominant(60, 3.0, 80 + s)).collect();
        let sizes: Vec<u64> = mats.iter().map(|m| entry_for(m).approx_bytes()).collect();
        let one = *sizes.iter().max().unwrap();
        // Device fits one entry, host fits all three.
        let cache = FactorCache::with_tiers(one + one / 4, one * 4, None);
        let fps: Vec<u64> = mats
            .iter()
            .map(|m| {
                let fp = gplu_core::pattern_fingerprint(m);
                cache.insert(fp, entry_for(m));
                fp
            })
            .collect();
        let c = cache.counters();
        assert!(c.demotions >= 2, "demotions: {}", c.demotions);
        assert_eq!(cache.len(), 1, "device holds exactly one");
        assert_eq!(cache.host_len(), 2, "the demoted two live in host");
        // The double-count regression: device bytes cover only the
        // device-resident entry; the demoted entries are charged to the
        // host counter instead — never both.
        assert!(cache.used_bytes() <= cache.capacity());
        assert!(
            cache.used_bytes() < one * 2,
            "the device tier must not keep demoted bytes"
        );
        assert!(cache.host_used_bytes() <= cache.host_capacity());
        assert_eq!(
            cache.host_used_bytes(),
            sizes[0] + sizes[1],
            "host tier charges exactly the demoted entries' bytes"
        );

        // A host hit promotes (demoting the current device resident).
        let (entry, tier) = cache.lookup_tiered(fps[0]).expect("host tier keeps it");
        assert_eq!(tier, CacheTier::Host);
        assert_eq!(entry.plan.n(), 60);
        let (_, tier) = cache.lookup_tiered(fps[0]).expect("now device-resident");
        assert_eq!(tier, CacheTier::Device);
        let c = cache.counters();
        assert_eq!(c.host_hits, 1);
        assert_eq!(c.hits, 1);
        assert!(c.promotions >= 1);
        assert!(cache.used_bytes() <= cache.capacity());
    }

    #[test]
    fn zero_host_budget_drops_demoted_entries() {
        let a = random_dominant(60, 3.0, 90);
        let b = random_dominant(60, 3.0, 91);
        let one = entry_for(&a).approx_bytes();
        let cache = FactorCache::with_tiers(one + one / 4, 0, None);
        cache.insert(gplu_core::pattern_fingerprint(&a), entry_for(&a));
        cache.insert(gplu_core::pattern_fingerprint(&b), entry_for(&b));
        assert_eq!(cache.host_len(), 0);
        assert_eq!(cache.host_used_bytes(), 0);
        assert_eq!(cache.counters().demotions, 0);
        assert!(cache.lookup(gplu_core::pattern_fingerprint(&a)).is_none());
    }

    #[test]
    fn disk_tier_persists_and_rescues_after_memory_loss() {
        let t = TempDir::new();
        let a = random_dominant(60, 3.0, 100);
        let fp = gplu_core::pattern_fingerprint(&a);
        {
            let store = PlanStore::open(&t.0).unwrap();
            let cache = FactorCache::with_tiers(64 << 20, 64 << 20, Some(store));
            cache.insert(fp, entry_for(&a));
            assert!(cache.flush(), "flusher must drain");
            assert_eq!(cache.counters().disk_writes, 1);
        } // cache dropped: all memory tiers gone, disk survives

        let store = PlanStore::open(&t.0).unwrap();
        let cache = FactorCache::with_tiers(64 << 20, 64 << 20, Some(store));
        let (entry, tier) = cache.lookup_tiered(fp).expect("disk tier rescues");
        assert_eq!(tier, CacheTier::Disk);
        // The rescued plan refactorizes to the same factors as a cold run.
        let gpu = Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()));
        let warm = entry
            .plan
            .refactorize(&gpu, &a)
            .expect("rescued plan works");
        let gpu2 = Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()));
        let cold = LuFactorization::compute(&gpu2, &a, &LuOptions::default()).unwrap();
        assert_eq!(warm.lu.vals, cold.lu.vals, "bit-identical to cold");
        // Promoted: second lookup is a device hit.
        let (_, tier) = cache.lookup_tiered(fp).expect("promoted");
        assert_eq!(tier, CacheTier::Device);
    }

    #[test]
    fn rewarm_repopulates_the_host_tier() {
        let t = TempDir::new();
        let mats: Vec<Csr> = (0..3).map(|s| random_dominant(60, 3.0, 110 + s)).collect();
        {
            let store = PlanStore::open(&t.0).unwrap();
            let cache = FactorCache::with_tiers(64 << 20, 64 << 20, Some(store));
            for m in &mats {
                cache.insert(gplu_core::pattern_fingerprint(m), entry_for(m));
            }
            assert!(cache.flush());
        }
        let store = PlanStore::open(&t.0).unwrap();
        let cache = FactorCache::with_tiers(64 << 20, 64 << 20, Some(store));
        assert_eq!(cache.rewarm(), 3);
        assert_eq!(cache.host_len(), 3);
        assert_eq!(cache.len(), 0, "rewarm fills host, not device");
        for m in &mats {
            let (_, tier) = cache
                .lookup_tiered(gplu_core::pattern_fingerprint(m))
                .expect("rewarmed");
            assert_eq!(tier, CacheTier::Host);
        }
        assert_eq!(cache.counters().rewarmed, 3);
    }

    #[test]
    fn corrupt_disk_entries_are_rejected_with_an_audit_trail() {
        let t = TempDir::new();
        let a = random_dominant(60, 3.0, 120);
        let fp = gplu_core::pattern_fingerprint(&a);
        {
            let store = PlanStore::open(&t.0).unwrap();
            let cache = FactorCache::with_tiers(64 << 20, 0, Some(store));
            cache.insert(fp, entry_for(&a));
            assert!(cache.flush());
        }
        // Flip bytes in the middle of the persisted plan.
        let file = t.0.join(format!("plan-{fp:016x}.ckpt"));
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&file, &bytes).unwrap();

        let store = PlanStore::open(&t.0).unwrap();
        let cache = FactorCache::with_tiers(64 << 20, 0, Some(store));
        assert!(cache.lookup(fp).is_none(), "corrupt entry must miss");
        let c = cache.counters();
        assert_eq!(c.disk_rejects, 1);
        assert!(!cache.disk_down(), "one bad entry must not down the tier");
        let log = cache.rejects_log();
        assert_eq!(log.len(), 1);
        assert!(
            matches!(
                log.events()[0].action,
                RecoveryAction::DiskEntryRejected { key, .. } if key == fp
            ),
            "audit event: {log:?}"
        );
        assert!(cache.flush(), "removal of the bad file is flushed");
        assert!(!file.exists(), "rejected entry must be removed");
    }

    #[test]
    fn crash_abandons_unflushed_writes() {
        let t = TempDir::new();
        let a = random_dominant(60, 3.0, 130);
        let fp = gplu_core::pattern_fingerprint(&a);
        let store = PlanStore::open(&t.0).unwrap();
        let cache = FactorCache::with_tiers(64 << 20, 0, Some(store));
        cache.simulate_crash();
        cache.insert(fp, entry_for(&a));
        drop(cache);
        let store = PlanStore::open(&t.0).unwrap();
        assert!(
            store.load(fp).unwrap().is_none(),
            "a crashed cache must not have persisted the pending plan"
        );
    }
}
