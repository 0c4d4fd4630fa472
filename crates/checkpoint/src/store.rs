//! Crash-consistent keyed snapshot storage.
//!
//! One [`Store`] keeps snapshot files in a directory, one file per key,
//! under the durability protocol production databases use for their
//! checkpoint files:
//!
//! 1. the snapshot is written to `<file>.tmp`,
//! 2. the file is fsynced, then atomically renamed to `<file>`,
//! 3. the directory is fsynced so the rename itself is durable.
//!
//! The directory is the only index, and each file verifies itself: a
//! snapshot carries its magic, format version and per-section checksums,
//! so a load is one [`Snapshot::from_bytes`] and a save reads no other
//! file. A crash at any point leaves either the previous state or the new
//! state, never a torn one: a torn `.tmp` is not a key, and a torn file
//! that somehow got renamed fails its checksums. Any other file in the
//! directory — a `manifest.json` left by an older build included — is
//! not a key either.
//!
//! The key kind fixes the file names:
//!
//! * [`Seq`] — a checkpoint directory ([`CheckpointStore`]):
//!   `snap-%08d.ckpt` files. A resume reads them newest first and takes
//!   the first that verifies (**latest-valid-wins**,
//!   [`Store::load_latest`]); if files exist but none verifies, that is a
//!   hard [`CheckpointError::Corrupt`] — resuming from nothing when
//!   progress was supposedly saved must be an explicit, operator-visible
//!   decision, not a silent restart.
//! * [`Fingerprint`] — the solver service's plan cache ([`PlanStore`]):
//!   `plan-%016x.ckpt` files keyed by pattern fingerprint. Corruption is
//!   per entry: a bad entry is [`CheckpointError::Corrupt`] for that key
//!   only, which the caller treats as a miss.
//!
//! Deterministic chaos testing hooks in through [`DiskFaultHook`]: the
//! store asks it once per operation — a write check for each save and
//! remove, a read check for each load and key listing — and surfaces an
//! injected fault as an ordinary [`CheckpointError::Io`]. The hook trait
//! lives here (not in `gpu-sim`) so this crate stays dependency-free; the
//! service adapts its seeded `FaultInjector` onto it.

use crate::snapshot::{CheckpointError, Snapshot};
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Write as _};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Deterministic disk-fault injection: the store asks once per
/// operation; `true` means "inject a failure here". Implementations must
/// be cheap and thread-safe — the store may be called from worker and
/// flusher threads concurrently.
pub trait DiskFaultHook: Send + Sync {
    /// Should this read fail?
    fn on_disk_read(&self) -> bool;
    /// Should this write fail?
    fn on_disk_write(&self) -> bool;
}

/// What a store's files are keyed by: their names.
pub trait KeyKind {
    /// File name of the snapshot stored under `key`.
    fn file_name(key: u64) -> String;
    /// The key a file name stores, `None` for any other file.
    fn key_of(name: &str) -> Option<u64>;
}

/// Snapshot sequence numbers: a checkpoint directory.
#[derive(Debug)]
pub enum Seq {}

impl KeyKind for Seq {
    fn file_name(key: u64) -> String {
        format!("snap-{key:08}.ckpt")
    }
    fn key_of(name: &str) -> Option<u64> {
        name.strip_prefix("snap-")?
            .strip_suffix(".ckpt")?
            .parse()
            .ok()
    }
}

/// Pattern fingerprints: the plan cache's disk tier.
#[derive(Debug)]
pub enum Fingerprint {}

impl KeyKind for Fingerprint {
    fn file_name(key: u64) -> String {
        format!("plan-{key:016x}.ckpt")
    }
    fn key_of(name: &str) -> Option<u64> {
        let hex = name.strip_prefix("plan-")?.strip_suffix(".ckpt")?;
        (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
    }
}

/// A checkpoint directory: pipeline snapshots by sequence number.
pub type CheckpointStore = Store<Seq>;

/// A plan-cache directory: the disk tier of the factor cache.
pub type PlanStore = Store<Fingerprint>;

/// A directory of snapshot files keyed by `K`.
pub struct Store<K> {
    dir: PathBuf,
    faults: Option<Arc<dyn DiskFaultHook>>,
    kind: PhantomData<K>,
}

impl<K> std::fmt::Debug for Store<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

/// Writes `data` to `path` durably: tmp file, fsync, atomic rename,
/// directory fsync.
fn write_atomic(dir: &Path, path: &Path, data: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync can fail on exotic
    // filesystems; that is a durability (not correctness) concern, so a
    // failure here still surfaces as Io.
    File::open(dir)?.sync_all()?;
    Ok(())
}

impl<K: KeyKind> Store<K> {
    /// Opens (creating if needed) a store directory.
    pub fn open(dir: &Path) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            faults: None,
            kind: PhantomData,
        })
    }

    /// Attaches a disk-fault hook, asked once per operation.
    pub fn with_faults(mut self, hook: Arc<dyn DiskFaultHook>) -> Self {
        self.faults = Some(hook);
        self
    }

    fn check(&self, write: bool) -> Result<(), CheckpointError> {
        match &self.faults {
            Some(h) if write && h.on_disk_write() => {
                Err(CheckpointError::Io("injected disk write fault".into()))
            }
            Some(h) if !write && h.on_disk_read() => {
                Err(CheckpointError::Io("injected disk read fault".into()))
            }
            _ => Ok(()),
        }
    }

    /// Durably writes `snap` under `key`; no other file is read or
    /// written. Returns the number of snapshot bytes written.
    pub fn save(&self, key: u64, snap: &Snapshot) -> Result<u64, CheckpointError> {
        self.check(true)?;
        let bytes = snap.to_bytes();
        write_atomic(&self.dir, &self.dir.join(K::file_name(key)), &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Removes the file for `key` (quarantine eviction reaches the disk
    /// tier too). Missing files are fine — removal is idempotent.
    pub fn remove(&self, key: u64) -> Result<(), CheckpointError> {
        self.check(true)?;
        match fs::remove_file(self.dir.join(K::file_name(key))) {
            Err(e) if e.kind() != ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    /// Loads and verifies the file for `key`: the snapshot's magic,
    /// version and per-section checksums.
    ///
    /// * `Ok(None)` — no file for this key (plain miss).
    /// * `Ok(Some(snap))` — the snapshot, checksum-verified.
    /// * `Err(Corrupt)` — a file exists but fails verification.
    /// * `Err(Io)` — the entry cannot be read; other keys are unaffected.
    pub fn load(&self, key: u64) -> Result<Option<Snapshot>, CheckpointError> {
        self.check(false)?;
        match fs::read(self.dir.join(K::file_name(key))) {
            Ok(data) => Snapshot::from_bytes(&data).map(Some),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Every key present, ascending: the directory scan. Files that are
    /// not snapshots of this key kind are skipped.
    pub fn keys(&self) -> Result<Vec<u64>, CheckpointError> {
        self.check(false)?;
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            keys.extend(K::key_of(&entry?.file_name().to_string_lossy()));
        }
        keys.sort_unstable();
        Ok(keys)
    }
}

impl Store<Seq> {
    /// Loads the newest snapshot that passes every check: a reader over
    /// [`Store::keys`], newest first.
    ///
    /// * `Ok(None)` — the directory holds no snapshots at all (fresh run).
    /// * `Ok(Some((seq, snap)))` — the latest valid snapshot.
    /// * `Err(Corrupt)` — snapshots exist but none verifies.
    pub fn load_latest(&self) -> Result<Option<(u64, Snapshot)>, CheckpointError> {
        let seqs = self.keys()?;
        if seqs.is_empty() {
            return Ok(None);
        }
        let mut failures = Vec::new();
        for &seq in seqs.iter().rev() {
            match self.load(seq) {
                Ok(Some(snap)) => return Ok(Some((seq, snap))),
                Ok(None) => failures.push(format!("{}: missing", Seq::file_name(seq))),
                Err(e) => failures.push(format!("{}: {e}", Seq::file_name(seq))),
            }
        }
        Err(CheckpointError::Corrupt(format!(
            "no valid snapshot among {} candidate(s): {}",
            seqs.len(),
            failures.join("; ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::section;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "gplu-store-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn snap(tag: u8) -> Snapshot {
        let mut s = Snapshot::new();
        s.add_section(section::META, vec![tag; 16]);
        s.add_section(section::PLAN_BODY, vec![tag; 64]);
        s
    }

    /// Flips the last byte of the file stored under `key`.
    fn flip_last_byte<K: KeyKind>(dir: &Path, key: u64) {
        let p = dir.join(K::file_name(key));
        let mut data = fs::read(&p).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        fs::write(&p, &data).unwrap();
    }

    /// The file names in `dir`, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    fn save_load_remove<K: KeyKind>(dir: &Path) {
        let store = Store::<K>::open(dir).unwrap();
        assert!(store.load(0xABCD).unwrap().is_none());
        assert!(store.keys().unwrap().is_empty());
        store.save(0xEF01, &snap(2)).unwrap();
        store.save(0xABCD, &snap(1)).unwrap();
        let s = store.load(0xABCD).unwrap().expect("entry");
        assert_eq!(s.section(section::META), Some(&[1u8; 16][..]));
        assert_eq!(store.keys().unwrap(), vec![0xABCD, 0xEF01]);
        store.remove(0xABCD).unwrap();
        assert!(store.load(0xABCD).unwrap().is_none());
        assert_eq!(store.keys().unwrap(), vec![0xEF01]);
        // Idempotent removal.
        store.remove(0xABCD).unwrap();
        // The directory is the index: it holds the snapshots and nothing
        // else.
        assert_eq!(names(dir), vec![K::file_name(0xEF01)]);
    }

    #[test]
    fn save_load_remove_round_trip() {
        save_load_remove::<Seq>(&TempDir::new().0);
        save_load_remove::<Fingerprint>(&TempDir::new().0);
    }

    #[test]
    fn file_names_keep_their_formats() {
        assert_eq!(Seq::file_name(2), "snap-00000002.ckpt");
        assert_eq!(Fingerprint::file_name(0xAB), "plan-00000000000000ab.ckpt");
        assert_eq!(Seq::key_of("snap-00000002.ckpt"), Some(2));
        assert_eq!(
            Fingerprint::key_of("plan-00000000000000ab.ckpt"),
            Some(0xAB)
        );
        assert_eq!(
            Fingerprint::key_of("plan-ab.ckpt"),
            None,
            "16 hex digits only"
        );
        assert_eq!(Seq::key_of("plan-00000000000000ab.ckpt"), None);
        assert_eq!(Seq::key_of("snap-00000009.ckpt.tmp"), None);
        assert_eq!(Seq::key_of("manifest.json"), None);
        assert_eq!(Fingerprint::key_of("cache-manifest.json"), None);
    }

    fn corrupt_entry<K: KeyKind>(dir: &Path) {
        let store = Store::<K>::open(dir).unwrap();
        store.save(7, &snap(1)).unwrap();
        store.save(8, &snap(2)).unwrap();
        flip_last_byte::<K>(dir, 7);
        assert!(matches!(store.load(7), Err(CheckpointError::Corrupt(_))));
        // The sibling entry is untouched.
        assert!(store.load(8).unwrap().is_some());
    }

    #[test]
    fn corrupt_entry_is_a_per_key_error() {
        corrupt_entry::<Seq>(&TempDir::new().0);
        corrupt_entry::<Fingerprint>(&TempDir::new().0);
    }

    fn every_bit_flip<K: KeyKind>(dir: &Path) {
        let store = Store::<K>::open(dir).unwrap();
        let mut three = snap(6);
        three.add_section(section::LEVELS, vec![7; 24]);
        store.save(6, &three).unwrap();
        let p = dir.join(K::file_name(6));
        let data = fs::read(&p).unwrap();
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            fs::write(&p, &flipped).unwrap();
            assert!(
                matches!(store.load(6), Err(CheckpointError::Corrupt(_))),
                "a flip of bit {bit} must be rejected"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_snapshot_is_corrupt() {
        every_bit_flip::<Seq>(&TempDir::new().0);
        every_bit_flip::<Fingerprint>(&TempDir::new().0);
    }

    fn truncated_entry<K: KeyKind>(dir: &Path) {
        let store = Store::<K>::open(dir).unwrap();
        store.save(3, &snap(9)).unwrap();
        let p = dir.join(K::file_name(3));
        let data = fs::read(&p).unwrap();
        for cut in 0..data.len() {
            fs::write(&p, &data[..cut]).unwrap();
            assert!(
                matches!(store.load(3), Err(CheckpointError::Corrupt(_))),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn truncated_entry_fails_checksum_at_every_cut() {
        truncated_entry::<Seq>(&TempDir::new().0);
        truncated_entry::<Fingerprint>(&TempDir::new().0);
    }

    fn beside_unreadable<K: KeyKind>(dir: &Path) {
        let store = Store::<K>::open(dir).unwrap();
        // An entry named like a snapshot that cannot be read as one.
        fs::create_dir(dir.join(K::file_name(99))).unwrap();
        store.save(1, &snap(1)).unwrap();
        store.save(2, &snap(2)).unwrap();
        store.remove(1).unwrap();
        assert_eq!(store.load(2).unwrap(), Some(snap(2)));
        assert!(matches!(store.load(99), Err(CheckpointError::Io(_))));
        assert_eq!(store.keys().unwrap(), vec![2, 99]);
    }

    #[test]
    fn a_save_beside_an_unreadable_entry_succeeds() {
        beside_unreadable::<Seq>(&TempDir::new().0);
        beside_unreadable::<Fingerprint>(&TempDir::new().0);
        // A resume passes over it to the newest snapshot that verifies.
        let t = TempDir::new();
        beside_unreadable::<Seq>(&t.0);
        let store = CheckpointStore::open(&t.0).unwrap();
        assert_eq!(store.load_latest().unwrap(), Some((2, snap(2))));
    }

    fn garbage_manifest<K: KeyKind>(dir: &Path) {
        const GARBAGE: &[u8] = b"{not json";
        let store = Store::<K>::open(dir).unwrap();
        store.save(1, &snap(1)).unwrap();
        for name in ["manifest.json", "cache-manifest.json"] {
            fs::write(dir.join(name), GARBAGE).unwrap();
        }
        assert_eq!(store.keys().unwrap(), vec![1]);
        assert_eq!(store.load(1).unwrap(), Some(snap(1)));
        store.save(2, &snap(2)).unwrap();
        store.save(3, &snap(3)).unwrap();
        store.remove(3).unwrap();
        assert_eq!(store.keys().unwrap(), vec![1, 2]);
        for name in ["manifest.json", "cache-manifest.json"] {
            assert_eq!(fs::read(dir.join(name)).unwrap(), GARBAGE, "{name}");
        }
    }

    #[test]
    fn a_garbage_manifest_changes_nothing() {
        garbage_manifest::<Seq>(&TempDir::new().0);
        garbage_manifest::<Fingerprint>(&TempDir::new().0);
        let t = TempDir::new();
        garbage_manifest::<Seq>(&t.0);
        let store = CheckpointStore::open(&t.0).unwrap();
        assert_eq!(store.load_latest().unwrap(), Some((2, snap(2))));
    }

    fn stray_tmp<K: KeyKind>(dir: &Path) {
        let store = Store::<K>::open(dir).unwrap();
        store.save(1, &snap(1)).unwrap();
        // A torn write that never got renamed.
        fs::write(dir.join(format!("{}.tmp", K::file_name(9))), b"torn").unwrap();
        assert_eq!(store.keys().unwrap(), vec![1]);
        store.save(2, &snap(2)).unwrap();
        assert_eq!(store.keys().unwrap(), vec![1, 2]);
    }

    #[test]
    fn stray_tmp_files_are_ignored() {
        stray_tmp::<Seq>(&TempDir::new().0);
        stray_tmp::<Fingerprint>(&TempDir::new().0);
        let t = TempDir::new();
        let store = CheckpointStore::open(&t.0).unwrap();
        store.save(1, &snap(1)).unwrap();
        fs::write(t.0.join("snap-00000009.ckpt.tmp"), b"torn").unwrap();
        let (seq, _) = store.load_latest().unwrap().expect("snapshot");
        assert_eq!(seq, 1);
    }

    #[test]
    fn empty_dir_loads_none() {
        let t = TempDir::new();
        let store = CheckpointStore::open(&t.0).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        assert!(store.keys().unwrap().is_empty());
    }

    #[test]
    fn latest_valid_wins() {
        let t = TempDir::new();
        let store = CheckpointStore::open(&t.0).unwrap();
        store.save(1, &snap(1)).unwrap();
        store.save(2, &snap(2)).unwrap();
        let (seq, s) = store.load_latest().unwrap().expect("snapshot");
        assert_eq!(seq, 2);
        assert_eq!(s.section(section::META), Some(&[2u8; 16][..]));
        assert_eq!(store.keys().unwrap().last(), Some(&2));
    }

    #[test]
    fn corrupt_latest_falls_back_to_older_valid() {
        let t = TempDir::new();
        let store = CheckpointStore::open(&t.0).unwrap();
        store.save(1, &snap(1)).unwrap();
        store.save(2, &snap(2)).unwrap();
        flip_last_byte::<Seq>(&t.0, 2);
        let (seq, s) = store.load_latest().unwrap().expect("older snapshot");
        assert_eq!(seq, 1);
        assert_eq!(s.section(section::META), Some(&[1u8; 16][..]));
    }

    #[test]
    fn all_corrupt_is_a_hard_error() {
        let t = TempDir::new();
        let store = CheckpointStore::open(&t.0).unwrap();
        store.save(1, &snap(1)).unwrap();
        store.save(2, &snap(2)).unwrap();
        for seq in [1, 2] {
            let p = t.0.join(Seq::file_name(seq));
            let mut data = fs::read(&p).unwrap();
            data.truncate(data.len() / 2);
            fs::write(&p, &data).unwrap();
        }
        assert!(matches!(
            store.load_latest(),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    /// Counts every question and fails the `fail_read`th read and the
    /// `fail_write`th write (0: never).
    #[derive(Default)]
    struct Counting {
        reads: AtomicU64,
        writes: AtomicU64,
        fail_read: u64,
        fail_write: u64,
    }

    impl DiskFaultHook for Counting {
        fn on_disk_read(&self) -> bool {
            self.reads.fetch_add(1, Ordering::Relaxed) + 1 == self.fail_read
        }
        fn on_disk_write(&self) -> bool {
            self.writes.fetch_add(1, Ordering::Relaxed) + 1 == self.fail_write
        }
    }

    fn counts(h: &Counting) -> (u64, u64) {
        (
            h.reads.load(Ordering::Relaxed),
            h.writes.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn the_disk_fault_hook_is_asked_once_per_operation() {
        // The service's seeded `diskfault:` plans count these questions,
        // so each operation must ask exactly once.
        let t = TempDir::new();
        let hook = Arc::new(Counting::default());
        let store = PlanStore::open(&t.0).unwrap().with_faults(hook.clone());
        store.save(5, &snap(5)).unwrap();
        assert_eq!(counts(&hook), (0, 1), "save: one write check");
        store.load(5).unwrap().expect("entry");
        assert_eq!(counts(&hook), (1, 1), "load: one read check");
        assert_eq!(store.keys().unwrap(), vec![5]);
        assert_eq!(counts(&hook), (2, 1), "keys: one read check");
        store.remove(5).unwrap();
        assert_eq!(counts(&hook), (2, 2), "remove: one write check");
        assert!(store.load(5).unwrap().is_none());
        assert_eq!(counts(&hook), (3, 2), "a miss is one read check too");
    }

    fn fault_recovers<K: KeyKind>(dir: &Path) {
        let hook = Arc::new(Counting {
            fail_read: 1,
            fail_write: 1,
            ..Counting::default()
        });
        let store = Store::<K>::open(dir).unwrap().with_faults(hook);
        assert!(matches!(
            store.save(1, &snap(1)),
            Err(CheckpointError::Io(_))
        ));
        // The injected fault was transient; the next attempt succeeds and
        // the first failure left nothing torn behind.
        store.save(1, &snap(1)).unwrap();
        assert!(matches!(store.load(1), Err(CheckpointError::Io(_))));
        assert!(store.load(1).unwrap().is_some());
    }

    #[test]
    fn fault_hook_surfaces_as_io_error_and_store_recovers() {
        fault_recovers::<Seq>(&TempDir::new().0);
        fault_recovers::<Fingerprint>(&TempDir::new().0);
    }

    #[test]
    fn a_write_fault_on_a_checkpoint_save_keeps_the_previous_latest() {
        let t = TempDir::new();
        let hook = Arc::new(Counting {
            fail_write: 3,
            ..Counting::default()
        });
        let store = CheckpointStore::open(&t.0).unwrap().with_faults(hook);
        store.save(1, &snap(1)).unwrap();
        store.save(2, &snap(2)).unwrap();
        assert!(matches!(
            store.save(3, &snap(3)),
            Err(CheckpointError::Io(_))
        ));
        assert_eq!(store.keys().unwrap(), vec![1, 2], "nothing of seq 3 landed");
        let (seq, s) = store.load_latest().unwrap().expect("previous latest");
        assert_eq!(seq, 2);
        assert_eq!(s, snap(2));
    }
}
