//! Value storage for concurrent column factorization and solves.
//!
//! Columns within a level are factorized by concurrent blocks (rayon
//! tasks). Each block writes only the entries of *its own* column, once,
//! and reads columns finished in earlier levels; the level barrier orders
//! those accesses. [`ColumnStore`] makes that pattern safe without
//! `unsafe` and without a copy: the factorization's one value array is
//! split up front into one slice per column behind its own lock, a
//! column's block writes its factors there once, the driver seals the
//! level's columns at the level boundary, and later levels read a sealed
//! column as a plain `&[f64]`, without a lock — the kernel core's
//! dependency updates stream over contiguous slices. Because a written
//! column can never be opened again, the store is also where the level
//! driver's reshard rule lives: the kernel core runs at most once per
//! column per run.
//!
//! [`ValueStore`] holds a vector as relaxed-atomic `f64` bits, for the
//! triangular solve's blocks, which update shared entries in place.

use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};

/// A factorization's values (CSC order), written once per column.
///
/// Borrowed from the caller's value array, which holds the result once the
/// store is dropped: one copy of the values, and no allocation per column.
/// A column is *open* — its slice holds its initial values, and the one
/// block that eliminates it locks it, reads them and writes its factors —
/// then *written*, never to be opened again, and finally *sealed* by the
/// driver between levels, after which every later level reads it without
/// a lock.
#[derive(Debug)]
pub struct ColumnStore<'a> {
    /// Per column, its values while unsealed (the empty slice after).
    slots: Vec<Mutex<Slot<'a>>>,
    /// Per column, its factors once sealed.
    sealed: Vec<Option<&'a [f64]>>,
}

#[derive(Debug)]
struct Slot<'a> {
    values: &'a mut [f64],
    written: bool,
}

/// An open column of a [`ColumnStore`], held by the block that eliminates
/// it: from [`ColumnStore::open`] until [`OpenColumn::publish`] (or a drop,
/// which leaves the column open and its values untouched).
pub struct OpenColumn<'s, 'a> {
    slot: MutexGuard<'s, Slot<'a>>,
}

impl<'a> ColumnStore<'a> {
    /// Splits `vals`, laid out by `col_ptr` (`n + 1` offsets from 0 to
    /// `vals.len()`), into `n` open columns.
    pub fn new(vals: &'a mut [f64], col_ptr: &[usize]) -> Self {
        let mut rest = vals;
        let slots = col_ptr
            .windows(2)
            .map(|w| {
                let (values, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
                rest = tail;
                Mutex::new(Slot {
                    values,
                    written: false,
                })
            })
            .collect();
        ColumnStore {
            slots,
            sealed: vec![None; col_ptr.len() - 1],
        }
    }

    /// Seals columns `cols` as they stand, written or not: the columns of
    /// the levels a resumed run does not execute again.
    pub fn finish_as_is(&mut self, cols: impl IntoIterator<Item = usize>) {
        for j in cols {
            self.slots[j].get_mut().written = true;
            self.seal_one(j);
        }
    }

    /// Seals the written columns among `cols`, so later levels can read
    /// them ([`ColumnStore::column`]). The level driver calls this at every
    /// level boundary for the level's columns, the sequential drivers after
    /// every column.
    pub fn seal(&mut self, cols: impl IntoIterator<Item = usize>) {
        for j in cols {
            self.seal_one(j);
        }
    }

    fn seal_one(&mut self, j: usize) {
        let slot = self.slots[j].get_mut();
        if slot.written && self.sealed[j].is_none() {
            self.sealed[j] = Some(&*std::mem::take(&mut slot.values));
        }
    }

    /// Column `j`'s factors, once it is sealed.
    #[inline]
    pub fn column(&self, j: usize) -> Option<&'a [f64]> {
        self.sealed[j]
    }

    /// Opens column `j` for its one write; `None` once it is written —
    /// the store refuses a second write. A concurrent opener of the same
    /// column waits until the first publishes (and is then refused) or
    /// drops its handle.
    pub fn open(&self, j: usize) -> Option<OpenColumn<'_, 'a>> {
        let slot = self.slots[j].lock();
        (!slot.written).then_some(OpenColumn { slot })
    }

    /// Copies every value in CSC order: sealed columns' factors, and every
    /// other column's values as they stand. Between levels (the checkpoint
    /// hook) no block holds a column, so this is the store as the level
    /// left it.
    pub fn snapshot(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (slot, sealed) in self.slots.iter().zip(&self.sealed) {
            let slot = slot.lock();
            out.extend_from_slice(sealed.unwrap_or(&slot.values[..]));
        }
        out
    }
}

impl OpenColumn<'_, '_> {
    /// The column's values as they stand (its initial values).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.slot.values[..]
    }

    /// Writes the column's factors with `write`; the column is written.
    pub fn publish(mut self, write: impl FnOnce(&mut [f64])) {
        write(&mut self.slot.values[..]);
        self.slot.written = true;
    }
}

/// A `Vec<f64>` with relaxed atomic access.
#[derive(Debug)]
pub struct ValueStore {
    bits: Vec<AtomicU64>,
}

impl ValueStore {
    /// Builds the store from initial values.
    pub fn new(vals: &[f64]) -> Self {
        ValueStore {
            bits: vals.iter().map(|v| AtomicU64::new(v.to_bits())).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Reads entry `k`.
    #[inline]
    pub fn get(&self, k: usize) -> f64 {
        f64::from_bits(self.bits[k].load(Ordering::Relaxed))
    }

    /// Writes entry `k`.
    #[inline]
    pub fn set(&self, k: usize, v: f64) {
        self.bits[k].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Extracts the final values.
    pub fn into_vec(self) -> Vec<f64> {
        self.bits
            .into_iter()
            .map(|b| f64::from_bits(b.into_inner()))
            .collect()
    }

    /// Copies the current values (for diagnostics mid-run).
    pub fn snapshot(&self) -> Vec<f64> {
        self.bits
            .iter()
            .map(|b| f64::from_bits(b.load(Ordering::Relaxed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let s = ValueStore::new(&[1.5, -2.25, 0.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(1), -2.25);
        s.set(1, 7.0);
        assert_eq!(s.get(1), 7.0);
        assert_eq!(s.into_vec(), vec![1.5, 7.0, 0.0]);
    }

    #[test]
    fn preserves_special_values() {
        let s = ValueStore::new(&[f64::NEG_INFINITY, -0.0]);
        assert_eq!(s.get(0), f64::NEG_INFINITY);
        assert!(s.get(1) == 0.0 && s.get(1).is_sign_negative());
    }

    #[test]
    fn concurrent_disjoint_writes() {
        use rayon::prelude::*;
        let s = ValueStore::new(&vec![0.0; 1000]);
        (0..1000usize)
            .into_par_iter()
            .for_each(|k| s.set(k, k as f64));
        let v = s.into_vec();
        assert!((0..1000).all(|k| v[k] == k as f64));
    }

    #[test]
    fn a_column_is_written_once_and_then_read_only() {
        let mut vals = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let col_ptr = [0, 2, 2, 5];
        let mut store = ColumnStore::new(&mut vals, &col_ptr);
        assert_eq!(store.column(0), None, "open columns are not readable");

        // A dropped handle leaves the column open and untouched.
        let open = store.open(2).expect("open");
        assert_eq!(open.values(), [3.0, 4.0, 5.0]);
        drop(open);
        assert_eq!(store.snapshot(), [1.0, 2.0, 3.0, 4.0, 5.0]);

        store.open(2).expect("still open").publish(|c| c.fill(-1.0));
        assert!(store.open(2).is_none(), "a second write is refused");
        assert_eq!(store.column(2), None, "written, not yet sealed");
        assert_eq!(store.snapshot(), [1.0, 2.0, -1.0, -1.0, -1.0]);
        store.seal([0, 2]);
        assert_eq!(store.column(2), Some(&[-1.0, -1.0, -1.0][..]));
        assert_eq!(store.column(0), None, "sealing skips unwritten columns");
        assert!(store.open(2).is_none(), "nor does a sealed column reopen");
        store
            .open(1)
            .expect("empty column")
            .publish(|c| assert!(c.is_empty()));
        store.seal([1]);
        assert_eq!(store.column(1), Some(&[][..]));
        assert_eq!(store.snapshot(), [1.0, 2.0, -1.0, -1.0, -1.0]);
        drop(store);
        assert_eq!(vals, [1.0, 2.0, -1.0, -1.0, -1.0], "the caller's array");
    }

    #[test]
    fn resumed_columns_are_finished_as_they_stand() {
        let mut vals = vec![1.0, 2.0, 3.0];
        let mut store = ColumnStore::new(&mut vals, &[0, 1, 3]);
        store.finish_as_is([1]);
        assert_eq!(store.column(1), Some(&[2.0, 3.0][..]));
        assert!(store.open(1).is_none());
        assert_eq!(store.snapshot(), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn concurrent_blocks_publish_disjoint_columns() {
        use rayon::prelude::*;
        let mut vals = vec![0.0; 1000];
        let col_ptr: Vec<usize> = (0..=100).map(|j| j * 10).collect();
        let mut store = ColumnStore::new(&mut vals, &col_ptr);
        (0..100usize).into_par_iter().for_each(|j| {
            store.open(j).expect("open").publish(|c| c.fill(j as f64));
        });
        store.seal(0..100);
        assert!((0..100).all(|j| store.column(j) == Some(&[j as f64; 10][..])));
        drop(store);
        assert!((0..1000).all(|k| vals[k] == (k / 10) as f64));
    }
}
