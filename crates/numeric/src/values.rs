//! Shared value storage for concurrent column factorization.
//!
//! Columns within a level are factorized by concurrent blocks (rayon
//! tasks). Each block writes only the entries of *its own* column, and
//! reads entries of columns finished in earlier levels; the level barrier
//! orders those accesses. [`ValueStore`] makes that pattern safe without
//! locks by holding the CSC value array as relaxed-atomic `f64` bits.

use std::sync::atomic::{AtomicU64, Ordering};

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
}
