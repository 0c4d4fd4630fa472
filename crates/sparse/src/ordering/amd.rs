//! Approximate minimum degree (AMD) ordering.
//!
//! The practical fill-reducing ordering for circuit-style matrices (the
//! exact greedy in `mindeg` is quadratic-ish and only suitable as the
//! small-case oracle of the tests below). This is a simplified Amestoy–Davis–Duff scheme on
//! the quotient graph:
//!
//! * eliminated pivots become **elements** whose member list stands for
//!   the clique their elimination would create (never materialised),
//! * a variable's degree is approximated by
//!   `|A(v)| + Σ_{e ∈ E(v)} (|L_e| − 1)` (an upper bound; overlaps
//!   between elements are not subtracted),
//! * elements adjacent to the pivot are **absorbed** into the new element,
//!   and original edges covered by the new element are pruned.
//!
//! The next pivot is the live variable with the least `(degree, index)`,
//! kept in an indexed binary min-heap: a degree update moves the
//! variable's one entry, so the heap never holds stale entries. Each
//! variable's element-degree sum is kept incrementally as elements join
//! and are absorbed. A pivot `p` then costs `O(|A(p)| + Σ_{e∈E(p)} |L_e|)`
//! to build `L_p`, plus, for each member `v` of `L_p`, one pass over its
//! (pruned) lists `A(v)` and `E(v)` and an `O(log n)` heap move.

use super::symmetrized_adjacency;
use crate::{Csr, Idx};

/// Binary min-heap over the live variables keyed `(degree << 32) | v`,
/// with each variable's heap slot indexed so [`DegreeHeap::set`] moves it
/// in place. Keys are unique, so the popped variable is the least
/// `(degree, v)` whatever the heap's shape.
struct DegreeHeap {
    keys: Vec<u64>,
    /// Heap slot of each variable (meaningless once popped).
    slot: Vec<usize>,
}

impl DegreeHeap {
    fn key(v: usize, degree: usize) -> u64 {
        ((degree as u64) << 32) | v as u64
    }

    fn new(degree: &[usize]) -> Self {
        let mut h = DegreeHeap {
            keys: (0..degree.len()).map(|v| Self::key(v, degree[v])).collect(),
            slot: (0..degree.len()).collect(),
        };
        for i in (0..h.keys.len() / 2).rev() {
            h.sift_down(i);
        }
        h
    }

    /// Removes and returns the variable with the least `(degree, v)`.
    fn pop(&mut self) -> Option<usize> {
        let top = *self.keys.first()?;
        let last = self.keys.pop().expect("heap is non-empty");
        if !self.keys.is_empty() {
            self.place(0, last);
            self.sift_down(0);
        }
        Some((top & u64::from(u32::MAX)) as usize)
    }

    /// Re-keys live variable `v` with its new degree.
    fn set(&mut self, v: usize, degree: usize) {
        let i = self.slot[v];
        let (old, new) = (self.keys[i], Self::key(v, degree));
        self.keys[i] = new;
        if new < old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn place(&mut self, i: usize, key: u64) {
        self.keys[i] = key;
        self.slot[(key & u64::from(u32::MAX)) as usize] = i;
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.keys[parent] <= key {
                break;
            }
            self.place(i, self.keys[parent]);
            i = parent;
        }
        self.place(i, key);
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.keys[i];
        let len = self.keys.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.keys[child + 1] < self.keys[child] {
                child += 1;
            }
            if key <= self.keys[child] {
                break;
            }
            self.place(i, self.keys[child]);
            i = child;
        }
        self.place(i, key);
    }
}

/// Computes an approximate-minimum-degree ordering of `A + Aᵀ`.
///
/// Returns old indices in new sequence.
pub fn amd_order(a: &Csr) -> Vec<Idx> {
    let n = a.n_rows();
    let (ptr, adj) = symmetrized_adjacency(a);

    // Variable adjacency (original edges, pruned as elements cover them).
    let mut avar: Vec<Vec<Idx>> = (0..n).map(|u| adj[ptr[u]..ptr[u + 1]].to_vec()).collect();
    // Elements adjacent to each variable (element id = its pivot's id),
    // and the sum of `|L_e| − 1` over them.
    let mut evar: Vec<Vec<Idx>> = vec![Vec::new(); n];
    let mut esum: Vec<usize> = vec![0; n];
    // Element member lists and sizes (only for eliminated pivots).
    let mut elem: Vec<Vec<Idx>> = vec![Vec::new(); n];
    let mut esize: Vec<u32> = vec![0; n];

    let mut dead = vec![false; n]; // variable eliminated
    let mut absorbed = vec![false; n]; // element swallowed by a newer one
    let degree: Vec<usize> = (0..n).map(|u| ptr[u + 1] - ptr[u]).collect();
    let mut heap = DegreeHeap::new(&degree);

    // Stamp array for set building/pruning.
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;

    let mut order: Vec<Idx> = Vec::with_capacity(n);
    let mut lp: Vec<Idx> = Vec::new();

    while let Some(pu) = heap.pop() {
        let p = pu as Idx;
        dead[pu] = true;
        order.push(p);

        // Build L_p = (A(p) ∪ ⋃_{e∈E(p)} L_e) minus dead/self, deduped.
        stamp += 1;
        lp.clear();
        mark[pu] = stamp;
        for &u in &avar[pu] {
            let uu = u as usize;
            if !dead[uu] && mark[uu] != stamp {
                mark[uu] = stamp;
                lp.push(u);
            }
        }
        let adjacent_elems = std::mem::take(&mut evar[pu]);
        for &e in &adjacent_elems {
            let e = e as usize;
            if absorbed[e] {
                continue;
            }
            absorbed[e] = true; // e ⊆ L_p ∪ {p}: swallowed
            for &u in &std::mem::take(&mut elem[e]) {
                let uu = u as usize;
                if !dead[uu] && mark[uu] != stamp {
                    mark[uu] = stamp;
                    lp.push(u);
                }
            }
        }
        avar[pu] = Vec::new();

        // Register the new element.
        elem[pu] = lp.clone();
        esize[pu] = lp.len() as u32;
        let weight = |e: Idx| esize[e as usize].saturating_sub(1) as usize;

        // Update every member: prune covered original edges and dead
        // elements, attach the new element, refresh the degree bound.
        for &v in &lp {
            let vu = v as usize;
            avar[vu].retain(|&u| {
                let uu = u as usize;
                !dead[uu] && mark[uu] != stamp
            });
            let sum = &mut esum[vu];
            evar[vu].retain(|&e| {
                let keep = !absorbed[e as usize];
                if !keep {
                    *sum -= weight(e);
                }
                keep
            });
            evar[vu].push(p);
            *sum += weight(p);
            let dnew = (avar[vu].len() + *sum).min(n - order.len()); // cannot exceed live vars
            heap.set(vu, dnew);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::coo_to_csr;
    use crate::ordering::mindeg::min_degree_order;
    use crate::perm::permute_csr;
    use crate::{Coo, Permutation};

    fn fill_count(a: &Csr, order: &[Idx]) -> usize {
        // Symbolic symmetric elimination fill of the permuted pattern.
        let p = Permutation::from_order(order).expect("valid order");
        let b = permute_csr(a, &p, &p);
        let n = b.n_rows();
        let mut rows: Vec<std::collections::BTreeSet<usize>> = (0..n)
            .map(|i| b.row_cols(i).iter().map(|&c| c as usize).collect())
            .collect();
        let mut fill = 0usize;
        for k in 0..n {
            let later: Vec<usize> = rows[k].iter().copied().filter(|&j| j > k).collect();
            for (ai, &i) in later.iter().enumerate() {
                for &j in &later[ai + 1..] {
                    if rows[i].insert(j) {
                        fill += 1;
                    }
                    if rows[j].insert(i) {
                        fill += 1;
                    }
                }
            }
        }
        fill
    }

    #[test]
    fn produces_valid_permutation() {
        let a = crate::gen::random::random_dominant(200, 4.0, 7);
        let order = amd_order(&a);
        assert!(Permutation::from_order(&order).is_ok());
        assert_eq!(order.len(), 200);
    }

    #[test]
    fn arrow_matrix_zero_fill() {
        let n = 16;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
        }
        for i in 1..n {
            coo.push(0, i, 1.0);
            coo.push(i, 0, 1.0);
        }
        let a = coo_to_csr(&coo);
        let order = amd_order(&a);
        assert_eq!(fill_count(&a, &order), 0, "AMD must order the hub last");
    }

    #[test]
    fn close_to_exact_min_degree_on_small_graphs() {
        // AMD's approximation should stay within a small factor of the
        // exact greedy on small random graphs.
        for seed in 0..4 {
            let a = crate::gen::random::random_dominant(60, 3.0, seed);
            let exact = fill_count(&a, &min_degree_order(&a));
            let approx = fill_count(&a, &amd_order(&a));
            assert!(
                approx <= exact.max(8) * 3,
                "seed {seed}: AMD fill {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn beats_natural_order_on_circuit_graph() {
        let a = crate::gen::circuit::circuit(&crate::gen::circuit::CircuitParams {
            n: 300,
            nnz_per_row: 6.0,
            ..Default::default()
        });
        let natural: Vec<Idx> = (0..300).collect();
        let nat_fill = fill_count(&a, &natural);
        let amd_fill = fill_count(&a, &amd_order(&a));
        assert!(
            amd_fill < nat_fill,
            "AMD fill {amd_fill} should beat natural {nat_fill} on circuits"
        );
    }

    #[test]
    fn fast_on_hub_heavy_graphs() {
        // The exact greedy takes minutes at this size; AMD must be quick.
        let a = crate::gen::circuit::circuit(&crate::gen::circuit::CircuitParams {
            n: 4000,
            nnz_per_row: 9.0,
            ..Default::default()
        });
        let t = std::time::Instant::now();
        let order = amd_order(&a);
        assert!(Permutation::from_order(&order).is_ok());
        assert!(
            t.elapsed() < std::time::Duration::from_secs(5),
            "AMD too slow: {:?}",
            t.elapsed()
        );
    }
}
