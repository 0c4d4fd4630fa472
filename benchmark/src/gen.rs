//! Seeded inputs.
//!
//! Every workload has a fixed *population* — families, sizes, densities and
//! base patterns — the way the paper's Table 2 is a fixed list of matrices.
//! `--seed` draws everything else: the values, a few extra structural
//! entries per matrix, the known solutions the right-hand sides come from,
//! and the drift sequences. So no two seeds hand the program the same
//! matrix, yet the amount of work per pass differs between seeds by far
//! less than the regression bounds — which is what lets `sim_ms` carry a
//! bound of half a percent across seeds.

use gplu::sparse::gen::circuit::{circuit, CircuitParams};
use gplu::sparse::gen::mesh::{mesh, MeshParams};
use gplu::sparse::gen::planar::{planar, PlanarParams};
use gplu::sparse::gen::suite::Family;
use gplu::sparse::pivot::repair_diagonal;
use gplu::sparse::{Coo, Csr};

/// SplitMix64 stream.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent seed for sub-stream `stream` of `seed` (matrix index,
/// right-hand side index, …).
pub fn mix(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Structural seed of every base pattern: part of the workload definition,
/// not of the run.
pub const POPULATION_SEED: u64 = 0x6770_6c75_2d65_3265;

/// Extra structural entries `seeded_variant` adds per matrix.
pub const JITTER_ENTRIES: usize = 4;

/// One member of a family at dimension ≈ `n` and density `nnz_per_row`,
/// with a complete diagonal (planar patterns get the paper's Table 4
/// repair up front, so the matrix the program sees is the matrix the
/// harness verifies against).
pub fn family_matrix(family: Family, n: usize, nnz_per_row: f64, seed: u64) -> Csr {
    match family {
        Family::Circuit => circuit(&CircuitParams {
            n,
            nnz_per_row,
            rail_fraction: 0.12,
            rails: (n / 256).max(2),
            seed,
        }),
        Family::Mesh => mesh(&MeshParams::for_target(n, nnz_per_row, seed)),
        Family::Planar => {
            repair_diagonal(
                &planar(&PlanarParams::for_target(n, nnz_per_row, seed)),
                1000.0,
            )
            .0
        }
    }
}

/// The `seed`-specific variant of a base matrix: every off-diagonal value
/// shrinks by a factor drawn from `(1 − wobble, 1]` (shrinking keeps a
/// dominant diagonal dominant), and up to [`JITTER_ENTRIES`] new entries
/// appear at the transposed positions of existing one-way entries, with a
/// value far below the row's scale. Mirroring an existing edge leaves the
/// symmetrized graph — all the fill-reducing ordering looks at — as it
/// was, so the pattern, the fill and the simulated time differ between
/// seeds, but only locally. A structurally symmetric base has no such
/// position and keeps its pattern.
pub fn seeded_variant(base: &Csr, seed: u64, wobble: f64) -> Csr {
    let n = base.n_rows();
    let mut rng = SplitMix::new(seed);
    let mut coo = Coo::with_capacity(n, base.n_cols(), base.nnz() + JITTER_ENTRIES);
    for i in 0..n {
        for (j, v) in base.row_iter(i) {
            let v = if i == j {
                v
            } else {
                v * (1.0 - wobble * rng.unit())
            };
            coo.push(i, j, v);
        }
    }
    let mut added: Vec<(usize, usize)> = Vec::new();
    // Bounded search: a base with few one-way entries keeps what it got.
    for _ in 0..256 * JITTER_ENTRIES {
        if added.len() == JITTER_ENTRIES {
            break;
        }
        let i = rng.below(n);
        let row = base.row_cols(i);
        if row.is_empty() {
            continue;
        }
        let j = row[rng.below(row.len())] as usize;
        if j == i || j >= n || base.get(j, i).is_some() || added.contains(&(j, i)) {
            continue;
        }
        let scale = base.row_vals(j).iter().fold(0.0f64, |m, v| m.max(v.abs()));
        coo.push(j, i, 1e-9 * scale.max(f64::MIN_POSITIVE));
        added.push((j, i));
    }
    gplu::sparse::convert::coo_to_csr(&coo)
}

/// The `seed`-specific variant of an adversarial matrix, whose hardness
/// lives in its exact values: column `j` is scaled by `2^k`, `k` drawn
/// from `-2..=2`. Every value changes, yet every comparison threshold
/// pivoting makes is within one column and every scaling is exact in
/// binary floating point, so the pivot order, the fill and the simulated
/// time are those of the base.
pub fn scale_columns_pow2(base: &Csr, seed: u64) -> Csr {
    let mut rng = SplitMix::new(seed);
    let scale: Vec<f64> = (0..base.n_cols())
        .map(|_| f64::powi(2.0, rng.below(5) as i32 - 2))
        .collect();
    let mut m = base.clone();
    for (v, &j) in m.vals.iter_mut().zip(&base.col_idx) {
        *v *= scale[j as usize];
    }
    m
}

/// A known solution with entries in `[0.5, 1.5)`.
pub fn solution(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    (0..n).map(|_| 0.5 + rng.unit()).collect()
}

/// Same pattern, new values: the circuit-transient drift. Off-diagonals
/// shrink by up to 10 %, differently for every `round`.
pub fn drift(a: &Csr, round: u64) -> Csr {
    let mut rng = SplitMix::new(round);
    let mut m = a.clone();
    for i in 0..a.n_rows() {
        for k in a.row_ptr[i]..a.row_ptr[i + 1] {
            let u = rng.unit();
            if a.col_idx[k] as usize != i {
                m.vals[k] *= 1.0 - 0.1 * u;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu::sparse::gen::random::random_dominant;

    fn bits(a: &Csr) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
        (
            a.row_ptr.clone(),
            a.col_idx.clone(),
            a.vals.iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_matrix() {
        let base = random_dominant(200, 5.0, 1);
        let a = seeded_variant(&base, 7, 0.05);
        let b = seeded_variant(&base, 7, 0.05);
        let c = seeded_variant(&base, 8, 0.05);
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(a.vals, c.vals, "values differ between seeds");
        assert_ne!(a.col_idx, c.col_idx, "patterns differ between seeds");
    }

    #[test]
    fn variant_adds_the_jitter_and_keeps_dominance() {
        let base = random_dominant(300, 5.0, 2);
        let a = seeded_variant(&base, 11, 0.05);
        assert_eq!(a.nnz(), base.nnz() + JITTER_ENTRIES);
        // Every new entry mirrors an existing one.
        for i in 0..a.n_rows() {
            for (j, _) in a.row_iter(i) {
                assert!(base.get(i, j).is_some() || base.get(j, i).is_some());
            }
        }
        for i in 0..a.n_rows() {
            let diag = a.get(i, i).expect("diagonal kept").abs();
            let off: f64 = a
                .row_iter(i)
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(diag > off, "row {i} lost dominance");
        }
    }

    #[test]
    fn drift_keeps_the_pattern_and_changes_the_values() {
        let base = random_dominant(100, 4.0, 3);
        let d1 = drift(&base, 1);
        let d2 = drift(&base, 2);
        assert_eq!(d1.col_idx, base.col_idx);
        assert_eq!(d1.row_ptr, base.row_ptr);
        assert_ne!(d1.vals, base.vals);
        assert_ne!(d1.vals, d2.vals);
        assert_eq!(bits(&d1), bits(&drift(&base, 1)));
    }

    #[test]
    fn column_scaling_changes_values_by_exact_powers_of_two() {
        let base = random_dominant(120, 4.0, 4);
        let a = scale_columns_pow2(&base, 5);
        assert_eq!(a.col_idx, base.col_idx);
        assert_ne!(a.vals, base.vals);
        assert_ne!(a.vals, scale_columns_pow2(&base, 6).vals);
        for (x, y) in a.vals.iter().zip(&base.vals) {
            let r = x / y;
            assert!([0.25, 0.5, 1.0, 2.0, 4.0].contains(&r), "ratio {r}");
        }
    }

    #[test]
    fn planar_family_arrives_with_a_full_diagonal() {
        let a = family_matrix(Family::Planar, 400, 5.0, 5);
        assert!(a.has_full_diagonal());
    }

    #[test]
    fn sub_streams_are_distinct() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 3), mix(5, 3));
    }
}
