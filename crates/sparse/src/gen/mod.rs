//! Synthetic matrix generators.
//!
//! The paper evaluates on SuiteSparse matrices (Tables 2 and 4). Those exact
//! inputs are not redistributable inside this repository, so each one gets a
//! *synthetic analog* that preserves the properties the experiments depend
//! on: the dimension `n`, the density `nnz/n` (the variable Figure 4's
//! speedup analysis correlates with), the broad pattern family (circuit
//! netlist vs FEM mesh vs planar graph), and — for Table 4 — structurally
//! deficient diagonals.
//!
//! Generators:
//! * [`circuit`] — unsymmetric, power-law-ish degree netlists (g7jac200sc,
//!   pre2, onetone*, rajat15, bbmat, mixtank, Goodwin, rma10 analogs),
//! * [`mesh`] — near-symmetric multi-DOF FEM stencils (inline_1, crankseg*,
//!   bmw*, apache2, s3dk*, windtunnel, audikw_1 analogs),
//! * [`planar`] — planar triangulation-like graphs with *missing diagonals*
//!   (hugetrace, delaunay_n24, hugebubbles analogs of Table 4),
//! * [`random`] — plain uniform sparsity for tests and property checks,
//! * [`hard`] — deliberately ill-conditioned families (near-singular,
//!   graded, missing-diagonal, sign-alternating) for the robustness
//!   ladder and the chaos suites,
//! * [`suite`] — the named paper suites at a configurable scale.
//!
//! All generators produce diagonally dominant values (except `planar`,
//! which deliberately omits diagonals until repaired) so LU factorization
//! without pivoting succeeds, matching the GLU-family assumption.

pub mod circuit;
pub mod hard;
pub mod mesh;
pub mod planar;
pub mod random;
pub mod suite;

use crate::{convert, Coo, Csr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG used by every generator — experiments must be
/// reproducible run to run.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Assembles a COO off-diagonal pattern into a diagonally dominant CSR:
/// duplicates are summed, then each diagonal is set to
/// `sum(|off-diagonal in row|) + bump` so no pivoting is needed.
pub fn assemble_dominant(mut coo: Coo, bump: f64) -> Csr {
    let n = coo.n_rows();
    coo.sum_duplicates();
    let mut row_abs = vec![0.0f64; n];
    for (i, j, v) in coo.iter() {
        if i != j {
            row_abs[i] += v.abs();
        }
    }
    // Drop any existing diagonal entries and re-add dominant ones.
    let mut out = Coo::with_capacity(n, coo.n_cols(), coo.nnz() + n);
    for (i, j, v) in coo.iter() {
        if i != j {
            out.push(i, j, v);
        }
    }
    for (i, &dom) in row_abs.iter().enumerate() {
        out.push(i, i, dom + bump);
    }
    convert::coo_to_csr(&out)
}

/// Draws a nonzero value in `[-1, -0.1] ∪ [0.1, 1]` — bounded away from
/// zero so cancellation cannot produce accidental zero pivots downstream.
pub fn draw_val<R: Rng>(rng: &mut R) -> f64 {
    let mag: f64 = rng.gen_range(0.1..1.0);
    if rng.gen_bool(0.5) {
        mag
    } else {
        -mag
    }
}

/// Every generator family the pipeline orders, at two sizes each:
/// circuit, planar with missing diagonals, banded, uniform random and
/// each adversarial kind — the corpus the per-family pins (orderings,
/// factor bits) run over.
pub fn families() -> Vec<(String, Csr)> {
    let mut out = Vec::new();
    for (k, n) in [300usize, 2000].into_iter().enumerate() {
        let seed = 11 + k as u64;
        let circuit = circuit::circuit(&circuit::CircuitParams {
            n,
            nnz_per_row: 7.0,
            seed,
            ..Default::default()
        });
        let planar = planar::planar(&planar::PlanarParams::for_target(n, 5.0, seed));
        out.push((format!("circuit/{n}"), circuit));
        out.push((format!("planar/{n}"), planar));
        out.push((format!("banded/{n}"), random::banded_dominant(n, 3, seed)));
        out.push((format!("random/{n}"), random::random_dominant(n, 5.0, seed)));
        // The kinds share one skeleton per seed; distinct seeds keep
        // their patterns apart.
        for (s, kind) in (seed..).zip(hard::HardKind::ALL) {
            out.push((format!("{}/{n}", kind.name()), kind.generate(n, s)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_dominant_is_dominant_and_full_diagonal() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, -0.5);
        coo.push(0, 2, 0.25);
        coo.push(3, 0, 0.9);
        let a = assemble_dominant(coo, 1.0);
        assert!(a.has_full_diagonal());
        assert_eq!(a.get(0, 0), Some(0.75 + 1.0));
        assert_eq!(a.get(1, 1), Some(1.0));
        // Diagonal strictly dominates each row.
        for i in 0..4 {
            let off: f64 = a
                .row_iter(i)
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(i, i).expect("diag") > off);
        }
    }

    #[test]
    fn assemble_dominant_replaces_existing_diagonal() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 99.0);
        coo.push(0, 1, 1.0);
        let a = assemble_dominant(coo, 0.5);
        assert_eq!(a.get(0, 0), Some(1.5));
    }

    #[test]
    fn draw_val_bounded_away_from_zero() {
        let mut r = rng(7);
        for _ in 0..100 {
            let v = draw_val(&mut r);
            assert!(v.abs() >= 0.1 && v.abs() < 1.0);
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let a: u64 = rng(42).gen();
        let b: u64 = rng(42).gen();
        assert_eq!(a, b);
    }
}
