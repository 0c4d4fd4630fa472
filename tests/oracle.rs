//! The solution the device hands back, checked against an independent
//! oracle: dense LU with partial pivoting
//! ([`gplu::sparse::Dense::lu_partial_pivot`]). The residual gate and
//! every engine share the sparse arithmetic core, so both could be wrong
//! together; the oracle shares no ordering, pattern, pivot order or
//! arithmetic with them.
//!
//! Every generator family at `n ≤ 150` — circuit, mesh, planar, banded
//! and the adversarial `gen::hard` corpus — crossed with every numeric
//! format: `compute`, then `solve_on_gpu`, must land within 1e-8
//! (relative, max-norm) of the oracle's `x`. `tests/product.rs` holds the
//! same bound over every pivot policy, device count and resume.

mod common;

use common::{gpu_for, system_modified, FORMATS};
use gplu::core::{PreprocessOptions, DEFAULT_PIVOT_TAU};
use gplu::prelude::*;
use gplu::sparse::convert::csr_to_dense;
use gplu::sparse::gen::hard::{self, HardKind};
use gplu::sparse::gen::{circuit, mesh, planar, random};

fn corpus() -> Vec<(String, Csr)> {
    let mut out = Vec::new();
    for seed in 0..3u64 {
        let n = 60 + 40 * seed as usize;
        out.push((
            format!("circuit/{seed}"),
            circuit::circuit(&circuit::CircuitParams {
                n,
                nnz_per_row: 5.0,
                seed,
                ..Default::default()
            }),
        ));
        let grid = mesh::MeshParams::for_target(n, 7.0, seed);
        out.push((format!("mesh/{seed}"), mesh::mesh(&grid)));
        let tri = planar::PlanarParams::for_target(n, 6.0, seed);
        out.push((format!("planar/{seed}"), planar::planar(&tri)));
        let band = random::banded_dominant(n, 2 + seed as usize, seed);
        out.push((format!("banded/{seed}"), band));
        for kind in HardKind::ALL {
            // `HardKind::Graded` spans 8 decades, where the condition
            // number puts a 1e-8 forward error out of reach of any
            // backward-stable solver (the engines and the oracle differ by
            // 5e-8–3e-6 there). Four decades keep the grading and the bound.
            let a = match kind {
                HardKind::Graded => hard::graded(n, 4, 100 + seed),
                _ => kind.generate(n, 100 + seed),
            };
            out.push((format!("{}/{seed}", kind.name()), a));
        }
    }
    out
}

#[test]
fn device_solutions_match_a_dense_partial_pivoting_oracle() {
    // Static pivoting and threshold pivoting factor every case as given:
    // no diagonal is repaired or perturbed, so the factors answer the
    // oracle's question.
    let opts = |format| LuOptions {
        format,
        preprocess: PreprocessOptions {
            static_pivot: true,
            ..Default::default()
        },
        pivot: PivotPolicy::Threshold {
            tau: DEFAULT_PIVOT_TAU,
        },
        gate: ResidualGate {
            escalate: true,
            ..Default::default()
        },
        ..Default::default()
    };
    for (name, a) in corpus() {
        let n = a.n_rows();
        assert!(n <= 150, "{name}: n = {n}");
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 / 7.0).collect();
        let b = a.spmv(&x_true);
        let oracle = csr_to_dense(&a)
            .lu_partial_pivot()
            .unwrap_or_else(|e| panic!("{name}: oracle: {e}"))
            .solve(&b);
        let scale = oracle.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for format in FORMATS {
            let label = format!("{name} {format:?}");
            let gpu = gpu_for(&a);
            let f = LuFactorization::compute(&gpu, &a, &opts(format))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(!system_modified(&f), "{label}: {:?}", f.report.recovery);
            let (x, _) = f
                .solve_on_gpu(&gpu, &f.solve_plan(), &b)
                .unwrap_or_else(|e| panic!("{label}: solve: {e}"));
            let err = x
                .iter()
                .zip(&oracle)
                .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
            assert!(
                err <= 1e-8 * scale,
                "{label}: |x - x_oracle| = {err:.3e} against |x_oracle| = {scale:.3e}"
            );
        }
    }
}
