//! Hard-traffic chaos suite: the adversarial corpus from
//! [`gplu::sparse::gen::hard`] driven through the full pipeline under the
//! pivoting policies.
//!
//! The robustness contract is that every job terminates in **exactly one**
//! of three states — and never in a fourth, silent-wrong-answer state:
//!
//! 1. **gate pass** — `Ok`, and the returned factors independently
//!    reproduce the residual the acceptance gate saw (re-verified here
//!    from scratch against the preprocessed system);
//! 2. **recovered** — `Ok` with a non-empty recovery log (pivot repairs /
//!    perturbations / escalations), and the factors *still* verify;
//! 3. **typed rejection** — a [`GpluError::NumericallySingular`],
//!    [`GpluError::SingularPivot`], or structural sparse error; never a
//!    panic, never a device/crash error dressed up as a numeric one.
//!
//! Every case is deterministic: inputs derive from the case index, and
//! `GPLU_CHAOS_SEED` (the CI seed matrix) offsets the matrix seeds so each
//! CI shard explores a different slice of the corpus.

mod common;

use common::{
    assert_bits_eq, assert_contract, assert_factors_bits_eq, gpu_for, seed_base, FORMATS,
};
use gplu::core::DEFAULT_PIVOT_TAU;
use gplu::prelude::*;
use gplu::sparse::gen::hard::HardKind;
use gplu::sparse::gen::random::random_dominant;
use gplu::sparse::verify::{check_solution, residual_probe};
use proptest::prelude::*;

/// Both sides of the acceptance criterion: no pivoting (the GLU-family
/// assumption) and threshold pivoting at the default tau.
const POLICIES: [PivotPolicy; 2] = [
    PivotPolicy::NoPivot,
    PivotPolicy::Threshold {
        tau: DEFAULT_PIVOT_TAU,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // 256 cases x 2 policies = 512 seeded schedules per shard.
    #[test]
    fn hard_corpus_terminates_in_one_of_three_states(
        kind_idx in 0usize..4,
        n in 40usize..140,
        mseed in 0u64..10_000,
    ) {
        let kind = HardKind::ALL[kind_idx];
        let a = kind.generate(n, mseed.wrapping_add(seed_base("GPLU_CHAOS_SEED").wrapping_mul(1_000_003)));
        for policy in POLICIES {
            let opts = LuOptions::default().with_pivot(policy);
            let ctx = format!("{} n={n} seed={mseed} policy={policy:?}", kind.name());
            let state =
                assert_contract(&LuFactorization::compute(&gpu_for(&a), &a, &opts), &ctx);
            prop_assert!(
                ["gate-pass", "recovered", "rejected"].contains(&state),
                "unknown state {state}"
            );
        }
    }

    // The escalation ladder turns NoPivot rejections into recoveries (or
    // keeps them typed) — it must never invent a fourth state either.
    #[test]
    fn escalation_ladder_stays_inside_the_contract(
        kind_idx in 0usize..4,
        n in 40usize..120,
        mseed in 0u64..10_000,
    ) {
        let kind = HardKind::ALL[kind_idx];
        let a = kind.generate(n, mseed.wrapping_add(seed_base("GPLU_CHAOS_SEED").wrapping_mul(1_000_003)));
        let mut opts = LuOptions::default();
        opts.gate.escalate = true;
        let ctx = format!("{} n={n} seed={mseed} escalating", kind.name());
        match LuFactorization::compute(&gpu_for(&a), &a, &opts) {
            Ok(f) => {
                let r = residual_probe(&f.preprocessed, &f.lu, 2);
                prop_assert!(
                    r <= opts.gate.threshold,
                    "{}: ladder-accepted factors re-verify at {r:.3e}", ctx
                );
            }
            Err(e @ (GpluError::NumericallySingular { .. }
                | GpluError::SingularPivot { .. }
                | GpluError::Sparse(_))) => {
                // The ladder climbed before giving up: the typed rejection
                // reports how many rungs were tried.
                if let GpluError::NumericallySingular { attempts, .. } = e {
                    prop_assert!(attempts >= 1, "{}: zero attempts reported", ctx);
                }
            }
            Err(other) => prop_assert!(false, "{}: untyped failure {other}", ctx),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Satellite: a RefactorPlan captured under threshold pivoting replays
    // bit-identically on same-pattern values, and stays correct under
    // uniform value drift (threshold comparisons are scale-invariant, so
    // the captured row order cannot go stale).
    #[test]
    fn threshold_plans_replay_bit_identically_and_survive_uniform_drift(
        n in 60usize..140,
        mseed in 0u64..10_000,
        scale_k in 1u32..9,
    ) {
        let a = random_dominant(n, 4.0, mseed.wrapping_add(seed_base("GPLU_CHAOS_SEED")));
        let opts = LuOptions::default().with_pivot(PivotPolicy::Threshold {
            tau: DEFAULT_PIVOT_TAU,
        });
        let cold = LuFactorization::compute(&gpu_for(&a), &a, &opts)
            .expect("dominant cold run succeeds");
        let plan = cold.refactor_plan(&a, &opts).expect("plan");

        // Same values: the warm path must reproduce the cold factors bit
        // for bit (same kernels, same schedule, same pivot order).
        let warm = plan.refactorize(&gpu_for(&a), &a).expect("replay");
        assert_bits_eq(&warm.lu.vals, &cold.lu.vals, "replay drifted");
        prop_assert_eq!(&warm.lu.col_ptr, &cold.lu.col_ptr, "pattern drifted");

        // Uniform scaling preserves every tau comparison, so the captured
        // order stays valid and the warm factors still solve the system.
        let c = 10f64.powi(scale_k as i32 - 4);
        let mut b = a.clone();
        for v in &mut b.vals {
            *v *= c;
        }
        let warm = plan.refactorize(&gpu_for(&b), &b).expect("scaled replay");
        let x_true = vec![1.0; n];
        let rhs = b.spmv(&x_true);
        let x = warm.solve(&rhs).expect("solve");
        prop_assert!(
            check_solution(&b, &x, &rhs, 1e-6),
            "scaled replay produced a wrong solution (c={c})"
        );
    }
}

/// All five numeric formats produce bit-identical factors under each
/// pivoting policy on the hard corpus — the engines share one kernel
/// core, so robustness features cannot fork their answers.
#[test]
fn all_five_formats_agree_bitwise_under_each_policy_on_hard_traffic() {
    let policies = [
        PivotPolicy::NoPivot,
        PivotPolicy::Static { threshold: 1e-8 },
        PivotPolicy::Threshold {
            tau: DEFAULT_PIVOT_TAU,
        },
    ];
    for kind in HardKind::ALL {
        let a = kind.generate(120, 31 + seed_base("GPLU_CHAOS_SEED"));
        for policy in policies {
            let run = |format| {
                let opts = LuOptions {
                    format,
                    ..LuOptions::default().with_pivot(policy)
                };
                LuFactorization::compute(&gpu_for(&a), &a, &opts)
            };
            let (ref_fmt, reference) = (FORMATS[0], run(FORMATS[0]));
            for format in &FORMATS[1..] {
                let ctx = format!(
                    "{}: {format:?} vs {ref_fmt:?} under {policy:?}",
                    kind.name()
                );
                match (&reference, &run(*format)) {
                    (Ok(want), Ok(got)) => assert_factors_bits_eq(got, want, &ctx),
                    (Err(want), Err(got)) => assert_eq!(
                        std::mem::discriminant(want),
                        std::mem::discriminant(got),
                        "{ctx}: fails differently ({got} vs {want})"
                    ),
                    (want, got) => panic!(
                        "{ctx}: split Ok/Err: {:?} vs {:?}",
                        want.as_ref().map(|_| "ok").map_err(|e| e.to_string()),
                        got.as_ref().map(|_| "ok").map_err(|e| e.to_string()),
                    ),
                }
            }
        }
    }
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x100_0000_01b3)
    })
}

/// The factors (pattern and value bits) and the row order they were
/// taken in.
fn factor_hash(f: &LuFactorization) -> u64 {
    let lu = &f.lu;
    let pattern = lu.col_ptr.iter().map(|&p| p as u64);
    let rows = lu.row_idx.iter().map(|&r| r as u64);
    let vals = lu.vals.iter().map(|v| v.to_bits());
    let order = (0..lu.n_rows()).map(|i| f.p_row.apply(i) as u64);
    fnv(pattern.chain(rows).chain(vals).chain(order))
}

/// Every [`PhaseReport`] field a run under threshold pivoting fills in,
/// f64s by their bits.
fn report_hash(r: &PhaseReport) -> u64 {
    let times = [r.preprocess, r.symbolic, r.levelize, r.numeric].map(|t| t.as_ns().to_bits());
    let counts = [
        r.new_fill_ins,
        r.fill_nnz,
        r.chunk_size,
        r.symbolic_iterations,
        r.n_levels,
        r.max_level_width,
        r.mode_mix.0,
        r.mode_mix.1,
        r.mode_mix.2,
        r.m_limit.map_or(usize::MAX, |m| m),
        r.repaired_diagonals,
        r.pivot_swaps,
        r.pattern_expanded,
    ]
    .map(|c| c as u64);
    let engine = [r.probes, r.merge_steps, r.gemm_tiles];
    let residual = r.residual.map_or(u64::MAX, f64::to_bits);
    // Debug prints every f64 in its shortest round-trip form.
    let text = format!("{:?} {:?}", r.phase_stats, r.recovery);
    fnv(times
        .into_iter()
        .chain(counts)
        .chain(engine)
        .chain([residual])
        .chain(text.bytes().map(u64::from)))
}

/// Threshold pivoting at the default tau with escalation, pinned on one
/// dominant matrix (no swaps: the discovery sweep's factors are the
/// numeric phase's), on one device and on a two-device fleet, and one
/// matrix per hard family (swaps, rejections and escalations). Per case: the factor hash, the report hash, the bits of
/// `report.total()` and of the device clock afterwards. The literals were
/// taken when discovery still ran `discover_pivots` alone and the numeric
/// phase eliminated every column itself.
#[test]
fn threshold_pivoting_is_pinned_per_family() {
    const PINS: [(&str, u64, u64, u64, u64); 5] = [
        (
            "dominant",
            0x85545838054d20ab,
            0x9e768b06c5e8ee38,
            0x410ef34f11111103,
            0x41331f35e2222220,
        ),
        (
            "near_singular",
            0xb0d9998c950b8c73,
            0x5a5f651ed4ac57a6,
            0x410341b71ad1ad18,
            0x4109ec803f63f63c,
        ),
        (
            "graded",
            0x66fb0dda60407345,
            0xb77da69563dfc050,
            0x410384fe4e04e04f,
            0x4109350bd41d41d5,
        ),
        (
            "zero_diag",
            0x3c3f54c499e116d6,
            0x13e7c0cf3406bbd6,
            0x4104214a2702702c,
            0x410938d22702702c,
        ),
        (
            "sign_alternating",
            0x626ab5c1f6dbd6d8,
            0xda744e766d46b4da,
            0x41041acecccccccf,
            0x4115a64dc7ec7ec9,
        ),
    ];
    let mut cases = vec![("dominant", random_dominant(300, 4.0, 9))];
    cases.extend(HardKind::ALL.map(|k| (k.name(), k.generate(160, 17))));
    let mut opts = LuOptions::default().with_pivot(PivotPolicy::Threshold {
        tau: DEFAULT_PIVOT_TAU,
    });
    opts.gate.escalate = true;
    let got: Vec<(&str, u64, u64, u64, u64)> = cases
        .iter()
        .map(|(name, a)| {
            let gpu = gpu_for(a);
            let (factors, report, total) = match LuFactorization::compute(&gpu, a, &opts) {
                Ok(f) => (
                    factor_hash(&f),
                    report_hash(&f.report),
                    f.report.total().as_ns().to_bits(),
                ),
                Err(e) => (fnv(e.to_string().bytes().map(u64::from)), 0, 0),
            };
            (*name, factors, report, total, gpu.now().as_ns().to_bits())
        })
        .collect();
    assert_eq!(got, PINS, "actual: {got:#x?}");

    // The dominant matrix on a two-device fleet: the same factors.
    let a = &cases[0].1;
    let fleet = DeviceFleet::new(2, GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()));
    let f = LuFactorization::compute_fleet(&fleet, a, &opts).expect("dominant");
    let got = (
        factor_hash(&f),
        report_hash(&f.report),
        f.report.total().as_ns().to_bits(),
        fleet.makespan().as_ns().to_bits(),
    );
    let want = (
        0x85545838054d20ab,
        0xe9c2302381773d6d,
        0x410f2b9711111103,
        0x4133263ee2222220,
    );
    assert_eq!(got, want, "actual: {got:#x?}");
}
