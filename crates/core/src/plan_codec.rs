//! [`RefactorPlan`] ↔ checkpoint-snapshot round-trip — the disk tier's
//! wire format.
//!
//! The factor cache's persistent tier stores whole refactorization plans
//! so a restarted service can serve warm traffic without re-running any
//! symbolic work. A plan snapshot carries two sections:
//!
//! * [`section::PLAN_META`] — plan schema version, pattern fingerprint,
//!   numeric-format tag. Checked *first* on decode so a cross-version or
//!   cross-pattern entry is rejected with a typed error before any body
//!   bytes are trusted.
//! * [`section::PLAN_BODY`] — permutations, the pre-processed CSR
//!   template, the filled CSC pattern, the level schedule, the scatter
//!   maps, and the numeric policies (pivoting, residual gate, repair).
//!
//! Derivable artifacts are **rebuilt, not serialized**: the
//! [`PivotCache`] and the supernode [`BlockPlan`] are pure functions of
//! the decoded pattern, so re-deriving them keeps the format small and
//! makes it impossible for a checksum-passing-but-forged body to pair a
//! pattern with someone else's positions (the classic desync that turns
//! a cache hit into wrong factors).
//!
//! Decoding treats the snapshot as untrusted input even though every
//! section already passed its XXH64 checksum: all vector lengths and
//! scatter indices are re-validated against the decoded structures, and
//! every failure is a typed [`GpluError`] — the caller falls back to a
//! cold factorization, never panics, never serves a questionable plan.

use crate::checkpoint::{corrupt, FORMATS};
use crate::error::GpluError;
use crate::refactor::RefactorPlan;
use gplu_checkpoint::{decode, encode, section, CheckpointError, Codec, Snapshot};
use gplu_numeric::{BlockPlan, PivotCache, PivotPolicy};
use gplu_schedule::Levels;

/// Version of the plan sections' layout. Bumped on any incompatible
/// change; decoders reject other versions rather than guessing.
pub const PLAN_SCHEMA_VERSION: u32 = 1;

/// Each policy's parameter follows its tag (`0.0` for `NoPivot`).
const POLICIES: [(u8, PivotPolicy); 3] = [
    (0, PivotPolicy::NoPivot),
    (1, PivotPolicy::Static { threshold: 0.0 }),
    (2, PivotPolicy::Threshold { tau: 0.0 }),
];

/// The schema version, the pattern fingerprint and the format. The
/// version and the fingerprint are checked as soon as they are read, so
/// a cross-version or misfiled entry is a typed mismatch before any other
/// byte is trusted.
fn plan_meta<C: Codec>(c: &mut C, p: &mut RefactorPlan, expected_fp: u64) -> Result<(), GpluError> {
    let mut version = PLAN_SCHEMA_VERSION;
    c.field(&mut version, "plan.schema_version")?;
    if version != PLAN_SCHEMA_VERSION {
        return Err(GpluError::CheckpointMismatch(format!(
            "plan schema version {version} (this build reads {PLAN_SCHEMA_VERSION})"
        )));
    }
    c.field(&mut p.pattern_fp, "plan.pattern_fp")?;
    if p.pattern_fp != expected_fp {
        return Err(GpluError::CheckpointMismatch(format!(
            "plan fingerprint {:016x} does not match expected {expected_fp:016x}",
            p.pattern_fp
        )));
    }
    c.tag(&mut p.format, &FORMATS, "plan.format")?;
    Ok(())
}

/// Everything else the warm path replays. `block` is the supernode
/// threshold the plan re-detects its [`BlockPlan`] at (`None`: no plan).
fn plan_body<C: Codec>(
    c: &mut C,
    p: &mut RefactorPlan,
    block: &mut Option<f64>,
) -> Result<(), CheckpointError> {
    c.field(&mut p.p_row, "plan.p_row")?;
    c.field(&mut p.p_col, "plan.p_col")?;
    c.field(&mut p.pre, "plan.pre")?;
    c.field(&mut p.lu_pattern, "plan.lu_pattern")?;
    c.field(&mut p.levels.level_of, "plan.level_of")?;
    c.field(&mut p.scatter_pre, "plan.scatter_pre")?;
    c.field(&mut p.pre_diag, "plan.pre_diag")?;
    c.field(&mut p.pre_to_csc, "plan.pre_to_csc")?;
    let (mut has_block, mut threshold) = (block.is_some(), block.unwrap_or(0.0));
    c.field(&mut has_block, "plan.has_block")?;
    c.field(&mut threshold, "plan.block_threshold")?;
    *block = has_block.then_some(threshold);
    c.field(&mut p.repair_value, "plan.repair_value")?;
    c.field(&mut p.repair_singular, "plan.repair_singular")?;
    c.tag(&mut p.pivot_policy, &POLICIES, "plan.pivot_policy")?;
    match &mut p.pivot_policy {
        PivotPolicy::NoPivot => c.field(&mut 0.0f64, "plan.pivot_param")?,
        PivotPolicy::Static { threshold: param } | PivotPolicy::Threshold { tau: param } => {
            c.field(param, "plan.pivot_param")?
        }
    }
    c.field(&mut p.gate.enabled, "plan.gate_enabled")?;
    c.field(&mut p.gate.threshold, "plan.gate_threshold")?;
    c.field(&mut p.gate.probes, "plan.gate_probes")?;
    c.field(&mut p.gate.escalate, "plan.gate_escalate")?;
    Ok(())
}

/// Serializes `plan` into a two-section snapshot keyed by its pattern
/// fingerprint. Both directions walk the plan through `&mut`, so this
/// walks a copy; encoding only reads it.
pub fn encode_plan(plan: &RefactorPlan) -> Snapshot {
    let mut plan = plan.clone();
    let fp = plan.pattern_fp;
    let mut block = plan.block_plan.as_ref().map(|b| b.threshold);
    let mut snap = Snapshot::new();
    snap.add_section(
        section::PLAN_META,
        encode(&mut plan, |c, p| plan_meta(c, p, fp)),
    );
    snap.add_section(
        section::PLAN_BODY,
        encode(&mut plan, |c, p| plan_body(c, p, &mut block)),
    );
    snap
}

/// Decodes and fully re-validates a plan snapshot.
///
/// `expected_fp` is the fingerprint the caller indexed the entry under;
/// a mismatch (an entry filed under the wrong key, or a schema drift) is
/// [`GpluError::CheckpointMismatch`], structural damage is
/// [`GpluError::CheckpointCorrupt`]. Either way the caller treats the
/// entry as unusable and falls back to a cold factorization.
pub fn decode_plan(snap: &Snapshot, expected_fp: u64) -> Result<RefactorPlan, GpluError> {
    let section_of = |id: u32, name: &str| {
        snap.section(id)
            .ok_or_else(|| corrupt(format!("plan snapshot lacks {name} section")))
    };
    let mut p = RefactorPlan::default();
    decode(
        section_of(section::PLAN_META, "PLAN_META")?,
        "PLAN_META",
        &mut p,
        |c, p| plan_meta(c, p, expected_fp),
    )?;
    let mut block = None;
    decode(
        section_of(section::PLAN_BODY, "PLAN_BODY")?,
        "PLAN_BODY",
        &mut p,
        |c, p| plan_body(c, p, &mut block),
    )?;

    // Cross-structure consistency: all the invariants `refactor_plan`
    // guarantees by construction must be re-proven here, because the
    // warm path indexes these vectors without bounds checks.
    let n = p.pre.n_rows();
    if p.pre.n_cols() != n || p.lu_pattern.n_rows() != n || p.lu_pattern.n_cols() != n {
        return Err(corrupt(format!(
            "plan structures disagree on dimension: pre {}x{}, lu {}x{}",
            p.pre.n_rows(),
            p.pre.n_cols(),
            p.lu_pattern.n_rows(),
            p.lu_pattern.n_cols()
        )));
    }
    if p.p_row.len() != n || p.p_col.len() != n {
        return Err(corrupt("plan permutations do not match dimension"));
    }
    if p.levels.level_of.len() != n {
        return Err(corrupt(format!(
            "plan level schedule covers {} of {n} columns",
            p.levels.level_of.len()
        )));
    }
    if p.pre_diag.len() != n {
        return Err(corrupt(format!(
            "plan diagonal map covers {} of {n} rows",
            p.pre_diag.len()
        )));
    }
    if p.pre_to_csc.len() != p.pre.nnz() {
        return Err(corrupt(format!(
            "plan pre_to_csc maps {} of {} template entries",
            p.pre_to_csc.len(),
            p.pre.nnz()
        )));
    }
    let pre_nnz = p.pre.nnz();
    if p.scatter_pre
        .iter()
        .chain(&p.pre_diag)
        .any(|&k| k >= pre_nnz)
    {
        return Err(corrupt("plan scatter index out of bounds"));
    }
    if p.pre_to_csc.iter().any(|&k| k >= p.lu_pattern.nnz()) {
        return Err(corrupt("plan pre_to_csc index out of bounds"));
    }
    // The scatter map's length pins the original nnz and the
    // permutations pin the dimension — enough that a forged body cannot
    // serve a differently-shaped matrix. (The fingerprint itself cannot
    // be recomputed without the original matrix.)

    // Derivable artifacts are rebuilt from the validated pattern.
    p.pivot = PivotCache::build(&p.lu_pattern);
    p.block_plan = block.map(|t| BlockPlan::detect(&p.lu_pattern, &p.pivot, t));
    p.levels = Levels::from_level_of(std::mem::take(&mut p.levels.level_of));
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{LuFactorization, LuOptions, NumericFormat};
    use gplu_checkpoint::{Enc, PlanStore};
    use gplu_sim::{Gpu, GpuConfig};
    use gplu_sparse::gen::circuit::{circuit, CircuitParams};
    use std::path::Path;

    fn build_plan(opts: &LuOptions) -> (RefactorPlan, gplu_sparse::Csr) {
        let a = circuit(&CircuitParams {
            n: 120,
            nnz_per_row: 5.0,
            seed: 7,
            ..Default::default()
        });
        let gpu = Gpu::new(GpuConfig::default());
        let f = LuFactorization::compute(&gpu, &a, opts).expect("cold factorization");
        let plan = f.refactor_plan(&a, opts).expect("plan");
        (plan, a)
    }

    #[test]
    fn plan_round_trips_bit_identically() {
        let opts = LuOptions::default();
        let (plan, a) = build_plan(&opts);
        let snap = encode_plan(&plan);
        // Through bytes, as the disk tier would.
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("container ok");
        let decoded = decode_plan(&back, plan.pattern_fp()).expect("decodes");

        assert_eq!(decoded.pattern_fp(), plan.pattern_fp());
        assert_eq!(decoded.n(), plan.n());
        assert_eq!(decoded.approx_bytes(), plan.approx_bytes());

        // The decoded plan factorizes to the same bits as the original.
        let gpu1 = Gpu::new(GpuConfig::default());
        let gpu2 = Gpu::new(GpuConfig::default());
        let f1 = plan.refactorize(&gpu1, &a).expect("warm original");
        let f2 = decoded.refactorize(&gpu2, &a).expect("warm decoded");
        assert_eq!(f1.lu.vals.len(), f2.lu.vals.len());
        for (x, y) in f1.lu.vals.iter().zip(&f2.lu.vals) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn committed_plan_snapshots_decode_and_re_encode_byte_for_byte() {
        // Written by an earlier build's plan store from two 40-row
        // circuits: seed 7 blocked under threshold pivoting, seed 9 with
        // default options.
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/plan");
        let committed = PlanStore::open(&fixtures).unwrap();
        let dir = std::env::temp_dir().join(format!("gplu-plan-fixture-{}", std::process::id()));
        let rewritten = PlanStore::open(&dir).unwrap();
        let blocked = LuOptions {
            format: NumericFormat::SparseBlocked,
            pivot: PivotPolicy::Threshold { tau: 0.1 },
            ..LuOptions::default()
        };
        for (seed, opts) in [(7, blocked), (9, LuOptions::default())] {
            let a = circuit(&CircuitParams {
                n: 40,
                nnz_per_row: 4.0,
                seed,
                ..Default::default()
            });
            let f = LuFactorization::compute(&Gpu::new(GpuConfig::default()), &a, &opts).unwrap();
            let fresh = f.refactor_plan(&a, &opts).unwrap();
            let key = fresh.pattern_fp();
            // The entry loads as committed (the manifest an older build
            // wrote beside it is not a key), and decodes and re-encodes
            // to its own bytes...
            let snap = committed.load(key).unwrap().expect("fixture entry");
            let plan = decode_plan(&snap, key).expect("decodes");
            assert_eq!(plan.block_plan.is_some(), seed == 7);
            assert_eq!(plan.pivot_policy, opts.pivot);
            assert_eq!(encode_plan(&plan), snap, "{key:016x}");
            // ...which are the bytes this build writes for the same plan.
            rewritten.save(key, &encode_plan(&fresh)).unwrap();
            let file = format!("plan-{key:016x}.ckpt");
            assert_eq!(
                std::fs::read(dir.join(&file)).unwrap(),
                std::fs::read(fixtures.join(&file)).unwrap(),
                "{file}"
            );
        }
        // The two stores hold the same snapshot files, and this build
        // wrote nothing beside them.
        assert_eq!(rewritten.keys().unwrap(), committed.keys().unwrap());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blocked_plan_rebuilds_its_block_plan() {
        let opts = LuOptions {
            format: NumericFormat::SparseBlocked,
            ..LuOptions::default()
        };
        let (plan, a) = build_plan(&opts);
        let snap = encode_plan(&plan);
        let decoded = decode_plan(&snap, plan.pattern_fp()).expect("decodes");
        let gpu1 = Gpu::new(GpuConfig::default());
        let gpu2 = Gpu::new(GpuConfig::default());
        let f1 = plan.refactorize(&gpu1, &a).expect("warm original");
        let f2 = decoded.refactorize(&gpu2, &a).expect("warm decoded");
        for (x, y) in f1.lu.vals.iter().zip(&f2.lu.vals) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn wrong_fingerprint_is_a_typed_mismatch() {
        let (plan, _) = build_plan(&LuOptions::default());
        let snap = encode_plan(&plan);
        let err = decode_plan(&snap, plan.pattern_fp() ^ 0xDEAD).unwrap_err();
        assert!(matches!(err, GpluError::CheckpointMismatch(_)), "{err:?}");
    }

    #[test]
    fn future_schema_version_is_rejected() {
        let (plan, _) = build_plan(&LuOptions::default());
        let snap = encode_plan(&plan);
        let mut meta = Enc::new();
        meta.put(&(PLAN_SCHEMA_VERSION + 1));
        meta.put(&plan.pattern_fp());
        meta.put(&2u8);
        let mut forged = snap.clone();
        forged.add_section(section::PLAN_META, meta.into_bytes());
        let err = decode_plan(&forged, plan.pattern_fp()).unwrap_err();
        assert!(matches!(err, GpluError::CheckpointMismatch(_)), "{err:?}");
    }

    #[test]
    fn every_truncation_of_the_body_is_typed_not_a_panic() {
        let (plan, _) = build_plan(&LuOptions::default());
        let snap = encode_plan(&plan);
        let body = snap.section(section::PLAN_BODY).unwrap().to_vec();
        // Stride through prefixes (full per-byte is O(n^2) on a big body).
        for cut in (0..body.len()).step_by(97) {
            let mut t = Snapshot::new();
            t.add_section(
                section::PLAN_META,
                snap.section(section::PLAN_META).unwrap().to_vec(),
            );
            t.add_section(section::PLAN_BODY, body[..cut].to_vec());
            assert!(
                decode_plan(&t, plan.pattern_fp()).is_err(),
                "cut at {cut} must fail, not panic"
            );
        }
    }

    #[test]
    fn out_of_bounds_scatter_indices_are_rejected() {
        // A forged body with a checksum-valid container but a scatter
        // index past the template must be rejected by re-validation.
        let (plan, _) = build_plan(&LuOptions::default());
        let mut hacked = plan.clone();
        hacked.scatter_pre[0] = usize::MAX;
        let snap = encode_plan(&hacked);
        let err = decode_plan(&snap, plan.pattern_fp()).unwrap_err();
        assert!(matches!(err, GpluError::CheckpointCorrupt(_)), "{err:?}");
    }
}
