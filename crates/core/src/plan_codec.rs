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

use crate::error::GpluError;
use crate::pipeline::{NumericFormat, ResidualGate};
use crate::refactor::RefactorPlan;
use gplu_checkpoint::{
    decode_csc, decode_csr, decode_perm, encode_csc, encode_csr, encode_perm, section, Dec, Enc,
    Snapshot,
};
use gplu_numeric::{BlockPlan, PivotCache, PivotPolicy};
use gplu_schedule::Levels;

/// Version of the plan sections' layout. Bumped on any incompatible
/// change; decoders reject other versions rather than guessing.
pub const PLAN_SCHEMA_VERSION: u32 = 1;

fn corrupt(msg: String) -> GpluError {
    GpluError::CheckpointCorrupt(msg)
}

fn corrupt_ck(e: gplu_checkpoint::CheckpointError) -> GpluError {
    GpluError::from(e)
}

fn expect_drained(d: &Dec<'_>, what: &str) -> Result<(), GpluError> {
    if d.remaining() != 0 {
        return Err(corrupt(format!(
            "{what} section has {} trailing byte(s)",
            d.remaining()
        )));
    }
    Ok(())
}

fn format_tag(f: NumericFormat) -> u8 {
    match f {
        NumericFormat::Dense => 0,
        NumericFormat::Sparse => 1,
        NumericFormat::SparseMerge => 2,
        NumericFormat::SparseBlocked => 3,
        NumericFormat::Auto => 255,
    }
}

fn format_from_tag(t: u8) -> Result<NumericFormat, GpluError> {
    match t {
        0 => Ok(NumericFormat::Dense),
        1 => Ok(NumericFormat::Sparse),
        2 => Ok(NumericFormat::SparseMerge),
        3 => Ok(NumericFormat::SparseBlocked),
        // Unlike partial numeric snapshots, Auto is a valid *plan*
        // format: the warm path carries its own replay ladder for it.
        255 => Ok(NumericFormat::Auto),
        other => Err(corrupt(format!("unknown numeric format tag {other}"))),
    }
}

fn policy_tag(p: PivotPolicy) -> (u8, f64) {
    match p {
        PivotPolicy::NoPivot => (0, 0.0),
        PivotPolicy::Static { threshold } => (1, threshold),
        PivotPolicy::Threshold { tau } => (2, tau),
    }
}

fn policy_from_tag(tag: u8, param: f64) -> Result<PivotPolicy, GpluError> {
    match tag {
        0 => Ok(PivotPolicy::NoPivot),
        1 => Ok(PivotPolicy::Static { threshold: param }),
        2 => Ok(PivotPolicy::Threshold { tau: param }),
        other => Err(corrupt(format!("unknown pivot policy tag {other}"))),
    }
}

/// Serializes `plan` into a two-section snapshot keyed by its pattern
/// fingerprint.
pub fn encode_plan(plan: &RefactorPlan) -> Snapshot {
    let mut meta = Enc::new();
    meta.u32(PLAN_SCHEMA_VERSION);
    meta.u64(plan.pattern_fp);
    meta.u8(format_tag(plan.format));

    let mut body = Enc::new();
    encode_perm(&mut body, &plan.p_row);
    encode_perm(&mut body, &plan.p_col);
    encode_csr(&mut body, &plan.pre);
    encode_csc(&mut body, &plan.lu_pattern);
    body.vec_u32(&plan.levels.level_of);
    body.vec_usize(&plan.scatter_pre);
    body.vec_usize(&plan.pre_diag);
    body.vec_usize(&plan.pre_to_csc);
    match &plan.block_plan {
        Some(bp) => {
            body.u8(1);
            body.f64(bp.threshold);
        }
        None => {
            body.u8(0);
            body.f64(0.0);
        }
    }
    body.f64(plan.repair_value);
    body.u8(u8::from(plan.repair_singular));
    let (ptag, pparam) = policy_tag(plan.pivot_policy);
    body.u8(ptag);
    body.f64(pparam);
    body.u8(u8::from(plan.gate.enabled));
    body.f64(plan.gate.threshold);
    body.usize(plan.gate.probes);
    body.u8(u8::from(plan.gate.escalate));

    let mut snap = Snapshot::new();
    snap.add_section(section::PLAN_META, meta.into_bytes());
    snap.add_section(section::PLAN_BODY, body.into_bytes());
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
    let meta = snap
        .section(section::PLAN_META)
        .ok_or_else(|| corrupt("plan snapshot lacks PLAN_META section".into()))?;
    let mut d = Dec::new(meta);
    let version = d.u32("plan.schema_version").map_err(corrupt_ck)?;
    if version != PLAN_SCHEMA_VERSION {
        return Err(GpluError::CheckpointMismatch(format!(
            "plan schema version {version} (this build reads {PLAN_SCHEMA_VERSION})"
        )));
    }
    let pattern_fp = d.u64("plan.pattern_fp").map_err(corrupt_ck)?;
    if pattern_fp != expected_fp {
        return Err(GpluError::CheckpointMismatch(format!(
            "plan fingerprint {pattern_fp:016x} does not match expected {expected_fp:016x}"
        )));
    }
    let format = format_from_tag(d.u8("plan.format").map_err(corrupt_ck)?)?;
    expect_drained(&d, "PLAN_META")?;

    let body = snap
        .section(section::PLAN_BODY)
        .ok_or_else(|| corrupt("plan snapshot lacks PLAN_BODY section".into()))?;
    let mut d = Dec::new(body);
    let p_row = decode_perm(&mut d).map_err(corrupt_ck)?;
    let p_col = decode_perm(&mut d).map_err(corrupt_ck)?;
    let pre = decode_csr(&mut d).map_err(corrupt_ck)?;
    let lu_pattern = decode_csc(&mut d).map_err(corrupt_ck)?;
    let level_of = d.vec_u32("plan.level_of").map_err(corrupt_ck)?;
    let scatter_pre = d.vec_usize("plan.scatter_pre").map_err(corrupt_ck)?;
    let pre_diag = d.vec_usize("plan.pre_diag").map_err(corrupt_ck)?;
    let pre_to_csc = d.vec_usize("plan.pre_to_csc").map_err(corrupt_ck)?;
    let has_block = d.u8("plan.has_block").map_err(corrupt_ck)?;
    let block_threshold = d.f64("plan.block_threshold").map_err(corrupt_ck)?;
    let repair_value = d.f64("plan.repair_value").map_err(corrupt_ck)?;
    let repair_singular = d.u8("plan.repair_singular").map_err(corrupt_ck)? != 0;
    let ptag = d.u8("plan.pivot_policy").map_err(corrupt_ck)?;
    let pparam = d.f64("plan.pivot_param").map_err(corrupt_ck)?;
    let pivot_policy = policy_from_tag(ptag, pparam)?;
    let gate = ResidualGate {
        enabled: d.u8("plan.gate_enabled").map_err(corrupt_ck)? != 0,
        threshold: d.f64("plan.gate_threshold").map_err(corrupt_ck)?,
        probes: d.usize("plan.gate_probes").map_err(corrupt_ck)?,
        escalate: d.u8("plan.gate_escalate").map_err(corrupt_ck)? != 0,
    };
    expect_drained(&d, "PLAN_BODY")?;

    // Cross-structure consistency: all the invariants `refactor_plan`
    // guarantees by construction must be re-proven here, because the
    // warm path indexes these vectors without bounds checks.
    let n = pre.n_rows();
    if pre.n_cols() != n || lu_pattern.n_rows() != n || lu_pattern.n_cols() != n {
        return Err(corrupt(format!(
            "plan structures disagree on dimension: pre {}x{}, lu {}x{}",
            pre.n_rows(),
            pre.n_cols(),
            lu_pattern.n_rows(),
            lu_pattern.n_cols()
        )));
    }
    if p_row.len() != n || p_col.len() != n {
        return Err(corrupt("plan permutations do not match dimension".into()));
    }
    if level_of.len() != n {
        return Err(corrupt(format!(
            "plan level schedule covers {} of {n} columns",
            level_of.len()
        )));
    }
    if pre_diag.len() != n {
        return Err(corrupt(format!(
            "plan diagonal map covers {} of {n} rows",
            pre_diag.len()
        )));
    }
    if pre_to_csc.len() != pre.nnz() {
        return Err(corrupt(format!(
            "plan pre_to_csc maps {} of {} template entries",
            pre_to_csc.len(),
            pre.nnz()
        )));
    }
    let pre_nnz = pre.nnz();
    let lu_nnz = lu_pattern.nnz();
    if scatter_pre.iter().any(|&p| p >= pre_nnz) || pre_diag.iter().any(|&p| p >= pre_nnz) {
        return Err(corrupt("plan scatter index out of bounds".into()));
    }
    if pre_to_csc.iter().any(|&p| p >= lu_nnz) {
        return Err(corrupt("plan pre_to_csc index out of bounds".into()));
    }
    // The fingerprint in META must actually describe the *permuted input
    // structure* this plan replays: recompute it from the template the
    // way `refactor_plan` derived it (unpermute `pre`'s pattern through
    // the captured permutations) is not possible without the original
    // matrix, but the scatter map length pins the original nnz and the
    // permutations pin the dimension — enough that a forged body cannot
    // serve a differently-shaped matrix.

    // Derivable artifacts are rebuilt from the validated pattern.
    let pivot = PivotCache::build(&lu_pattern);
    let block_plan =
        (has_block != 0).then(|| BlockPlan::detect(&lu_pattern, &pivot, block_threshold));
    let levels = Levels::from_level_of(level_of);

    Ok(RefactorPlan {
        pattern_fp,
        p_row,
        p_col,
        pre,
        lu_pattern,
        levels,
        pivot,
        scatter_pre,
        pre_diag,
        pre_to_csc,
        block_plan,
        format,
        repair_value,
        repair_singular,
        pivot_policy,
        gate,
    })
}

/// Convenience: does this snapshot carry a plan for `fp` that this build
/// can read? Used by rewarm scans to skip foreign entries cheaply.
pub fn plan_matches(snap: &Snapshot, fp: u64) -> bool {
    let Some(meta) = snap.section(section::PLAN_META) else {
        return false;
    };
    let mut d = Dec::new(meta);
    matches!(d.u32("v"), Ok(PLAN_SCHEMA_VERSION)) && matches!(d.u64("fp"), Ok(got) if got == fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{LuFactorization, LuOptions};
    use gplu_sim::{Gpu, GpuConfig};
    use gplu_sparse::gen::circuit::{circuit, CircuitParams};

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
        assert!(plan_matches(&back, plan.pattern_fp()));
        assert!(!plan_matches(&back, plan.pattern_fp() ^ 1));

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
        meta.u32(PLAN_SCHEMA_VERSION + 1);
        meta.u64(plan.pattern_fp());
        meta.u8(2);
        let mut forged = snap.clone();
        forged.add_section(section::PLAN_META, meta.into_bytes());
        let err = decode_plan(&forged, plan.pattern_fp()).unwrap_err();
        assert!(matches!(err, GpluError::CheckpointMismatch(_)), "{err:?}");
        assert!(!plan_matches(&forged, plan.pattern_fp()));
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
