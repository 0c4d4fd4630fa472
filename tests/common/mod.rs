//! Helpers the root integration suites share. Every suite compiles its
//! own copy of this module, so a helper one suite does not call is dead
//! code there.
#![allow(dead_code)]

use gplu::core::RecoveryAction;
use gplu::prelude::*;
use gplu::sparse::gen::random::banded_dominant;
use gplu::sparse::verify::residual_probe;
use gplu::sparse::Coo;
use gplu::trace::{json, JsonValue};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Every numeric format, `Auto` first.
pub const FORMATS: [NumericFormat; 5] = [
    NumericFormat::Auto,
    NumericFormat::Dense,
    NumericFormat::Sparse,
    NumericFormat::SparseMerge,
    NumericFormat::SparseBlocked,
];

/// Every symbolic engine.
pub const ENGINES: [SymbolicEngine; 4] = [
    SymbolicEngine::Ooc,
    SymbolicEngine::OocDynamic,
    SymbolicEngine::UmNoPrefetch,
    SymbolicEngine::UmPrefetch,
];

/// A V100 too small for `a`'s symbolic intermediates: the paper's
/// out-of-core regime.
pub fn config_for(a: &Csr) -> GpuConfig {
    GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz())
}

/// A fault-free device of [`config_for`].
pub fn gpu_for(a: &Csr) -> Gpu {
    Gpu::new(config_for(a))
}

/// A device of [`config_for`] running `plan`.
pub fn gpu_with_plan(a: &Csr, plan: FaultPlan) -> Gpu {
    Gpu::with_fault_plan(config_for(a), CostModel::default(), plan)
}

/// `gpu` holds no device byte and no resident unified-memory page.
pub fn assert_device_empty(gpu: &Gpu, ctx: &str) {
    assert_eq!(
        gpu.mem.used_bytes(),
        0,
        "{ctx}: device bytes left allocated"
    );
    assert_eq!(gpu.um.resident_pages(), 0, "{ctx}: UM pages left resident");
}

/// `got` equals `want` bit for bit: `-0.0` and `0.0` differ, and a NaN
/// equals the NaN with its bits.
pub fn assert_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: lengths differ");
    let diverged = got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits());
    if let Some(k) = diverged {
        panic!("{ctx}: [{k}] is {:e}, want {:e} (bitwise)", got[k], want[k]);
    }
}

/// Two factorizations hold the same fill pattern and value bits.
pub fn assert_factors_bits_eq(got: &LuFactorization, want: &LuFactorization, ctx: &str) {
    assert_eq!(
        got.lu.col_ptr, want.lu.col_ptr,
        "{ctx}: fill pattern (col_ptr)"
    );
    assert_eq!(
        got.lu.row_idx, want.lu.row_idx,
        "{ctx}: fill pattern (row_idx)"
    );
    assert_bits_eq(
        &got.lu.vals,
        &want.lu.vals,
        &format!("{ctx}: factor values"),
    );
}

/// The robustness contract: every run ends in exactly one of three states
/// and never in a fourth, silent-wrong-answer one —
///
/// 1. **gate pass**: `Ok`, and the factors reproduce from scratch the
///    residual the acceptance gate saw;
/// 2. **recovered**: `Ok` with a non-empty recovery log, and the factors
///    still verify;
/// 3. **rejected**: a typed [`GpluError::NumericallySingular`],
///    [`GpluError::SingularPivot`] or structural sparse error.
///
/// Panics on anything outside it; returns the state.
pub fn assert_contract(result: &Result<LuFactorization, GpluError>, ctx: &str) -> &'static str {
    match result {
        Ok(f) => {
            // The gate ran with its default 2 probes; re-running the same
            // deterministic probe reproduces the number it gated on.
            let r = residual_probe(&f.preprocessed, &f.lu, 2);
            assert!(
                r <= ResidualGate::default().threshold,
                "{ctx}: accepted factors re-verify at residual {r:.3e}"
            );
            if let Some(gated) = f.report.residual {
                assert!(
                    (gated - r).abs() <= 1e-12 * r.max(1.0),
                    "{ctx}: reported residual {gated:.3e} != re-probed {r:.3e}"
                );
            }
            if f.report.recovery.is_empty() {
                "gate-pass"
            } else {
                "recovered"
            }
        }
        Err(
            e @ (GpluError::NumericallySingular { .. }
            | GpluError::SingularPivot { .. }
            | GpluError::Sparse(_)),
        ) => {
            assert!(!e.to_string().is_empty());
            "rejected"
        }
        Err(other) => panic!("{ctx}: outside the three-state contract: {other}"),
    }
}

/// Whether the pipeline changed the system it factors (a repaired or
/// perturbed diagonal): its `x` then answers another question than the
/// oracle's.
pub fn system_modified(f: &LuFactorization) -> bool {
    f.report.repaired_diagonals > 0
        || f.report.recovery.events().iter().any(|e| {
            matches!(
                e.action,
                RecoveryAction::PivotRepaired { .. } | RecoveryAction::PivotPerturbed { .. }
            )
        })
}

/// Seed offset from the environment variable `var` (default 0), so CI
/// shards explore disjoint slices without code changes.
pub fn seed_base(var: &str) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A fresh scratch directory per call (no tempfile dependency), removed
/// with everything in it when the guard drops. It is not created: a
/// checkpoint directory or cache tier creates its own.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gplu-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Block-diagonal matrix of independent banded chains: wide levels, so
/// every device's shard is non-empty.
pub fn block_banded(blocks: usize, m: usize, band: usize, seed: u64) -> Csr {
    let n = blocks * m;
    let mut coo = Coo::new(n, n);
    for b in 0..blocks {
        let base = b * m;
        let block = banded_dominant(m, band, seed.wrapping_add(b as u64));
        for i in 0..m {
            for (j, v) in block.row_iter(i) {
                coo.push(base + i, base + j, v);
            }
        }
    }
    gplu::sparse::gen::assemble_dominant(coo, 1.0)
}

/// Deterministic value drift on a fixed pattern (the service workload's
/// perturbation shape).
pub fn drift(base: &Csr, version: u64) -> Csr {
    let mut m = base.clone();
    for (k, v) in m.vals.iter_mut().enumerate() {
        let wob = ((k as u64)
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(version.wrapping_mul(7919))
            % 97) as f64;
        *v *= 1.0 + wob / 1000.0;
    }
    m
}

/// `doc` with the field at `ptr` set to `value` (JSON text), or removed.
pub fn mutated(doc: &JsonValue, ptr: &str, value: Option<&str>) -> JsonValue {
    let mut doc = doc.clone();
    let (parent, key) = ptr.rsplit_once('/').expect("a JSON pointer");
    let mut at = &mut doc;
    for step in parent.split('/').skip(1) {
        at = match at {
            JsonValue::Arr(items) => &mut items[step.parse::<usize>().expect(ptr)],
            JsonValue::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == step).expect(ptr).1,
            _ => panic!("{ptr}: no such parent"),
        };
    }
    let value = value.map(|v| json::parse(v).expect("JSON text"));
    match (at, value) {
        (JsonValue::Arr(items), Some(v)) => items[key.parse::<usize>().expect(ptr)] = v,
        (JsonValue::Obj(fields), v) => {
            fields.retain(|(k, _)| k != key);
            fields.extend(v.map(|v| (key.to_string(), v)));
        }
        _ => panic!("{ptr}: no such parent"),
    }
    doc
}
