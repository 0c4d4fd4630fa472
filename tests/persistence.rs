//! Persistence suite: the disk cache tier must make restarts *warm*
//! without ever making them *wrong*.
//!
//! The contract, in order of importance:
//!
//! 1. **bit-identity across restarts** — a job rescued from the host or
//!    disk tier produces factors bit-identical to a single-threaded cold
//!    run of the same `(pattern, values)` pair;
//! 2. **corruption costs time, never correctness** — corrupt, truncated
//!    and cross-version disk entries are rejected with an audit trail
//!    and the job falls back cold, bit-identical to a never-cached run;
//! 3. **crash consistency** — killing the service mid-stream loses only
//!    unflushed write-behind work; everything durable before the crash
//!    rewarm-rescues after it;
//! 4. **no symbolic work for previously-hot patterns** — a rewarmed
//!    service serves the old hot set without building a single plan.

mod common;

use common::{assert_bits_eq, drift, gpu_for, TempDir};
use gplu::checkpoint::{section, PlanStore, Snapshot};
use gplu::core::pattern_fingerprint;
use gplu::prelude::*;
use gplu::server::{CacheCounters, ExecTier};
use gplu::sparse::gen::circuit::{circuit, CircuitParams};
use gplu::sparse::Csr;

fn hot_patterns(count: u64, seed: u64) -> Vec<Csr> {
    (0..count)
        .map(|s| {
            circuit(&CircuitParams {
                n: 220,
                nnz_per_row: 6.0,
                seed: seed + s,
                ..Default::default()
            })
        })
        .collect()
}

/// Single-threaded cold reference for one `(pattern, values)` pair.
fn cold_reference(a: &Csr) -> LuFactorization {
    LuFactorization::compute(&gpu_for(a), a, &LuOptions::default()).expect("cold reference")
}

fn persistent_config(dir: &TempDir, rewarm: bool) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        cache_dir: Some(dir.path().to_path_buf()),
        rewarm,
        ..Default::default()
    }
}

/// Runs one factorize job to completion, returning `(tier, lu values)`.
fn run_job(svc: &SolverService, a: Csr) -> (ExecTier, Vec<f64>) {
    let r = svc
        .submit(JobSpec::new(a, JobKind::Factorize).hot())
        .expect("submit")
        .wait()
        .expect("job completes");
    (r.tier, r.factorization.lu.vals.clone())
}

/// Populates the disk tier: one cold job per pattern, drained and
/// flushed so every plan is durable before the service goes away.
fn seed_disk_tier(dir: &TempDir, patterns: &[Csr]) -> CacheCounters {
    let svc = SolverService::start(persistent_config(dir, false));
    for base in patterns {
        let (tier, _) = run_job(&svc, drift(base, 0));
        assert_eq!(tier, ExecTier::Cold, "first sighting factorizes cold");
    }
    assert!(svc.drain(), "drain must flush the write-behind queue");
    let counters = svc.cache_counters();
    assert_eq!(
        counters.disk_writes,
        patterns.len() as u64,
        "every plan must be durable before shutdown"
    );
    svc.shutdown();
    counters
}

#[test]
fn warm_restart_serves_the_old_hot_set_without_symbolic_work() {
    let dir = TempDir::new("rewarm");
    let patterns = hot_patterns(3, 500);
    seed_disk_tier(&dir, &patterns);

    // Restart with --rewarm: the host tier is repopulated from disk
    // before the workers start.
    let svc = SolverService::start(persistent_config(&dir, true));
    assert_eq!(
        svc.cache_counters().rewarmed,
        patterns.len() as u64,
        "boot-time rewarm must reload every persisted plan"
    );
    assert_eq!(svc.cache().len(), 0, "rewarm fills the host tier");
    assert_eq!(svc.cache().host_len(), patterns.len());

    let mut tiers = Vec::new();
    for (pi, base) in patterns.iter().enumerate() {
        for version in [1u64, 2] {
            let a = drift(base, version);
            let (tier, vals) = run_job(&svc, a.clone());
            assert_ne!(
                tier,
                ExecTier::Cold,
                "pattern {pi} v{version}: previously-hot patterns must not re-run \
                 symbolic work after a rewarmed restart"
            );
            let ctx = format!("pattern {pi} v{version} rescued from {tier:?}");
            assert_bits_eq(&vals, &cold_reference(&a).lu.vals, &ctx);
            tiers.push(tier);
        }
    }
    // First touch per pattern promotes out of the host tier; the second
    // version then hits the device tier.
    assert!(
        tiers.contains(&ExecTier::WarmHost),
        "rewarmed entries must serve from the host tier, got {tiers:?}"
    );
    assert!(tiers.contains(&ExecTier::Warm), "promotion must stick");
    assert_eq!(
        svc.stats().plans_built,
        0,
        "zero plans built: the whole hot set was rescued"
    );
    svc.shutdown();
}

#[test]
fn cold_restart_rescues_from_disk_on_demand() {
    let dir = TempDir::new("on-demand");
    let patterns = hot_patterns(1, 520);
    seed_disk_tier(&dir, &patterns);

    // No rewarm: both memory tiers start empty, so the first job's miss
    // walks down to the disk tier and decodes the persisted plan.
    let svc = SolverService::start(persistent_config(&dir, false));
    assert_eq!(svc.cache().len() + svc.cache().host_len(), 0);
    let a = drift(&patterns[0], 3);
    let (tier, vals) = run_job(&svc, a.clone());
    assert_eq!(tier, ExecTier::WarmDisk, "miss must be rescued from disk");
    assert_bits_eq(&vals, &cold_reference(&a).lu.vals, "disk rescue");

    // The rescue promoted the plan to the device tier.
    let b = drift(&patterns[0], 4);
    let (tier, vals) = run_job(&svc, b.clone());
    assert_eq!(tier, ExecTier::Warm, "promoted entry must serve warm");
    assert_bits_eq(&vals, &cold_reference(&b).lu.vals, "promoted entry");
    assert_eq!(svc.stats().plans_built, 0);
    svc.shutdown();
}

#[test]
fn corrupt_truncated_and_cross_version_entries_fall_back_cold() {
    let dir = TempDir::new("reject");
    let patterns = hot_patterns(3, 540);
    seed_disk_tier(&dir, &patterns);

    // Sabotage all three persisted entries, one failure mode each.
    let store = PlanStore::open(dir.path()).expect("reopen store");
    let fps: Vec<u64> = patterns.iter().map(pattern_fingerprint).collect();

    // (a) bit flip mid-file: the section checksum catches it.
    let path_a = dir.path().join(format!("plan-{:016x}.ckpt", fps[0]));
    let mut bytes = std::fs::read(&path_a).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path_a, &bytes).expect("write corrupted entry");

    // (b) truncation: the snapshot header declares more than is there.
    let path_b = dir.path().join(format!("plan-{:016x}.ckpt", fps[1]));
    let bytes = std::fs::read(&path_b).expect("read entry");
    std::fs::write(&path_b, &bytes[..bytes.len() / 2]).expect("truncate entry");

    // (c) cross-version: re-save with valid checksums but a bumped plan
    // schema version — only the codec's version guard can catch this.
    let snap = store
        .load(fps[2])
        .expect("load entry")
        .expect("entry exists");
    let mut meta = snap.section(section::PLAN_META).expect("meta").to_vec();
    meta[0] ^= 0xFF; // u32 LE version: 1 -> not-1
    let mut forged = Snapshot::new();
    forged.add_section(section::PLAN_META, meta);
    forged.add_section(
        section::PLAN_BODY,
        snap.section(section::PLAN_BODY).expect("body").to_vec(),
    );
    store.save(fps[2], &forged).expect("re-save forged entry");

    // Every job must fall back cold and stay bit-identical to a
    // never-cached run; the rejections leave an audit trail.
    let svc = SolverService::start(persistent_config(&dir, false));
    for (pi, base) in patterns.iter().enumerate() {
        let a = drift(base, 7);
        let (tier, vals) = run_job(&svc, a.clone());
        assert_eq!(
            tier,
            ExecTier::Cold,
            "pattern {pi}: a rejected disk entry must cost a cold rebuild"
        );
        let ctx = format!("pattern {pi}: cold fallback");
        assert_bits_eq(&vals, &cold_reference(&a).lu.vals, &ctx);
    }
    let counters = svc.cache_counters();
    assert_eq!(
        counters.disk_rejects, 3,
        "all three sabotaged entries must be rejected"
    );
    assert_eq!(counters.disk_hits, 0);
    let log = svc.cache().rejects_log();
    assert_eq!(log.len(), 3, "every rejection must be recorded: {log:?}");
    assert!(
        !svc.cache().disk_down(),
        "per-entry corruption must not take the whole tier down"
    );
    svc.shutdown();
}

#[test]
fn crash_mid_stress_loses_only_unflushed_work() {
    let dir = TempDir::new("crash");
    let durable = hot_patterns(2, 560);
    let torn = hot_patterns(2, 580);

    // Phase 1: factorize the durable set and flush it, then crash the
    // disk tier and factorize more patterns — their write-behind work is
    // abandoned, exactly the torn state a mid-stress kill leaves behind.
    let svc = SolverService::start(persistent_config(&dir, false));
    for base in &durable {
        run_job(&svc, drift(base, 0));
    }
    assert!(svc.drain(), "durable set must be flushed");
    svc.cache().simulate_crash();
    for base in &torn {
        run_job(&svc, drift(base, 0));
    }
    drop(svc); // no graceful shutdown: pending persists never land

    // Phase 2: the restarted, rewarmed service rescues exactly the
    // durable set; the torn patterns rebuild cold — correctly.
    let svc = SolverService::start(persistent_config(&dir, true));
    assert_eq!(
        svc.cache_counters().rewarmed,
        durable.len() as u64,
        "only flushed entries survive the crash"
    );
    for (pi, base) in durable.iter().enumerate() {
        let a = drift(base, 5);
        let (tier, vals) = run_job(&svc, a.clone());
        assert_ne!(tier, ExecTier::Cold, "durable pattern {pi} must rescue");
        let ctx = format!("durable pattern {pi}");
        assert_bits_eq(&vals, &cold_reference(&a).lu.vals, &ctx);
    }
    for (pi, base) in torn.iter().enumerate() {
        let a = drift(base, 5);
        let (tier, vals) = run_job(&svc, a.clone());
        assert_eq!(
            tier,
            ExecTier::Cold,
            "torn pattern {pi} was never durable; it must rebuild cold"
        );
        let ctx = format!("torn pattern {pi}");
        assert_bits_eq(&vals, &cold_reference(&a).lu.vals, &ctx);
    }
    svc.shutdown();
}
