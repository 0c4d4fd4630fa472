//! Service equivalence suite: the `gplu-server` solver service must be a
//! *transparent* accelerator.
//!
//! The contract, in order of importance:
//!
//! 1. **bit-identity** — whatever tier serves a job (cold, warm
//!    refactorization, cached factors), the factor values are
//!    bit-identical to a single-threaded cold [`LuFactorization::compute`]
//!    of the same `(pattern, values)` pair;
//! 2. **eviction safety** — an LRU eviction under a starved cache budget
//!    never corrupts a job in flight (entries are `Arc`-shared);
//! 3. **typed degradation** — backpressure, deadlines and cancellation
//!    surface as [`GpluError::QueueFull`] / [`GpluError::DeadlineExceeded`]
//!    / [`GpluError::Cancelled`], never as panics or hangs;
//! 4. **accounting** — plan construction happens once per distinct hot
//!    pattern, and the service report's sections stay self-consistent.

mod common;

use common::{assert_bits_eq, drift, gpu_for, mutated};
use gplu::prelude::*;
use gplu::server::{
    check_service_report, generate_workload, ExecTier, JobHandle, ServiceReport, WorkloadParams,
};
use gplu::sparse::gen::circuit::{circuit, CircuitParams};
use gplu::sparse::gen::random::random_dominant;
use gplu::sparse::verify::check_solution;
use gplu::sparse::Csr;
use gplu::trace::{json, JsonValue};

/// Single-threaded cold reference for one `(pattern, values)` pair.
fn cold_reference(a: &Csr) -> LuFactorization {
    LuFactorization::compute(&gpu_for(a), a, &LuOptions::default()).expect("cold reference")
}

#[test]
fn every_tier_is_bit_identical_to_a_cold_factorization() {
    // 3 hot patterns x 4 value versions submitted concurrently (version 0
    // twice), then a drained-queue epilogue that pins the warm and
    // cached-factors tiers deterministically.
    let patterns: Vec<Csr> = (0..3u64)
        .map(|s| {
            circuit(&CircuitParams {
                n: 250,
                nnz_per_row: 6.0,
                seed: 40 + s,
                ..Default::default()
            })
        })
        .collect();

    let svc = SolverService::start(ServiceConfig::default());
    // Prime each pattern with a completed cold job first: concurrent
    // same-pattern cold misses each build a plan (first insert wins, the
    // rest are discarded), which is safe but makes `plans_built`
    // nondeterministic. After priming, every later job must hit.
    let mut tiers = Vec::new();
    let mut handles: Vec<(usize, u64, JobHandle)> = Vec::new();
    for (pi, base) in patterns.iter().enumerate() {
        let h = svc
            .submit(JobSpec::new(drift(base, 0), JobKind::Factorize).hot())
            .expect("submit");
        handles.push((pi, 0, h));
    }
    for (pi, version, h) in handles.drain(..) {
        let r = h.wait().expect("priming job completes");
        let reference = cold_reference(&drift(&patterns[pi], version));
        let ctx = format!("pattern {pi} v{version} priming");
        assert_bits_eq(&r.factorization.lu.vals, &reference.lu.vals, &ctx);
        tiers.push(r.tier);
    }
    for (pi, base) in patterns.iter().enumerate() {
        for version in [1u64, 2, 3, 0] {
            let a = drift(base, version);
            let h = svc
                .submit(JobSpec::new(a, JobKind::Factorize).hot())
                .expect("submit");
            handles.push((pi, version, h));
        }
    }

    for (pi, version, h) in handles {
        let r = h.wait().expect("job completes");
        let reference = cold_reference(&drift(&patterns[pi], version));
        let ctx = format!("pattern {pi} v{version} served {:?}", r.tier);
        assert_bits_eq(&r.factorization.lu.vals, &reference.lu.vals, &ctx);
        tiers.push(r.tier);
    }

    // With the queue drained, land one job on each remaining tier
    // deterministically: a fresh value version refactorizes warm, and an
    // exact duplicate must then be served from cached factors. (The
    // concurrent duplicate above races the other versions for the cache
    // entry's latest slot, so its tier is timing-dependent.)
    let fresh = drift(&patterns[0], 9);
    let warm = svc
        .submit(JobSpec::new(fresh.clone(), JobKind::Factorize).hot())
        .expect("submit")
        .wait()
        .expect("fresh version completes");
    assert_eq!(warm.tier, ExecTier::Warm, "fresh values must refactorize");
    let dup = svc
        .submit(JobSpec::new(fresh, JobKind::Factorize).hot())
        .expect("submit")
        .wait()
        .expect("duplicate completes");
    assert_eq!(
        dup.tier,
        ExecTier::CachedSolve,
        "duplicate submissions must be served from cached factors"
    );
    let (dup_vals, warm_vals) = (&dup.factorization.lu.vals, &warm.factorization.lu.vals);
    assert_bits_eq(dup_vals, warm_vals, "cached factors vs warm");
    tiers.push(warm.tier);
    tiers.push(dup.tier);

    // The mix must actually exercise the cache, not just pass trivially.
    assert!(tiers.contains(&ExecTier::Warm), "no warm job ran");
    let stats = svc.stats();
    assert_eq!(
        stats.plans_built,
        patterns.len() as u64,
        "exactly one plan per distinct pattern"
    );
    svc.shutdown();
}

#[test]
fn blocked_format_refactorizes_warm_without_re_blocking() {
    use gplu::sparse::gen::random::banded_dominant;
    use gplu::trace::Recorder;

    // Band-8 fill keeps adjacent columns similar, so the blocking pass
    // finds supernodes and the blocked engine actually runs BLAS-3 tiles.
    let base = banded_dominant(250, 8, 81);
    let opts = LuOptions {
        format: NumericFormat::SparseBlocked,
        ..Default::default()
    };
    let gpu = || gpu_for(&base);

    // Plan-level proof: the captured BlockPlan is replayed on the warm
    // path — the trace must show no `phase.block_detect` (and no symbolic
    // or levelize) span, yet the warm run still executes gemm tiles and
    // reproduces the cold blocked factors bit-for-bit.
    let cold = LuFactorization::compute(&gpu(), &base, &opts).expect("cold blocked");
    assert!(cold.report.gemm_tiles > 0, "band-8 fill must form blocks");
    let plan = cold.refactor_plan(&base, &opts).expect("plan");
    let drifted = drift(&base, 1);
    let rec = Recorder::new();
    let warm = plan
        .refactorize_traced(&gpu(), &drifted, &rec)
        .expect("warm blocked");
    let spans: Vec<&str> = rec.into_events().into_iter().map(|e| e.name).collect();
    assert!(
        !spans.contains(&"phase.block_detect"),
        "warm path must replay the captured plan, not re-scan: {spans:?}"
    );
    assert!(warm.report.gemm_tiles > 0, "warm run must stay blocked");
    let cold_drifted = LuFactorization::compute(&gpu(), &drifted, &opts).expect("cold drifted");
    assert_bits_eq(&warm.lu.vals, &cold_drifted.lu.vals, "warm blocked vs cold");

    // Service-level proof: a hot SparseBlocked job lands on the warm tier
    // and stays bit-identical to the cold blocked pipeline.
    let svc = SolverService::start(ServiceConfig::default());
    let blocked_spec = |a: Csr| {
        let mut s = JobSpec::new(a, JobKind::Factorize).hot();
        s.opts = opts.clone();
        s
    };
    let h = svc.submit(blocked_spec(drift(&base, 0))).expect("submit");
    h.wait().expect("priming job");
    let h = svc.submit(blocked_spec(drift(&base, 2))).expect("submit");
    let r = h.wait().expect("warm job");
    assert_eq!(r.tier, ExecTier::Warm, "same hot pattern must serve warm");
    assert!(r.factorization.report.gemm_tiles > 0);
    let reference = LuFactorization::compute(&gpu(), &drift(&base, 2), &opts).expect("reference");
    assert_bits_eq(
        &r.factorization.lu.vals,
        &reference.lu.vals,
        "warm blocked job",
    );
    svc.shutdown();
}

#[test]
fn eviction_under_a_starved_budget_never_corrupts_results() {
    // Budget fits roughly one entry, so the 4 interleaved patterns evict
    // each other constantly while their jobs are still in flight.
    let patterns: Vec<Csr> = (0..4u64)
        .map(|s| random_dominant(200, 4.0, 50 + s))
        .collect();
    let plan_bytes = {
        let f = cold_reference(&patterns[0]);
        f.refactor_plan(&patterns[0], &LuOptions::default())
            .expect("plan")
            .approx_bytes()
    };
    let svc = SolverService::start(ServiceConfig {
        workers: 4,
        queue_cap: 64,
        cache_budget_bytes: plan_bytes + plan_bytes / 2,
        ..Default::default()
    });

    let mut handles = Vec::new();
    for round in 0..3u64 {
        for (pi, base) in patterns.iter().enumerate() {
            let a = drift(base, round);
            let h = svc
                .submit(JobSpec::new(a, JobKind::Factorize).hot())
                .expect("submit");
            handles.push((pi, round, h));
        }
    }
    for (pi, round, h) in handles {
        let r = h.wait().expect("job completes despite evictions");
        let reference = cold_reference(&drift(&patterns[pi], round));
        let ctx = format!("pattern {pi} round {round} under eviction");
        assert_bits_eq(&r.factorization.lu.vals, &reference.lu.vals, &ctx);
    }
    let counters = svc.cache_counters();
    assert!(
        counters.evictions > 0,
        "budget was sized to force evictions, got none (insertions {})",
        counters.insertions
    );
    assert!(
        svc.cache().used_bytes() <= svc.cache_budget(),
        "cache must stay within budget"
    );
    svc.shutdown();
}

#[test]
fn backpressure_deadlines_and_cancellation_are_typed() {
    // One worker, one queue slot: the first (slow) job occupies the
    // worker, the second fills the queue, the third must bounce.
    let svc = SolverService::start(ServiceConfig {
        workers: 1,
        queue_cap: 1,
        cache_budget_bytes: 16 << 20,
        ..Default::default()
    });
    let slow = random_dominant(700, 6.0, 60);
    let running = svc
        .submit(JobSpec::new(slow.clone(), JobKind::Factorize))
        .expect("first job");

    let small = random_dominant(60, 3.0, 61);
    let mut queued = None;
    let mut saw_queue_full = false;
    for _ in 0..200 {
        match svc.submit(JobSpec::new(small.clone(), JobKind::Factorize)) {
            Ok(h) if queued.is_none() => queued = Some(h),
            Ok(h) => {
                // The worker drained the queue mid-test; keep the newest
                // handle so shutdown stays clean, and keep probing.
                let _ = queued.replace(h).map(|old| old.wait());
            }
            Err(GpluError::QueueFull { depth, cap }) => {
                assert_eq!(cap, 1);
                assert!(depth >= 1);
                saw_queue_full = true;
                break;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(saw_queue_full, "a 1-slot queue must reject under load");

    // A zero deadline has always expired by the time a worker dequeues.
    let dead = svc.submit(JobSpec::new(small.clone(), JobKind::Factorize).with_deadline_ns(0));
    if let Ok(h) = dead {
        match h.wait() {
            Err(GpluError::DeadlineExceeded { .. }) => {}
            other => panic!("zero-deadline job must be dropped, got {other:?}"),
        }
    }

    let _ = running.wait();
    if let Some(h) = queued {
        let _ = h.wait();
    }

    // Cancellation: occupy the worker again, cancel a queued job.
    let running = svc
        .submit(JobSpec::new(slow, JobKind::Factorize))
        .expect("slow job");
    if let Ok(victim) = svc.submit(JobSpec::new(small, JobKind::Factorize)) {
        victim.cancel();
        match victim.wait() {
            Err(GpluError::Cancelled) => {}
            // Lost the race: the worker started it before the flag landed.
            Ok(_) => {}
            Err(e) => panic!("cancelled job must not fail with {e}"),
        }
    }
    let _ = running.wait();

    let stats = svc.stats();
    assert!(stats.rejected > 0, "rejections must be counted");
    svc.shutdown();
}

#[test]
fn solve_jobs_return_checked_solutions_from_every_tier() {
    let base = circuit(&CircuitParams {
        n: 220,
        nnz_per_row: 6.0,
        seed: 70,
        ..Default::default()
    });
    let svc = SolverService::start(ServiceConfig::default());
    // Same pattern three times: cold, warm, cached.
    for version in [0u64, 1, 1] {
        let a = drift(&base, version);
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|r| a.spmv(&vec![1.0 + r as f64; a.n_rows()]))
            .collect();
        let h = svc
            .submit(JobSpec::new(a.clone(), JobKind::Solve { rhs: rhs.clone() }).hot())
            .expect("submit");
        let r = h.wait().expect("solve job");
        let xs = r.solutions.expect("solve jobs return solutions");
        assert_eq!(xs.len(), rhs.len());
        for (x, b) in xs.iter().zip(&rhs) {
            assert!(
                check_solution(&a, x, b, 1e-8),
                "tier {:?} solution must satisfy the submitted system",
                r.tier
            );
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.completed, 3);
    assert!(stats.cached_solve >= 1, "the duplicate values must hit");
    svc.shutdown();
}

/// The report of a 60-job seeded stress run on one device.
fn stress_report() -> ServiceReport {
    let specs = generate_workload(&WorkloadParams {
        jobs: 60,
        hot_patterns: 4,
        hot_fraction: 0.8,
        value_versions: 5,
        solve_fraction: 0.3,
        hard_fraction: 0.0,
        fault_every: 0,
        hot_n: 150,
        cold_n: 100,
        tenants: 4,
        seed: 99,
    });
    let svc = SolverService::start(ServiceConfig::default());
    let handles: Vec<JobHandle> = specs
        .into_iter()
        .map(|s| svc.submit(s).expect("cap 64 fits the drained queue"))
        .collect();
    for h in handles {
        h.wait().expect("fault-free workload must complete");
    }
    let report = ServiceReport::capture(&svc);
    svc.shutdown();
    report
}

#[test]
fn stress_workload_sustains_the_hit_rate_and_a_consistent_report() {
    let report = stress_report();
    let stats = &report.stats;
    assert_eq!(stats.completed, 60);
    assert!(
        stats.hot_hit_rate() >= 0.8,
        "hot traffic must mostly hit the cache, got {:.3}",
        stats.hot_hit_rate()
    );
    // The exported JSON passes the report's own schema check, tier sums
    // included.
    let doc = json::parse(&report.to_json().to_pretty()).expect("report parses");
    check_service_report(&doc).expect("valid service report");
}

#[test]
fn malformed_service_reports_are_rejected_at_their_pointer() {
    let doc = json::parse(&stress_report().to_json().to_pretty()).expect("report parses");
    check_service_report(&doc).expect("the real report is valid");
    // (field, new JSON value or removed, the pointer the error starts with)
    let cases = [
        (
            "/service_schema_version",
            Some("4.9"),
            "/service_schema_version",
        ),
        ("/tiers", None, "/tiers"),
        ("/tiers/cold_share", Some("7"), "/tiers/cold_share"),
        ("/jobs/failed", Some("-200"), "/jobs/failed"),
        ("/queue/rejections", Some("-1"), "/queue/rejections"),
        ("/cache/host/hits", Some("\"x\""), "/cache/host/hits"),
        ("/cache/disk/down", Some("3"), "/cache/disk/down"),
        ("/fleet/dead", Some("[5]"), "/fleet/dead"),
        (
            "/fleet/per_device/0/device",
            Some("9"),
            "/fleet/per_device/0/device",
        ),
        // One violation per cross-field rule.
        ("/jobs/submitted", Some("1"), "/jobs/submitted"),
        ("/jobs/cold", Some("1000"), "/jobs/completed"),
        ("/cache/used_bytes", Some("1e15"), "/cache/used_bytes"),
        (
            "/cache/host/used_bytes",
            Some("1e15"),
            "/cache/host/used_bytes",
        ),
        ("/cache/disk/hits", Some("3"), "/cache/disk/hits"),
        ("/latency/sim_p50_ns", Some("1e30"), "/latency/sim_p50_ns"),
        ("/latency/wall_p50_ns", Some("1e30"), "/latency/wall_p50_ns"),
        ("/queue/max_depth", Some("1000"), "/queue/max_depth"),
        (
            "/robustness/quarantined_patterns",
            Some("5"),
            "/robustness/quarantined_patterns",
        ),
        ("/fleet/per_device/0/jobs", Some("1e6"), "/fleet/per_device"),
        ("/fleet/devices", Some("0"), "/fleet/devices"),
        ("/fleet/devices", Some("2"), "/fleet/per_device"),
        (
            "/fleet/per_device/0/hot_hits",
            Some("1e6"),
            "/fleet/per_device/0/hot_hits",
        ),
        ("/slo/sim_p50_ns", Some("1e30"), "/slo/sim_p50_ns"),
        ("/slo/sim_p99_ns", Some("0"), "/slo/sim_p95_ns"),
    ];
    for (ptr, value, blames) in cases {
        match check_service_report(&mutated(&doc, ptr, value)) {
            Ok(()) => panic!("{ptr} = {value:?}: accepted"),
            Err(e) => assert!(e.starts_with(blames), "{ptr} = {value:?}: {e}"),
        }
    }
}

/// `name`'s value in the `gauges` of a report's `/metrics` section.
fn gauge(doc: &JsonValue, name: &str) -> f64 {
    doc.pointer("/metrics/gauges")
        .and_then(|g| g.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("gauge {name} missing"))
}

/// Captures `svc`'s report and asserts that every exposed gauge which
/// copies a report field equals that field.
fn assert_no_stale_gauge(svc: &SolverService, step: &str) {
    let doc = ServiceReport::capture(svc).to_json();
    for (name, ptr) in [
        ("service.cache_host_entries", "/cache/host/entries"),
        ("service.cache_entries", "/cache/entries"),
        ("service.cache_used_bytes", "/cache/used_bytes"),
    ] {
        assert_eq!(gauge(&doc, name), doc.number_at(ptr), "{step}: {name}");
    }
    for (d, device) in doc.array_at("/fleet/per_device").iter().enumerate() {
        let name = format!("service.device_queue_depth{{device={d}}}");
        assert_eq!(
            gauge(&doc, &name),
            device.number_at("/queued"),
            "{step}: {name}"
        );
    }
}

/// A 2×2 system with a full pattern: diagonal 2.0 factorizes, 1.0 makes
/// the second pivot cancel to zero.
fn full_2x2(diagonal: f64) -> Csr {
    let mut coo = gplu::sparse::Coo::new(2, 2);
    for i in 0..2 {
        for j in 0..2 {
            coo.push(i, j, if i == j { diagonal } else { 1.0 });
        }
    }
    gplu::sparse::convert::coo_to_csr(&coo)
}

#[test]
fn exposed_gauges_are_read_from_their_owners_at_every_step() {
    // A rewarmed host tier, before any job has run.
    let dir = std::env::temp_dir().join(format!("gplu-service-gauges-{}", std::process::id()));
    let persistent = |rewarm| ServiceConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        rewarm,
        ..Default::default()
    };
    let svc = SolverService::start(persistent(false));
    for seed in [80, 81] {
        svc.submit(JobSpec::new(
            random_dominant(60, 4.0, seed),
            JobKind::Factorize,
        ))
        .expect("submit")
        .wait()
        .expect("cold job");
    }
    assert!(svc.drain(), "both plans are durable");
    svc.shutdown();
    let svc = SolverService::start(persistent(true));
    assert_eq!(svc.cache().host_len(), 2, "rewarm fills the host tier");
    assert_no_stale_gauge(&svc, "rewarm");
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // A job cancelled while another runs on a 2-device service. The
    // worker may start the victim before its flag lands; each retry
    // occupies it with a fresh cold pattern.
    let svc = SolverService::start(ServiceConfig {
        workers: 1,
        devices: 2,
        ..Default::default()
    });
    let cancelled = (0..8u64).any(|k| {
        let running = svc
            .submit(JobSpec::new(
                random_dominant(400, 5.0, 82 + 10 * k),
                JobKind::Factorize,
            ))
            .expect("submit");
        let victim = svc
            .submit(JobSpec::new(
                random_dominant(30, 3.0, 83),
                JobKind::Factorize,
            ))
            .expect("submit");
        victim.cancel();
        running.wait().expect("running job");
        matches!(victim.wait(), Err(GpluError::Cancelled))
    });
    assert!(cancelled, "every victim started before its cancel landed");
    assert_no_stale_gauge(&svc, "cancel");

    // A gate failure that evicts its pattern's plan.
    svc.submit(JobSpec::new(full_2x2(2.0), JobKind::Factorize))
        .expect("submit")
        .wait()
        .expect("good values");
    let e = svc
        .submit(JobSpec::new(full_2x2(1.0), JobKind::Factorize))
        .expect("submit")
        .wait()
        .unwrap_err();
    assert!(matches!(e, GpluError::SingularPivot { .. }), "got {e}");
    assert_eq!(svc.stats().gate_failures, 1);
    assert_no_stale_gauge(&svc, "gate failure");
    svc.shutdown();
}

#[test]
fn counts_do_not_depend_on_the_observability_knob() {
    let specs = generate_workload(&WorkloadParams {
        jobs: 40,
        hard_fraction: 0.3,
        fault_every: 5,
        hot_n: 120,
        cold_n: 80,
        seed: 5,
        ..Default::default()
    });
    let counts = |observability| {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            observability,
            ..Default::default()
        });
        // One job at a time: no count depends on the queue's timing.
        for spec in &specs {
            let _ = svc.submit(spec.clone()).expect("an empty queue").wait();
        }
        let mut stats = svc.stats();
        svc.shutdown();
        stats.wall_ns.clear();
        stats
    };
    let on = counts(true);
    assert!(on.failed > 0 && on.gate_failures > 0, "{on:?}");
    assert!(on.injected_faults > 0 && on.jobs_recovered > 0, "{on:?}");
    assert!(on.quarantine_rejected > 0, "{on:?}");
    assert_eq!(on, counts(false));
}
