//! Tiered-cache latency bench: what each cache tier is worth.
//!
//! Runs the same hot pattern set through the four service paths a
//! restart can land on — cold build, device-tier warm hit, host-tier
//! rescue (rewarmed restart), disk-tier rescue (cold-memory restart) —
//! plus the boot-time cost of `--rewarm` itself, and reports per-job
//! wall latency for each. One worker and sequential submission keep the
//! tier mix a pure function of the scenario: every job's tier is
//! asserted, so the bench measures what it claims to. Writes
//! `BENCH_cache_tiers.json`, every latency under `wall`.

use crate::{drift_values, median, Opts, Table};
use gplu_server::{ExecTier, JobKind, JobSpec, ServiceConfig, SolverService};
use gplu_sparse::gen::circuit::{circuit, CircuitParams};
use gplu_sparse::Csr;
use gplu_trace::JsonValue;
use std::path::PathBuf;
use std::time::Instant;

/// Self-cleaning scratch directory for the disk tier.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "gplu-bench-cache-tiers-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(dir: &TempDir, rewarm: bool) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        cache_dir: Some(dir.0.clone()),
        rewarm,
        ..Default::default()
    }
}

/// One factorize round over all patterns; returns total wall ns and
/// asserts every job landed on `want`.
fn round(svc: &SolverService, patterns: &[Csr], version: u64, want: ExecTier) -> f64 {
    let mut total = 0.0f64;
    for (pi, base) in patterns.iter().enumerate() {
        let a = drift_values(base, version);
        let t0 = Instant::now();
        let r = svc
            .submit(JobSpec::new(a, JobKind::Factorize).hot())
            .expect("submit")
            .wait()
            .expect("job completes");
        total += t0.elapsed().as_nanos() as f64;
        assert_eq!(
            r.tier, want,
            "pattern {pi} v{version}: scenario expected {want:?}"
        );
    }
    total
}

#[derive(Default)]
struct Samples {
    cold: Vec<f64>,
    warm: Vec<f64>,
    host: Vec<f64>,
    disk: Vec<f64>,
    rewarm_boot: Vec<f64>,
    cold_boot: Vec<f64>,
}

pub(crate) fn run(o: &Opts) -> JsonValue {
    let (npat, reps, n) = (
        o.patterns.unwrap_or(6),
        o.reps.unwrap_or(5),
        o.n.unwrap_or(320),
    );
    println!(
        "cache_tiers bench: cold vs device vs host vs disk rescue latency, \
         {npat} patterns (n={n}), {reps} reps\n"
    );

    let patterns: Vec<Csr> = (0..npat as u64)
        .map(|s| {
            circuit(&CircuitParams {
                n,
                nnz_per_row: 6.0,
                seed: 7000 + s,
                ..Default::default()
            })
        })
        .collect();

    let mut s = Samples::default();
    for rep in 0..reps {
        let dir = TempDir::new("run");

        // Cold builds + device-tier warm hits, and the durable seed for
        // the two restart scenarios below.
        let svc = SolverService::start(config(&dir, false));
        s.cold.push(round(&svc, &patterns, 0, ExecTier::Cold));
        s.warm
            .push(round(&svc, &patterns, 1 + rep as u64, ExecTier::Warm));
        assert!(svc.drain(), "plans must be durable before restart");
        svc.shutdown();

        // Rewarmed restart: boot pays the decode, jobs hit the host tier.
        let t0 = Instant::now();
        let svc = SolverService::start(config(&dir, true));
        s.rewarm_boot.push(t0.elapsed().as_nanos() as f64);
        s.host
            .push(round(&svc, &patterns, 10 + rep as u64, ExecTier::WarmHost));
        svc.shutdown();

        // Cold-memory restart: boot is free, first touches decode from disk.
        let t0 = Instant::now();
        let svc = SolverService::start(config(&dir, false));
        s.cold_boot.push(t0.elapsed().as_nanos() as f64);
        s.disk
            .push(round(&svc, &patterns, 20 + rep as u64, ExecTier::WarmDisk));
        svc.shutdown();
    }

    let per_job = npat as f64;
    let (cold, warm, host, disk) = (
        median(&s.cold) / per_job,
        median(&s.warm) / per_job,
        median(&s.host) / per_job,
        median(&s.disk) / per_job,
    );
    let (rewarm_boot, cold_boot) = (median(&s.rewarm_boot), median(&s.cold_boot));

    let mut t = Table::new(["tier", "median ns/job", "vs cold"]);
    for (name, ns) in [
        ("cold build", cold),
        ("device hit (warm)", warm),
        ("host rescue (warm_host)", host),
        ("disk rescue (warm_disk)", disk),
    ] {
        t.row([
            name.to_string(),
            format!("{ns:.0}"),
            format!("{:.2}x", cold / ns.max(1.0)),
        ]);
    }
    t.print();
    println!(
        "\nrewarm boot: {:.1} ms for {npat} plans ({:.1} ms cold boot)",
        rewarm_boot / 1e6,
        cold_boot / 1e6
    );
    // The tiers must actually be ordered, or the tiering buys nothing:
    // a disk rescue may cost decode time but must beat a cold rebuild.
    assert!(
        disk < cold,
        "disk rescue ({disk:.0} ns) must beat a cold build ({cold:.0} ns)"
    );

    JsonValue::obj().set("patterns", npat).set("n", n).set(
        "wall",
        JsonValue::obj()
            .set("reps", reps)
            .set(
                "median_ns_per_job",
                JsonValue::obj()
                    .set("cold", cold)
                    .set("warm", warm)
                    .set("warm_host", host)
                    .set("warm_disk", disk),
            )
            .set(
                "speedup_vs_cold",
                JsonValue::obj()
                    .set("warm", cold / warm.max(1.0))
                    .set("warm_host", cold / host.max(1.0))
                    .set("warm_disk", cold / disk.max(1.0)),
            )
            .set(
                "boot_ns",
                JsonValue::obj()
                    .set("rewarm", rewarm_boot)
                    .set("cold", cold_boot),
            ),
    )
}
