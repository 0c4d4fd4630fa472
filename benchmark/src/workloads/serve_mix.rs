//! `serve_mix`: one `SolverService` lives across passes; two closed-loop
//! client threads each submit a job and wait for its result. The device
//! cache tier holds about half the hot plans and the host tier the rest,
//! so demotions and promotions happen beside cold inserts that evict.
//! The disk tier is off: fsync latency on a shared sandbox does not repeat.

use super::{ms_since, OpOut, Workload};
use crate::gen::{mix, solution, SplitMix, POPULATION_SEED};
use crate::trace::{Layers, Span, Tracer};
use crate::verify::{hash_vals, spmv, Check};
use gplu::core::{pattern_fingerprint, LuFactorization, LuOptions};
use gplu::numeric::TriSolvePlan;
use gplu::server::{
    generate_workload, CachedFactor, ExecTier, JobKind, JobResult, JobSpec, ServiceConfig,
    SolverService, WorkloadParams,
};
use gplu::sim::{Gpu, GpuConfig};
use std::collections::BTreeMap;
use std::time::Instant;

const JOBS: usize = 340;
/// Closed-loop client threads (= `nproc` on the sizing box).
pub const CLIENTS: usize = 2;
/// Service worker threads.
pub const WORKERS: usize = 2;
const HOT_PATTERNS: usize = 8;
const TOL: f64 = 1e-8;

/// One job and what the harness checks its result against.
struct Job {
    spec: JobSpec,
    /// Right-hand side the harness solves through the returned factors
    /// (for a `Solve` job, the one it submitted).
    b: Vec<f64>,
}

pub struct ServeMix {
    jobs: Vec<Job>,
    service: SolverService,
    origin: Instant,
    thread_spans: Vec<Vec<Span>>,
}

/// What one client brings back from a pass.
struct ClientOut {
    ops: Vec<(usize, OpOut)>,
    results: Vec<JobResult>,
    spans: Vec<Span>,
}

impl ServeMix {
    pub fn new(seed: u64) -> Self {
        // The job stream's shape — patterns, kinds, tenants, order — is the
        // population; the seed redraws every value and right-hand side.
        let specs = generate_workload(&WorkloadParams {
            jobs: JOBS,
            hot_patterns: HOT_PATTERNS,
            hot_fraction: 0.7,
            value_versions: 8,
            solve_fraction: 0.3,
            hard_fraction: 0.0,
            fault_every: 0,
            tenants: 4,
            hot_n: 300,
            cold_n: 200,
            seed: POPULATION_SEED,
        });

        // Hot plans' cache footprints, to size the tiers.
        let mut hot_bytes: BTreeMap<u64, u64> = BTreeMap::new();
        for spec in specs.iter().filter(|s| s.hot) {
            hot_bytes
                .entry(pattern_fingerprint(&spec.matrix))
                .or_insert_with(|| plan_bytes(&spec.matrix));
        }
        let hot_total: u64 = hot_bytes.values().sum();

        let jobs = specs
            .into_iter()
            .enumerate()
            .map(|(i, mut spec)| {
                // Same function of (seed, pattern, entry) for every job, so
                // two jobs that shared pattern and values still do and the
                // cached-solve tier keeps its traffic.
                reseed_values(&mut spec.matrix, seed);
                let n = spec.matrix.n_rows();
                let b = spmv(&spec.matrix, &solution(n, mix(seed, 1000 + i as u64)));
                if let JobKind::Solve { rhs } = &mut spec.kind {
                    *rhs = vec![b.clone()];
                }
                Job { spec, b }
            })
            .collect();

        let service = SolverService::start(ServiceConfig {
            workers: WORKERS,
            devices: 1,
            observability: true,
            cache_dir: None,
            cache_budget_bytes: hot_total * 3 / 4,
            host_cache_budget_bytes: 4 * hot_total,
            ..ServiceConfig::default()
        });
        ServeMix {
            jobs,
            service,
            origin: Instant::now(),
            thread_spans: vec![Vec::new(); CLIENTS],
        }
    }

    /// One client's share of the pass: jobs `c, c + CLIENTS, …`.
    fn client(&self, c: usize, traced: bool, pass: u32) -> ClientOut {
        let mut out = ClientOut {
            ops: Vec::new(),
            results: Vec::new(),
            spans: Vec::new(),
        };
        let mut t = Tracer::new(self.origin);
        t.pass = pass;
        for i in (c..self.jobs.len()).step_by(CLIENTS) {
            let job = &self.jobs[i];
            let spec = job.spec.clone();
            let op = i as u32;
            let t0 = Instant::now();
            let result = if traced {
                let whole = t.begin("server.job", op);
                let (h, _) = t.time("server.submit", op, || self.service.submit(spec));
                let (r, _) = t.time("server.wait", op, || h.and_then(|h| h.wait()));
                t.end(whole);
                r
            } else {
                self.service.submit(spec).and_then(|h| h.wait())
            };
            let lat_ms = ms_since(t0);
            let op_out = match result {
                Ok(r) => {
                    let checked = if traced {
                        t.time("harness.verify", op, || check(job, &r)).0
                    } else {
                        check(job, &r)
                    };
                    let o = OpOut {
                        lat_ms,
                        sim_ns: r.sim_ns,
                        hash: hash_vals(&r.factorization.lu.vals),
                        failure: checked.err(),
                    };
                    out.results.push(r);
                    o
                }
                Err(e) => OpOut::failed(lat_ms, e),
            };
            out.ops.push((i, op_out));
        }
        out.spans = t.into_spans();
        out
    }

    fn run(&mut self, traced: bool, pass: u32) -> (Vec<OpOut>, Vec<JobResult>) {
        let this = &*self;
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || this.client(c, traced, pass)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut ops: Vec<Option<OpOut>> = vec![None; self.jobs.len()];
        let mut results = Vec::new();
        for (c, out) in outs.into_iter().enumerate() {
            for (i, o) in out.ops {
                ops[i] = Some(o);
            }
            results.extend(out.results);
            self.thread_spans[c].extend(out.spans);
        }
        (
            ops.into_iter()
                .map(|o| o.expect("every job belongs to one client"))
                .collect(),
            results,
        )
    }
}

/// The cache footprint of `a`'s plan entry, as the service will charge it.
fn plan_bytes(a: &gplu::sparse::Csr) -> u64 {
    let opts = LuOptions::default();
    let gpu = Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()));
    let f = LuFactorization::compute(&gpu, a, &opts).expect("set-up: hot patterns factorize");
    let plan = f
        .refactor_plan(a, &opts)
        .expect("set-up: the plan is captured from its own input");
    CachedFactor::new(plan, TriSolvePlan::new(&f.lu)).approx_bytes()
}

/// Rescales row `i` by a factor in `[0.5, 1.5)` drawn from `(seed, i)`:
/// new values, same pattern, dominance and conditioning untouched.
fn reseed_values(a: &mut gplu::sparse::Csr, seed: u64) {
    let mut rng = SplitMix::new(seed);
    for i in 0..a.n_rows() {
        let scale = 0.5 + rng.unit();
        for k in a.row_ptr[i]..a.row_ptr[i + 1] {
            a.vals[k] *= scale;
        }
    }
}

/// Solves the job's system through the returned factors (or takes the
/// solution a `Solve` job returned) and checks the residual.
fn check(job: &Job, r: &JobResult) -> Result<(), String> {
    let x = match &r.solutions {
        Some(xs) => xs.first().cloned().ok_or("no solution returned")?,
        None => r
            .factorization
            .solve(&job.b)
            .map_err(|e| format!("solve through returned factors: {e}"))?,
    };
    let check = Check {
        a: &job.spec.matrix,
        b: &job.b,
        tol: TOL,
    };
    check.failure(&x).map_or(Ok(()), Err)
}

impl Workload for ServeMix {
    fn pass(&mut self) -> Vec<OpOut> {
        self.run(false, 0).0
    }

    fn traced_pass(&mut self, t: &mut Tracer, l: &mut Layers) -> Vec<OpOut> {
        let s0 = self.service.stats();
        let c0 = self.service.cache_counters();
        let (ops, results) = self.run(true, t.pass);
        let s1 = self.service.stats();
        let c1 = self.service.cache_counters();

        l.add("server.jobs", (s1.completed - s0.completed) as f64);
        l.add("server.tier_cold", (s1.cold - s0.cold) as f64);
        l.add("server.tier_warm", (s1.warm - s0.warm) as f64);
        l.add(
            "server.tier_warm_host",
            (s1.warm_host - s0.warm_host) as f64,
        );
        l.add(
            "server.tier_cached_solve",
            (s1.cached_solve - s0.cached_solve) as f64,
        );
        let hot_jobs = (s1.hot_jobs - s0.hot_jobs).max(1);
        l.add(
            "server.hot_hit_rate",
            (s1.hot_hits - s0.hot_hits) as f64 / hot_jobs as f64,
        );
        l.add(
            "server.plans_built",
            (s1.plans_built - s0.plans_built) as f64,
        );
        l.add("server.evictions", (c1.evictions - c0.evictions) as f64);
        l.add("server.demotions", (c1.demotions - c0.demotions) as f64);
        l.add("server.promotions", (c1.promotions - c0.promotions) as f64);
        l.max("server.max_depth", s1.max_depth as f64);
        l.add("server.rejected", (s1.rejected - s0.rejected) as f64);
        for r in &results {
            let wall_ms = r.wall_ns as f64 / 1e6;
            l.sample("server.queue_wait_ms", r.queue_wait_ns as f64 / 1e6);
            l.sample("server.job_wall_ms", wall_ms);
            l.sample(
                match r.tier {
                    ExecTier::Cold => "server.cold_wall_ms",
                    ExecTier::Warm | ExecTier::WarmHost | ExecTier::WarmDisk => {
                        "server.warm_wall_ms"
                    }
                    ExecTier::CachedSolve => "server.cached_solve_wall_ms",
                },
                wall_ms,
            );
            if r.solve_wall_ns > 0 {
                l.sample("server.solve_wall_ms", r.solve_wall_ns as f64 / 1e6);
            }
            l.add("server.job_wall_sum_ms", wall_ms);
            l.add("core.recovery_events", r.recovery_events as f64);
        }
        for o in &ops {
            l.add("ops.wall_ms", o.lat_ms);
            l.sample("core.op_wall_ms", o.lat_ms);
        }
        ops
    }

    fn sim_exact(&self) -> bool {
        false
    }

    fn take_thread_spans(&mut self) -> Vec<Vec<Span>> {
        std::mem::take(&mut self.thread_spans)
    }
}
