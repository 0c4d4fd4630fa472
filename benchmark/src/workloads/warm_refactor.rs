//! `warm_refactor`: the circuit-transient path. Set-up factorizes six
//! patterns cold and captures a `RefactorPlan` and a `TriSolvePlan` for
//! each; every operation hands the plan the same pattern with drifted
//! values, refactorizes on a fresh device, and solves four right-hand
//! sides in one batch.

use super::{bits_equal, ms_since, record_device, OpOut, Ops};
use crate::gen::{drift, family_matrix, mix, seeded_variant, solution, POPULATION_SEED};
use crate::trace::{Layers, Tracer};
use crate::verify::{hash_vals, spmv, Check};
use gplu::checkpoint::PlanStore;
use gplu::core::{decode_plan, encode_plan, LuFactorization, LuOptions, RefactorPlan};
use gplu::numeric::TriSolvePlan;
use gplu::sim::{Gpu, GpuConfig};
use gplu::sparse::gen::suite::Family;
use gplu::sparse::Csr;
use std::path::PathBuf;
use std::time::Instant;

/// `(family, n, nnz per row)` of the six patterns.
const PATTERNS: [(Family, usize, f64); 6] = [
    (Family::Circuit, 950, 6.0),
    (Family::Circuit, 1300, 8.0),
    (Family::Mesh, 950, 14.0),
    (Family::Mesh, 1300, 20.0),
    (Family::Planar, 961, 5.0),
    (Family::Planar, 1369, 5.5),
];
/// Drift rounds per pass: every pattern is refactorized once per round.
const ROUNDS: usize = 2;
/// Right-hand sides per batched solve.
const BATCH: usize = 4;
const TOL: f64 = 1e-8;

struct Pattern {
    cfg: GpuConfig,
    plan: RefactorPlan,
    solve: TriSolvePlan,
}

/// One operation's inputs: pattern `p` with drifted values.
struct Step {
    p: usize,
    a: Csr,
    bs: Vec<Vec<f64>>,
}

pub struct WarmRefactor {
    patterns: Vec<Pattern>,
    steps: Vec<Step>,
    opts: LuOptions,
    /// Where the traced run exercises the plan store (inside the checkout).
    store_dir: PathBuf,
}

impl WarmRefactor {
    pub fn new(seed: u64) -> Self {
        let opts = LuOptions::default();
        let bases: Vec<Csr> = PATTERNS
            .iter()
            .enumerate()
            .map(|(i, &(family, n, density))| {
                let base = family_matrix(family, n, density, mix(POPULATION_SEED, 300 + i as u64));
                seeded_variant(&base, mix(seed, i as u64), 0.05)
            })
            .collect();
        let patterns = bases
            .iter()
            .map(|a| {
                let cfg = GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
                let f = LuFactorization::compute(&Gpu::new(cfg.clone()), a, &opts)
                    .expect("set-up: the base patterns are dominant and factorize");
                let plan = f
                    .refactor_plan(a, &opts)
                    .expect("set-up: the plan is captured from its own input");
                let solve = TriSolvePlan::new(&f.lu);
                Pattern { cfg, plan, solve }
            })
            .collect();
        let mut steps = Vec::new();
        for round in 0..ROUNDS {
            for (p, base) in bases.iter().enumerate() {
                let id = (round * PATTERNS.len() + p) as u64;
                let a = drift(base, mix(seed, 500 + id));
                let bs = (0..BATCH as u64)
                    .map(|k| spmv(&a, &solution(a.n_rows(), mix(seed, 1000 + id * 16 + k))))
                    .collect();
                steps.push(Step { p, a, bs });
            }
        }
        WarmRefactor {
            patterns,
            steps,
            opts,
            store_dir: PathBuf::from(crate::OUT_DIR).join(format!("plan-store-{seed}")),
        }
    }

    /// The first solution of a batch that misses its residual check.
    fn check(&self, i: usize, xs: &[Vec<f64>]) -> Option<String> {
        let step = &self.steps[i];
        xs.iter().zip(&step.bs).enumerate().find_map(|(k, (x, b))| {
            let check = Check {
                a: &step.a,
                b,
                tol: TOL,
            };
            check.failure(x).map(|e| format!("rhs {k}: {e}"))
        })
    }

    /// The plan's life outside a refactorization — capture, wire codec,
    /// disk store — timed once per traced pass for every pattern.
    fn trace_plan_lifecycle(&self, t: &mut Tracer, l: &mut Layers) -> Result<(), String> {
        let store = PlanStore::open(&self.store_dir).map_err(|e| format!("plan store: {e}"))?;
        for (p, pat) in self.patterns.iter().enumerate() {
            let op = (self.steps.len() + p) as u32;
            let a = &self.steps[p].a;
            let f = LuFactorization::compute(&Gpu::new(pat.cfg.clone()), a, &self.opts)
                .map_err(|e| format!("pattern {p}: {e}"))?;
            let (plan, ms) = t.time("core.refactor_plan", op, || f.refactor_plan(a, &self.opts));
            l.add("core.refactor_plan_wall_ms", ms);
            let plan = plan.map_err(|e| format!("pattern {p}: {e}"))?;
            l.add("core.plan_bytes", plan.approx_bytes() as f64);
            let (snap, ms) = t.time("core.encode_plan", op, || encode_plan(&plan));
            l.add("core.plan_encode_wall_ms", ms);
            let key = plan.pattern_fp();
            let (saved, ms) = t.time("checkpoint.plan_save", op, || store.save(key, &snap));
            l.add("checkpoint.plan_save_wall_ms", ms);
            let bytes = saved.map_err(|e| format!("pattern {p}: save: {e}"))?;
            l.add("core.plan_snapshot_bytes", bytes as f64);
            let (loaded, ms) = t.time("checkpoint.plan_load", op, || store.load(key));
            l.add("checkpoint.plan_load_wall_ms", ms);
            let loaded = loaded
                .map_err(|e| format!("pattern {p}: load: {e}"))?
                .ok_or_else(|| format!("pattern {p}: saved plan not found"))?;
            let (decoded, ms) = t.time("core.decode_plan", op, || decode_plan(&loaded, key));
            l.add("core.plan_decode_wall_ms", ms);
            let decoded = decoded.map_err(|e| format!("pattern {p}: decode: {e}"))?;
            // The plan that came back from disk must factorize like the
            // one that went in.
            let again = decoded
                .refactorize(&Gpu::new(pat.cfg.clone()), a)
                .map_err(|e| format!("pattern {p}: decoded plan: {e}"))?;
            if !bits_equal(&again.lu.vals, &f.lu.vals) {
                return Err(format!("pattern {p}: decoded plan factors differ"));
            }
        }
        Ok(())
    }
}

impl Drop for WarmRefactor {
    fn drop(&mut self) {
        // Only the traced run creates it; a leftover directory is harmless.
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

impl Ops for WarmRefactor {
    fn n_ops(&self) -> usize {
        self.steps.len()
    }

    fn run_op(&mut self, i: usize) -> OpOut {
        let step = &self.steps[i];
        let pat = &self.patterns[step.p];
        let t0 = Instant::now();
        let gpu = Gpu::new(pat.cfg.clone());
        let out = pat.plan.refactorize(&gpu, &step.a).and_then(|f| {
            let (xs, t_solve) = f.solve_many_on_gpu(&gpu, &pat.solve, &step.bs)?;
            Ok((f, xs, t_solve))
        });
        let lat_ms = ms_since(t0);
        match out {
            Ok((f, xs, t_solve)) => OpOut {
                lat_ms,
                sim_ns: (f.report.total() + t_solve).as_ns(),
                hash: hash_vals(&f.lu.vals),
                failure: self.check(i, &xs),
            },
            Err(e) => OpOut::failed(lat_ms, e),
        }
    }

    fn trace_op(&mut self, i: usize, t: &mut Tracer, l: &mut Layers) -> OpOut {
        let step = &self.steps[i];
        let pat = &self.patterns[step.p];
        let op = i as u32;

        // `refactorize` has no finer public layering, so the operation
        // under spans *is* the layered view; nothing is replayed.
        let whole = t.begin("op", op);
        let gpu = Gpu::new(pat.cfg.clone());
        let (f, ms) = t.time("core.refactorize", op, || {
            pat.plan.refactorize(&gpu, &step.a)
        });
        l.add("core.refactorize_wall_ms", ms);
        l.add("launch.wall_ms", ms);
        let f = match f {
            Ok(f) => f,
            Err(e) => return OpOut::failed(t.end(whole), e),
        };
        let (solved, ms) = t.time("trisolve.solve_gpu_batch", op, || {
            f.solve_many_on_gpu(&gpu, &pat.solve, &step.bs)
        });
        l.add("trisolve.solve_wall_ms", ms);
        l.add("launch.wall_ms", ms);
        let lat_ms = t.end(whole);
        l.sample("core.op_wall_ms", lat_ms);
        l.add("ops.wall_ms", lat_ms);
        let (xs, t_solve) = match solved {
            Ok(s) => s,
            Err(e) => return OpOut::failed(lat_ms, e),
        };
        let ((mut failure, hash), ms) = t.time("harness.verify", op, || {
            (self.check(i, &xs), hash_vals(&f.lu.vals))
        });
        l.add("sparse.verify_wall_ms", ms);

        let r = &f.report;
        l.add("core.refactorize_sim_ms", r.total().as_ms());
        l.add("numeric.sim_ms", r.numeric.as_ms());
        l.add("preprocess.sim_ms", r.preprocess.as_ms());
        l.add("numeric.merge_steps", r.merge_steps as f64);
        l.add("numeric.probes", r.probes as f64);
        l.add("numeric.gemm_tiles", r.gemm_tiles as f64);
        l.add("numeric.merge_ops", 1.0);
        let num = &r.phase_stats.numeric;
        l.add(
            "numeric.kernels",
            (num.kernels_host + num.kernels_device) as f64,
        );
        l.add("core.recovery_events", r.recovery.len() as f64);
        l.add("trisolve.sim_ms", t_solve.as_ms());
        l.add("trisolve.rhs", BATCH as f64);
        l.add(
            "trisolve.levels",
            (pat.solve.l_levels.n_levels() + pat.solve.u_levels.n_levels()) as f64,
        );
        let dev = gpu.stats();
        l.add(
            "launches.trisolve",
            (dev.kernels_host + dev.kernels_device - num.kernels_host - num.kernels_device) as f64,
        );
        l.add(
            "launches.levelize_numeric",
            (num.kernels_host + num.kernels_device) as f64,
        );
        record_device(l, &dev, gpu.mem.peak_bytes());

        // The repo's contract: a warm refactorization is bit-identical to
        // a cold compute of the same matrix. Held here, outside any metric.
        let (cold, _) = t.time("reference.cold_compute", op, || {
            LuFactorization::compute(&Gpu::new(pat.cfg.clone()), &step.a, &self.opts)
        });
        match cold {
            Ok(c) if bits_equal(&c.lu.vals, &f.lu.vals) => {}
            Ok(_) => {
                failure.get_or_insert("warm factors differ from a cold compute".to_string());
            }
            Err(e) => {
                failure.get_or_insert(format!("cold reference: {e}"));
            }
        }

        if i + 1 == self.steps.len() {
            if let Err(e) = self.trace_plan_lifecycle(t, l) {
                failure.get_or_insert(e);
            }
        }
        OpOut {
            lat_ms,
            sim_ns: (r.total() + t_solve).as_ns(),
            hash,
            failure,
        }
    }
}
