//! `cold_suite` and `pivot_hard`: every operation is a cold
//! `LuFactorization::compute` on a fresh out-of-core device, a solve plan,
//! one single-RHS device solve, and the harness's residual check.

use super::{ms_since, record_device, record_report, replay_factor, replay_solve, OpOut, Ops};
use crate::gen::{
    family_matrix, mix, scale_columns_pow2, seeded_variant, solution, POPULATION_SEED,
};
use crate::trace::{Layers, Tracer};
use crate::verify::{hash_vals, spmv, Check};
use gplu::core::{LuFactorization, LuOptions, PivotPolicy};
use gplu::sim::{Gpu, GpuConfig};
use gplu::sparse::gen::hard::HardKind;
use gplu::sparse::gen::random::random_dominant;
use gplu::sparse::gen::suite::paper_suite;
use gplu::sparse::Csr;
use std::time::Instant;

/// One linear system handed to the program.
pub struct System {
    pub a: Csr,
    pub b: Vec<f64>,
    /// Device whose memory cannot hold the symbolic intermediates of `a`.
    pub cfg: GpuConfig,
}

impl System {
    pub fn new(a: Csr, seed: u64) -> System {
        let b = spmv(&a, &solution(a.n_rows(), seed));
        let cfg = GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
        System { a, b, cfg }
    }

    /// The check a solution of this system must pass.
    pub fn check(&self, tol: f64) -> Check<'_> {
        Check {
            a: &self.a,
            b: &self.b,
            tol,
        }
    }
}

pub struct FactorSolve {
    systems: Vec<System>,
    opts: LuOptions,
    /// Residual tolerance of the harness's check.
    tol: f64,
}

/// Scale divisor of the Table 2 analogs (n = paper_n / 512, floored).
const COLD_SCALE: usize = 512;
/// Floor on the analog dimension: below it fixed device overheads swamp
/// the matrix.
const COLD_MIN_N: usize = 600;

/// The paper's population: the 18 Table 2 analogs, default options.
pub fn cold_suite(seed: u64) -> FactorSolve {
    let systems = paper_suite()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let n = (e.paper_n / COLD_SCALE).max(COLD_MIN_N);
            let base = family_matrix(
                e.family,
                n,
                e.paper_density(),
                mix(POPULATION_SEED, i as u64),
            );
            System::new(
                seeded_variant(&base, mix(seed, i as u64), 0.05),
                mix(seed, 1000 + i as u64),
            )
        })
        .collect();
    FactorSolve {
        systems,
        opts: LuOptions::default(),
        tol: 1e-8,
    }
}

/// Dimension of the adversarial matrices.
const HARD_N: usize = 830;
/// Dimension of the dominant matrix on which pivot discovery finds nothing.
const DOMINANT_N: usize = 1300;

/// Two of each adversarial family plus one dominant matrix, all under
/// threshold pivoting with the escalation ladder armed. Static pivoting
/// (the MC64-style transversal) is on, as a production solver would have
/// it for matrices with structurally missing diagonals: without it
/// pre-processing writes 1000 into the holes and the program solves a
/// different system from the one it was given.
pub fn pivot_hard(seed: u64) -> FactorSolve {
    let mut systems = Vec::new();
    for (k, kind) in HardKind::ALL.iter().enumerate() {
        for rep in 0..2u64 {
            let i = 2 * k as u64 + rep;
            let base = kind.generate(HARD_N, mix(POPULATION_SEED, 100 + i));
            systems.push(System::new(
                scale_columns_pow2(&base, mix(seed, i)),
                mix(seed, 1000 + i),
            ));
        }
    }
    let base = random_dominant(DOMINANT_N, 5.0, mix(POPULATION_SEED, 199));
    systems.push(System::new(
        seeded_variant(&base, mix(seed, 99), 0.05),
        mix(seed, 1099),
    ));
    let mut opts = LuOptions::default().with_pivot(PivotPolicy::Threshold { tau: 0.1 });
    opts.gate.escalate = true;
    opts.preprocess.static_pivot = true;
    FactorSolve {
        systems,
        opts,
        tol: 1e-6,
    }
}

impl Ops for FactorSolve {
    fn n_ops(&self) -> usize {
        self.systems.len()
    }

    fn run_op(&mut self, i: usize) -> OpOut {
        let sys = &self.systems[i];
        let t0 = Instant::now();
        let gpu = Gpu::new(sys.cfg.clone());
        let out = LuFactorization::compute(&gpu, &sys.a, &self.opts).and_then(|f| {
            let plan = f.solve_plan();
            let (x, t_solve) = f.solve_on_gpu(&gpu, &plan, &sys.b)?;
            Ok((f, x, t_solve))
        });
        let lat_ms = ms_since(t0);
        match out {
            Ok((f, x, t_solve)) => OpOut {
                lat_ms,
                sim_ns: (f.report.total() + t_solve).as_ns(),
                hash: hash_vals(&f.lu.vals),
                failure: sys.check(self.tol).failure(&x),
            },
            Err(e) => OpOut::failed(lat_ms, e),
        }
    }

    fn trace_op(&mut self, i: usize, t: &mut Tracer, l: &mut Layers) -> OpOut {
        let sys = &self.systems[i];
        let op = i as u32;

        // The operation as the timed run executes it, under spans.
        let whole = t.begin("op", op);
        let gpu = Gpu::new(sys.cfg.clone());
        let (f, ms) = t.time("core.compute", op, || {
            LuFactorization::compute(&gpu, &sys.a, &self.opts)
        });
        l.add("core.compute_wall_ms", ms);
        let f = match f {
            Ok(f) => f,
            Err(e) => return OpOut::failed(t.end(whole), e),
        };
        let (plan, _) = t.time("core.solve_plan", op, || f.solve_plan());
        let (solved, _) = t.time("core.solve_on_gpu", op, || {
            f.solve_on_gpu(&gpu, &plan, &sys.b)
        });
        let lat_ms = t.end(whole);
        l.sample("core.op_wall_ms", lat_ms);
        let (x, t_solve) = match solved {
            Ok(s) => s,
            Err(e) => return OpOut::failed(lat_ms, e),
        };
        let check = sys.check(self.tol);
        let ((failure, hash), ms) = t.time("harness.verify", op, || {
            (check.failure(&x), hash_vals(&f.lu.vals))
        });
        l.add("sparse.verify_wall_ms", ms);
        record_report(l, &f.report);
        record_device(l, &gpu.stats(), gpu.mem.peak_bytes());
        let mut failure = failure;

        // The same work again, layer by layer through public entry points.
        let replay = t.begin("replay", op);
        let replayed = replay_factor(&sys.cfg, &sys.a, &self.opts, &f, t, op, l)
            .and_then(|rf| replay_solve(&rf, &check, t_solve, t, op, l));
        t.end(replay);
        if let Err(e) = replayed {
            failure.get_or_insert(e);
        }

        OpOut {
            lat_ms,
            sim_ns: (f.report.total() + t_solve).as_ns(),
            hash,
            failure,
        }
    }
}
