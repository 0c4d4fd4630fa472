//! `chain_banded`: banded matrices whose level schedules are as deep as
//! the matrix is large. Each matrix is factorized cold (one operation) and
//! then solved for four single right-hand sides (four operations), so the
//! median operation is a launch-bound triangular solve.

use super::factor_solve::System;
use super::{
    ms_since, record_device, record_report, replay_factor, replay_solve, OpOut, Ops, ReplayedFactor,
};
use crate::gen::{mix, seeded_variant, solution, POPULATION_SEED};
use crate::trace::{Layers, Tracer};
use crate::verify::{hash_vals, spmv, Check};
use gplu::core::{LuFactorization, LuOptions};
use gplu::numeric::TriSolvePlan;
use gplu::sim::Gpu;
use gplu::sparse::gen::random::banded_dominant;
use std::time::Instant;

/// `(n, half-bandwidth)` of the chains.
const CHAINS: [(usize, usize); 4] = [(3000, 1), (3700, 2), (4500, 3), (5300, 4)];
/// Single-RHS solves per factorization.
const SOLVES: usize = 4;
const TOL: f64 = 1e-8;

/// A factorization kept on its device between the operation that computed
/// it and the solves that use it.
struct Live {
    gpu: Gpu,
    f: LuFactorization,
    plan: TriSolvePlan,
    /// Hash of `f.lu.vals`: what a solve on these factors reports as its
    /// output hash (solutions themselves repeat only to rounding).
    hash: u64,
}

pub struct ChainBanded {
    systems: Vec<System>,
    /// `SOLVES` right-hand sides per system.
    rhs: Vec<Vec<Vec<f64>>>,
    opts: LuOptions,
    live: Option<Live>,
    /// The replay's counterpart of `live`.
    live_replay: Option<ReplayedFactor>,
}

impl ChainBanded {
    pub fn new(seed: u64) -> Self {
        let systems: Vec<System> = CHAINS
            .iter()
            .enumerate()
            .map(|(i, &(n, band))| {
                let base = banded_dominant(n, band, mix(POPULATION_SEED, 200 + i as u64));
                System::new(
                    seeded_variant(&base, mix(seed, i as u64), 0.05),
                    mix(seed, 1000),
                )
            })
            .collect();
        let rhs = systems
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (0..SOLVES)
                    .map(|k| {
                        spmv(
                            &s.a,
                            &solution(s.a.n_rows(), mix(seed, 2000 + (i * SOLVES + k) as u64)),
                        )
                    })
                    .collect()
            })
            .collect();
        ChainBanded {
            systems,
            rhs,
            opts: LuOptions::default(),
            live: None,
            live_replay: None,
        }
    }
}

/// Operation `i` is `(matrix, None)` for its factorization or
/// `(matrix, Some(k))` for its `k`-th solve.
fn decode(i: usize) -> (usize, Option<usize>) {
    let m = i / (1 + SOLVES);
    match i % (1 + SOLVES) {
        0 => (m, None),
        k => (m, Some(k - 1)),
    }
}

impl Ops for ChainBanded {
    fn n_ops(&self) -> usize {
        CHAINS.len() * (1 + SOLVES)
    }

    fn run_op(&mut self, i: usize) -> OpOut {
        let (m, solve) = decode(i);
        let sys = &self.systems[m];
        let t0 = Instant::now();
        match solve {
            None => {
                self.live = None;
                let gpu = Gpu::new(sys.cfg.clone());
                let f = LuFactorization::compute(&gpu, &sys.a, &self.opts);
                let f = match f {
                    Ok(f) => f,
                    Err(e) => return OpOut::failed(ms_since(t0), e),
                };
                let plan = f.solve_plan();
                let lat_ms = ms_since(t0);
                let hash = hash_vals(&f.lu.vals);
                let out = OpOut {
                    lat_ms,
                    sim_ns: f.report.total().as_ns(),
                    hash,
                    failure: None,
                };
                self.live = Some(Live { gpu, f, plan, hash });
                out
            }
            Some(k) => {
                let Some(live) = &self.live else {
                    return OpOut::failed(0.0, "its factorization failed");
                };
                let b = &self.rhs[m][k];
                let check = Check {
                    a: &sys.a,
                    b,
                    tol: TOL,
                };
                let solved = live.f.solve_on_gpu(&live.gpu, &live.plan, b);
                let lat_ms = ms_since(t0);
                match solved {
                    Ok((x, t_solve)) => OpOut {
                        lat_ms,
                        sim_ns: t_solve.as_ns(),
                        hash: live.hash,
                        failure: check.failure(&x),
                    },
                    Err(e) => OpOut::failed(lat_ms, e),
                }
            }
        }
    }

    fn trace_op(&mut self, i: usize, t: &mut Tracer, l: &mut Layers) -> OpOut {
        let (m, solve) = decode(i);
        let sys = &self.systems[m];
        let op = i as u32;
        match solve {
            None => {
                self.live = None;
                self.live_replay = None;
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
                let lat_ms = t.end(whole);
                l.sample("core.op_wall_ms", lat_ms);
                let (hash, ms) = t.time("harness.verify", op, || hash_vals(&f.lu.vals));
                l.add("sparse.verify_wall_ms", ms);
                record_report(l, &f.report);

                let replay = t.begin("replay", op);
                let failure = match replay_factor(&sys.cfg, &sys.a, &self.opts, &f, t, op, l) {
                    Ok(rf) => {
                        self.live_replay = Some(rf);
                        None
                    }
                    Err(e) => Some(e),
                };
                t.end(replay);

                let out = OpOut {
                    lat_ms,
                    sim_ns: f.report.total().as_ns(),
                    hash,
                    failure,
                };
                self.live = Some(Live { gpu, f, plan, hash });
                out
            }
            Some(k) => {
                let (Some(live), Some(lr)) = (&self.live, &self.live_replay) else {
                    return OpOut::failed(0.0, "its factorization failed");
                };
                let b = &self.rhs[m][k];
                let whole = t.begin("op", op);
                let (solved, _) = t.time("core.solve_on_gpu", op, || {
                    live.f.solve_on_gpu(&live.gpu, &live.plan, b)
                });
                let lat_ms = t.end(whole);
                l.sample("core.op_wall_ms", lat_ms);
                let (x, t_solve) = match solved {
                    Ok(s) => s,
                    Err(e) => return OpOut::failed(lat_ms, e),
                };
                let check = Check {
                    a: &sys.a,
                    b,
                    tol: TOL,
                };
                let (failure, ms) = t.time("harness.verify", op, || check.failure(&x));
                let hash = live.hash;
                l.add("sparse.verify_wall_ms", ms);
                let mut failure = failure;

                let replay = t.begin("replay", op);
                let replayed = replay_solve(lr, &check, t_solve, t, op, l);
                t.end(replay);
                if let Err(e) = replayed {
                    failure.get_or_insert(e);
                }
                // The device has now seen the factorization and every solve
                // so far; the last solve's snapshot is the pass's total.
                if k + 1 == SOLVES {
                    record_device(l, &live.gpu.stats(), live.gpu.mem.peak_bytes());
                }
                OpOut {
                    lat_ms,
                    sim_ns: t_solve.as_ns(),
                    hash,
                    failure,
                }
            }
        }
    }
}
