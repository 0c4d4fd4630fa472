//! `fleet_4dev`: `LuFactorization::compute_fleet` over a fresh four-device
//! fleet, then a host solve through the factors. Simulated time is the
//! fleet's makespan.

use super::factor_solve::System;
use super::{bits_equal, ms_since, record_report, OpOut, Ops};
use crate::gen::{family_matrix, mix, seeded_variant, POPULATION_SEED};
use crate::replay::replay_compute_fleet;
use crate::trace::{Layers, Tracer};
use crate::verify::hash_vals;
use gplu::core::{LuFactorization, LuOptions};
use gplu::sim::DeviceFleet;
use gplu::sparse::gen::suite::Family;
use gplu::sparse::triangular::solve_lu;
use std::time::Instant;

const DEVICES: usize = 4;
/// Mid-size analogs of PR and G7 (circuit), IN, AP and BMC (mesh):
/// `(family, n, nnz per row)`. An odd count, so that the median operation
/// is one of them and not the gap between two.
const SHAPES: [(Family, usize, f64); 5] = [
    (Family::Circuit, 2400, 9.0),
    (Family::Mesh, 1900, 37.0),
    (Family::Mesh, 2600, 3.9),
    (Family::Mesh, 1100, 36.3),
    (Family::Circuit, 1300, 14.1),
];
const TOL: f64 = 1e-8;

pub struct Fleet4Dev {
    systems: Vec<System>,
    opts: LuOptions,
    /// Σ single-device makespans of the same matrices, computed in the
    /// first traced pass (simulated time is deterministic).
    one_device_sim_ns: Option<f64>,
}

impl Fleet4Dev {
    pub fn new(seed: u64) -> Self {
        let systems = SHAPES
            .iter()
            .enumerate()
            .map(|(i, &(family, n, density))| {
                let base = family_matrix(family, n, density, mix(POPULATION_SEED, 400 + i as u64));
                System::new(
                    seeded_variant(&base, mix(seed, i as u64), 0.05),
                    mix(seed, 1000 + i as u64),
                )
            })
            .collect();
        Fleet4Dev {
            systems,
            opts: LuOptions::default(),
            one_device_sim_ns: None,
        }
    }

    fn residual_failure(&self, i: usize, x: &[f64]) -> Option<String> {
        self.systems[i].check(TOL).failure(x)
    }
}

impl Ops for Fleet4Dev {
    fn n_ops(&self) -> usize {
        self.systems.len()
    }

    fn run_op(&mut self, i: usize) -> OpOut {
        let sys = &self.systems[i];
        let t0 = Instant::now();
        let fleet = DeviceFleet::new(DEVICES, sys.cfg.clone());
        let out = LuFactorization::compute_fleet(&fleet, &sys.a, &self.opts).and_then(|f| {
            let x = f.solve(&sys.b)?;
            Ok((f, x))
        });
        let lat_ms = ms_since(t0);
        match out {
            Ok((f, x)) => OpOut {
                lat_ms,
                sim_ns: fleet.makespan().as_ns(),
                hash: hash_vals(&f.lu.vals),
                failure: self.residual_failure(i, &x),
            },
            Err(e) => OpOut::failed(lat_ms, e),
        }
    }

    fn trace_op(&mut self, i: usize, t: &mut Tracer, l: &mut Layers) -> OpOut {
        if self.one_device_sim_ns.is_none() {
            let mut total = 0.0;
            for sys in &self.systems {
                let one = DeviceFleet::new(1, sys.cfg.clone());
                match LuFactorization::compute_fleet(&one, &sys.a, &self.opts) {
                    Ok(_) => total += one.makespan().as_ns(),
                    Err(e) => return OpOut::failed(0.0, format!("single-device reference: {e}")),
                }
            }
            self.one_device_sim_ns = Some(total);
        }
        let sys = &self.systems[i];
        let op = i as u32;

        let whole = t.begin("op", op);
        let fleet = DeviceFleet::new(DEVICES, sys.cfg.clone());
        let (f, ms) = t.time("core.compute_fleet", op, || {
            LuFactorization::compute_fleet(&fleet, &sys.a, &self.opts)
        });
        l.add("fleet.compute_wall_ms", ms);
        let f = match f {
            Ok(f) => f,
            Err(e) => return OpOut::failed(t.end(whole), e),
        };
        let (x, _) = t.time("core.solve", op, || f.solve(&sys.b));
        let lat_ms = t.end(whole);
        l.sample("core.op_wall_ms", lat_ms);
        let x = match x {
            Ok(x) => x,
            Err(e) => return OpOut::failed(lat_ms, e),
        };
        let ((mut failure, hash), ms) = t.time("harness.verify", op, || {
            (self.residual_failure(i, &x), hash_vals(&f.lu.vals))
        });
        l.add("sparse.verify_wall_ms", ms);
        let makespan = fleet.makespan();

        record_report(l, &f.report);
        let stats = fleet.stats();
        for d in &stats.devices {
            super::record_device(l, &d.stats, d.mem_peak);
        }
        if let Some(fr) = &f.report.fleet {
            l.add("fleet.exchanges", fr.exchanges as f64);
            l.add("fleet.exchange_bytes", fr.exchange_bytes as f64);
            l.add("fleet.exchange_sim_ms", fr.exchange_ns / 1e6);
            let busy_max = fr.per_device_ns.iter().fold(0.0f64, |m, &v| m.max(v));
            l.add("fleet.busy_max_ns", busy_max);
            l.add(
                "fleet.busy_mean_ns",
                fr.per_device_ns.iter().sum::<f64>() / fr.per_device_ns.len().max(1) as f64,
            );
        }
        l.add("fleet.makespan_ns", makespan.as_ns());
        l.set("fleet.one_device_ns", self.one_device_sim_ns.unwrap_or(0.0));

        let replay = t.begin("replay", op);
        let fleet2 = DeviceFleet::new(DEVICES, sys.cfg.clone());
        match replay_compute_fleet(&fleet2, &sys.a, &self.opts, t, op, l) {
            Ok(rp) => {
                l.add(rp.engine.ops_metric(), 1.0);
                // The host solve, as `LuFactorization::solve` does it.
                let b_perm = rp.p_row.permute_vec(&sys.b);
                let (y, ms) = t.time("sparse.solve_lu", op, || solve_lu(&rp.lu, &b_perm));
                l.add("trisolve.solve_wall_ms", ms);
                l.add("trisolve.rhs", 1.0);
                let same_x = y.is_ok_and(|y| {
                    let x2: Vec<f64> = (0..y.len()).map(|k| y[rp.p_col.apply(k)]).collect();
                    bits_equal(&x, &x2)
                });
                if !bits_equal(&rp.lu.vals, &f.lu.vals) {
                    failure
                        .get_or_insert("replayed factors differ from compute_fleet's".to_string());
                } else if !same_x {
                    failure.get_or_insert("replayed host solve differs".to_string());
                } else if rp.sim_total.as_ns() != f.report.total().as_ns()
                    || fleet2.makespan().as_ns() != makespan.as_ns()
                {
                    failure.get_or_insert(format!(
                        "replay priced {} ns (makespan {}), compute_fleet {} ns (makespan {})",
                        rp.sim_total.as_ns(),
                        fleet2.makespan().as_ns(),
                        f.report.total().as_ns(),
                        makespan.as_ns()
                    ));
                }
            }
            Err(e) => {
                failure.get_or_insert(format!("replay failed: {e}"));
            }
        }
        t.end(replay);

        OpOut {
            lat_ms,
            sim_ns: makespan.as_ns(),
            hash,
            failure,
        }
    }
}
