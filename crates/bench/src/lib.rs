//! # gplu-bench
//!
//! The experiment harness: one `figures` binary runs every table and
//! figure of the paper, the ablations and the extension benches (see
//! DESIGN.md §4 for the index), plus Criterion wall-clock benches.
//!
//! Shared here: suite preparation (analog generation + the scaled GPU
//! profile per DESIGN.md §2/§6), the measurement helpers several
//! experiments use, and simple fixed-width table printing. The runner
//! (experiment table, flag table, BENCH writer) is [`runner`].

use gplu_numeric::NumericOutcome;
use gplu_schedule::{levelize_cpu, DepGraph, Levels};
use gplu_sim::{CostModel, Gpu, GpuConfig};
use gplu_sparse::convert::csr_to_csc;
use gplu_sparse::gen::suite::SuiteEntry;
use gplu_sparse::{Csc, Csr};
use gplu_symbolic::symbolic_cpu;
use gplu_trace::JsonValue;
use std::time::Instant;

mod experiments;
pub mod runner;
pub mod table;

pub use runner::Opts;
pub use table::Table;

/// A generated experiment input: the analog matrix plus the matched GPU
/// profile.
pub struct Prepared {
    /// Suite entry it came from.
    pub entry: SuiteEntry,
    /// The analog matrix.
    pub matrix: Csr,
    /// Scale divisor used.
    pub scale: usize,
}

impl Prepared {
    /// Generates the analog for `entry` at `scale`.
    pub fn new(entry: SuiteEntry, scale: usize) -> Prepared {
        let matrix = entry.generate(scale);
        Prepared {
            entry,
            matrix,
            scale,
        }
    }

    /// The cost model for this scale: fixed latencies shrink with the
    /// matrix (DESIGN.md §6), and the UVM fault-group block shrinks
    /// with it too (per-byte fault-service cost invariant), so Table 3's
    /// fault-time fractions carry over.
    pub fn cost(&self) -> CostModel {
        let block = (2 * 1024 * 1024 / self.scale as u64).max(4096);
        CostModel::default()
            .scaled_latencies(self.scale)
            .with_um_page_bytes(block)
    }

    /// GPU for the symbolic-phase experiments: device memory sized so the
    /// symbolic intermediates (`24·n²` bytes) do **not** fit (forcing
    /// out-of-core chunking / UM oversubscription) while the factored
    /// matrix of `fill_nnz` entries does (the paper's assumption for the
    /// numeric phase).
    pub fn gpu_symbolic(&self, fill_nnz: usize) -> Gpu {
        let n = self.matrix.n_rows();
        let base = GpuConfig::v100_symbolic_profile(n, self.matrix.nnz());
        let csc_bytes = ((n + 1) as u64 + 2 * fill_nnz as u64) * 4;
        // Room for the factor + level data + a generous numeric headroom.
        let numeric_need = csc_bytes + 8 * n as u64 + 256 * n as u64 * 4;
        let mem = base.device_memory.max(numeric_need);
        debug_assert!(
            mem < 24 * (n as u64) * (n as u64) || n < 256,
            "profile would fit the whole symbolic intermediate state"
        );
        Gpu::with_cost(base.with_memory(mem), self.cost())
    }

    /// GPU for the numeric-format experiments (Table 4 / Figure 8): free
    /// memory after the factor reproduces the paper's dense-format column
    /// limit `M = ⌊8·10⁹ / (4·n_paper)⌋`.
    pub fn gpu_numeric(&self, fill_nnz: usize) -> Gpu {
        let n = self.matrix.n_rows();
        let m_paper = (GpuConfig::NUMERIC_BUDGET_BYTES / (self.entry.paper_n as u64 * 4)) as usize;
        let csc_bytes = ((n + 1) as u64 + 2 * fill_nnz as u64) * 4;
        let mem = csc_bytes + n as u64 * 4 + m_paper as u64 * n as u64 * 4 + 4096;
        Gpu::with_cost(GpuConfig::v100().with_memory(mem), self.cost())
    }
}

/// Pre-computes the fill size of a prepared matrix (host-side symbolic on
/// the pre-processed matrix) — used to size device profiles before the
/// measured runs.
pub fn fill_size_of(prep: &Prepared) -> (Csr, usize) {
    let pre = gplu_core::preprocess(
        &prep.matrix,
        &gplu_core::PreprocessOptions::default(),
        &CostModel::default(),
    )
    .expect("suite analogs preprocess cleanly");
    let sym = gplu_symbolic::symbolic_cpu(&pre.matrix, &CostModel::default());
    (pre.matrix, sym.result.fill_nnz())
}

/// The filled pattern of a pre-processed matrix (host symbolic) as CSC,
/// and its level schedule: the numeric experiments' shared front half.
pub fn filled_schedule(pre: &Csr) -> (Csc, Levels) {
    let sym = symbolic_cpu(pre, &CostModel::default());
    let levels = levelize_cpu(&DepGraph::build(&sym.result.filled), &CostModel::default()).levels;
    (csr_to_csc(&sym.result.filled), levels)
}

/// Runs `run` on a fresh `setup()` value `reps` times; returns the median
/// and the minimum wall time of the runs in milliseconds (setup untimed).
pub fn wall_ms<G>(reps: usize, setup: impl Fn() -> G, run: impl Fn(G)) -> (f64, f64) {
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let g = setup();
            let start = Instant::now();
            run(g);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    (walls[walls.len() / 2], walls[0])
}

/// One numeric engine on one matrix: an untimed run's outcome plus the
/// wall clock of `reps` timed runs.
pub struct Measured {
    /// Median wall time of the timed runs.
    pub wall_ms_median: f64,
    /// Fastest timed run.
    pub wall_ms_min: f64,
    /// The outcome of the untimed run.
    pub outcome: NumericOutcome,
}

impl Measured {
    /// Times `run` on a fresh `gpu_of()` device `reps` times, then keeps
    /// the outcome of one more run.
    pub fn new(
        reps: usize,
        gpu_of: impl Fn() -> Gpu,
        run: impl Fn(&Gpu) -> NumericOutcome,
    ) -> Measured {
        let (wall_ms_median, wall_ms_min) = wall_ms(reps, &gpu_of, |gpu| {
            run(&gpu);
        });
        Measured {
            wall_ms_median,
            wall_ms_min,
            outcome: run(&gpu_of()),
        }
    }

    /// Simulated device time of the run.
    pub fn sim_ns(&self) -> f64 {
        self.outcome.time.as_ns()
    }

    /// The run's BENCH entry: its `wall` times and its simulated time.
    pub fn json(&self) -> JsonValue {
        JsonValue::obj()
            .set(
                "wall",
                JsonValue::obj()
                    .set("wall_ms_median", self.wall_ms_median)
                    .set("wall_ms_min", self.wall_ms_min),
            )
            .set("sim_time_ns", self.sim_ns())
    }
}

/// A device sized by the symbolic profile of `a` (the serving and
/// pivoting benches' device).
pub fn gpu_for(a: &Csr) -> Gpu {
    Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()))
}

/// The deterministic value drift the service workload applies: identical
/// structure, perturbed entries.
pub fn drift_values(base: &Csr, version: u64) -> Csr {
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

/// Median of a non-empty slice (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    if s.len() % 2 == 1 {
        s[s.len() / 2]
    } else {
        (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0
    }
}

/// Smallest and largest of a slice of speedups (`inf` and `0` when empty).
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(0.0f64, f64::max);
    (min, max)
}

/// Geometric mean of a slice (used for speedup summaries).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sparse::gen::suite::paper_suite;

    #[test]
    fn prepared_profiles_force_out_of_core() {
        let prep = Prepared::new(paper_suite()[11].clone(), 256); // OT2
        let (_, fill) = fill_size_of(&prep);
        let gpu = prep.gpu_symbolic(fill);
        let n = prep.matrix.n_rows() as u64;
        assert!(
            gpu.mem.capacity() < 24 * n * n,
            "intermediates must not fit"
        );
    }

    #[test]
    fn numeric_profile_reproduces_paper_m() {
        use gplu_sparse::gen::suite::large_suite;
        let prep = Prepared::new(large_suite()[0].clone(), 4096); // hugetrace-00020
        let (_, fill) = fill_size_of(&prep);
        let gpu = prep.gpu_numeric(fill);
        let n = prep.matrix.n_rows();
        let csc_bytes = ((n + 1) as u64 + 2 * fill as u64) * 4;
        let free_for_buffers = gpu.mem.capacity() - csc_bytes - n as u64 * 4;
        let m = (free_for_buffers / (n as u64 * 4)) as usize;
        assert!(
            (123..=125).contains(&m),
            "hugetrace M should be ~124, got {m}"
        );
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
