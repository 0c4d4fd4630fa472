//! The refactorization fast path — the circuit-simulation workload the
//! paper (and GLU 3.0 before it) is built around.
//!
//! In SPICE-style transient analysis the same sparsity pattern is
//! factorized thousands of times with drifting values. Pre-processing,
//! symbolic factorization and levelization are *pattern-only* work:
//! [`RefactorPlan`] captures their outputs once — permutations, the
//! filled CSC pattern, the level schedule, the numeric phase's
//! [`PivotCache`], and the value-scatter maps that replay pre-processing's
//! diagonal repair — so every later timestep runs only a host value
//! scatter plus the numeric kernels. [`RefactorPlan::refactorize`] is
//! bit-identical to a cold [`LuFactorization::compute`] of the same
//! `(pattern, values)` pair — every engine applies the same arithmetic in
//! the same order — but it is *not* priced like one: the warm path skips
//! the symbolic and levelize phases and runs the merge engine directly on
//! the plan's sorted-CSC artifacts (no per-column `O(n)` dense-buffer
//! tax), the specialization real refactorization engines (cuSOLVER/cuDSS)
//! apply after analysis. Its levels follow the numeric launch rule exactly
//! as a cold run's do: one host launch, then every level continues that
//! kernel behind an in-kernel dependency wait. Late singular-pivot repair
//! is replayed exactly as on the cold path.

use crate::checkpoint::pattern_fingerprint;
use crate::error::GpluError;
use crate::pipeline::{
    lead_discipline, LuFactorization, LuOptions, NumericFormat, NumericPhase, Pass, ResidualGate,
};
use gplu_numeric::{discover_pivots_swept, BlockPlan, PivotCache, PivotPolicy};
use gplu_schedule::Levels;
use gplu_sim::{DeviceFleet, Gpu, SimTime};
use gplu_sparse::{Csc, Csr, Permutation};
use gplu_trace::{TraceSink, NOOP};

/// Everything pattern-only that a repeat factorization can reuse.
///
/// Built once from a completed [`LuFactorization`] (plus the original
/// *unpermuted* input it came from) by [`LuFactorization::refactor_plan`];
/// afterwards [`RefactorPlan::refactorize`] accepts any matrix with the
/// same sparsity pattern and produces its factors without re-running
/// pre-processing, symbolic factorization or levelization.
#[derive(Debug, Clone, Default)]
pub struct RefactorPlan {
    /// Structure-only fingerprint of the input pattern; every
    /// `refactorize` call is checked against it.
    pub(crate) pattern_fp: u64,
    pub(crate) p_row: Permutation,
    pub(crate) p_col: Permutation,
    /// Pre-processed matrix template: structure reused, values rewritten
    /// per refactorization.
    pub(crate) pre: Csr,
    /// Filled (post-symbolic) CSC pattern template.
    pub(crate) lu_pattern: Csc,
    pub(crate) levels: Levels,
    pub(crate) pivot: PivotCache,
    /// Input entry `k` → its position in `pre.vals` (after permutation).
    pub(crate) scatter_pre: Vec<usize>,
    /// Row `i` → position of the diagonal entry in `pre.vals` (always
    /// present: pre-processing completes the diagonal).
    pub(crate) pre_diag: Vec<usize>,
    /// `pre.vals` position → position in `lu_pattern.vals` (the filled
    /// pattern is a superset; fill-in slots start at 0.0).
    pub(crate) pre_to_csc: Vec<usize>,
    /// Supernode blocking plan, captured when the plan's format is
    /// [`NumericFormat::SparseBlocked`] — warm refactorizations replay it
    /// without re-scanning the pattern (the blocking pass is
    /// pattern-only, exactly like the pivot cache).
    pub(crate) block_plan: Option<BlockPlan>,
    pub(crate) format: NumericFormat,
    pub(crate) repair_value: f64,
    pub(crate) repair_singular: bool,
    /// Pivoting policy the cold factorization ran with. A `Threshold`
    /// plan's permutations already bake in the discovered row order, so
    /// every warm call re-validates that order against the new values and
    /// rejects with [`GpluError::StalePivotOrder`] on drift — the warm
    /// path never escalates and never replays a stale pivot sequence.
    pub(crate) pivot_policy: PivotPolicy,
    /// Residual acceptance gate replayed on every warm factorization.
    pub(crate) gate: ResidualGate,
}

impl RefactorPlan {
    /// The pattern key this plan serves (the factor-cache key).
    pub fn pattern_fp(&self) -> u64 {
        self.pattern_fp
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.pre.n_rows()
    }

    /// Level schedule reused by every refactorization.
    pub fn levels(&self) -> &Levels {
        &self.levels
    }

    /// The filled (post-symbolic) CSC pattern template. A rewarmed plan
    /// rebuilds its triangular-solve schedule from this structure.
    pub fn lu_pattern(&self) -> &Csc {
        &self.lu_pattern
    }

    /// Approximate host-memory footprint of the plan (the quantity a
    /// factor cache budgets against): the CSC/CSR structure clones, the
    /// schedule, the pivot cache and the scatter maps.
    pub fn approx_bytes(&self) -> u64 {
        let n = self.pre.n_rows() as u64;
        let pre_nnz = self.pre.nnz() as u64;
        let lu_nnz = self.lu_pattern.nnz() as u64;
        // CSR template (ptr 8B, idx 4B, val 8B) + CSC template + levels
        // (level_of u32 + grouped u32) + pivot cache (16 B per column, an
        // upper bound of `PivotCache::heap_bytes`) + scatter maps (usize
        // each).
        (n + 1) * 8
            + pre_nnz * 12
            + (n + 1) * 8
            + lu_nnz * 12
            + n * 8
            + n * 16
            + (self.scatter_pre.len() as u64 + n + pre_nnz) * 8
            + self.block_plan.as_ref().map_or(0, BlockPlan::approx_bytes)
    }

    /// Factorizes `a` — same pattern, new values — reusing every
    /// pattern-only artifact in the plan. See [`RefactorPlan::refactorize_traced`].
    pub fn refactorize(&self, gpu: &Gpu, a: &Csr) -> Result<LuFactorization, GpluError> {
        self.refactorize_traced(gpu, a, &NOOP)
    }

    /// [`RefactorPlan::refactorize`] with telemetry. Only a
    /// `phase.numeric` span is emitted — there *is* no symbolic or
    /// levelize phase on the warm path, and traces are the observable
    /// proof of that (see `examples/circuit_transient.rs`).
    pub fn refactorize_traced(
        &self,
        gpu: &Gpu,
        a: &Csr,
        trace: &dyn TraceSink,
    ) -> Result<LuFactorization, GpluError> {
        if pattern_fingerprint(a) != self.pattern_fp {
            return Err(GpluError::Input(format!(
                "refactorize pattern mismatch: plan was built for pattern {:#018x}, \
                 input hashes to {:#018x} — run a cold factorization instead",
                self.pattern_fp,
                pattern_fingerprint(a)
            )));
        }
        let fleet = DeviceFleet::from(gpu);
        let mut pass = Pass::new(&fleet, false, None, trace);
        let report = &mut pass.report;

        // 1. Host value scatter — the only pre-processing the warm path
        // does. Replays permutation and both diagonal-repair rules
        // (structural completion and zero replacement) through the
        // precomputed maps, so the result is exactly what `preprocess`
        // would have produced for these values.
        let mut matrix = self.pre.clone();
        matrix.vals.iter_mut().for_each(|v| *v = 0.0);
        for (k, &pos) in self.scatter_pre.iter().enumerate() {
            matrix.vals[pos] = a.vals[k];
        }
        let mut repaired = 0usize;
        for &dpos in &self.pre_diag {
            if matrix.vals[dpos] == 0.0 {
                matrix.vals[dpos] = self.repair_value;
                repaired += 1;
            }
        }
        let mut pattern = self.lu_pattern.clone();
        pattern.vals.iter_mut().for_each(|v| *v = 0.0);
        for (k, &pos) in self.pre_to_csc.iter().enumerate() {
            pattern.vals[pos] = matrix.vals[k];
        }
        // Two passes over the input entries plus the diagonal sweep.
        let scatter_time = SimTime::from_ns(
            gpu.cost()
                .cpu_parallel_ns(2 * a.nnz() as u64 + a.n_rows() as u64),
        );
        gpu.advance(scatter_time);
        report.preprocess = scatter_time;
        report.repaired_diagonals = repaired;
        report.fill_nnz = self.lu_pattern.nnz();
        report.new_fill_ins = self.lu_pattern.nnz() - self.pre.nnz();
        report.n_levels = self.levels.n_levels();
        report.max_level_width = self.levels.max_width();

        // 1b. Threshold plans captured a value-dependent row order (it is
        // baked into `p_row` and every pattern artifact). Re-run discovery
        // on the scattered matrix: if the new values still elect the same
        // pivots the discovery returns the identity (zero swaps), its
        // sweep over the plan's pattern has already factored the matrix,
        // and the plan replays bit-identically; if they elect different
        // pivots the plan is stale and replaying it would silently factor
        // with the wrong rows on the diagonal — reject with a typed error
        // naming the first moved row instead. (Auto's warm ladder below is
        // merge-priced, as under the paper's switch.)
        let mut swept = None;
        if let PivotPolicy::Threshold { tau } = self.pivot_policy {
            let discipline = lead_discipline(self.format, true);
            let (disc, factors) =
                discover_pivots_swept(&matrix, &pattern, &self.pivot, tau, discipline)
                    .map_err(GpluError::from_pivot_discovery)?;
            swept = factors;
            let disc_time = SimTime::from_ns(gpu.cost().pivot_discovery_ns(disc.flops));
            gpu.advance(disc_time);
            report.preprocess += disc_time;
            if disc.swaps > 0 {
                let col = disc
                    .pinv
                    .iter()
                    .enumerate()
                    .find(|&(i, &p)| p as usize != i)
                    .map_or(0, |(i, _)| i);
                return Err(GpluError::StalePivotOrder { col, tau });
            }
        }

        // 2. Numeric factorization with the plan's PivotCache passed
        // through so no structural pass repeats. Under `Auto`, the warm
        // path does NOT replay the cold pipeline's format heuristic: the
        // plan already holds the merge engine's entire working set (the
        // sorted filled CSC pattern plus the pivot index), so it runs the
        // merge engine directly — the same specialization real
        // refactorization engines apply (cuSOLVER/cuDSS refactor
        // through a fixed path captured at analysis time, skipping the
        // cold path's per-column dense buffers). All engines apply
        // bit-identical arithmetic — the formats differ only in access
        // cost — so the bit-for-bit contract with the cold pipeline is
        // unaffected. Explicitly forced formats are replayed as forced;
        // degradation, late pivot repair and the mirroring of static
        // clamps are the cold pass's own numeric phase.
        let ladder: &[NumericFormat] = match self.format {
            NumericFormat::Auto => &[NumericFormat::SparseMerge],
            NumericFormat::Dense => &[NumericFormat::Dense, NumericFormat::SparseMerge],
            NumericFormat::Sparse => &[NumericFormat::Sparse],
            NumericFormat::SparseMerge => &[NumericFormat::SparseMerge],
            NumericFormat::SparseBlocked => {
                &[NumericFormat::SparseBlocked, NumericFormat::SparseMerge]
            }
        };
        let lu = pass.numeric(NumericPhase {
            requested: self.format,
            ladder,
            block_plan: self.block_plan.as_ref(),
            pivot: Some(&self.pivot),
            refactorize: true,
            policy: self.pivot_policy,
            swept: swept.as_ref(),
            repair: self.repair_singular.then_some(self.repair_value),
            matrix: &mut matrix,
            pattern: &mut pattern,
            levels: &self.levels,
            perms: (&self.p_row, &self.p_col),
            partial: None,
        })?;
        let mut report = pass.report;
        report.recovery = pass.recovery;

        let mut f = LuFactorization {
            lu,
            preprocessed: matrix,
            p_row: self.p_row.clone(),
            p_col: self.p_col.clone(),
            levels: self.levels.clone(),
            report,
        };

        // 3. Residual acceptance gate — the warm path runs the same gate
        // as the cold pipeline but never escalates: a failing warm
        // factorization is rejected typed (the caller falls back to a
        // cold factorization, which owns the ladder).
        let ts = gpu.now().as_ns();
        let refactorize = || ("refactorize", true.into());
        match self.gate.check(&mut f, trace, ts, refactorize) {
            Ok(()) => Ok(f),
            Err(residual) => Err(GpluError::NumericallySingular {
                residual,
                threshold: self.gate.threshold,
                attempts: 1,
            }),
        }
    }
}

impl LuFactorization {
    /// Captures this factorization's pattern-only artifacts into a
    /// [`RefactorPlan`] for the matrix `a` it was computed from.
    ///
    /// `a` must be the *original, unpermuted* input and `opts` the options
    /// the factorization ran with: the plan records where each input entry
    /// lands after permutation and diagonal repair, and which numeric
    /// format ladder to replay. Returns [`GpluError::Input`] if `a` is
    /// inconsistent with the factorization (wrong shape, or an entry that
    /// does not map into the pre-processed pattern).
    pub fn refactor_plan(&self, a: &Csr, opts: &LuOptions) -> Result<RefactorPlan, GpluError> {
        let n = self.preprocessed.n_rows();
        if a.n_rows() != n || a.n_cols() != n {
            return Err(GpluError::Input(format!(
                "refactor_plan input is {}x{}, factorization is {n}x{n}",
                a.n_rows(),
                a.n_cols()
            )));
        }
        let pre = &self.preprocessed;

        // Input entry k → its slot in the pre-processed matrix.
        let mut scatter_pre = Vec::with_capacity(a.nnz());
        for i in 0..n {
            let ni = self.p_row.apply(i);
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                let nj = self.p_col.apply(a.col_idx[k] as usize) as u32;
                let row = &pre.col_idx[pre.row_ptr[ni]..pre.row_ptr[ni + 1]];
                let pos = row.binary_search(&nj).map_err(|_| {
                    GpluError::Input(format!(
                        "entry ({i},{}) of the input has no slot in the \
                         pre-processed pattern — not the matrix this \
                         factorization came from",
                        a.col_idx[k]
                    ))
                })?;
                scatter_pre.push(pre.row_ptr[ni] + pos);
            }
        }

        // Diagonal slot per row (pre-processing completes the diagonal).
        let mut pre_diag = Vec::with_capacity(n);
        for i in 0..n {
            let row = &pre.col_idx[pre.row_ptr[i]..pre.row_ptr[i + 1]];
            let pos = row.binary_search(&(i as u32)).map_err(|_| {
                GpluError::Input(format!("pre-processed matrix is missing diagonal {i}"))
            })?;
            pre_diag.push(pre.row_ptr[i] + pos);
        }

        // Pre-processed entry → filled-CSC slot (fill-in slots stay 0.0,
        // exactly as the symbolic phase leaves them).
        let mut pre_to_csc = Vec::with_capacity(pre.nnz());
        for i in 0..n {
            for k in pre.row_ptr[i]..pre.row_ptr[i + 1] {
                let j = pre.col_idx[k] as usize;
                let (pos, _) = self.lu.find_in_col(i, j);
                let pos = pos.ok_or_else(|| {
                    GpluError::Input(format!(
                        "pre-processed entry ({i},{j}) is missing from the filled pattern"
                    ))
                })?;
                pre_to_csc.push(pos);
            }
        }

        let pivot = PivotCache::build(&self.lu);
        // The blocking pass is pattern-only, so a forced-blocked plan
        // captures it here once; every warm refactorization replays it.
        let block_plan = (opts.format == NumericFormat::SparseBlocked)
            .then(|| BlockPlan::detect(&self.lu, &pivot, opts.block_threshold));
        Ok(RefactorPlan {
            pattern_fp: pattern_fingerprint(a),
            p_row: self.p_row.clone(),
            p_col: self.p_col.clone(),
            pre: self.preprocessed.clone(),
            lu_pattern: self.lu.clone(),
            levels: self.levels.clone(),
            pivot,
            scatter_pre,
            pre_diag,
            pre_to_csc,
            block_plan,
            format: opts.format,
            repair_value: opts.preprocess.repair_value,
            repair_singular: opts.preprocess.repair_singular,
            pivot_policy: opts.pivot,
            gate: opts.gate,
        })
    }

    /// One-shot refactorization: build the plan and run it. Callers with
    /// repeat traffic should hold the [`RefactorPlan`] (or use
    /// `gplu-server`'s factor cache) so plan construction is amortized.
    pub fn refactorize(&self, gpu: &Gpu, a: &Csr) -> Result<LuFactorization, GpluError> {
        // The plan's option-dependent knobs (format ladder, repair) are
        // re-derived from defaults here; use `refactor_plan` to carry
        // non-default options.
        self.refactor_plan(a, &LuOptions::default())?
            .refactorize(gpu, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::PreprocessOptions;
    use crate::RecoveryAction;
    use gplu_sim::GpuConfig;
    use gplu_sparse::gen::circuit::{circuit, CircuitParams};
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_sparse::verify::check_solution;
    use gplu_trace::Recorder;

    fn gpu_for(a: &Csr) -> Gpu {
        Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()))
    }

    /// Same pattern, new values, deterministic drift.
    fn drift(a: &Csr, round: u64) -> Csr {
        let mut b = a.clone();
        for (k, v) in b.vals.iter_mut().enumerate() {
            let wob = ((k as u64)
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(round * 7919)
                % 97) as f64;
            *v *= 1.0 + wob / 1000.0;
        }
        b
    }

    #[test]
    fn warm_refactorize_is_bit_identical_to_cold() {
        let a = circuit(&CircuitParams {
            n: 400,
            seed: 31,
            ..Default::default()
        });
        let opts = LuOptions::default();
        let gpu = gpu_for(&a);
        let f0 = LuFactorization::compute(&gpu, &a, &opts).expect("cold ok");
        let plan = f0.refactor_plan(&a, &opts).expect("plan ok");
        for round in 1..4 {
            let a2 = drift(&a, round);
            let cold = LuFactorization::compute(&gpu_for(&a2), &a2, &opts).expect("cold ok");
            let warm = plan.refactorize(&gpu_for(&a2), &a2).expect("warm ok");
            assert_eq!(cold.lu.vals, warm.lu.vals, "round {round}: bits must match");
            assert_eq!(cold.lu.row_idx, warm.lu.row_idx);
            assert_eq!(
                cold.preprocessed.vals, warm.preprocessed.vals,
                "scatter must replay pre-processing exactly"
            );
        }
    }

    #[test]
    fn refactorize_skips_symbolic_and_levelize() {
        let a = random_dominant(200, 4.0, 32);
        let gpu = gpu_for(&a);
        let f0 = LuFactorization::compute(&gpu, &a, &LuOptions::default()).expect("cold ok");
        let plan = f0
            .refactor_plan(&a, &LuOptions::default())
            .expect("plan ok");
        let rec = Recorder::new();
        let a2 = drift(&a, 1);
        let warm = plan
            .refactorize_traced(&gpu_for(&a2), &a2, &rec)
            .expect("warm ok");
        let events = rec.into_events();
        assert!(
            events
                .iter()
                .all(|e| e.name != "phase.symbolic" && e.name != "phase.levelize"),
            "warm path must not run pattern phases"
        );
        assert!(events.iter().any(|e| e.name == "phase.numeric"));
        assert_eq!(warm.report.symbolic, SimTime::ZERO);
        assert_eq!(warm.report.levelize, SimTime::ZERO);
        assert!(warm.report.numeric.as_ns() > 0.0);
        // The whole point: warm total strictly under cold total.
        assert!(warm.report.total() < f0.report.total());
    }

    #[test]
    fn refactorize_replays_diagonal_repair() {
        use gplu_sparse::gen::planar::{planar, PlanarParams};
        let a = planar(&PlanarParams {
            side: 12,
            tri_prob: 0.4,
            missing_diag_fraction: 0.4,
            seed: 33,
        });
        let opts = LuOptions::default();
        let f0 = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("cold ok");
        assert!(f0.report.repaired_diagonals > 0, "test needs repairs");
        let plan = f0.refactor_plan(&a, &opts).expect("plan ok");
        let a2 = drift(&a, 2);
        let cold = LuFactorization::compute(&gpu_for(&a2), &a2, &opts).expect("cold ok");
        let warm = plan.refactorize(&gpu_for(&a2), &a2).expect("warm ok");
        assert_eq!(cold.lu.vals, warm.lu.vals);
        assert_eq!(
            cold.report.repaired_diagonals,
            warm.report.repaired_diagonals
        );
    }

    #[test]
    fn refactorize_repairs_singular_pivots_like_the_cold_path() {
        // Factorize a well-conditioned matrix, then refactorize with
        // values that cancel a pivot mid-elimination.
        let mut coo = gplu_sparse::Coo::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, if i == j { 2.0 } else { 1.0 });
            }
        }
        let a = gplu_sparse::convert::coo_to_csr(&coo);
        let opts = LuOptions {
            preprocess: PreprocessOptions {
                repair_singular: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let f0 = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("cold ok");
        let plan = f0.refactor_plan(&a, &opts).expect("plan ok");

        let mut sing = a.clone();
        sing.vals.iter_mut().for_each(|v| *v = 1.0); // rank-1: pivot 1 cancels
        let cold = LuFactorization::compute(&gpu_for(&sing), &sing, &opts).expect("cold repairs");
        let warm = plan
            .refactorize(&gpu_for(&sing), &sing)
            .expect("warm repairs");
        assert_eq!(cold.lu.vals, warm.lu.vals);
        assert!(warm
            .report
            .recovery
            .events()
            .iter()
            .any(|e| matches!(e.action, RecoveryAction::PivotRepaired { .. })));
    }

    #[test]
    fn pattern_mismatch_is_a_typed_error() {
        let a = random_dominant(100, 4.0, 34);
        let f0 = LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("ok");
        let plan = f0
            .refactor_plan(&a, &LuOptions::default())
            .expect("plan ok");
        let other = random_dominant(100, 4.0, 35);
        let err = plan.refactorize(&gpu_for(&other), &other).unwrap_err();
        assert!(
            matches!(err, GpluError::Input(ref m) if m.contains("pattern mismatch")),
            "got {err}"
        );
    }

    #[test]
    fn refactorized_factors_solve_the_new_system() {
        let a = banded_dominant(300, 5, 36);
        let gpu = gpu_for(&a);
        let f0 = LuFactorization::compute(&gpu, &a, &LuOptions::default()).expect("cold ok");
        let plan = f0
            .refactor_plan(&a, &LuOptions::default())
            .expect("plan ok");
        let a2 = drift(&a, 3);
        let warm = plan.refactorize(&gpu_for(&a2), &a2).expect("warm ok");
        let x_true = vec![1.5; 300];
        let b = a2.spmv(&x_true);
        let x = warm.solve(&b).expect("solve ok");
        assert!(check_solution(&a2, &x, &b, 1e-8));
    }

    #[test]
    fn warm_gate_rejects_adversarial_values_typed() {
        let a = random_dominant(150, 4.0, 40);
        let opts = LuOptions::default();
        let f0 = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("cold ok");
        let plan = f0.refactor_plan(&a, &opts).expect("plan ok");

        // Same pattern, crushed diagonal: catastrophic growth under the
        // plan's NoPivot replay. The warm path must reject typed or
        // return factors that verify — never silent garbage.
        let mut evil = a.clone();
        for i in 0..evil.n_rows() {
            for k in evil.row_ptr[i]..evil.row_ptr[i + 1] {
                if evil.col_idx[k] as usize == i {
                    evil.vals[k] = 1e-14;
                }
            }
        }
        match plan.refactorize(&gpu_for(&evil), &evil) {
            Ok(f) => {
                let r = f.report.residual.expect("gate ran");
                assert!(r <= plan.gate.threshold, "accepted factors must verify");
            }
            Err(GpluError::NumericallySingular {
                residual,
                threshold,
                attempts,
            }) => {
                assert!(residual > threshold);
                assert_eq!(attempts, 1, "warm path never escalates");
            }
            Err(GpluError::SingularPivot { .. }) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }

    #[test]
    fn threshold_plan_replays_same_order_and_rejects_drift() {
        use gplu_numeric::{PivotPolicy, DEFAULT_PIVOT_TAU};
        // Full 3x3 pattern whose column-0 pivot choice is value-driven:
        // a00 = 0.01 fails the threshold test against a10 = 1.0, so the
        // cold factorization swaps rows 0 and 1.
        let build = |a00: f64, a10: f64| {
            let vals = [[a00, 1.0, 2.0], [a10, 1.0, 1.0], [0.5, 2.0, 1.0]];
            let mut coo = gplu_sparse::Coo::new(3, 3);
            for (i, row) in vals.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    coo.push(i, j, v);
                }
            }
            gplu_sparse::convert::coo_to_csr(&coo)
        };
        let a = build(0.01, 1.0);
        let opts = LuOptions::default().with_pivot(PivotPolicy::Threshold {
            tau: DEFAULT_PIVOT_TAU,
        });
        let f0 = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("cold ok");
        assert!(f0.report.pivot_swaps > 0, "test needs a value-driven swap");
        let plan = f0.refactor_plan(&a, &opts).expect("plan ok");

        // Unchanged values: the captured order re-validates and the warm
        // path replays bit-identically.
        let warm = plan.refactorize(&gpu_for(&a), &a).expect("warm ok");
        assert_eq!(warm.lu.vals, f0.lu.vals);

        // Values that elect the *other* pivot row: typed rejection, never
        // a replay under the stale order.
        let flipped = build(1.0, 0.01);
        let err = plan.refactorize(&gpu_for(&flipped), &flipped).unwrap_err();
        assert!(
            matches!(err, GpluError::StalePivotOrder { .. }),
            "got {err}"
        );
    }

    /// A threshold plan taken with no swaps, refactorized twice: after a
    /// drift that keeps its row order (the warm discovery's clock charge
    /// lands in `report.preprocess`), and after one that breaks it at one
    /// diagonal (a typed rejection naming the first row whose pivot
    /// position moved). The literals were taken when warm discovery ran
    /// `discover_pivots` alone.
    #[test]
    fn drifted_threshold_plan_replays_or_names_the_stale_column() {
        use gplu_numeric::{PivotPolicy, DEFAULT_PIVOT_TAU};
        let a = random_dominant(200, 4.0, 41);
        let opts = LuOptions::default().with_pivot(PivotPolicy::Threshold {
            tau: DEFAULT_PIVOT_TAU,
        });
        let cold = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("cold ok");
        assert_eq!(cold.report.pivot_swaps, 0, "the plan keeps the diagonal");
        let plan = cold.refactor_plan(&a, &opts).expect("plan ok");

        let kept = drift(&a, 3);
        let gpu = gpu_for(&kept);
        let warm = plan.refactorize(&gpu, &kept).expect("the order holds");
        let hash = warm.lu.vals.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3)
        });
        let got = (
            hash,
            warm.report.preprocess.as_ns().to_bits(),
            gpu.now().as_ns().to_bits(),
        );
        assert_eq!(
            got,
            (0xf3fac056dd863cd7, 0x4115aed2aaaaaaab, 0x41189feb11111114),
            "actual: {got:#x?}"
        );

        // Row 77's diagonal collapses: its column elects another row.
        let mut stale = kept.clone();
        let diag = (stale.row_ptr[77]..stale.row_ptr[78])
            .find(|&k| stale.col_idx[k] == 77)
            .expect("dominant rows hold their diagonal");
        stale.vals[diag] *= 1e-9;
        let gpu = gpu_for(&stale);
        let err = plan.refactorize(&gpu, &stale).unwrap_err();
        let GpluError::StalePivotOrder { col, .. } = err else {
            panic!("got {err}");
        };
        let got = (col, gpu.now().as_ns().to_bits());
        assert_eq!(got, (33, 0x4115aed2aaaaaaab), "actual: {got:#x?}");
    }

    #[test]
    fn plan_reports_a_plausible_memory_footprint() {
        let a = random_dominant(150, 4.0, 37);
        let f0 = LuFactorization::compute(&gpu_for(&a), &a, &LuOptions::default()).expect("ok");
        let plan = f0
            .refactor_plan(&a, &LuOptions::default())
            .expect("plan ok");
        let bytes = plan.approx_bytes();
        assert!(bytes > (a.nnz() * 12) as u64, "must cover the structures");
        assert!(bytes < 100 * 1024 * 1024, "and stay sane: {bytes}");
    }

    #[test]
    fn approx_bytes_bounds_the_pivot_cache() {
        // `approx_bytes` charges the pivot cache 16 bytes per column, and
        // the service sizes its cache tiers from that figure: the cache
        // must stay inside it whatever it records per column.
        for a in [
            random_dominant(300, 5.0, 38),
            banded_dominant(300, 4, 39),
            circuit(&CircuitParams {
                n: 300,
                seed: 40,
                ..Default::default()
            }),
        ] {
            let opts = LuOptions::default();
            let f0 = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("ok");
            let plan = f0.refactor_plan(&a, &opts).expect("plan ok");
            let (held, charged) = (plan.pivot.heap_bytes() as u64, 16 * plan.n() as u64);
            assert!(
                held <= charged,
                "pivot cache holds {held} B, plan charges {charged} B"
            );
        }
    }
}
