//! # gplu-core
//!
//! The paper's primary contribution as a library: **end-to-end sparse LU
//! factorization on a (simulated) GPU**, for matrices whose symbolic
//! intermediates exceed device memory.
//!
//! The pipeline (the paper's Figure 2):
//!
//! 1. **Pre-processing** ([`preprocess()`]) — fill-reducing row/column
//!    permutation and diagonal repair, on the host,
//! 2. **Symbolic factorization** — out-of-core on the GPU (Algorithm 3),
//!    optionally with dynamic parallelism assignment (Algorithm 4),
//! 3. **Levelization** — Kahn's topological sort on the GPU with dynamic
//!    parallelism (Algorithm 5),
//! 4. **Numeric factorization** — one thread block per column over the
//!    level schedule, switching from the dense-column format to sorted
//!    CSC with binary search when
//!    `n > L / (TB_max · sizeof(dtype))` (Algorithm 6),
//! 5. **Solve** — the resulting triangular systems, host-side.
//!
//! ```
//! use gplu_core::{LuFactorization, LuOptions};
//! use gplu_sim::{Gpu, GpuConfig};
//! use gplu_sparse::gen::random::random_dominant;
//! use gplu_sparse::verify::check_solution;
//!
//! let a = random_dominant(500, 4.0, 7);
//! let gpu = Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()));
//! let f = LuFactorization::compute(&gpu, &a, &LuOptions::default()).unwrap();
//! let b = a.spmv(&vec![1.0; 500]);
//! let x = f.solve(&b).unwrap();
//! assert!(check_solution(&a, &x, &b, 1e-8));
//! println!("{}", f.report.summary());
//! ```

pub mod checkpoint;
pub mod drift;
pub mod error;
pub mod fleet;
pub mod pipeline;
pub mod plan_codec;
pub mod preprocess;
pub mod recovery;
pub mod refactor;
pub mod report;
pub mod telemetry;

pub use checkpoint::{
    matrix_fingerprint, pattern_fingerprint, CheckpointOptions, CheckpointSession, PhaseMark,
    ResumeState,
};
pub use drift::{DriftProfiler, DriftRow, DriftTable, DRIFT_FLAG_THRESHOLD};
pub use error::GpluError;
pub use gplu_numeric::{PivotPolicy, DEFAULT_PIVOT_TAU, HOST_REASONS};
pub use pipeline::{LuFactorization, LuOptions, NumericFormat, ResidualGate, SymbolicEngine};
pub use plan_codec::{decode_plan, encode_plan, PLAN_SCHEMA_VERSION};
pub use preprocess::{preprocess, PreprocessOptions, PreprocessOutcome};
pub use recovery::{Phase, RecoveryAction, RecoveryEvent, RecoveryLog};
pub use refactor::RefactorPlan;
pub use report::{FleetReport, PhaseReport, PhaseStats};
pub use telemetry::{check_run_report, extract_levels, LevelRecord, RunReport, SCHEMA_VERSION};
