//! The experiment table: one row per table, figure, ablation and
//! extension bench (DESIGN.md §4). Each row is the module of its name,
//! whose `run` prints the experiment and returns its BENCH document, if
//! it writes one.

use crate::runner::Experiment;
use gplu_sparse::gen::suite::{frontier_pair, large_suite, paper_suite, um_suite};
use gplu_trace::JsonValue;

/// What a `run` returns: nothing, or the BENCH document.
trait Output {
    fn bench(self) -> Option<JsonValue>;
}

impl Output for () {
    fn bench(self) -> Option<JsonValue> {
        None
    }
}

impl Output for JsonValue {
    fn bench(self) -> Option<JsonValue> {
        Some(self)
    }
}

/// Declares each experiment's module and its row:
/// `name: flags, suite, summary;`.
macro_rules! experiments {
    ($($name:ident: $flags:expr, $suite:expr, $summary:literal;)*) => {
        $(mod $name;)*

        /// Every experiment `figures` runs, in the paper's order, then the
        /// ablations, then the extension benches.
        pub(crate) static EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            summary: $summary,
            flags: $flags,
            suite: $suite,
            run: |o| $name::run(o).bench(),
        }),*];
    };
}

const SCALED: &str = "--scale --quick";
const SUITE: &str = "--scale --quick --only";

experiments! {
    table1_gpu: "", Vec::new,
        "Table 1: the simulated V100 and the cost-model constants";
    table2_matrices: SUITE, paper_suite,
        "Table 2: the 18 matrices, paper sizes beside their analogs";
    fig3_frontiers: SUITE, frontier_pair,
        "Figure 3: frontier size per out-of-core iteration";
    fig4_end_to_end: SUITE, paper_suite,
        "Figure 4: out-of-core GPU vs modified GLU 3.0, end to end";
    fig5_um_compare: SUITE, um_suite,
        "Figure 5: out-of-core vs unified memory with prefetching";
    fig6_symbolic_um: SUITE, um_suite,
        "Figure 6: symbolic phase, out-of-core vs UM with and without prefetch";
    table3_page_faults: SUITE, um_suite,
        "Table 3: UM page-fault groups and fault-service time shares";
    fig7_dynamic: SUITE, frontier_pair,
        "Figure 7: dynamic parallelism assignment vs naive out-of-core";
    table4_large: SUITE, large_suite,
        "Table 4: the huge matrices and the dense-format block limit";
    fig8_binary_search: SUITE, large_suite,
        "Figure 8: binary-search CSC vs dense-format numeric";
    ablation_ordering: SUITE, ablation_ordering::suite,
        "A1: ordering choice across the pipeline (OT2, BB, WI)";
    ablation_chunk: SCALED, Vec::new,
        "A2: device memory -> chunk size -> symbolic time";
    ablation_modes: SCALED, Vec::new,
        "A3: adaptive A/B/C kernel modes vs forced single modes";
    ablation_multigpu: SUITE, frontier_pair,
        "A4: multi-GPU symbolic scaling, blocked vs strided partitions";
    numeric_kernel: "--scale --quick --only --reps", large_suite,
        "binary-search vs merge-join CSC numeric on the Table 4 analogs";
    blocked_numeric: "--reps", Vec::new,
        "merge-join vs supernode-blocked CSC numeric, four classes";
    pivoting: "--reps", Vec::new,
        "threshold pivoting's overhead on dominant and payoff on hard traffic";
    refactorization: "--reps", Vec::new,
        "cold factorize vs warm refactorize vs cached solve (simulated)";
    cache_tiers: "--patterns --reps --n", Vec::new,
        "cold vs device vs host vs disk rescue latency (wall)";
    multi_gpu: "--chains --chain-n --band", Vec::new,
        "fleet strong and weak scaling across 1/2/4/8 devices";
    service_slo: "--jobs --reps", Vec::new,
        "live observability on vs off under the stress workload (wall, cpu)";
}
