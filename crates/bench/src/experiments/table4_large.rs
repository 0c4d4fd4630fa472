//! **Table 4**: the four huge matrices of the numeric-format experiment —
//! paper sizes, their analogs, and the maximal number of parallel thread
//! blocks `M = L/(n·sizeof)` of the dense-format (original) numeric
//! implementation, which falls below `TB_max = 160`.
//!
//! These matrices are rank-deficient; as in the paper, zero diagonals are
//! replaced with 1000 during pre-processing.

use crate::{fill_size_of, Opts, Table};
use gplu_sim::GpuConfig;
use gplu_sparse::gen::suite::{large_suite, DEFAULT_LARGE_SCALE};

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_LARGE_SCALE);
    println!("Table 4: huge matrices and the dense-format block limit (scale 1/{scale})\n");

    let mut t = Table::new([
        "matrix",
        "paper order",
        "paper nnz",
        "paper max #blocks",
        "analog n",
        "analog nnz",
        "repaired diagonals",
        "analog max #blocks",
    ]);
    for prep in o.prepared(large_suite(), scale) {
        let entry = &prep.entry;
        let (pre, fill) = fill_size_of(&prep);
        let n = pre.n_rows();

        // Paper M from the 8 GB numeric budget.
        let m_paper = (GpuConfig::NUMERIC_BUDGET_BYTES / (entry.paper_n as u64 * 4)) as usize;

        // Analog M from the scaled numeric profile (free memory after the
        // resident CSC factor).
        let gpu = prep.gpu_numeric(fill);
        let csc_bytes = ((n + 1) as u64 + 2 * fill as u64) * 4;
        let free = gpu.mem.capacity() - csc_bytes - n as u64 * 4;
        let m_analog = (free / (n as u64 * 4)) as usize;

        let repaired = (0..prep.matrix.n_rows())
            .filter(|&i| prep.matrix.get(i, i).is_none())
            .count();

        t.row([
            entry.name.to_string(),
            entry.paper_n.to_string(),
            entry.paper_nnz.to_string(),
            m_paper.to_string(),
            n.to_string(),
            prep.matrix.nnz().to_string(),
            repaired.to_string(),
            m_analog.to_string(),
        ]);
        assert!(
            m_analog < gpu.config().tb_max,
            "{}: dense format must be block-starved",
            entry.abbr
        );
    }
    t.print();
    println!("\nPaper max #blocks: 124 / 119 / 109 / 102 — all below TB_max = 160, so the");
    println!("original (dense-format) numeric implementation cannot fill the device.");
}
