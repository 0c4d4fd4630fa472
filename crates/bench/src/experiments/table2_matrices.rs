//! **Table 2**: the 18 input matrices whose symbolic-factorization memory
//! requirements exceed the GPU's device memory — paper sizes side by side
//! with the generated analogs at the chosen scale.

use crate::{Opts, Table};
use gplu_sparse::gen::suite::{paper_suite, DEFAULT_SCALE};

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_SCALE);
    println!("Table 2: input matrices (analogs at scale 1/{scale})\n");

    let mut t = Table::new([
        "matrix",
        "abbr",
        "paper n",
        "paper nnz",
        "paper nnz/n",
        "analog n",
        "analog nnz",
        "analog nnz/n",
        "intermediates",
        "device mem",
    ]);
    for prep in o.prepared(paper_suite(), scale) {
        let entry = &prep.entry;
        let n = prep.matrix.n_rows() as u64;
        // The paper's point: traversal state for all rows (c·4·n per row)
        // exceeds device memory.
        let intermediates = 24 * n * n;
        let gpu = prep.gpu_symbolic(prep.matrix.nnz() * 4);
        t.row([
            entry.name.to_string(),
            entry.abbr.to_string(),
            entry.paper_n.to_string(),
            entry.paper_nnz.to_string(),
            format!("{:.1}", entry.paper_density()),
            prep.matrix.n_rows().to_string(),
            prep.matrix.nnz().to_string(),
            format!("{:.1}", prep.matrix.density()),
            format!("{:.1} MiB", intermediates as f64 / (1 << 20) as f64),
            format!("{:.1} MiB", gpu.mem.capacity() as f64 / (1 << 20) as f64),
        ]);
        assert!(
            intermediates > gpu.mem.capacity(),
            "{}: symbolic intermediates must exceed device memory",
            entry.abbr
        );
    }
    t.print();
    println!("\nEvery row satisfies the Table 2 selection criterion: the symbolic");
    println!("intermediate state (c=6 words x n per source row, all rows) exceeds");
    println!("the device memory of the scaled profile.");
}
