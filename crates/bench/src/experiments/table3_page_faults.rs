//! **Table 3**: GPU page-fault groups and the percentage of time spent
//! servicing them, for the unified-memory symbolic implementations with
//! ("wp") and without ("wo p") prefetching, against the out-of-core
//! implementation's data-movement share ("pc. ooc").
//!
//! Paper bands: thousands of fault groups; 33–86 % of time servicing
//! faults without prefetching, 19–65 % with; ≤0.33 % data-movement share
//! for out-of-core. (Absolute group counts scale with the matrix size;
//! the percentages are the scale-free comparison.)

use crate::{fill_size_of, Opts, Table};
use gplu_sparse::gen::suite::{um_suite, DEFAULT_SCALE};
use gplu_symbolic::{symbolic_ooc, symbolic_um, UmMode};

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_SCALE);
    println!("Table 3: GPU page-fault groups and fault-service time shares (scale 1/{scale})\n");

    let mut t = Table::new([
        "matrix",
        "# faults wo p",
        "faults wp",
        "pc. wo p(%)",
        "pc. wp(%)",
        "pc. ooc(%)",
    ]);
    for prep in o.prepared(um_suite(), scale) {
        let entry = &prep.entry;
        let (pre, fill) = fill_size_of(&prep);

        let gpu = prep.gpu_symbolic(fill);
        let wo = symbolic_um(&gpu, &pre, UmMode::NoPrefetch).expect("um wo ok");

        let gpu = prep.gpu_symbolic(fill);
        let wp = symbolic_um(&gpu, &pre, UmMode::Prefetch).expect("um wp ok");

        let gpu = prep.gpu_symbolic(fill);
        let ooc = symbolic_ooc(&gpu, &pre).expect("ooc ok");

        t.row([
            entry.abbr.to_string(),
            wo.fault_groups.to_string(),
            wp.fault_groups.to_string(),
            format!("{:.2}", wo.fault_time_fraction * 100.0),
            format!("{:.2}", wp.fault_time_fraction * 100.0),
            format!("{:.2}", ooc.stats.xfer_time_fraction() * 100.0),
        ]);
    }
    t.print();
    println!("\nPaper (full-size matrices): faults wo p 12803-24977, wp 3848-8569;");
    println!("pc. wo p 33.11-86.21%, pc. wp 19.54-65.46%, pc. ooc 0.01-0.33%.");
}
