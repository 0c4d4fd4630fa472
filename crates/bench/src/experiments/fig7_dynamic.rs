//! **Figure 7**: symbolic-phase execution times of the dynamic parallelism
//! assignment implementation (Algorithm 4) vs the naive out-of-core
//! implementation (Algorithm 3), on the pre2 and audikw_1 analogs.
//!
//! Paper band: dynamic is up to ~10 % faster; the gain is limited because
//! the high-frontier suffix of the rows still dominates.

use crate::{fill_size_of, Opts, Table};
use gplu_sparse::gen::suite::{frontier_pair, DEFAULT_SCALE};
use gplu_symbolic::{symbolic_ooc, symbolic_ooc_dynamic};

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_SCALE);
    println!("Figure 7: dynamic parallelism assignment vs naive out-of-core (scale 1/{scale})\n");

    let mut t = Table::new([
        "matrix",
        "abbr",
        "naive",
        "dynamic",
        "improvement",
        "n1/n",
        "chunk1",
        "chunk2",
        "iters(naive)",
        "iters(dyn)",
        "overflow rows",
    ]);
    for prep in o.prepared(frontier_pair(), scale) {
        let entry = &prep.entry;
        let (pre, fill) = fill_size_of(&prep);

        let gpu = prep.gpu_symbolic(fill);
        let naive = symbolic_ooc(&gpu, &pre).expect("naive ok");

        let gpu = prep.gpu_symbolic(fill);
        let dynamic = symbolic_ooc_dynamic(&gpu, &pre).expect("dynamic ok");
        assert_eq!(naive.result.filled, dynamic.result.filled);

        let improvement = (1.0 - dynamic.time.ratio(naive.time)) * 100.0;
        t.row([
            entry.name.to_string(),
            entry.abbr.to_string(),
            format!("{}", naive.time),
            format!("{}", dynamic.time),
            format!("{improvement:.1}%"),
            format!("{:.2}", dynamic.split.n1 as f64 / pre.n_rows() as f64),
            dynamic.split.chunk1.to_string(),
            dynamic.split.chunk2.to_string(),
            naive.num_iterations.to_string(),
            dynamic.num_iterations.to_string(),
            dynamic.overflows.to_string(),
        ]);
    }
    t.print();
    println!("\nPaper: the dynamic implementation achieves up to 10% better performance;");
    println!("the improvement is limited because high-frontier steps bound the rest.");
}
