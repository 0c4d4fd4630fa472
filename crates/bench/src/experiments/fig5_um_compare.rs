//! **Figure 5**: normalized end-to-end times — out-of-core GPU vs the
//! *optimized* (prefetching) unified-memory implementation, on the 7
//! smallest-`n` matrices of Table 2.
//!
//! Paper band: out-of-core is 1.06–2.22× faster, with the gap largest for
//! the sparsest matrices (R15, OT2) and smallest for the densest (WI, MI).

use crate::{fill_size_of, geomean, min_max, Opts, Table};
use gplu_baseline::factorize_um_pipeline;
use gplu_core::{LuFactorization, LuOptions};
use gplu_sparse::gen::suite::{um_suite, DEFAULT_SCALE};

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_SCALE);
    println!("Figure 5: out-of-core vs unified memory w/ prefetching (scale 1/{scale})\n");

    let mut t = Table::new([
        "matrix", "abbr", "nnz/n", "um.sym", "um.num", "ooc.sym", "ooc.num", "ooc.norm", "speedup",
    ]);
    let mut speedups = Vec::new();
    for prep in o.prepared(um_suite(), scale) {
        let entry = &prep.entry;
        let (_, fill) = fill_size_of(&prep);

        let gpu_um = prep.gpu_symbolic(fill);
        let um = factorize_um_pipeline(&gpu_um, &prep.matrix, true, &LuOptions::default())
            .expect("um pipeline ok");

        let gpu_ooc = prep.gpu_symbolic(fill);
        let ooc = LuFactorization::compute(&gpu_ooc, &prep.matrix, &LuOptions::default())
            .expect("ooc pipeline ok");
        assert_eq!(um.lu.vals, ooc.lu.vals, "{}: engines disagree", entry.abbr);

        let s = um.report.gpu_total().ratio(ooc.report.gpu_total());
        speedups.push(s);
        t.row([
            entry.name.to_string(),
            entry.abbr.to_string(),
            format!("{:.1}", prep.matrix.density()),
            format!("{}", um.report.symbolic + um.report.levelize),
            format!("{}", um.report.numeric),
            format!("{}", ooc.report.symbolic + ooc.report.levelize),
            format!("{}", ooc.report.numeric),
            format!("{:.3}", ooc.report.gpu_total().ratio(um.report.gpu_total())),
            format!("{s:.2}x"),
        ]);
    }
    t.print();
    let (min, max) = min_max(&speedups);
    println!(
        "\nooc speedup over prefetched UM: {min:.2}-{max:.2}x (geomean {:.2}x); paper: 1.06-2.22x",
        geomean(&speedups)
    );
}
