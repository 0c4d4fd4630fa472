//! **Figure 6**: symbolic-phase times only — out-of-core GPU vs unified
//! memory with and without prefetching, on the 7 Figure 5 matrices.
//!
//! Paper shape: the no-prefetch UM version is strictly worse than the
//! prefetched one, and both lose to out-of-core — by more for sparser
//! matrices (R15, OT2), where there is little computation to amortise the
//! page-fault service time.

use crate::{fill_size_of, Opts, Table};
use gplu_sparse::gen::suite::{um_suite, DEFAULT_SCALE};
use gplu_symbolic::{symbolic_ooc, symbolic_um, UmMode};

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_SCALE);
    println!("Figure 6: symbolic phase, out-of-core vs UM w/ and w/o prefetch (scale 1/{scale})\n");

    let mut t = Table::new([
        "matrix",
        "abbr",
        "nnz/n",
        "ooc",
        "um w/ p",
        "um w/o p",
        "w/p norm",
        "w/o p norm",
    ]);
    for prep in o.prepared(um_suite(), scale) {
        let entry = &prep.entry;
        let (pre, fill) = fill_size_of(&prep);

        let gpu = prep.gpu_symbolic(fill);
        let ooc = symbolic_ooc(&gpu, &pre).expect("ooc ok");

        let gpu = prep.gpu_symbolic(fill);
        let wp = symbolic_um(&gpu, &pre, UmMode::Prefetch).expect("um wp ok");

        let gpu = prep.gpu_symbolic(fill);
        let wo = symbolic_um(&gpu, &pre, UmMode::NoPrefetch).expect("um wo ok");

        assert_eq!(ooc.result.filled, wp.result.filled);
        assert_eq!(ooc.result.filled, wo.result.filled);

        t.row([
            entry.name.to_string(),
            entry.abbr.to_string(),
            format!("{:.1}", prep.matrix.density()),
            format!("{}", ooc.time),
            format!("{}", wp.time),
            format!("{}", wo.time),
            format!("{:.2}", wp.time.ratio(ooc.time)),
            format!("{:.2}", wo.time.ratio(ooc.time)),
        ]);
    }
    t.print();
    println!("\n(norm columns: UM symbolic time / out-of-core symbolic time; paper");
    println!("shows both above 1, without-prefetch worst, gap largest for R15/OT2)");
}
