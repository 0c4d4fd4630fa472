//! **Figure 8**: normalized numeric-factorization times — the binary-search
//! sorted-CSC implementation (Algorithm 6) vs the original dense-format
//! implementation, on the four Table 4 analogs.
//!
//! Paper band: the binary-search implementation is 2.88–3.33× faster,
//! because the dense format caps parallel columns at `M ≈ 102–124 < 160`
//! while CSC runs all `TB_max` blocks (the paper fixes the binary-search
//! version at 160 blocks).

use crate::{fill_size_of, filled_schedule, geomean, min_max, Opts, Table};
use gplu_numeric::{factorize_gpu_dense, factorize_gpu_sparse};
use gplu_sparse::gen::suite::{large_suite, DEFAULT_LARGE_SCALE};

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_LARGE_SCALE);
    println!("Figure 8: binary-search CSC vs dense-format numeric (scale 1/{scale})\n");

    let mut t = Table::new([
        "matrix", "abbr", "n", "fill nnz", "M(dense)", "batches", "dense", "sparse", "norm",
        "speedup",
    ]);
    let mut speedups = Vec::new();
    for prep in o.prepared(large_suite(), scale) {
        let entry = &prep.entry;
        let (pre, fill) = fill_size_of(&prep);

        // Shared symbolic + schedule (not measured here).
        let (pattern, levels) = filled_schedule(&pre);

        let gpu = prep.gpu_numeric(fill);
        let dense = factorize_gpu_dense(&gpu, &pattern, &levels).expect("dense ok");

        let gpu = prep.gpu_numeric(fill);
        let sparse = factorize_gpu_sparse(&gpu, &pattern, &levels).expect("sparse ok");
        assert_eq!(
            dense.lu.vals, sparse.lu.vals,
            "{}: formats disagree",
            entry.abbr
        );

        let s = dense.time.ratio(sparse.time);
        speedups.push(s);
        t.row([
            entry.name.to_string(),
            entry.abbr.to_string(),
            pre.n_rows().to_string(),
            fill.to_string(),
            dense.m_limit.map(|m| m.to_string()).unwrap_or_default(),
            dense.batches.to_string(),
            format!("{}", dense.time),
            format!("{}", sparse.time),
            format!("{:.3}", sparse.time.ratio(dense.time)),
            format!("{s:.2}x"),
        ]);
    }
    t.print();
    let (min, max) = min_max(&speedups);
    println!(
        "\nbinary-search speedup over dense format: {min:.2}-{max:.2}x (geomean {:.2}x);",
        geomean(&speedups)
    );
    println!("paper reports 2.88-3.33x.");
}
