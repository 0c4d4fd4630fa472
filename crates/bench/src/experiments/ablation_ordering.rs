//! **Ablation: fill-reducing ordering.** The pre-processing box of the
//! paper's Figure 2 ("row and column permutations ... to reduce
//! fill-ins") — how much the ordering choice moves fill, the level
//! schedule and every downstream phase.

use crate::{fill_size_of, Opts, Table};
use gplu_core::{LuFactorization, LuOptions};
use gplu_sparse::gen::suite::{paper_suite, SuiteEntry, DEFAULT_SCALE};
use gplu_sparse::ordering::OrderingKind;

/// The three Table 2 analogs the ablation orders: two circuit-style
/// matrices and a mesh.
pub(crate) fn suite() -> Vec<SuiteEntry> {
    let picked = ["OT2", "BB", "WI"];
    paper_suite()
        .into_iter()
        .filter(|e| picked.contains(&e.abbr))
        .collect()
}

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_SCALE);
    println!("Ablation: ordering choice across the pipeline (scale 1/{scale})\n");

    let mut t = Table::new([
        "matrix",
        "ordering",
        "fill nnz",
        "fill ratio",
        "levels",
        "sym",
        "num",
        "total",
    ]);
    for prep in o.prepared(suite(), scale) {
        let entry = &prep.entry;
        let (_, fill) = fill_size_of(&prep);
        for (name, kind) in [
            ("natural", OrderingKind::Natural),
            ("rcm", OrderingKind::Rcm),
            ("amd", OrderingKind::MinDegree),
        ] {
            let gpu = prep.gpu_symbolic(fill * 8); // headroom: natural order fills far more
            let opts = LuOptions::default().with_ordering(kind);
            match LuFactorization::compute(&gpu, &prep.matrix, &opts) {
                Ok(f) => {
                    t.row([
                        entry.abbr.to_string(),
                        name.to_string(),
                        f.report.fill_nnz.to_string(),
                        format!(
                            "{:.1}x",
                            f.report.fill_nnz as f64 / prep.matrix.nnz() as f64
                        ),
                        f.report.n_levels.to_string(),
                        format!("{}", f.report.symbolic),
                        format!("{}", f.report.numeric),
                        format!("{}", f.report.total()),
                    ]);
                }
                Err(e) => {
                    t.row([
                        entry.abbr.to_string(),
                        name.to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("{e}"),
                    ]);
                }
            }
        }
    }
    t.print();
    println!("\nAMD keeps fill (and thus symbolic reach and numeric flops) lowest on the");
    println!("circuit-style matrices; RCM is competitive on meshes; natural order shows");
    println!("why the paper's pipeline runs a fill-reducing permutation first.");
}
