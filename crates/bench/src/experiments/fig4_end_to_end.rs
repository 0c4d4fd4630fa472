//! **Figure 4**: normalized end-to-end execution times (symbolic and
//! numeric phases separated) — our out-of-core GPU implementation vs the
//! modified GLU 3.0 baseline, over the 18 Table 2 analogs.
//!
//! Paper bands: speedups 1.13–32.65×, larger for denser matrices
//! (higher `nnz/n`).
//!
//! Besides the printed table, every out-of-core run's machine-readable
//! [`RunReport`] goes to `BENCH_fig4_end_to_end.json` — phase timings,
//! per-level records, GPU counters — for downstream tooling.

use crate::{fill_size_of, geomean, min_max, Opts, Table};
use gplu_baseline::factorize_glu30;
use gplu_core::{LuFactorization, LuOptions, PreprocessOptions, RunReport, SymbolicEngine};
use gplu_sparse::gen::suite::{paper_suite, DEFAULT_SCALE};
use gplu_trace::{JsonValue, Recorder};

pub(crate) fn run(o: &Opts) -> JsonValue {
    let scale = o.scale_or(DEFAULT_SCALE);
    println!("Figure 4: out-of-core GPU vs modified GLU 3.0 (scale 1/{scale})");
    println!("(times are simulated; \"norm\" columns are normalized to the GLU3.0 total)\n");

    let mut table = Table::new([
        "matrix", "abbr", "n", "nnz/n", "glu.sym", "glu.num", "ooc.sym", "ooc.num", "ooc.norm",
        "speedup",
    ]);
    let mut speedups = Vec::new();
    let mut reports: Vec<JsonValue> = Vec::new();

    for prep in o.prepared(paper_suite(), scale) {
        let entry = &prep.entry;
        let (_, fill) = fill_size_of(&prep);

        let gpu_base = prep.gpu_symbolic(fill);
        let base = factorize_glu30(&gpu_base, &prep.matrix, &PreprocessOptions::default())
            .expect("baseline factorizes");

        let gpu_ours = prep.gpu_symbolic(fill);
        let opts = LuOptions {
            symbolic: SymbolicEngine::OocDynamic,
            ..Default::default()
        };
        let recorder = Recorder::new();
        let ours = LuFactorization::compute_traced(&gpu_ours, &prep.matrix, &opts, &recorder)
            .expect("end-to-end factorizes");

        assert_eq!(
            base.lu.vals, ours.lu.vals,
            "{}: engines disagree",
            entry.abbr
        );

        let base_total = base.report.gpu_total();
        let ours_total = ours.report.gpu_total();
        let speedup = base_total.ratio(ours_total);
        speedups.push(speedup);

        let run = RunReport::new(
            prep.matrix.n_rows(),
            prep.matrix.nnz(),
            ours.report.clone(),
            &recorder.into_events(),
        );
        reports.push(
            JsonValue::obj()
                .set("matrix", entry.name)
                .set("abbr", entry.abbr)
                .set("speedup_vs_glu30", speedup)
                .set("report", run.to_json()),
        );

        table.row([
            entry.name.to_string(),
            entry.abbr.to_string(),
            prep.matrix.n_rows().to_string(),
            format!("{:.1}", prep.matrix.density()),
            format!("{}", base.report.symbolic + base.report.levelize),
            format!("{}", base.report.numeric),
            format!("{}", ours.report.symbolic + ours.report.levelize),
            format!("{}", ours.report.numeric),
            format!("{:.3}", ours_total.ratio(base_total)),
            format!("{speedup:.2}x"),
        ]);
    }

    table.print();
    let (min, max) = min_max(&speedups);
    println!(
        "\nspeedup range {min:.2}-{max:.2}x (geomean {:.2}x); paper reports 1.13-32.65x",
        geomean(&speedups)
    );
    JsonValue::obj().set("scale", scale).set("runs", reports)
}
