//! **Ablation: chunk sizing.** Algorithm 3 derives
//! `chunk_size = L/(c·n)` from free device memory. This sweep shrinks the
//! device and watches the chunk, the iteration count, the launch count and
//! the symbolic time respond — quantifying how much out-of-core-ness
//! actually costs (the paper's implicit claim is "not much": explicit
//! chunking stays near compute-bound).

use crate::{Opts, Prepared, Table};
use gplu_core::{preprocess, PreprocessOptions};
use gplu_sim::{Gpu, GpuConfig};
use gplu_sparse::gen::suite::{paper_suite, DEFAULT_SCALE};
use gplu_symbolic::symbolic_ooc;

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_SCALE);
    let entry = paper_suite()
        .into_iter()
        .find(|e| e.abbr == "MI")
        .expect("MI in suite");
    let prep = Prepared::new(entry.clone(), scale);
    let pre =
        preprocess(&prep.matrix, &PreprocessOptions::default(), &prep.cost()).expect("preprocess");
    let n = pre.matrix.n_rows() as u64;

    println!(
        "Ablation: device memory -> chunk size -> symbolic time ({} analog, scale 1/{scale})\n",
        entry.name
    );
    let mut t = Table::new([
        "device",
        "chunk",
        "iterations",
        "launches",
        "xfer KiB",
        "symbolic",
        "vs best",
    ]);
    let full_state = 24 * n * n;
    let mut results = Vec::new();
    for divisor in [2u64, 4, 8, 16, 32, 64, 128] {
        let mem = (full_state / divisor).max(256 * 1024);
        let gpu = Gpu::with_cost(GpuConfig::v100().with_memory(mem), prep.cost());
        match symbolic_ooc(&gpu, &pre.matrix) {
            Ok(out) => results.push((mem, out)),
            Err(e) => println!("  {:>6} MiB: {e}", mem >> 20),
        }
    }
    let best = results
        .iter()
        .map(|(_, o)| o.time.as_ns())
        .fold(f64::INFINITY, f64::min);
    for (mem, out) in &results {
        t.row([
            format!("{:.2} MiB", *mem as f64 / (1 << 20) as f64),
            out.chunk_size.to_string(),
            out.num_iterations.to_string(),
            out.stats.kernels_host.to_string(),
            ((out.stats.h2d_bytes + out.stats.d2h_bytes) >> 10).to_string(),
            format!("{}", out.time),
            format!("{:.2}x", out.time.as_ns() / best),
        ]);
    }
    t.print();
    println!("\nHalving memory repeatedly multiplies iterations but the symbolic time");
    println!("moves by far less — the out-of-core design's overhead is launches, not");
    println!("recomputation, which is the premise behind Algorithm 3.");
}
