//! **Figure 3**: frontier size (y-axis) per out-of-core iteration (x-axis)
//! for the pre2 and audikw_1 analogs — the observation motivating
//! Algorithm 4's dynamic parallelism assignment: frontier counts are small
//! for early source rows and large for the last few iterations.

use crate::Opts;
use gplu_core::{preprocess, PreprocessOptions};
use gplu_sim::CostModel;
use gplu_sparse::gen::suite::{frontier_pair, DEFAULT_SCALE};
use gplu_symbolic::frontier::{bucket_max, frontier_profile, split_point};

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_SCALE);
    println!("Figure 3: frontier size per out-of-core iteration (scale 1/{scale})\n");

    for prep in o.prepared(frontier_pair(), scale) {
        let entry = &prep.entry;
        let pre = preprocess(
            &prep.matrix,
            &PreprocessOptions::default(),
            &CostModel::default(),
        )
        .expect("preprocesses");
        let profile = frontier_profile(&pre.matrix);

        // Bucket into the out-of-core iterations the naive Algorithm 3
        // would use on the scaled profile.
        let iterations = 24usize;
        let buckets = bucket_max(&profile, iterations);
        let peak = buckets.iter().copied().max().unwrap_or(1).max(1);

        println!(
            "{} ({}): n = {}, peak per-row frontier = {}",
            entry.name,
            entry.abbr,
            pre.matrix.n_rows(),
            peak
        );
        for (i, &b) in buckets.iter().enumerate() {
            let bar = "#".repeat((b * 48 / peak) as usize);
            println!("  iter {i:>3}  {b:>8}  {bar}");
        }
        let n1 = split_point(&profile, 0.5);
        println!(
            "  Algorithm 4 split (first row above 50% of max): n1 = {} ({}% of rows)\n",
            n1,
            n1 * 100 / profile.len().max(1)
        );
    }
    println!("Paper's observation: the number of frontiers is large for the last few");
    println!("iterations and small otherwise; the split point feeds Algorithm 4.");
}
