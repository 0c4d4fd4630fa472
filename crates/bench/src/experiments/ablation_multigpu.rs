//! **Extension: multi-GPU symbolic scaling.** The paper's related work
//! (GSOFA) distributes symbolic factorization across up to 264 GPUs; this
//! experiment scales our out-of-core engine across 1–8 simulated devices
//! and compares the blocked vs strided row partitions under the Figure 3
//! work skew.

use crate::{fill_size_of, Opts, Table};
use gplu_sim::DeviceFleet;
use gplu_sparse::gen::suite::{frontier_pair, DEFAULT_SCALE};
use gplu_symbolic::{symbolic_fleet, Partition};

pub(crate) fn run(o: &Opts) {
    let scale = o.scale_or(DEFAULT_SCALE);
    println!("Extension: multi-GPU out-of-core symbolic factorization (scale 1/{scale})\n");

    for prep in o.prepared(frontier_pair(), scale) {
        let entry = &prep.entry;
        let (pre, fill) = fill_size_of(&prep);
        println!("{} ({}), n = {}:", entry.name, entry.abbr, pre.n_rows());
        let mut t = Table::new(["devices", "partition", "makespan", "speedup", "efficiency"]);
        let mut base = None;
        for k in [1usize, 2, 4, 8] {
            for partition in [Partition::Blocked, Partition::Strided] {
                if k == 1 && partition == Partition::Strided {
                    continue; // identical to blocked at k = 1
                }
                let fleet =
                    DeviceFleet::from_devices((0..k).map(|_| prep.gpu_symbolic(fill)).collect());
                let out = symbolic_fleet(&fleet, &pre, partition).expect("multi-gpu ok");
                let base_ns = *base.get_or_insert(out.time.as_ns());
                t.row([
                    k.to_string(),
                    format!("{partition:?}"),
                    format!("{}", out.time),
                    format!("{:.2}x", base_ns / out.time.as_ns()),
                    format!("{:.0}%", out.efficiency * 100.0),
                ]);
            }
        }
        t.print();
        println!();
    }
    println!("Strided partitioning rides the Figure 3 skew (late rows are heavy), so it");
    println!("scales near-linearly where blocked ranges leave early devices idle.");
}
