//! **Table 1**: specifications of the (simulated) Nvidia Tesla V100, plus
//! the cost-model constants the simulator prices it with.

use crate::{Opts, Table};
use gplu_sim::{CostModel, GpuConfig};

pub(crate) fn run(_: &Opts) {
    let g = GpuConfig::v100();
    println!("Table 1: specifications of the simulated GPU\n");
    let mut t = Table::new(["property", "value"]);
    t.row(["GPU", g.name.as_str()]);
    t.row(["#SM".to_string(), g.sm_count.to_string()]);
    t.row(["FP32 CUDA Cores/GPU".to_string(), g.fp32_cores.to_string()]);
    t.row([
        "Max Thread Block Size".to_string(),
        g.max_threads_per_block.to_string(),
    ]);
    t.row(["Warp size".to_string(), g.warp_size.to_string()]);
    t.row([
        "Max concurrent thread blocks (TB_max)".to_string(),
        g.tb_max.to_string(),
    ]);
    t.row([
        "Device memory".to_string(),
        format!("{} GiB", g.device_memory as f64 / (1u64 << 30) as f64),
    ]);
    t.row([
        "sizeof(data type)".to_string(),
        format!("{} B (float)", g.data_bytes),
    ]);
    t.print();

    let c = CostModel::default();
    println!("\nCost model (frozen constants, see gplu_sim::cost):\n");
    let mut t = Table::new(["constant", "value"]);
    t.row([
        "host kernel launch".to_string(),
        format!("{:.1} µs", c.host_launch_ns / 1e3),
    ]);
    t.row([
        "device (dynamic parallelism) launch".to_string(),
        format!("{:.2} µs", c.device_launch_ns / 1e3),
    ]);
    t.row([
        "block step latency".to_string(),
        format!("{} ns", c.block_step_ns),
    ]);
    t.row([
        "block item cost".to_string(),
        format!("{} ns", c.block_item_ns),
    ]);
    t.row([
        "HBM bandwidth".to_string(),
        format!("{:.0} GB/s", 1.0 / c.hbm_ns_per_byte),
    ]);
    t.row([
        "PCIe bandwidth".to_string(),
        format!(
            "{:.0} GB/s (+{:.0} µs latency)",
            1.0 / c.pcie_ns_per_byte,
            c.pcie_latency_ns / 1e3
        ),
    ]);
    t.row([
        "UM page / fault-group service".to_string(),
        format!(
            "{} KiB / {:.0} µs",
            c.um_page_bytes / 1024,
            c.um_fault_group_ns / 1e3
        ),
    ]);
    t.row([
        "CPU baseline".to_string(),
        format!(
            "{} threads x {:.1} ns/item ({}% eff.)",
            c.cpu_threads,
            c.cpu_item_ns,
            (c.cpu_efficiency * 100.0) as u32
        ),
    ]);
    t.print();
}
