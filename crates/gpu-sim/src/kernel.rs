//! Kernel abstraction and per-block cost accounting.
//!
//! A simulated kernel is ordinary Rust executed once per block id. While it
//! runs it reports what it does to a [`BlockCtx`] — parallel steps, serial
//! work, memory traffic, unified-memory touches — and the launch machinery
//! in [`crate::launch`] turns those counters into simulated time.

use crate::cost::CostModel;
use crate::unified::{TouchOutcome, UmAlloc, UmSpace};

/// A simulated GPU kernel: a function of the column it runs for.
///
/// Implemented for closures, so call sites can write
/// `gpu.launch("name", grid, threads, &|c, ctx| { ... })`.
pub trait Kernel: Sync {
    /// Executes column `col`, reporting costs to `ctx`. In a one-stripe
    /// launch the column is the block id; in a launch of `stripes`
    /// blocks per column ([`crate::Gpu::launch_striped`]) the one call's
    /// cost stands for blocks `col·stripes .. (col+1)·stripes`.
    fn run_block(&self, col: usize, ctx: &mut BlockCtx<'_>);
}

impl<F> Kernel for F
where
    F: Fn(usize, &mut BlockCtx<'_>) + Sync,
{
    fn run_block(&self, col: usize, ctx: &mut BlockCtx<'_>) {
        self(col, ctx)
    }
}

/// One block's accounting as its kernel body reported it to a
/// [`BlockCtx`] — the only thing the cost model prices a launch from
/// ([`crate::Gpu::quote`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockCost {
    /// In-block compute time (ns).
    pub compute_ns: f64,
    /// Device memory traffic (bytes).
    pub mem_bytes: u64,
    /// Unified-memory fault service time attributed to the block (ns).
    pub fault_ns: f64,
    /// Unified-memory fault groups the block raised.
    pub fault_groups: u64,
}

/// Per-block cost accumulator handed to kernel bodies.
///
/// The pricing model (constants in [`CostModel`]):
/// * [`BlockCtx::step`] — one block-wide parallel step over `items` work
///   items: a fixed step latency (barrier + frontier bookkeeping) plus a
///   per-item cost scaled by how many threads the block has. Blocks
///   narrower than a full 1024-thread block process proportionally fewer
///   items per cycle (floored at one warp).
/// * [`BlockCtx::serial`] — single-thread work (no latency hiding): ~8× the
///   saturated per-item cost.
/// * [`BlockCtx::mem`] — device-memory traffic; it does not slow the block
///   directly but feeds the kernel-wide HBM bandwidth bound.
/// * [`BlockCtx::um_read`] / [`BlockCtx::um_write`] — unified-memory
///   touches; non-resident pages fault, and fault service time is charged
///   **globally** (serialized across blocks) by the launcher, matching the
///   fault-handler bottleneck the paper's Table 3 measures.
#[derive(Debug)]
pub struct BlockCtx<'a> {
    cost: &'a CostModel,
    um: Option<&'a UmSpace>,
    threads: usize,
    /// Accumulated in-block compute time (ns).
    pub(crate) compute_ns: f64,
    /// Device memory traffic (bytes).
    pub(crate) mem_bytes: u64,
    /// Unified-memory fault service time attributed to this block (ns).
    pub(crate) fault_ns: f64,
    /// Unified-memory fault groups raised by this block.
    pub(crate) fault_groups: u64,
    /// Parallel steps executed (diagnostics).
    pub(crate) steps: u64,
    /// Work items processed (diagnostics).
    pub(crate) items: u64,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new(cost: &'a CostModel, um: Option<&'a UmSpace>, threads: usize) -> Self {
        BlockCtx {
            cost,
            um,
            threads: threads.max(1),
            compute_ns: 0.0,
            mem_bytes: 0,
            fault_ns: 0.0,
            fault_groups: 0,
            steps: 0,
            items: 0,
        }
    }

    /// Number of threads in this block.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Width factor: fraction of full-block throughput this block gets.
    #[inline]
    fn width_factor(&self) -> f64 {
        (self.threads as f64 / 1024.0).clamp(1.0 / 32.0, 1.0)
    }

    /// One block-wide parallel step over `items` work items.
    #[inline]
    pub fn step(&mut self, items: u64) {
        self.steps += 1;
        self.items += items;
        self.compute_ns +=
            self.cost.block_step_ns + items as f64 * self.cost.block_item_ns / self.width_factor();
    }

    /// `n` items of work with no step latency (tight inner loops that are
    /// part of an enclosing step, e.g. per-element FMAs of a column
    /// update).
    #[inline]
    pub fn work(&mut self, items: u64) {
        self.items += items;
        self.compute_ns += items as f64 * self.cost.block_item_ns / self.width_factor();
    }

    /// Bulk-charges `steps` parallel steps spanning `items` total work
    /// items — equivalent to the corresponding sequence of [`BlockCtx::step`]
    /// calls. Kernels that compute their traversal metrics in one shot
    /// (e.g. a whole fill2 row) report them through this.
    #[inline]
    pub fn bulk_steps(&mut self, steps: u64, items: u64) {
        self.steps += steps;
        self.items += items;
        self.compute_ns += steps as f64 * self.cost.block_step_ns
            + items as f64 * self.cost.block_item_ns / self.width_factor();
    }

    /// Bulk-charges `steps` parallel steps spanning `items` of *structured
    /// numeric* work (coalesced multiply–add streams), priced at the flop
    /// rate rather than the irregular-traversal rate. The numeric
    /// factorization kernels report through this.
    #[inline]
    pub fn bulk_flops(&mut self, steps: u64, items: u64) {
        self.steps += steps;
        self.items += items;
        self.compute_ns += steps as f64 * self.cost.block_step_ns
            + items as f64 * self.cost.flop_item_ns / self.width_factor();
    }

    /// Bulk-charges `steps` parallel steps spanning `items` of *tiled
    /// dense block-update* work (BLAS-3 multiply–add tiles), priced at the
    /// pipelined GEMM rate — cheaper still than the streamed
    /// [`BlockCtx::bulk_flops`] rate. The blocked numeric engine reports
    /// supernode-member columns through this.
    #[inline]
    pub fn bulk_gemm(&mut self, steps: u64, items: u64) {
        self.steps += steps;
        self.items += items;
        self.compute_ns += steps as f64 * self.cost.block_step_ns
            + items as f64 * self.cost.gemm_flop_ns / self.width_factor();
    }

    /// `ops` of strictly serial (single-thread) work.
    #[inline]
    pub fn serial(&mut self, ops: u64) {
        self.compute_ns += ops as f64 * self.cost.block_item_ns * 8.0;
    }

    /// Records `bytes` of device-memory traffic (feeds the kernel-wide
    /// bandwidth bound).
    #[inline]
    pub fn mem(&mut self, bytes: u64) {
        self.mem_bytes += bytes;
    }

    /// Touches `len` bytes of a unified-memory allocation for reading.
    /// Panics if the kernel was launched without a UM space.
    pub fn um_read(&mut self, alloc: &UmAlloc<'_>, offset: u64, len: u64) {
        self.um_touch(alloc, offset, len);
        self.mem(len);
    }

    /// Touches `len` bytes of a unified-memory allocation for writing.
    pub fn um_write(&mut self, alloc: &UmAlloc<'_>, offset: u64, len: u64) {
        self.um_touch(alloc, offset, len);
        self.mem(len);
    }

    fn um_touch(&mut self, alloc: &UmAlloc<'_>, offset: u64, len: u64) {
        let um = self
            .um
            .expect("kernel touched unified memory but was launched without a UM space");
        let TouchOutcome {
            faulted_pages,
            fault_groups,
            migrated_bytes,
        } = um.touch(alloc, offset, len);
        if faulted_pages > 0 {
            self.fault_groups += fault_groups;
            self.fault_ns += fault_groups as f64 * self.cost.um_fault_group_ns
                + migrated_bytes as f64 * self.cost.pcie_ns_per_byte;
        }
    }

    /// Compute time accumulated so far (ns) — exposed for tests.
    pub fn compute_ns(&self) -> f64 {
        self.compute_ns
    }

    /// Everything the launch machinery prices this block from.
    pub fn cost(&self) -> BlockCost {
        BlockCost {
            compute_ns: self.compute_ns,
            mem_bytes: self.mem_bytes,
            fault_ns: self.fault_ns,
            fault_groups: self.fault_groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_charges_latency_plus_items() {
        let cost = CostModel::default();
        let mut ctx = BlockCtx::new(&cost, None, 1024);
        ctx.step(1000);
        let want = cost.block_step_ns + 1000.0 * cost.block_item_ns;
        assert!((ctx.compute_ns - want).abs() < 1e-9);
        assert_eq!((ctx.steps, ctx.items), (1, 1000));
    }

    #[test]
    fn narrow_blocks_are_slower_per_item() {
        let cost = CostModel::default();
        let mut wide = BlockCtx::new(&cost, None, 1024);
        let mut warp = BlockCtx::new(&cost, None, 32);
        wide.work(1024);
        warp.work(1024);
        assert!((warp.compute_ns / wide.compute_ns - 32.0).abs() < 1e-6);
    }

    #[test]
    fn width_factor_floors_at_one_warp() {
        let cost = CostModel::default();
        let mut tiny = BlockCtx::new(&cost, None, 1);
        let mut warp = BlockCtx::new(&cost, None, 32);
        tiny.work(100);
        warp.work(100);
        assert!((tiny.compute_ns - warp.compute_ns).abs() < 1e-9);
    }

    #[test]
    fn serial_is_much_slower_than_parallel() {
        let cost = CostModel::default();
        let mut a = BlockCtx::new(&cost, None, 1024);
        let mut b = BlockCtx::new(&cost, None, 1024);
        a.work(1000);
        b.serial(1000);
        assert!(b.compute_ns > 5.0 * a.compute_ns);
    }

    #[test]
    fn gemm_rate_undercuts_flop_rate() {
        let cost = CostModel::default();
        let mut flops = BlockCtx::new(&cost, None, 1024);
        let mut gemm = BlockCtx::new(&cost, None, 1024);
        flops.bulk_flops(3, 10_000);
        gemm.bulk_gemm(3, 10_000);
        assert!(gemm.compute_ns < flops.compute_ns);
        // Same step latency: the gap is purely the per-item rate.
        let gap = (flops.compute_ns - gemm.compute_ns)
            - 10_000.0 * (cost.flop_item_ns - cost.gemm_flop_ns);
        assert!(gap.abs() < 1e-9);
    }

    #[test]
    fn mem_only_counts_bytes() {
        let cost = CostModel::default();
        let mut ctx = BlockCtx::new(&cost, None, 1024);
        ctx.mem(4096);
        assert_eq!(ctx.mem_bytes, 4096);
        assert_eq!(ctx.compute_ns, 0.0);
    }
}
