//! The frozen cost-model constants.
//!
//! Each constant carries its provenance. They were chosen from published
//! V100/Xeon characteristics, then frozen; DESIGN.md §6 explains the
//! calibration policy (tune once so relative results land in the paper's
//! bands, then never touch again per-experiment).

use crate::launch::LaunchKind;

/// Cost constants for pricing simulated execution.
#[derive(Debug, Clone)]
pub struct CostModel {
    // ---- kernel launches -------------------------------------------------
    /// Host-side kernel launch + sync overhead. CUDA launch latency is
    /// ~3–10 µs through the runtime API; the paper's out-of-core loop pays
    /// this once per chunk iteration.
    pub host_launch_ns: f64,
    /// Device-side (dynamic parallelism) launch overhead, the advantage the
    /// paper's Algorithm 5 exploits; measured at a few hundred ns on Volta.
    pub device_launch_ns: f64,

    // ---- on-device execution --------------------------------------------
    /// Per-item cost of a block-parallel step once the block's threads are
    /// saturated (irregular, memory-latency-amortised work like adjacency
    /// scans): ~0.25 ns/edge for an SM-resident block.
    pub block_item_ns: f64,
    /// Per-item cost of *structured* numeric work (the multiply–add
    /// streams of the factorization kernels): coalesced and
    /// pipeline-saturated, an order of magnitude cheaper than the
    /// irregular traversal items above.
    pub flop_item_ns: f64,
    /// Per-item cost of a multiply–add inside a *tiled dense block
    /// update* (BLAS-3). A `TILE_WIDTH`-tiled GEMM keeps its operands in
    /// shared memory/registers across the whole tile, so the FMA pipeline
    /// runs without the per-element load/issue slack the streaming
    /// `flop_item_ns` rate still pays: V100 sustains ~7 TFLOP/s fp64 GEMM
    /// vs ~2–2.5 TFLOP/s on streamed sparse updates, a ~3× rate gap. The
    /// blocked numeric engine charges supernode-member columns at this
    /// rate.
    pub gemm_flop_ns: f64,
    /// Fixed cost of one intra-block step (barrier + frontier bookkeeping);
    /// dominates when frontiers are tiny, which is what makes sparse
    /// matrices GPU-unfriendly (paper §4.2).
    pub block_step_ns: f64,
    /// Device-memory bandwidth: V100 HBM2 ≈ 900 GB/s ⇒ 0.00111 ns/byte.
    pub hbm_ns_per_byte: f64,

    // ---- host <-> device ------------------------------------------------
    /// PCIe 3.0 x16 effective bandwidth ≈ 12 GB/s ⇒ 0.0833 ns/byte.
    pub pcie_ns_per_byte: f64,
    /// Fixed per-transfer latency (driver + DMA setup), ~10 µs.
    pub pcie_latency_ns: f64,

    // ---- device <-> device (fleet interconnect) --------------------------
    /// NVLink 2.0 effective per-direction bandwidth between two V100s:
    /// 6 bricks × 25 GB/s ≈ 150 GB/s ⇒ 0.00667 ns/byte. Slower than HBM
    /// (the exchange is still a real cost at level barriers) but an order
    /// of magnitude faster than staging through PCIe and the host.
    pub nvlink_ns_per_byte: f64,
    /// Fixed per-exchange latency on the peer link (doorbell + DMA setup);
    /// published V100 peer-copy latencies sit around 2 µs, well under the
    /// host-mediated PCIe setup cost.
    pub nvlink_latency_ns: f64,

    // ---- unified memory ---------------------------------------------------
    /// Fault-group migration block of the UM manager. Volta's UVM tree
    /// prefetcher escalates per-fault migration up to 2 MiB, and the
    /// paper's Table 3 group counts divide its intermediate-state
    /// footprint at almost exactly that granularity (≈1.8 MiB/group).
    pub um_page_bytes: u64,
    /// Service time per GPU page-fault *group* (fault handling +
    /// population of one block): 20–45 µs in published UVM studies; we
    /// price 25 µs per 2 MiB block.
    pub um_fault_group_ns: f64,
    /// Pages (blocks) per counted fault group; 1 — the block *is* the
    /// group.
    pub um_fault_group_pages: u64,

    // ---- numeric access pricing ------------------------------------------
    /// Fractional item-cost of one binary-search probe in the Algorithm 6
    /// numeric kernel. Each located update target pays `log2(nnz_col)`
    /// probes, and a probe (one dependent load + compare inside an
    /// otherwise coalesced stream) is cheaper than a full multiply–add
    /// item but far from free. The merge-join discipline streams both
    /// columns in lockstep and pays **no** probe surcharge — that
    /// difference is exactly the O(nnz·log nnz) → O(nnz) win.
    pub probe_weight: f64,

    // ---- CPU baseline -----------------------------------------------------
    /// Per-item cost of irregular pointer-chasing work on one Xeon core
    /// (cache-missing adjacency scans on a 2013 Ivy Bridge): ~7 ns.
    pub cpu_item_ns: f64,
    /// Threads of the baseline host (paper: 14 cores × 2 HT = 28).
    pub cpu_threads: usize,
    /// Parallel efficiency of the CPU baseline (memory-bandwidth ceiling
    /// keeps 28 threads from scaling linearly).
    pub cpu_efficiency: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            host_launch_ns: 5_000.0,
            device_launch_ns: 600.0,
            block_item_ns: 0.25,
            flop_item_ns: 0.15,
            gemm_flop_ns: 0.05,
            block_step_ns: 50.0,
            hbm_ns_per_byte: 1.0 / 900.0e9 * 1e9,
            pcie_ns_per_byte: 1.0 / 12.0e9 * 1e9,
            pcie_latency_ns: 10_000.0,
            nvlink_ns_per_byte: 1.0 / 150.0e9 * 1e9,
            nvlink_latency_ns: 2_000.0,
            um_page_bytes: 2 * 1024 * 1024,
            um_fault_group_ns: 25_000.0,
            um_fault_group_pages: 1,
            probe_weight: 0.12,
            cpu_item_ns: 7.0,
            cpu_threads: 28,
            cpu_efficiency: 0.42,
        }
    }
}

impl CostModel {
    /// What a launch of `kind` pays before its blocks run — the one place
    /// the kind is priced. A [`LaunchKind::Continue`] is no launch: its
    /// blocks wait on a dependency flag the level before set, one
    /// global-memory round trip plus a block barrier, which is the cost
    /// class `block_step_ns` prices. A wait is never dearer than the child
    /// launch it replaces: [`CostModel::scaled_latencies`] scales launches
    /// but not `block_step_ns`, so past a scale of 12 the launch is the
    /// price.
    pub fn launch_ns(&self, kind: LaunchKind) -> f64 {
        match kind {
            LaunchKind::Host => self.host_launch_ns,
            LaunchKind::Device => self.device_launch_ns,
            LaunchKind::Continue => self.block_step_ns.min(self.device_launch_ns),
        }
    }

    /// Effective CPU parallel throughput divisor: `threads × efficiency`.
    pub fn cpu_parallel_speedup(&self) -> f64 {
        self.cpu_threads as f64 * self.cpu_efficiency
    }

    /// Time for `items` of irregular work on the parallel CPU baseline.
    pub fn cpu_parallel_ns(&self, items: u64) -> f64 {
        items as f64 * self.cpu_item_ns / self.cpu_parallel_speedup()
    }

    /// Time for an explicit PCIe transfer of `bytes`.
    pub fn pcie_transfer_ns(&self, bytes: u64) -> f64 {
        self.pcie_latency_ns + bytes as f64 * self.pcie_ns_per_byte
    }

    /// Time for a peer-to-peer NVLink exchange of `bytes` between two
    /// devices of a fleet. Every cross-device exchange (symbolic shard
    /// merges, the legs a split numeric level ships) is charged through
    /// this helper so the fleet's scaling curves price communication,
    /// not just compute.
    pub fn nvlink_transfer_ns(&self, bytes: u64) -> f64 {
        self.nvlink_latency_ns + bytes as f64 * self.nvlink_ns_per_byte
    }

    /// Time for the host-side threshold-pivot discovery pre-pass: a
    /// *sequential* Gilbert–Peierls sweep, so it pays the single-thread
    /// item rate — the price of pivoting the level-scheduled engines
    /// cannot pay themselves.
    pub fn pivot_discovery_ns(&self, flops: u64) -> f64 {
        flops as f64 * self.cpu_item_ns
    }

    /// Time for dynamic symbolic expansion: `items` structural
    /// insert-or-probe operations on the host, priced at the parallel CPU
    /// rate (column repairs are independent across the dependency
    /// frontier, like the CPU symbolic baseline).
    pub fn pattern_expand_ns(&self, items: u64) -> f64 {
        self.cpu_parallel_ns(items)
    }

    /// Flop-equivalent surcharge for locating `items` update targets by
    /// per-element binary search in a destination column of `nnz_col`
    /// stored entries (Algorithm 6): `items · ⌈log2(nnz_col)⌉ ·
    /// probe_weight`. Charge this *in addition to* the `items` themselves.
    ///
    /// The merge-join discipline has no analog of this function: its
    /// two-pointer walk is priced as the item stream alone (plus the
    /// bytes it touches), which is what makes it O(nnz).
    pub fn probe_flop_items(&self, items: u64, nnz_col: u64) -> u64 {
        let log_nnz = 64 - u64::leading_zeros(nnz_col.max(1)) as u64;
        (items as f64 * log_nnz as f64 * self.probe_weight) as u64
    }

    /// Device-memory traffic of `items` update entries applied through a
    /// width-`width` supernode block's tiled kernel, in bytes.
    ///
    /// A streaming column update re-reads its source segment per column:
    /// `items · 8` bytes. A supernode of `width` adjacent columns shares
    /// (by construction — their filled patterns match) one source tile
    /// across all members, so the tile load is amortized: each member's
    /// share is `⌈items·8 / width⌉`. The destination writes stay (they are
    /// distinct entries), but tiles make them coalesced store bursts, which
    /// the HBM bound already prices per byte — so the amortized figure is
    /// the whole story.
    pub fn tiled_mem_bytes(&self, items: u64, width: u64) -> u64 {
        (items * 8).div_ceil(width.max(1))
    }

    /// The Auto-format crossover between the merge and blocked engines.
    ///
    /// The blocked engine wins when enough columns sit inside supernode
    /// blocks for the gemm-rate flops and the width-amortized tile bytes
    /// to outweigh the `block_detect` scan: empirically (see
    /// BENCH_blocked_numeric.json) that happens once the mean supernode
    /// width clears ~1.8 columns *and* the fill is dense enough
    /// (≥ 20 nnz/col after fill) for the update streams — not launch
    /// overhead — to dominate the numeric phase. Planar/delaunay-class
    /// fill patterns clear both bars (density ≥ 200, width ~1.9, a
    /// 1.8× replay-path win at n=8000); circuit and mesh fill fails the
    /// width bar, and banded patterns (width ~32 but density ~16) sit
    /// under the density floor — their deep level chains are launch-bound,
    /// so blocked pricing gains nothing there.
    pub fn blocked_crossover(&self, fill_density: f64, mean_block_width: f64) -> bool {
        mean_block_width >= 1.8 && fill_density >= 20.0
    }

    /// Scales the *fixed latencies* (kernel-launch overheads and the PCIe
    /// setup latency) down by `scale`, for experiments on matrices scaled
    /// down by the same factor.
    ///
    /// Rationale: per-item (throughput) costs shrink automatically with
    /// problem size, but launch counts are scale-invariant by design (the
    /// out-of-core profile preserves the iteration count, levelization
    /// preserves the level count). Left unscaled, fixed latencies would
    /// dominate the scaled runs and invert every GPU-vs-CPU comparison
    /// that holds at paper scale. Dividing them by the matrix scale
    /// restores the paper's fixed-to-throughput cost ratio (DESIGN.md §6).
    pub fn scaled_latencies(mut self, scale: usize) -> Self {
        let s = scale.max(1) as f64;
        self.host_launch_ns /= s;
        self.device_launch_ns /= s;
        self.pcie_latency_ns /= s;
        self.nvlink_latency_ns /= s;
        self
    }

    /// Switches the unified-memory page granularity while keeping the
    /// fault-service cost *per byte* invariant (the service time scales
    /// with the page size). Scaled-down experiments use finer pages so the
    /// paging behaviour keeps its resolution at small footprints; because
    /// per-byte overhead is preserved, fault-time *fractions* (Table 3's
    /// metric) are unaffected by the choice.
    pub fn with_um_page_bytes(mut self, bytes: u64) -> Self {
        let bytes = bytes.max(256);
        self.um_fault_group_ns *= bytes as f64 / self.um_page_bytes as f64;
        self.um_page_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_physical() {
        let c = CostModel::default();
        // HBM must be far faster than PCIe.
        assert!(c.hbm_ns_per_byte < c.pcie_ns_per_byte / 10.0);
        // Dynamic parallelism must beat host launches (the Alg. 5 premise).
        assert!(c.device_launch_ns < c.host_launch_ns / 2.0);
        // Tiled GEMM must beat the streamed flop rate (the BLAS-3 premise)
        // but stay above the theoretical peak-fp64 floor (~0.01 ns/FMA).
        assert!(c.gemm_flop_ns < c.flop_item_ns / 2.0);
        assert!(c.gemm_flop_ns > 0.01);
        // Fault service per byte sits below PCIe per byte (populating a
        // block is cheaper than transferring it) but is far from free —
        // the Table 3 tax on on-demand paging of device-created scratch.
        let service_per_byte = c.um_fault_group_ns / c.um_page_bytes as f64;
        assert!(service_per_byte < c.pcie_ns_per_byte);
        assert!(service_per_byte > c.pcie_ns_per_byte / 20.0);
        // The fleet interconnect sits strictly between HBM and PCIe: a
        // peer exchange is slower than local memory but much faster than
        // bouncing through the host.
        assert!(c.nvlink_ns_per_byte > c.hbm_ns_per_byte);
        assert!(c.nvlink_ns_per_byte < c.pcie_ns_per_byte / 5.0);
        assert!(c.nvlink_latency_ns < c.pcie_latency_ns / 2.0);
        assert!(c.nvlink_latency_ns > c.device_launch_ns);
    }

    #[test]
    fn a_wait_is_never_dearer_than_a_child_launch() {
        use LaunchKind::*;
        // Default and ×10 latencies: the wait is a block step.
        for s in [1, 10] {
            let c = CostModel::default().scaled_latencies(s);
            assert_eq!(c.launch_ns(Continue), c.block_step_ns, "scale {s}");
            assert!(c.launch_ns(Continue) < c.launch_ns(Device), "scale {s}");
        }
        // Past a scale of 12 the scaled child launch is the cheaper price.
        for s in [13, 128, 1024] {
            let c = CostModel::default().scaled_latencies(s);
            assert_eq!(c.launch_ns(Continue), c.launch_ns(Device), "scale {s}");
            assert!(c.launch_ns(Continue) < c.block_step_ns, "scale {s}");
        }
    }

    #[test]
    fn cpu_parallel_math() {
        let c = CostModel::default();
        let single = 1_000_000.0 * c.cpu_item_ns;
        let par = c.cpu_parallel_ns(1_000_000);
        assert!(par < single / 10.0, "28 threads must give >10x");
        assert!(par > single / 28.0, "but not superlinear");
    }

    #[test]
    fn probe_surcharge_scales_with_column_size() {
        let c = CostModel::default();
        // log2(1024) = 11 significant bits ⇒ 1000 · 11 · 0.12 = 1320.
        assert_eq!(c.probe_flop_items(1000, 1024), 1320);
        // Deeper columns cost more probes per located item…
        assert!(c.probe_flop_items(1000, 1 << 20) > c.probe_flop_items(1000, 1 << 10));
        // …and an empty column is clamped, not a panic.
        assert_eq!(c.probe_flop_items(0, 0), 0);
    }

    #[test]
    fn tiled_bytes_amortize_by_width() {
        let c = CostModel::default();
        // A singleton "block" is plain streaming traffic.
        assert_eq!(c.tiled_mem_bytes(1000, 1), 8000);
        // Width-8 supernode: the shared source tile divides the bytes.
        assert_eq!(c.tiled_mem_bytes(1000, 8), 1000);
        // Rounds up, never to zero while items remain; width 0 is clamped.
        assert_eq!(c.tiled_mem_bytes(3, 8), 3);
        assert_eq!(c.tiled_mem_bytes(5, 0), 40);
    }

    #[test]
    fn blocked_crossover_needs_width_and_density() {
        let c = CostModel::default();
        // Dense fill + wide supernodes: blocked wins.
        assert!(c.blocked_crossover(25.0, 3.0));
        // Circuit-like: sparse fill, near-singleton blocks.
        assert!(!c.blocked_crossover(6.0, 1.1));
        // Width without density (tiny banded) or density without width
        // (random fill with unaligned patterns) both stay on merge.
        assert!(!c.blocked_crossover(4.0, 4.0));
        assert!(!c.blocked_crossover(30.0, 1.2));
        // Band-8 fill: full-width supernodes, but the launch-bound level
        // chain keeps it under the density floor.
        assert!(!c.blocked_crossover(16.5, 31.8));
    }

    #[test]
    fn pcie_transfer_includes_latency() {
        let c = CostModel::default();
        assert!(c.pcie_transfer_ns(0) == c.pcie_latency_ns);
        let big = c.pcie_transfer_ns(12_000_000_000);
        assert!(
            (big - (c.pcie_latency_ns + 1e9)).abs() / big < 1e-6,
            "12 GB ≈ 1 s"
        );
    }

    #[test]
    fn nvlink_transfer_includes_latency_and_beats_pcie() {
        let c = CostModel::default();
        assert!(c.nvlink_transfer_ns(0) == c.nvlink_latency_ns);
        let big = c.nvlink_transfer_ns(150_000_000_000);
        assert!(
            (big - (c.nvlink_latency_ns + 1e9)).abs() / big < 1e-6,
            "150 GB ≈ 1 s"
        );
        // For any bulk exchange the peer link must beat the host path.
        assert!(c.nvlink_transfer_ns(1 << 20) < c.pcie_transfer_ns(1 << 20));
    }
}
