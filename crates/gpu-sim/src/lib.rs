//! # gplu-sim
//!
//! A discrete-cost **GPU execution simulator**: the substitute substrate for
//! the NVIDIA Tesla V100 + CUDA 11.2 environment of *"End-to-End LU
//! Factorization of Large Matrices on GPUs"* (Xia et al., PPoPP 2023).
//!
//! ## Why a simulator
//!
//! Every decision in the paper is driven by a small set of device-level
//! quantities: device-memory capacity (out-of-core chunk sizing, the
//! dense-vs-CSC format switch), kernel-launch overhead (host launches vs
//! CUDA *dynamic parallelism*), PCIe transfer cost (explicit out-of-core
//! movement), unified-memory page-fault service time (the UM baselines of
//! Figures 5/6 and Table 3), and the concurrent thread-block limit
//! (`TB_max`, the parallelism ceiling of Table 4). This crate models
//! exactly those quantities and nothing speculative:
//!
//! * [`GpuConfig`] — the Table 1 V100 specification plus scaled profiles,
//! * [`DeviceMemory`] — a capacity-tracked allocator; allocations *fail*
//!   when the device is full, which is what forces out-of-core execution,
//! * [`Gpu::launch`] — kernels execute **functionally** (real Rust closures
//!   over block ids, optionally parallelised with rayon) while a
//!   [`BlockCtx`] counts the operations each block performs; simulated time
//!   is the wave-scheduled makespan of the per-block costs under the
//!   concurrency limit, plus launch overhead,
//! * [`Gpu::launch_device`] — the same with the (much smaller)
//!   device-side launch overhead of dynamic parallelism; a
//!   [`LaunchKind::Continue`] level of an already running kernel pays
//!   only an in-kernel dependency wait ([`CostModel::launch_ns`]),
//! * [`Gpu::quote`] — that pricing rule on its own, from per-block costs
//!   with nothing run: what a launch *would* charge, to the bit,
//! * [`UmSpace`] — a unified-memory page manager with residency tracking,
//!   LRU eviction, fault-group accounting and bulk prefetch,
//! * [`CostModel`] — the frozen constants, each documented with its
//!   provenance.
//!
//! Simulated time is kept on a monotone clock ([`SimTime`]); callers read
//! phase boundaries with [`Gpu::now`]. All functional results (the actual
//! factors) are real and are verified against CPU oracles in the
//! workspace's test suites — the simulator only *prices* the execution.

pub mod clock;
pub mod config;
pub mod cost;
pub mod error;
pub mod fault;
pub mod fleet;
pub mod kernel;
pub mod launch;
pub mod memory;
pub mod stats;
pub mod unified;

pub use clock::SimTime;
pub use config::GpuConfig;
pub use cost::CostModel;
pub use error::SimError;
pub use fault::{
    DiskFault, DiskOp, FaultInjector, FaultPlan, LaunchFault, OomFault, SqueezeFault,
    FAULT_PLAN_ENV,
};
pub use fleet::{split_even, DeviceFleet, FleetDeviceStats, FleetStats, InterconnectStats};
pub use kernel::{BlockCost, BlockCtx, Kernel};
pub use launch::{Exec, Gpu, KernelReport, LaunchKind, LaunchQuote};
pub use memory::{DeviceAlloc, DeviceMemory};
pub use stats::GpuStatsSnapshot;
pub use unified::{UmAlloc, UmSpace, UmStatsSnapshot};
