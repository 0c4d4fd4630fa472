//! Chaos suite: hundreds of seeded fault schedules driven through the
//! full pipeline.
//!
//! The contract under fault injection is three-way:
//!
//! 1. if the pipeline reports success, the factors are **bit-identical**
//!    to a fault-free reference run (recovery never silently changes the
//!    answer), and any fired fault left a trace in the recovery log;
//! 2. if the pipeline cannot recover, it returns a typed [`GpluError`];
//! 3. it never panics.
//!
//! Every case is deterministic: the proptest shim derives inputs from the
//! case index, and `GPLU_CHAOS_SEED` (the CI seed matrix) offsets the
//! fault-plan seed so each CI shard explores a different schedule set.

mod common;

use common::{assert_bits_eq, gpu_for, gpu_with_plan, seed_base, ENGINES};
use gplu::prelude::*;
use gplu::sim::FaultPlan;
use gplu::sparse::gen::random::random_dominant;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn seeded_fault_schedules_recover_exactly_or_fail_typed(
        n in 40usize..140,
        mseed in 0u64..10_000,
        fseed in 0u64..1_000_000,
        engine_idx in 0usize..4,
    ) {
        let a = random_dominant(n, 4.0, mseed);
        let opts = LuOptions {
            symbolic: ENGINES[engine_idx],
            ..Default::default()
        };

        // Fault-free reference on an identical device.
        let reference = LuFactorization::compute(&gpu_for(&a), &a, &opts);
        prop_assert!(reference.is_ok(), "clean run failed: {:?}", reference.err());
        let reference = reference.expect("checked above");

        let plan = FaultPlan::from_seed(fseed + seed_base("GPLU_CHAOS_SEED").wrapping_mul(1_000_003));
        let gpu = gpu_with_plan(&a, plan);
        // Reaching either arm without a panic is itself the core property.
        match LuFactorization::compute(&gpu, &a, &opts) {
            Ok(f) => {
                assert_bits_eq(&f.lu.vals, &reference.lu.vals, "recovered vs fault-free");
                prop_assert_eq!(
                    &f.lu.col_ptr,
                    &reference.lu.col_ptr,
                    "recovered fill pattern differs from the fault-free run"
                );
                let stats = gpu.stats();
                // A squeeze shrinks capacity without failing any request,
                // so only hard faults (OOM, launch) must leave a trace.
                if stats.injected_oom + stats.injected_launch_faults > 0 {
                    prop_assert!(
                        !f.report.recovery.is_empty(),
                        "{} oom + {} launch faults fired but the recovery log is empty",
                        stats.injected_oom,
                        stats.injected_launch_faults
                    );
                }
            }
            Err(e) => {
                // Typed, displayable error — never a panic, never a wrong answer.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    #[test]
    fn transient_oom_storms_still_converge_on_ooc(
        n in 50usize..120,
        mseed in 0u64..10_000,
        alloc in 1u64..12,
    ) {
        // Single transient OOM at a chosen allocation ordinal: the OOC
        // engines must absorb it (backoff or stream) and reproduce the
        // reference bit-for-bit.
        let a = random_dominant(n, 4.0, mseed);
        let opts = LuOptions {
            symbolic: SymbolicEngine::Ooc,
            ..Default::default()
        };
        let reference =
            LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("clean run must succeed");

        let gpu = gpu_with_plan(&a, FaultPlan::new().oom_on_alloc(alloc));
        match LuFactorization::compute(&gpu, &a, &opts) {
            Ok(f) => {
                assert_bits_eq(&f.lu.vals, &reference.lu.vals, "absorbed OOM vs fault-free");
                if gpu.stats().injected_oom > 0 {
                    prop_assert!(!f.report.recovery.is_empty());
                }
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
