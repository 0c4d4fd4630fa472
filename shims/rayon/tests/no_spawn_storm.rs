//! Regression test for the per-call thread-spawn storm: parallel calls must
//! run on the resident pool, never on freshly spawned threads.
//!
//! Alone in its own test binary, so the only other threads in the process
//! are libtest's main thread and the one running this test.

use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("status has a Threads: line");
    line.trim().parse().expect("Threads: is a number")
}

#[test]
fn ten_thousand_calls_reuse_the_same_threads() {
    #[cfg(target_os = "linux")]
    let harness_threads = process_threads();

    let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    for call in 0..10_000usize {
        // Most calls are over before a sleeping worker would be woken;
        // every hundredth is long enough that the workers join in.
        let rounds = if call % 100 == 0 { 100_000 } else { 1 };
        let out: Vec<usize> = (0..16usize)
            .into_par_iter()
            .map(|i| {
                seen.lock()
                    .expect("no panic under this lock")
                    .insert(std::thread::current().id());
                (0..rounds).fold(i + call, |acc, _| std::hint::black_box(acc))
            })
            .collect();
        assert_eq!(out[15], 15 + call);
    }

    // `ThreadId`s are never reused, so a spawn per call would show up as
    // thousands of distinct ids here.
    let distinct = seen.into_inner().expect("no panic under this lock").len();
    assert!(
        distinct <= rayon::current_num_threads(),
        "{distinct} distinct threads ran items; the pool has {} (workers + caller)",
        rayon::current_num_threads()
    );
    #[cfg(target_os = "linux")]
    {
        let workers = rayon::current_num_threads() - 1;
        let now = process_threads();
        assert!(
            now <= harness_threads + workers,
            "{now} threads alive after 10 000 calls; {harness_threads} before the first, {workers} pool workers allowed"
        );
    }
}
