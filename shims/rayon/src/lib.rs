//! Offline stand-in for the `rayon` crate.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! the parallel-iterator subset it uses: `into_par_iter` over ranges,
//! `par_chunks` over slices, and the `map` / `flat_map_iter` / `for_each`
//! / `collect` adapters, plus [`current_num_threads`].
//!
//! Execution model: adapters are eager. The first parallel call starts one
//! process-wide set of `current_num_threads() - 1` resident worker threads;
//! no call ever spawns a thread after that. Each adapter call publishes one
//! *job* — an item count, the closure, and an atomic next-index — and the
//! calling thread starts claiming grains of it at once. Workers that are
//! awake claim grains of the same job; sleeping workers are woken only once
//! the caller has been at the job for longer than a wake-up takes
//! (`WAKE_AFTER`) with grains still unclaimed, and are never waited for,
//! so the caller finishes a job alone when nobody joins in. That is also
//! why nested calls (a closure that itself calls `into_par_iter`) and
//! concurrent callers cannot deadlock: a thread only ever waits for grains
//! another thread is *already running*.
//!
//! Which thread runs which item is decided by the claim race and differs
//! from call to call. Results are nevertheless written to slots indexed by
//! item and handed back **in input order** — the ordering guarantee the gpu
//! simulator relies on when it zips block results back to block ids and
//! prices them. Panics in closures propagate to the caller, as in real
//! rayon, and leave the pool usable.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long a caller works on a job alone before it wakes sleeping workers:
/// about what it takes a woken thread to start running. A job shorter than
/// this is finished before help could arrive, and waking for it only burns
/// a futex call here and a futile wake-up there (measured: 10-15 % of the
/// wall time of the launch-bound benchmark workloads). The check runs
/// between grains, so help for a long job is late by at most one grain.
const WAKE_AFTER: Duration = Duration::from_micros(50);

/// Number of threads a parallel call can run on: the machine's available
/// parallelism, resolved once when the pool starts.
pub fn current_num_threads() -> usize {
    pool().threads
}

/// One parallel call: `body(i)` must run exactly once for every `i < n`.
struct Job {
    /// The caller's closure with its lifetime erased; see [`Pool::run`] for
    /// why no call through it outlives the borrow.
    body: &'static (dyn Fn(usize) + Sync),
    n: usize,
    /// Items claimed per `next` increment.
    grain: usize,
    /// First unclaimed item; `>= n` once every item has an owner.
    next: AtomicUsize,
    /// Items not yet finished. The decrement that reaches zero is a
    /// release that the caller's acquire load pairs with, so everything
    /// `body` wrote is visible to the caller when it returns.
    pending: AtomicUsize,
    /// First panic payload raised by `body`, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    caller: Thread,
}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
    }

    /// Claims and runs grains until none is left, telling `after_grain`
    /// each time whether that grain was the job's last to finish. `next`
    /// only hands out indices; the data `body` publishes is ordered by
    /// `pending`.
    fn work(&self, mut after_grain: impl FnMut(bool)) {
        loop {
            let start = self.next.fetch_add(self.grain, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            let end = (start + self.grain).min(self.n);
            let ran = catch_unwind(AssertUnwindSafe(|| (start..end).for_each(self.body)));
            if let Err(payload) = ran {
                // A panicking grain still counts as finished: the caller
                // must be released, and it re-raises instead of reading
                // the results.
                lock(&self.panic).get_or_insert(payload);
            }
            let done = end - start;
            after_grain(self.pending.fetch_sub(done, Ordering::AcqRel) == done);
        }
    }
}

/// Blocks until every claimed grain of the job has finished — on return
/// *and* on unwind, which is what lets [`Pool::run`] lend `body` out.
struct WaitForHelpers<'a>(&'a Job);

impl Drop for WaitForHelpers<'_> {
    fn drop(&mut self) {
        while self.0.pending.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
    }
}

struct Shared {
    /// Published jobs that may still have unclaimed grains.
    jobs: Vec<Arc<Job>>,
    /// Workers blocked on `Pool::wake`.
    sleepers: usize,
}

struct Pool {
    threads: usize,
    shared: Mutex<Shared>,
    wake: Condvar,
}

/// Every update of the data behind the pool's mutexes (a push, a removal,
/// a counter, an `Option` store) leaves it valid, so a poisoned lock is
/// recovered instead of turned into a second panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        for i in 1..threads {
            // Workers live for the rest of the process and are never
            // joined; they cannot die of a panic because `Job::work`
            // catches every one. Their own `pool()` call returns once this
            // initializer has. A failed spawn only means less help:
            // callers finish their jobs alone.
            let _ = std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(|| pool().worker());
        }
        Pool {
            threads,
            shared: Mutex::new(Shared {
                jobs: Vec::new(),
                sleepers: 0,
            }),
            wake: Condvar::new(),
        }
    })
}

impl Pool {
    fn worker(&self) {
        let mut shared = lock(&self.shared);
        loop {
            let job = shared.jobs.iter().find(|j| j.has_unclaimed()).cloned();
            match job {
                Some(job) => {
                    drop(shared);
                    job.work(|last| {
                        if last {
                            job.caller.unpark();
                        }
                    });
                    shared = lock(&self.shared);
                }
                None => {
                    shared.sleepers += 1;
                    shared = self
                        .wake
                        .wait(shared)
                        .unwrap_or_else(PoisonError::into_inner);
                    shared.sleepers -= 1;
                }
            }
        }
    }

    /// Wakes up to `wanted` sleeping workers; no syscall when nobody sleeps.
    fn wake_sleepers(&self, wanted: usize) {
        let sleepers = lock(&self.shared).sleepers;
        match wanted.min(sleepers) {
            0 => {}
            wanted if wanted == sleepers => self.wake.notify_all(),
            wanted => (0..wanted).for_each(|_| self.wake.notify_one()),
        }
    }

    /// Runs `body(i)` once for every `i < n`, on the caller and on
    /// whichever workers join in, and returns when all of them are done.
    /// Re-raises the first panic `body` raised.
    fn run(&self, n: usize, body: &(dyn Fn(usize) + Sync)) {
        if n <= 1 || self.threads == 1 {
            return (0..n).for_each(body);
        }
        // SAFETY: the transmute only erases the borrow's lifetime so that
        // resident threads can hold the job. `body` is called in
        // `Job::work` alone, for an item claimed while `next < n`, and
        // that item leaves `pending` only after the call returned. The
        // `WaitForHelpers` guard below is dropped before this function
        // returns or unwinds and blocks until `pending == 0`, so every
        // call through the erased reference ends while the real borrow is
        // still live. A worker that still holds the `Arc<Job>` afterwards
        // finds `next >= n` and never touches `body`.
        let body: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        let grain = (n / (self.threads * 4)).max(1);
        let job = Arc::new(Job {
            body,
            n,
            grain,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n),
            panic: Mutex::new(None),
            caller: std::thread::current(),
        });
        {
            let _wait = WaitForHelpers(&job);
            lock(&self.shared).jobs.push(Arc::clone(&job));
            let started = Instant::now();
            let mut woke = false;
            job.work(|_| {
                if !woke && job.has_unclaimed() && started.elapsed() >= WAKE_AFTER {
                    woke = true;
                    self.wake_sleepers(n.div_ceil(grain) - 1);
                }
            });
            lock(&self.shared).jobs.retain(|j| !Arc::ptr_eq(j, &job));
        }
        let panic = lock(&job.panic).take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// Where a [`ParIter`]'s items come from.
enum Source<T> {
    /// Realized items.
    Items(Vec<T>),
    /// An index range that is never materialised; the function turns an
    /// index into an item (the identity, for `Range<usize>`).
    Range(std::ops::Range<usize>, fn(usize) -> T),
}

/// An eager "parallel iterator": an item source plus adapters that fan
/// work out across the pool.
pub struct ParIter<T: Send> {
    src: Source<T>,
}

impl<T: Send> ParIter<T> {
    fn len(&self) -> usize {
        match &self.src {
            Source::Items(items) => items.len(),
            Source::Range(range, _) => range.len(),
        }
    }

    /// Runs `f(index, item)` once per item on the pool.
    fn drive(self, f: impl Fn(usize, T) + Sync) {
        match self.src {
            Source::Range(range, item) => {
                pool().run(range.len(), &|i| f(i, item(range.start + i)));
            }
            Source::Items(items) => {
                // Each item moves to whichever thread claims its index.
                let cells: Vec<Mutex<Option<T>>> =
                    items.into_iter().map(|t| Mutex::new(Some(t))).collect();
                pool().run(cells.len(), &|i| {
                    let t = lock(&cells[i]).take();
                    f(i, t.expect("the pool runs each index once"));
                });
            }
        }
    }

    /// Parallel element-wise transform, order-preserving: results land in
    /// slots indexed by item, whichever thread produced each.
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let slots: Vec<Mutex<Option<U>>> = (0..self.len()).map(|_| Mutex::new(None)).collect();
        self.drive(|i, t| {
            let value = f(t);
            *lock(&slots[i]) = Some(value);
        });
        let items = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("the pool ran every item before returning")
            })
            .collect();
        ParIter {
            src: Source::Items(items),
        }
    }

    /// Parallel transform where each element yields a sequential iterator;
    /// results are concatenated in input order.
    pub fn flat_map_iter<U, I, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Sync,
    {
        let nested: Vec<Vec<U>> = self.map(|t| f(t).into_iter().collect()).collect();
        ParIter {
            src: Source::Items(nested.into_iter().flatten().collect()),
        }
    }

    /// Runs `f` on every element in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        self.drive(|_, t| f(t));
    }

    /// Collects the items in input order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        match self.src {
            Source::Items(items) => items.into_iter().collect(),
            Source::Range(range, item) => range.map(item).collect(),
        }
    }
}

/// Conversion into a parallel iterator (`rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Realizes the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            src: Source::Range(self, |i| i),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter {
            src: Source::Items(self),
        }
    }
}

/// Parallel chunking over slices (`rayon::slice::ParallelSlice`).
pub trait ParallelSlice<T: Sync> {
    /// Splits the slice into `size`-element chunks (last may be short) and
    /// yields them as a parallel iterator.
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        assert!(size > 0, "chunk size must be non-zero");
        ParIter {
            src: Source::Items(self.chunks(size).collect()),
        }
    }
}

/// The traits user code imports with `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn order_is_preserved_under_uneven_item_costs() {
        // The first items are ~1000x dearer than the rest, so under
        // dynamic claiming the cheap tail finishes long before the head.
        let spin = |i: usize| {
            let rounds = if i < 8 { 200_000 } else { 200 };
            (0..rounds).fold(i as u64, |acc, k| std::hint::black_box(acc ^ k))
        };
        let out: Vec<(usize, u64)> = (0..256usize)
            .into_par_iter()
            .map(|i| (i, spin(i)))
            .collect();
        let expect: Vec<(usize, u64)> = (0..256).map(|i| (i, spin(i))).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn vec_items_move_through_map_in_order() {
        let words: Vec<String> = (0..300).map(|i| format!("w{i}")).collect();
        let out: Vec<String> = words.clone().into_par_iter().map(|s| s + "!").collect();
        let expect: Vec<String> = words.into_iter().map(|s| s + "!").collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_chunks_covers_slice_in_order() {
        let data: Vec<u32> = (0..103).collect();
        let sums: Vec<u32> = data.par_chunks(10).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.iter().sum::<u32>(), data.iter().sum());
        assert_eq!(sums[0], (0..10).sum());
    }

    #[test]
    fn flat_map_iter_concatenates_in_order() {
        let out: Vec<usize> = (0..10usize)
            .into_par_iter()
            .flat_map_iter(|i| vec![i; i])
            .collect();
        let expect: Vec<usize> = (0..10).flat_map(|i| vec![i; i]).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn for_each_visits_every_item() {
        let hits = AtomicUsize::new(0);
        (0..500usize).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn panic_propagates_and_the_pool_survives_it() {
        let caught = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                if i == 33 {
                    panic!("boom");
                }
            });
        });
        let payload = caught.expect_err("the closure's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // Same pool, next call: workers are alive and no job is stuck.
        let out: Vec<usize> = (0..64usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_complete() {
        // Inner items are slow enough that workers are woken for the outer
        // job, so inner jobs get published from worker threads too.
        let slow = |v: usize| (0..20_000).fold(v, |acc, _| std::hint::black_box(acc));
        let out: Vec<usize> = (0..32usize)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..50usize).into_par_iter().map(|j| slow(i * j)).collect();
                inner.iter().sum()
            })
            .collect();
        let expect: Vec<usize> = (0..32).map(|i| (0..50).map(|j| i * j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_callers_each_get_their_own_ordered_results() {
        // The serve_mix shape: several threads publish jobs at the same
        // moment (the barrier forces the overlap) and race for the workers.
        let callers = 4;
        let barrier = Barrier::new(callers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|c| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        (0..200)
                            .map(|round| {
                                let out: Vec<usize> = (0..97usize)
                                    .into_par_iter()
                                    .map(|i| i * 1000 + c * 10 + round % 10)
                                    .collect();
                                out
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for (c, handle) in handles.into_iter().enumerate() {
                let rounds = handle.join().expect("caller thread finished");
                for (round, out) in rounds.into_iter().enumerate() {
                    let expect: Vec<usize> =
                        (0..97).map(|i| i * 1000 + c * 10 + round % 10).collect();
                    assert_eq!(out, expect, "caller {c}, round {round}");
                }
            }
        });
    }
}
