//! The two host clocks: monotonic wall time (`std::time::Instant`) and
//! process CPU time (user + system, all threads) from `getrusage`.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two timevals
/// followed by fourteen `long` counters this harness does not read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn timeval(t: &Timeval) -> Duration {
    Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000)
}

/// User + system CPU time consumed by the whole process so far. Catches
/// work moved onto other threads and the system time of thread spawns,
/// neither of which the wall clock of the calling thread shows.
pub fn process_cpu() -> Duration {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // Linux LP64 ABI defines, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    timeval(&ru.ru_utime) + timeval(&ru.ru_stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_cpu();
        let mut x = 1u64;
        // Spin until the CPU clock has visibly moved (bounded).
        for i in 0..2_000_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            if i % 4_000_000 == 0 && process_cpu() > t0 + Duration::from_millis(5) {
                break;
            }
        }
        assert!(process_cpu() > t0);
    }
}
