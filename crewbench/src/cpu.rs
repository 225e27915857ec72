//! CPU time of the calling thread.
//!
//! The benchmark's timings are taken on this clock, not on the wall
//! clock. On a shared host the vCPU is withheld for stretches the guest
//! kernel accounts as steal time, and other processes may preempt the
//! thread; wall time counts both, CPU time neither. Throughput per CPU
//! second is what the program does with the processor it gets.

use std::time::Duration;

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User plus system time this thread has run so far.
fn thread_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // the clock id is one the C library defines; the call writes nothing
    // else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Runs `f` and returns its value with the thread CPU time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = thread_time();
    let value = f();
    (value, thread_time().saturating_sub(started))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_time_advances_with_work_and_not_with_sleep() {
        let (_, busy) = timed(|| {
            (0..20_000_000u64).fold(0u64, |a, b| std::hint::black_box(a ^ b.wrapping_mul(31)))
        });
        assert!(busy > Duration::ZERO);
        let ((), idle) = timed(|| std::thread::sleep(Duration::from_millis(50)));
        assert!(
            idle < Duration::from_millis(25),
            "sleep ran {idle:?} of CPU"
        );
    }
}
