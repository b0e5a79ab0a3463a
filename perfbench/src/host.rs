//! Host time of this process, as the scheduler accounts it.
//!
//! The benchmark shares a small machine with other processes. Wall-clock
//! time also counts the slices the scheduler hands to them, which moved
//! the same run by ±10 % from one minute to the next; on-CPU time of this
//! single-threaded process does not. Host-time metrics therefore read the
//! process CPU clock (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution),
//! and report the time spent waiting for a CPU beside them. Where that
//! clock is unavailable they fall back to wall-clock time.

use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_s() -> Option<f64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux, and `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_s() -> Option<f64> {
    None
}

/// Host seconds this process has run so far.
pub fn cpu_s() -> f64 {
    process_cpu_s().unwrap_or_else(|| ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64())
}

/// Seconds this process has waited for a CPU so far, from the second
/// field of `/proc/self/schedstat` (0 where that file is missing).
pub fn wait_s() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t = cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let dt = cpu_s() - t;
        assert!(dt > 0.0 && dt < 10.0, "{dt}");
    }
}
