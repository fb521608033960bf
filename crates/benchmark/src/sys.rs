//! Nanosecond-resolution CPU clocks and peak memory, straight from the
//! kernel.
//!
//! `/proc/self/stat` counts CPU time in scheduler ticks (10 ms): over a
//! one-second slice that is a ±1 % quantisation on top of whatever the
//! box adds, and it cannot separate threads. `clock_gettime` on the
//! process and thread CPU-time clocks reads the scheduler's own
//! nanosecond accounting instead.

/// `struct timespec` on 64-bit Linux: `time_t` and `long` are both 64 bit.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clk_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the
    // 64-bit Linux ABI expects, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clk_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clk_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process so far, ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Lets the calling thread's sleeps end within about `ns` of when they
/// were asked to (the default slack is 50 µs — as long as the gaps the
/// paced sender has to sleep through). Best effort: a kernel that
/// refuses leaves the default in place, and the sender reports how late
/// it ran either way.
pub fn set_thread_timer_slack_ns(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's scheduling parameters.
    unsafe { prctl(PR_SET_TIMERSLACK, ns) };
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM` row:
/// the benchmark has no other source for the metric.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM row in /proc/self/status");
    kb * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn spin(wall: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < wall {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn cpu_clocks_are_monotone() {
        let (mut p, mut t) = (process_cpu_ns(), thread_cpu_ns());
        for _ in 0..1000 {
            let (p2, t2) = (process_cpu_ns(), thread_cpu_ns());
            assert!(p2 >= p && t2 >= t);
            (p, t) = (p2, t2);
        }
    }

    #[test]
    fn thread_clock_never_leads_the_process_clock() {
        spin(Duration::from_millis(5));
        let t = thread_cpu_ns();
        let p = process_cpu_ns();
        assert!(t <= p, "thread {t} ns > process {p} ns");
    }

    #[test]
    fn fifty_ms_of_thread_cpu_is_fifty_ms() {
        // Spin until the thread clock has advanced 50 ms. However many
        // other tests share the cores, CPU time cannot outrun wall time,
        // and a thread that only spins gets its 50 ms within seconds —
        // a clock in the wrong unit fails one side or the other. (Asking
        // the other way round, "a 50 ms wall spin reads ≥ 45 ms", is
        // only true on an idle machine.)
        let (wall, t0, p0) = (Instant::now(), thread_cpu_ns(), process_cpu_ns());
        let mut smallest_step = u64::MAX;
        let mut last = t0;
        while last - t0 < 50_000_000 {
            let now = thread_cpu_ns();
            if now > last {
                smallest_step = smallest_step.min(now - last);
            }
            last = now;
        }
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        assert!(
            (50.0..5_000.0).contains(&wall_ms),
            "50 ms of CPU in {wall_ms} ms of wall"
        );
        assert!(process_cpu_ns() - p0 >= last - t0);
        // Nanosecond accounting, not 10 ms scheduler ticks.
        assert!(smallest_step < 100_000, "clock steps by {smallest_step} ns");
    }

    #[test]
    fn peak_rss_is_positive_and_grows_with_a_big_allocation() {
        let before = peak_rss_mb();
        assert!(before > 0.0);
        let big = vec![1u8; 64 << 20];
        assert!(big.iter().map(|&b| b as u64).sum::<u64>() > 0);
        assert!(peak_rss_mb() >= before + 32.0);
    }
}
