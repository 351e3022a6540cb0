//! Process and machine counters read from `/proc` (Linux only; every
//! reader returns zeros elsewhere so the benchmark still runs).

use std::fs;

/// User + system CPU time of the whole process (threads that have exited
/// included), ns. Process-wide on purpose: a "gain" that burns the second
/// vCPU shows up here. `/proc/self/stat` holds the same sum in 10 ms
/// ticks, too coarse for a pass of a few hundred ms, so this asks libc.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and nothing else; on 64-bit Linux that struct is two
    // 64-bit signed integers, which `Timespec` reproduces with `repr(C)`,
    // and `ts` is a live, exclusively borrowed local for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_ns() -> u64 {
    0
}

/// Process-wide counters from `/proc/self/stat`.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProcStat {
    pub minflt: u64,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

impl ProcStat {
    pub fn read() -> ProcStat {
        fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    pub fn cpu_ticks(&self) -> u64 {
        self.utime_ticks + self.stime_ticks
    }
}

/// Fields 10, 14 and 15 (1-based) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces, so count from the last `)`.
fn parse_stat(line: &str) -> Option<ProcStat> {
    let rest = &line[line.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `f[0]` is field 3 (state).
    Some(ProcStat {
        minflt: f.get(7)?.parse().ok()?,
        utime_ticks: f.get(11)?.parse().ok()?,
        stime_ticks: f.get(12)?.parse().ok()?,
    })
}

fn status_field(name: &str) -> u64 {
    let Ok(s) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    s.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size, MB, since the process started or since the last
/// successful [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Resets the kernel's high-water mark to the current resident set size
/// (`echo 5 > /proc/self/clear_refs`, Linux ≥ 4.0), so that the next
/// [`peak_rss_mb`] reads the peak of what ran in between. `false` where the
/// kernel or the sandbox refuses.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Voluntary plus involuntary context switches of the main thread.
pub fn ctx_switches() -> u64 {
    status_field("voluntary_ctxt_switches") + status_field("nonvoluntary_ctxt_switches")
}

/// Machine-wide steal ticks: time the hypervisor ran someone else while a
/// vCPU of this guest was runnable.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_comm() {
        let line = "1234 (ct perf) R 1 1234 1234 0 -1 4194304 777 0 3 0 250 40 0 0 20 0 2 0 100 \
                    1000 10";
        let s = parse_stat(line).unwrap();
        assert_eq!((s.minflt, s.utime_ticks, s.stime_ticks), (777, 250, 40));
        assert_eq!(s.cpu_ticks(), 290);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = cpu_ns();
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(b > a, "{a} -> {b}");
        }
    }

    #[test]
    fn live_readers_do_not_panic() {
        let _ = ProcStat::read();
        let _ = peak_rss_mb();
        let _ = reset_peak_rss();
        let _ = ctx_switches();
        let _ = steal_ticks();
    }
}
