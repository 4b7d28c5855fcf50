//! Process counters: CPU time and peak resident set from `/proc/self`,
//! context switches from `getrusage`. Each workload runs in its own
//! process, so these are the workload's own.

use std::time::Duration;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User plus system CPU of every thread, exited ones included, in
    /// seconds.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`), kB.
    pub hwm_kb: u64,
    /// Current resident set (`VmRSS`), kB.
    pub rss_kb: u64,
    /// Voluntary plus involuntary context switches of every thread,
    /// exited ones included.
    pub ctx_switches: u64,
}

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: field 3 (state) is index 0, so utime (field 14)
    // is index 11 and stime (field 15) index 12.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// `(VmHWM kB, VmRSS kB)` from the text of `/proc/<pid>/status`.
pub fn parse_status(text: &str) -> Option<(u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        let line = text.lines().find(|l| l.starts_with(key))?;
        line[key.len()..]
            .trim_start_matches(':')
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    };
    Some((field("VmHWM")?, field("VmRSS")?))
}

/// Steal time, in clock ticks, from the text of `/proc/stat`: time the
/// hypervisor ran something else while this machine's CPUs wanted to
/// run. Reported with each result as a measure of host noise.
pub fn parse_steal(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Machine-wide steal seconds so far.
pub fn steal_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    Some(parse_steal(&text)? as f64 / clock_ticks_per_s())
}

fn clock_ticks_per_s() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes an integer selector and touches no caller
    // memory; std already links the C library that defines it.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Context switches of the whole process from `getrusage`:
/// `/proc/self/status` counts only the main thread, and the program's
/// worker threads come and go.
fn rusage_ctx_switches() -> Option<u64> {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 longs), then 14
    // longs ending in `ru_nvcsw`, `ru_nivcsw`.
    const LONGS: usize = 18;
    const RUSAGE_SELF: i32 = 0;
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; LONGS]) -> i32;
    }
    let mut usage = [0i64; LONGS];
    // SAFETY: `usage` is a writable buffer of the size and alignment of
    // `struct rusage` on 64-bit Linux, the only layout the call fills.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    let count = |v: i64| u64::try_from(v).ok();
    (rc == 0).then(|| Some(count(usage[16])? + count(usage[17])?))?
}

/// Reads the counters now.
///
/// # Errors
///
/// When `/proc/self` is missing or unparseable.
pub fn sample() -> Result<ProcSample, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (utime, stime) =
        parse_stat(&read("/proc/self/stat")?).ok_or("unparseable /proc/self/stat")?;
    let (hwm_kb, rss_kb) =
        parse_status(&read("/proc/self/status")?).ok_or("unparseable /proc/self/status")?;
    Ok(ProcSample {
        cpu_s: (utime + stime) as f64 / clock_ticks_per_s(),
        hwm_kb,
        rss_kb,
        ctx_switches: rusage_ctx_switches().ok_or("getrusage failed")?,
    })
}

/// CPU seconds and context switches spent between two samples.
pub fn delta(before: &ProcSample, after: &ProcSample) -> (Duration, u64) {
    (
        Duration::from_secs_f64((after.cpu_s - before.cpu_s).max(0.0)),
        after.ctx_switches.saturating_sub(before.ctx_switches),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                        731 219 0 0 20 0 3 0 55 123456789 2048 18446744073709551615";

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  210000 kB\nVmHWM:\t   77312 kB\n\
                          VmRSS:\t   60124 kB\nThreads:\t3\n\
                          voluntary_ctxt_switches:\t15020\nnonvoluntary_ctxt_switches:\t311\n";

    #[test]
    fn stat_reads_utime_and_stime_past_a_tricky_name() {
        assert_eq!(parse_stat(STAT), Some((731, 219)));
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_reads_peak_and_current_rss() {
        assert_eq!(parse_status(STATUS), Some((77_312, 60_124)));
        assert_eq!(parse_status("VmHWM:\t 1 kB\n"), None);
    }

    #[test]
    fn stat_reads_the_steal_column() {
        let text = "cpu  357363 0 20873 355171 420 0 230 5790 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(text), Some(5790));
        assert_eq!(parse_steal("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn live_sample_is_sane() {
        let a = sample().unwrap();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        // A thread that blocks and exits still counts its switches.
        std::thread::spawn(|| std::thread::sleep(std::time::Duration::from_millis(5)))
            .join()
            .unwrap();
        let b = sample().unwrap();
        assert!(b.cpu_s >= a.cpu_s);
        assert!(b.hwm_kb >= b.rss_kb && b.hwm_kb > 0);
        let (cpu, switches) = delta(&a, &b);
        assert!(cpu.as_secs_f64() >= 0.0);
        assert!(switches >= 1, "{a:?} {b:?}");
    }
}
