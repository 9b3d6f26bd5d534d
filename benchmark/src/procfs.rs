//! Process CPU time and memory from `/proc/self`, parsed by hand (the
//! build has no libc binding to ask `getrusage`).

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux ABI this benchmark runs on; the value is part of
/// the ABI, not of the kernel's internal `HZ`.
const TICKS_PER_SEC: u64 = 100;

/// User + system CPU ticks of the whole process (all threads, including
/// threads that have already been joined) from the text of
/// `/proc/self/stat`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // Field 2 is "(comm)" and may itself contain spaces or parentheses;
    // everything after the *last* ')' is space-separated, starting at
    // field 3. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Vm*` line of `/proc/self/status` in KiB, e.g. `VmHWM` or `VmRSS`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Process CPU time so far, in nanoseconds (10 ms granularity).
pub fn cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat");
    ticks * (1_000_000_000 / TICKS_PER_SEC)
}

fn status_mib(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kib(&status, key).expect("Vm* line in /proc/self/status") as f64 / 1024.0
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// Current resident set size, in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a running process whose name holds a space and a
    // parenthesis, the case a naive split gets wrong.
    const STAT: &str = "4242 (sso bench) x) S 4100 4242 4100 34816 4242 4194304 5821 0 3 0 \
                        1234 56 0 0 20 0 3 0 8812345 1503408128 48211 18446744073709551615 \
                        1 1 0 0 0 0 0 4096 17642 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    const STATUS: &str = "Name:\tsso-benchmark\nUmask:\t0022\nState:\tR (running)\n\
                          VmPeak:\t 1468172 kB\nVmSize:\t 1468172 kB\nVmLck:\t       0 kB\n\
                          VmHWM:\t  733184 kB\nVmRSS:\t  192844 kB\nThreads:\t3\n";

    #[test]
    fn stat_cpu_ticks_skip_the_comm_field() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(1234 + 56));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn status_lines_parse_to_kib() {
        assert_eq!(parse_status_kib(STATUS, "VmHWM"), Some(733_184));
        assert_eq!(parse_status_kib(STATUS, "VmRSS"), Some(192_844));
        assert_eq!(parse_status_kib(STATUS, "VmSwap"), None);
        // "VmH" must not match "VmHWM".
        assert_eq!(parse_status_kib(STATUS, "VmH"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() >= rss_mib() * 0.99);
        assert!(rss_mib() > 0.0);
        let before = cpu_ns();
        assert!(cpu_ns() >= before);
    }
}
