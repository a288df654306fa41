//! Process CPU time and peak resident set, read from `/proc/self`.

/// Kernel clock ticks per second. `USER_HZ` is 100 on every Linux
/// architecture this repository builds for, and `/proc` reports in it.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has used so far (0.0 when
/// `/proc/self/stat` cannot be read).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    parse_cpu_ticks(&stat).map_or(0.0, |t| t as f64 / TICKS_PER_SECOND)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name
/// (field 2) may contain spaces and parentheses, so fields are counted
/// from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0.0 when
/// `/proc/self/status` cannot be read.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next()?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_and_status_lines() {
        let stat = "4242 (cheetah ledger) x) S 1 2 3 4 5 6 7 8 9 10 321 45 0 0 20 0 9 0";
        assert_eq!(parse_cpu_ticks(stat), Some(366));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn live_readings_are_positive_and_monotone() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= a);
        assert!(peak_rss_mb() > 0.0);
    }
}
