//! Process counters and host facts read from `/proc` (Linux only — the
//! benchmark's CPU, memory and fault metrics have no portable source).

use std::fs;

/// Kernel `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`.
/// Fixed at 100 on every Linux architecture this benchmark runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// Process-wide counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSnapshot {
    pub user_ms: f64,
    pub sys_ms: f64,
    pub minor_faults: u64,
    pub threads: u64,
    /// Voluntary + involuntary context switches summed over live threads.
    pub ctx_switches: u64,
    /// All CPUs' ticks of every kind since boot (the aggregate `cpu` line
    /// of `/proc/stat`), and those of them the hypervisor gave to other
    /// guests while this one wanted to run.
    pub host_ticks: u64,
    pub host_steal_ticks: u64,
}

impl ProcSnapshot {
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let mut snap = parse_stat(&stat).unwrap_or_default();
        // user, nice, system, idle, iowait, irq, softirq, steal, ...
        let host = fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks = host.lines().next().unwrap_or_default().split_whitespace();
        let ticks: Vec<u64> = ticks.skip(1).filter_map(|v| v.parse().ok()).collect();
        snap.host_ticks = ticks.iter().sum();
        snap.host_steal_ticks = ticks.get(7).copied().unwrap_or(0);
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
                snap.ctx_switches += status_field(&status, "voluntary_ctxt_switches")
                    + status_field(&status, "nonvoluntary_ctxt_switches");
            }
        }
        snap
    }

    pub fn cpu_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }

    /// Share of the host's CPU time since `earlier` that went to other
    /// guests: how far to trust what was measured in between.
    pub fn steal_share_since(&self, earlier: &ProcSnapshot) -> f64 {
        let ticks = self.host_ticks.saturating_sub(earlier.host_ticks).max(1);
        self.host_steal_ticks
            .saturating_sub(earlier.host_steal_ticks) as f64
            / ticks as f64
    }
}

/// Fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself contain spaces), numbered as in proc(5).
fn parse_stat(stat: &str) -> Option<ProcSnapshot> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state).
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcSnapshot {
        minor_faults: field(10)?,
        user_ms: field(14)? as f64 * 1000.0 / TICKS_PER_SEC,
        sys_ms: field(15)? as f64 * 1000.0 / TICKS_PER_SEC,
        threads: field(20)?,
        ctx_switches: 0,
        host_ticks: 0,
        host_steal_ticks: 0,
    })
}

/// Numeric value of a `Key:   123 kB`-style line of a `/proc` status file.
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM") as f64 / 1024.0
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name")?.split_once(':'))
        .map_or_else(
            || "unknown".to_string(),
            |(_, model)| model.trim().to_string(),
        )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_spaces_in_the_command_name() {
        let stat = "4242 (e2e (worker) x) S 1 2 3 4 5 6 1234 0 0 0 150 50 0 0 20 0 7 0 99";
        let snap = parse_stat(stat).expect("well-formed stat line");
        assert_eq!(snap.minor_faults, 1234);
        assert_eq!(snap.user_ms, 1500.0);
        assert_eq!(snap.sys_ms, 500.0);
        assert_eq!(snap.threads, 7);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\te2e\nVmHWM:\t  204800 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(status_field(status, "VmHWM"), 204_800);
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), 12);
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), 0);
    }

    #[test]
    fn live_snapshot_reads_this_process() {
        let snap = ProcSnapshot::now();
        assert!(snap.threads >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
