//! Process counters read from `/proc/self`: peak resident memory,
//! minor page faults and CPU time of the whole process (every thread).

/// `VmHWM` (peak resident set) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Fields of `/proc/self/stat` after the command name, so index 0 is
/// field 3 (`state`, read as 0) of proc(5).
fn stat_fields() -> Vec<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let tail = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
    tail.split_whitespace().map(|f| f.parse().unwrap_or(0)).collect()
}

/// Minor page faults so far (`minflt`, field 10).
fn minor_faults() -> u64 {
    stat_fields()[7]
}

/// User plus system CPU milliseconds so far (`utime` + `stime`, fields
/// 14 and 15, in the kernel's fixed 100 Hz `USER_HZ` ticks).
fn cpu_ms() -> f64 {
    let f = stat_fields();
    (f[11] + f[12]) as f64 * 10.0
}

/// One sample of the process counters, for per-op deltas.
#[derive(Clone, Copy)]
pub struct ProcSample {
    minor_faults: u64,
    cpu_ms: f64,
}

impl ProcSample {
    pub fn now() -> ProcSample {
        ProcSample { minor_faults: minor_faults(), cpu_ms: cpu_ms() }
    }

    /// `(minor faults, CPU ms)` since `self`.
    pub fn since(self) -> (f64, f64) {
        let now = ProcSample::now();
        ((now.minor_faults - self.minor_faults) as f64, now.cpu_ms - self.cpu_ms)
    }
}
