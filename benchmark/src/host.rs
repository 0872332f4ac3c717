//! Host facts and process counters, read from `/proc` (Linux). Where a
//! file is missing the fact reads "unknown" and the counter 0.

use std::fs;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string of the first processor.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// User + system CPU time of the whole process so far, s.
pub fn cpu_seconds() -> f64 {
    // fields 14 and 15 of /proc/self/stat, after the parenthesized name
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            // the kernel's USER_HZ is 100 on every Linux ABI
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of the process, MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Whole-machine `(busy, steal)` jiffies from `/proc/stat`: CPU time the
/// guest ran, and time a hypervisor ran someone else on its CPUs.
pub fn cpu_jiffies() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let f: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .map(|v| v.parse().unwrap_or(0))
                .collect();
            // user nice system idle iowait irq softirq steal
            Some((
                f.iter().take(7).sum::<u64>() - f.get(3)? - f.get(4)?,
                *f.get(7)?,
            ))
        })
        .unwrap_or((0, 0))
}
