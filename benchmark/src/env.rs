//! The machine side of a run: CPU confinement, `/proc` readings and the
//! environment block stamped into result files.

use std::process::Command;

/// CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (`0-1`, `0,2-3`, …). Empty when unreadable.
pub fn allowed_cpus() -> Vec<usize> {
    let Some(list) = proc_status_field("Cpus_allowed_list:") else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Bits in the kernel's `cpu_set_t`.
const CPU_SET_BITS: usize = 1024;

extern "C" {
    /// `sched_setaffinity(2)` from the C library `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this thread — and every thread it starts afterwards, the
/// daemon's included — to the last CPU it may run on, and returns that
/// CPU.
///
/// The same seeded serving run flips between ~34k and ~9k requests/s
/// depending on where the scheduler lands the client, worker and apply
/// threads; on one CPU it repeats. Call it before any thread exists.
/// Returns `None` — the run goes ahead unpinned and says so — when the
/// allowed set is unreadable or the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = allowed_cpus()
        .last()
        .copied()
        .filter(|&c| c < CPU_SET_BITS)?;
    let mut mask = [0u64; CPU_SET_BITS / 64];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes, the
    // size passed; the kernel only reads it. Pid 0 is the caller.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

fn proc_status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of this process (all threads), from
/// `/proc/self/stat` fields 14 and 15 at the kernel's fixed USER_HZ of
/// 100.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; count from its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `"key": value` pairs describing where a result file was measured.
pub fn environment(pinned_cpu: Option<usize>) -> Vec<(&'static str, String)> {
    let quoted = |s: String| format!("\"{}\"", s.replace('"', "'"));
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "pinned_cpu",
            pinned_cpu.map_or("null".to_string(), |c| c.to_string()),
        ),
        (
            "profile",
            quoted(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        (
            "commit",
            quoted(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", quoted(command_line("rustc", &["--version"]))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mb() > 1.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }
}
