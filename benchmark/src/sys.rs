//! What the kernel reports about this process: CPU time, peak memory and
//! the provenance every result file carries.

use std::process::Command;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn thread_cpu_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds of user + system time of the whole process, every thread
/// included. `/proc/self/stat` counts in clock ticks of 1/100 s.
pub fn process_cpu_ns() -> u64 {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Lets the main thread, which must be the caller, and so every thread it
/// spawns from now on, run on the CPUs of `list` only (`0-1`, `1`, …).
/// `taskset` from util-linux makes the system call.
pub fn allow_cpus(list: &str) -> Result<(), String> {
    let pid = std::process::id().to_string();
    let done = Command::new("taskset")
        .args(["-cp", list, &pid])
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if done.status.success() {
        Ok(())
    } else {
        Err(format!(
            "taskset: {}",
            String::from_utf8_lossy(&done.stderr).trim()
        ))
    }
}

/// Pins the main thread to the last CPU it may run on. Returns that CPU
/// and the list it was allowed before, for [`allow_cpus`] to restore.
pub fn pin_to_one_cpu() -> Result<(usize, String), String> {
    let status = read("/proc/self/status");
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(str::trim)
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let cpu = allowed
        .rsplit([',', '-'])
        .next()
        .and_then(|last| last.parse::<usize>().ok())
        .ok_or(format!("cannot read a CPU out of {allowed}"))?;
    allow_cpus(&cpu.to_string())?;
    Ok((cpu, allowed.to_string()))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a result was measured.
pub struct Host {
    pub git_commit: String,
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            // The driver's checkout is not a git repository: "unknown" there.
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
            rustc: command_line("rustc", &["-V"]),
        }
    }
}
