//! Process-level measurements and order statistics.
//!
//! Everything here reads a clock or `/proc`; nothing is sampled by a helper
//! thread, so the measured engines see no interference from the benchmark.

use std::fs;
use std::process::Command;

use serde_json::{json, Value};

/// `USER_HZ`: the unit of the times in `/proc/stat`. It is a kernel ABI
/// constant (100 on every Linux port), not the scheduler tick.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    /// `clock_gettime(2)` of the C library every Rust program on Linux
    /// already links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time (user + system, every thread alive or already joined) this
/// process has consumed, in milliseconds, at the scheduler's nanosecond
/// resolution: `/proc/self/stat` counts in 10 ms ticks, a third of the
/// shortest migration measured here.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`, all the call touches.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Time the hypervisor ran something else while a virtual CPU of this
/// machine was runnable (`steal` of `/proc/stat`, summed over CPUs) since
/// boot, in milliseconds.
pub fn steal_ms() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal: f64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    steal * 1000.0 / CLOCK_TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between
/// closest ranks. Returns 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean of `values` (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn first_line(path: &str) -> String {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default()
}

/// What the numbers were measured on: how many CPUs the machine has and
/// which ones the workload ran on, CPU model, kernel, compiler and the
/// load average sampled when the process started.
pub fn machine_descriptor(cpus: &[usize], loadavg_at_start: &str) -> Value {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_default();
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    json!({
        "nproc": nproc,
        "cpus": cpus,
        "cpu_model": cpu_model,
        "kernel": first_line("/proc/sys/kernel/osrelease"),
        "rustc": rustc,
        "loadavg_at_start": loadavg_at_start,
    })
}

/// `/proc/loadavg`, read once at process start.
pub fn loadavg() -> String {
    first_line("/proc/loadavg")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
