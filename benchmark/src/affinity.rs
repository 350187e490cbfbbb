//! CPU affinity: every workload runs on a stated number of CPUs.
//!
//! The count belongs to the workload (see `metrics::WORKLOADS`), like its
//! image or its link. It is applied in this process before anything is
//! measured, so every thread the engines spawn inherits it. Where it cannot
//! be applied the run fails: numbers taken on other CPUs do not compare.

use std::io;

extern "C" {
    /// `sched_setaffinity(2)` of the C library every Rust program on Linux
    /// already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Bits of the kernel's `cpu_set_t`.
const CPU_SET_BITS: usize = 1024;

/// The CPUs the calling thread may run on, from `Cpus_allowed_list`
/// (`0-1`, `0,2-3`, ...).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    parse_cpu_list(list)
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// Restrict the calling thread, and every thread spawned from it
/// afterwards, to the last `count` CPUs it is allowed on (the first CPU
/// takes most interrupts). Returns the CPUs chosen.
pub fn restrict_to(count: usize) -> Result<Vec<usize>, String> {
    let allowed = allowed_cpus();
    if count == 0 || allowed.len() < count {
        return Err(format!(
            "the workload runs on {count} CPUs, this process is allowed {}",
            allowed.len()
        ));
    }
    let chosen = allowed[allowed.len() - count..].to_vec();
    let mut mask = [0u64; CPU_SET_BITS / 64];
    for &cpu in &chosen {
        if cpu >= CPU_SET_BITS {
            return Err(format!("CPU {cpu} does not fit an affinity mask"));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live array of exactly `size_of_val(&mask)` bytes,
    // which is all the call reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity to CPUs {chosen:?}: {}",
            io::Error::last_os_error()
        ));
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-4"), [0, 2, 3, 4]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn one_cpu_is_always_available() {
        let chosen = restrict_to(1).expect("one CPU");
        assert_eq!(allowed_cpus(), chosen);
        assert!(restrict_to(CPU_SET_BITS + 1).is_err());
    }
}
