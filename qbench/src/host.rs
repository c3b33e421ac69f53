//! Facts about the host and this process: what ROADMAP asks to be recorded
//! next to every number, plus the CPU clock and peak memory of the process.

use std::process::Command;

use crate::json::{obj, Value};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker threads a run uses unless `--workers` says otherwise.
pub fn default_workers() -> usize {
    nproc().min(4)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `host` object of `results.json`.
pub fn facts(workers: usize, seed: u64) -> Value {
    obj([
        ("nproc", nproc().into()),
        ("cpu_model", cpu_model().into()),
        ("rustc", first_line_of("rustc", &["-V"]).into()),
        (
            "commit",
            first_line_of("git", &["rev-parse", "HEAD"]).into(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("workers", workers.into()),
        ("seed", seed.into()),
    ])
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock id for the CPU time of the whole process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds this process has consumed, all threads that
/// ever ran included. The same quantity as `utime + stime` in
/// `/proc/self/stat`, but in nanoseconds instead of 10 ms ticks: a pass of
/// a second or two needs the resolution.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target, which is all this benchmark reads /proc
    // on), and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 when unreadable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_seconds() > before, "cpu clock did not move ({x})");
    }

    #[test]
    fn host_facts_name_every_field() {
        let f = facts(2, 0x9000);
        for key in [
            "nproc",
            "cpu_model",
            "rustc",
            "commit",
            "profile",
            "workers",
            "seed",
        ] {
            assert!(f.get(key).is_some(), "missing {key}");
        }
        assert!(peak_rss_mib() > 0.0);
    }
}
