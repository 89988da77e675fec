//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, and the stamps that identify a run.

use std::process::Command;
use std::time::Instant;

use crate::json::Value;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed so far by every thread of this process,
/// exited ones included, in seconds. `/proc/self/stat` carries the same
/// figure in 10 ms ticks, too coarse for a 100 ms decode pass.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A value with the wall and process-CPU time it took to produce.
#[derive(Debug)]
pub struct Timed<T> {
    pub secs: f64,
    pub cpu: f64,
    pub value: T,
}

pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let cpu = process_cpu_secs();
    let start = Instant::now();
    let value = f();
    Timed {
        secs: start.elapsed().as_secs_f64(),
        cpu: process_cpu_secs() - cpu,
        value,
    }
}

/// `VmHWM` of this process in MiB: the most physical memory it ever held.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Drops every `INSPECTOR_*` variable from this process's environment, so a
/// knob left over in the caller's shell cannot reach a session. Call before
/// any thread is spawned.
pub fn scrub_inspector_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("INSPECTOR_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// Where and how a result was produced.
pub fn stamps(seed: u64, seconds: f64) -> Vec<(String, Value)> {
    vec![
        ("nproc".into(), Value::Num(nproc() as f64)),
        ("rustc".into(), Value::Str(first_line_of("rustc", &["-V"]))),
        (
            "git_commit".into(),
            Value::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_secs();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_secs() > before);
        assert!(peak_rss_mib() > 1.0);
        assert!(nproc() >= 1);
    }
}
