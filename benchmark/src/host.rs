//! Host-side readings: process CPU time and peak memory from `/proc`, and
//! the host block that makes a noisy set of runs identifiable afterwards.

use serde_json::Value;
use std::process::Command;

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux this runs on; `/proc` gives
/// no way to read it and the crate links no libc.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, threads that ended included.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, i.e. the 12th and 13th after the name.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLK_TCK
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `/proc/loadavg`, verbatim.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// nproc, rustc, build profile, git revision and dirty flag, load average
/// at start and end.  Everything is best-effort: the driver's checkout is
/// not a git repository.
pub fn host_block(loadavg_start: &str) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_rev = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let git_dirty =
        command_line("git", &["status", "--porcelain"]).map(|s| Value::Bool(!s.is_empty()));
    Value::Object(vec![
        ("git_dirty".into(), git_dirty.unwrap_or(Value::Null)),
        ("git_rev".into(), git_rev.map_or(Value::Null, Value::Str)),
        ("loadavg_end".into(), Value::Str(loadavg())),
        ("loadavg_start".into(), Value::Str(loadavg_start.into())),
        ("nproc".into(), Value::UInt(nproc as u64)),
        (
            "profile".into(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "rustc".into(),
            command_line("rustc", &["--version"]).map_or(Value::Null, Value::Str),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_on_linux() {
        // Burn a little CPU so utime is non-zero at 10 ms resolution.
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert_eq!(loadavg().split_whitespace().count(), 5);
    }
}
