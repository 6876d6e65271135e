//! What the result file records about the machine and the build, so that two result
//! files made months apart can be compared honestly.

use crate::api::Json;
use std::process::Command;

/// The build profile of `benchmark/Cargo.toml`, which copies the root manifest's.
const PROFILE: &str = "release: opt-level=3 lto=thin codegen-units=1";

fn status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    Some(
        line[field.len()..]
            .trim_start_matches(':')
            .trim()
            .to_string(),
    )
}

/// Peak resident set of this process so far (`VmHWM`), in MB; 0.0 where `/proc` is
/// not readable.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The scheduling policy number of this process (`0` normal, `3` batch), as
/// `/proc/self/sched` prints it.
fn sched_policy() -> String {
    std::fs::read_to_string("/proc/self/sched")
        .ok()
        .and_then(|sched| {
            let line = sched.lines().find(|l| l.starts_with("policy"))?;
            Some(line.rsplit(':').next()?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn describe() -> Json {
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| "unreadable".to_string(), |g| g.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Json::U64(nproc as u64)),
        // `run.sh` pins the process to one CPU; this is the set it actually ran on.
        (
            "cpus_allowed",
            Json::str(status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())),
        ),
        // ... under `SCHED_BATCH` (3), which `run.sh` also sets.
        ("sched_policy", Json::str(sched_policy())),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("profile", Json::str(PROFILE)),
        ("cpu_governor", Json::str(governor)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}
