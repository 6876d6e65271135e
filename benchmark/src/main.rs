//! The repo benchmark.  `benchmark/run.sh` builds this binary and runs it pinned to
//! one CPU under `SCHED_BATCH`; `README.md` beside it says what is measured and why.
//!
//! ```text
//! benchmark [trace] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale tiny] [--json PATH] [--out DIR]
//! benchmark compare A.json B.json
//! ```
//!
//! With `--workload` the workload runs in this process and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! Without it every workload runs in a process of its own, so set-up time and peak
//! memory are per workload.

mod api;
mod compare;
mod env;
mod probes;
mod stats;
mod trace;
mod workloads;

use api::Json;
use stats::Metric;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Options, Outcome, Scale, Workload, WORKLOADS};

/// The seed of the recorded baseline; any other is an argument away.
const DEFAULT_SEED: u64 = 0x601D;
const DEFAULT_SECONDS: f64 = 20.0;
/// `--scale tiny` runs three windows per workload and stops.
const TINY_SECONDS: f64 = 0.3;

struct Args {
    workload: Option<String>,
    traced: bool,
    json: Option<PathBuf>,
    out: PathBuf,
    options: Options,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        traced: false,
        json: None,
        out: PathBuf::from("target/benchmark/out"),
        options: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            scale: Scale::Full,
        },
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "trace" {
            parsed.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = || format!("{arg}: cannot use {value:?}");
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.options.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                seconds = Some(value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?);
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                parsed.options.scale = match value.as_str() {
                    "tiny" => Scale::Tiny,
                    "full" => Scale::Full,
                    _ => return Err(bad()),
                }
            }
            "--json" => parsed.json = Some(PathBuf::from(value)),
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    parsed.options.seconds = seconds.unwrap_or(match parsed.options.scale {
        Scale::Full => DEFAULT_SECONDS,
        Scale::Tiny => TINY_SECONDS,
    });
    Ok(parsed)
}

fn metric_json(metric: &Metric) -> Json {
    let mut pairs = vec![
        ("value", Json::F64(metric.value)),
        ("unit", Json::str(metric.unit)),
        ("n", Json::U64(metric.samples.len() as u64)),
        (
            "samples",
            Json::Arr(metric.samples.iter().map(|&s| Json::F64(s)).collect()),
        ),
    ];
    if let Some([q1, _, q3]) = stats::quartiles(&metric.samples) {
        pairs.push(("q1", Json::F64(q1)));
        pairs.push(("q3", Json::F64(q3)));
    }
    if let Some(dist) = metric.dist {
        pairs.push(("batches", Json::U64(dist.n as u64)));
        pairs.push(("min", Json::F64(dist.min)));
        pairs.push(("p95", Json::F64(dist.p95)));
    }
    Json::obj(pairs)
}

fn workload_json(outcome: &Outcome) -> Json {
    Json::obj(vec![
        ("name", Json::str(outcome.workload)),
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        (
            "failures",
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::str(f.clone()))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), metric_json(m)))
                    .collect(),
            ),
        ),
    ])
}

/// The result file: what ran, on what, and every repeat behind every figure.
fn result_doc(args: &Args, workloads: Vec<Json>) -> Json {
    Json::obj(vec![
        ("schema", Json::U64(1)),
        // `--scale tiny` exists to smoke-test the code; its numbers are not results.
        ("reportable", Json::Bool(args.options.scale == Scale::Full)),
        ("traced", Json::Bool(args.traced)),
        ("seed", Json::U64(args.options.seed)),
        ("seconds", Json::F64(args.options.seconds)),
        ("env", env::describe()),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_outcome(wl: &Workload, outcome: &Outcome, args: &Args) {
    let kind = if outcome.traced {
        "per-layer (traced)"
    } else {
        "end-to-end (untraced)"
    };
    println!(
        "workload {} — {kind}, seed {:#x}",
        outcome.workload, args.options.seed
    );
    println!("  why: {}", wl.why);
    if args.options.scale == Scale::Tiny {
        println!("NOT REPORTABLE: --scale tiny is a smoke run of the code, not a measurement");
    }
    for m in &outcome.metrics {
        let detail = match m.dist {
            Some(d) => format!("min {:.4} p95 {:.4} over {} batches", d.min, d.p95, d.n),
            None => format!("n={}", m.samples.len()),
        };
        println!("  {:<40} {:>16.4} {:<6} {detail}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "  attempted {} failed {} checks {}",
        outcome.attempted,
        outcome.failed,
        if outcome.failures.is_empty() {
            "ok"
        } else {
            "FAILED"
        }
    );
    for failure in &outcome.failures {
        println!("  check failed: {failure}");
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`, `metrics`.
fn contract_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let body = Json::obj(vec![
                ("value", Json::F64(m.value)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.to_string(), body)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_text()
}

fn run_one(wl: &'static Workload, args: &Args) -> Result<bool, String> {
    let outcome = if args.traced {
        workloads::run_traced(wl, args.options)
    } else {
        workloads::run_untraced(wl, args.options)
    };
    print_outcome(wl, &outcome, args);
    if outcome.traced {
        let path = args.out.join(format!("trace-{}.json", wl.name));
        write_file(&path, &outcome.recorder.to_json().to_text())?;
        println!("  spans written to {}", path.display());
    }
    if let Some(path) = &args.json {
        let doc = result_doc(args, vec![workload_json(&outcome)]);
        write_file(path, &doc.to_text_pretty())?;
    }
    println!("{}", contract_line(&outcome));
    Ok(outcome.failures.is_empty())
}

/// Runs every workload in a process of its own and merges their result files.
fn run_all(args: &Args, raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut all_ok = true;
    let mut merged = Vec::new();
    let mut summary = Vec::new();
    for wl in &WORKLOADS {
        let part = args.out.join(format!("result-{}.json", wl.name));
        let status = Command::new(&exe)
            .args(raw)
            .args(["--workload", wl.name, "--json"])
            .arg(&part)
            .status()
            .map_err(|e| format!("cannot run {}: {e}", wl.name))?;
        all_ok &= status.success();
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        let doc = api::parse_json(&text).map_err(|e| format!("{}: {e}", part.display()))?;
        for workload in doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap_or_default()
        {
            if let Some(Json::Obj(metrics)) = workload.get("metrics") {
                for (name, body) in metrics {
                    summary.push(format!(
                        "{:<20} {:<40} {:>16.4} {:<6} n={}",
                        wl.name,
                        name,
                        body.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                        body.get("unit").and_then(Json::as_str).unwrap_or("?"),
                        body.get("n").and_then(Json::as_u64).unwrap_or(0),
                    ));
                }
            }
            merged.push(workload.clone());
        }
        println!();
    }
    println!("summary");
    summary.iter().for_each(|line| println!("{line}"));
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| args.out.join("result.json"));
    write_file(&path, &result_doc(args, merged).to_text_pretty())?;
    println!("result file: {}", path.display());
    Ok(all_ok)
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        api::parse_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let worse = compare::compare(&load(a)?, &load(b)?)?;
    Ok(worse == 0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = if raw.first().is_some_and(|a| a == "compare") {
        compare_files(&raw[1..])
    } else {
        parse_args(&raw).and_then(|args| match &args.workload {
            None => run_all(&args, &raw),
            Some(name) => match workloads::find(name) {
                Some(wl) => run_one(wl, &args),
                None => Err(format!(
                    "unknown workload {name:?}; the workloads are {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                )),
            },
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
