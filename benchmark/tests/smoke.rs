//! Smoke test: every workload runs end to end at `--scale tiny`, untraced and traced,
//! and emits exactly the metric names `BENCHMARK.json` lists, with its units.

use std::collections::BTreeMap;
use std::process::Command;
use tailbench_experiment::json::{parse, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload and returns `name -> unit` from the last line it prints.
fn emitted(workload: &str, trace: &str) -> BTreeMap<String, String> {
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/smoke-out");
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--scale", "tiny", "--seed", "11"])
        .args(["--trace", trace, "--out", out_dir])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    assert!(
        stdout.contains("NOT REPORTABLE"),
        "tiny runs must say they are not results"
    );
    let line = parse(stdout.lines().last().expect("a last line")).expect("the last line is JSON");
    let Json::Obj(fields) = &line else {
        panic!("the last line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert!(line
        .get("attempted")
        .and_then(Json::as_u64)
        .is_some_and(|n| n >= 1));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, body)| {
            let value = body
                .get("value")
                .and_then(Json::as_f64)
                .expect("a numeric value");
            assert!(value.is_finite(), "{workload}/{name} is {value}");
            let unit = body.get("unit").and_then(Json::as_str).expect("a unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn is_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn every_workload_emits_the_listed_metrics() {
    let doc = benchmark_json();
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    assert!(end_to_end
        .keys()
        .chain(per_layer.keys())
        .all(|n| is_name(n)));
    assert!(per_layer.len() <= 128);
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), 6);
    for workload in workloads {
        let name = workload
            .get("name")
            .and_then(Json::as_str)
            .expect("a workload name");
        assert!(is_name(name));
        assert_eq!(emitted(name, "0"), end_to_end, "{name}, untraced");
        assert_eq!(emitted(name, "1"), per_layer, "{name}, traced");
        let trace_path = format!(
            "{}/smoke-out/trace-{name}.json",
            env!("CARGO_TARGET_TMPDIR")
        );
        let trace =
            parse(&std::fs::read_to_string(&trace_path).expect("a trace file")).expect("it parses");
        assert!(trace
            .get("spans")
            .and_then(Json::as_array)
            .is_some_and(|s| !s.is_empty()));
    }
}
