//! The spec-file format, pinned byte for byte, and its decode errors.
//!
//! * Every preset at `Scale::Quick` encodes to exactly the bytes under
//!   `tests/fixtures/<preset>.quick.json`, and the committed `specs/fig9_smoke.json`
//!   decodes and re-encodes to its own bytes.  A change to a key name, key order,
//!   default omission or number format shows up here as a byte diff.
//! * Every codec'd type rejects an unknown tag, an unknown body key, a wrong-typed
//!   value and a missing required field (where the type has each), with a message that
//!   names both where the error is and the offending key or tag.

use tailbench_experiment::json::{parse, Json};
use tailbench_experiment::presets::{preset, PRESET_NAMES};
use tailbench_experiment::{ExperimentSpec, Scale};

#[test]
fn presets_encode_to_their_pinned_fixtures() {
    for name in PRESET_NAMES {
        let path = format!(
            "{}/tests/fixtures/{name}.quick.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let spec = preset(name, Scale::Quick).unwrap();
        assert_eq!(spec.to_json_string(), pinned, "{name} drifted from {path}");
        assert_eq!(
            ExperimentSpec::from_json_str(&pinned).unwrap(),
            spec,
            "{name}"
        );
    }
}

#[test]
fn committed_smoke_spec_is_canonical() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig9_smoke.json");
    let text = std::fs::read_to_string(path).unwrap();
    let spec = ExperimentSpec::from_json_str(&text).unwrap();
    assert_eq!(spec.to_json_string(), text);
}

/// A valid spec with `key` set to `value` (parsed JSON), or removed when `value` is
/// `None`.
fn spec_with(key: &str, value: Option<&str>) -> String {
    let base = r#"{
        "name": "errors", "app": "xapian", "mode": "integrated",
        "topology": {"shards": 2, "replication": 2, "fanout": "broadcast"},
        "load": {"qps": 1000.0}, "threads": 1, "requests": 10, "seed": 1
    }"#;
    let Json::Obj(mut pairs) = parse(base).unwrap() else {
        unreachable!("the base spec is an object")
    };
    pairs.retain(|(k, _)| k != key);
    if let Some(value) = value {
        pairs.push((key.to_string(), parse(value).unwrap()));
    }
    Json::Obj(pairs).to_text()
}

const SCENARIO: &str = r#"{"scenario": {"phases": [{"duration_ns": 1000, "shape": {"constant": {"qps": 1.0}}}], "warmup_fraction": 0.1}}"#;

/// The load key holding `SCENARIO` with `from` replaced by `to`.
fn scenario_with(from: &str, to: &str) -> String {
    assert!(SCENARIO.contains(from), "{from}");
    SCENARIO.replace(from, to)
}

fn fault_with(fields: &str) -> String {
    format!(r#"[{{"target": "all", "start_frac": 0.1, "end_frac": 0.2, {fields}}}]"#)
}

#[test]
fn decode_errors_name_their_context_and_key() {
    // (what the case breaks, spec text, substrings the error must contain)
    let classes = |c: &str| {
        scenario_with(
            r#""warmup_fraction""#,
            &format!(r#""classes": [{c}], "warmup_fraction""#),
        )
    };
    let cases: Vec<(&str, String, Vec<&str>)> = vec![
        // ExperimentSpec (object).
        (
            "spec key",
            spec_with("requets", Some("5")),
            vec!["spec", "'requets'"],
        ),
        (
            "spec type",
            spec_with("threads", Some(r#""two""#)),
            vec!["spec", "threads"],
        ),
        (
            "spec missing",
            spec_with("app", None),
            vec!["spec", "missing field 'app'"],
        ),
        // Scale and SeedPolicy (string tags).
        (
            "scale tag",
            spec_with("scale", Some(r#""huge""#)),
            vec!["scale", "'huge'"],
        ),
        ("scale type", spec_with("scale", Some("3")), vec!["scale"]),
        (
            "seed policy tag",
            spec_with("seed_policy", Some(r#""random""#)),
            vec!["seed_policy", "'random'"],
        ),
        // HarnessMode.
        (
            "mode tag",
            spec_with("mode", Some(r#""warp""#)),
            vec!["mode", "'warp'"],
        ),
        (
            "mode key",
            spec_with("mode", Some(r#"{"loopback": {"conns": 2}}"#)),
            vec!["mode", "'conns'"],
        ),
        (
            "mode type",
            spec_with("mode", Some(r#"{"loopback": {"connections": "8"}}"#)),
            vec!["mode", "connections"],
        ),
        (
            "mode missing",
            spec_with("mode", Some(r#"{"networked": {"connections": 8}}"#)),
            vec!["mode", "'one_way_delay_ns'"],
        ),
        // TopologySpec (object).
        (
            "topology key",
            spec_with(
                "topology",
                Some(r#"{"shards": 2, "replicas": 2, "fanout": "auto"}"#),
            ),
            vec!["topology", "'replicas'"],
        ),
        (
            "topology type",
            spec_with(
                "topology",
                Some(r#"{"shards": 2, "replication": 2, "fanout": "auto", "tied": 1}"#),
            ),
            vec!["topology", "tied"],
        ),
        (
            "topology missing",
            spec_with("topology", Some(r#"{"shards": 2, "replication": 2}"#)),
            vec!["topology", "'fanout'"],
        ),
        // Fan-out.
        (
            "fanout tag",
            spec_with(
                "topology",
                Some(r#"{"shards": 2, "replication": 2, "fanout": "round"}"#),
            ),
            vec!["fanout", "'round'"],
        ),
        (
            "fanout key",
            spec_with(
                "topology",
                Some(
                    r#"{"shards": 2, "replication": 2, "fanout": {"hash_key": {"offset": 1, "length": 8}}}"#,
                ),
            ),
            vec!["fanout", "'length'"],
        ),
        (
            "fanout type",
            spec_with(
                "topology",
                Some(
                    r#"{"shards": 2, "replication": 2, "fanout": {"partition": {"offset": -1, "len": 8}}}"#,
                ),
            ),
            vec!["fanout", "offset"],
        ),
        (
            "fanout missing",
            spec_with(
                "topology",
                Some(r#"{"shards": 2, "replication": 2, "fanout": {"hash_key": {"offset": 1}}}"#),
            ),
            vec!["fanout", "'len'"],
        ),
        // HedgeSpec.
        (
            "hedge tag",
            spec_with(
                "topology",
                Some(r#"{"shards": 2, "replication": 2, "fanout": "auto", "hedge": {"delay": 5}}"#),
            ),
            vec!["hedge", "'delay'"],
        ),
        (
            "hedge type",
            spec_with(
                "topology",
                Some(
                    r#"{"shards": 2, "replication": 2, "fanout": "auto", "hedge": {"percentile": "p95"}}"#,
                ),
            ),
            vec!["hedge", "percentile"],
        ),
        // ReplicaSelector.
        (
            "selector tag",
            spec_with(
                "topology",
                Some(r#"{"shards": 2, "replication": 2, "fanout": "auto", "selector": "random"}"#),
            ),
            vec!["selector", "'random'"],
        ),
        (
            "selector type",
            spec_with(
                "topology",
                Some(r#"{"shards": 2, "replication": 2, "fanout": "auto", "selector": 2}"#),
            ),
            vec!["selector"],
        ),
        // AdmissionPolicy.
        (
            "queue tag",
            spec_with("queue", Some(r#"{"backpressure": 1}"#)),
            vec!["queue", "'backpressure'"],
        ),
        (
            "queue key",
            spec_with(
                "queue",
                Some(r#"{"drop_deadline": {"capacity": 1, "slo": 5}}"#),
            ),
            vec!["queue", "'slo'"],
        ),
        (
            "queue type",
            spec_with("queue", Some(r#"{"drop": "many"}"#)),
            vec!["queue", "drop"],
        ),
        (
            "queue missing",
            spec_with("queue", Some(r#"{"drop_deadline": {"capacity": 4}}"#)),
            vec!["queue", "'slo_ns'"],
        ),
        // LoadSpec.
        (
            "load tag",
            spec_with("load", Some(r#"{"rate": 1}"#)),
            vec!["load", "'rate'"],
        ),
        (
            "load key",
            spec_with("load", Some(r#"{"closed": {"think": 0}}"#)),
            vec!["load", "'think'"],
        ),
        (
            "load type",
            spec_with("load", Some(r#"{"qps": "fast"}"#)),
            vec!["load", "qps"],
        ),
        (
            "load missing",
            spec_with("load", Some(r#"{"closed": {}}"#)),
            vec!["load", "'think_ns'"],
        ),
        // ScenarioSpec (object).
        (
            "scenario key",
            spec_with(
                "load",
                Some(&scenario_with(
                    r#""warmup_fraction""#,
                    r#""extra": 1, "warmup_fraction""#,
                )),
            ),
            vec!["scenario", "'extra'"],
        ),
        (
            "scenario type",
            spec_with("load", Some(&scenario_with("0.1}}", r#""x"}}"#))),
            vec!["scenario", "warmup_fraction"],
        ),
        (
            "scenario missing",
            spec_with(
                "load",
                Some(&scenario_with(r#", "warmup_fraction": 0.1"#, "")),
            ),
            vec!["scenario", "'warmup_fraction'"],
        ),
        // LoadPhase (object).
        (
            "phase key",
            spec_with(
                "load",
                Some(&scenario_with(
                    r#""duration_ns""#,
                    r#""len": 2, "duration_ns""#,
                )),
            ),
            vec!["phases", "'len'"],
        ),
        (
            "phase type",
            spec_with("load", Some(&scenario_with("1000", r#""1000""#))),
            vec!["phases", "duration_ns"],
        ),
        (
            "phase missing",
            spec_with(
                "load",
                Some(&scenario_with(
                    r#", "shape": {"constant": {"qps": 1.0}}"#,
                    "",
                )),
            ),
            vec!["phases", "'shape'"],
        ),
        // PhaseShape.
        (
            "shape tag",
            spec_with(
                "load",
                Some(&scenario_with(
                    r#"{"constant": {"qps": 1.0}}"#,
                    r#"{"square": {}}"#,
                )),
            ),
            vec!["shape", "'square'"],
        ),
        (
            "shape key",
            spec_with(
                "load",
                Some(&scenario_with(
                    r#"{"constant": {"qps": 1.0}}"#,
                    r#"{"ramp": {"from_qps": 1.0, "to": 2.0}}"#,
                )),
            ),
            vec!["shape", "'to'"],
        ),
        (
            "shape type",
            spec_with("load", Some(&scenario_with("1.0}}", r#""x"}}"#))),
            vec!["shape", "qps"],
        ),
        (
            "shape missing",
            spec_with(
                "load",
                Some(&scenario_with(
                    r#"{"constant": {"qps": 1.0}}"#,
                    r#"{"burst": {"base_qps": 1.0, "burst_qps": 2.0, "period_ns": 5}}"#,
                )),
            ),
            vec!["shape", "'duty'"],
        ),
        // ClientClass (object).
        (
            "class key",
            spec_with(
                "load",
                Some(&classes(r#"{"name": "a", "weight": 1.0, "share": 1}"#)),
            ),
            vec!["classes", "'share'"],
        ),
        (
            "class type",
            spec_with("load", Some(&classes(r#"{"name": 3, "weight": 1.0}"#))),
            vec!["classes", "name"],
        ),
        (
            "class missing",
            spec_with("load", Some(&classes(r#"{"name": "a"}"#))),
            vec!["classes", "'weight'"],
        ),
        // FaultSpec (object), FaultTarget, FaultKind.
        (
            "fault key",
            spec_with(
                "interference",
                Some(&fault_with(r#""kind": "pause", "stop_frac": 1"#)),
            ),
            vec!["interference", "'stop_frac'"],
        ),
        (
            "fault type",
            spec_with(
                "interference",
                Some(r#"[{"target": "all", "start_frac": "0", "end_frac": 0.2, "kind": "pause"}]"#),
            ),
            vec!["interference", "start_frac"],
        ),
        (
            "fault missing",
            spec_with(
                "interference",
                Some(r#"[{"target": "all", "start_frac": 0.1, "end_frac": 0.2}]"#),
            ),
            vec!["interference", "'kind'"],
        ),
        (
            "target tag",
            spec_with(
                "interference",
                Some(
                    r#"[{"target": "some", "start_frac": 0.1, "end_frac": 0.2, "kind": "pause"}]"#,
                ),
            ),
            vec!["target", "'some'"],
        ),
        (
            "target type",
            spec_with(
                "interference",
                Some(
                    r#"[{"target": {"instance": "1"}, "start_frac": 0.1, "end_frac": 0.2, "kind": "pause"}]"#,
                ),
            ),
            vec!["target", "instance"],
        ),
        (
            "kind tag",
            spec_with("interference", Some(&fault_with(r#""kind": "crash""#))),
            vec!["kind", "'crash'"],
        ),
        (
            "kind key",
            spec_with(
                "interference",
                Some(&fault_with(
                    r#""kind": {"slow_down": {"factor": 2.0, "by": 1}}"#,
                )),
            ),
            vec!["kind", "'by'"],
        ),
        (
            "kind type",
            spec_with(
                "interference",
                Some(&fault_with(r#""kind": {"jitter": {"amplitude_ns": -5}}"#)),
            ),
            vec!["kind", "amplitude_ns"],
        ),
        (
            "kind missing",
            spec_with(
                "interference",
                Some(&fault_with(r#""kind": {"slow_down": {}}"#)),
            ),
            vec!["kind", "'factor'"],
        ),
        // SweepAxis, the hedge-axis option and MitigationSpec.
        (
            "axis tag",
            spec_with("sweep", Some(r#"[{"apps": ["a"]}]"#)),
            vec!["sweep", "'apps'"],
        ),
        (
            "axis type",
            spec_with("sweep", Some(r#"[{"threads": [1, "2"]}]"#)),
            vec!["sweep", "threads"],
        ),
        (
            "hedge axis tag",
            spec_with("sweep", Some(r#"[{"hedge": ["never"]}]"#)),
            vec!["hedge", "'never'"],
        ),
        (
            "mitigation tag",
            spec_with("sweep", Some(r#"[{"mitigation": ["hedged"]}]"#)),
            vec!["mitigation", "'hedged'"],
        ),
        (
            "mitigation type",
            spec_with("sweep", Some(r#"[{"mitigation": [{"queue": 5}]}]"#)),
            vec!["mitigation", "queue"],
        ),
    ];
    for (what, text, needles) in cases {
        let Err(err) = ExperimentSpec::from_json_str(&text) else {
            panic!("{what}: decoded {text}");
        };
        let err = err.to_string();
        for needle in needles {
            assert!(err.contains(needle), "{what}: '{err}' lacks '{needle}'");
        }
    }
}

#[test]
fn unknown_keys_are_reported_before_missing_fields() {
    let err = ExperimentSpec::from_json_str(r#"{"name": "typo", "requets": 5}"#)
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown field 'requets'"), "{err}");
}
