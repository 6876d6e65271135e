//! Exit codes of the `tailbench` binary: 2 for usage and spec errors, 1 for runtime
//! failures such as an output file that does not verify.  The commands' happy paths
//! are run end to end as well: the checked-in smoke spec, preset export, and the
//! `lint` gates CI applies to this repository.

use std::path::PathBuf;
use std::process::{Command, Output};
use tailbench::experiment::{presets, verify_output_text};

fn tailbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tailbench"))
        .args(args)
        .output()
        .expect("spawn tailbench")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Writes `text` to a per-process file in the temp directory and returns its path.
fn temp_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tailbench-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

/// A path inside this repository.
fn repo_path(relative: &str) -> String {
    format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn unknown_commands_exit_2() {
    for command in ["frobnicate", "bench"] {
        let output = tailbench(&[command]);
        assert_eq!(output.status.code(), Some(2), "{command}");
        assert!(
            stderr(&output).contains(&format!("unknown command '{command}'")),
            "{}",
            stderr(&output)
        );
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let output = tailbench(&[flag]);
        assert!(output.status.success(), "{flag}: {}", stderr(&output));
        assert!(stdout(&output).contains("USAGE:"), "{}", stdout(&output));
    }
}

#[test]
fn no_command_prints_usage_and_exits_2() {
    let output = tailbench(&[]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("USAGE:"), "{}", stderr(&output));
}

#[test]
fn removed_bench_flags_are_unknown_flags() {
    for flag in ["--suite", "--baseline", "--write", "--strict"] {
        let output = tailbench(&["presets", flag]);
        assert_eq!(output.status.code(), Some(2), "{flag}");
        assert!(
            stderr(&output).contains(&format!("unknown flag '{flag}'")),
            "{}",
            stderr(&output)
        );
    }
}

#[test]
fn flags_missing_their_value_exit_2() {
    for (flag, message) in [
        ("--scale", "--scale needs a value"),
        ("--json", "--json needs a path"),
        ("--root", "--root needs a directory"),
        ("--explain", "--explain needs a rule name"),
    ] {
        let output = tailbench(&["lint", flag]);
        assert_eq!(output.status.code(), Some(2), "{flag}");
        assert!(stderr(&output).contains(message), "{}", stderr(&output));
    }
}

#[test]
fn unknown_scale_exits_2() {
    let output = tailbench(&["export", "fig9", "--scale", "huge"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(
        stderr(&output).contains("unknown scale 'huge'"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn commands_missing_their_argument_exit_2() {
    for (command, message) in [
        ("run", "run needs a spec file path"),
        ("preset", "preset needs a name"),
        ("export", "export needs a preset name"),
        ("validate", "validate needs a spec file path"),
        ("verify-output", "verify-output needs an output JSON path"),
    ] {
        let output = tailbench(&[command]);
        assert_eq!(output.status.code(), Some(2), "{command}");
        assert!(stderr(&output).contains(message), "{}", stderr(&output));
    }
}

#[test]
fn presets_lists_every_preset_name() {
    let output = tailbench(&["presets"]);
    assert!(output.status.success(), "{}", stderr(&output));
    let listed: Vec<String> = stdout(&output).lines().map(str::to_string).collect();
    assert_eq!(listed, presets::PRESET_NAMES);
}

#[test]
fn unknown_preset_exits_2_and_names_the_available_ones() {
    for command in ["preset", "export"] {
        let output = tailbench(&[command, "fig99"]);
        assert_eq!(output.status.code(), Some(2), "{command}");
        let message = stderr(&output);
        assert!(message.contains("unknown preset 'fig99'"), "{message}");
        assert!(
            message.contains(&presets::PRESET_NAMES.join(", ")),
            "{message}"
        );
    }
}

#[test]
fn exported_presets_validate() {
    for name in presets::PRESET_NAMES {
        let exported = tailbench(&["export", name, "--scale", "smoke"]);
        assert!(exported.status.success(), "{name}: {}", stderr(&exported));
        let path = temp_file(&format!("{name}.json"), &stdout(&exported));
        let validated = tailbench(&["validate", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        assert!(validated.status.success(), "{name}: {}", stderr(&validated));
        assert!(
            stdout(&validated).contains(": ok"),
            "{}",
            stdout(&validated)
        );
    }
}

#[test]
fn validate_accepts_the_checked_in_smoke_spec() {
    let output = tailbench(&["validate", &repo_path("specs/fig9_smoke.json")]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(
        stdout(&output).contains("'fig9_smoke' on app 'xapian', 2 point(s)"),
        "{}",
        stdout(&output)
    );
}

#[test]
fn validate_on_a_missing_file_exits_2() {
    let output = tailbench(&["validate", &repo_path("specs/no_such_spec.json")]);
    assert_eq!(output.status.code(), Some(2));
    assert!(
        stderr(&output).contains("cannot read spec file"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn validate_rejects_an_unknown_spec_key_with_exit_2() {
    let path = temp_file(
        "spec.json",
        r#"{"name": "typo", "app": "masstree", "requets": 100}"#,
    );
    let output = tailbench(&["validate", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(output.status.code(), Some(2));
    assert!(
        stderr(&output).contains("unknown field 'requets'"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn validate_rejects_specs_run_would_reject_or_rewrite_with_exit_2() {
    let base = r#"{"name": "zero", "app": "xapian", "mode": MODE, "load": LOAD,
                   "threads": 1, "requests": REQUESTS, "seed": 1 TOPOLOGY}"#;
    let qps = r#"{"qps": 100.0}"#;
    let closed = r#"{"closed": {"think_ns": 0}}"#;
    // One phase 1 ns long: its trace holds no arrival.
    let empty_scenario = r#"{"scenario": {"phases": [{"duration_ns": 1,
                             "shape": {"constant": {"qps": 1.0}}}], "warmup_fraction": 0.1}}"#;
    for (mode, load, requests, topology, expected) in [
        (
            r#""integrated""#,
            qps,
            "10",
            r#", "topology": {"shards": 0, "replication": 0, "fanout": "auto"}"#,
            "0 shard(s) x 0 replica(s)",
        ),
        (
            r#"{"loopback": {"connections": 0}}"#,
            qps,
            "10",
            "",
            "0 client connections",
        ),
        (
            r#"{"loopback": {"connections": 1}}"#,
            closed,
            "10",
            "",
            "closed-loop load cannot run in a loopback or networked mode",
        ),
        (r#""integrated""#, closed, "0", "", "measure_requests is 0"),
        (
            r#""integrated""#,
            empty_scenario,
            "10",
            "",
            "measure_requests is 0",
        ),
    ] {
        let text = base
            .replace("MODE", mode)
            .replace("LOAD", load)
            .replace("REQUESTS", requests)
            .replace("TOPOLOGY", topology);
        let path = temp_file("zero.json", &text);
        let output = tailbench(&["validate", path.to_str().unwrap()]);
        // `run` must refuse the same spec the same way, before measuring anything.
        let ran = tailbench(&["run", path.to_str().unwrap(), "--quiet"]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(output.status.code(), Some(2), "{text}");
        assert!(stderr(&output).contains(expected), "{}", stderr(&output));
        assert_eq!(ran.status.code(), Some(2), "{text}: {}", stderr(&ran));
        assert!(stderr(&ran).contains(expected), "{}", stderr(&ran));
    }
}

#[test]
fn run_writes_json_output_that_verifies() {
    let out = std::env::temp_dir().join(format!(
        "tailbench-cli-{}-fig9_smoke_out.json",
        std::process::id()
    ));
    let out = out.to_str().unwrap();
    let ran = tailbench(&[
        "run",
        &repo_path("specs/fig9_smoke.json"),
        "--json",
        out,
        "--quiet",
    ]);
    assert!(ran.status.success(), "{}", stderr(&ran));
    assert!(stdout(&ran).is_empty(), "--quiet printed: {}", stdout(&ran));
    let text = std::fs::read_to_string(out).unwrap();
    let verified = tailbench(&["verify-output", out]);
    let _ = std::fs::remove_file(out);

    assert!(text.contains("\"queue_depth\""), "{text}");
    assert!(text.contains("\"pacing\""), "{text}");
    assert!(verified.status.success(), "{}", stderr(&verified));
    assert!(
        stdout(&verified).contains("ok — 2 point(s), p99 present"),
        "{}",
        stdout(&verified)
    );
}

#[test]
fn run_with_json_to_stdout_prints_only_the_json() {
    let output = tailbench(&["run", &repo_path("specs/fig9_smoke.json"), "--json", "-"]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert_eq!(verify_output_text(&stdout(&output)), Ok(2));
}

#[test]
fn verify_output_fails_with_exit_1_on_a_zero_p99() {
    let output_json = |p99: u64| {
        format!(
            r#"{{"points": [{{"report": {{"single": {{
                "sojourn": {{"p99_ns": {p99}}},
                "queue_depth": {{"policy": "block"}},
                "pacing": {{"count": 0}}
            }}}}}}]}}"#
        )
    };
    let good = temp_file("good.json", &output_json(5));
    let bad = temp_file("bad.json", &output_json(0));
    let passed = tailbench(&["verify-output", good.to_str().unwrap()]);
    let failed = tailbench(&["verify-output", bad.to_str().unwrap()]);
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);

    assert!(passed.status.success(), "{}", stderr(&passed));
    assert_eq!(failed.status.code(), Some(1));
    assert!(
        stderr(&failed).contains("sojourn.p99_ns is 0"),
        "{}",
        stderr(&failed)
    );
}

#[test]
fn verify_output_on_a_missing_file_exits_1() {
    let output = tailbench(&["verify-output", &repo_path("no_such_output.json")]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("cannot read"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn lint_check_passes_on_this_repository() {
    let report = std::env::temp_dir().join(format!(
        "tailbench-cli-{}-lint-report.json",
        std::process::id()
    ));
    let report = report.to_str().unwrap();
    let output = tailbench(&[
        "lint",
        "--root",
        env!("CARGO_MANIFEST_DIR"),
        "--check",
        "--json",
        report,
    ]);
    let text = std::fs::read_to_string(report).unwrap_or_default();
    let _ = std::fs::remove_file(report);
    assert!(
        output.status.success(),
        "{}{}",
        stdout(&output),
        stderr(&output)
    );
    assert!(
        stdout(&output).contains("tailbench lint: 0 finding(s)"),
        "{}",
        stdout(&output)
    );
    assert!(text.contains("\"clean\": true"), "{text}");
}

#[test]
fn lint_pragmas_match_the_committed_budget() {
    let output = tailbench(&["lint", "--root", env!("CARGO_MANIFEST_DIR"), "--pragmas"]);
    assert!(output.status.success(), "{}", stderr(&output));
    let committed = std::fs::read_to_string(repo_path("lint-pragmas.txt")).unwrap();
    assert_eq!(stdout(&output), committed);
}

#[test]
fn lint_check_fails_with_exit_1_on_the_violation_fixtures() {
    for (fixture, finding) in [
        (
            "bad_tree",
            "crates/core/src/sim.rs:5:28: no-wallclock-in-sim",
        ),
        (
            "bad_tree_v2",
            "crates/core/src/queue.rs:7:13: lock-order-cycle",
        ),
    ] {
        let root = repo_path(&format!("crates/lint/tests/fixtures/{fixture}"));
        let output = tailbench(&["lint", "--root", &root, "--check"]);
        assert_eq!(output.status.code(), Some(1), "{fixture}");
        assert!(stdout(&output).contains(finding), "{}", stdout(&output));
        assert!(
            stderr(&output).contains("lint failed"),
            "{}",
            stderr(&output)
        );
    }
}

#[test]
fn lint_explain_covers_every_rule_and_rejects_unknown_ones() {
    let all = tailbench(&["lint", "--explain", "all"]);
    assert!(all.status.success(), "{}", stderr(&all));
    for rule in tailbench::lint::ALL_RULES {
        let header = format!("{} — ", rule.name());
        assert!(
            stdout(&all).lines().any(|line| line.starts_with(&header)),
            "{header}"
        );
        let one = tailbench(&["lint", "--explain", rule.name()]);
        assert!(one.status.success(), "{}", stderr(&one));
        assert!(stdout(&one).starts_with(&header), "{}", stdout(&one));
    }

    let unknown = tailbench(&["lint", "--explain", "no-such-rule"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(
        stderr(&unknown).contains("unknown rule 'no-such-rule'"),
        "{}",
        stderr(&unknown)
    );
}
