//! The `tailbench` CLI: one entrypoint for the whole suite.
//!
//! ```text
//! tailbench run <spec.json> [--json <out|->] [--quiet]    run a spec file
//! tailbench preset <name>   [--json <out|->] [--quiet]    run a named preset
//! tailbench export <name>                                 print a preset's spec JSON
//! tailbench presets                                       list preset names
//! tailbench validate <spec.json>                          check a spec without running
//! tailbench verify-output <out.json>                      check emitted JSON output
//! tailbench lint  [--root <dir>] [--check] [--json <out|->]
//!                 [--pragmas] [--explain <rule|all>]        static analysis
//! ```
//!
//! Global flags: `--scale smoke|quick|full` overrides `TAILBENCH_SCALE`.  Markdown
//! tables go to stdout (suppress with `--quiet`); `--json` writes the machine-readable
//! [`ExperimentOutput`](tailbench_experiment::ExperimentOutput) to a file (or stdout
//! with `-`).  Exit codes: 0 success, 1 runtime failure, 2 usage/spec errors.

use std::path::Path;
use std::process::ExitCode;
use tailbench::core::HarnessError;
use tailbench_experiment::{presets, verify_output_text, Experiment, ExperimentSpec, Scale};

const USAGE: &str = "\
tailbench — unified TailBench-RS experiment runner

USAGE:
    tailbench run <spec.json>  [--scale smoke|quick|full] [--json <path|->] [--quiet]
    tailbench preset <name>    [--scale smoke|quick|full] [--json <path|->] [--quiet]
    tailbench export <name>    [--scale smoke|quick|full]
    tailbench presets
    tailbench validate <spec.json>
    tailbench verify-output <out.json>
    tailbench lint  [--root <dir>] [--check] [--json <path|->] [--pragmas]
                    [--explain <rule|all>]

A spec file is the JSON form of an ExperimentSpec (see `tailbench export fig9`
for a template).  Presets reproduce the paper figures: fig3, fig6, fig9, fig11,
fig12.

`lint` runs the in-tree static analysis (wall-clock use in DES modules, panics
on hot paths, unseeded RNG, unordered iteration in report paths, lock-order
cycles, guards held across blocking operations, lossy casts and unchecked
arithmetic in stats paths) over `--root` (default `.`).  Findings print as
`path:line:col: rule: message`; `--check` makes any finding exit 1, for CI
gating.  `--pragmas` prints the allow-pragma audit trail instead of findings
(the committed pragma budget diffs this).  `--explain <rule>` prints one rule's
full rationale; `--explain all` walks every rule.
";

struct Options {
    scale: Option<Scale>,
    json_out: Option<String>,
    quiet: bool,
    help: bool,
    check: bool,
    root: Option<String>,
    pragmas: bool,
    explain: Option<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        scale: None,
        json_out: None,
        quiet: false,
        help: false,
        check: false,
        root: None,
        pragmas: false,
        explain: None,
        positional: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().ok_or("--scale needs a value")?;
                options.scale = Some(
                    Scale::parse(value)
                        .ok_or_else(|| format!("unknown scale '{value}' (smoke, quick, full)"))?,
                );
            }
            "--json" => {
                options.json_out = Some(iter.next().ok_or("--json needs a path")?.clone());
            }
            "--quiet" => options.quiet = true,
            "--help" | "-h" => options.help = true,
            "--check" => options.check = true,
            "--root" => {
                options.root = Some(iter.next().ok_or("--root needs a directory")?.clone());
            }
            "--pragmas" => options.pragmas = true,
            "--explain" => {
                options.explain = Some(
                    iter.next()
                        .ok_or("--explain needs a rule name or 'all'")?
                        .clone(),
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            positional => options.positional.push(positional.to_string()),
        }
    }
    Ok(options)
}

/// A CLI failure: the message plus which documented exit code it maps to
/// (1 = runtime failure, 2 = usage/spec error).
struct CliError {
    message: String,
    exit_code: u8,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            exit_code: 2,
        }
    }

    fn runtime(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            exit_code: 1,
        }
    }
}

fn run_spec(spec: ExperimentSpec, options: &Options) -> Result<(), CliError> {
    let spec = match options.scale {
        Some(scale) => spec.with_scale(scale),
        None => spec,
    };
    // `Experiment::run` validates the experiment before it measures anything; a spec
    // it refuses is a spec error, as `tailbench validate` reports it.
    let output = Experiment::new(spec).run().map_err(|e| match e {
        HarnessError::Config(_) => CliError::usage(e.to_string()),
        _ => CliError::runtime(format!("experiment failed: {e}")),
    })?;
    // `--json -` owns stdout: printing the Markdown table too would make the
    // machine-readable stream unparseable.
    let json_to_stdout = options.json_out.as_deref() == Some("-");
    if !options.quiet && !json_to_stdout {
        print!("{}", output.to_markdown());
    }
    if let Some(path) = &options.json_out {
        let text = output.to_json_string();
        if path == "-" {
            print!("{text}");
        } else {
            std::fs::write(path, &text).map_err(|e| {
                CliError::runtime(format!("cannot write JSON output to {path}: {e}"))
            })?;
            if !options.quiet {
                eprintln!("wrote JSON output to {path}");
            }
        }
    }
    Ok(())
}

fn load_spec(path: &str) -> Result<ExperimentSpec, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read spec file {path}: {e}")))?;
    ExperimentSpec::from_json_str(&text).map_err(|e| CliError::usage(e.to_string()))
}

fn resolve_preset(name: &str, scale: Scale) -> Result<ExperimentSpec, CliError> {
    presets::preset(name, scale).ok_or_else(|| {
        CliError::usage(format!(
            "unknown preset '{name}' (available: {})",
            presets::PRESET_NAMES.join(", ")
        ))
    })
}

/// One rule's `--explain` entry: the header line plus the full rationale.
fn explain_rule(rule: tailbench::lint::Rule) -> String {
    format!(
        "{} — {}\nscope: {}\n\n{}\n",
        rule.name(),
        rule.summary(),
        rule.scope_desc(),
        rule.explain()
    )
}

/// `tailbench lint`: run the static-analysis pass, print findings, optionally gate.
fn cmd_lint(options: &Options) -> Result<(), CliError> {
    if let Some(which) = &options.explain {
        if which == "all" {
            let texts: Vec<String> = tailbench::lint::ALL_RULES
                .into_iter()
                .map(explain_rule)
                .collect();
            print!("{}", texts.join("\n"));
            return Ok(());
        }
        let rule = tailbench::lint::Rule::from_name(which).ok_or_else(|| {
            CliError::usage(format!(
                "unknown rule '{which}' (try `tailbench lint --explain all`)"
            ))
        })?;
        print!("{}", explain_rule(rule));
        return Ok(());
    }
    let root = options.root.as_deref().unwrap_or(".");
    let report = tailbench::lint::lint_workspace(Path::new(root))
        .map_err(|e| CliError::runtime(format!("cannot lint {root}: {e}")))?;
    if options.pragmas {
        print!("{}", report.render_pragmas());
        return Ok(());
    }
    let json_to_stdout = options.json_out.as_deref() == Some("-");
    if !options.quiet && !json_to_stdout {
        print!("{}", report.render_text());
    }
    if let Some(path) = &options.json_out {
        let text = report.to_json_string();
        if path == "-" {
            print!("{text}");
        } else {
            std::fs::write(path, &text).map_err(|e| {
                CliError::runtime(format!("cannot write JSON report to {path}: {e}"))
            })?;
        }
    }
    if options.check && !report.is_clean() {
        return Err(CliError::runtime(format!(
            "lint failed: {} finding(s)",
            report.findings.len()
        )));
    }
    Ok(())
}

fn dispatch(command: &str, options: &Options) -> Result<(), CliError> {
    let arg = options.positional.get(1);
    match command {
        "run" => {
            let path = arg.ok_or_else(|| CliError::usage("run needs a spec file path"))?;
            run_spec(load_spec(path)?, options)
        }
        "preset" => {
            let name = arg
                .ok_or_else(|| CliError::usage("preset needs a name (see `tailbench presets`)"))?;
            let scale = options.scale.unwrap_or_else(Scale::from_env);
            run_spec(resolve_preset(name, scale)?, options)
        }
        "export" => {
            let name = arg.ok_or_else(|| CliError::usage("export needs a preset name"))?;
            let scale = options.scale.unwrap_or_else(Scale::from_env);
            print!("{}", resolve_preset(name, scale)?.to_json_string());
            Ok(())
        }
        "presets" => {
            for name in presets::PRESET_NAMES {
                println!("{name}");
            }
            Ok(())
        }
        "validate" => {
            let path = arg.ok_or_else(|| CliError::usage("validate needs a spec file path"))?;
            // The checks `run` makes before it measures anything, registry included.
            let experiment = Experiment::new(load_spec(path)?);
            experiment
                .validate()
                .map_err(|e| CliError::usage(e.to_string()))?;
            let spec = experiment.spec();
            println!(
                "{path}: ok — '{}' on app '{}', {} point(s)",
                spec.name,
                spec.app,
                spec.grid_size()
            );
            Ok(())
        }
        "verify-output" => {
            let path =
                arg.ok_or_else(|| CliError::usage("verify-output needs an output JSON path"))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
            let points = verify_output_text(&text).map_err(CliError::runtime)?;
            println!("{path}: ok — {points} point(s), p99 present");
            Ok(())
        }
        "lint" => cmd_lint(options),
        unknown => Err(CliError::usage(format!("unknown command '{unknown}'"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if options.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(command) = options.positional.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match dispatch(&command, &options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {}", error.message);
            ExitCode::from(error.exit_code)
        }
    }
}
