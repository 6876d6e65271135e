//! Builder → spec-file → CLI equivalence for the fig9 fan-out sweep.
//!
//! The same experiment can be expressed three ways, and all three are the *same
//! object*:
//!
//! 1. **builder** — fluent `ExperimentSpec` construction in Rust over the harness's
//!    own configuration types (`HarnessMode`, `FanoutPolicy`; this example);
//! 2. **spec file** — `spec.to_json_string()` written to disk (round-trips exactly);
//! 3. **CLI** — `tailbench run <file>` / `tailbench preset fig9`.
//!
//! Run with `cargo run --release --example experiment_spec`.

use tailbench::core::config::{FanoutPolicy, HarnessMode};
use tailbench::experiment::{Experiment, ExperimentSpec, LoadSpec, Scale, SweepAxis, TopologySpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Builder: a broadcast xapian cluster swept over shard counts — the fig9
    //    experiment, scaled down to run in seconds.
    let spec = ExperimentSpec::new("fanout-sweep", "xapian")
        .with_scale(Scale::Smoke)
        .with_mode(HarnessMode::Simulated)
        .with_topology(TopologySpec::sharded(1).with_fanout(FanoutPolicy::Broadcast))
        .with_load(LoadSpec::FractionOfCapacity(0.7))
        .with_requests(150)
        .with_axis(SweepAxis::Shards(vec![1, 2, 4]));

    // 2. Spec file: serialize, reload, and check it is the identical experiment.
    let text = spec.to_json_string();
    let path = std::env::temp_dir().join("tailbench_fanout_sweep.json");
    std::fs::write(&path, &text)?;
    let reloaded = ExperimentSpec::from_json_str(&std::fs::read_to_string(&path)?)?;
    assert_eq!(reloaded, spec, "a spec file round-trips exactly");
    println!("spec written to {} :\n{text}", path.display());

    // 3. Run it (the CLI would do exactly this for `tailbench run <file>`).
    let output = Experiment::new(reloaded).run()?;
    print!("{}", output.to_markdown());
    for point in &output.points {
        let cluster = point.report.representative();
        println!(
            "shards={:2}  cluster p99 = {:9} ns  amplification = {:.2}x",
            cluster.shards,
            cluster.cluster.sojourn.p99_ns,
            cluster.p99_amplification(),
        );
    }

    println!(
        "\nSame experiment from the shell:\n  \
         cargo run --release --bin tailbench -- run {}\n  \
         cargo run --release --bin tailbench -- preset fig9   # the full-size version",
        path.display()
    );
    Ok(())
}
