//! Regenerates Fig. 7: 95th-percentile latency vs per-thread QPS with four worker
//! threads, for specjbb, masstree, xapian and img-dnn, under all four measurement setups.
//!
//! One `ExperimentSpec` per application: a mode × load-fraction sweep at four worker
//! threads through the unified experiment layer.

use tailbench_bench::{format_latency, print_table, AppId, Scale};
use tailbench_core::config::HarnessMode;
use tailbench_experiment::{Experiment, ExperimentSpec, LoadSpec, SweepAxis};

fn main() {
    let scale = Scale::from_env();
    let requests = scale.requests(300, 3_000);
    let threads = 4usize;
    let apps = [
        AppId::SpecJbb,
        AppId::Masstree,
        AppId::Xapian,
        AppId::ImgDnn,
    ];

    for id in apps {
        let spec = ExperimentSpec::new(format!("fig7_{}", id.name()), id.name())
            .with_scale(scale)
            .with_requests(requests)
            .with_threads(threads)
            .with_load(LoadSpec::FractionOfCapacity(0.5))
            .with_axis(SweepAxis::Mode(vec![
                HarnessMode::networked(),
                HarnessMode::loopback(),
                HarnessMode::Integrated,
                HarnessMode::Simulated,
            ]))
            .with_axis(SweepAxis::LoadFraction(vec![0.3, 0.6, 0.85]));
        let output = Experiment::new(spec).run().expect("fig7 experiment failed");

        let rows: Vec<Vec<String>> = output
            .points
            .iter()
            .map(|point| {
                let report = point.report.headline();
                vec![
                    point.coords.mode.name().to_string(),
                    format!("{:.0}%", point.coords.load_fraction.unwrap_or(0.0) * 100.0),
                    format!("{:.0}", report.offered_qps.unwrap_or(0.0) / threads as f64),
                    format_latency(report.sojourn.p95_ns as f64),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 7 — {} (4 threads, p95 vs QPS/thread)", id.name()),
            &["setup", "load", "QPS / thread", "p95"],
            &rows,
        );
        eprintln!("fig7: finished {}", id.name());
    }
}
