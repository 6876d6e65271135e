//! Regenerates Fig. 5: 95th-percentile latency vs offered QPS for every application
//! under the four measurement setups — networked, loopback, integrated (all real-time)
//! and simulated (discrete-event with the analytic cost model).  Also reports each
//! setup's saturation QPS so the networked-vs-integrated gap of the paper (silo, specjbb)
//! can be read off directly.
//!
//! One `ExperimentSpec` per application: a mode × load-fraction sweep through the
//! unified experiment layer (the single-server capacity probe is shared across modes,
//! as the paper's load normalization requires).

use tailbench_bench::{format_latency, print_table, AppId, Scale};
use tailbench_core::config::HarnessMode;
use tailbench_experiment::{Experiment, ExperimentSpec, LoadSpec, SweepAxis};

fn main() {
    let scale = Scale::from_env();
    let requests = scale.requests(250, 2_500);

    for id in AppId::ALL {
        let spec = ExperimentSpec::new(format!("fig5_{}", id.name()), id.name())
            .with_scale(scale)
            .with_requests(requests)
            .with_load(LoadSpec::FractionOfCapacity(0.5))
            .with_axis(SweepAxis::Mode(vec![
                HarnessMode::networked(),
                HarnessMode::loopback(),
                HarnessMode::Integrated,
                HarnessMode::Simulated,
            ]))
            .with_axis(SweepAxis::LoadFraction(vec![0.2, 0.5, 0.8]));
        let output = Experiment::new(spec).run().expect("fig5 experiment failed");

        let mut rows = Vec::new();
        for mode in ["networked", "loopback", "integrated", "simulated"] {
            let points: Vec<_> = output
                .points
                .iter()
                .filter(|p| p.coords.mode.name() == mode)
                .collect();
            // Estimate the saturation point as the highest offered load that still
            // kept up.
            let sustained = points
                .iter()
                .map(|p| p.report.headline())
                .filter(|r| !r.is_saturated(0.1))
                .map(|r| r.achieved_qps)
                .fold(0.0f64, f64::max);
            for point in points {
                let report = point.report.headline();
                rows.push(vec![
                    mode.to_string(),
                    format!("{:.0}%", point.coords.load_fraction.unwrap_or(0.0) * 100.0),
                    format!("{:.0}", report.offered_qps.unwrap_or(0.0)),
                    format_latency(report.sojourn.p95_ns as f64),
                    format!("{sustained:.0}"),
                ]);
            }
        }
        print_table(
            &format!("Fig. 5 — {} (p95 under the four setups)", id.name()),
            &["setup", "load", "offered QPS", "p95", "sustained QPS"],
            &rows,
        );
        eprintln!("fig5: finished {}", id.name());
    }
}
