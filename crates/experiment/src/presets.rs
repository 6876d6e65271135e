//! Named experiment presets: the paper figures as one-line specs.
//!
//! Each preset is a plain [`ExperimentSpec`] — exactly what a user could write into a
//! JSON spec file and run with `tailbench run <file>`; `tailbench preset <name>`
//! resolves the name through [`preset`] and `tailbench export <name>` prints the JSON.
//! No other entrypoint runs these figures, so their logic lives in one place.

use crate::spec::{
    ExperimentSpec, FaultSpec, HedgeSpec, LoadSpec, MitigationSpec, Scale, ScenarioSpec, SweepAxis,
    TopologySpec,
};
use crate::AppId;
use tailbench_core::config::{FanoutPolicy, HarnessMode, ReplicaSelector};
use tailbench_core::interference::{FaultKind, FaultTarget};
use tailbench_core::queue::AdmissionPolicy;
use tailbench_scenario::{ClientClass, LoadPhase, PhaseShape};

/// The names [`preset`] resolves.
pub const PRESET_NAMES: [&str; 5] = ["fig3", "fig6", "fig9", "fig11", "fig12"];

/// Resolves a preset by name at the given workload scale.
#[must_use]
pub fn preset(name: &str, scale: Scale) -> Option<ExperimentSpec> {
    match name {
        "fig3" => Some(fig3(scale)),
        "fig6" => Some(fig6(scale)),
        "fig9" => Some(fig9(scale)),
        "fig11" => Some(fig11(scale)),
        "fig12" => Some(fig12(scale)),
        _ => None,
    }
}

/// Fig. 3: mean / p95 / p99 sojourn latency versus offered load, one worker thread,
/// for every application (integrated mode, loads as fractions of measured capacity).
#[must_use]
pub fn fig3(scale: Scale) -> ExperimentSpec {
    ExperimentSpec::new("fig3_latency_vs_qps", "xapian")
        .with_scale(scale)
        .with_requests(scale.requests(250, 3_000))
        .with_load(LoadSpec::FractionOfCapacity(0.5))
        .with_axis(SweepAxis::App(
            AppId::ALL.iter().map(|id| id.name().to_string()).collect(),
        ))
        .with_axis(SweepAxis::LoadFraction(vec![
            0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9,
        ]))
}

/// Fig. 6: p95 latency versus *system load* for shore and img-dnn, real (integrated)
/// against simulated — plotted against load the two profiles nearly coincide.
#[must_use]
pub fn fig6(scale: Scale) -> ExperimentSpec {
    ExperimentSpec::new("fig6_load", "shore")
        .with_scale(scale)
        .with_requests(scale.requests(250, 2_500))
        .with_load(LoadSpec::FractionOfCapacity(0.5))
        .with_axis(SweepAxis::App(vec!["shore".into(), "img-dnn".into()]))
        .with_axis(SweepAxis::Mode(vec![
            HarnessMode::Integrated,
            HarnessMode::Simulated,
        ]))
        .with_axis(SweepAxis::LoadFraction(vec![0.2, 0.4, 0.6, 0.8]))
}

/// Fig. 9 (extension): tail amplification under partition-aggregate fan-out — a
/// broadcast xapian cluster swept over shard counts in both the integrated and the
/// simulated harness.  The capacity prober scales real-time cluster estimates by the
/// host's core budget, so one load fraction drives both modes.
#[must_use]
pub fn fig9(scale: Scale) -> ExperimentSpec {
    ExperimentSpec::new("fig9_fanout_tail", "xapian")
        .with_scale(scale)
        .with_requests(scale.requests(1_500, 10_000))
        .with_seed(0x5EED)
        .with_topology(TopologySpec::sharded(1).with_fanout(FanoutPolicy::Broadcast))
        .with_load(LoadSpec::FractionOfCapacity(0.7))
        .with_axis(SweepAxis::Mode(vec![
            HarnessMode::Integrated,
            HarnessMode::Simulated,
        ]))
        .with_axis(SweepAxis::Shards(vec![1, 2, 4, 8, 16]))
}

/// Fig. 11 (extension): hedged requests versus the fan-out tail — a 4×2 replicated
/// xapian broadcast cluster with one replica slowed 4× for the middle third of the
/// run, sweeping the hedge trigger across percentiles of the unhedged leg
/// distribution (plus the unhedged baseline).  Simulated harness, so every row is
/// deterministic.
#[must_use]
pub fn fig11(scale: Scale) -> ExperimentSpec {
    ExperimentSpec::new("fig11_hedging", "xapian")
        .with_scale(scale)
        .with_mode(HarnessMode::Simulated)
        .with_requests(scale.requests(2_000, 12_000))
        .with_seed(0x5EED)
        .with_topology(
            TopologySpec::sharded(4)
                .with_replication(2)
                .with_fanout(FanoutPolicy::Broadcast),
        )
        .with_load(LoadSpec::FractionOfCapacity(0.7))
        .with_fault(FaultSpec {
            target: FaultTarget::Instance(1),
            start_frac: 1.0 / 3.0,
            end_frac: 2.0 / 3.0,
            kind: FaultKind::SlowDown { factor: 4.0 },
        })
        .with_axis(SweepAxis::Hedge(vec![
            None,
            Some(HedgeSpec::Percentile(0.5)),
            Some(HedgeSpec::Percentile(0.9)),
            Some(HedgeSpec::Percentile(0.95)),
            Some(HedgeSpec::Percentile(0.99)),
        ]))
}

/// Fig. 12 (extension): the tail-mitigation policy suite head-to-head — a 2×2
/// replicated xapian broadcast cluster driven by the fig10 burst scenario (two tenant
/// classes, square-wave bursts in the middle phase) with one replica slowed 4× over
/// the same window, swept over one mitigation per row: none, p95 hedging, tied
/// requests, least-loaded routing, power-of-two-choices routing, and deadline
/// shedding.  Each row resets every other policy to the baseline, so the table reads
/// as a direct comparison.  Simulated harness: every row is deterministic.
#[must_use]
pub fn fig12(scale: Scale) -> ExperimentSpec {
    // Steady phases offer 40k QPS to the cluster (each broadcast request visits both
    // shards; round-robin halves each shard's rate per replica, so an instance sees
    // ~20k QPS against a ~115k QPS simulated xapian saturation rate).  The 4× fault
    // cuts the slowed replica's headroom to ~29k QPS, so the 2.5× bursts (100k QPS,
    // 50k per replica) drive *only the straggler* past saturation — the regime where
    // the policies separate without drowning the whole cluster.  The span is sized so
    // the steady rate alone offers the scale's request budget.
    let budget = scale.requests(2_500, 20_000) as u64;
    let steady_qps = 40_000.0;
    let span_ns = budget * 25_000; // budget requests at 40k QPS = budget * 25µs
    let steady_len = span_ns * 3 / 10;
    let burst_len = span_ns * 4 / 10;
    let period_ns = (span_ns / 20).max(1); // 8 bursts across the middle phase
    ExperimentSpec::new("fig12_mitigation", "xapian")
        .with_scale(scale)
        .with_mode(HarnessMode::Simulated)
        .with_seed(0x5EED)
        .with_topology(
            TopologySpec::sharded(2)
                .with_replication(2)
                .with_fanout(FanoutPolicy::Broadcast),
        )
        .with_load(LoadSpec::Scenario(ScenarioSpec {
            phases: vec![
                LoadPhase {
                    duration_ns: steady_len,
                    shape: PhaseShape::Constant { qps: steady_qps },
                },
                LoadPhase {
                    duration_ns: burst_len,
                    shape: PhaseShape::Burst {
                        base_qps: steady_qps,
                        burst_qps: steady_qps * 2.5,
                        period_ns,
                        duty: 0.5,
                    },
                },
                LoadPhase {
                    duration_ns: steady_len,
                    shape: PhaseShape::Constant { qps: steady_qps },
                },
            ],
            classes: vec![
                ClientClass {
                    name: "interactive".into(),
                    weight: 0.8,
                },
                ClientClass {
                    name: "batch".into(),
                    weight: 0.2,
                },
            ],
            warmup_fraction: 0.1,
        }))
        .with_fault(FaultSpec {
            target: FaultTarget::Instance(1),
            start_frac: 1.0 / 3.0,
            end_frac: 2.0 / 3.0,
            kind: FaultKind::SlowDown { factor: 4.0 },
        })
        .with_axis(SweepAxis::Mitigation(vec![
            MitigationSpec::Baseline,
            MitigationSpec::Hedge(HedgeSpec::Percentile(0.5)),
            MitigationSpec::Tied,
            MitigationSpec::Selector(ReplicaSelector::LeastLoaded),
            MitigationSpec::Selector(ReplicaSelector::PowerOfTwo),
            MitigationSpec::Queue(AdmissionPolicy::DropDeadline {
                capacity: 64,
                slo_ns: 500_000,
            }),
        ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    #[test]
    fn every_preset_resolves_validates_and_round_trips() {
        for name in PRESET_NAMES {
            let spec = preset(name, Scale::Smoke).expect(name);
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let back = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
            assert_eq!(back, spec, "{name} must round-trip through JSON");
        }
        assert!(preset("fig99", Scale::Smoke).is_none());
    }

    #[test]
    fn preset_grids_match_the_original_binaries() {
        assert_eq!(preset("fig3", Scale::Quick).unwrap().grid_size(), 8 * 7);
        assert_eq!(preset("fig6", Scale::Quick).unwrap().grid_size(), 2 * 2 * 4);
        assert_eq!(preset("fig9", Scale::Quick).unwrap().grid_size(), 2 * 5);
        assert_eq!(preset("fig11", Scale::Quick).unwrap().grid_size(), 5);
        assert_eq!(preset("fig12", Scale::Quick).unwrap().grid_size(), 6);
    }
}
