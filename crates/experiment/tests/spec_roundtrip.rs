//! Spec round-tripping: property tests and the golden JSON output.
//!
//! Two properties and one pinned artifact:
//!
//! 1. **Structural round-trip** — for randomly generated `ExperimentSpec`s covering
//!    the full schema surface (modes, topologies, hedges, loads including scenarios,
//!    faults, every sweep-axis kind), `from_json(to_json(spec)) == spec` and the
//!    serialization is canonical (a second round emits identical text).
//! 2. **Behavioral round-trip** — for randomly generated *runnable* DES specs, the
//!    builder-constructed spec and its JSON round-trip produce **bit-identical**
//!    `ExperimentOutput` JSON under a fixed seed (the discrete-event simulator is
//!    exactly deterministic, so any divergence means serialization lost information).
//! 3. **Golden output** — one fixed-seed experiment's JSON output is pinned down to
//!    the exact percentile values, guarding both the DES event ordering and the
//!    output schema.

use proptest::prelude::*;
use std::sync::Arc;
use tailbench_core::app::{CostModel, EchoApp, InstructionRateModel};
use tailbench_core::config::{FanoutPolicy, HarnessMode, ReplicaSelector};
use tailbench_core::interference::{FaultKind, FaultTarget};
use tailbench_core::queue::AdmissionPolicy;
use tailbench_experiment::{
    AppBuilder, BenchApp, Experiment, ExperimentSpec, FaultSpec, HedgeSpec, LoadSpec,
    MitigationSpec, Registry, Scale, ScenarioSpec, SeedPolicy, SweepAxis, TopologySpec,
};
use tailbench_scenario::{ClientClass, LoadPhase, PhaseShape};

// ---------------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------------

fn mode_strategy() -> impl Strategy<Value = HarnessMode> {
    prop_oneof![
        (0u64..1).prop_map(|_| HarnessMode::Integrated),
        (0u64..1).prop_map(|_| HarnessMode::Simulated),
        (1usize..16).prop_map(|connections| HarnessMode::Loopback { connections }),
        ((1usize..16), (0u64..100_000)).prop_map(|(connections, one_way_delay_ns)| {
            HarnessMode::Networked {
                connections,
                one_way_delay_ns,
            }
        }),
    ]
}

fn fanout_strategy() -> impl Strategy<Value = Option<FanoutPolicy>> {
    prop_oneof![
        (0u64..1).prop_map(|_| None),
        (0u64..1).prop_map(|_| Some(FanoutPolicy::Broadcast)),
        ((0usize..4), (1usize..9))
            .prop_map(|(offset, len)| Some(FanoutPolicy::HashKey { offset, len })),
        ((0usize..4), (1usize..8))
            .prop_map(|(offset, len)| Some(FanoutPolicy::Partition { offset, len })),
    ]
}

fn queue_strategy() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        (1usize..1_000_000).prop_map(|capacity| AdmissionPolicy::Block { capacity }),
        (1usize..1_000_000).prop_map(|capacity| AdmissionPolicy::Drop { capacity }),
        ((1usize..1_000_000), (1u64..1_000_000_000))
            .prop_map(|(capacity, slo_ns)| { AdmissionPolicy::DropDeadline { capacity, slo_ns } }),
        (1usize..1_000_000).prop_map(|capacity| AdmissionPolicy::Priority { capacity }),
    ]
}

fn selector_strategy() -> impl Strategy<Value = ReplicaSelector> {
    prop_oneof![
        (0u64..1).prop_map(|_| ReplicaSelector::RoundRobin),
        (0u64..1).prop_map(|_| ReplicaSelector::LeastLoaded),
        (0u64..1).prop_map(|_| ReplicaSelector::PowerOfTwo),
    ]
}

fn mitigation_strategy() -> impl Strategy<Value = MitigationSpec> {
    prop_oneof![
        (0u64..1).prop_map(|_| MitigationSpec::Baseline),
        hedge_strategy().prop_map(MitigationSpec::Hedge),
        (0u64..1).prop_map(|_| MitigationSpec::Tied),
        selector_strategy().prop_map(MitigationSpec::Selector),
        queue_strategy().prop_map(MitigationSpec::Queue),
    ]
}

fn hedge_strategy() -> impl Strategy<Value = HedgeSpec> {
    prop_oneof![
        (1u64..10_000_000).prop_map(HedgeSpec::DelayNs),
        (0usize..5).prop_map(|i| HedgeSpec::Percentile([0.5, 0.9, 0.95, 0.99, 0.999][i])),
    ]
}

fn shape_strategy() -> impl Strategy<Value = PhaseShape> {
    prop_oneof![
        (100.0f64..10_000.0).prop_map(|qps| PhaseShape::Constant { qps }),
        ((100.0f64..5_000.0), (100.0f64..5_000.0))
            .prop_map(|(from_qps, to_qps)| PhaseShape::Ramp { from_qps, to_qps }),
        (
            (100.0f64..2_000.0),
            (2_000.0f64..20_000.0),
            (1_000_000u64..100_000_000),
            (0.05f64..0.95),
        )
            .prop_map(|(base_qps, burst_qps, period_ns, duty)| PhaseShape::Burst {
                base_qps,
                burst_qps,
                period_ns,
                duty,
            }),
        (
            (100.0f64..5_000.0),
            (0.0f64..0.99),
            (1_000_000u64..100_000_000)
        )
            .prop_map(|(base_qps, amplitude, period_ns)| PhaseShape::Diurnal {
                base_qps,
                amplitude,
                period_ns,
            }),
    ]
}

fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        prop::collection::vec(
            ((1_000_000u64..500_000_000), shape_strategy())
                .prop_map(|(duration_ns, shape)| LoadPhase { duration_ns, shape }),
            1..4,
        ),
        (0usize..3),
        (0.0f64..0.5),
    )
        .prop_map(|(phases, classes, warmup_fraction)| ScenarioSpec {
            phases,
            classes: (0..classes)
                .map(|i| ClientClass {
                    name: format!("class-{i}"),
                    weight: 1.0 + i as f64,
                })
                .collect(),
            warmup_fraction,
        })
}

fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    (
        prop_oneof![
            (0u64..1).prop_map(|_| FaultTarget::All),
            (0usize..4).prop_map(FaultTarget::Instance),
        ],
        (0.0f64..0.5),
        (0.01f64..0.5),
        prop_oneof![
            (1.5f64..8.0).prop_map(|factor| FaultKind::SlowDown { factor }),
            (0u64..1).prop_map(|_| FaultKind::Pause),
            (1_000u64..1_000_000).prop_map(|amplitude_ns| FaultKind::Jitter { amplitude_ns }),
        ],
    )
        .prop_map(|(target, start_frac, width, kind)| FaultSpec {
            target,
            start_frac,
            end_frac: start_frac + width,
            kind,
        })
}

/// A full-surface spec: not necessarily cheap to run, but always serializable.
fn spec_strategy() -> impl Strategy<Value = ExperimentSpec> {
    (
        (
            mode_strategy(),
            (0usize..4),
            prop_oneof![
                (10.0f64..100_000.0).prop_map(LoadSpec::Qps),
                (0.05f64..1.2).prop_map(LoadSpec::FractionOfCapacity),
                (0u64..10_000_000).prop_map(|think_ns| LoadSpec::Closed { think_ns }),
                scenario_strategy().prop_map(LoadSpec::Scenario),
            ],
            (1usize..8),
        ),
        ((1usize..10_000), any::<u64>(), (1usize..4), any::<bool>()),
        (
            (1usize..17),
            (1usize..4),
            fanout_strategy(),
            hedge_strategy(),
        ),
        (
            (
                prop::collection::vec(fault_strategy(), 0..3),
                (0usize..4),
                any::<bool>(),
                any::<bool>(),
            ),
            (queue_strategy(), any::<bool>()),
            (
                selector_strategy(),
                any::<bool>(),
                prop::collection::vec(mitigation_strategy(), 0..4),
            ),
        ),
    )
        .prop_map(
            |(
                (mode, scale_pick, load, threads),
                (requests, seed, repeats, fixed_seeds),
                (shards, replication, fanout, hedge),
                (
                    (faults, axis_count, with_topology, with_hedge),
                    (queue, with_queue),
                    (selector, tied, mitigations),
                ),
            )| {
                let mut spec = ExperimentSpec::new("prop", "echo")
                    .with_mode(mode)
                    .with_load(load)
                    .with_threads(threads)
                    .with_requests(requests)
                    .with_seed(seed)
                    .with_repeats(
                        repeats,
                        if fixed_seeds {
                            SeedPolicy::Fixed
                        } else {
                            SeedPolicy::Derive
                        },
                    );
                spec.scale = [
                    None,
                    Some(Scale::Smoke),
                    Some(Scale::Quick),
                    Some(Scale::Full),
                ][scale_pick];
                if with_topology {
                    let mut topology = TopologySpec::sharded(shards).with_replication(replication);
                    topology.fanout = fanout;
                    topology = topology.with_selector(selector).with_tied(tied);
                    if with_hedge {
                        topology = topology.with_hedge(hedge);
                    }
                    spec = spec.with_topology(topology);
                    if !mitigations.is_empty() {
                        spec = spec.with_axis(SweepAxis::Mitigation(mitigations));
                    }
                }
                if with_queue {
                    spec = spec.with_queue(queue);
                }
                spec.interference = faults;
                let axes = [
                    SweepAxis::App(vec!["echo".into(), "xapian".into()]),
                    SweepAxis::Mode(vec![HarnessMode::Integrated, HarnessMode::Simulated]),
                    SweepAxis::LoadFraction(vec![0.25, 0.5, 0.75]),
                    SweepAxis::Threads(vec![1, 2]),
                ];
                for axis in axes.iter().take(axis_count) {
                    spec = spec.with_axis(axis.clone());
                }
                spec
            },
        )
}

proptest! {
    #[test]
    fn any_spec_round_trips_structurally(spec in spec_strategy()) {
        let text = spec.to_json_string();
        let back = ExperimentSpec::from_json_str(&text)
            .map_err(|e| format!("reparse failed: {e}\n{text}"))?;
        prop_assert_eq!(&back, &spec);
        // Canonical: serializing again yields byte-identical text.
        prop_assert_eq!(back.to_json_string(), text);
    }
}

// ---------------------------------------------------------------------------
// Behavioral equivalence under DES.
// ---------------------------------------------------------------------------

struct Echo(u64);

impl AppBuilder for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn build(&self, _scale: Scale) -> BenchApp {
        BenchApp::new("echo", Arc::new(EchoApp { spin_iters: self.0 }), |_| {
            Box::new(|| b"prop".to_vec())
        })
    }
    fn cost_model(&self) -> Box<dyn CostModel> {
        Box::new(InstructionRateModel {
            ns_per_instruction: 1.0,
        })
    }
}

fn echo_registry() -> Registry {
    let mut registry = Registry::empty();
    registry.register(Box::new(Echo(50_000)));
    registry
}

/// A spec that is cheap to actually run under the DES: simulated mode, bounded
/// request counts, optional small topology/sweep.
fn runnable_spec_strategy() -> impl Strategy<Value = ExperimentSpec> {
    (
        ((2_000.0f64..20_000.0), (50usize..150), any::<u64>()),
        ((1usize..3), (0usize..3), any::<bool>()),
    )
        .prop_map(
            |((qps, requests, seed), (threads, shards_pick, sweep_qps))| {
                let mut spec = ExperimentSpec::new("prop-run", "echo")
                    .with_mode(HarnessMode::Simulated)
                    .with_load(LoadSpec::Qps(qps))
                    .with_requests(requests)
                    .with_warmup(requests / 10)
                    .with_threads(threads)
                    .with_seed(seed);
                if shards_pick > 0 {
                    spec = spec.with_topology(
                        TopologySpec::sharded(shards_pick + 1).with_fanout(FanoutPolicy::Broadcast),
                    );
                }
                if sweep_qps {
                    spec = spec.with_axis(SweepAxis::Qps(vec![qps, qps * 1.5]));
                }
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn builder_and_json_paths_produce_bit_identical_reports(spec in runnable_spec_strategy()) {
        let reparsed = ExperimentSpec::from_json_str(&spec.to_json_string())
            .map_err(|e| format!("reparse failed: {e}"))?;
        let from_builder = Experiment::new(spec)
            .with_registry(echo_registry())
            .run()
            .map_err(|e| format!("builder run failed: {e}"))?;
        let from_json = Experiment::new(reparsed)
            .with_registry(echo_registry())
            .run()
            .map_err(|e| format!("json run failed: {e}"))?;
        prop_assert_eq!(from_builder.to_json_string(), from_json.to_json_string());
    }
}

// ---------------------------------------------------------------------------
// Golden JSON output.
// ---------------------------------------------------------------------------

#[test]
fn golden_fixed_seed_json_output_is_pinned() {
    let spec = ExperimentSpec::new("golden-json", "echo")
        .with_mode(HarnessMode::Simulated)
        .with_load(LoadSpec::Qps(5_000.0))
        .with_requests(1_000)
        .with_warmup(100)
        .with_seed(0x601D);
    let mut registry = Registry::empty();
    registry.register(Box::new(Echo(100_000)));
    let output = Experiment::new(spec).with_registry(registry).run().unwrap();
    let text = output.to_json_string();

    // The exact golden percentiles (same constants as tests/golden_determinism.rs)
    // must appear in the machine-readable output…
    assert!(text.contains("\"p50_ns\": 100010"), "{text}");
    assert!(text.contains("\"p95_ns\": 294185"), "{text}");
    assert!(text.contains("\"p99_ns\": 451793"), "{text}");
    // …the output must verify…
    assert_eq!(tailbench_experiment::verify_output_text(&text), Ok(1));
    // …and re-running produces byte-identical text (full pipeline determinism).
    let again = Experiment::new(
        ExperimentSpec::new("golden-json", "echo")
            .with_mode(HarnessMode::Simulated)
            .with_load(LoadSpec::Qps(5_000.0))
            .with_requests(1_000)
            .with_warmup(100)
            .with_seed(0x601D),
    )
    .with_registry({
        let mut registry = Registry::empty();
        registry.register(Box::new(Echo(100_000)));
        registry
    })
    .run()
    .unwrap();
    assert_eq!(again.to_json_string(), text);
}
