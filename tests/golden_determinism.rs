//! Golden determinism regression tests.
//!
//! A `Simulated` run advances a virtual clock through a discrete-event loop, so for a
//! fixed seed its percentiles are *exact* constants — independent of host speed, core
//! count and OS scheduling.  These tests pin those constants for a single-server run
//! and for two 4-shard cluster runs (broadcast and hash-routed): any accidental change
//! to the virtual-clock event ordering (tie-breaking, queue discipline, routing, the
//! fan-out merge) fails loudly here instead of silently shifting every simulated
//! result.  A third group pins the cluster mitigation paths — hedging into a
//! deadline-shedding queue, tied requests under class priority, and a short burst
//! trace — down to hedge counters, admission totals and unmerged fan-outs.
//!
//! The same constants are additionally pinned **through the unified experiment
//! layer**: an `ExperimentSpec` with no sweep and one repeat must reproduce the direct
//! `runner::execute`/`execute_cluster` call bit for bit — including when the spec
//! first round-trips through its JSON form (the path the `tailbench` CLI takes).  The
//! registry's xapian and masstree apps are pinned the same way at smoke scale, down to
//! the exact achieved rate and admission counters.
//!
//! If you change the event ordering *on purpose*, re-derive the constants by printing
//! the asserted fields from a release run and update them together with a DESIGN.md
//! note.

use std::sync::Arc;
use std::time::Duration;
use tailbench::core::app::{CostModel, EchoApp, InstructionRateModel};
use tailbench::core::config::{
    BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode, HedgePolicy,
};
use tailbench::core::{
    runner, AdmissionPolicy, ClusterReport, InterferencePlan, LoadMode, LoadTrace, RequestFactory,
    RequestTags, RunReport, ServerApp,
};
use tailbench::experiment::output::run_report_to_json;
use tailbench::experiment::{
    AppBuilder, BenchApp, ClusterApp, Experiment, ExperimentSpec, LoadSpec, PointReport, Registry,
    Scale, ScenarioSpec, SeedPolicy, TopologySpec,
};
use tailbench::scenario::{execute_scenario, ClientClass, LoadPhase, Scenario};
use tailbench::workloads::rng::derive_seed;

/// The shared fixed-seed configuration: 5k QPS Poisson arrivals, 1000 measured
/// requests after 100 warmup, seed 0x601D.
fn golden_config() -> BenchmarkConfig {
    BenchmarkConfig::new(5_000.0, 1_000)
        .with_warmup(100)
        .with_seed(0x601D)
        .with_mode(HarnessMode::Simulated)
}

/// EchoApp reports `10 + spin_iters` instructions, so at 1 ns/instruction the service
/// time is exactly `spin_iters + 10` ns — all remaining variation comes from the
/// seeded Poisson arrival process.
fn cost_model() -> InstructionRateModel {
    InstructionRateModel {
        ns_per_instruction: 1.0,
    }
}

#[test]
fn single_server_simulated_percentiles_are_exact() {
    let app: Arc<dyn ServerApp> = Arc::new(EchoApp {
        spin_iters: 100_000,
    });
    let mut factory = || b"golden".to_vec();
    let report =
        runner::execute(&app, &mut factory, &golden_config(), Some(&cost_model())).unwrap();
    assert_eq!(report.requests, 1_000);
    assert_eq!(report.sojourn.p50_ns, 100_010);
    assert_eq!(report.sojourn.p95_ns, 294_185);
    assert_eq!(report.sojourn.p99_ns, 451_793);
}

/// Four heterogeneous shards (shard `i` costs `100_000 + 15_000 * i` ns) under
/// broadcast fan-out: per-shard and end-to-end percentiles are all pinned, and the
/// end-to-end distribution must equal the slowest-leg merge.
#[test]
fn four_shard_broadcast_cluster_percentiles_are_exact() {
    let apps: Vec<Arc<dyn ServerApp>> = (0..4)
        .map(|i| {
            Arc::new(EchoApp {
                spin_iters: 100_000 + 15_000 * i,
            }) as Arc<dyn ServerApp>
        })
        .collect();
    let cluster = ClusterConfig::new(4, FanoutPolicy::Broadcast);
    let mut factory = || b"golden".to_vec();
    let report = runner::execute_cluster(
        &apps,
        &mut factory,
        &golden_config(),
        &cluster,
        Some(&cost_model()),
    )
    .unwrap();

    assert_eq!(report.cluster.requests, 1_000);
    assert_eq!(report.cluster.sojourn.p50_ns, 252_115);
    assert_eq!(report.cluster.sojourn.p95_ns, 757_913);
    assert_eq!(report.cluster.sojourn.p99_ns, 1_150_870);

    let shard_p99 = [451_793u64, 606_360, 766_184, 1_150_870];
    for (shard, &expected) in report.per_shard.iter().zip(shard_p99.iter()) {
        assert_eq!(shard.requests, 1_000);
        assert_eq!(shard.sojourn.p99_ns, expected);
    }
    // The union-of-legs view flows through the histogram merge path.
    assert_eq!(report.shard_union_sojourn.p99_ns, 851_492);
    // With the slowest shard dominating, the end-to-end p99 equals shard 3's p99.
    assert_eq!(report.cluster.sojourn.p99_ns, report.max_shard_p99_ns());
}

/// The same four shards behind hash-by-key routing: the FNV-1a router must keep
/// splitting a sequential key stream into the same per-shard loads, and the routed
/// percentiles stay exact.
#[test]
fn four_shard_hash_routed_cluster_percentiles_are_exact() {
    let apps: Vec<Arc<dyn ServerApp>> = (0..4)
        .map(|i| {
            Arc::new(EchoApp {
                spin_iters: 100_000 + 15_000 * i,
            }) as Arc<dyn ServerApp>
        })
        .collect();
    let cluster = ClusterConfig::new(4, FanoutPolicy::HashKey { offset: 0, len: 8 });
    let mut key = 0u64;
    let mut factory = move || {
        key += 1;
        key.to_le_bytes().to_vec()
    };
    let report = runner::execute_cluster(
        &apps,
        &mut factory,
        &golden_config(),
        &cluster,
        Some(&cost_model()),
    )
    .unwrap();

    assert_eq!(report.cluster.requests, 1_000);
    assert_eq!(
        report
            .per_shard
            .iter()
            .map(|s| s.requests)
            .collect::<Vec<_>>(),
        vec![250, 250, 250, 250],
        "FNV-1a routing of sequential keys must stay stable"
    );
    assert_eq!(report.cluster.sojourn.p50_ns, 130_010);
    assert_eq!(report.cluster.sojourn.p95_ns, 145_010);
    assert_eq!(report.cluster.sojourn.p99_ns, 145_010);
}

// ---------------------------------------------------------------------------
// The same constants through Experiment::run().
// ---------------------------------------------------------------------------

/// The golden echo workload as a registry entry: fixed `b"golden"` payloads, the exact
/// 1 ns/instruction cost model, and the heterogeneous 4-shard cluster layout.
struct GoldenEcho;

impl AppBuilder for GoldenEcho {
    fn name(&self) -> &str {
        "golden-echo"
    }
    fn build(&self, _scale: Scale) -> BenchApp {
        BenchApp::new(
            "golden-echo",
            Arc::new(EchoApp {
                spin_iters: 100_000,
            }),
            |_| Box::new(|| b"golden".to_vec()),
        )
    }
    fn build_cluster(&self, shards: usize, replication: usize, _scale: Scale) -> ClusterApp {
        assert_eq!(replication, 1, "the golden cluster is unreplicated");
        let instances = (0..shards as u64)
            .map(|i| {
                Arc::new(EchoApp {
                    spin_iters: 100_000 + 15_000 * i,
                }) as Arc<dyn ServerApp>
            })
            .collect();
        ClusterApp::new("golden-echo", instances, |_| {
            Box::new(|| b"golden".to_vec())
        })
    }
    fn cost_model(&self) -> Box<dyn CostModel> {
        Box::new(cost_model())
    }
}

fn golden_registry() -> Registry {
    let mut registry = Registry::empty();
    registry.register(Box::new(GoldenEcho));
    registry
}

/// The spec equivalent of [`golden_config`].
fn golden_spec() -> ExperimentSpec {
    ExperimentSpec::new("golden", "golden-echo")
        .with_mode(HarnessMode::Simulated)
        .with_load(LoadSpec::Qps(5_000.0))
        .with_requests(1_000)
        .with_warmup(100)
        .with_seed(0x601D)
}

#[test]
fn experiment_single_server_path_reproduces_the_golden_percentiles() {
    let output = Experiment::new(golden_spec())
        .with_registry(golden_registry())
        .run()
        .unwrap();
    assert_eq!(output.points.len(), 1);
    let report = output.points[0].report.headline();
    assert_eq!(report.requests, 1_000);
    assert_eq!(report.sojourn.p50_ns, 100_010);
    assert_eq!(report.sojourn.p95_ns, 294_185);
    assert_eq!(report.sojourn.p99_ns, 451_793);
}

#[test]
fn experiment_cluster_path_reproduces_the_golden_percentiles() {
    let spec =
        golden_spec().with_topology(TopologySpec::sharded(4).with_fanout(FanoutPolicy::Broadcast));
    let output = Experiment::new(spec)
        .with_registry(golden_registry())
        .run()
        .unwrap();
    let report = output.points[0].report.cluster().expect("cluster report");
    assert_eq!(report.cluster.requests, 1_000);
    assert_eq!(report.cluster.sojourn.p50_ns, 252_115);
    assert_eq!(report.cluster.sojourn.p95_ns, 757_913);
    assert_eq!(report.cluster.sojourn.p99_ns, 1_150_870);
    assert_eq!(report.shard_union_sojourn.p99_ns, 851_492);
}

#[test]
fn experiment_json_round_trip_reproduces_the_golden_percentiles() {
    // Serialize the golden spec, parse it back (the CLI's spec-file path), run it,
    // and compare the full JSON output against the builder-constructed run.
    let spec =
        golden_spec().with_topology(TopologySpec::sharded(4).with_fanout(FanoutPolicy::Broadcast));
    let reparsed = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
    assert_eq!(reparsed, spec);

    let from_builder = Experiment::new(spec)
        .with_registry(golden_registry())
        .run()
        .unwrap();
    let from_json = Experiment::new(reparsed)
        .with_registry(golden_registry())
        .run()
        .unwrap();
    assert_eq!(
        from_builder.to_json_string(),
        from_json.to_json_string(),
        "spec-file and builder paths must produce byte-identical output"
    );
    let report = from_json.points[0].report.cluster().unwrap();
    assert_eq!(report.cluster.sojourn.p99_ns, 1_150_870);
}

// ---------------------------------------------------------------------------
// A topology-less spec through Experiment::run() equals the direct single-server
// entrypoints, compared field for field through the output JSON encoder.
// ---------------------------------------------------------------------------

fn run_json(report: &RunReport) -> String {
    run_report_to_json(report).to_text()
}

fn golden_echo() -> Arc<dyn ServerApp> {
    GoldenEcho.build(Scale::Smoke).app
}

#[test]
fn experiment_scenario_spec_equals_a_direct_execute_scenario() {
    let phases = vec![
        LoadPhase::constant(4_000.0, Duration::from_millis(100)),
        LoadPhase::burst(
            4_000.0,
            9_000.0,
            Duration::from_millis(20),
            0.5,
            Duration::from_millis(100),
        ),
    ];
    let classes = vec![
        ClientClass::new("interactive", 0.7),
        ClientClass::new("batch", 0.3),
    ];
    let spec = golden_spec().with_load(LoadSpec::Scenario(ScenarioSpec {
        phases: phases.clone(),
        classes: classes.clone(),
        warmup_fraction: 0.1,
    }));
    let output = Experiment::new(spec)
        .with_registry(golden_registry())
        .run()
        .unwrap();
    let PointReport::Single(through_spec) = &output.points[0].report else {
        panic!("a topology-less single-repeat point reports a single run");
    };

    let scenario = Scenario::new("golden", phases)
        .with_classes(classes)
        .with_warmup_fraction(0.1);
    let factories: Vec<Box<dyn RequestFactory>> = vec![
        Box::new(|| b"golden".to_vec()),
        Box::new(|| b"golden".to_vec()),
    ];
    let direct = execute_scenario(
        &golden_echo(),
        factories,
        &scenario,
        HarnessMode::Simulated,
        1,
        0x601D,
        Some(&cost_model()),
    )
    .unwrap();
    assert_eq!(direct.per_class.len(), 2);
    assert_eq!(run_json(through_spec), run_json(&direct));
}

#[test]
fn experiment_closed_loop_spec_equals_a_direct_runner_execute() {
    let spec = golden_spec()
        .with_load(LoadSpec::Closed { think_ns: 1_000 })
        .with_threads(2);
    let output = Experiment::new(spec)
        .with_registry(golden_registry())
        .run()
        .unwrap();
    let PointReport::Single(through_spec) = &output.points[0].report else {
        panic!("a topology-less single-repeat point reports a single run");
    };

    let config = BenchmarkConfig::new(1.0, 1_000)
        .with_threads(2)
        .with_warmup(100)
        .with_seed(0x601D)
        .with_mode(HarnessMode::Simulated)
        .with_load(LoadMode::Closed { think_ns: 1_000 });
    let mut factory = || b"golden".to_vec();
    let direct =
        runner::execute(&golden_echo(), &mut factory, &config, Some(&cost_model())).unwrap();
    assert_eq!(direct.requests, 1_000);
    assert_eq!(run_json(through_spec), run_json(&direct));
}

#[test]
fn experiment_repeats_each_equal_a_direct_runner_execute_at_the_derived_seed() {
    let spec = golden_spec().with_repeats(3, SeedPolicy::Derive);
    let output = Experiment::new(spec)
        .with_registry(golden_registry())
        .run()
        .unwrap();
    let PointReport::Multi(multi) = &output.points[0].report else {
        panic!("a topology-less repeated point reports a multi-run aggregate");
    };
    assert_eq!(multi.runs.len(), 3);
    for (k, through_spec) in multi.runs.iter().enumerate() {
        let config = golden_config().with_seed(derive_seed(0x601D, k as u64));
        let mut factory = || b"golden".to_vec();
        let direct =
            runner::execute(&golden_echo(), &mut factory, &config, Some(&cost_model())).unwrap();
        assert_eq!(run_json(through_spec), run_json(&direct), "repeat {k}");
    }
}

// ---------------------------------------------------------------------------
// The registry's real applications through Experiment::run().
// ---------------------------------------------------------------------------

/// What a registry-app golden pins: the headline percentiles, the exact achieved rate
/// and the admission counters.
#[derive(Debug, PartialEq)]
struct AppGolden {
    requests: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    achieved_qps: f64,
    accepted: u64,
    dropped: u64,
    peak_depth: u64,
}

/// Pins real application cost models (not the echo app) through the built-in registry
/// at smoke scale: xapian and masstree on one server, and xapian behind a 4-shard
/// broadcast.  These catch changes to the smoke-scale inputs, the apps' instruction
/// counts and the registry's cost models, which the echo goldens above cannot see.
#[test]
fn registry_apps_simulated_results_are_exact() {
    let run = |spec: ExperimentSpec| {
        let spec = spec
            .with_scale(Scale::Smoke)
            .with_mode(HarnessMode::Simulated)
            .with_seed(0x601D);
        let output = Experiment::new(spec)
            .with_registry(Registry::builtin())
            .run()
            .unwrap();
        assert_eq!(output.points.len(), 1);
        let report = output.points[0].report.headline();
        AppGolden {
            requests: report.requests,
            p50_ns: report.sojourn.p50_ns,
            p95_ns: report.sojourn.p95_ns,
            p99_ns: report.sojourn.p99_ns,
            achieved_qps: report.achieved_qps,
            accepted: report.queue_depth.accepted,
            dropped: report.queue_depth.dropped,
            peak_depth: report.queue_depth.peak_depth,
        }
    };

    let xapian = ExperimentSpec::new("xapian-single", "xapian")
        .with_load(LoadSpec::Qps(2_000.0))
        .with_requests(600)
        .with_warmup(60);
    assert_eq!(
        run(xapian),
        AppGolden {
            requests: 600,
            p50_ns: 41_405,
            p95_ns: 123_602,
            p99_ns: 172_255,
            achieved_qps: 2_083.079_053_030_596_2,
            accepted: 660,
            dropped: 0,
            peak_depth: 3,
        }
    );

    let masstree = ExperimentSpec::new("masstree-single", "masstree")
        .with_load(LoadSpec::Qps(10_000.0))
        .with_requests(800)
        .with_warmup(80);
    assert_eq!(
        run(masstree),
        AppGolden {
            requests: 800,
            p50_ns: 397,
            p95_ns: 397,
            p99_ns: 397,
            achieved_qps: 10_109.960_735_187_246,
            accepted: 880,
            dropped: 0,
            peak_depth: 1,
        }
    );

    let broadcast = ExperimentSpec::new("xapian-broadcast4", "xapian")
        .with_topology(TopologySpec::sharded(4).with_fanout(FanoutPolicy::Broadcast))
        .with_load(LoadSpec::Qps(1_500.0))
        .with_requests(600)
        .with_warmup(60);
    assert_eq!(
        run(broadcast),
        AppGolden {
            requests: 600,
            p50_ns: 9_467,
            p95_ns: 26_639,
            p99_ns: 36_606,
            achieved_qps: 1_562.313_454_077_648_7,
            accepted: 2_640,
            dropped: 0,
            peak_depth: 1,
        }
    );
}

// ---------------------------------------------------------------------------
// Cluster mitigation paths: shedding under hedging, tied requests under priority
// admission, and a trace shorter than the run.
// ---------------------------------------------------------------------------

/// The four heterogeneous echo instances of the 2-shard × 2-replica mitigation layout.
fn mitigation_apps() -> Vec<Arc<dyn ServerApp>> {
    (0..4u64)
        .map(|i| {
            Arc::new(EchoApp {
                spin_iters: 100_000 + 15_000 * i,
            }) as Arc<dyn ServerApp>
        })
        .collect()
}

/// The golden config with instance 1 (shard 0's second replica) slowed 20x.
fn straggler_config(qps: f64) -> BenchmarkConfig {
    BenchmarkConfig::new(qps, 1_000)
        .with_warmup(100)
        .with_seed(0x601D)
        .with_mode(HarnessMode::Simulated)
        .with_interference(InterferencePlan::none().slow_instance(1, 0, u64::MAX, 20.0))
}

/// Everything a mitigation golden pins: end-to-end percentiles, hedge counters, the
/// admission totals over all stations (the report aggregates per-station queues), the
/// per-shard leg counts and the number of requests whose fan-out never merged.
#[derive(Debug, PartialEq)]
struct MitigationGolden {
    requests: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    hedge_issued: u64,
    hedge_wins: u64,
    accepted: u64,
    dropped: u64,
    per_shard: Vec<u64>,
    unmerged: u64,
}

fn golden_of(report: &ClusterReport) -> MitigationGolden {
    let hedge = report.hedge.expect("mitigated runs report hedge stats");
    MitigationGolden {
        requests: report.cluster.requests,
        p50_ns: report.cluster.sojourn.p50_ns,
        p95_ns: report.cluster.sojourn.p95_ns,
        p99_ns: report.cluster.sojourn.p99_ns,
        hedge_issued: hedge.issued,
        hedge_wins: hedge.wins,
        accepted: report.cluster.queue_depth.accepted,
        dropped: report.cluster.queue_depth.dropped,
        per_shard: report.per_shard.iter().map(|s| s.requests).collect(),
        unmerged: report.unmerged,
    }
}

/// Pins the cluster DES paths the goldens above leave open: hedge copies shed after
/// admission by a deadline queue (and hedges issued for legs whose primary was shed),
/// tied copies evicted by class priority (including legs with both copies shed and
/// losers retracted from the sibling queue), and a burst trace with tied timestamps
/// that is shorter than `total_requests()`.
#[test]
fn cluster_mitigation_paths_are_exact() {
    let base = ClusterConfig::new(2, FanoutPolicy::Broadcast).with_replication(2);
    let run = |config: &BenchmarkConfig, cluster: &ClusterConfig| {
        let mut factory = || b"golden".to_vec();
        runner::execute_cluster(
            &mitigation_apps(),
            &mut factory,
            config,
            cluster,
            Some(&cost_model()),
        )
        .unwrap()
    };

    // Hedging into a deadline-shedding queue.
    let config = straggler_config(7_000.0).with_admission(AdmissionPolicy::DropDeadline {
        capacity: 4,
        slo_ns: 300_000,
    });
    let hedged = run(
        &config,
        &base.clone().with_hedge(HedgePolicy::after_ns(200_000)),
    );
    assert_eq!(
        golden_of(&hedged),
        MitigationGolden {
            requests: 973,
            p50_ns: 300_010,
            p95_ns: 520_045,
            p99_ns: 594_084,
            hedge_issued: 976,
            hedge_wins: 583,
            accepted: 2_476,
            dropped: 718,
            per_shard: vec![984, 985],
            unmerged: 24,
        }
    );

    // Tied requests into a class-priority queue: odd ids are the batch class.
    let total = 1_100usize;
    let tags = Arc::new(RequestTags::new(
        vec!["interactive".into(), "batch".into()],
        vec!["all".into()],
        (0..total).map(|i| (i % 2) as u16).collect(),
        vec![0; total],
    ));
    let config = straggler_config(9_000.0)
        .with_tags(tags)
        .with_admission(AdmissionPolicy::Priority { capacity: 4 });
    let tied = run(&config, &base.clone().with_tied(true));
    assert_eq!(
        golden_of(&tied),
        MitigationGolden {
            requests: 826,
            p50_ns: 454_558,
            p95_ns: 611_537,
            p99_ns: 636_407,
            hedge_issued: 2_200,
            hedge_wins: 909,
            accepted: 3_774,
            dropped: 626,
            per_shard: vec![936, 831],
            unmerged: 124,
        }
    );
    let per_class: Vec<u64> = tied
        .cluster
        .per_class
        .iter()
        .map(|c| c.sojourn.count)
        .collect();
    assert_eq!(
        per_class,
        vec![495, 331],
        "the batch class absorbs the shedding"
    );

    // A 700-arrival burst trace (triples of tied timestamps) under a 1 100-request run:
    // the trace's full length is simulated, 600 of it measured.
    let times: Vec<u64> = (0..700u64)
        .map(|i| (i / 3) * 600_000 + (i % 7) / 5 * 40_000)
        .collect();
    let mut times_sorted = times;
    times_sorted.sort_unstable();
    let config = golden_config().with_load(LoadMode::trace(LoadTrace::from_times(times_sorted)));
    let traced = run(&config, &base.with_hedge(HedgePolicy::after_ns(150_000)));
    assert_eq!(
        golden_of(&traced),
        MitigationGolden {
            requests: 600,
            p50_ns: 145_010,
            p95_ns: 280_010,
            p99_ns: 280_010,
            hedge_issued: 466,
            hedge_wins: 51,
            accepted: 1_866,
            dropped: 0,
            per_shard: vec![600, 600],
            unmerged: 0,
        }
    );
}
