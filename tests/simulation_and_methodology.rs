//! Integration tests of the evaluation methodology: simulated runs agree qualitatively
//! with real-time runs, the repeated-run controller converges, and the queueing model is
//! consistent with the discrete-event harness.

use std::sync::Arc;
use tailbench::core::config::{BenchmarkConfig, HarnessMode};
use tailbench::core::{runner, RepeatPolicy, RequestFactory, ServerApp};
use tailbench::simarch::{MachineConfig, SystemModel};

fn masstree() -> (Arc<dyn ServerApp>, impl Fn(u64) -> Box<dyn RequestFactory>) {
    use tailbench::apps::kvstore::{MasstreeApp, YcsbRequestFactory};
    use tailbench::workloads::ycsb::YcsbConfig;
    let workload = YcsbConfig::small();
    let app: Arc<dyn ServerApp> = Arc::new(MasstreeApp::new(&workload));
    (app, move |seed| {
        Box::new(YcsbRequestFactory::new(&workload, seed)) as Box<dyn RequestFactory>
    })
}

#[test]
fn simulated_latency_grows_with_load_like_the_real_system() {
    let (app, make_factory) = masstree();
    let model = SystemModel::new(MachineConfig::table_ii());

    let run = |mode: HarnessMode, qps: f64| {
        let mut factory = make_factory(1);
        runner::execute(
            &app,
            factory.as_mut(),
            &BenchmarkConfig::new(qps, 1_500)
                .with_warmup(150)
                .with_mode(mode)
                .with_seed(11),
            Some(&model),
        )
        .expect("run")
    };

    // Find the simulated capacity from a low-load run's mean service time, then compare
    // a ~2% load point against a ~85% load point.
    let sim_probe = run(HarnessMode::Simulated, 10_000.0);
    let sim_capacity_qps = 1e9 / sim_probe.service.mean_ns.max(1.0);
    let sim_low = run(HarnessMode::Simulated, sim_capacity_qps * 0.02);
    let sim_high = run(HarnessMode::Simulated, sim_capacity_qps * 0.85);
    assert!(
        sim_high.sojourn.p95_ns > sim_low.sojourn.p95_ns,
        "simulated p95 must grow with load ({} -> {} at capacity {sim_capacity_qps:.0})",
        sim_low.sojourn.p95_ns,
        sim_high.sojourn.p95_ns
    );

    // The real system: 100k QPS is the sub-saturation point and, like the simulated probe,
    // gives the capacity through its mean service time; the high point is 85 % of that.
    // The harness must carry 100k QPS without saturating, so the checks cannot pass on
    // overload alone.  The 100k tail is not compared with the 2k one: at 2k QPS the worker
    // parks between requests and its wake-up, not queueing, sets the tail, so a point a
    // few percent loaded can read a lower p95 when nothing holds the worker's core.
    let real_low = run(HarnessMode::Integrated, 2_000.0);
    let real_mid = run(HarnessMode::Integrated, 100_000.0);
    let real_capacity_qps = 1e9 / real_mid.service.mean_ns.max(1.0);
    let real_high = run(HarnessMode::Integrated, real_capacity_qps * 0.85);
    assert!(
        !real_mid.is_saturated(0.1),
        "the harness must carry 100k QPS ({:.0} QPS delivered)",
        real_mid.achieved_qps
    );
    assert!(
        real_high.sojourn.p95_ns > real_mid.sojourn.p95_ns
            && real_high.sojourn.p95_ns >= real_low.sojourn.p95_ns,
        "real p95 must grow with load (2k: {}, 100k: {}, {:.0}: {})",
        real_low.sojourn.p95_ns,
        real_mid.sojourn.p95_ns,
        real_capacity_qps * 0.85,
        real_high.sojourn.p95_ns
    );
}

#[test]
fn idealized_memory_never_slows_a_simulated_run() {
    let (app, make_factory) = masstree();
    let realistic = SystemModel::new(MachineConfig::table_ii());
    let idealized = SystemModel::idealized_memory(MachineConfig::table_ii());
    let config = BenchmarkConfig::new(20_000.0, 1_000)
        .with_warmup(100)
        .with_mode(HarnessMode::Simulated)
        .with_seed(13);

    let mut factory = make_factory(2);
    let real = runner::execute(&app, factory.as_mut(), &config, Some(&realistic)).unwrap();
    let mut factory = make_factory(2);
    let ideal = runner::execute(&app, factory.as_mut(), &config, Some(&idealized)).unwrap();
    assert!(ideal.service.mean_ns <= real.service.mean_ns);
}

#[test]
fn repeated_runs_converge_and_report_confidence_intervals() {
    let (app, make_factory) = masstree();
    let multi = runner::run_repeated(
        &app,
        |seed| make_factory(seed),
        &BenchmarkConfig::new(2_000.0, 400).with_warmup(40),
        RepeatPolicy {
            min_runs: 3,
            max_runs: 6,
            target_fraction: 0.25,
        },
        None,
    )
    .expect("repeated runs");
    assert!(multi.runs.len() >= 3);
    assert!(multi.p95_ci.mean > 0.0);
    assert!(multi.representative_run().is_some());
}

#[test]
fn queueing_model_matches_the_simulated_harness_for_constant_service() {
    // For near-deterministic service times the DES harness and the M/G/1 model must
    // agree on the mean sojourn time at moderate load.
    use tailbench::core::app::{EchoApp, InstructionRateModel};
    use tailbench::queueing::{EmpiricalDistribution, MgkSimulation};

    let app: Arc<dyn ServerApp> = Arc::new(EchoApp {
        spin_iters: 100_000,
    });
    let model = InstructionRateModel {
        ns_per_instruction: 1.0,
    }; // ~100 us per request
    let mut factory = || vec![0u8];
    let report = runner::execute(
        &app,
        &mut factory,
        &BenchmarkConfig::new(5_000.0, 4_000)
            .with_warmup(400)
            .with_mode(HarnessMode::Simulated)
            .with_seed(3),
        Some(&model),
    )
    .unwrap();

    let queue_model = MgkSimulation::new(EmpiricalDistribution::new(vec![100_010; 100]), 1);
    let predicted = queue_model.run(5_000.0, 100_000, 3);
    let ratio = report.sojourn.mean_ns / predicted.mean_ns();
    assert!(
        (0.7..1.3).contains(&ratio),
        "harness mean {} vs model mean {} (ratio {ratio})",
        report.sojourn.mean_ns,
        predicted.mean_ns()
    );
}

#[test]
fn closed_loop_underestimates_tail_latency() {
    use tailbench::core::LoadMode;
    let (app, make_factory) = masstree();

    // Push the open-loop system to a high load; the closed-loop client at the same
    // average think rate cannot observe the queuing it causes.
    let mut factory = make_factory(4);
    let capacity = runner::measure_capacity(&app, factory.as_mut(), 1, 2_000);
    let qps = capacity * 0.9;

    let mut factory = make_factory(4);
    let open = runner::execute(
        &app,
        factory.as_mut(),
        &BenchmarkConfig::new(qps, 2_000)
            .with_warmup(200)
            .with_seed(5),
        None,
    )
    .unwrap();
    let mut factory = make_factory(4);
    let closed = runner::execute(
        &app,
        factory.as_mut(),
        &BenchmarkConfig::new(qps, 2_000)
            .with_warmup(200)
            .with_seed(5)
            .with_load(LoadMode::Closed {
                think_ns: (1e9 / qps) as u64,
            }),
        None,
    )
    .unwrap();
    assert!(
        open.sojourn.p95_ns > closed.sojourn.p95_ns,
        "open-loop p95 {} must exceed closed-loop p95 {}",
        open.sojourn.p95_ns,
        closed.sojourn.p95_ns
    );
}
