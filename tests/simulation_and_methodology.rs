//! Integration tests of the evaluation methodology: simulated runs agree qualitatively
//! with real-time runs, and the discrete-event simulator matches closed-form queueing
//! results within their sampling error.

use std::sync::Arc;
use tailbench::core::config::{BenchmarkConfig, HarnessMode};
use tailbench::core::{runner, EmpiricalService, RequestFactory, RunReport, ServerApp};
use tailbench::queueing::{mm1_sojourn_quantile_s, Mg1Model, MmkModel};
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

/// Measured requests per closed-form check (a tenth more run as warmup).  Under the
/// 262,144 samples a latency summary keeps exactly, so percentiles carry no histogram
/// error.
const QUEUE_REQUESTS: usize = 200_000;

/// Mean service time of the closed-form checks: 100 µs, so rounding a sample to whole
/// nanoseconds is negligible.
const MEAN_SERVICE_S: f64 = 1e-4;

/// Runs the core DES on one instance with `servers` workers under Poisson arrivals at
/// `qps`, each request served for a service time drawn from `samples_ns`.
fn simulate_queue(samples_ns: Vec<u64>, servers: usize, qps: f64) -> RunReport {
    let service = EmpiricalService::new(samples_ns).expect("service samples");
    let app: Arc<dyn ServerApp> = Arc::new(service.clone());
    let config = BenchmarkConfig::new(qps, QUEUE_REQUESTS)
        .with_mode(HarnessMode::Simulated)
        .with_threads(servers)
        .with_warmup(QUEUE_REQUESTS / 10)
        .with_seed(1);
    let mut factory = service.factory(1);
    let model = &EmpiricalService::COST_MODEL;
    runner::execute(&app, &mut factory, &config, Some(model)).expect("simulated queue")
}

/// Exponential service times: the midpoints of `n` equal-probability bins of the
/// exponential distribution with mean `mean_s`.  A fixed grid, so a run's only error is
/// its own sampling error.
fn exponential_grid(mean_s: f64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| (-(1.0 - (i as f64 + 0.5) / n as f64).ln() * mean_s * 1e9).round() as u64)
        .collect()
}

fn assert_close(what: &str, simulated: f64, exact: f64, tolerance: f64) {
    let error = simulated / exact - 1.0;
    assert!(
        error.abs() <= tolerance,
        "{what}: simulated {simulated:.4e}, closed form {exact:.4e}, error {:+.2}% (tolerance {:.1}%)",
        error * 100.0,
        tolerance * 100.0
    );
}

#[test]
fn simulated_sojourn_quantiles_match_mm1() {
    // M/M/1 sojourn is exponential with rate μ − λ: the q quantile is −ln(1 − q)/(μ − λ).
    // Tolerance: four standard deviations of the relative error over 30 seeds at this
    // size (0.6 % at p50, 0.9 % at p95, 1.3 % at p99), rounded up to the next half
    // percent; the grid's truncated tail, about −0.2 %, sits inside.  A 5 % longer
    // service moves every quantile 10.6 %.
    let lambda = 0.5 / MEAN_SERVICE_S;
    let report = simulate_queue(exponential_grid(MEAN_SERVICE_S, 10_000), 1, lambda);
    for (q, simulated_ns, tolerance) in [
        (0.50, report.sojourn.p50_ns, 0.025),
        (0.95, report.sojourn.p95_ns, 0.04),
        (0.99, report.sojourn.p99_ns, 0.055),
    ] {
        let exact = mm1_sojourn_quantile_s(MEAN_SERVICE_S, lambda, q);
        assert_close(
            &format!("M/M/1 p{}", q * 100.0),
            simulated_ns as f64 * 1e-9,
            exact,
            tolerance,
        );
    }
}

#[test]
fn simulated_mean_sojourn_matches_pollaczek_khinchine() {
    // Deterministic (M/D/1) and two-point (50 or 150 µs) service at ρ = 0.5.
    // Tolerance: 1.5 %, four standard deviations of the relative error over 30 seeds at
    // this size (0.26 % M/D/1, 0.34 % two-point), rounded up to the next half percent.  A 5 % longer service moves
    // the means 8.6 % and 9.2 %.
    let lambda = 0.5 / MEAN_SERVICE_S;
    for samples in [vec![100_000], vec![50_000, 150_000]] {
        let exact = Mg1Model::from_samples_ns(&samples).mean_sojourn_s(lambda);
        let report = simulate_queue(samples.clone(), 1, lambda);
        let what = format!("M/G/1 mean sojourn, service {samples:?} ns");
        assert_close(&what, report.sojourn.mean_ns * 1e-9, exact, 0.015);
    }
}

#[test]
fn simulated_waits_match_erlang_c() {
    // M/M/4 at ρ = 0.5.  A wait is zero with probability 1 − C and otherwise exponential
    // with rate kμ − λ, so the wait p95 gives P(wait) = 0.05·e^{(kμ − λ)·p95}; the
    // report carries wait percentiles, not the share of zero waits.
    // Tolerance: four standard deviations of the relative error over 30 seeds at this
    // size (2.4 % mean wait, 2.7 % P(wait)), rounded up to the next whole percent.  A 5 % longer service moves
    // them 27 % and 33 %.
    let mmk = MmkModel {
        servers: 4,
        mean_service_s: MEAN_SERVICE_S,
    };
    let lambda = 0.5 * 4.0 / MEAN_SERVICE_S;
    let report = simulate_queue(exponential_grid(MEAN_SERVICE_S, 10_000), 4, lambda);
    let drain_rate = 4.0 / MEAN_SERVICE_S - lambda;
    let p_wait = 0.05 * (drain_rate * report.queue.p95_ns as f64 * 1e-9).exp();
    assert_close("M/M/4 P(wait)", p_wait, mmk.wait_probability(lambda), 0.11);
    assert_close(
        "M/M/4 mean wait",
        report.queue.mean_ns * 1e-9,
        mmk.mean_wait_s(lambda),
        0.10,
    );
}

#[test]
fn simulated_tail_grows_sharply_near_saturation() {
    // The knee of Fig. 8: the M/M/1 sojourn p95 is ln 20 / (μ − λ), so going from
    // ρ = 0.5 to ρ = 0.9 multiplies the load by 1.8 and the tail by 5.
    let samples = exponential_grid(MEAN_SERVICE_S, 10_000);
    let p95_at = |rho: f64| {
        simulate_queue(samples.clone(), 1, rho / MEAN_SERVICE_S)
            .sojourn
            .p95_ns
    };
    let growth = p95_at(0.9) as f64 / p95_at(0.5) as f64;
    assert!(
        (4.0..6.0).contains(&growth),
        "p95 grew {growth:.2}x from rho 0.5 to 0.9; M/M/1 predicts 5x"
    );
}

#[test]
fn more_workers_cut_the_simulated_tail_at_fixed_utilization() {
    // Fig. 8 compares one instance with n workers at the same per-worker load: pooling
    // four servers behind one queue lets a long request be overtaken, so at ρ = 0.8 the
    // M/M/4 tail is far below the M/M/1 tail of 15 mean service times.  The M/M/1 p95
    // is first pinned to that closed form (seed 1 lands within 1.1 %), so a broken
    // single-worker run cannot pass by being slow too.
    let samples = exponential_grid(MEAN_SERVICE_S, 10_000);
    let rho = 0.8;
    let one = simulate_queue(samples.clone(), 1, rho / MEAN_SERVICE_S);
    let four = simulate_queue(samples, 4, 4.0 * rho / MEAN_SERVICE_S);
    assert_close(
        "M/M/1 p95 at rho 0.8",
        one.sojourn.p95_ns as f64 * 1e-9,
        mm1_sojourn_quantile_s(MEAN_SERVICE_S, rho / MEAN_SERVICE_S, 0.95),
        0.1,
    );
    for (what, one_ns, four_ns) in [
        ("p95", one.sojourn.p95_ns, four.sojourn.p95_ns),
        ("p99", one.sojourn.p99_ns, four.sojourn.p99_ns),
    ] {
        assert!(
            2 * four_ns < one_ns,
            "{what}: four workers {four_ns} ns, one worker {one_ns} ns"
        );
    }
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

/// Runs the core DES closed loop: one client against one instance with one worker,
/// each request served for a service time drawn from `samples_ns`, the next issued
/// `think_ns` after the last one was answered.
fn simulate_closed_loop(samples_ns: Vec<u64>, think_ns: u64) -> RunReport {
    use tailbench::core::LoadMode;
    let service = EmpiricalService::new(samples_ns).expect("service samples");
    let app: Arc<dyn ServerApp> = Arc::new(service.clone());
    let config = BenchmarkConfig::new(1.0, QUEUE_REQUESTS)
        .with_load(LoadMode::Closed { think_ns })
        .with_mode(HarnessMode::Simulated)
        .with_warmup(QUEUE_REQUESTS / 10)
        .with_seed(1);
    let mut factory = service.factory(1);
    let model = &EmpiricalService::COST_MODEL;
    runner::execute(&app, &mut factory, &config, Some(model)).expect("simulated closed loop")
}

#[test]
fn simulated_closed_loop_is_exact() {
    // One client never queues behind itself: every sojourn is its service time.  The
    // response-time law for one client gives the throughput, X = 1 / (E[S] + Z).
    // Tolerance: over M measured requests the run spans ΣS + (M − 1)Z, so X is off
    // by the sampling error of the mean service, σ / (√M (E[S] + Z)) = 0.11 % for
    // exponential service (σ = E[S] = Z = 100 µs, M = 200,000), plus a bias of at most
    // 1/M; four standard deviations, rounded up to the next half percent.  Applying the
    // think time twice moves X −33 %, omitting it +100 %.
    let samples = exponential_grid(MEAN_SERVICE_S, 10_000);
    let mean_service_ns = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
    let think_ns = 100_000;
    let report = simulate_closed_loop(samples.clone(), think_ns);
    let again = simulate_closed_loop(samples, think_ns);
    assert_eq!(format!("{report:?}"), format!("{again:?}"), "same seed");
    assert_eq!(report.requests, QUEUE_REQUESTS as u64);
    assert_eq!(report.sojourn, report.service, "one client cannot queue");
    assert_eq!(report.queue.max_ns, 0);
    assert_close(
        "closed-loop throughput",
        report.achieved_qps,
        1e9 / (mean_service_ns + think_ns as f64),
        0.005,
    );
}

#[test]
fn simulated_closed_loops_through_hedged_and_tied_clusters_return() {
    use tailbench::core::config::{ClusterConfig, FanoutPolicy};
    use tailbench::core::{HedgePolicy, LoadMode};
    let service = EmpiricalService::new(exponential_grid(MEAN_SERVICE_S, 1_000)).unwrap();
    let apps: Vec<Arc<dyn ServerApp>> = (0..4)
        .map(|_| Arc::new(service.clone()) as Arc<dyn ServerApp>)
        .collect();
    let pair = ClusterConfig::new(2, FanoutPolicy::Broadcast).with_replication(2);
    let requests = 2_000;
    let config = BenchmarkConfig::new(1.0, requests)
        .with_load(LoadMode::Closed { think_ns: 10_000 })
        .with_mode(HarnessMode::Simulated)
        .with_warmup(0)
        .with_seed(2);
    for cluster in [
        pair.clone().with_hedge(HedgePolicy::after_ns(70_000)),
        pair.with_tied(true),
    ] {
        let mut factory = service.factory(2);
        let model = &EmpiricalService::COST_MODEL;
        let report = runner::execute_cluster(&apps, &mut factory, &config, &cluster, Some(model))
            .expect("simulated closed-loop cluster");
        let name = cluster.name();
        let hedge = report.hedge.expect("hedge or tied counters");
        let depth = &report.cluster.queue_depth;
        // Every leg's first copy and every extra copy were offered to a queue.
        let offered = 2 * requests as u64 + hedge.issued;
        assert_eq!(depth.accepted + depth.dropped, offered, "{name}");
        assert!(hedge.issued > 0, "{name}");
        assert_eq!(report.cluster.requests, requests as u64, "{name}");
    }
}
