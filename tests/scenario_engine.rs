//! Scenario-engine regression tests.
//!
//! Two kinds of guard live here:
//!
//! * **Golden fixed-seed DES pins.**  A simulated scenario run advances a virtual
//!   clock, so for a fixed seed its percentiles are *exact* constants.  The burst
//!   scenario pins per-class p50/p95/p99 and shows the burst phase amplifying the p99
//!   over the steady phase; the hedging scenario pins the 4-shard × 2-replica broadcast
//!   p99 with and without hedging and asserts the mitigation wins.  If you change the
//!   event ordering, trace compiler or jitter hash *on purpose*, re-derive the
//!   constants from a release run and update them together with a DESIGN.md note.
//!
//! * **Coordinated-omission regression** (§II-B): under a square-wave burst, a
//!   closed-loop client slows its own arrival process down whenever the server stalls,
//!   so it reports a far lower sojourn than the open-loop client replaying the same
//!   offered schedule.  This pins the paper's core methodological claim in the regime
//!   where it matters most — bursts.

use std::sync::Arc;
use std::time::Duration;
use tailbench::core::app::{EchoApp, InstructionRateModel};
use tailbench::core::config::{BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode};
use tailbench::core::interference::InterferencePlan;
use tailbench::core::traffic::LoadMode;
use tailbench::core::{runner, HedgePolicy, RequestFactory, ServerApp};
use tailbench::scenario::{
    execute_cluster_scenario, execute_scenario, ClientClass, LoadPhase, Scenario,
};

/// EchoApp reports `10 + spin_iters` instructions, so at 1 ns/instruction the service
/// time is exactly `spin_iters + 10` ns; all remaining variation comes from the seeded
/// trace compiler.
fn cost_model() -> InstructionRateModel {
    InstructionRateModel {
        ns_per_instruction: 1.0,
    }
}

/// The golden burst scenario: 0.2 s steady at half capacity, 0.2 s of square-wave
/// bursts to 2x capacity, 0.1 s recovery; 70/30 interactive/batch split; seed 0x601D.
fn golden_scenario() -> Scenario {
    Scenario::new(
        "golden-burst",
        vec![
            LoadPhase::constant(5_000.0, Duration::from_millis(200)),
            LoadPhase::burst(
                5_000.0,
                20_000.0,
                Duration::from_millis(50),
                0.5,
                Duration::from_millis(200),
            ),
            LoadPhase::constant(5_000.0, Duration::from_millis(100)),
        ],
    )
    .with_classes(vec![
        ClientClass::new("interactive", 0.7),
        ClientClass::new("batch", 0.3),
    ])
    .with_warmup_fraction(0.05)
}

fn golden_factories() -> Vec<Box<dyn RequestFactory>> {
    vec![
        Box::new(|| b"interactive".to_vec()),
        Box::new(|| b"batch".to_vec()) as Box<dyn RequestFactory>,
    ]
}

#[test]
fn golden_burst_scenario_percentiles_are_exact() {
    let app: Arc<dyn ServerApp> = Arc::new(EchoApp {
        spin_iters: 100_000, // 100 us service => capacity 10k QPS
    });
    let report = execute_scenario(
        &app,
        golden_factories(),
        &golden_scenario(),
        HarnessMode::Simulated,
        1,
        0x601D,
        Some(&cost_model()),
    )
    .unwrap();

    assert_eq!(report.requests, 3_776);

    // Exact per-class percentiles (the golden pin of the acceptance criteria).
    let interactive = &report.per_class[0];
    assert_eq!(interactive.name, "interactive");
    assert_eq!(interactive.sojourn.count, 2_701);
    assert_eq!(interactive.sojourn.p50_ns, 26_949_052);
    assert_eq!(interactive.sojourn.p95_ns, 55_577_294);
    assert_eq!(interactive.sojourn.p99_ns, 60_605_108);
    let batch = &report.per_class[1];
    assert_eq!(batch.name, "batch");
    assert_eq!(batch.sojourn.count, 1_075);
    assert_eq!(batch.sojourn.p50_ns, 26_679_615);
    assert_eq!(batch.sojourn.p95_ns, 56_042_710);
    assert_eq!(batch.sojourn.p99_ns, 60_249_666);

    // Exact per-phase percentiles: the burst phase amplifies the steady phase's p99 by
    // two orders of magnitude (2x-capacity bursts build a queue the recovery phase is
    // still draining).
    let steady = &report.per_phase[0];
    assert_eq!(steady.name, "0:constant");
    assert_eq!(steady.sojourn.count, 793);
    assert_eq!(steady.sojourn.p50_ns, 100_010);
    assert_eq!(steady.sojourn.p99_ns, 569_261);
    let burst = &report.per_phase[1];
    assert_eq!(burst.name, "1:burst");
    assert_eq!(burst.sojourn.count, 2_500);
    assert_eq!(burst.sojourn.p99_ns, 61_079_325);
    assert_eq!(report.per_phase[2].sojourn.p99_ns, 49_851_342);
    assert!(
        burst.sojourn.p99_ns > 50 * steady.sojourn.p99_ns,
        "burst-phase p99 must dwarf the steady phase's"
    );
}

#[test]
fn golden_hedging_cuts_the_broadcast_tail_at_four_shards() {
    let make_apps = || -> Vec<Arc<dyn ServerApp>> {
        (0..8)
            .map(|_| {
                Arc::new(EchoApp {
                    spin_iters: 100_000,
                }) as Arc<dyn ServerApp>
            })
            .collect()
    };
    // 4 shards x 2 replicas under broadcast at ~40% per-instance load, with replica 1
    // of shard 0 slowed 3x for the middle of the run — enough to back that replica up
    // (3x service at 40% load is transient overload) without drowning the healthy
    // replica in hedge copies.
    let scenario = |hedge: Option<HedgePolicy>| {
        let mut s = Scenario::new(
            "golden-hedge",
            vec![LoadPhase::constant(8_000.0, Duration::from_millis(300))],
        )
        .with_warmup_fraction(0.05)
        .with_interference(InterferencePlan::none().slow_instance(
            1,
            100_000_000,
            200_000_000,
            3.0,
        ));
        if let Some(policy) = hedge {
            s = s.with_hedge(policy);
        }
        s
    };
    let cluster = ClusterConfig::new(4, FanoutPolicy::Broadcast).with_replication(2);
    let run = |hedge: Option<HedgePolicy>| {
        execute_cluster_scenario(
            &make_apps(),
            vec![Box::new(|| b"g".to_vec()) as Box<dyn RequestFactory>],
            &scenario(hedge),
            &cluster,
            HarnessMode::Simulated,
            1,
            0x601D,
            Some(&cost_model()),
        )
        .unwrap()
    };

    let unhedged = run(None);
    assert_eq!(unhedged.cluster.requests, 2_304);
    assert_eq!(unhedged.hedge, None);
    assert_eq!(unhedged.cluster.sojourn.p50_ns, 100_010);
    assert_eq!(unhedged.cluster.sojourn.p99_ns, 23_099_893);

    let hedged = run(Some(HedgePolicy::after_ns(400_000)));
    assert_eq!(hedged.cluster.requests, 2_304);
    assert_eq!(hedged.cluster.sojourn.p50_ns, 122_822);
    assert_eq!(hedged.cluster.sojourn.p99_ns, 1_296_361);
    let stats = hedged.hedge.expect("hedged run must report hedge stats");
    assert_eq!(stats.issued, 694);
    assert_eq!(stats.wins, 555);

    // The acceptance inequality: at >= 4 shards of broadcast fan-out, hedging slashes
    // the end-to-end p99 relative to the unhedged run (here ~18x).
    assert!(
        hedged.cluster.sojourn.p99_ns * 10 < unhedged.cluster.sojourn.p99_ns,
        "hedged p99 {} must be at least 10x below unhedged p99 {}",
        hedged.cluster.sojourn.p99_ns,
        unhedged.cluster.sojourn.p99_ns
    );
}

/// The wall-clock hedge engine (integrated and TCP cluster paths): an aggressive 1 µs
/// trigger forces hedges on essentially every leg, and first-response-wins dedup must
/// still deliver exactly one record per request — no double counting, no losses.  With
/// several TCP client connections the engine hears of requests out of id order; a tied
/// run issues every leg's second copy up front instead.
#[test]
fn wall_clock_cluster_hedging_completes_and_dedups() {
    for (mode, tied) in [
        (HarnessMode::Integrated, false),
        (HarnessMode::Loopback { connections: 1 }, false),
        (HarnessMode::Loopback { connections: 3 }, false),
        (HarnessMode::Loopback { connections: 3 }, true),
    ] {
        let apps: Vec<Arc<dyn ServerApp>> = (0..4)
            .map(|_| Arc::new(EchoApp::with_service_us(20)) as Arc<dyn ServerApp>)
            .collect();
        let scenario = Scenario::new(
            "wall-hedge",
            vec![LoadPhase::constant(1_500.0, Duration::from_millis(150))],
        )
        .with_warmup_fraction(0.1);
        let scenario = if tied {
            scenario
        } else {
            scenario.with_hedge(HedgePolicy::after_ns(1_000))
        };
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast)
            .with_replication(2)
            .with_tied(tied);
        let report = execute_cluster_scenario(
            &apps,
            vec![Box::new(|| b"wh".to_vec()) as Box<dyn RequestFactory>],
            &scenario,
            &cluster,
            mode,
            1,
            0x3D,
            None,
        )
        .unwrap();
        let run = format!("{mode:?}, tied {tied}");
        let stats = report.hedge.expect("hedge stats must be reported");
        assert!(stats.issued > 0, "{run}: every leg must get a second copy");
        assert!(stats.wins <= stats.issued);
        // Every measured request is recorded exactly once end-to-end, and each shard
        // records exactly one winning leg per request.
        assert!(
            report.cluster.requests > 100,
            "{run}: {}",
            report.cluster.requests
        );
        for shard in &report.per_shard {
            assert_eq!(shard.requests, report.cluster.requests, "{run}");
        }
    }
}

/// §II-B coordinated-omission guard, in the bursty regime where it bites hardest: the
/// open-loop client replays the compiled square-wave schedule even while the server
/// drowns, so queueing delay lands in its sojourn; the closed-loop ablation client
/// waits for each response before issuing the next request, silently thinning the
/// offered load during exactly the overloaded windows and reporting a dramatically
/// lower tail.  Seeds are fixed; the assertion leaves a wide margin because the
/// integrated harness runs in real time.
#[test]
fn closed_loop_under_reports_burst_sojourn_vs_open_loop() {
    let app: Arc<dyn ServerApp> = Arc::new(EchoApp::with_service_us(20));
    // Bursts far beyond a single worker's capacity: ~10 us gaps against a ~10+ us
    // service time.
    let scenario = Scenario::new(
        "co-burst",
        vec![
            LoadPhase::constant(2_000.0, Duration::from_millis(100)),
            LoadPhase::burst(
                2_000.0,
                100_000.0,
                Duration::from_millis(40),
                0.5,
                Duration::from_millis(200),
            ),
            LoadPhase::constant(2_000.0, Duration::from_millis(100)),
        ],
    )
    .with_warmup_fraction(0.05);
    let open = execute_scenario(
        &app,
        vec![Box::new(|| b"co".to_vec()) as Box<dyn RequestFactory>],
        &scenario,
        HarnessMode::Integrated,
        1,
        0xC0,
        None,
    )
    .unwrap();

    // The closed-loop ablation issues the same number of requests with a think time
    // equal to the open-loop schedule's mean gap, so its *intended* load matches; what
    // it cannot do is keep issuing during the bursts it stalls in.
    let compiled = scenario.compile(0xC0);
    let span_ns = compiled.times.last().copied().unwrap_or(1);
    let think_ns = span_ns / compiled.times.len().max(1) as u64;
    let closed_config = BenchmarkConfig::new(1.0, compiled.times.len() - compiled.warmup)
        .with_warmup(compiled.warmup)
        .with_seed(0xC0)
        .with_load(LoadMode::Closed { think_ns })
        .with_max_duration(Duration::from_secs(60));
    let mut closed_factory = || b"co".to_vec();
    let closed = runner::execute(&app, &mut closed_factory, &closed_config, None).unwrap();

    assert!(
        open.requests > 1_000,
        "open-loop measured {}",
        open.requests
    );
    assert!(
        closed.requests > 1_000,
        "closed-loop measured {}",
        closed.requests
    );
    assert!(
        open.sojourn.p95_ns > 3 * closed.sojourn.p95_ns,
        "open-loop burst p95 ({} ns) must dwarf the closed-loop ablation's ({} ns): \
         coordinated omission hides the queueing the bursts create",
        open.sojourn.p95_ns,
        closed.sojourn.p95_ns
    );

    // The same comparison on the virtual clock, where it is exact and repeatable: the
    // closed-loop client never queues behind itself, so its tail is the service time.
    let model = cost_model();
    let simulate = || {
        let open = execute_scenario(
            &app,
            vec![Box::new(|| b"co".to_vec()) as Box<dyn RequestFactory>],
            &scenario,
            HarnessMode::Simulated,
            1,
            0xC0,
            Some(&model),
        )
        .unwrap();
        let config = closed_config.clone().with_mode(HarnessMode::Simulated);
        let closed = runner::execute(&app, &mut || b"co".to_vec(), &config, Some(&model)).unwrap();
        (format!("{open:?}"), format!("{closed:?}"), open, closed)
    };
    let (open_text, closed_text, open, closed) = simulate();
    assert!(
        open.sojourn.p95_ns > 3 * closed.sojourn.p95_ns,
        "simulated open-loop burst p95 ({} ns) must dwarf the closed loop's ({} ns)",
        open.sojourn.p95_ns,
        closed.sojourn.p95_ns
    );
    let (open_again, closed_again, ..) = simulate();
    assert_eq!(
        open_text, open_again,
        "a simulated open-loop rerun must repeat"
    );
    assert_eq!(
        closed_text, closed_again,
        "a simulated closed-loop rerun must repeat"
    );
}
