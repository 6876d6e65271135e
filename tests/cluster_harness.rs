//! Integration tests of the cluster harness and of cross-configuration consistency.
//!
//! DESIGN.md's configuration table claims the four harness configurations measure the
//! same application work and differ only in the transport around it: integrated adds
//! nothing, loopback adds the kernel network stack, networked adds propagation delay.
//! The cross-mode test here guards the invariant that *service time* — the part inside
//! the application — agrees between integrated and loopback runs of the same
//! workload/seed (queuing and sojourn may differ, that's the point of the modes).
//! The cluster tests exercise the partition-aggregate fan-out path end to end across
//! runners and applications.

use std::sync::Arc;
use tailbench::core::config::{BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode};
use tailbench::core::{runner, RequestFactory, ServerApp};

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
fn integrated_and_loopback_agree_on_service_time() {
    let (app, make_factory) = masstree();
    // Light load so neither run saturates; both modes execute the same handler on the
    // same request stream (same seed), so the in-application service time must agree.
    let config = BenchmarkConfig::new(800.0, 500)
        .with_warmup(50)
        .with_seed(31);

    let mut factory = make_factory(1);
    let integrated = runner::execute(&app, factory.as_mut(), &config, None).unwrap();
    let mut factory = make_factory(1);
    let loopback = runner::execute(
        &app,
        factory.as_mut(),
        &config
            .clone()
            .with_mode(HarnessMode::Loopback { connections: 2 }),
        None,
    )
    .unwrap();

    assert!(integrated.requests > 400);
    assert!(loopback.requests > 400);
    let mean_ratio = loopback.service.mean_ns / integrated.service.mean_ns.max(1.0);
    assert!(
        (0.4..2.5).contains(&mean_ratio),
        "mean service time must agree across modes: integrated {} vs loopback {} (ratio {mean_ratio})",
        integrated.service.mean_ns,
        loopback.service.mean_ns
    );
    let p95_ratio = loopback.service.p95_ns as f64 / integrated.service.p95_ns.max(1) as f64;
    assert!(
        (0.3..3.0).contains(&p95_ratio),
        "p95 service time must agree across modes: integrated {} vs loopback {} (ratio {p95_ratio})",
        integrated.service.p95_ns,
        loopback.service.p95_ns
    );
    // Loopback's sojourn includes the network stack, so it can only add latency on top
    // of queue + service.
    assert!(loopback.overhead.mean_ns >= 0.0);
}

#[test]
fn sharded_masstree_cluster_routes_by_key_in_every_real_mode() {
    use tailbench::apps::kvstore::{MasstreeApp, YcsbRequestFactory};
    use tailbench::workloads::ycsb::YcsbConfig;
    let workload = YcsbConfig::small();
    // Every shard holds the full (small) keyspace; hash routing decides who serves what.
    let shards = 2;
    let apps: Vec<Arc<dyn ServerApp>> = (0..shards)
        .map(|_| Arc::new(MasstreeApp::new(&workload)) as Arc<dyn ServerApp>)
        .collect();
    let cluster = ClusterConfig::new(shards, FanoutPolicy::ycsb());

    for mode in [
        HarnessMode::Integrated,
        HarnessMode::Loopback { connections: 1 },
    ] {
        let mut factory = YcsbRequestFactory::new(&workload, 9);
        let config = BenchmarkConfig::new(1_000.0, 300)
            .with_warmup(30)
            .with_seed(13)
            .with_mode(mode);
        let report = runner::execute_cluster(&apps, &mut factory, &config, &cluster, None).unwrap();
        // Single-key requests are served exactly once, split across shards.
        let shard_total: u64 = report.per_shard.iter().map(|r| r.requests).sum();
        assert_eq!(shard_total, report.cluster.requests);
        for shard in &report.per_shard {
            assert!(
                shard.requests > 0,
                "both shards must see traffic in {}",
                report.cluster.configuration
            );
        }
    }
}

#[test]
fn tpcc_cluster_partitions_by_warehouse() {
    use tailbench::apps::oltp::{OltpApp, TpccRequestFactory};
    use tailbench::workloads::tpcc::TpccConfig;
    let config = TpccConfig {
        warehouses: 4,
        items: 2_000,
        customers_per_district: 100,
        remote_line_fraction: 0.01,
    };
    let shards = 2;
    // Each shard runs a full silo instance; the router assigns warehouses w to shard
    // w % 2, so transactions stay single-shard (classic warehouse partitioning).
    let apps: Vec<Arc<dyn ServerApp>> = (0..shards)
        .map(|_| Arc::new(OltpApp::silo(config.clone())) as Arc<dyn ServerApp>)
        .collect();
    let cluster = ClusterConfig::new(shards, FanoutPolicy::tpcc());
    let mut factory = TpccRequestFactory::new(&config, 5);
    let bench = BenchmarkConfig::new(1_000.0, 300)
        .with_warmup(30)
        .with_seed(7);
    let report = runner::execute_cluster(&apps, &mut factory, &bench, &cluster, None).unwrap();

    let shard_total: u64 = report.per_shard.iter().map(|r| r.requests).sum();
    assert_eq!(shard_total, report.cluster.requests);
    for shard in &report.per_shard {
        assert!(shard.requests > 50, "warehouse load should spread: {shard}");
    }
}

#[test]
fn simulated_and_integrated_cluster_share_structure() {
    use tailbench::core::app::{EchoApp, InstructionRateModel};
    let apps: Vec<Arc<dyn ServerApp>> = (0..3)
        .map(|_| Arc::new(EchoApp::with_service_us(20)) as Arc<dyn ServerApp>)
        .collect();
    let cluster = ClusterConfig::new(3, FanoutPolicy::Broadcast);
    let model = InstructionRateModel {
        ns_per_instruction: 1.0,
    };
    for mode in [HarnessMode::Integrated, HarnessMode::Simulated] {
        let mut factory = || b"x".to_vec();
        let config = BenchmarkConfig::new(1_000.0, 300)
            .with_warmup(30)
            .with_seed(3)
            .with_mode(mode);
        let report =
            runner::execute_cluster(&apps, &mut factory, &config, &cluster, Some(&model)).unwrap();
        // Broadcast: every shard serves every request; the end-to-end tail can never
        // undercut the slowest shard's tail (last-response-wins).
        for shard in &report.per_shard {
            assert_eq!(shard.requests, report.cluster.requests);
        }
        assert!(report.cluster.sojourn.p99_ns >= report.max_shard_p99_ns());
        assert!(report.p99_amplification() >= 1.0);
    }
}

/// A copy that an integrated queue sheds after admitting it — purged as expired to make
/// room, or shed as expired at the head of the line — must reach the hedge engine's
/// book.  Otherwise the engine waits for its response forever, keeps the queues open,
/// and the run never returns.  Each mitigation overloads a 1 × 2 cluster into
/// deadline-shedding queues on its own thread, under a deadline.
#[test]
fn integrated_mitigations_return_when_queues_shed_admitted_copies() {
    use std::sync::mpsc::channel;
    use std::time::Duration;
    use tailbench::core::app::EchoApp;
    use tailbench::core::{AdmissionPolicy, HedgePolicy};
    let base = ClusterConfig::new(1, FanoutPolicy::Broadcast).with_replication(2);
    let total = 3_000u64;
    for (name, cluster) in [
        (
            "hedged",
            base.clone().with_hedge(HedgePolicy::after_ns(100_000)),
        ),
        ("tied", base.with_tied(true)),
    ] {
        let (tx, rx) = channel();
        let run = std::thread::spawn(move || {
            let apps: Vec<Arc<dyn ServerApp>> = (0..2)
                .map(|_| Arc::new(EchoApp::with_service_us(50)) as Arc<dyn ServerApp>)
                .collect();
            let config = BenchmarkConfig::new(60_000.0, total as usize)
                .with_warmup(0)
                .with_admission(AdmissionPolicy::DropDeadline {
                    capacity: 1_000,
                    slo_ns: 200_000,
                });
            let mut factory = || b"shed".to_vec();
            let _ = tx.send(runner::execute_cluster(
                &apps,
                &mut factory,
                &config,
                &cluster,
                None,
            ));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{name}: the run did not return within 60 s"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        run.join().expect("the run thread returned");
        let queue = &report.cluster.queue_depth;
        let hedge = report.hedge.expect("mitigated runs report hedge stats");
        assert!(hedge.issued > 0, "{name}: no second copy was issued");
        assert!(queue.dropped > 0, "{name}: the overload must shed");
        // Every copy offered to a queue was accepted or dropped: one primary per
        // request plus each second copy (a hedge copy is counted as issued only when
        // its queue admits it, so the hedged ledger may hold more).
        let offered = queue.accepted + queue.dropped;
        if name == "tied" {
            assert_eq!(hedge.issued, total, "one tied copy per request");
            assert_eq!(offered, 2 * total, "{name}: the ledger leaked");
        } else {
            assert!(offered >= total + hedge.issued, "{name}: the ledger leaked");
        }
        assert!(report.cluster.requests <= total);
    }
}
