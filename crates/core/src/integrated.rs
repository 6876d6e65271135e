//! The integrated harness configuration.
//!
//! Client, harness and application live in a single process and communicate through
//! shared memory (paper Fig. 1, upper right).  This is the configuration that the paper
//! recommends for simulation studies; on a real system it measures pure request
//! processing plus queuing, with no network-stack overhead.
//!
//! Measurement pipeline: each worker records completions into its own collector shard
//! (merged at join — no channel or collector thread on the hot path), the request
//! queue applies the configured admission policy and reports depth/drop accounting,
//! and the pacing loop records its per-request issue error.  All three surface as
//! first-class [`RunReport`] fields.

use crate::app::{RequestFactory, ServerApp};
use crate::collector::{ClusterCollector, StatsCollector};
use crate::config::{BenchmarkConfig, ClusterConfig, Route};
use crate::error::HarnessError;
use crate::hedge::{HedgeEngine, HedgeMsg};
use crate::interference::InterferedApp;
use crate::pool::BufferPool;
use crate::queue::{Completion, PushOutcome, RequestQueue};
use crate::report::{
    ClusterReport, HedgeStats, LabeledLatency, LatencyStats, QueueSummary, RunReport,
};
use crate::time::{PacingRecorder, RunClock};
use crate::traffic::{LoadMode, TrafficShaper};
use crate::worker::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tailbench_workloads::rng::seeded_rng;

/// Wraps `app` with the configuration's interference plan for `instance` (identity when
/// the plan is empty), sharing the run's clock so fault windows line up with the
/// request timeline.
pub(crate) fn interfered(
    app: &Arc<dyn ServerApp>,
    config: &BenchmarkConfig,
    instance: usize,
    clock: RunClock,
) -> Arc<dyn ServerApp> {
    if config.interference.is_empty() {
        Arc::clone(app)
    } else {
        Arc::new(InterferedApp::new(
            Arc::clone(app),
            &config.interference,
            instance,
            clock,
        ))
    }
}

/// The statistics-shard prototype for a run: warmup count plus tags.
pub(crate) fn shard_proto(config: &BenchmarkConfig) -> StatsCollector {
    StatsCollector::new(config.warmup_requests as u64).with_tags(config.tags.clone())
}

/// Runs one measurement in the integrated configuration and returns its report.
///
/// The factory provides request payloads; `config.load` controls their timing.  Warmup
/// requests are issued at the same rate as measured ones and excluded from statistics.
///
/// # Errors
///
/// Returns [`HarnessError::Io`] if worker threads cannot be spawned and
/// [`HarnessError::Internal`] if a harness thread panics mid-run.
pub fn run_integrated(
    app: &Arc<dyn ServerApp>,
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
) -> Result<RunReport, HarnessError> {
    app.prepare();
    let clock = RunClock::new();
    let serve_app = interfered(app, config, 0, clock);
    let queue = RequestQueue::with_policy(config.admission);
    let observer = queue.observer();
    let pool = WorkerPool::spawn(
        serve_app,
        queue.receiver(),
        clock,
        config.worker_threads,
        shard_proto(config),
        None,
    )?;

    let (collector_stats, pacing) = match &config.load {
        LoadMode::Closed { think_ns } => {
            run_closed_loop(factory, config, *think_ns, clock, queue, pool)?
        }
        open => {
            let mut rng = seeded_rng(config.seed, 1);
            let times = open
                .schedule(&mut rng, config.total_requests())
                .ok_or_else(|| {
                    HarnessError::Internal("open-loop mode produced no schedule".into())
                })?;
            let shaper = TrafficShaper::from_times(times, 0, || factory.next_request());
            let max_ns = config.max_duration.as_nanos() as u64;
            let mut pacing = PacingRecorder::new();
            for mut request in shaper.into_requests() {
                let scheduled_ns = request.issued_ns;
                // Checked before the wait too, so an arrival past the cap is not waited for.
                if scheduled_ns > max_ns {
                    break;
                }
                let now = clock.sleep_until_ns(scheduled_ns);
                if now > max_ns {
                    break;
                }
                pacing.record(scheduled_ns, now);
                // The request is stamped with its *actual* issue time so pacing jitter is
                // charged to the harness, not hidden.
                request.issued_ns = now;
                if queue.push(request, now, Completion::Inline) == PushOutcome::Closed {
                    break;
                }
            }
            queue.close();
            (pool.join()?.stats, pacing)
        }
    };

    let mut report = build_report(app.name(), "integrated", config, &collector_stats);
    report.queue_depth = observer.summary();
    report.pacing = pacing.stats();
    Ok(report)
}

/// Closed-loop driver used only by the coordinated-omission ablation: a single client
/// issues a request, waits synchronously for its completion, sleeps for the think time
/// and repeats.  Queuing never builds up, which is precisely the measurement error the
/// open-loop design avoids.  The client thread records completions into its own
/// collector directly; the completion channel is created once and reused for every
/// request.
fn run_closed_loop(
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
    think_ns: u64,
    clock: RunClock,
    queue: RequestQueue,
    pool: WorkerPool,
) -> Result<(StatsCollector, PacingRecorder), HarnessError> {
    use crate::request::{Request, RequestId};
    use crossbeam::channel::unbounded;

    let mut collector = shard_proto(config);
    let max_ns = config.max_duration.as_nanos() as u64;
    let (done_tx, done_rx) = unbounded();
    for i in 0..config.total_requests() as u64 {
        let issued_ns = clock.now_ns();
        if issued_ns > max_ns {
            break;
        }
        let request = Request {
            id: RequestId(i),
            payload: factory.next_request(),
            issued_ns,
        };
        if queue.push(request, issued_ns, Completion::Responder(done_tx.clone()))
            != PushOutcome::Accepted
        {
            break;
        }
        if let Ok(completion) = done_rx.recv() {
            let received = clock.now_ns();
            collector.record(&completion.into_record(received));
        }
        if think_ns > 0 {
            clock.sleep_until_ns(clock.now_ns() + think_ns);
        }
    }
    drop(done_tx);
    queue.close();
    let workers = pool.join()?;
    collector.merge(&workers.stats);
    Ok((collector, PacingRecorder::new()))
}

/// Runs one cluster measurement in the integrated configuration.
///
/// Each of the `cluster.instances()` server instances gets its own request queue and
/// worker pool (all sharing one run clock); the calling thread is the client-side
/// router, pacing the global open-loop schedule and distributing requests according to
/// `cluster.fanout`.  Fan-out legs are merged last-response-wins: each instance's
/// forwarder thread records into a partial cross-shard collector, and the partials are
/// merged when the run tears down (the hedge engine, when active, already serializes
/// completions and owns the collector itself).  Leg payload clones come from a shared
/// buffer pool and are recycled by the workers.
///
/// # Errors
///
/// Returns [`HarnessError::Config`] if the load mode is closed-loop or `apps` does not
/// hold exactly one application per instance.
pub fn run_cluster_integrated(
    apps: &[Arc<dyn ServerApp>],
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
    cluster: &ClusterConfig,
) -> Result<ClusterReport, HarnessError> {
    if !config.load.is_open() {
        return Err(HarnessError::Config(
            "cluster runs require an open-loop load mode".into(),
        ));
    }
    check_instances(apps, cluster)?;
    for app in apps {
        app.prepare();
    }

    let clock = RunClock::new();
    let width = cluster.fanout_width();
    let hedge = cluster.active_hedge();
    let tied = cluster.active_tied();
    let warmup = config.warmup_requests as u64;
    let buffers = Arc::new(BufferPool::default());
    // Per-instance in-flight counts (accepted pushes minus completions/retractions):
    // the live load signal for the LeastLoaded / PowerOfTwo replica selectors.
    let outstanding: Arc<Vec<AtomicUsize>> =
        Arc::new((0..apps.len()).map(|_| AtomicUsize::new(0)).collect());
    let new_cluster_collector =
        || ClusterCollector::new(cluster.shards, warmup).with_tags(config.tags.clone());
    let queues: Vec<RequestQueue> = (0..apps.len())
        .map(|_| RequestQueue::with_policy(config.admission))
        .collect();
    let observers: Vec<_> = queues.iter().map(RequestQueue::observer).collect();
    let mut pools = Vec::with_capacity(apps.len());
    let mut leg_txs: Vec<crossbeam::channel::Sender<crate::queue::ServerCompletion>> =
        Vec::with_capacity(apps.len());
    let mut leg_rxs = Vec::with_capacity(apps.len());
    for (i, app) in apps.iter().enumerate() {
        pools.push(WorkerPool::spawn(
            interfered(app, config, i, clock),
            queues[i].receiver(),
            clock,
            config.worker_threads,
            StatsCollector::new(warmup),
            Some(Arc::clone(&buffers)),
        )?);
        let (resp_tx, resp_rx) = crossbeam::channel::unbounded();
        leg_txs.push(resp_tx);
        leg_rxs.push(resp_rx);
    }

    // With hedging or tied requests active, all completions detour through the hedge
    // engine, which forwards only each leg's first response into the collector it owns,
    // reissues hedge stragglers straight onto the alternate replica's queue, and
    // retracts still-queued tied losers.
    let engine = if hedge.is_some() || tied {
        let queue_txs: Vec<_> = queues.iter().map(RequestQueue::sender).collect();
        let resp_txs = leg_txs.clone();
        let inflight = Arc::clone(&outstanding);
        let reissue = Box::new(move |instance: usize, request: crate::request::Request| {
            let now = clock.now_ns();
            let accepted = queue_txs[instance].push(
                request,
                now,
                Completion::Responder(resp_txs[instance].clone()),
            ) == PushOutcome::Accepted;
            if accepted {
                inflight[instance].fetch_add(1, Ordering::Relaxed);
            }
            accepted
        });
        let cancel_queues: Vec<_> = queues.iter().map(RequestQueue::sender).collect();
        let inflight = Arc::clone(&outstanding);
        let retract = Box::new(move |instance: usize, id: u64| {
            let cancelled = cancel_queues[instance].cancel(crate::request::RequestId(id));
            if cancelled {
                inflight[instance].fetch_sub(1, Ordering::Relaxed);
            }
            cancelled
        });
        Some(HedgeEngine::spawn(
            hedge,
            cluster.clone(),
            width,
            clock,
            new_cluster_collector(),
            reissue,
            retract,
        )?)
    } else {
        None
    };
    let engine_tx = engine.as_ref().map(HedgeEngine::sender);

    let mut forwarders = Vec::with_capacity(apps.len());
    for (i, resp_rx) in leg_rxs.into_iter().enumerate() {
        let hedge_tx = engine_tx.clone();
        let shard = i / cluster.replication;
        let mut partial = new_cluster_collector();
        let inflight = Arc::clone(&outstanding);
        forwarders.push(
            std::thread::Builder::new()
                .name(format!("tb-cluster-fwd-{i}"))
                .spawn(move || {
                    while let Ok(completion) = resp_rx.recv() {
                        inflight[i].fetch_sub(1, Ordering::Relaxed);
                        // Integrated configuration: the response is delivered the moment
                        // processing completes (shared memory, no transport).
                        let received = completion.completed_ns;
                        let record = completion.into_record(received);
                        match &hedge_tx {
                            Some(tx) => {
                                let _ = tx.send(HedgeMsg::Completed {
                                    shard,
                                    instance: i,
                                    record,
                                });
                            }
                            None => {
                                let _ = partial.record_leg(shard, record, width);
                            }
                        }
                    }
                    partial
                })?,
        );
    }

    let mut rng = seeded_rng(config.seed, 1);
    let times = config
        .load
        .schedule(&mut rng, config.total_requests())
        .ok_or_else(|| HarnessError::Internal("open-loop mode produced no schedule".into()))?;
    let shaper = TrafficShaper::from_times(times, 0, || factory.next_request());
    let max_ns = config.max_duration.as_nanos() as u64;
    let mut pacing = PacingRecorder::new();
    'pacing: for mut request in shaper.into_requests() {
        let scheduled_ns = request.issued_ns;
        if scheduled_ns > max_ns {
            break;
        }
        let now = clock.sleep_until_ns(scheduled_ns);
        if now > max_ns {
            break;
        }
        pacing.record(scheduled_ns, now);
        request.issued_ns = now;
        let shards = match cluster.fanout.route(&request.payload, cluster.shards) {
            Route::Shard(shard) => shard..shard + 1,
            Route::AllShards => 0..cluster.shards,
        };
        for shard in shards {
            let primary = cluster.route_replica(shard, request.id.0, config.seed, &|i| {
                outstanding[i].load(Ordering::Relaxed)
            });
            let copies: &[usize] = if tied {
                let secondary = cluster.secondary_instance(shard, primary);
                if let Some(tx) = &engine_tx {
                    // Announce the tied pair before either server can answer it.
                    let _ = tx.send(HedgeMsg::DispatchedTied {
                        id: request.id.0,
                        shard,
                        primary,
                        secondary,
                    });
                }
                &[primary, secondary]
            } else {
                &[primary]
            };
            for (slot, &i) in copies.iter().enumerate() {
                let leg = crate::request::Request {
                    id: request.id,
                    payload: buffers.duplicate(&request.payload),
                    issued_ns: request.issued_ns,
                };
                if !tied && slot == 0 {
                    if let Some(tx) = &engine_tx {
                        // Announce the leg before the server can possibly answer it.
                        let _ = tx.send(HedgeMsg::Dispatched {
                            request: leg.clone(),
                            shard,
                            instance: i,
                        });
                    }
                }
                match queues[i].push(leg, now, Completion::Responder(leg_txs[i].clone())) {
                    PushOutcome::Accepted => {
                        outstanding[i].fetch_add(1, Ordering::Relaxed);
                    }
                    PushOutcome::Dropped => {
                        // The copy was shed at admission: retract its tracking so the
                        // engine neither hedges a request that can no longer complete
                        // its fan-out nor counts phantom stragglers.
                        if let Some(tx) = &engine_tx {
                            let _ = tx.send(HedgeMsg::Cancelled {
                                id: request.id.0,
                                shard,
                            });
                        }
                    }
                    PushOutcome::Closed => break 'pacing,
                }
            }
        }
    }
    if let Some(tx) = &engine_tx {
        let _ = tx.send(HedgeMsg::NoMoreDispatches);
    }
    drop(engine_tx);

    drop(leg_txs);
    for queue in queues {
        queue.close();
    }
    for pool in pools {
        pool.join()?;
    }
    let mut partials = Vec::with_capacity(forwarders.len());
    for forwarder in forwarders {
        partials.push(
            forwarder
                .join()
                .map_err(|_| HarnessError::Internal("cluster forwarder thread panicked".into()))?,
        );
    }
    let (stats, hedge_stats) = match engine {
        Some(engine) => {
            let (hedge_stats, collector) = engine.join()?;
            (collector, Some(hedge_stats))
        }
        None => {
            let mut merged = new_cluster_collector();
            for partial in partials {
                merged.merge(partial);
            }
            (merged, None)
        }
    };
    let queue_summaries: Vec<QueueSummary> = observers.iter().map(|o| o.summary()).collect();
    let mut report = build_cluster_report(
        apps[0].name(),
        "integrated",
        config,
        cluster,
        &stats,
        hedge_stats,
    );
    report.cluster.queue_depth = QueueSummary::aggregate(&queue_summaries);
    report.cluster.pacing = pacing.stats();
    Ok(report)
}

/// Validates that `apps` provides exactly one application per cluster instance.
pub(crate) fn check_instances(
    apps: &[Arc<dyn ServerApp>],
    cluster: &ClusterConfig,
) -> Result<(), HarnessError> {
    if apps.len() == cluster.instances() {
        Ok(())
    } else {
        Err(HarnessError::Config(format!(
            "cluster of {} shards x {} replicas needs {} apps, got {}",
            cluster.shards,
            cluster.replication,
            cluster.instances(),
            apps.len()
        )))
    }
}

/// Assembles a [`ClusterReport`] from a populated cross-shard collector.
pub(crate) fn build_cluster_report(
    app: &str,
    mode_name: &str,
    config: &BenchmarkConfig,
    cluster: &ClusterConfig,
    stats: &ClusterCollector,
    hedge: Option<HedgeStats>,
) -> ClusterReport {
    let configuration = format!("{mode_name}+{}", cluster.name());
    ClusterReport {
        cluster: build_report(app, &configuration, config, stats.cluster_stats()),
        per_shard: stats
            .shard_stats()
            .iter()
            .map(|shard| build_report(app, &configuration, config, shard))
            .collect(),
        shards: cluster.shards,
        replication: cluster.replication,
        shard_union_sojourn: LatencyStats::from_summary(&stats.merged_shard_sojourn()),
        hedge,
        unmerged: stats.unmerged() as u64,
    }
}

/// Converts a collector breakdown into report rows.
fn labelled(rows: Vec<(String, LatencyStats)>) -> Vec<LabeledLatency> {
    rows.into_iter()
        .map(|(name, sojourn)| LabeledLatency { name, sojourn })
        .collect()
}

/// Assembles a [`RunReport`] from a populated collector.  Queue and pacing summaries
/// default to empty; the runners fill them in where the path has a queue/pacer.
pub(crate) fn build_report(
    app: &str,
    configuration: &str,
    config: &BenchmarkConfig,
    stats: &StatsCollector,
) -> RunReport {
    RunReport {
        app: app.to_string(),
        configuration: configuration.to_string(),
        offered_qps: config.load.offered_qps(),
        achieved_qps: stats.achieved_qps(),
        requests: stats.measured(),
        worker_threads: config.worker_threads,
        duration_ns: stats.span_ns(),
        sojourn: stats.sojourn_stats(),
        service: stats.service_stats(),
        queue: stats.queue_stats(),
        overhead: stats.overhead_stats(),
        per_class: labelled(stats.class_breakdown()),
        per_phase: labelled(stats.phase_breakdown()),
        queue_depth: QueueSummary::default(),
        pacing: LatencyStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use std::time::Duration;

    fn echo_app() -> Arc<dyn ServerApp> {
        Arc::new(EchoApp::with_service_us(20))
    }

    #[test]
    fn integrated_run_produces_complete_report() {
        let app = echo_app();
        let mut factory = || b"req".to_vec();
        let config = BenchmarkConfig::new(2_000.0, 400)
            .with_warmup(50)
            .with_max_duration(Duration::from_secs(20));
        let report = run_integrated(&app, &mut factory, &config).expect("integrated run");
        assert_eq!(report.app, "echo");
        assert_eq!(report.configuration, "integrated");
        assert!(report.requests > 350, "measured {}", report.requests);
        assert!(report.achieved_qps > 0.0);
        assert!(report.sojourn.p95_ns >= report.sojourn.p50_ns);
        assert!(report.sojourn.p99_ns >= report.sojourn.p95_ns);
        // Sojourn must be at least the service time.
        assert!(report.sojourn.mean_ns >= report.service.mean_ns * 0.9);
        // The measurement pipeline reports its own behaviour.
        assert_eq!(report.queue_depth.policy, "unbounded");
        assert_eq!(report.queue_depth.dropped, 0);
        assert!(report.queue_depth.accepted >= report.requests);
        assert!(report.queue_depth.peak_depth >= 1);
        assert!(report.pacing.count >= report.requests);
    }

    #[test]
    fn max_duration_stops_before_an_arrival_past_the_cap() {
        use crate::traffic::LoadTrace;
        let app = echo_app();
        let mut factory = || b"cap".to_vec();
        let config = BenchmarkConfig::new(1_000.0, 3)
            .with_warmup(0)
            .with_load(LoadMode::trace(LoadTrace::from_times(vec![
                0,
                1_000_000,
                30_000_000_000,
            ])))
            .with_max_duration(Duration::from_millis(100));
        let started = std::time::Instant::now();
        let report = run_integrated(&app, &mut factory, &config).expect("integrated run");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the run waited {:?} for an arrival past the cap",
            started.elapsed()
        );
        assert_eq!(report.requests, 2);
        assert_eq!(report.pacing.count, 2);
    }

    #[test]
    fn higher_load_increases_tail_latency() {
        let app = echo_app();
        let mut factory = || b"x".to_vec();
        // Echo spins ~tens of microseconds; 1k QPS is light, 20k QPS is heavy for one thread.
        let low = run_integrated(
            &app,
            &mut factory,
            &BenchmarkConfig::new(500.0, 300).with_seed(1),
        )
        .expect("integrated run");
        let high = run_integrated(
            &app,
            &mut factory,
            &BenchmarkConfig::new(15_000.0, 300).with_seed(1),
        )
        .expect("integrated run");
        assert!(
            high.sojourn.p95_ns > low.sojourn.p95_ns,
            "high load p95 {} should exceed low load p95 {}",
            high.sojourn.p95_ns,
            low.sojourn.p95_ns
        );
        // Overload is visible in the depth accounting, not just the sojourn tail.
        assert!(high.queue_depth.peak_depth > low.queue_depth.peak_depth);
    }

    #[test]
    fn drop_admission_sheds_overload_and_reports_it() {
        use crate::queue::AdmissionPolicy;
        let app = echo_app();
        let mut factory = || b"x".to_vec();
        // ~20 us service at 25k QPS: far beyond one thread's capacity, with a 16-deep
        // queue every burst beyond 16 is shed and counted.
        let config = BenchmarkConfig::new(25_000.0, 600)
            .with_warmup(0)
            .with_seed(11)
            .with_admission(AdmissionPolicy::Drop { capacity: 16 });
        let report = run_integrated(&app, &mut factory, &config).expect("integrated run");
        assert_eq!(report.queue_depth.policy, "drop(16)");
        assert!(report.queue_depth.dropped > 0, "overload must shed");
        assert!(report.queue_depth.peak_depth <= 16);
        assert!(report.queue_depth.drop_rate() > 0.0);
        assert!(report.requests < 600, "dropped requests are never measured");
        // The queue never grows past the cap, so the sojourn tail stays bounded by
        // roughly capacity x service time (plus scheduling noise).
        assert!(report.sojourn.max_ns < 1_000_000_000);
    }

    #[test]
    fn integrated_cluster_broadcast_waits_for_the_slowest_shard() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let apps: Vec<Arc<dyn ServerApp>> = (0..3)
            .map(|_| Arc::new(EchoApp::with_service_us(20)) as Arc<dyn ServerApp>)
            .collect();
        let cluster = ClusterConfig::new(3, FanoutPolicy::Broadcast);
        let mut factory = || b"fan".to_vec();
        let config = BenchmarkConfig::new(1_000.0, 300)
            .with_warmup(30)
            .with_max_duration(Duration::from_secs(20));
        let report = run_cluster_integrated(&apps, &mut factory, &config, &cluster).unwrap();
        assert_eq!(report.shards, 3);
        assert_eq!(report.per_shard.len(), 3);
        // Every shard serves every request under broadcast.
        assert!(report.cluster.requests > 250, "{}", report.cluster.requests);
        for shard in &report.per_shard {
            assert_eq!(shard.requests, report.cluster.requests);
        }
        // The end-to-end tail waits for the slowest shard, so it can never be below a
        // single shard's tail.
        assert!(report.cluster.sojourn.p99_ns >= report.max_shard_p99_ns());
        assert!(report.p99_amplification() >= 1.0);
        // The aggregate queue summary covers all three instances' queues.
        assert!(report.cluster.queue_depth.accepted >= 3 * report.cluster.requests);
        assert!(report.cluster.pacing.count >= report.cluster.requests);
    }

    #[test]
    fn integrated_cluster_hash_routing_partitions_requests() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let apps: Vec<Arc<dyn ServerApp>> = (0..4)
            .map(|_| Arc::new(EchoApp::default()) as Arc<dyn ServerApp>)
            .collect();
        let cluster = ClusterConfig::new(4, FanoutPolicy::HashKey { offset: 0, len: 8 });
        let mut n = 0u64;
        let mut factory = move || {
            n += 1;
            n.to_le_bytes().to_vec()
        };
        let config = BenchmarkConfig::new(2_000.0, 400).with_warmup(0);
        let report = run_cluster_integrated(&apps, &mut factory, &config, &cluster).unwrap();
        // Routed mode: each request is served exactly once, split across the shards.
        let shard_total: u64 = report.per_shard.iter().map(|r| r.requests).sum();
        assert_eq!(shard_total, report.cluster.requests);
        let busiest = report.per_shard.iter().map(|r| r.requests).max().unwrap();
        assert!(
            busiest < report.cluster.requests,
            "hashing must not send every request to one shard"
        );
    }

    #[test]
    fn integrated_cluster_serves_tied_requests_first_response_wins() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let apps: Vec<Arc<dyn ServerApp>> = (0..4)
            .map(|_| Arc::new(EchoApp::with_service_us(20)) as Arc<dyn ServerApp>)
            .collect();
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast)
            .with_replication(2)
            .with_tied(true);
        let mut factory = || b"tie".to_vec();
        let config = BenchmarkConfig::new(800.0, 200)
            .with_warmup(20)
            .with_max_duration(Duration::from_secs(30));
        let report = run_cluster_integrated(&apps, &mut factory, &config, &cluster).unwrap();
        assert!(report.cluster.requests > 150, "{}", report.cluster.requests);
        let stats = report.hedge.expect("tied runs report through hedge stats");
        assert!(
            stats.issued >= 2 * report.cluster.requests,
            "every measured leg ({}) must have issued a tied copy ({})",
            report.cluster.requests,
            stats.issued
        );
        // Each leg is recorded exactly once despite two copies in flight.
        for shard in &report.per_shard {
            assert_eq!(shard.requests, report.cluster.requests);
        }
    }

    #[test]
    fn integrated_cluster_least_loaded_selector_serves_all_requests() {
        use crate::config::{ClusterConfig, FanoutPolicy, ReplicaSelector};
        let apps: Vec<Arc<dyn ServerApp>> = (0..4)
            .map(|_| Arc::new(EchoApp::with_service_us(20)) as Arc<dyn ServerApp>)
            .collect();
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast)
            .with_replication(2)
            .with_selector(ReplicaSelector::LeastLoaded);
        let mut factory = || b"ll".to_vec();
        let config = BenchmarkConfig::new(800.0, 200)
            .with_warmup(20)
            .with_max_duration(Duration::from_secs(30));
        let report = run_cluster_integrated(&apps, &mut factory, &config, &cluster).unwrap();
        assert!(report.cluster.requests > 150, "{}", report.cluster.requests);
        assert!(report.cluster.configuration.contains("least-loaded"));
        for shard in &report.per_shard {
            assert_eq!(shard.requests, report.cluster.requests);
        }
    }

    #[test]
    fn cluster_rejects_wrong_instance_count() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let apps: Vec<Arc<dyn ServerApp>> =
            vec![Arc::new(EchoApp::default()) as Arc<dyn ServerApp>];
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast);
        let mut factory = || vec![0u8];
        let config = BenchmarkConfig::new(100.0, 10);
        assert!(run_cluster_integrated(&apps, &mut factory, &config, &cluster).is_err());
    }

    #[test]
    fn closed_loop_mode_completes() {
        let app = echo_app();
        let mut factory = || b"x".to_vec();
        let config = BenchmarkConfig::new(1_000.0, 100)
            .with_warmup(10)
            .with_load(LoadMode::Closed { think_ns: 10_000 });
        let report = run_integrated(&app, &mut factory, &config).expect("integrated run");
        assert!(report.requests > 80);
        assert!(report.offered_qps.is_none());
        // Closed loop: no open-loop schedule, so no pacing error to report.
        assert_eq!(report.pacing.count, 0);
        assert_eq!(report.queue_depth.dropped, 0);
    }
}
