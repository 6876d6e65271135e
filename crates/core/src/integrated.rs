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
//! first-class [`RunReport`] fields.  Every run is a cluster run through
//! [`run_cluster_integrated`], a single server being the 1×1 cluster, and a closed
//! loop is that engine's client rather than an engine of its own.

use crate::app::{RequestFactory, ServerApp};
use crate::collector::{ClusterCollector, StatsCollector};
use crate::config::{BenchmarkConfig, ClusterConfig, ReplicaSelector};
use crate::error::HarnessError;
use crate::hedge::{Driver, HedgeEngine, HedgeMsg};
use crate::interference::InterferedApp;
use crate::policy::plan_legs;
use crate::pool::BufferPool;
use crate::queue::{Completion, PushOutcome, QueueObserver, RequestQueue, ShedSink};
use crate::report::{
    ClusterReport, HedgeStats, LabeledLatency, LatencyStats, QueueSummary, RunReport,
};
use crate::request::{Request, RequestId, RequestRecord};
use crate::time::{pace, PacingRecorder, RunClock};
use crate::traffic::{LoadMode, TrafficShaper};
use crate::worker::{Shard, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
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

/// The run's queue summary over its instances' queues, each ledger checked at
/// teardown: a leak fails the run with [`HarnessError::Internal`].
pub(crate) fn queue_summary(observers: &[QueueObserver]) -> Result<QueueSummary, HarnessError> {
    let summaries: Vec<_> = observers
        .iter()
        .map(QueueObserver::summary)
        .collect::<Result<_, _>>()?;
    Ok(QueueSummary::aggregate(&summaries))
}

/// Per-instance in-flight counts (copies sent minus responses and retractions): the
/// live load signal of the LeastLoaded and PowerOfTwo replica selectors.  Kept only when
/// the cluster's selector reads it, so under round-robin (a single server included) no
/// request updates a counter shared between threads.
#[derive(Debug, Clone)]
pub(crate) struct InFlight(Option<Arc<Vec<AtomicUsize>>>);

impl InFlight {
    pub(crate) fn new(cluster: &ClusterConfig) -> Self {
        let read = cluster.selector != ReplicaSelector::RoundRobin;
        let counts = (0..cluster.instances()).map(|_| AtomicUsize::new(0));
        InFlight(read.then(|| Arc::new(counts.collect())))
    }

    fn counter(&self, instance: usize) -> Option<&AtomicUsize> {
        self.0.as_ref().and_then(|counts| counts.get(instance))
    }

    pub(crate) fn load(&self, instance: usize) -> usize {
        self.counter(instance)
            .map_or(0, |count| count.load(Ordering::Relaxed))
    }

    pub(crate) fn add(&self, instance: usize) {
        if let Some(count) = self.counter(instance) {
            count.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn sub(&self, instance: usize) {
        if let Some(count) = self.counter(instance) {
            count.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The run's empty cross-shard collector.
pub(crate) fn cluster_collector(
    config: &BenchmarkConfig,
    cluster: &ClusterConfig,
) -> ClusterCollector {
    ClusterCollector::new(cluster.shards, config.warmup_requests as u64)
        .with_tags(config.tags.clone())
}

/// One instance's share of a cluster run's statistics (a worker's, or a TCP receiver's):
/// the legs it served, in a partial cross-shard collector or, when the run keeps a leg
/// book (hedged or tied requests, a closed loop), sent to whoever drives it.  Recording
/// a leg also retires it from the instance's in-flight count.
#[derive(Debug, Clone)]
pub(crate) struct LegShard {
    pub(crate) partial: ClusterCollector,
    engine: EngineLine,
    shard: usize,
    width: usize,
    in_flight: InFlight,
}

/// A leg shard's line to the leg book's driver; dropped by a panicking thread (a worker
/// holding a copy) it says so, which ends the driver's wait and fails the run.
#[derive(Debug, Clone)]
struct EngineLine(Option<Sender<HedgeMsg>>, usize);

impl Drop for EngineLine {
    fn drop(&mut self) {
        if let Some(tx) = self.0.as_ref().filter(|_| std::thread::panicking()) {
            let _ = tx.send(HedgeMsg::Panicked { instance: self.1 });
        }
    }
}

impl LegShard {
    pub(crate) fn new(
        config: &BenchmarkConfig,
        cluster: &ClusterConfig,
        instance: usize,
        engine: Option<&Sender<HedgeMsg>>,
        in_flight: &InFlight,
    ) -> Self {
        LegShard {
            partial: cluster_collector(config, cluster),
            engine: EngineLine(engine.cloned(), instance),
            shard: instance / cluster.replication,
            width: cluster.fanout_width(),
            in_flight: in_flight.clone(),
        }
    }
}

impl Shard for LegShard {
    fn record(&mut self, record: &RequestRecord) {
        let (shard, instance, record) = (self.shard, self.engine.1, *record);
        self.in_flight.sub(instance);
        if let Some(tx) = &self.engine.0 {
            let _ = tx.send(HedgeMsg::Completed {
                shard,
                instance,
                record,
            });
        } else {
            let _ = self.partial.record_leg(shard, record, self.width);
        }
    }

    fn merge(&mut self, other: Self) {
        self.partial.merge(other.partial);
    }
}

/// Runs one cluster measurement in the integrated configuration; a single server runs
/// as `shards = 1, replication = 1`.
///
/// Each of the `cluster.instances()` server instances gets its own request queue and
/// worker pool (all sharing one run clock); the calling thread is the client-side
/// router, pacing the global open-loop schedule and distributing requests according to
/// `cluster.fanout`.  Fan-out legs are merged last-response-wins: each worker records
/// the legs it serves into a partial cross-shard collector, merged at teardown.  With
/// hedging or tied requests active, workers hand their legs to the hedge engine, which
/// owns the collector, and the queues report every copy they shed after admitting it.
/// Every leg but a request's last gets a payload copy from a shared buffer pool.
///
/// Under `LoadMode::Closed` the router is one client that drives the engine's [`Driver`]
/// itself: it issues a request, takes responses and sheds until every leg has its
/// first response or no copy left to answer, waits the think time and issues the next.
/// Each sojourn ends when the client takes the response; no pacing error is reported.
///
/// # Errors
///
/// Returns [`HarnessError::Config`] if `apps` does not hold exactly one application per
/// instance, [`HarnessError::Io`] if a thread cannot be spawned and
/// [`HarnessError::Internal`] if one panics or a queue's ledger leaks.
pub fn run_cluster_integrated(
    apps: &[Arc<dyn ServerApp>],
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
    cluster: &ClusterConfig,
) -> Result<ClusterReport, HarnessError> {
    check_instances(apps, cluster)?;
    for app in apps {
        app.prepare();
    }
    let (requests, think_ns) = match config.load {
        LoadMode::Closed { think_ns } => (None, think_ns),
        _ => (Some(open_loop_requests(factory, config)?), 0),
    };

    let clock = RunClock::new();
    let width = cluster.fanout_width();
    let hedge = cluster.active_hedge();
    let tied = cluster.active_tied();
    let buffers = Arc::new(BufferPool::default());
    // Only fanned-out or tied legs take copies from the pool, so only then do workers
    // hand buffers back to it.
    let recycle = width > 1 || tied;
    let in_flight = InFlight::new(cluster);
    let (engine_tx, engine_rx) = channel();
    let engine_tx = (requests.is_none() || hedge.is_some() || tied).then_some(engine_tx);
    // A copy shed after admission leaves its instance's in-flight count and the book.
    let queues: Vec<RequestQueue> = (0..apps.len())
        .map(|i| {
            let (engine, in_flight) = (engine_tx.clone(), in_flight.clone());
            let shard = i / cluster.replication;
            let sink = ShedSink(Box::new(move |id: RequestId| {
                in_flight.sub(i);
                if let Some(tx) = &engine {
                    let _ = tx.send(HedgeMsg::Cancelled { id: id.0, shard });
                }
            }));
            RequestQueue::shedding_to(config.admission, config.tags.clone(), Some(sink))
        })
        .collect();
    let observers: Vec<_> = queues.iter().map(RequestQueue::observer).collect();

    // With hedging or tied requests active, or in a closed loop, every completion goes
    // to the engine's driver, which records only each leg's first response into the
    // collector it owns, reissues hedge stragglers straight onto the alternate replica's
    // queue, and retracts still-queued tied losers.
    let mut engine = None;
    let mut client = None;
    if engine_tx.is_some() {
        let queue_txs: Vec<_> = queues.iter().map(RequestQueue::sender).collect();
        let inflight = in_flight.clone();
        let reissue = move |instance: usize, request: Request| {
            let now = clock.now_ns();
            let accepted =
                queue_txs[instance].push(request, now, Completion::Inline) == PushOutcome::Accepted;
            if accepted {
                inflight.add(instance);
            }
            accepted
        };
        let cancel_queues: Vec<_> = queues.iter().map(RequestQueue::sender).collect();
        let inflight = in_flight.clone();
        let retract = move |instance: usize, id: u64| {
            let cancelled = cancel_queues[instance].cancel(RequestId(id));
            if cancelled {
                inflight.sub(instance);
            }
            cancelled
        };
        let collector = cluster_collector(config, cluster);
        if requests.is_some() {
            let cluster = cluster.clone();
            let spawned =
                HedgeEngine::spawn(engine_rx, cluster, clock, collector, reissue, retract);
            engine = Some(spawned?);
        } else {
            let mut driver = Driver::new(cluster, clock, collector, reissue, retract);
            driver.stamp_receipt = true;
            client = Some((driver, engine_rx));
        }
    }

    let mut pools = Vec::with_capacity(apps.len());
    for (i, app) in apps.iter().enumerate() {
        let shard = LegShard::new(config, cluster, i, engine_tx.as_ref(), &in_flight);
        pools.push(WorkerPool::spawn(
            interfered(app, config, i, clock),
            queues[i].receiver(),
            clock,
            config.worker_threads,
            shard,
            recycle.then(|| Arc::clone(&buffers)),
        )?);
    }

    let max_ns = config.max_duration.as_nanos() as u64;
    let mut plan = Vec::with_capacity(width);
    // Issues one request's copies; a closed-loop client passes its driver, which opens
    // the request itself instead of announcing it to the engine.
    let mut issue = |mut request: Request, client: Option<&mut Driver>| {
        let (id, now) = (request.id, request.issued_ns);
        let load_of = |i| in_flight.load(i);
        plan_legs(cluster, &request, config.seed, &load_of, &mut plan);
        // Open the legs before any server can answer them; only a hedge copy needs
        // the payload.
        let payload = hedge.map_or_else(Vec::new, |_| request.payload.clone());
        let opened = Request { payload, ..request };
        match (client, &engine_tx) {
            (Some(driver), _) => driver.dispatch(opened, &plan)?,
            (None, Some(tx)) => {
                let legs = plan.clone();
                let _ = tx.send(HedgeMsg::Dispatched {
                    request: opened,
                    legs,
                });
            }
            (None, None) => {}
        }
        let copies: usize = plan.iter().map(|leg| leg.copies().count()).sum();
        let targets = plan
            .iter()
            .flat_map(|leg| leg.copies().map(|i| (leg.shard, i)));
        for (n, (shard, i)) in targets.enumerate() {
            let payload = if n + 1 == copies {
                std::mem::take(&mut request.payload)
            } else {
                buffers.duplicate(&request.payload)
            };
            match queues[i].push(Request { payload, ..request }, now, Completion::Inline) {
                PushOutcome::Accepted => in_flight.add(i),
                PushOutcome::Dropped => {
                    // The copy was shed at admission: it will never complete.
                    if let Some(tx) = &engine_tx {
                        let _ = tx.send(HedgeMsg::Cancelled { id: id.0, shard });
                    }
                }
                PushOutcome::Closed => return Ok(false),
            }
        }
        Ok(true)
    };
    let mut pacing = PacingRecorder::new();
    let mut closed = Ok(());
    if let Some(requests) = requests {
        let open = |request| matches!(issue(request, None), Ok(true));
        pacing = pace(requests.into_requests(), clock, max_ns, open);
    } else if let Some((driver, rx)) = &mut client {
        // Each payload is drawn before its request is stamped.
        let (mut rng, total) = (seeded_rng(config.seed, 1), config.total_requests());
        for mut request in config
            .load
            .arrivals(&mut rng, total, 0, || factory.next_request())
        {
            let i = request.id.0;
            request.issued_ns = clock.now_ns();
            if request.issued_ns > max_ns {
                break;
            }
            closed = match issue(request, Some(driver)) {
                Ok(true) => driver.drive(rx, |d| d.book.settled(i)),
                Ok(false) => break,
                Err(e) => Err(e),
            };
            if closed.is_err() {
                break;
            }
            if think_ns > 0 {
                clock.sleep_until_ns(clock.now_ns() + think_ns);
            }
        }
    }
    if let Some(tx) = &engine_tx {
        let _ = tx.send(HedgeMsg::NoMoreDispatches);
    }
    drop(engine_tx);
    // Dropping the client's driver drops its queue handles; the hedge and tied losers
    // still queued are served, and their responses go unread.
    let client = client.map(|(driver, _)| (driver.book.hedge_stats(), driver.collector));

    for queue in queues {
        queue.close();
    }
    // Workers exit once every producer is gone: the router's handles, closed here, and
    // the engine's, dropped when every request has retired from its book.
    let mut partials = cluster_collector(config, cluster);
    for pool in pools {
        partials.merge(pool.join()?.stats.partial);
    }
    closed?;
    let (stats, hedge_stats) = match (engine, client) {
        (Some(engine), _) => {
            let (hedge_stats, collector) = engine.join()?;
            (collector, Some(hedge_stats))
        }
        (None, Some((hedge_stats, collector))) => (collector, hedge_stats),
        (None, None) => (partials, None),
    };
    let mut report = build_cluster_report(
        apps[0].name(),
        "integrated",
        config,
        cluster,
        &stats,
        hedge_stats,
    );
    report.cluster.queue_depth = queue_summary(&observers)?;
    report.cluster.pacing = pacing.stats();
    Ok(report)
}

/// The run's open-loop requests, scheduled and with their payloads built.  Pacers call
/// this before they start their run clock, so set-up does not delay the first arrivals.
pub(crate) fn open_loop_requests(
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
) -> Result<TrafficShaper, HarnessError> {
    let mut rng = seeded_rng(config.seed, 1);
    let times = config
        .load
        .schedule(&mut rng, config.total_requests())
        .ok_or_else(|| {
            HarnessError::Config("this runner requires an open-loop load mode".into())
        })?;
    Ok(TrafficShaper::from_times(times, 0, || {
        factory.next_request()
    }))
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

/// Assembles a [`ClusterReport`] from a populated cross-shard collector.  A one-shard
/// cluster's per-shard view is its end-to-end view, so its one per-shard row is the
/// end-to-end row, without the class/phase breakdown per-shard rows never carry (a
/// shard serves legs of every class), rather than a second pass over the same data.
pub(crate) fn build_cluster_report(
    app: &str,
    mode_name: &str,
    config: &BenchmarkConfig,
    cluster: &ClusterConfig,
    stats: &ClusterCollector,
    hedge: Option<HedgeStats>,
) -> ClusterReport {
    let configuration = format!("{mode_name}+{}", cluster.name());
    let end_to_end = build_report(app, &configuration, config, stats.cluster_stats());
    let (per_shard, shard_union_sojourn) = if cluster.shards == 1 {
        let row = RunReport {
            per_class: Vec::new(),
            per_phase: Vec::new(),
            ..end_to_end.clone()
        };
        (vec![row], end_to_end.sojourn)
    } else {
        let row = |shard| build_report(app, &configuration, config, shard);
        let union = LatencyStats::from_summary(&stats.merged_shard_sojourn());
        (stats.shard_stats().iter().map(row).collect(), union)
    };
    ClusterReport {
        cluster: end_to_end,
        per_shard,
        shards: cluster.shards,
        replication: cluster.replication,
        shard_union_sojourn,
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
    use crate::runner::execute;
    use crate::traffic::LoadMode;
    use std::time::Duration;

    fn echo_app() -> Arc<dyn ServerApp> {
        Arc::new(EchoApp::with_service_us(20))
    }

    /// One worker's saturation throughput for `app` in this build: the echo spin loop
    /// is many times shorter optimised than not, so load levels are set against it.
    fn capacity_qps(app: &Arc<dyn ServerApp>) -> f64 {
        crate::runner::measure_capacity(app, &mut || b"x".to_vec(), 1, 200)
    }

    #[test]
    fn integrated_run_produces_complete_report() {
        let app = echo_app();
        let mut factory = || b"req".to_vec();
        let config = BenchmarkConfig::new(2_000.0, 400)
            .with_warmup(50)
            .with_max_duration(Duration::from_secs(20));
        let report = execute(&app, &mut factory, &config, None).expect("integrated run");
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
        let report = execute(&app, &mut factory, &config, None).expect("integrated run");
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
        // A tenth of one worker's capacity is light, three times it is overload.
        let capacity = capacity_qps(&app);
        let low = execute(
            &app,
            &mut factory,
            &BenchmarkConfig::new(0.1 * capacity, 300).with_seed(1),
            None,
        )
        .expect("integrated run");
        let high = execute(
            &app,
            &mut factory,
            &BenchmarkConfig::new(3.0 * capacity, 300).with_seed(1),
            None,
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
        // Three times one thread's capacity: with a 16-deep queue every burst beyond 16
        // is shed and counted.
        let config = BenchmarkConfig::new(3.0 * capacity_qps(&app), 600)
            .with_warmup(0)
            .with_seed(11)
            .with_admission(AdmissionPolicy::Drop { capacity: 16 });
        let report = execute(&app, &mut factory, &config, None).expect("integrated run");
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

    fn closed(requests: usize) -> BenchmarkConfig {
        BenchmarkConfig::new(1_000.0, requests)
            .with_warmup(0)
            .with_load(LoadMode::Closed { think_ns: 0 })
    }

    #[test]
    fn closed_loop_moves_on_past_a_shed_request() {
        use crate::app::testing::within;
        use crate::queue::AdmissionPolicy;
        // A 1 ns budget sheds nearly every request at dequeue, so it never answers.
        let shedding = closed(200).with_admission(AdmissionPolicy::DropDeadline {
            capacity: 16,
            slo_ns: 1,
        });
        let report = within(20, move || {
            execute(&echo_app(), &mut || b"x".to_vec(), &shedding, None)
        })
        .expect("a shed request must not stall the closed loop")
        .expect("closed-loop run");
        let depth = &report.queue_depth;
        assert!(depth.dropped > 0, "the 1 ns budget must shed");
        assert_eq!(depth.accepted + depth.dropped, 200);
        assert_eq!(report.requests, depth.accepted);
    }

    #[test]
    fn closed_loop_fails_on_a_worker_panic() {
        use crate::app::testing::{within, PanicsOn21st};
        // With two workers, the one that survives still holds a line to the client.
        for threads in [1, 2] {
            let app: Arc<dyn ServerApp> = Arc::new(PanicsOn21st::default());
            let config = closed(200).with_threads(threads);
            let err = within(15, move || {
                execute(&app, &mut || b"x".to_vec(), &config, None)
            })
            .expect("a worker panic must not stall the closed loop")
            .unwrap_err();
            assert!(matches!(err, HarnessError::Internal(_)), "{threads}: {err}");
        }
    }

    #[test]
    fn hedged_and_tied_runs_fail_on_a_worker_panic() {
        use crate::app::testing::{within, PanicsOn21st};
        use crate::config::{FanoutPolicy, HedgePolicy};
        // Replica 1 panics holding a copy the engine waits for; its line to the engine
        // must end that wait, or the engine keeps replica 0's queue open for ever.
        let pair = ClusterConfig::new(1, FanoutPolicy::Broadcast).with_replication(2);
        for cluster in [
            pair.clone().with_hedge(HedgePolicy::after_ns(1_000_000)),
            pair.with_tied(true),
        ] {
            let apps: Vec<Arc<dyn ServerApp>> = vec![echo_app(), Arc::new(PanicsOn21st::default())];
            let config = BenchmarkConfig::new(2_000.0, 200).with_warmup(0);
            let name = cluster.name();
            let err = within(15, move || {
                run_cluster_integrated(&apps, &mut || b"x".to_vec(), &config, &cluster)
            })
            .expect("a worker panic must not stall the engine")
            .unwrap_err();
            assert!(matches!(err, HarnessError::Internal(_)), "{name}: {err}");
        }
    }

    #[test]
    fn closed_loop_mode_completes() {
        let app = echo_app();
        let mut factory = || b"x".to_vec();
        let config = BenchmarkConfig::new(1_000.0, 100)
            .with_warmup(10)
            .with_load(LoadMode::Closed { think_ns: 10_000 });
        let report = execute(&app, &mut factory, &config, None).expect("integrated run");
        assert!(report.requests > 80);
        assert!(report.offered_qps.is_none());
        // Closed loop: no open-loop schedule, so no pacing error to report.
        assert_eq!(report.pacing.count, 0);
        assert_eq!(report.queue_depth.dropped, 0);
    }
}
