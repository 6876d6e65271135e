//! Discrete-event simulation of the integrated configuration.
//!
//! The paper's key enabler for architecture studies is that the integrated configuration
//! can be driven by a simulator instead of wall-clock execution (§VI).  This runner plays
//! that role: it executes the application functionally (so data structures behave exactly
//! as in a real run) but derives *service times* from a [`CostModel`] fed with the
//! per-request [`WorkProfile`](crate::request::WorkProfile), and advances a virtual clock
//! through a standard discrete-event loop.  Every server instance is a station with
//! `worker_threads` servers and a FIFO request queue; a single server is a 1×1 cluster.
//! Arrivals are drawn from [`LoadMode::arrivals`](crate::traffic::LoadMode::arrivals) as
//! the virtual clock reaches them, and a request's state lives only while it is in
//! flight, so a run's memory is bounded by its requests in flight, not its length.
//!
//! Routing, admission, hedged and tied requests are the wall-clock engines' own (the
//! `policy` module) on the virtual clock, so a fixed seed pins exact percentiles and
//! the queue summary a wall-clock run reports.  A `Block` policy cannot defer fixed
//! arrivals in virtual time, so it is treated as unbounded; virtual-time pacing is
//! exact, so the pacing summary is empty.  Service times follow the configuration's
//! deterministic [`InterferencePlan`](crate::interference::InterferencePlan).

use crate::app::{CostModel, RequestFactory, ServerApp};
use crate::config::{BenchmarkConfig, ClusterConfig};
use crate::error::HarnessError;
use crate::integrated::{build_cluster_report, check_instances, cluster_collector};
use crate::policy::{plan_legs, Fifo, LegBook, Offer, Queued};
use crate::queue::{AdmissionPolicy, DepthTracker};
use crate::report::{ClusterReport, QueueSummary};
use crate::request::{Request, RequestRecord};
use std::collections::BinaryHeap;
use std::sync::Arc;
use tailbench_workloads::rng::seeded_rng;

/// One copy of request `id`'s leg on `shard` in a station's queue (the payload stays
/// in the [`LegBook`]).
#[derive(Debug)]
struct QueuedLeg {
    id: u64,
    enqueued_ns: u64,
    shard: usize,
}

impl Queued for QueuedLeg {
    fn id(&self) -> u64 {
        self.id
    }

    fn enqueued_ns(&self) -> u64 {
        self.enqueued_ns
    }
}

/// A scheduled virtual-time event.  Min-heap by time; completions (rank 0) outrank
/// hedge checks (rank 1) at equal times (a response landing exactly at the deadline
/// cancels the hedge); FIFO by push order among equals.
#[derive(Debug, PartialEq, Eq)]
struct Event {
    time_ns: u64,
    rank: u8,
    seq: u64,
    what: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time_ns
            .cmp(&self.time_ns)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The end-of-run conservation check, in release builds: every station's
/// admission ledger balances, no request is still in flight, and the requests retired
/// with some but not all of their legs answered are exactly the collector's unmerged
/// fan-outs.
fn check_end_of_run<'a>(
    trackers: impl IntoIterator<Item = &'a DepthTracker>,
    in_flight: usize,
    partial: u64,
    unmerged: u64,
) -> Result<(), HarnessError> {
    for tracker in trackers {
        tracker.check()?;
    }
    if in_flight > 0 {
        return Err(HarnessError::Internal(format!(
            "{in_flight} requests still in flight after the last event"
        )));
    }
    if partial != unmerged {
        return Err(HarnessError::Internal(format!(
            "{partial} requests retired with unanswered legs, {unmerged} unmerged fan-outs"
        )));
    }
    Ok(())
}

/// One simulated server instance: its busy-server count and its admission FIFO.
#[derive(Debug)]
struct Station {
    busy: usize,
    waiting: Fifo<QueuedLeg>,
}

/// Station lookup: a missing instance is a routing bug, an error rather than a panic.
fn station_mut(stations: &mut [Station], instance: usize) -> Result<&mut Station, HarnessError> {
    stations
        .get_mut(instance)
        .ok_or_else(|| HarnessError::Internal(format!("station index {instance} out of range")))
}

#[derive(Debug, PartialEq, Eq)]
enum EventKind {
    /// Service completion of one copy of request `record.id`'s leg on `shard`.
    Completion {
        instance: usize,
        shard: usize,
        record: RequestRecord,
    },
    /// Hedge deadline of request `id`'s leg on `shard`.
    HedgeCheck { id: u64, shard: usize },
}

/// The state the event handlers share, beside the [`LegBook`] of requests in flight (so
/// a handler can read a payload from the book while it changes the stations); `removed`
/// collects queued copies shed after admission.
struct Sim<'a> {
    apps: &'a [Arc<dyn ServerApp>],
    cost_model: &'a dyn CostModel,
    config: &'a BenchmarkConfig,
    stations: Vec<Station>,
    events: BinaryHeap<Event>,
    removed: Vec<QueuedLeg>,
    seq: u64,
}

impl Sim<'_> {
    /// Schedules `what` at `time_ns`, after every event already scheduled then.
    fn schedule(&mut self, time_ns: u64, rank: u8, what: EventKind) {
        self.seq += 1;
        self.events.push(Event {
            time_ns,
            rank,
            seq: self.seq,
            what,
        });
    }

    /// Starts service for one copy of `request` on `instance` at virtual time `now`.
    fn start_service(
        &mut self,
        instance: usize,
        copy: QueuedLeg,
        request: &Request,
        now: u64,
    ) -> Result<(), HarnessError> {
        let app = self
            .apps
            .get(instance)
            .ok_or_else(|| HarnessError::Internal(format!("app index {instance} out of range")))?;
        let station = station_mut(&mut self.stations, instance)?;
        station.busy += 1;
        let response = app.handle(&request.payload);
        let base_ns = self
            .cost_model
            .service_time_ns(&response.work, station.busy);
        let service_ns = self
            .config
            .interference
            .adjusted_service_ns(instance, now, base_ns, copy.id)
            .max(1);
        let record = RequestRecord {
            id: request.id,
            issued_ns: request.issued_ns,
            enqueued_ns: copy.enqueued_ns,
            started_ns: now,
            completed_ns: now + service_ns,
            client_received_ns: now + service_ns,
        };
        let completion = EventKind::Completion {
            instance,
            shard: copy.shard,
            record,
        };
        self.schedule(now + service_ns, 0, completion);
        Ok(())
    }

    /// Admits a copy of `request`'s leg on `shard` to `instance` at `now`: straight into
    /// service on an idle server, else through the station's admission FIFO.  Returns
    /// whether it was admitted; copies of other requests it shed are left in `removed`.
    fn admit(
        &mut self,
        instance: usize,
        shard: usize,
        request: &Request,
        now: u64,
    ) -> Result<bool, HarnessError> {
        let copy = QueuedLeg {
            id: request.id.0,
            enqueued_ns: now,
            shard,
        };
        let servers = self.config.worker_threads.max(1);
        let station = station_mut(&mut self.stations, instance)?;
        if station.busy < servers {
            station.waiting.tracker.on_push(now, 1); // a depth-1 transit
            self.start_service(instance, copy, request, now)?;
            return Ok(true);
        }
        match station.waiting.offer(copy, now, &mut self.removed) {
            Offer::Admitted => Ok(true),
            Offer::Dropped => Ok(false),
            Offer::Full(_) => Err(HarnessError::Internal(
                "a simulated station blocked on a full queue".into(),
            )),
        }
    }

    /// Starts the next serviceable copy queued at `instance`, if any, once a server
    /// frees up at `now`.
    fn serve_next(
        &mut self,
        book: &LegBook<Request>,
        instance: usize,
        now: u64,
    ) -> Result<(), HarnessError> {
        let station = station_mut(&mut self.stations, instance)?;
        if let Some(queued) = station.waiting.pop_fresh(|| now, &mut self.removed) {
            let request = book.payload(queued.id)?;
            self.start_service(instance, queued, request, now)?;
        }
        Ok(())
    }
}

/// Runs one cluster measurement under discrete-event simulation.
///
/// All `cluster.instances()` server stations share a single virtual clock and event
/// heap, so a run is deterministic and host-independent: same seed, same report, on any
/// machine.  A single server runs as `shards = 1, replication = 1`.  Each station
/// has `config.worker_threads` servers and its own FIFO queue; the client-side router
/// distributes the open-loop schedule per `cluster.fanout`, and broadcast legs merge
/// last-response-wins in the cross-shard collector.  When the cluster configures an
/// active hedge policy, a leg whose primary has not completed within the trigger delay
/// is reissued to the shard's next replica and the first response wins (the loser still
/// occupies its server — hedging is not cancellation).
///
/// # Errors
///
/// Returns [`HarnessError::Config`] if the load mode is closed-loop or `apps` does not
/// hold exactly one application per instance.
pub fn run_cluster_simulated(
    apps: &[Arc<dyn ServerApp>],
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
    cluster: &ClusterConfig,
    cost_model: &dyn CostModel,
) -> Result<ClusterReport, HarnessError> {
    check_instances(apps, cluster)?;
    for app in apps {
        app.prepare();
    }

    let mut rng = seeded_rng(config.seed, 1);
    let mut arrivals = config
        .load
        .arrivals(&mut rng, config.total_requests(), 0, || {
            factory.next_request()
        })
        .ok_or_else(|| {
            HarnessError::Config("the simulated runner requires an open-loop load mode".into())
        })?;
    let mut next_arrival = arrivals.next();

    let width = cluster.fanout_width();
    let hedge = cluster.active_hedge();
    let mut collector = cluster_collector(config, cluster);
    let admission = if config.admission.shed_capacity().is_some() {
        config.admission
    } else {
        AdmissionPolicy::unbounded()
    };
    let mut sim = Sim {
        apps,
        cost_model,
        config,
        stations: (0..apps.len())
            .map(|_| Station {
                busy: 0,
                waiting: Fifo::new(admission, config.tags.clone()),
            })
            .collect(),
        events: BinaryHeap::new(),
        removed: Vec::new(),
        seq: 0,
    };
    let mut book = LegBook::new(cluster);
    let mut plan = Vec::with_capacity(width);

    loop {
        // Pick the earlier of the next arrival and the next event; arrivals win ties so
        // that a request arriving exactly when a server frees up still observes the
        // queue state before the completion is processed (a conservative FIFO choice).
        let next_event_time = sim.events.peek().map(|e| e.time_ns);
        match next_arrival.take() {
            Some(request) if next_event_time.is_none_or(|et| request.issued_ns <= et) => {
                next_arrival = arrivals.next();
                let (id, now) = (request.id.0, request.issued_ns);
                let load_of =
                    |i: usize| sim.stations.get(i).map_or(0, |s| s.busy + s.waiting.len());
                plan_legs(cluster, &request, config.seed, &load_of, &mut plan);
                for leg in &plan {
                    let shard = leg.shard;
                    if let Some(policy) = hedge {
                        let check = EventKind::HedgeCheck { id, shard };
                        sim.schedule(now + policy.delay_ns, 1, check);
                    }
                    let mut admitted = 0u8;
                    for instance in leg.copies() {
                        admitted += u8::from(sim.admit(instance, shard, &request, now)?);
                    }
                    book.open_leg(leg.primary, admitted);
                }
                book.open_request(id, request)?;
            }
            pending => {
                next_arrival = pending;
                let Some(event) = sim.events.pop() else {
                    break;
                };
                let t = event.time_ns;
                match event.what {
                    EventKind::Completion {
                        instance,
                        shard,
                        record,
                    } => {
                        let station = station_mut(&mut sim.stations, instance)?;
                        station.busy = station.busy.saturating_sub(1);
                        let id = record.id.0;
                        if let Some(first) = book.respond(id, shard, instance)? {
                            let _ = collector.record_leg(shard, record, width);
                            // Tied-request cancellation: the loser is retracted if it is
                            // still waiting in the sibling's queue (an in-service loser
                            // runs to completion, exactly like a hedge loser).
                            if let Some(sibling) = first.retract {
                                if station_mut(&mut sim.stations, sibling)?.waiting.retract(id) {
                                    book.shed(id, shard)?;
                                }
                            }
                        }
                        sim.serve_next(&book, instance, t)?;
                    }
                    EventKind::HedgeCheck { id, shard } => {
                        if let Some(alt) = book.hedge_due(id, shard)? {
                            if sim.admit(alt, shard, book.payload(id)?, t)? {
                                book.hedge_admitted(id, shard)?;
                            }
                        }
                    }
                }
                // Retiring after events is enough: events end nearly every request, and
                // one that an arrival ends (all its copies shed) retires at the next
                // event or after the loop.
                book.retire();
            }
        }
        // Copies shed after admission will never respond.
        while let Some(q) = sim.removed.pop() {
            book.shed(q.id, q.shard)?;
        }
    }

    book.retire();
    let unmerged = collector.unmerged() as u64;
    check_end_of_run(
        sim.stations.iter().map(|s| &s.waiting.tracker),
        book.in_flight(),
        book.partial,
        unmerged,
    )?;
    let queue_summaries: Vec<QueueSummary> =
        sim.stations.iter().map(|s| s.waiting.summary()).collect();
    let mut report = build_cluster_report(
        apps.first().map_or("", |a| a.name()),
        "simulated",
        config,
        cluster,
        &collector,
        book.hedge_stats(),
    );
    report.cluster.queue_depth = QueueSummary::aggregate(&queue_summaries);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{EchoApp, InstructionRateModel};
    use crate::config::{BenchmarkConfig, HarnessMode};
    use crate::report::RunReport;

    fn app() -> Arc<dyn ServerApp> {
        Arc::new(EchoApp {
            spin_iters: 100_000, // ~100k "instructions" per request
        })
    }

    /// A single-server simulated run, dispatched by the runner as every caller's is.
    fn simulate(
        app: &Arc<dyn ServerApp>,
        factory: &mut dyn RequestFactory,
        config: &BenchmarkConfig,
        model: &dyn CostModel,
    ) -> Result<RunReport, HarnessError> {
        let config = config.clone().with_mode(HarnessMode::Simulated);
        crate::runner::execute(app, factory, &config, Some(model))
    }

    #[test]
    fn simulated_run_is_deterministic() {
        let app = app();
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let config = BenchmarkConfig::new(2_000.0, 500)
            .with_warmup(50)
            .with_seed(3);
        let mut factory = || b"sim".to_vec();
        let a = simulate(&app, &mut factory, &config, &model).expect("simulated run");
        let mut factory = || b"sim".to_vec();
        let b = simulate(&app, &mut factory, &config, &model).expect("simulated run");
        assert_eq!(a.sojourn.p95_ns, b.sojourn.p95_ns);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.requests, 500);
    }

    #[test]
    fn latency_grows_with_load_in_simulation() {
        let app = app();
        // 100k instructions x 1 ns = 100 us service => saturation ~10k QPS.
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let mut factory = || b"x".to_vec();
        let low = simulate(
            &app,
            &mut factory,
            &BenchmarkConfig::new(1_000.0, 2_000).with_seed(7),
            &model,
        )
        .expect("simulated run");
        let mut factory = || b"x".to_vec();
        let high = simulate(
            &app,
            &mut factory,
            &BenchmarkConfig::new(9_000.0, 2_000).with_seed(7),
            &model,
        )
        .expect("simulated run");
        assert!(
            high.sojourn.p95_ns > 2 * low.sojourn.p95_ns,
            "p95 at 90% load ({}) should far exceed p95 at 10% load ({})",
            high.sojourn.p95_ns,
            low.sojourn.p95_ns
        );
    }

    #[test]
    fn more_servers_reduce_queueing_at_same_total_load() {
        let app = app();
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let mut factory = || b"x".to_vec();
        let one = simulate(
            &app,
            &mut factory,
            &BenchmarkConfig::new(8_000.0, 2_000)
                .with_threads(1)
                .with_seed(5),
            &model,
        )
        .expect("simulated run");
        let mut factory = || b"x".to_vec();
        let four = simulate(
            &app,
            &mut factory,
            &BenchmarkConfig::new(8_000.0, 2_000)
                .with_threads(4)
                .with_seed(5),
            &model,
        )
        .expect("simulated run");
        assert!(
            four.sojourn.p95_ns < one.sojourn.p95_ns,
            "4 servers p95 {} should be below 1 server p95 {}",
            four.sojourn.p95_ns,
            one.sojourn.p95_ns
        );
    }

    #[test]
    fn simulated_cluster_is_deterministic_and_amplifies_the_tail() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let run = |shards: usize| {
            let apps: Vec<Arc<dyn ServerApp>> = (0..shards)
                .map(|_| {
                    Arc::new(EchoApp {
                        spin_iters: 100_000,
                    }) as Arc<dyn ServerApp>
                })
                .collect();
            let cluster = ClusterConfig::new(shards, FanoutPolicy::Broadcast);
            let mut factory = || b"c".to_vec();
            let config = BenchmarkConfig::new(5_000.0, 1_000)
                .with_warmup(100)
                .with_seed(21);
            run_cluster_simulated(&apps, &mut factory, &config, &cluster, &model).unwrap()
        };
        let a = run(4);
        let b = run(4);
        assert_eq!(a.cluster.sojourn.p99_ns, b.cluster.sojourn.p99_ns);
        assert_eq!(a.per_shard[2].sojourn.p95_ns, b.per_shard[2].sojourn.p95_ns);
        assert_eq!(a.cluster.requests, 1_000);

        // Broadcast fan-out: the cluster tail waits for the slowest of the shards, so it
        // is at least any single shard's tail and amplification never drops below 1.
        assert!(a.cluster.sojourn.p99_ns >= a.max_shard_p99_ns());
        assert!(a.p99_amplification() >= 1.0);

        // One "shard" fanned out is just a single server: no amplification.
        let single = run(1);
        assert_eq!(
            single.cluster.sojourn.p99_ns,
            single.per_shard[0].sojourn.p99_ns
        );
    }

    #[test]
    fn simulated_cluster_routed_load_splits_across_shards() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let apps: Vec<Arc<dyn ServerApp>> = (0..4)
            .map(|_| {
                Arc::new(EchoApp {
                    spin_iters: 100_000,
                }) as Arc<dyn ServerApp>
            })
            .collect();
        let cluster = ClusterConfig::new(4, FanoutPolicy::HashKey { offset: 0, len: 8 });
        let mut n = 0u64;
        let mut factory = move || {
            n += 1;
            n.to_le_bytes().to_vec()
        };
        let config = BenchmarkConfig::new(8_000.0, 2_000)
            .with_warmup(0)
            .with_seed(9);
        let report = run_cluster_simulated(&apps, &mut factory, &config, &cluster, &model).unwrap();
        let shard_total: u64 = report.per_shard.iter().map(|r| r.requests).sum();
        assert_eq!(shard_total, report.cluster.requests);
        assert_eq!(report.cluster.requests, 2_000);
        for shard in &report.per_shard {
            assert!(
                shard.requests > 300,
                "hash routing should spread load, shard got {}",
                shard.requests
            );
        }
        // Sharding a single-key workload 4 ways quarters each server's load, so the
        // cluster tail sits far below a single server handling the full rate.
        let mut single_factory = {
            let mut n = 0u64;
            move || {
                n += 1;
                n.to_le_bytes().to_vec()
            }
        };
        let one: Arc<dyn ServerApp> = Arc::new(EchoApp {
            spin_iters: 100_000,
        });
        let single = simulate(&one, &mut single_factory, &config, &model).expect("simulated run");
        assert!(report.cluster.sojourn.p99_ns < single.sojourn.p99_ns);
    }

    #[test]
    fn simulated_cluster_replication_spreads_single_key_load() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let make_apps = |n: usize| -> Vec<Arc<dyn ServerApp>> {
            (0..n)
                .map(|_| {
                    Arc::new(EchoApp {
                        spin_iters: 100_000,
                    }) as Arc<dyn ServerApp>
                })
                .collect()
        };
        let config = BenchmarkConfig::new(8_000.0, 1_500)
            .with_warmup(0)
            .with_seed(4);
        let mut factory = || vec![0u8; 9]; // constant key: everything routes to one shard
        let unreplicated = run_cluster_simulated(
            &make_apps(2),
            &mut factory,
            &config,
            &ClusterConfig::new(2, FanoutPolicy::ycsb()),
            &model,
        )
        .unwrap();
        let mut factory = || vec![0u8; 9];
        let replicated = run_cluster_simulated(
            &make_apps(4),
            &mut factory,
            &config,
            &ClusterConfig::new(2, FanoutPolicy::ycsb()).with_replication(2),
            &model,
        )
        .unwrap();
        assert_eq!(replicated.replication, 2);
        // Two replicas split the hot shard's load, so the tail must improve.
        assert!(
            replicated.cluster.sojourn.p99_ns < unreplicated.cluster.sojourn.p99_ns,
            "replicated p99 {} vs unreplicated p99 {}",
            replicated.cluster.sojourn.p99_ns,
            unreplicated.cluster.sojourn.p99_ns
        );
    }

    #[test]
    fn virtual_time_spans_do_not_depend_on_host_speed() {
        // At 1000 QPS, 1000 requests span ~1 virtual second regardless of how fast the
        // host executes the handler functionally.
        let app = app();
        let model = InstructionRateModel {
            ns_per_instruction: 0.5,
        };
        let mut factory = || b"x".to_vec();
        let report = simulate(
            &app,
            &mut factory,
            &BenchmarkConfig::new(1_000.0, 1_000)
                .with_warmup(0)
                .with_seed(11),
            &model,
        )
        .expect("simulated run");
        let span_s = report.duration_ns as f64 / 1e9;
        assert!((span_s - 1.0).abs() < 0.15, "span = {span_s} s");
    }

    #[test]
    fn slow_shard_interference_inflates_only_its_window() {
        use crate::interference::InterferencePlan;
        let app = app();
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        // Light load (1k QPS, 100 us service): no queueing, sojourn ≈ service.  Slowing
        // the server 10x between 0.2 s and 0.4 s must lift the max far above the clean
        // run's, while the p50 (dominated by un-faulted time) barely moves.
        let base_config = BenchmarkConfig::new(1_000.0, 1_000)
            .with_warmup(0)
            .with_seed(13);
        let mut factory = || b"x".to_vec();
        let clean = simulate(&app, &mut factory, &base_config, &model).expect("simulated run");
        let faulted_config =
            base_config
                .clone()
                .with_interference(InterferencePlan::none().slow_instance(
                    0,
                    200_000_000,
                    400_000_000,
                    10.0,
                ));
        let mut factory = || b"x".to_vec();
        let faulted = simulate(&app, &mut factory, &faulted_config, &model).expect("simulated run");
        assert!(
            faulted.sojourn.max_ns >= clean.sojourn.max_ns * 5,
            "faulted max {} vs clean max {}",
            faulted.sojourn.max_ns,
            clean.sojourn.max_ns
        );
        assert!(faulted.sojourn.p50_ns < clean.sojourn.p50_ns * 2);
        // Determinism holds with interference active.
        let mut factory = || b"x".to_vec();
        let again = simulate(&app, &mut factory, &faulted_config, &model).expect("simulated run");
        assert_eq!(again.sojourn.p99_ns, faulted.sojourn.p99_ns);
    }

    #[test]
    fn tied_requests_beat_a_slow_replica_and_stay_deterministic() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        use crate::interference::InterferencePlan;
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let make_apps = || -> Vec<Arc<dyn ServerApp>> {
            (0..4)
                .map(|_| {
                    Arc::new(EchoApp {
                        spin_iters: 100_000,
                    }) as Arc<dyn ServerApp>
                })
                .collect()
        };
        // Same layout as the hedging test: 2x2 broadcast, instance 1 slowed 20x.
        // Tied requests issue both copies up front, so the healthy replica answers
        // every leg without waiting for a trigger delay.
        let config = BenchmarkConfig::new(2_000.0, 800)
            .with_warmup(0)
            .with_seed(17)
            .with_interference(InterferencePlan::none().slow_instance(1, 0, u64::MAX, 20.0));
        let base = ClusterConfig::new(2, FanoutPolicy::Broadcast).with_replication(2);
        let mut factory = || b"h".to_vec();
        let untied =
            run_cluster_simulated(&make_apps(), &mut factory, &config, &base, &model).unwrap();
        let tied_cluster = base.with_tied(true);
        let mut factory = || b"h".to_vec();
        let tied =
            run_cluster_simulated(&make_apps(), &mut factory, &config, &tied_cluster, &model)
                .unwrap();
        let stats = tied.hedge.expect("tied stats ride the hedge report field");
        assert_eq!(
            stats.issued,
            2 * 800,
            "every broadcast leg issues one tied copy"
        );
        assert!(stats.wins > 0, "some secondary copies must win");
        assert!(
            tied.cluster.sojourn.p99_ns < untied.cluster.sojourn.p99_ns / 2,
            "tied p99 {} should be far below untied p99 {}",
            tied.cluster.sojourn.p99_ns,
            untied.cluster.sojourn.p99_ns
        );
        assert_eq!(
            tied.cluster.requests, 800,
            "first response resolves every leg"
        );
        // Bit-for-bit deterministic.
        let mut factory = || b"h".to_vec();
        let again =
            run_cluster_simulated(&make_apps(), &mut factory, &config, &tied_cluster, &model)
                .unwrap();
        assert_eq!(again.cluster.sojourn.p99_ns, tied.cluster.sojourn.p99_ns);
        assert_eq!(again.hedge, tied.hedge);
    }

    #[test]
    fn load_aware_selectors_route_around_a_slow_replica() {
        use crate::config::{ClusterConfig, FanoutPolicy, ReplicaSelector};
        use crate::interference::InterferencePlan;
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let make_apps = || -> Vec<Arc<dyn ServerApp>> {
            (0..4)
                .map(|_| {
                    Arc::new(EchoApp {
                        spin_iters: 100_000,
                    }) as Arc<dyn ServerApp>
                })
                .collect()
        };
        let config = BenchmarkConfig::new(2_000.0, 800)
            .with_warmup(0)
            .with_seed(17)
            .with_interference(InterferencePlan::none().slow_instance(1, 0, u64::MAX, 20.0));
        let base = ClusterConfig::new(2, FanoutPolicy::Broadcast).with_replication(2);
        let run = |selector: ReplicaSelector| {
            let mut factory = || b"s".to_vec();
            run_cluster_simulated(
                &make_apps(),
                &mut factory,
                &config,
                &base.clone().with_selector(selector),
                &model,
            )
            .unwrap()
        };
        let round_robin = run(ReplicaSelector::RoundRobin);
        let least_loaded = run(ReplicaSelector::LeastLoaded);
        let p2c = run(ReplicaSelector::PowerOfTwo);
        // Round-robin keeps feeding the 20x replica; load-aware selectors observe its
        // backlog and shift legs to the healthy one, collapsing the tail.
        assert!(
            least_loaded.cluster.sojourn.p99_ns < round_robin.cluster.sojourn.p99_ns / 2,
            "least-loaded p99 {} vs round-robin p99 {}",
            least_loaded.cluster.sojourn.p99_ns,
            round_robin.cluster.sojourn.p99_ns
        );
        assert!(
            p2c.cluster.sojourn.p99_ns < round_robin.cluster.sojourn.p99_ns,
            "p2c p99 {} vs round-robin p99 {}",
            p2c.cluster.sojourn.p99_ns,
            round_robin.cluster.sojourn.p99_ns
        );
        // Determinism holds for the seeded selectors.
        let again = run(ReplicaSelector::PowerOfTwo);
        assert_eq!(again.cluster.sojourn.p99_ns, p2c.cluster.sojourn.p99_ns);
    }

    #[test]
    fn deadline_shedding_caps_the_tail_and_keeps_accounting_exact() {
        // Overload a single simulated server (100 us service at ~2x capacity): the
        // unbounded queue grows without bound, while deadline shedding keeps the
        // served tail near the SLO and counts every shed request as a drop.
        let app = app();
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let base = BenchmarkConfig::new(20_000.0, 2_000)
            .with_warmup(0)
            .with_seed(23);
        let mut factory = || b"d".to_vec();
        let unbounded = simulate(&app, &mut factory, &base, &model).expect("simulated run");
        let shed_config = base.clone().with_admission(AdmissionPolicy::DropDeadline {
            capacity: 64,
            slo_ns: 2_000_000,
        });
        let mut factory = || b"d".to_vec();
        let shed = simulate(&app, &mut factory, &shed_config, &model).expect("simulated run");
        assert!(shed.queue_depth.dropped > 0, "overload must shed");
        assert_eq!(
            shed.queue_depth.accepted + shed.queue_depth.dropped,
            shed_config.total_requests() as u64,
            "accepted + dropped must equal offered"
        );
        assert_eq!(shed.requests, shed.queue_depth.accepted);
        assert!(
            shed.sojourn.p99_ns < unbounded.sojourn.p99_ns / 4,
            "shed p99 {} should collapse vs unbounded p99 {}",
            shed.sojourn.p99_ns,
            unbounded.sojourn.p99_ns
        );
        // Deterministic.
        let mut factory = || b"d".to_vec();
        let again = simulate(&app, &mut factory, &shed_config, &model).expect("simulated run");
        assert_eq!(again.sojourn.p99_ns, shed.sojourn.p99_ns);
        assert_eq!(again.queue_depth.dropped, shed.queue_depth.dropped);
    }

    #[test]
    fn drop_accounting_balances_offered_load_under_overload() {
        // The Drop-policy audit pin: every offered request is either accepted or
        // dropped, dropped requests never enter the sojourn distribution, and the
        // whole breakdown is deterministic.
        let app = app();
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let config = BenchmarkConfig::new(20_000.0, 2_000)
            .with_warmup(100)
            .with_seed(29)
            .with_admission(AdmissionPolicy::Drop { capacity: 16 });
        let mut factory = || b"o".to_vec();
        let report = simulate(&app, &mut factory, &config, &model).expect("simulated run");
        let q = &report.queue_depth;
        assert!(q.dropped > 0);
        assert_eq!(q.accepted + q.dropped, config.total_requests() as u64);
        // Only served requests appear in the distribution (warmup excluded).
        assert!(
            report.requests <= q.accepted,
            "only accepted requests can be measured"
        );
        let mut factory = || b"o".to_vec();
        let again = simulate(&app, &mut factory, &config, &model).expect("simulated run");
        assert_eq!(again.queue_depth.accepted, q.accepted);
        assert_eq!(again.queue_depth.dropped, q.dropped);
    }

    #[test]
    fn priority_shedding_protects_the_high_class_under_overload() {
        use crate::collector::RequestTags;
        // Alternate request classes 0/1; under overload with a Priority queue the
        // batch class (1) absorbs the shedding.
        let app = app();
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let total = 2_200usize; // 200 warmup + 2000 measured
        let classes: Vec<u16> = (0..total).map(|i| (i % 2) as u16).collect();
        let tags = Arc::new(RequestTags::new(
            vec!["interactive".into(), "batch".into()],
            vec!["all".into()],
            classes,
            vec![0; total],
        ));
        let config = BenchmarkConfig::new(20_000.0, 2_000)
            .with_warmup(200)
            .with_seed(31)
            .with_tags(tags)
            .with_admission(AdmissionPolicy::Priority { capacity: 32 });
        let mut factory = || b"p".to_vec();
        let report = simulate(&app, &mut factory, &config, &model).expect("simulated run");
        let q = &report.queue_depth;
        assert!(q.dropped > 0, "overload must shed");
        assert_eq!(q.accepted + q.dropped, config.total_requests() as u64);
        let interactive = &report.per_class[0];
        let batch = &report.per_class[1];
        assert!(
            interactive.sojourn.count > batch.sojourn.count,
            "priority shedding must serve more interactive ({}) than batch ({})",
            interactive.sojourn.count,
            batch.sojourn.count
        );
    }

    #[test]
    fn hedging_rescues_legs_from_a_slow_replica() {
        use crate::config::{ClusterConfig, FanoutPolicy, HedgePolicy};
        use crate::interference::InterferencePlan;
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let make_apps = || -> Vec<Arc<dyn ServerApp>> {
            (0..4)
                .map(|_| {
                    Arc::new(EchoApp {
                        spin_iters: 100_000,
                    }) as Arc<dyn ServerApp>
                })
                .collect()
        };
        // 2 shards x 2 replicas, broadcast; instance 1 (shard 0, replica 1) is 20x
        // slower for the whole run.  Unhedged, the odd-id legs it serves dominate the
        // tail; hedging at 300 us reissues them to the healthy replica 0.
        let config = BenchmarkConfig::new(2_000.0, 800)
            .with_warmup(0)
            .with_seed(17)
            .with_interference(InterferencePlan::none().slow_instance(1, 0, u64::MAX, 20.0));
        let base = ClusterConfig::new(2, FanoutPolicy::Broadcast).with_replication(2);
        let mut factory = || b"h".to_vec();
        let unhedged =
            run_cluster_simulated(&make_apps(), &mut factory, &config, &base, &model).unwrap();
        assert_eq!(unhedged.hedge, None);
        let hedged_cluster = base.with_hedge(HedgePolicy::after_ns(300_000));
        let mut factory = || b"h".to_vec();
        let hedged =
            run_cluster_simulated(&make_apps(), &mut factory, &config, &hedged_cluster, &model)
                .unwrap();
        let stats = hedged.hedge.expect("hedge stats must be reported");
        assert!(stats.issued > 0, "the slow replica must trigger hedges");
        assert!(stats.wins > 0, "some hedges must win");
        assert!(stats.wins <= stats.issued);
        assert!(
            hedged.cluster.sojourn.p99_ns < unhedged.cluster.sojourn.p99_ns / 2,
            "hedged p99 {} should be far below unhedged p99 {}",
            hedged.cluster.sojourn.p99_ns,
            unhedged.cluster.sojourn.p99_ns
        );
        // Hedged runs stay bit-for-bit deterministic.
        let mut factory = || b"h".to_vec();
        let again =
            run_cluster_simulated(&make_apps(), &mut factory, &config, &hedged_cluster, &model)
                .unwrap();
        assert_eq!(again.cluster.sojourn.p99_ns, hedged.cluster.sojourn.p99_ns);
        assert_eq!(again.hedge, hedged.hedge);
    }

    #[test]
    fn end_of_run_check_fails_on_each_broken_invariant() {
        let balanced = {
            let mut t = DepthTracker::new();
            t.on_push(0, 1);
            t.on_drop();
            t.on_shed_admitted();
            t
        };
        assert!(check_end_of_run([&balanced, &balanced], 0, 3, 3).is_ok());

        // A shed with nothing admitted leaves accepted + dropped != offered.
        let mut leaked = DepthTracker::new();
        leaked.on_shed_admitted();
        let err = check_end_of_run([&balanced, &leaked], 0, 0, 0).unwrap_err();
        assert!(err.to_string().contains("queue accounting leaked"), "{err}");

        let err = check_end_of_run([&balanced], 2, 0, 0).unwrap_err();
        assert!(
            err.to_string().contains("2 requests still in flight"),
            "{err}"
        );

        let err = check_end_of_run([&balanced], 0, 1, 2).unwrap_err();
        assert!(err.to_string().contains("unmerged"), "{err}");
        assert!(matches!(err, HarnessError::Internal(_)));
    }

    #[test]
    fn cluster_ring_retires_every_request_and_counts_partial_fanouts() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        // Overloaded broadcast into deadline-shedding queues: some legs are shed, so
        // some fan-outs never merge.  The run returning Ok means the release-mode
        // end-of-run check held: the ring drained and its count of partially answered
        // requests equals the report's unmerged.
        let model = InstructionRateModel {
            ns_per_instruction: 1_000.0,
        };
        // Unequal shards shed different legs of the same requests.
        let apps: Vec<Arc<dyn ServerApp>> = [90, 60]
            .map(|spin_iters| Arc::new(EchoApp { spin_iters }) as Arc<dyn ServerApp>)
            .to_vec();
        let config = BenchmarkConfig::new(15_000.0, 1_000)
            .with_warmup(0)
            .with_seed(3)
            .with_admission(AdmissionPolicy::DropDeadline {
                capacity: 2,
                slo_ns: 150_000,
            });
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast);
        let mut factory = || b"r".to_vec();
        let report = run_cluster_simulated(&apps, &mut factory, &config, &cluster, &model)
            .expect("the end-of-run check holds");
        assert!(report.cluster.queue_depth.dropped > 0, "overload must shed");
        assert!(report.unmerged > 0, "some fan-outs must lose a leg");
        assert!(report.cluster.requests + report.unmerged <= 1_000);
    }
}
