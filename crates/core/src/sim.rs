//! Discrete-event simulation of the integrated configuration.
//!
//! The paper's key enabler for architecture studies is that the integrated configuration
//! can be driven by a simulator instead of wall-clock execution (§VI).  This runner plays
//! that role: it executes the application functionally (so data structures behave exactly
//! as in a real run) but derives *service times* from a [`CostModel`] fed with the
//! per-request [`WorkProfile`](crate::request::WorkProfile), and advances a virtual clock
//! through a standard discrete-event loop with `worker_threads` servers and a FIFO
//! request queue.  Queuing behaviour — the dominant component of tail latency at load —
//! emerges from the same open-loop arrival process used by the real-time runners.
//!
//! Arrivals are drawn from [`LoadMode::arrivals`](crate::traffic::LoadMode::arrivals) as
//! the virtual clock reaches them, and a request's state lives only while it is in
//! flight, so a run's memory is bounded by its requests in flight, not its length.
//!
//! The simulated FIFO shares the real-time queue's [`DepthTracker`] accounting, so a
//! DES run reports the same queue summary (peak depth, drops under a `Drop` admission
//! policy, sampled depth timeline) as a wall-clock run — deterministically, on the
//! virtual clock.  A `Block` policy cannot defer fixed open-loop arrivals in virtual
//! time, so the simulator treats it as unbounded (matching the default).  Virtual-time
//! pacing is exact, so the pacing summary of a simulated run is empty by construction.
//!
//! Scenario support: arrivals may follow a precompiled phased trace
//! ([`LoadMode::Trace`](crate::traffic::LoadMode)), service times are adjusted by the
//! configuration's deterministic [`InterferencePlan`](crate::interference::InterferencePlan),
//! and cluster runs honour the router's hedged-request policy
//! ([`HedgePolicy`](crate::config::HedgePolicy)) — all on the virtual clock, so a fixed
//! seed still pins exact percentiles.

use crate::app::{CostModel, RequestFactory, ServerApp};
use crate::collector::{ClusterCollector, RequestTags, StatsCollector};
use crate::config::{BenchmarkConfig, ClusterConfig, Route};
use crate::error::HarnessError;
use crate::integrated::{build_cluster_report, build_report, check_instances};
use crate::queue::{priority_victim, AdmissionPolicy, DepthTracker};
use crate::report::{ClusterReport, HedgeStats, QueueSummary, RunReport};
use crate::request::{Request, RequestRecord};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use tailbench_workloads::rng::seeded_rng;

/// One copy of request `id`'s leg on `shard` waiting in a station's FIFO queue, with
/// what the loop keeps alongside: the request itself in the single-server loop, nothing
/// in the cluster loop (the payload stays in the request's [`Slot`]).
#[derive(Debug)]
struct QueuedLeg<H> {
    id: u64,
    enqueued_ns: u64,
    shard: usize,
    is_hedge: bool,
    held: H,
}

/// Applies a shedding admission policy to one leg arriving at a full-or-not FIFO.
/// Returns `true` when the leg was queued; `false` when the arrival itself was shed
/// (counted as a drop).  Requests that were *admitted earlier* but shed now to make
/// room — expired head-of-line requests under `DropDeadline`, the evicted victim under
/// `Priority` — are reclassified in the tracker and appended to `removed` so cluster
/// callers can unwind per-leg hedging/tied bookkeeping.
fn enqueue_or_shed<H>(
    waiting: &mut VecDeque<QueuedLeg<H>>,
    tracker: &mut DepthTracker,
    admission: &AdmissionPolicy,
    tags: Option<&RequestTags>,
    leg: QueuedLeg<H>,
    now: u64,
    removed: &mut Vec<QueuedLeg<H>>,
) -> bool {
    if let Some(capacity) = admission.shed_capacity() {
        if waiting.len() >= capacity {
            match *admission {
                AdmissionPolicy::DropDeadline { slo_ns, .. } => {
                    while waiting
                        .front()
                        .is_some_and(|q| now.saturating_sub(q.enqueued_ns) > slo_ns)
                    {
                        if let Some(expired) = waiting.pop_front() {
                            tracker.on_shed_admitted();
                            removed.push(expired);
                        }
                    }
                    if waiting.len() >= capacity {
                        tracker.on_drop();
                        return false;
                    }
                }
                AdmissionPolicy::Priority { .. } => {
                    let class_of = |id: u64| tags.map_or(0, |t| t.class_of(id));
                    let victim =
                        priority_victim(waiting.iter().map(|q| class_of(q.id)), class_of(leg.id));
                    let Some(victim) = victim else {
                        tracker.on_drop();
                        return false;
                    };
                    if let Some(evicted) = waiting.remove(victim) {
                        tracker.on_shed_admitted();
                        removed.push(evicted);
                    }
                }
                _ => {
                    tracker.on_drop();
                    return false;
                }
            }
        }
    }
    waiting.push_back(leg);
    tracker.on_push(now, waiting.len() as u64);
    true
}

/// Pops the next serviceable leg, shedding expired head-of-line legs under a
/// `DropDeadline` policy (each reclassified in the tracker and appended to `removed`).
fn pop_fresh<H>(
    waiting: &mut VecDeque<QueuedLeg<H>>,
    tracker: &mut DepthTracker,
    admission: &AdmissionPolicy,
    now: u64,
    removed: &mut Vec<QueuedLeg<H>>,
) -> Option<QueuedLeg<H>> {
    while let Some(leg) = waiting.pop_front() {
        if admission
            .slo_ns()
            .is_some_and(|slo| now.saturating_sub(leg.enqueued_ns) > slo)
        {
            tracker.on_shed_admitted();
            removed.push(leg);
            continue;
        }
        return Some(leg);
    }
    None
}

/// A scheduled virtual-time event of either loop.  Min-heap by time; completions (rank
/// 0) outrank hedge checks (rank 1) at equal times (a response landing exactly at the
/// deadline cancels the hedge); FIFO by push order among equals.  `what` is the
/// completed request's record in the single-server loop, an [`EventKind`] in the
/// cluster loop.
#[derive(Debug, PartialEq, Eq)]
struct Event<K> {
    time_ns: u64,
    rank: u8,
    seq: u64,
    what: K,
}

impl<K: Eq> Ord for Event<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time_ns
            .cmp(&self.time_ns)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<K: Eq> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The end-of-run conservation check of both loops, in release builds: every station's
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

/// Runs one measurement under discrete-event simulation and returns its report.
///
/// The simulated system has `config.worker_threads` servers; arrivals follow
/// `config.load` (which must be open-loop: Poisson or a precompiled trace); service
/// times come from `cost_model`, adjusted by `config.interference`.
///
/// # Errors
///
/// Returns [`HarnessError::Config`] if `config.load` is closed-loop (the simulated
/// runner implements only the open-loop methodology) and [`HarnessError::Internal`]
/// if the event loop's bookkeeping invariants are violated.
pub fn run_simulated(
    app: &Arc<dyn ServerApp>,
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
    cost_model: &dyn CostModel,
) -> Result<RunReport, HarnessError> {
    app.prepare();

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

    let servers = config.worker_threads.max(1);
    let plan = config.interference.clone();
    let mut collector =
        StatsCollector::new(config.warmup_requests as u64).with_tags(config.tags.clone());
    let mut tracker = DepthTracker::new();
    let tags = config.tags.clone();
    let mut removed: Vec<QueuedLeg<Request>> = Vec::new();
    let mut waiting: VecDeque<QueuedLeg<Request>> = VecDeque::new();
    // Completion events, each carrying the record of the request it completes.
    let mut completions: BinaryHeap<Event<RequestRecord>> = BinaryHeap::new();
    let mut busy = 0usize;
    let mut seq = 0u64;

    // Helper to start service for a request at virtual time `now`.
    let start_service =
        |request: Request,
         enqueued_ns: u64,
         now: u64,
         busy: &mut usize,
         seq: &mut u64,
         completions: &mut BinaryHeap<Event<RequestRecord>>| {
            *busy += 1;
            let response = app.handle(&request.payload);
            let base_ns = cost_model.service_time_ns(&response.work, *busy);
            let service_ns = plan
                .adjusted_service_ns(0, now, base_ns, request.id.0)
                .max(1);
            *seq += 1;
            completions.push(Event {
                time_ns: now + service_ns,
                rank: 0,
                seq: *seq,
                what: RequestRecord {
                    id: request.id,
                    issued_ns: request.issued_ns,
                    enqueued_ns,
                    started_ns: now,
                    completed_ns: now + service_ns,
                    client_received_ns: now + service_ns,
                },
            });
        };

    loop {
        // Pick the earlier of the next arrival and the next completion; arrivals win ties
        // so that a request arriving exactly when a worker frees up still observes the
        // queue state before the completion is processed (a conservative FIFO choice).
        let next_completion_time = completions.peek().map(|c| c.time_ns);
        match next_arrival.take() {
            Some(request) if next_completion_time.is_none_or(|ct| request.issued_ns <= ct) => {
                next_arrival = arrivals.next();
                let now = request.issued_ns;
                if busy < servers {
                    start_service(request, now, now, &mut busy, &mut seq, &mut completions);
                    // Inclusive depth, matching the real-time queue's post-push sample: a
                    // request transits the queue (depth 1) even when a server is idle.
                    tracker.on_push(now, 1);
                } else {
                    let _ = enqueue_or_shed(
                        &mut waiting,
                        &mut tracker,
                        &config.admission,
                        tags.as_deref(),
                        QueuedLeg {
                            id: request.id.0,
                            enqueued_ns: now,
                            shard: 0,
                            is_hedge: false,
                            held: request,
                        },
                        now,
                        &mut removed,
                    );
                    removed.clear();
                }
            }
            pending => {
                next_arrival = pending;
                let Some(completion) = completions.pop() else {
                    break;
                };
                let ct = completion.time_ns;
                collector.record(&completion.what);
                busy -= 1;
                removed.clear();
                if let Some(queued) = pop_fresh(
                    &mut waiting,
                    &mut tracker,
                    &config.admission,
                    ct,
                    &mut removed,
                ) {
                    start_service(
                        queued.held,
                        queued.enqueued_ns,
                        ct,
                        &mut busy,
                        &mut seq,
                        &mut completions,
                    );
                }
            }
        }
    }

    check_end_of_run([&tracker], waiting.len(), 0, 0)?;
    let mut report = build_report(app.name(), "simulated", config, &collector);
    report.queue_depth = tracker.summary(config.admission.label());
    Ok(report)
}

/// One simulated server instance: its busy-server count, FIFO wait queue and the
/// queue-depth accounting that reports it.
#[derive(Debug, Default)]
struct Station {
    busy: usize,
    waiting: VecDeque<QueuedLeg<()>>,
    tracker: DepthTracker,
}

/// Fallible station lookup: a missing instance is a routing bug surfaced as an
/// internal error, never a panic mid-simulation.
fn station_mut(stations: &mut [Station], instance: usize) -> Result<&mut Station, HarnessError> {
    stations
        .get_mut(instance)
        .ok_or_else(|| HarnessError::Internal(format!("station index {instance} out of range")))
}

#[derive(Debug, PartialEq, Eq)]
enum EventKind {
    /// Service completion of one copy.
    Completion(ServiceEntry),
    /// Hedge deadline of request `id`'s leg on `shard`.
    HedgeCheck { id: u64, shard: usize },
}

/// A request copy in service, carried by its completion event.
#[derive(Debug, PartialEq, Eq)]
struct ServiceEntry {
    instance: usize,
    shard: usize,
    is_hedge: bool,
    record: RequestRecord,
}

/// Client-side state of one leg (request × shard).
#[derive(Debug)]
struct Leg {
    shard: usize,
    /// A response was recorded; under hedging or tied requests the first one wins.
    resolved: bool,
    /// The leg's hedge check has fired, or none is due (unhedged and tied legs).
    hedged: bool,
    /// Copies currently admitted (queued or in service).  A leg whose copies were all
    /// shed stays unresolved and surfaces as `unmerged` in the report.
    outstanding: u8,
    /// The instance the selector picked as primary.
    primary: usize,
    /// The replica after the primary, where a hedge or tied copy goes.
    secondary: usize,
}

/// One request in flight in the cluster loop: its payload, held once for all copies,
/// and one [`Leg`] per shard it fans out to.
#[derive(Debug)]
struct Slot {
    request: Request,
    legs: Vec<Leg>,
}

/// The cluster loop's requests in flight, in id order: slot `i` holds request
/// `head + i` (ids are dense from 0).  A slot retires once no copy of its request is
/// admitted and no hedge check is due, and the head advances past retired slots.
#[derive(Debug, Default)]
struct Ring {
    head: u64,
    slots: VecDeque<Slot>,
    /// Retired requests with some but not all legs answered.
    partial: u64,
}

impl Ring {
    fn slot_mut(&mut self, id: u64) -> Result<&mut Slot, HarnessError> {
        id.checked_sub(self.head)
            .and_then(|i| self.slots.get_mut(usize::try_from(i).ok()?))
            .ok_or_else(|| HarnessError::Internal(format!("request {id} is not in flight")))
    }

    fn leg_mut(&mut self, id: u64, shard: usize) -> Result<&mut Leg, HarnessError> {
        self.slot_mut(id)?
            .legs
            .iter_mut()
            .find(|leg| leg.shard == shard)
            .ok_or_else(|| HarnessError::Internal(format!("request {id} has no shard {shard}")))
    }

    /// Pops finished slots off the front, counting those with unanswered legs.
    fn retire(&mut self) {
        while let Some(slot) = self.slots.front() {
            if !slot.legs.iter().all(|l| l.outstanding == 0 && l.hedged) {
                break;
            }
            let answered = slot.legs.iter().filter(|l| l.resolved).count();
            self.partial += u64::from(answered > 0 && answered < slot.legs.len());
            self.slots.pop_front();
            self.head += 1;
        }
    }
}

/// Unwinds per-leg bookkeeping for queued copies that were shed after admission
/// (deadline purge or priority eviction pulled them back out of a station queue).
fn unwind_removed(removed: &mut Vec<QueuedLeg<()>>, ring: &mut Ring) -> Result<(), HarnessError> {
    for q in removed.drain(..) {
        let leg = ring.leg_mut(q.id, q.shard)?;
        leg.outstanding = leg.outstanding.saturating_sub(1);
    }
    Ok(())
}

/// Runs one cluster measurement under discrete-event simulation.
///
/// All `cluster.instances()` server stations share a single virtual clock and event
/// heap, so a cluster run is exactly as deterministic and host-independent as a
/// single-server simulated run: same seed, same report, on any machine.  Each station
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
    if !config.load.is_open() {
        return Err(HarnessError::Config(
            "the simulated runner requires an open-loop load mode".into(),
        ));
    }
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
        .ok_or_else(|| HarnessError::Internal("open-loop mode produced no schedule".into()))?;
    let mut next_arrival = arrivals.next();

    let servers = config.worker_threads.max(1);
    let width = cluster.fanout_width();
    let plan = config.interference.clone();
    let hedge = cluster.active_hedge();
    let tied = cluster.active_tied();
    let tags = config.tags.clone();
    let mut collector = ClusterCollector::new(cluster.shards, config.warmup_requests as u64)
        .with_tags(config.tags.clone());
    let mut stations: Vec<Station> = (0..apps.len()).map(|_| Station::default()).collect();
    let mut events: BinaryHeap<Event<EventKind>> = BinaryHeap::new();
    let mut ring = Ring::default();
    let mut hedge_stats = HedgeStats::default();
    let mut removed: Vec<QueuedLeg<()>> = Vec::new();
    let mut seq = 0u64;

    // Starts service for one copy on `instance` at virtual time `now`.
    let start_service = |instance: usize,
                         copy: QueuedLeg<()>,
                         now: u64,
                         stations: &mut Vec<Station>,
                         seq: &mut u64,
                         events: &mut BinaryHeap<Event<EventKind>>,
                         ring: &mut Ring|
     -> Result<(), HarnessError> {
        let app = apps
            .get(instance)
            .ok_or_else(|| HarnessError::Internal(format!("app index {instance} out of range")))?;
        let station = station_mut(stations, instance)?;
        station.busy += 1;
        let request = &ring.slot_mut(copy.id)?.request;
        let response = app.handle(&request.payload);
        let base_ns = cost_model.service_time_ns(&response.work, station.busy);
        let service_ns = plan
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
        *seq += 1;
        events.push(Event {
            time_ns: now + service_ns,
            rank: 0,
            seq: *seq,
            what: EventKind::Completion(ServiceEntry {
                instance,
                shard: copy.shard,
                is_hedge: copy.is_hedge,
                record,
            }),
        });
        Ok(())
    };

    // Admits one copy on `instance` at `now`: straight into service on an idle server
    // (an inclusive depth-1 transit, as in the single-server loop), else through the
    // station's admission policy.  Returns whether the copy was admitted.
    let admit = |instance: usize,
                 copy: QueuedLeg<()>,
                 now: u64,
                 stations: &mut Vec<Station>,
                 seq: &mut u64,
                 events: &mut BinaryHeap<Event<EventKind>>,
                 ring: &mut Ring,
                 removed: &mut Vec<QueuedLeg<()>>|
     -> Result<bool, HarnessError> {
        // A missing station is a routing bug; treat it as a full station so the
        // fallible lookup below reports it.
        if stations.get(instance).is_some_and(|s| s.busy < servers) {
            start_service(instance, copy, now, stations, seq, events, ring)?;
            station_mut(stations, instance)?.tracker.on_push(now, 1);
            return Ok(true);
        }
        let station = station_mut(stations, instance)?;
        Ok(enqueue_or_shed(
            &mut station.waiting,
            &mut station.tracker,
            &config.admission,
            tags.as_deref(),
            copy,
            now,
            removed,
        ))
    };

    loop {
        ring.retire();
        // Arrivals win ties, matching the single-server loop.
        let next_event_time = events.peek().map(|e| e.time_ns);
        match next_arrival.take() {
            Some(request) if next_event_time.is_none_or(|et| request.issued_ns <= et) => {
                next_arrival = arrivals.next();
                let (id, now) = (request.id.0, request.issued_ns);
                let shards = match cluster.fanout.route(&request.payload, cluster.shards) {
                    Route::Shard(shard) => shard..shard + 1,
                    Route::AllShards => 0..cluster.shards,
                };
                let legs = Vec::with_capacity(shards.len());
                ring.slots.push_back(Slot { request, legs });
                for shard in shards {
                    let primary = cluster.route_replica(shard, id, config.seed, &|i| {
                        stations.get(i).map_or(0, |s| s.busy + s.waiting.len())
                    });
                    let secondary = cluster.secondary_instance(shard, primary);
                    if let Some(policy) = hedge {
                        seq += 1;
                        events.push(Event {
                            time_ns: now + policy.delay_ns,
                            rank: 1,
                            seq,
                            what: EventKind::HedgeCheck { id, shard },
                        });
                    } else if tied {
                        hedge_stats.issued += 1;
                    }
                    ring.slot_mut(id)?.legs.push(Leg {
                        shard,
                        resolved: false,
                        hedged: hedge.is_none(),
                        outstanding: 0,
                        primary,
                        secondary,
                    });
                    let copies: &[(usize, bool)] = if tied {
                        &[(primary, false), (secondary, true)]
                    } else {
                        &[(primary, false)]
                    };
                    let mut admitted = 0u8;
                    for &(instance, is_hedge) in copies {
                        let copy = QueuedLeg {
                            id,
                            enqueued_ns: now,
                            shard,
                            is_hedge,
                            held: (),
                        };
                        let queued = admit(
                            instance,
                            copy,
                            now,
                            &mut stations,
                            &mut seq,
                            &mut events,
                            &mut ring,
                            &mut removed,
                        )?;
                        admitted += u8::from(queued);
                        unwind_removed(&mut removed, &mut ring)?;
                    }
                    ring.leg_mut(id, shard)?.outstanding += admitted;
                }
            }
            pending => {
                next_arrival = pending;
                let Some(event) = events.pop() else {
                    break;
                };
                let t = event.time_ns;
                match event.what {
                    EventKind::Completion(ServiceEntry {
                        instance,
                        shard,
                        is_hedge,
                        record,
                    }) => {
                        let station = station_mut(&mut stations, instance)?;
                        station.busy = station.busy.saturating_sub(1);
                        let leg = ring.leg_mut(record.id.0, shard)?;
                        leg.outstanding = leg.outstanding.saturating_sub(1);
                        if !leg.resolved {
                            leg.resolved = true;
                            hedge_stats.wins += u64::from(is_hedge);
                            let _ = collector.record_leg(shard, record, width);
                            // Tied-request cancellation: the loser is retracted if it is
                            // still waiting in the sibling's queue (an in-service loser
                            // runs to completion, exactly like a hedge loser).
                            if tied {
                                let sibling = if instance == leg.primary {
                                    leg.secondary
                                } else {
                                    leg.primary
                                };
                                let sib = station_mut(&mut stations, sibling)?;
                                if let Some(pos) = sib
                                    .waiting
                                    .iter()
                                    .position(|q| q.id == record.id.0 && q.shard == shard)
                                {
                                    sib.waiting.remove(pos);
                                    leg.outstanding = leg.outstanding.saturating_sub(1);
                                }
                            }
                        }
                        let station = station_mut(&mut stations, instance)?;
                        if let Some(queued) = pop_fresh(
                            &mut station.waiting,
                            &mut station.tracker,
                            &config.admission,
                            t,
                            &mut removed,
                        ) {
                            start_service(
                                instance,
                                queued,
                                t,
                                &mut stations,
                                &mut seq,
                                &mut events,
                                &mut ring,
                            )?;
                        }
                        unwind_removed(&mut removed, &mut ring)?;
                    }
                    EventKind::HedgeCheck { id, shard } => {
                        let leg = ring.leg_mut(id, shard)?;
                        leg.hedged = true;
                        if !leg.resolved {
                            let alt = leg.secondary;
                            let copy = QueuedLeg {
                                id,
                                enqueued_ns: t,
                                shard,
                                is_hedge: true,
                                held: (),
                            };
                            let admitted = admit(
                                alt,
                                copy,
                                t,
                                &mut stations,
                                &mut seq,
                                &mut events,
                                &mut ring,
                                &mut removed,
                            )?;
                            unwind_removed(&mut removed, &mut ring)?;
                            if admitted {
                                hedge_stats.issued += 1;
                                ring.leg_mut(id, shard)?.outstanding += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    ring.retire();
    let unmerged = collector.unmerged() as u64;
    check_end_of_run(
        stations.iter().map(|s| &s.tracker),
        ring.slots.len(),
        ring.partial,
        unmerged,
    )?;
    let queue_summaries: Vec<QueueSummary> = stations
        .iter()
        .map(|s| s.tracker.summary(config.admission.label()))
        .collect();
    let mut report = build_cluster_report(
        apps.first().map_or("", |a| a.name()),
        "simulated",
        config,
        cluster,
        &collector,
        (hedge.is_some() || tied).then_some(hedge_stats),
    );
    report.cluster.queue_depth = QueueSummary::aggregate(&queue_summaries);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{EchoApp, InstructionRateModel};
    use crate::config::BenchmarkConfig;

    fn app() -> Arc<dyn ServerApp> {
        Arc::new(EchoApp {
            spin_iters: 100_000, // ~100k "instructions" per request
        })
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
        let a = run_simulated(&app, &mut factory, &config, &model).expect("simulated run");
        let mut factory = || b"sim".to_vec();
        let b = run_simulated(&app, &mut factory, &config, &model).expect("simulated run");
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
        let low = run_simulated(
            &app,
            &mut factory,
            &BenchmarkConfig::new(1_000.0, 2_000).with_seed(7),
            &model,
        )
        .expect("simulated run");
        let mut factory = || b"x".to_vec();
        let high = run_simulated(
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
        let one = run_simulated(
            &app,
            &mut factory,
            &BenchmarkConfig::new(8_000.0, 2_000)
                .with_threads(1)
                .with_seed(5),
            &model,
        )
        .expect("simulated run");
        let mut factory = || b"x".to_vec();
        let four = run_simulated(
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
        let single =
            run_simulated(&one, &mut single_factory, &config, &model).expect("simulated run");
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
        let report = run_simulated(
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
        let clean = run_simulated(&app, &mut factory, &base_config, &model).expect("simulated run");
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
        let faulted =
            run_simulated(&app, &mut factory, &faulted_config, &model).expect("simulated run");
        assert!(
            faulted.sojourn.max_ns >= clean.sojourn.max_ns * 5,
            "faulted max {} vs clean max {}",
            faulted.sojourn.max_ns,
            clean.sojourn.max_ns
        );
        assert!(faulted.sojourn.p50_ns < clean.sojourn.p50_ns * 2);
        // Determinism holds with interference active.
        let mut factory = || b"x".to_vec();
        let again =
            run_simulated(&app, &mut factory, &faulted_config, &model).expect("simulated run");
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
        let unbounded = run_simulated(&app, &mut factory, &base, &model).expect("simulated run");
        let shed_config = base.clone().with_admission(AdmissionPolicy::DropDeadline {
            capacity: 64,
            slo_ns: 2_000_000,
        });
        let mut factory = || b"d".to_vec();
        let shed = run_simulated(&app, &mut factory, &shed_config, &model).expect("simulated run");
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
        let again = run_simulated(&app, &mut factory, &shed_config, &model).expect("simulated run");
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
        let report = run_simulated(&app, &mut factory, &config, &model).expect("simulated run");
        let q = &report.queue_depth;
        assert!(q.dropped > 0);
        assert_eq!(q.accepted + q.dropped, config.total_requests() as u64);
        // Only served requests appear in the distribution (warmup excluded).
        assert!(
            report.requests <= q.accepted,
            "only accepted requests can be measured"
        );
        let mut factory = || b"o".to_vec();
        let again = run_simulated(&app, &mut factory, &config, &model).expect("simulated run");
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
        let report = run_simulated(&app, &mut factory, &config, &model).expect("simulated run");
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
