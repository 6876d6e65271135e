//! Wall-clock hedged-request engine for the cluster router.
//!
//! The discrete-event simulation applies the [`HedgePolicy`](crate::config::HedgePolicy)
//! inside its event loop; the real-time cluster configurations (integrated and TCP) use
//! this engine instead: a dedicated thread that tracks every dispatched leg, reissues a
//! copy to the shard's next replica once the trigger delay expires without a response,
//! and forwards only the *first* response per leg to the cross-shard collector
//! (first-response-wins; the loser is dropped here, never recorded).
//!
//! Message flow: the router announces each leg with [`HedgeMsg::Dispatched`] *before*
//! handing the request to the server, every completed copy arrives as
//! [`HedgeMsg::Completed`] (sent by the worker that served it in the integrated
//! configuration, by the connection's receiver thread in the TCP ones), and the router signals the end of pacing with
//! [`HedgeMsg::NoMoreDispatches`].  Because a leg's `Dispatched` is enqueued before the
//! request can possibly complete, the engine never sees a completion for an unknown leg.
//! The engine already serializes every completion on its own thread, so it records
//! winning legs straight into a [`ClusterCollector`] it owns — there is no separate
//! collector thread or channel behind it — and hands the populated collector back at
//! [`HedgeEngine::join`].
//!
//! Shutdown is two-phase to avoid a teardown cycle: the reissue path (which holds
//! clones of the server-side queue senders) is dropped as soon as pacing has ended and
//! every outstanding copy has completed; only then can workers and receivers unwind,
//! closing the engine's channel and letting it return its [`HedgeStats`].

use crate::collector::ClusterCollector;
use crate::config::{ClusterConfig, HedgePolicy};
use crate::error::HarnessError;
use crate::report::HedgeStats;
use crate::request::{Request, RequestRecord};
use crate::time::RunClock;
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// One message into the hedge engine.
#[derive(Debug)]
pub(crate) enum HedgeMsg {
    /// The router dispatched `request`'s leg on `shard` (sent before the server can see
    /// the request).
    Dispatched {
        /// The leg's request (kept so a hedge copy can be reissued).
        request: Request,
        /// The shard this leg belongs to.
        shard: usize,
        /// The replica instance the primary copy was routed to.  The hedge copy goes to
        /// the shard's *next* replica after this one, so hedging stays correct under
        /// load-aware replica selectors.
        instance: usize,
    },
    /// The router dispatched a *tied* leg: two copies issued up front, `primary` and
    /// `secondary`.  First response wins; the engine retracts the queued loser.
    DispatchedTied {
        /// The leg's request id.
        id: u64,
        /// The shard this leg belongs to.
        shard: usize,
        /// The instance serving the first copy.
        primary: usize,
        /// The instance serving the second copy.
        secondary: usize,
    },
    /// One copy of a leg completed.
    Completed {
        /// The shard the completed copy belongs to.
        shard: usize,
        /// The instance whose connection/queue delivered the copy — identifies whether
        /// the primary or the hedge copy responded (each goes to a distinct replica).
        instance: usize,
        /// The copy's latency record.
        record: RequestRecord,
    },
    /// A previously announced leg was shed at admission and will never complete;
    /// retract its tracking so it is neither hedged nor left pending.
    Cancelled {
        /// The leg's request id.
        id: u64,
        /// The shard the leg belonged to.
        shard: usize,
    },
    /// The router finished pacing; no further `Dispatched` messages will arrive.
    NoMoreDispatches,
}

/// Client-side state of one wall-clock leg.
#[derive(Debug)]
struct WallLeg {
    request: Option<Request>,
    resolved: bool,
    /// The instance the primary copy was routed to.
    primary: usize,
    /// The instance the secondary copy targets: the hedge copy's destination once
    /// reissued, or the tied copy's destination from dispatch (`None` until hedged).
    hedged_to: Option<usize>,
    /// Tied legs dispatched both copies up front; the engine retracts the loser instead
    /// of reissuing anything.
    tied: bool,
    outstanding: u8,
}

/// The engine thread plus its message sender.
#[derive(Debug)]
pub(crate) struct HedgeEngine {
    tx: Sender<HedgeMsg>,
    handle: JoinHandle<(HedgeStats, ClusterCollector)>,
}

impl HedgeEngine {
    /// Spawns the engine.  `policy` arms the reissue deadlines (pass `None` for
    /// tied-only runs, where both copies are dispatched up front and nothing is ever
    /// reissued).  `reissue(instance, request)` injects a hedge copy into the transport
    /// (a queue push in the integrated configuration, a sender-channel send in the TCP
    /// ones); `retract(instance, id)` attempts to pull a still-queued tied loser back
    /// out of the transport, returning `true` if the copy will never run.  `collector`
    /// receives the winning record of every leg and is returned, populated, from
    /// [`HedgeEngine::join`].
    pub(crate) fn spawn(
        policy: Option<HedgePolicy>,
        cluster: ClusterConfig,
        width: usize,
        clock: RunClock,
        mut collector: ClusterCollector,
        reissue: Box<dyn FnMut(usize, Request) -> bool + Send>,
        retract: Box<dyn FnMut(usize, u64) -> bool + Send>,
    ) -> Result<Self, HarnessError> {
        let (tx, rx) = channel::<HedgeMsg>();
        let handle = std::thread::Builder::new()
            .name("tb-hedge-engine".into())
            .spawn(move || {
                // The reissue and retract paths both hold transport handles (queue or
                // channel senders); they are released together once pacing has ended and
                // every outstanding copy is accounted for, so servers can unwind.
                let mut transport = Some((reissue, retract));
                let mut stats = HedgeStats::default();
                let mut pending: HashMap<(u64, usize), WallLeg> = HashMap::new();
                // Hedge deadlines: (deadline_ns, ticket) -> leg key.  The ticket makes
                // keys unique when deadlines collide.
                let mut deadlines: BTreeMap<(u64, u64), (u64, usize)> = BTreeMap::new();
                let mut ticket = 0u64;
                let mut no_more = false;
                loop {
                    // Fire every due hedge.
                    let now = clock.now_ns();
                    while let Some((&slot, &key)) = deadlines.iter().next() {
                        if slot.0 > now {
                            break;
                        }
                        deadlines.remove(&slot);
                        let Some(leg) = pending.get_mut(&key) else {
                            continue;
                        };
                        if leg.resolved || leg.hedged_to.is_some() {
                            continue;
                        }
                        let Some(request) = leg.request.take() else {
                            continue;
                        };
                        // The copy goes to the shard's next replica *after the actual
                        // primary* — under load-aware selectors that is not necessarily
                        // `hedge_instance(shard, id)`.
                        let alt = cluster.secondary_instance(key.1, leg.primary);
                        if let Some((send, _)) = transport.as_mut() {
                            if send(alt, request) {
                                leg.hedged_to = Some(alt);
                                leg.outstanding += 1;
                                stats.issued += 1;
                            }
                        }
                    }
                    // Once pacing is over and every copy has come back, release the
                    // reissue/retract paths so the servers can start unwinding.
                    if no_more && pending.is_empty() && transport.is_some() {
                        transport = None;
                        deadlines.clear();
                    }
                    // Wait for the next message, or until the next hedge deadline.
                    let msg = match deadlines.keys().next() {
                        Some(&(deadline, _)) => {
                            let wait = deadline.saturating_sub(clock.now_ns());
                            match rx.recv_timeout(Duration::from_nanos(wait.max(1))) {
                                Ok(msg) => msg,
                                Err(RecvTimeoutError::Timeout) => continue,
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                        None => match rx.recv() {
                            Ok(msg) => msg,
                            Err(_) => break,
                        },
                    };
                    match msg {
                        HedgeMsg::Dispatched {
                            request,
                            shard,
                            instance,
                        } => {
                            let key = (request.id.0, shard);
                            if let Some(policy) = policy {
                                ticket += 1;
                                deadlines.insert((clock.now_ns() + policy.delay_ns, ticket), key);
                            }
                            pending.insert(
                                key,
                                WallLeg {
                                    request: Some(request),
                                    resolved: false,
                                    primary: instance,
                                    hedged_to: None,
                                    tied: false,
                                    outstanding: 1,
                                },
                            );
                        }
                        HedgeMsg::DispatchedTied {
                            id,
                            shard,
                            primary,
                            secondary,
                        } => {
                            stats.issued += 1;
                            pending.insert(
                                (id, shard),
                                WallLeg {
                                    request: None,
                                    resolved: false,
                                    primary,
                                    hedged_to: Some(secondary),
                                    tied: true,
                                    outstanding: 2,
                                },
                            );
                        }
                        HedgeMsg::Completed {
                            shard,
                            instance,
                            record,
                        } => {
                            let key = (record.id.0, shard);
                            if let Some(leg) = pending.get_mut(&key) {
                                leg.outstanding = leg.outstanding.saturating_sub(1);
                                if !leg.resolved {
                                    leg.resolved = true;
                                    // The copy won iff the first response came back on
                                    // the replica the secondary targets (primary and
                                    // secondary always target distinct replicas).
                                    if leg.hedged_to == Some(instance) {
                                        stats.wins += 1;
                                    }
                                    let _ = collector.record_leg(shard, record, width);
                                    // Tied: try to pull the losing copy back off its
                                    // queue.  If the retraction lands, that copy will
                                    // never produce a completion.
                                    if leg.tied && leg.outstanding > 0 {
                                        let loser = if Some(instance) == leg.hedged_to {
                                            leg.primary
                                        } else {
                                            leg.hedged_to.unwrap_or(leg.primary)
                                        };
                                        if let Some((_, cancel)) = transport.as_mut() {
                                            if cancel(loser, key.0) {
                                                leg.outstanding -= 1;
                                            }
                                        }
                                    }
                                }
                                if leg.outstanding == 0 {
                                    pending.remove(&key);
                                }
                            }
                        }
                        HedgeMsg::Cancelled { id, shard } => {
                            // One announced copy was shed at admission and will never
                            // complete.  For tied legs the sibling copy may still be in
                            // flight, so this only retires one copy's bookkeeping.
                            let key = (id, shard);
                            if let Some(leg) = pending.get_mut(&key) {
                                leg.outstanding = leg.outstanding.saturating_sub(1);
                                if leg.outstanding == 0 {
                                    pending.remove(&key);
                                }
                            }
                        }
                        HedgeMsg::NoMoreDispatches => no_more = true,
                    }
                }
                (stats, collector)
            })?;
        Ok(HedgeEngine { tx, handle })
    }

    /// A sender for the router and for whichever threads deliver completions.
    pub(crate) fn sender(&self) -> Sender<HedgeMsg> {
        self.tx.clone()
    }

    /// Drops the local sender and waits for the engine to drain, returning the hedge
    /// bookkeeping and the populated cluster collector.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Internal`] if the engine thread panicked.
    pub(crate) fn join(self) -> Result<(HedgeStats, ClusterCollector), HarnessError> {
        drop(self.tx);
        self.handle
            .join()
            .map_err(|_| HarnessError::Internal("hedge engine thread panicked".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FanoutPolicy;
    use crate::request::RequestId;

    fn leg_request(id: u64) -> Request {
        Request {
            id: RequestId(id),
            payload: vec![id as u8],
            issued_ns: 0,
        }
    }

    fn record(id: u64, enqueued_ns: u64, received_ns: u64) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            issued_ns: 0,
            enqueued_ns,
            started_ns: enqueued_ns,
            completed_ns: received_ns,
            client_received_ns: received_ns,
        }
    }

    #[test]
    fn slow_legs_get_hedged_and_first_response_wins() {
        let cluster = ClusterConfig::new(1, FanoutPolicy::Broadcast).with_replication(2);
        let clock = RunClock::new();
        let (hedged_tx, hedged_rx) = crossbeam::channel::unbounded();
        let engine = HedgeEngine::spawn(
            Some(HedgePolicy::after_ns(2_000_000)), // 2 ms trigger
            cluster,
            1,
            clock,
            ClusterCollector::new(1, 0),
            Box::new(move |instance, request| hedged_tx.send((instance, request)).is_ok()),
            Box::new(|_, _| false),
        )
        .expect("spawn hedge engine");
        let tx = engine.sender();
        // Leg 0 never gets a primary response: the engine must reissue it to the other
        // replica (instance 1) after ~2 ms.
        tx.send(HedgeMsg::Dispatched {
            request: leg_request(0),
            shard: 0,
            instance: 0,
        })
        .unwrap();
        let (alt, copy) = hedged_rx
            .recv()
            .expect("the engine must issue a hedge copy");
        assert_eq!(alt, 1);
        assert_eq!(copy.id, RequestId(0));
        // The hedge copy responds on the alternate replica, then the straggling primary
        // on replica 0: only the first response reaches the collector, and it is
        // classified as a hedge win by its instance.
        let hedge_done = clock.now_ns();
        tx.send(HedgeMsg::Completed {
            shard: 0,
            instance: 1,
            record: record(0, hedge_done, hedge_done + 10),
        })
        .unwrap();
        tx.send(HedgeMsg::Completed {
            shard: 0,
            instance: 0,
            record: record(0, 0, hedge_done + 500_000),
        })
        .unwrap();
        // Leg 1 (primary replica 1, hedge to replica 0) also gets hedged, but this time
        // the *primary* responds first: the hedge is issued yet must not count as a win.
        tx.send(HedgeMsg::Dispatched {
            request: leg_request(1),
            shard: 0,
            instance: 1,
        })
        .unwrap();
        let (alt, copy) = hedged_rx.recv().expect("second hedge copy");
        assert_eq!(alt, 0);
        assert_eq!(copy.id, RequestId(1));
        let now = clock.now_ns();
        tx.send(HedgeMsg::Completed {
            shard: 0,
            instance: 1,
            record: record(1, now, now + 10),
        })
        .unwrap();
        tx.send(HedgeMsg::Completed {
            shard: 0,
            instance: 0,
            record: record(1, now, now + 400_000),
        })
        .unwrap();
        tx.send(HedgeMsg::NoMoreDispatches).unwrap();
        drop(tx);
        let (stats, collector) = engine.join().expect("join hedge engine");
        assert_eq!(stats.issued, 2);
        assert_eq!(stats.wins, 1, "only the first leg's hedge won");
        assert_eq!(
            collector.cluster_stats().measured(),
            2,
            "one winning copy per leg"
        );
        // Only the fast first responses were recorded: both losers arrived >= 400 us
        // after `now`, so the recorded sojourns stay well below that.
        assert!(
            collector.cluster_stats().sojourn_stats().max_ns < now + 400_000,
            "a losing (straggler) response must never be recorded"
        );
    }

    #[test]
    fn fast_legs_are_never_hedged() {
        let cluster = ClusterConfig::new(1, FanoutPolicy::Broadcast).with_replication(2);
        let clock = RunClock::new();
        let engine = HedgeEngine::spawn(
            Some(HedgePolicy::after_ns(200_000_000)), // 200 ms: nothing should trigger
            cluster,
            1,
            clock,
            ClusterCollector::new(1, 0),
            Box::new(|_, _| panic!("no hedge expected")),
            Box::new(|_, _| false),
        )
        .expect("spawn hedge engine");
        let tx = engine.sender();
        for id in 0..10u64 {
            tx.send(HedgeMsg::Dispatched {
                request: leg_request(id),
                shard: 0,
                instance: (id % 2) as usize,
            })
            .unwrap();
            tx.send(HedgeMsg::Completed {
                shard: 0,
                instance: (id % 2) as usize,
                record: record(id, 10, 20),
            })
            .unwrap();
        }
        tx.send(HedgeMsg::NoMoreDispatches).unwrap();
        drop(tx);
        let (stats, collector) = engine.join().expect("join hedge engine");
        assert_eq!(stats, HedgeStats::default());
        assert_eq!(collector.cluster_stats().measured(), 10);
    }

    #[test]
    fn tied_legs_record_first_response_and_retract_the_loser() {
        let cluster = ClusterConfig::new(1, FanoutPolicy::Broadcast).with_replication(2);
        let clock = RunClock::new();
        let (retract_tx, retract_rx) = crossbeam::channel::unbounded();
        let engine = HedgeEngine::spawn(
            None, // tied mode: nothing is ever reissued
            cluster,
            1,
            clock,
            ClusterCollector::new(1, 0),
            Box::new(|_, _| panic!("tied mode must not reissue")),
            Box::new(move |instance, id| {
                retract_tx.send((instance, id)).unwrap();
                true // pretend the loser was still queued
            }),
        )
        .expect("spawn hedge engine");
        let tx = engine.sender();
        // Leg 0: secondary (instance 1) answers first -> win + retraction of instance 0.
        tx.send(HedgeMsg::DispatchedTied {
            id: 0,
            shard: 0,
            primary: 0,
            secondary: 1,
        })
        .unwrap();
        tx.send(HedgeMsg::Completed {
            shard: 0,
            instance: 1,
            record: record(0, 5, 15),
        })
        .unwrap();
        assert_eq!(
            retract_rx.recv().expect("loser must be retracted"),
            (0, 0),
            "the queued primary copy is pulled back"
        );
        // Leg 1: primary answers first -> no win, retract the secondary.
        tx.send(HedgeMsg::DispatchedTied {
            id: 1,
            shard: 0,
            primary: 0,
            secondary: 1,
        })
        .unwrap();
        tx.send(HedgeMsg::Completed {
            shard: 0,
            instance: 0,
            record: record(1, 5, 25),
        })
        .unwrap();
        assert_eq!(retract_rx.recv().unwrap(), (1, 1));
        // Leg 2: one copy shed at admission (Cancelled), the survivor still records.
        tx.send(HedgeMsg::DispatchedTied {
            id: 2,
            shard: 0,
            primary: 0,
            secondary: 1,
        })
        .unwrap();
        tx.send(HedgeMsg::Cancelled { id: 2, shard: 0 }).unwrap();
        tx.send(HedgeMsg::Completed {
            shard: 0,
            instance: 0,
            record: record(2, 5, 35),
        })
        .unwrap();
        tx.send(HedgeMsg::NoMoreDispatches).unwrap();
        drop(tx);
        let (stats, collector) = engine.join().expect("join hedge engine");
        assert_eq!(stats.issued, 3, "every tied leg issues one extra copy");
        assert_eq!(stats.wins, 1, "only leg 0's secondary answered first");
        assert_eq!(collector.cluster_stats().measured(), 3);
        assert!(
            retract_rx.try_recv().is_err(),
            "the shed leg's survivor must not trigger a retraction"
        );
    }
}
