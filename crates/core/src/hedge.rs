//! Wall-clock driver of the [`LegBook`] for hedged and tied requests and closed loops.
//!
//! The simulator drives the shared [`LegBook`] from its event loop; the hedge engine
//! thread, and the router of a closed-loop integrated run between its requests, drive
//! it through a [`Driver`], which opens every request the router announces, reissues a
//! copy to the shard's next replica once a leg's hedge delay expires unanswered,
//! retracts a tied loser still queued on its replica, and records each leg's first
//! response into the [`ClusterCollector`] it owns.
//!
//! Each request is opened in the book before any server can see it: a closed-loop
//! client opens its own with [`Driver::dispatch`]; routers whose book lives on the
//! engine thread announce theirs ([`HedgeMsg::Dispatched`]), the integrated router in id
//! order, the TCP pacers each in its own id order, so a later id may come first and the
//! book holds a slot for every id not yet announced until
//! [`HedgeMsg::NoMoreDispatches`].  Completions come from the workers (integrated)
//! or the socket receivers (TCP); a copy that will never complete — shed at admission,
//! or later from its queue by a deadline purge or a priority eviction — comes as
//! [`HedgeMsg::Cancelled`], and a thread that panics recording legs fails the run with
//! [`HedgeMsg::Panicked`].  The hedge delay is fixed and messages are handled in order,
//! so deadlines come due in the order they were armed.
//!
//! The engine returns once pacing has ended and every request has retired, dropping
//! the reissue and retract paths (which hold the servers' queue senders; a TCP run then
//! shuts its hedge sockets' write side) so the servers can unwind, or once every sender
//! to it is gone.  TCP cannot see a server-side shed: a TCP tied leg whose copy was shed
//! never retires, and the book keeps it and every later request until the senders are
//! gone — memory, not correctness.  Hedged TCP runs, which would wait for that copy,
//! reject shedding admission policies up front.

use crate::collector::ClusterCollector;
use crate::config::ClusterConfig;
use crate::error::HarnessError;
use crate::policy::{LegBook, LegPlan};
use crate::report::HedgeStats;
use crate::request::{Request, RequestRecord};
use crate::time::RunClock;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// One message into the hedge engine.
#[derive(Debug)]
pub(crate) enum HedgeMsg {
    /// `request`'s legs are about to be issued; its payload is kept for hedge copies
    /// (and may be empty when none will be).
    Dispatched {
        request: Request,
        legs: Vec<LegPlan>,
    },
    /// A copy of a leg responded from `instance`.
    Completed {
        shard: usize,
        instance: usize,
        record: RequestRecord,
    },
    /// An announced copy was shed and will never complete.
    Cancelled { id: u64, shard: usize },
    /// A thread recording `instance`'s responses panicked, maybe holding a copy.
    Panicked { instance: usize },
    /// Pacing has ended: no further requests.
    NoMoreDispatches,
}

/// The engine thread.
#[derive(Debug)]
pub(crate) struct HedgeEngine {
    handle: JoinHandle<Result<(HedgeStats, ClusterCollector), HarnessError>>,
}

impl HedgeEngine {
    /// Spawns the engine on `rx` for the cluster's hedge or tied policy; `collector`
    /// receives the winning record of every leg.  `reissue(instance, request)` injects
    /// a hedge copy, `true` if admitted; `retract(instance, id)` pulls a tied loser
    /// back out of its queue, `true` if it was still there.
    pub(crate) fn spawn(
        rx: Receiver<HedgeMsg>,
        cluster: ClusterConfig,
        clock: RunClock,
        collector: ClusterCollector,
        reissue: impl FnMut(usize, Request) -> bool + Send + 'static,
        retract: impl FnMut(usize, u64) -> bool + Send + 'static,
    ) -> Result<Self, HarnessError> {
        let mut driver = Driver::new(&cluster, clock, collector, reissue, retract);
        let handle = std::thread::Builder::new()
            .name("tb-hedge-engine".into())
            .spawn(move || {
                driver.drive(&rx, |d| d.no_more && d.book.in_flight() == 0)?;
                Ok((
                    driver.book.hedge_stats().unwrap_or_default(),
                    driver.collector,
                ))
            })?;
        Ok(HedgeEngine { handle })
    }

    /// Waits for the engine, returning its counters and the populated collector.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Internal`] if the engine panicked, met a copy of a
    /// request its book does not hold, or heard that a thread recording legs panicked.
    pub(crate) fn join(self) -> Result<(HedgeStats, ClusterCollector), HarnessError> {
        self.handle
            .join()
            .map_err(|_| HarnessError::Internal("hedge engine thread panicked".into()))?
    }
}

/// A run's leg book with the hedge deadlines it armed, the collector of first responses
/// and the `reissue` and `retract` paths of [`HedgeEngine::spawn`].
pub(crate) struct Driver {
    pub(crate) book: LegBook<Request>,
    /// (due_ns, id, shard), in the order they come due.
    deadlines: VecDeque<(u64, u64, usize)>,
    delay_ns: Option<u64>,
    clock: RunClock,
    pub(crate) collector: ClusterCollector,
    reissue: Box<dyn FnMut(usize, Request) -> bool + Send>,
    retract: Box<dyn FnMut(usize, u64) -> bool + Send>,
    /// Pacing has ended: no further requests.
    no_more: bool,
    /// End each sojourn as the driver takes the response (a closed-loop client).
    pub(crate) stamp_receipt: bool,
}

impl Driver {
    pub(crate) fn new(
        cluster: &ClusterConfig,
        clock: RunClock,
        collector: ClusterCollector,
        reissue: impl FnMut(usize, Request) -> bool + Send + 'static,
        retract: impl FnMut(usize, u64) -> bool + Send + 'static,
    ) -> Self {
        Driver {
            book: LegBook::new(cluster),
            deadlines: VecDeque::new(),
            delay_ns: cluster.active_hedge().map(|policy| policy.delay_ns),
            clock,
            collector,
            reissue: Box::new(reissue),
            retract: Box::new(retract),
            no_more: false,
            stamp_receipt: false,
        }
    }

    /// Opens `request` with its `legs` in the book, arming each leg's hedge deadline.
    /// Call it before any copy can reach a server, so no response finds the book
    /// without its request.
    pub(crate) fn dispatch(
        &mut self,
        request: Request,
        legs: &[LegPlan],
    ) -> Result<(), HarnessError> {
        let due = self.delay_ns.map(|delay| self.clock.now_ns() + delay);
        for leg in legs {
            self.book.open_leg(leg.primary, leg.copies().count() as u8);
            self.deadlines
                .extend(due.map(|due| (due, request.id.0, leg.shard)));
        }
        self.book.open_request(request.id.0, request)
    }

    /// Handles messages from `rx`, and hedges as their deadlines come due, until `done`
    /// holds or every sender to `rx` is gone.
    pub(crate) fn drive(
        &mut self,
        rx: &Receiver<HedgeMsg>,
        done: impl Fn(&Self) -> bool,
    ) -> Result<(), HarnessError> {
        loop {
            let due = |&&(due, ..): &&(u64, u64, usize)| due <= self.clock.now_ns();
            while let Some(&(_, id, shard)) = self.deadlines.front().filter(due) {
                self.deadlines.pop_front();
                if let Some(alt) = self.book.hedge_due(id, shard)? {
                    if (self.reissue)(alt, self.book.payload(id)?.clone()) {
                        self.book.hedge_admitted(id, shard)?;
                    }
                }
            }
            self.book.retire();
            if done(self) {
                return Ok(());
            }
            // Wait for the next message, or until the next deadline (with none, for good).
            let wait = self.deadlines.front().map_or(Duration::MAX, |&(due, ..)| {
                Duration::from_nanos(due.saturating_sub(self.clock.now_ns()).max(1))
            });
            let msg = match rx.recv_timeout(wait) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
            };
            match msg {
                HedgeMsg::Dispatched { request, legs } => self.dispatch(request, &legs)?,
                HedgeMsg::Completed {
                    shard,
                    instance,
                    mut record,
                } => {
                    let id = record.id.0;
                    if let Some(first) = self.book.respond(id, shard, instance)? {
                        if self.stamp_receipt {
                            record.client_received_ns = self.clock.now_ns();
                        }
                        let _ = self.collector.record_leg(shard, record, self.book.width);
                        if first.retract.is_some_and(|loser| (self.retract)(loser, id)) {
                            self.book.shed(id, shard)?;
                        }
                    }
                }
                HedgeMsg::Cancelled { id, shard } => self.book.shed(id, shard)?,
                HedgeMsg::Panicked { instance } => {
                    return Err(HarnessError::Internal(format!(
                        "a thread recording instance {instance}'s responses panicked"
                    )));
                }
                HedgeMsg::NoMoreDispatches => {
                    self.no_more = true;
                    self.book.close();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FanoutPolicy, HedgePolicy};
    use crate::request::RequestId;
    use std::sync::mpsc::channel;

    fn dispatched(id: u64, primary: usize, secondary: Option<usize>) -> HedgeMsg {
        HedgeMsg::Dispatched {
            request: leg_request(id),
            legs: vec![LegPlan {
                shard: 0,
                primary,
                secondary,
            }],
        }
    }

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
        let cluster = ClusterConfig::new(1, FanoutPolicy::Broadcast)
            .with_replication(2)
            .with_hedge(HedgePolicy::after_ns(2_000_000)); // 2 ms trigger
        let clock = RunClock::new();
        let (hedged_tx, hedged_rx) = crossbeam::channel::unbounded();
        let (tx, rx) = channel();
        let engine = HedgeEngine::spawn(
            rx,
            cluster,
            clock,
            ClusterCollector::new(1, 0),
            Box::new(move |instance, request| hedged_tx.send((instance, request)).is_ok()),
            Box::new(|_, _| false),
        )
        .expect("spawn hedge engine");
        // Leg 0 never gets a primary response: the engine must reissue it to the other
        // replica (instance 1) after ~2 ms.
        tx.send(dispatched(0, 0, None)).unwrap();
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
        tx.send(dispatched(1, 1, None)).unwrap();
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
        let cluster = ClusterConfig::new(1, FanoutPolicy::Broadcast)
            .with_replication(2)
            .with_hedge(HedgePolicy::after_ns(200_000_000)); // 200 ms: nothing should trigger
        let clock = RunClock::new();
        let (tx, rx) = channel();
        let engine = HedgeEngine::spawn(
            rx,
            cluster,
            clock,
            ClusterCollector::new(1, 0),
            Box::new(|_, _| panic!("no hedge expected")),
            Box::new(|_, _| false),
        )
        .expect("spawn hedge engine");
        for id in 0..10u64 {
            tx.send(dispatched(id, (id % 2) as usize, None)).unwrap();
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
        // Tied mode: nothing is ever reissued.
        let cluster = ClusterConfig::new(1, FanoutPolicy::Broadcast)
            .with_replication(2)
            .with_tied(true);
        let clock = RunClock::new();
        let (retract_tx, retract_rx) = crossbeam::channel::unbounded();
        let (tx, rx) = channel();
        let engine = HedgeEngine::spawn(
            rx,
            cluster,
            clock,
            ClusterCollector::new(1, 0),
            Box::new(|_, _| panic!("tied mode must not reissue")),
            Box::new(move |instance, id| {
                retract_tx.send((instance, id)).unwrap();
                true // pretend the loser was still queued
            }),
        )
        .expect("spawn hedge engine");
        // Leg 0: secondary (instance 1) answers first -> win + retraction of instance 0.
        tx.send(dispatched(0, 0, Some(1))).unwrap();
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
        tx.send(dispatched(1, 0, Some(1))).unwrap();
        tx.send(HedgeMsg::Completed {
            shard: 0,
            instance: 0,
            record: record(1, 5, 25),
        })
        .unwrap();
        assert_eq!(retract_rx.recv().unwrap(), (1, 1));
        // Leg 2: one copy shed at admission (Cancelled), the survivor still records.
        tx.send(dispatched(2, 0, Some(1))).unwrap();
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
