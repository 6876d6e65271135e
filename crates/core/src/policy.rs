//! The tail-mitigation core every harness mode shares, with no I/O and no clock (every
//! method takes `now` from its caller): the simulator drives it from its event heap,
//! the integrated router, the TCP pacers and the hedge engine from their threads.
//!
//! * [`plan_legs`] maps a request to its legs: shards, primary replica, tied replica.
//! * [`Fifo`] is one instance's admission queue and depth ledger.
//! * [`LegBook`] is the client-side state of the requests in flight: copies admitted,
//!   first response, hedge deadlines, retraction targets and retirement.

use crate::collector::RequestTags;
use crate::config::{ClusterConfig, Route};
use crate::error::HarnessError;
use crate::queue::{priority_victim, AdmissionPolicy, DepthTracker};
use crate::report::{HedgeStats, QueueSummary};
use crate::request::Request;
use std::collections::VecDeque;
use std::sync::Arc;

/// One leg of a request: its shard, the instance of its primary copy and, under tied
/// requests, the instance of the second copy issued up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LegPlan {
    pub(crate) shard: usize,
    pub(crate) primary: usize,
    pub(crate) secondary: Option<usize>,
}

impl LegPlan {
    /// The instances the leg's copies go to, primary first.
    pub(crate) fn copies(&self) -> impl Iterator<Item = usize> {
        std::iter::once(self.primary).chain(self.secondary)
    }
}

/// Fills `plan` with `request`'s legs in shard order: the fan-out picks the shards, the
/// replica selector the primary (reading instance loads through `load_of`), and tied
/// requests add the replica after it.
pub(crate) fn plan_legs(
    cluster: &ClusterConfig,
    request: &Request,
    seed: u64,
    load_of: &dyn Fn(usize) -> usize,
    plan: &mut Vec<LegPlan>,
) {
    let id = request.id.0;
    let shards = match cluster.fanout.route(&request.payload, cluster.shards) {
        Route::Shard(shard) => shard..shard + 1,
        Route::AllShards => 0..cluster.shards,
    };
    let tied = cluster.active_tied();
    plan.clear();
    plan.extend(shards.map(|shard| {
        let primary = cluster.route_replica(shard, id, seed, load_of);
        let secondary = tied.then(|| cluster.secondary_instance(shard, primary));
        LegPlan {
            shard,
            primary,
            secondary,
        }
    }));
}

/// A queued copy: its request id (for the `Priority` class and retraction) and when it
/// was queued (for the `DropDeadline` budget).
pub(crate) trait Queued {
    fn id(&self) -> u64;
    fn enqueued_ns(&self) -> u64;
}

/// The outcome of [`Fifo::offer`]; a full `Block` queue hands the copy back.
#[derive(Debug)]
pub(crate) enum Offer<T> {
    Admitted,
    Dropped,
    Full(T),
}

/// One server instance's FIFO admission queue and its ledger.  Copies shed *after*
/// admission — expired head-of-line copies under `DropDeadline`, the victim of a
/// `Priority` eviction — are reclassified as dropped and appended to the caller's
/// `removed`, so the caller can tell whoever waits for them.
#[derive(Debug)]
pub(crate) struct Fifo<T> {
    policy: AdmissionPolicy,
    tags: Option<Arc<RequestTags>>,
    items: VecDeque<T>,
    pub(crate) tracker: DepthTracker,
}

impl<T: Queued> Fifo<T> {
    /// An empty queue; `tags` classify requests for `Priority` (untagged: all class 0).
    pub(crate) fn new(policy: AdmissionPolicy, tags: Option<Arc<RequestTags>>) -> Self {
        Fifo {
            policy,
            tags,
            items: VecDeque::new(),
            tracker: DepthTracker::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Offers `item` at `now`.  A full queue drops it, unless `DropDeadline` can purge
    /// expired copies or `Priority` can evict a lower-class one first.
    pub(crate) fn offer(&mut self, item: T, now: u64, removed: &mut Vec<T>) -> Offer<T> {
        let capacity = self.policy.capacity();
        if self.items.len() >= capacity {
            match self.policy {
                AdmissionPolicy::Block { .. } => return Offer::Full(item),
                AdmissionPolicy::Drop { .. } => {}
                AdmissionPolicy::DropDeadline { slo_ns, .. } => {
                    self.shed_expired(slo_ns, now, removed);
                }
                AdmissionPolicy::Priority { .. } => {
                    let class_of = |id: u64| self.tags.as_ref().map_or(0, |t| t.class_of(id));
                    let classes = self.items.iter().map(|q| class_of(q.id()));
                    let victim = priority_victim(classes, class_of(item.id()));
                    if let Some(evicted) = victim.and_then(|i| self.items.remove(i)) {
                        self.tracker.on_shed_admitted();
                        removed.push(evicted);
                    }
                }
            }
            if self.items.len() >= capacity {
                self.tracker.on_drop();
                return Offer::Dropped;
            }
        }
        self.items.push_back(item);
        self.tracker.on_push(now, self.items.len() as u64);
        Offer::Admitted
    }

    /// Pops the next copy to serve after shedding the expired head of a `DropDeadline`
    /// queue, the only case that reads `now`.
    pub(crate) fn pop_fresh(
        &mut self,
        now: impl FnOnce() -> u64,
        removed: &mut Vec<T>,
    ) -> Option<T> {
        if let Some(slo_ns) = self.policy.slo_ns().filter(|_| !self.items.is_empty()) {
            self.shed_expired(slo_ns, now(), removed);
        }
        self.items.pop_front()
    }

    /// Pulls request `id`'s copy out of the queue, if still queued.  A retracted copy
    /// stays accepted: it was admitted, not shed.
    pub(crate) fn retract(&mut self, id: u64) -> bool {
        let index = self.items.iter().position(|q| q.id() == id);
        index.and_then(|i| self.items.remove(i)).is_some()
    }

    /// Hands back every queued copy: the last worker is gone, so none will be served.
    pub(crate) fn abandon(&mut self) -> VecDeque<T> {
        std::mem::take(&mut self.items)
    }

    pub(crate) fn summary(&self) -> QueueSummary {
        self.tracker.summary(self.policy.label())
    }

    fn shed_expired(&mut self, slo_ns: u64, now: u64, removed: &mut Vec<T>) {
        let expired = |q: &mut T| now.saturating_sub(q.enqueued_ns()) > slo_ns;
        while let Some(item) = self.items.pop_front_if(expired) {
            self.tracker.on_shed_admitted();
            removed.push(item);
        }
    }
}

/// Client-side state of one leg (request × shard).
#[derive(Debug, Clone, Copy)]
struct Leg {
    /// A response was recorded (the first one wins).
    resolved: bool,
    /// The leg's hedge deadline has yet to come due.
    hedge_pending: bool,
    /// Copies admitted and not yet answered, shed or retracted.
    outstanding: u8,
    /// The selector's pick; any other instance holds a hedge or tied copy.
    primary: usize,
}

/// A leg of a request no pacer has opened yet: nothing outstanding, yet not done until
/// it opens or the book closes.
const UNISSUED: Leg = Leg {
    resolved: false,
    hedge_pending: true,
    outstanding: 0,
    primary: usize::MAX,
};

/// A leg's first response: whether the hedge or tied copy won, and under tied requests
/// the instance holding the other copy, for the caller to retract (and report as shed
/// if that lands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FirstResponse {
    pub(crate) win: bool,
    pub(crate) retract: Option<usize>,
}

/// The requests in flight, in id order: request `head + i` is `payloads[i]`, its legs
/// the `width` entries of `legs` from `i * width` (a routed request's one leg at offset
/// 0).  Ids are dense from 0, so lookups index.  A request retires once no copy of any
/// leg is outstanding and each leg is answered or past its hedge deadline; one retired
/// with some but not all legs answered counts as `partial`.  Several pacers may open
/// requests out of id order: an id not opened yet holds a slot of [`UNISSUED`] legs.
#[derive(Debug)]
pub(crate) struct LegBook<P> {
    cluster: ClusterConfig,
    width: usize,
    hedged: bool,
    tied: bool,
    head: u64,
    payloads: VecDeque<P>,
    legs: VecDeque<Leg>,
    pub(crate) partial: u64,
    stats: HedgeStats,
}

impl<P> LegBook<P> {
    pub(crate) fn new(cluster: &ClusterConfig) -> Self {
        LegBook {
            cluster: cluster.clone(),
            width: cluster.fanout_width(),
            hedged: cluster.active_hedge().is_some(),
            tied: cluster.active_tied(),
            head: 0,
            payloads: VecDeque::new(),
            legs: VecDeque::new(),
            partial: 0,
            stats: HedgeStats::default(),
        }
    }

    /// Opens the next leg of the next request: its primary and its copies admitted.
    /// A request's `width` legs are opened in shard order, beside its payload.
    pub(crate) fn open_leg(&mut self, primary: usize, admitted: u8) {
        self.stats.issued += u64::from(self.tied);
        self.legs.push_back(Leg {
            resolved: false,
            hedge_pending: self.hedged,
            outstanding: admitted,
            primary,
        });
    }

    /// Opens request `id` with its payload, its legs the `width` opened last.  An id
    /// past the next one first holds a slot for each id in between; an id below it
    /// fills its held slot.
    pub(crate) fn open_request(&mut self, id: u64, payload: P) -> Result<(), HarnessError>
    where
        P: Default,
    {
        let next = self.head + self.payloads.len() as u64;
        if id == next {
            self.payloads.push_back(payload);
            return Ok(());
        }
        let opened = self
            .legs
            .split_off(self.legs.len().saturating_sub(self.width));
        if id > next {
            for _ in next..id {
                self.legs.extend(std::iter::repeat_n(UNISSUED, self.width));
                self.payloads.push_back(P::default());
            }
            self.legs.extend(opened);
            self.payloads.push_back(payload);
            return Ok(());
        }
        let held = |i: usize| {
            self.legs
                .get(i * self.width)
                .is_some_and(|l| l.primary == UNISSUED.primary)
        };
        let i = self
            .index(id)
            .filter(|&i| held(i))
            .ok_or_else(|| HarnessError::Internal(format!("request {id} opened twice")))?;
        for (slot, leg) in self.legs.range_mut(i * self.width..).zip(opened) {
            *slot = leg;
        }
        if let Some(slot) = self.payloads.get_mut(i) {
            *slot = payload;
        }
        Ok(())
    }

    /// No request opens any more: the slots still held were never issued, so they
    /// retire, with no leg answered (never `partial`).
    pub(crate) fn close(&mut self) {
        for leg in self.legs.iter_mut() {
            if leg.primary == UNISSUED.primary {
                leg.hedge_pending = false;
            }
        }
    }

    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.head)?).ok()
    }

    pub(crate) fn payload(&self, id: u64) -> Result<&P, HarnessError> {
        self.index(id)
            .and_then(|i| self.payloads.get(i))
            .ok_or_else(|| HarnessError::Internal(format!("request {id} is not in flight")))
    }

    fn leg_mut(&mut self, id: u64, shard: usize) -> Result<&mut Leg, HarnessError> {
        let offset = if self.width > 1 { shard } else { 0 };
        self.index(id)
            .filter(|_| offset < self.width)
            .and_then(|i| self.legs.get_mut(i * self.width + offset))
            .ok_or_else(|| HarnessError::Internal(format!("request {id} has no shard {shard}")))
    }

    /// A hedge copy of the leg was admitted.
    pub(crate) fn hedge_admitted(&mut self, id: u64, shard: usize) -> Result<(), HarnessError> {
        self.leg_mut(id, shard)?.outstanding += 1;
        self.stats.issued += 1;
        Ok(())
    }

    /// An admitted copy of the leg will never respond: shed or retracted.
    pub(crate) fn shed(&mut self, id: u64, shard: usize) -> Result<(), HarnessError> {
        let leg = self.leg_mut(id, shard)?;
        leg.outstanding = leg.outstanding.saturating_sub(1);
        Ok(())
    }

    /// A copy of the leg responded from `instance`: `Some` for the leg's first
    /// response, the one to record.
    pub(crate) fn respond(
        &mut self,
        id: u64,
        shard: usize,
        instance: usize,
    ) -> Result<Option<FirstResponse>, HarnessError> {
        let tied = self.tied;
        let leg = self.leg_mut(id, shard)?;
        leg.outstanding = leg.outstanding.saturating_sub(1);
        if leg.resolved {
            return Ok(None);
        }
        leg.resolved = true;
        let (win, primary) = (instance != leg.primary, leg.primary);
        let retract = (tied && leg.outstanding > 0).then(|| match win {
            true => primary,
            false => self.cluster.secondary_instance(shard, primary),
        });
        self.stats.wins += u64::from(win);
        Ok(Some(FirstResponse { win, retract }))
    }

    /// The leg's hedge deadline came due: the replica for a hedge copy if the leg is
    /// still unanswered (one answered in time may already have retired).
    pub(crate) fn hedge_due(
        &mut self,
        id: u64,
        shard: usize,
    ) -> Result<Option<usize>, HarnessError> {
        if id < self.head {
            return Ok(None);
        }
        let leg = self.leg_mut(id, shard)?;
        leg.hedge_pending = false;
        let primary = leg.primary;
        Ok((!leg.resolved).then(|| self.cluster.secondary_instance(shard, primary)))
    }

    /// Retires finished requests off the front.
    pub(crate) fn retire(&mut self) {
        let done = |leg: &Leg| leg.outstanding == 0 && (leg.resolved || !leg.hedge_pending);
        while !self.payloads.is_empty()
            && (0..self.width).all(|k| self.legs.get(k).is_some_and(done))
        {
            let legs = (0..self.width).filter_map(|_| self.legs.pop_front());
            let answered = legs.filter(|leg| leg.resolved).count();
            self.partial += u64::from(answered > 0 && answered < self.width);
            self.payloads.pop_front();
            self.head += 1;
        }
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.payloads.len()
    }

    /// The hedge/tied counters, when either mitigation is active.
    pub(crate) fn hedge_stats(&self) -> Option<HedgeStats> {
        (self.hedged || self.tied).then_some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FanoutPolicy, HedgePolicy};

    /// One transition of a [`LegBook`] and what it must answer.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Opens request `id` with one leg per `(primary, admitted copies)`.
        Open(u64, &'static [(usize, u8)]),
        /// No request opens any more.
        Close,
        Due(u64, usize, Option<usize>),
        HedgeAdmitted(u64, usize),
        Shed(u64, usize),
        /// `(id, shard, instance, first response)`.
        Respond(u64, usize, usize, Option<FirstResponse>),
        /// Retires, then expects `(in flight, partial)`.
        Retire(usize, u64),
    }
    use Step::{Close, Due, HedgeAdmitted, Open, Respond, Retire, Shed};

    const LOSS: Option<FirstResponse> = Some(FirstResponse {
        win: false,
        retract: None,
    });

    #[test]
    fn leg_book_transitions() {
        let pair = ClusterConfig::new(1, FanoutPolicy::Broadcast).with_replication(2);
        let hedged = pair.clone().with_hedge(HedgePolicy::after_ns(1_000));
        let tied = pair.clone().with_tied(true);
        let broadcast = ClusterConfig::new(2, FanoutPolicy::Broadcast);
        let cases: [(&str, &ClusterConfig, &[Step], HedgeStats); 6] = [
            (
                "a hedge fires, then the primary answers first",
                &hedged,
                &[
                    Open(0, &[(0, 1)]),
                    Retire(1, 0),
                    Due(0, 0, Some(1)),
                    HedgeAdmitted(0, 0),
                    Respond(0, 0, 0, LOSS),
                    Retire(1, 0),
                    Respond(0, 0, 1, None),
                    Retire(0, 0),
                ],
                HedgeStats { issued: 1, wins: 0 },
            ),
            (
                "tied, the secondary answers first",
                &tied,
                &[
                    Open(0, &[(0, 2)]),
                    Respond(
                        0,
                        0,
                        1,
                        Some(FirstResponse {
                            win: true,
                            retract: Some(0),
                        }),
                    ),
                    Retire(1, 0),
                    Shed(0, 0),
                    Retire(0, 0),
                ],
                HedgeStats { issued: 1, wins: 1 },
            ),
            (
                "a copy shed after admission leaves the leg unresolved",
                &hedged,
                &[
                    Open(0, &[(1, 1)]),
                    Shed(0, 0),
                    Retire(1, 0),
                    Due(0, 0, Some(0)),
                    Retire(0, 0),
                ],
                HedgeStats::default(),
            ),
            (
                "a fan-out retired with a leg unanswered is partial",
                &broadcast,
                &[
                    Open(0, &[(0, 1), (1, 1)]),
                    Respond(0, 0, 0, LOSS),
                    Shed(0, 1),
                    Retire(0, 1),
                ],
                HedgeStats::default(),
            ),
            (
                "out-of-order responses retire in id order",
                &pair,
                &[
                    Open(0, &[(0, 1)]),
                    Open(1, &[(1, 1)]),
                    Open(2, &[(0, 1)]),
                    Respond(2, 0, 0, LOSS),
                    Respond(1, 0, 1, LOSS),
                    Retire(3, 0),
                    Respond(0, 0, 0, LOSS),
                    Retire(0, 0),
                ],
                HedgeStats::default(),
            ),
            (
                "out-of-order opens, and a slot never issued retires at close",
                &broadcast,
                &[
                    Open(2, &[(0, 1), (1, 1)]),
                    Retire(3, 0),
                    Open(0, &[(0, 1), (1, 1)]),
                    Respond(2, 0, 0, LOSS),
                    Respond(2, 1, 1, LOSS),
                    Respond(0, 0, 0, LOSS),
                    Respond(0, 1, 1, LOSS),
                    Retire(2, 0),
                    Close,
                    Retire(0, 0),
                ],
                HedgeStats::default(),
            ),
        ];
        for (name, cluster, steps, stats) in cases {
            let mut book = LegBook::new(cluster);
            for (n, &step) in steps.iter().enumerate() {
                let at = format!("{name}, step {n} {step:?}");
                match step {
                    Open(id, legs) => {
                        for &(primary, admitted) in legs {
                            book.open_leg(primary, admitted);
                        }
                        book.open_request(id, id).unwrap();
                    }
                    Close => book.close(),
                    Due(id, shard, alt) => {
                        assert_eq!(book.hedge_due(id, shard).unwrap(), alt, "{at}")
                    }
                    HedgeAdmitted(id, shard) => book.hedge_admitted(id, shard).unwrap(),
                    Shed(id, shard) => book.shed(id, shard).unwrap(),
                    Respond(id, shard, instance, first) => {
                        assert_eq!(book.respond(id, shard, instance).unwrap(), first, "{at}");
                    }
                    Retire(in_flight, partial) => {
                        book.retire();
                        assert_eq!(
                            (book.in_flight(), book.partial),
                            (in_flight, partial),
                            "{at}"
                        );
                    }
                }
            }
            let expected =
                (cluster.active_hedge().is_some() || cluster.active_tied()).then_some(stats);
            assert_eq!(book.hedge_stats(), expected, "{name}");
            // Every case ends drained: a retired request is no longer in the book.
            assert!(book.respond(0, 0, 0).is_err(), "{name}");
            assert!(book.payload(0).is_err(), "{name}");
        }
    }
}
