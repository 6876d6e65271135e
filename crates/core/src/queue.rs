//! The shared request queue.
//!
//! The request queue sits between the traffic shaper / network front-end and the
//! application worker threads (paper Fig. 1).  It stores incoming requests, stamps their
//! enqueue time (from which queuing time is derived) and routes each request's completion
//! to the right place: into the worker's own statistics shard in the integrated
//! configuration, or back to the originating connection in the TCP configurations.
//!
//! Unlike the original unbounded channel, the queue now carries an explicit
//! [`AdmissionPolicy`] and keeps its own accounting: accepted/dropped counts, peak
//! depth, and a sampled depth timeline, all surfaced through a [`QueueObserver`] into
//! the run report.  Open-loop overload is therefore *visible* — either as drops (with
//! `Drop`) or as measured queue growth and producer backpressure (with `Block`) —
//! instead of silently buffered.

use crate::collector::RequestTags;
use crate::error::HarnessError;
use crate::report::QueueSummary;
use crate::request::{Request, RequestId, RequestRecord, WorkProfile};
use crate::sync::{lock_recover, wait_recover};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Interval between queue-depth timeline samples, in nanoseconds of run time.
const DEPTH_SAMPLE_EVERY_NS: u64 = 1_000_000;

/// Cap on retained timeline samples; when reached, the timeline is decimated 2:1 and
/// the sampling interval doubles, keeping memory bounded for arbitrarily long runs
/// while staying deterministic.
const DEPTH_SAMPLE_CAP: usize = 4096;

/// What the queue does when an arrival finds it at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Bounded queue with producer backpressure: `push` blocks until space frees.
    /// Backpressure delays show up in the run's pacing-error summary.
    Block {
        /// Maximum queued requests.
        capacity: usize,
    },
    /// Bounded queue with load shedding: arrivals beyond `capacity` are rejected and
    /// counted as drops in the run's queue summary.
    Drop {
        /// Maximum queued requests.
        capacity: usize,
    },
    /// SLO-aware load shedding: bounded like `Drop`, and additionally a request whose
    /// queueing delay already exceeds `slo_ns` when it reaches the head of the queue
    /// is shed instead of served — serving it would burn a server on a response the
    /// client has already written off ("The Tail at Scale"'s deadline-aware
    /// admission).  Shed requests are reclassified from accepted to dropped, so
    /// `accepted + dropped == offered` always holds.
    DropDeadline {
        /// Maximum queued requests.
        capacity: usize,
        /// Queueing-delay budget in nanoseconds; a head-of-line request older than
        /// this is shed.
        slo_ns: u64,
    },
    /// Class-aware load shedding: bounded like `Drop`, but when full an arrival of a
    /// *higher* class (lower [`RequestTags`] class index) evicts the youngest queued
    /// request of the lowest class instead of being rejected.  Untagged runs treat
    /// every request as class 0, degenerating to `Drop`.
    Priority {
        /// Maximum queued requests.
        capacity: usize,
    },
}

impl AdmissionPolicy {
    /// The default policy: block-on-full with an effectively unlimited capacity, i.e.
    /// the classic unbounded open-loop queue — but now with depth observability.
    #[must_use]
    pub fn unbounded() -> Self {
        AdmissionPolicy::Block {
            capacity: usize::MAX,
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        match *self {
            AdmissionPolicy::Block { capacity }
            | AdmissionPolicy::Drop { capacity }
            | AdmissionPolicy::DropDeadline { capacity, .. }
            | AdmissionPolicy::Priority { capacity } => capacity,
        }
    }

    /// The capacity at which a shedding policy rejects arrivals, `None` for `Block`
    /// (which backpressures instead of shedding).  The discrete-event simulator keys
    /// off this: every `Some` policy is legal in virtual time because it never blocks
    /// the producer.
    #[must_use]
    pub fn shed_capacity(&self) -> Option<usize> {
        match *self {
            AdmissionPolicy::Block { .. } => None,
            AdmissionPolicy::Drop { capacity }
            | AdmissionPolicy::DropDeadline { capacity, .. }
            | AdmissionPolicy::Priority { capacity } => Some(capacity),
        }
    }

    /// The queueing-delay SLO of a `DropDeadline` policy, `None` otherwise.
    #[must_use]
    pub fn slo_ns(&self) -> Option<u64> {
        match *self {
            AdmissionPolicy::DropDeadline { slo_ns, .. } => Some(slo_ns),
            _ => None,
        }
    }

    /// A short label used in reports (`unbounded`, `block(N)`, `drop(N)`,
    /// `drop-deadline(N,SLOns)`, `priority(N)`).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            AdmissionPolicy::Block {
                capacity: usize::MAX,
            } => "unbounded".to_string(),
            AdmissionPolicy::Block { capacity } => format!("block({capacity})"),
            AdmissionPolicy::Drop { capacity } => format!("drop({capacity})"),
            AdmissionPolicy::DropDeadline { capacity, slo_ns } => {
                format!("drop-deadline({capacity},{slo_ns}ns)")
            }
            AdmissionPolicy::Priority { capacity } => format!("priority({capacity})"),
        }
    }
}

/// Picks the queued request a `Priority` policy evicts to make room for an arrival of
/// `incoming_class`: the *youngest* request of the lowest class (highest class index),
/// and only if that class is strictly lower-priority than the arrival.  Returns the
/// victim's index into the queue, or `None` when the arrival itself is the lowest
/// class present (the arrival is then dropped instead).
pub(crate) fn priority_victim(
    classes: impl IntoIterator<Item = u16>,
    incoming_class: u16,
) -> Option<usize> {
    let mut victim: Option<(usize, u16)> = None;
    for (index, class) in classes.into_iter().enumerate() {
        if victim.is_none_or(|(_, worst)| class >= worst) {
            victim = Some((index, class));
        }
    }
    victim.and_then(|(index, class)| (class > incoming_class).then_some(index))
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Depth/admission accounting shared by the real-time queue and the discrete-event
/// simulator's FIFO (both produce the same [`QueueSummary`], so reports are comparable
/// across harness modes).  All updates happen under the owner's lock or on the
/// simulator's single thread — no atomics on the hot path.
#[derive(Debug, Clone)]
pub(crate) struct DepthTracker {
    accepted: u64,
    dropped: u64,
    /// Everything that arrived at the queue, admitted or not.  Kept separately so the
    /// invariant `accepted + dropped == offered` is *checked* rather than true by
    /// construction: a path that forgets to account one side trips the assertion in
    /// [`DepthTracker::summary`] instead of silently skewing drop rates.
    offered: u64,
    peak: u64,
    sample_every_ns: u64,
    next_sample_ns: u64,
    samples: Vec<(u64, u64)>,
}

impl Default for DepthTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl DepthTracker {
    pub(crate) fn new() -> Self {
        DepthTracker {
            accepted: 0,
            dropped: 0,
            offered: 0,
            peak: 0,
            sample_every_ns: DEPTH_SAMPLE_EVERY_NS,
            next_sample_ns: 0,
            samples: Vec::new(),
        }
    }

    /// Records one admitted request observed at `now_ns` with `depth` requests queued
    /// behind it (inclusive).
    pub(crate) fn on_push(&mut self, now_ns: u64, depth: u64) {
        self.accepted += 1;
        self.offered += 1;
        self.peak = self.peak.max(depth);
        if now_ns >= self.next_sample_ns {
            self.samples.push((now_ns, depth));
            // Jump past `now` in whole strides so an idle gap doesn't burst samples.
            let strides = (now_ns - self.next_sample_ns) / self.sample_every_ns + 1;
            self.next_sample_ns += strides * self.sample_every_ns;
            if self.samples.len() >= DEPTH_SAMPLE_CAP {
                // Decimate 2:1 and double the stride: bounded memory, still ordered.
                let mut keep = Vec::with_capacity(self.samples.len() / 2 + 1);
                for (i, s) in self.samples.drain(..).enumerate() {
                    if i % 2 == 0 {
                        keep.push(s);
                    }
                }
                self.samples = keep;
                self.sample_every_ns *= 2;
            }
        }
    }

    /// Records one rejected (dropped) request.
    pub(crate) fn on_drop(&mut self) {
        self.dropped += 1;
        self.offered += 1;
    }

    /// Reclassifies one previously-admitted request as dropped: it was accepted into
    /// the queue but shed before service (deadline expiry, priority eviction).  The
    /// request was offered exactly once, so `offered` is untouched and the
    /// `accepted + dropped == offered` invariant is preserved.  Shedding before any
    /// push leaves `accepted` at zero and breaks the invariant, which
    /// [`DepthTracker::check`] reports.
    pub(crate) fn on_shed_admitted(&mut self) {
        self.accepted = self.accepted.saturating_sub(1);
        self.dropped += 1;
    }

    /// Checks the admission identity: every offered request ended up accepted or
    /// dropped, never both, never neither.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Internal`] naming the three counts if the accounting
    /// leaked.
    pub(crate) fn check(&self) -> Result<(), HarnessError> {
        if self.accepted + self.dropped == self.offered {
            return Ok(());
        }
        Err(HarnessError::Internal(format!(
            "queue accounting leaked: accepted {} + dropped {} != offered {}",
            self.accepted, self.dropped, self.offered
        )))
    }

    /// The summary of everything recorded so far.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if [`DepthTracker::check`] fails; the simulator runs
    /// the check in release builds before it summarises.
    pub(crate) fn summary(&self, policy_label: String) -> QueueSummary {
        let balanced = self.check();
        debug_assert!(balanced.is_ok(), "{balanced:?}");
        let mean = if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|&(_, d)| d as f64).sum::<f64>() / self.samples.len() as f64
        };
        QueueSummary {
            policy: policy_label,
            accepted: self.accepted,
            dropped: self.dropped,
            peak_depth: self.peak,
            mean_sampled_depth: mean,
            depth_timeline: self.samples.clone(),
        }
    }
}

/// Server-side completion information for one request, produced by a worker thread.
#[derive(Debug, Clone)]
pub struct ServerCompletion {
    /// Request identifier.
    pub id: RequestId,
    /// Client issue time (copied from the request).
    pub issued_ns: u64,
    /// Time the request entered the queue.
    pub enqueued_ns: u64,
    /// Time a worker started processing.
    pub started_ns: u64,
    /// Time processing finished.
    pub completed_ns: u64,
    /// Work profile reported by the application.
    pub work: WorkProfile,
    /// Response payload to return to the client.
    pub response_payload: Vec<u8>,
}

impl ServerCompletion {
    /// Converts this completion into a full [`RequestRecord`], given the time the client
    /// received the response.
    #[must_use]
    pub fn into_record(self, client_received_ns: u64) -> RequestRecord {
        RequestRecord {
            id: self.id,
            issued_ns: self.issued_ns,
            enqueued_ns: self.enqueued_ns,
            started_ns: self.started_ns,
            completed_ns: self.completed_ns,
            client_received_ns,
        }
    }
}

/// Where a worker should send a finished request.
#[derive(Debug, Clone)]
pub enum Completion {
    /// Integrated configuration: the client and server share the process, so the
    /// response is considered delivered the moment processing completes.  The worker
    /// records the request straight into its own statistics shard — no cross-thread
    /// send on the critical path.
    Inline,
    /// TCP configurations: the completion is handed to the originating connection's
    /// writer, which serializes the response back to the client.
    Responder(crossbeam::channel::Sender<ServerCompletion>),
}

/// A request sitting in the queue, together with its enqueue timestamp and completion
/// route.
#[derive(Debug)]
pub struct QueuedRequest {
    /// The request itself.
    pub request: Request,
    /// When it entered the queue (ns since the run epoch).
    pub enqueued_ns: u64,
    /// Where to deliver the completion.
    pub completion: Completion,
}

/// The outcome of one [`RequestQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The request was admitted.
    Accepted,
    /// The request was rejected by a `Drop` admission policy (counted in the summary).
    Dropped,
    /// Every worker has already shut down; the run is tearing down.
    Closed,
}

#[derive(Debug)]
struct QueueState {
    items: VecDeque<QueuedRequest>,
    producers: usize,
    consumers: usize,
    /// Producers waiting on `not_full` and consumers waiting on `not_empty`.  A
    /// condvar notify is a syscall whether or not anyone waits, and the consumer's
    /// one runs before `started_ns` (charged to queue wait), so each side notifies
    /// only when the other has a thread parked.
    parked_producers: usize,
    parked_consumers: usize,
    tracker: DepthTracker,
}

#[derive(Debug)]
struct QueueShared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    policy: AdmissionPolicy,
    /// Request class tags consulted by the `Priority` policy (`None` = untagged run,
    /// every request is class 0).
    tags: Option<Arc<RequestTags>>,
}

impl QueueShared {
    fn class_of(&self, id: RequestId) -> u16 {
        self.tags.as_ref().map_or(0, |tags| tags.class_of(id.0))
    }
}

/// The shared request queue: a bounded MPMC FIFO with enqueue-time stamping, an
/// explicit [`AdmissionPolicy`], and built-in depth accounting.
///
/// Each `RequestQueue` value is one producer handle: cloning registers another
/// producer, dropping (or [`RequestQueue::close`]) deregisters it, and consumers
/// observe shutdown once every producer is gone.  Workers pull through the
/// [`QueueReceiver`] returned by [`RequestQueue::receiver`].
#[derive(Debug)]
pub struct RequestQueue {
    shared: Arc<QueueShared>,
}

/// The consumer side of a [`RequestQueue`].
#[derive(Debug)]
pub struct QueueReceiver {
    shared: Arc<QueueShared>,
}

/// A passive handle that can read the queue's accounting after the run tears the
/// producer/consumer handles down.
#[derive(Debug, Clone)]
pub struct QueueObserver {
    shared: Arc<QueueShared>,
}

impl Default for RequestQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestQueue {
    /// Creates an empty queue with the default (unbounded-block) admission policy.
    #[must_use]
    pub fn new() -> Self {
        Self::with_policy(AdmissionPolicy::unbounded())
    }

    /// Creates an empty queue with an explicit admission policy.
    #[must_use]
    pub fn with_policy(policy: AdmissionPolicy) -> Self {
        Self::with_policy_and_tags(policy, None)
    }

    /// Creates an empty queue with an explicit admission policy and the request class
    /// tags the `Priority` policy consults (other policies ignore them).
    #[must_use]
    pub fn with_policy_and_tags(policy: AdmissionPolicy, tags: Option<Arc<RequestTags>>) -> Self {
        RequestQueue {
            shared: Arc::new(QueueShared {
                state: Mutex::new(QueueState {
                    items: VecDeque::new(),
                    producers: 1,
                    consumers: 0,
                    parked_producers: 0,
                    parked_consumers: 0,
                    tracker: DepthTracker::new(),
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                policy,
                tags,
            }),
        }
    }

    /// Pushes a request into the queue with the given enqueue timestamp, applying the
    /// queue's admission policy (blocking here under `Block` when the queue is full).
    pub fn push(&self, request: Request, enqueued_ns: u64, completion: Completion) -> PushOutcome {
        let shared = &*self.shared;
        let mut state = lock_recover(&shared.state);
        if state.consumers == 0 {
            // Every worker is gone (teardown, or a worker panic unwound its
            // receiver): pushing would buffer into a queue nobody drains.
            return PushOutcome::Closed;
        }
        let capacity = shared.policy.capacity();
        if state.items.len() >= capacity {
            match shared.policy {
                AdmissionPolicy::Drop { .. } => {
                    state.tracker.on_drop();
                    return PushOutcome::Dropped;
                }
                AdmissionPolicy::DropDeadline { slo_ns, .. } => {
                    // Make room by purging already-expired head-of-line requests
                    // (they would be shed at dequeue anyway); if none have expired
                    // yet, the arrival itself is shed.
                    while state
                        .items
                        .front()
                        .is_some_and(|item| enqueued_ns.saturating_sub(item.enqueued_ns) > slo_ns)
                    {
                        state.items.pop_front();
                        state.tracker.on_shed_admitted();
                    }
                    if state.items.len() >= capacity {
                        state.tracker.on_drop();
                        return PushOutcome::Dropped;
                    }
                }
                AdmissionPolicy::Priority { .. } => {
                    let incoming = shared.class_of(request.id);
                    let victim = priority_victim(
                        state
                            .items
                            .iter()
                            .map(|item| shared.class_of(item.request.id)),
                        incoming,
                    );
                    let Some(victim) = victim else {
                        state.tracker.on_drop();
                        return PushOutcome::Dropped;
                    };
                    state.items.remove(victim);
                    state.tracker.on_shed_admitted();
                }
                AdmissionPolicy::Block { .. } => {
                    while state.items.len() >= capacity {
                        if state.consumers == 0 {
                            return PushOutcome::Closed;
                        }
                        state.parked_producers += 1;
                        state = wait_recover(&shared.not_full, state);
                        state.parked_producers -= 1;
                    }
                }
            }
        }
        state.items.push_back(QueuedRequest {
            request,
            enqueued_ns,
            completion,
        });
        let depth = state.items.len() as u64;
        state.tracker.on_push(enqueued_ns, depth);
        let wake = state.parked_consumers > 0;
        drop(state);
        if wake {
            shared.not_empty.notify_one();
        }
        PushOutcome::Accepted
    }

    /// The worker-side receiver.
    #[must_use]
    pub fn receiver(&self) -> QueueReceiver {
        let mut state = lock_recover(&self.shared.state);
        state.consumers += 1;
        drop(state);
        QueueReceiver {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A passive observer that survives teardown and reports the queue's accounting.
    #[must_use]
    pub fn observer(&self) -> QueueObserver {
        QueueObserver {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A producer-side handle (used by network front-ends); equivalent to `clone`.
    #[must_use]
    pub fn sender(&self) -> RequestQueue {
        self.clone()
    }

    /// Current queue depth (requests waiting for a worker).
    #[must_use]
    pub fn depth(&self) -> usize {
        lock_recover(&self.shared.state).items.len()
    }

    /// Retracts a queued request by id (the tied-request cancellation path: the other
    /// copy won, so the loser is pulled back out of the queue before a worker picks
    /// it up).  Returns `true` if the request was still queued.  A retracted request
    /// stays counted as accepted — it was admitted and occupied the queue; it is not
    /// an overload shed.
    pub fn cancel(&self, id: RequestId) -> bool {
        let mut state = lock_recover(&self.shared.state);
        let Some(index) = state.items.iter().position(|item| item.request.id == id) else {
            return false;
        };
        state.items.remove(index);
        let wake = state.parked_producers > 0;
        drop(state);
        if wake {
            self.shared.not_full.notify_one();
        }
        true
    }

    /// Drops this producer handle so workers can observe shutdown once every other
    /// producer has also been dropped.
    pub fn close(self) {
        drop(self);
    }
}

impl Clone for RequestQueue {
    fn clone(&self) -> Self {
        let mut state = lock_recover(&self.shared.state);
        state.producers += 1;
        drop(state);
        RequestQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for RequestQueue {
    fn drop(&mut self) {
        let mut state = lock_recover(&self.shared.state);
        state.producers -= 1;
        let last = state.producers == 0;
        drop(state);
        if last {
            self.shared.not_empty.notify_all();
        }
    }
}

/// The error returned by [`QueueReceiver::recv`] once the queue is closed and drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueClosed;

impl QueueReceiver {
    /// Blocks until a request is available, returning `Err(QueueClosed)` once every
    /// producer has been dropped and the queue is drained.
    ///
    /// Callers without a clock get no deadline shedding: a `DropDeadline` queue only
    /// sheds expired head-of-line requests through [`QueueReceiver::recv_at`] (and
    /// opportunistically at push time).
    pub fn recv(&self) -> Result<QueuedRequest, QueueClosed> {
        self.recv_at(&|| 0)
    }

    /// Like [`QueueReceiver::recv`], but consults `now_ns` (called after each item
    /// becomes available) so a `DropDeadline` policy can shed head-of-line requests
    /// whose queueing delay already exceeds the SLO instead of serving them.  Shed
    /// requests are reclassified as dropped in the queue summary.
    pub fn recv_at(&self, now_ns: &dyn Fn() -> u64) -> Result<QueuedRequest, QueueClosed> {
        let shared = &*self.shared;
        let mut state = lock_recover(&shared.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                if let AdmissionPolicy::DropDeadline { slo_ns, .. } = shared.policy {
                    if now_ns().saturating_sub(item.enqueued_ns) > slo_ns {
                        state.tracker.on_shed_admitted();
                        if state.parked_producers > 0 {
                            shared.not_full.notify_one();
                        }
                        continue;
                    }
                }
                let wake = state.parked_producers > 0;
                drop(state);
                if wake {
                    shared.not_full.notify_one();
                }
                return Ok(item);
            }
            if state.producers == 0 {
                return Err(QueueClosed);
            }
            state.parked_consumers += 1;
            state = wait_recover(&shared.not_empty, state);
            state.parked_consumers -= 1;
        }
    }
}

impl Clone for QueueReceiver {
    fn clone(&self) -> Self {
        let mut state = lock_recover(&self.shared.state);
        state.consumers += 1;
        drop(state);
        QueueReceiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for QueueReceiver {
    fn drop(&mut self) {
        let mut state = lock_recover(&self.shared.state);
        state.consumers -= 1;
        let last = state.consumers == 0;
        drop(state);
        if last {
            // Unblock producers stuck in Block-on-full so they can observe Closed.
            self.shared.not_full.notify_all();
        }
    }
}

impl QueueObserver {
    /// The queue's admission/depth summary so far (complete once producers closed).
    #[must_use]
    pub fn summary(&self) -> QueueSummary {
        let state = lock_recover(&self.shared.state);
        state.tracker.summary(self.shared.policy.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn request(id: u64) -> Request {
        Request {
            id: RequestId(id),
            payload: vec![id as u8],
            issued_ns: id * 10,
        }
    }

    #[test]
    fn push_and_receive_preserves_order_and_depth() {
        let q = RequestQueue::new();
        let rx = q.receiver();
        assert_eq!(
            q.push(request(1), 100, Completion::Inline),
            PushOutcome::Accepted
        );
        assert_eq!(
            q.push(request(2), 200, Completion::Inline),
            PushOutcome::Accepted
        );
        assert_eq!(q.depth(), 2);
        let a = rx.recv().unwrap();
        let b = rx.recv().unwrap();
        assert_eq!(a.request.id, RequestId(1));
        assert_eq!(a.enqueued_ns, 100);
        assert_eq!(b.request.id, RequestId(2));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn completion_converts_to_record() {
        let c = ServerCompletion {
            id: RequestId(5),
            issued_ns: 10,
            enqueued_ns: 20,
            started_ns: 30,
            completed_ns: 50,
            work: WorkProfile::default(),
            response_payload: vec![1, 2, 3],
        };
        let r = c.into_record(60);
        assert_eq!(r.queue_ns(), 10);
        assert_eq!(r.service_ns(), 20);
        assert_eq!(r.sojourn_ns(), 50);
    }

    #[test]
    fn receivers_see_channel_close() {
        let q = RequestQueue::new();
        let rx = q.receiver();
        q.close();
        assert!(rx.recv().is_err());
    }

    #[test]
    fn drop_policy_sheds_load_and_counts_it() {
        let q = RequestQueue::with_policy(AdmissionPolicy::Drop { capacity: 2 });
        let observer = q.observer();
        let _rx = q.receiver();
        assert_eq!(
            q.push(request(0), 0, Completion::Inline),
            PushOutcome::Accepted
        );
        assert_eq!(
            q.push(request(1), 10, Completion::Inline),
            PushOutcome::Accepted
        );
        assert_eq!(
            q.push(request(2), 20, Completion::Inline),
            PushOutcome::Dropped
        );
        assert_eq!(q.depth(), 2);
        let summary = observer.summary();
        assert_eq!(summary.policy, "drop(2)");
        assert_eq!(summary.accepted, 2);
        assert_eq!(summary.dropped, 1);
        assert_eq!(summary.peak_depth, 2);
        assert!((summary.drop_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn block_policy_applies_backpressure_until_a_worker_drains() {
        let q = RequestQueue::with_policy(AdmissionPolicy::Block { capacity: 1 });
        let rx = q.receiver();
        assert_eq!(
            q.push(request(0), 0, Completion::Inline),
            PushOutcome::Accepted
        );
        // A second push must block until the consumer drains one item.
        let producer = q.clone();
        let handle = std::thread::spawn(move || producer.push(request(1), 5, Completion::Inline));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished(), "push must block at capacity");
        let first = rx.recv().unwrap();
        assert_eq!(first.request.id, RequestId(0));
        assert_eq!(handle.join().unwrap(), PushOutcome::Accepted);
        assert_eq!(rx.recv().unwrap().request.id, RequestId(1));
    }

    #[test]
    fn cancel_wakes_a_producer_blocked_at_capacity() {
        let q = RequestQueue::with_policy(AdmissionPolicy::Block { capacity: 1 });
        let rx = q.receiver();
        let _ = q.push(request(0), 0, Completion::Inline);
        let producer = q.clone();
        let handle = std::thread::spawn(move || producer.push(request(1), 5, Completion::Inline));
        // Cancel only once the producer is parked, so the slot it frees is the wake-up.
        while lock_recover(&q.shared.state).parked_producers == 0 {
            std::thread::yield_now();
        }
        assert!(q.cancel(RequestId(0)));
        assert_eq!(handle.join().unwrap(), PushOutcome::Accepted);
        assert_eq!(rx.recv().unwrap().request.id, RequestId(1));
    }

    #[test]
    fn pushes_fail_once_every_consumer_is_gone() {
        // A worker panic drops its receiver; with no consumers left, even an
        // unbounded queue must refuse new work instead of buffering it forever.
        let q = RequestQueue::new();
        let rx = q.receiver();
        drop(rx);
        assert_eq!(
            q.push(request(0), 0, Completion::Inline),
            PushOutcome::Closed
        );
    }

    #[test]
    fn blocked_producers_unblock_on_consumer_shutdown() {
        let q = RequestQueue::with_policy(AdmissionPolicy::Block { capacity: 1 });
        let rx = q.receiver();
        let _ = q.push(request(0), 0, Completion::Inline);
        let producer = q.clone();
        let handle = std::thread::spawn(move || producer.push(request(1), 5, Completion::Inline));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(handle.join().unwrap(), PushOutcome::Closed);
    }

    #[test]
    fn depth_tracker_samples_a_bounded_deterministic_timeline() {
        let mut tracker = DepthTracker::new();
        // Push far more often than the cap at one push per sample interval: the
        // decimation must keep the timeline bounded and ordered.
        for i in 0..20_000u64 {
            tracker.on_push(i * DEPTH_SAMPLE_EVERY_NS, i % 97);
        }
        let summary = tracker.summary("unbounded".into());
        assert_eq!(summary.accepted, 20_000);
        assert!(summary.depth_timeline.len() < DEPTH_SAMPLE_CAP);
        assert!(!summary.depth_timeline.is_empty());
        assert!(summary.depth_timeline.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(summary.peak_depth, 96);
        assert!(summary.mean_sampled_depth > 0.0);
        // Deterministic: the same pushes produce the same timeline.
        let mut again = DepthTracker::new();
        for i in 0..20_000u64 {
            again.on_push(i * DEPTH_SAMPLE_EVERY_NS, i % 97);
        }
        assert_eq!(
            again.summary("unbounded".into()).depth_timeline,
            summary.depth_timeline
        );
    }

    #[test]
    fn admission_policy_labels() {
        assert_eq!(AdmissionPolicy::unbounded().label(), "unbounded");
        assert_eq!(AdmissionPolicy::Block { capacity: 64 }.label(), "block(64)");
        assert_eq!(AdmissionPolicy::Drop { capacity: 128 }.label(), "drop(128)");
        assert_eq!(
            AdmissionPolicy::DropDeadline {
                capacity: 64,
                slo_ns: 5_000_000
            }
            .label(),
            "drop-deadline(64,5000000ns)"
        );
        assert_eq!(
            AdmissionPolicy::Priority { capacity: 32 }.label(),
            "priority(32)"
        );
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::unbounded());
        assert_eq!(AdmissionPolicy::unbounded().shed_capacity(), None);
        assert_eq!(
            AdmissionPolicy::Priority { capacity: 32 }.shed_capacity(),
            Some(32)
        );
        assert_eq!(
            AdmissionPolicy::DropDeadline {
                capacity: 8,
                slo_ns: 9
            }
            .slo_ns(),
            Some(9)
        );
    }

    #[test]
    fn deadline_policy_sheds_expired_head_of_line_requests_at_dequeue() {
        let q = RequestQueue::with_policy(AdmissionPolicy::DropDeadline {
            capacity: 16,
            slo_ns: 100,
        });
        let observer = q.observer();
        let rx = q.receiver();
        assert_eq!(
            q.push(request(0), 0, Completion::Inline),
            PushOutcome::Accepted
        );
        assert_eq!(
            q.push(request(1), 10, Completion::Inline),
            PushOutcome::Accepted
        );
        // At t=500 request 0 has queued 500 ns > 100 ns SLO and must be shed;
        // request 1 (490 ns) is also expired; nothing valid remains until a fresh
        // push arrives.
        assert_eq!(
            q.push(request(2), 500, Completion::Inline),
            PushOutcome::Accepted
        );
        let served = rx.recv_at(&|| 550).unwrap();
        assert_eq!(served.request.id, RequestId(2));
        let summary = observer.summary();
        assert_eq!(summary.accepted, 1);
        assert_eq!(summary.dropped, 2);
        assert!((summary.drop_rate() - 2.0 / 3.0).abs() < 1e-12);
        // recv() without a clock never sheds.
        let q2 = RequestQueue::with_policy(AdmissionPolicy::DropDeadline {
            capacity: 16,
            slo_ns: 100,
        });
        let rx2 = q2.receiver();
        let _ = q2.push(request(7), 0, Completion::Inline);
        assert_eq!(rx2.recv().unwrap().request.id, RequestId(7));
    }

    #[test]
    fn deadline_policy_purges_expired_requests_to_admit_fresh_ones_when_full() {
        let q = RequestQueue::with_policy(AdmissionPolicy::DropDeadline {
            capacity: 2,
            slo_ns: 100,
        });
        let observer = q.observer();
        let _rx = q.receiver();
        let _ = q.push(request(0), 0, Completion::Inline);
        let _ = q.push(request(1), 10, Completion::Inline);
        // Queue is full, but both residents are long expired at t=1000: the arrival
        // evicts them instead of being rejected.
        assert_eq!(
            q.push(request(2), 1_000, Completion::Inline),
            PushOutcome::Accepted
        );
        assert_eq!(q.depth(), 1);
        let summary = observer.summary();
        assert_eq!(summary.accepted, 1);
        assert_eq!(summary.dropped, 2);
        // A full queue of *fresh* requests still sheds the arrival itself.
        let _ = q.push(request(3), 1_001, Completion::Inline);
        assert_eq!(
            q.push(request(4), 1_002, Completion::Inline),
            PushOutcome::Dropped
        );
    }

    #[test]
    fn priority_policy_evicts_the_youngest_lowest_class_first() {
        // Requests 0..6: ids 0,2,4 are class 0 (high priority), ids 1,3,5 class 1.
        let tags = Arc::new(RequestTags::new(
            vec!["interactive".into(), "batch".into()],
            vec!["all".into()],
            vec![0, 1, 0, 1, 0, 1],
            vec![0; 6],
        ));
        let q = RequestQueue::with_policy_and_tags(
            AdmissionPolicy::Priority { capacity: 2 },
            Some(tags),
        );
        let observer = q.observer();
        let rx = q.receiver();
        let _ = q.push(request(1), 0, Completion::Inline); // batch
        let _ = q.push(request(3), 1, Completion::Inline); // batch
                                                           // A high-priority arrival evicts the *youngest* batch request (id 3).
        assert_eq!(
            q.push(request(0), 2, Completion::Inline),
            PushOutcome::Accepted
        );
        // A batch arrival into a full queue with an equal-class resident is dropped
        // (never evicts its own class).
        assert_eq!(
            q.push(request(5), 3, Completion::Inline),
            PushOutcome::Dropped
        );
        assert_eq!(rx.recv().unwrap().request.id, RequestId(1));
        assert_eq!(rx.recv().unwrap().request.id, RequestId(0));
        let summary = observer.summary();
        assert_eq!(summary.policy, "priority(2)");
        assert_eq!(summary.accepted, 2);
        assert_eq!(summary.dropped, 2);
    }

    #[test]
    fn priority_victim_prefers_the_youngest_of_the_lowest_class() {
        assert_eq!(priority_victim([1, 2, 2, 0], 0), Some(2));
        assert_eq!(priority_victim([1, 1], 1), None, "never evicts equal class");
        assert_eq!(
            priority_victim([0, 0], 1),
            None,
            "never evicts higher classes"
        );
        assert_eq!(priority_victim(Vec::<u16>::new(), 0), None);
        assert_eq!(priority_victim([3], 2), Some(0));
    }

    #[test]
    fn cancel_retracts_a_queued_request_without_touching_drop_accounting() {
        let q = RequestQueue::new();
        let observer = q.observer();
        let rx = q.receiver();
        let _ = q.push(request(0), 0, Completion::Inline);
        let _ = q.push(request(1), 1, Completion::Inline);
        assert!(q.cancel(RequestId(0)));
        assert!(!q.cancel(RequestId(0)), "already retracted");
        assert!(!q.cancel(RequestId(9)), "never queued");
        assert_eq!(rx.recv().unwrap().request.id, RequestId(1));
        let summary = observer.summary();
        assert_eq!(summary.accepted, 2, "retraction is not an overload shed");
        assert_eq!(summary.dropped, 0);
    }
}
