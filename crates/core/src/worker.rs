//! Application worker threads.
//!
//! Worker threads pull requests off the shared [`RequestQueue`](crate::queue::RequestQueue),
//! invoke the application, and either record the completion into their own [`Shard`]
//! (integrated configuration — the open loop's statistics or legs, the closed-loop
//! client's answers) or route it back to the TCP connection that waits for it.
//! The number of worker threads is the "threads" axis of the paper's multithreaded
//! experiments (Fig. 4, Fig. 7).

use crate::app::ServerApp;
use crate::collector::StatsCollector;
use crate::error::HarnessError;
use crate::pool::BufferPool;
use crate::queue::{Completion, QueueReceiver, ServerCompletion};
use crate::request::RequestRecord;
use crate::time::RunClock;
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a worker records its [`Completion::Inline`] requests into: a statistics shard
/// of its own, merged with the other workers' shards when the pool joins.
pub trait Shard: Clone + Send + 'static {
    /// Records one finished request.
    fn record(&mut self, record: &RequestRecord);
    /// Folds another worker's shard into this one.
    fn merge(&mut self, other: Self);
}

impl Shard for StatsCollector {
    fn record(&mut self, record: &RequestRecord) {
        StatsCollector::record(self, record);
    }

    fn merge(&mut self, other: Self) {
        StatsCollector::merge(self, &other);
    }
}

/// What a joined worker pool hands back: the served-request count plus the merged
/// per-worker statistics shards (empty when every completion was routed elsewhere).
#[derive(Debug)]
pub struct WorkerOutput<S = StatsCollector> {
    /// Total requests served across all workers.
    pub served: u64,
    /// The merged per-worker collector shards.
    pub stats: S,
}

/// A pool of application worker threads.
#[derive(Debug)]
pub struct WorkerPool<S = StatsCollector> {
    handles: Vec<JoinHandle<(u64, S)>>,
    shard_proto: S,
}

impl<S: Shard> WorkerPool<S> {
    /// Spawns `threads` workers that serve requests from `queue_rx` using `app`.
    ///
    /// Each worker owns a clone of `shard` (its local statistics shard, used for
    /// [`Completion::Inline`] requests) and, when `pool` is given, recycles request
    /// payload buffers into it after handling.  Workers exit when the queue is closed
    /// (all producers dropped).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] if the operating system refuses to spawn a
    /// worker thread.
    pub fn spawn(
        app: Arc<dyn ServerApp>,
        queue_rx: QueueReceiver,
        clock: RunClock,
        threads: usize,
        shard: S,
        pool: Option<Arc<BufferPool>>,
    ) -> Result<Self, HarnessError> {
        let shard_proto = shard.clone();
        let mut handles = Vec::with_capacity(threads.max(1));
        for i in 0..threads.max(1) {
            let app = Arc::clone(&app);
            let rx = queue_rx.clone();
            let mut local = shard.clone();
            let pool = pool.clone();
            let handle = std::thread::Builder::new()
                .name(format!("tb-worker-{i}"))
                .spawn(move || {
                    let served = worker_loop(&*app, &rx, clock, &mut local, pool.as_deref());
                    (served, local)
                })?;
            handles.push(handle);
        }
        Ok(WorkerPool {
            handles,
            shard_proto,
        })
    }

    /// Number of worker threads in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Returns `true` if the pool has no workers (never the case for spawned pools).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Waits for every worker to exit, returning the total served count and the merged
    /// per-worker statistics shards.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Internal`] if a worker thread panicked; the
    /// remaining workers are still joined first so no thread is leaked.
    pub fn join(self) -> Result<WorkerOutput<S>, HarnessError> {
        let mut stats = self.shard_proto;
        let mut served = 0u64;
        let mut panicked = 0usize;
        for handle in self.handles {
            match handle.join() {
                Ok((count, shard)) => {
                    served += count;
                    stats.merge(shard);
                }
                Err(_) => panicked += 1,
            }
        }
        if panicked > 0 {
            return Err(HarnessError::Internal(format!(
                "{panicked} worker thread(s) panicked"
            )));
        }
        Ok(WorkerOutput { served, stats })
    }
}

/// The body of one worker thread. Returns the number of requests it served.
fn worker_loop<S: Shard>(
    app: &dyn ServerApp,
    rx: &QueueReceiver,
    clock: RunClock,
    shard: &mut S,
    pool: Option<&BufferPool>,
) -> u64 {
    let mut served = 0u64;
    // `recv_at` lets deadline-aware admission policies shed requests whose queueing
    // delay already blew the SLO at the moment a worker would otherwise start them.
    while let Ok(item) = rx.recv_at(&|| clock.now_ns()) {
        let started_ns = clock.now_ns();
        let response = app.handle(&item.request.payload);
        let completed_ns = clock.now_ns();
        served += 1;
        if let Some(pool) = pool {
            pool.recycle(item.request.payload);
        }
        match item.completion {
            Completion::Inline => {
                // Integrated configuration: the response is "delivered" at completion
                // and recorded into this worker's own shard — zero cross-thread work.
                shard.record(&RequestRecord {
                    id: item.request.id,
                    issued_ns: item.request.issued_ns,
                    enqueued_ns: item.enqueued_ns,
                    started_ns,
                    completed_ns,
                    client_received_ns: completed_ns,
                });
            }
            Completion::Responder(tx) => {
                let completion = ServerCompletion {
                    id: item.request.id,
                    issued_ns: item.request.issued_ns,
                    enqueued_ns: item.enqueued_ns,
                    started_ns,
                    completed_ns,
                    work: response.work,
                    response_payload: response.payload,
                };
                let _ = tx.send(completion);
            }
        }
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use crate::queue::{PushOutcome, RequestQueue};
    use crate::request::{Request, RequestId};
    use crossbeam::channel::unbounded;

    #[test]
    fn workers_process_requests_and_record_inline() {
        let clock = RunClock::new();
        let queue = RequestQueue::new();
        let app: Arc<dyn ServerApp> = Arc::new(EchoApp::default());
        let pool = WorkerPool::spawn(
            app,
            queue.receiver(),
            clock,
            2,
            StatsCollector::new(0),
            None,
        )
        .expect("spawn workers");
        assert_eq!(pool.len(), 2);

        for i in 0..20u64 {
            let outcome = queue.push(
                Request {
                    id: RequestId(i),
                    payload: vec![i as u8],
                    issued_ns: clock.now_ns(),
                },
                clock.now_ns(),
                Completion::Inline,
            );
            assert_eq!(outcome, PushOutcome::Accepted);
        }
        queue.close();

        let out = pool.join().expect("join workers");
        assert_eq!(out.served, 20);
        assert_eq!(out.stats.measured(), 20);
        let sojourn = out.stats.sojourn_stats();
        assert!(sojourn.max_ns >= sojourn.min_ns);
        assert!(out.stats.queue_stats().count == 20);
    }

    #[test]
    fn workers_route_to_responder_and_recycle_buffers() {
        let clock = RunClock::new();
        let queue = RequestQueue::new();
        let app: Arc<dyn ServerApp> = Arc::new(EchoApp::default());
        let buffers = Arc::new(BufferPool::default());
        let pool = WorkerPool::spawn(
            app,
            queue.receiver(),
            clock,
            1,
            StatsCollector::new(0),
            Some(Arc::clone(&buffers)),
        )
        .expect("spawn workers");

        let (resp_tx, resp_rx) = unbounded();
        queue.push(
            Request {
                id: RequestId(7),
                payload: b"ping".to_vec(),
                issued_ns: 1,
            },
            2,
            Completion::Responder(resp_tx),
        );
        queue.close();
        let out = pool.join().expect("join workers");
        assert_eq!(out.served, 1);
        assert_eq!(
            out.stats.measured(),
            0,
            "responder requests record elsewhere"
        );
        let completion = resp_rx.recv().unwrap();
        assert_eq!(completion.id, RequestId(7));
        assert_eq!(&completion.response_payload[..4], b"ping");
        assert_eq!(buffers.stats().recycled, 1, "request payload was recycled");
    }
}
