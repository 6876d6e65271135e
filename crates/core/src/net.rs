//! Loopback and networked harness configurations.
//!
//! In the loopback configuration the client and the application run on the same machine
//! and exchange requests over TCP through the loopback interface, which exercises the
//! kernel network stack but no physical network (paper Fig. 1, lower right).  The
//! networked configuration adds the propagation delay of NICs, links and switches; since
//! this reproduction has a single machine, that extra delay is added analytically as a
//! constant per direction (see DESIGN.md) while the socket and network-stack work is
//! still performed for real.
//!
//! The client side uses several connections, each with its own sender and receiver
//! thread, mirroring the paper's use of multiple client processes to avoid client-side
//! queuing.  Each receiver thread owns its own collector shard (merged at join — no
//! collector thread or channel), each sender thread records its own pacing error, and
//! server-side payload buffers are pooled: readers take, workers and writers recycle.

use crate::app::{RequestFactory, ServerApp};
use crate::collector::StatsCollector;
use crate::config::{BenchmarkConfig, ClusterConfig};
use crate::error::HarnessError;
use crate::hedge::{HedgeEngine, HedgeMsg};
use crate::integrated::{
    build_cluster_report, build_report, check_instances, cluster_collector, interfered,
    open_loop_requests, queue_summary, shard_proto, InFlight, LegShard,
};
use crate::policy::plan_legs;
use crate::pool::BufferPool;
use crate::protocol;
use crate::queue::{Completion, PushOutcome, RequestQueue};
use crate::report::{ClusterReport, RunReport};
use crate::request::Request;
use crate::time::{pace, PacingRecorder, RunClock};
use crate::worker::{Shard, WorkerPool};
use crossbeam::channel::unbounded;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Wraps a thread-local I/O failure with which connection and role hit it, so a
/// mid-run peer disconnect surfaces as an actionable diagnostic instead of silently
/// truncating the measurement.
fn connection_error(connection: usize, role: &str, e: io::Error) -> io::Error {
    io::Error::new(
        e.kind(),
        format!("TCP {role} for connection {connection} failed mid-run: {e}"),
    )
}

/// A thread on the request path panicked — a harness bug, not a peer failure.
fn thread_panicked(what: &str) -> HarnessError {
    HarnessError::Config(format!("{what} thread panicked"))
}

/// The sender/receiver thread pair driving one client connection.  Each half returns
/// its measurement artifact plus the I/O error (if any) that ended it early.
struct ClientConn {
    sender: JoinHandle<(PacingRecorder, Option<io::Error>)>,
    receiver: JoinHandle<(StatsCollector, Option<io::Error>)>,
}

/// Spawns the sender/receiver pair for one client connection.  The receiver decodes
/// responses into `shard` until clean EOF (server shut down its write side) or an I/O
/// error; the sender paces `requests` onto the socket, recording its issue error.
///
/// # Errors
///
/// Returns [`HarnessError::Io`] if the socket cannot be configured/cloned or a thread
/// cannot be spawned.
fn spawn_client(
    stream: TcpStream,
    requests: Vec<crate::request::Request>,
    mut shard: StatsCollector,
    clock: RunClock,
    max_ns: u64,
    one_way_delay_ns: u64,
) -> Result<ClientConn, HarnessError> {
    stream.set_nodelay(true).map_err(HarnessError::Io)?;
    let reader_stream = stream.try_clone().map_err(HarnessError::Io)?;

    // Receiver thread: decodes responses into its own collector shard, reusing one
    // scratch buffer for the payload bytes.
    let receiver = std::thread::Builder::new()
        .name("tb-client-recv".into())
        .spawn(move || {
            let mut reader = BufReader::new(reader_stream);
            let mut scratch = Vec::new();
            let error = loop {
                match protocol::read_response_header(&mut reader, &mut scratch) {
                    Ok(Some(header)) => {
                        let record = record_from_header(&header, clock.now_ns(), one_way_delay_ns);
                        shard.record(&record);
                    }
                    // Clean EOF: the server finished responding and shut down.
                    Ok(None) => break None,
                    // The peer vanished mid-run (reset, truncated frame, ...).
                    Err(e) => break Some(e),
                }
            };
            (shard, error)
        })
        .map_err(HarnessError::Io)?;

    // Sender thread: paces its share of the schedule and records its issue error.
    let sender = std::thread::Builder::new()
        .name("tb-client-send".into())
        .spawn(move || {
            let mut writer = BufWriter::new(&stream);
            let mut error = None;
            let pacing = pace(requests, clock, max_ns, |request| {
                let written = protocol::write_request(&mut writer, &request);
                error = written.err();
                error.is_none()
            });
            if error.is_none() {
                if let Err(e) = writer.flush() {
                    error = Some(e);
                }
            }
            drop(writer);
            // Signal end-of-requests so the server-side reader can wind down.
            let _ = stream.shutdown(Shutdown::Write);
            (pacing, error)
        })
        .map_err(HarnessError::Io)?;

    Ok(ClientConn { sender, receiver })
}

/// Runs one measurement over TCP (loopback or networked) and returns its report.
///
/// `one_way_delay_ns` is the analytic propagation delay added per direction;
/// pass 0 for the loopback configuration.
///
/// # Errors
///
/// Returns [`HarnessError::Io`] if the server socket cannot be created or a client
/// connection fails; [`HarnessError::Config`] if called with a closed-loop load mode
/// (the TCP runners only support the open-loop methodology).
pub fn run_tcp(
    app: &Arc<dyn ServerApp>,
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
    connections: usize,
    one_way_delay_ns: u64,
    configuration_name: &str,
) -> Result<RunReport, HarnessError> {
    let connections = connections.max(1);
    app.prepare();
    // The schedule and payloads are drawn before the clock starts, so set-up is not
    // charged to pacing.
    let per_connection = open_loop_requests(factory, config)?.split_round_robin(connections);

    let clock = RunClock::new();
    let queue = RequestQueue::with_policy(config.admission);
    let observer = queue.observer();
    let buffers = Arc::new(BufferPool::default());
    let pool = WorkerPool::spawn(
        interfered(app, config, 0, clock),
        queue.receiver(),
        clock,
        config.worker_threads,
        shard_proto(config),
        Some(Arc::clone(&buffers)),
    )?;

    // --- server side -------------------------------------------------------------------
    let listener = TcpListener::bind("127.0.0.1:0").map_err(HarnessError::Io)?;
    let addr = listener.local_addr().map_err(HarnessError::Io)?;
    let accept_handle = spawn_server(listener, connections, &queue, clock, &buffers)?;

    // --- client side ---------------------------------------------------------------------
    let mut clients = Vec::new();
    let max_ns = config.max_duration.as_nanos() as u64;
    for requests in per_connection {
        let stream = TcpStream::connect(addr).map_err(HarnessError::Io)?;
        clients.push(spawn_client(
            stream,
            requests,
            shard_proto(config),
            clock,
            max_ns,
            one_way_delay_ns,
        )?);
    }

    // Wait for all clients to finish sending and receiving, merging their shards.  The
    // first connection-level I/O error fails the run — silently truncated measurements
    // are worse than no measurement.
    let mut stats = shard_proto(config);
    let mut pacing = PacingRecorder::new();
    let mut failure: Option<io::Error> = None;
    for (i, conn) in clients.into_iter().enumerate() {
        let (sent, send_err) = conn
            .sender
            .join()
            .map_err(|_| thread_panicked("client sender"))?;
        pacing.merge(&sent);
        let (shard, recv_err) = conn
            .receiver
            .join()
            .map_err(|_| thread_panicked("client receiver"))?;
        stats.merge(&shard);
        if failure.is_none() {
            failure = send_err
                .map(|e| connection_error(i, "client sender", e))
                .or(recv_err.map(|e| connection_error(i, "client receiver", e)));
        }
    }
    // All server readers have observed EOF by now (the receivers only exit once the
    // server writers shut down their side); dropping our queue handle lets workers exit.
    queue.close();
    pool.join()?;
    let server_errors = accept_handle
        .join()
        .map_err(|_| thread_panicked("server accept"))?;
    if failure.is_none() {
        failure = server_errors.into_iter().next();
    }
    if let Some(e) = failure {
        return Err(HarnessError::Io(e));
    }

    let mut report = build_report(app.name(), configuration_name, config, &stats);
    report.queue_depth = observer.summary()?;
    report.pacing = pacing.stats();
    Ok(report)
}

/// Builds the client-side [`RequestRecord`](crate::request::RequestRecord) for a decoded
/// response header.  The analytic propagation delay is added once per direction: the
/// request and the response each cross the "wire".
fn record_from_header(
    header: &protocol::ResponseHeader,
    now_ns: u64,
    one_way_delay_ns: u64,
) -> crate::request::RequestRecord {
    crate::request::RequestRecord {
        id: header.id,
        issued_ns: header.issued_ns,
        enqueued_ns: header.enqueued_ns,
        started_ns: header.started_ns,
        completed_ns: header.completed_ns,
        client_received_ns: now_ns + 2 * one_way_delay_ns,
    }
}

/// Runs one cluster measurement over TCP (loopback or networked).
///
/// Each of the `cluster.instances()` server instances gets its own listener, request
/// queue and worker pool; the client opens one connection per instance.  The calling
/// thread is the client-side router: it paces the global open-loop schedule and hands
/// each request's leg(s) to per-connection sender threads chosen by `cluster.fanout` —
/// the socket writes happen off the router thread, so a wide fan-out does not serialize
/// write syscalls into later shards' measured latency.  Per-connection receiver threads
/// decode responses into partial cross-shard collectors merged at run end (the hedge
/// engine owns the collector when hedging is active).  `one_way_delay_ns` is the
/// analytic propagation delay added per direction (0 for loopback).
///
/// # Errors
///
/// Returns [`HarnessError::Io`] if sockets cannot be set up, and
/// [`HarnessError::Config`] for closed-loop load or a wrong `apps` count.
pub fn run_cluster_tcp(
    apps: &[Arc<dyn ServerApp>],
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
    cluster: &ClusterConfig,
    one_way_delay_ns: u64,
    configuration_name: &str,
) -> Result<ClusterReport, HarnessError> {
    check_instances(apps, cluster)?;
    for app in apps {
        app.prepare();
    }
    let requests = open_loop_requests(factory, config)?;

    let clock = RunClock::new();
    let width = cluster.fanout_width();
    let hedge = cluster.active_hedge();
    let tied = cluster.active_tied();
    let warmup = config.warmup_requests as u64;
    let in_flight = InFlight::new(cluster);

    let mut queues = Vec::with_capacity(apps.len());
    let mut observers = Vec::with_capacity(apps.len());
    let mut pools = Vec::with_capacity(apps.len());
    let mut server_handles = Vec::with_capacity(apps.len());
    let mut sender_handles = Vec::with_capacity(apps.len());
    let mut reader_streams = Vec::with_capacity(apps.len());
    let mut leg_txs: Vec<crossbeam::channel::Sender<Request>> = Vec::with_capacity(apps.len());
    for (i, app) in apps.iter().enumerate() {
        let queue = RequestQueue::with_policy(config.admission);
        observers.push(queue.observer());
        let buffers = Arc::new(BufferPool::default());
        pools.push(WorkerPool::spawn(
            interfered(app, config, i, clock),
            queue.receiver(),
            clock,
            config.worker_threads,
            StatsCollector::new(warmup),
            Some(Arc::clone(&buffers)),
        )?);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(HarnessError::Io)?;
        let addr = listener.local_addr().map_err(HarnessError::Io)?;
        server_handles.push(spawn_server(listener, 1, &queue, clock, &buffers)?);
        queues.push(queue);

        let stream = TcpStream::connect(addr).map_err(HarnessError::Io)?;
        stream.set_nodelay(true).map_err(HarnessError::Io)?;
        reader_streams.push(stream.try_clone().map_err(HarnessError::Io)?);
        // Sender thread: serializes this connection's legs off the router thread.
        let (leg_tx, leg_rx) = unbounded::<Request>();
        leg_txs.push(leg_tx);
        sender_handles.push(
            std::thread::Builder::new()
                .name(format!("tb-cluster-send-{i}"))
                .spawn(move || {
                    let mut writer = BufWriter::new(&stream);
                    let mut error = None;
                    while let Ok(request) = leg_rx.recv() {
                        if let Err(e) = protocol::write_request(&mut writer, &request) {
                            error = Some(e);
                            break;
                        }
                    }
                    if error.is_none() {
                        if let Err(e) = writer.flush() {
                            error = Some(e);
                        }
                    }
                    drop(writer);
                    // End-of-requests: the server reader unwinds, then its writer, then
                    // our receiver.
                    let _ = stream.shutdown(Shutdown::Write);
                    error
                })
                .map_err(HarnessError::Io)?,
        );
    }

    // With hedging or tied requests active, receivers detour through the hedge engine,
    // which owns the collector, forwards only each leg's first response and (when
    // hedging) reissues stragglers onto the alternate replica's connection.
    let (engine_tx, engine_rx) = channel();
    let engine_tx = (hedge.is_some() || tied).then_some(engine_tx);
    let engine = if engine_tx.is_some() {
        // Tied-only runs never reissue; holding no sender handles then keeps the
        // teardown acyclic even when a server sheds a tied copy at admission.
        let hedge_leg_txs = hedge.map_or_else(Vec::new, |_| leg_txs.clone());
        let inflight = in_flight.clone();
        let reissue = move |instance: usize, request: Request| {
            let sent = hedge_leg_txs
                .get(instance)
                .is_some_and(|tx| tx.send(request).is_ok());
            if sent {
                inflight.add(instance);
            }
            sent
        };
        // A tied loser is already on the wire when the winner responds: there is no
        // cross-network retraction, so the loser runs to completion server-side and
        // simply loses the first-response race here (see DESIGN.md).
        let retract = |_, _| false;
        Some(HedgeEngine::spawn(
            engine_rx,
            cluster.clone(),
            clock,
            cluster_collector(config, cluster),
            reissue,
            retract,
        )?)
    } else {
        None
    };

    let mut receiver_handles = Vec::with_capacity(apps.len());
    for (i, reader_stream) in reader_streams.into_iter().enumerate() {
        let mut legs = LegShard::new(config, cluster, i, engine_tx.as_ref(), &in_flight);
        receiver_handles.push(
            std::thread::Builder::new()
                .name(format!("tb-cluster-recv-{i}"))
                .spawn(move || {
                    let mut reader = BufReader::new(reader_stream);
                    let mut scratch = Vec::new();
                    let error = loop {
                        match protocol::read_response_header(&mut reader, &mut scratch) {
                            Ok(Some(header)) => legs.record(&record_from_header(
                                &header,
                                clock.now_ns(),
                                one_way_delay_ns,
                            )),
                            // Clean EOF: the server instance finished and shut down.
                            Ok(None) => break None,
                            // The server instance vanished mid-run.
                            Err(e) => break Some(e),
                        }
                    };
                    (legs.partial, error)
                })
                .map_err(HarnessError::Io)?,
        );
    }

    // --- client-side router: pace the global schedule onto the shard connections ------
    let max_ns = config.max_duration.as_nanos() as u64;
    let mut plan = Vec::with_capacity(width);
    let pacing = pace(requests.into_requests(), clock, max_ns, |request| {
        let load_of = |i| in_flight.load(i);
        plan_legs(cluster, &request, config.seed, &load_of, &mut plan);
        if let Some(tx) = &engine_tx {
            // Announce the legs before any server can answer them.
            let legs = plan.clone();
            let _ = tx.send(HedgeMsg::Dispatched {
                request: request.clone(),
                legs,
            });
        }
        for i in plan.iter().flat_map(|leg| leg.copies()) {
            let delivered = leg_txs
                .get(i)
                .is_some_and(|tx| tx.send(request.clone()).is_ok());
            if !delivered {
                return false;
            }
            in_flight.add(i);
        }
        true
    });
    if let Some(tx) = &engine_tx {
        let _ = tx.send(HedgeMsg::NoMoreDispatches);
    }
    drop(engine_tx);
    drop(leg_txs);

    let mut failure: Option<io::Error> = None;
    for (i, sender) in sender_handles.into_iter().enumerate() {
        let send_err = sender
            .join()
            .map_err(|_| thread_panicked("cluster sender"))?;
        if failure.is_none() {
            failure = send_err.map(|e| connection_error(i, "cluster sender", e));
        }
    }
    let mut partials = Vec::with_capacity(receiver_handles.len());
    for (i, receiver) in receiver_handles.into_iter().enumerate() {
        let (partial, recv_err) = receiver
            .join()
            .map_err(|_| thread_panicked("cluster receiver"))?;
        partials.push(partial);
        if failure.is_none() {
            failure = recv_err.map(|e| connection_error(i, "cluster receiver", e));
        }
    }
    for queue in queues {
        queue.close();
    }
    for pool in pools {
        pool.join()?;
    }
    for (i, server) in server_handles.into_iter().enumerate() {
        let server_errors = server
            .join()
            .map_err(|_| thread_panicked("server accept"))?;
        if failure.is_none() {
            failure = server_errors
                .into_iter()
                .next()
                .map(|e| connection_error(i, "server instance", e));
        }
    }
    if let Some(e) = failure {
        return Err(HarnessError::Io(e));
    }
    let (stats, hedge_stats) = match engine {
        Some(engine) => {
            let (hedge_stats, collector) = engine.join()?;
            (collector, Some(hedge_stats))
        }
        None => {
            let mut merged = cluster_collector(config, cluster);
            for partial in partials {
                merged.merge(partial);
            }
            (merged, None)
        }
    };
    let mut report = build_cluster_report(
        apps.first().map_or("", |a| a.name()),
        configuration_name,
        config,
        cluster,
        &stats,
        hedge_stats,
    );
    report.cluster.queue_depth = queue_summary(&observers)?;
    report.cluster.pacing = pacing.stats();
    Ok(report)
}

/// Accepts `connections` connections and spawns a reader and a writer thread per
/// connection.  Readers pull request payload buffers from `buffers` and writers recycle
/// response payloads back into it, closing the pool's request/response cycle.  Returns
/// a handle that joins all per-connection threads and reports every I/O error they hit
/// (empty on a clean run), so a client that vanishes mid-run fails the measurement
/// with a diagnostic instead of silently truncating it.
///
/// # Errors
///
/// Returns [`HarnessError::Io`] if the accept thread cannot be spawned.
fn spawn_server(
    listener: TcpListener,
    connections: usize,
    queue: &RequestQueue,
    clock: RunClock,
    buffers: &Arc<BufferPool>,
) -> Result<JoinHandle<Vec<io::Error>>, HarnessError> {
    let queue_tx = queue.sender();
    let buffers = Arc::clone(buffers);
    std::thread::Builder::new()
        .name("tb-server-accept".into())
        .spawn(move || {
            let mut errors = Vec::new();
            let mut conn_handles = Vec::new();
            for c in 0..connections {
                let (stream, _) = match listener.accept() {
                    Ok(conn) => conn,
                    Err(e) => {
                        errors.push(connection_error(c, "server accept", e));
                        break;
                    }
                };
                let _ = stream.set_nodelay(true);
                let (resp_tx, resp_rx) = unbounded();
                let reader_stream = match stream.try_clone() {
                    Ok(s) => s,
                    Err(e) => {
                        errors.push(connection_error(c, "server stream clone", e));
                        continue;
                    }
                };
                let queue_tx = queue_tx.clone();
                let read_pool = Arc::clone(&buffers);
                let write_pool = Arc::clone(&buffers);

                let reader = std::thread::Builder::new()
                    .name("tb-server-recv".into())
                    .spawn(move || {
                        let mut reader = BufReader::new(reader_stream);
                        loop {
                            match protocol::read_request_pooled(&mut reader, &read_pool) {
                                Ok(Some(request)) => {
                                    let enqueued_ns = clock.now_ns();
                                    if queue_tx.push(
                                        request,
                                        enqueued_ns,
                                        Completion::Responder(resp_tx.clone()),
                                    ) == PushOutcome::Closed
                                    {
                                        break None;
                                    }
                                }
                                // Clean EOF: the client shut down its write side.
                                Ok(None) => break None,
                                // The client vanished mid-frame.
                                Err(e) => break Some(e),
                            }
                        }
                        // Dropping resp_tx here lets the writer exit once in-flight
                        // requests drain.
                    });

                let writer = std::thread::Builder::new()
                    .name("tb-server-send".into())
                    .spawn(move || {
                        let mut writer = BufWriter::new(&stream);
                        let mut error = None;
                        while let Ok(completion) = resp_rx.recv() {
                            if let Err(e) = protocol::write_response(&mut writer, &completion) {
                                error = Some(e);
                                break;
                            }
                            write_pool.recycle(completion.response_payload);
                        }
                        if error.is_none() {
                            if let Err(e) = writer.flush() {
                                error = Some(e);
                            }
                        }
                        drop(writer);
                        let _ = stream.shutdown(Shutdown::Write);
                        error
                    });

                match (reader, writer) {
                    (Ok(r), Ok(w)) => conn_handles.push((c, r, w)),
                    (r, w) => {
                        errors.extend(
                            r.err()
                                .into_iter()
                                .chain(w.err())
                                .map(|e| connection_error(c, "server thread spawn", e)),
                        );
                    }
                }
            }
            drop(queue_tx);
            for (c, reader, writer) in conn_handles {
                if let Ok(Some(e)) = reader.join() {
                    errors.push(connection_error(c, "server reader", e));
                }
                if let Ok(Some(e)) = writer.join() {
                    errors.push(connection_error(c, "server writer", e));
                }
            }
            errors
        })
        .map_err(HarnessError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use crate::config::BenchmarkConfig;
    use std::time::Duration;

    fn echo_app() -> Arc<dyn ServerApp> {
        Arc::new(EchoApp::with_service_us(10))
    }

    #[test]
    fn loopback_run_completes_and_measures() {
        let app = echo_app();
        let mut factory = || b"net".to_vec();
        let config = BenchmarkConfig::new(1_000.0, 300)
            .with_warmup(30)
            .with_max_duration(Duration::from_secs(30));
        let report = run_tcp(&app, &mut factory, &config, 4, 0, "loopback").unwrap();
        assert_eq!(report.configuration, "loopback");
        assert!(report.requests > 250, "measured {}", report.requests);
        assert!(report.sojourn.mean_ns > 0.0);
        // Loopback adds real socket overhead on top of service time.
        assert!(report.sojourn.mean_ns >= report.service.mean_ns);
        // Queue and pacing accounting flow through the TCP path too.
        assert!(report.queue_depth.accepted >= report.requests);
        assert!(report.pacing.count >= report.requests);
    }

    #[test]
    fn networked_delay_increases_sojourn() {
        let app = echo_app();
        let mut factory = || b"net".to_vec();
        let base = BenchmarkConfig::new(800.0, 200)
            .with_warmup(20)
            .with_seed(9);
        let networked = run_tcp(&app, &mut factory, &base, 4, 50_000, "networked").unwrap();
        // The 50 us each way lands in every record's transport overhead, so the
        // guarantee holds inside this one run however slow the host is.
        assert!(
            networked.overhead.p50_ns >= 100_000,
            "networked overhead p50 {} must carry the 100 us round trip",
            networked.overhead.p50_ns
        );
        assert!(networked.sojourn.p50_ns > networked.service.p50_ns + 50_000);
    }

    #[test]
    fn loopback_cluster_broadcast_merges_on_last_response() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let apps: Vec<Arc<dyn ServerApp>> = (0..2)
            .map(|_| Arc::new(EchoApp::with_service_us(10)) as Arc<dyn ServerApp>)
            .collect();
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast);
        let mut factory = || b"net".to_vec();
        let config = BenchmarkConfig::new(800.0, 250)
            .with_warmup(25)
            .with_max_duration(Duration::from_secs(30));
        let report =
            run_cluster_tcp(&apps, &mut factory, &config, &cluster, 0, "loopback").unwrap();
        assert_eq!(report.shards, 2);
        assert!(report.cluster.requests > 200, "{}", report.cluster.requests);
        for shard in &report.per_shard {
            assert_eq!(shard.requests, report.cluster.requests);
        }
        assert!(report.cluster.sojourn.p50_ns > 0);
        // Waiting for both shards can never beat the slower shard's tail.
        assert!(report.cluster.sojourn.p99_ns >= report.max_shard_p99_ns());
        // Both instances' queues feed the aggregate summary.
        assert!(report.cluster.queue_depth.accepted >= 2 * report.cluster.requests);
    }

    #[test]
    fn networked_cluster_delay_shifts_the_distribution() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let apps: Vec<Arc<dyn ServerApp>> = (0..2)
            .map(|_| Arc::new(EchoApp::with_service_us(10)) as Arc<dyn ServerApp>)
            .collect();
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast);
        let config = BenchmarkConfig::new(500.0, 150)
            .with_warmup(15)
            .with_seed(2);
        let mut factory = || b"net".to_vec();
        let networked =
            run_cluster_tcp(&apps, &mut factory, &config, &cluster, 50_000, "networked").unwrap();
        // Every leg's record carries the 100 us round trip as transport overhead, and
        // the end-to-end record is the slowest leg's.  Asserting it within the one run,
        // not against a second, independently noisy loopback run, cannot flake when
        // parallel tests slow the host.
        let end_to_end = &networked.cluster;
        assert!(
            end_to_end.overhead.p50_ns >= 100_000,
            "networked cluster overhead p50 {} must carry the 100 us round trip",
            end_to_end.overhead.p50_ns
        );
        assert!(
            end_to_end.sojourn.p50_ns > end_to_end.service.p50_ns + 50_000,
            "networked cluster p50 {} vs its own service p50 {}",
            end_to_end.sojourn.p50_ns,
            end_to_end.service.p50_ns
        );
    }

    #[test]
    fn killing_one_server_mid_run_fails_the_run_with_a_diagnostic() {
        use crate::collector::StatsCollector;
        use crate::request::{Request, RequestId};
        // A fake server that answers the first request with a truncated frame and then
        // dies — the regression this pins: the old client threads swallowed the I/O
        // error and the run completed silently with partial data.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64];
            let _ = std::io::Read::read(&mut stream, &mut buf);
            // Half a response header, then a hard close mid-frame.
            let _ = std::io::Write::write_all(&mut stream, &[0xAB, 0xCD, 0xEF]);
        });
        let requests: Vec<Request> = (0..50)
            .map(|i| Request {
                id: RequestId(i),
                payload: b"kill".to_vec(),
                issued_ns: 0,
            })
            .collect();
        let stream = TcpStream::connect(addr).unwrap();
        let conn = spawn_client(
            stream,
            requests,
            StatsCollector::new(0),
            RunClock::new(),
            u64::MAX,
            0,
        )
        .unwrap();
        let (_, send_err) = conn.sender.join().unwrap();
        let (_, recv_err) = conn.receiver.join().unwrap();
        server.join().unwrap();
        assert!(
            send_err.is_some() || recv_err.is_some(),
            "a server dying mid-run must surface an I/O error, not truncate silently"
        );
    }

    #[test]
    fn a_client_vanishing_mid_frame_surfaces_a_server_diagnostic() {
        let queue = RequestQueue::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let buffers = Arc::new(BufferPool::default());
        let handle = spawn_server(listener, 1, &queue, RunClock::new(), &buffers).unwrap();
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            // A truncated request frame, then the connection drops.
            std::io::Write::write_all(&mut stream, &[0xFF; 5]).unwrap();
        }
        let errors = handle.join().unwrap();
        assert!(
            !errors.is_empty(),
            "a client vanishing mid-frame must be reported"
        );
        assert!(
            errors[0].to_string().contains("server reader"),
            "diagnostic names the failing role: {}",
            errors[0]
        );
        queue.close();
    }

    #[test]
    fn closed_loop_mode_is_rejected() {
        let app = echo_app();
        let mut factory = || b"x".to_vec();
        let config = BenchmarkConfig::new(100.0, 10)
            .with_load(crate::traffic::LoadMode::Closed { think_ns: 0 });
        let err = run_tcp(&app, &mut factory, &config, 2, 0, "loopback").unwrap_err();
        assert!(matches!(err, HarnessError::Config(_)));
    }
}
