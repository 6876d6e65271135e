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
//! Every TCP run is a cluster run, a single server being the 1×1 cluster.  The client
//! has `connections` client connections, mirroring the paper's several client processes
//! that keep the client from becoming the queuing bottleneck: each is a pacer thread
//! that paces its round-robin share of the schedule and holds a socket to every server
//! instance, writing each copy of a request straight onto the socket of the instance
//! that serves it.  Each socket has a receiver thread that records its responses into a
//! leg shard of its own (merged at join — no collector thread), or hands them to the
//! hedge engine, which reissues on a socket of its own to each instance.  Each instance
//! has its own listener, queue and worker pool, and a reader and a writer thread per
//! accepted socket; payload buffers are pooled: readers take, workers and writers
//! recycle.

use crate::app::{RequestFactory, ServerApp};
use crate::collector::{ClusterCollector, StatsCollector};
use crate::config::{BenchmarkConfig, ClusterConfig, HarnessMode};
use crate::error::HarnessError;
use crate::hedge::{HedgeEngine, HedgeMsg};
use crate::integrated::{
    build_cluster_report, check_instances, cluster_collector, interfered, open_loop_requests,
    queue_summary, InFlight, LegShard,
};
use crate::policy::{plan_legs, LegPlan};
use crate::pool::BufferPool;
use crate::protocol;
use crate::queue::{Completion, PushOutcome, RequestQueue};
use crate::report::ClusterReport;
use crate::request::{Request, RequestRecord};
use crate::time::{pace, PacingRecorder, RunClock};
use crate::worker::{Shard, WorkerPool};
use crossbeam::channel::unbounded;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};

/// Wraps a thread-local I/O failure with the socket and role that hit it, so a mid-run
/// peer disconnect surfaces as an actionable diagnostic instead of silently truncating
/// the measurement.
fn connection_error(what: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("TCP {what} failed mid-run: {e}"))
}

/// A thread on the request path panicked — a harness bug, not a peer failure.
fn thread_panicked(what: &str) -> HarnessError {
    HarnessError::Internal(format!("{what} thread panicked"))
}

/// A thread that hands back its result and the I/O error, if any, that ended it early.
type Ended<T> = JoinHandle<(T, Option<io::Error>)>;

/// What every client connection of a run shares.
#[derive(Debug, Clone)]
struct Client {
    cluster: ClusterConfig,
    seed: u64,
    clock: RunClock,
    max_ns: u64,
    one_way_delay_ns: u64,
    in_flight: InFlight,
    engine: Option<Sender<HedgeMsg>>,
    /// Each instance's empty leg shard, cloned for every socket to it.
    legs: Vec<LegShard>,
}

impl Client {
    /// Opens client connection `c`: a socket to each instance at `addrs`, whose
    /// receiver thread records that instance's responses.  Returns the sockets in
    /// instance order, for writing.
    fn connect(
        &self,
        c: usize,
        addrs: &[SocketAddr],
        receivers: &mut Vec<Ended<ClusterCollector>>,
    ) -> Result<Vec<BufWriter<TcpStream>>, HarnessError> {
        let mut sockets = Vec::with_capacity(addrs.len());
        for (i, (addr, legs)) in addrs.iter().zip(&self.legs).enumerate() {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let (mut legs, clock, delay_ns) = (legs.clone(), self.clock, self.one_way_delay_ns);
            let receiver = Builder::new()
                .name(format!("tb-client-recv-{c}-{i}"))
                .spawn(move || {
                    let mut scratch = Vec::new();
                    let error = loop {
                        match protocol::read_response_header(&mut reader, &mut scratch) {
                            Ok(Some(header)) => {
                                legs.record(&record_from_header(&header, clock.now_ns(), delay_ns));
                            }
                            // Clean EOF: the server instance finished and shut down.
                            Ok(None) => break None,
                            // The server instance vanished mid-run.
                            Err(e) => {
                                let what = format!("client receiver {c} from instance {i}");
                                break Some(connection_error(&what, e));
                            }
                        }
                    };
                    (legs.partial, error)
                })?;
            receivers.push(receiver);
            sockets.push(BufWriter::new(stream));
        }
        Ok(sockets)
    }

    /// Spawns the pacer of client connection `c`: it paces `requests`, plans each one's
    /// legs, announces them to the hedge engine (with the payload only when hedging)
    /// and writes each copy on the socket to its instance, then shuts the sockets'
    /// write side.
    fn spawn_pacer(
        &self,
        c: usize,
        mut sockets: Vec<BufWriter<TcpStream>>,
        requests: Vec<Request>,
    ) -> Result<Ended<PacingRecorder>, HarnessError> {
        let Client {
            cluster,
            seed,
            clock,
            max_ns,
            in_flight,
            engine,
            ..
        } = self.clone();
        let hedge = cluster.active_hedge().is_some();
        let pacer = Builder::new()
            .name(format!("tb-client-pace-{c}"))
            .spawn(move || {
                let mut plan = Vec::with_capacity(cluster.fanout_width());
                let mut error = None;
                let pacing = pace(requests, clock, max_ns, |request| {
                    let load_of = |i| in_flight.load(i);
                    plan_legs(&cluster, &request, seed, &load_of, &mut plan);
                    if let Some(tx) = &engine {
                        // Announce the legs before any server can answer them; only a
                        // hedge copy needs the payload.
                        let payload = if hedge {
                            request.payload.clone()
                        } else {
                            Vec::new()
                        };
                        let legs = plan.clone();
                        let request = Request { payload, ..request };
                        let _ = tx.send(HedgeMsg::Dispatched { request, legs });
                    }
                    for i in plan.iter().flat_map(LegPlan::copies) {
                        let socket = sockets
                            .get_mut(i)
                            .ok_or_else(|| io::Error::other("no socket"));
                        if let Err(e) = socket.and_then(|s| protocol::write_request(s, &request)) {
                            let what = format!("client pacer {c} to instance {i}");
                            error = Some(connection_error(&what, e));
                            return false;
                        }
                        in_flight.add(i);
                    }
                    true
                });
                // End of requests: each server reader unwinds, then its writer, then the
                // socket's receiver.
                for socket in &sockets {
                    let _ = socket.get_ref().shutdown(Shutdown::Write);
                }
                (pacing, error)
            })?;
        Ok(pacer)
    }
}

/// Builds the client-side [`RequestRecord`] for a decoded response header.  The analytic
/// propagation delay is added once per direction: the request and the response each
/// cross the "wire".
fn record_from_header(
    header: &protocol::ResponseHeader,
    now_ns: u64,
    one_way_delay_ns: u64,
) -> RequestRecord {
    RequestRecord {
        id: header.id,
        issued_ns: header.issued_ns,
        enqueued_ns: header.enqueued_ns,
        started_ns: header.started_ns,
        completed_ns: header.completed_ns,
        client_received_ns: now_ns + 2 * one_way_delay_ns,
    }
}

/// Runs one cluster measurement over TCP, loopback or networked as `config.mode` says; a
/// single server runs as `shards = 1, replication = 1`.
///
/// Each of the `cluster.instances()` server instances gets its own listener, request
/// queue and worker pool.  Each of the mode's `connections` client connections is a
/// pacer thread that paces its round-robin share of the open-loop schedule, holds a
/// socket to every instance and writes each of a request's copies (chosen by
/// `cluster.fanout`, the replica selector and tied requests) on the socket to its
/// instance, so no thread or channel sits between pacing and the write.  Each socket's
/// receiver thread records into a partial cross-shard collector merged at run end; with
/// hedging or tied requests active the receivers hand their legs to the hedge engine,
/// which owns the collector and writes hedge copies on a socket of its own to each
/// instance.  The networked mode's analytic propagation delay is added per direction.
///
/// # Errors
///
/// Returns [`HarnessError::Io`] if sockets cannot be set up or a connection fails
/// mid-run, [`HarnessError::Config`] for a mode other than loopback or networked,
/// closed-loop load or a wrong `apps` count, and [`HarnessError::Internal`] if a thread
/// panics or a queue's ledger leaks.
pub fn run_cluster_tcp(
    apps: &[Arc<dyn ServerApp>],
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
    cluster: &ClusterConfig,
) -> Result<ClusterReport, HarnessError> {
    let (connections, one_way_delay_ns) = match config.mode {
        HarnessMode::Loopback { connections } => (connections, 0),
        HarnessMode::Networked {
            connections,
            one_way_delay_ns,
        } => (connections, one_way_delay_ns),
        mode => {
            let mode = mode.name();
            return Err(HarnessError::Config(format!("{mode} is not a TCP mode")));
        }
    };
    check_instances(apps, cluster)?;
    for app in apps {
        app.prepare();
    }
    let schedules = open_loop_requests(factory, config)?.split_round_robin(connections);

    let clock = RunClock::new();
    let hedge = cluster.active_hedge().is_some();
    let mut observers = Vec::with_capacity(apps.len());
    let mut pools = Vec::with_capacity(apps.len());
    let mut servers = Vec::with_capacity(apps.len());
    let mut addrs = Vec::with_capacity(apps.len());
    for (i, app) in apps.iter().enumerate() {
        // The server readers hold the queue's only producer handles.
        let queue = RequestQueue::with_policy(config.admission);
        observers.push(queue.observer());
        let buffers = Arc::new(BufferPool::default());
        pools.push(WorkerPool::spawn(
            interfered(app, config, i, clock),
            queue.receiver(),
            clock,
            config.worker_threads,
            StatsCollector::new(0),
            Some(Arc::clone(&buffers)),
        )?);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(listener.local_addr()?);
        let sockets = connections + usize::from(hedge);
        servers.push(spawn_server(listener, sockets, &queue, clock, &buffers)?);
    }

    let in_flight = InFlight::new(cluster);
    let (engine_tx, engine_rx) = channel();
    let engine_tx = (hedge || cluster.active_tied()).then_some(engine_tx);
    let client = Client {
        cluster: cluster.clone(),
        seed: config.seed,
        clock,
        max_ns: config.max_duration.as_nanos() as u64,
        one_way_delay_ns,
        in_flight: in_flight.clone(),
        legs: (0..apps.len())
            .map(|i| LegShard::new(config, cluster, i, engine_tx.as_ref(), &in_flight))
            .collect(),
        engine: engine_tx,
    };
    let mut receivers = Vec::new();
    // The hedge engine writes its copies on sockets of its own, whose write side this
    // thread shuts once the engine has returned.
    let mut hedge_sockets = Vec::new();
    let engine = if client.engine.is_some() {
        let mut sockets = Vec::new();
        if hedge {
            sockets = client.connect(connections, &addrs, &mut receivers)?;
        }
        for socket in &sockets {
            hedge_sockets.push(socket.get_ref().try_clone()?);
        }
        let in_flight = in_flight.clone();
        let reissue = move |instance: usize, request: Request| {
            let written = sockets
                .get_mut(instance)
                .is_some_and(|s| protocol::write_request(s, &request).is_ok());
            if written {
                in_flight.add(instance);
            }
            written
        };
        // A tied loser is already on the wire when the winner responds: there is no
        // cross-network retraction, so the loser runs to completion server-side and
        // simply loses the first-response race here (see DESIGN.md).
        let retract = |_, _| false;
        let collector = cluster_collector(config, cluster);
        let cluster = cluster.clone();
        Some(HedgeEngine::spawn(
            engine_rx, cluster, clock, collector, reissue, retract,
        )?)
    } else {
        None
    };

    let mut pacers = Vec::with_capacity(connections);
    for (c, requests) in schedules.into_iter().enumerate() {
        let sockets = client.connect(c, &addrs, &mut receivers)?;
        pacers.push(client.spawn_pacer(c, sockets, requests)?);
    }
    let engine_tx = client.engine.clone();
    drop(client);

    // The first connection-level I/O error fails the run — silently truncated
    // measurements are worse than no measurement — unless a thread panicked.
    let mut failure = None;
    let mut pacing = PacingRecorder::new();
    for pacer in pacers {
        let (paced, error) = pacer.join().map_err(|_| thread_panicked("client pacer"))?;
        pacing.merge(&paced);
        failure = failure.or(error);
    }
    if let Some(tx) = engine_tx {
        let _ = tx.send(HedgeMsg::NoMoreDispatches);
    }
    let engine = engine.map(HedgeEngine::join);
    for socket in hedge_sockets {
        let _ = socket.shutdown(Shutdown::Write);
    }
    let mut stats = cluster_collector(config, cluster);
    for receiver in receivers {
        let (partial, error) = receiver
            .join()
            .map_err(|_| thread_panicked("client receiver"))?;
        stats.merge(partial);
        failure = failure.or(error);
    }
    // The receivers end even after a worker panic, since a queue drops what it holds
    // once its last worker is gone; a hedged run's engine, joined above, still waits
    // for the copy the panicking worker held.
    for pool in pools {
        pool.join()?;
    }
    for server in servers {
        let error = server
            .join()
            .map_err(|_| thread_panicked("server accept"))??;
        failure = failure.or(error);
    }
    let (stats, hedge_stats) = match engine.transpose()? {
        Some((hedge_stats, collector)) => (collector, Some(hedge_stats)),
        None => (stats, None),
    };
    if let Some(e) = failure {
        return Err(HarnessError::Io(e));
    }
    let mut report = build_cluster_report(
        apps.first().map_or("", |a| a.name()),
        config.mode.name(),
        config,
        cluster,
        &stats,
        hedge_stats,
    );
    report.cluster.queue_depth = queue_summary(&observers)?;
    report.cluster.pacing = pacing.stats();
    Ok(report)
}

/// A server thread's result: the I/O error, if any, that ended it early.
type Served = JoinHandle<Option<io::Error>>;

/// Accepts `sockets` connections and spawns a reader and a writer thread for each.
/// Readers pull request payload buffers from `buffers` and writers recycle response
/// payloads back into it, closing the pool's request/response cycle.  Returns a handle
/// that joins every thread and reports the first I/O error they hit (none on a clean
/// run), so a client that vanishes mid-run fails the measurement with a diagnostic
/// instead of silently truncating it, or [`HarnessError::Internal`] if one panicked.
///
/// # Errors
///
/// Returns [`HarnessError::Io`] if the accept thread cannot be spawned.
fn spawn_server(
    listener: TcpListener,
    sockets: usize,
    queue: &RequestQueue,
    clock: RunClock,
    buffers: &Arc<BufferPool>,
) -> Result<JoinHandle<Result<Option<io::Error>, HarnessError>>, HarnessError> {
    let queue_tx = queue.sender();
    let buffers = Arc::clone(buffers);
    let accept = Builder::new()
        .name("tb-server-accept".into())
        .spawn(move || {
            let mut failure = None;
            let mut threads = Vec::new();
            for c in 0..sockets {
                let accepted = listener.accept();
                match accepted.and_then(|(stream, _)| serve(c, stream, &queue_tx, clock, &buffers))
                {
                    Ok(pair) => threads.extend(pair),
                    Err(e) => {
                        failure = Some(connection_error(&format!("server socket {c}"), e));
                        break;
                    }
                }
            }
            // Connections never accepted are reset rather than left waiting.
            drop(listener);
            drop(queue_tx);
            let mut panicked = false;
            for thread in threads {
                match thread.join() {
                    Ok(error) => failure = failure.or(error),
                    Err(_) => panicked = true,
                }
            }
            if panicked {
                return Err(thread_panicked("server reader or writer"));
            }
            Ok(failure)
        })?;
    Ok(accept)
}

/// Spawns the reader and the writer thread of accepted socket `c`.
fn serve(
    c: usize,
    stream: TcpStream,
    queue_tx: &RequestQueue,
    clock: RunClock,
    buffers: &Arc<BufferPool>,
) -> io::Result<[Served; 2]> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let (resp_tx, resp_rx) = unbounded();
    let (queue_tx, read_pool, write_pool) =
        (queue_tx.clone(), Arc::clone(buffers), Arc::clone(buffers));
    // Exiting drops `resp_tx`, so the writer ends once the requests in flight drain.
    let reader = Builder::new()
        .name("tb-server-recv".into())
        .spawn(move || loop {
            match protocol::read_request_pooled(&mut reader, &read_pool) {
                Ok(Some(request)) => {
                    let enqueued_ns = clock.now_ns();
                    let completion = Completion::Responder(resp_tx.clone());
                    if queue_tx.push(request, enqueued_ns, completion) == PushOutcome::Closed {
                        break None;
                    }
                }
                // Clean EOF: the client shut down its write side.
                Ok(None) => break None,
                // The client vanished mid-frame.
                Err(e) => break Some(connection_error(&format!("server reader {c}"), e)),
            }
        })?;
    let writer = Builder::new()
        .name("tb-server-send".into())
        .spawn(move || {
            let mut writer = BufWriter::new(&stream);
            let mut error = None;
            while let Ok(completion) = resp_rx.recv() {
                if let Err(e) = protocol::write_response(&mut writer, &completion) {
                    error = Some(connection_error(&format!("server writer {c}"), e));
                    break;
                }
                write_pool.recycle(completion.response_payload);
            }
            drop(writer);
            let _ = stream.shutdown(Shutdown::Write);
            error
        })?;
    Ok([reader, writer])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use crate::config::{BenchmarkConfig, FanoutPolicy};
    use crate::runner::execute;
    use std::time::Duration;

    fn echo_app() -> Arc<dyn ServerApp> {
        Arc::new(EchoApp::with_service_us(10))
    }

    fn echo_apps(n: usize) -> Vec<Arc<dyn ServerApp>> {
        (0..n).map(|_| echo_app()).collect()
    }

    #[test]
    fn loopback_run_completes_and_measures() {
        let mut factory = || b"net".to_vec();
        let config = BenchmarkConfig::new(1_000.0, 300)
            .with_warmup(30)
            .with_max_duration(Duration::from_secs(30))
            .with_mode(HarnessMode::Loopback { connections: 4 });
        let report = execute(&echo_app(), &mut factory, &config, None).unwrap();
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
        let mut factory = || b"net".to_vec();
        let config = BenchmarkConfig::new(800.0, 200)
            .with_warmup(20)
            .with_seed(9)
            .with_mode(HarnessMode::Networked {
                connections: 4,
                one_way_delay_ns: 50_000,
            });
        let networked = execute(&echo_app(), &mut factory, &config, None).unwrap();
        assert_eq!(networked.configuration, "networked");
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
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast);
        let mut factory = || b"net".to_vec();
        let config = BenchmarkConfig::new(800.0, 250)
            .with_warmup(25)
            .with_max_duration(Duration::from_secs(30))
            .with_mode(HarnessMode::Loopback { connections: 2 });
        let report = run_cluster_tcp(&echo_apps(2), &mut factory, &config, &cluster).unwrap();
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
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast);
        let config = BenchmarkConfig::new(500.0, 150)
            .with_warmup(15)
            .with_seed(2)
            .with_mode(HarnessMode::Networked {
                connections: 1,
                one_way_delay_ns: 50_000,
            });
        let mut factory = || b"net".to_vec();
        let networked = run_cluster_tcp(&echo_apps(2), &mut factory, &config, &cluster).unwrap();
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
        use crate::request::RequestId;
        // A fake server that answers the first request with a truncated frame and then
        // dies — the regression this pins: client threads that swallowed the I/O error
        // let the run complete silently with partial data.
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
        let cluster = ClusterConfig::new(1, FanoutPolicy::Broadcast);
        let config = BenchmarkConfig::new(1_000.0, 50).with_warmup(0);
        let in_flight = InFlight::new(&cluster);
        let client = Client {
            legs: vec![LegShard::new(&config, &cluster, 0, None, &in_flight)],
            cluster,
            seed: 0,
            clock: RunClock::new(),
            max_ns: u64::MAX,
            one_way_delay_ns: 0,
            in_flight,
            engine: None,
        };
        let mut receivers = Vec::new();
        let sockets = client.connect(0, &[addr], &mut receivers).unwrap();
        let (_, send_err) = client
            .spawn_pacer(0, sockets, requests)
            .unwrap()
            .join()
            .unwrap();
        let (_, recv_err) = receivers.pop().unwrap().join().unwrap();
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
        let error = handle.join().unwrap().unwrap();
        let error = error.expect("a client vanishing mid-frame must be reported");
        assert!(
            error.to_string().contains("server reader"),
            "diagnostic names the failing role: {error}"
        );
        queue.close();
    }

    #[test]
    fn a_panicking_worker_fails_a_tcp_run_instead_of_hanging() {
        use crate::app::testing::{within, PanicsOn21st};
        let config = BenchmarkConfig::new(2_000.0, 200)
            .with_warmup(0)
            .with_mode(HarnessMode::Loopback { connections: 1 });
        let app: Arc<dyn ServerApp> = Arc::new(PanicsOn21st::default());
        let err = within(15, move || {
            execute(&app, &mut || b"x".to_vec(), &config, None)
        })
        .expect("the run must return once its worker has panicked")
        .unwrap_err();
        assert!(matches!(err, HarnessError::Internal(_)), "{err}");
    }

    #[test]
    fn closed_loop_and_non_tcp_modes_are_rejected() {
        let mut factory = || b"x".to_vec();
        let cluster = ClusterConfig::new(1, FanoutPolicy::Broadcast);
        let closed = BenchmarkConfig::new(100.0, 10)
            .with_mode(HarnessMode::Loopback { connections: 2 })
            .with_load(crate::traffic::LoadMode::Closed { think_ns: 0 });
        let integrated = BenchmarkConfig::new(100.0, 10);
        for config in [closed, integrated] {
            let err = run_cluster_tcp(&echo_apps(1), &mut factory, &config, &cluster).unwrap_err();
            assert!(matches!(err, HarnessError::Config(_)), "{err}");
        }
    }
}
