//! The one file that calls into the suite.
//!
//! End-to-end workloads use only the frozen surface: `Registry::builtin()`,
//! `AppBuilder::{build, build_cluster, cost_model}`, `BenchApp::factory(seed)`,
//! `runner::execute`, `runner::execute_cluster`, `BenchmarkConfig`, `ClusterConfig`,
//! `HarnessMode`, `LoadMode` and public report fields — never the deprecated `run*`
//! wrappers or the per-mode engines, so those can be merged or deleted without
//! touching the benchmark.  The layer probes below them time public functions of one
//! module each.  Everything else in this package sees the plain types defined here.

use crate::probes::{per_op, per_op_prepared, Budget};
use crate::stats::{percentile, Metric};
use crate::trace::Recorder;
use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;
use tailbench_core::app::{CostModel, EchoApp, InstructionRateModel, ServerApp};
use tailbench_core::collector::StatsCollector;
use tailbench_core::config::{
    BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode, HedgePolicy,
};
use tailbench_core::pool::BufferPool;
use tailbench_core::queue::{AdmissionPolicy, Completion, RequestQueue, ServerCompletion};
use tailbench_core::report::{ClusterReport, LatencyStats, RunReport};
use tailbench_core::request::{Request, RequestId, RequestRecord, WorkProfile};
use tailbench_core::time::RunClock;
use tailbench_core::traffic::{LoadMode, TrafficShaper};
use tailbench_core::worker::WorkerPool;
use tailbench_core::{protocol, runner, ClusterCollector};
use tailbench_experiment::output::{cluster_report_to_json, run_report_to_json};
use tailbench_experiment::{BenchApp, ClusterApp, Registry, Scale};
use tailbench_histogram::HdrHistogram;
use tailbench_simarch::SystemModel;
use tailbench_workloads::interarrival::InterarrivalProcess;
use tailbench_workloads::rng::seeded_rng;

/// The suite's JSON codec, reused for result files and `trace.json`.
pub use tailbench_experiment::json::{parse as parse_json, Json};
/// Seed derivation, so every window of a run draws a decorrelated stream from `--seed`.
pub use tailbench_workloads::rng::derive_seed;

/// Input scale of every application, pinned here and not read from `TAILBENCH_SCALE`.
const SCALE: Scale = Scale::Quick;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    Integrated,
    Loopback,
    Simulated,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    Open { qps: f64 },
    Closed,
}

/// What the server side is: one instance, or `shards × replication` behind a
/// broadcast router, hedged after a fixed delay when `hedge_ns` is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    Single,
    Cluster {
        shards: usize,
        replication: usize,
        hedge_ns: Option<u64>,
    },
}

/// One `execute` call: a warmup plus a measured request count at one load.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub mode: Mode,
    pub load: Load,
    pub warmup: usize,
    pub measure: usize,
    pub seed: u64,
}

impl RunSpec {
    pub fn total(&self) -> usize {
        self.warmup + self.measure
    }
}

/// One latency distribution of a report, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lat {
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

impl From<&LatencyStats> for Lat {
    fn from(s: &LatencyStats) -> Lat {
        Lat {
            mean_ns: s.mean_ns,
            p50_ns: s.p50_ns,
            p95_ns: s.p95_ns,
            p99_ns: s.p99_ns,
            max_ns: s.max_ns,
        }
    }
}

/// The report fields the benchmark reads, the same for single-server and cluster runs
/// (for a cluster: the end-to-end view, queue accounting summed over instances).
#[derive(Debug, Clone)]
pub struct Report {
    pub requests: u64,
    pub achieved_qps: f64,
    pub sojourn: Lat,
    pub service: Lat,
    pub queue: Lat,
    pub overhead: Lat,
    pub pacing: Lat,
    pub accepted: u64,
    pub dropped: u64,
    pub peak_depth: u64,
    /// Requests recorded per instance, summed (equals `requests` for a single server).
    pub legs: u64,
    /// Legs every instance must have been offered for the run to be complete.
    pub legs_offered: u64,
    pub unmerged: u64,
    pub hedge_issued: u64,
    pub hedge_wins: u64,
    /// The suite's own JSON rendering of the report, for the determinism check.
    pub json: String,
}

impl Report {
    fn single(report: &RunReport, spec: &RunSpec) -> Report {
        Report {
            requests: report.requests,
            achieved_qps: report.achieved_qps,
            sojourn: Lat::from(&report.sojourn),
            service: Lat::from(&report.service),
            queue: Lat::from(&report.queue),
            overhead: Lat::from(&report.overhead),
            pacing: Lat::from(&report.pacing),
            accepted: report.queue_depth.accepted,
            dropped: report.queue_depth.dropped,
            peak_depth: report.queue_depth.peak_depth,
            legs: report.requests,
            legs_offered: spec.total() as u64,
            unmerged: 0,
            hedge_issued: 0,
            hedge_wins: 0,
            json: run_report_to_json(report).to_text(),
        }
    }

    fn cluster(report: &ClusterReport, spec: &RunSpec, width: usize) -> Report {
        let hedge = report.hedge.unwrap_or_default();
        Report {
            legs: report.per_shard.iter().map(|s| s.requests).sum(),
            // A hedge copy is one more leg offered to a queue.
            legs_offered: (spec.total() * width) as u64 + hedge.issued,
            unmerged: report.unmerged,
            hedge_issued: hedge.issued,
            hedge_wins: hedge.wins,
            json: cluster_report_to_json(report).to_text(),
            ..Report::single(&report.cluster, spec)
        }
    }
}

enum Instances {
    Single(BenchApp),
    Cluster(ClusterApp, ClusterConfig),
}

/// A built application (or cluster of them) with its cost model: what `setup` builds
/// and every window executes against.
pub struct Target {
    instances: Instances,
    cost_model: Box<dyn CostModel>,
}

impl Target {
    /// Builds `app` from the built-in registry in the given shape.
    pub fn build(app: &str, shape: Shape) -> Result<Target, String> {
        let registry = Registry::builtin();
        let builder = registry
            .get(app)
            .ok_or_else(|| format!("application {app:?} is not in the registry"))?;
        let instances = match shape {
            Shape::Single => Instances::Single(builder.build(SCALE)),
            Shape::Cluster {
                shards,
                replication,
                hedge_ns,
            } => {
                let mut cluster = ClusterConfig::new(shards, FanoutPolicy::Broadcast)
                    .with_replication(replication);
                if let Some(delay_ns) = hedge_ns {
                    cluster = cluster.with_hedge(HedgePolicy::after_ns(delay_ns));
                }
                Instances::Cluster(builder.build_cluster(shards, replication, SCALE), cluster)
            }
        };
        Ok(Target {
            instances,
            cost_model: builder.cost_model(),
        })
    }

    /// The applications' own pre-run hook (`execute` calls it again; it is idempotent).
    pub fn prepare(&self) {
        match &self.instances {
            Instances::Single(app) => app.app.prepare(),
            Instances::Cluster(app, _) => app.instances.iter().for_each(|a| a.prepare()),
        }
    }

    /// Generates `count` request payloads from `seed` and returns their total size:
    /// the input-generation work one window repeats inside `execute`.
    pub fn gen_inputs(&self, seed: u64, count: usize) -> usize {
        let mut factory = match &self.instances {
            Instances::Single(app) => app.factory(seed),
            Instances::Cluster(app, _) => app.factory(seed),
        };
        (0..count)
            .map(|_| black_box(factory.next_request()).len())
            .sum()
    }

    /// One `runner::execute` / `runner::execute_cluster` call.
    pub fn execute(&self, spec: &RunSpec) -> Result<Report, String> {
        let load = match spec.load {
            Load::Open { qps } => LoadMode::open_poisson(qps),
            Load::Closed => LoadMode::Closed { think_ns: 0 },
        };
        let mode = match spec.mode {
            Mode::Integrated => HarnessMode::Integrated,
            Mode::Loopback => HarnessMode::Loopback { connections: 1 },
            Mode::Simulated => HarnessMode::Simulated,
        };
        // `new` wants a rate; `with_load` then replaces the load it made from it.
        let config = BenchmarkConfig::new(1.0, spec.measure)
            .with_load(load)
            .with_mode(mode)
            .with_threads(1)
            .with_warmup(spec.warmup)
            .with_seed(spec.seed);
        let model = Some(self.cost_model.as_ref());
        match &self.instances {
            Instances::Single(app) => {
                let mut factory = app.factory(spec.seed);
                runner::execute(&app.app, factory.as_mut(), &config, model)
                    .map(|report| Report::single(&report, spec))
            }
            Instances::Cluster(app, cluster) => {
                let mut factory = app.factory(spec.seed);
                runner::execute_cluster(&app.instances, factory.as_mut(), &config, cluster, model)
                    .map(|report| Report::cluster(&report, spec, cluster.fanout_width()))
            }
        }
        .map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------------
// Layer probes: each times the public functions of one module, from outside.
// ---------------------------------------------------------------------------------

fn record(id: u64) -> RequestRecord {
    let issued = id * 1_000;
    RequestRecord {
        id: RequestId(id),
        issued_ns: issued,
        enqueued_ns: issued + 50,
        started_ns: issued + 500,
        completed_ns: issued + 50_000,
        client_received_ns: issued + 50_100,
    }
}

fn request(id: u64, payload: Vec<u8>) -> Request {
    Request {
        id: RequestId(id),
        payload,
        issued_ns: id,
    }
}

/// Runs every layer probe, each as one counted span under `probes`.
pub fn run_probes(budget: Budget, seed: u64, rec: &mut Recorder) -> Result<Vec<Metric>, String> {
    // The two applications the probes exercise, built once.
    let masstree = Target::build("masstree", Shape::Single)?;
    let Instances::Single(kv) = &masstree.instances else {
        return Err("masstree did not build as a single server".into());
    };
    let xapian = Target::build("xapian", XAPIAN_2)?;
    let Instances::Cluster(search, _) = &xapian.instances else {
        return Err("xapian did not build as a cluster".into());
    };
    type Probe<'a> = (&'a str, &'a dyn Fn() -> Result<Vec<Metric>, String>);
    let probes: [Probe; 14] = [
        ("probe.workloads", &|| {
            Ok(probe_workloads(budget, seed, &masstree, &xapian))
        }),
        ("probe.traffic", &|| Ok(probe_traffic(budget, seed))),
        ("probe.time", &|| Ok(probe_time(budget, seed))),
        ("probe.queue", &|| probe_queue(budget)),
        ("probe.worker", &|| probe_worker(budget)),
        ("probe.collector", &|| Ok(probe_collector(budget))),
        ("probe.histogram", &|| Ok(probe_histogram(budget, seed))),
        ("probe.pool", &|| Ok(probe_pool(budget))),
        ("probe.protocol", &|| probe_protocol(budget, kv)),
        ("probe.net", &|| probe_net(budget)),
        ("probe.sim", &|| probe_sim(budget, seed)),
        ("probe.simarch", &|| Ok(probe_simarch(budget))),
        ("probe.apps", &|| Ok(probe_apps(budget, seed, kv, search))),
        ("probe.registry", &|| probe_registry(budget, seed)),
    ];
    let mut rows = Vec::new();
    for (name, probe) in probes {
        rows.extend(rec.span(name, budget.batches as u64, |_| probe())?);
    }
    Ok(rows)
}

/// The two-leaf search cluster of `int-fanout`.
const XAPIAN_2: Shape = Shape::Cluster {
    shards: 2,
    replication: 1,
    hedge_ns: None,
};

fn probe_workloads(budget: Budget, seed: u64, masstree: &Target, xapian: &Target) -> Vec<Metric> {
    let n = budget.ops(20_000);
    let process = InterarrivalProcess::poisson(100_000.0);
    let mut rng = seeded_rng(seed, 2);
    let schedule = per_op(budget, n, || {
        black_box(process.schedule(&mut rng, n as usize));
    });
    let factory = |target: &Target| {
        per_op(budget, n, || {
            black_box(target.gen_inputs(seed, n as usize));
        })
    };
    vec![
        Metric::probe("workloads.schedule_ns_per_req", "ns", schedule),
        Metric::probe(
            "workloads.factory_masstree_ns_per_req",
            "ns",
            factory(masstree),
        ),
        Metric::probe("workloads.factory_xapian_ns_per_req", "ns", factory(xapian)),
    ]
}

fn probe_traffic(budget: Budget, seed: u64) -> Vec<Metric> {
    let n = budget.ops(20_000);
    let process = InterarrivalProcess::poisson(100_000.0);
    let mut rng = seeded_rng(seed, 3);
    let build = per_op_prepared(
        budget,
        n,
        || process.schedule(&mut rng, n as usize),
        |times| {
            black_box(TrafficShaper::from_times(times, 0, || vec![0u8; 16]));
        },
    );
    vec![Metric::probe(
        "traffic.shaper_build_ns_per_req",
        "ns",
        build,
    )]
}

fn probe_time(budget: Budget, seed: u64) -> Vec<Metric> {
    let clock = RunClock::new();
    let n = budget.ops(200_000);
    let now = per_op(budget, n, || {
        for _ in 0..n {
            black_box(clock.now_ns());
        }
    });
    // An idle pacer on a 20k QPS Poisson schedule: how late `sleep_until_ns` returns
    // when nothing competes with it.
    let arrivals = budget.ops(4_000) as usize;
    let schedule =
        InterarrivalProcess::poisson(20_000.0).schedule(&mut seeded_rng(seed, 4), arrivals);
    let clock = RunClock::new();
    let late: Vec<f64> = schedule
        .iter()
        .map(|&due| clock.sleep_until_ns(due).saturating_sub(due) as f64)
        .collect();
    vec![
        Metric::probe("time.now_cost_ns", "ns", now),
        Metric::single("time.sleep_overshoot_p50_ns", "ns", percentile(&late, 0.50)),
        Metric::single("time.sleep_overshoot_p99_ns", "ns", percentile(&late, 0.99)),
    ]
}

fn probe_queue(budget: Budget) -> Result<Vec<Metric>, String> {
    let n = budget.ops(100_000);
    let push_pop = |queue: RequestQueue| {
        let rx = queue.receiver();
        let mut id = 0u64;
        per_op(budget, n, || {
            for _ in 0..n {
                id += 1;
                queue.push(request(id, Vec::new()), id, Completion::Inline);
                black_box(rx.recv().ok());
            }
        })
    };
    let unbounded = push_pop(RequestQueue::new());
    let bounded = push_pop(RequestQueue::with_policy(AdmissionPolicy::Drop {
        capacity: 1024,
    }));

    // Cross-thread hand-off: a consumer parked in `recv`, a producer pushing one
    // request every 250 µs; the sample is push instant → instant `recv` returned.  The
    // gap is long enough that the producer sleeps between pushes (the pacer spins only
    // for its last 100 µs): on the one CPU `run.sh` allows, under `SCHED_BATCH`, the
    // consumer runs when the producer sleeps, and a producer that only ever spins would
    // be timing the scheduler's slice.
    let handoffs = budget.ops(3_000);
    let clock = RunClock::new();
    let queue = RequestQueue::new();
    let rx = queue.receiver();
    let consumer = std::thread::Builder::new()
        .name("bench-handoff".into())
        .spawn(move || {
            let mut waits = Vec::new();
            while let Ok(item) = rx.recv() {
                waits.push(clock.now_ns().saturating_sub(item.enqueued_ns) as f64);
            }
            waits
        })
        .map_err(|e| format!("cannot spawn the hand-off consumer: {e}"))?;
    for id in 0..handoffs {
        clock.sleep_until_ns(clock.now_ns() + 250_000);
        queue.push(request(id, Vec::new()), clock.now_ns(), Completion::Inline);
    }
    queue.close();
    let waits = consumer
        .join()
        .map_err(|_| "the hand-off consumer panicked".to_string())?;
    Ok(vec![
        Metric::probe("queue.push_pop_ns", "ns", unbounded),
        Metric::probe("queue.push_pop_bounded_ns", "ns", bounded),
        Metric::single("queue.handoff_p50_ns", "ns", percentile(&waits, 0.50)),
        Metric::single("queue.handoff_p99_ns", "ns", percentile(&waits, 0.99)),
    ])
}

fn probe_worker(budget: Budget) -> Result<Vec<Metric>, String> {
    // One worker draining a pre-filled queue of zero-work requests: dequeue, dispatch,
    // timestamping and the in-shard record, with no pacing and no waiting.
    let n = budget.ops(50_000);
    let app: Arc<dyn ServerApp> = Arc::new(EchoApp { spin_iters: 0 });
    let mut failure = None;
    let drain = per_op_prepared(
        budget,
        n,
        || {
            let queue = RequestQueue::new();
            let rx = queue.receiver();
            for id in 0..n {
                queue.push(request(id, vec![0u8; 16]), id, Completion::Inline);
            }
            queue.close();
            rx
        },
        |rx| {
            let served = WorkerPool::spawn(
                Arc::clone(&app),
                rx,
                RunClock::new(),
                1,
                StatsCollector::new(0),
                None,
            )
            .and_then(WorkerPool::join);
            match served {
                Ok(out) if out.served == n => {}
                Ok(out) => failure = Some(format!("worker served {} of {n}", out.served)),
                Err(e) => failure = Some(e.to_string()),
            }
        },
    );
    match failure {
        Some(message) => Err(message),
        None => Ok(vec![Metric::probe("worker.drain_ns_per_req", "ns", drain)]),
    }
}

fn probe_collector(budget: Budget) -> Vec<Metric> {
    let n = budget.ops(200_000);
    let mut id = 0u64;
    let record_ns = per_op_prepared(
        budget,
        n,
        || StatsCollector::new(0),
        |mut shard| {
            for _ in 0..n {
                id += 1;
                shard.record(black_box(&record(id)));
            }
            black_box(shard.measured());
        },
    );
    let shards: Vec<StatsCollector> = (0..16)
        .map(|_| {
            let mut shard = StatsCollector::new(0);
            (0..budget.ops(10_000)).for_each(|i| shard.record(&record(i)));
            shard
        })
        .collect();
    let merge16 = per_op(budget, 1, || {
        let mut merged = StatsCollector::new(0);
        shards.iter().for_each(|shard| merged.merge(shard));
        black_box(merged.measured());
    });
    // Four legs per request, last response wins: the cluster merge path.
    let legs = budget.ops(100_000);
    let cluster_leg = per_op_prepared(
        budget,
        legs,
        || ClusterCollector::new(4, 0),
        |mut collector| {
            for leg in 0..legs {
                black_box(collector.record_leg((leg % 4) as usize, record(leg / 4), 4));
            }
        },
    );
    vec![
        Metric::probe("collector.record_ns", "ns", record_ns),
        Metric::probe("collector.merge16_ns", "ns", merge16),
        Metric::probe("collector.cluster_leg_ns", "ns", cluster_leg),
    ]
}

fn probe_histogram(budget: Budget, seed: u64) -> Vec<Metric> {
    let n = budget.ops(500_000);
    let mut histogram = HdrHistogram::for_latencies();
    let mut value = seed | 1;
    let record_ns = per_op(budget, n, || {
        for _ in 0..n {
            value = value
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            histogram.record(black_box(value % 1_000_000_000));
        }
    });
    let queries = budget.ops(200);
    let p99_query = per_op(budget, queries, || {
        for _ in 0..queries {
            black_box(histogram.value_at_quantile(black_box(0.99)));
        }
    });
    let merges = budget.ops(20);
    let merge = per_op(budget, merges, || {
        let mut merged = HdrHistogram::for_latencies();
        for _ in 0..merges {
            black_box(merged.merge(&histogram).is_ok());
        }
    });
    vec![
        Metric::probe("histogram.record_ns", "ns", record_ns),
        Metric::probe("histogram.p99_query_ns", "ns", p99_query),
        Metric::probe("histogram.merge_ns", "ns", merge),
    ]
}

fn probe_pool(budget: Budget) -> Vec<Metric> {
    let n = budget.ops(200_000);
    let pool = BufferPool::default();
    pool.recycle(Vec::with_capacity(256));
    let take_recycle = per_op(budget, n, || {
        for _ in 0..n {
            let mut buf = pool.take(256);
            buf.extend_from_slice(black_box(&[0u8; 64]));
            pool.recycle(buf);
        }
    });
    vec![
        Metric::probe("pool.take_recycle_ns", "ns", take_recycle),
        Metric::single("pool.hit_ratio", "ratio", pool.stats().hit_rate()),
    ]
}

fn probe_protocol(budget: Budget, app: &BenchApp) -> Result<Vec<Metric>, String> {
    let io = |e: std::io::Error| format!("protocol probe: {e}");
    let n = budget.ops(50_000);
    // One real masstree request and its real response, so frame sizes are the ones
    // `tcp-open` ships.
    let payload = app.factory(1).next_request();
    let response = app.app.handle(&payload);
    let req = request(7, payload);
    let completion = ServerCompletion {
        id: req.id,
        issued_ns: 1,
        enqueued_ns: 2,
        started_ns: 3,
        completed_ns: 4,
        work: response.work,
        response_payload: response.payload,
    };
    let mut request_frame = Vec::new();
    protocol::write_request(&mut request_frame, &req).map_err(io)?;
    let mut response_frame = Vec::new();
    protocol::write_response(&mut response_frame, &completion).map_err(io)?;

    let mut failed = false;
    let mut sink = Vec::with_capacity(request_frame.len().max(response_frame.len()));
    let write_request = per_op(budget, n, || {
        for _ in 0..n {
            sink.clear();
            failed |= protocol::write_request(&mut sink, black_box(&req)).is_err();
        }
    });
    let write_response = per_op(budget, n, || {
        for _ in 0..n {
            sink.clear();
            failed |= protocol::write_response(&mut sink, black_box(&completion)).is_err();
        }
    });
    let pool = BufferPool::default();
    let read_request = per_op(budget, n, || {
        for _ in 0..n {
            match protocol::read_request_pooled(&mut Cursor::new(&request_frame), &pool) {
                Ok(Some(decoded)) => pool.recycle(decoded.payload),
                _ => failed = true,
            }
        }
    });
    let mut scratch = Vec::new();
    let read_response = per_op(budget, n, || {
        for _ in 0..n {
            let header =
                protocol::read_response_header(&mut Cursor::new(&response_frame), &mut scratch);
            failed |= !matches!(header, Ok(Some(h)) if h.id == req.id);
        }
    });
    if failed {
        return Err("protocol probe: a frame did not encode or decode".into());
    }
    Ok(vec![
        Metric::probe("protocol.write_request_ns", "ns", write_request),
        Metric::probe("protocol.read_request_pooled_ns", "ns", read_request),
        Metric::probe("protocol.write_response_ns", "ns", write_response),
        Metric::probe("protocol.read_response_header_ns", "ns", read_response),
        Metric::single(
            "protocol.request_frame_bytes",
            "bytes",
            request_frame.len() as f64,
        ),
    ])
}

/// The kernel floor under `tcp-open`: one request-sized frame bounced over a plain
/// loopback `TcpStream`, no harness code on either side.
fn probe_net(budget: Budget) -> Result<Vec<Metric>, String> {
    const FRAME: usize = 64;
    let io = |e: std::io::Error| format!("net probe: {e}");
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let echo = std::thread::Builder::new()
        .name("bench-echo".into())
        .spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut buf = [0u8; FRAME];
            while stream.read_exact(&mut buf).is_ok() {
                stream.write_all(&buf)?;
            }
            Ok(())
        })
        .map_err(io)?;
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut buf = [0u8; FRAME];
    let mut rtts = Vec::new();
    for _ in 0..budget.ops(4_000) {
        let start = Instant::now();
        stream.write_all(&buf).map_err(io)?;
        stream.read_exact(&mut buf).map_err(io)?;
        rtts.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(stream);
    echo.join()
        .map_err(|_| "the echo thread panicked".to_string())?
        .map_err(io)?;
    Ok(vec![Metric::single(
        "net.raw_rtt_p50_us",
        "us",
        percentile(&rtts, 0.50),
    )])
}

fn probe_sim(budget: Budget, seed: u64) -> Result<Vec<Metric>, String> {
    // The event loops alone: a zero-work application and a one-multiply cost model.
    let requests = budget.ops(20_000) as usize;
    let app: Arc<dyn ServerApp> = Arc::new(EchoApp { spin_iters: 0 });
    let model = InstructionRateModel::default();
    let config = BenchmarkConfig::new(50_000.0, requests)
        .with_warmup(0)
        .with_seed(seed)
        .with_mode(HarnessMode::Simulated);
    let mut failure = None;
    let single = per_op(budget, requests as u64, || {
        let mut factory = || vec![0u8; 16];
        if let Err(e) = runner::execute(&app, &mut factory, &config, Some(&model)) {
            failure = Some(e.to_string());
        }
    });
    let cluster = ClusterConfig::new(4, FanoutPolicy::Broadcast)
        .with_replication(2)
        .with_hedge(HedgePolicy::after_ns(1_000_000));
    let apps = vec![Arc::clone(&app); cluster.instances()];
    let legs = (requests * cluster.fanout_width()) as u64;
    let per_leg = per_op(budget, legs, || {
        let mut factory = || vec![0u8; 16];
        if let Err(e) =
            runner::execute_cluster(&apps, &mut factory, &config, &cluster, Some(&model))
        {
            failure = Some(e.to_string());
        }
    });
    match failure {
        Some(message) => Err(message),
        None => Ok(vec![
            Metric::probe("sim.single_ns_per_req", "ns", single),
            Metric::probe("sim.cluster_ns_per_leg", "ns", per_leg),
        ]),
    }
}

fn probe_simarch(budget: Budget) -> Vec<Metric> {
    let n = budget.ops(200_000);
    let model = SystemModel::default();
    let profile = WorkProfile {
        instructions: 1_200,
        mem_reads: 300,
        mem_writes: 60,
        footprint_bytes: 64 << 10,
        locality: 0.6,
        critical_fraction: 0.0,
    };
    let cost = per_op(budget, n, || {
        for _ in 0..n {
            black_box(model.service_time_ns(black_box(&profile), 1));
        }
    });
    vec![Metric::probe("simarch.service_ns_cost_ns", "ns", cost)]
}

/// The service floor: each application's `handle` timed call by call.
fn probe_apps(budget: Budget, seed: u64, kv: &BenchApp, search: &ClusterApp) -> Vec<Metric> {
    fn handle_times(app: &dyn ServerApp, payloads: &[Vec<u8>]) -> Vec<f64> {
        payloads
            .iter()
            .map(|payload| {
                let start = Instant::now();
                black_box(app.handle(black_box(payload)));
                start.elapsed().as_nanos() as f64
            })
            .collect()
    }
    let mut factory = kv.factory(seed);
    let payloads: Vec<_> = (0..budget.ops(50_000))
        .map(|_| factory.next_request())
        .collect();
    let kv_times = handle_times(kv.app.as_ref(), &payloads);
    let mut factory = search.factory(seed);
    let payloads: Vec<_> = (0..budget.ops(4_000))
        .map(|_| factory.next_request())
        .collect();
    let leaf_times = handle_times(search.instances[0].as_ref(), &payloads);
    vec![
        Metric::single("kvstore.handle_p50_ns", "ns", percentile(&kv_times, 0.50)),
        Metric::single("kvstore.handle_p99_ns", "ns", percentile(&kv_times, 0.99)),
        Metric::single(
            "search.leaf_handle_p50_ns",
            "ns",
            percentile(&leaf_times, 0.50),
        ),
        Metric::single(
            "search.leaf_handle_p99_ns",
            "ns",
            percentile(&leaf_times, 0.99),
        ),
    ]
}

fn probe_registry(budget: Budget, seed: u64) -> Result<Vec<Metric>, String> {
    // Builds are too long for fifteen batches; three say whether set-up moved.
    let builds = Budget {
        batches: 3,
        shrink: 1,
    };
    let mut failure = None;
    let mut build = |app: &str, shape: Shape| {
        per_op(builds, 1, || {
            if let Err(e) = Target::build(app, shape) {
                failure = Some(e);
            }
        })
    };
    let masstree = build("masstree", Shape::Single);
    let xapian = build("xapian", XAPIAN_2);
    if let Some(message) = failure {
        return Err(message);
    }
    // Rendering one report: what every point of an experiment's JSON output costs.
    let app: Arc<dyn ServerApp> = Arc::new(EchoApp { spin_iters: 0 });
    let mut factory = || vec![0u8; 16];
    let config = BenchmarkConfig::new(50_000.0, 2_000)
        .with_seed(seed)
        .with_mode(HarnessMode::Simulated);
    let report = runner::execute(
        &app,
        &mut factory,
        &config,
        Some(&InstructionRateModel::default()),
    )
    .map_err(|e| e.to_string())?;
    let renders = 200;
    let render = per_op(budget, renders, || {
        for _ in 0..renders {
            black_box(run_report_to_json(black_box(&report)).to_text());
        }
    });
    Ok(vec![
        Metric::probe("registry.build_masstree_s", "s", masstree.scaled(1e-9)),
        Metric::probe("registry.build_xapian_cluster2_s", "s", xapian.scaled(1e-9)),
        Metric::probe("json.render_us_per_point", "us", render.scaled(1e-3)),
    ])
}
