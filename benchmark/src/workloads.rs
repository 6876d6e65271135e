//! The six pinned workloads, how one run of each is measured, and the output checks.
//!
//! Every workload is one process with one generator thread (or one TCP connection)
//! and one worker thread per server instance.  A run is a series of *windows* — one
//! `execute` call each, with its own seed derived from `--seed` — and a reported latency
//! or rate is the quiet decile over the windows of the per-window figure.

use crate::api::{self, derive_seed, Load, Mode, Report, RunSpec, Shape, Target};
use crate::env::peak_rss_mb;
use crate::probes::Budget;
use crate::stats::Metric;
use crate::trace::{first_escaping_child, self_times_ns, Recorder};
use std::time::Instant;

/// Which tail a latency limit is set on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    P95,
    P99,
}

/// A latency limit for the rate ladder: a step passes when its tail is within
/// `limit_us`, it achieved the offered rate (within 2 %, or within 3/√n where a window
/// of n arrivals is too short for that) and nothing was dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    pub tail: Tail,
    pub limit_us: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plan {
    /// Open-loop Poisson arrivals, `window_s` measured seconds plus 10 % warmup per
    /// window.  The untraced run measures `rates[reported]`; the traced run climbs the ladder.
    Open {
        rates: &'static [f64],
        reported: usize,
        window_s: f64,
        slo: Option<Slo>,
    },
    /// One closed-loop client with zero think time, `requests` per window.
    Closed { requests: usize },
    /// Discrete-event simulation: `requests` per window offered at `qps` of simulated
    /// time; what is timed is the host.
    Simulated { qps: f64, requests: usize },
}

impl Plan {
    /// Load and measured request count of one window at the reported operating point.
    fn reported_window(&self, scale: Scale) -> (Load, usize) {
        match *self {
            Plan::Open {
                rates,
                reported,
                window_s,
                ..
            } => {
                let qps = rates[reported];
                (
                    Load::Open { qps },
                    open_measure(qps, scale.window_s(window_s)),
                )
            }
            Plan::Closed { requests } => (Load::Closed, scale.requests(requests)),
            Plan::Simulated { qps, requests } => (Load::Open { qps }, scale.requests(requests)),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub app: &'static str,
    pub shape: Shape,
    pub mode: Mode,
    pub plan: Plan,
}

/// The six workloads.  Rates, sizes and limits are pinned here; see `README.md` for
/// how each was chosen.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "int-open",
        why: "masstree in-process, open loop: service is ~1 us, so pacing, queue hand-off, worker dispatch and the collector do nearly all the work",
        app: "masstree",
        shape: Shape::Single,
        mode: Mode::Integrated,
        plan: Plan::Open {
            rates: &[1_000.0, 20_000.0, 50_000.0],
            reported: 0,
            window_s: 1.0,
            slo: Some(Slo {
                tail: Tail::P99,
                limit_us: 2_000.0,
            }),
        },
    },
    Workload {
        name: "int-closed",
        why: "same app and mode, closed loop: no pacer, a responder-channel round trip and client-side recording; gives the saturation throughput",
        app: "masstree",
        shape: Shape::Single,
        mode: Mode::Integrated,
        plan: Plan::Closed { requests: 100_000 },
    },
    Workload {
        name: "tcp-open",
        why: "masstree over one loopback TCP connection: protocol encode/decode, the buffer pool and the socket hop dominate; queue and worker are dwarfed",
        app: "masstree",
        shape: Shape::Single,
        mode: Mode::Loopback,
        plan: Plan::Open {
            rates: &[2_000.0, 10_000.0, 20_000.0],
            reported: 0,
            window_s: 1.0,
            slo: Some(Slo {
                tail: Tail::P95,
                limit_us: 550.0,
            }),
        },
    },
    Workload {
        name: "int-fanout",
        why: "xapian 2 shards broadcast in-process: router, forwarders and last-response-wins merge on real threads; service dominates, so harness micro-gains must not move it",
        app: "xapian",
        shape: Shape::Cluster {
            shards: 2,
            replication: 1,
            hedge_ns: None,
        },
        mode: Mode::Integrated,
        plan: Plan::Open {
            rates: &[1_000.0],
            reported: 0,
            window_s: 1.0,
            slo: None,
        },
    },
    Workload {
        name: "des-single",
        why: "masstree through the single-server event loop, 1M requests a window: host speed of the simulator, no wall-clock layer runs",
        app: "masstree",
        shape: Shape::Single,
        mode: Mode::Simulated,
        plan: Plan::Simulated {
            qps: 2_000_000.0,
            requests: 1_000_000,
        },
    },
    Workload {
        name: "des-cluster-hedged",
        why: "masstree 4 shards x 2 replicas, broadcast, hedged after 800 ns: the cluster event loop with its heap and leg tables, which des-single must not follow",
        app: "masstree",
        shape: Shape::Cluster {
            shards: 4,
            replication: 2,
            hedge_ns: Some(800),
        },
        mode: Mode::Simulated,
        plan: Plan::Simulated {
            qps: 2_400_000.0,
            requests: 200_000,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `Tiny` is the smoke mode behind `cargo test`: the same code on a fraction of the
/// work, too short for its numbers to mean anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    fn window_s(self, full: f64) -> f64 {
        match self {
            Scale::Full => full,
            Scale::Tiny => 0.05,
        }
    }

    fn requests(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Tiny => full / 100,
        }
    }

    /// Fewest and most set-ups of one run; between them a run sets up for one second.
    fn setups(self) -> (usize, usize) {
        match self {
            Scale::Full => (9, 25),
            Scale::Tiny => (2, 2),
        }
    }

    fn budget(self) -> Budget {
        match self {
            Scale::Full => Budget::FULL,
            Scale::Tiny => Budget::TINY,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means the outputs are correct.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable report (ladder steps, span self times).
    pub notes: Vec<String>,
    pub recorder: Recorder,
}

struct Window {
    report: Report,
    host_s: f64,
    spec: RunSpec,
}

impl Window {
    /// Requests pushed through this `execute` call per host second.
    fn throughput_rps(&self) -> f64 {
        self.spec.total() as f64 / self.host_s
    }
}

/// A built target plus the running tallies of one run.
struct Session {
    wl: &'static Workload,
    target: Target,
    seed: u64,
    windows: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Session {
    fn new(wl: &'static Workload, target: Target, seed: u64) -> Session {
        Session {
            wl,
            target,
            seed,
            windows: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn check(&mut self, holds: bool, message: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(message());
        }
    }

    fn spec(&mut self, load: Load, measure: usize) -> RunSpec {
        self.windows += 1;
        RunSpec {
            mode: self.wl.mode,
            load,
            warmup: measure / 10,
            measure,
            seed: derive_seed(self.seed, self.windows),
        }
    }

    /// Executes one window, checks its report and adds it to the tallies.
    fn window(&mut self, load: Load, measure: usize, rec: &mut Recorder) -> Option<Window> {
        let spec = self.spec(load, measure);
        let total = spec.total() as u64;
        self.attempted += total;
        let start = Instant::now();
        let result = rec.span("execute", total, |_| self.target.execute(&spec));
        let host_s = start.elapsed().as_secs_f64();
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                self.failed += total;
                self.failures
                    .push(format!("window {}: execute failed: {e}", self.windows));
                return None;
            }
        };
        self.failed += report
            .dropped
            .max((measure as u64).saturating_sub(report.requests))
            .min(total);
        self.check_report(&report, &spec);
        Some(Window {
            report,
            host_s,
            spec,
        })
    }

    fn check_report(&mut self, r: &Report, spec: &RunSpec) {
        let w = self.windows;
        self.check(r.requests == spec.measure as u64, || {
            format!(
                "window {w}: report.requests {} != configured {}",
                r.requests, spec.measure
            )
        });
        self.check(r.accepted + r.dropped == r.legs_offered, || {
            format!(
                "window {w}: accepted {} + dropped {} != offered {}",
                r.accepted, r.dropped, r.legs_offered
            )
        });
        self.check(r.unmerged == 0, || {
            format!("window {w}: {} fan-out merges left open", r.unmerged)
        });
        let s = &r.sojourn;
        self.check(
            s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns,
            || format!("window {w}: sojourn percentiles out of order: {s:?}"),
        );
        self.check(s.p50_ns >= r.service.p50_ns, || {
            format!(
                "window {w}: sojourn p50 {} below service p50 {}",
                s.p50_ns, r.service.p50_ns
            )
        });
    }

    /// A simulated run is a pure function of its seed: the same seed must render the
    /// same report text, another seed must not.  Invariants only, no golden digits.
    fn check_determinism(&mut self, scale: Scale) {
        let Plan::Simulated { qps, requests } = self.wl.plan else {
            return;
        };
        let base = derive_seed(self.seed, 0xD5);
        let mut text = |seed: u64| {
            let spec = RunSpec {
                seed,
                ..self.spec(Load::Open { qps }, scale.requests(requests) / 20)
            };
            self.target.execute(&spec).map(|r| r.json)
        };
        match (text(base), text(base), text(base ^ 1)) {
            (Ok(a), Ok(b), Ok(c)) => {
                self.check(a == b, || {
                    "simulated run: same seed, different report text".into()
                });
                self.check(a != c, || {
                    "simulated run: different seed, same report text".into()
                });
            }
            _ => self
                .failures
                .push("simulated run: determinism check did not execute".into()),
        }
    }

    fn finish(
        self,
        traced: bool,
        metrics: Vec<Metric>,
        notes: Vec<String>,
        recorder: Recorder,
    ) -> Outcome {
        Outcome {
            workload: self.wl.name,
            traced,
            attempted: self.attempted.max(1),
            failed: self.failed,
            failures: self.failures,
            metrics,
            notes,
            recorder,
        }
    }
}

fn open_measure(qps: f64, window_s: f64) -> usize {
    (qps * window_s).round() as usize
}

/// Requests one reported window pushes through `execute`, warmup included.
fn reported_window_total(wl: &Workload, scale: Scale) -> usize {
    let (_, measure) = wl.plan.reported_window(scale);
    measure + measure / 10
}

/// Builds the target, runs the applications' pre-run hook and generates one window's
/// inputs: everything between process start and the first timed request.
fn setup(wl: &'static Workload, opts: Options, rec: &mut Recorder) -> Result<Target, String> {
    rec.span("setup", 1, |rec| {
        let target = rec.span("build_app", 1, |_| Target::build(wl.app, wl.shape))?;
        rec.span("prepare", 1, |_| target.prepare());
        let inputs = reported_window_total(wl, opts.scale);
        rec.span("gen_inputs", inputs as u64, |_| {
            target.gen_inputs(opts.seed, inputs)
        });
        Ok(target)
    })
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The untraced run: set up several times (the median set-up is reported), then measure
/// windows at the reported operating point for `opts.seconds` and report the quiet
/// decile of each end-to-end figure.
pub fn run_untraced(wl: &'static Workload, opts: Options) -> Outcome {
    let mut rec = Recorder::new(false, wl.name);
    let mut setup_s = Vec::new();
    let mut built = None;
    // The first set-up of a process is cold and the next few run ahead of the steady
    // state (the allocator has not yet settled): nine samples put the median on the
    // edge between the two, so the cheap set-ups repeat up to 25 times.
    let (fewest, most) = opts.scale.setups();
    let setting_up = Instant::now();
    while setup_s.len() < fewest
        || (setup_s.len() < most && setting_up.elapsed().as_secs_f64() < 1.0)
    {
        drop(built.take());
        let start = Instant::now();
        match setup(wl, opts, &mut rec) {
            Ok(target) => built = Some(target),
            Err(e) => return failed_outcome(wl, false, rec, e),
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Some(target) = built else {
        return failed_outcome(wl, false, rec, "no set-up ran".into());
    };
    let mut session = Session::new(wl, target, opts.seed);

    // Windows until the next one would not fit in `--seconds`; three at least.
    let (load, measure) = wl.plan.reported_window(opts.scale);
    let mut windows = Vec::new();
    let started = Instant::now();
    loop {
        let before = started.elapsed().as_secs_f64();
        windows.extend(session.window(load, measure, &mut rec));
        let after = started.elapsed().as_secs_f64();
        let enough = windows.len() >= 3 && after + (after - before) > opts.seconds;
        let hopeless = windows.is_empty() && session.windows >= 3;
        if enough || hopeless {
            break;
        }
    }
    session.check_determinism(opts.scale);
    session.check(!windows.is_empty(), || "no window produced a report".into());

    let per_window = |f: &dyn Fn(&Window) -> f64| windows.iter().map(f).collect::<Vec<_>>();
    let metrics = vec![
        Metric::median_of("setup_s", "s", setup_s),
        Metric::lowest_decile_of(
            "sojourn_p95_us",
            "us",
            per_window(&|w| us(w.report.sojourn.p95_ns)),
        ),
        Metric::highest_decile_of("throughput_rps", "1/s", per_window(&Window::throughput_rps)),
        Metric::single("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    session.finish(false, metrics, Vec::new(), rec)
}

/// The traced run: one set-up and one window per ladder rate under the span recorder,
/// one window with the recorder off (the tracing overhead), then the layer probes.
pub fn run_traced(wl: &'static Workload, opts: Options) -> Outcome {
    let mut rec = Recorder::new(true, wl.name);
    let target = match setup(wl, opts, &mut rec) {
        Ok(target) => target,
        Err(e) => return failed_outcome(wl, true, rec, e),
    };
    let mut session = Session::new(wl, target, opts.seed);
    let mut notes = Vec::new();

    // (load, measured requests) of each traced window; `reported` indexes the one the
    // per-layer rows are read from.
    let (loads, reported, slo) = match wl.plan {
        Plan::Open {
            rates,
            reported,
            window_s,
            slo,
        } => {
            // The ladder plus the untraced window share 0.6 of the run; probes get the rest.
            let fit = 0.6 * opts.seconds / ((rates.len() + 1) as f64 * 1.1);
            let window_s = opts.scale.window_s(window_s).min(fit.max(0.05));
            let loads = rates
                .iter()
                .map(|&qps| (Load::Open { qps }, open_measure(qps, window_s)))
                .collect();
            (loads, reported, slo)
        }
        plan => (vec![plan.reported_window(opts.scale)], 0, None),
    };
    // The highest ladder rate that meets the limit; 0 where the workload has no ladder
    // or no step passes.
    let mut slo_rate = 0.0_f64;
    let mut traced = None;
    for (i, &(load, measure)) in loads.iter().enumerate() {
        let Some(window) = session.window(load, measure, &mut rec) else {
            continue;
        };
        if let (Some(slo), Load::Open { qps }) = (slo, load) {
            let r = &window.report;
            let tail_us = us(match slo.tail {
                Tail::P95 => r.sojourn.p95_ns,
                Tail::P99 => r.sojourn.p99_ns,
            });
            // A Poisson stream of n arrivals misses its nominal rate by ~1/√n, so a short
            // window gets that much slack on top of the 2 %.
            let slack = (3.0 / (measure as f64).sqrt()).max(0.02);
            let passes =
                tail_us <= slo.limit_us && r.achieved_qps >= (1.0 - slack) * qps && r.dropped == 0;
            notes.push(format!(
                "ladder {qps:>8.0} qps: {:?} {tail_us:.1} us (limit {:.0}), achieved {:.0} qps, dropped {} -> {}",
                slo.tail,
                slo.limit_us,
                r.achieved_qps,
                r.dropped,
                if passes { "pass" } else { "fail" }
            ));
            if passes {
                slo_rate = slo_rate.max(qps);
            }
        }
        if i == reported {
            traced = Some(window);
        }
    }
    rec.set_enabled(false);
    let untraced = session.window(loads[reported].0, loads[reported].1, &mut rec);
    rec.set_enabled(true);
    session.check_determinism(opts.scale);

    let probe_rows = match rec.span("probes", 1, |rec| {
        api::run_probes(opts.scale.budget(), opts.seed, rec)
    }) {
        Ok(rows) => rows,
        Err(e) => {
            session.failures.push(format!("layer probes: {e}"));
            Vec::new()
        }
    };

    let mut metrics = probe_rows;
    let mut row = |name, unit, value| metrics.push(Metric::single(name, unit, value));
    if let Some(window) = &traced {
        let r = &window.report;
        row("sojourn_mean_us", "us", r.sojourn.mean_ns / 1e3);
        row("sojourn_p50_us", "us", us(r.sojourn.p50_ns));
        row("sojourn_p99_us", "us", us(r.sojourn.p99_ns));
        row("service_p50_us", "us", us(r.service.p50_ns));
        row("service_p99_us", "us", us(r.service.p99_ns));
        row("achieved_qps", "1/s", r.achieved_qps);
        row("time.pacing_p50_us", "us", us(r.pacing.p50_ns));
        row("time.pacing_p99_us", "us", us(r.pacing.p99_ns));
        row("time.pacing_max_us", "us", us(r.pacing.max_ns));
        row("queue.wait_p50_us", "us", us(r.queue.p50_ns));
        row("queue.wait_p99_us", "us", us(r.queue.p99_ns));
        row("queue.peak_depth", "count", r.peak_depth as f64);
        row("queue.dropped", "count", r.dropped as f64);
        row("net.overhead_p50_us", "us", us(r.overhead.p50_ns));
        row("net.overhead_p99_us", "us", us(r.overhead.p99_ns));
        row("cluster.legs", "count", r.legs as f64);
        row("hedge.issued", "count", r.hedge_issued as f64);
        row("hedge.wins", "count", r.hedge_wins as f64);
    } else {
        session
            .failures
            .push("the reported window of the traced run produced no report".into());
    }
    row("slo_rate_qps", "1/s", slo_rate);
    row(
        "fail_ratio",
        "ratio",
        session.failed as f64 / session.attempted.max(1) as f64,
    );
    // Traced against untraced on the workload's own figure: throughput where the
    // workload saturates, median sojourn where it is paced.
    let overhead_pct = match (&traced, &untraced) {
        (Some(t), Some(u)) => {
            let paced = matches!(wl.plan, Plan::Open { .. });
            let (traced, untraced) = if paced {
                (
                    t.report.sojourn.p50_ns as f64,
                    u.report.sojourn.p50_ns as f64,
                )
            } else {
                (1.0 / t.throughput_rps(), 1.0 / u.throughput_rps())
            };
            100.0 * (traced - untraced) / untraced
        }
        _ => 0.0,
    };
    row("trace.overhead_pct", "%", overhead_pct);
    for (name, span) in [
        ("span.build_app_s", "build_app"),
        ("span.prepare_s", "prepare"),
        ("span.gen_inputs_s", "gen_inputs"),
        ("span.execute_s", "execute"),
        ("span.probes_s", "probes"),
    ] {
        row(name, "s", rec.total_s(span));
    }

    if let Some(span) = first_escaping_child(rec.spans()) {
        session
            .failures
            .push(format!("span {:?} is not inside its parent", span.name));
    }
    notes.extend(self_time_lines(&rec));
    session.finish(true, metrics, notes, rec)
}

fn self_time_lines(rec: &Recorder) -> Vec<String> {
    let own = self_times_ns(rec.spans());
    rec.spans()
        .iter()
        .zip(own)
        .filter(|(span, _)| !span.name.starts_with("probe."))
        .map(|(span, own_ns)| {
            format!(
                "span {:<12} total {:>10.6} s  self {:>10.6} s  count {}",
                span.name,
                span.duration_ns() as f64 / 1e9,
                own_ns as f64 / 1e9,
                span.count
            )
        })
        .collect()
}

fn failed_outcome(
    wl: &'static Workload,
    traced: bool,
    recorder: Recorder,
    failure: String,
) -> Outcome {
    Outcome {
        workload: wl.name,
        traced,
        attempted: 1,
        failed: 1,
        failures: vec![failure],
        metrics: Vec::new(),
        notes: Vec::new(),
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{parse_json, Json};

    /// `BENCHMARK.json` names the same six workloads, for the same reasons.
    #[test]
    fn benchmark_json_lists_the_same_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let listed = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (json, ours) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(json.get("name").and_then(Json::as_str), Some(ours.name));
            assert_eq!(json.get("why").and_then(Json::as_str), Some(ours.why));
            assert!(ours.why.len() <= 200 && !ours.why.contains('\n'));
        }
    }

    #[test]
    fn a_window_of_the_reported_rate_counts_its_warmup() {
        let int_open = find("int-open").expect("int-open exists");
        assert_eq!(reported_window_total(int_open, Scale::Full), 1_100);
        assert_eq!(open_measure(2_000.0, 2.5), 5_000);
        assert!(find("nope").is_none());
    }
}
