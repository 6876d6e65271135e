//! Measurement-pipeline regression tests.
//!
//! The low-overhead measurement pipeline rearranges *where* statistics are maintained
//! (per-worker/per-connection collector shards merged at run end), *what* the queue
//! does at capacity (explicit admission policies with depth accounting), and *what the
//! harness admits about itself* (pacing-error and queue summaries in every report).
//! These tests pin the properties that rearrangement must preserve:
//!
//! 1. A sharded collector merged across real threads is statistically identical to a
//!    single collector that recorded the same stream.
//! 2. Bounded-queue overload is reported (drop counts, peak depth, depth timeline) and
//!    is bit-for-bit deterministic in DES mode.
//! 3. The unified experiment layer carries the new fields end to end.
//! 4. Pacing error measures the pacer, not the run's set-up: the schedule and its
//!    payloads are drawn before the run clock starts.

use std::sync::Arc;
use tailbench::core::app::{EchoApp, InstructionRateModel};
use tailbench::core::collector::StatsCollector;
use tailbench::core::config::{BenchmarkConfig, HarnessMode};
use tailbench::core::queue::AdmissionPolicy;
use tailbench::core::request::{RequestId, RequestRecord};
use tailbench::core::{runner, ServerApp};
use tailbench::experiment::{Experiment, ExperimentSpec, LoadSpec, Registry, Scale};

fn record(id: u64, issued: u64, service: u64) -> RequestRecord {
    RequestRecord {
        id: RequestId(id),
        issued_ns: issued,
        enqueued_ns: issued + 10,
        started_ns: issued + 50 + (id % 13) * 7,
        completed_ns: issued + 50 + (id % 13) * 7 + service,
        client_received_ns: issued + 60 + (id % 13) * 7 + service,
    }
}

/// A deterministic stream of 40k records with spread-out latencies.
fn stream() -> Vec<RequestRecord> {
    (0..40_000u64)
        .map(|i| record(i, i * 2_500, 1_000 + (i * 97) % 400_000))
        .collect()
}

#[test]
fn sharded_collector_merge_equals_single_threaded_recording_under_threads() {
    let records = stream();
    // Reference: one collector records everything on one thread.
    let mut single = StatsCollector::new(500);
    for r in &records {
        single.record(r);
    }

    // Stress: 8 real threads each record a deterministic interleaved slice into their
    // own shard, concurrently; the shards merge at join.
    let shared = Arc::new(records);
    let threads = 8usize;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let records = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut shard = StatsCollector::new(500);
                for r in records.iter().skip(t).step_by(threads) {
                    shard.record(r);
                }
                shard
            })
        })
        .collect();
    let mut merged = StatsCollector::new(500);
    for handle in handles {
        merged.merge(&handle.join().expect("shard thread panicked"));
    }

    assert_eq!(merged.measured(), single.measured());
    assert_eq!(merged.warmup_seen(), single.warmup_seen());
    assert_eq!(merged.span_ns(), single.span_ns());
    assert_eq!(merged.sojourn_stats(), single.sojourn_stats());
    assert_eq!(merged.service_stats(), single.service_stats());
    assert_eq!(merged.queue_stats(), single.queue_stats());
    assert_eq!(merged.overhead_stats(), single.overhead_stats());
    assert!((merged.achieved_qps() - single.achieved_qps()).abs() < 1e-9);
}

#[test]
fn bounded_queue_overload_is_reported_and_deterministic_in_des() {
    // EchoApp reports ~100k+10 instructions; at 1 ns/instruction the service time is
    // ~100 us, so capacity is ~10k QPS on one simulated server.  Offering 40k QPS with
    // a 32-deep Drop queue must shed most of the load — deterministically.
    let app: Arc<dyn ServerApp> = Arc::new(EchoApp {
        spin_iters: 100_000,
    });
    let model = InstructionRateModel {
        ns_per_instruction: 1.0,
    };
    let config = BenchmarkConfig::new(40_000.0, 4_000)
        .with_warmup(0)
        .with_seed(0xD20B)
        .with_admission(AdmissionPolicy::Drop { capacity: 32 })
        .with_mode(HarnessMode::Simulated);
    let mut factory = || b"shed".to_vec();
    let a = runner::execute(&app, &mut factory, &config, Some(&model)).expect("simulated run");
    let mut factory = || b"shed".to_vec();
    let b = runner::execute(&app, &mut factory, &config, Some(&model)).expect("simulated run");

    assert_eq!(a.queue_depth.policy, "drop(32)");
    assert!(a.queue_depth.dropped > 0, "overload must shed");
    assert!(a.queue_depth.accepted > 0);
    assert_eq!(a.queue_depth.accepted + a.queue_depth.dropped, 4_000);
    assert!(a.queue_depth.peak_depth <= 32);
    assert!(!a.queue_depth.depth_timeline.is_empty());
    assert!(a
        .queue_depth
        .depth_timeline
        .windows(2)
        .all(|w| w[0].0 < w[1].0));
    // Only admitted requests are measured; the sojourn tail stays bounded by the cap.
    assert_eq!(a.requests, a.queue_depth.accepted);
    assert!(a.sojourn.max_ns < 34 * 110_000);
    // Virtual-time pacing is exact, so the DES reports no pacing error.
    assert_eq!(a.pacing.count, 0);

    // Bit-for-bit deterministic, including the new accounting.
    assert_eq!(a.queue_depth, b.queue_depth);
    assert_eq!(a.sojourn, b.sojourn);
    assert_eq!(a.requests, b.requests);

    // The default (unbounded) queue under the same load drops nothing and reports the
    // same offered count; the backlog shows up as depth instead.
    let unbounded_config = BenchmarkConfig::new(40_000.0, 4_000)
        .with_warmup(0)
        .with_seed(0xD20B)
        .with_mode(HarnessMode::Simulated);
    let mut factory = || b"shed".to_vec();
    let u = runner::execute(&app, &mut factory, &unbounded_config, Some(&model))
        .expect("simulated run");
    assert_eq!(u.queue_depth.policy, "unbounded");
    assert_eq!(u.queue_depth.dropped, 0);
    assert_eq!(u.queue_depth.accepted, 4_000);
    assert!(u.queue_depth.peak_depth > 32, "the backlog must be visible");
    assert!(u.sojourn.max_ns > a.sojourn.max_ns);
}

/// The golden-echo registry used by the experiment-layer checks below.
struct Echo;

impl tailbench::experiment::AppBuilder for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn build(&self, _scale: Scale) -> tailbench::experiment::BenchApp {
        tailbench::experiment::BenchApp::new(
            "echo",
            Arc::new(EchoApp {
                spin_iters: 100_000,
            }),
            |_| Box::new(|| b"pipe".to_vec()),
        )
    }
    fn cost_model(&self) -> Box<dyn tailbench::core::CostModel> {
        Box::new(InstructionRateModel {
            ns_per_instruction: 1.0,
        })
    }
}

fn echo_registry() -> Registry {
    let mut registry = Registry::empty();
    registry.register(Box::new(Echo));
    registry
}

#[test]
fn experiment_layer_carries_queue_and_pacing_fields_end_to_end() {
    let spec = ExperimentSpec::new("pipeline", "echo")
        .with_mode(HarnessMode::Simulated)
        .with_load(LoadSpec::Qps(40_000.0))
        .with_requests(2_000)
        .with_warmup(0)
        .with_seed(0xD20B)
        .with_queue(AdmissionPolicy::Drop { capacity: 32 });
    // The queue policy survives the JSON spec round trip (the CLI path).
    let reparsed = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
    assert_eq!(reparsed, spec);

    let output = Experiment::new(reparsed)
        .with_registry(echo_registry())
        .run()
        .unwrap();
    let report = output.points[0].report.headline();
    assert_eq!(report.queue_depth.policy, "drop(32)");
    assert!(report.queue_depth.dropped > 0);
    let text = output.to_json_string();
    assert!(text.contains("\"queue_depth\""), "{text}");
    assert!(text.contains("\"dropped\""), "{text}");
    assert!(text.contains("\"pacing\""), "{text}");
    assert!(text.contains("\"queue\""), "{text}");
    // And the emitted JSON still passes the CI verification gate.
    assert!(tailbench::experiment::verify_output_text(&text).is_ok());
}

#[test]
fn slow_payload_generation_is_not_charged_to_pacing() {
    use std::time::Duration;
    // A factory whose first call takes 50 ms: drawn after the clock started, it would
    // make the first arrivals 50 ms late and have them issue in a burst.
    let app: Arc<dyn ServerApp> = Arc::new(EchoApp::with_service_us(5));
    for mode in [HarnessMode::Integrated, HarnessMode::loopback()] {
        let mut first = true;
        let mut factory = || {
            if std::mem::take(&mut first) {
                std::thread::sleep(Duration::from_millis(50));
            }
            b"pace".to_vec()
        };
        let config = BenchmarkConfig::new(1_000.0, 200)
            .with_warmup(0)
            .with_mode(mode);
        let report = runner::execute(&app, &mut factory, &config, None).expect("run");
        assert_eq!(report.pacing.count, 200);
        assert!(
            report.pacing.max_ns < 20_000_000,
            "{}: pacing max {} ns includes the factory's set-up",
            mode.name(),
            report.pacing.max_ns
        );
    }
}
