//! The TailBench-RS load-testing harness.
//!
//! This crate reproduces the harness of *TailBench: A Benchmark Suite and Evaluation
//! Methodology for Latency-Critical Applications* (Kasture & Sanchez, IISWC 2016).  The
//! harness controls the end-to-end execution of a latency-critical application and
//! integrates load generation and statistics collection (paper §IV):
//!
//! * an **open-loop traffic shaper** issues requests with exponentially distributed
//!   interarrival times at a configurable rate ([`traffic`]);
//! * a **request queue** shared by the application's worker threads stamps queuing and
//!   service times for every request ([`queue`], [`worker`]);
//! * a **statistics collector** aggregates per-request records into sojourn, service and
//!   queuing-time distributions with HDR-histogram precision — sharded per worker /
//!   per connection and merged at run end, so no statistics maintenance sits on the
//!   measurement hot path ([`collector`], [`report`]);
//! * three **measurement configurations** trade fidelity for cost: networked, loopback
//!   and integrated ([`config::HarnessMode`], [`net`], [`integrated`]), plus a
//!   **discrete-event simulation** runner that replaces wall-clock service times with a
//!   microarchitectural cost model ([`sim`]);
//! * **repeated runs** aggregate into 95% confidence intervals of each reported latency
//!   metric one level up: the experiment layer's `repeats` re-run a point with fresh
//!   seeds, and its point report carries the intervals across them;
//! * a **cluster harness** runs N independent server instances behind a client-side
//!   router that shards single-key requests or fans partition-aggregate requests out to
//!   every shard and merges last-response-wins, reporting per-shard and end-to-end
//!   distributions so the fan-out tail amplification is a first-class result
//!   ([`config::ClusterConfig`], [`runner::execute_cluster`]);
//! * **scenario mechanisms** for the `tailbench-scenario` engine: precompiled phased
//!   arrival traces ([`traffic::LoadTrace`]), per-request class/phase tags with
//!   per-class reporting ([`collector::RequestTags`]), deterministic interference
//!   injection ([`interference`]), and a hedged-request policy on the cluster router
//!   ([`config::HedgePolicy`]) — all available in every harness mode.
//!
//! Applications plug in through the [`ServerApp`] and [`RequestFactory`] traits ([`app`]);
//! the eight TailBench applications live in their own crates (`tailbench-search`,
//! `tailbench-kvstore`, …).
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use tailbench_core::app::{EchoApp, ServerApp};
//! use tailbench_core::config::BenchmarkConfig;
//! use tailbench_core::runner;
//!
//! let app: Arc<dyn ServerApp> = Arc::new(EchoApp::with_service_us(5));
//! let mut factory = || b"hello".to_vec();
//! let config = BenchmarkConfig::new(500.0, 200).with_warmup(20);
//! let report = runner::execute(&app, &mut factory, &config, None)?;
//! assert!(report.sojourn.p95_ns > 0);
//! # Ok::<(), tailbench_core::error::HarnessError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod collector;
pub mod config;
pub mod error;
mod hedge;
pub mod integrated;
pub mod interference;
pub mod net;
mod policy;
pub mod pool;
pub mod protocol;
pub mod queue;
pub mod report;
pub mod request;
pub mod runner;
pub mod sim;
mod sync;
pub mod time;
pub mod traffic;
pub mod worker;

pub use app::{CostModel, EmpiricalService, RequestFactory, ServerApp};
pub use collector::{ClusterCollector, RequestTags};
pub use config::{BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode, HedgePolicy, Route};
pub use error::HarnessError;
pub use interference::{FaultEvent, FaultKind, FaultTarget, InterferencePlan};
pub use pool::{BufferPool, PoolStats};
pub use queue::AdmissionPolicy;
pub use report::{
    ClusterReport, HedgeStats, LabeledLatency, LatencyStats, QueueSummary, RunReport,
};
pub use request::{Request, RequestRecord, Response, WorkProfile};
pub use runner::{execute, execute_cluster, measure_capacity};
pub use time::{PacingRecorder, RunClock};
pub use traffic::{LoadMode, LoadTrace};
