//! TailBench-RS: a benchmark suite and evaluation methodology for latency-critical
//! applications, reproduced in Rust.
//!
//! This facade crate re-exports the whole suite so downstream users can depend on a
//! single crate:
//!
//! * [`experiment`] — the unified experiment layer: a declarative, JSON-round-tripping
//!   `ExperimentSpec`, the app registry, and the single `Experiment::run()` entrypoint
//!   (single server or cluster, all four harness modes, steady or scenario load, with
//!   sweeps, capacity probing and hedging) — also exposed as the `tailbench` CLI.
//! * [`core`] — the load-testing harness (traffic shaper, request queue, statistics
//!   collector, the integrated / loopback / networked configurations and the
//!   discrete-event simulation runner).
//! * [`apps`] — the eight latency-critical applications: xapian (search), masstree
//!   (key-value store), moses (machine translation), sphinx (speech recognition),
//!   img-dnn (image recognition), specjbb (business middleware), silo and shore (OLTP).
//! * [`simarch`] — the analytic microarchitecture cost model used by simulated runs.
//! * [`scenario`] — the scenario engine: phased load traces (bursts, ramps, diurnal
//!   waves), multi-class clients, deterministic interference injection and hedged
//!   requests.
//! * [`queueing`] — closed-form M/G/1 and M/M/k models that check the simulator.
//! * [`histogram`] / [`workloads`] — the statistical and workload-generation substrates.
//!
//! # Quick start
//!
//! One declarative spec, one entrypoint — masstree under YCSB at 1k QPS:
//!
//! ```
//! use tailbench::experiment::{Experiment, ExperimentSpec, LoadSpec};
//!
//! let spec = ExperimentSpec::new("quickstart", "masstree")
//!     .with_load(LoadSpec::Qps(1_000.0))
//!     .with_requests(200)
//!     .with_warmup(20);
//! let output = Experiment::new(spec).run()?;
//! println!("{}", output.to_markdown());
//! assert!(output.points[0].report.headline().sojourn.p95_ns > 0);
//! # Ok::<(), tailbench::core::HarnessError>(())
//! ```
//!
//! The spec's fields are the harness's own configuration types (`core::config::HarnessMode`,
//! `core::queue::AdmissionPolicy`, …), so nothing converts between a spec vocabulary and
//! a harness one.  The same spec serializes to JSON (`spec.to_json_string()`) and runs
//! from disk with the `tailbench` CLI: `cargo run --release --bin tailbench -- run spec.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The load-testing harness (re-export of [`tailbench_core`]).
pub use tailbench_core as core;
/// The unified experiment layer: declarative `ExperimentSpec`, app registry and the
/// single `Experiment::run()` entrypoint behind the `tailbench` CLI (re-export of
/// [`tailbench_experiment`]).
pub use tailbench_experiment as experiment;
/// HDR histograms and confidence intervals (re-export of [`tailbench_histogram`]).
pub use tailbench_histogram as histogram;
/// The in-tree static-analysis pass behind `tailbench lint` (re-export of
/// [`tailbench_lint`]).
pub use tailbench_lint as lint;
/// Closed-form M/G/1 and M/M/k queueing models (re-export of [`tailbench_queueing`]).
pub use tailbench_queueing as queueing;
/// The scenario engine: phased load traces, multi-class clients, interference
/// injection and hedged requests (re-export of [`tailbench_scenario`]).
pub use tailbench_scenario as scenario;
/// The analytic microarchitecture model (re-export of [`tailbench_simarch`]).
pub use tailbench_simarch as simarch;
/// Synthetic workload generators (re-export of [`tailbench_workloads`]).
pub use tailbench_workloads as workloads;

/// The eight TailBench applications.
pub mod apps {
    /// img-dnn: dense-network handwriting recognition.
    pub use tailbench_imgdnn as imgdnn;
    /// specjbb: three-tier business middleware.
    pub use tailbench_jbb as jbb;
    /// masstree: in-memory ordered key-value store.
    pub use tailbench_kvstore as kvstore;
    /// silo and shore: OLTP engines running TPC-C.
    pub use tailbench_oltp as oltp;
    /// xapian: full-text web-search leaf node.
    pub use tailbench_search as search;
    /// sphinx: GMM-HMM speech recognition.
    pub use tailbench_speech as speech;
    /// moses: phrase-based statistical machine translation.
    pub use tailbench_translate as translate;
}
