//! The TailBench-RS scenario engine.
//!
//! A [`Scenario`] is a declarative description of one dynamic measurement: a sequence
//! of [`LoadPhase`]s (constant, ramp, square-wave burst, diurnal sinusoid) compiled
//! into an explicit open-loop arrival trace, a population of [`ClientClass`]es that
//! split the offered rate and tag every request for per-class reporting, a
//! deterministic [`InterferencePlan`] of fault windows (slow shard, full pause,
//! per-request jitter).  Compiled scenarios run unchanged in every harness mode —
//! integrated, loopback, networked and discrete-event simulated — and the DES path is
//! bit-for-bit deterministic under a fixed seed, so burst-phase tails and hedging wins
//! can be pinned exactly.
//!
//! [`execute_cluster_scenario`] plays a scenario against a cluster; hedging and the
//! other mitigations are set on its `ClusterConfig`.  A single server is the 1×1
//! cluster, so [`execute_scenario`] is `execute_cluster_scenario` on one shard of one
//! replica, relabelled with `ClusterReport::single_server`.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use tailbench_core::app::{EchoApp, InstructionRateModel, ServerApp};
//! use tailbench_core::config::HarnessMode;
//! use tailbench_scenario::{ClientClass, LoadPhase, Scenario};
//!
//! // 0.2 s steady at 2k QPS, then 0.2 s of 4x square-wave bursts, 70/30 split between
//! // an interactive and a batch tenant.
//! let scenario = Scenario::new(
//!     "burst-demo",
//!     vec![
//!         LoadPhase::constant(2_000.0, Duration::from_millis(200)),
//!         LoadPhase::burst(2_000.0, 8_000.0, Duration::from_millis(50), 0.5,
//!                          Duration::from_millis(200)),
//!     ],
//! )
//! .with_classes(vec![
//!     ClientClass::new("interactive", 0.7),
//!     ClientClass::new("batch", 0.3),
//! ]);
//!
//! let app: Arc<dyn ServerApp> = Arc::new(EchoApp { spin_iters: 50_000 });
//! let model = InstructionRateModel { ns_per_instruction: 1.0 };
//! let factories = vec![
//!     Box::new(|| b"interactive".to_vec()) as Box<dyn tailbench_core::RequestFactory>,
//!     Box::new(|| b"batch".to_vec()) as Box<dyn tailbench_core::RequestFactory>,
//! ];
//! let report = tailbench_scenario::execute_scenario(
//!     &app, factories, &scenario, HarnessMode::Simulated, 1, 42, Some(&model),
//! )?;
//! assert_eq!(report.per_class.len(), 2);
//! assert_eq!(report.per_phase.len(), 2);
//! # Ok::<(), tailbench_core::HarnessError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod phase;

pub use phase::{compile_phases, LoadPhase, PhaseShape};

use rand::Rng;
use std::sync::Arc;
use std::time::Duration;
use tailbench_core::app::{CostModel, RequestFactory, ServerApp};
use tailbench_core::collector::RequestTags;
use tailbench_core::config::{BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode};
use tailbench_core::interference::InterferencePlan;
use tailbench_core::queue::AdmissionPolicy;
use tailbench_core::report::{ClusterReport, RunReport};
use tailbench_core::runner;
use tailbench_core::traffic::{LoadMode, LoadTrace};
use tailbench_core::HarnessError;
use tailbench_workloads::rng::seeded_rng;

/// One client class (tenant) of a scenario: a name and its share of the offered rate.
/// The request payloads of a class come from the per-class [`RequestFactory`] passed to
/// the run functions, so an interactive tenant can issue point reads while a batch
/// tenant issues scans against the same server.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientClass {
    /// Class name, used in per-class report rows.
    pub name: String,
    /// Relative share of the offered rate (normalized over all classes).
    pub weight: f64,
}

impl ClientClass {
    /// Creates a class with the given rate share.
    #[must_use]
    pub fn new(name: impl Into<String>, weight: f64) -> Self {
        ClientClass {
            name: name.into(),
            weight: weight.max(0.0),
        }
    }
}

/// A declarative scenario: phased load, client classes, interference.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (used in reports and logs).
    pub name: String,
    /// The load phases, played back to back.
    pub phases: Vec<LoadPhase>,
    /// Client classes; empty means one implicit class `"all"`.
    pub classes: Vec<ClientClass>,
    /// Deterministic fault schedule (empty = none).
    pub interference: InterferencePlan,
    /// Fraction of the trace treated as warmup and excluded from statistics.
    pub warmup_fraction: f64,
    /// Request-queue admission policy for the servers (default: unbounded).
    pub admission: AdmissionPolicy,
}

impl Scenario {
    /// Creates a scenario from its phases, with one implicit client class, no
    /// interference and 10% warmup.
    #[must_use]
    pub fn new(name: impl Into<String>, phases: Vec<LoadPhase>) -> Self {
        Scenario {
            name: name.into(),
            phases,
            classes: Vec::new(),
            interference: InterferencePlan::none(),
            warmup_fraction: 0.1,
            admission: AdmissionPolicy::unbounded(),
        }
    }

    /// Sets the client classes.
    #[must_use]
    pub fn with_classes(mut self, classes: Vec<ClientClass>) -> Self {
        self.classes = classes;
        self
    }

    /// Sets the interference plan.
    #[must_use]
    pub fn with_interference(mut self, interference: InterferencePlan) -> Self {
        self.interference = interference;
        self
    }

    /// Sets the warmup fraction.
    #[must_use]
    pub fn with_warmup_fraction(mut self, fraction: f64) -> Self {
        self.warmup_fraction = fraction.clamp(0.0, 0.9);
        self
    }

    /// Sets the servers' request-queue admission policy.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Number of client classes (at least one: the implicit class).
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len().max(1)
    }

    /// Total trace span (sum of phase durations).
    #[must_use]
    pub fn span(&self) -> Duration {
        Duration::from_nanos(self.phases.iter().map(|p| p.duration_ns).sum())
    }

    /// Compiles the scenario for one seed: draws the arrival trace (thinning) and the
    /// per-request class assignment, and builds the tag table.  Same seed, same
    /// compiled scenario, on any host.
    #[must_use]
    pub fn compile(&self, seed: u64) -> CompiledScenario {
        let mut trace_rng = seeded_rng(seed, 21);
        let (times, phase_of) = compile_phases(&self.phases, &mut trace_rng);

        let class_names: Vec<String> = if self.classes.is_empty() {
            vec!["all".to_string()]
        } else {
            self.classes.iter().map(|c| c.name.clone()).collect()
        };
        let weights: Vec<f64> = if self.classes.is_empty() {
            vec![1.0]
        } else {
            self.classes.iter().map(|c| c.weight).collect()
        };
        let total_weight: f64 = weights.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        let mut class_rng = seeded_rng(seed, 22);
        let class_of: Vec<u16> = times
            .iter()
            .map(|_| {
                let draw: f64 = class_rng.gen_range(0.0..1.0) * total_weight;
                let mut acc = 0.0;
                for (i, w) in weights.iter().enumerate() {
                    acc += w;
                    if draw < acc {
                        return i as u16;
                    }
                }
                (weights.len() - 1) as u16
            })
            .collect();

        let phase_names: Vec<String> = self
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{i}:{}", p.shape.kind()))
            .collect();
        let warmup = (times.len() as f64 * self.warmup_fraction).round() as usize;
        let tags = Arc::new(RequestTags::new(
            class_names,
            phase_names,
            class_of.clone(),
            phase_of,
        ));
        CompiledScenario {
            times,
            class_of,
            tags,
            warmup,
        }
    }

    /// Builds the [`BenchmarkConfig`] that plays `compiled` back under `mode` with
    /// `threads` workers, unclamped, so the runner rejects a zero.
    #[must_use]
    pub fn benchmark_config(
        &self,
        compiled: &CompiledScenario,
        mode: HarnessMode,
        threads: usize,
        seed: u64,
    ) -> BenchmarkConfig {
        let measured = compiled.times.len().saturating_sub(compiled.warmup);
        let span = self.span();
        BenchmarkConfig {
            worker_threads: threads,
            ..BenchmarkConfig::new(1.0, measured)
        }
        .with_load(LoadMode::trace(LoadTrace::from_times(
            compiled.times.clone(),
        )))
        .with_mode(mode)
        .with_warmup(compiled.warmup)
        .with_seed(seed)
        .with_interference(self.interference.clone())
        .with_tags(Arc::clone(&compiled.tags))
        .with_admission(self.admission)
        // Real-time runs need headroom above the trace span (pacing can only ever
        // fall behind, never ahead).
        .with_max_duration(span * 2 + Duration::from_secs(60))
    }
}

/// A scenario compiled for one seed.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// Arrival timestamps, ns since the run epoch, non-decreasing.
    pub times: Vec<u64>,
    /// Class of each request, indexed by request id.
    pub class_of: Vec<u16>,
    /// The tag table shared with the collectors.
    pub tags: Arc<RequestTags>,
    /// Number of leading requests treated as warmup.
    pub warmup: usize,
}

/// Multiplexes per-class request factories into the single id-ordered payload stream
/// the traffic shaper consumes: request `i` draws its payload from the factory of
/// `class_of[i]`.
struct ClassMux {
    factories: Vec<Box<dyn RequestFactory>>,
    class_of: Vec<u16>,
    next: usize,
}

impl RequestFactory for ClassMux {
    fn next_request(&mut self) -> Vec<u8> {
        let class = self
            .class_of
            .get(self.next)
            .copied()
            .unwrap_or(0)
            .min(self.factories.len().saturating_sub(1) as u16);
        self.next += 1;
        match self.factories.get_mut(class as usize) {
            Some(factory) => factory.next_request(),
            None => Vec::new(),
        }
    }
}

/// Runs a scenario against a single server in any harness mode — the scenario
/// counterpart of `runner::execute`, and like it [`execute_cluster_scenario`] on the
/// 1×1 cluster.
///
/// `class_factories` holds one payload factory per client class (one factory for
/// class-less scenarios).  Simulated mode requires `cost_model`; real-time modes ignore
/// it.
///
/// # Errors
///
/// Returns [`HarnessError::Config`] when the factory count does not match the class
/// count, the harness rejects the compiled configuration or simulated mode lacks a
/// cost model, and [`HarnessError::Io`] if a TCP configuration fails to set up its
/// sockets.
pub fn execute_scenario(
    app: &Arc<dyn ServerApp>,
    class_factories: Vec<Box<dyn RequestFactory>>,
    scenario: &Scenario,
    mode: HarnessMode,
    threads: usize,
    seed: u64,
    cost_model: Option<&dyn CostModel>,
) -> Result<RunReport, HarnessError> {
    let one_by_one = ClusterConfig::new(1, FanoutPolicy::Broadcast);
    execute_cluster_scenario(
        std::slice::from_ref(app),
        class_factories,
        scenario,
        &one_by_one,
        mode,
        threads,
        seed,
        cost_model,
    )
    .map(|report| report.single_server(mode))
}

/// A scenario's bursts only mean anything if the harness actually issued them on
/// schedule.  Real-time runs whose p99 pacing error exceeds this threshold get a
/// stderr warning instead of silently reporting skewed burst tails.
pub const PACING_WARN_THRESHOLD_NS: u64 = 1_000_000;

/// Runs a scenario against a cluster in any harness mode — the scenario counterpart of
/// `runner::execute_cluster`.  The unified `tailbench_experiment::Experiment` API calls
/// this when an experiment spec selects a scenario load.
///
/// Hedging and the other mitigations come from `cluster`.  Simulated mode requires
/// `cost_model`; real-time modes ignore it.
///
/// # Errors
///
/// As [`execute_scenario`], plus the cluster-shape errors of
/// [`runner::execute_cluster`](tailbench_core::runner::execute_cluster).
#[allow(clippy::too_many_arguments)]
pub fn execute_cluster_scenario(
    apps: &[Arc<dyn ServerApp>],
    class_factories: Vec<Box<dyn RequestFactory>>,
    scenario: &Scenario,
    cluster: &ClusterConfig,
    mode: HarnessMode,
    threads: usize,
    seed: u64,
    cost_model: Option<&dyn CostModel>,
) -> Result<ClusterReport, HarnessError> {
    if class_factories.len() != scenario.class_count() {
        return Err(HarnessError::Config(format!(
            "scenario '{}' has {} client classes but {} factories were provided",
            scenario.name,
            scenario.class_count(),
            class_factories.len()
        )));
    }
    let compiled = scenario.compile(seed);
    let config = scenario.benchmark_config(&compiled, mode, threads, seed);
    let mut mux = ClassMux {
        factories: class_factories,
        class_of: compiled.class_of,
        next: 0,
    };
    let report = runner::execute_cluster(apps, &mut mux, &config, cluster, cost_model)?;
    if let Some(warning) = report.cluster.pacing_warning(PACING_WARN_THRESHOLD_NS) {
        eprintln!("scenario '{}': {warning}", scenario.name);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailbench_core::app::{EchoApp, InstructionRateModel};

    fn burst_scenario() -> Scenario {
        Scenario::new(
            "test-burst",
            vec![
                LoadPhase::constant(2_000.0, Duration::from_millis(400)),
                LoadPhase::burst(
                    2_000.0,
                    12_000.0,
                    Duration::from_millis(50),
                    0.5,
                    Duration::from_millis(400),
                ),
                LoadPhase::constant(2_000.0, Duration::from_millis(200)),
            ],
        )
        .with_classes(vec![
            ClientClass::new("interactive", 0.8),
            ClientClass::new("batch", 0.2),
        ])
    }

    #[test]
    fn compile_is_deterministic_and_consistent() {
        let scenario = burst_scenario();
        let a = scenario.compile(7);
        let b = scenario.compile(7);
        assert_eq!(a.times, b.times);
        assert_eq!(a.class_of, b.class_of);
        assert_eq!(a.times.len(), a.class_of.len());
        assert!(a.warmup > 0 && a.warmup < a.times.len());
        // Class shares roughly follow the weights.
        let batch = a.class_of.iter().filter(|&&c| c == 1).count() as f64;
        let share = batch / a.class_of.len() as f64;
        assert!((share - 0.2).abs() < 0.05, "batch share = {share}");
        // A different seed draws a different trace.
        let c = scenario.compile(8);
        assert_ne!(a.times, c.times);
    }

    #[test]
    fn class_count_and_factory_validation() {
        let scenario = burst_scenario();
        let app: Arc<dyn ServerApp> = Arc::new(EchoApp::default());
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let one_factory: Vec<Box<dyn RequestFactory>> = vec![Box::new(|| vec![0u8])];
        let err = execute_scenario(
            &app,
            one_factory,
            &scenario,
            HarnessMode::Simulated,
            1,
            1,
            Some(&model),
        )
        .unwrap_err();
        assert!(matches!(err, HarnessError::Config(_)));
    }

    #[test]
    fn simulated_scenario_reports_classes_and_phases() {
        let scenario = burst_scenario();
        let app: Arc<dyn ServerApp> = Arc::new(EchoApp {
            spin_iters: 100_000,
        });
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let factories: Vec<Box<dyn RequestFactory>> = vec![
            Box::new(|| b"i".to_vec()),
            Box::new(|| b"batchbatch".to_vec()),
        ];
        let report = execute_scenario(
            &app,
            factories,
            &scenario,
            HarnessMode::Simulated,
            1,
            42,
            Some(&model),
        )
        .unwrap();
        assert_eq!(report.per_class.len(), 2);
        assert_eq!(report.per_class[0].name, "interactive");
        assert_eq!(report.per_phase.len(), 3);
        assert_eq!(report.per_phase[1].name, "1:burst");
        assert!(report.requests > 0);
        // The burst phase overdrives the ~10k QPS server, so its p99 must sit far above
        // the steady phase's.
        let steady = report.per_phase[0].sojourn.p99_ns;
        let burst = report.per_phase[1].sojourn.p99_ns;
        assert!(
            burst > 2 * steady,
            "burst p99 {burst} vs steady p99 {steady}"
        );
        // The run is deterministic end to end.
        let factories: Vec<Box<dyn RequestFactory>> = vec![
            Box::new(|| b"i".to_vec()),
            Box::new(|| b"batchbatch".to_vec()),
        ];
        let again = execute_scenario(
            &app,
            factories,
            &scenario,
            HarnessMode::Simulated,
            1,
            42,
            Some(&model),
        )
        .unwrap();
        assert_eq!(again.sojourn.p99_ns, report.sojourn.p99_ns);
        assert_eq!(
            again.per_class[1].sojourn.p95_ns,
            report.per_class[1].sojourn.p95_ns
        );
    }

    #[test]
    fn integrated_scenario_runs_wall_clock() {
        // A short, light scenario that completes quickly in real time.
        let scenario = Scenario::new(
            "wall-clock",
            vec![
                LoadPhase::constant(2_000.0, Duration::from_millis(100)),
                LoadPhase::ramp(2_000.0, 4_000.0, Duration::from_millis(100)),
            ],
        );
        let app: Arc<dyn ServerApp> = Arc::new(EchoApp::with_service_us(5));
        let factories: Vec<Box<dyn RequestFactory>> = vec![Box::new(|| b"w".to_vec())];
        let report = execute_scenario(
            &app,
            factories,
            &scenario,
            HarnessMode::Integrated,
            1,
            3,
            None,
        )
        .unwrap();
        assert!(report.requests > 200, "measured {}", report.requests);
        assert_eq!(report.per_phase.len(), 2);
        assert_eq!(report.per_class.len(), 1);
        assert_eq!(report.per_class[0].name, "all");
    }
}
