//! The unified experiment layer of TailBench-RS.
//!
//! Three PRs of harness growth left the suite with six parallel `run*` entrypoints and
//! a configuration split across `BenchmarkConfig`, `ClusterConfig`, `Scenario` and the
//! cost model.  This crate replaces all of that with **one declarative spec and one
//! runner**:
//!
//! * [`ExperimentSpec`] — a serializable description of an experiment: workload (by
//!   registry name), harness mode, optional cluster topology (shards × replication ×
//!   fan-out × hedging), load model (absolute QPS, fraction of measured capacity,
//!   closed-loop, or a full phased [`ScenarioSpec`]), sweep axes, interference windows
//!   and the repeat/seed policy.  Specs round-trip exactly through JSON
//!   ([`ExperimentSpec::to_json_string`] / [`ExperimentSpec::from_json_str`]), which is
//!   what the `tailbench` CLI reads from disk.
//! * [`Registry`] — the app table: registry name → [`AppBuilder`] trait object bundling
//!   the `ServerApp`, `RequestFactory` and `CostModel` constructors plus cluster layout
//!   and default fan-out.  New workloads plug in with [`Registry::register`]; nothing
//!   else changes.
//! * [`Experiment::run`] — the single dispatcher.  It subsumes the old
//!   `runner::run` / `run_with_cost_model` / `run_cluster` /
//!   `scenario::run_scenario` / `run_cluster_scenario` entrypoints (which remain as
//!   deprecated wrappers): single server or cluster, all four harness modes, steady or
//!   scenario load, with capacity probing, hedge-trigger resolution and sweep-grid
//!   expansion handled internally.
//! * [`ExperimentOutput`] — structured results with Markdown and JSON renderers.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use tailbench_experiment::{
//!     AppBuilder, BenchApp, Experiment, ExperimentSpec, LoadSpec, ModeSpec, Registry, Scale,
//! };
//! use tailbench_core::app::{CostModel, EchoApp, InstructionRateModel};
//!
//! // Plug a custom workload into the registry…
//! struct Echo;
//! impl AppBuilder for Echo {
//!     fn name(&self) -> &str { "echo" }
//!     fn build(&self, _scale: Scale) -> BenchApp {
//!         BenchApp::new("echo", Arc::new(EchoApp { spin_iters: 50_000 }),
//!                       |_seed| Box::new(|| b"ping".to_vec()))
//!     }
//!     fn cost_model(&self) -> Box<dyn CostModel> {
//!         Box::new(InstructionRateModel { ns_per_instruction: 1.0 })
//!     }
//! }
//! let mut registry = Registry::builtin();
//! registry.register(Box::new(Echo));
//!
//! // …describe the experiment declaratively…
//! let spec = ExperimentSpec::new("echo-demo", "echo")
//!     .with_mode(ModeSpec::Simulated)
//!     .with_load(LoadSpec::Qps(5_000.0))
//!     .with_requests(300)
//!     .with_warmup(30);
//!
//! // …and run it through the one entrypoint.
//! let output = Experiment::new(spec).with_registry(registry).run()?;
//! assert_eq!(output.points.len(), 1);
//! assert!(output.points[0].report.headline().sojourn.p99_ns > 0);
//! # Ok::<(), tailbench_core::HarnessError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod json;
pub mod output;
pub mod presets;
pub mod registry;
pub mod spec;

pub use capacity::{capacity_qps, cluster_capacity_qps};
pub use output::{
    format_latency, verify_output_text, ExperimentOutput, ExperimentPoint, PointCoords, PointReport,
};
pub use registry::{
    build_app, build_replicated_search_cluster, build_search_cluster, AppBuilder, AppId, BenchApp,
    ClusterApp, Registry, SearchCluster,
};
pub use spec::{
    ClassSpec, ExperimentSpec, FanoutSpec, FaultKindSpec, FaultSpec, FaultTargetSpec, HedgeSpec,
    LoadSpec, MitigationSpec, ModeSpec, PhaseSpec, QueuePolicySpec, Scale, ScenarioSpec,
    SeedPolicy, SelectorSpec, ShapeSpec, SweepAxis, TopologySpec,
};

use spec::SUPPORTED_HEDGE_PERCENTILES;
use std::collections::BTreeMap;
use tailbench_core::app::CostModel;
use tailbench_core::config::{BenchmarkConfig, ClusterConfig, HedgePolicy};
use tailbench_core::error::HarnessError;
use tailbench_core::interference::{FaultEvent, FaultKind, FaultTarget, InterferencePlan};
use tailbench_core::report::{ClusterReport, LatencyStats, MultiRunReport, RunReport};
use tailbench_core::runner;
use tailbench_core::traffic::LoadMode;
use tailbench_scenario::{ClientClass, LoadPhase, PhaseShape, Scenario};
use tailbench_workloads::rng::derive_seed;

impl BenchApp {
    /// Creates a bench app from its parts (the constructor custom [`AppBuilder`]s use).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        app: std::sync::Arc<dyn tailbench_core::ServerApp>,
        factory_builder: impl Fn(u64) -> Box<dyn tailbench_core::RequestFactory> + Send + Sync + 'static,
    ) -> BenchApp {
        BenchApp {
            name: name.into(),
            app,
            factory_builder: Box::new(factory_builder),
        }
    }
}

impl ClusterApp {
    /// Creates a cluster app from its parts (instances in shard-major order).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        instances: Vec<std::sync::Arc<dyn tailbench_core::ServerApp>>,
        factory_builder: impl Fn(u64) -> Box<dyn tailbench_core::RequestFactory> + Send + Sync + 'static,
    ) -> ClusterApp {
        ClusterApp {
            name: name.into(),
            instances,
            factory_builder: Box::new(factory_builder),
        }
    }
}

/// One resolved sweep-grid point (before measurement).
#[derive(Debug, Clone)]
struct GridPoint {
    app: String,
    mode: ModeSpec,
    threads: usize,
    shards: Option<usize>,
    fraction: Option<f64>,
    qps: Option<f64>,
    hedge: Option<Option<HedgeSpec>>,
    selector: SelectorSpec,
    tied: bool,
    queue: Option<QueuePolicySpec>,
    mitigation: Option<String>,
}

/// The unified experiment runner: a spec plus the registry it resolves workloads from.
pub struct Experiment {
    spec: ExperimentSpec,
    registry: Registry,
}

impl Experiment {
    /// Wraps a spec with the built-in registry.
    #[must_use]
    pub fn new(spec: ExperimentSpec) -> Experiment {
        Experiment {
            spec,
            registry: Registry::builtin(),
        }
    }

    /// Replaces the registry (e.g. after registering custom workloads).
    #[must_use]
    pub fn with_registry(mut self, registry: Registry) -> Experiment {
        self.registry = registry;
        self
    }

    /// Loads a spec from JSON text and wraps it with the built-in registry.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Config`] for malformed JSON or schema violations.
    pub fn from_json_str(text: &str) -> Result<Experiment, HarnessError> {
        Ok(Experiment::new(ExperimentSpec::from_json_str(text)?))
    }

    /// The spec this experiment will run.
    #[must_use]
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// Runs the experiment: validates the spec, expands the sweep grid, probes
    /// capacities where the load is capacity-relative, resolves hedge triggers
    /// (measuring unhedged baselines for percentile triggers), and executes every
    /// point in every repeat.
    ///
    /// A spec with no sweep axes and one repeat reproduces the equivalent direct
    /// `runner::execute` / `execute_cluster` call bit for bit (same seed, same
    /// config), which the golden determinism tests pin.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Config`] for spec-level inconsistencies (including
    /// unknown registry names) and propagates harness errors from individual runs.
    pub fn run(&self) -> Result<ExperimentOutput, HarnessError> {
        self.spec.validate()?;
        let scale = self.spec.scale.unwrap_or_else(Scale::from_env);
        let grid = self.grid();
        let single_point = grid.len() == 1;

        // Resolve every grid app up front: a typo in an App axis must fail in
        // milliseconds, not abort a long sweep mid-run and discard completed points.
        let mut unknown: Vec<&str> = grid
            .iter()
            .map(|p| p.app.as_str())
            .filter(|app| self.registry.get(app).is_none())
            .collect();
        unknown.sort_unstable();
        unknown.dedup();
        if !unknown.is_empty() {
            return Err(HarnessError::Config(format!(
                "spec '{}': unknown app(s) {} (registered: {})",
                self.spec.name,
                unknown.join(", "),
                self.registry.names().join(", ")
            )));
        }

        let mut singles: BTreeMap<String, BenchApp> = BTreeMap::new();
        let mut clusters: BTreeMap<(String, usize, usize), ClusterApp> = BTreeMap::new();
        let mut cost_models: BTreeMap<String, Box<dyn CostModel>> = BTreeMap::new();
        let mut capacities: BTreeMap<String, f64> = BTreeMap::new();
        let mut baselines: BTreeMap<String, LatencyStats> = BTreeMap::new();

        let mut points = Vec::with_capacity(grid.len());
        for (index, point) in grid.iter().enumerate() {
            let builder = self
                .registry
                .get(&point.app)
                .expect("grid apps resolved above");
            if !cost_models.contains_key(&point.app) {
                cost_models.insert(point.app.clone(), builder.cost_model());
            }
            let model: Option<&dyn CostModel> = cost_models.get(&point.app).map(AsRef::as_ref);

            // Sweep points are decorrelated by deriving a per-point seed — except on a
            // mitigation axis, where the rows are a controlled comparison and must face
            // the identical arrival trace (and the identical fault schedule): there the
            // root seed is shared, so any difference between rows is the policy itself.
            let point_seed = if single_point || point.mitigation.is_some() {
                self.spec.seed
            } else {
                derive_seed(self.spec.seed, index as u64)
            };

            let measured = match self.spec.topology {
                None => self.run_single_point(
                    point,
                    builder,
                    scale,
                    model,
                    point_seed,
                    &mut singles,
                    &mut capacities,
                )?,
                Some(topology) => self.run_cluster_point(
                    point,
                    topology,
                    builder,
                    scale,
                    model,
                    point_seed,
                    &mut clusters,
                    &mut capacities,
                    &mut baselines,
                )?,
            };
            points.push(measured);
        }
        Ok(ExperimentOutput {
            spec: self.spec.clone(),
            points,
        })
    }

    /// Expands the sweep axes into the Cartesian grid, in spec order.
    fn grid(&self) -> Vec<GridPoint> {
        let (fraction, qps) = match self.spec.load {
            LoadSpec::FractionOfCapacity(fraction) => (Some(fraction), None),
            LoadSpec::Qps(qps) => (None, Some(qps)),
            _ => (None, None),
        };
        let base = GridPoint {
            app: self.spec.app.clone(),
            mode: self.spec.mode,
            threads: self.spec.threads,
            shards: self.spec.topology.map(|t| t.shards),
            fraction,
            qps,
            hedge: self.spec.topology.and_then(|t| t.hedge).map(Some),
            selector: self.spec.topology.map(|t| t.selector).unwrap_or_default(),
            tied: self.spec.topology.is_some_and(|t| t.tied),
            queue: self.spec.queue,
            mitigation: None,
        };
        let mut grid = vec![base];
        for axis in &self.spec.sweep {
            let mut next = Vec::with_capacity(grid.len() * axis.len());
            for point in &grid {
                match axis {
                    SweepAxis::App(apps) => {
                        for app in apps {
                            let mut p = point.clone();
                            p.app = app.clone();
                            next.push(p);
                        }
                    }
                    SweepAxis::Mode(modes) => {
                        for mode in modes {
                            let mut p = point.clone();
                            p.mode = *mode;
                            next.push(p);
                        }
                    }
                    SweepAxis::LoadFraction(fractions) => {
                        for fraction in fractions {
                            let mut p = point.clone();
                            p.fraction = Some(*fraction);
                            p.qps = None;
                            next.push(p);
                        }
                    }
                    SweepAxis::Qps(rates) => {
                        for qps in rates {
                            let mut p = point.clone();
                            p.qps = Some(*qps);
                            p.fraction = None;
                            next.push(p);
                        }
                    }
                    SweepAxis::Threads(threads) => {
                        for t in threads {
                            let mut p = point.clone();
                            p.threads = *t;
                            next.push(p);
                        }
                    }
                    SweepAxis::Shards(shards) => {
                        for s in shards {
                            let mut p = point.clone();
                            p.shards = Some(*s);
                            next.push(p);
                        }
                    }
                    SweepAxis::Hedge(hedges) => {
                        for hedge in hedges {
                            let mut p = point.clone();
                            p.hedge = Some(*hedge);
                            next.push(p);
                        }
                    }
                    SweepAxis::Mitigation(policies) => {
                        for policy in policies {
                            // Each mitigation point is exactly one policy on top of a
                            // reset baseline, so rows compare single policies.
                            let mut p = point.clone();
                            p.hedge = Some(None);
                            p.selector = SelectorSpec::RoundRobin;
                            p.tied = false;
                            p.queue = self.spec.queue;
                            match policy {
                                MitigationSpec::Baseline => {}
                                MitigationSpec::Hedge(hedge) => p.hedge = Some(Some(*hedge)),
                                MitigationSpec::Tied => p.tied = true,
                                MitigationSpec::Selector(selector) => p.selector = *selector,
                                MitigationSpec::Queue(queue) => p.queue = Some(*queue),
                            }
                            p.mitigation = Some(policy.name());
                            next.push(p);
                        }
                    }
                }
            }
            grid = next;
        }
        grid
    }

    /// Seeds for the repeats of one point: repeat 0 of a single-repeat point uses the
    /// point seed directly (exact compatibility with a direct runner call); multiple
    /// repeats derive per-repeat seeds like `run_repeated` does, unless the policy
    /// pins them.
    fn repeat_seeds(&self, point_seed: u64) -> Vec<u64> {
        if self.spec.repeats == 1 {
            return vec![point_seed];
        }
        (0..self.spec.repeats)
            .map(|k| match self.spec.seed_policy {
                SeedPolicy::Fixed => point_seed,
                SeedPolicy::Derive => derive_seed(point_seed, k as u64),
            })
            .collect()
    }

    /// Builds the interference plan for a point, resolving fraction windows against
    /// the nominal span (`total_requests / qps` for steady loads, the trace span for
    /// scenarios).
    fn interference_plan(&self, nominal_span_ns: f64) -> InterferencePlan {
        let events = self
            .spec
            .interference
            .iter()
            .map(|fault| FaultEvent {
                target: match fault.target {
                    FaultTargetSpec::All => FaultTarget::All,
                    FaultTargetSpec::Instance(i) => FaultTarget::Instance(i),
                },
                start_ns: (fault.start_frac * nominal_span_ns) as u64,
                end_ns: (fault.end_frac * nominal_span_ns) as u64,
                kind: match fault.kind {
                    FaultKindSpec::SlowDown { factor } => FaultKind::SlowDown { factor },
                    FaultKindSpec::Pause => FaultKind::Pause,
                    FaultKindSpec::Jitter { amplitude_ns } => FaultKind::Jitter { amplitude_ns },
                },
            })
            .collect();
        InterferencePlan { events }
    }

    /// The core `Scenario` for a scenario-load point (with the point's admission
    /// policy, which a mitigation axis may have overridden).
    fn build_scenario(&self, scenario: &ScenarioSpec, queue: Option<QueuePolicySpec>) -> Scenario {
        let phases: Vec<LoadPhase> = scenario
            .phases
            .iter()
            .map(|p| LoadPhase {
                duration_ns: p.duration_ns,
                shape: match p.shape {
                    ShapeSpec::Constant { qps } => PhaseShape::Constant { qps },
                    ShapeSpec::Ramp { from_qps, to_qps } => PhaseShape::Ramp { from_qps, to_qps },
                    ShapeSpec::Burst {
                        base_qps,
                        burst_qps,
                        period_ns,
                        duty,
                    } => PhaseShape::Burst {
                        base_qps,
                        burst_qps,
                        period_ns,
                        duty,
                    },
                    ShapeSpec::Diurnal {
                        base_qps,
                        amplitude,
                        period_ns,
                    } => PhaseShape::Diurnal {
                        base_qps,
                        amplitude,
                        period_ns,
                    },
                },
            })
            .collect();
        let span_ns: u64 = phases.iter().map(|p| p.duration_ns).sum();
        let mut built = Scenario::new(self.spec.name.clone(), phases)
            .with_warmup_fraction(scenario.warmup_fraction)
            .with_interference(self.interference_plan(span_ns as f64));
        if let Some(queue) = queue {
            built = built.with_admission(queue.to_admission());
        }
        if !scenario.classes.is_empty() {
            built = built.with_classes(
                scenario
                    .classes
                    .iter()
                    .map(|c| ClientClass::new(c.name.clone(), c.weight))
                    .collect(),
            );
        }
        built
    }

    /// Per-class factories for a scenario run (one per class, decorrelated streams).
    fn class_factories(
        seed: u64,
        class_count: usize,
        factory: impl Fn(u64) -> Box<dyn tailbench_core::RequestFactory>,
    ) -> Vec<Box<dyn tailbench_core::RequestFactory>> {
        if class_count <= 1 {
            vec![factory(seed)]
        } else {
            (0..class_count)
                .map(|i| factory(derive_seed(seed, i as u64)))
                .collect()
        }
    }

    /// The steady-load benchmark config for one point (everything except scenarios).
    fn steady_config(
        &self,
        point: &GridPoint,
        offered_qps: Option<f64>,
        seed: u64,
    ) -> BenchmarkConfig {
        let requests = self.spec.requests;
        let mut config = BenchmarkConfig::new(offered_qps.unwrap_or(1.0).max(1.0), requests)
            .with_mode(point.mode.to_harness())
            .with_threads(point.threads)
            .with_warmup(self.spec.warmup_requests())
            .with_seed(seed);
        if let LoadSpec::Closed { think_ns } = self.spec.load {
            config = config.with_load(LoadMode::Closed { think_ns });
        }
        if let Some(queue) = point.queue {
            config = config.with_admission(queue.to_admission());
        }
        if !self.spec.interference.is_empty() {
            let total = config.total_requests() as f64;
            let span_ns = offered_qps.map_or(0.0, |qps| total / qps * 1e9);
            config = config.with_interference(self.interference_plan(span_ns));
        }
        config
    }

    #[allow(clippy::too_many_arguments)]
    fn run_single_point(
        &self,
        point: &GridPoint,
        builder: &dyn AppBuilder,
        scale: Scale,
        model: Option<&dyn CostModel>,
        point_seed: u64,
        singles: &mut BTreeMap<String, BenchApp>,
        capacities: &mut BTreeMap<String, f64>,
    ) -> Result<ExperimentPoint, HarnessError> {
        if !singles.contains_key(&point.app) {
            singles.insert(point.app.clone(), builder.build(scale));
        }
        let built = &singles[&point.app];

        let mut capacity = None;
        let offered_qps = match (point.qps, point.fraction) {
            (Some(qps), _) => Some(qps),
            (None, Some(fraction)) => {
                let key = format!("single|{}|{}", point.app, point.threads);
                let cap = match capacities.get(&key) {
                    Some(cap) => *cap,
                    None => {
                        let samples = self.spec.requests.min(800).max(point.threads);
                        let cap = capacity_qps(built, point.threads, samples);
                        capacities.insert(key, cap);
                        cap
                    }
                };
                capacity = Some(cap);
                Some((cap * fraction).max(1.0))
            }
            (None, None) => None,
        };

        let seeds = self.repeat_seeds(point_seed);
        let mut runs: Vec<RunReport> = Vec::with_capacity(seeds.len());
        for seed in &seeds {
            let report = match &self.spec.load {
                LoadSpec::Scenario(scenario_spec) => {
                    let scenario = self.build_scenario(scenario_spec, point.queue);
                    let factories =
                        Self::class_factories(*seed, scenario.class_count(), |s| built.factory(s));
                    tailbench_scenario::execute_scenario(
                        &built.app,
                        factories,
                        &scenario,
                        point.mode.to_harness(),
                        point.threads,
                        *seed,
                        model,
                    )?
                }
                _ => {
                    let config = self.steady_config(point, offered_qps, *seed);
                    let mut factory = built.factory(*seed);
                    runner::execute(&built.app, factory.as_mut(), &config, model)?
                }
            };
            runs.push(report);
        }
        let report = if runs.len() == 1 {
            PointReport::Single(runs.pop().expect("one run"))
        } else {
            PointReport::Multi(MultiRunReport::from_runs(runs, 0.05, self.spec.repeats))
        };
        Ok(ExperimentPoint {
            coords: PointCoords {
                app: point.app.clone(),
                mode: point.mode,
                threads: point.threads,
                shards: None,
                replication: None,
                load_fraction: point.fraction,
                hedge: None,
                mitigation: point.mitigation.clone(),
            },
            capacity_qps: capacity,
            hedge_delay_ns: None,
            report,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_cluster_point(
        &self,
        point: &GridPoint,
        topology: TopologySpec,
        builder: &dyn AppBuilder,
        scale: Scale,
        model: Option<&dyn CostModel>,
        point_seed: u64,
        clusters: &mut BTreeMap<(String, usize, usize), ClusterApp>,
        capacities: &mut BTreeMap<String, f64>,
        baselines: &mut BTreeMap<String, LatencyStats>,
    ) -> Result<ExperimentPoint, HarnessError> {
        let shards = point.shards.unwrap_or(topology.shards).max(1);
        let replication = topology.replication.max(1);
        let cluster_key = (point.app.clone(), shards, replication);
        if !clusters.contains_key(&cluster_key) {
            clusters.insert(
                cluster_key.clone(),
                builder.build_cluster(shards, replication, scale),
            );
        }
        let built = &clusters[&cluster_key];
        let fanout = topology.fanout.resolve(builder.default_fanout());
        let base_cluster = ClusterConfig::new(shards, fanout)
            .with_replication(replication)
            .with_selector(point.selector.to_core())
            .with_tied(point.tied);

        let mut capacity = None;
        let offered_qps = match (point.qps, point.fraction) {
            (Some(qps), _) => Some(qps),
            (None, Some(fraction)) => {
                let key = format!(
                    "cluster|{}|{}|{}x{}|{}|{}",
                    point.app,
                    point.threads,
                    shards,
                    replication,
                    base_cluster.fanout.name(),
                    point.mode.name()
                );
                let cap = match capacities.get(&key) {
                    Some(cap) => *cap,
                    None => {
                        let cap = cluster_capacity_qps(
                            built,
                            &base_cluster,
                            point.mode.to_harness(),
                            point.threads,
                            self.spec.requests.min(300),
                            model,
                        )?;
                        capacities.insert(key, cap);
                        cap
                    }
                };
                capacity = Some(cap);
                Some((cap * fraction).max(1.0))
            }
            (None, None) => None,
        };

        // Resolve the hedge trigger; percentile triggers need an unhedged baseline at
        // the same coordinates (cached, measured with the root seed like the point
        // itself would be in a single-point run).
        let hedge_spec = point.hedge.flatten();
        let hedge_delay_ns = match hedge_spec {
            None => None,
            Some(HedgeSpec::DelayNs(delay_ns)) => Some(delay_ns.max(1)),
            Some(HedgeSpec::Percentile(p)) => {
                let key = baseline_key(point, shards, replication, base_cluster.fanout.name());
                let legs = match baselines.get(&key) {
                    Some(stats) => *stats,
                    None => {
                        let baseline = self.execute_cluster_once(
                            point,
                            built,
                            &base_cluster,
                            offered_qps,
                            self.spec.seed,
                            model,
                        )?;
                        let stats = baseline.shard_union_sojourn;
                        baselines.insert(key, stats);
                        stats
                    }
                };
                Some(percentile_stat(&legs, p).max(1))
            }
        };
        let hedged_cluster = match hedge_delay_ns {
            Some(delay_ns) => base_cluster
                .clone()
                .with_hedge(HedgePolicy::after_ns(delay_ns)),
            None => base_cluster.clone(),
        };

        let seeds = self.repeat_seeds(point_seed);
        let mut runs: Vec<ClusterReport> = Vec::with_capacity(seeds.len());
        for seed in &seeds {
            runs.push(self.execute_cluster_once(
                point,
                built,
                &hedged_cluster,
                offered_qps,
                *seed,
                model,
            )?);
        }
        let report = if runs.len() == 1 {
            PointReport::Cluster(runs.pop().expect("one run"))
        } else {
            PointReport::ClusterMulti(runs)
        };
        Ok(ExperimentPoint {
            coords: PointCoords {
                app: point.app.clone(),
                mode: point.mode,
                threads: point.threads,
                shards: Some(shards),
                replication: Some(replication),
                load_fraction: point.fraction,
                hedge: point.hedge,
                mitigation: point.mitigation.clone(),
            },
            capacity_qps: capacity,
            hedge_delay_ns,
            report,
        })
    }

    /// One cluster run of one point (steady or scenario load).  Any hedge policy is
    /// already baked into `cluster`.
    fn execute_cluster_once(
        &self,
        point: &GridPoint,
        built: &ClusterApp,
        cluster: &ClusterConfig,
        offered_qps: Option<f64>,
        seed: u64,
        model: Option<&dyn CostModel>,
    ) -> Result<ClusterReport, HarnessError> {
        match &self.spec.load {
            LoadSpec::Scenario(scenario_spec) => {
                let scenario = self.build_scenario(scenario_spec, point.queue);
                let factories =
                    Self::class_factories(seed, scenario.class_count(), |s| built.factory(s));
                tailbench_scenario::execute_cluster_scenario(
                    &built.instances,
                    factories,
                    &scenario,
                    cluster,
                    point.mode.to_harness(),
                    point.threads,
                    seed,
                    model,
                )
            }
            _ => {
                let config = self.steady_config(point, offered_qps, seed);
                let mut factory = built.factory(seed);
                runner::execute_cluster(&built.instances, factory.as_mut(), &config, cluster, model)
            }
        }
    }
}

/// Cache key for the unhedged percentile-trigger baselines.
///
/// Every coordinate that changes the unhedged leg-latency distribution must appear
/// here: app, mode, threads, shards × replication, **fan-out policy** (a broadcast and
/// a partitioned cluster at otherwise identical coordinates have very different leg
/// distributions), the replica selector, tied dispatch, the admission policy, and the
/// offered load.
fn baseline_key(point: &GridPoint, shards: usize, replication: usize, fanout: &str) -> String {
    format!(
        "{}|{}|{}|{}x{}|{}|{}|{}|{:?}|{:?}|{:?}",
        point.app,
        point.mode.name(),
        point.threads,
        shards,
        replication,
        fanout,
        point.selector.name(),
        point.tied,
        point.queue,
        point.fraction.map(f64::to_bits),
        point.qps.map(f64::to_bits),
    )
}

/// Reads the supported percentile off a [`LatencyStats`].
fn percentile_stat(stats: &LatencyStats, p: f64) -> u64 {
    debug_assert!(SUPPORTED_HEDGE_PERCENTILES.contains(&p));
    if p <= 0.5 {
        stats.p50_ns
    } else if p <= 0.9 {
        stats.p90_ns
    } else if p <= 0.95 {
        stats.p95_ns
    } else if p <= 0.99 {
        stats.p99_ns
    } else {
        stats.p999_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tailbench_core::app::{EchoApp, InstructionRateModel};

    /// A fixed-cost echo workload with a deterministic cost model: service time is
    /// exactly `spin_iters + 10` ns at 1 ns/instruction, so DES results are pinned.
    struct Echo {
        name: &'static str,
        spin_iters: u64,
    }

    impl AppBuilder for Echo {
        fn name(&self) -> &str {
            self.name
        }
        fn build(&self, _scale: Scale) -> BenchApp {
            BenchApp::new(
                self.name,
                Arc::new(EchoApp {
                    spin_iters: self.spin_iters,
                }),
                |_| Box::new(|| b"golden".to_vec()),
            )
        }
        fn cost_model(&self) -> Box<dyn CostModel> {
            Box::new(InstructionRateModel {
                ns_per_instruction: 1.0,
            })
        }
    }

    fn echo_registry() -> Registry {
        let mut registry = Registry::empty();
        registry.register(Box::new(Echo {
            name: "echo",
            spin_iters: 100_000,
        }));
        registry
    }

    fn echo_spec() -> ExperimentSpec {
        ExperimentSpec::new("unit", "echo")
            .with_mode(ModeSpec::Simulated)
            .with_load(LoadSpec::Qps(5_000.0))
            .with_requests(500)
            .with_warmup(50)
            .with_seed(0x601D)
    }

    #[test]
    fn single_point_runs_and_is_deterministic() {
        let a = Experiment::new(echo_spec())
            .with_registry(echo_registry())
            .run()
            .unwrap();
        let b = Experiment::new(echo_spec())
            .with_registry(echo_registry())
            .run()
            .unwrap();
        assert_eq!(a.points.len(), 1);
        let (ra, rb) = (a.points[0].report.headline(), b.points[0].report.headline());
        assert_eq!(ra.sojourn.p99_ns, rb.sojourn.p99_ns);
        assert_eq!(ra.requests, 500);
        assert_eq!(ra.configuration, "simulated");
    }

    #[test]
    fn unknown_app_is_an_actionable_error() {
        let err = Experiment::new(echo_spec())
            .with_registry(Registry::empty())
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("unknown app(s) echo"), "{err}");
    }

    #[test]
    fn sweep_grid_multiplies_axes_in_order() {
        let spec = echo_spec()
            .with_axis(SweepAxis::Qps(vec![2_000.0, 5_000.0]))
            .with_axis(SweepAxis::Threads(vec![1, 2]));
        let output = Experiment::new(spec)
            .with_registry(echo_registry())
            .run()
            .unwrap();
        assert_eq!(output.points.len(), 4);
        // Later axes vary fastest.
        assert_eq!(output.points[0].coords.threads, 1);
        assert_eq!(output.points[1].coords.threads, 2);
        assert_eq!(
            output.points[0].report.headline().offered_qps,
            Some(2_000.0)
        );
        assert_eq!(
            output.points[2].report.headline().offered_qps,
            Some(5_000.0)
        );
        // More threads drain the same load no slower at p99.
        assert!(
            output.points[1].report.headline().sojourn.p99_ns
                <= output.points[0].report.headline().sojourn.p99_ns
        );
    }

    #[test]
    fn fraction_load_probes_capacity_once_per_combination() {
        let spec = echo_spec()
            .with_load(LoadSpec::FractionOfCapacity(0.5))
            .with_axis(SweepAxis::LoadFraction(vec![0.2, 0.6]));
        let output = Experiment::new(spec)
            .with_registry(echo_registry())
            .run()
            .unwrap();
        assert_eq!(output.points.len(), 2);
        let cap0 = output.points[0].capacity_qps.unwrap();
        let cap1 = output.points[1].capacity_qps.unwrap();
        assert_eq!(cap0, cap1, "capacity probe must be cached");
        let q0 = output.points[0].report.headline().offered_qps.unwrap();
        let q1 = output.points[1].report.headline().offered_qps.unwrap();
        assert!((q0 / cap0 - 0.2).abs() < 1e-9);
        assert!((q1 / cap1 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn repeats_aggregate_with_confidence_intervals() {
        let spec = echo_spec().with_repeats(3, SeedPolicy::Derive);
        let output = Experiment::new(spec)
            .with_registry(echo_registry())
            .run()
            .unwrap();
        let PointReport::Multi(multi) = &output.points[0].report else {
            panic!("repeats > 1 must aggregate");
        };
        assert_eq!(multi.runs.len(), 3);
        assert!(multi.p95_ci.half_width >= 0.0);
        // Derived seeds re-randomize arrivals, so runs differ.
        assert_ne!(multi.runs[0].sojourn.p99_ns, multi.runs[1].sojourn.p99_ns);
    }

    #[test]
    fn cluster_topology_runs_through_the_cluster_harness() {
        let mut registry = echo_registry();
        registry.register(Box::new(Echo {
            name: "echo",
            spin_iters: 100_000,
        }));
        let spec = echo_spec()
            .with_topology(TopologySpec::sharded(4).with_fanout(FanoutSpec::Broadcast))
            .with_axis(SweepAxis::Shards(vec![1, 4]));
        let output = Experiment::new(spec).with_registry(registry).run().unwrap();
        assert_eq!(output.points.len(), 2);
        let one = output.points[0].report.cluster().unwrap();
        let four = output.points[1].report.cluster().unwrap();
        assert_eq!(one.shards, 1);
        assert_eq!(four.shards, 4);
        // Broadcast hits every shard with the full stream…
        assert_eq!(four.per_shard.len(), 4);
        for shard in &four.per_shard {
            assert_eq!(shard.requests, four.cluster.requests);
        }
        // …and the end-to-end request waits for its slowest leg, so the cluster tail
        // dominates every shard's.
        assert!(
            four.cluster.sojourn.p99_ns >= four.max_shard_p99_ns(),
            "cluster p99 {} must dominate shard p99 {}",
            four.cluster.sojourn.p99_ns,
            four.max_shard_p99_ns()
        );
    }

    #[test]
    fn mitigation_axis_applies_one_policy_per_point() {
        let spec = ExperimentSpec::new("mitigation", "echo")
            .with_mode(ModeSpec::Simulated)
            .with_load(LoadSpec::Qps(4_000.0))
            .with_requests(400)
            .with_warmup(40)
            .with_seed(0x5EED)
            .with_topology(
                TopologySpec::sharded(2)
                    .with_replication(2)
                    .with_fanout(FanoutSpec::Broadcast),
            )
            .with_axis(SweepAxis::Mitigation(vec![
                MitigationSpec::Baseline,
                MitigationSpec::Tied,
                MitigationSpec::Selector(SelectorSpec::LeastLoaded),
                MitigationSpec::Queue(QueuePolicySpec::DropDeadline {
                    capacity: 256,
                    slo_ns: 50_000_000,
                }),
            ]));
        let output = Experiment::new(spec)
            .with_registry(echo_registry())
            .run()
            .unwrap();
        assert_eq!(output.points.len(), 4);
        let labels: Vec<&str> = output
            .points
            .iter()
            .map(|p| p.coords.mitigation.as_deref().unwrap())
            .collect();
        assert_eq!(
            labels,
            [
                "none",
                "tied",
                "least-loaded",
                "drop-deadline(256,50000000ns)"
            ]
        );
        // Each policy reaches the cluster harness: the baseline is a plain cluster,
        // tied reports duplicate-dispatch stats, the selector shows up in the
        // configuration tag, and the shed policy reaches the per-instance queues.
        let baseline = output.points[0].report.cluster().unwrap();
        assert!(baseline.hedge.is_none());
        let tied = output.points[1].report.cluster().unwrap();
        let tied_stats = tied.hedge.expect("tied runs report dispatch stats");
        assert!(
            tied_stats.issued > 0,
            "tied dispatches a second copy per leg"
        );
        assert!(
            tied.cluster.configuration.contains("tied"),
            "{}",
            tied.cluster.configuration
        );
        let selector = output.points[2].report.cluster().unwrap();
        assert!(
            selector.cluster.configuration.contains("least-loaded"),
            "{}",
            selector.cluster.configuration
        );
        let shed = output.points[3].report.cluster().unwrap();
        assert!(
            shed.cluster.queue_depth.policy.contains("drop-deadline"),
            "{}",
            shed.cluster.queue_depth.policy
        );
        // The table labels rows by policy.
        let md = output.to_markdown();
        assert!(md.contains("| policy |"), "{md}");
        assert!(md.contains("| least-loaded |"), "{md}");
    }

    #[test]
    fn baseline_cache_keys_separate_every_distribution_coordinate() {
        // Regression: the percentile-trigger baseline cache once keyed only on
        // app/mode/threads/shape/load — two points differing in fan-out (or selector,
        // or tied dispatch) silently shared one baseline, so the second point's hedge
        // trigger was resolved against the wrong leg distribution.
        let point = GridPoint {
            app: "echo".into(),
            mode: ModeSpec::Simulated,
            threads: 1,
            shards: Some(4),
            fraction: Some(0.7),
            qps: None,
            hedge: None,
            selector: SelectorSpec::RoundRobin,
            tied: false,
            queue: None,
            mitigation: None,
        };
        let base = baseline_key(&point, 4, 2, "broadcast");
        assert_ne!(base, baseline_key(&point, 4, 2, "partition"), "fan-out");
        let mut selector = point.clone();
        selector.selector = SelectorSpec::LeastLoaded;
        assert_ne!(base, baseline_key(&selector, 4, 2, "broadcast"), "selector");
        let mut tied = point.clone();
        tied.tied = true;
        assert_ne!(base, baseline_key(&tied, 4, 2, "broadcast"), "tied");
        let mut queued = point.clone();
        queued.queue = Some(QueuePolicySpec::Drop { capacity: 64 });
        assert_ne!(base, baseline_key(&queued, 4, 2, "broadcast"), "queue");
        // Identical coordinates still share the cache entry.
        assert_eq!(base, baseline_key(&point.clone(), 4, 2, "broadcast"));
    }

    #[test]
    fn percentile_hedge_resolves_against_an_unhedged_baseline() {
        let spec = ExperimentSpec::new("hedge", "echo")
            .with_mode(ModeSpec::Simulated)
            .with_load(LoadSpec::Qps(4_000.0))
            .with_requests(400)
            .with_warmup(40)
            .with_seed(0x5EED)
            .with_topology(
                TopologySpec::sharded(2)
                    .with_replication(2)
                    .with_fanout(FanoutSpec::Broadcast),
            )
            .with_axis(SweepAxis::Hedge(vec![
                None,
                Some(HedgeSpec::Percentile(0.95)),
            ]));
        let output = Experiment::new(spec)
            .with_registry(echo_registry())
            .run()
            .unwrap();
        assert_eq!(output.points.len(), 2);
        let unhedged = &output.points[0];
        let hedged = &output.points[1];
        assert_eq!(unhedged.hedge_delay_ns, None);
        assert!(unhedged.report.cluster().unwrap().hedge.is_none());
        let delay = hedged.hedge_delay_ns.expect("resolved trigger");
        assert!(delay > 0);
        let stats = hedged
            .report
            .cluster()
            .unwrap()
            .hedge
            .expect("hedged run reports hedge stats");
        assert!(stats.issued > 0, "a p95 trigger must fire sometimes");
    }

    #[test]
    fn interference_windows_scale_with_the_nominal_span() {
        let slow = ExperimentSpec::new("slow", "echo")
            .with_mode(ModeSpec::Simulated)
            .with_load(LoadSpec::Qps(3_000.0))
            .with_requests(600)
            .with_warmup(60)
            .with_seed(7)
            .with_fault(FaultSpec {
                target: FaultTargetSpec::All,
                start_frac: 0.0,
                end_frac: 1.0,
                kind: FaultKindSpec::SlowDown { factor: 8.0 },
            });
        let mut clean = slow.clone();
        clean.interference.clear();
        clean.name = "clean".into();
        let registry = echo_registry;
        let slow_out = Experiment::new(slow)
            .with_registry(registry())
            .run()
            .unwrap();
        let clean_out = Experiment::new(clean)
            .with_registry(registry())
            .run()
            .unwrap();
        let slow_p99 = slow_out.points[0].report.headline().sojourn.p99_ns;
        let clean_p99 = clean_out.points[0].report.headline().sojourn.p99_ns;
        assert!(
            slow_p99 > 4 * clean_p99,
            "an 8x whole-run slowdown must blow up the tail: {slow_p99} vs {clean_p99}"
        );
    }

    #[test]
    fn scenario_load_reports_phases_and_classes() {
        let spec = ExperimentSpec::new("scenario", "echo")
            .with_mode(ModeSpec::Simulated)
            .with_seed(42)
            .with_load(LoadSpec::Scenario(ScenarioSpec {
                phases: vec![
                    PhaseSpec {
                        duration_ns: 100_000_000,
                        shape: ShapeSpec::Constant { qps: 2_000.0 },
                    },
                    PhaseSpec {
                        duration_ns: 100_000_000,
                        shape: ShapeSpec::Burst {
                            base_qps: 2_000.0,
                            burst_qps: 12_000.0,
                            period_ns: 50_000_000,
                            duty: 0.5,
                        },
                    },
                ],
                classes: vec![
                    ClassSpec {
                        name: "interactive".into(),
                        weight: 0.8,
                    },
                    ClassSpec {
                        name: "batch".into(),
                        weight: 0.2,
                    },
                ],
                warmup_fraction: 0.1,
            }));
        let output = Experiment::new(spec)
            .with_registry(echo_registry())
            .run()
            .unwrap();
        let report = output.points[0].report.headline();
        assert_eq!(report.per_class.len(), 2);
        assert_eq!(report.per_class[0].name, "interactive");
        assert_eq!(report.per_phase.len(), 2);
        assert!(
            report.per_phase[1].sojourn.p99_ns > report.per_phase[0].sojourn.p99_ns,
            "the burst phase must have the worse tail"
        );
    }
}
