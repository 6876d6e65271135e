//! The sweep grid of a spec and the harness configuration of each of its points.
//!
//! [`ExperimentSpec::validate`] and `Experiment::run` reach a point's
//! [`BenchmarkConfig`] and [`ClusterConfig`] through the functions here, so a spec is
//! checked by the harness's own rules (`validate_cluster`, which runs
//! `BenchmarkConfig::validate` first) on the very configs a run would execute.

use crate::spec::{
    ExperimentSpec, HedgeSpec, LoadSpec, MitigationSpec, ScenarioSpec, SeedPolicy, SweepAxis,
};
use tailbench_core::config::{
    BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode, HedgePolicy, ReplicaSelector,
};
use tailbench_core::error::HarnessError;
use tailbench_core::interference::{FaultEvent, InterferencePlan};
use tailbench_core::queue::AdmissionPolicy;
use tailbench_core::traffic::LoadMode;
use tailbench_scenario::Scenario;
use tailbench_workloads::rng::derive_seed;

/// One resolved sweep-grid point (before measurement).
#[derive(Debug, Clone)]
pub(crate) struct GridPoint {
    pub(crate) app: String,
    pub(crate) mode: HarnessMode,
    pub(crate) threads: usize,
    pub(crate) shards: Option<usize>,
    pub(crate) fraction: Option<f64>,
    pub(crate) qps: Option<f64>,
    pub(crate) hedge: Option<Option<HedgeSpec>>,
    pub(crate) selector: ReplicaSelector,
    pub(crate) tied: bool,
    pub(crate) queue: Option<AdmissionPolicy>,
    pub(crate) mitigation: Option<String>,
}

impl GridPoint {
    /// The point's coordinates as an error message names them.
    fn describe(&self) -> String {
        let mut coords = vec![
            format!("app {}", self.app),
            format!("mode {}", self.mode.name()),
            format!("threads {}", self.threads),
        ];
        coords.extend(self.shards.map(|shards| format!("shards {shards}")));
        coords.extend(self.qps.map(|qps| format!("qps {qps}")));
        coords.extend(self.fraction.map(|fraction| format!("load {fraction}")));
        coords.extend(self.hedge.map(|hedge| match hedge {
            Some(hedge) => MitigationSpec::Hedge(hedge).name(),
            None => "unhedged".to_string(),
        }));
        coords.extend(self.mitigation.as_ref().map(|m| format!("mitigation {m}")));
        coords.join(", ")
    }
}

impl ExperimentSpec {
    /// Expands the sweep axes into the Cartesian grid, in spec order.
    pub(crate) fn grid(&self) -> Vec<GridPoint> {
        let (fraction, qps) = match self.load {
            LoadSpec::FractionOfCapacity(fraction) => (Some(fraction), None),
            LoadSpec::Qps(qps) => (None, Some(qps)),
            _ => (None, None),
        };
        let base = GridPoint {
            app: self.app.clone(),
            mode: self.mode,
            threads: self.threads,
            shards: self.topology.map(|t| t.shards),
            fraction,
            qps,
            hedge: self.topology.and_then(|t| t.hedge).map(Some),
            selector: self.topology.map(|t| t.selector).unwrap_or_default(),
            tied: self.topology.is_some_and(|t| t.tied),
            queue: self.queue,
            mitigation: None,
        };
        let mut grid = vec![base];
        for axis in &self.sweep {
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
                            p.selector = ReplicaSelector::RoundRobin;
                            p.tied = false;
                            p.queue = self.queue;
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

    /// The seed of grid point `index`.  Sweep points are decorrelated by a derived
    /// seed — except on a mitigation axis, where the rows are a controlled comparison
    /// and must face the identical arrival trace (and the identical fault schedule):
    /// there the root seed is shared, so any difference between rows is the policy
    /// itself.  A single-point grid uses the root seed too.
    pub(crate) fn point_seed(&self, index: usize, point: &GridPoint, single_point: bool) -> u64 {
        if single_point || point.mitigation.is_some() {
            self.seed
        } else {
            derive_seed(self.seed, index as u64)
        }
    }

    /// Seeds for the repeats of one point: repeat 0 of a single-repeat point uses the
    /// point seed directly (exact compatibility with a direct runner call); multiple
    /// repeats derive per-repeat seeds with `derive_seed(point_seed, repeat)`, unless
    /// the policy pins them.
    pub(crate) fn repeat_seeds(&self, point_seed: u64) -> Vec<u64> {
        if self.repeats == 1 {
            return vec![point_seed];
        }
        (0..self.repeats)
            .map(|k| match self.seed_policy {
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
            .interference
            .iter()
            .map(|fault| FaultEvent {
                target: fault.target,
                start_ns: (fault.start_frac * nominal_span_ns) as u64,
                end_ns: (fault.end_frac * nominal_span_ns) as u64,
                kind: fault.kind,
            })
            .collect();
        InterferencePlan { events }
    }

    /// The core `Scenario` for a scenario-load point (with the point's admission
    /// policy, which a mitigation axis may have overridden).
    pub(crate) fn build_scenario(
        &self,
        scenario: &ScenarioSpec,
        queue: Option<AdmissionPolicy>,
    ) -> Scenario {
        let span_ns: u64 = scenario.phases.iter().map(|p| p.duration_ns).sum();
        let mut built = Scenario::new(self.name.clone(), scenario.phases.clone())
            .with_warmup_fraction(scenario.warmup_fraction)
            .with_interference(self.interference_plan(span_ns as f64));
        if let Some(queue) = queue {
            built = built.with_admission(queue);
        }
        if !scenario.classes.is_empty() {
            built = built.with_classes(scenario.classes.clone());
        }
        built
    }

    /// The steady-load benchmark config for one point (everything except scenarios).
    pub(crate) fn steady_config(
        &self,
        point: &GridPoint,
        offered_qps: Option<f64>,
        seed: u64,
    ) -> BenchmarkConfig {
        // The point's threads go in unclamped, so the harness rejects a zero.
        let mut config = BenchmarkConfig {
            worker_threads: point.threads,
            ..BenchmarkConfig::new(offered_qps.unwrap_or(1.0).max(1.0), self.requests)
        }
        .with_mode(point.mode)
        .with_warmup(self.warmup_requests())
        .with_seed(seed);
        if let LoadSpec::Closed { think_ns } = self.load {
            config = config.with_load(LoadMode::Closed { think_ns });
        }
        if let Some(queue) = point.queue {
            config = config.with_admission(queue);
        }
        if !self.interference.is_empty() {
            let total = config.total_requests() as f64;
            let span_ns = offered_qps.map_or(0.0, |qps| total / qps * 1e9);
            config = config.with_interference(self.interference_plan(span_ns));
        }
        config
    }

    /// The cluster layout of one point, hedged after `hedge_delay_ns` when that is
    /// set.  A spec without a topology runs its single server as the 1×1 broadcast
    /// cluster.  A topology's shards and replication are the spec's own, unclamped, so
    /// the harness sees (and rejects) exactly what the spec says; `default_fanout`
    /// stands in for an `"auto"` fan-out.
    pub(crate) fn cluster_config(
        &self,
        point: &GridPoint,
        default_fanout: FanoutPolicy,
        hedge_delay_ns: Option<u64>,
    ) -> ClusterConfig {
        let Some(topology) = self.topology else {
            return ClusterConfig::new(1, FanoutPolicy::Broadcast);
        };
        ClusterConfig {
            shards: point.shards.unwrap_or(topology.shards),
            replication: topology.replication,
            fanout: topology.fanout.unwrap_or(default_fanout),
            hedge: hedge_delay_ns.map(HedgePolicy::after_ns),
            selector: point.selector,
            tied: point.tied,
        }
    }

    /// Checks every run of every grid point with the harness's own rules, on the
    /// configs `Experiment::run` would build.
    ///
    /// Capacity-relative rates, hedge delays (percentile triggers are resolved against
    /// a measured baseline) and the registry's default fan-out are only known once a
    /// run probes and resolves them; the harness rules read none of them, so a
    /// positive rate, a 1 ns delay and broadcast stand in.
    pub(crate) fn validate_points(&self) -> Result<(), HarnessError> {
        let grid = self.grid();
        for (index, point) in grid.iter().enumerate() {
            let offered_qps = point.qps.or(point.fraction.map(|_| 1.0));
            let delay_ns = point.hedge.flatten().map(|_| 1);
            let cluster = self.cluster_config(point, FanoutPolicy::Broadcast, delay_ns);
            let seeds = self.repeat_seeds(self.point_seed(index, point, grid.len() == 1));
            for seed in seeds {
                let config = match &self.load {
                    LoadSpec::Scenario(scenario) => {
                        let scenario = self.build_scenario(scenario, point.queue);
                        let compiled = scenario.compile(seed);
                        scenario.benchmark_config(&compiled, point.mode, point.threads, seed)
                    }
                    _ => self.steady_config(point, offered_qps, seed),
                };
                config.validate_cluster(&cluster).map_err(|e| match e {
                    HarnessError::Config(msg) => HarnessError::Config(format!(
                        "spec '{}': point {index} ({}): {msg}",
                        self.name,
                        point.describe()
                    )),
                    other => other,
                })?;
            }
        }
        Ok(())
    }
}
