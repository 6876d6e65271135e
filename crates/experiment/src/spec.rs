//! The declarative experiment specification.
//!
//! An [`ExperimentSpec`] is the single configuration object of the suite: it selects a
//! workload from the registry, a harness mode, an optional cluster topology, a load
//! model (absolute QPS, fraction of measured capacity, closed-loop, or a full phased
//! scenario), sweep axes, and the repeat/seed policy.  `Experiment::run()` turns one
//! spec into one structured output — the "one configuration, many measured variants"
//! methodology of the paper, with TailBench++-style multi-server flexibility.
//!
//! A spec holds the core configuration types directly — [`HarnessMode`],
//! [`FanoutPolicy`], [`ReplicaSelector`], [`AdmissionPolicy`], [`LoadPhase`],
//! [`ClientClass`], [`FaultTarget`], [`FaultKind`] — and adds a type only where it
//! means more than the core one: a hedge trigger may be a percentile, a load a
//! fraction of capacity, a fault window fractions of the run span.  Specs round-trip
//! **exactly** through the codec in `crate::codec` — integers and floats are
//! bit-preserving, and optional fields are omitted when they hold their defaults, so
//! `from_json(to_json(spec)) == spec` structurally.

use crate::codec::Codec;
use crate::json::Json;
use tailbench_core::config::{FanoutPolicy, HarnessMode, ReplicaSelector};
use tailbench_core::error::HarnessError;
use tailbench_core::interference::{FaultKind, FaultTarget};
use tailbench_core::queue::AdmissionPolicy;
use tailbench_scenario::{ClientClass, LoadPhase, PhaseShape};

/// Workload scale used by experiments and the figure binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny request budgets for CI smoke runs: just enough to prove a reproduction
    /// still executes end to end.
    Smoke,
    /// Small inputs so that the full experiment set completes in minutes.
    Quick,
    /// Larger inputs closer to the paper's configurations.
    Full,
}

impl Scale {
    /// Reads the scale from the `TAILBENCH_SCALE` environment variable (`quick` is the
    /// default, `full` selects the larger inputs, `smoke` the CI smoke budget).
    #[must_use]
    pub fn from_env() -> Scale {
        std::env::var("TAILBENCH_SCALE")
            .ok()
            .and_then(|name| Scale::parse(&name))
            .unwrap_or(Scale::Quick)
    }

    /// Number of measured requests per run appropriate for this scale, given a per-app
    /// budget multiplier.
    #[must_use]
    pub fn requests(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Smoke => (quick / 10).clamp(20, 100),
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Parses a scale name as spec files write it (`smoke` / `quick` / `full`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Scale> {
        Scale::decode(&Json::str(name), "scale").ok()
    }
}

/// How the hedged-request trigger delay is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HedgeSpec {
    /// Hedge after an absolute delay in nanoseconds.
    DelayNs(u64),
    /// Hedge at the given percentile of the *unhedged* leg-latency distribution: the
    /// runner measures (and caches) an unhedged baseline at the same sweep point and
    /// reads the trigger off its shard-union sojourn distribution.  Supported
    /// percentiles: 0.5, 0.9, 0.95, 0.99, 0.999.
    Percentile(f64),
}

/// The percentiles [`HedgeSpec::Percentile`] accepts (the ones a
/// [`LatencyStats`](tailbench_core::report::LatencyStats) carries).
pub const SUPPORTED_HEDGE_PERCENTILES: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

impl HedgeSpec {
    /// The report label of a percentile trigger: `0.95` is `p95`, `0.999` is `p99.9`.
    #[must_use]
    pub(crate) fn percentile_label(p: f64) -> String {
        let label = format!("{:.4}", p * 100.0);
        format!("p{}", label.trim_end_matches('0').trim_end_matches('.'))
    }
}

/// Cluster topology of an experiment: `shards * replication` server instances behind a
/// client-side router.
///
/// A spec **with** a topology always runs through the cluster harness (even for one
/// shard, so fan-out sweeps include the `shards = 1` baseline on the same code path);
/// a spec without one runs the single-server build as the 1×1 cluster, with the
/// single-server capacity probe and single-server reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologySpec {
    /// Number of data shards.
    pub shards: usize,
    /// Replicas per shard (1 = no replication).
    pub replication: usize,
    /// Fan-out policy (`None` = the workload's registry default, `"auto"` in JSON).
    pub fanout: Option<FanoutPolicy>,
    /// Hedged-request policy (`None` = no hedging; requires `replication >= 2`).
    pub hedge: Option<HedgeSpec>,
    /// How the router picks a replica within a shard (default round-robin).
    pub selector: ReplicaSelector,
    /// Tied requests: dispatch every request to two replicas up front, first response
    /// wins, the loser is retracted.  Requires `replication >= 2` and no hedge.
    pub tied: bool,
}

impl TopologySpec {
    /// A topology with the given shard count, no replication, the registry fan-out.
    #[must_use]
    pub fn sharded(shards: usize) -> TopologySpec {
        TopologySpec {
            shards,
            replication: 1,
            fanout: None,
            hedge: None,
            selector: ReplicaSelector::RoundRobin,
            tied: false,
        }
    }

    /// Sets the replication factor.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> TopologySpec {
        self.replication = replication;
        self
    }

    /// Sets the fan-out policy.
    #[must_use]
    pub fn with_fanout(mut self, fanout: FanoutPolicy) -> TopologySpec {
        self.fanout = Some(fanout);
        self
    }

    /// Sets the hedged-request policy.
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgeSpec) -> TopologySpec {
        self.hedge = Some(hedge);
        self
    }

    /// Sets the replica selector.
    #[must_use]
    pub fn with_selector(mut self, selector: ReplicaSelector) -> TopologySpec {
        self.selector = selector;
        self
    }

    /// Enables tied requests (two replicas up front, first response wins).
    #[must_use]
    pub fn with_tied(mut self, tied: bool) -> TopologySpec {
        self.tied = tied;
        self
    }
}

/// The offered-load model of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSpec {
    /// Open-loop Poisson arrivals at an absolute rate.
    Qps(f64),
    /// Open-loop Poisson arrivals at a fraction of the measured capacity (the runner
    /// probes capacity per app/threads/topology/mode combination and caches it).
    FractionOfCapacity(f64),
    /// Closed-loop arrivals: one client, each request a think time after the last one
    /// was answered (integrated or simulated; the coordinated-omission comparison only).
    Closed {
        /// Think time between response and next request, ns.
        think_ns: u64,
    },
    /// A full phased scenario (bursts, ramps, diurnal waves, client classes).  The
    /// scenario's compiled trace determines the request count; the spec's `requests`
    /// and `warmup` fields are ignored.
    Scenario(ScenarioSpec),
}

/// The load side of a `tailbench_scenario::Scenario`: phases, classes and warmup.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The load phases, played back to back.
    pub phases: Vec<LoadPhase>,
    /// Client classes (empty = one implicit class); each class draws payloads from the
    /// registry factory seeded with a per-class stream.
    pub classes: Vec<ClientClass>,
    /// Fraction of the trace treated as warmup, in `[0, 0.9]`.
    pub warmup_fraction: f64,
}

/// One deterministic fault window, positioned as fractions of the run's nominal span
/// (total requests ÷ offered rate for Poisson loads, the trace span for scenarios), so
/// the same spec scales with the request budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Which instance(s) the fault hits.
    pub target: FaultTarget,
    /// Window start as a fraction of the nominal span, in `[0, 1)`.
    pub start_frac: f64,
    /// Window end as a fraction of the nominal span, in `(start_frac, 1]`.
    pub end_frac: f64,
    /// What the fault does.
    pub kind: FaultKind,
}

/// One tail-mitigation policy of a [`SweepAxis::Mitigation`] axis.
///
/// Each value is a complete router/queue configuration for one grid point: the axis
/// resets hedging, the replica selector, tied dispatch and (for `Queue` values) the
/// admission policy to their baselines, then applies exactly this one mitigation — so
/// the rows of a mitigation sweep are directly comparable single-policy runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MitigationSpec {
    /// No mitigation: round-robin routing, no hedging, the spec's base queue.
    Baseline,
    /// Hedged requests with the given trigger.
    Hedge(HedgeSpec),
    /// Tied requests (two replicas up front, first response wins).
    Tied,
    /// A load-aware replica selector.
    Selector(ReplicaSelector),
    /// An admission (queue) policy, replacing the spec's base queue.
    Queue(AdmissionPolicy),
}

impl MitigationSpec {
    /// The policy label used in report rows (e.g. `none`, `hedge(p95)`,
    /// `drop-deadline(64,2000000ns)`).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            MitigationSpec::Baseline => "none".to_string(),
            MitigationSpec::Hedge(HedgeSpec::DelayNs(delay_ns)) => format!("hedge({delay_ns}ns)"),
            MitigationSpec::Hedge(HedgeSpec::Percentile(p)) => {
                format!("hedge({})", HedgeSpec::percentile_label(*p))
            }
            MitigationSpec::Tied => "tied".to_string(),
            MitigationSpec::Selector(selector) => selector.name().to_string(),
            MitigationSpec::Queue(queue) => queue.label(),
        }
    }
}

/// One sweep axis.  The grid of measured points is the Cartesian product of all axes,
/// in spec order; each axis overrides the corresponding base field of the spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Sweep the workload (registry names).
    App(Vec<String>),
    /// Sweep the harness mode.
    Mode(Vec<HarnessMode>),
    /// Sweep the load as fractions of measured capacity.
    LoadFraction(Vec<f64>),
    /// Sweep absolute offered rates.
    Qps(Vec<f64>),
    /// Sweep the worker-thread count.
    Threads(Vec<usize>),
    /// Sweep the shard count (requires a topology).
    Shards(Vec<usize>),
    /// Sweep the hedged-request trigger (`None` = unhedged; requires a topology with
    /// `replication >= 2`).
    Hedge(Vec<Option<HedgeSpec>>),
    /// Sweep complete tail-mitigation policies (requires a topology; each value is a
    /// single policy applied on top of a reset baseline — see [`MitigationSpec`]).
    Mitigation(Vec<MitigationSpec>),
}

impl SweepAxis {
    /// The axis' column name in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SweepAxis::App(_) => "app",
            SweepAxis::Mode(_) => "mode",
            SweepAxis::LoadFraction(_) => "load",
            SweepAxis::Qps(_) => "qps",
            SweepAxis::Threads(_) => "threads",
            SweepAxis::Shards(_) => "shards",
            SweepAxis::Hedge(_) => "hedge",
            SweepAxis::Mitigation(_) => "mitigation",
        }
    }

    /// Number of values on the axis.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::App(v) => v.len(),
            SweepAxis::Mode(v) => v.len(),
            SweepAxis::LoadFraction(v) => v.len(),
            SweepAxis::Qps(v) => v.len(),
            SweepAxis::Threads(v) => v.len(),
            SweepAxis::Shards(v) => v.len(),
            SweepAxis::Hedge(v) => v.len(),
            SweepAxis::Mitigation(v) => v.len(),
        }
    }

    /// Returns `true` if the axis holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How per-repeat seeds are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedPolicy {
    /// Derive a fresh seed per repeat (`derive_seed(point_seed, k)`), re-randomizing
    /// payloads and interarrivals as the paper's methodology requires.
    Derive,
    /// Reuse the point seed for every repeat (identical runs; for harness debugging).
    Fixed,
}

/// The complete declarative description of one experiment.
///
/// Build one with the fluent methods, serialize with [`ExperimentSpec::to_json_string`]
/// or load from disk with [`ExperimentSpec::from_json_str`], and run it with
/// `Experiment::run()` — single server or cluster, any harness mode, steady or
/// scenario load, with sweeps, repeats and capacity probing handled by the runner.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name (used in output headers and file names).
    pub name: String,
    /// Registry name of the workload (base value; an `App` sweep axis overrides it).
    pub app: String,
    /// Workload scale; `None` reads `TAILBENCH_SCALE` at run time.
    pub scale: Option<Scale>,
    /// Harness mode (base value; a `Mode` axis overrides it).
    pub mode: HarnessMode,
    /// Cluster topology; `None` = plain single-server harness.
    pub topology: Option<TopologySpec>,
    /// Offered-load model.
    pub load: LoadSpec,
    /// Request-queue admission policy; `None` = unbounded (the classic open-loop
    /// queue).  Applies per server instance for cluster points.
    pub queue: Option<AdmissionPolicy>,
    /// Worker threads per server instance.
    pub threads: usize,
    /// Measured requests per point (ignored for scenario loads).
    pub requests: usize,
    /// Warmup requests per point; `None` = `max(requests / 10, 5)`.
    pub warmup: Option<usize>,
    /// Root seed.  A single-point, single-repeat experiment uses it directly (so a
    /// spec reproduces a plain `runner::execute` call bit for bit); sweep points and
    /// repeats derive per-point seeds from it.
    pub seed: u64,
    /// Number of repeats per point (aggregated with confidence intervals when > 1).
    pub repeats: usize,
    /// How per-repeat seeds are chosen.
    pub seed_policy: SeedPolicy,
    /// Deterministic fault windows applied to every point.
    pub interference: Vec<FaultSpec>,
    /// Sweep axes (Cartesian product, spec order).
    pub sweep: Vec<SweepAxis>,
}

/// The default root seed (the same one `BenchmarkConfig::new` uses).
pub const DEFAULT_SEED: u64 = 0x7A11_BE4C;

impl ExperimentSpec {
    /// Creates a spec with sensible defaults: integrated mode, single server, 1
    /// thread, 1000 measured requests at 1000 QPS, one repeat.
    #[must_use]
    pub fn new(name: impl Into<String>, app: impl Into<String>) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            app: app.into(),
            scale: None,
            mode: HarnessMode::Integrated,
            topology: None,
            load: LoadSpec::Qps(1_000.0),
            queue: None,
            threads: 1,
            requests: 1_000,
            warmup: None,
            seed: DEFAULT_SEED,
            repeats: 1,
            seed_policy: SeedPolicy::Derive,
            interference: Vec::new(),
            sweep: Vec::new(),
        }
    }

    /// Sets the workload scale explicitly (otherwise `TAILBENCH_SCALE` decides).
    #[must_use]
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Sets the harness mode.
    #[must_use]
    pub fn with_mode(mut self, mode: HarnessMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the cluster topology.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the load model.
    #[must_use]
    pub fn with_load(mut self, load: LoadSpec) -> Self {
        self.load = load;
        self
    }

    /// Sets the request-queue admission policy.
    #[must_use]
    pub fn with_queue(mut self, queue: AdmissionPolicy) -> Self {
        self.queue = Some(queue);
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the measured request count per point.
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Sets the warmup request count per point.
    #[must_use]
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = Some(warmup);
        self
    }

    /// Sets the root seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the repeat count and seed policy.
    #[must_use]
    pub fn with_repeats(mut self, repeats: usize, seed_policy: SeedPolicy) -> Self {
        self.repeats = repeats;
        self.seed_policy = seed_policy;
        self
    }

    /// Adds a deterministic fault window.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.interference.push(fault);
        self
    }

    /// Adds a sweep axis (axes multiply in the order added).
    #[must_use]
    pub fn with_axis(mut self, axis: SweepAxis) -> Self {
        self.sweep.push(axis);
        self
    }

    /// The warmup request count per point (explicit or derived).
    #[must_use]
    pub fn warmup_requests(&self) -> usize {
        self.warmup.unwrap_or((self.requests / 10).max(5))
    }

    /// Number of grid points the sweep axes produce.
    #[must_use]
    pub fn grid_size(&self) -> usize {
        self.sweep.iter().map(SweepAxis::len).product::<usize>()
    }

    /// Checks the spec before anything is built or run: first the shape of the input
    /// (names, rates, axis values, fault windows, scenario phases, hedge triggers),
    /// then every run of every grid point with the harness's own rules
    /// (`BenchmarkConfig::validate` / `validate_cluster`), on the configs
    /// `Experiment::run` would build.  So `validate` says "no" exactly where `run`
    /// would, before any point is measured.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Config`] with an actionable message for each rejected
    /// input; a harness rule's message names the spec and the failing point's
    /// coordinates.
    pub fn validate(&self) -> Result<(), HarnessError> {
        let fail = |msg: String| Err(HarnessError::Config(format!("spec '{}': {msg}", self.name)));
        if self.app.is_empty() && !self.sweep.iter().any(|a| matches!(a, SweepAxis::App(_))) {
            return fail("no app selected: set `app` or add an `App` sweep axis".into());
        }
        if self.repeats == 0 {
            return fail("repeats is 0; a point needs at least one run".into());
        }
        match &self.load {
            LoadSpec::Qps(qps) => {
                if !qps.is_finite() || *qps <= 0.0 {
                    return fail(format!("load qps must be finite and positive, got {qps}"));
                }
            }
            LoadSpec::FractionOfCapacity(fraction) => {
                if !fraction.is_finite() || *fraction <= 0.0 {
                    return fail(format!(
                        "load fraction must be finite and positive, got {fraction}"
                    ));
                }
            }
            LoadSpec::Closed { .. } => {
                if !self.interference.is_empty() {
                    return fail(
                        "interference windows are fractions of the nominal span, which \
                         closed-loop load does not define; use an open load model"
                            .into(),
                    );
                }
            }
            LoadSpec::Scenario(scenario) => {
                if scenario.phases.is_empty() {
                    return fail("scenario has no phases".into());
                }
                if scenario.phases.iter().any(|p| p.duration_ns == 0) {
                    return fail("scenario phases must have non-zero durations".into());
                }
                for (i, phase) in scenario.phases.iter().enumerate() {
                    let rates: &[f64] = match phase.shape {
                        PhaseShape::Constant { qps } => &[qps],
                        PhaseShape::Ramp { from_qps, to_qps } => &[from_qps, to_qps],
                        PhaseShape::Burst {
                            base_qps,
                            burst_qps,
                            ..
                        } => &[base_qps, burst_qps],
                        PhaseShape::Diurnal { base_qps, .. } => &[base_qps],
                    };
                    if rates.iter().any(|r| !r.is_finite() || *r <= 0.0) {
                        return fail(format!(
                            "scenario phase {i} has a non-positive or non-finite rate; \
                             a zero-rate phase would silently emit no arrivals"
                        ));
                    }
                }
                if !(0.0..=0.9).contains(&scenario.warmup_fraction) {
                    return fail(format!(
                        "scenario warmup_fraction must be in [0, 0.9], got {}",
                        scenario.warmup_fraction
                    ));
                }
                if scenario
                    .classes
                    .iter()
                    .any(|c| !c.weight.is_finite() || c.weight < 0.0)
                    || (!scenario.classes.is_empty()
                        && scenario.classes.iter().map(|c| c.weight).sum::<f64>() <= 0.0)
                {
                    return fail(
                        "scenario class weights must be non-negative with a positive sum".into(),
                    );
                }
            }
        }
        // The largest instance count any grid point can reach, for fault-target bounds.
        let max_instances = match self.topology {
            None => 1,
            Some(topology) => {
                let max_shards = self
                    .sweep
                    .iter()
                    .filter_map(|a| match a {
                        SweepAxis::Shards(values) => values.iter().max().copied(),
                        _ => None,
                    })
                    .max()
                    .unwrap_or(topology.shards)
                    .max(topology.shards);
                max_shards.max(1) * topology.replication.max(1)
            }
        };
        for fault in &self.interference {
            if !fault.start_frac.is_finite()
                || !fault.end_frac.is_finite()
                || fault.start_frac < 0.0
                || fault.end_frac <= fault.start_frac
                || fault.end_frac > 1.0
            {
                return fail(format!(
                    "fault window [{}, {}) must satisfy 0 <= start < end <= 1 \
                     (fractions of the nominal span)",
                    fault.start_frac, fault.end_frac
                ));
            }
            if let FaultTarget::Instance(i) = fault.target {
                if i >= max_instances {
                    return fail(format!(
                        "fault targets instance {i} but at most {max_instances} \
                         instance(s) exist; the fault would silently never fire"
                    ));
                }
            }
        }
        let hedges = self.sweep.iter().flat_map(|axis| match axis {
            SweepAxis::Hedge(values) => values.iter().flatten().copied().collect(),
            SweepAxis::Mitigation(values) => values
                .iter()
                .filter_map(|m| match m {
                    MitigationSpec::Hedge(hedge) => Some(*hedge),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        });
        for hedge in self
            .topology
            .and_then(|t| t.hedge)
            .into_iter()
            .chain(hedges)
        {
            match hedge {
                HedgeSpec::DelayNs(0) => {
                    return fail("hedge delay_ns must be non-zero".into());
                }
                HedgeSpec::Percentile(p) if !SUPPORTED_HEDGE_PERCENTILES.contains(&p) => {
                    return fail(format!(
                        "hedge percentile {p} unsupported; use one of {SUPPORTED_HEDGE_PERCENTILES:?}"
                    ));
                }
                _ => {}
            }
        }
        for axis in &self.sweep {
            if axis.is_empty() {
                return fail(format!("sweep axis '{}' has no values", axis.label()));
            }
            match axis {
                SweepAxis::Shards(_) | SweepAxis::Hedge(_) | SweepAxis::Mitigation(_)
                    if self.topology.is_none() =>
                {
                    return fail(format!(
                        "a {} axis requires a topology (shards, hedging, tied requests and \
                         the other mitigations are cluster policies; add TopologySpec::sharded)",
                        axis.label()
                    ));
                }
                SweepAxis::App(apps) if apps.iter().any(String::is_empty) => {
                    return fail("App axis contains an empty name".into());
                }
                SweepAxis::LoadFraction(v) if v.iter().any(|f| !f.is_finite() || *f <= 0.0) => {
                    return fail("LoadFraction axis values must be finite and positive".into());
                }
                SweepAxis::Qps(v) if v.iter().any(|q| !q.is_finite() || *q <= 0.0) => {
                    return fail("Qps axis values must be finite and positive".into());
                }
                SweepAxis::LoadFraction(_) | SweepAxis::Qps(_)
                    if matches!(self.load, LoadSpec::Closed { .. } | LoadSpec::Scenario(_)) =>
                {
                    return fail(
                        "load axes require an open steady load model (Qps or \
                         FractionOfCapacity) as the base"
                            .into(),
                    );
                }
                _ => {}
            }
        }
        self.validate_points()
    }
}

impl ExperimentSpec {
    /// Encodes to the canonical JSON tree.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.encode()
    }

    /// Encodes to pretty-printed JSON text (the spec-file format the `tailbench` CLI
    /// reads).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_text_pretty()
    }

    /// Decodes from a JSON tree.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Config`] naming the malformed field.
    pub fn from_json(value: &Json) -> Result<ExperimentSpec, HarnessError> {
        ExperimentSpec::decode(value, "spec")
    }

    /// Parses a spec from JSON text (e.g. a spec file).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Config`] for JSON syntax errors (with byte offset) and
    /// for schema violations (naming the field).
    pub fn from_json_str(text: &str) -> Result<ExperimentSpec, HarnessError> {
        let value = crate::json::parse(text)
            .map_err(|e| HarnessError::Config(format!("experiment spec: {e}")))?;
        ExperimentSpec::from_json(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fanout_spec() -> ExperimentSpec {
        ExperimentSpec::new("fanout-sweep", "xapian")
            .with_mode(HarnessMode::Simulated)
            .with_topology(
                TopologySpec::sharded(4)
                    .with_replication(2)
                    .with_fanout(FanoutPolicy::Broadcast)
                    .with_hedge(HedgeSpec::Percentile(0.95)),
            )
            .with_load(LoadSpec::FractionOfCapacity(0.7))
            .with_requests(500)
            .with_warmup(50)
            .with_seed(0x5EED)
            .with_axis(SweepAxis::Shards(vec![1, 2, 4]))
            .with_axis(SweepAxis::Hedge(vec![
                None,
                Some(HedgeSpec::Percentile(0.95)),
            ]))
            .with_fault(FaultSpec {
                target: FaultTarget::Instance(1),
                start_frac: 1.0 / 3.0,
                end_frac: 2.0 / 3.0,
                kind: FaultKind::SlowDown { factor: 4.0 },
            })
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = fanout_spec();
        let text = spec.to_json_string();
        let back = ExperimentSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
        // Serialization is canonical: a second round emits identical text.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn queue_policy_round_trips_and_validates() {
        for queue in [
            AdmissionPolicy::Block { capacity: 256 },
            AdmissionPolicy::Drop { capacity: 1024 },
        ] {
            // fanout_spec is simulated, where block is rejected — use integrated here.
            let spec = fanout_spec()
                .with_mode(HarnessMode::Integrated)
                .with_queue(queue);
            assert!(spec.validate().is_ok());
            let text = spec.to_json_string();
            assert!(text.contains("\"queue\""), "{text}");
            let back = ExperimentSpec::from_json_str(&text).unwrap();
            assert_eq!(back, spec);
        }
        // A block queue cannot backpressure virtual-time arrivals: simulated points
        // (base mode or via a Mode axis) reject it; drop stays legal.
        let block_sim = fanout_spec().with_queue(AdmissionPolicy::Block { capacity: 256 });
        let err = block_sim.validate().unwrap_err().to_string();
        assert!(err.contains("backpressure"), "{err}");
        let block_axis = fanout_spec()
            .with_mode(HarnessMode::Integrated)
            .with_queue(AdmissionPolicy::Block { capacity: 256 })
            .with_axis(SweepAxis::Mode(vec![
                HarnessMode::Integrated,
                HarnessMode::Simulated,
            ]));
        assert!(block_axis.validate().is_err());
        let drop_sim = fanout_spec().with_queue(AdmissionPolicy::Drop { capacity: 256 });
        assert!(drop_sim.validate().is_ok());
        // Zero capacity is a named footgun.
        let zero = fanout_spec().with_queue(AdmissionPolicy::Drop { capacity: 0 });
        let err = zero.validate().unwrap_err().to_string();
        assert!(err.contains("queue capacity"), "{err}");
        // Unknown policy tags are rejected.
        let text = fanout_spec()
            .with_queue(AdmissionPolicy::Block { capacity: 1 })
            .to_json_string()
            .replace("\"block\"", "\"backpressure\"");
        assert!(ExperimentSpec::from_json_str(&text)
            .unwrap_err()
            .to_string()
            .contains("unknown queue policy"));
    }

    #[test]
    fn shedding_policies_and_selectors_round_trip_and_validate() {
        // The two shedding admission variants encode and decode.
        for queue in [
            AdmissionPolicy::DropDeadline {
                capacity: 64,
                slo_ns: 2_000_000,
            },
            AdmissionPolicy::Priority { capacity: 32 },
        ] {
            let spec = fanout_spec().with_queue(queue);
            assert!(spec.validate().is_ok(), "{queue:?}");
            let back = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
            assert_eq!(back, spec);
        }
        // A zero SLO budget sheds everything; reject it like zero capacity.
        let zero_slo = fanout_spec().with_queue(AdmissionPolicy::DropDeadline {
            capacity: 64,
            slo_ns: 0,
        });
        let err = zero_slo.validate().unwrap_err().to_string();
        assert!(err.contains("slo_ns"), "{err}");

        // Selector and tied fields on the topology round-trip; defaults stay omitted
        // so pre-existing spec files parse unchanged.
        let spec = fanout_spec();
        assert!(!spec.to_json_string().contains("selector"));
        assert!(!spec.to_json_string().contains("tied"));
        let mut topo = spec.topology.unwrap();
        topo = topo
            .with_selector(ReplicaSelector::LeastLoaded)
            .with_tied(false);
        let spec = spec.with_topology(topo);
        let text = spec.to_json_string();
        assert!(text.contains("\"selector\": \"least-loaded\""), "{text}");
        let back = ExperimentSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);

        // Tied needs replicas and excludes hedging.
        let tied_solo = ExperimentSpec::new("x", "xapian")
            .with_topology(TopologySpec::sharded(2).with_tied(true));
        assert!(tied_solo.validate().is_err());
        let tied_ok = ExperimentSpec::new("x", "xapian")
            .with_topology(TopologySpec::sharded(2).with_replication(2).with_tied(true));
        assert!(tied_ok.validate().is_ok());
        let tied_and_hedged = ExperimentSpec::new("x", "xapian").with_topology(
            TopologySpec::sharded(2)
                .with_replication(2)
                .with_tied(true)
                .with_hedge(HedgeSpec::DelayNs(1_000)),
        );
        let err = tied_and_hedged.validate().unwrap_err().to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn mitigation_axis_round_trips_and_validates() {
        let policies = vec![
            MitigationSpec::Baseline,
            MitigationSpec::Hedge(HedgeSpec::Percentile(0.95)),
            MitigationSpec::Tied,
            MitigationSpec::Selector(ReplicaSelector::LeastLoaded),
            MitigationSpec::Selector(ReplicaSelector::PowerOfTwo),
            MitigationSpec::Queue(AdmissionPolicy::DropDeadline {
                capacity: 64,
                slo_ns: 2_000_000,
            }),
        ];
        let spec = ExperimentSpec::new("mitigation", "xapian")
            .with_mode(HarnessMode::Simulated)
            .with_topology(
                TopologySpec::sharded(2)
                    .with_replication(2)
                    .with_fanout(FanoutPolicy::Broadcast),
            )
            .with_load(LoadSpec::Qps(4_000.0))
            .with_axis(SweepAxis::Mitigation(policies.clone()));
        assert!(spec.validate().is_ok());
        assert_eq!(spec.grid_size(), 6);
        let back = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back, spec);

        // Policy labels are stable (they name report rows and golden tables).
        let labels: Vec<String> = policies.iter().map(MitigationSpec::name).collect();
        assert_eq!(
            labels,
            [
                "none",
                "hedge(p95)",
                "tied",
                "least-loaded",
                "p2c",
                "drop-deadline(64,2000000ns)"
            ]
        );

        // The axis is a cluster-policy sweep: no topology, no axis.
        let mut shardless = spec.clone();
        shardless.topology = None;
        let err = shardless.validate().unwrap_err().to_string();
        assert!(err.contains("topology"), "{err}");

        // Tied/hedge entries need a second replica, like the base-topology forms.
        let under_replicated = ExperimentSpec::new("x", "xapian")
            .with_mode(HarnessMode::Simulated)
            .with_topology(TopologySpec::sharded(2))
            .with_axis(SweepAxis::Mitigation(vec![MitigationSpec::Tied]));
        assert!(under_replicated.validate().is_err());

        // Queue entries go through the same capacity/backpressure checks.
        let zero_cap = ExperimentSpec::new("x", "xapian")
            .with_mode(HarnessMode::Simulated)
            .with_topology(TopologySpec::sharded(2).with_replication(2))
            .with_axis(SweepAxis::Mitigation(vec![MitigationSpec::Queue(
                AdmissionPolicy::Drop { capacity: 0 },
            )]));
        assert!(zero_cap.validate().is_err());
        let block_sim = ExperimentSpec::new("x", "xapian")
            .with_mode(HarnessMode::Simulated)
            .with_topology(TopologySpec::sharded(2).with_replication(2))
            .with_axis(SweepAxis::Mitigation(vec![MitigationSpec::Queue(
                AdmissionPolicy::Block { capacity: 16 },
            )]));
        let err = block_sim.validate().unwrap_err().to_string();
        assert!(err.contains("backpressure"), "{err}");

        // Hedged TCP points cannot share a shedding base queue (core rule, mirrored).
        let tcp_hedge_shed = ExperimentSpec::new("x", "xapian")
            .with_mode(HarnessMode::loopback())
            .with_topology(
                TopologySpec::sharded(2)
                    .with_replication(2)
                    .with_hedge(HedgeSpec::DelayNs(1_000)),
            )
            .with_queue(AdmissionPolicy::Drop { capacity: 64 });
        let err = tcp_hedge_shed.validate().unwrap_err().to_string();
        assert!(
            err.contains("invisible to the client-side hedge engine"),
            "{err}"
        );
    }

    #[test]
    fn scenario_spec_round_trips() {
        let spec = ExperimentSpec::new("burst", "masstree")
            .with_mode(HarnessMode::Simulated)
            .with_load(LoadSpec::Scenario(ScenarioSpec {
                phases: vec![
                    LoadPhase {
                        duration_ns: 200_000_000,
                        shape: PhaseShape::Constant { qps: 2_000.0 },
                    },
                    LoadPhase {
                        duration_ns: 100_000_000,
                        shape: PhaseShape::Burst {
                            base_qps: 2_000.0,
                            burst_qps: 8_000.0,
                            period_ns: 50_000_000,
                            duty: 0.5,
                        },
                    },
                    LoadPhase {
                        duration_ns: 50_000_000,
                        shape: PhaseShape::Ramp {
                            from_qps: 2_000.0,
                            to_qps: 500.0,
                        },
                    },
                    LoadPhase {
                        duration_ns: 50_000_000,
                        shape: PhaseShape::Diurnal {
                            base_qps: 1_000.0,
                            amplitude: 0.5,
                            period_ns: 25_000_000,
                        },
                    },
                ],
                classes: vec![
                    ClientClass {
                        name: "interactive".into(),
                        weight: 0.7,
                    },
                    ClientClass {
                        name: "batch".into(),
                        weight: 0.3,
                    },
                ],
                warmup_fraction: 0.1,
            }))
            .with_repeats(2, SeedPolicy::Fixed);
        let back = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn mode_variants_round_trip() {
        for mode in [
            HarnessMode::Integrated,
            HarnessMode::Simulated,
            HarnessMode::loopback(),
            HarnessMode::networked(),
        ] {
            assert_eq!(HarnessMode::decode(&mode.encode(), "mode").unwrap(), mode);
        }
        assert!(HarnessMode::decode(&Json::str("warp-drive"), "mode").is_err());
    }

    #[test]
    fn validation_rejects_footguns() {
        // Empty app.
        let mut spec = ExperimentSpec::new("x", "");
        assert!(spec.validate().is_err());
        spec.app = "xapian".into();
        assert!(spec.validate().is_ok());

        // Hedge without topology / without replication.
        let hedged = spec
            .clone()
            .with_axis(SweepAxis::Hedge(vec![Some(HedgeSpec::DelayNs(1_000))]));
        assert!(hedged.validate().is_err());
        let under_replicated = hedged.clone().with_topology(TopologySpec::sharded(4));
        assert!(under_replicated.validate().is_err());
        let ok = hedged.with_topology(TopologySpec::sharded(4).with_replication(2));
        assert!(ok.validate().is_ok());

        // Unsupported hedge percentile.
        let bad_pct = ExperimentSpec::new("x", "xapian").with_topology(
            TopologySpec::sharded(2)
                .with_replication(2)
                .with_hedge(HedgeSpec::Percentile(0.42)),
        );
        assert!(bad_pct.validate().is_err());

        // Shards axis without topology.
        let shardless = ExperimentSpec::new("x", "xapian").with_axis(SweepAxis::Shards(vec![1, 2]));
        assert!(shardless.validate().is_err());

        // Closed-loop cluster.
        let closed_cluster = ExperimentSpec::new("x", "xapian")
            .with_topology(TopologySpec::sharded(2))
            .with_load(LoadSpec::Closed { think_ns: 0 });
        assert!(closed_cluster.validate().is_ok());

        // Closed-loop DES.
        let closed_sim = ExperimentSpec::new("x", "xapian")
            .with_mode(HarnessMode::Simulated)
            .with_load(LoadSpec::Closed { think_ns: 0 });
        assert!(closed_sim.validate().is_ok());

        // Bad fault window.
        let bad_fault = ExperimentSpec::new("x", "xapian").with_fault(FaultSpec {
            target: FaultTarget::All,
            start_frac: 0.5,
            end_frac: 0.5,
            kind: FaultKind::Pause,
        });
        assert!(bad_fault.validate().is_err());

        // Empty axis.
        let empty_axis = ExperimentSpec::new("x", "xapian").with_axis(SweepAxis::Qps(Vec::new()));
        assert!(empty_axis.validate().is_err());
    }

    #[test]
    fn validation_rejects_a_zero_shard_topology() {
        let mut topology = TopologySpec::sharded(2);
        topology.shards = 0;
        let err = ExperimentSpec::new("x", "xapian")
            .with_topology(topology)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("0 shard(s)"), "{err}");
    }

    #[test]
    fn validation_rejects_a_zero_replica_topology() {
        let mut topology = TopologySpec::sharded(2);
        topology.replication = 0;
        let err = ExperimentSpec::new("x", "xapian")
            .with_topology(topology)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("0 replica(s)"), "{err}");
    }

    #[test]
    fn validation_rejects_zero_connections_in_the_base_mode() {
        for mode in [
            HarnessMode::Loopback { connections: 0 },
            HarnessMode::Networked {
                connections: 0,
                one_way_delay_ns: 25_000,
            },
        ] {
            let err = ExperimentSpec::new("x", "xapian")
                .with_mode(mode)
                .validate()
                .unwrap_err()
                .to_string();
            assert!(err.contains("0 client connections"), "{err}");
        }
    }

    #[test]
    fn validation_rejects_zero_connections_on_a_mode_axis() {
        let err = ExperimentSpec::new("x", "xapian")
            .with_axis(SweepAxis::Mode(vec![
                HarnessMode::Integrated,
                HarnessMode::Loopback { connections: 0 },
            ]))
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("0 client connections"), "{err}");
    }

    #[test]
    fn grid_size_multiplies_axes() {
        let spec = fanout_spec();
        assert_eq!(spec.grid_size(), 6);
        assert_eq!(ExperimentSpec::new("x", "y").grid_size(), 1);
    }

    #[test]
    fn decode_errors_name_the_field() {
        let err = ExperimentSpec::from_json_str("{\"name\": \"x\"}").unwrap_err();
        assert!(err.to_string().contains("missing field 'app'"), "{err}");
        let err = ExperimentSpec::from_json_str("not json").unwrap_err();
        assert!(err.to_string().contains("parse error"), "{err}");
    }

    #[test]
    fn decode_rejects_unknown_fields() {
        // A misspelled optional field must fail loudly instead of silently dropping
        // the feature it was meant to configure.
        let mut spec = fanout_spec().to_json_string();
        spec = spec.replace("\"sweep\"", "\"sweeps\"");
        let err = ExperimentSpec::from_json_str(&spec).unwrap_err();
        assert!(err.to_string().contains("unknown field 'sweeps'"), "{err}");

        let mut spec = fanout_spec().to_json_string();
        spec = spec.replace("\"replication\"", "\"replicas\"");
        let err = ExperimentSpec::from_json_str(&spec).unwrap_err();
        assert!(
            err.to_string().contains("unknown field 'replicas'"),
            "{err}"
        );
    }
}
