//! Harness configuration.
//!
//! A [`BenchmarkConfig`] describes one measurement run: which harness configuration to
//! use (integrated / loopback / networked / simulated, paper Fig. 1), the offered load,
//! the number of application worker threads, and the warmup and measurement lengths.

use crate::collector::RequestTags;
use crate::interference::InterferencePlan;
use crate::queue::AdmissionPolicy;
use crate::traffic::LoadMode;
use std::sync::Arc;
use std::time::Duration;

/// The measurement setup, mirroring the three harness configurations of the paper plus
/// the simulated runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessMode {
    /// Client, harness and application in a single process communicating through shared
    /// memory (the configuration that can be run under a simulator).
    Integrated,
    /// Client and application on the same machine, communicating over TCP through the
    /// loopback interface.
    Loopback {
        /// Number of client connections (the paper uses several client processes to
        /// avoid client-side queuing).  Each paces its round-robin share of the schedule
        /// from a thread of its own and holds a socket to every server instance, so a
        /// run has `connections × instances` sockets, each with a client receiver thread
        /// and a server reader and writer thread.
        connections: usize,
    },
    /// Multi-machine configuration. We do not have a second machine, so this is the
    /// loopback transport plus an analytically added constant propagation delay per
    /// direction (see DESIGN.md); the kernel network-stack work is still really executed.
    Networked {
        /// Number of client connections, as in [`HarnessMode::Loopback`].
        connections: usize,
        /// One-way propagation delay added to each request and each response, ns.
        one_way_delay_ns: u64,
    },
    /// Discrete-event simulation of the integrated configuration using a
    /// [`CostModel`](crate::app::CostModel) to derive service times.
    Simulated,
}

impl HarnessMode {
    /// A short name used in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            HarnessMode::Integrated => "integrated",
            HarnessMode::Loopback { .. } => "loopback",
            HarnessMode::Networked { .. } => "networked",
            HarnessMode::Simulated => "simulated",
        }
    }

    /// Default loopback configuration (8 client connections).
    #[must_use]
    pub fn loopback() -> Self {
        HarnessMode::Loopback { connections: 8 }
    }

    /// Default networked configuration: 16 connections and a 25 µs one-way delay, the
    /// round-trip the paper measured after tuning its switch + NIC setup (§VI-A).
    #[must_use]
    pub fn networked() -> Self {
        HarnessMode::Networked {
            connections: 16,
            one_way_delay_ns: 25_000,
        }
    }
}

/// Where the client-side router sends one request in a cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The request is served by a single shard.
    Shard(usize),
    /// The request fans out to every shard and completes when the last response arrives
    /// (partition-aggregate).
    AllShards,
}

/// How the client-side router maps request payloads onto shards.
///
/// TailBench payloads are opaque bytes, so the sharding policies address key material by
/// byte range instead of by decoding application types — the same payload bytes flow
/// unchanged through every harness configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanoutPolicy {
    /// Hash `len` payload bytes starting at `offset` (FNV-1a) and route to
    /// `hash % shards`.  The policy for single-key workloads with unstructured key
    /// spaces (YCSB gets/puts against masstree).
    HashKey {
        /// Byte offset of the key within the payload.
        offset: usize,
        /// Key length in bytes.
        len: usize,
    },
    /// Interpret up to 8 little-endian payload bytes at `offset` as a partition id and
    /// route to `id % shards`.  The policy for pre-partitioned workloads (TPC-C, where
    /// the warehouse id is the partition key).
    Partition {
        /// Byte offset of the partition id within the payload.
        offset: usize,
        /// Partition-id length in bytes (at most 8).
        len: usize,
    },
    /// Fan every request out to all shards and merge on last-response-wins
    /// (partition-aggregate, the web-search leaf/root pattern).
    Broadcast,
}

impl FanoutPolicy {
    /// The sharding policy for the YCSB/masstree wire format: the 8-byte key follows the
    /// 1-byte operation tag.
    #[must_use]
    pub fn ycsb() -> Self {
        FanoutPolicy::HashKey { offset: 1, len: 8 }
    }

    /// The sharding policy for the TPC-C wire format: the 4-byte warehouse id follows
    /// the 1-byte transaction tag, so each shard owns `warehouses / shards` warehouses.
    #[must_use]
    pub fn tpcc() -> Self {
        FanoutPolicy::Partition { offset: 1, len: 4 }
    }

    /// A short name used in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FanoutPolicy::HashKey { .. } => "hash-key",
            FanoutPolicy::Partition { .. } => "partition",
            FanoutPolicy::Broadcast => "broadcast",
        }
    }

    /// Routes one request payload to its destination shard(s).
    ///
    /// Out-of-range byte addresses fall back to hashing whatever payload bytes exist, so
    /// malformed requests still route deterministically instead of panicking.
    #[must_use]
    pub fn route(&self, payload: &[u8], shards: usize) -> Route {
        if shards <= 1 {
            return match self {
                FanoutPolicy::Broadcast => Route::AllShards,
                _ => Route::Shard(0),
            };
        }
        match self {
            FanoutPolicy::Broadcast => Route::AllShards,
            FanoutPolicy::HashKey { offset, len } => {
                let key = slice_or_fallback(payload, *offset, *len);
                Route::Shard((fnv1a(key) % shards as u64) as usize)
            }
            FanoutPolicy::Partition { offset, len } => {
                let bytes = slice_or_fallback(payload, *offset, (*len).min(8));
                let mut id = 0u64;
                for (i, &b) in bytes.iter().take(8).enumerate() {
                    id |= u64::from(b) << (8 * i);
                }
                Route::Shard((id % shards as u64) as usize)
            }
        }
    }
}

fn slice_or_fallback(payload: &[u8], offset: usize, len: usize) -> &[u8] {
    payload.get(offset..offset + len).unwrap_or(payload)
}

/// Deterministic candidate hash for the seeded two-choice selector: FNV-1a over the
/// run seed, request id, shard, and candidate slot, so both candidates are pinned by
/// the seed and the harness stays reproducible in every mode.
fn selector_hash(seed: u64, request_id: u64, shard: u64, slot: u64) -> u64 {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..16].copy_from_slice(&request_id.to_le_bytes());
    bytes[16..24].copy_from_slice(&shard.to_le_bytes());
    bytes[24..].copy_from_slice(&slot.to_le_bytes());
    fnv1a(&bytes)
}

/// FNV-1a, the classic cheap byte-string hash; stable across platforms so cluster
/// routing is deterministic everywhere.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The hedged-request mitigation policy of a cluster's client-side router ("The Tail at
/// Scale", CACM 2013): if a leg's primary replica has not responded within `delay_ns`,
/// the router reissues the leg to the shard's next replica and takes whichever response
/// arrives first.  The loser is not cancelled (it merely wastes server capacity), so
/// hedging trades extra load for a shorter tail — exactly the trade-off the
/// `fig11_hedging` binary sweeps.
///
/// The delay is configured in nanoseconds; callers that want a *percentile* trigger
/// (e.g. "hedge at the leg p95") measure an unhedged run first and pass that
/// percentile's value, which keeps simulated runs bit-for-bit deterministic.
/// Hedging needs somewhere to send the copy: clusters with `replication == 1` ignore
/// the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Reissue delay in nanoseconds.
    pub delay_ns: u64,
}

impl HedgePolicy {
    /// A policy that hedges after `delay_ns` nanoseconds.
    #[must_use]
    pub fn after_ns(delay_ns: u64) -> Self {
        HedgePolicy { delay_ns }
    }
}

/// How the client-side router picks the replica that serves one leg of a request
/// ("The Tail at Scale" catalogs replica selection as a tail mitigation in its own
/// right, distinct from hedging).
///
/// All three selectors are deterministic given the run seed and the observable load
/// state, so simulated runs stay bit-for-bit reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaSelector {
    /// Rotate replicas by request id (`request_id % replication`): stateless and
    /// perfectly balanced under uniform ids.  The default, and byte-identical to the
    /// routing the harness used before selectors existed.
    #[default]
    RoundRobin,
    /// Send each leg to the replica with the fewest outstanding requests (queued plus
    /// in service); ties break to the lowest replica index.
    LeastLoaded,
    /// Seeded two-choice ("the power of two choices"): derive two candidate replicas
    /// from a hash of the run seed and request id, send to the less loaded of the
    /// pair.  Ties break to the first candidate.
    PowerOfTwo,
}

impl ReplicaSelector {
    /// A short name used in reports (`round-robin`, `least-loaded`, `p2c`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ReplicaSelector::RoundRobin => "round-robin",
            ReplicaSelector::LeastLoaded => "least-loaded",
            ReplicaSelector::PowerOfTwo => "p2c",
        }
    }
}

/// A cluster of server instances layered on top of a [`BenchmarkConfig`].
///
/// A cluster run starts `shards * replication` independent server instances — each with
/// its own request queue and worker pool (or its own simulated station) — and a
/// client-side router that distributes the open-loop request schedule according to
/// `fanout`.  Replicas of a shard serve the same data; single-shard requests are
/// balanced across a shard's replicas by the configured [`ReplicaSelector`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data shards.
    pub shards: usize,
    /// Replicas per shard (1 = no replication).
    pub replication: usize,
    /// How requests map onto shards.
    pub fanout: FanoutPolicy,
    /// Hedged-request mitigation on the router (`None` = no hedging).  Requires
    /// `replication >= 2` to take effect.
    pub hedge: Option<HedgePolicy>,
    /// How the router picks a replica for each leg.
    pub selector: ReplicaSelector,
    /// Tied requests: issue every leg to two replicas up front, first response wins,
    /// and the loser is cancelled if it is still waiting in a queue.  Requires
    /// `replication >= 2` to take effect and is mutually exclusive with `hedge`.
    pub tied: bool,
}

impl ClusterConfig {
    /// Creates a cluster configuration with no replication.
    #[must_use]
    pub fn new(shards: usize, fanout: FanoutPolicy) -> Self {
        ClusterConfig {
            shards: shards.max(1),
            replication: 1,
            fanout,
            hedge: None,
            selector: ReplicaSelector::RoundRobin,
            tied: false,
        }
    }

    /// Sets the replication factor.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication.max(1);
        self
    }

    /// Enables hedged requests with the given policy.
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Sets the replica selector.
    #[must_use]
    pub fn with_selector(mut self, selector: ReplicaSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Enables tied requests (two copies up front, first response wins).
    #[must_use]
    pub fn with_tied(mut self, tied: bool) -> Self {
        self.tied = tied;
        self
    }

    /// Whether tied requests are active (configured *and* there is a second replica
    /// to tie to).
    #[must_use]
    pub fn active_tied(&self) -> bool {
        self.tied && self.replication >= 2
    }

    /// Returns the hedging policy if it is active (configured *and* the cluster has a
    /// replica to hedge to).
    #[must_use]
    pub fn active_hedge(&self) -> Option<HedgePolicy> {
        if self.replication >= 2 {
            self.hedge
        } else {
            None
        }
    }

    /// The alternate replica instance for a hedge copy of `shard`'s leg of request
    /// `request_id`: the next replica after the round-robin primary.
    ///
    /// Correct only under [`ReplicaSelector::RoundRobin`]; load-aware selectors must
    /// derive the alternate from the replica that actually served as primary with
    /// [`ClusterConfig::secondary_instance`].
    #[must_use]
    pub fn hedge_instance(&self, shard: usize, request_id: u64) -> usize {
        self.secondary_instance(shard, self.instance(shard, request_id))
    }

    /// The replica instance after `primary` on `shard`, round-robin — where the hedge
    /// or tied copy of a leg goes once the primary is known.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `primary` is not an instance of `shard`.
    #[must_use]
    pub fn secondary_instance(&self, shard: usize, primary: usize) -> usize {
        let base = shard * self.replication;
        debug_assert!(primary >= base && primary < base + self.replication);
        base + (primary - base + 1) % self.replication
    }

    /// The server instance that serves `shard` for request `request_id` under this
    /// cluster's [`ReplicaSelector`], given the per-instance outstanding-request
    /// counts observable at dispatch time (`load_of(instance)`).
    ///
    /// [`ReplicaSelector::RoundRobin`] ignores `seed` and `load_of` and equals
    /// [`ClusterConfig::instance`], so existing round-robin results are unchanged.
    #[must_use]
    pub fn route_replica(
        &self,
        shard: usize,
        request_id: u64,
        seed: u64,
        load_of: &dyn Fn(usize) -> usize,
    ) -> usize {
        let base = shard * self.replication;
        match self.selector {
            ReplicaSelector::RoundRobin => self.instance(shard, request_id),
            ReplicaSelector::LeastLoaded => (base..base + self.replication)
                .min_by_key(|&i| (load_of(i), i))
                .unwrap_or(base),
            ReplicaSelector::PowerOfTwo => {
                let r = self.replication as u64;
                let first = (selector_hash(seed, request_id, shard as u64, 0) % r) as usize;
                let mut second = (selector_hash(seed, request_id, shard as u64, 1) % r) as usize;
                if second == first {
                    second = (first + 1) % self.replication;
                }
                if load_of(base + second) < load_of(base + first) {
                    base + second
                } else {
                    base + first
                }
            }
        }
    }

    /// Total number of server instances (`shards * replication`).
    #[must_use]
    pub fn instances(&self) -> usize {
        self.shards * self.replication
    }

    /// Number of legs a fanned-out request produces (`shards` under broadcast, 1
    /// otherwise).  Constant per policy, which lets the merge path know how many
    /// responses to wait for without per-request bookkeeping.
    #[must_use]
    pub fn fanout_width(&self) -> usize {
        match self.fanout {
            FanoutPolicy::Broadcast => self.shards,
            _ => 1,
        }
    }

    /// The server instance that serves `shard` for the request with id `request_id`
    /// (replicas are selected round-robin by request id).
    #[must_use]
    pub fn instance(&self, shard: usize, request_id: u64) -> usize {
        shard * self.replication + (request_id % self.replication as u64) as usize
    }

    /// A short name for reports, e.g. `cluster4x2-broadcast`.  Non-default mitigation
    /// knobs append suffixes (`+least-loaded`, `+tied`, `+hedge800ns` for an active
    /// hedge) so report rows stay distinguishable; the default round-robin, untied,
    /// unhedged name is unchanged.
    #[must_use]
    pub fn name(&self) -> String {
        let mut name = format!(
            "cluster{}x{}-{}",
            self.shards,
            self.replication,
            self.fanout.name()
        );
        if self.selector != ReplicaSelector::RoundRobin {
            name.push('+');
            name.push_str(self.selector.name());
        }
        if self.tied {
            name.push_str("+tied");
        }
        if let Some(hedge) = self.active_hedge() {
            name.push_str(&format!("+hedge{}ns", hedge.delay_ns));
        }
        name
    }
}

/// Full description of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchmarkConfig {
    /// Harness configuration.
    pub mode: HarnessMode,
    /// Offered-load model.
    pub load: LoadMode,
    /// Number of application worker threads.
    pub worker_threads: usize,
    /// Number of warmup requests excluded from statistics.
    pub warmup_requests: usize,
    /// Number of measured requests.
    pub measure_requests: usize,
    /// Root seed; repeated runs should use different seeds (the runner takes care of it).
    pub seed: u64,
    /// Safety cap on wall-clock duration for real-time runs.
    pub max_duration: Duration,
    /// Deterministic fault-injection schedule (empty = no interference).
    pub interference: InterferencePlan,
    /// Per-request class/phase tags for per-class and per-phase reporting (the scenario
    /// engine fills this in; `None` for plain runs).
    pub tags: Option<Arc<RequestTags>>,
    /// Request-queue admission policy (per server instance in cluster runs).  The
    /// default is the classic unbounded open-loop queue; bounded `Block`/`Drop`
    /// policies make overload visible as backpressure or counted drops.
    pub admission: AdmissionPolicy,
}

impl BenchmarkConfig {
    /// Creates a configuration with sensible defaults: integrated mode, 1 worker thread,
    /// 10% warmup, and the given offered load and measured request count.
    #[must_use]
    pub fn new(qps: f64, measure_requests: usize) -> Self {
        BenchmarkConfig {
            mode: HarnessMode::Integrated,
            load: LoadMode::open_poisson(qps),
            worker_threads: 1,
            warmup_requests: (measure_requests / 10).max(10),
            measure_requests,
            seed: 0x7A11_BE4C,
            max_duration: Duration::from_secs(120),
            interference: InterferencePlan::none(),
            tags: None,
            admission: AdmissionPolicy::unbounded(),
        }
    }

    /// Sets the harness mode.
    #[must_use]
    pub fn with_mode(mut self, mode: HarnessMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the number of worker threads.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads.max(1);
        self
    }

    /// Sets the warmup request count.
    #[must_use]
    pub fn with_warmup(mut self, warmup_requests: usize) -> Self {
        self.warmup_requests = warmup_requests;
        self
    }

    /// Sets the root seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the load mode.
    #[must_use]
    pub fn with_load(mut self, load: LoadMode) -> Self {
        self.load = load;
        self
    }

    /// Sets the wall-clock safety cap.
    #[must_use]
    pub fn with_max_duration(mut self, max_duration: Duration) -> Self {
        self.max_duration = max_duration;
        self
    }

    /// Sets the deterministic fault-injection schedule.
    #[must_use]
    pub fn with_interference(mut self, interference: InterferencePlan) -> Self {
        self.interference = interference;
        self
    }

    /// Attaches per-request class/phase tags for per-class and per-phase reporting.
    #[must_use]
    pub fn with_tags(mut self, tags: Arc<RequestTags>) -> Self {
        self.tags = Some(tags);
        self
    }

    /// Sets the request-queue admission policy.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Total number of requests issued per run (warmup + measured).
    #[must_use]
    pub fn total_requests(&self) -> usize {
        self.warmup_requests + self.measure_requests
    }

    /// Checks the configuration for the inconsistencies that used to fail silently (or
    /// deep inside a runner with an unhelpful message) and returns an actionable
    /// [`HarnessError::Config`] for each.
    ///
    /// The runners call this on entry, so every entrypoint — `runner::execute`,
    /// `runner::execute_cluster` and `Experiment::run` — rejects the same footguns.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Config`] when the configuration cannot produce a valid
    /// measurement: zero worker threads, zero measured requests, an empty arrival
    /// trace, zero client connections in a TCP mode, or closed-loop load in a TCP mode
    /// (whose client cannot see a server-side shed or a dead worker, so it would wait
    /// for an answer that never comes).
    pub fn validate(&self) -> Result<(), crate::error::HarnessError> {
        use crate::error::HarnessError;
        if self.worker_threads == 0 {
            return Err(HarnessError::Config(
                "worker_threads is 0: the server would never dequeue a request; \
                 use with_threads(n) with n >= 1"
                    .into(),
            ));
        }
        if self.measure_requests == 0 {
            return Err(HarnessError::Config(
                "measure_requests is 0: the run would produce empty statistics; \
                 configure at least one measured request"
                    .into(),
            ));
        }
        if let LoadMode::Trace(trace) = &self.load {
            if trace.is_empty() {
                return Err(HarnessError::Config(
                    "the arrival trace is empty: no request would ever be issued; \
                     compile a scenario with a non-zero span or use LoadMode::open_poisson"
                        .into(),
                ));
            }
        }
        if self.admission.capacity() == 0 {
            return Err(HarnessError::Config(
                "queue admission capacity is 0: every request would be rejected \
                 (Drop) or deadlock the producer (Block); use a capacity >= 1"
                    .into(),
            ));
        }
        match self.mode {
            HarnessMode::Loopback { connections } | HarnessMode::Networked { connections, .. }
                if connections == 0 =>
            {
                return Err(HarnessError::Config(format!(
                    "{} mode with 0 client connections: no request could be sent; \
                     configure connections >= 1",
                    self.mode.name()
                )));
            }
            HarnessMode::Loopback { .. } | HarnessMode::Networked { .. }
                if !self.load.is_open() =>
            {
                return Err(HarnessError::Config(format!(
                    "closed-loop load cannot run in {} mode: a TCP client cannot see a \
                     server-side shed or a dead worker, so a closed-loop client would \
                     wait forever for an answer that never comes; use the integrated or \
                     simulated mode",
                    self.mode.name()
                )));
            }
            HarnessMode::Simulated
                if matches!(
                    self.admission,
                    crate::queue::AdmissionPolicy::Block { capacity } if capacity != usize::MAX
                ) =>
            {
                return Err(HarnessError::Config(
                    "a bounded Block admission policy cannot backpressure the \
                     simulator's fixed virtual-time arrivals; use Drop { capacity } \
                     or the unbounded default for simulated runs"
                        .into(),
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Validates this configuration together with a cluster layout
    /// ([`BenchmarkConfig::validate`] plus the cluster-specific footguns).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Config`] for any [`BenchmarkConfig::validate`] failure,
    /// for a cluster without a shard or without a replica, and for a hedge policy
    /// without a replica to hedge to (`replication < 2`).
    pub fn validate_cluster(
        &self,
        cluster: &ClusterConfig,
    ) -> Result<(), crate::error::HarnessError> {
        use crate::error::HarnessError;
        self.validate()?;
        if cluster.shards == 0 || cluster.replication == 0 {
            return Err(HarnessError::Config(format!(
                "cluster has {} shard(s) x {} replica(s); both must be at least 1",
                cluster.shards, cluster.replication
            )));
        }
        if cluster.hedge.is_some() && cluster.replication < 2 {
            return Err(HarnessError::Config(format!(
                "a hedge policy is configured but replication is {}: hedged requests \
                 need a second replica to send the copy to; use with_replication(2) \
                 or remove the hedge policy",
                cluster.replication
            )));
        }
        if cluster.tied && cluster.replication < 2 {
            return Err(HarnessError::Config(format!(
                "tied requests are configured but replication is {}: the second copy \
                 needs a second replica; use with_replication(2) or disable tied \
                 requests",
                cluster.replication
            )));
        }
        if cluster.tied && cluster.hedge.is_some() {
            return Err(HarnessError::Config(
                "tied requests and hedging are both configured: they are alternative \
                 mitigations for the same leg (tied issues the second copy up front, \
                 hedging issues it after a delay); configure at most one"
                    .into(),
            ));
        }
        if matches!(
            self.mode,
            HarnessMode::Loopback { .. } | HarnessMode::Networked { .. }
        ) && cluster.hedge.is_some()
            && self.admission.shed_capacity().is_some()
        {
            return Err(HarnessError::Config(
                "hedged TCP cluster runs require a non-shedding admission policy: a \
                 server-side shed is invisible to the client-side hedge engine, which \
                 would wait forever for the dropped copy; use the unbounded default \
                 queue, the integrated mode, or the simulator for this combination"
                    .into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_reasonable() {
        let c = BenchmarkConfig::new(1000.0, 5000);
        assert_eq!(c.mode.name(), "integrated");
        assert_eq!(c.worker_threads, 1);
        assert_eq!(c.warmup_requests, 500);
        assert_eq!(c.total_requests(), 5500);
        assert!((c.load.offered_qps().unwrap() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn builder_methods_apply() {
        let c = BenchmarkConfig::new(100.0, 100)
            .with_mode(HarnessMode::networked())
            .with_threads(4)
            .with_warmup(7)
            .with_seed(42)
            .with_max_duration(Duration::from_secs(5));
        assert_eq!(c.mode.name(), "networked");
        assert_eq!(c.worker_threads, 4);
        assert_eq!(c.warmup_requests, 7);
        assert_eq!(c.seed, 42);
        assert_eq!(c.max_duration, Duration::from_secs(5));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let c = BenchmarkConfig::new(100.0, 100).with_threads(0);
        assert_eq!(c.worker_threads, 1);
    }

    #[test]
    fn hash_key_routing_is_deterministic_and_in_range() {
        let policy = FanoutPolicy::ycsb();
        let mut payload = vec![0u8; 9];
        for key in 0u64..200 {
            payload[1..9].copy_from_slice(&key.to_le_bytes());
            let a = policy.route(&payload, 4);
            let b = policy.route(&payload, 4);
            assert_eq!(a, b);
            let Route::Shard(s) = a else {
                panic!("hash-key must route to one shard")
            };
            assert!(s < 4);
        }
    }

    #[test]
    fn hash_key_spreads_keys_across_shards() {
        let policy = FanoutPolicy::ycsb();
        let mut seen = [false; 4];
        let mut payload = vec![0u8; 9];
        for key in 0u64..64 {
            payload[1..9].copy_from_slice(&key.to_le_bytes());
            if let Route::Shard(s) = policy.route(&payload, 4) {
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "64 keys must touch all 4 shards");
    }

    #[test]
    fn partition_routing_uses_the_id_modulo_shards() {
        let policy = FanoutPolicy::tpcc();
        let mut payload = vec![0u8; 5];
        for warehouse in 1u32..=16 {
            payload[1..5].copy_from_slice(&warehouse.to_le_bytes());
            assert_eq!(
                policy.route(&payload, 4),
                Route::Shard((warehouse % 4) as usize)
            );
        }
    }

    #[test]
    fn broadcast_routes_to_all_shards() {
        assert_eq!(FanoutPolicy::Broadcast.route(b"any", 8), Route::AllShards);
        assert_eq!(FanoutPolicy::Broadcast.route(b"any", 1), Route::AllShards);
    }

    #[test]
    fn short_payloads_still_route() {
        // A payload shorter than the addressed key range must not panic.
        let policy = FanoutPolicy::HashKey { offset: 1, len: 8 };
        let Route::Shard(s) = policy.route(&[7], 4) else {
            panic!("must degrade to a single shard")
        };
        assert!(s < 4);
    }

    #[test]
    fn cluster_config_derives_instances_and_width() {
        let c = ClusterConfig::new(4, FanoutPolicy::Broadcast).with_replication(2);
        assert_eq!(c.instances(), 8);
        assert_eq!(c.fanout_width(), 4);
        assert_eq!(c.instance(3, 0), 6);
        assert_eq!(c.instance(3, 1), 7);
        assert_eq!(c.name(), "cluster4x2-broadcast");

        let single = ClusterConfig::new(0, FanoutPolicy::ycsb());
        assert_eq!(single.shards, 1, "shard count clamps to one");
        assert_eq!(single.fanout_width(), 1);
        assert_eq!(single.name(), "cluster1x1-hash-key");
    }

    #[test]
    fn hedging_needs_a_replica_and_picks_the_next_one() {
        let policy = HedgePolicy::after_ns(50_000);
        let unreplicated = ClusterConfig::new(4, FanoutPolicy::Broadcast).with_hedge(policy);
        assert_eq!(unreplicated.active_hedge(), None);
        let replicated = unreplicated.clone().with_replication(2);
        assert_eq!(replicated.active_hedge(), Some(policy));
        // Request 0 on shard 3: primary is replica 0 (instance 6), hedge goes to
        // replica 1 (instance 7) — and vice versa for request 1.
        assert_eq!(replicated.instance(3, 0), 6);
        assert_eq!(replicated.hedge_instance(3, 0), 7);
        assert_eq!(replicated.instance(3, 1), 7);
        assert_eq!(replicated.hedge_instance(3, 1), 6);
    }

    #[test]
    fn validate_accepts_sensible_configs_and_names_each_footgun() {
        let good = BenchmarkConfig::new(1_000.0, 100);
        assert!(good.validate().is_ok());

        let mut zero_workers = BenchmarkConfig::new(1_000.0, 100);
        zero_workers.worker_threads = 0;
        let err = zero_workers.validate().unwrap_err().to_string();
        assert!(err.contains("worker_threads"), "{err}");

        let mut no_requests = BenchmarkConfig::new(1_000.0, 100);
        no_requests.measure_requests = 0;
        let err = no_requests.validate().unwrap_err().to_string();
        assert!(err.contains("measure_requests"), "{err}");

        let empty_trace = BenchmarkConfig::new(1_000.0, 100).with_load(LoadMode::trace(
            crate::traffic::LoadTrace::from_times(Vec::new()),
        ));
        let err = empty_trace.validate().unwrap_err().to_string();
        assert!(err.contains("trace is empty"), "{err}");

        let no_connections =
            BenchmarkConfig::new(1_000.0, 100).with_mode(HarnessMode::Loopback { connections: 0 });
        let err = no_connections.validate().unwrap_err().to_string();
        assert!(err.contains("0 client connections"), "{err}");

        // A closed loop runs in the simulator and in-process, but not over TCP, whose
        // client cannot see a shed or a dead worker.
        let closed = BenchmarkConfig::new(1_000.0, 100).with_load(LoadMode::Closed { think_ns: 0 });
        assert!(closed.validate().is_ok());
        let closed_sim = closed.clone().with_mode(HarnessMode::Simulated);
        assert!(closed_sim.validate().is_ok());
        let closed_tcp = closed.with_mode(HarnessMode::Loopback { connections: 1 });
        let err = closed_tcp.validate().unwrap_err().to_string();
        assert!(err.contains("closed-loop"), "{err}");

        let zero_capacity = BenchmarkConfig::new(1_000.0, 100)
            .with_admission(AdmissionPolicy::Drop { capacity: 0 });
        let err = zero_capacity.validate().unwrap_err().to_string();
        assert!(err.contains("capacity"), "{err}");
        let bounded = BenchmarkConfig::new(1_000.0, 100)
            .with_admission(AdmissionPolicy::Drop { capacity: 64 });
        assert!(bounded.validate().is_ok());

        // A bounded Block policy cannot backpressure virtual-time arrivals, so the
        // simulator rejects it; Drop and the unbounded default stay legal.
        let block_sim = BenchmarkConfig::new(1_000.0, 100)
            .with_mode(HarnessMode::Simulated)
            .with_admission(AdmissionPolicy::Block { capacity: 64 });
        let err = block_sim.validate().unwrap_err().to_string();
        assert!(err.contains("backpressure"), "{err}");
        let drop_sim = BenchmarkConfig::new(1_000.0, 100)
            .with_mode(HarnessMode::Simulated)
            .with_admission(AdmissionPolicy::Drop { capacity: 64 });
        assert!(drop_sim.validate().is_ok());
        let unbounded_sim = BenchmarkConfig::new(1_000.0, 100).with_mode(HarnessMode::Simulated);
        assert!(unbounded_sim.validate().is_ok());
    }

    #[test]
    fn replica_selectors_route_deterministically_and_respect_load() {
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast).with_replication(4);

        // Round-robin is byte-identical to the historical id rotation and ignores load.
        let rr = cluster.clone().with_selector(ReplicaSelector::RoundRobin);
        for id in 0..16u64 {
            assert_eq!(rr.route_replica(1, id, 99, &|_| 7), rr.instance(1, id));
        }

        // Least-loaded picks the minimum outstanding count, ties to the lowest index.
        let ll = cluster.clone().with_selector(ReplicaSelector::LeastLoaded);
        let loads = [5usize, 3, 3, 9, 1, 1, 1, 1];
        assert_eq!(ll.route_replica(0, 0, 0, &|i| loads[i]), 1);
        assert_eq!(ll.route_replica(1, 0, 0, &|i| loads[i]), 4);

        // Two-choice is pinned by the seed: same seed, same candidates; the less
        // loaded of the pair wins and lives on the addressed shard.
        let p2c = cluster.with_selector(ReplicaSelector::PowerOfTwo);
        for id in 0..64u64 {
            let a = p2c.route_replica(1, id, 0x5EED, &|i| loads[i]);
            let b = p2c.route_replica(1, id, 0x5EED, &|i| loads[i]);
            assert_eq!(a, b);
            assert!((4..8).contains(&a), "shard 1 owns instances 4..8, got {a}");
        }
        // Under uneven load the two-choice pick is never the uniquely worst replica.
        let skewed = [0usize, 0, 0, 0, 100, 0, 0, 0];
        for id in 0..64u64 {
            assert_ne!(p2c.route_replica(1, id, 0x5EED, &|i| skewed[i]), 4);
        }
    }

    #[test]
    fn secondary_instance_follows_the_actual_primary() {
        let c = ClusterConfig::new(2, FanoutPolicy::Broadcast).with_replication(3);
        assert_eq!(c.secondary_instance(0, 0), 1);
        assert_eq!(c.secondary_instance(0, 2), 0);
        assert_eq!(c.secondary_instance(1, 5), 3);
        // Under round-robin the secondary of the id-derived primary is exactly the
        // historical hedge_instance, so hedged goldens are unchanged.
        for id in 0..12u64 {
            for shard in 0..2 {
                assert_eq!(
                    c.secondary_instance(shard, c.instance(shard, id)),
                    c.hedge_instance(shard, id)
                );
            }
        }
    }

    #[test]
    fn cluster_names_tag_non_default_mitigations() {
        let base = ClusterConfig::new(4, FanoutPolicy::Broadcast).with_replication(2);
        assert_eq!(base.name(), "cluster4x2-broadcast");
        assert_eq!(
            base.clone()
                .with_selector(ReplicaSelector::LeastLoaded)
                .name(),
            "cluster4x2-broadcast+least-loaded"
        );
        assert_eq!(
            base.clone().with_tied(true).name(),
            "cluster4x2-broadcast+tied"
        );
        assert_eq!(
            base.clone()
                .with_selector(ReplicaSelector::PowerOfTwo)
                .with_tied(true)
                .name(),
            "cluster4x2-broadcast+p2c+tied"
        );
        assert_eq!(
            base.with_hedge(HedgePolicy::after_ns(800)).name(),
            "cluster4x2-broadcast+hedge800ns"
        );
        // A hedge with no replica to hedge to is inactive and leaves the name alone.
        assert_eq!(
            ClusterConfig::new(4, FanoutPolicy::Broadcast)
                .with_hedge(HedgePolicy::after_ns(800))
                .name(),
            "cluster4x1-broadcast"
        );
    }

    #[test]
    fn validate_cluster_rejects_unreplicated_or_hedged_tied_requests() {
        let good = BenchmarkConfig::new(1_000.0, 100);
        let tied_unreplicated = ClusterConfig::new(2, FanoutPolicy::Broadcast).with_tied(true);
        let err = good
            .validate_cluster(&tied_unreplicated)
            .unwrap_err()
            .to_string();
        assert!(err.contains("replication"), "{err}");
        let tied = tied_unreplicated.with_replication(2);
        assert!(good.validate_cluster(&tied).is_ok());
        assert!(tied.active_tied());
        let tied_and_hedged = tied.with_hedge(HedgePolicy::after_ns(1_000));
        let err = good
            .validate_cluster(&tied_and_hedged)
            .unwrap_err()
            .to_string();
        assert!(err.contains("at most one"), "{err}");
    }

    #[test]
    fn validate_cluster_accepts_closed_loop_and_rejects_unreplicated_hedge() {
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast);
        let good = BenchmarkConfig::new(1_000.0, 100);
        assert!(good.validate_cluster(&cluster).is_ok());

        let closed = BenchmarkConfig::new(1_000.0, 100).with_load(LoadMode::Closed { think_ns: 0 });
        assert!(closed.validate_cluster(&cluster).is_ok());

        let hedged_unreplicated = cluster.with_hedge(HedgePolicy::after_ns(1_000));
        let err = good
            .validate_cluster(&hedged_unreplicated)
            .unwrap_err()
            .to_string();
        assert!(err.contains("replication"), "{err}");
        let hedged_replicated = hedged_unreplicated.with_replication(2);
        assert!(good.validate_cluster(&hedged_replicated).is_ok());
    }

    #[test]
    fn validate_cluster_rejects_a_cluster_without_shards_or_replicas() {
        let good = BenchmarkConfig::new(1_000.0, 100);
        let shardless = ClusterConfig {
            shards: 0,
            ..ClusterConfig::new(1, FanoutPolicy::Broadcast)
        };
        let err = good.validate_cluster(&shardless).unwrap_err();
        assert!(
            matches!(err, crate::error::HarnessError::Config(_)),
            "{err}"
        );
        assert!(
            err.to_string().contains("0 shard(s) x 1 replica(s)"),
            "{err}"
        );
        let replicaless = ClusterConfig {
            replication: 0,
            ..ClusterConfig::new(2, FanoutPolicy::Broadcast)
        };
        let err = good.validate_cluster(&replicaless).unwrap_err().to_string();
        assert!(err.contains("2 shard(s) x 0 replica(s)"), "{err}");
    }

    #[test]
    fn mode_names_cover_all_variants() {
        assert_eq!(HarnessMode::Integrated.name(), "integrated");
        assert_eq!(HarnessMode::loopback().name(), "loopback");
        assert_eq!(HarnessMode::networked().name(), "networked");
        assert_eq!(HarnessMode::Simulated.name(), "simulated");
    }
}
