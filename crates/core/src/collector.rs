//! The statistics collector.
//!
//! The collector aggregates per-request latency records into sojourn, queuing and
//! service-time distributions (paper Fig. 1, §IV-C).  The real-time runners no longer
//! funnel every completion through one channel into a single collector thread — that
//! send, and the collector thread's cache traffic, sat on the measurement hot path.
//! Instead every worker / client-connection thread owns its own *collector shard* (a
//! plain [`StatsCollector`]) and records locally; the shards are merged with
//! [`StatsCollector::merge`] when the run tears down.  HDR histograms are
//! order-independent, and the histogram crate's `summary merge == single recording`
//! property test licenses the rearrangement: a merged set of shards is statistically
//! identical to one collector that saw every record.  The discrete-event simulation
//! runner records inline on its single thread, exactly as before.

use crate::report::LatencyStats;
use crate::request::RequestRecord;
use std::sync::Arc;
use tailbench_histogram::LatencySummary;

/// Per-request class and phase tags for a run, indexed by request id.
///
/// The scenario engine compiles its multi-class, phased schedule into one id-ordered
/// request stream; this table records, for each id, which client class issued the
/// request and which load phase it arrived in.  Collectors use it to maintain per-class
/// and per-phase sojourn distributions so a batch tenant's impact on an interactive
/// tenant's p99 — or a burst phase's tail versus the steady phase's — is a first-class
/// result rather than a post-processing step.  Requests beyond the table (or runs
/// without tags) fall into class/phase 0.
#[derive(Debug, Clone, Default)]
pub struct RequestTags {
    class_names: Vec<String>,
    phase_names: Vec<String>,
    class_of: Vec<u16>,
    phase_of: Vec<u16>,
}

impl RequestTags {
    /// Builds the tag table.  `class_of[id]` / `phase_of[id]` give request `id`'s class
    /// and phase as indexes into the name lists.
    ///
    /// # Panics
    ///
    /// Panics if any tag indexes past its name list.
    #[must_use]
    pub fn new(
        class_names: Vec<String>,
        phase_names: Vec<String>,
        class_of: Vec<u16>,
        phase_of: Vec<u16>,
    ) -> Self {
        assert!(
            class_of
                .iter()
                .all(|&c| (c as usize) < class_names.len().max(1)),
            "class tag out of range"
        );
        assert!(
            phase_of
                .iter()
                .all(|&p| (p as usize) < phase_names.len().max(1)),
            "phase tag out of range"
        );
        RequestTags {
            class_names,
            phase_names,
            class_of,
            phase_of,
        }
    }

    /// The class of request `id` (0 when untagged).
    #[must_use]
    pub fn class_of(&self, id: u64) -> u16 {
        self.class_of.get(id as usize).copied().unwrap_or(0)
    }

    /// The phase of request `id` (0 when untagged).
    #[must_use]
    pub fn phase_of(&self, id: u64) -> u16 {
        self.phase_of.get(id as usize).copied().unwrap_or(0)
    }

    /// Class names, indexed by class.
    #[must_use]
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Phase names, indexed by phase.
    #[must_use]
    pub fn phase_names(&self) -> &[String] {
        &self.phase_names
    }
}

/// Aggregated latency statistics of one measurement run.
#[derive(Debug, Clone)]
pub struct StatsCollector {
    /// Records with `id.0 < warmup_count` are counted as warmup and excluded from the
    /// reported distributions.
    warmup_count: u64,
    sojourn: LatencySummary,
    service: LatencySummary,
    queue: LatencySummary,
    overhead: LatencySummary,
    tags: Option<Arc<RequestTags>>,
    per_class: Vec<LatencySummary>,
    per_phase: Vec<LatencySummary>,
    measured: u64,
    warmup_seen: u64,
    first_issue_ns: u64,
    last_completion_ns: u64,
}

impl StatsCollector {
    /// Creates a collector that treats the first `warmup_count` request ids as warmup.
    #[must_use]
    pub fn new(warmup_count: u64) -> Self {
        StatsCollector {
            warmup_count,
            sojourn: LatencySummary::new(),
            service: LatencySummary::new(),
            queue: LatencySummary::new(),
            overhead: LatencySummary::new(),
            tags: None,
            per_class: Vec::new(),
            per_phase: Vec::new(),
            measured: 0,
            warmup_seen: 0,
            first_issue_ns: u64::MAX,
            last_completion_ns: 0,
        }
    }

    /// Attaches per-request class/phase tags; the collector then also maintains one
    /// sojourn distribution per class and per phase.
    #[must_use]
    pub fn with_tags(mut self, tags: Option<Arc<RequestTags>>) -> Self {
        if let Some(t) = &tags {
            self.per_class = (0..t.class_names().len())
                .map(|_| LatencySummary::new())
                .collect();
            self.per_phase = (0..t.phase_names().len())
                .map(|_| LatencySummary::new())
                .collect();
        }
        self.tags = tags;
        self
    }

    /// Records one finished request.
    pub fn record(&mut self, r: &RequestRecord) {
        if r.id.0 < self.warmup_count {
            self.warmup_seen += 1;
            return;
        }
        self.sojourn.record(r.sojourn_ns());
        self.service.record(r.service_ns());
        self.queue.record(r.queue_ns());
        self.overhead.record(r.overhead_ns());
        if let Some(tags) = &self.tags {
            let class = tags.class_of(r.id.0) as usize;
            if let Some(summary) = self.per_class.get_mut(class) {
                summary.record(r.sojourn_ns());
            }
            let phase = tags.phase_of(r.id.0) as usize;
            if let Some(summary) = self.per_phase.get_mut(phase) {
                summary.record(r.sojourn_ns());
            }
        }
        self.measured += 1;
        self.first_issue_ns = self.first_issue_ns.min(r.issued_ns);
        self.last_completion_ns = self.last_completion_ns.max(r.client_received_ns);
    }

    /// Merges another collector shard into this one.
    ///
    /// Shards must have been created with the same warmup count and tag table (the
    /// runners clone one prototype per thread, so this holds by construction).  The
    /// merge is order-independent: histograms, counters, and the min/max interval
    /// bounds all commute, so `merge(a, b)` equals a single collector that recorded
    /// both shards' streams — the property the sharded-collector stress test pins.
    pub fn merge(&mut self, other: &StatsCollector) {
        debug_assert_eq!(
            self.warmup_count, other.warmup_count,
            "collector shards must share a warmup count"
        );
        self.sojourn.merge(&other.sojourn);
        self.service.merge(&other.service);
        self.queue.merge(&other.queue);
        self.overhead.merge(&other.overhead);
        for (mine, theirs) in self.per_class.iter_mut().zip(&other.per_class) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.per_phase.iter_mut().zip(&other.per_phase) {
            mine.merge(theirs);
        }
        self.measured += other.measured;
        self.warmup_seen += other.warmup_seen;
        self.first_issue_ns = self.first_issue_ns.min(other.first_issue_ns);
        self.last_completion_ns = self.last_completion_ns.max(other.last_completion_ns);
    }

    /// Number of measured (non-warmup) requests recorded.
    #[must_use]
    pub fn measured(&self) -> u64 {
        self.measured
    }

    /// Number of warmup requests seen.
    #[must_use]
    pub fn warmup_seen(&self) -> u64 {
        self.warmup_seen
    }

    /// Achieved throughput over the measured interval, in queries per second.
    #[must_use]
    pub fn achieved_qps(&self) -> f64 {
        if self.measured == 0 || self.last_completion_ns <= self.first_issue_ns {
            return 0.0;
        }
        self.measured as f64 * 1e9 / (self.last_completion_ns - self.first_issue_ns) as f64
    }

    /// Wall-clock span of the measured interval in nanoseconds.
    #[must_use]
    pub fn span_ns(&self) -> u64 {
        self.last_completion_ns.saturating_sub(self.first_issue_ns)
    }

    /// Sojourn (end-to-end) latency statistics.
    #[must_use]
    pub fn sojourn_stats(&self) -> LatencyStats {
        LatencyStats::from_summary(&self.sojourn)
    }

    /// Service-time statistics.
    #[must_use]
    pub fn service_stats(&self) -> LatencyStats {
        LatencyStats::from_summary(&self.service)
    }

    /// Queuing-time statistics.
    #[must_use]
    pub fn queue_stats(&self) -> LatencyStats {
        LatencyStats::from_summary(&self.queue)
    }

    /// Transport/harness overhead statistics.
    #[must_use]
    pub fn overhead_stats(&self) -> LatencyStats {
        LatencyStats::from_summary(&self.overhead)
    }

    /// The full sojourn-time distribution (for CDF plots).
    #[must_use]
    pub fn sojourn_summary(&self) -> &LatencySummary {
        &self.sojourn
    }

    /// Per-class sojourn statistics as `(class name, stats)` rows; empty without tags.
    #[must_use]
    pub fn class_breakdown(&self) -> Vec<(String, LatencyStats)> {
        self.breakdown(&self.per_class, RequestTags::class_names)
    }

    /// Per-phase sojourn statistics as `(phase name, stats)` rows; empty without tags.
    #[must_use]
    pub fn phase_breakdown(&self) -> Vec<(String, LatencyStats)> {
        self.breakdown(&self.per_phase, RequestTags::phase_names)
    }

    fn breakdown(
        &self,
        summaries: &[LatencySummary],
        names: fn(&RequestTags) -> &[String],
    ) -> Vec<(String, LatencyStats)> {
        match &self.tags {
            None => Vec::new(),
            Some(tags) => names(tags)
                .iter()
                .zip(summaries)
                .map(|(name, summary)| (name.clone(), LatencyStats::from_summary(summary)))
                .collect(),
        }
    }
}

/// A merge in progress for one fanned-out request.
#[derive(Debug, Clone, Copy)]
struct PendingFanout {
    expected: usize,
    seen: usize,
    slowest: RequestRecord,
}

/// The cross-shard statistics collector of a cluster run.
///
/// Every completed request *leg* (one request × one shard) is recorded into its shard's
/// own [`StatsCollector`]; when the last leg of a request lands, the record of the
/// slowest leg is additionally recorded end-to-end (last-response-wins — the root of a
/// partition-aggregate query can only answer once its slowest leaf has responded).
/// Reporting both distributions makes the fan-out tail amplification
/// (`p99_cluster / p99_shard`) a first-class result.
///
/// A one-shard collector records each leg once: every leg is a whole request, so the
/// per-shard view *is* the end-to-end one (first response wins under hedging or tied
/// requests, so this holds for replicated shards too).  A single server runs as such a
/// 1×1 cluster and pays for one collector, not two.
///
/// Like [`StatsCollector`], cluster collectors shard: each worker, receiver or hedge
/// thread owns a partial collector seeing only its instance's legs, and the partials
/// combine with [`ClusterCollector::merge`] at run end — including in-flight fan-out
/// merges, whose leg counts and slowest-leg records compose across shards.
#[derive(Debug, Clone)]
pub struct ClusterCollector {
    cluster: StatsCollector,
    /// One collector per shard; empty for a one-shard cluster.
    per_shard: Vec<StatsCollector>,
    pending: std::collections::BTreeMap<u64, PendingFanout>,
}

impl ClusterCollector {
    /// Creates a collector for `shards` shards with the given warmup request count.
    #[must_use]
    pub fn new(shards: usize, warmup_count: u64) -> Self {
        let per_shard = if shards > 1 { shards } else { 0 };
        ClusterCollector {
            cluster: StatsCollector::new(warmup_count),
            per_shard: (0..per_shard)
                .map(|_| StatsCollector::new(warmup_count))
                .collect(),
            pending: std::collections::BTreeMap::new(),
        }
    }

    /// Attaches per-request tags to the *end-to-end* collector, so cluster runs report
    /// per-class and per-phase sojourn like single-server runs (per-shard collectors
    /// stay untagged: a shard serves legs of every class).
    #[must_use]
    pub fn with_tags(mut self, tags: Option<Arc<RequestTags>>) -> Self {
        self.cluster = self.cluster.with_tags(tags);
        self
    }

    /// Records one finished leg of a request.
    ///
    /// `expected_legs` is the request's fan-out width (1 for single-shard requests, the
    /// shard count for broadcast requests).  When the final leg lands, the slowest leg's
    /// record is recorded into the end-to-end distribution and returned.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range of a collector of more than one shard.
    pub fn record_leg(
        &mut self,
        shard: usize,
        record: RequestRecord,
        expected_legs: usize,
    ) -> Option<RequestRecord> {
        if !self.per_shard.is_empty() {
            self.per_shard[shard].record(&record);
        }
        if expected_legs <= 1 {
            self.cluster.record(&record);
            return Some(record);
        }
        let entry = self.pending.entry(record.id.0).or_insert(PendingFanout {
            expected: expected_legs,
            seen: 0,
            slowest: record,
        });
        if record.client_received_ns > entry.slowest.client_received_ns {
            entry.slowest = record;
        }
        entry.seen += 1;
        if entry.seen >= entry.expected {
            let slowest = entry.slowest;
            self.pending.remove(&record.id.0);
            self.cluster.record(&slowest);
            Some(slowest)
        } else {
            None
        }
    }

    /// Merges a partial collector (another receiver thread's view of the run) into
    /// this one.  Per-shard and end-to-end histograms combine directly; fan-out merges
    /// still in flight combine leg counts and slowest-leg records, completing — and
    /// recording end-to-end — any request whose legs were split across the partials.
    ///
    /// # Panics
    ///
    /// Panics if the collectors were created with different shard counts.
    pub fn merge(&mut self, other: ClusterCollector) {
        assert_eq!(
            self.per_shard.len(),
            other.per_shard.len(),
            "cluster collector partials must share a shard count"
        );
        self.cluster.merge(&other.cluster);
        for (mine, theirs) in self.per_shard.iter_mut().zip(&other.per_shard) {
            mine.merge(theirs);
        }
        for (id, partial) in other.pending {
            let completed = match self.pending.get_mut(&id) {
                Some(entry) => {
                    entry.seen += partial.seen;
                    if partial.slowest.client_received_ns > entry.slowest.client_received_ns {
                        entry.slowest = partial.slowest;
                    }
                    (entry.seen >= entry.expected).then_some(entry.slowest)
                }
                None => {
                    self.pending.insert(id, partial);
                    None
                }
            };
            if let Some(slowest) = completed {
                self.pending.remove(&id);
                self.cluster.record(&slowest);
            }
        }
    }

    /// The end-to-end (cluster) statistics.
    #[must_use]
    pub fn cluster_stats(&self) -> &StatsCollector {
        &self.cluster
    }

    /// Per-shard statistics, indexed by shard.  A one-shard collector serves its
    /// end-to-end statistics, which carry the run's class/phase tags.
    #[must_use]
    pub fn shard_stats(&self) -> &[StatsCollector] {
        if self.per_shard.is_empty() {
            std::slice::from_ref(&self.cluster)
        } else {
            &self.per_shard
        }
    }

    /// Number of requests whose fan-out merge is still incomplete (non-zero only if a
    /// run was cut short).
    #[must_use]
    pub fn unmerged(&self) -> usize {
        self.pending.len()
    }

    /// The union of all shards' sojourn distributions (every leg, regardless of which
    /// shard served it).  This is the "per-shard" view used for tail-amplification
    /// comparisons, built through the histogram merge path.
    #[must_use]
    pub fn merged_shard_sojourn(&self) -> LatencySummary {
        let mut merged = LatencySummary::new();
        for shard in self.shard_stats() {
            merged.merge(shard.sojourn_summary());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;

    fn record(id: u64, issued: u64, service: u64) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            issued_ns: issued,
            enqueued_ns: issued + 10,
            started_ns: issued + 50,
            completed_ns: issued + 50 + service,
            client_received_ns: issued + 60 + service,
        }
    }

    #[test]
    fn warmup_records_are_excluded() {
        let mut c = StatsCollector::new(5);
        for i in 0..10u64 {
            c.record(&record(i, i * 1_000, 500));
        }
        assert_eq!(c.measured(), 5);
        assert_eq!(c.warmup_seen(), 5);
    }

    #[test]
    fn stats_reflect_recorded_values() {
        let mut c = StatsCollector::new(0);
        c.record(&record(0, 0, 1_000));
        c.record(&record(1, 10_000, 2_000));
        let service = c.service_stats();
        assert_eq!(service.max_ns, 2_000);
        assert_eq!(service.min_ns, 1_000);
        let sojourn = c.sojourn_stats();
        assert!(sojourn.mean_ns > 1_000.0);
        assert_eq!(c.queue_stats().max_ns, 40);
    }

    #[test]
    fn achieved_qps_uses_measured_span() {
        let mut c = StatsCollector::new(0);
        // 100 requests spread over ~0.1 s => ~1000 QPS.
        for i in 0..100u64 {
            c.record(&record(i, i * 1_000_000, 100_000));
        }
        let qps = c.achieved_qps();
        assert!((qps - 1_000.0).abs() / 1_000.0 < 0.05, "qps = {qps}");
    }

    #[test]
    fn empty_collector_reports_zero_qps() {
        let c = StatsCollector::new(0);
        assert_eq!(c.achieved_qps(), 0.0);
        assert_eq!(c.measured(), 0);
        assert_eq!(c.span_ns(), 0);
    }

    fn record_at(id: u64, issued: u64, received: u64) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            issued_ns: issued,
            enqueued_ns: issued,
            started_ns: issued,
            completed_ns: received,
            client_received_ns: received,
        }
    }

    #[test]
    fn cluster_collector_merges_on_last_response() {
        let mut c = ClusterCollector::new(4, 0);
        // One broadcast request: three legs complete at 100/300/200 — the merge must
        // yield the slowest leg (300) once, not three cluster records.
        assert!(c.record_leg(0, record_at(0, 0, 100), 3).is_none());
        assert!(c.record_leg(1, record_at(0, 0, 300), 3).is_none());
        let merged = c.record_leg(2, record_at(0, 0, 200), 3).unwrap();
        assert_eq!(merged.client_received_ns, 300);
        assert_eq!(c.cluster_stats().measured(), 1);
        assert_eq!(c.cluster_stats().sojourn_stats().max_ns, 300);
        assert_eq!(c.shard_stats()[0].measured(), 1);
        assert_eq!(c.shard_stats()[3].measured(), 0);
        assert_eq!(c.unmerged(), 0);
    }

    #[test]
    fn cluster_collector_single_shard_records_directly() {
        let mut c = ClusterCollector::new(2, 0);
        let merged = c.record_leg(1, record_at(7, 10, 60), 1).unwrap();
        assert_eq!(merged.sojourn_ns(), 50);
        assert_eq!(c.cluster_stats().measured(), 1);
        assert_eq!(c.shard_stats()[1].measured(), 1);
    }

    #[test]
    fn merged_shard_sojourn_covers_every_leg() {
        let mut c = ClusterCollector::new(2, 0);
        let _ = c.record_leg(0, record_at(0, 0, 100), 2);
        let _ = c.record_leg(1, record_at(0, 0, 400), 2);
        let _ = c.record_leg(0, record_at(1, 0, 200), 2);
        let _ = c.record_leg(1, record_at(1, 0, 300), 2);
        let merged = c.merged_shard_sojourn();
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.max(), 400);
        // The cluster distribution keeps only the slowest leg per request.
        assert_eq!(c.cluster_stats().measured(), 2);
        assert_eq!(c.cluster_stats().sojourn_stats().min_ns, 300);
    }

    #[test]
    fn partial_cluster_collectors_merge_split_fanouts() {
        // Two receiver threads each saw one leg of every broadcast request: neither
        // partial can complete a fan-out merge alone, but merging the partials must
        // complete all of them with the slowest leg winning.
        let mut a = ClusterCollector::new(2, 0);
        let mut b = ClusterCollector::new(2, 0);
        for i in 0..10u64 {
            assert!(a.record_leg(0, record_at(i, 0, 100), 2).is_none());
            assert!(b.record_leg(1, record_at(i, 0, 200), 2).is_none());
        }
        assert_eq!(a.unmerged(), 10);
        a.merge(b);
        assert_eq!(a.unmerged(), 0);
        assert_eq!(a.cluster_stats().measured(), 10);
        assert_eq!(a.shard_stats()[0].measured(), 10);
        assert_eq!(a.shard_stats()[1].measured(), 10);
        assert_eq!(a.cluster_stats().sojourn_stats().min_ns, 200);
    }

    #[test]
    fn merged_partials_equal_a_single_collector() {
        // The same 40 legs recorded (a) through one collector and (b) split across
        // three partials merged afterwards must produce identical statistics.
        let legs: Vec<(usize, RequestRecord)> = (0..20u64)
            .flat_map(|i| {
                vec![
                    (0usize, record_at(i, i * 10, i * 10 + 100 + i)),
                    (1usize, record_at(i, i * 10, i * 10 + 300 + 2 * i)),
                ]
            })
            .collect();
        let mut single = ClusterCollector::new(2, 3);
        for (shard, record) in &legs {
            let _ = single.record_leg(*shard, *record, 2);
        }
        let mut partials: Vec<ClusterCollector> =
            (0..3).map(|_| ClusterCollector::new(2, 3)).collect();
        for (i, (shard, record)) in legs.iter().enumerate() {
            let _ = partials[i % 3].record_leg(*shard, *record, 2);
        }
        let mut merged = partials.remove(0);
        for partial in partials {
            merged.merge(partial);
        }
        assert_eq!(merged.unmerged(), single.unmerged());
        assert_eq!(
            merged.cluster_stats().measured(),
            single.cluster_stats().measured()
        );
        assert_eq!(
            merged.cluster_stats().sojourn_stats(),
            single.cluster_stats().sojourn_stats()
        );
        for shard in 0..2 {
            assert_eq!(
                merged.shard_stats()[shard].sojourn_stats(),
                single.shard_stats()[shard].sojourn_stats()
            );
        }
        assert_eq!(
            LatencyStats::from_summary(&merged.merged_shard_sojourn()),
            LatencyStats::from_summary(&single.merged_shard_sojourn())
        );
    }

    #[test]
    fn tagged_collector_splits_classes_and_phases() {
        // 10 requests: even ids are class 0 ("fg"), odd ids class 1 ("bg"); first five
        // are phase 0, the rest phase 1.  Background requests are 10x slower.
        let tags = Arc::new(RequestTags::new(
            vec!["fg".into(), "bg".into()],
            vec!["steady".into(), "burst".into()],
            (0..10).map(|i| (i % 2) as u16).collect(),
            (0..10).map(|i| u16::from(i >= 5)).collect(),
        ));
        let mut c = StatsCollector::new(0).with_tags(Some(Arc::clone(&tags)));
        for i in 0..10u64 {
            let service = if i % 2 == 0 { 1_000 } else { 10_000 };
            c.record(&record(i, i * 1_000, service));
        }
        let classes = c.class_breakdown();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].0, "fg");
        assert_eq!(classes[0].1.count, 5);
        assert_eq!(classes[1].1.count, 5);
        assert!(classes[1].1.p50_ns > classes[0].1.p50_ns * 5);
        let phases = c.phase_breakdown();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].1.count + phases[1].1.count, 10);
        // Untagged collectors report no breakdowns.
        assert!(StatsCollector::new(0).class_breakdown().is_empty());
        // Ids beyond the table fall into class/phase 0 instead of panicking.
        c.record(&record(99, 0, 1));
        assert_eq!(c.class_breakdown()[0].1.count, 6);
    }

    #[test]
    fn shard_merge_equals_single_recording() {
        // Record a deterministic stream into one collector and, interleaved, into four
        // shards; the merged shards must be statistically identical (the histogram
        // crate's merge proptest licenses this, pinned here at the collector level).
        let tags = Arc::new(RequestTags::new(
            vec!["fg".into(), "bg".into()],
            vec!["steady".into()],
            (0..200).map(|i| (i % 2) as u16).collect(),
            vec![0; 200],
        ));
        let mut single = StatsCollector::new(10).with_tags(Some(Arc::clone(&tags)));
        let mut shards: Vec<StatsCollector> = (0..4)
            .map(|_| StatsCollector::new(10).with_tags(Some(Arc::clone(&tags))))
            .collect();
        for i in 0..200u64 {
            let r = record(i, i * 1_000, 100 + (i * 37) % 5_000);
            single.record(&r);
            shards[(i % 4) as usize].record(&r);
        }
        let mut merged = shards.remove(0);
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged.measured(), single.measured());
        assert_eq!(merged.warmup_seen(), single.warmup_seen());
        assert_eq!(merged.span_ns(), single.span_ns());
        assert_eq!(merged.sojourn_stats(), single.sojourn_stats());
        assert_eq!(merged.service_stats(), single.service_stats());
        assert_eq!(merged.queue_stats(), single.queue_stats());
        assert_eq!(merged.class_breakdown(), single.class_breakdown());
        assert_eq!(merged.phase_breakdown(), single.phase_breakdown());
        assert!((merged.achieved_qps() - single.achieved_qps()).abs() < 1e-9);
    }
}
