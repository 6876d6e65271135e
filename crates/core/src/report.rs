//! Run reports.
//!
//! A [`RunReport`] captures everything the paper reports about a single measurement run:
//! offered and achieved load, and the mean / tail latencies of the sojourn, service and
//! queuing time distributions; a [`ClusterReport`] adds the per-shard and fan-out views of
//! a cluster run.  The experiment layer's point report aggregates repeated runs with
//! the confidence intervals mandated by the methodology (§IV-C).

use crate::config::HarnessMode;
use std::fmt;
use tailbench_histogram::LatencySummary;

/// Summary statistics of one latency distribution, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (50th percentile).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 95th percentile — the headline metric of most of the paper's figures.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Minimum.
    pub min_ns: u64,
    /// Maximum.
    pub max_ns: u64,
}

impl LatencyStats {
    /// Extracts summary statistics from a latency summary.
    #[must_use]
    pub fn from_summary(summary: &LatencySummary) -> Self {
        let [p50_ns, p90_ns, p95_ns, p99_ns, p999_ns] =
            summary.values_at_quantiles([0.50, 0.90, 0.95, 0.99, 0.999]);
        LatencyStats {
            count: summary.len(),
            mean_ns: summary.mean(),
            p50_ns,
            p90_ns,
            p95_ns,
            p99_ns,
            p999_ns,
            min_ns: summary.min(),
            max_ns: summary.max(),
        }
    }

    /// Mean in milliseconds.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns / 1e6
    }

    /// 95th percentile in milliseconds.
    #[must_use]
    pub fn p95_ms(&self) -> f64 {
        self.p95_ns as f64 / 1e6
    }

    /// 99th percentile in milliseconds.
    #[must_use]
    pub fn p99_ms(&self) -> f64 {
        self.p99_ns as f64 / 1e6
    }
}

/// Admission and queue-depth accounting of one run's server-side request queue(s).
///
/// Open-loop overload used to be invisible: the unbounded queue silently absorbed any
/// backlog and only the sojourn tail hinted at it.  Every runner now reports how the
/// queue actually behaved — what was admitted, what a `Drop` policy rejected, how deep
/// the queue got, and a sampled depth timeline — so saturation is a first-class result
/// instead of an inference.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSummary {
    /// Admission-policy label (`unbounded`, `block(N)`, `drop(N)`).
    pub policy: String,
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests rejected by a `Drop` admission policy.
    pub dropped: u64,
    /// Maximum instantaneous queue depth observed at any admission.
    pub peak_depth: u64,
    /// Mean depth over the sampled timeline (0 when no samples were taken).
    pub mean_sampled_depth: f64,
    /// Sampled `(ns since run epoch, depth)` timeline, in time order.
    pub depth_timeline: Vec<(u64, u64)>,
}

impl Default for QueueSummary {
    fn default() -> Self {
        QueueSummary {
            policy: "unbounded".to_string(),
            accepted: 0,
            dropped: 0,
            peak_depth: 0,
            mean_sampled_depth: 0.0,
            depth_timeline: Vec::new(),
        }
    }
}

impl QueueSummary {
    /// Aggregates several queues' summaries (a cluster's per-instance queues) into one.
    ///
    /// The aggregate of one summary is that summary, unchanged.  Over several, counts
    /// add, the peak is the largest peak and the policy is the first queue's; the
    /// sampled timeline and its mean are left out (empty and 0), because each queue
    /// samples on its own instants and their depths do not add.
    #[must_use]
    pub fn aggregate<'a>(summaries: impl IntoIterator<Item = &'a QueueSummary>) -> QueueSummary {
        let mut summaries = summaries.into_iter();
        let mut out = summaries.next().cloned().unwrap_or_default();
        for s in summaries {
            out.mean_sampled_depth = 0.0;
            out.depth_timeline.clear();
            out.accepted += s.accepted;
            out.dropped += s.dropped;
            out.peak_depth = out.peak_depth.max(s.peak_depth);
        }
        out
    }

    /// Fraction of offered requests the queue rejected (0 when nothing was offered).
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        let offered = self.accepted + self.dropped;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }
}

/// One labelled latency distribution inside a report — a client class, a load phase, or
/// any other slice of the run's requests.
#[derive(Debug, Clone)]
pub struct LabeledLatency {
    /// Slice label (class name or phase name).
    pub name: String,
    /// Sojourn statistics of the slice.
    pub sojourn: LatencyStats,
}

/// Renders one Markdown table — the single table-rendering implementation shared by
/// [`percentile_table`], the report breakdowns and the figure/table binaries
/// (previously copy-pasted per call site).
#[must_use]
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Renders labelled latency distributions as one Markdown percentile table — used by
/// [`RunReport::breakdown_markdown`] and the scenario figure binaries.
#[must_use]
pub fn percentile_table(label_header: &str, rows: &[(String, LatencyStats)]) -> String {
    let ms = |ns: f64| format!("{:.3} ms", ns / 1e6);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, stats)| {
            vec![
                name.clone(),
                stats.count.to_string(),
                ms(stats.mean_ns),
                ms(stats.p50_ns as f64),
                ms(stats.p95_ns as f64),
                ms(stats.p99_ns as f64),
                ms(stats.p999_ns as f64),
                ms(stats.max_ns as f64),
            ]
        })
        .collect();
    markdown_table(
        &[
            label_header,
            "n",
            "mean",
            "p50",
            "p95",
            "p99",
            "p99.9",
            "max",
        ],
        &body,
    )
}

/// The result of one measurement run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Harness configuration name (`integrated`, `loopback`, `networked`, `simulated`).
    pub configuration: String,
    /// Offered load in QPS (absent for closed-loop runs).
    pub offered_qps: Option<f64>,
    /// Achieved throughput over the measured interval in QPS.
    pub achieved_qps: f64,
    /// Number of measured (non-warmup) requests.
    pub requests: u64,
    /// Number of application worker threads.
    pub worker_threads: usize,
    /// Wall-clock (or virtual-clock) span of the measured interval, ns.
    pub duration_ns: u64,
    /// End-to-end latency distribution.
    pub sojourn: LatencyStats,
    /// Service-time distribution.
    pub service: LatencyStats,
    /// Queuing-time distribution.
    pub queue: LatencyStats,
    /// Transport/harness overhead distribution.
    pub overhead: LatencyStats,
    /// Per-client-class sojourn distributions (empty for untagged runs).
    pub per_class: Vec<LabeledLatency>,
    /// Per-load-phase sojourn distributions (empty for untagged runs).
    pub per_phase: Vec<LabeledLatency>,
    /// Request-queue admission and depth accounting (default for paths without a
    /// server-side queue, e.g. closed-loop drivers).
    pub queue_depth: QueueSummary,
    /// Distribution of per-request pacing error: actual minus scheduled issue time.
    /// Empty (`count == 0`) for closed-loop runs and for the discrete-event simulator,
    /// whose virtual clock paces exactly.
    pub pacing: LatencyStats,
}

impl RunReport {
    /// The per-class and per-phase breakdowns rendered as Markdown percentile tables
    /// (empty string for untagged runs).
    #[must_use]
    pub fn breakdown_markdown(&self) -> String {
        let mut out = String::new();
        for (header, rows) in [("class", &self.per_class), ("phase", &self.per_phase)] {
            if !rows.is_empty() {
                let rows: Vec<(String, LatencyStats)> =
                    rows.iter().map(|c| (c.name.clone(), c.sojourn)).collect();
                out.push_str(&percentile_table(header, &rows));
                out.push('\n');
            }
        }
        out
    }

    /// Returns `true` if the run failed to keep up with the offered load (achieved
    /// throughput more than `tolerance` below offered), i.e. the system was saturated.
    #[must_use]
    pub fn is_saturated(&self, tolerance: f64) -> bool {
        match self.offered_qps {
            Some(offered) if offered > 0.0 => self.achieved_qps < offered * (1.0 - tolerance),
            _ => false,
        }
    }

    /// Returns a human-readable warning when the run's p99 pacing error exceeds
    /// `threshold_ns` — the harness fell behind its open-loop schedule badly enough to
    /// distort bursts — and `None` when pacing held (or was not recorded).
    #[must_use]
    pub fn pacing_warning(&self, threshold_ns: u64) -> Option<String> {
        if self.pacing.count > 0 && self.pacing.p99_ns > threshold_ns {
            Some(format!(
                "warning: p99 pacing error {:.3} ms exceeds {:.3} ms ({} issues, max {:.3} ms); \
                 open-loop bursts are skewed — reduce offered load or free up client cores",
                self.pacing.p99_ns as f64 / 1e6,
                threshold_ns as f64 / 1e6,
                self.pacing.count,
                self.pacing.max_ns as f64 / 1e6,
            ))
        } else {
            None
        }
    }

    /// System load: achieved QPS divided by the provided capacity (saturation QPS).
    #[must_use]
    pub fn load(&self, capacity_qps: f64) -> f64 {
        if capacity_qps <= 0.0 {
            0.0
        } else {
            self.offered_qps.unwrap_or(self.achieved_qps) / capacity_qps
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:<11} {:>7} thr={} offered={:>10.1} achieved={:>10.1}  p50={:>9.3}ms p95={:>9.3}ms p99={:>9.3}ms mean={:>9.3}ms",
            self.app,
            self.configuration,
            self.requests,
            self.worker_threads,
            self.offered_qps.unwrap_or(f64::NAN),
            self.achieved_qps,
            self.sojourn.p50_ns as f64 / 1e6,
            self.sojourn.p95_ms(),
            self.sojourn.p99_ms(),
            self.sojourn.mean_ms(),
        )
    }
}

/// Bookkeeping of the hedged-request policy over one cluster run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HedgeStats {
    /// Hedge copies issued (legs whose primary had not responded within the trigger
    /// delay).
    pub issued: u64,
    /// Hedges that won their leg (the copy responded before the primary).
    pub wins: u64,
}

/// The result of one cluster measurement run: the end-to-end (client-observed)
/// distribution plus each shard's own distribution, so the fan-out tail amplification
/// is directly readable.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// End-to-end report: a request completes when its last leg completes.
    pub cluster: RunReport,
    /// Per-shard reports, indexed by shard.
    pub per_shard: Vec<RunReport>,
    /// Number of shards.
    pub shards: usize,
    /// Replicas per shard.
    pub replication: usize,
    /// Statistics of the union of all shards' legs (the "typical shard" view).
    pub shard_union_sojourn: LatencyStats,
    /// Hedged-request bookkeeping (`None` when no hedge policy was configured).
    pub hedge: Option<HedgeStats>,
    /// Fan-out requests whose legs never all completed — a run cut short, or legs
    /// partially shed by a `Drop` admission policy.  These requests are *excluded*
    /// from the end-to-end distribution, so a non-zero count flags that the cluster
    /// tail is computed over the surviving (least-loaded) requests only.
    pub unmerged: u64,
}

impl ClusterReport {
    /// The report of a single server run as this 1×1 cluster: the end-to-end view
    /// (which holds the one instance's full queue summary) under `mode`'s own label.
    #[must_use]
    pub fn single_server(self, mode: HarnessMode) -> RunReport {
        RunReport {
            configuration: mode.name().to_string(),
            ..self.cluster
        }
    }

    /// The largest per-shard p99 sojourn, ns.
    #[must_use]
    pub fn max_shard_p99_ns(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|r| r.sojourn.p99_ns)
            .max()
            .unwrap_or(0)
    }

    /// Mean of the per-shard p99 sojourns, ns.
    #[must_use]
    pub fn mean_shard_p99_ns(&self) -> f64 {
        if self.per_shard.is_empty() {
            return 0.0;
        }
        self.per_shard
            .iter()
            .map(|r| r.sojourn.p99_ns as f64)
            .sum::<f64>()
            / self.per_shard.len() as f64
    }

    /// Tail amplification: the cluster p99 divided by the mean per-shard p99.  Waiting
    /// for the slowest of N shards pushes the cluster's p99 toward the shards' p99.9+,
    /// so this ratio grows with fan-out (the tail-at-scale effect).
    #[must_use]
    pub fn p99_amplification(&self) -> f64 {
        let shard = self.mean_shard_p99_ns();
        if shard <= 0.0 {
            0.0
        } else {
            self.cluster.sojourn.p99_ns as f64 / shard
        }
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster {}x{}: p99 = {:.3} ms (shard mean p99 = {:.3} ms, amplification {:.2}x)",
            self.shards,
            self.replication,
            self.cluster.sojourn.p99_ms(),
            self.mean_shard_p99_ns() / 1e6,
            self.p99_amplification(),
        )?;
        for (i, shard) in self.per_shard.iter().enumerate() {
            writeln!(f, "  shard {i}: {shard}")?;
        }
        write!(f, "  end-to-end: {}", self.cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(p95_ms: f64, offered: f64, achieved: f64) -> RunReport {
        RunReport {
            app: "echo".into(),
            configuration: "integrated".into(),
            offered_qps: Some(offered),
            achieved_qps: achieved,
            requests: 1000,
            worker_threads: 1,
            duration_ns: 1_000_000_000,
            sojourn: LatencyStats {
                count: 1000,
                mean_ns: p95_ms * 0.6e6,
                p50_ns: (p95_ms * 0.5e6) as u64,
                p90_ns: (p95_ms * 0.9e6) as u64,
                p95_ns: (p95_ms * 1e6) as u64,
                p99_ns: (p95_ms * 1.3e6) as u64,
                p999_ns: (p95_ms * 1.8e6) as u64,
                min_ns: 1_000,
                max_ns: (p95_ms * 2e6) as u64,
            },
            service: LatencyStats::default(),
            queue: LatencyStats::default(),
            overhead: LatencyStats::default(),
            per_class: Vec::new(),
            per_phase: Vec::new(),
            queue_depth: QueueSummary::default(),
            pacing: LatencyStats::default(),
        }
    }

    #[test]
    fn latency_stats_from_summary() {
        let mut s = LatencySummary::new();
        for i in 1..=100u64 {
            s.record(i * 1_000_000);
        }
        let stats = LatencyStats::from_summary(&s);
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p95_ns, 95_000_000);
        assert!((stats.p95_ms() - 95.0).abs() < 1e-9);
        assert_eq!(stats.min_ns, 1_000_000);
        assert_eq!(stats.max_ns, 100_000_000);
    }

    #[test]
    fn saturation_detection() {
        assert!(!report(2.0, 1000.0, 995.0).is_saturated(0.05));
        assert!(report(50.0, 1000.0, 700.0).is_saturated(0.05));
        let mut closed = report(2.0, 1000.0, 700.0);
        closed.offered_qps = None;
        assert!(!closed.is_saturated(0.05));
    }

    #[test]
    fn load_is_relative_to_capacity() {
        let r = report(2.0, 500.0, 498.0);
        assert!((r.load(1000.0) - 0.5).abs() < 1e-9);
        assert_eq!(r.load(0.0), 0.0);
    }

    #[test]
    fn cluster_report_amplification_is_cluster_over_mean_shard() {
        let cluster = ClusterReport {
            cluster: report(4.0, 1000.0, 998.0),
            per_shard: vec![report(2.0, 1000.0, 998.0), report(2.0, 1000.0, 998.0)],
            shards: 2,
            replication: 1,
            shard_union_sojourn: LatencyStats::default(),
            hedge: None,
            unmerged: 0,
        };
        assert_eq!(cluster.max_shard_p99_ns(), (2.0 * 1.3e6) as u64);
        assert!((cluster.mean_shard_p99_ns() - 2.0 * 1.3e6).abs() < 1.0);
        assert!((cluster.p99_amplification() - 2.0).abs() < 1e-9);
        let s = format!("{cluster}");
        assert!(s.contains("amplification"));
        assert!(s.contains("shard 0"));
    }

    #[test]
    fn empty_cluster_report_is_well_behaved() {
        let cluster = ClusterReport {
            cluster: report(1.0, 100.0, 100.0),
            per_shard: Vec::new(),
            shards: 0,
            replication: 1,
            shard_union_sojourn: LatencyStats::default(),
            hedge: None,
            unmerged: 0,
        };
        assert_eq!(cluster.max_shard_p99_ns(), 0);
        assert_eq!(cluster.mean_shard_p99_ns(), 0.0);
        assert_eq!(cluster.p99_amplification(), 0.0);
    }

    #[test]
    fn percentile_table_renders_every_labelled_row() {
        let mut r = report(2.0, 1000.0, 998.0);
        r.per_class = vec![
            LabeledLatency {
                name: "interactive".into(),
                sojourn: r.sojourn,
            },
            LabeledLatency {
                name: "batch".into(),
                sojourn: r.sojourn,
            },
        ];
        r.per_phase = vec![LabeledLatency {
            name: "burst".into(),
            sojourn: r.sojourn,
        }];
        let md = r.breakdown_markdown();
        assert!(md.contains("| class |"));
        assert!(md.contains("| interactive |"));
        assert!(md.contains("| batch |"));
        assert!(md.contains("| phase |"));
        assert!(md.contains("| burst |"));
        // Header + separator + one row per label, via the single shared renderer.
        let table = percentile_table("x", &[("only".into(), r.sojourn)]);
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("p99.9"));
    }

    #[test]
    fn display_contains_key_fields() {
        let s = format!("{}", report(2.0, 1000.0, 998.0));
        assert!(s.contains("echo"));
        assert!(s.contains("integrated"));
        assert!(s.contains("p95"));
    }

    #[test]
    fn queue_summary_aggregates_counts_and_peaks() {
        let a = QueueSummary {
            policy: "drop(64)".into(),
            accepted: 100,
            dropped: 10,
            peak_depth: 40,
            mean_sampled_depth: 12.0,
            depth_timeline: vec![(0, 1), (1_000, 40)],
        };
        let b = QueueSummary {
            accepted: 50,
            dropped: 0,
            peak_depth: 64,
            ..QueueSummary::default()
        };
        let agg = QueueSummary::aggregate([&a, &b]);
        assert_eq!(agg.policy, "drop(64)");
        assert_eq!(agg.accepted, 150);
        assert_eq!(agg.dropped, 10);
        assert_eq!(agg.peak_depth, 64);
        assert!(agg.depth_timeline.is_empty());
        assert_eq!(agg.mean_sampled_depth, 0.0);
        assert!((a.drop_rate() - 10.0 / 110.0).abs() < 1e-12);
        assert_eq!(QueueSummary::default().drop_rate(), 0.0);
        assert_eq!(QueueSummary::default().policy, "unbounded");
    }

    #[test]
    fn queue_summary_aggregate_of_one_is_that_summary() {
        let only = QueueSummary {
            policy: "drop-deadline(8, 2000us)".into(),
            accepted: 90,
            dropped: 3,
            peak_depth: 8,
            mean_sampled_depth: 2.5,
            depth_timeline: vec![(0, 1), (1_000, 4)],
        };
        assert_eq!(QueueSummary::aggregate([&only]), only);
        assert_eq!(QueueSummary::aggregate([]), QueueSummary::default());
    }

    #[test]
    fn pacing_warning_fires_only_above_threshold() {
        let mut r = report(2.0, 1000.0, 998.0);
        assert!(
            r.pacing_warning(1_000_000).is_none(),
            "empty pacing is quiet"
        );
        r.pacing = LatencyStats {
            count: 500,
            mean_ns: 40_000.0,
            p50_ns: 10_000,
            p90_ns: 100_000,
            p95_ns: 300_000,
            p99_ns: 2_500_000,
            p999_ns: 4_000_000,
            min_ns: 0,
            max_ns: 5_000_000,
        };
        let warn = r.pacing_warning(1_000_000).expect("p99 over threshold");
        assert!(warn.contains("pacing error"), "{warn}");
        assert!(r.pacing_warning(10_000_000).is_none());
    }
}
