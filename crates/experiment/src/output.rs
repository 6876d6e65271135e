//! Structured experiment output: one object per run, with Markdown and JSON renderers.
//!
//! `Experiment::run()` returns an [`ExperimentOutput`]: the spec that produced it (for
//! provenance) plus one [`ExperimentPoint`] per sweep-grid point, each carrying its
//! resolved coordinates (app, mode, threads, shards, load fraction, hedge trigger),
//! the probed capacity, and the full harness report.  [`ExperimentOutput::to_markdown`]
//! renders the human-readable table the figure binaries print;
//! [`ExperimentOutput::to_json`] emits the machine-readable form the CI smoke gate and
//! downstream tooling consume.

use crate::codec::Codec;
use crate::json::Json;
use crate::spec::{ExperimentSpec, HedgeSpec};
use tailbench_core::config::HarnessMode;
use tailbench_core::report::{
    markdown_table, ClusterReport, HedgeStats, LabeledLatency, LatencyStats, MultiRunReport,
    QueueSummary, RunReport,
};
use tailbench_histogram::ConfidenceInterval;

/// Formats a nanosecond latency for table output (µs below 1 ms, ms below 10 s, else s).
#[must_use]
pub fn format_latency(ns: f64) -> String {
    if ns < 1e6 {
        format!("{:.0} us", ns / 1e3)
    } else if ns < 10e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// The resolved coordinates of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointCoords {
    /// Registry name of the workload measured at this point.
    pub app: String,
    /// Harness mode of this point.
    pub mode: HarnessMode,
    /// Worker threads per server instance.
    pub threads: usize,
    /// Shard count (`None` for single-server points).
    pub shards: Option<usize>,
    /// Replicas per shard (`None` for single-server points).
    pub replication: Option<usize>,
    /// Capacity fraction this point was driven at (`None` for absolute/scenario load).
    pub load_fraction: Option<f64>,
    /// The hedge trigger of this point (`Some(None)` = explicitly unhedged point on a
    /// hedge axis; `None` = hedging not in play).
    pub hedge: Option<Option<HedgeSpec>>,
    /// The tail-mitigation policy label of this point (`Some` only on a mitigation
    /// axis, e.g. `"none"`, `"tied"`, `"least-loaded"`, `"drop-deadline(64,2000000ns)"`).
    pub mitigation: Option<String>,
}

impl PointCoords {
    fn hedge_label(&self) -> Option<String> {
        self.hedge.as_ref().map(|hedge| match hedge {
            None => "none".to_string(),
            Some(HedgeSpec::DelayNs(delay_ns)) => format_latency(*delay_ns as f64).to_string(),
            Some(HedgeSpec::Percentile(p)) => HedgeSpec::percentile_label(*p),
        })
    }
}

/// The harness report of one grid point.
#[derive(Debug, Clone)]
pub enum PointReport {
    /// A single-server, single-repeat run.
    Single(RunReport),
    /// A single-server point with repeats, aggregated with confidence intervals.
    Multi(MultiRunReport),
    /// A cluster, single-repeat run.
    Cluster(ClusterReport),
    /// A cluster point with repeats (one report per repeat, in seed order).
    ClusterMulti(Vec<ClusterReport>),
}

impl PointReport {
    /// The representative end-to-end report of the point: the run itself, or — for
    /// repeated points — the repeat whose end-to-end p95 is closest to the
    /// across-repeat mean (same rule as [`MultiRunReport::representative_run`]).
    #[must_use]
    pub fn headline(&self) -> &RunReport {
        match self {
            PointReport::Single(report) => report,
            PointReport::Multi(multi) => multi
                .representative_run()
                .expect("a measured point has at least one run"),
            PointReport::Cluster(report) => &report.cluster,
            PointReport::ClusterMulti(reports) => &representative_cluster(reports).cluster,
        }
    }

    /// The cluster view of the point, if it ran through the cluster harness (the
    /// representative repeat for repeated points).
    #[must_use]
    pub fn cluster(&self) -> Option<&ClusterReport> {
        match self {
            PointReport::Cluster(report) => Some(report),
            PointReport::ClusterMulti(reports) => Some(representative_cluster(reports)),
            _ => None,
        }
    }
}

/// The repeat whose end-to-end p95 is closest to the across-repeat mean p95.
fn representative_cluster(reports: &[ClusterReport]) -> &ClusterReport {
    let mean = reports
        .iter()
        .map(|r| r.cluster.sojourn.p95_ns as f64)
        .sum::<f64>()
        / reports.len().max(1) as f64;
    reports
        .iter()
        .min_by(|a, b| {
            let da = (a.cluster.sojourn.p95_ns as f64 - mean).abs();
            let db = (b.cluster.sojourn.p95_ns as f64 - mean).abs();
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("a measured point has at least one repeat")
}

/// One measured grid point.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Where in the sweep grid this point sits.
    pub coords: PointCoords,
    /// The probed capacity this point's load was derived from (`None` for absolute
    /// rates and scenarios).
    pub capacity_qps: Option<f64>,
    /// The resolved hedge trigger delay, ns (`None` when unhedged).
    pub hedge_delay_ns: Option<u64>,
    /// The harness report.
    pub report: PointReport,
}

/// The structured result of one `Experiment::run()`.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// The spec that produced this output (provenance; serialized into the JSON form).
    pub spec: ExperimentSpec,
    /// One point per sweep-grid entry, in grid order.
    pub points: Vec<ExperimentPoint>,
}

impl ExperimentOutput {
    /// Renders the output as a Markdown section: a header plus one table with one row
    /// per point.  Columns adapt to the sweep (shards/load/hedge columns appear only
    /// when the grid varies them or a topology/hedge is configured).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let any_shards = self.points.iter().any(|p| p.coords.shards.is_some());
        let any_fraction = self.points.iter().any(|p| p.coords.load_fraction.is_some());
        let any_hedge = self.points.iter().any(|p| p.coords.hedge.is_some());
        let any_mitigation = self.points.iter().any(|p| p.coords.mitigation.is_some());
        let any_cluster = self.points.iter().any(|p| p.report.cluster().is_some());

        let mut headers = vec!["app", "mode", "threads"];
        if any_shards {
            headers.push("shards");
        }
        if any_fraction {
            headers.push("load");
        }
        if any_mitigation {
            headers.push("policy");
        } else if any_hedge {
            headers.push("hedge");
        }
        headers.extend(["offered QPS", "achieved QPS", "mean", "p50", "p95", "p99"]);
        if any_cluster {
            headers.extend(["shard p99 (mean)", "amplification"]);
        }
        if any_hedge {
            headers.extend(["hedges", "wins"]);
        }

        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|point| {
                let headline = point.report.headline();
                let mut row = vec![
                    point.coords.app.clone(),
                    point.coords.mode.name().to_string(),
                    point.coords.threads.to_string(),
                ];
                if any_shards {
                    row.push(match (point.coords.shards, point.coords.replication) {
                        (Some(s), Some(r)) if r > 1 => format!("{s}x{r}"),
                        (Some(s), _) => s.to_string(),
                        (None, _) => "-".to_string(),
                    });
                }
                if any_fraction {
                    row.push(match point.coords.load_fraction {
                        Some(fraction) => format!("{:.0}%", fraction * 100.0),
                        None => "-".to_string(),
                    });
                }
                if any_mitigation {
                    row.push(
                        point
                            .coords
                            .mitigation
                            .clone()
                            .unwrap_or_else(|| "-".into()),
                    );
                } else if any_hedge {
                    row.push(point.coords.hedge_label().unwrap_or_else(|| "-".into()));
                }
                row.push(match headline.offered_qps {
                    Some(qps) => format!("{qps:.0}"),
                    None => "-".to_string(),
                });
                row.push(format!("{:.0}", headline.achieved_qps));
                row.push(format_latency(headline.sojourn.mean_ns));
                row.push(format_latency(headline.sojourn.p50_ns as f64));
                row.push(format_latency(headline.sojourn.p95_ns as f64));
                row.push(format_latency(headline.sojourn.p99_ns as f64));
                if any_cluster {
                    match point.report.cluster() {
                        Some(cluster) => {
                            row.push(format_latency(cluster.mean_shard_p99_ns()));
                            row.push(format!("{:.2}x", cluster.p99_amplification()));
                        }
                        None => {
                            row.push("-".to_string());
                            row.push("-".to_string());
                        }
                    }
                }
                if any_hedge {
                    let stats = point.report.cluster().and_then(|c| c.hedge);
                    row.push(stats.map_or("-".to_string(), |s| s.issued.to_string()));
                    row.push(stats.map_or("-".to_string(), |s| s.wins.to_string()));
                }
                row
            })
            .collect();

        let mut out = format!("\n## {}\n\n", self.spec.name);
        out.push_str(&markdown_table(&headers, &rows));
        out
    }

    /// Encodes the full output (spec + every report) as a JSON tree.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.spec.name.clone())),
            ("spec", self.spec.to_json()),
            (
                "points",
                Json::Arr(self.points.iter().map(point_to_json).collect()),
            ),
        ])
    }

    /// Encodes to pretty-printed JSON text.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_text_pretty()
    }
}

fn point_to_json(point: &ExperimentPoint) -> Json {
    let coords = &point.coords;
    let mut coord_pairs = vec![
        ("app", Json::str(coords.app.clone())),
        ("mode", coords.mode.encode()),
        ("threads", Json::U64(coords.threads as u64)),
    ];
    if let Some(shards) = coords.shards {
        coord_pairs.push(("shards", Json::U64(shards as u64)));
    }
    if let Some(replication) = coords.replication {
        coord_pairs.push(("replication", Json::U64(replication as u64)));
    }
    if let Some(fraction) = coords.load_fraction {
        coord_pairs.push(("load_fraction", Json::F64(fraction)));
    }
    if let Some(label) = coords.hedge_label() {
        coord_pairs.push(("hedge", Json::str(label)));
    }
    if let Some(label) = &coords.mitigation {
        coord_pairs.push(("mitigation", Json::str(label.clone())));
    }
    let mut pairs = vec![(
        "coords",
        Json::Obj(
            coord_pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ),
    )];
    if let Some(capacity) = point.capacity_qps {
        pairs.push(("capacity_qps", Json::F64(capacity)));
    }
    if let Some(delay) = point.hedge_delay_ns {
        pairs.push(("hedge_delay_ns", Json::U64(delay)));
    }
    let report = match &point.report {
        PointReport::Single(report) => Json::obj(vec![("single", run_report_to_json(report))]),
        PointReport::Multi(multi) => Json::obj(vec![("multi", multi_report_to_json(multi))]),
        PointReport::Cluster(report) => {
            Json::obj(vec![("cluster", cluster_report_to_json(report))])
        }
        PointReport::ClusterMulti(reports) => Json::obj(vec![(
            "cluster_multi",
            Json::Arr(reports.iter().map(cluster_report_to_json).collect()),
        )]),
    };
    pairs.push(("report", report));
    Json::obj(pairs)
}

fn latency_stats_to_json(stats: &LatencyStats) -> Json {
    Json::obj(vec![
        ("count", Json::U64(stats.count)),
        ("mean_ns", Json::F64(stats.mean_ns)),
        ("p50_ns", Json::U64(stats.p50_ns)),
        ("p90_ns", Json::U64(stats.p90_ns)),
        ("p95_ns", Json::U64(stats.p95_ns)),
        ("p99_ns", Json::U64(stats.p99_ns)),
        ("p999_ns", Json::U64(stats.p999_ns)),
        ("min_ns", Json::U64(stats.min_ns)),
        ("max_ns", Json::U64(stats.max_ns)),
    ])
}

fn queue_summary_to_json(summary: &QueueSummary) -> Json {
    Json::obj(vec![
        ("policy", Json::str(summary.policy.clone())),
        ("accepted", Json::U64(summary.accepted)),
        ("dropped", Json::U64(summary.dropped)),
        ("peak_depth", Json::U64(summary.peak_depth)),
        ("mean_sampled_depth", Json::F64(summary.mean_sampled_depth)),
        (
            "depth_timeline",
            Json::Arr(
                summary
                    .depth_timeline
                    .iter()
                    .map(|&(t, d)| Json::Arr(vec![Json::U64(t), Json::U64(d)]))
                    .collect(),
            ),
        ),
    ])
}

fn labeled_to_json(labeled: &[LabeledLatency]) -> Json {
    Json::Arr(
        labeled
            .iter()
            .map(|l| {
                Json::obj(vec![
                    ("name", Json::str(l.name.clone())),
                    ("sojourn", latency_stats_to_json(&l.sojourn)),
                ])
            })
            .collect(),
    )
}

/// Encodes one [`RunReport`] (all fields, including per-class/per-phase breakdowns).
#[must_use]
pub fn run_report_to_json(report: &RunReport) -> Json {
    let mut pairs = vec![
        ("app", Json::str(report.app.clone())),
        ("configuration", Json::str(report.configuration.clone())),
        (
            "offered_qps",
            report.offered_qps.map_or(Json::Null, Json::F64),
        ),
        ("achieved_qps", Json::F64(report.achieved_qps)),
        ("requests", Json::U64(report.requests)),
        ("worker_threads", Json::U64(report.worker_threads as u64)),
        ("duration_ns", Json::U64(report.duration_ns)),
        ("sojourn", latency_stats_to_json(&report.sojourn)),
        ("service", latency_stats_to_json(&report.service)),
        ("queue", latency_stats_to_json(&report.queue)),
        ("overhead", latency_stats_to_json(&report.overhead)),
        ("queue_depth", queue_summary_to_json(&report.queue_depth)),
        ("pacing", latency_stats_to_json(&report.pacing)),
    ];
    if !report.per_class.is_empty() {
        pairs.push(("per_class", labeled_to_json(&report.per_class)));
    }
    if !report.per_phase.is_empty() {
        pairs.push(("per_phase", labeled_to_json(&report.per_phase)));
    }
    Json::obj(pairs)
}

fn hedge_stats_to_json(stats: &HedgeStats) -> Json {
    Json::obj(vec![
        ("issued", Json::U64(stats.issued)),
        ("wins", Json::U64(stats.wins)),
    ])
}

/// Encodes one [`ClusterReport`] (end-to-end, per-shard, union and hedge views).
#[must_use]
pub fn cluster_report_to_json(report: &ClusterReport) -> Json {
    let mut pairs = vec![
        ("cluster", run_report_to_json(&report.cluster)),
        (
            "per_shard",
            Json::Arr(report.per_shard.iter().map(run_report_to_json).collect()),
        ),
        ("shards", Json::U64(report.shards as u64)),
        ("replication", Json::U64(report.replication as u64)),
        (
            "shard_union_sojourn",
            latency_stats_to_json(&report.shard_union_sojourn),
        ),
        ("unmerged", Json::U64(report.unmerged)),
    ];
    if let Some(hedge) = &report.hedge {
        pairs.push(("hedge", hedge_stats_to_json(hedge)));
    }
    pairs.push(("p99_amplification", Json::F64(report.p99_amplification())));
    Json::obj(pairs)
}

fn ci_to_json(ci: &ConfidenceInterval) -> Json {
    Json::obj(vec![
        ("n", Json::U64(ci.n as u64)),
        ("mean", Json::F64(ci.mean)),
        ("std_dev", Json::F64(ci.std_dev)),
        ("half_width", Json::F64(ci.half_width)),
    ])
}

/// Encodes one [`MultiRunReport`] (per-run reports plus the confidence intervals).
#[must_use]
pub fn multi_report_to_json(multi: &MultiRunReport) -> Json {
    Json::obj(vec![
        (
            "runs",
            Json::Arr(multi.runs.iter().map(run_report_to_json).collect()),
        ),
        ("mean_ci", ci_to_json(&multi.mean_ci)),
        ("p95_ci", ci_to_json(&multi.p95_ci)),
        ("p99_ci", ci_to_json(&multi.p99_ci)),
        ("converged", Json::Bool(multi.converged)),
    ])
}

/// Verifies that serialized experiment output is structurally sound: it parses, holds
/// at least one point, and every point's headline report carries a positive end-to-end
/// `p99_ns` plus the measurement-pipeline fields (`queue_depth` admission accounting
/// and the `pacing` error summary).  This is the check the CI smoke gate runs against
/// the `tailbench` CLI's `--json` output.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found.
pub fn verify_output_text(text: &str) -> Result<usize, String> {
    let value = crate::json::parse(text).map_err(|e| e.to_string())?;
    let points = value
        .get("points")
        .and_then(Json::as_array)
        .ok_or("output has no 'points' array")?;
    if points.is_empty() {
        return Err("output has zero points".to_string());
    }
    for (i, point) in points.iter().enumerate() {
        let report = point
            .get("report")
            .ok_or_else(|| format!("point {i} has no report"))?;
        let (_, Some(body)) = report_variant(report)? else {
            return Err(format!("point {i}: malformed report"));
        };
        let headline = match report_variant(report)?.0 {
            "single" => body.clone(),
            "cluster" => body
                .get("cluster")
                .cloned()
                .ok_or_else(|| format!("point {i}: cluster report lacks 'cluster'"))?,
            "multi" => body
                .get("runs")
                .and_then(Json::as_array)
                .and_then(<[Json]>::first)
                .cloned()
                .ok_or_else(|| format!("point {i}: multi report lacks runs"))?,
            "cluster_multi" => body
                .as_array()
                .and_then(<[Json]>::first)
                .and_then(|r| r.get("cluster"))
                .cloned()
                .ok_or_else(|| format!("point {i}: cluster_multi report lacks runs"))?,
            kind => return Err(format!("point {i}: unknown report kind '{kind}'")),
        };
        let p99 = headline
            .get("sojourn")
            .and_then(|s| s.get("p99_ns"))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("point {i}: missing sojourn.p99_ns"))?;
        if p99 == 0 {
            return Err(format!("point {i}: sojourn.p99_ns is 0"));
        }
        headline
            .get("queue_depth")
            .and_then(|q| q.get("policy"))
            .and_then(Json::as_str)
            .ok_or_else(|| format!("point {i}: missing queue_depth admission summary"))?;
        headline
            .get("pacing")
            .and_then(|p| p.get("count"))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("point {i}: missing pacing summary"))?;
    }
    Ok(points.len())
}

fn report_variant(report: &Json) -> Result<(&str, Option<&Json>), String> {
    match report {
        Json::Obj(pairs) if pairs.len() == 1 => Ok((pairs[0].0.as_str(), Some(&pairs[0].1))),
        _ => Err("report must be a single-variant object".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LoadSpec;

    fn stats(p99_ms: f64) -> LatencyStats {
        LatencyStats {
            count: 1000,
            mean_ns: p99_ms * 0.5e6,
            p50_ns: (p99_ms * 0.4e6) as u64,
            p90_ns: (p99_ms * 0.8e6) as u64,
            p95_ns: (p99_ms * 0.9e6) as u64,
            p99_ns: (p99_ms * 1e6) as u64,
            p999_ns: (p99_ms * 1.4e6) as u64,
            min_ns: 1_000,
            max_ns: (p99_ms * 2e6) as u64,
        }
    }

    fn run_report() -> RunReport {
        RunReport {
            app: "echo".into(),
            configuration: "simulated".into(),
            offered_qps: Some(5_000.0),
            achieved_qps: 4_990.0,
            requests: 1_000,
            worker_threads: 1,
            duration_ns: 200_000_000,
            sojourn: stats(2.0),
            service: stats(1.0),
            queue: stats(0.5),
            overhead: stats(0.1),
            per_class: Vec::new(),
            per_phase: Vec::new(),
            queue_depth: QueueSummary {
                policy: "unbounded".into(),
                accepted: 1_000,
                dropped: 0,
                peak_depth: 12,
                mean_sampled_depth: 3.5,
                depth_timeline: vec![(0, 1), (1_000_000, 12)],
            },
            pacing: stats(0.01),
        }
    }

    fn output() -> ExperimentOutput {
        ExperimentOutput {
            spec: ExperimentSpec::new("demo", "echo").with_load(LoadSpec::Qps(5_000.0)),
            points: vec![ExperimentPoint {
                coords: PointCoords {
                    app: "echo".into(),
                    mode: HarnessMode::Simulated,
                    threads: 1,
                    shards: None,
                    replication: None,
                    load_fraction: None,
                    hedge: None,
                    mitigation: None,
                },
                capacity_qps: None,
                hedge_delay_ns: None,
                report: PointReport::Single(run_report()),
            }],
        }
    }

    #[test]
    fn markdown_has_headline_columns_and_one_row_per_point() {
        let md = output().to_markdown();
        assert!(md.contains("## demo"));
        assert!(
            md.contains("| app | mode | threads | offered QPS |"),
            "{md}"
        );
        assert!(md.contains("| echo | simulated | 1 | 5000 |"), "{md}");
        // No cluster/hedge columns for a plain single-server output.
        assert!(!md.contains("amplification"));
        assert!(!md.contains("hedge"));
    }

    #[test]
    fn json_output_passes_verification() {
        let text = output().to_json_string();
        assert_eq!(verify_output_text(&text), Ok(1));
        assert!(text.contains("\"p99_ns\": 2000000"), "{text}");
        // The measurement-pipeline fields ride along in the machine-readable form.
        assert!(text.contains("\"queue_depth\""), "{text}");
        assert!(text.contains("\"policy\": \"unbounded\""), "{text}");
        assert!(text.contains("\"peak_depth\": 12"), "{text}");
        assert!(text.contains("\"depth_timeline\""), "{text}");
        assert!(text.contains("\"pacing\""), "{text}");
    }

    #[test]
    fn verification_requires_the_pipeline_fields() {
        // Outputs missing queue_depth/pacing (e.g. from an older binary) are rejected.
        let text = output().to_json_string();
        let stripped = text.replace("\"queue_depth\"", "\"queue_depth_gone\"");
        assert!(verify_output_text(&stripped)
            .unwrap_err()
            .contains("queue_depth"));
        let stripped = text.replace("\"pacing\"", "\"pacing_gone\"");
        assert!(verify_output_text(&stripped)
            .unwrap_err()
            .contains("pacing"));
    }

    #[test]
    fn verification_rejects_broken_outputs() {
        assert!(verify_output_text("not json").is_err());
        assert!(verify_output_text("{}").unwrap_err().contains("points"));
        assert!(verify_output_text("{\"points\": []}")
            .unwrap_err()
            .contains("zero points"));
        let mut broken = output();
        if let PointReport::Single(report) = &mut broken.points[0].report {
            report.sojourn.p99_ns = 0;
        }
        assert!(verify_output_text(&broken.to_json_string())
            .unwrap_err()
            .contains("p99_ns is 0"));
    }

    #[test]
    fn cluster_points_render_amplification_and_hedge_columns() {
        let cluster = ClusterReport {
            cluster: run_report(),
            per_shard: vec![run_report(), run_report()],
            shards: 2,
            replication: 2,
            shard_union_sojourn: stats(1.5),
            hedge: Some(HedgeStats {
                issued: 42,
                wins: 17,
            }),
            unmerged: 0,
        };
        let out = ExperimentOutput {
            spec: ExperimentSpec::new("cluster-demo", "echo"),
            points: vec![ExperimentPoint {
                coords: PointCoords {
                    app: "echo".into(),
                    mode: HarnessMode::Simulated,
                    threads: 1,
                    shards: Some(2),
                    replication: Some(2),
                    load_fraction: Some(0.7),
                    hedge: Some(Some(HedgeSpec::Percentile(0.95))),
                    mitigation: None,
                },
                capacity_qps: Some(10_000.0),
                hedge_delay_ns: Some(1_800_000),
                report: PointReport::Cluster(cluster),
            }],
        };
        let md = out.to_markdown();
        assert!(md.contains("amplification"), "{md}");
        assert!(md.contains("| 2x2 |"), "{md}");
        assert!(md.contains("| p95 |"), "{md}");
        assert!(md.contains("| 42 | 17 |"), "{md}");
        let text = out.to_json_string();
        assert_eq!(verify_output_text(&text), Ok(1));
        assert!(text.contains("\"hedge_delay_ns\": 1800000"), "{text}");
        assert!(text.contains("\"p99_amplification\""), "{text}");
    }
}
