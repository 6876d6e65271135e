//! The end-to-end metrics with their bounds, and `benchmark compare A.json B.json`:
//! one verdict per (workload, end-to-end metric) pair.

use crate::api::Json;
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: `bound` is the share of A's median by which B may be worse
/// before the pair counts as a regression.  `BENCHMARK.json` lists the same four.
pub struct EndToEnd {
    pub name: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sojourn_p95_us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        better: Better::Lower,
        bound: 0.1,
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The repeats of A or of B are noisier than the bound: no verdict can be given.
    Unresolved,
}

/// One reported figure of a result file: the value and the repeats behind it.
pub struct Figure {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// By how much of A's value B is worse (negative when B is better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub struct Judgement {
    /// By how much of A's value B is worse.
    pub worse_by: f64,
    /// The wider of the two sides' noise.
    pub noise: f64,
    pub verdict: Verdict,
}

/// How far a figure's value can be trusted, as a share of it: the spread of its
/// repeats over √n, because the value is their median (or their best).  A figure
/// with a single repeat shows no noise, so the bound stands in for it.
fn noise(figure: &Figure, bound: f64) -> f64 {
    match figure.samples.len() {
        0 | 1 => bound,
        n => spread(&figure.samples) / (n as f64).sqrt(),
    }
}

pub fn judge(a: &Figure, b: &Figure, metric: &EndToEnd) -> Judgement {
    let noise = noise(a, metric.bound).max(noise(b, metric.bound));
    let worse_by = worse_by(a.value, b.value, metric.better);
    let verdict = if noise > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > noise {
        Verdict::Better
    } else {
        Verdict::Within
    };
    Judgement {
        worse_by,
        noise,
        verdict,
    }
}

/// `(workload, metric) -> figure` of every metric in a result file, in file order.
fn figures(doc: &Json) -> Result<Vec<(String, String, Figure)>, String> {
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("no \"workloads\" array")?;
    let mut out = Vec::new();
    for workload in workloads {
        let name = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload has no name")?;
        let Some(Json::Obj(metrics)) = workload.get("metrics") else {
            return Err(format!("workload {name} has no metrics"));
        };
        for (metric, body) in metrics {
            let value = body
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}/{metric} has no value"))?;
            let samples = body
                .get("samples")
                .and_then(Json::as_array)
                .map(|s| s.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            out.push((name.to_string(), metric.clone(), Figure { value, samples }));
        }
    }
    Ok(out)
}

/// Prints one row per (workload, end-to-end metric) present in both files and returns
/// how many rows are worse.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let a = figures(a).map_err(|e| format!("A: {e}"))?;
    let b = figures(b).map_err(|e| format!("B: {e}"))?;
    let mut worse = 0;
    let mut rows = 0;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "noise%", "bound%"
    );
    for (workload, name, fa) in &a {
        let Some(metric) = END_TO_END.iter().find(|m| m.name == name) else {
            continue;
        };
        let Some((_, _, fb)) = b.iter().find(|(w, n, _)| w == workload && n == name) else {
            continue;
        };
        let j = judge(fa, fb, metric);
        worse += usize::from(j.verdict == Verdict::Worse);
        rows += 1;
        println!(
            "{:<20} {:<16} {:>14.4} {:>14.4} {:>8.1} {:>8.1} {:>6.0}  {}",
            workload,
            name,
            fa.value,
            fb.value,
            100.0 * j.worse_by,
            100.0 * j.noise,
            100.0 * metric.bound,
            match j.verdict {
                Verdict::Better => "better",
                Verdict::Within => "within",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "UNRESOLVED",
            }
        );
    }
    if rows == 0 {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "latency",
        better: Better::Lower,
        bound: 0.1,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "rate",
        better: Better::Higher,
        bound: 0.1,
    };

    fn verdict(a: (f64, &[f64]), b: (f64, &[f64]), metric: &EndToEnd) -> Verdict {
        let figure = |(value, samples): (f64, &[f64])| Figure {
            value,
            samples: samples.to_vec(),
        };
        judge(&figure(a), &figure(b), metric).verdict
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 120.0, Better::Lower) - 0.2).abs() < 1e-12);
        assert!((worse_by(100.0, 120.0, Better::Higher) + 0.2).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts() {
        let tight = [99.0, 100.0, 100.0, 101.0, 100.0];
        // Worse by more than the bound.
        assert_eq!(
            verdict((100.0, &tight), (115.0, &tight), &LOWER),
            Verdict::Worse
        );
        assert_eq!(
            verdict((100.0, &tight), (85.0, &tight), &HIGHER),
            Verdict::Worse
        );
        // Worse, but inside the bound.
        assert_eq!(
            verdict((100.0, &tight), (105.0, &tight), &LOWER),
            Verdict::Within
        );
        // Better by more than the repeats spread.
        assert_eq!(
            verdict((100.0, &tight), (90.0, &tight), &LOWER),
            Verdict::Better
        );
        assert_eq!(
            verdict((100.0, &tight), (110.0, &tight), &HIGHER),
            Verdict::Better
        );
        // Better by less than the noise of the repeats (6 % spread over √5): no claim.
        let loose = [96.0, 98.0, 100.0, 102.0, 104.0];
        assert_eq!(
            verdict((100.0, &loose), (98.0, &loose), &LOWER),
            Verdict::Within
        );
        assert_eq!(
            verdict((100.0, &loose), (97.0, &loose), &LOWER),
            Verdict::Better
        );
        // Either side spreading wider than the bound leaves the pair unresolved.
        let wild = [70.0, 85.0, 100.0, 115.0, 130.0];
        assert_eq!(
            verdict((100.0, &tight), (150.0, &wild), &LOWER),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict((100.0, &wild), (100.0, &tight), &LOWER),
            Verdict::Unresolved
        );
        // A single sample shows no noise: the bound stands in for it, both ways.
        assert_eq!(
            verdict((100.0, &[100.0]), (111.0, &[111.0]), &LOWER),
            Verdict::Worse
        );
        assert_eq!(
            verdict((100.0, &[100.0]), (95.0, &[95.0]), &LOWER),
            Verdict::Within
        );
        assert_eq!(
            verdict((100.0, &[100.0]), (85.0, &[85.0]), &LOWER),
            Verdict::Better
        );
    }

    #[test]
    fn compare_reads_result_files() {
        let doc = |value: f64| {
            crate::api::parse_json(&format!(
                r#"{{"workloads":[{{"name":"w","metrics":{{"sojourn_p95_us":{{"value":{value},"samples":[{value},{value}]}},"other":{{"value":1}}}}}}]}}"#
            ))
            .expect("test document parses")
        };
        assert_eq!(compare(&doc(10.0), &doc(10.5)), Ok(0));
        assert_eq!(compare(&doc(10.0), &doc(14.0)), Ok(1));
        let empty = crate::api::parse_json(r#"{"workloads":[]}"#).expect("parses");
        assert!(compare(&empty, &doc(1.0)).is_err());
    }

    /// `BENCHMARK.json` and this table describe the same end-to-end metrics.
    #[test]
    fn benchmark_json_lists_the_same_end_to_end_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = crate::api::parse_json(&text).expect("BENCHMARK.json parses");
        let listed = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (json, ours) in listed.iter().zip(&END_TO_END) {
            assert_eq!(json.get("name").and_then(Json::as_str), Some(ours.name));
            let better = match ours.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(json.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(json.get("bound").and_then(Json::as_f64), Some(ours.bound));
        }
    }
}
