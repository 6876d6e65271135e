//! The few statistics the benchmark reports: medians, quartiles and nearest-rank
//! percentiles over a handful of repeats.

/// Median of `values` (mean of the two middle values for an even count); 0.0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method), because that
/// is the rule the repo's driver judges spreads by.  `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let sorted = sorted(values);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // `delta` may be negative or exceed 4 at the clamped ends: Python extrapolates.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median: the spread
/// a bound is compared against.  0.0 when there are too few values to have one.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile (`q` in `0..=1`), the rule the suite's own summaries use;
/// 0.0 if empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `q`-quantile (`q` in `0..=1`) by linear interpolation between the two nearest
/// ranks; 0.0 if empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (at - below as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Min / median / p95 of one probe's per-batch figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub min: f64,
    pub median: f64,
    pub p95: f64,
    pub n: usize,
}

impl Dist {
    /// The same distribution in another unit.
    pub fn scaled(self, by: f64) -> Dist {
        Dist {
            min: self.min * by,
            median: self.median * by,
            p95: self.p95 * by,
            n: self.n,
        }
    }

    pub fn of(values: &[f64]) -> Dist {
        Dist {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(values),
            p95: percentile(values, 0.95),
            n: values.len(),
        }
    }
}

/// One reported figure: its value and the per-window (or per-batch) figures behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
    /// Min / median / p95 over batches when the figure comes from a batched probe.
    pub dist: Option<Dist>,
}

impl Metric {
    pub fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: median(&samples),
            samples,
            dist: None,
        }
    }

    /// The quiet end of a run's windows, for a cost: the lower decile.  What disturbs a
    /// window (a neighbour on the host, a scheduler state that lasts for seconds) only
    /// ever makes it slower, and how many windows of a run it hits changes from run to
    /// run, so the median window lands in either state while the best tenth stays in
    /// the quiet one: over twenty runs of one commit `int-closed` spread 26 % (p95) and
    /// 16 % (throughput) by its median window and 7 % by its decile one; the other
    /// workloads spread the same either way.
    pub fn lowest_decile_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: quantile(&samples, 0.1),
            samples,
            dist: None,
        }
    }

    /// The quiet end of a run's windows, for a rate: the upper decile.
    pub fn highest_decile_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            value: quantile(&samples, 0.9),
            ..Metric::lowest_decile_of(name, unit, samples)
        }
    }

    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::median_of(name, unit, vec![value])
    }

    /// A batched probe: the median batch is the value.
    pub fn probe(name: &'static str, unit: &'static str, dist: Dist) -> Metric {
        Metric {
            dist: Some(dist),
            ..Metric::single(name, unit, dist.median)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&v, 0.5), 10.0);
        assert_eq!(percentile(&v, 1.0), 20.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let d = Dist::of(&v);
        assert_eq!((d.min, d.median, d.p95, d.n), (1.0, 10.5, 19.0, 20));
    }

    #[test]
    fn metric_values() {
        assert_eq!(Metric::median_of("m", "us", vec![3.0, 9.0, 5.0]).value, 5.0);
        let windows: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(Metric::lowest_decile_of("c", "us", windows.clone()).value, 1.0);
        assert_eq!(Metric::highest_decile_of("r", "1/s", windows).value, 9.0);
        assert_eq!(quantile(&[4.0, 2.0], 0.25), 2.5);
        assert_eq!((quantile(&[7.0], 0.1), quantile(&[], 0.1)), (7.0, 0.0));
        let probe = Metric::probe("p", "ns", Dist::of(&[2.0, 4.0, 6.0]));
        assert_eq!((probe.value, probe.samples.len()), (4.0, 1));
    }
}
