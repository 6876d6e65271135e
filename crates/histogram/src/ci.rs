//! Confidence intervals over repeated runs.
//!
//! The TailBench methodology (§IV-C) performs repeated randomized runs and keeps adding
//! runs until the 95% confidence interval of every reported latency metric is within 1%
//! of its mean.  [`RunSeries`] judges that criterion over a set of runs (the experiment
//! layer runs a fixed number of repeats); [`ConfidenceInterval`] is the underlying
//! Student-t interval.

/// Two-sided Student-t critical values at 95% confidence for small sample sizes
/// (degrees of freedom 1..=30). Larger samples fall back to the normal value 1.96.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Returns the two-sided 95% Student-t critical value for `dof` degrees of freedom.
#[must_use]
pub fn t_critical_95(dof: usize) -> f64 {
    if dof == 0 {
        f64::INFINITY
    } else if dof <= T_95.len() {
        T_95[dof - 1]
    } else {
        1.96
    }
}

/// A summary of a set of per-run observations of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected), 0 when `n < 2`.
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval around the mean.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Computes the 95% confidence interval of the given observations.
    ///
    /// Returns an interval with infinite half-width when fewer than two observations are
    /// available (a single run never satisfies the 1% target on its own unless the caller
    /// opts out).
    #[must_use]
    pub fn from_observations(obs: &[f64]) -> Self {
        let n = obs.len();
        if n == 0 {
            return ConfidenceInterval {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                half_width: f64::INFINITY,
            };
        }
        let mean = obs.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return ConfidenceInterval {
                n,
                mean,
                std_dev: 0.0,
                half_width: f64::INFINITY,
            };
        }
        let var = obs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        let std_dev = var.sqrt();
        let half_width = t_critical_95(n - 1) * std_dev / (n as f64).sqrt();
        ConfidenceInterval {
            n,
            mean,
            std_dev,
            half_width,
        }
    }

    /// The half-width of the interval relative to the mean (`inf` when the mean is 0 and
    /// the half-width is not, 0 when both are 0).
    #[must_use]
    pub fn relative_half_width(&self) -> f64 {
        if self.half_width == 0.0 {
            0.0
        } else if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }

    /// Returns `true` if the 95% CI is within `fraction` of the mean (the paper uses 1%,
    /// i.e. `fraction = 0.01`).
    #[must_use]
    pub fn within(&self, fraction: f64) -> bool {
        self.relative_half_width() <= fraction
    }
}

/// Accumulates one metric across repeated runs and implements the paper's stopping rule.
///
/// # Example
///
/// ```
/// use tailbench_histogram::RunSeries;
///
/// let mut series = RunSeries::new("p95_latency_ns", 0.01);
/// series.push(1000.0);
/// assert!(!series.converged(2));     // a single run never converges
/// series.push(1002.0);
/// series.push(999.0);
/// series.push(1001.0);
/// let ci = series.interval();
/// assert!(ci.mean > 999.0 && ci.mean < 1002.0);
/// ```
#[derive(Debug, Clone)]
pub struct RunSeries {
    name: String,
    target_fraction: f64,
    observations: Vec<f64>,
}

impl RunSeries {
    /// Creates a series for the metric `name` with a target relative CI half-width
    /// `target_fraction` (e.g. `0.01` for the paper's 1% rule).
    #[must_use]
    pub fn new(name: impl Into<String>, target_fraction: f64) -> Self {
        RunSeries {
            name: name.into(),
            target_fraction,
            observations: Vec::new(),
        }
    }

    /// The metric name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of recorded runs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Returns `true` when no run has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Records the metric value observed in one run.
    pub fn push(&mut self, value: f64) {
        self.observations.push(value);
    }

    /// The observations recorded so far.
    #[must_use]
    pub fn observations(&self) -> &[f64] {
        &self.observations
    }

    /// The current confidence interval.
    #[must_use]
    pub fn interval(&self) -> ConfidenceInterval {
        ConfidenceInterval::from_observations(&self.observations)
    }

    /// Returns `true` once at least `min_runs` runs have been recorded and the 95% CI is
    /// within the configured fraction of the mean.
    #[must_use]
    pub fn converged(&self, min_runs: usize) -> bool {
        self.observations.len() >= min_runs.max(2) && self.interval().within(self.target_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_critical_values() {
        assert!(t_critical_95(0).is_infinite());
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(10) - 2.228).abs() < 1e-9);
        assert!((t_critical_95(1000) - 1.96).abs() < 1e-9);
    }

    #[test]
    fn empty_and_single_observation_do_not_converge() {
        let ci0 = ConfidenceInterval::from_observations(&[]);
        assert!(ci0.half_width.is_infinite());
        let ci1 = ConfidenceInterval::from_observations(&[5.0]);
        assert_eq!(ci1.mean, 5.0);
        assert!(ci1.half_width.is_infinite());
        assert!(!ci1.within(0.01));
    }

    #[test]
    fn identical_observations_have_zero_width() {
        let ci = ConfidenceInterval::from_observations(&[3.0, 3.0, 3.0]);
        assert_eq!(ci.mean, 3.0);
        assert_eq!(ci.half_width, 0.0);
        assert!(ci.within(0.0));
    }

    #[test]
    fn known_interval_matches_hand_computation() {
        // obs = [10, 12, 14]; mean = 12, std = 2, t(2) = 4.303, hw = 4.303*2/sqrt(3)
        let ci = ConfidenceInterval::from_observations(&[10.0, 12.0, 14.0]);
        assert!((ci.mean - 12.0).abs() < 1e-12);
        assert!((ci.std_dev - 2.0).abs() < 1e-12);
        let expected = 4.303 * 2.0 / 3f64.sqrt();
        assert!((ci.half_width - expected).abs() < 1e-9);
    }

    #[test]
    fn relative_half_width_handles_zero_mean() {
        let ci = ConfidenceInterval {
            n: 3,
            mean: 0.0,
            std_dev: 1.0,
            half_width: 0.5,
        };
        assert!(ci.relative_half_width().is_infinite());
        let ci0 = ConfidenceInterval {
            n: 3,
            mean: 0.0,
            std_dev: 0.0,
            half_width: 0.0,
        };
        assert_eq!(ci0.relative_half_width(), 0.0);
    }

    #[test]
    fn run_series_stopping_rule() {
        let mut s = RunSeries::new("p95", 0.01);
        assert!(s.is_empty());
        s.push(1000.0);
        assert!(!s.converged(2));
        s.push(1000.5);
        s.push(999.5);
        s.push(1000.2);
        assert!(s.converged(2), "ci = {:?}", s.interval());
        assert_eq!(s.len(), 4);
        assert_eq!(s.name(), "p95");
    }

    #[test]
    fn run_series_with_noisy_data_needs_more_runs() {
        let mut s = RunSeries::new("p99", 0.01);
        s.push(100.0);
        s.push(200.0);
        s.push(150.0);
        assert!(!s.converged(2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn interval_contains_mean_and_shrinks_with_scale(
            base in 100.0f64..1e6,
            noise in prop::collection::vec(-1.0f64..1.0, 4..40)
        ) {
            let obs: Vec<f64> = noise.iter().map(|&d| base * (1.0 + 0.001 * d)).collect();
            let ci = ConfidenceInterval::from_observations(&obs);
            // Mean of observations lies inside [mean - hw, mean + hw] trivially, but also
            // the relative half width must be small for 0.1% noise.
            prop_assert!(ci.relative_half_width() < 0.01);
            prop_assert!(ci.mean > base * 0.99 && ci.mean < base * 1.01);
        }

        #[test]
        fn more_observations_never_increase_t_critical(n in 2usize..200) {
            prop_assert!(t_critical_95(n) <= t_critical_95(n - 1) + 1e-12);
        }
    }
}
