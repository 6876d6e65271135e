//! Adaptive latency summaries.
//!
//! The paper keeps every individual latency sample for short runs (maximum accuracy) and
//! switches to HDR histograms for long runs (bounded memory).  [`LatencySummary`]
//! implements exactly that policy behind a single interface.

use crate::hdr::HdrHistogram;
use serde::{Deserialize, Serialize};

/// Default number of exact samples kept before degrading to an HDR histogram.
pub const DEFAULT_EXACT_CAP: usize = 262_144;

/// An adaptive recorder of latency samples (in nanoseconds).
///
/// Up to a configurable cap the summary stores every sample exactly; past the cap it
/// converts itself into an [`HdrHistogram`] and keeps recording there.  All query methods
/// work in either mode.
///
/// # Example
///
/// ```
/// use tailbench_histogram::LatencySummary;
///
/// let mut s = LatencySummary::with_capacity(4);
/// for v in [10u64, 20, 30, 40, 50, 60] {
///     s.record(v);
/// }
/// assert_eq!(s.len(), 6);
/// assert!(s.is_degraded());
/// assert!(s.value_at_quantile(0.5) >= 30);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySummary {
    exact_cap: usize,
    samples: Vec<u64>,
    histogram: Option<HdrHistogram>,
}

impl Default for LatencySummary {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySummary {
    /// Creates a summary with the default exact-sample capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EXACT_CAP)
    }

    /// Creates a summary that keeps at most `exact_cap` exact samples before switching
    /// to histogram mode.
    #[must_use]
    pub fn with_capacity(exact_cap: usize) -> Self {
        LatencySummary {
            exact_cap: exact_cap.max(1),
            samples: Vec::new(),
            histogram: None,
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> u64 {
        match &self.histogram {
            Some(h) => h.len(),
            None => self.samples.len() as u64,
        }
    }

    /// Returns `true` if nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` once the summary has degraded to histogram mode.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.histogram.is_some()
    }

    /// Records a latency sample (nanoseconds).
    pub fn record(&mut self, value: u64) {
        if let Some(h) = &mut self.histogram {
            h.record(value);
            return;
        }
        self.samples.push(value);
        if self.samples.len() > self.exact_cap {
            self.degrade();
        }
    }

    fn degrade(&mut self) {
        let mut h = HdrHistogram::for_latencies();
        for &v in &self.samples {
            h.record(v);
        }
        self.samples = Vec::new();
        self.histogram = Some(h);
    }

    /// Arithmetic mean of the recorded samples, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match &self.histogram {
            Some(h) => h.mean(),
            None => {
                if self.samples.is_empty() {
                    0.0
                } else {
                    self.samples.iter().map(|&v| v as f64).sum::<f64>() / self.samples.len() as f64
                }
            }
        }
    }

    /// Smallest recorded sample, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        match &self.histogram {
            Some(h) => h.min(),
            None => self.samples.iter().copied().min().unwrap_or(0),
        }
    }

    /// Largest recorded sample, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        match &self.histogram {
            Some(h) => h.max(),
            None => self.samples.iter().copied().max().unwrap_or(0),
        }
    }

    /// The value at quantile `q` in `0.0..=1.0`; exact in sample mode, within the HDR
    /// precision bound in degraded mode. Returns 0 if empty.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let [value] = self.values_at_quantiles([q]);
        value
    }

    /// [`value_at_quantile`](Self::value_at_quantile) for several quantiles at once: an
    /// exact-mode summary sorts one copy of its samples and reads every rank from it.
    #[must_use]
    pub fn values_at_quantiles<const N: usize>(&self, quantiles: [f64; N]) -> [u64; N] {
        match &self.histogram {
            Some(h) => quantiles.map(|q| h.value_at_quantile(q)),
            None => {
                if self.samples.is_empty() {
                    return [0; N];
                }
                let mut sorted = self.samples.clone();
                sorted.sort_unstable();
                quantiles.map(|q| {
                    let q = q.clamp(0.0, 1.0);
                    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                    sorted[rank - 1]
                })
            }
        }
    }

    /// Merges another summary into this one. The result is degraded if either side was
    /// degraded or the combined sample count exceeds the capacity.
    pub fn merge(&mut self, other: &LatencySummary) {
        match &other.histogram {
            Some(oh) => {
                if self.histogram.is_none() {
                    self.degrade();
                }
                self.histogram
                    .as_mut()
                    .expect("degraded above")
                    .merge(oh)
                    .expect("for_latencies histograms are always compatible");
            }
            None => {
                for &v in &other.samples {
                    self.record(v);
                }
            }
        }
    }

    /// Converts the summary into an [`HdrHistogram`] (degrading it first if necessary).
    #[must_use]
    pub fn into_histogram(mut self) -> HdrHistogram {
        if self.histogram.is_none() {
            self.degrade();
        }
        self.histogram.expect("degraded above")
    }

    /// Returns the cumulative distribution as `(value, cumulative_fraction)` pairs.
    #[must_use]
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        match &self.histogram {
            Some(h) => h.cdf(),
            None => {
                if self.samples.is_empty() {
                    return Vec::new();
                }
                let mut sorted = self.samples.clone();
                sorted.sort_unstable();
                let n = sorted.len() as f64;
                sorted
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, (i + 1) as f64 / n))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_mode_quantiles_are_exact() {
        let mut s = LatencySummary::with_capacity(1000);
        for v in 1..=100u64 {
            s.record(v * 10);
        }
        assert!(!s.is_degraded());
        assert_eq!(s.value_at_quantile(0.5), 500);
        assert_eq!(s.value_at_quantile(0.95), 950);
        assert_eq!(s.value_at_quantile(1.0), 1000);
        assert_eq!(s.min(), 10);
        assert_eq!(s.max(), 1000);
        assert!((s.mean() - 505.0).abs() < 1e-9);
    }

    /// One query answered from its own sorted copy of the samples: the reference the
    /// batched ranks must reproduce.
    fn one_query(samples: &[u64], q: f64) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn batched_quantiles_equal_one_query_at_a_time() {
        const QS: [f64; 9] = [-0.5, 0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0, 1.5];
        let ties = [7u64, 3, 7, 7, 1, 3, 7, 9, 9, 3, 7, 1];
        // (samples, exact capacity): empty, one sample, ties, and ties past the
        // capacity, which degrades to the histogram.
        let cases: [(&[u64], usize); 4] = [(&[], 100), (&[42], 100), (&ties, 100), (&ties, 5)];
        for (samples, cap) in cases {
            let mut s = LatencySummary::with_capacity(cap);
            for &v in samples {
                s.record(v);
            }
            let batched = s.values_at_quantiles(QS);
            for (&q, got) in QS.iter().zip(batched) {
                let want = if s.is_degraded() {
                    s.clone().into_histogram().value_at_quantile(q)
                } else {
                    one_query(samples, q)
                };
                assert_eq!(got, want, "q={q} over {samples:?} (cap {cap})");
                assert_eq!(s.value_at_quantile(q), want);
            }
        }
    }

    #[test]
    fn degrades_past_capacity_and_stays_accurate() {
        let mut s = LatencySummary::with_capacity(10);
        for v in 1..=1000u64 {
            s.record(v * 1000);
        }
        assert!(s.is_degraded());
        assert_eq!(s.len(), 1000);
        let p95 = s.value_at_quantile(0.95) as f64;
        assert!((p95 - 950_000.0).abs() / 950_000.0 < 0.01, "p95={p95}");
    }

    #[test]
    fn empty_summary_is_well_behaved() {
        let s = LatencySummary::new();
        assert!(s.is_empty());
        assert_eq!(s.value_at_quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert!(s.cdf().is_empty());
    }

    #[test]
    fn merge_exact_into_exact() {
        let mut a = LatencySummary::with_capacity(100);
        let mut b = LatencySummary::with_capacity(100);
        for v in 1..=10u64 {
            a.record(v);
            b.record(v + 10);
        }
        a.merge(&b);
        assert_eq!(a.len(), 20);
        assert_eq!(a.max(), 20);
        assert_eq!(a.value_at_quantile(1.0), 20);
    }

    #[test]
    fn merge_degraded_into_exact_degrades() {
        let mut a = LatencySummary::with_capacity(100);
        a.record(5);
        let mut b = LatencySummary::with_capacity(2);
        for v in [100u64, 200, 300, 400] {
            b.record(v);
        }
        assert!(b.is_degraded());
        a.merge(&b);
        assert!(a.is_degraded());
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn cdf_in_exact_mode_matches_sorted_samples() {
        let mut s = LatencySummary::with_capacity(100);
        for v in [30u64, 10, 20] {
            s.record(v);
        }
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0].0, 10);
        assert!((cdf[2].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn into_histogram_preserves_counts() {
        let mut s = LatencySummary::with_capacity(1000);
        for v in 1..=50u64 {
            s.record(v * 100);
        }
        let h = s.into_histogram();
        assert_eq!(h.len(), 50);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The worst-case relative error of a degraded summary (the `for_latencies` HDR
    /// configuration) plus one unit of integer-boundary slack.
    fn tolerance(value: u64) -> f64 {
        value as f64 * 1e-3 + 1.0
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest! {
        /// Merging shard summaries must equal recording every sample into one summary —
        /// the invariant the cross-shard cluster collector's union view relies on.
        /// Small random capacities force every mode combination (exact+exact,
        /// exact+degraded, degraded+exact, degraded+degraded).
        #[test]
        fn merge_equals_recording_into_one(
            a in prop::collection::vec(1u64..1_000_000_000, 0..200),
            b in prop::collection::vec(1u64..1_000_000_000, 0..200),
            cap_a in 1usize..300,
            cap_b in 1usize..300,
        ) {
            let mut sa = LatencySummary::with_capacity(cap_a);
            let mut sb = LatencySummary::with_capacity(cap_b);
            // The reference records everything exactly.
            let mut all = LatencySummary::with_capacity(usize::MAX / 2);
            for &v in &a { sa.record(v); all.record(v); }
            for &v in &b { sb.record(v); all.record(v); }
            sa.merge(&sb);

            prop_assert_eq!(sa.len(), all.len());
            prop_assert_eq!(sa.min(), all.min());
            prop_assert_eq!(sa.max(), all.max());
            if !a.is_empty() || !b.is_empty() {
                prop_assert!((sa.mean() - all.mean()).abs() <= tolerance(all.mean() as u64));
                for q in [0.1, 0.5, 0.9, 0.95, 0.99, 0.999] {
                    let merged = sa.value_at_quantile(q);
                    let reference = all.value_at_quantile(q);
                    prop_assert!(
                        (merged as f64 - reference as f64).abs() <= tolerance(reference),
                        "q={q}: merged {merged} vs reference {reference} (caps {cap_a}/{cap_b})"
                    );
                }
            }
        }

        /// In both exact and degraded mode, every queried percentile stays within the
        /// HDR precision bound of the true sample quantile.
        #[test]
        fn quantiles_within_precision_in_both_modes(
            values in prop::collection::vec(1u64..1_000_000_000, 1..300),
            cap in 1usize..400,
        ) {
            let mut s = LatencySummary::with_capacity(cap);
            for &v in &values {
                s.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for p in (1..=99).map(|i| i as f64 / 100.0) {
                let exact = exact_quantile(&sorted, p);
                let approx = s.value_at_quantile(p);
                if s.is_degraded() {
                    prop_assert!(
                        approx as f64 <= exact as f64 + tolerance(exact),
                        "p={p}: degraded approx {approx} vs exact {exact}"
                    );
                    prop_assert!(
                        sorted.iter().any(|&v| (approx as f64 - v as f64).abs() <= tolerance(v)),
                        "p={p}: approx {approx} near no recorded sample"
                    );
                } else {
                    // Exact mode must be exact at every percentile.
                    prop_assert_eq!(approx, exact);
                }
            }
        }
    }
}
