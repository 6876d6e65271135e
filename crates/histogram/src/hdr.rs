//! An integer high-dynamic-range histogram.
//!
//! The structure follows the classic HdrHistogram layout referenced by the paper: values
//! are bucketed into power-of-two *buckets*, each split into a fixed number of linear
//! *sub-buckets*, so that every recorded value is represented with a bounded relative
//! error determined by the requested number of significant decimal digits.  Space grows
//! logarithmically with the tracked range: covering 1 µs to 1000 s at three significant
//! digits takes a few thousand `u64` counters.

use std::fmt;

/// Errors returned when constructing or merging histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistogramError {
    /// The requested significant digits were outside the supported `1..=5` range.
    BadSignificantDigits(u8),
    /// `lowest_discernible` must be at least 1 and no larger than `highest_trackable / 2`.
    BadRange {
        /// Requested smallest discernible value.
        lowest: u64,
        /// Requested largest trackable value.
        highest: u64,
    },
    /// Attempted to merge histograms with incompatible bucket configurations.
    IncompatibleMerge,
}

impl fmt::Display for HistogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistogramError::BadSignificantDigits(d) => {
                write!(f, "significant digits must be in 1..=5, got {d}")
            }
            HistogramError::BadRange { lowest, highest } => write!(
                f,
                "invalid histogram range: lowest={lowest}, highest={highest} (need 1 <= lowest and lowest * 2 <= highest)"
            ),
            HistogramError::IncompatibleMerge => {
                write!(f, "histograms have incompatible configurations")
            }
        }
    }
}

impl std::error::Error for HistogramError {}

/// A high-dynamic-range histogram of `u64` values (typically latencies in nanoseconds).
///
/// The histogram records values between `lowest_discernible` and `highest_trackable`
/// while preserving `significant_digits` decimal digits of precision.  Values above the
/// trackable maximum are saturated into the top bucket and counted in
/// [`HdrHistogram::saturated`].
///
/// # Example
///
/// ```
/// # use tailbench_histogram::HdrHistogram;
/// let mut h = HdrHistogram::new(1_000, 10_000_000_000, 3).unwrap();
/// h.record(1_500_000);
/// h.record_n(3_000_000, 10);
/// assert_eq!(h.len(), 11);
/// assert!(h.max() >= 3_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdrHistogram {
    lowest_discernible: u64,
    highest_trackable: u64,
    significant_digits: u8,
    unit_magnitude: u32,
    sub_bucket_half_count_magnitude: u32,
    sub_bucket_count: u32,
    sub_bucket_half_count: u32,
    sub_bucket_mask: u64,
    bucket_count: u32,
    counts: Vec<u64>,
    total: u64,
    saturated: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl HdrHistogram {
    /// Creates a histogram covering `[lowest_discernible, highest_trackable]` with the
    /// given number of significant decimal digits (1–5).
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::BadSignificantDigits`] or [`HistogramError::BadRange`]
    /// when the parameters are out of range.
    pub fn new(
        lowest_discernible: u64,
        highest_trackable: u64,
        significant_digits: u8,
    ) -> Result<Self, HistogramError> {
        if !(1..=5).contains(&significant_digits) {
            return Err(HistogramError::BadSignificantDigits(significant_digits));
        }
        if lowest_discernible < 1 || highest_trackable < lowest_discernible.saturating_mul(2) {
            return Err(HistogramError::BadRange {
                lowest: lowest_discernible,
                highest: highest_trackable,
            });
        }

        let largest_value_with_single_unit_resolution =
            10u64.pow(u32::from(significant_digits)).saturating_mul(2);
        let sub_bucket_count_magnitude = ceil_log2(largest_value_with_single_unit_resolution);
        let sub_bucket_half_count_magnitude = sub_bucket_count_magnitude.max(1) - 1;
        let unit_magnitude = floor_log2(lowest_discernible);
        let sub_bucket_count = 1u32 << sub_bucket_half_count_magnitude.saturating_add(1);
        let sub_bucket_half_count = sub_bucket_count / 2;
        let sub_bucket_mask = (u64::from(sub_bucket_count) - 1) << unit_magnitude;

        // Determine how many power-of-two buckets are needed to cover highest_trackable.
        let mut smallest_untrackable = u64::from(sub_bucket_count) << unit_magnitude;
        let mut bucket_count = 1u32;
        while smallest_untrackable <= highest_trackable {
            if smallest_untrackable > u64::MAX / 2 {
                bucket_count = bucket_count.saturating_add(1);
                break;
            }
            smallest_untrackable <<= 1;
            bucket_count = bucket_count.saturating_add(1);
        }

        let counts_len = (bucket_count
            .saturating_add(1)
            .saturating_mul(sub_bucket_half_count)) as usize;
        Ok(HdrHistogram {
            lowest_discernible,
            highest_trackable,
            significant_digits,
            unit_magnitude,
            sub_bucket_half_count_magnitude,
            sub_bucket_count,
            sub_bucket_half_count,
            sub_bucket_mask,
            bucket_count,
            counts: vec![0; counts_len],
            total: 0,
            saturated: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        })
    }

    /// Creates the default latency histogram used throughout the suite: nanosecond
    /// resolution from 1 ns to 4000 s with 3 significant digits.
    #[must_use]
    pub fn for_latencies() -> Self {
        // 4000 s in ns fits comfortably in u64; unwrap is safe for these constants.
        HdrHistogram::new(1, 4_000_000_000_000, 3).expect("constant configuration is valid")
    }

    /// The configured smallest discernible value.
    #[must_use]
    pub fn lowest_discernible(&self) -> u64 {
        self.lowest_discernible
    }

    /// The configured largest trackable value.
    #[must_use]
    pub fn highest_trackable(&self) -> u64 {
        self.highest_trackable
    }

    /// The configured number of significant decimal digits.
    #[must_use]
    pub fn significant_digits(&self) -> u8 {
        self.significant_digits
    }

    /// Number of counter slots allocated (useful for validating the logarithmic-space
    /// claim in the paper).
    #[must_use]
    pub fn bucket_slots(&self) -> usize {
        self.counts.len()
    }

    /// Total number of recorded values (including saturated ones).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Returns `true` if no values have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of values that exceeded the trackable maximum and were saturated.
    #[must_use]
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Smallest recorded value, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded values (exact, not bucketed), or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Records a single value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `count` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let clamped = if value > self.highest_trackable {
            self.saturated = self.saturated.saturating_add(count);
            self.highest_trackable
        } else {
            value
        };
        let idx = self.counts_index_for(clamped);
        self.counts[idx] = self.counts[idx].saturating_add(count);
        self.total = self.total.saturating_add(count);
        self.sum = self
            .sum
            .saturating_add(u128::from(value).saturating_mul(u128::from(count)));
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded values that fall in the same equivalent-value range as `value`.
    #[must_use]
    pub fn count_at(&self, value: u64) -> u64 {
        if value > self.highest_trackable {
            return 0;
        }
        self.counts[self.counts_index_for(value)]
    }

    /// The value at quantile `q` (`0.0..=1.0`), e.g. `0.95` for the 95th percentile.
    ///
    /// Returns 0 for an empty histogram. The returned value is the highest value that is
    /// equivalent (within the configured precision) to the true quantile sample.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let mut target = (q * self.total as f64).ceil() as u64;
        if target > self.total {
            target = self.total;
        }
        if target == 0 {
            target = 1;
        }
        let mut running = 0u64;
        for idx in 0..self.counts.len() {
            let c = self.counts[idx];
            if c == 0 {
                continue;
            }
            running = running.saturating_add(c);
            if running >= target {
                let v = self.highest_equivalent(self.value_for_index(idx));
                return v.min(self.max);
            }
        }
        self.max
    }

    /// Convenience alias for [`value_at_quantile`](Self::value_at_quantile) taking a
    /// percentile in `0.0..=100.0`.
    #[must_use]
    pub fn value_at_percentile(&self, p: f64) -> u64 {
        self.value_at_quantile(p / 100.0)
    }

    /// Merges another histogram into this one.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::IncompatibleMerge`] if the two histograms were created
    /// with different range or precision parameters.
    pub fn merge(&mut self, other: &HdrHistogram) -> Result<(), HistogramError> {
        if self.lowest_discernible != other.lowest_discernible
            || self.highest_trackable != other.highest_trackable
            || self.significant_digits != other.significant_digits
        {
            return Err(HistogramError::IncompatibleMerge);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.total = self.total.saturating_add(other.total);
        self.saturated = self.saturated.saturating_add(other.saturated);
        self.sum = self.sum.saturating_add(other.sum);
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        Ok(())
    }

    /// Resets all counts while keeping the configuration.
    pub fn clear(&mut self) {
        for c in &mut self.counts {
            *c = 0;
        }
        self.total = 0;
        self.saturated = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }

    /// Iterates over `(bucket_value, count)` pairs for non-empty buckets, in increasing
    /// value order. `bucket_value` is the highest value equivalent to that bucket.
    pub fn iter_recorded(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.counts.len()).filter_map(move |idx| {
            let c = self.counts[idx];
            if c == 0 {
                None
            } else {
                Some((self.highest_equivalent(self.value_for_index(idx)), c))
            }
        })
    }

    /// Returns the cumulative distribution as `(value, cumulative_fraction)` pairs over
    /// the non-empty buckets. Useful for rendering the service-time CDFs of Fig. 2.
    #[must_use]
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.total == 0 {
            return out;
        }
        let mut running = 0u64;
        for (value, count) in self.iter_recorded() {
            running = running.saturating_add(count);
            out.push((value, running as f64 / self.total as f64));
        }
        out
    }

    /// The worst-case relative error of any value recorded in this histogram, as implied
    /// by the configured number of significant digits.
    #[must_use]
    pub fn max_relative_error(&self) -> f64 {
        1.0 / 10f64.powi(i32::from(self.significant_digits))
    }

    // --- index math -------------------------------------------------------------------
    //
    // All width changes go through `u32::try_from` (infallible for in-range histogram
    // indices) and all additive index math is saturating: an out-of-contract input can
    // pin to the extreme but can never wrap into a different bucket.

    fn bucket_index(&self, value: u64) -> u32 {
        let pow2ceiling = 64 - (value | self.sub_bucket_mask).leading_zeros();
        pow2ceiling - self.unit_magnitude - self.sub_bucket_half_count_magnitude.saturating_add(1)
    }

    fn sub_bucket_index(&self, value: u64, bucket_index: u32) -> u32 {
        let shifted = value >> bucket_index.saturating_add(self.unit_magnitude);
        u32::try_from(shifted).unwrap_or(u32::MAX)
    }

    fn counts_index(&self, bucket_index: u32, sub_bucket_index: u32) -> usize {
        let bucket_base = bucket_index.saturating_add(1) << self.sub_bucket_half_count_magnitude;
        (bucket_base.saturating_add(sub_bucket_index) - self.sub_bucket_half_count) as usize
    }

    fn counts_index_for(&self, value: u64) -> usize {
        let bucket = self.bucket_index(value);
        let sub = self.sub_bucket_index(value, bucket);
        self.counts_index(bucket, sub)
    }

    fn value_for_index(&self, index: usize) -> u64 {
        let index = index as u64;
        let half = u64::from(self.sub_bucket_half_count);
        let shifted = index >> self.sub_bucket_half_count_magnitude;
        // Indices below `half` describe bucket 0's lower half directly; all others
        // sit `half` sub-buckets into bucket `shifted - 1`.
        let bucket_index = shifted.saturating_sub(1);
        let sub_bucket_index = if shifted == 0 {
            index & (half - 1)
        } else {
            (index & (half - 1)).saturating_add(half)
        };
        sub_bucket_index << bucket_index.saturating_add(u64::from(self.unit_magnitude))
    }

    fn size_of_equivalent_range(&self, value: u64) -> u64 {
        let bucket_index = self.bucket_index(value);
        1u64 << self.unit_magnitude.saturating_add(bucket_index)
    }

    fn highest_equivalent(&self, value: u64) -> u64 {
        let range = self.size_of_equivalent_range(value);
        let lowest = value & !(range - 1);
        lowest.saturating_add(range) - 1
    }
}

/// `floor(log2(v))` for `v >= 1`, in pure integer math — no float round-trip whose
/// rounding could shift a magnitude by one.
fn floor_log2(v: u64) -> u32 {
    63 - v.max(1).leading_zeros()
}

/// `ceil(log2(v))` for `v >= 1`, in pure integer math.
fn ceil_log2(v: u64) -> u32 {
    if v <= 1 {
        0
    } else {
        64 - (v - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = HdrHistogram::for_latencies();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.value_at_quantile(0.95), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            HdrHistogram::new(1, 100, 0),
            Err(HistogramError::BadSignificantDigits(0))
        ));
        assert!(matches!(
            HdrHistogram::new(1, 100, 6),
            Err(HistogramError::BadSignificantDigits(6))
        ));
        assert!(matches!(
            HdrHistogram::new(0, 100, 3),
            Err(HistogramError::BadRange { .. })
        ));
        assert!(matches!(
            HdrHistogram::new(100, 150, 3),
            Err(HistogramError::BadRange { .. })
        ));
    }

    #[test]
    fn records_and_counts_values() {
        let mut h = HdrHistogram::new(1, 1_000_000, 3).unwrap();
        h.record(100);
        h.record_n(5_000, 3);
        assert_eq!(h.len(), 4);
        assert_eq!(h.count_at(100), 1);
        assert_eq!(h.count_at(5_000), 3);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 5_000);
        let expected_mean = (100.0 + 3.0 * 5_000.0) / 4.0;
        assert!((h.mean() - expected_mean).abs() < 1e-9);
    }

    #[test]
    fn single_value_quantiles_are_that_value() {
        let mut h = HdrHistogram::new(1, 3_600_000_000_000, 3).unwrap();
        h.record(123_456_789);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            let v = h.value_at_quantile(q);
            let err = (v as f64 - 123_456_789.0).abs() / 123_456_789.0;
            assert!(err <= 0.001, "q={q} v={v}");
        }
    }

    #[test]
    fn quantiles_match_exact_for_uniform_ramp() {
        let mut h = HdrHistogram::new(1, 10_000_000, 3).unwrap();
        let mut values: Vec<u64> = (1..=10_000u64).map(|i| i * 97).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let approx = h.value_at_quantile(q);
            let err = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(
                err <= 0.002,
                "q={q} exact={exact} approx={approx} err={err}"
            );
        }
    }

    #[test]
    fn saturates_values_above_max() {
        let mut h = HdrHistogram::new(1, 1_000, 2).unwrap();
        h.record(5_000);
        assert_eq!(h.saturated(), 1);
        assert_eq!(h.len(), 1);
        assert!(h.value_at_quantile(1.0) >= 1_000);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = HdrHistogram::new(1, 1_000_000, 3).unwrap();
        let mut b = HdrHistogram::new(1, 1_000_000, 3).unwrap();
        a.record_n(100, 5);
        b.record_n(200, 7);
        b.record(999_999);
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 13);
        assert_eq!(a.count_at(100), 5);
        assert_eq!(a.count_at(200), 7);
        assert_eq!(a.min(), 100);
        assert!(a.max() >= 999_000);
    }

    #[test]
    fn merge_rejects_incompatible() {
        let mut a = HdrHistogram::new(1, 1_000_000, 3).unwrap();
        let b = HdrHistogram::new(1, 2_000_000, 3).unwrap();
        assert_eq!(a.merge(&b), Err(HistogramError::IncompatibleMerge));
    }

    #[test]
    fn clear_resets_state() {
        let mut h = HdrHistogram::for_latencies();
        h.record_n(1_000, 100);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.5), 0);
    }

    #[test]
    fn cdf_is_monotonic_and_ends_at_one() {
        let mut h = HdrHistogram::new(1, 10_000_000, 3).unwrap();
        for i in 1..=1000u64 {
            h.record(i * i);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut prev_v = 0u64;
        let mut prev_p = 0.0f64;
        for &(v, p) in &cdf {
            assert!(v >= prev_v);
            assert!(p >= prev_p);
            prev_v = v;
            prev_p = p;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn space_is_logarithmic_in_range() {
        // Covering 1 us .. 1000 s (9 decades) at 2 significant digits should take on the
        // order of a few thousand slots, not millions (paper: ~900 buckets at 100/decade).
        let h = HdrHistogram::new(1_000, 1_000_000_000_000, 2).unwrap();
        assert!(h.bucket_slots() < 8_192, "slots = {}", h.bucket_slots());
    }

    #[test]
    fn integer_log2_helpers_match_float_forms() {
        // The constructor used to derive magnitudes via f64 log2 round-trips; the
        // integer forms must agree everywhere the configuration space can reach.
        for d in 1..=5u32 {
            let v = 2 * 10u64.pow(d);
            assert_eq!(ceil_log2(v), (v as f64).log2().ceil() as u32, "v={v}");
        }
        for v in (1..4096u64).chain([1_000_000, 1 << 40, u64::MAX / 2, u64::MAX]) {
            assert_eq!(floor_log2(v), 63 - v.leading_zeros(), "v={v}");
            if v > 1 {
                assert_eq!(ceil_log2(v), floor_log2(v - 1) + 1, "v={v}");
            }
        }
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(floor_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        assert_eq!(floor_log2(1023), 9);
    }

    #[test]
    fn zero_value_is_recordable() {
        let mut h = HdrHistogram::new(1, 1_000_000, 3).unwrap();
        h.record(0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.value_at_quantile(0.5), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest! {
        #[test]
        fn recorded_quantiles_within_precision(
            values in prop::collection::vec(1u64..1_000_000_000, 1..500),
            q in 0.01f64..0.999
        ) {
            let mut h = HdrHistogram::new(1, 2_000_000_000, 3).unwrap();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let exact = exact_quantile(&sorted, q);
            let approx = h.value_at_quantile(q);
            // The histogram may return the highest equivalent value of the bucket that
            // contains a sample ranked at-or-after the target rank; allow one bucket of
            // slack on top of the configured precision.
            let tol = (exact as f64) * 0.005 + 2.0;
            prop_assert!(
                (approx as f64 - exact as f64).abs() <= tol || approx <= exact,
                "exact={exact} approx={approx}"
            );
        }

        /// The HDR contract, checked at *every* percentile from p1 to p99.9: the value
        /// the histogram returns for quantile q is equivalent (within the configured
        /// relative error) to some recorded sample at rank >= the exact rank — i.e. the
        /// reported tail is never optimistic by more than the precision bound.
        #[test]
        fn every_queried_percentile_is_within_the_relative_error_bound(
            values in prop::collection::vec(1u64..1_000_000_000, 1..400),
        ) {
            let mut h = HdrHistogram::new(1, 2_000_000_000, 3).unwrap();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let bound = h.max_relative_error();
            for p in (1..=999).map(|i| i as f64 / 1000.0) {
                let exact = exact_quantile(&sorted, p);
                let approx = h.value_at_quantile(p);
                // The bucket containing the exact sample reports its highest equivalent
                // value; one unit of slack absorbs integer bucket boundaries.
                let tol = exact as f64 * bound + 1.0;
                prop_assert!(
                    approx as f64 <= exact as f64 + tol,
                    "p={p}: approx {approx} overshoots exact {exact} beyond {tol}"
                );
                prop_assert!(
                    approx as f64 >= sorted[0] as f64 * (1.0 - bound) - 1.0,
                    "p={p}: approx {approx} below the smallest sample {}",
                    sorted[0]
                );
                // The returned value must be equivalent to an actually recorded sample.
                prop_assert!(
                    sorted.iter().any(|&s| {
                        let t = s as f64 * bound + 1.0;
                        (approx as f64 - s as f64).abs() <= t
                    }),
                    "p={p}: approx {approx} is not near any recorded sample"
                );
            }
        }

        #[test]
        fn total_count_matches(values in prop::collection::vec(1u64..10_000_000, 0..300)) {
            let mut h = HdrHistogram::new(1, 20_000_000, 3).unwrap();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.len(), values.len() as u64);
            let bucket_total: u64 = h.iter_recorded().map(|(_, c)| c).sum();
            prop_assert_eq!(bucket_total, values.len() as u64);
        }

        #[test]
        fn min_max_mean_are_exact(values in prop::collection::vec(1u64..100_000_000, 1..200)) {
            let mut h = HdrHistogram::new(1, 200_000_000, 3).unwrap();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.min(), *values.iter().min().unwrap());
            prop_assert_eq!(h.max(), *values.iter().max().unwrap());
            let exact_mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
            prop_assert!((h.mean() - exact_mean).abs() / exact_mean < 1e-9);
        }

        #[test]
        fn merge_equals_recording_concatenation(
            a in prop::collection::vec(1u64..1_000_000, 0..100),
            b in prop::collection::vec(1u64..1_000_000, 0..100),
        ) {
            let mut ha = HdrHistogram::new(1, 2_000_000, 3).unwrap();
            let mut hb = HdrHistogram::new(1, 2_000_000, 3).unwrap();
            let mut hall = HdrHistogram::new(1, 2_000_000, 3).unwrap();
            for &v in &a { ha.record(v); hall.record(v); }
            for &v in &b { hb.record(v); hall.record(v); }
            ha.merge(&hb).unwrap();
            prop_assert_eq!(ha.len(), hall.len());
            for q in [0.1, 0.5, 0.95, 0.99] {
                prop_assert_eq!(ha.value_at_quantile(q), hall.value_at_quantile(q));
            }
        }
    }
}
