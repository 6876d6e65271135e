//! Adaptive latency summaries.
//!
//! The paper keeps every individual latency sample for short runs (maximum accuracy) and
//! switches to HDR histograms for long runs (bounded memory).  [`LatencySummary`]
//! implements exactly that policy behind a single interface.
//!
//! In exact mode the samples are *counted*, not stored one by one: a dense `u32` count
//! per nanosecond value below 2^16 ns (65.5 µs), a list of the samples that do not fit
//! there, and the length, minimum, maximum and `u128` sum kept as each sample arrives.
//! Every query reads the same multiset an exact sample list would hold, so every answer
//! is the one sorting the samples would give.  The dense array grows in powers of two
//! and only while its length stays at most half the samples recorded, so its heap bytes
//! (counts × 4 plus list capacity × 8) stay within 1.25 × those of a `Vec<u64>` of the
//! same samples, and a short run is never charged the full 256 KB.

use crate::hdr::HdrHistogram;

/// Default number of exact samples kept before degrading to an HDR histogram.
pub const DEFAULT_EXACT_CAP: usize = 262_144;

/// Values below this many nanoseconds are counted in the dense array.
const DENSE_LIMIT: u64 = 1 << 16;

/// An adaptive recorder of latency samples (in nanoseconds).
///
/// Up to a configurable cap the summary keeps every sample exactly; past the cap it
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
#[derive(Debug, Clone)]
pub struct LatencySummary {
    exact_cap: u64,
    exact: ExactSamples,
    histogram: Option<HdrHistogram>,
}

/// The exact multiset of recorded samples.
#[derive(Debug, Clone)]
struct ExactSamples {
    /// `counts[v]` is how many samples equal `v`.  Its length is 0 or a power of two.
    counts: Vec<u32>,
    /// The samples `counts` does not hold, unsorted: values it did not cover when they
    /// were recorded, and those recorded once their count was full.
    overflow: Vec<u64>,
    len: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for ExactSamples {
    fn default() -> Self {
        ExactSamples {
            counts: Vec::new(),
            overflow: Vec::new(),
            len: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }
}

impl ExactSamples {
    /// Records one sample, as `record_n(value, 1)` would; a value the dense array
    /// already covers costs one increment.
    #[inline]
    fn record(&mut self, value: u64) {
        match usize::try_from(value)
            .ok()
            .and_then(|i| self.counts.get_mut(i))
        {
            Some(count) if *count < u32::MAX => {
                *count = count.saturating_add(1);
                self.add_to_totals(value, 1);
            }
            _ => self.record_n(value, 1),
        }
    }

    /// Records `n` samples equal to `value`.  Out of line, so that `record`'s dense hit
    /// inlines into its caller.
    #[inline(never)]
    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.add_to_totals(value, n);
        let mut rest = n;
        if let Some(count) = self.dense_slot(value) {
            let room = u32::MAX.saturating_sub(*count);
            let added = u32::try_from(rest).map_or(room, |rest| rest.min(room));
            *count = count.saturating_add(added);
            rest = rest.saturating_sub(u64::from(added));
        }
        for _ in 0..rest {
            self.overflow.push(value);
        }
    }

    fn add_to_totals(&mut self, value: u64, n: u64) {
        self.len = self.len.saturating_add(n);
        self.sum = self
            .sum
            .saturating_add(u128::from(value).saturating_mul(u128::from(n)));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The dense count of `value`, growing the array to cover it when the growth rule
    /// allows; `None` sends the sample to the overflow list.
    fn dense_slot(&mut self, value: u64) -> Option<&mut u32> {
        let index = usize::try_from(value).ok()?;
        if index >= self.counts.len() {
            if value >= DENSE_LIMIT {
                return None;
            }
            let wanted = index.saturating_add(1).next_power_of_two();
            if u64::try_from(wanted).ok()? > self.len / 2 {
                return None;
            }
            self.counts
                .reserve_exact(wanted.saturating_sub(self.counts.len()));
            self.counts.resize(wanted, 0);
        }
        self.counts.get_mut(index)
    }

    /// The dense counts as `(value, count)` runs, in ascending order.
    fn dense(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .zip(0u64..)
            .filter(|(&count, _)| count > 0)
            .map(|(&count, value)| (value, u64::from(count)))
    }

    /// Every recorded value with its count, in no particular order (a value may appear
    /// more than once).
    fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.dense().chain(self.overflow.iter().map(|&v| (v, 1)))
    }

    /// Every recorded value with its count, in ascending order: the dense counts merged
    /// with a sorted copy of the overflow list.
    fn ascending(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut spilled = self.overflow.clone();
        spilled.sort_unstable();
        let mut next_spilled = 0usize;
        let mut dense = self.dense().peekable();
        std::iter::from_fn(move || {
            let spilled_value = spilled.get(next_spilled).copied();
            match (dense.peek(), spilled_value) {
                (Some(&(value, _)), Some(s)) if value <= s => dense.next(),
                (Some(_), None) => dense.next(),
                (_, Some(s)) => {
                    let run = spilled[next_spilled..]
                        .iter()
                        .take_while(|&&v| v == s)
                        .count();
                    next_spilled = next_spilled.saturating_add(run);
                    Some((s, run as u64))
                }
                (None, None) => None,
            }
        })
    }

    /// An HDR histogram of the same samples.
    fn to_histogram(&self) -> HdrHistogram {
        let mut h = HdrHistogram::for_latencies();
        for (value, count) in self.runs() {
            h.record_n(value, count);
        }
        h
    }
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
            exact_cap: u64::try_from(exact_cap.max(1)).unwrap_or(u64::MAX),
            exact: ExactSamples::default(),
            histogram: None,
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> u64 {
        match &self.histogram {
            Some(h) => h.len(),
            None => self.exact.len,
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
    #[inline]
    pub fn record(&mut self, value: u64) {
        if let Some(h) = &mut self.histogram {
            h.record(value);
            return;
        }
        self.exact.record(value);
        if self.exact.len > self.exact_cap {
            self.degrade();
        }
    }

    fn degrade(&mut self) {
        let exact = std::mem::take(&mut self.exact);
        self.histogram = Some(exact.to_histogram());
    }

    /// Arithmetic mean of the recorded samples, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match &self.histogram {
            Some(h) => h.mean(),
            None => {
                if self.exact.len == 0 {
                    0.0
                } else {
                    self.exact.sum as f64 / self.exact.len as f64
                }
            }
        }
    }

    /// Smallest recorded sample, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        match &self.histogram {
            Some(h) => h.min(),
            None if self.exact.len == 0 => 0,
            None => self.exact.min,
        }
    }

    /// Largest recorded sample, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        match &self.histogram {
            Some(h) => h.max(),
            None => self.exact.max,
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
    /// exact-mode summary reads every rank in one ascending walk over its counts.
    #[must_use]
    pub fn values_at_quantiles<const N: usize>(&self, quantiles: [f64; N]) -> [u64; N] {
        match &self.histogram {
            Some(h) => quantiles.map(|q| h.value_at_quantile(q)),
            None => {
                let len = self.exact.len;
                if len == 0 {
                    return [0; N];
                }
                let ranks = quantiles.map(|q| {
                    let q = q.clamp(0.0, 1.0);
                    ((q * len as f64).ceil() as u64).clamp(1, len)
                });
                let mut order: [usize; N] = std::array::from_fn(|i| i);
                order.sort_unstable_by_key(|&i| ranks[i]);
                let mut values = [0; N];
                let mut ascending = self.exact.ascending();
                let (mut seen, mut value) = (0u64, 0u64);
                for i in order {
                    while seen < ranks[i] {
                        let Some((v, count)) = ascending.next() else {
                            break;
                        };
                        seen = seen.saturating_add(count);
                        value = v;
                    }
                    values[i] = value;
                }
                values
            }
        }
    }

    /// Merges another summary into this one. The result is degraded if either side was
    /// degraded or the combined sample count exceeds the capacity.
    pub fn merge(&mut self, other: &LatencySummary) {
        if self.histogram.is_none()
            && (other.is_degraded() || self.len().saturating_add(other.len()) > self.exact_cap)
        {
            self.degrade();
        }
        match (&mut self.histogram, &other.histogram) {
            (Some(h), Some(oh)) => h
                .merge(oh)
                .expect("for_latencies histograms are always compatible"),
            (Some(h), None) => {
                for (value, count) in other.exact.runs() {
                    h.record_n(value, count);
                }
            }
            (None, _) => {
                for (value, count) in other.exact.runs() {
                    self.exact.record_n(value, count);
                }
            }
        }
    }

    /// Converts the summary into an [`HdrHistogram`] (degrading it first if necessary).
    #[must_use]
    pub fn into_histogram(self) -> HdrHistogram {
        match self.histogram {
            Some(h) => h,
            None => self.exact.to_histogram(),
        }
    }

    /// Returns the cumulative distribution as `(value, cumulative_fraction)` pairs, one
    /// per sample in exact mode.
    #[must_use]
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        match &self.histogram {
            Some(h) => h.cdf(),
            None => {
                let n = self.exact.len as f64;
                let mut cdf = Vec::with_capacity(usize::try_from(self.exact.len).unwrap_or(0));
                let mut rank = 0u64;
                for (value, count) in self.exact.ascending() {
                    for _ in 0..count {
                        rank = rank.saturating_add(1);
                        cdf.push((value, rank as f64 / n));
                    }
                }
                cdf
            }
        }
    }
}

/// The sample-vector summary this module replaced: every exact sample in a `Vec<u64>`,
/// sorted on each query.  Kept as the reference the counted summary must reproduce.
#[cfg(test)]
mod reference {
    use crate::hdr::HdrHistogram;

    #[derive(Debug, Clone)]
    pub(super) struct SampleVecSummary {
        exact_cap: usize,
        pub(super) samples: Vec<u64>,
        histogram: Option<HdrHistogram>,
    }

    impl SampleVecSummary {
        pub(super) fn with_capacity(exact_cap: usize) -> Self {
            SampleVecSummary {
                exact_cap: exact_cap.max(1),
                samples: Vec::new(),
                histogram: None,
            }
        }

        pub(super) fn len(&self) -> u64 {
            match &self.histogram {
                Some(h) => h.len(),
                None => self.samples.len() as u64,
            }
        }

        pub(super) fn is_degraded(&self) -> bool {
            self.histogram.is_some()
        }

        pub(super) fn record(&mut self, value: u64) {
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

        pub(super) fn mean(&self) -> f64 {
            match &self.histogram {
                Some(h) => h.mean(),
                None if self.samples.is_empty() => 0.0,
                None => {
                    self.samples.iter().map(|&v| v as f64).sum::<f64>() / self.samples.len() as f64
                }
            }
        }

        pub(super) fn min(&self) -> u64 {
            match &self.histogram {
                Some(h) => h.min(),
                None => self.samples.iter().copied().min().unwrap_or(0),
            }
        }

        pub(super) fn max(&self) -> u64 {
            match &self.histogram {
                Some(h) => h.max(),
                None => self.samples.iter().copied().max().unwrap_or(0),
            }
        }

        pub(super) fn values_at_quantiles<const N: usize>(&self, quantiles: [f64; N]) -> [u64; N] {
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
                        let rank =
                            ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                        sorted[rank - 1]
                    })
                }
            }
        }

        pub(super) fn merge(&mut self, other: &SampleVecSummary) {
            match &other.histogram {
                Some(oh) => {
                    if self.histogram.is_none() {
                        self.degrade();
                    }
                    self.histogram.as_mut().unwrap().merge(oh).unwrap();
                }
                None => {
                    for &v in &other.samples {
                        self.record(v);
                    }
                }
            }
        }

        pub(super) fn into_histogram(mut self) -> HdrHistogram {
            if self.histogram.is_none() {
                self.degrade();
            }
            self.histogram.unwrap()
        }

        pub(super) fn cdf(&self) -> Vec<(u64, f64)> {
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

    #[test]
    fn mean_stays_exact_once_the_sum_passes_2_pow_53() {
        let big = 1u64 << 53;
        let samples = [big, 1, 1, big, 2];
        let mut s = LatencySummary::with_capacity(100);
        let mut reference = reference::SampleVecSummary::with_capacity(100);
        for v in samples {
            s.record(v);
            reference.record(v);
        }
        // 2^54 + 4 is a float, so the exact mean is one correctly rounded division.
        let exact = ((1u64 << 54) + 4) as f64 / 5.0;
        assert_eq!(s.mean().to_bits(), exact.to_bits());
        // A running f64 sum drops each small sample added to 2^53 (or 2^54).
        assert_eq!(reference.mean(), (1u64 << 54) as f64 / 5.0);
        assert_ne!(s.mean(), reference.mean());
    }

    #[test]
    fn a_full_count_spills_into_the_overflow_list() {
        let mut exact = ExactSamples::default();
        let n = u64::from(u32::MAX) + 3;
        exact.record_n(7, n);
        assert_eq!(exact.counts[7], u32::MAX);
        assert_eq!(exact.overflow, vec![7; 3]);
        exact.record_n(3, 1);
        exact.record_n(8, 1);
        assert_eq!(exact.len, n + 2);
        // The spilled 7s sit in the overflow list below the dense 8.
        let runs: Vec<(u64, u64)> = exact.ascending().collect();
        assert_eq!(runs, vec![(3, 1), (7, u64::from(u32::MAX)), (7, 3), (8, 1)]);
    }

    /// Heap bytes of the counted samples against the capacity of the `Vec<u64>` the
    /// sample-vector summary held, after every sample of each stream.
    #[test]
    fn heap_bytes_stay_within_a_quarter_above_the_sample_vector() {
        fn check(stream: impl Iterator<Item = u64>, name: &str) {
            let mut s = LatencySummary::with_capacity(usize::MAX);
            let mut samples: Vec<u64> = Vec::new();
            for v in stream {
                s.record(v);
                samples.push(v);
                let counted = s.exact.counts.capacity() * 4 + s.exact.overflow.capacity() * 8;
                let stored = samples.capacity() * 8;
                assert!(
                    counted * 4 <= stored * 5,
                    "{name}: {counted} B counted vs {stored} B stored after {} samples",
                    samples.len()
                );
            }
            assert!(!s.is_degraded());
        }
        const MAX: u64 = 300_000;
        check(0..MAX, "ascending");
        for n in [1, 2, 3, 5, 64, 100, 1_000, 65_536, 100_000, 131_072, MAX] {
            check((0..n).rev(), &format!("descending from {n}"));
        }
        for value in [0, 397, 65_535] {
            check(
                std::iter::repeat_n(value, 300_000),
                &format!("single value {value}"),
            );
        }
        check(
            (0..MAX).map(|i| DENSE_LIMIT + i * 7919 % 1_000_000),
            "above 2^16",
        );
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

/// The counted summary against the sample-vector reference: every query answer, bit for
/// bit, for plain recording, exact+exact merges and merges across the degrade point.
#[cfg(test)]
mod differential {
    use super::reference::SampleVecSummary;
    use super::*;
    use proptest::prelude::*;

    const QUANTILES: [f64; 7] = [0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0];

    /// Zero, small and mid values the dense counts hold, values above 2^16 (and above
    /// the HDR range), and a few fixed values that repeat.
    fn sample() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..1,
            0u64..64,
            0u64..4_096,
            4_096u64..DENSE_LIMIT,
            DENSE_LIMIT..10_000_000_000_000,
            (0usize..5).prop_map(|i| [1u64, 397, 65_535, 65_536, 123_456_789][i]),
        ]
    }

    fn stream() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(sample(), 0..700)
    }

    fn record(values: &[u64], cap: usize) -> (LatencySummary, SampleVecSummary) {
        let mut counted = LatencySummary::with_capacity(cap);
        let mut reference = SampleVecSummary::with_capacity(cap);
        for &v in values {
            counted.record(v);
            reference.record(v);
        }
        (counted, reference)
    }

    fn same(counted: &LatencySummary, reference: &SampleVecSummary) -> Result<(), String> {
        prop_assert_eq!(counted.is_degraded(), reference.is_degraded());
        prop_assert_eq!(counted.len(), reference.len());
        prop_assert_eq!(counted.min(), reference.min());
        prop_assert_eq!(counted.max(), reference.max());
        prop_assert_eq!(counted.mean().to_bits(), reference.mean().to_bits());
        prop_assert_eq!(
            counted.values_at_quantiles(QUANTILES),
            reference.values_at_quantiles(QUANTILES)
        );
        let bits = |cdf: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
            cdf.into_iter().map(|(v, f)| (v, f.to_bits())).collect()
        };
        prop_assert_eq!(bits(counted.cdf()), bits(reference.cdf()));
        prop_assert_eq!(
            counted.clone().into_histogram(),
            reference.clone().into_histogram()
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn recording_matches_the_sample_vector(values in stream(), cap in 1usize..800) {
            let (counted, reference) = record(&values, cap);
            same(&counted, &reference)?;
        }

        /// Caps below and above the streams' lengths put each side of a merge in exact
        /// or degraded mode and make exact+exact merges cross the degrade point.
        #[test]
        fn merges_match_the_sample_vector(
            a in stream(),
            b in stream(),
            c in stream(),
            cap_a in 1usize..1_500,
            cap_b in 1usize..800,
            cap_c in 1usize..800,
        ) {
            let (mut counted, mut reference) = record(&a, cap_a);
            let (counted_b, reference_b) = record(&b, cap_b);
            let (counted_c, reference_c) = record(&c, cap_c);
            counted.merge(&counted_b);
            reference.merge(&reference_b);
            same(&counted, &reference)?;
            counted.merge(&counted_c);
            reference.merge(&reference_c);
            same(&counted, &reference)?;
        }
    }
}
