//! Zipfian distributions.
//!
//! Online-search query popularity and YCSB key popularity follow Zipf-like distributions
//! (paper §III, citing Baeza-Yates and the YCSB paper).  This module implements the
//! standard rejection-inversion-free Zipfian generator of Gray et al. (used by YCSB) plus
//! a *scrambled* variant that decorrelates popularity from key order.

use crate::rng::SuiteRng;
use rand::Rng;

/// Generator of Zipf-distributed ranks in `0..n`.
///
/// Rank 0 is the most popular item.  The skew parameter `theta` defaults to the YCSB
/// value 0.99; `theta = 0` degenerates to the uniform distribution.
///
/// # Example
///
/// ```
/// use tailbench_workloads::zipf::Zipfian;
/// use tailbench_workloads::rng::seeded_rng;
///
/// let z = Zipfian::new(1000, 0.99);
/// let mut rng = seeded_rng(1, 0);
/// let r = z.sample(&mut rng);
/// assert!(r < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
    /// `1 + 0.5^theta`: below it `sample` draws rank 1.  Not `zeta2theta`, which sums
    /// `1 / 2^theta` and may differ from this in the last bit.
    rank1_bound: f64,
}

impl Zipfian {
    /// Creates a Zipfian generator over `n` items with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `[0, 1)`… the Gray et al. construction
    /// requires `theta != 1`; values ≥ 1 are rejected.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian over an empty domain");
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in [0,1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2theta,
            rank1_bound: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Creates the YCSB default (theta = 0.99).
    #[must_use]
    pub fn ycsb_default(n: u64) -> Self {
        Self::new(n, 0.99)
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation; item counts in this suite are at most a few million and the
        // constructor runs once per workload.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of items in the domain.
    #[must_use]
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// The skew parameter.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Samples a rank in `0..n`, rank 0 being the most popular.
    pub fn sample(&self, rng: &mut SuiteRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let v = ((self.eta * u) - self.eta + 1.0).powf(self.alpha);
        let rank = (self.n as f64 * v) as u64;
        rank.min(self.n - 1)
    }

    /// The probability mass of rank `k` (0-based) under this distribution.
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 0.0;
        }
        1.0 / ((k + 1) as f64).powf(self.theta) / self.zetan
    }

    /// Unused field accessor kept for diagnostics of the Gray construction.
    #[must_use]
    pub fn zeta2theta(&self) -> f64 {
        self.zeta2theta
    }
}

/// A Zipfian generator whose ranks are scrambled across the item space using an FNV-style
/// hash, as YCSB does, so that popular items are not clustered at low indices.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a scrambled Zipfian generator over `n` items with skew `theta`.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        ScrambledZipfian {
            inner: Zipfian::new(n, theta),
        }
    }

    /// Number of items in the domain.
    #[must_use]
    pub fn domain(&self) -> u64 {
        self.inner.domain()
    }

    /// Samples an item index in `0..n`.
    pub fn sample(&self, rng: &mut SuiteRng) -> u64 {
        let rank = self.inner.sample(rng);
        fnv_hash64(rank) % self.inner.domain()
    }
}

/// 64-bit FNV-1a hash of an integer, used to scramble Zipfian ranks.
#[must_use]
pub fn fnv_hash64(value: u64) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = OFFSET;
    for i in 0..8 {
        let byte = (value >> (i * 8)) & 0xFF;
        hash ^= byte;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn samples_stay_in_domain() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = seeded_rng(1, 0);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let z = Zipfian::new(1_000, 0.99);
        let mut rng = seeded_rng(2, 0);
        let mut counts = vec![0u64; 1_000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max_idx = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(max_idx, 0);
        // Head heaviness: the top 10% of ranks should hold well over half the mass.
        let head: u64 = counts[..100].iter().sum();
        let total: u64 = counts.iter().sum();
        assert!(
            head as f64 / total as f64 > 0.55,
            "head share = {}",
            head as f64 / total as f64
        );
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let z = Zipfian::new(10, 0.0);
        let mut rng = seeded_rng(3, 0);
        let mut counts = vec![0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let p = c as f64 / 100_000.0;
            assert!((p - 0.1).abs() < 0.02, "p = {p}");
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipfian::new(500, 0.9);
        let total: f64 = (0..500).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.pmf(500), 0.0);
        assert!(z.pmf(0) > z.pmf(1));
    }

    #[test]
    fn scrambled_spreads_popularity() {
        let z = ScrambledZipfian::new(1_000, 0.99);
        let mut rng = seeded_rng(4, 0);
        let mut counts = vec![0u64; 1_000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // The most popular item should NOT be item 0 with overwhelming likelihood
        // (scrambling moved it), and mass should still be skewed.
        let (max_idx, &max_cnt) = counts.iter().enumerate().max_by_key(|&(_, c)| *c).unwrap();
        assert!(max_cnt > 5_000, "max count = {max_cnt}");
        assert_eq!(max_idx, (fnv_hash64(0) % 1000) as usize);
    }

    #[test]
    fn scrambled_draws_are_pinned() {
        // Recorded from a build that evaluated `1.0 + 0.5f64.powf(theta)` on every
        // draw: hoisting it into `new` must not move a single key.
        let z = ScrambledZipfian::new(100_000, 0.99);
        let mut rng = seeded_rng(25, 0);
        let keys: Vec<u64> = (0..32).map(|_| z.sample(&mut rng)).collect();
        assert_eq!(
            keys,
            [
                48515, 44544, 95587, 97146, 67698, 53223, 20217, 63814, 12308, 74405, 76282, 44081,
                47093, 63814, 73097, 16769, 67534, 16879, 66486, 1319, 54203, 24317, 30636, 45966,
                51903, 91562, 74405, 64549, 26264, 1717, 6178, 63814
            ]
        );
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn empty_domain_panics() {
        let _ = Zipfian::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn theta_one_panics() {
        let _ = Zipfian::new(10, 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::seeded_rng;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn samples_always_in_range(n in 1u64..5_000, theta in 0.0f64..0.999, seed in 0u64..1000) {
            let z = Zipfian::new(n, theta);
            let mut rng = seeded_rng(seed, 0);
            for _ in 0..64 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }

        #[test]
        fn pmf_is_monotonically_decreasing(n in 2u64..2_000, theta in 0.1f64..0.999) {
            let z = Zipfian::new(n, theta);
            for k in 0..(n - 1).min(64) {
                prop_assert!(z.pmf(k) >= z.pmf(k + 1));
            }
        }
    }
}
