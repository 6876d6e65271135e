//! YCSB-style key-value workload generation.
//!
//! masstree is driven by a modified Yahoo Cloud Serving Benchmark with 50% GETs and 50%
//! PUTs ("mycsb-a", paper Table I).  This module generates that operation mix over a
//! configurable key space with Zipfian key popularity and fixed-size values, exactly as
//! the YCSB core workloads do.

use crate::rng::SuiteRng;
use crate::zipf::ScrambledZipfian;
use rand::Rng;

/// A single key-value operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Read the value of a key.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Insert or overwrite a key.
    Put {
        /// Key to write.
        key: u64,
        /// Value payload.
        value: Vec<u8>,
    },
    /// Range scan starting at `key` for `count` entries.
    Scan {
        /// First key of the range.
        key: u64,
        /// Maximum number of entries to return.
        count: usize,
    },
}

/// A drawn operation whose PUT value is not built yet: it is
/// [`YcsbGenerator::value_for`] of the key, and the caller writes it where it needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvDraw {
    /// Read the value of a key.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Insert or overwrite a key with its deterministic value.
    Put {
        /// Key to write.
        key: u64,
    },
    /// Range scan starting at `key` for `count` entries.
    Scan {
        /// First key of the range.
        key: u64,
        /// Maximum number of entries to return.
        count: usize,
    },
}

impl KvOp {
    /// The key this operation addresses.
    #[must_use]
    pub fn key(&self) -> u64 {
        match self {
            KvOp::Get { key } | KvOp::Put { key, .. } | KvOp::Scan { key, .. } => *key,
        }
    }
}

/// Operation mix of a YCSB-style workload, expressed as fractions summing to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of GET operations.
    pub get: f64,
    /// Fraction of PUT operations.
    pub put: f64,
    /// Fraction of SCAN operations.
    pub scan: f64,
}

impl OpMix {
    /// The mycsb-a mix used by the paper: 50% GETs, 50% PUTs.
    pub const MYCSB_A: OpMix = OpMix {
        get: 0.5,
        put: 0.5,
        scan: 0.0,
    };

    /// YCSB-B: 95% reads, 5% updates.
    pub const YCSB_B: OpMix = OpMix {
        get: 0.95,
        put: 0.05,
        scan: 0.0,
    };

    /// YCSB-E-like: 95% scans, 5% inserts.
    pub const YCSB_E: OpMix = OpMix {
        get: 0.0,
        put: 0.05,
        scan: 0.95,
    };

    /// Validates that fractions are non-negative and sum to ~1.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.get >= 0.0
            && self.put >= 0.0
            && self.scan >= 0.0
            && ((self.get + self.put + self.scan) - 1.0).abs() < 1e-6
    }
}

/// Configuration of the key-value workload.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Number of records pre-loaded into the store.
    pub records: u64,
    /// Size of each value in bytes.
    pub value_size: usize,
    /// Operation mix.
    pub mix: OpMix,
    /// Zipfian skew of key popularity.
    pub key_skew: f64,
    /// Maximum scan length.
    pub max_scan: usize,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        // The paper's masstree table is 1.1 GB; we scale record count down while keeping
        // per-request work representative (tree depth changes only logarithmically).
        YcsbConfig {
            records: 1_000_000,
            value_size: 128,
            mix: OpMix::MYCSB_A,
            key_skew: 0.99,
            max_scan: 100,
        }
    }
}

impl YcsbConfig {
    /// A small configuration suitable for unit tests.
    #[must_use]
    pub fn small() -> Self {
        YcsbConfig {
            records: 10_000,
            value_size: 32,
            ..Self::default()
        }
    }
}

/// Generates YCSB-style operations.
#[derive(Debug, Clone)]
pub struct YcsbGenerator {
    config: YcsbConfig,
    key_dist: ScrambledZipfian,
}

impl YcsbGenerator {
    /// Creates a generator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the operation mix is invalid or `records == 0`.
    #[must_use]
    pub fn new(config: YcsbConfig) -> Self {
        assert!(config.mix.is_valid(), "operation mix must sum to 1");
        assert!(config.records > 0, "need at least one record");
        let key_dist = ScrambledZipfian::new(config.records, config.key_skew);
        YcsbGenerator { config, key_dist }
    }

    /// The workload configuration.
    #[must_use]
    pub fn config(&self) -> &YcsbConfig {
        &self.config
    }

    /// Deterministic value payload for a key (used by loading and by PUTs).
    #[must_use]
    pub fn value_for(&self, key: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.config.value_size);
        self.write_value(key, &mut v);
        v
    }

    /// Appends [`value_for`](Self::value_for)`(key)` to `out`, so a request frame can
    /// hold the value without a separate allocation.  Byte `i` is
    /// `(key * 31 + i * 7) mod 256`, computed in `u8` arithmetic so the loop vectorises.
    pub fn write_value(&self, key: u64, out: &mut Vec<u8>) {
        let base = (key as u8).wrapping_mul(31);
        out.extend(
            (0..self.config.value_size).map(|i| base.wrapping_add((i as u8).wrapping_mul(7))),
        );
    }

    /// Draws the next operation without building a PUT's value.
    pub fn draw(&self, rng: &mut SuiteRng) -> KvDraw {
        let key = self.key_dist.sample(rng);
        let r: f64 = rng.gen();
        if r < self.config.mix.get {
            KvDraw::Get { key }
        } else if r < self.config.mix.get + self.config.mix.put {
            KvDraw::Put { key }
        } else {
            KvDraw::Scan {
                key,
                count: rng.gen_range(1..=self.config.max_scan),
            }
        }
    }

    /// Draws the next operation.
    pub fn next_op(&self, rng: &mut SuiteRng) -> KvOp {
        match self.draw(rng) {
            KvDraw::Get { key } => KvOp::Get { key },
            KvDraw::Put { key } => KvOp::Put {
                key,
                value: self.value_for(key),
            },
            KvDraw::Scan { key, count } => KvOp::Scan { key, count },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn mix_validation() {
        assert!(OpMix::MYCSB_A.is_valid());
        assert!(OpMix::YCSB_B.is_valid());
        assert!(OpMix::YCSB_E.is_valid());
        assert!(!OpMix {
            get: 0.5,
            put: 0.6,
            scan: 0.0
        }
        .is_valid());
        assert!(!OpMix {
            get: -0.1,
            put: 1.1,
            scan: 0.0
        }
        .is_valid());
    }

    #[test]
    fn mycsb_a_mix_is_half_get_half_put() {
        let gen = YcsbGenerator::new(YcsbConfig::small());
        let mut rng = seeded_rng(1, 0);
        let mut gets = 0usize;
        let mut puts = 0usize;
        for _ in 0..20_000 {
            match gen.next_op(&mut rng) {
                KvOp::Get { .. } => gets += 1,
                KvOp::Put { .. } => puts += 1,
                KvOp::Scan { .. } => panic!("mycsb-a has no scans"),
            }
        }
        let get_frac = gets as f64 / (gets + puts) as f64;
        assert!((get_frac - 0.5).abs() < 0.02, "get fraction {get_frac}");
    }

    #[test]
    fn keys_stay_in_range_and_are_skewed() {
        let cfg = YcsbConfig::small();
        let records = cfg.records;
        let gen = YcsbGenerator::new(cfg);
        let mut rng = seeded_rng(2, 0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            let k = gen.next_op(&mut rng).key();
            assert!(k < records);
            *counts.entry(k).or_insert(0u64) += 1;
        }
        // Under a 0.99-skew Zipfian the hottest key gets far more than its uniform share
        // (50_000 / 10_000 = 5 accesses) and not every key is touched.
        let hottest = counts.values().copied().max().unwrap();
        assert!(hottest > 500, "hottest key count = {hottest}");
        assert!(counts.len() < records as usize);
    }

    #[test]
    fn values_are_deterministic_and_sized() {
        let gen = YcsbGenerator::new(YcsbConfig::small());
        assert_eq!(gen.value_for(42), gen.value_for(42));
        assert_ne!(gen.value_for(42), gen.value_for(43));
        assert_eq!(gen.value_for(7).len(), gen.config().value_size);
        // Byte i of key k is (31k + 7i) mod 256, past the u8 wrap of k and of i too.
        let long = YcsbGenerator::new(YcsbConfig {
            value_size: 300,
            ..YcsbConfig::small()
        });
        for key in [0u64, 9, 255, 256, 1_000_003, u64::MAX] {
            let value = long.value_for(key);
            for (i, &b) in value.iter().enumerate() {
                let want = (u128::from(key) * 31 + i as u128 * 7) % 256;
                assert_eq!(u128::from(b), want, "key {key} byte {i}");
            }
        }
    }

    #[test]
    fn write_value_appends_after_what_the_buffer_holds() {
        let gen = YcsbGenerator::new(YcsbConfig::small());
        let mut out = vec![0xAB; 9];
        gen.write_value(5, &mut out);
        assert_eq!(out[..9], [0xAB; 9]);
        assert_eq!(out[9..], gen.value_for(5)[..]);
        gen.write_value(6, &mut out);
        assert_eq!(out.len(), 9 + 2 * gen.config().value_size);
        assert_eq!(out[9 + gen.config().value_size..], gen.value_for(6)[..]);
    }

    #[test]
    fn scan_workload_produces_scans() {
        let cfg = YcsbConfig {
            mix: OpMix::YCSB_E,
            ..YcsbConfig::small()
        };
        let gen = YcsbGenerator::new(cfg);
        let mut rng = seeded_rng(3, 0);
        let scans = (0..1000)
            .filter(|_| matches!(gen.next_op(&mut rng), KvOp::Scan { .. }))
            .count();
        assert!(scans > 900);
    }

    #[test]
    #[should_panic(expected = "operation mix")]
    fn invalid_mix_panics() {
        let cfg = YcsbConfig {
            mix: OpMix {
                get: 0.9,
                put: 0.9,
                scan: 0.0,
            },
            ..YcsbConfig::small()
        };
        let _ = YcsbGenerator::new(cfg);
    }
}
