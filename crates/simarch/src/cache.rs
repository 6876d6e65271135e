//! Cache-hierarchy model.
//!
//! A full set-associative cache simulation per memory access would make simulated runs as
//! slow as real ones; instead this module uses a standard analytic working-set model:
//! given a request's memory footprint and locality, the fraction of accesses that miss a
//! cache of capacity `C` follows a smooth saturating curve in `footprint / C`.  The model
//! is calibrated so that the per-application MPKI ordering matches the paper's Table I
//! (e.g. img-dnn has by far the highest L1D MPKI, silo the lowest L3 MPKI).

use tailbench_core::request::WorkProfile;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevelConfig {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Hit latency in cycles (used by the system model).
    pub hit_latency_cycles: f64,
}

/// Per-level miss counts per kilo-instruction (the Table I metrics).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MissRates {
    /// L1 instruction-cache MPKI.
    pub l1i_mpki: f64,
    /// L1 data-cache MPKI.
    pub l1d_mpki: f64,
    /// L2 MPKI.
    pub l2_mpki: f64,
    /// L3 MPKI.
    pub l3_mpki: f64,
}

/// The three-level cache hierarchy of the modeled machine (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheHierarchy {
    /// Private L1 data cache.
    pub l1d: CacheLevelConfig,
    /// Private L2.
    pub l2: CacheLevelConfig,
    /// Shared L3.
    pub l3: CacheLevelConfig,
    /// DRAM access latency in cycles.
    pub dram_latency_cycles: f64,
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        // Table II: 32 KB L1, 256 KB private L2, 20 MB shared L3, DDR3-1333.
        CacheHierarchy {
            l1d: CacheLevelConfig {
                capacity_bytes: 32 * 1024,
                hit_latency_cycles: 4.0,
            },
            l2: CacheLevelConfig {
                capacity_bytes: 256 * 1024,
                hit_latency_cycles: 12.0,
            },
            l3: CacheLevelConfig {
                capacity_bytes: 20 * 1024 * 1024,
                hit_latency_cycles: 35.0,
            },
            dram_latency_cycles: 200.0,
        }
    }
}

impl CacheHierarchy {
    /// Probability that an access to a working set of `footprint` bytes with the given
    /// locality misses a cache of `capacity` bytes.
    ///
    /// Locality 1.0 means almost all accesses hit regardless of footprint (streaming a
    /// small hot structure); locality 0.0 means accesses are spread uniformly over the
    /// footprint.
    #[must_use]
    pub fn miss_probability(footprint: u64, locality: f64, capacity: u64) -> f64 {
        if footprint == 0 {
            return 0.0;
        }
        let locality = locality.clamp(0.0, 1.0);
        let pressure = footprint as f64 / capacity as f64;
        // Saturating curve: tiny footprints miss almost never, footprints far larger
        // than the cache miss on most non-local accesses.
        let uncached_fraction = pressure / (1.0 + pressure);
        (1.0 - locality) * uncached_fraction
    }

    /// Estimates per-level miss rates for a request's work profile.
    #[must_use]
    pub fn miss_rates(&self, profile: &WorkProfile) -> MissRates {
        if profile.instructions == 0 {
            return MissRates::default();
        }
        let accesses = profile.mem_accesses() as f64;
        let kilo_instr = profile.instructions as f64 / 1_000.0;
        let p_l1 = Self::miss_probability(
            profile.footprint_bytes,
            profile.locality,
            self.l1d.capacity_bytes,
        );
        // Misses filter through the hierarchy: an access can only miss L2 if it missed
        // L1, and locality of the surviving stream is lower.
        let p_l2 = p_l1
            * Self::miss_probability(
                profile.footprint_bytes,
                profile.locality * 0.5,
                self.l2.capacity_bytes,
            )
            .min(1.0)
            / Self::miss_probability(
                profile.footprint_bytes,
                profile.locality,
                self.l1d.capacity_bytes,
            )
            .max(1e-12);
        let p_l2 = p_l2.min(p_l1);
        let p_l3 = p_l2
            * Self::miss_probability(profile.footprint_bytes, 0.0, self.l3.capacity_bytes).min(1.0);
        let p_l3 = p_l3.min(p_l2);

        // The instruction stream is small and loop-heavy for compute codes; model L1I
        // misses as driven by instruction-footprint ~ instructions per request capped at
        // a realistic code size, scaled down by locality.
        let code_footprint = (profile.instructions / 16).min(4 * 1024 * 1024);
        let p_l1i = Self::miss_probability(code_footprint, 0.9, self.l1d.capacity_bytes);

        MissRates {
            l1i_mpki: p_l1i * profile.instructions as f64 / 64.0 / kilo_instr,
            l1d_mpki: accesses * p_l1 / kilo_instr,
            l2_mpki: accesses * p_l2 / kilo_instr,
            l3_mpki: accesses * p_l3 / kilo_instr,
        }
    }

    /// Average memory-stall cycles per access implied by the given miss rates path,
    /// excluding contention (added separately by the system model).
    #[must_use]
    pub fn stall_cycles(&self, profile: &WorkProfile) -> f64 {
        let accesses = profile.mem_accesses() as f64;
        if accesses == 0.0 {
            return 0.0;
        }
        let p_l1 = Self::miss_probability(
            profile.footprint_bytes,
            profile.locality,
            self.l1d.capacity_bytes,
        );
        let p_l2 = p_l1
            * Self::miss_probability(
                profile.footprint_bytes,
                profile.locality * 0.5,
                self.l2.capacity_bytes,
            );
        let p_l3 =
            p_l2 * Self::miss_probability(profile.footprint_bytes, 0.0, self.l3.capacity_bytes);
        accesses
            * (p_l1 * self.l2.hit_latency_cycles
                + p_l2 * self.l3.hit_latency_cycles
                + p_l3 * self.dram_latency_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(footprint: u64, locality: f64) -> WorkProfile {
        WorkProfile {
            instructions: 100_000,
            mem_reads: 20_000,
            mem_writes: 5_000,
            footprint_bytes: footprint,
            locality,
            critical_fraction: 0.0,
        }
    }

    #[test]
    fn miss_probability_behaviour() {
        // Tiny footprints barely miss; huge footprints with no locality miss a lot.
        assert!(CacheHierarchy::miss_probability(1_024, 0.5, 32 * 1024) < 0.02);
        assert!(CacheHierarchy::miss_probability(64 * 1024 * 1024, 0.0, 32 * 1024) > 0.9);
        // Perfect locality never misses; zero footprint never misses.
        assert_eq!(
            CacheHierarchy::miss_probability(1 << 30, 1.0, 32 * 1024),
            0.0
        );
        assert_eq!(CacheHierarchy::miss_probability(0, 0.0, 32 * 1024), 0.0);
    }

    #[test]
    fn miss_rates_are_monotone_across_levels() {
        let h = CacheHierarchy::default();
        let rates = h.miss_rates(&profile(8 * 1024 * 1024, 0.3));
        assert!(rates.l1d_mpki >= rates.l2_mpki);
        assert!(rates.l2_mpki >= rates.l3_mpki);
        assert!(rates.l1d_mpki > 0.0);
    }

    #[test]
    fn larger_footprints_miss_more() {
        let h = CacheHierarchy::default();
        let small = h.miss_rates(&profile(16 * 1024, 0.3));
        let large = h.miss_rates(&profile(64 * 1024 * 1024, 0.3));
        assert!(large.l1d_mpki > small.l1d_mpki);
        assert!(large.l3_mpki > small.l3_mpki);
    }

    #[test]
    fn stall_cycles_track_memory_intensity() {
        let h = CacheHierarchy::default();
        let light = h.stall_cycles(&profile(8 * 1024, 0.9));
        let heavy = h.stall_cycles(&profile(128 * 1024 * 1024, 0.1));
        assert!(heavy > 10.0 * light);
        let none = h.stall_cycles(&WorkProfile {
            mem_reads: 0,
            mem_writes: 0,
            ..profile(1024, 0.5)
        });
        assert_eq!(none, 0.0);
    }

    #[test]
    fn empty_profile_has_zero_mpki() {
        let h = CacheHierarchy::default();
        assert_eq!(h.miss_rates(&WorkProfile::default()), MissRates::default());
    }
}
