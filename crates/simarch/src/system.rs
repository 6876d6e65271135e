//! The machine-level cost model.
//!
//! [`SystemModel`] combines the core, cache, memory-contention and synchronization terms
//! into a single [`CostModel`](tailbench_core::app::CostModel) that the harness'
//! discrete-event runner queries for every request.  The modeled machine defaults to the
//! paper's experimental system (Table II): 8 Sandy Bridge cores at 2.4 GHz with 32 KB L1,
//! 256 KB L2 and a 20 MB shared L3.

use crate::cache::CacheHierarchy;
use tailbench_core::app::CostModel;
use tailbench_core::request::WorkProfile;

/// Machine parameters (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of cores.
    pub cores: usize,
    /// Core frequency in GHz.
    pub frequency_ghz: f64,
    /// Baseline instructions per cycle when not stalled on memory.
    pub base_ipc: f64,
    /// Cache hierarchy geometry.
    pub caches: CacheHierarchy,
    /// Additional DRAM latency (cycles) added per outstanding concurrent thread beyond
    /// the first, modeling shared-cache and memory-bandwidth contention.
    pub contention_cycles_per_thread: f64,
    /// Constant multiplicative performance error of the simulator relative to the real
    /// machine.  The paper reports per-application speed errors of roughly 10–40%
    /// (Fig. 5); a single constant factor captures the same behaviour.
    pub speed_error: f64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 8,
            frequency_ghz: 2.4,
            base_ipc: 1.6,
            caches: CacheHierarchy::default(),
            contention_cycles_per_thread: 40.0,
            speed_error: 1.0,
        }
    }
}

impl MachineConfig {
    /// The Xeon E5-2670 configuration of Table II.
    #[must_use]
    pub fn table_ii() -> Self {
        Self::default()
    }

    /// Renders the configuration as the rows of Table II.
    #[must_use]
    pub fn describe(&self) -> Vec<(String, String)> {
        vec![
            (
                "Cores".to_string(),
                format!(
                    "{} modeled Sandy Bridge-class cores, {:.1} GHz",
                    self.cores, self.frequency_ghz
                ),
            ),
            (
                "L1 caches".to_string(),
                format!("{} KB, split D/I", self.caches.l1d.capacity_bytes / 1024),
            ),
            (
                "L2 caches".to_string(),
                format!(
                    "{} KB private per-core",
                    self.caches.l2.capacity_bytes / 1024
                ),
            ),
            (
                "L3 cache".to_string(),
                format!("{} MB shared", self.caches.l3.capacity_bytes / 1024 / 1024),
            ),
            (
                "Memory".to_string(),
                format!("{:.0}-cycle DRAM latency", self.caches.dram_latency_cycles),
            ),
        ]
    }
}

/// The complete cost model.
#[derive(Debug, Clone, Copy)]
pub struct SystemModel {
    config: MachineConfig,
    idealized_memory: bool,
}

impl Default for SystemModel {
    fn default() -> Self {
        Self::new(MachineConfig::default())
    }
}

impl SystemModel {
    /// Creates a model of the given machine with a realistic memory system.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        SystemModel {
            config,
            idealized_memory: false,
        }
    }

    /// Creates a model with an idealized memory system: zero-latency DRAM, no cache
    /// misses, no memory contention (the Fig. 8 configuration).  Synchronization costs
    /// remain.
    #[must_use]
    pub fn idealized_memory(config: MachineConfig) -> Self {
        SystemModel {
            config,
            idealized_memory: true,
        }
    }

    /// Whether the memory system is idealized.
    #[must_use]
    pub fn is_idealized(&self) -> bool {
        self.idealized_memory
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Cycles per nanosecond.
    fn cycles_per_ns(&self) -> f64 {
        self.config.frequency_ghz
    }

    /// Total cycles for one request, given how many threads are concurrently active.
    #[must_use]
    pub fn request_cycles(&self, profile: &WorkProfile, active_threads: usize) -> f64 {
        let compute_cycles = profile.instructions as f64 / self.config.base_ipc;

        let memory_cycles = if self.idealized_memory {
            0.0
        } else {
            let base_stall = self.config.caches.stall_cycles(profile);
            // Contention: every additional concurrently active thread adds latency to
            // off-chip accesses (shared L3 and memory bandwidth pressure).
            let extra_threads = active_threads.saturating_sub(1).min(self.config.cores) as f64;
            let p_l3_miss = CacheHierarchy::miss_probability(
                profile.footprint_bytes,
                0.0,
                self.config.caches.l3.capacity_bytes,
            ) * CacheHierarchy::miss_probability(
                profile.footprint_bytes,
                profile.locality,
                self.config.caches.l1d.capacity_bytes,
            );
            let contention = profile.mem_accesses() as f64
                * p_l3_miss
                * self.config.contention_cycles_per_thread
                * extra_threads;
            base_stall + contention
        };

        // Synchronization: the critical fraction of the request serializes against the
        // other active threads (Amdahl-style inflation), independent of the memory system.
        let extra_threads = active_threads.saturating_sub(1) as f64;
        let sync_cycles =
            compute_cycles * profile.critical_fraction.clamp(0.0, 1.0) * extra_threads;

        (compute_cycles + memory_cycles + sync_cycles) * self.config.speed_error
    }
}

impl CostModel for SystemModel {
    fn service_time_ns(&self, profile: &WorkProfile, active_threads: usize) -> u64 {
        (self.request_cycles(profile, active_threads) / self.cycles_per_ns()).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory_bound_profile() -> WorkProfile {
        WorkProfile {
            instructions: 200_000,
            mem_reads: 40_000,
            mem_writes: 10_000,
            footprint_bytes: 64 * 1024 * 1024,
            locality: 0.2,
            critical_fraction: 0.0,
        }
    }

    fn sync_bound_profile() -> WorkProfile {
        WorkProfile {
            instructions: 50_000,
            mem_reads: 2_000,
            mem_writes: 1_000,
            footprint_bytes: 16 * 1024,
            locality: 0.9,
            critical_fraction: 0.3,
        }
    }

    #[test]
    fn service_time_is_positive_and_scales_with_instructions() {
        let model = SystemModel::default();
        let small = WorkProfile {
            instructions: 10_000,
            ..WorkProfile::default()
        };
        let large = WorkProfile {
            instructions: 1_000_000,
            ..WorkProfile::default()
        };
        assert!(model.service_time_ns(&small, 1) > 0);
        assert!(model.service_time_ns(&large, 1) > 50 * model.service_time_ns(&small, 1));
    }

    #[test]
    fn idealized_memory_helps_memory_bound_work() {
        let real = SystemModel::new(MachineConfig::default());
        let ideal = SystemModel::idealized_memory(MachineConfig::default());
        assert!(ideal.is_idealized());
        let p = memory_bound_profile();
        assert!(
            (ideal.service_time_ns(&p, 4) as f64) < 0.7 * real.service_time_ns(&p, 4) as f64,
            "idealizing memory must substantially shorten a memory-bound request"
        );
    }

    #[test]
    fn idealized_memory_does_not_help_sync_bound_work() {
        // This is the Fig. 8 dichotomy: silo-style requests barely improve under an
        // idealized memory system because their overhead is synchronization.
        let real = SystemModel::new(MachineConfig::default());
        let ideal = SystemModel::idealized_memory(MachineConfig::default());
        let p = sync_bound_profile();
        let real_t = real.service_time_ns(&p, 4) as f64;
        let ideal_t = ideal.service_time_ns(&p, 4) as f64;
        assert!(ideal_t > 0.6 * real_t, "ideal {ideal_t} vs real {real_t}");
    }

    #[test]
    fn memory_contention_grows_with_active_threads() {
        let model = SystemModel::default();
        let p = memory_bound_profile();
        let one = model.service_time_ns(&p, 1);
        let four = model.service_time_ns(&p, 4);
        assert!(
            four > one,
            "contention must inflate service time ({one} -> {four})"
        );
    }

    #[test]
    fn sync_inflation_grows_with_active_threads_even_with_ideal_memory() {
        let model = SystemModel::idealized_memory(MachineConfig::default());
        let p = sync_bound_profile();
        assert!(model.service_time_ns(&p, 4) > model.service_time_ns(&p, 1));
    }

    #[test]
    fn speed_error_scales_everything() {
        let config = MachineConfig {
            speed_error: 2.0,
            ..MachineConfig::default()
        };
        let slow = SystemModel::new(config);
        let fast = SystemModel::default();
        let p = memory_bound_profile();
        let ratio = slow.service_time_ns(&p, 1) as f64 / fast.service_time_ns(&p, 1) as f64;
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn table_ii_description_has_five_rows() {
        let rows = MachineConfig::table_ii().describe();
        assert_eq!(rows.len(), 5);
        assert!(rows[0].1.contains("2.4 GHz"));
        assert!(rows[3].1.contains("20 MB"));
    }
}
