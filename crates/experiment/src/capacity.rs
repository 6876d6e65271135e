//! Capacity probing: the saturation-throughput denominator for capacity-relative load.
//!
//! The paper expresses offered load as a fraction of each setup's capacity ("latencies
//! at 20% / 50% / 70% load", Table I); every figure binary used to carry its own copy
//! of this logic.  It now lives here, used by `Experiment::run()`:
//!
//! * **wall-clock single server** — execute `samples` requests back to back across the
//!   worker threads and measure the completion rate
//!   ([`tailbench_core::runner::measure_capacity`]);
//! * **cluster, or simulated single server (the 1×1 cluster)** — run a short low-load
//!   probe through the full cluster harness *in the point's own mode* and derive the
//!   per-leaf service rate from the per-shard service means; scale by replication
//!   (replicas share a shard's legs) and, for single-shard fan-out, by the shard count
//!   (shards split the request stream).  Under the simulator this is the cost model's
//!   rate.  Real-time cluster modes are additionally capped by the host's core count,
//!   since all instances share one machine.

use crate::registry::ClusterApp;
use tailbench_core::app::CostModel;
use tailbench_core::config::{BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode};
use tailbench_core::error::HarnessError;
use tailbench_core::runner;

/// Seed used by capacity probes (distinct from measurement seeds so probing never
/// perturbs a measured request stream).
pub const PROBE_SEED: u64 = 0xCAFE;

/// Estimates the sustainable end-to-end rate of a cluster under `mode` from a low-load
/// probe run.
///
/// The probe measures the mean per-shard *service* time (the cluster-level sojourn
/// would conflate queuing); one leaf then sustains `1e9 / mean_service_ns` QPS.  Under
/// broadcast fan-out every request visits every shard, so the cluster rate equals the
/// per-shard rate times the replication factor (replicas split a shard's legs); under
/// single-shard fan-out the stream also splits across shards.
///
/// # Errors
///
/// Propagates the probe run's harness errors.
pub fn cluster_capacity_qps(
    cluster_app: &ClusterApp,
    cluster: &ClusterConfig,
    mode: HarnessMode,
    threads: usize,
    samples: usize,
    cost_model: Option<&dyn CostModel>,
) -> Result<f64, HarnessError> {
    let samples = samples.clamp(50, 300);
    let config = BenchmarkConfig::new(200.0, samples)
        .with_mode(mode)
        .with_threads(threads)
        .with_warmup((samples / 10).max(5))
        .with_seed(PROBE_SEED);
    // Probe without hedging: the capacity estimate must describe the unmitigated
    // system, and a percentile hedge trigger is itself derived from an unhedged run.
    let probe_cluster = ClusterConfig {
        hedge: None,
        ..cluster.clone()
    };
    let mut factory = cluster_app.factory(PROBE_SEED);
    let report = runner::execute_cluster(
        &cluster_app.instances,
        factory.as_mut(),
        &config,
        &probe_cluster,
        cost_model,
    )?;
    let shard_service_mean = report
        .per_shard
        .iter()
        .map(|s| s.service.mean_ns)
        .sum::<f64>()
        / report.per_shard.len().max(1) as f64;
    let leaf_qps = 1e9 / shard_service_mean.max(1.0) * threads.max(1) as f64;
    let streams = match cluster.fanout {
        FanoutPolicy::Broadcast => 1.0,
        _ => cluster.shards.max(1) as f64,
    };
    let mut capacity = leaf_qps * cluster.replication.max(1) as f64 * streams;
    if !matches!(mode, HarnessMode::Simulated) {
        // Real-time instances share the host's cores; scale the sustainable rate down
        // once the cluster needs more workers than the machine has.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = cluster.instances().max(1) * threads.max(1);
        capacity *= (cores as f64 / workers as f64).min(1.0);
    }
    Ok(capacity.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AppBuilder, BenchApp};
    use crate::Scale;
    use std::sync::Arc;
    use tailbench_core::app::{EchoApp, InstructionRateModel};

    struct Echo(u64);
    impl AppBuilder for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn build(&self, _scale: Scale) -> BenchApp {
            BenchApp {
                name: "echo".into(),
                app: Arc::new(EchoApp { spin_iters: self.0 }),
                factory_builder: Box::new(|_| Box::new(|| vec![0u8])),
            }
        }
    }

    #[test]
    fn simulated_cluster_capacity_tracks_the_cost_model() {
        let builder = Echo(100_000);
        let cluster_app = builder.build_cluster(4, 1, Scale::Smoke);
        let cluster = ClusterConfig::new(4, FanoutPolicy::Broadcast);
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let capacity = cluster_capacity_qps(
            &cluster_app,
            &cluster,
            HarnessMode::Simulated,
            1,
            200,
            Some(&model),
        )
        .unwrap();
        // Service time is exactly 100_010 ns, so one leaf sustains ~10k QPS; broadcast
        // with replication 1 keeps the cluster at the leaf rate.
        assert!(
            (capacity - 1e9 / 100_010.0).abs() / capacity < 0.05,
            "{capacity}"
        );

        // Replication doubles it; hash fan-out multiplies by the shard count.
        let replicated = cluster.clone().with_replication(2);
        let replicated_app = builder.build_cluster(4, 2, Scale::Smoke);
        let cap2 = cluster_capacity_qps(
            &replicated_app,
            &replicated,
            HarnessMode::Simulated,
            1,
            200,
            Some(&model),
        )
        .unwrap();
        assert!((cap2 / capacity - 2.0).abs() < 0.1, "{cap2} vs {capacity}");
    }
}
