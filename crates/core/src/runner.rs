//! The top-level benchmark runner.
//!
//! [`execute`] runs a single measurement in whichever harness configuration the
//! [`BenchmarkConfig`] selects, and [`execute_cluster`] does the same for a cluster
//! layout; both validate the configuration on entry.  One level up, the declarative
//! `tailbench_experiment::Experiment` API drives them, and its `repeats` re-run a point
//! with fresh seeds for the paper's confidence intervals.  [`measure_capacity`]
//! estimates an application's saturation throughput, which the experiments use to
//! express offered load as a fraction of capacity (paper Table I reports latencies "at
//! 20% / 50% / 70% load").

use crate::app::{CostModel, RequestFactory, ServerApp};
use crate::config::{BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode};
use crate::error::HarnessError;
use crate::integrated::run_cluster_integrated;
use crate::net::run_cluster_tcp;
use crate::report::{ClusterReport, RunReport};
use crate::sim::run_cluster_simulated;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Runs one single-server measurement with the configured harness mode — the one
/// low-level dispatcher behind every single-server entrypoint.
///
/// A single server is a 1×1 cluster: every run goes through the mode's cluster engine on
/// one shard of one replica, closed loops included, and the report is that cluster's
/// end-to-end view (which holds the one instance's full queue summary) under the mode's
/// own label.
///
/// `cost_model` is required by simulated mode and ignored by the real-time modes, so a
/// caller that has a model can always pass `Some(model)` regardless of mode.  Most
/// callers should prefer the declarative `tailbench_experiment::Experiment` API, which
/// adds the app registry, capacity-relative load, sweeps and structured output on top
/// of this function.
///
/// # Errors
///
/// Returns [`HarnessError::Config`] if [`BenchmarkConfig::validate`] rejects the
/// configuration or simulated mode is selected without a cost model, and
/// [`HarnessError::Io`] if a TCP configuration fails to set up its sockets.
pub fn execute(
    app: &Arc<dyn ServerApp>,
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
    cost_model: Option<&dyn CostModel>,
) -> Result<RunReport, HarnessError> {
    config.validate()?;
    let apps = std::slice::from_ref(app);
    let one_by_one = ClusterConfig::new(1, FanoutPolicy::Broadcast);
    let single_server = |report: ClusterReport| RunReport {
        configuration: config.mode.name().to_string(),
        ..report.cluster
    };
    match &config.mode {
        HarnessMode::Integrated => {
            run_cluster_integrated(apps, factory, config, &one_by_one).map(single_server)
        }
        HarnessMode::Loopback { .. } | HarnessMode::Networked { .. } => {
            run_cluster_tcp(apps, factory, config, &one_by_one).map(single_server)
        }
        HarnessMode::Simulated => match cost_model {
            Some(model) => {
                run_cluster_simulated(apps, factory, config, &one_by_one, model).map(single_server)
            }
            None => Err(HarnessError::Config(
                "simulated mode requires a cost model; pass Some(cost_model) to \
                 runner::execute (the Experiment API supplies one from its registry)"
                    .into(),
            )),
        },
    }
}

/// Runs one cluster measurement with the configured harness mode — the one low-level
/// dispatcher behind every cluster entrypoint.
///
/// `apps` holds one server application per cluster instance
/// (`cluster.instances() = shards * replication`, shard-major order); each instance
/// runs with its own queue and worker pool (or simulated station).  Simulated mode
/// requires `cost_model`; the real-time modes ignore it.  In the TCP modes each of the
/// mode's `connections` client connections paces its share of the schedule and holds a
/// socket to every instance.
///
/// # Errors
///
/// Returns [`HarnessError::Config`] if [`BenchmarkConfig::validate_cluster`] rejects
/// the configuration, for a wrong `apps` count, or for simulated mode without a cost
/// model, and [`HarnessError::Io`] if a TCP configuration fails to set up its sockets.
pub fn execute_cluster(
    apps: &[Arc<dyn ServerApp>],
    factory: &mut dyn RequestFactory,
    config: &BenchmarkConfig,
    cluster: &ClusterConfig,
    cost_model: Option<&dyn CostModel>,
) -> Result<ClusterReport, HarnessError> {
    config.validate_cluster(cluster)?;
    match &config.mode {
        HarnessMode::Integrated => run_cluster_integrated(apps, factory, config, cluster),
        HarnessMode::Loopback { .. } | HarnessMode::Networked { .. } => {
            run_cluster_tcp(apps, factory, config, cluster)
        }
        HarnessMode::Simulated => match cost_model {
            Some(model) => run_cluster_simulated(apps, factory, config, cluster, model),
            None => Err(HarnessError::Config(
                "simulated cluster runs require a cost model; pass Some(cost_model)".into(),
            )),
        },
    }
}

/// Estimates the application's saturation throughput (requests per second) with the
/// given number of worker threads by executing `sample_requests` back-to-back across the
/// workers and measuring the completion rate.
///
/// This is the denominator used to express offered load as a fraction of capacity.
#[must_use]
pub fn measure_capacity(
    app: &Arc<dyn ServerApp>,
    factory: &mut dyn RequestFactory,
    threads: usize,
    sample_requests: usize,
) -> f64 {
    app.prepare();
    let threads = threads.max(1);
    let sample_requests = sample_requests.max(threads);
    let payloads: Vec<Vec<u8>> = (0..sample_requests)
        .map(|_| factory.next_request())
        .collect();
    let payloads = Arc::new(payloads);
    let next = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let app = Arc::clone(app);
            let payloads = Arc::clone(&payloads);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut served = 0u64;
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if idx >= payloads.len() {
                        break;
                    }
                    let _ = app.handle(&payloads[idx]);
                    served += 1;
                }
                served
            })
        })
        .collect();
    let total: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("capacity worker panicked"))
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    if elapsed <= 0.0 {
        return 0.0;
    }
    total as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{EchoApp, InstructionRateModel};
    use crate::config::{BenchmarkConfig, HarnessMode};

    fn echo() -> Arc<dyn ServerApp> {
        Arc::new(EchoApp::with_service_us(10))
    }

    #[test]
    fn execute_dispatches_to_integrated() {
        let app = echo();
        let mut factory = || vec![1u8];
        let report = execute(
            &app,
            &mut factory,
            &BenchmarkConfig::new(1_000.0, 200),
            None,
        )
        .unwrap();
        assert_eq!(report.configuration, "integrated");
    }

    #[test]
    fn execute_simulated_requires_cost_model() {
        let app = echo();
        let mut factory = || vec![1u8];
        let config = BenchmarkConfig::new(1_000.0, 50).with_mode(HarnessMode::Simulated);
        assert!(execute(&app, &mut factory, &config, None).is_err());
        let model = InstructionRateModel::default();
        let report = execute(&app, &mut factory, &config, Some(&model)).unwrap();
        assert_eq!(report.configuration, "simulated");
    }

    #[test]
    fn execute_rejects_invalid_configs_up_front() {
        let app = echo();
        let mut factory = || vec![1u8];
        let mut config = BenchmarkConfig::new(1_000.0, 100);
        config.worker_threads = 0;
        let err = execute(&app, &mut factory, &config, None).unwrap_err();
        assert!(err.to_string().contains("worker_threads"), "{err}");
    }

    #[test]
    fn execute_cluster_rejects_a_cluster_without_shards_or_replicas() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let model = InstructionRateModel::default();
        let config = BenchmarkConfig::new(1_000.0, 100).with_mode(HarnessMode::Simulated);
        let one = ClusterConfig::new(1, FanoutPolicy::Broadcast);
        for cluster in [
            ClusterConfig {
                shards: 0,
                ..one.clone()
            },
            ClusterConfig {
                replication: 0,
                ..one
            },
        ] {
            let mut factory = || vec![1u8];
            let err =
                execute_cluster(&[], &mut factory, &config, &cluster, Some(&model)).unwrap_err();
            assert!(matches!(err, HarnessError::Config(_)), "{err}");
        }
    }

    #[test]
    fn run_cluster_dispatches_every_mode() {
        use crate::config::{ClusterConfig, FanoutPolicy};
        let apps: Vec<Arc<dyn ServerApp>> = (0..2)
            .map(|_| Arc::new(EchoApp::with_service_us(5)) as Arc<dyn ServerApp>)
            .collect();
        let cluster = ClusterConfig::new(2, FanoutPolicy::Broadcast);
        let model = InstructionRateModel::default();
        for (mode, expect_prefix) in [
            (HarnessMode::Integrated, "integrated"),
            (HarnessMode::Loopback { connections: 1 }, "loopback"),
            (HarnessMode::Simulated, "simulated"),
        ] {
            let mut factory = || vec![3u8];
            let config = BenchmarkConfig::new(500.0, 100)
                .with_warmup(10)
                .with_mode(mode);
            let report =
                execute_cluster(&apps, &mut factory, &config, &cluster, Some(&model)).unwrap();
            assert!(
                report.cluster.configuration.starts_with(expect_prefix),
                "configuration {} should start with {expect_prefix}",
                report.cluster.configuration
            );
            assert!(report
                .cluster
                .configuration
                .contains("cluster2x1-broadcast"));
            assert!(report.cluster.requests > 0);
        }
        // Simulated mode without a cost model is a configuration error.
        let mut factory = || vec![3u8];
        let config = BenchmarkConfig::new(500.0, 50).with_mode(HarnessMode::Simulated);
        assert!(execute_cluster(&apps, &mut factory, &config, &cluster, None).is_err());
    }

    #[test]
    fn a_single_server_is_a_one_by_one_cluster() {
        use crate::config::{ClusterConfig, FanoutPolicy, HedgePolicy};
        use crate::interference::InterferencePlan;
        use crate::queue::AdmissionPolicy;
        let model = InstructionRateModel {
            ns_per_instruction: 1.0,
        };
        let echo = || Arc::new(EchoApp { spin_iters: 90_000 }) as Arc<dyn ServerApp>;
        // Overloaded into a shedding queue, so drops and a depth timeline are compared.
        let config = BenchmarkConfig::new(12_000.0, 3_000)
            .with_warmup(100)
            .with_seed(27)
            .with_mode(HarnessMode::Simulated)
            .with_admission(AdmissionPolicy::Drop { capacity: 8 });
        let mut factory = || b"one".to_vec();
        let single = execute(&echo(), &mut factory, &config, Some(&model)).unwrap();
        let mut factory = || b"one".to_vec();
        let one_by_one = ClusterConfig::new(1, FanoutPolicy::Broadcast);
        let cluster =
            execute_cluster(&[echo()], &mut factory, &config, &one_by_one, Some(&model)).unwrap();
        let end_to_end = &cluster.cluster;
        assert_eq!(single.configuration, "simulated");
        assert_eq!(single.requests, end_to_end.requests);
        assert_eq!(single.duration_ns, end_to_end.duration_ns);
        assert_eq!(single.sojourn, end_to_end.sojourn);
        assert_eq!(single.service, end_to_end.service);
        assert_eq!(single.queue, end_to_end.queue);
        assert_eq!(single.overhead, end_to_end.overhead);
        assert!(single.queue_depth.dropped > 0, "overload must shed");
        assert!(!single.queue_depth.depth_timeline.is_empty());
        assert_eq!(single.queue_depth, end_to_end.queue_depth);

        // One shard of two replicas, one slowed: hedged or tied, each leg's first
        // response is the request's, so the shard's view is the end-to-end view.
        let slow = config
            .with_admission(AdmissionPolicy::unbounded())
            .with_interference(InterferencePlan::none().slow_instance(1, 0, u64::MAX, 5.0));
        let replicated = one_by_one.with_replication(2);
        for mitigated in [
            replicated
                .clone()
                .with_hedge(HedgePolicy::after_ns(150_000)),
            replicated.with_tied(true),
        ] {
            let mut factory = || b"two".to_vec();
            let report = execute_cluster(
                &[echo(), echo()],
                &mut factory,
                &slow,
                &mitigated,
                Some(&model),
            )
            .unwrap();
            let shard = &report.per_shard[0];
            let end_to_end = &report.cluster;
            assert!(report.hedge.is_some_and(|h| h.issued > 0 && h.wins > 0));
            assert_eq!(shard.requests, end_to_end.requests);
            assert_eq!(shard.sojourn, end_to_end.sojourn);
            assert_eq!(shard.service, end_to_end.service);
            assert_eq!(shard.queue, end_to_end.queue);
            assert_eq!(report.shard_union_sojourn, end_to_end.sojourn);
        }
    }

    #[test]
    fn capacity_measurement_is_positive_and_scales_down_with_work() {
        let light = Arc::new(EchoApp::with_service_us(1)) as Arc<dyn ServerApp>;
        let heavy = Arc::new(EchoApp::with_service_us(100)) as Arc<dyn ServerApp>;
        let mut factory = || vec![0u8];
        let light_cap = measure_capacity(&light, &mut factory, 1, 2_000);
        let mut factory = || vec![0u8];
        let heavy_cap = measure_capacity(&heavy, &mut factory, 1, 200);
        assert!(light_cap > 0.0 && heavy_cap > 0.0);
        assert!(
            light_cap > heavy_cap,
            "light {light_cap} should exceed heavy {heavy_cap}"
        );
    }
}
