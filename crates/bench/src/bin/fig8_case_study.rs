//! Regenerates Fig. 8 (the case study of §VII): for moses and silo, compares the
//! 95th-percentile latency predicted by an M/G/n queueing model (no threading overhead)
//! against a discrete-event simulation with an **idealized memory system**, with 1 and 4
//! threads.  The M/G/n model is the same simulator on one instance with n workers, each
//! request served for a measured single-threaded service time ([`EmpiricalService`]).
//! Each series is normalized to its own single-threaded low-load value and plotted
//! against load (fraction of the single-threaded capacity per thread), exactly as the
//! paper normalizes both axes.
//!
//! The expected shapes: for moses the idealized-memory simulation tracks the M/G/4 model
//! (its real-system degradation is memory contention, which idealizing removes); for silo
//! the idealized-memory simulation blows up well before the M/G/4 model does (its
//! degradation is synchronization, which an ideal memory system cannot fix).

use std::sync::Arc;
use tailbench_bench::{
    build_app, capacity_qps, measure_service_samples, print_table, AppId, Scale,
};
use tailbench_core::config::{BenchmarkConfig, HarnessMode};
use tailbench_core::{runner, EmpiricalService, ServerApp};
use tailbench_simarch::{MachineConfig, SystemModel};

fn main() {
    let scale = Scale::from_env();
    let requests = scale.requests(400, 4_000);
    let fractions = [0.2, 0.4, 0.6, 0.8];

    for id in [AppId::Moses, AppId::Silo] {
        let bench = build_app(id, scale);
        let ideal = SystemModel::idealized_memory(MachineConfig::default());

        // --- Queueing-model series (time base: measured wall-clock service times) -----
        let measured_capacity = capacity_qps(&bench, 1, requests.min(800));
        let service_samples = measure_service_samples(&bench, requests.min(800), 0xF168);
        let service = EmpiricalService::new(service_samples).expect("measured service samples");
        let model_app: Arc<dyn ServerApp> = Arc::new(service.clone());
        // 50k arrivals, the first 5k of them warmup.
        let model_p95 = |threads: usize, qps: f64, seed: u64| {
            let config = BenchmarkConfig::new(qps, 45_000)
                .with_mode(HarnessMode::Simulated)
                .with_threads(threads)
                .with_warmup(5_000)
                .with_seed(seed);
            let mut factory = service.factory(seed);
            runner::execute(
                &model_app,
                &mut factory,
                &config,
                Some(&EmpiricalService::COST_MODEL),
            )
            .expect("M/G/n model run")
            .sojourn
            .p95_ns as f64
        };
        let model_norm = model_p95(1, measured_capacity * fractions[0], 1);

        // --- Idealized-memory simulation series (time base: cost-model service times) --
        let sim_run = |threads: usize, per_thread_qps: f64| {
            let config = BenchmarkConfig::new(per_thread_qps * threads as f64, requests)
                .with_mode(HarnessMode::Simulated)
                .with_threads(threads)
                .with_warmup(requests / 10)
                .with_seed(0xF1_68 + threads as u64);
            let mut factory = bench.factory(0xF1_68);
            runner::execute(&bench.app, factory.as_mut(), &config, Some(&ideal))
                .expect("simulated run")
        };
        // Simulated single-thread capacity, from the cost-model mean service time.
        let probe = sim_run(1, measured_capacity * 0.1);
        let sim_capacity = 1e9 / probe.service.mean_ns.max(1.0);
        let sim_norm = sim_run(1, sim_capacity * fractions[0]).sojourn.p95_ns as f64;

        let mut rows = Vec::new();
        for threads in [1usize, 4] {
            for &fraction in &fractions {
                let model_p95 =
                    model_p95(threads, measured_capacity * fraction * threads as f64, 7);
                let sim_p95 = sim_run(threads, sim_capacity * fraction).sojourn.p95_ns as f64;
                rows.push(vec![
                    format!("{:.0}%", fraction * 100.0),
                    format!("{threads}"),
                    format!("{:.2}", model_p95 / model_norm),
                    format!("{:.2}", sim_p95 / sim_norm),
                ]);
            }
        }
        print_table(
            &format!(
                "Fig. 8 — {} (p95 normalized to the 1-thread 20%-load value of each series)",
                id.name()
            ),
            &[
                "load / thread",
                "threads",
                "M/G/n model (norm. p95)",
                "idealized-memory simulation (norm. p95)",
            ],
            &rows,
        );
        eprintln!("fig8: finished {}", id.name());
    }
}
