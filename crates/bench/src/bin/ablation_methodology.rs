//! Methodology ablations (§II-B and §IV-C of the paper, argued there via Treadmill):
//!
//! 1. **Coordinated omission** — a closed-loop load generator at the same average
//!    throughput dramatically underestimates tail latency compared with the open-loop
//!    traffic shaper, because it stops issuing requests whenever the server is slow.
//! 2. **HDR-histogram precision** — the histogram used for long runs reports percentiles
//!    within its configured relative-error bound of the exact values.

use rand::Rng;
use tailbench_bench::{build_app, format_latency, print_table, AppId, Scale};
use tailbench_core::config::BenchmarkConfig;
use tailbench_core::runner;
use tailbench_core::traffic::LoadMode;
use tailbench_experiment::capacity::PROBE_SEED;
use tailbench_histogram::HdrHistogram;
use tailbench_workloads::rng::seeded_rng;

fn main() {
    coordinated_omission();
    histogram_precision();
}

fn coordinated_omission() {
    let scale = Scale::from_env();
    let requests = scale.requests(400, 3_000);
    let bench = build_app(AppId::Xapian, scale);
    let capacity = runner::measure_capacity(&bench.app, bench.factory(PROBE_SEED).as_mut(), 1, 300);
    let qps = capacity * 0.8;

    // Open loop at 80% of capacity.
    let mut factory = bench.factory(1);
    let open = runner::execute(
        &bench.app,
        factory.as_mut(),
        &BenchmarkConfig::new(qps, requests).with_warmup(requests / 10),
        None,
    )
    .expect("open-loop run");

    // Closed loop with a think time chosen to target the same average rate.
    let think_ns = (1e9 / qps) as u64;
    let mut factory = bench.factory(1);
    let closed = runner::execute(
        &bench.app,
        factory.as_mut(),
        &BenchmarkConfig::new(qps, requests)
            .with_warmup(requests / 10)
            .with_load(LoadMode::Closed { think_ns }),
        None,
    )
    .expect("closed-loop run");

    let underestimate = open.sojourn.p95_ns as f64 / closed.sojourn.p95_ns.max(1) as f64;
    print_table(
        "Ablation — coordinated omission (xapian at ~80% load)",
        &["load generator", "achieved QPS", "p95", "p99"],
        &[
            vec![
                "open loop (TailBench)".into(),
                format!("{:.0}", open.achieved_qps),
                format_latency(open.sojourn.p95_ns as f64),
                format_latency(open.sojourn.p99_ns as f64),
            ],
            vec![
                "closed loop (conventional)".into(),
                format!("{:.0}", closed.achieved_qps),
                format_latency(closed.sojourn.p95_ns as f64),
                format_latency(closed.sojourn.p99_ns as f64),
            ],
        ],
    );
    println!("\nclosed-loop testing underestimates p95 by a factor of {underestimate:.1}x here");
}

fn histogram_precision() {
    let mut rng = seeded_rng(0x48, 0);
    let mut exact: Vec<u64> = Vec::new();
    let mut histogram = HdrHistogram::for_latencies();
    for _ in 0..200_000 {
        // Log-uniform latencies from 1 us to 10 s.
        let exponent: f64 = rng.gen_range(3.0..10.0);
        let v = 10f64.powf(exponent) as u64;
        exact.push(v);
        histogram.record(v);
    }
    exact.sort_unstable();
    let mut rows = Vec::new();
    for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let exact_value = exact[rank - 1];
        let approx = histogram.value_at_quantile(q);
        let err = (approx as f64 - exact_value as f64).abs() / exact_value as f64;
        rows.push(vec![
            format!("p{:.1}", q * 100.0),
            exact_value.to_string(),
            approx.to_string(),
            format!("{:.3}%", err * 100.0),
        ]);
    }
    print_table(
        "Ablation — HDR histogram precision (log-uniform latencies, 1 µs – 10 s)",
        &["quantile", "exact (ns)", "histogram (ns)", "relative error"],
        &rows,
    );
    println!(
        "\nhistogram slots: {} (logarithmic in the tracked range), configured max error {:.1}%",
        histogram.bucket_slots(),
        histogram.max_relative_error() * 100.0
    );
}
