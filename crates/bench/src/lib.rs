//! Presentation and profiling helpers shared by the table/figure binaries.
//!
//! The binaries in `src/bin/` regenerate the tables and figures that are not named
//! presets; the five preset figures (`fig3`, `fig6`, `fig9`, `fig11`, `fig12`) run with
//! `tailbench preset <name>`.  Application construction, capacity probing and load
//! sweeps live in `tailbench_experiment` (the registry + `Experiment::run()`), and the
//! binaries drive inline `ExperimentSpec`s.  This crate keeps what is genuinely
//! presentation- and profiling-specific — direct service-time sampling, work-profile
//! aggregation and table printing — and re-exports the registry names the binaries use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tailbench_experiment::{build_app, format_latency, AppId, BenchApp, Scale};

/// Times `n` direct invocations of the application's request handler and returns the
/// per-request service times in nanoseconds (no queuing, no harness — the raw
/// service-time distribution of Fig. 2).
#[must_use]
pub fn measure_service_samples(bench: &BenchApp, n: usize, seed: u64) -> Vec<u64> {
    let mut factory = bench.factory(seed);
    (0..n)
        .map(|_| {
            let payload = factory.next_request();
            let start = std::time::Instant::now();
            let _ = bench.app.handle(&payload);
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

/// Aggregates the work profiles reported by `n` requests (used for the MPKI columns of
/// Table I).
#[must_use]
pub fn aggregate_work_profile(
    bench: &BenchApp,
    n: usize,
    seed: u64,
) -> tailbench_core::WorkProfile {
    let mut factory = bench.factory(seed);
    let mut combined = tailbench_core::WorkProfile::default();
    for _ in 0..n {
        let payload = factory.next_request();
        combined = combined.combined(&bench.app.handle(&payload).work);
    }
    combined
}

/// Prints a markdown-style table (rendered by the shared
/// [`markdown_table`](tailbench_core::report::markdown_table) helper).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    print!("{}", tailbench_core::report::markdown_table(headers, rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_samples_and_work_profiles_come_from_the_registry_app() {
        let bench = build_app(AppId::Masstree, Scale::Quick);
        let samples = measure_service_samples(&bench, 20, 7);
        assert_eq!(samples.len(), 20);
        assert!(samples.iter().all(|&ns| ns > 0));
        let profile = aggregate_work_profile(&bench, 10, 7);
        assert!(profile.instructions > 0);
    }

    #[test]
    fn format_latency_picks_sensible_units() {
        assert_eq!(format_latency(500_000.0), "500 us");
        assert_eq!(format_latency(2_500_000.0), "2.50 ms");
        assert_eq!(format_latency(12e9), "12.00 s");
    }
}
