//! Golden tests for report *ordering* determinism.
//!
//! The report paths must never depend on hash-map iteration order: per-class rows
//! follow the tag table's declaration order, per-shard rows follow shard index, and
//! the serialized JSON for a fixed-seed simulated run is byte-identical across
//! repeats.  A `ClusterCollector` built from partials must also be independent of the
//! order the partials are merged in — receiver threads hand their partials back in a
//! nondeterministic order on real runs.
//!
//! These tests exist because the collectors and experiment caches were migrated from
//! `HashMap` to ordered containers; a regression back to unordered iteration in any
//! report-emitting path fails here (and in the `no-unordered-iteration-in-reports`
//! lint rule) instead of surfacing as flaky report diffs.

use std::sync::Arc;
use tailbench::core::app::{EchoApp, InstructionRateModel};
use tailbench::core::collector::{ClusterCollector, RequestTags};
use tailbench::core::config::{BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode};
use tailbench::core::request::{RequestId, RequestRecord};
use tailbench::core::sim::run_cluster_simulated;
use tailbench::core::{runner, ServerApp};
use tailbench::experiment::output::{cluster_report_to_json, run_report_to_json};

fn app() -> Arc<dyn ServerApp> {
    Arc::new(EchoApp { spin_iters: 100 })
}

fn model() -> InstructionRateModel {
    InstructionRateModel {
        ns_per_instruction: 1.0,
    }
}

/// Class names deliberately *not* in alphabetical order, so a sorted-by-name
/// regression is distinguishable from declaration order.
fn tagged_config() -> BenchmarkConfig {
    let total = 1_100usize;
    let classes: Vec<u16> = (0..total).map(|i| (i % 3) as u16).collect();
    let tags = Arc::new(RequestTags::new(
        vec!["zeta".into(), "alpha".into(), "mid".into()],
        vec!["steady".into()],
        classes,
        vec![0; total],
    ));
    BenchmarkConfig::new(5_000.0, 1_000)
        .with_warmup(100)
        .with_seed(0x601D)
        .with_tags(tags)
}

fn simulated(config: BenchmarkConfig) -> BenchmarkConfig {
    config.with_mode(HarnessMode::Simulated)
}

#[test]
fn per_class_rows_follow_tag_declaration_order() {
    let app = app();
    let mut factory = || b"x".to_vec();
    let report = runner::execute(
        &app,
        &mut factory,
        &simulated(tagged_config()),
        Some(&model()),
    )
    .expect("simulated run");
    let names: Vec<&str> = report.per_class.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["zeta", "alpha", "mid"],
        "per-class rows must follow tag declaration order, not name or hash order"
    );
    assert!(
        report.per_class.iter().all(|c| c.sojourn.count > 0),
        "every declared class saw traffic in this config"
    );
}

#[test]
fn tagged_report_json_is_byte_identical_across_repeats() {
    let app = app();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut factory = || b"x".to_vec();
        let report = runner::execute(
            &app,
            &mut factory,
            &simulated(tagged_config()),
            Some(&model()),
        )
        .expect("simulated run");
        runs.push(run_report_to_json(&report).to_text());
    }
    assert_eq!(
        runs[0], runs[1],
        "fixed-seed tagged report must serialize byte-identically across repeats"
    );
}

#[test]
fn per_shard_rows_follow_shard_index_and_serialize_identically() {
    let apps: Vec<Arc<dyn ServerApp>> = (0..3).map(|_| app()).collect();
    let config = BenchmarkConfig::new(5_000.0, 1_000)
        .with_warmup(100)
        .with_seed(0x601D);
    let cluster = ClusterConfig::new(3, FanoutPolicy::Broadcast);
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut factory = || b"x".to_vec();
        let report = run_cluster_simulated(&apps, &mut factory, &config, &cluster, &model())
            .expect("cluster run");
        assert_eq!(report.per_shard.len(), 3, "one row per shard, by index");
        // Broadcast fan-out: every shard serves every measured request.
        for (i, shard) in report.per_shard.iter().enumerate() {
            assert_eq!(
                shard.requests, report.cluster.requests,
                "shard {i} must report the full broadcast leg count"
            );
        }
        runs.push(cluster_report_to_json(&report).to_text());
    }
    assert_eq!(
        runs[0], runs[1],
        "fixed-seed cluster report must serialize byte-identically across repeats"
    );
}

/// A fan-out leg record for request `id` landing on `shard` at time `t`.
fn leg(id: u64, shard: u64, t: u64) -> RequestRecord {
    RequestRecord {
        id: RequestId(id),
        issued_ns: t,
        enqueued_ns: t + 10,
        started_ns: t + 20,
        completed_ns: t + 100 + shard, // distinct per-leg completion times
        client_received_ns: t + 110 + shard,
    }
}

#[test]
fn cluster_partial_merge_is_order_independent() {
    // Two receiver threads each saw one leg of every 2-way fan-out request; the
    // end-to-end record only materializes at merge time.  Merging a <- b must give
    // the same statistics as b <- a.
    let build = |legs: &[(u64, u64)]| {
        let mut c = ClusterCollector::new(2, 0);
        for &(id, shard) in legs {
            c.record_leg(shard as usize, leg(id, shard, id * 1_000), 2);
        }
        c
    };
    let a_legs: Vec<(u64, u64)> = (0..50).map(|id| (id, id % 2)).collect();
    let b_legs: Vec<(u64, u64)> = (0..50).map(|id| (id, (id + 1) % 2)).collect();

    let mut ab = build(&a_legs);
    ab.merge(build(&b_legs));
    let mut ba = build(&b_legs);
    ba.merge(build(&a_legs));

    for (label, merged) in [("a<-b", &ab), ("b<-a", &ba)] {
        assert_eq!(merged.unmerged(), 0, "{label}: all fan-outs complete");
        assert_eq!(merged.cluster_stats().measured(), 50, "{label}");
    }
    assert_eq!(
        ab.cluster_stats().sojourn_stats(),
        ba.cluster_stats().sojourn_stats(),
        "end-to-end distribution must not depend on merge order"
    );
    for shard in 0..2 {
        assert_eq!(
            ab.shard_stats()[shard].sojourn_stats(),
            ba.shard_stats()[shard].sojourn_stats(),
            "shard {shard} distribution must not depend on merge order"
        );
    }
    assert_eq!(
        ab.merged_shard_sojourn().value_at_quantile(0.99),
        ba.merged_shard_sojourn().value_at_quantile(0.99),
        "shard-union distribution must not depend on merge order"
    );
}
