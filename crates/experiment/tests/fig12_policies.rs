//! Fig. 12 golden: the tail-mitigation policy suite under the DES.
//!
//! Three guarantees, all on the smoke-scale preset with its pinned seed:
//!
//! 1. **Controlled comparison** — every mitigation row replays the *identical*
//!    arrival trace (bitwise-equal offered rate), so the only difference between
//!    rows is the policy itself.  This is a regression test for the per-point seed
//!    derivation, which must NOT decorrelate mitigation rows.
//! 2. **Policy wins** — at least three policies improve the burst-plus-straggler
//!    broadcast p99 over the unmitigated baseline.
//! 3. **Golden pinning** — the exact per-policy p99s are pinned (the DES is exactly
//!    deterministic), and a second run reproduces the output byte for byte.

use tailbench_experiment::{presets, Experiment, Scale};

#[test]
fn fig12_policy_rows_share_one_trace_and_beat_the_baseline() {
    let spec = presets::preset("fig12", Scale::Smoke).expect("fig12 preset");
    spec.validate().expect("fig12 must validate");

    let output = Experiment::new(spec.clone()).run().expect("fig12 run");
    assert_eq!(output.points.len(), 6);

    let rows: Vec<(String, u64, f64)> = output
        .points
        .iter()
        .map(|p| {
            let cluster = p.report.representative();
            (
                p.coords.mitigation.clone().expect("mitigation label"),
                cluster.cluster.sojourn.p99_ns,
                cluster.cluster.offered_qps.expect("scenario offered rate"),
            )
        })
        .collect();

    // 1. Every row faces the identical offered trace.
    let offered = rows[0].2;
    for (label, _, row_offered) in &rows {
        assert!(
            row_offered.to_bits() == offered.to_bits(),
            "{label}: offered rate {row_offered} != baseline {offered} — mitigation \
             rows must share one arrival trace"
        );
    }

    // 2. The baseline leads, and ≥3 policies beat its p99.
    assert_eq!(rows[0].0, "none");
    let baseline_p99 = rows[0].1;
    let winners: Vec<&str> = rows[1..]
        .iter()
        .filter(|(_, p99, _)| *p99 < baseline_p99)
        .map(|(label, _, _)| label.as_str())
        .collect();
    assert!(
        winners.len() >= 3,
        "want >= 3 policies under the baseline p99 {baseline_p99}, got {winners:?}"
    );

    // 3. Exact golden values (smoke scale, seed 0x5EED).  Any change to DES event
    //    ordering, routing, admission or the preset itself shows up here.
    let golden: Vec<(String, u64)> = rows.iter().map(|(l, p, _)| (l.clone(), *p)).collect();
    assert_eq!(
        golden,
        [
            ("none", 703_485),
            ("hedge(p50)", 596_035),
            ("tied", 616_168),
            ("least-loaded", 419_618),
            ("p2c", 623_686),
            ("drop-deadline(64,500000ns)", 565_127),
        ]
        .map(|(l, p): (&str, u64)| (l.to_string(), p)),
        "pinned per-policy p99s diverged"
    );

    // Determinism: an independent second run is byte-identical.
    let again = Experiment::new(spec).run().expect("fig12 rerun");
    assert_eq!(again.to_json_string(), output.to_json_string());
}
