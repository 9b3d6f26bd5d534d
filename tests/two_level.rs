//! The two-level architecture (§3, §7.2): prefiltering at the low-level
//! query must preserve estimates while slashing the tuple flow into the
//! high-level operator.

use stream_sampler::operator::libs::subset_sum::SubsetSumOpConfig;
use stream_sampler::prelude::*;

fn subset_sum_operator(target: usize, window_secs: u64, initial_z: f64) -> SamplingOperator {
    let cfg = SubsetSumOpConfig { target, initial_z, ..Default::default() };
    SamplingOperator::new(queries::subset_sum_query(window_secs, cfg, false).unwrap()).unwrap()
}

fn window_estimates(report: &stream_sampler::gigascope::RunReport) -> Vec<f64> {
    report.windows.iter().map(|w| w.rows.iter().map(|r| r.get(3).as_f64().unwrap()).sum()).collect()
}

#[test]
fn prefilter_plan_reduces_flow_but_preserves_estimates() {
    let seconds = 10;
    let window_secs = 5;
    let packets = datacenter_feed(201).take_seconds(seconds);
    let mut truth = vec![0u64; (seconds / window_secs) as usize];
    for p in &packets {
        truth[(p.time() / window_secs) as usize] += p.len as u64;
    }
    // Steady-state dynamic threshold for N = 1000 samples over this
    // feed: window volume / N.
    let z_dyn = truth[0] as f64 / 1000.0;

    // Plan A: pass-all selection feeding dynamic subset-sum.
    let plan_a = TwoLevelPlan::new(
        Box::new(SelectionNode::pass_all()),
        subset_sum_operator(1000, window_secs, 1.0),
    );
    let report_a = run_plan(plan_a, packets.clone()).unwrap();

    // Plan B: the §7.2 trick — basic subset-sum prefilter at z/10.
    let plan_b = TwoLevelPlan::new(
        Box::new(PrefilterNode::new(z_dyn / 10.0)),
        subset_sum_operator(1000, window_secs, z_dyn / 10.0),
    );
    let report_b = run_plan(plan_b, packets).unwrap();

    // The prefilter slashes the high-level input stream.
    assert!(
        report_b.high.tuples_in * 10 < report_a.high.tuples_in,
        "prefilter must cut the tuple flow: {} vs {}",
        report_b.high.tuples_in,
        report_a.high.tuples_in
    );

    // Both plans still estimate the window volumes.
    for (i, (ea, eb)) in
        window_estimates(&report_a).iter().zip(window_estimates(&report_b).iter()).enumerate()
    {
        let actual = truth[i] as f64;
        let rel_a = (ea - actual).abs() / actual;
        let rel_b = (eb - actual).abs() / actual;
        assert!(rel_a < 0.2, "plan A window {i}: rel {rel_a:.3}");
        assert!(rel_b < 0.25, "plan B (prefiltered) window {i}: rel {rel_b:.3}");
    }
}

#[test]
fn prefilter_output_is_itself_an_unbiased_weighted_sample() {
    // Without any high-level operator: the prefilter's forwarded tuples,
    // re-weighted by max(len, z), estimate the total volume (basic
    // subset-sum correctness through the node interface).
    let packets = datacenter_feed(202).take_seconds(2);
    let truth: u64 = packets.iter().map(|p| p.len as u64).sum();
    let z = truth as f64 / 2000.0;
    let mut node = PrefilterNode::new(z);
    let schema = Packet::schema();
    let len_idx = schema.index_of("len").unwrap();
    let mut estimate = 0.0;
    use stream_sampler::gigascope::LowLevelQuery;
    for p in &packets {
        if let Some(t) = node.process(p) {
            estimate += t.get(len_idx).as_f64().unwrap().max(z);
        }
    }
    let rel = (estimate - truth as f64).abs() / truth as f64;
    assert!(rel < 0.1, "prefilter estimate {estimate:.0} vs {truth} (rel {rel:.3})");
}

#[test]
fn low_level_selection_can_implement_protocol_filters() {
    // A classic Gigascope low-level query: forward only TCP packets.
    let packets = research_feed(204).take_seconds(3);
    let tcp_truth: u64 = packets
        .iter()
        .filter(|p| p.proto == stream_sampler::types::Protocol::Tcp)
        .map(|p| p.len as u64)
        .sum();
    let plan = TwoLevelPlan::new(
        Box::new(SelectionNode::with_predicate(|p| {
            p.proto == stream_sampler::types::Protocol::Tcp
        })),
        SamplingOperator::new(queries::total_sum_query(100)).unwrap(),
    );
    let report = run_plan(plan, packets).unwrap();
    let total: u64 =
        report.windows.iter().flat_map(|w| &w.rows).map(|r| r.get(1).as_u64().unwrap()).sum();
    assert_eq!(total, tcp_truth);
}
