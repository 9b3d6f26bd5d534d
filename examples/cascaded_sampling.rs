//! Cascaded sampling (§8: "cascading one type of stream sampling inside
//! a different type"): aggregate packets into flows, subset-sum-sample
//! the flows by byte volume, then run a report query over the sampled
//! flows — three operators in a [`Cascade`] over the packet feed.
//!
//! ```sh
//! cargo run --release --example cascaded_sampling
//! ```

use stream_sampler::gigascope::{Cascade, SelectionNode};
use stream_sampler::prelude::*;

fn main() {
    let packets = research_feed(83).take_seconds(60);
    println!("feed: {} packets over 60s", packets.len());

    // Stage 1: flow aggregation per 20s window (one group per flow).
    let flow_query = "
        SELECT tb, srcIP, destIP, sum(len), count(*)
        FROM PKT
        GROUP BY time/20 as tb, srcIP, destIP";
    let flows =
        compile(flow_query, &Packet::schema(), &PlannerConfig::empty()).expect("flow query");

    // Stage 2: subset-sum sample ~200 flows per window, weight = bytes.
    let flows_schema = flows.spec().output_schema("FLOWS");
    let sample_query = "
        SELECT tb2, srcIP, destIP, UMAX(sum(sum), ssthreshold()) as adj_len
        FROM FLOWS
        WHERE ssample(sum, 200) = TRUE
        GROUP BY tb/1 as tb2, srcIP, destIP
        HAVING ssfinal_clean(sum(sum), count_distinct$(*)) = TRUE
        CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
        CLEANING BY ssclean_with(sum(sum)) = TRUE";
    let parsed = parse_query(sample_query).expect("sample query parses");
    let sampled = SamplingOperator::new(
        stream_sampler::query::plan(&parsed, &flows_schema, &PlannerConfig::standard())
            .expect("sample query plans"),
    )
    .expect("sample operator");

    // Stage 3: per-window totals over the sampled flows.
    let sampled_schema = sampled.spec().output_schema("SAMPLED");
    let report_query = "SELECT tb3, count(*), sum(adj_len) FROM SAMPLED GROUP BY tb2/1 as tb3";
    let parsed = parse_query(report_query).expect("report parses");
    let report_op = SamplingOperator::new(
        stream_sampler::query::plan(&parsed, &sampled_schema, &PlannerConfig::empty())
            .expect("report plans"),
    )
    .expect("report operator");

    // Ground truth per window.
    let mut truth = std::collections::BTreeMap::<u64, u64>::new();
    for p in &packets {
        *truth.entry(p.time() / 20).or_default() += p.len as u64;
    }

    let n = packets.len();
    let cascade = Cascade::new(vec![flows, sampled, report_op]).expect("three stages");
    let windows = cascade.run(Box::new(SelectionNode::pass_all()), packets).expect("cascade runs");
    let flow_records: usize = windows[0].iter().map(|w| w.rows.len()).sum();
    println!("\nflows node saw {n} tuples; sampling node saw {flow_records} flow records");
    println!(
        "\n{:>7} {:>10} {:>16} {:>16} {:>7}",
        "window", "samples", "estimate", "actual", "err%"
    );
    for w in &windows[2] {
        // report rows: (tb3, count, sum of adjusted flow bytes)
        for row in &w.rows {
            let tb = row.get(0).as_u64().unwrap();
            let samples = row.get(1).as_u64().unwrap();
            let est = row.get(2).as_f64().unwrap();
            let actual = *truth.get(&tb).unwrap_or(&0) as f64;
            let err = if actual > 0.0 { 100.0 * (est - actual) / actual } else { 0.0 };
            println!("{tb:>7} {samples:>10} {est:>16.0} {actual:>16.0} {err:>6.2}%");
        }
    }
    println!(
        "\nthe report sees only ~200 sampled flows per window, yet its adjusted\n\
         totals track the full per-window byte volume."
    );
}
