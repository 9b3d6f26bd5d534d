//! The sharded plan against the inline one: for each way the router can
//! pick a shard (plain key columns, round-robin, a general key
//! expression), `run_plan_sharded` at 1, 2 and 8 shards must return the
//! windows, rows and tuple counts of the inline `run_plan` over the same
//! packets, behind a low node that forwards packets unchanged and behind
//! one that rewrites them.

use std::cmp::Ordering;

use stream_sampler::gigascope::LowLevelQuery;
use stream_sampler::operator::OpError;
use stream_sampler::prelude::*;

const SECONDS: u64 = 4;
const FEED_SEED: u64 = 0x51;

fn packets() -> Vec<Packet> {
    research_feed(FEED_SEED).take_seconds(SECONDS)
}

/// The operator spec the planner makes of a query over `PKT`.
fn planned(text: &str) -> Result<OperatorSpec, OpError> {
    let schema = stream_sampler::query::base_stream_schema("PKT").unwrap();
    let config = stream_sampler::query::PlannerConfig::standard();
    let q = stream_sampler::query::parse_query(text).unwrap();
    stream_sampler::query::plan(&q, &schema, &config).map_err(|e| match e {
        stream_sampler::query::QueryError::Plan(op) => op,
        other => panic!("unexpected: {other}"),
    })
}

fn tuple_cmp(a: &Tuple, b: &Tuple) -> Ordering {
    for (x, y) in a.values().iter().zip(b.values()) {
        match x.compare(y).unwrap_or(Ordering::Equal) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// A window as the two runs are compared: its key, its rows in the
/// merge's canonical order, and its tuple count.
fn canonical(windows: Vec<WindowOutput>) -> Vec<(Tuple, Vec<Tuple>, u64)> {
    windows
        .into_iter()
        .map(|mut w| {
            w.rows.sort_by(tuple_cmp);
            (w.window, w.rows, w.stats.tuples)
        })
        .collect()
}

type MakeLow = fn() -> Box<dyn LowLevelQuery>;

fn assert_sharded_is_inline(
    what: &str,
    make: impl Fn(usize) -> Result<OperatorSpec, OpError> + Sync,
    low: MakeLow,
) {
    let pkts = packets();
    let inline = run_plan(
        TwoLevelPlan::new(low(), SamplingOperator::new(make(0).unwrap()).unwrap()),
        pkts.clone(),
    )
    .expect("inline run");
    let forwarded = inline.low.tuples_out;
    let inline = canonical(inline.windows);
    assert!(inline.len() >= SECONDS as usize, "{what}: a window per second");
    for shards in [1, 2, 8] {
        let mut cfg = RuntimeConfig::new(shards);
        // Several chunks, so chunk-end flushes fall inside windows.
        cfg.batch_size = 64;
        let report = run_plan_sharded(low(), &make, &cfg, pkts.clone()).expect("sharded run");
        assert_eq!(report.tuples_processed(), forwarded, "{what} x{shards}: tuples delivered");
        assert!(!report.degraded(), "{what} x{shards}: a fault-free run is not degraded");
        assert!(
            canonical(report.windows) == inline,
            "{what} x{shards}: the sharded windows differ from the inline ones"
        );
    }
}

fn pass_all() -> Box<dyn LowLevelQuery> {
    Box::new(SelectionNode::pass_all())
}

fn prefilter() -> Box<dyn LowLevelQuery> {
    Box::new(PrefilterNode::new(400.0))
}

#[test]
fn keyed_on_columns_matches_inline() {
    let make = |_| queries::heavy_hitters_query(1, 1 << 20, None);
    let plan = shard_plan(&make(0).unwrap()).unwrap();
    assert!(
        plan.partition_exprs.iter().all(|e| matches!(e, stream_sampler::operator::Expr::Column(_))),
        "the router keys on plain columns"
    );
    assert_sharded_is_inline("heavy hitters, pass-all", make, pass_all);
    assert_sharded_is_inline("heavy hitters, prefilter", make, prefilter);
}

#[test]
fn round_robin_matches_inline() {
    let make = |_| Ok(queries::total_sum_query(1));
    assert!(shard_plan(&make(0).unwrap()).unwrap().partition_exprs.is_empty(), "no key");
    assert_sharded_is_inline("total sum, pass-all", make, pass_all);
    assert_sharded_is_inline("total sum, prefilter", make, prefilter);
}

#[test]
fn keyed_on_an_expression_matches_inline() {
    let make = |_| {
        planned("SELECT tb, b, count(*), sum(len) FROM PKT GROUP BY time/1 as tb, srcIP % 16 as b")
    };
    let plan = shard_plan(&make(0).unwrap()).unwrap();
    assert!(
        plan.partition_exprs
            .iter()
            .any(|e| !matches!(e, stream_sampler::operator::Expr::Column(_))),
        "the router evaluates a key expression"
    );
    assert_sharded_is_inline("srcIP % 16, pass-all", make, pass_all);
    assert_sharded_is_inline("srcIP % 16, prefilter", make, prefilter);
}
