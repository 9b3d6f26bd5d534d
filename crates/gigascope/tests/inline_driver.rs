//! The edges of the one inline driver that its predecessors each
//! handled differently: a low node's `finish()` tail, a prefilter that
//! cannot be evaluated, operator errors and their order, per-group
//! timing, and the order in which the sink sees windows.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sso_core::{queries, Expr, OpError, SamplingOperator};
use sso_gigascope::{
    run_fanout_shared, run_inline, run_plan, NodeStats, PartialAggNode, SelectionNode,
    SharedQueryPlan, TwoLevelPlan,
};
use sso_netgen::{datacenter_feed, research_feed};
use sso_types::{Packet, Value};

fn total_sum(window_secs: u64) -> SamplingOperator {
    SamplingOperator::new(queries::total_sum_query(window_secs)).unwrap()
}

/// A scalar call that runs `fun` — the hook for injecting failures.
fn fault(fun: impl Fn() -> Result<Value, String> + Send + Sync + 'static) -> Expr {
    Expr::Scalar { name: "FAULT", fun: Arc::new(move |_: &[Value]| fun()), args: vec![] }
}

/// A total-sum operator whose WHERE clause is `where_clause`.
fn faulty_operator(where_clause: Expr) -> SamplingOperator {
    let mut spec = queries::total_sum_query(1);
    spec.where_clause = Some(where_clause);
    SamplingOperator::new(spec).unwrap()
}

/// One group per operator, named `q0`, `q1`, …
fn plan(prefilter: Option<Expr>, ops: Vec<SamplingOperator>) -> SharedQueryPlan {
    let named = ops.into_iter().enumerate().map(|(i, op)| (format!("q{i}"), op));
    SharedQueryPlan { prefilter, ..SharedQueryPlan::unshared(named) }
}

fn pass_all() -> Box<SelectionNode> {
    Box::new(SelectionNode::pass_all())
}

#[test]
fn operator_errors_surface_unchanged() {
    let pkts = research_feed(8).take_seconds(1);
    let high = faulty_operator(fault(|| Err("deliberate failure".to_string())));
    match run_plan(TwoLevelPlan::new(pass_all(), high), pkts) {
        Err(OpError::BadScalarCall { function, reason }) => {
            assert_eq!(function, "FAULT");
            assert_eq!(reason, "deliberate failure");
        }
        other => panic!("expected BadScalarCall, got {other:?}"),
    }
}

/// Group 1 fails on the batch's first tuple, group 0 only on its
/// hundredth: the batch runs group 0 first, so group 0's error is the
/// one returned.
#[test]
fn first_failing_group_in_plan_order_wins_within_a_batch() {
    let pkts = research_feed(9).take_seconds(1);
    assert!(pkts.len() > 100);
    let calls = AtomicUsize::new(0);
    let late = fault(move || match calls.fetch_add(1, Ordering::Relaxed) {
        99 => Err("group 0".to_string()),
        _ => Ok(Value::Bool(true)),
    });
    let early = fault(|| Err("group 1".to_string()));
    let plan = plan(None, vec![faulty_operator(late), faulty_operator(early)]);
    match run_fanout_shared(pass_all(), plan, pkts) {
        Err(OpError::BadScalarCall { reason, .. }) => assert_eq!(reason, "group 0"),
        other => panic!("expected BadScalarCall, got {other:?}"),
    }
}

#[test]
fn erroring_prefilter_fails_open() {
    let pkts = research_feed(10).take_seconds(1);
    let n = pkts.len() as u64;
    let plan = plan(Some(fault(|| Err("prefilter".to_string()))), vec![total_sum(1)]);
    let report = run_fanout_shared(pass_all(), plan, pkts).unwrap();
    assert_eq!(report.queries[0].stats.tuples_in, n, "every tuple delivered");
}

/// One second of packets through a partial-aggregation table that never
/// fills: everything the node forwards is its `finish()` tail. The tail
/// passes through the prefilter — each group sees what an operator with
/// the prefilter as its WHERE sees — and reaches every group.
#[test]
fn finish_tail_passes_the_prefilter_and_reaches_every_group() {
    let pkts: Vec<Packet> =
        datacenter_feed(11).take_seconds(2).into_iter().filter(|p| p.time() == 0).collect();
    let schema = PartialAggNode::schema();
    let sum = |filter: &str| {
        let text =
            format!("SELECT tb, sum(len), sum(cnt) FROM PKTAGG {filter} GROUP BY time/1 as tb");
        sso_query::compile(&text, &schema, &sso_query::PlannerConfig::empty()).unwrap()
    };
    let run = |plan| {
        run_fanout_shared(Box::new(PartialAggNode::new(1 << 20)), plan, pkts.clone()).unwrap()
    };
    let prefilter = Expr::Column(schema.index_of("cnt").unwrap()).ge(Expr::lit(2u64));
    let filtered = run(plan(Some(prefilter), vec![sum(""), sum("")]));
    let reference = run(plan(None, vec![sum("WHERE cnt >= 2"), sum("")]));
    let [want, all] = &reference.queries[..] else { panic!("two queries") };
    assert_ne!(want.windows[0].rows, all.windows[0].rows, "the filter must bite");
    assert_eq!(all.stats.tuples_in, filtered.low.tuples_out);
    for q in &filtered.queries {
        assert!(0 < q.stats.tuples_in && q.stats.tuples_in < filtered.low.tuples_out);
        assert_eq!(q.windows.len(), 1, "{}", q.name);
        assert_eq!(q.windows[0].rows, want.windows[0].rows, "{}", q.name);
    }
}

#[test]
fn every_group_is_timed_and_cpu_shares_add_up() {
    let pkts = datacenter_feed(12).take_seconds(1);
    let plan = plan(None, vec![total_sum(1), total_sum(1), total_sum(1)]);
    let report = run_fanout_shared(pass_all(), plan, pkts).unwrap();
    let span = report.stream_span;
    let mut busy = report.low.busy;
    let mut pct = report.low.cpu_pct(span);
    for q in &report.queries {
        assert!(q.stats.busy > Duration::ZERO, "{} untimed", q.name);
        busy += q.stats.busy;
        pct += q.stats.cpu_pct(span);
    }
    // The shares add up the way `RunReport::total_cpu_pct` adds them.
    let whole = NodeStats { busy, ..Default::default() };
    assert!((pct - whole.cpu_pct(span)).abs() < 1e-9);
}

#[test]
fn sink_sees_each_groups_windows_in_window_order() {
    let pkts = research_feed(13).take_seconds(4);
    let mut plan = plan(None, vec![total_sum(1), total_sum(2)]);
    let mut seen: Vec<Vec<(u64, bool)>> = vec![Vec::new(); 2];
    run_inline(pass_all(), &mut plan, pkts, |gi, w, at_end| {
        seen[gi].push((w.window.get(0).as_u64().unwrap(), at_end))
    })
    .unwrap();
    assert_eq!([seen[0].len(), seen[1].len()], [4, 2]);
    for windows in &seen {
        assert!(windows.windows(2).all(|w| w[0].0 < w[1].0));
        let flushed: Vec<bool> = windows.iter().map(|w| w.1).collect();
        assert_eq!(flushed.iter().filter(|&&f| f).count(), 1);
        assert!(flushed[flushed.len() - 1], "only the last window is the flush");
    }
}
