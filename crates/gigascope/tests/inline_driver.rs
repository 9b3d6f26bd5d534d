//! The edges of the one inline driver that its predecessors each
//! handled differently: a low node's `finish()` tail, a prefilter that
//! cannot be evaluated, operator errors and their order, per-group
//! timing, and the order in which the sink sees windows; and when it
//! hands the operators packets instead of rows.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{
    queries, AggSpec, Expr, OpError, SamplingOperator, SfunLibrary, Signature, WindowOutput,
    WindowStats,
};
use sso_gigascope::{
    run_fanout_shared, run_inline, run_plan, LowLevelQuery, NodeStats, PartialAggNode, RunReport,
    SelectionNode, SharedQueryPlan, TwoLevelPlan,
};
use sso_netgen::{datacenter_feed, research_feed};
use sso_types::{Packet, Tuple, Value, ValueKind};

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

/// `node` without its pass test: `run_inline` hands the operators rows.
struct Rows<N>(N);

impl<N: LowLevelQuery> LowLevelQuery for Rows<N> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn process(&mut self, pkt: &Packet) -> Option<Tuple> {
        self.0.process(pkt)
    }

    fn process_into(&mut self, pkt: &Packet, out: &mut Tuple) -> bool {
        self.0.process_into(pkt, out)
    }
}

/// A pass-all node that counts the packets it is asked about as rows
/// (`process_into`) and through its pass test.
struct Probe {
    rows: Arc<AtomicUsize>,
    pass: Box<dyn FnMut(&Packet) -> bool + Send>,
}

impl Probe {
    /// The node, and its (rows, pass test) counters.
    fn new() -> (Box<Probe>, [Arc<AtomicUsize>; 2]) {
        let (rows, tested) = (Arc::default(), Arc::new(AtomicUsize::new(0)));
        let counted = Arc::clone(&tested);
        let pass = Box::new(move |_: &Packet| {
            counted.fetch_add(1, Ordering::Relaxed);
            true
        });
        (Box::new(Probe { rows: Arc::clone(&rows), pass }), [rows, tested])
    }
}

impl LowLevelQuery for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn process(&mut self, pkt: &Packet) -> Option<Tuple> {
        self.rows.fetch_add(1, Ordering::Relaxed);
        Some(pkt.to_tuple())
    }

    fn pass_test(&mut self) -> Option<&mut dyn FnMut(&Packet) -> bool> {
        Some(&mut *self.pass)
    }
}

/// The dynamic subset-sum query (a run path) with 1 s windows.
fn subset_sum() -> SamplingOperator {
    let cfg = SubsetSumOpConfig { target: 100, initial_z: 1.0, ..Default::default() };
    SamplingOperator::new(queries::subset_sum_query(1, cfg, false).unwrap()).unwrap()
}

/// What a window says, for comparing runs.
fn facts(w: &WindowOutput) -> (Tuple, Vec<Tuple>, WindowStats) {
    (w.window.clone(), w.rows.clone(), w.stats.clone())
}

#[test]
fn packet_batches_keep_the_row_paths_windows_and_counters() {
    let pkts = datacenter_feed(14).take_seconds(3);
    let selection = || SelectionNode::with_predicate(|p| p.len >= 200);
    let packets = run_plan(TwoLevelPlan::new(Box::new(selection()), subset_sum()), pkts.clone());
    let rows = run_plan(TwoLevelPlan::new(Box::new(Rows(selection())), subset_sum()), pkts);
    let (packets, rows) = (packets.unwrap(), rows.unwrap());
    assert!(packets.low.tuples_out < packets.low.tuples_in, "the predicate must bite");
    let counters = |r: &RunReport| {
        let (low, high) = (&r.low, &r.high);
        [low.tuples_in, low.tuples_out, high.tuples_in, high.tuples_out]
    };
    assert_eq!(counters(&packets), counters(&rows));
    assert_eq!(packets.stream_span, rows.stream_span);
    assert_eq!(packets.windows.len(), 3);
    let facts = |r: &RunReport| r.windows.iter().map(facts).collect::<Vec<_>>();
    assert_eq!(facts(&packets), facts(&rows));
}

/// `keep(len)` admits `len >= 1000`, decided a run at a time; `boom()`,
/// an aggregate argument, fails on the hundredth admitted tuple of a
/// window.
fn failing_on_admission() -> SamplingOperator {
    let lib = SfunLibrary::new("flaky", |_| Box::new(0u64))
        .register_run("keep", Signature::exact(1, ValueKind::Bool), |_: &mut u64, len: u64, _| {
            Ok(len >= 1000)
        })
        .register("boom", Signature::exact(0, ValueKind::UInt), |state, _| {
            let n = state.downcast_mut::<u64>().expect("u64 state");
            *n += 1;
            match *n {
                100 => Err("deliberate failure".to_string()),
                n => Ok(Value::U64(n)),
            }
        });
    let lib = Arc::new(lib);
    let len = Expr::Column(Packet::schema().index_of("len").unwrap());
    let mut spec = queries::total_sum_query(1);
    spec.where_clause = Some(queries::sfun_expr(0, &lib, "keep", vec![len]).unwrap());
    spec.aggregates.push(AggSpec::Sum(queries::sfun_expr(0, &lib, "boom", vec![]).unwrap()));
    spec.sfun_libs = vec![lib];
    SamplingOperator::new(spec).unwrap()
}

#[test]
fn an_sfun_error_on_an_admitted_packet_ends_the_run_unchanged() {
    let pkts = datacenter_feed(15).take_seconds(2);
    assert!(failing_on_admission().has_run_path());
    let run = |low: Box<dyn LowLevelQuery>| {
        let (mut plan, mut seen) = (plan(None, vec![failing_on_admission()]), Vec::new());
        let outcome = run_inline(low, &mut plan, pkts.clone(), |_, w, _| seen.push(facts(&w)));
        (outcome.map(|_| ()), seen)
    };
    let (packets, rows) = (run(pass_all()), run(Box::new(Rows(SelectionNode::pass_all()))));
    let failure = OpError::BadSfunCall {
        function: "boom".to_string(),
        reason: "deliberate failure".to_string(),
    };
    assert_eq!(packets.0, Err(failure));
    assert_eq!(packets, rows);
}

#[test]
fn a_prefilter_or_an_operator_without_a_run_path_keeps_the_row_path() {
    let pkts = research_feed(16).take_seconds(1);
    let n = pkts.len();
    let reached = |prefilter: Option<Expr>, op: SamplingOperator| {
        let (low, [rows, tested]) = Probe::new();
        run_inline(low, &mut plan(prefilter, vec![op]), pkts.clone(), |_, _, _| {}).unwrap();
        [rows.load(Ordering::Relaxed), tested.load(Ordering::Relaxed)]
    };
    assert_eq!(reached(None, subset_sum()), [0, n], "a run path over packets");
    let prefilter = Expr::Column(Packet::schema().index_of("len").unwrap()).ge(Expr::lit(1u64));
    assert_eq!(reached(Some(prefilter), subset_sum()), [n, 0], "a shared prefilter");
    let hh = SamplingOperator::new(queries::heavy_hitters_query(1, 100, Some(50)).unwrap());
    assert_eq!(reached(None, hh.unwrap()), [n, 0], "no run path");
}
