//! Multi-query execution: one low-level node feeding several
//! high-level queries — how the paper's accuracy experiment runs "two
//! query sets simultaneously" (§7.1: the exact aggregation and the
//! sampling query over the same feed), how a production Gigascope hosts
//! many queries on one tap, and the consumable half of a plan-rewrite
//! certificate (see `sso-rewrite`).
//!
//! A [`SharedQueryPlan`] is the general inline plan. Unshared, every
//! query is a group of its own with one consumer and every forwarded
//! tuple visits all of them. Rewritten by the optimizer, a *shared
//! prefilter* — the conjunction of pure predicate clauses every member
//! query implies — is evaluated once per tuple, and each *share group*
//! (queries whose normalized plans are identical) runs one operator
//! whose closed windows fan out to every consumer (§7.2 shared work).
//! The contract, enforced by golden and property tests against
//! unshared execution, is byte-identity of `(window, rows)` per
//! consumer: consumers keep their full residual predicates, so sharing
//! changes only *work*, never *output*.

use std::time::Duration;

use sso_core::{Expr, OpError, SamplingOperator, WindowOutput};
use sso_types::Packet;

use crate::engine::{run_inline, NodeStats};
use crate::nodes::LowLevelQuery;

/// One deduplicated operator serving one or more consumer queries.
pub struct SharedGroup {
    /// The representative operator all consumers share.
    pub op: SamplingOperator,
    /// Consumer query names; each receives a clone of every closed
    /// window.
    pub consumers: Vec<String>,
}

/// A multi-query plan: optional shared prefilter plus operator groups.
pub struct SharedQueryPlan {
    /// Pure tuple predicate hoisted out of every member query; a tuple
    /// failing it is dropped before any operator sees it, a tuple it
    /// cannot be evaluated on is passed through (the consumers keep
    /// their full WHERE and raise the error, or not, as they would
    /// unshared). Compiled from the base-stream schema (e.g. via
    /// `sso_query::compile_packet_predicate`).
    pub prefilter: Option<Expr>,
    /// The share groups, in plan order.
    pub groups: Vec<SharedGroup>,
}

impl SharedQueryPlan {
    /// The unshared plan: no prefilter, every query a group of its own.
    pub fn unshared(queries: impl IntoIterator<Item = (String, SamplingOperator)>) -> Self {
        let groups =
            queries.into_iter().map(|(name, op)| SharedGroup { op, consumers: vec![name] });
        SharedQueryPlan { prefilter: None, groups: groups.collect() }
    }

    /// Total number of consumer queries across all groups.
    pub fn consumers(&self) -> usize {
        self.groups.iter().map(|g| g.consumers.len()).sum()
    }
}

/// One high-level query's results from a multi-query run.
#[derive(Debug)]
pub struct QueryResult {
    /// The query's name (as given in the plan).
    pub name: String,
    /// Node accounting.
    pub stats: NodeStats,
    /// Every closed window, in order.
    pub windows: Vec<WindowOutput>,
}

/// The result of a multi-query run.
#[derive(Debug)]
pub struct FanoutReport {
    /// Low-level node accounting.
    pub low: NodeStats,
    /// Per-query results, in plan order.
    pub queries: Vec<QueryResult>,
    /// Stream span (last uts − first uts).
    pub stream_span: Duration,
}

impl FanoutReport {
    /// The named query's result.
    pub fn query(&self, name: &str) -> Option<&QueryResult> {
        self.queries.iter().find(|q| q.name == name)
    }
}

/// Run a multi-query plan over one packet stream: [`run_inline`], then
/// each group's windows fanned out to its consumers.
///
/// The returned [`FanoutReport`] has one [`QueryResult`] per consumer
/// (groups in plan order, consumers in group order), so a shared run
/// compares name-by-name against an unshared one. Per-consumer `stats`
/// are the group's: `tuples_in` counts tuples that *reached the shared
/// operator* — fewer than unshared when the prefilter drops rows —
/// which is exactly the work saving; window contents are identical.
pub fn run_fanout_shared(
    low: Box<dyn LowLevelQuery>,
    mut plan: SharedQueryPlan,
    packets: impl IntoIterator<Item = Packet>,
) -> Result<FanoutReport, OpError> {
    let mut group_windows: Vec<Vec<WindowOutput>> = vec![Vec::new(); plan.groups.len()];
    let run = run_inline(low, &mut plan, packets, |gi, w, _| group_windows[gi].push(w))?;
    let mut queries = Vec::with_capacity(plan.consumers());
    for ((group, stats), windows) in plan.groups.iter().zip(&run.groups).zip(&group_windows) {
        for name in &group.consumers {
            queries.push(QueryResult {
                name: name.clone(),
                stats: NodeStats { name: name.clone(), ..stats.clone() },
                windows: windows.clone(),
            });
        }
    }
    Ok(FanoutReport { low: run.low, queries, stream_span: run.stream_span })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::SelectionNode;
    use sso_core::libs::subset_sum::SubsetSumOpConfig;
    use sso_core::queries;
    use sso_netgen::research_feed;
    use sso_query::{base_stream_schema, compile, compile_packet_predicate, parse_query};

    fn op(text: &str) -> SamplingOperator {
        let schema = base_stream_schema("PKT").unwrap();
        compile(text, &schema, &sso_query::PlannerConfig::standard()).unwrap()
    }

    fn run_unshared(highs: Vec<(&str, SamplingOperator)>, packets: Vec<Packet>) -> FanoutReport {
        let plan = SharedQueryPlan::unshared(highs.into_iter().map(|(n, op)| (n.into(), op)));
        run_fanout_shared(Box::new(SelectionNode::pass_all()), plan, packets).unwrap()
    }

    /// The §7.1 methodology: the exact aggregation and the sampling
    /// query run simultaneously over the same feed; per window, the
    /// sampling estimate is compared to the exact sum.
    #[test]
    fn exact_and_sampled_queries_run_side_by_side() {
        let packets = research_feed(301).take_seconds(10);
        let cfg = SubsetSumOpConfig { target: 200, initial_z: 1.0, ..Default::default() };
        let sampled =
            SamplingOperator::new(queries::subset_sum_query(5, cfg, false).unwrap()).unwrap();
        let actual = SamplingOperator::new(queries::total_sum_query(5)).unwrap();
        let n = packets.len() as u64;
        let report = run_unshared(vec![("actual", actual), ("sampled", sampled)], packets);
        assert_eq!(report.low.tuples_in, n);
        let actual = report.query("actual").unwrap();
        let sampled = report.query("sampled").unwrap();
        assert_eq!(actual.stats.tuples_in, n, "every query sees every tuple");
        assert_eq!(actual.windows.len(), sampled.windows.len());
        for (wa, ws) in actual.windows.iter().zip(&sampled.windows) {
            let exact = wa.rows[0].get(1).as_f64().unwrap();
            let est: f64 = ws.rows.iter().map(|r| r.get(3).as_f64().unwrap()).sum();
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.25, "window {}: est {est:.0} vs {exact:.0}", wa.window);
        }
    }

    #[test]
    fn fanout_queries_are_independent() {
        // The same query twice must produce identical outputs: queries
        // must not share or perturb each other's state.
        let packets = research_feed(302).take_seconds(5);
        let total = || SamplingOperator::new(queries::total_sum_query(2)).unwrap();
        let report = run_unshared(vec![("a", total()), ("b", total())], packets);
        let a = report.query("a").unwrap();
        let b = report.query("b").unwrap();
        assert_eq!(a.windows.len(), b.windows.len());
        for (wa, wb) in a.windows.iter().zip(&b.windows) {
            assert_eq!(wa.rows, wb.rows);
        }
    }

    #[test]
    fn query_lookup_by_name() {
        let packets = research_feed(303).take_seconds(1);
        let only = SamplingOperator::new(queries::total_sum_query(1)).unwrap();
        let report = run_unshared(vec![("only", only)], packets);
        assert!(report.query("only").is_some());
        assert!(report.query("missing").is_none());
    }

    /// A dedup group's consumers see byte-identical windows to running
    /// the same query unshared, and a shared prefilter implied by every
    /// consumer's WHERE changes no output rows.
    #[test]
    fn shared_execution_is_byte_identical_to_unshared() {
        let text = "SELECT tb, sum(len) FROM PKT WHERE len >= 100 GROUP BY time/2 as tb";
        let packets = research_feed(401).take_seconds(6);

        let unshared = run_unshared(vec![("a", op(text)), ("b", op(text))], packets.clone());

        let schema = base_stream_schema("PKT").unwrap();
        let pred = parse_query(text).unwrap().where_clause.unwrap();
        let prefilter = compile_packet_predicate(&pred, &schema).unwrap();
        let shared = run_fanout_shared(
            Box::new(SelectionNode::pass_all()),
            SharedQueryPlan {
                prefilter: Some(prefilter),
                groups: vec![SharedGroup { op: op(text), consumers: vec!["a".into(), "b".into()] }],
            },
            packets,
        )
        .unwrap();

        assert_eq!(shared.queries.len(), 2);
        for name in ["a", "b"] {
            let u = unshared.query(name).unwrap();
            let s = shared.query(name).unwrap();
            assert_eq!(u.windows.len(), s.windows.len(), "{name}: window count");
            for (wu, ws) in u.windows.iter().zip(&s.windows) {
                assert_eq!(wu.window, ws.window, "{name}: window key");
                assert_eq!(wu.rows, ws.rows, "{name}: rows");
            }
        }
        // The saving is visible in the accounting: one operator ran.
        assert!(
            shared.query("a").unwrap().stats.tuples_in
                <= unshared.query("a").unwrap().stats.tuples_in
        );
    }

    /// The prefilter really drops tuples ahead of the operators.
    #[test]
    fn prefilter_reduces_operator_work() {
        let packets = research_feed(402).take_seconds(4);
        let schema = base_stream_schema("PKT").unwrap();
        let pred = parse_query("SELECT tb FROM PKT WHERE len >= 100000 GROUP BY time/2 as tb")
            .unwrap()
            .where_clause
            .unwrap();
        let prefilter = compile_packet_predicate(&pred, &schema).unwrap();
        let report = run_fanout_shared(
            Box::new(SelectionNode::pass_all()),
            SharedQueryPlan {
                prefilter: Some(prefilter),
                groups: vec![SharedGroup {
                    op: op("SELECT tb, count(*) FROM PKT GROUP BY time/2 as tb"),
                    consumers: vec!["q".into()],
                }],
            },
            packets,
        )
        .unwrap();
        // No packet is 100kB; every tuple is dropped at the prefilter.
        assert_eq!(report.query("q").unwrap().stats.tuples_in, 0);
        assert!(report.low.tuples_out > 0);
    }
}
