//! Shared multi-query execution: the consumable half of a
//! plan-rewrite certificate (see `sso-rewrite`).
//!
//! Where [`crate::fanout::run_fanout`] gives every high-level query its
//! own operator and every forwarded tuple visits all of them, a
//! [`SharedQueryPlan`] runs the §7.1 simultaneous query set the way the
//! optimizer rewrote it: a *shared prefilter* — the conjunction of pure
//! predicate clauses every member query implies — is evaluated once per
//! tuple, and each *share group* (queries whose normalized plans are
//! identical) runs one operator whose closed windows fan out to every
//! consumer (§7.2 shared work). The contract, enforced by golden and
//! property tests against unshared execution, is byte-identity of
//! `(window, rows)` per consumer: consumers keep their full residual
//! predicates, so sharing changes only *work*, never *output*.

use sso_core::{Expr, OpError, Predicate, SamplingOperator, WindowOutput};
use sso_types::Packet;

use crate::engine::NodeStats;
use crate::fanout::{FanoutReport, QueryResult};
use crate::nodes::LowLevelQuery;

/// One deduplicated operator serving one or more consumer queries.
pub struct SharedGroup {
    /// The representative operator all consumers share.
    pub op: SamplingOperator,
    /// Consumer query names; each receives a clone of every closed
    /// window.
    pub consumers: Vec<String>,
}

/// A rewritten multi-query plan: optional shared prefilter plus
/// deduplicated operator groups.
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
    /// Total number of consumer queries across all groups.
    pub fn consumers(&self) -> usize {
        self.groups.iter().map(|g| g.consumers.len()).sum()
    }
}

/// Run a shared multi-query plan over one packet stream.
///
/// The returned [`FanoutReport`] has one [`QueryResult`] per consumer
/// (groups in plan order, consumers in group order), so callers can
/// compare it name-by-name against an unshared [`crate::run_fanout`]
/// run. Per-consumer `stats.tuples_in` counts tuples that *reached the
/// shared operator* — fewer than unshared when the prefilter drops rows
/// — which is exactly the work saving; window contents are identical.
pub fn run_fanout_shared(
    mut low: Box<dyn LowLevelQuery>,
    mut plan: SharedQueryPlan,
    packets: impl IntoIterator<Item = Packet>,
) -> Result<FanoutReport, OpError> {
    let mut low_stats = NodeStats { name: low.name().to_string(), ..Default::default() };
    let mut group_windows: Vec<Vec<WindowOutput>> =
        plan.groups.iter().map(|_| Vec::new()).collect();
    let mut group_stats: Vec<NodeStats> = plan
        .groups
        .iter()
        .enumerate()
        .map(|(i, _)| NodeStats { name: format!("share-group-{i}"), ..Default::default() })
        .collect();
    let mut first_uts = None;
    let mut last_uts = 0u64;
    let mut prefilter = plan.prefilter.as_ref().map(Predicate::new);

    let mut feed = |tuple: &sso_types::Tuple,
                    plan: &mut SharedQueryPlan,
                    group_windows: &mut [Vec<WindowOutput>],
                    group_stats: &mut [NodeStats]|
     -> Result<(), OpError> {
        if let Some(pred) = &mut prefilter {
            if !pred.test(tuple).unwrap_or(true) {
                return Ok(());
            }
        }
        for (gi, group) in plan.groups.iter_mut().enumerate() {
            group_stats[gi].tuples_in += 1;
            if let Some(w) = group.op.process(tuple)? {
                group_stats[gi].tuples_out += w.rows.len() as u64;
                group_windows[gi].push(w);
            }
        }
        Ok(())
    };

    // One scratch tuple, overwritten per forwarded packet.
    let mut tuple = sso_types::Tuple::empty();
    for pkt in packets {
        first_uts.get_or_insert(pkt.uts);
        last_uts = pkt.uts;
        low_stats.tuples_in += 1;
        if !low.process_into(&pkt, &mut tuple) {
            continue;
        }
        low_stats.tuples_out += 1;
        feed(&tuple, &mut plan, &mut group_windows, &mut group_stats)?;
    }
    for tuple in low.finish() {
        low_stats.tuples_out += 1;
        feed(&tuple, &mut plan, &mut group_windows, &mut group_stats)?;
    }
    for (gi, group) in plan.groups.iter_mut().enumerate() {
        if let Some(w) = group.op.finish()? {
            group_stats[gi].tuples_out += w.rows.len() as u64;
            group_windows[gi].push(w);
        }
    }

    // Fan each group's windows out to its consumers.
    let mut queries = Vec::with_capacity(plan.consumers());
    for (gi, group) in plan.groups.iter().enumerate() {
        for name in &group.consumers {
            queries.push(QueryResult {
                name: name.clone(),
                stats: NodeStats { name: name.clone(), ..group_stats[gi].clone() },
                windows: group_windows[gi].clone(),
            });
        }
    }
    let stream_span =
        std::time::Duration::from_nanos(last_uts.saturating_sub(first_uts.unwrap_or(0)));
    Ok(FanoutReport { low: low_stats, queries, stream_span })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::{run_fanout, FanoutPlan};
    use crate::nodes::SelectionNode;
    use sso_netgen::research_feed;
    use sso_query::{base_stream_schema, compile, compile_packet_predicate, parse_query};

    fn op(text: &str) -> SamplingOperator {
        let schema = base_stream_schema("PKT").unwrap();
        compile(text, &schema, &sso_query::PlannerConfig::standard()).unwrap()
    }

    /// A dedup group's consumers see byte-identical windows to running
    /// the same query unshared, and a shared prefilter implied by every
    /// consumer's WHERE changes no output rows.
    #[test]
    fn shared_execution_is_byte_identical_to_unshared() {
        let text = "SELECT tb, sum(len) FROM PKT WHERE len >= 100 GROUP BY time/2 as tb";
        let packets = research_feed(401).take_seconds(6);

        let unshared = run_fanout(
            FanoutPlan {
                low: Box::new(SelectionNode::pass_all()),
                highs: vec![("a".into(), op(text)), ("b".into(), op(text))],
            },
            packets.clone(),
        )
        .unwrap();

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
