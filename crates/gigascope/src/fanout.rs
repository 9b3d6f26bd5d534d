//! Multi-query execution: one low-level node feeding several high-level
//! queries — how the paper's accuracy experiment runs "two query sets
//! simultaneously" (§7.1: the exact aggregation and the sampling query
//! over the same feed), and how a production Gigascope hosts many
//! queries on one tap.

use sso_obs::Stopwatch;

use sso_core::{OpError, SamplingOperator, WindowOutput};
use sso_types::Packet;

use crate::engine::NodeStats;
use crate::nodes::LowLevelQuery;

/// One low-level node fanning out to several named high-level queries.
pub struct FanoutPlan {
    /// The shared low-level (packet-side) node.
    pub low: Box<dyn LowLevelQuery>,
    /// The high-level queries, each receiving every forwarded tuple.
    pub highs: Vec<(String, SamplingOperator)>,
}

/// One high-level query's results from a fan-out run.
#[derive(Debug)]
pub struct QueryResult {
    /// The query's name (as given in the plan).
    pub name: String,
    /// Node accounting.
    pub stats: NodeStats,
    /// Every closed window, in order.
    pub windows: Vec<WindowOutput>,
}

/// The result of a fan-out run.
#[derive(Debug)]
pub struct FanoutReport {
    /// Low-level node accounting.
    pub low: NodeStats,
    /// Per-query results, in plan order.
    pub queries: Vec<QueryResult>,
    /// Stream span (last uts − first uts).
    pub stream_span: std::time::Duration,
}

impl FanoutReport {
    /// The named query's result.
    pub fn query(&self, name: &str) -> Option<&QueryResult> {
        self.queries.iter().find(|q| q.name == name)
    }
}

/// Run several queries over one packet stream through a shared low-level
/// node.
pub fn run_fanout(
    mut plan: FanoutPlan,
    packets: impl IntoIterator<Item = Packet>,
) -> Result<FanoutReport, OpError> {
    let mut low = NodeStats { name: plan.low.name().to_string(), ..Default::default() };
    let mut results: Vec<QueryResult> = plan
        .highs
        .iter()
        .map(|(name, _)| QueryResult {
            name: name.clone(),
            stats: NodeStats { name: name.clone(), ..Default::default() },
            windows: Vec::new(),
        })
        .collect();
    let mut first_uts = None;
    let mut last_uts = 0u64;

    // One scratch tuple, overwritten per forwarded packet.
    let mut tuple = sso_types::Tuple::empty();
    for pkt in packets {
        first_uts.get_or_insert(pkt.uts);
        last_uts = pkt.uts;
        low.tuples_in += 1;
        let sw = Stopwatch::start();
        let forwarded = plan.low.process_into(&pkt, &mut tuple);
        low.busy += sw.elapsed();
        if !forwarded {
            continue;
        }
        low.tuples_out += 1;
        for ((_, op), result) in plan.highs.iter_mut().zip(results.iter_mut()) {
            result.stats.tuples_in += 1;
            let sw = Stopwatch::start();
            let out = op.process(&tuple)?;
            result.stats.busy += sw.elapsed();
            if let Some(w) = out {
                result.stats.tuples_out += w.rows.len() as u64;
                result.windows.push(w);
            }
        }
    }
    for tuple in plan.low.finish() {
        low.tuples_out += 1;
        for ((_, op), result) in plan.highs.iter_mut().zip(results.iter_mut()) {
            result.stats.tuples_in += 1;
            if let Some(w) = op.process(&tuple)? {
                result.stats.tuples_out += w.rows.len() as u64;
                result.windows.push(w);
            }
        }
    }
    for ((_, op), result) in plan.highs.iter_mut().zip(results.iter_mut()) {
        if let Some(w) = op.finish()? {
            result.stats.tuples_out += w.rows.len() as u64;
            result.windows.push(w);
        }
    }
    let stream_span =
        std::time::Duration::from_nanos(last_uts.saturating_sub(first_uts.unwrap_or(0)));
    Ok(FanoutReport { low, queries: results, stream_span })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::SelectionNode;
    use sso_core::libs::subset_sum::SubsetSumOpConfig;
    use sso_core::queries;
    use sso_netgen::research_feed;

    /// The §7.1 methodology: the exact aggregation and the sampling
    /// query run simultaneously over the same feed; per window, the
    /// sampling estimate is compared to the exact sum.
    #[test]
    fn exact_and_sampled_queries_run_side_by_side() {
        let packets = research_feed(301).take_seconds(10);
        let cfg = SubsetSumOpConfig { target: 200, initial_z: 1.0, ..Default::default() };
        let plan = FanoutPlan {
            low: Box::new(SelectionNode::pass_all()),
            highs: vec![
                ("actual".into(), SamplingOperator::new(queries::total_sum_query(5)).unwrap()),
                (
                    "sampled".into(),
                    SamplingOperator::new(queries::subset_sum_query(5, cfg, false).unwrap())
                        .unwrap(),
                ),
            ],
        };
        let n = packets.len() as u64;
        let report = run_fanout(plan, packets).unwrap();
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
        let plan = FanoutPlan {
            low: Box::new(SelectionNode::pass_all()),
            highs: vec![
                ("a".into(), SamplingOperator::new(queries::total_sum_query(2)).unwrap()),
                ("b".into(), SamplingOperator::new(queries::total_sum_query(2)).unwrap()),
            ],
        };
        let report = run_fanout(plan, packets).unwrap();
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
        let plan = FanoutPlan {
            low: Box::new(SelectionNode::pass_all()),
            highs: vec![(
                "only".into(),
                SamplingOperator::new(queries::total_sum_query(1)).unwrap(),
            )],
        };
        let report = run_fanout(plan, packets).unwrap();
        assert!(report.query("only").is_some());
        assert!(report.query("missing").is_none());
    }
}
