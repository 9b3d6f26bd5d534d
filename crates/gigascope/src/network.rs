//! Query networks: the full Figure-1 architecture as a composable DAG.
//!
//! A [`QueryNetwork`] hosts several low-level nodes reading the same
//! packet source (each doing its own early reduction) and several
//! high-level operators, each fed either by a low-level node's tuple
//! stream or by another operator's *output rows* (a cascade). This
//! subsumes [`crate::TwoLevelPlan`] (1 low × 1 high),
//! [`crate::SharedQueryPlan`] (1 low × N high), and [`crate::Cascade`]
//! (high → high), and allows e.g.
//!
//! ```text
//!            ┌─ selection ──▶ heavy-hitters query
//!  packets ──┤
//!            └─ prefilter ──▶ subset-sum query ──▶ sampled-flows report
//! ```

use sso_obs::Stopwatch;

use sso_core::{OpError, SamplingOperator, WindowOutput};
use sso_types::Packet;

use crate::engine::NodeStats;
use crate::nodes::LowLevelQuery;

/// Where a high-level node reads its input from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The tuple stream of low-level node `i`.
    Low(usize),
    /// The output rows of high-level node `i` (must precede this node).
    High(usize),
}

/// One high-level node: a named operator and its input edge.
pub struct HighNode {
    /// Display name.
    pub name: String,
    /// The operator.
    pub op: SamplingOperator,
    /// Input edge.
    pub input: Input,
}

/// A DAG of low-level nodes and high-level operators.
#[derive(Default)]
pub struct QueryNetwork {
    lows: Vec<(String, Box<dyn LowLevelQuery>)>,
    highs: Vec<HighNode>,
}

/// Per-node results of a network run.
#[derive(Debug)]
pub struct NetworkReport {
    /// Low-level node accounting, in registration order.
    pub lows: Vec<NodeStats>,
    /// High-level node accounting + windows, in registration order.
    pub highs: Vec<(NodeStats, Vec<WindowOutput>)>,
    /// Stream span (last uts − first uts).
    pub stream_span: std::time::Duration,
}

impl NetworkReport {
    /// The named high-level node's windows.
    pub fn windows(&self, name: &str) -> Option<&[WindowOutput]> {
        self.highs.iter().find(|(stats, _)| stats.name == name).map(|(_, w)| w.as_slice())
    }
}

impl QueryNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a low-level node; returns its index for [`Input::Low`].
    pub fn add_low(&mut self, name: &str, node: Box<dyn LowLevelQuery>) -> usize {
        self.lows.push((name.to_string(), node));
        self.lows.len() - 1
    }

    /// Register a high-level operator; returns its index for
    /// [`Input::High`].
    ///
    /// # Errors
    /// Rejects edges to unregistered nodes and forward/self references
    /// (a cascade may only read from an earlier high-level node).
    pub fn add_high(
        &mut self,
        name: &str,
        op: SamplingOperator,
        input: Input,
    ) -> Result<usize, OpError> {
        match input {
            Input::Low(i) if i >= self.lows.len() => {
                return Err(OpError::InvalidSpec(format!(
                    "high node `{name}` reads from unregistered low node {i}"
                )));
            }
            Input::High(i) if i >= self.highs.len() => {
                return Err(OpError::InvalidSpec(format!(
                    "high node `{name}` reads from high node {i}, which is not \
                     registered yet (cascades must read from earlier nodes)"
                )));
            }
            _ => {}
        }
        self.highs.push(HighNode { name: name.to_string(), op, input });
        Ok(self.highs.len() - 1)
    }

    /// Run the network over a packet stream.
    pub fn run(
        mut self,
        packets: impl IntoIterator<Item = Packet>,
    ) -> Result<NetworkReport, OpError> {
        let mut low_stats: Vec<NodeStats> = self
            .lows
            .iter()
            .map(|(name, _)| NodeStats { name: name.clone(), ..Default::default() })
            .collect();
        let mut high_stats: Vec<NodeStats> = self
            .highs
            .iter()
            .map(|n| NodeStats { name: n.name.clone(), ..Default::default() })
            .collect();
        let mut windows: Vec<Vec<WindowOutput>> = self.highs.iter().map(|_| Vec::new()).collect();
        let mut first_uts = None;
        let mut last_uts = 0u64;

        // Per-packet: run every low node, then deliver to high nodes in
        // topological (registration) order; cascaded rows propagate
        // within the same packet step.
        let mut low_out: Vec<Option<sso_types::Tuple>> = Vec::with_capacity(self.lows.len());
        for pkt in packets {
            first_uts.get_or_insert(pkt.uts);
            last_uts = pkt.uts;
            low_out.clear();
            for ((_, node), stats) in self.lows.iter_mut().zip(low_stats.iter_mut()) {
                stats.tuples_in += 1;
                let sw = Stopwatch::start();
                let fwd = node.process(&pkt);
                stats.busy += sw.elapsed();
                if fwd.is_some() {
                    stats.tuples_out += 1;
                }
                low_out.push(fwd);
            }
            // New rows produced by node i this step, for cascades.
            let mut produced: Vec<Vec<sso_types::Tuple>> = vec![Vec::new(); self.highs.len()];
            for i in 0..self.highs.len() {
                let inputs: Vec<sso_types::Tuple> = match self.highs[i].input {
                    Input::Low(l) => low_out[l].iter().cloned().collect(),
                    Input::High(h) => std::mem::take(&mut produced[h]),
                };
                for tuple in inputs {
                    high_stats[i].tuples_in += 1;
                    let sw = Stopwatch::start();
                    let out = self.highs[i].op.process(&tuple)?;
                    high_stats[i].busy += sw.elapsed();
                    if let Some(w) = out {
                        high_stats[i].tuples_out += w.rows.len() as u64;
                        produced[i].extend(w.rows.iter().cloned());
                        windows[i].push(w);
                    }
                }
            }
        }
        // End of stream: flush the low-level nodes' buffered output.
        let mut low_tail: Vec<Vec<sso_types::Tuple>> = Vec::with_capacity(self.lows.len());
        for ((_, node), stats) in self.lows.iter_mut().zip(low_stats.iter_mut()) {
            let tail = node.finish();
            stats.tuples_out += tail.len() as u64;
            low_tail.push(tail);
        }
        // Then finish high nodes in order, still propagating rows.
        let mut produced: Vec<Vec<sso_types::Tuple>> = vec![Vec::new(); self.highs.len()];
        for i in 0..self.highs.len() {
            if let Input::Low(l) = self.highs[i].input {
                for tuple in &low_tail[l] {
                    high_stats[i].tuples_in += 1;
                    if let Some(w) = self.highs[i].op.process(tuple)? {
                        high_stats[i].tuples_out += w.rows.len() as u64;
                        produced[i].extend(w.rows.iter().cloned());
                        windows[i].push(w);
                    }
                }
            }
            if let Input::High(h) = self.highs[i].input {
                let rows = std::mem::take(&mut produced[h]);
                for tuple in rows {
                    high_stats[i].tuples_in += 1;
                    if let Some(w) = self.highs[i].op.process(&tuple)? {
                        high_stats[i].tuples_out += w.rows.len() as u64;
                        produced[i].extend(w.rows.iter().cloned());
                        windows[i].push(w);
                    }
                }
            }
            if let Some(w) = self.highs[i].op.finish()? {
                high_stats[i].tuples_out += w.rows.len() as u64;
                produced[i].extend(w.rows.iter().cloned());
                windows[i].push(w);
            }
        }

        let stream_span =
            std::time::Duration::from_nanos(last_uts.saturating_sub(first_uts.unwrap_or(0)));
        Ok(NetworkReport {
            lows: low_stats,
            highs: high_stats.into_iter().zip(windows).collect(),
            stream_span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::{PrefilterNode, SelectionNode};
    use sso_core::libs::subset_sum::SubsetSumOpConfig;
    use sso_core::operator::OperatorSpec;
    use sso_core::{queries, Expr};
    use sso_netgen::{datacenter_feed, research_feed};

    #[test]
    fn rejects_bad_edges() {
        let mut net = QueryNetwork::new();
        let op = SamplingOperator::new(queries::total_sum_query(1)).unwrap();
        assert!(net.add_high("x", op, Input::Low(0)).is_err(), "no low node 0 yet");
        let op = SamplingOperator::new(queries::total_sum_query(1)).unwrap();
        assert!(net.add_high("x", op, Input::High(0)).is_err(), "no high node 0 yet");
    }

    #[test]
    fn two_low_nodes_feed_independent_queries() {
        let packets = datacenter_feed(401).take_seconds(2);
        let n = packets.len() as u64;
        let mut net = QueryNetwork::new();
        let sel = net.add_low("selection", Box::new(SelectionNode::pass_all()));
        let pre = net.add_low("prefilter", Box::new(PrefilterNode::new(100_000.0)));
        net.add_high(
            "exact",
            SamplingOperator::new(queries::total_sum_query(1)).unwrap(),
            Input::Low(sel),
        )
        .unwrap();
        net.add_high(
            "thinned",
            SamplingOperator::new(queries::total_sum_query(1)).unwrap(),
            Input::Low(pre),
        )
        .unwrap();
        let report = net.run(packets).unwrap();
        assert_eq!(report.lows[0].tuples_in, n);
        assert_eq!(report.lows[1].tuples_in, n);
        assert_eq!(report.lows[0].tuples_out, n);
        assert!(report.lows[1].tuples_out < n / 10);
        assert!(report.windows("exact").is_some());
        assert!(report.windows("missing").is_none());
    }

    #[test]
    fn cascade_inside_a_network_matches_direct_cascade() {
        // flow aggregation -> per-window flow count, as network and as
        // direct Cascade; outputs must agree.
        let flow_agg = || {
            let mut spec = OperatorSpec::aggregation(
                vec![
                    ("tb".into(), Expr::GroupVar(0)),
                    ("srcIP".into(), Expr::GroupVar(1)),
                    ("bytes".into(), Expr::Aggregate(0)),
                ],
                vec![
                    ("tb".into(), Expr::Column(0).div(Expr::lit(2u64))),
                    ("srcIP".into(), Expr::Column(2)),
                ],
            );
            spec.window_indices = vec![0];
            spec.aggregates = vec![sso_core::AggSpec::Sum(Expr::Column(7))];
            SamplingOperator::new(spec).unwrap()
        };
        let second = || {
            let first = flow_agg();
            let schema = first.spec().output_schema("FLOWS");
            let q = sso_query::parse_query(
                "SELECT tb2, count(*), sum(bytes) FROM FLOWS GROUP BY tb/1 as tb2",
            )
            .unwrap();
            SamplingOperator::new(
                sso_query::plan(&q, &schema, &sso_query::PlannerConfig::empty()).unwrap(),
            )
            .unwrap()
        };
        let packets = research_feed(402).take_seconds(6);

        let mut net = QueryNetwork::new();
        let low = net.add_low("all", Box::new(SelectionNode::pass_all()));
        let agg = net.add_high("flows", flow_agg(), Input::Low(low)).unwrap();
        net.add_high("flow-report", second(), Input::High(agg)).unwrap();
        let report = net.run(packets.clone()).unwrap();
        let from_net = report.windows("flow-report").unwrap();

        let mut cascade = crate::Cascade::new(flow_agg(), second());
        let tuples: Vec<sso_types::Tuple> = packets.iter().map(|p| p.to_tuple()).collect();
        let direct = cascade.run(tuples.iter()).unwrap();

        assert_eq!(from_net.len(), direct.len());
        for (a, b) in from_net.iter().zip(&direct) {
            assert_eq!(a.rows, b.rows);
        }
    }

    #[test]
    fn figure_one_shaped_network_runs() {
        // Two low nodes, three high nodes, one cascade: the Figure 1
        // sketch.
        let packets = datacenter_feed(403).take_seconds(2);
        let mut net = QueryNetwork::new();
        let sel = net.add_low("selection", Box::new(SelectionNode::pass_all()));
        let pre = net.add_low("prefilter", Box::new(PrefilterNode::new(50_000.0)));
        net.add_high(
            "hh",
            SamplingOperator::new(queries::heavy_hitters_query(1, 500, None).unwrap()).unwrap(),
            Input::Low(sel),
        )
        .unwrap();
        let cfg = SubsetSumOpConfig { target: 100, initial_z: 5_000.0, ..Default::default() };
        let ss = net
            .add_high(
                "subset-sum",
                SamplingOperator::new(queries::subset_sum_query(1, cfg, false).unwrap()).unwrap(),
                Input::Low(pre),
            )
            .unwrap();
        // Cascade: aggregate the sampled rows per window.
        let first =
            SamplingOperator::new(queries::subset_sum_query(1, cfg, false).unwrap()).unwrap();
        let schema = first.spec().output_schema("S");
        let q = sso_query::parse_query(
            "SELECT tb2, count(*), sum(adj_len) FROM S GROUP BY tb/1 as tb2",
        )
        .unwrap();
        let report_op = SamplingOperator::new(
            sso_query::plan(&q, &schema, &sso_query::PlannerConfig::empty()).unwrap(),
        )
        .unwrap();
        net.add_high("sample-report", report_op, Input::High(ss)).unwrap();

        let report = net.run(packets).unwrap();
        assert!(!report.windows("hh").unwrap().is_empty());
        assert!(!report.windows("subset-sum").unwrap().is_empty());
        let sample_report = report.windows("sample-report").unwrap();
        assert!(!sample_report.is_empty());
        // The cascade's count equals the subset-sum node's emitted rows
        // for the corresponding windows.
        let ss_rows: u64 =
            report.windows("subset-sum").unwrap().iter().map(|w| w.rows.len() as u64).sum();
        let reported: u64 =
            sample_report.iter().flat_map(|w| &w.rows).map(|r| r.get(1).as_u64().unwrap()).sum();
        assert_eq!(ss_rows, reported);
    }
}
