//! Cascaded sampling operators (§8: "cascading one type of stream
//! sampling inside a different type of stream sampling group").
//!
//! A cascade feeds the *output rows* of one sampling operator into a
//! second operator as its input stream: e.g. a flow-aggregation query
//! whose per-window flow records are then subset-sum-sampled, or a
//! heavy-hitters query whose survivors are min-hash-sampled. The first
//! operator's [`sso_core::OperatorSpec::output_schema`] is the second
//! query's input schema, with the window variable still marked ordered
//! so the second operator windows correctly.

use sso_core::{OpError, SamplingOperator, WindowOutput};
use sso_types::Tuple;

/// Two sampling operators in series.
pub struct Cascade {
    /// The upstream operator (e.g. flow aggregation).
    pub first: SamplingOperator,
    /// The downstream operator, running over `first`'s output rows.
    pub second: SamplingOperator,
}

impl Cascade {
    /// Build a cascade. The caller is responsible for planning `second`
    /// against `first.spec().output_schema(..)`.
    pub fn new(first: SamplingOperator, second: SamplingOperator) -> Self {
        Cascade { first, second }
    }

    /// Process one input tuple; returns any window output the *second*
    /// operator produced.
    pub fn process(&mut self, tuple: &Tuple) -> Result<Vec<WindowOutput>, OpError> {
        let mut out = Vec::new();
        if let Some(w1) = self.first.process(tuple)? {
            self.second.process_batch(&w1.rows, |w2| out.push(w2))?;
        }
        Ok(out)
    }

    /// Flush both operators at end of stream.
    pub fn finish(&mut self) -> Result<Vec<WindowOutput>, OpError> {
        let mut out = Vec::new();
        if let Some(w1) = self.first.finish()? {
            self.second.process_batch(&w1.rows, |w2| out.push(w2))?;
        }
        if let Some(w2) = self.second.finish()? {
            out.push(w2);
        }
        Ok(out)
    }

    /// Run a whole tuple stream through the cascade.
    pub fn run<'a>(
        &mut self,
        tuples: impl IntoIterator<Item = &'a Tuple>,
    ) -> Result<Vec<WindowOutput>, OpError> {
        let mut out = Vec::new();
        for t in tuples {
            out.extend(self.process(t)?);
        }
        out.extend(self.finish()?);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_core::libs::subset_sum::SubsetSumOpConfig;
    use sso_core::operator::OperatorSpec;
    use sso_core::Expr;
    use sso_query::{parse_query, plan, PlannerConfig};
    use sso_types::Packet;

    /// First stage: per-window flow aggregation (flows = srcIP/destIP).
    fn flow_agg() -> SamplingOperator {
        let mut spec = OperatorSpec::aggregation(
            vec![
                ("tb".into(), Expr::GroupVar(0)),
                ("srcIP".into(), Expr::GroupVar(1)),
                ("destIP".into(), Expr::GroupVar(2)),
                ("bytes".into(), Expr::Aggregate(0)),
                ("pkts".into(), Expr::Aggregate(1)),
            ],
            vec![
                ("tb".into(), Expr::Column(0).div(Expr::lit(5u64))),
                ("srcIP".into(), Expr::Column(2)),
                ("destIP".into(), Expr::Column(3)),
            ],
        );
        spec.window_indices = vec![0];
        spec.aggregates = vec![sso_core::AggSpec::Sum(Expr::Column(7)), sso_core::AggSpec::Count];
        SamplingOperator::new(spec).unwrap()
    }

    fn packets() -> Vec<Tuple> {
        let mut out = Vec::new();
        for sec in 0..10u64 {
            for i in 0..3000u64 {
                let p = Packet {
                    uts: sec * 1_000_000_000 + i * 300_000,
                    src_ip: (i % 200) as u32,
                    dest_ip: 1000 + (i % 50) as u32,
                    src_port: 1,
                    dest_port: 2,
                    proto: sso_types::Protocol::Tcp,
                    len: 40 + (i % 1460) as u32,
                };
                out.push(p.to_tuple());
            }
        }
        out
    }

    #[test]
    fn output_schema_carries_window_ordering() {
        let op = flow_agg();
        let schema = op.spec().output_schema("FLOWS");
        assert_eq!(schema.arity(), 5);
        assert!(schema.is_ordered("tb"));
        assert!(!schema.is_ordered("bytes"));
        assert_eq!(schema.index_of("pkts").unwrap(), 4);
    }

    #[test]
    fn flow_agg_then_subset_sum_over_flows() {
        // §8's cascade: aggregate packets into flows, then subset-sum
        // sample the *flows* by their byte volume.
        let first = flow_agg();
        let flows_schema = first.spec().output_schema("FLOWS");
        let q = parse_query(
            "SELECT tb2, srcIP, destIP, UMAX(sum(bytes), ssthreshold())
             FROM FLOWS
             WHERE ssample(bytes, 50) = TRUE
             GROUP BY tb/1 as tb2, srcIP, destIP
             HAVING ssfinal_clean(sum(bytes), count_distinct$(*)) = TRUE
             CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
             CLEANING BY ssclean_with(sum(bytes)) = TRUE",
        )
        .unwrap();
        let cfg = PlannerConfig::with_configs(
            SubsetSumOpConfig { target: 50, initial_z: 1.0, ..Default::default() },
            Default::default(),
        );
        let second = SamplingOperator::new(plan(&q, &flows_schema, &cfg).unwrap()).unwrap();

        let mut cascade = Cascade::new(first, second);
        let tuples = packets();
        let windows = cascade.run(tuples.iter()).unwrap();
        assert_eq!(windows.len(), 2, "10s of packets = 2 flow windows");

        // Per-window flow-volume estimates from the sampled flows track
        // the exact per-window totals.
        let mut truth = std::collections::HashMap::<u64, f64>::new();
        for t in &tuples {
            let tb = t.get(0).as_u64().unwrap() / 5;
            *truth.entry(tb).or_default() += t.get(7).as_f64().unwrap();
        }
        for w in &windows {
            let tb = w.window.get(0).as_u64().unwrap();
            let est: f64 = w.rows.iter().map(|r| r.get(3).as_f64().unwrap()).sum();
            let actual = truth[&tb];
            let rel = (est - actual).abs() / actual;
            assert!(rel < 0.35, "window {tb}: est {est:.0} vs {actual:.0} (rel {rel:.3})");
            assert!(w.rows.len() <= 55, "sampled flows bounded: {}", w.rows.len());
        }
    }

    #[test]
    fn flow_agg_then_reservoir_of_flows() {
        let first = flow_agg();
        let flows_schema = first.spec().output_schema("FLOWS");
        let q = parse_query(
            "SELECT tb2, srcIP, destIP
             FROM FLOWS
             WHERE rsample(10) = TRUE
             GROUP BY tb/1 as tb2, srcIP, destIP
             HAVING rsfinal_clean(count_distinct$(*)) = TRUE
             CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
             CLEANING BY rsclean_with() = TRUE",
        )
        .unwrap();
        let second =
            SamplingOperator::new(plan(&q, &flows_schema, &PlannerConfig::standard()).unwrap())
                .unwrap();
        let mut cascade = Cascade::new(first, second);
        let windows = cascade.run(packets().iter()).unwrap();
        assert_eq!(windows.len(), 2);
        for w in &windows {
            assert_eq!(w.rows.len(), 10, "10 uniformly sampled flows per window");
        }
    }

    #[test]
    fn cascade_equals_manual_composition() {
        // Deterministic second stage (plain aggregation over the first
        // stage's rows) must equal running the stages by hand.
        let make_second = || {
            let first = flow_agg();
            let schema = first.spec().output_schema("FLOWS");
            let q = parse_query("SELECT tb2, sum(bytes), count(*) FROM FLOWS GROUP BY tb/1 as tb2")
                .unwrap();
            SamplingOperator::new(plan(&q, &schema, &PlannerConfig::empty()).unwrap()).unwrap()
        };
        let tuples = packets();
        let mut cascade = Cascade::new(flow_agg(), make_second());
        let got = cascade.run(tuples.iter()).unwrap();

        let mut first = flow_agg();
        let mut second = make_second();
        let mut expected = Vec::new();
        let mut w1s = first.run(tuples.iter()).unwrap();
        for w1 in w1s.drain(..) {
            for row in &w1.rows {
                if let Some(w2) = second.process(row).unwrap() {
                    expected.push(w2);
                }
            }
        }
        if let Some(w2) = second.finish().unwrap() {
            expected.push(w2);
        }
        assert_eq!(got.len(), expected.len());
        for (a, b) in got.iter().zip(&expected) {
            assert_eq!(a.rows, b.rows);
        }
    }
}
