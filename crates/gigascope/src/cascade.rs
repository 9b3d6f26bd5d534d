//! Cascaded sampling operators (§8: "cascading one type of stream
//! sampling inside a different type of stream sampling group").
//!
//! A cascade feeds the *output rows* of one sampling operator into the
//! next as its input stream: e.g. a flow-aggregation query whose
//! per-window flow records are then subset-sum-sampled, or a
//! heavy-hitters query whose survivors are min-hash-sampled. Each
//! operator's [`sso_core::OperatorSpec::output_schema`] is the next
//! query's input schema, with the window variable still marked ordered
//! so the next operator windows correctly.
//!
//! The first stage runs under [`run_inline`] like any other plan; each
//! later stage takes every closed window of the stage before as one
//! batch. A decide-on-arrival operator sees the same tuple sequence
//! either way, so the cascade's output is what running the stages one
//! after the other over the whole stream gives.

use sso_core::{OpError, SamplingOperator, WindowOutput};
use sso_types::Packet;

use crate::engine::run_inline;
use crate::nodes::LowLevelQuery;
use crate::shared::SharedQueryPlan;

/// Two or more sampling operators in series.
pub struct Cascade {
    stages: Vec<SamplingOperator>,
}

impl Cascade {
    /// A chain of `stages`, first to last. The caller plans each stage
    /// against the output schema of the one before.
    ///
    /// # Errors
    /// `InvalidSpec` for fewer than two stages.
    pub fn new(stages: Vec<SamplingOperator>) -> Result<Self, OpError> {
        if stages.len() < 2 {
            return Err(OpError::InvalidSpec(format!(
                "a cascade chains two or more operators, not {}",
                stages.len()
            )));
        }
        Ok(Cascade { stages })
    }

    /// Run the chain over the packets `low` forwards: the first stage
    /// under [`run_inline`], each later stage over every closed window
    /// of the stage before, whose rows it takes in one
    /// [`SamplingOperator::process_batch`] call. At end of stream each
    /// stage's flush passes down the chain in order. Returns every
    /// stage's windows, stage by stage, each in window order.
    ///
    /// The first error ends the run. A later stage's error is held
    /// while the first stage finishes its pass, and no stage is fed
    /// again: it is the run's error, ahead of any the first stage
    /// raises after it.
    pub fn run(
        self,
        low: Box<dyn LowLevelQuery>,
        packets: impl IntoIterator<Item = Packet>,
    ) -> Result<Vec<Vec<WindowOutput>>, OpError> {
        let mut stages = self.stages.into_iter();
        let first = stages.next().expect("a cascade has two or more stages");
        let mut rest: Vec<SamplingOperator> = stages.collect();
        let mut windows = vec![Vec::new(); rest.len() + 1];
        let mut plan = SharedQueryPlan::unshared([(String::new(), first)]);
        let mut held = Ok(());
        let run = run_inline(low, &mut plan, packets, |_, w, _| {
            if held.is_ok() {
                held = pass_down(&mut rest, &mut windows, w);
            }
        });
        held?;
        run?;
        for i in 0..rest.len() {
            let (stage, later) = rest[i..].split_first_mut().expect("i < rest.len()");
            if let Some(w) = stage.finish()? {
                pass_down(later, &mut windows[i + 1..], w)?;
            }
        }
        Ok(windows)
    }
}

/// File `w`, a closed window of the stage `windows[0]` collects, after
/// handing its rows to the next stage, `rest[0]`, in one batch; each
/// window that stage closes passes down the same way. After an error
/// below, the windows `rest[0]` still closes in this batch go nowhere.
fn pass_down(
    rest: &mut [SamplingOperator],
    windows: &mut [Vec<WindowOutput>],
    w: WindowOutput,
) -> Result<(), OpError> {
    let (filed, below) = windows.split_first_mut().expect("one window list per stage");
    if let Some((next, later)) = rest.split_first_mut() {
        let mut down = Ok(());
        let fed = next.process_batch(&w.rows, |w| {
            if down.is_ok() {
                down = pass_down(later, below, w);
            }
        });
        down?;
        fed?;
    }
    filed.push(w);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BATCH;
    use crate::nodes::SelectionNode;
    use sso_core::libs::subset_sum::SubsetSumOpConfig;
    use sso_core::Expr;
    use sso_query::{parse_query, plan, PlannerConfig};
    use sso_types::{Schema, Tuple, Value};
    use std::sync::{Arc, Mutex};

    /// `text` planned over `schema` as a stage's operator.
    fn stage(text: &str, schema: &Schema, config: &PlannerConfig) -> SamplingOperator {
        let spec = plan(&parse_query(text).unwrap(), schema, config).unwrap();
        SamplingOperator::new(spec).unwrap()
    }

    /// First stage: flow aggregation (flows = srcIP/destIP) on
    /// `secs`-second windows.
    fn flows_every(secs: u64) -> SamplingOperator {
        let q = format!(
            "SELECT tb, srcIP, destIP, sum(len) as bytes, count(*) as pkts FROM PKT
             GROUP BY time/{secs} as tb, srcIP, destIP"
        );
        stage(&q, &Packet::schema(), &PlannerConfig::empty())
    }

    fn flow_agg() -> SamplingOperator {
        flows_every(5)
    }

    /// 10 s of packets, 3000 a second.
    fn packets() -> Vec<Packet> {
        let packet = |sec: u64, i: u64| Packet {
            uts: sec * 1_000_000_000 + i * 300_000,
            src_ip: (i % 200) as u32,
            dest_ip: 1000 + (i % 50) as u32,
            src_port: 1,
            dest_port: 2,
            proto: sso_types::Protocol::Tcp,
            len: 40 + (i % 1460) as u32,
        };
        (0..10).flat_map(|sec| (0..3000).map(move |i| packet(sec, i))).collect()
    }

    fn run(stages: Vec<SamplingOperator>, packets: Vec<Packet>) -> Vec<Vec<WindowOutput>> {
        let cascade = Cascade::new(stages).unwrap();
        cascade.run(Box::new(SelectionNode::pass_all()), packets).unwrap()
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
        let cfg = PlannerConfig::with_configs(
            SubsetSumOpConfig { target: 50, initial_z: 1.0, ..Default::default() },
            Default::default(),
        );
        let second = stage(
            "SELECT tb2, srcIP, destIP, UMAX(sum(bytes), ssthreshold())
             FROM FLOWS
             WHERE ssample(bytes, 50) = TRUE
             GROUP BY tb/1 as tb2, srcIP, destIP
             HAVING ssfinal_clean(sum(bytes), count_distinct$(*)) = TRUE
             CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
             CLEANING BY ssclean_with(sum(bytes)) = TRUE",
            &first.spec().output_schema("FLOWS"),
            &cfg,
        );
        let packets = packets();
        let windows = run(vec![first, second], packets.clone()).pop().unwrap();
        assert_eq!(windows.len(), 2, "10s of packets = 2 flow windows");

        // Per-window flow-volume estimates from the sampled flows track
        // the exact per-window totals.
        let mut truth = std::collections::HashMap::<u64, f64>::new();
        for p in &packets {
            *truth.entry(p.time() / 5).or_default() += p.len as f64;
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
        let second = stage(
            "SELECT tb2, srcIP, destIP
             FROM FLOWS
             WHERE rsample(10) = TRUE
             GROUP BY tb/1 as tb2, srcIP, destIP
             HAVING rsfinal_clean(count_distinct$(*)) = TRUE
             CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
             CLEANING BY rsclean_with() = TRUE",
            &first.spec().output_schema("FLOWS"),
            &PlannerConfig::standard(),
        );
        let windows = run(vec![first, second], packets()).pop().unwrap();
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
            let q = "SELECT tb2, sum(bytes), count(*) FROM FLOWS GROUP BY tb/1 as tb2";
            stage(q, &flow_agg().spec().output_schema("FLOWS"), &PlannerConfig::empty())
        };
        let packets = packets();
        let got = run(vec![flow_agg(), make_second()], packets.clone()).pop().unwrap();

        let tuples: Vec<Tuple> = packets.iter().map(Packet::to_tuple).collect();
        let w1s = flow_agg().run(tuples.iter()).unwrap();
        let expected = make_second().run(w1s.iter().flat_map(|w| &w.rows)).unwrap();
        assert_eq!(got.len(), expected.len());
        for (a, b) in got.iter().zip(&expected) {
            assert_eq!(a.rows, b.rows);
        }
    }

    /// The example's chain on one-second windows: flow aggregation,
    /// subset-sum over the flows' bytes, then a per-window report of the
    /// sampled flows.
    fn three_stages() -> Vec<SamplingOperator> {
        let flows = flows_every(1);
        let sampled = stage(
            "SELECT tb2, srcIP, destIP, UMAX(sum(bytes), ssthreshold()) as adj_len
             FROM FLOWS
             WHERE ssample(bytes, 40) = TRUE
             GROUP BY tb/1 as tb2, srcIP, destIP
             HAVING ssfinal_clean(sum(bytes), count_distinct$(*)) = TRUE
             CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
             CLEANING BY ssclean_with(sum(bytes)) = TRUE",
            &flows.spec().output_schema("FLOWS"),
            &PlannerConfig::standard(),
        );
        let report = stage(
            "SELECT tb3, count(*), sum(adj_len) FROM SAMPLED GROUP BY tb2/1 as tb3",
            &sampled.spec().output_schema("SAMPLED"),
            &PlannerConfig::empty(),
        );
        vec![flows, sampled, report]
    }

    #[test]
    fn three_stage_chain_equals_running_each_stage_by_hand() {
        let all = packets();
        for cut in [0, 1, BATCH - 1, BATCH, BATCH + 1, all.len()] {
            let got = run(three_stages(), all[..cut].to_vec());
            let mut input: Vec<Tuple> = all[..cut].iter().map(Packet::to_tuple).collect();
            for (s, mut op) in three_stages().into_iter().enumerate() {
                let expected = op.run(input.iter()).unwrap();
                assert_eq!(got[s].len(), expected.len(), "cut {cut}: stage {s} windows");
                for (a, b) in got[s].iter().zip(&expected) {
                    assert_eq!(a.window, b.window, "cut {cut}: stage {s}");
                    assert_eq!(a.rows, b.rows, "cut {cut}: stage {s} window {:?}", a.window);
                }
                assert!(cut <= BATCH || expected.len() >= 2, "cut {cut}: stage {s}");
                input = expected.into_iter().flat_map(|w| w.rows).collect();
            }
        }
    }

    #[test]
    fn report_counts_the_rows_the_sampling_stage_emitted() {
        let windows = run(three_stages(), packets());
        let (sampled, report) = (&windows[1], &windows[2]);
        assert_eq!((sampled.len(), report.len()), (10, 10));
        for (s, r) in sampled.iter().zip(report) {
            assert_eq!(s.window, r.window);
            let [row] = &r.rows[..] else { panic!("one report row per window") };
            assert_eq!(row.get(1).as_u64().unwrap(), s.rows.len() as u64, "window {:?}", s.window);
            assert!(s.rows.len() <= 45, "sampled flows bounded: {}", s.rows.len());
        }
    }

    /// A stage planned from `text` whose WHERE clause records column 0
    /// of every row it sees and fails on each whose value is `fail_at`.
    fn recording(
        text: &str,
        schema: &Schema,
        seen: &Arc<Mutex<Vec<u64>>>,
        fail_at: u64,
    ) -> SamplingOperator {
        let seen = Arc::clone(seen);
        let fun = move |args: &[Value]| {
            let tb = args[0].as_u64().expect("a u64 window column");
            seen.lock().unwrap().push(tb);
            if tb == fail_at {
                return Err(format!("row of window {tb}"));
            }
            Ok(Value::Bool(true))
        };
        let mut spec = plan(&parse_query(text).unwrap(), schema, &PlannerConfig::empty()).unwrap();
        let args = vec![Expr::Column(0)];
        spec.where_clause = Some(Expr::Scalar { name: "RECORD", fun: Arc::new(fun), args });
        SamplingOperator::new(spec).unwrap()
    }

    #[test]
    fn a_later_stages_error_is_the_runs_and_stops_the_chain() {
        let (seen_by_second, seen_by_third) = (Arc::default(), Arc::default());
        let flows = flows_every(1);
        let q = "SELECT tb2, srcIP, count(*) FROM FLOWS GROUP BY tb/1 as tb2, srcIP";
        let second = recording(q, &flows.spec().output_schema("FLOWS"), &seen_by_second, 4);
        let q = "SELECT tb3, count(*) FROM S GROUP BY tb2/1 as tb3";
        let third = recording(q, &second.spec().output_schema("S"), &seen_by_third, u64::MAX);

        let cascade = Cascade::new(vec![flows, second, third]).unwrap();
        match cascade.run(Box::new(SelectionNode::pass_all()), packets()) {
            Err(OpError::BadScalarCall { function, reason }) => {
                assert_eq!((function.as_str(), reason.as_str()), ("RECORD", "row of window 4"));
            }
            other => panic!("expected the second stage's error, got {other:?}"),
        }
        // The failing row was the last the second stage saw, though the
        // first went on to close windows 4 to 9.
        let seen = seen_by_second.lock().unwrap();
        assert_eq!(seen.iter().filter(|&&tb| tb >= 4).collect::<Vec<_>>(), [&4], "{seen:?}");
        assert_eq!(seen.last(), Some(&4));
        // The third stage saw windows before the failure and none after.
        let seen = seen_by_third.lock().unwrap();
        assert!(!seen.is_empty() && seen.iter().all(|&tb| tb < 4), "{seen:?}");
    }

    #[test]
    fn a_chain_needs_two_stages() {
        assert!(Cascade::new(vec![flow_agg()]).is_err());
    }
}
