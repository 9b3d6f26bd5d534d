//! The two-level query engine: NIC ring → low-level node → high-level
//! sampling operator, with per-node busy-time accounting.
//!
//! The paper's performance figures report "% of a CPU" while keeping up
//! with a live feed. Our equivalent: each node's accumulated busy time
//! divided by the *stream's own span* (the time the live feed would
//! have taken to deliver the same packets). The comparisons Figures 5–6
//! make — operator vs. plain selection, relaxed vs. non-relaxed,
//! selection subquery vs. basic-subset-sum prefilter — are ratios of
//! these, and survive the hardware change.

use std::time::Duration;

use sso_core::{panic_message, OpError, OperatorMetrics, SamplingOperator, WindowOutput};
use sso_obs::{Registry, Stopwatch};
use sso_types::Packet;

use crate::nodes::LowLevelQuery;
use crate::ring::RingBuffer;

/// A two-level query plan: one low-level reduction node feeding one
/// high-level sampling operator.
pub struct TwoLevelPlan {
    /// The low-level (packet-side) node.
    pub low: Box<dyn LowLevelQuery>,
    /// The high-level node.
    pub high: SamplingOperator,
    /// NIC ring capacity (single-threaded mode) / channel bound
    /// (threaded mode).
    pub ring_capacity: usize,
    /// Telemetry registry; `None` = run unobserved (NodeStats only).
    pub registry: Option<Registry>,
}

impl TwoLevelPlan {
    /// Build a plan with the default 4096-slot ring.
    pub fn new(low: Box<dyn LowLevelQuery>, high: SamplingOperator) -> Self {
        TwoLevelPlan { low, high, ring_capacity: 4096, registry: None }
    }

    /// Record the run's telemetry (node handoff counters, ring occupancy,
    /// operator metrics) into `registry`.
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.high.set_metrics(OperatorMetrics::register(&registry, ""));
        self.registry = Some(registry);
        self
    }
}

/// Registry handles for the cascade-level metrics of one plan run.
struct CascadeMetrics {
    low_tuples_in: sso_obs::Counter,
    low_tuples_out: sso_obs::Counter,
    low_busy_ns: sso_obs::Counter,
    high_tuples_in: sso_obs::Counter,
    high_busy_ns: sso_obs::Counter,
    ring_occupancy: sso_obs::Gauge,
}

impl CascadeMetrics {
    fn register(registry: &Registry) -> Self {
        CascadeMetrics {
            low_tuples_in: registry.counter("low.tuples_in"),
            low_tuples_out: registry.counter("low.tuples_out"),
            low_busy_ns: registry.counter("low.busy_ns"),
            high_tuples_in: registry.counter("high.tuples_in"),
            high_busy_ns: registry.counter("high.busy_ns"),
            ring_occupancy: registry.gauge("gigascope.ring_occupancy"),
        }
    }
}

/// Per-node run accounting.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Node display name.
    pub name: String,
    /// Records entering the node.
    pub tuples_in: u64,
    /// Records leaving the node.
    pub tuples_out: u64,
    /// Accumulated processing time.
    pub busy: Duration,
}

impl NodeStats {
    /// Busy time as a percentage of the stream span — the paper's
    /// "% CPU" at line rate.
    pub fn cpu_pct(&self, stream_span: Duration) -> f64 {
        if stream_span.is_zero() {
            return 0.0;
        }
        100.0 * self.busy.as_secs_f64() / stream_span.as_secs_f64()
    }
}

/// The result of running a plan over a packet stream.
#[derive(Debug)]
pub struct RunReport {
    /// Low-level node accounting.
    pub low: NodeStats,
    /// High-level node accounting.
    pub high: NodeStats,
    /// Every closed window's output, in order.
    pub windows: Vec<WindowOutput>,
    /// The span the live feed would have taken to deliver the packets
    /// (last uts − first uts).
    pub stream_span: Duration,
    /// Packets dropped at the ring (single-threaded mode only).
    pub ring_dropped: u64,
    /// Producer stalls on a full ring (threaded mode only; one stall per
    /// full-ring wait, however long the wait).
    pub ring_stalls: u64,
}

impl RunReport {
    /// Low-level node CPU percentage at line rate.
    pub fn low_cpu_pct(&self) -> f64 {
        self.low.cpu_pct(self.stream_span)
    }

    /// High-level node CPU percentage at line rate.
    pub fn high_cpu_pct(&self) -> f64 {
        self.high.cpu_pct(self.stream_span)
    }

    /// Whole-plan CPU percentage at line rate.
    pub fn total_cpu_pct(&self) -> f64 {
        self.low_cpu_pct() + self.high_cpu_pct()
    }
}

/// Run a plan single-threaded: packets are staged through the NIC ring
/// in batches (as a polling low-level query would see them), reduced,
/// and fed to the operator.
pub fn run_plan(
    mut plan: TwoLevelPlan,
    packets: impl IntoIterator<Item = Packet>,
) -> Result<RunReport, OpError> {
    let mut ring: RingBuffer<Packet> = RingBuffer::new(plan.ring_capacity);
    let mut low = NodeStats { name: plan.low.name().to_string(), ..Default::default() };
    let mut high = NodeStats { name: "sampling-operator".to_string(), ..Default::default() };
    let metrics = plan.registry.as_ref().map(CascadeMetrics::register);
    let mut windows = Vec::new();
    let mut first_uts = None;
    let mut last_uts = 0u64;

    // Timing is per drained batch, not per packet: at 100k+ pkt/s a
    // per-packet clock pair costs as much as the work being measured
    // and would wash out the low-level node comparison of Figure 6.
    // `forwarded` is scratch, not a queue: its tuples are overwritten in
    // place drain after drain, so the steady state allocates nothing.
    let mut forwarded: Vec<sso_types::Tuple> = Vec::new();
    let mut drain = |ring: &mut RingBuffer<Packet>,
                     plan: &mut TwoLevelPlan,
                     low: &mut NodeStats,
                     high: &mut NodeStats,
                     windows: &mut Vec<WindowOutput>|
     -> Result<(), OpError> {
        if let Some(m) = &metrics {
            // Occupancy is read at drain entry: the high-water moment.
            m.ring_occupancy.set(ring.len() as f64);
        }
        let mut live = 0usize;
        let sw = Stopwatch::start();
        while let Some(pkt) = ring.pop() {
            low.tuples_in += 1;
            if live == forwarded.len() {
                forwarded.push(sso_types::Tuple::empty());
            }
            if plan.low.process_into(&pkt, &mut forwarded[live]) {
                live += 1;
            }
        }
        let low_ns = sw.elapsed_ns();
        low.busy += Duration::from_nanos(low_ns);
        low.tuples_out += live as u64;
        high.tuples_in += live as u64;
        let sw = Stopwatch::start();
        for tuple in &forwarded[..live] {
            if let Some(w) = plan.high.process(tuple)? {
                high.tuples_out += w.rows.len() as u64;
                windows.push(w);
            }
        }
        let high_ns = sw.elapsed_ns();
        high.busy += Duration::from_nanos(high_ns);
        if let Some(m) = &metrics {
            m.low_busy_ns.add(low_ns);
            m.high_busy_ns.add(high_ns);
        }
        Ok(())
    };

    for pkt in packets {
        first_uts.get_or_insert(pkt.uts);
        last_uts = pkt.uts;
        if !ring.push(pkt) {
            // Full: drain then retry once (a dropped retry stays dropped,
            // like a real ring overwrite).
            drain(&mut ring, &mut plan, &mut low, &mut high, &mut windows)?;
            ring.push(pkt);
        }
        if ring.is_full() {
            drain(&mut ring, &mut plan, &mut low, &mut high, &mut windows)?;
        }
    }
    drain(&mut ring, &mut plan, &mut low, &mut high, &mut windows)?;
    // Flush any output the low-level node buffered (partial aggregation).
    let sw = Stopwatch::start();
    let tail = plan.low.finish();
    let tail_low_ns = sw.elapsed_ns();
    low.busy += Duration::from_nanos(tail_low_ns);
    low.tuples_out += tail.len() as u64;
    let sw = Stopwatch::start();
    for tuple in tail {
        high.tuples_in += 1;
        if let Some(w) = plan.high.process(&tuple)? {
            high.tuples_out += w.rows.len() as u64;
            windows.push(w);
        }
    }
    if let Some(w) = plan.high.finish()? {
        high.tuples_out += w.rows.len() as u64;
        windows.push(w);
    }
    let tail_high_ns = sw.elapsed_ns();
    high.busy += Duration::from_nanos(tail_high_ns);

    if let Some(m) = &metrics {
        m.low_busy_ns.add(tail_low_ns);
        m.high_busy_ns.add(tail_high_ns);
        // Handoff counters are flushed once per run: they back the
        // meta-stream's view of the cascade, not per-batch decisions.
        m.low_tuples_in.add(low.tuples_in);
        m.low_tuples_out.add(low.tuples_out);
        m.high_tuples_in.add(high.tuples_in);
        m.ring_occupancy.set(0.0);
    }

    let stream_span = Duration::from_nanos(last_uts.saturating_sub(first_uts.unwrap_or(0)));
    Ok(RunReport { low, high, windows, stream_span, ring_dropped: ring.dropped(), ring_stalls: 0 })
}

/// Run a plan with the two levels on separate threads connected by a
/// bounded SPSC ring ([`sso_runtime::ring`]) — the deployment shape of
/// the real system. Produces
/// the same windows as [`run_plan`] (the operator is deterministic given
/// tuple order, which the channel preserves).
pub fn run_plan_threaded(
    mut plan: TwoLevelPlan,
    packets: impl IntoIterator<Item = Packet> + Send,
) -> Result<RunReport, OpError> {
    let (mut tx, mut rx) = sso_runtime::ring::<sso_types::Tuple>(plan.ring_capacity);
    let mut low = NodeStats { name: plan.low.name().to_string(), ..Default::default() };
    let high = NodeStats { name: "sampling-operator".to_string(), ..Default::default() };
    let mut first_uts = None;
    let mut last_uts = 0u64;
    let mut ring_stalls = 0u64;

    let result: Result<(NodeStats, Vec<WindowOutput>), OpError> = std::thread::scope(|s| {
        let consumer = s.spawn(move || -> Result<(NodeStats, Vec<WindowOutput>), OpError> {
            let mut windows = Vec::new();
            let mut stats = high;
            while let Some(tuple) = rx.pop() {
                stats.tuples_in += 1;
                let sw = Stopwatch::start();
                let out = plan.high.process(&tuple)?;
                stats.busy += sw.elapsed();
                if let Some(w) = out {
                    stats.tuples_out += w.rows.len() as u64;
                    windows.push(w);
                }
            }
            if let Some(w) = plan.high.finish()? {
                stats.tuples_out += w.rows.len() as u64;
                windows.push(w);
            }
            Ok((stats, windows))
        });
        for pkt in packets {
            first_uts.get_or_insert(pkt.uts);
            last_uts = pkt.uts;
            low.tuples_in += 1;
            let sw = Stopwatch::start();
            let forwarded = plan.low.process(&pkt);
            low.busy += sw.elapsed();
            if let Some(tuple) = forwarded {
                low.tuples_out += 1;
                match tx.push_tracked(tuple) {
                    Ok(stalled) => ring_stalls += u64::from(stalled),
                    Err(_) => break, // consumer died; its error is surfaced below
                }
            }
        }
        for tuple in plan.low.finish() {
            low.tuples_out += 1;
            match tx.push_tracked(tuple) {
                Ok(stalled) => ring_stalls += u64::from(stalled),
                Err(_) => break,
            }
        }
        drop(tx);
        match consumer.join() {
            Ok(result) => result,
            Err(payload) => Err(OpError::WorkerPanic(panic_message(payload.as_ref()))),
        }
    });
    let (high, windows) = result?;
    let stream_span = Duration::from_nanos(last_uts.saturating_sub(first_uts.unwrap_or(0)));
    Ok(RunReport { low, high, windows, stream_span, ring_dropped: 0, ring_stalls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::{PrefilterNode, SelectionNode};
    use sso_core::queries;
    use sso_netgen::datacenter_feed;
    use sso_types::Value;

    fn agg_operator(window_secs: u64) -> SamplingOperator {
        SamplingOperator::new(queries::total_sum_query(window_secs)).unwrap()
    }

    #[test]
    fn selection_plan_counts_every_packet() {
        let pkts = sso_netgen::research_feed(1).take_seconds(3);
        let n = pkts.len() as u64;
        let plan = TwoLevelPlan::new(Box::new(SelectionNode::pass_all()), agg_operator(1));
        let report = run_plan(plan, pkts).unwrap();
        assert_eq!(report.low.tuples_in, n);
        assert_eq!(report.low.tuples_out, n);
        assert_eq!(report.high.tuples_in, n);
        assert_eq!(report.ring_dropped, 0);
        assert!(!report.windows.is_empty());
    }

    #[test]
    fn aggregation_totals_match_feed() {
        let pkts = sso_netgen::research_feed(2).take_seconds(4);
        let truth: u64 = pkts.iter().map(|p| p.len as u64).sum();
        let plan = TwoLevelPlan::new(Box::new(SelectionNode::pass_all()), agg_operator(2));
        let report = run_plan(plan, pkts).unwrap();
        let total: u64 =
            report.windows.iter().flat_map(|w| &w.rows).map(|r| r.get(1).as_u64().unwrap()).sum();
        assert_eq!(total, truth);
    }

    #[test]
    fn prefilter_forwards_far_fewer_tuples() {
        let pkts = datacenter_feed(3).take_seconds(1);
        let n = pkts.len() as u64;
        let plan = TwoLevelPlan::new(Box::new(PrefilterNode::new(50_000.0)), agg_operator(1));
        let report = run_plan(plan, pkts).unwrap();
        assert_eq!(report.low.tuples_in, n);
        assert!(
            report.low.tuples_out < n / 20,
            "prefilter should forward ~1-2%: {} of {}",
            report.low.tuples_out,
            n
        );
    }

    #[test]
    fn threaded_run_matches_single_threaded() {
        let pkts = sso_netgen::research_feed(4).take_seconds(3);
        let single = run_plan(
            TwoLevelPlan::new(Box::new(SelectionNode::pass_all()), agg_operator(1)),
            pkts.clone(),
        )
        .unwrap();
        let threaded = run_plan_threaded(
            TwoLevelPlan::new(Box::new(SelectionNode::pass_all()), agg_operator(1)),
            pkts,
        )
        .unwrap();
        assert_eq!(single.windows.len(), threaded.windows.len());
        for (a, b) in single.windows.iter().zip(&threaded.windows) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.window, b.window);
        }
    }

    #[test]
    fn cpu_accounting_is_positive_and_span_matches_feed() {
        let pkts = datacenter_feed(5).take_seconds(1);
        let plan = TwoLevelPlan::new(Box::new(SelectionNode::pass_all()), agg_operator(1));
        let report = run_plan(plan, pkts).unwrap();
        assert!(report.stream_span > Duration::from_millis(900));
        assert!(report.low_cpu_pct() > 0.0);
        assert!(report.high_cpu_pct() > 0.0);
        assert!(
            (report.total_cpu_pct() - report.low_cpu_pct() - report.high_cpu_pct()).abs() < 1e-9
        );
    }

    #[test]
    fn subset_sum_plan_runs_end_to_end() {
        use sso_core::libs::subset_sum::SubsetSumOpConfig;
        let pkts = sso_netgen::research_feed(6).take_seconds(5);
        let cfg = SubsetSumOpConfig { target: 50, initial_z: 1.0, ..Default::default() };
        let spec = queries::subset_sum_query(1, cfg, false).unwrap();
        let plan = TwoLevelPlan::new(
            Box::new(SelectionNode::pass_all()),
            SamplingOperator::new(spec).unwrap(),
        );
        let report = run_plan(plan, pkts).unwrap();
        assert!(report.windows.len() >= 4);
        for w in &report.windows {
            assert!(w.rows.len() <= 60, "window sample size {}", w.rows.len());
            // Output schema: tb, srcIP, destIP, adjusted length.
            assert!(matches!(
                w.rows.first().map(|r| r.get(3)),
                Some(Value::F64(_) | Value::U64(_)) | None
            ));
        }
    }

    /// Plan whose WHERE clause runs an arbitrary scalar closure — the
    /// hook for injecting consumer-side failures.
    fn faulty_plan(
        fun: impl Fn() -> Result<Value, String> + Send + Sync + 'static,
    ) -> TwoLevelPlan {
        use sso_core::Expr;
        use std::sync::Arc;
        let mut spec = queries::total_sum_query(1);
        spec.where_clause = Some(Expr::Scalar {
            name: "FAULT",
            fun: Arc::new(move |_args: &[Value]| fun()),
            args: vec![],
        });
        TwoLevelPlan::new(Box::new(SelectionNode::pass_all()), SamplingOperator::new(spec).unwrap())
    }

    #[test]
    fn threaded_run_surfaces_consumer_errors() {
        let pkts = sso_netgen::research_feed(8).take_seconds(1);
        let plan = faulty_plan(|| Err("deliberate failure".to_string()));
        match run_plan_threaded(plan, pkts) {
            Err(OpError::BadScalarCall { function, reason }) => {
                assert_eq!(function, "FAULT");
                assert_eq!(reason, "deliberate failure");
            }
            other => panic!("expected BadScalarCall, got {other:?}"),
        }
    }

    #[test]
    fn threaded_run_reports_consumer_panics_instead_of_aborting() {
        let pkts = sso_netgen::research_feed(9).take_seconds(1);
        let plan = faulty_plan(|| panic!("injected operator panic"));
        match run_plan_threaded(plan, pkts) {
            Err(OpError::WorkerPanic(msg)) => {
                assert!(msg.contains("injected operator panic"), "payload lost: {msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn predicate_selection_reduces_stream() {
        let pkts = sso_netgen::research_feed(7).take_seconds(2);
        let plan = TwoLevelPlan::new(
            Box::new(SelectionNode::with_predicate(|p| p.len >= 1000)),
            agg_operator(1),
        );
        let report = run_plan(plan, pkts).unwrap();
        assert!(report.low.tuples_out < report.low.tuples_in);
        assert!(report.low.tuples_out > 0);
    }
}
