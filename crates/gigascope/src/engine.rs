//! The two-level query engine: packet iterator → low-level node →
//! high-level sampling operator(s), with per-node busy-time accounting.
//!
//! The packet loop is written once. `LowSource` is the low half: pull
//! a packet, read it in place, pay the tuple copy only for what the
//! node forwards. [`run_inline`] is the high half: fill a recycled
//! batch of [`BATCH`] tuples from the source, run every operator of a
//! [`SharedQueryPlan`] over it, hand each closed window to the caller's
//! sink. [`run_plan`] and [`crate::run_fanout_shared`] build a plan and
//! file the windows; [`crate::run_plan_sharded_with`] feeds the same
//! source to `sso-runtime`'s pump instead.
//!
//! Where [`run_inline`] can, the batch holds the packets themselves and
//! each operator pays the copy only for what enters its §6.4 body.
//!
//! The paper's performance figures report "% of a CPU" while keeping up
//! with a live feed. Our equivalent: each node's accumulated busy time
//! divided by the *stream's own span* (the time the live feed would
//! have taken to deliver the same packets). The comparisons Figures 5–6
//! make — operator vs. plain selection, relaxed vs. non-relaxed,
//! selection subquery vs. basic-subset-sum prefilter — are ratios of
//! these, and survive the hardware change.

use std::time::Duration;

use sso_core::{OpError, OperatorMetrics, Predicate, Record, SamplingOperator, WindowOutput};
use sso_obs::{Registry, Stopwatch};
use sso_types::{Packet, Tuple};

use crate::nodes::LowLevelQuery;
use crate::shared::{SharedGroup, SharedQueryPlan};

/// Tuples per inline batch: the bounded buffer between the two levels.
pub const BATCH: usize = 4096;

/// A two-level query plan: one low-level reduction node feeding one
/// high-level sampling operator.
pub struct TwoLevelPlan {
    /// The low-level (packet-side) node.
    pub low: Box<dyn LowLevelQuery>,
    /// The high-level node.
    pub high: SamplingOperator,
    /// Telemetry registry; `None` = run unobserved (NodeStats only).
    pub registry: Option<Registry>,
}

impl TwoLevelPlan {
    /// Build an unobserved plan.
    pub fn new(low: Box<dyn LowLevelQuery>, high: SamplingOperator) -> Self {
        TwoLevelPlan { low, high, registry: None }
    }

    /// Record the run's telemetry (node handoff counters, operator
    /// metrics) into `registry`.
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.high.set_metrics(OperatorMetrics::register(&registry, ""));
        self.registry = Some(registry);
        self
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

/// The packet iterator, counting the packets pulled and the span of
/// capture time they cover.
struct Feed<I> {
    packets: I,
    pulled: u64,
    first_uts: Option<u64>,
    last_uts: u64,
}

impl<I: Iterator<Item = Packet>> Iterator for Feed<I> {
    type Item = Packet;

    #[inline]
    fn next(&mut self) -> Option<Packet> {
        let pkt = self.packets.next()?;
        self.first_uts.get_or_insert(pkt.uts);
        self.last_uts = pkt.uts;
        self.pulled += 1;
        Some(pkt)
    }
}

/// The low half of every execution mode: a packet iterator read in
/// place by one low-level node. The source never reads the clock: the
/// caller times `next` as its loop can afford (per batch inline, a
/// sampled span on the sharded pump) and fills in `busy`.
pub(crate) struct LowSource<I> {
    low: Box<dyn LowLevelQuery>,
    packets: Feed<I>,
    /// The node's `finish()` output, once the packets have run out.
    tail: Option<std::vec::IntoIter<Tuple>>,
    stats: NodeStats,
}

impl<I: Iterator<Item = Packet>> LowSource<I> {
    /// `low` over `packets`.
    pub(crate) fn new(
        low: Box<dyn LowLevelQuery>,
        packets: impl IntoIterator<IntoIter = I>,
    ) -> Self {
        let stats = NodeStats { name: low.name().to_string(), ..Default::default() };
        let packets = packets.into_iter();
        let packets = Feed { packets, pulled: 0, first_uts: None, last_uts: 0 };
        LowSource { low, packets, tail: None, stats }
    }

    /// Write the next forwarded tuple into `slot`, the pull
    /// `sso_runtime::Refill` takes; `false` at end of stream. Once the
    /// packets run out the node's `finish()` tail is moved out tuple by
    /// tuple, and the packet iterator is never polled again.
    #[inline]
    pub(crate) fn next(&mut self, slot: &mut Tuple) -> bool {
        loop {
            if let Some(rest) = self.tail.as_mut() {
                let Some(tuple) = rest.next() else { return false };
                *slot = tuple;
                self.stats.tuples_out += 1;
                return true;
            }
            match self.packets.next() {
                Some(pkt) => {
                    if self.low.process_into(&pkt, slot) {
                        self.stats.tuples_out += 1;
                        return true;
                    }
                }
                None => self.tail = Some(self.low.finish().into_iter()),
            }
        }
    }

    /// Fill `batch` with the next [`BATCH`] packets the node forwards,
    /// read in place by its pass test; `false` at end of stream.
    fn next_packets(&mut self, batch: &mut Vec<Packet>) -> bool {
        let pass = self.low.pass_test().expect("a node that forwards packets");
        batch.clear();
        while batch.len() < BATCH {
            let Some(pkt) = self.packets.next() else { return false };
            if pass(&pkt) {
                self.stats.tuples_out += 1;
                batch.push(pkt);
            }
        }
        true
    }

    /// The node's accounting (`busy` is the caller's to fill) and the
    /// span the live feed would have taken to deliver the packets
    /// (last uts − first uts).
    pub(crate) fn finish(self) -> (NodeStats, Duration) {
        let Feed { pulled, first_uts, last_uts, .. } = self.packets;
        let span = last_uts.saturating_sub(first_uts.unwrap_or(0));
        (NodeStats { tuples_in: pulled, ..self.stats }, Duration::from_nanos(span))
    }
}

/// What [`run_inline`] measured.
#[derive(Debug)]
pub struct InlineRun {
    /// Low-level node accounting; `busy` covers filling the batches:
    /// the packet pull, the node and the shared prefilter.
    pub low: NodeStats,
    /// One entry per share group, in plan order. `tuples_in` counts
    /// tuples past the prefilter, `tuples_out` output rows.
    pub groups: Vec<NodeStats>,
    /// The span the live feed would have taken to deliver the packets.
    pub stream_span: Duration,
}

impl InlineRun {
    /// Add the run's handoff counters to `registry`: `low.*` for the
    /// low-level node, `high.*` summed over the groups.
    pub fn publish(&self, registry: &Registry) {
        registry.counter("low.tuples_in").add(self.low.tuples_in);
        registry.counter("low.tuples_out").add(self.low.tuples_out);
        registry.counter("low.busy_ns").add(self.low.busy.as_nanos() as u64);
        let high_in: u64 = self.groups.iter().map(|g| g.tuples_in).sum();
        let high_busy: Duration = self.groups.iter().map(|g| g.busy).sum();
        registry.counter("high.tuples_in").add(high_in);
        registry.counter("high.busy_ns").add(high_busy.as_nanos() as u64);
    }
}

/// The inline driver: run every operator of `plan` over `packets` on
/// the calling thread, in batch order.
///
/// Up to [`BATCH`] forwarded tuples that pass the shared prefilter (a
/// tuple it cannot be evaluated on passes: fail-open) are written into
/// a recycled batch; then each group's operator, in plan order, runs
/// over the whole batch in one [`SamplingOperator::process_batch`]
/// call. An operator decides from its own state and its own tuple
/// sequence, which are what tuple-major order would give it, so the
/// output is identical. Every closed window goes to
/// `sink(group, window, at_end)` as it closes — per group in window
/// order, `at_end` set for those the end-of-stream flush closes. The
/// first error ends the run: within a batch that is the first failing
/// group in plan order, not the earliest failing tuple.
///
/// The batch holds the packets themselves when the low node forwards
/// packets unchanged ([`LowLevelQuery::pass_test`]), there is no shared
/// prefilter, and every operator has a run path
/// ([`SamplingOperator::has_run_path`]): each operator then builds a
/// tuple only for what enters its §6.4 body, and that copy is timed as
/// the group's, not the low node's.
///
/// The clock is read once per batch for the fill and once per batch per
/// group: at 100k+ pkt/s a per-tuple pair costs as much as the work it
/// measures and would wash out the Figure 6 comparison.
pub fn run_inline(
    low: Box<dyn LowLevelQuery>,
    plan: &mut SharedQueryPlan,
    packets: impl IntoIterator<Item = Packet>,
    mut sink: impl FnMut(usize, WindowOutput, bool),
) -> Result<InlineRun, OpError> {
    let mut source = LowSource::new(low, packets);
    let mut groups: Vec<NodeStats> = (0..plan.groups.len())
        .map(|i| NodeStats { name: format!("share-group-{i}"), ..Default::default() })
        .collect();
    let (ops, nodes) = (&mut plan.groups[..], &mut groups[..]);
    let low_busy = if plan.prefilter.is_none()
        && ops.iter().all(|g| g.op.has_run_path())
        && source.low.pass_test().is_some()
    {
        drive(ops, nodes, &mut sink, |batch: &mut Vec<Packet>| {
            let more = source.next_packets(batch);
            (batch.len(), more)
        })?
    } else {
        let mut prefilter = plan.prefilter.as_ref().map(Predicate::new);
        // Scratch, not a queue: the tuples are overwritten in place
        // batch after batch, so the steady state allocates nothing.
        drive(ops, nodes, &mut sink, |batch: &mut Vec<Tuple>| {
            let mut live = 0usize;
            while live < BATCH {
                if live == batch.len() {
                    batch.push(Tuple::empty());
                }
                if !source.next(&mut batch[live]) {
                    return (live, false);
                }
                let keep = match &mut prefilter {
                    Some(pred) => pred.test(&batch[live]).unwrap_or(true),
                    None => true,
                };
                live += usize::from(keep);
            }
            (live, true)
        })?
    };
    let (mut low, stream_span) = source.finish();
    low.busy = low_busy;
    Ok(InlineRun { low, groups, stream_span })
}

/// [`run_inline`]'s loop over one kind of batch: `fill` writes the next
/// batch's records and says how many there are and whether more follow;
/// each group then runs over them, timed into its entry of `nodes`.
/// Returns the time spent filling.
fn drive<R: Record>(
    groups: &mut [SharedGroup],
    nodes: &mut [NodeStats],
    sink: &mut impl FnMut(usize, WindowOutput, bool),
    mut fill: impl FnMut(&mut Vec<R>) -> (usize, bool),
) -> Result<Duration, OpError> {
    let (mut batch, mut low_busy, mut more) = (Vec::new(), Duration::ZERO, true);
    while more {
        let sw = Stopwatch::start();
        let live;
        (live, more) = fill(&mut batch);
        low_busy += sw.elapsed();
        for (gi, (group, stats)) in groups.iter_mut().zip(&mut *nodes).enumerate() {
            let sw = Stopwatch::start();
            stats.tuples_in += live as u64;
            let rows_out = &mut stats.tuples_out;
            group.op.process_batch(&batch[..live], |w| {
                *rows_out += w.rows.len() as u64;
                sink(gi, w, false);
            })?;
            if !more {
                if let Some(w) = group.op.finish()? {
                    stats.tuples_out += w.rows.len() as u64;
                    sink(gi, w, true);
                }
            }
            stats.busy += sw.elapsed();
        }
    }
    Ok(low_busy)
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
    /// Always 0: the packet iterator is read in place and the batch is
    /// drained before it is refilled, so the inline engine has nowhere
    /// to drop. Kept because the benchmark reads it.
    pub ring_dropped: u64,
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

/// Run a two-level plan on the calling thread: [`run_inline`] over a
/// one-group plan with no prefilter.
pub fn run_plan(
    plan: TwoLevelPlan,
    packets: impl IntoIterator<Item = Packet>,
) -> Result<RunReport, OpError> {
    let TwoLevelPlan { low, high, registry } = plan;
    let mut shared = SharedQueryPlan::unshared([(String::new(), high)]);
    let mut windows = Vec::new();
    let mut run = run_inline(low, &mut shared, packets, |_, w, _| windows.push(w))?;
    if let Some(registry) = &registry {
        run.publish(registry);
    }
    let high = NodeStats { name: "sampling-operator".to_string(), ..run.groups.remove(0) };
    Ok(RunReport { low: run.low, high, windows, stream_span: run.stream_span, ring_dropped: 0 })
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
