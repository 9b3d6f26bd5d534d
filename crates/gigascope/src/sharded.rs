//! Sharded two-level plans: one low-level node on the caller thread
//! feeding `N` high-level sampling-operator shards via `sso-runtime`'s
//! hash-partitioned rings, with window-aligned merge-finalize.

use sso_core::{shard_plan, NotMergeable, OpError, OperatorSpec};
use sso_runtime::{run_sharded, RuntimeConfig, RuntimeError, ShardedReport};
use sso_types::Packet;

use crate::engine::LowSource;
use crate::nodes::LowLevelQuery;

/// The result of a sharded plan run: the runtime's own report, whose
/// [`ShardedReport::pull`] is the low-level node's busy time.
pub type ShardedRunReport = ShardedReport;

/// Why a sharded plan run failed.
#[derive(Debug)]
pub enum ShardedRunError {
    /// The query is not shard-mergeable (see [`sso_core::shard_plan`]).
    NotMergeable(NotMergeable),
    /// The runtime failed (worker error/panic, bad config).
    Runtime(RuntimeError),
}

impl std::fmt::Display for ShardedRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedRunError::NotMergeable(e) => write!(f, "{e}"),
            ShardedRunError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardedRunError {}

impl From<NotMergeable> for ShardedRunError {
    fn from(e: NotMergeable) -> Self {
        ShardedRunError::NotMergeable(e)
    }
}

impl From<RuntimeError> for ShardedRunError {
    fn from(e: RuntimeError) -> Self {
        ShardedRunError::Runtime(e)
    }
}

/// Run a two-level plan with the high level sharded `cfg.shards` ways.
///
/// The low-level node runs inline on the calling thread (it reduces the
/// packet stream before the fan-out, like the paper's low-level query
/// below a stream operator); what it forwards is hash-partitioned on
/// the query's partition key and processed by one operator instance per
/// shard; window outputs merge per the query's merge rule. Behind a node
/// with a pass test ([`LowLevelQuery::pass_test`]) the rings carry the
/// packets themselves and each shard builds a row only for what its
/// operator needs one for; behind any other node they carry its rows.
///
/// `make_spec` builds a fresh spec per shard so stateful-function
/// libraries (and their seeded RNG streams) are never shared across
/// threads — pass the same builder you would use for the single-instance
/// plan.
pub fn run_plan_sharded<F>(
    low: Box<dyn LowLevelQuery>,
    make_spec: F,
    cfg: &RuntimeConfig,
    packets: impl IntoIterator<Item = Packet>,
) -> Result<ShardedRunReport, ShardedRunError>
where
    F: Fn(usize) -> Result<OperatorSpec, OpError> + Sync,
{
    let probe = make_spec(0).map_err(|source| RuntimeError::Op { shard: 0, source })?;
    let plan = shard_plan(&probe)?;
    run_plan_sharded_with(low, &plan, make_spec, cfg, packets)
}

/// [`run_plan_sharded`] with an explicit, pre-classified
/// [`sso_core::ShardPlan`] instead of one probed from `make_spec(0)`.
///
/// This is the entry point for **sampling-budget splitting**: a caller
/// can classify the full-budget query (so the merge rule keeps the
/// caller's total target) while `make_spec` hands each shard a spec
/// whose sample target is `total / shards`. The union of per-partition
/// threshold samples, re-thresholded at the maximum shard threshold,
/// is an unbiased sample of the whole stream — same estimator quality
/// as a single instance — while each shard's sampling state (and its
/// cleaning work) stays proportionally smaller.
pub fn run_plan_sharded_with<F>(
    low: Box<dyn LowLevelQuery>,
    plan: &sso_core::ShardPlan,
    make_spec: F,
    cfg: &RuntimeConfig,
    packets: impl IntoIterator<Item = Packet>,
) -> Result<ShardedRunReport, ShardedRunError>
where
    F: Fn(usize) -> Result<OperatorSpec, OpError> + Sync,
{
    // Drive the low-level node lazily from inside the runtime's pump:
    // the pull runs on the calling thread, so the node needs no Sync.
    // The pump times each piece's pull — the packet iterator and the
    // node, and on the piece that runs out of packets the node's
    // `finish()` pass — and that time is the node's busy time.
    let mut source = LowSource::new(low, packets);
    let report = if source.forwards_packets() {
        run_sharded(plan, make_spec, cfg, source.packets())
    } else {
        run_sharded(plan, make_spec, cfg, std::iter::from_fn(|| source.next_row()))
    }?;
    if let Some(registry) = &cfg.registry {
        let (low, _) = source.finish();
        registry.counter("low.tuples_in").add(low.tuples_in);
        registry.counter("low.tuples_out").add(low.tuples_out);
        registry.counter("low.busy_ns").add(report.pull.as_nanos() as u64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_plan, TwoLevelPlan};
    use crate::nodes::SelectionNode;
    use sso_core::{queries, SamplingOperator};
    use sso_netgen::research_feed;
    use std::time::Duration;

    #[test]
    fn sharded_total_sum_matches_single_instance_exactly() {
        let pkts = research_feed(21).take_seconds(3);
        let single = run_plan(
            TwoLevelPlan::new(
                Box::new(SelectionNode::pass_all()),
                SamplingOperator::new(queries::total_sum_query(1)).unwrap(),
            ),
            pkts.clone(),
        )
        .unwrap();
        for shards in [1, 2, 8] {
            let sharded = run_plan_sharded(
                Box::new(SelectionNode::pass_all()),
                |_| Ok(queries::total_sum_query(1)),
                &RuntimeConfig::new(shards),
                pkts.clone(),
            )
            .unwrap();
            assert_eq!(single.windows.len(), sharded.windows.len());
            for (a, b) in single.windows.iter().zip(&sharded.windows) {
                assert_eq!(a.window, b.window);
                assert_eq!(a.rows, b.rows, "{shards} shards drifted");
            }
            assert_eq!(sharded.router.tuples(), pkts.len() as u64);
            assert_eq!(sharded.tuples_processed(), pkts.len() as u64);
        }
    }

    #[test]
    fn low_busy_is_timed_whatever_the_registry() {
        use sso_obs::Registry;
        let pkts = research_feed(23).take_seconds(1);
        let enabled = Registry::new();
        let registries = [None, Some(Registry::disabled()), Some(enabled.clone())];
        for (registry, what) in registries.into_iter().zip(["none", "disabled", "enabled"]) {
            let mut cfg = RuntimeConfig::new(2);
            cfg.registry = registry;
            let report = run_plan_sharded(
                Box::new(SelectionNode::pass_all()),
                |_| Ok(queries::total_sum_query(1)),
                &cfg,
                pkts.clone(),
            )
            .unwrap();
            assert!(report.pull > Duration::ZERO, "{what} registry: the pull time is 0");
        }
        let busy = enabled.snapshot().get("low.busy_ns").map(|m| m.scalar()).unwrap_or(0.0);
        assert!(busy > 0.0, "the supplied registry's low.busy_ns is 0");
    }

    #[test]
    fn non_mergeable_queries_are_refused() {
        use sso_core::libs::distinct::DistinctOpConfig;
        let pkts = research_feed(22).take_seconds(1);
        let err = run_plan_sharded(
            Box::new(SelectionNode::pass_all()),
            |_| {
                let cfg = DistinctOpConfig { capacity: 64, carry_level: true };
                queries::distinct_sample_query(1, cfg)
            },
            &RuntimeConfig::new(2),
            pkts,
        )
        .unwrap_err();
        assert!(matches!(err, ShardedRunError::NotMergeable(_)), "got: {err}");
    }
}
