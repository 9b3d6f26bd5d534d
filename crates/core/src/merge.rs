//! Shard-mergeability classification (§7.2 partial aggregation).
//!
//! A query can run on N parallel operator instances — one per shard of a
//! hash-partitioned stream — exactly when its per-window state obeys a
//! partial-aggregation merge rule: the union of the per-shard outputs,
//! combined by the rule, must equal (exactly, or in distribution for
//! sampled queries) the single-instance output.
//!
//! [`shard_plan`] inspects an [`OperatorSpec`] and either produces a
//! [`ShardPlan`] — which tuple expressions to partition on, and which
//! [`MergeRule`] re-combines per-shard window outputs — or explains why
//! the query is not shard-mergeable. The runtime crate executes the
//! plan; the query front end surfaces the refusal as a diagnostic.
//!
//! [`Sampler::of`] reads a spec's sampling family and its literal
//! parameters. It is the one classification of a planned statement:
//! `shard_plan` takes its target and reservoir size from it, and the
//! static audit (`sso-analysis`) its per-sampler state bound.

use std::fmt;

use crate::agg::AggSpec;
use crate::expr::Expr;
use crate::operator::OperatorSpec;
use crate::superagg::SuperAggSpec;
use sso_types::Value;

/// How one output column combines when two shards emit rows with equal
/// key columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnRule {
    /// Part of the row identity: equal on every merged-together row.
    Key,
    /// Added across shards (`sum`, `count`).
    Sum,
    /// Minimum across shards.
    Min,
    /// Maximum across shards.
    Max,
}

/// How per-shard window outputs of one window re-combine into the
/// single-instance result.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeRule {
    /// Group keys are disjoint across shards (the partition key contains
    /// the whole non-window group key): concatenate rows.
    Concat,
    /// Rows with equal [`ColumnRule::Key`] columns combine column-wise.
    Combine(Vec<ColumnRule>),
    /// Threshold (subset-sum) sampling: re-threshold the union of the
    /// per-shard samples at the maximum per-shard threshold, then raise
    /// until the target size is met (unbiased by the tower property —
    /// see `sso_sampling::subset_sum::merge_threshold_samples`).
    SubsetSum {
        /// SELECT column holding `UMAX(sum(w), ssthreshold())`.
        weight_col: usize,
        /// Target sample size per window.
        target: usize,
    },
    /// Reservoir sampling: hypergeometric weighted re-sample of the
    /// per-shard reservoirs, weighted by per-shard tuples seen.
    Reservoir {
        /// Reservoir capacity per window.
        n: usize,
    },
    /// K-minimum-values signatures: per signature key, union the rows,
    /// sort by the hash column, keep the k smallest.
    KmvTruncate {
        /// SELECT columns identifying one signature (the supergroup key
        /// minus the window).
        key_cols: Vec<usize>,
        /// SELECT column holding the hash value.
        hash_col: usize,
        /// Signature size.
        k: usize,
    },
}

/// A shard-execution plan: how to route tuples and how to merge window
/// outputs.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Tuple-phase expressions whose values are hashed to pick a shard.
    /// Empty means round-robin (only valid with a key-free rule like
    /// [`MergeRule::Combine`] over window-only groups).
    pub partition_exprs: Vec<Expr>,
    /// The window-output merge rule.
    pub rule: MergeRule,
}

/// Why a query cannot run sharded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotMergeable {
    /// Human-readable explanation, phrased for a diagnostic note.
    pub reason: String,
}

impl NotMergeable {
    fn new(reason: impl Into<String>) -> Self {
        NotMergeable { reason: reason.into() }
    }
}

impl fmt::Display for NotMergeable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query is not shard-mergeable: {}", self.reason)
    }
}

impl std::error::Error for NotMergeable {}

/// The sampling family a planned statement runs, with the literal
/// parameters its merge rule and its state bound read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampler {
    /// No sampling clause: exact grouped aggregation.
    Exact,
    /// `ssample(w, N)` in WHERE: `target` is N when it is an integer
    /// literal, `cleaning` whether CLEANING WHEN calls `ssdo_clean`.
    SubsetSum { target: Option<u64>, cleaning: bool },
    /// `rsample(n)` in WHERE: `n` when it is an integer literal,
    /// `cleaning` whether CLEANING WHEN calls `rsdo_clean`.
    Reservoir { n: Option<u64>, cleaning: bool },
    /// `local_count(w)` in CLEANING WHEN: lossy counting, bucket width w.
    LossyCount { bucket_width: u64 },
    /// `dsample(x, c)` in WHERE: distinct sampling, capacity c.
    Distinct { capacity: u64 },
    /// `Kth_smallest_value$(h, k)` in WHERE, with a cleaning phase to
    /// evict the groups it strands: min-hash (KMV), sketch size k.
    Kmv { k: u64 },
}

impl Sampler {
    /// Classify a planned statement: the only reading of its sampling
    /// family, for [`shard_plan`] and the static audit alike.
    ///
    /// The first sampling call of WHERE decides, in pre-order: `ssample`,
    /// `rsample`, `dsample` with a positive literal capacity, or a
    /// `Kth_smallest_value$` superaggregate when CLEANING WHEN is
    /// present. Failing those, `local_count` with a positive literal
    /// width in CLEANING WHEN makes lossy counting; anything else is
    /// exact.
    pub fn of(spec: &OperatorSpec) -> Sampler {
        let cleaning_when = spec.cleaning_when.as_ref();
        let cleaning = |name: &str| cleaning_when.is_some_and(|e| calls(e, name));
        let positive = |e: Option<&Expr>| literal(e).filter(|&v| v > 0);
        let in_where = |e: &Expr| match e {
            Expr::Sfun { name: "ssample", args, .. } => Some(Sampler::SubsetSum {
                target: literal(args.get(1)),
                cleaning: cleaning("ssdo_clean"),
            }),
            Expr::Sfun { name: "rsample", args, .. } => Some(Sampler::Reservoir {
                n: literal(args.first()),
                cleaning: cleaning("rsdo_clean"),
            }),
            Expr::Sfun { name: "dsample", args, .. } => {
                positive(args.get(1)).map(|capacity| Sampler::Distinct { capacity })
            }
            Expr::SuperAgg(i) if cleaning_when.is_some() => match spec.superaggs.get(*i) {
                Some(SuperAggSpec::KthSmallest { k, .. }) if *k > 0 => {
                    Some(Sampler::Kmv { k: *k as u64 })
                }
                _ => None,
            },
            _ => None,
        };
        let in_cleaning = |e: &Expr| match e {
            Expr::Sfun { name: "local_count", args, .. } => {
                positive(args.first()).map(|bucket_width| Sampler::LossyCount { bucket_width })
            }
            _ => None,
        };
        (spec.where_clause.as_ref().and_then(|w| find(w, in_where)))
            .or_else(|| cleaning_when.and_then(|cw| find(cw, in_cleaning)))
            .unwrap_or(Sampler::Exact)
    }
}

/// The first `Some` that `f` returns over `e`'s nodes, in pre-order.
fn find<T>(e: &Expr, mut f: impl FnMut(&Expr) -> Option<T>) -> Option<T> {
    let mut found = None;
    e.walk(&mut |node| {
        if found.is_none() {
            found = f(node);
        }
    });
    found
}

/// Whether `e` calls the SFUN `name` anywhere.
fn calls(e: &Expr, name: &str) -> bool {
    find(e, |node| matches!(node, Expr::Sfun { name: n, .. } if *n == name).then_some(())).is_some()
}

/// The value of a non-negative integer literal.
fn literal(e: Option<&Expr>) -> Option<u64> {
    match e? {
        Expr::Literal(Value::U64(v)) => Some(*v),
        Expr::Literal(Value::I64(v)) => u64::try_from(*v).ok(),
        _ => None,
    }
}

/// The group-by expressions at `indices` that are data keys (not
/// window attributes).
fn data_keys(spec: &OperatorSpec, indices: impl IntoIterator<Item = usize>) -> Vec<Expr> {
    indices
        .into_iter()
        .filter(|i| !spec.window_indices.contains(i))
        .map(|i| spec.group_by[i].1.clone())
        .collect()
}

/// A sampled `family` query's plan: partition on the non-window group
/// key, which it needs, and merge by `rule`.
fn keyed(
    spec: &OperatorSpec,
    family: &str,
    rule: impl FnOnce() -> Result<MergeRule, NotMergeable>,
) -> Result<ShardPlan, NotMergeable> {
    let partition_exprs = data_keys(spec, 0..spec.group_by.len());
    if partition_exprs.is_empty() {
        return Err(NotMergeable::new(format!(
            "{family} query groups by window only; no key to partition on"
        )));
    }
    Ok(ShardPlan { partition_exprs, rule: rule()? })
}

/// Column-wise combine rules for a SELECT list of plain group variables
/// and combinable aggregates; errors on anything else.
fn combine_rules(spec: &OperatorSpec) -> Result<Vec<ColumnRule>, NotMergeable> {
    spec.select
        .iter()
        .map(|(name, expr)| match expr {
            Expr::GroupVar(_) => Ok(ColumnRule::Key),
            Expr::Aggregate(i) => match spec.aggregates.get(*i) {
                Some(AggSpec::Sum(_) | AggSpec::Count) => Ok(ColumnRule::Sum),
                Some(AggSpec::Min(_)) => Ok(ColumnRule::Min),
                Some(AggSpec::Max(_)) => Ok(ColumnRule::Max),
                Some(AggSpec::First(_) | AggSpec::Last(_)) => Err(NotMergeable::new(format!(
                    "column `{name}` takes first/last over arrival order, \
                     which sharding does not preserve"
                ))),
                None => Err(NotMergeable::new(format!(
                    "column `{name}` references an undefined aggregate slot"
                ))),
            },
            _ => Err(NotMergeable::new(format!(
                "column `{name}` is not a group variable or combinable aggregate"
            ))),
        })
        .collect()
}

/// Classify an operator spec for sharded execution.
///
/// The decision procedure, in order:
///
/// 1. Distinct sampling is refused: its hash level is one global
///    threshold shared by every group in the window.
/// 2. Sampling SFUN libraries dispatch on the library name — subset-sum
///    and reservoir sampling have dedicated distributional merge rules,
///    parameterised by [`Sampler::of`]; the heavy-hitter (lossy
///    counting) library combines column-wise.
/// 3. Queries with a declared SUPERGROUP partition on the supergroup
///    key, making every supergroup's state shard-local (min-hash
///    signatures additionally get the KMV union-truncate rule so they
///    stay correct under any partitioning).
/// 4. Plain aggregations partition on the non-window group key
///    (disjoint groups ⇒ concatenate), or — grouped by window only —
///    round-robin with column-wise combining.
pub fn shard_plan(spec: &OperatorSpec) -> Result<ShardPlan, NotMergeable> {
    let libs: Vec<&str> = spec.sfun_libs.iter().map(|l| l.name()).collect();

    if libs.contains(&"distinct_sampling_state") {
        return Err(NotMergeable::new(
            "distinct sampling keeps one global hash level per window; \
             per-shard levels diverge and the union over-represents \
             low-level shards",
        ));
    }
    if libs.len() > 1 {
        return Err(NotMergeable::new(format!(
            "query uses {} stateful-function libraries; merge rules are \
             defined per single library",
            libs.len()
        )));
    }

    match libs.first().copied() {
        Some("subsetsum_sampling_state") => {
            let target = match Sampler::of(spec) {
                Sampler::SubsetSum { target: Some(t), .. } => t as usize,
                Sampler::SubsetSum { target: None, .. } => {
                    return Err(NotMergeable::new("ssample() target sample size is not a literal"))
                }
                _ => return Err(NotMergeable::new("subset-sum query has no ssample() predicate")),
            };
            let weight_col =
                spec.select.iter().position(|(_, e)| calls(e, "ssthreshold")).ok_or_else(|| {
                    NotMergeable::new(
                        "subset-sum SELECT has no ssthreshold() adjusted-weight column",
                    )
                })?;
            // Without cleaning the threshold is fixed and identical on
            // every shard: per-shard samples are independent threshold
            // samples and plain concatenation is already unbiased.
            keyed(spec, "subset-sum", || match spec.cleaning_when {
                None => Ok(MergeRule::Concat),
                Some(_) => Ok(MergeRule::SubsetSum { weight_col, target }),
            })
        }
        Some("reservoir_sampling_state") => {
            let n = match Sampler::of(spec) {
                Sampler::Reservoir { n: Some(n), .. } => n as usize,
                Sampler::Reservoir { n: None, .. } => {
                    return Err(NotMergeable::new("rsample() reservoir size is not a literal"))
                }
                _ => return Err(NotMergeable::new("reservoir query has no rsample() predicate")),
            };
            keyed(spec, "reservoir", || Ok(MergeRule::Reservoir { n }))
        }
        // Partitioning on the group key keeps each candidate's count on
        // one shard; Combine (rather than Concat) also covers the
        // degenerate overlap where two shards report the same key.
        Some("heavy_hitter_state") => {
            keyed(spec, "heavy-hitters", || Ok(MergeRule::Combine(combine_rules(spec)?)))
        }
        Some(other) => Err(NotMergeable::new(format!(
            "stateful-function library `{other}` has no registered merge rule"
        ))),
        None if !spec.supergroup_indices.is_empty() => {
            let partition_exprs = data_keys(spec, spec.supergroup_indices.iter().copied());
            if partition_exprs.is_empty() {
                return Err(NotMergeable::new(
                    "SUPERGROUP key has no non-window attribute to partition on",
                ));
            }
            // Min-hash signatures: if a Kth_smallest_value$ superagg's
            // group variable is a SELECT column, the KMV union-truncate
            // rule merges signatures exactly under any partitioning.
            let kth = spec.superaggs.iter().find_map(|s| match s {
                SuperAggSpec::KthSmallest { expr: Expr::GroupVar(g), k } => Some((*g, *k)),
                _ => None,
            });
            if let Some((g, k)) = kth {
                if let Some(hash_col) =
                    spec.select.iter().position(|(_, e)| matches!(e, Expr::GroupVar(v) if *v == g))
                {
                    let key_cols = (0..spec.select.len())
                        .filter(|&i| {
                            matches!(&spec.select[i].1,
                                Expr::GroupVar(v) if spec.supergroup_indices.contains(v))
                        })
                        .collect();
                    return Ok(ShardPlan {
                        partition_exprs,
                        rule: MergeRule::KmvTruncate { key_cols, hash_col, k },
                    });
                }
            }
            // Any other supergroup query: all supergroup state lives on
            // the shard owning the supergroup key, so outputs are
            // disjoint.
            Ok(ShardPlan { partition_exprs, rule: MergeRule::Concat })
        }
        None if !spec.superaggs.is_empty() => Err(NotMergeable::new(
            "window-global superaggregates cannot be recomputed from \
             per-shard outputs",
        )),
        None => {
            let partition_exprs = data_keys(spec, 0..spec.group_by.len());
            if partition_exprs.is_empty() {
                // Window-only grouping: any shard may own any row of the
                // (single) group; combine column-wise.
                Ok(ShardPlan { partition_exprs, rule: MergeRule::Combine(combine_rules(spec)?) })
            } else {
                Ok(ShardPlan { partition_exprs, rule: MergeRule::Concat })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libs::distinct::DistinctOpConfig;
    use crate::libs::reservoir::ReservoirOpConfig;
    use crate::libs::subset_sum::SubsetSumOpConfig;
    use crate::queries;

    #[test]
    fn total_sum_is_round_robin_combine() {
        let plan = shard_plan(&queries::total_sum_query(60)).unwrap();
        assert!(plan.partition_exprs.is_empty());
        assert_eq!(
            plan.rule,
            MergeRule::Combine(vec![ColumnRule::Key, ColumnRule::Sum, ColumnRule::Sum])
        );
    }

    #[test]
    fn dynamic_subset_sum_gets_threshold_merge() {
        let cfg = SubsetSumOpConfig { target: 100, initial_z: 1.0, ..Default::default() };
        let spec = queries::subset_sum_query(60, cfg, false).unwrap();
        let plan = shard_plan(&spec).unwrap();
        assert_eq!(plan.partition_exprs.len(), 3); // srcIP, destIP, uts
        assert_eq!(plan.rule, MergeRule::SubsetSum { weight_col: 3, target: 100 });
    }

    #[test]
    fn basic_subset_sum_concatenates() {
        let spec = queries::basic_subset_sum_query(60, 600.0).unwrap();
        let plan = shard_plan(&spec).unwrap();
        assert_eq!(plan.rule, MergeRule::Concat, "fixed threshold needs no re-threshold");
    }

    #[test]
    fn heavy_hitters_combine_columns() {
        let spec = queries::heavy_hitters_query(60, 100, Some(50)).unwrap();
        let plan = shard_plan(&spec).unwrap();
        assert_eq!(plan.partition_exprs.len(), 1); // srcIP
        assert_eq!(
            plan.rule,
            MergeRule::Combine(vec![
                ColumnRule::Key,
                ColumnRule::Key,
                ColumnRule::Sum,
                ColumnRule::Sum
            ])
        );
    }

    #[test]
    fn minhash_gets_kmv_truncate_on_supergroup_key() {
        let spec = queries::minhash_query(60, 10).unwrap();
        let plan = shard_plan(&spec).unwrap();
        assert_eq!(plan.partition_exprs.len(), 1); // srcIP
        assert_eq!(plan.rule, MergeRule::KmvTruncate { key_cols: vec![1], hash_col: 2, k: 10 });
    }

    #[test]
    fn reservoir_gets_weighted_merge() {
        let cfg = ReservoirOpConfig { n: 25, ..Default::default() };
        let spec = queries::reservoir_query(60, cfg).unwrap();
        let plan = shard_plan(&spec).unwrap();
        assert_eq!(plan.partition_exprs.len(), 2); // srcIP, destIP
        assert_eq!(plan.rule, MergeRule::Reservoir { n: 25 });
    }

    #[test]
    fn sampler_of_every_builder() {
        let ss = SubsetSumOpConfig { target: 100, initial_z: 1.0, ..Default::default() };
        let cases = [
            (queries::total_sum_query(60), Sampler::Exact),
            (
                queries::subset_sum_query(60, ss, false).unwrap(),
                Sampler::SubsetSum { target: Some(100), cleaning: true },
            ),
            (
                queries::heavy_hitters_query(60, 100, Some(50)).unwrap(),
                Sampler::LossyCount { bucket_width: 100 },
            ),
            (queries::minhash_query(60, 10).unwrap(), Sampler::Kmv { k: 10 }),
            (
                queries::reservoir_query(60, ReservoirOpConfig { n: 25, ..Default::default() })
                    .unwrap(),
                Sampler::Reservoir { n: Some(25), cleaning: true },
            ),
        ];
        for (spec, expected) in cases {
            assert_eq!(Sampler::of(&spec), expected);
        }
    }

    #[test]
    fn distinct_sampling_is_refused() {
        let cfg = DistinctOpConfig { capacity: 256, carry_level: true };
        let spec = queries::distinct_sample_query(60, cfg).unwrap();
        let err = shard_plan(&spec).unwrap_err();
        assert!(err.reason.contains("global hash level"), "{}", err.reason);
    }
}
