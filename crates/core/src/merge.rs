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
//! [`Sampler`] is the one table of sampling families: [`Sampler::of`]
//! reads a spec's family and its literal parameters, `shard_plan`
//! dispatches on it, and the static audit (`sso-analysis`) takes its
//! label and its closed-form cap on live groups from it.

use std::fmt;

use crate::agg::AggSpec;
use crate::expr::Expr;
use crate::libs::reservoir::ReservoirOpConfig;
use crate::libs::subset_sum::SubsetSumOpConfig;
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

/// The size argument of a sampling call, as the plan holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// An integer literal.
    Literal(u64),
    /// An argument that is not an integer literal; a label prints `?`.
    NotLiteral,
    /// The plan makes no such call where the family reads it.
    Missing,
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Size::Literal(v) => write!(f, "{v}"),
            Size::NotLiteral | Size::Missing => f.write_str("?"),
        }
    }
}

/// The sampling family a planned statement runs: the one table of
/// families. It names the family, reads its parameters from the plan,
/// and gives the label, the closed-form cap on live groups and the facts
/// [`shard_plan`] dispatches on.
///
/// Each family caps its live groups per supergroup with a cleaning
/// phase that fires at a trigger threshold; the cap is that threshold
/// plus the one admission that trips it:
///
/// * **subset-sum** (§6.1): `ssdo_clean` fires past `γ·N`, so
///   `⌈γ·N⌉ + 1`. Without it (the *basic* variant) nothing caps the table.
/// * **reservoir** (§6.6): `rsdo_clean` fires past `T·n`, so `T·n + 1`.
/// * **lossy counting** (§6.6): bucket width `w` over `N` rows leaves at
///   most `w·(ln(N/w) + 1)` entries (ε = 1/w ⇒ (1/ε)·log εN).
/// * **distinct sampling** (Gibbons, the paper's ref \[19\]): `ddo_clean`
///   raises the hash level past the capacity `c`, so `c + 1`. Without it
///   (the *basic* variant) nothing caps the table.
/// * **min-hash / KMV** (§6.6): the k smallest hashes survive cleaning,
///   so `k + 1`.
///
/// `γ` and `T` are the libraries' default configs, so a library retune
/// cannot silently invalidate the audit. A size that is not a literal,
/// a missing cleaning phase or two families in one statement give no
/// cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sampler {
    /// No sampling library and no `Kth_smallest_value$`: exact grouped
    /// aggregation.
    Exact,
    /// The subset-sum library: `target` is `ssample(w, N)`'s N in WHERE,
    /// `cleaning` whether CLEANING WHEN calls `ssdo_clean`.
    SubsetSum { target: Size, cleaning: bool },
    /// The reservoir library: `n` is `rsample(n)`'s argument in WHERE,
    /// `cleaning` whether CLEANING WHEN calls `rsdo_clean`.
    Reservoir { n: Size, cleaning: bool },
    /// The heavy-hitter library: lossy counting with `local_count(w)`'s
    /// bucket width in CLEANING WHEN.
    LossyCount { bucket_width: Size },
    /// The distinct-sampling library: `dsample(x, c)`'s capacity in
    /// WHERE, `cleaning` whether CLEANING WHEN calls `ddo_clean`.
    Distinct { capacity: Size, cleaning: bool },
    /// A `Kth_smallest_value$(h, k)` superaggregate with no library:
    /// min-hash (KMV), sketch size k. `hash` is h when it is a group
    /// variable, the one the KMV merge rule sorts by; `cleaning` whether
    /// the statement has CLEANING WHEN.
    Kmv { k: u64, hash: Option<usize>, cleaning: bool },
    /// A library that belongs to no family (one registered through the
    /// `SfunLibrary` API), by name.
    Library(&'static str),
    /// Two or more of the above in one statement, in library order and
    /// KMV last.
    Mixed(Vec<Sampler>),
}

impl Sampler {
    /// Classify a planned statement by what the plan attaches: each SFUN
    /// library on `spec.sfun_libs` is one family, and a
    /// `Kth_smallest_value$` slot is KMV. The only reading of a
    /// statement's family, for [`shard_plan`] and the static audit alike.
    /// A size is the last argument of the first call of its clause, in
    /// pre-order.
    pub fn of(spec: &OperatorSpec) -> Sampler {
        let size = |clause: Option<&Expr>, call: &str| {
            let literal_arg = |e: &Expr| match e {
                Expr::Sfun { name, args, .. } if *name == call => {
                    Some(literal(args.last()).map_or(Size::NotLiteral, Size::Literal))
                }
                _ => None,
            };
            clause.and_then(|c| find(c, literal_arg)).unwrap_or(Size::Missing)
        };
        let (where_clause, cleaning_when) =
            (spec.where_clause.as_ref(), spec.cleaning_when.as_ref());
        let cleaning = |call: &str| cleaning_when.is_some_and(|e| calls(e, call));
        let mut families: Vec<Sampler> = spec
            .sfun_libs
            .iter()
            .map(|lib| match lib.name() {
                "subsetsum_sampling_state" => Sampler::SubsetSum {
                    target: size(where_clause, "ssample"),
                    cleaning: cleaning("ssdo_clean"),
                },
                "reservoir_sampling_state" => Sampler::Reservoir {
                    n: size(where_clause, "rsample"),
                    cleaning: cleaning("rsdo_clean"),
                },
                "heavy_hitter_state" => {
                    Sampler::LossyCount { bucket_width: size(cleaning_when, "local_count") }
                }
                "distinct_sampling_state" => Sampler::Distinct {
                    capacity: size(where_clause, "dsample"),
                    cleaning: cleaning("ddo_clean"),
                },
                other => Sampler::Library(other),
            })
            .collect();
        families.extend(spec.superaggs.iter().find_map(|s| match s {
            SuperAggSpec::KthSmallest { expr, k } => Some(Sampler::Kmv {
                k: *k as u64,
                hash: if let Expr::GroupVar(g) = expr { Some(*g) } else { None },
                cleaning: cleaning_when.is_some(),
            }),
            _ => None,
        }));
        match families.len() {
            0 => Sampler::Exact,
            1 => families.remove(0),
            _ => Sampler::Mixed(families),
        }
    }

    /// The family's size argument: its call, what the argument is, and
    /// the size.
    fn size(&self) -> Option<(&'static str, &'static str, Size)> {
        match *self {
            Sampler::SubsetSum { target, .. } => Some(("ssample()", "target sample size", target)),
            Sampler::Reservoir { n, .. } => Some(("rsample()", "reservoir size", n)),
            Sampler::LossyCount { bucket_width } => {
                Some(("local_count()", "bucket width", bucket_width))
            }
            Sampler::Distinct { capacity, .. } => Some(("dsample()", "capacity", capacity)),
            _ => None,
        }
    }

    /// Human/JSON label, e.g. `subset-sum(N=100)`; a size that is not a
    /// literal prints as `?`, and two families join with ` + `.
    pub fn label(&self) -> String {
        let basic = |cleaning: bool| if cleaning { "" } else { "basic-" };
        match self {
            Sampler::Exact => "exact".to_string(),
            Sampler::SubsetSum { target, cleaning } => {
                format!("{}subset-sum(N={target})", basic(*cleaning))
            }
            Sampler::Reservoir { n, cleaning } => format!("{}reservoir(n={n})", basic(*cleaning)),
            Sampler::LossyCount { bucket_width } => format!("lossy-count(w={bucket_width})"),
            Sampler::Distinct { capacity, cleaning } => {
                format!("{}distinct(c={capacity})", basic(*cleaning))
            }
            Sampler::Kmv { k, cleaning, .. } => format!("{}kmv(k={k})", basic(*cleaning)),
            Sampler::Library(name) => format!("library({name})"),
            Sampler::Mixed(families) => {
                families.iter().map(Sampler::label).collect::<Vec<_>>().join(" + ")
            }
        }
    }

    /// The closed-form cap on live groups *per supergroup*, given the
    /// rows per window when known (lossy counting's cap depends on it).
    /// `None` means the sampler imposes no cap and only the input
    /// envelopes bound the table.
    pub fn groups_cap(&self, rows_per_window: Option<u64>) -> Option<u64> {
        match *self {
            Sampler::SubsetSum { target: Size::Literal(n), cleaning: true } => {
                let gamma = SubsetSumOpConfig::default().gamma;
                Some((gamma * n as f64).ceil() as u64 + 1)
            }
            Sampler::Reservoir { n: Size::Literal(n), cleaning: true } => {
                let t = u64::from(ReservoirOpConfig::default().t_factor);
                Some(t.saturating_mul(n) + 1)
            }
            Sampler::LossyCount { bucket_width: Size::Literal(w) } => rows_per_window.map(|n| {
                let w = w.max(1);
                let ratio = (n as f64 / w as f64).max(1.0);
                (w as f64 * (ratio.ln() + 1.0)).ceil() as u64
            }),
            Sampler::Distinct { capacity: Size::Literal(c), cleaning: true } => Some(c + 1),
            Sampler::Kmv { k, cleaning: true, .. } => Some(k + 1),
            _ => None,
        }
    }

    /// Why the sampler gives no cap when the statement asks for one: a
    /// size that is not a literal, two families, of which no one
    /// family's cap bounds the statement, or a distinct sample whose
    /// CLEANING WHEN never calls `ddo_clean`. `None` for a family that
    /// caps or, by its shape, does not try to.
    pub fn uncapped_cause(&self) -> Option<String> {
        match self {
            Sampler::Mixed(families) => Some(format!(
                "the statement runs {} sampling families, {}; no one family's cap bounds it",
                families.len(),
                self.label()
            )),
            Sampler::Distinct { capacity: Size::Literal(_), cleaning: false } => Some(
                "CLEANING WHEN never calls ddo_clean(), the only call that raises the hash \
                 level, so dsample()'s capacity caps nothing"
                    .to_string(),
            ),
            _ => match self.size()? {
                (call, what, Size::NotLiteral) => {
                    Some(format!("the {call} {what} is not an integer literal"))
                }
                _ => None,
            },
        }
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

/// Classify an operator spec for sharded execution, by its
/// [`Sampler`].
///
/// The decision procedure, in order:
///
/// 1. Distinct sampling is refused: its hash level is one global
///    threshold shared by every group in the window. So is a statement
///    that runs two sampling families, or a library of no family: merge
///    rules are defined per single family.
/// 2. Subset-sum and reservoir sampling have dedicated distributional
///    merge rules, parameterised by their literal sizes; lossy counting
///    combines column-wise.
/// 3. Queries with a declared SUPERGROUP partition on the supergroup
///    key, making every supergroup's state shard-local (min-hash
///    signatures additionally get the KMV union-truncate rule so they
///    stay correct under any partitioning).
/// 4. Plain aggregations partition on the non-window group key
///    (disjoint groups ⇒ concatenate), or — grouped by window only —
///    round-robin with column-wise combining.
pub fn shard_plan(spec: &OperatorSpec) -> Result<ShardPlan, NotMergeable> {
    let sampler = Sampler::of(spec);
    // The literal size a distributional merge rule re-samples to.
    let literal_size = |family: &str| match sampler.size() {
        Some((.., Size::Literal(v))) => Ok(v as usize),
        Some((call, what, Size::NotLiteral)) => {
            Err(NotMergeable::new(format!("{call} {what} is not a literal")))
        }
        Some((call, ..)) => {
            Err(NotMergeable::new(format!("{family} query has no {call} predicate")))
        }
        None => unreachable!("only a sized family merges by its size"),
    };
    match &sampler {
        Sampler::Distinct { .. } => Err(NotMergeable::new(
            "distinct sampling keeps one global hash level per window; \
             per-shard levels diverge and the union over-represents \
             low-level shards",
        )),
        Sampler::Mixed(families) => Err(NotMergeable::new(format!(
            "query runs {} sampling families, {}; merge rules are defined per single family",
            families.len(),
            sampler.label()
        ))),
        Sampler::Library(name) => Err(NotMergeable::new(format!(
            "stateful-function library `{name}` has no registered merge rule"
        ))),
        Sampler::SubsetSum { .. } => {
            let target = literal_size("subset-sum")?;
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
        Sampler::Reservoir { .. } => {
            let n = literal_size("reservoir")?;
            keyed(spec, "reservoir", || Ok(MergeRule::Reservoir { n }))
        }
        // Partitioning on the group key keeps each candidate's count on
        // one shard; Combine (rather than Concat) also covers the
        // degenerate overlap where two shards report the same key.
        Sampler::LossyCount { .. } => {
            keyed(spec, "heavy-hitters", || Ok(MergeRule::Combine(combine_rules(spec)?)))
        }
        Sampler::Exact | Sampler::Kmv { .. } if !spec.supergroup_indices.is_empty() => {
            let partition_exprs = data_keys(spec, spec.supergroup_indices.iter().copied());
            if partition_exprs.is_empty() {
                return Err(NotMergeable::new(
                    "SUPERGROUP key has no non-window attribute to partition on",
                ));
            }
            // Min-hash signatures: if the KMV hash group variable is a
            // SELECT column, the KMV union-truncate rule merges
            // signatures exactly under any partitioning. Any other
            // supergroup query keeps all supergroup state on the shard
            // owning the supergroup key, so outputs are disjoint.
            let columns = |of: &dyn Fn(usize) -> bool| -> Vec<usize> {
                let picked = |e: &Expr| matches!(e, Expr::GroupVar(v) if of(*v));
                (0..spec.select.len()).filter(|&i| picked(&spec.select[i].1)).collect()
            };
            let rule = match sampler {
                Sampler::Kmv { k, hash: Some(g), .. } => {
                    columns(&|v| v == g).first().map(|&hash_col| {
                        let key_cols = columns(&|v| spec.supergroup_indices.contains(&v));
                        MergeRule::KmvTruncate { key_cols, hash_col, k: k as usize }
                    })
                }
                _ => None,
            };
            Ok(ShardPlan { partition_exprs, rule: rule.unwrap_or(MergeRule::Concat) })
        }
        Sampler::Exact | Sampler::Kmv { .. } if !spec.superaggs.is_empty() => {
            Err(NotMergeable::new(
                "window-global superaggregates cannot be recomputed from \
                 per-shard outputs",
            ))
        }
        Sampler::Exact | Sampler::Kmv { .. } => {
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
                Sampler::SubsetSum { target: Size::Literal(100), cleaning: true },
            ),
            (
                queries::heavy_hitters_query(60, 100, Some(50)).unwrap(),
                Sampler::LossyCount { bucket_width: Size::Literal(100) },
            ),
            (
                queries::minhash_query(60, 10).unwrap(),
                Sampler::Kmv { k: 10, hash: Some(2), cleaning: true },
            ),
            (
                queries::reservoir_query(60, ReservoirOpConfig { n: 25, ..Default::default() })
                    .unwrap(),
                Sampler::Reservoir { n: Size::Literal(25), cleaning: true },
            ),
        ];
        for (spec, expected) in cases {
            assert_eq!(Sampler::of(&spec), expected);
        }
    }

    #[test]
    fn a_library_of_no_family_is_refused_by_name() {
        let mut spec = queries::total_sum_query(60);
        let counter = crate::sfun::SfunLibrary::new("counter", |_| Box::new(0u64));
        spec.sfun_libs.push(std::sync::Arc::new(counter));
        assert_eq!(Sampler::of(&spec), Sampler::Library("counter"));
        let err = shard_plan(&spec).unwrap_err();
        assert_eq!(err.reason, "stateful-function library `counter` has no registered merge rule");
    }

    #[test]
    fn distinct_sampling_is_refused() {
        let cfg = DistinctOpConfig { capacity: 256, carry_level: true };
        let spec = queries::distinct_sample_query(60, cfg).unwrap();
        let err = shard_plan(&spec).unwrap_err();
        assert!(err.reason.contains("global hash level"), "{}", err.reason);
    }
}
