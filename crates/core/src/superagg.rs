//! Superaggregates: aggregates of the *supergroup* rather than the group
//! (§6.3).
//!
//! The paper's convention is a `$` suffix: `count_distinct$(*)` is the
//! number of groups currently in the supergroup, `Kth_smallest_value$(HX,
//! 100)` the 100th-smallest value of the group-by variable `HX` over the
//! supergroup's groups, `sum$(x)` the sum over all tuples of the
//! supergroup.
//!
//! Maintenance follows §6.3: "when a new group is added or deleted (as a
//! result of the cleaning phase), we need to update the supergroup
//! aggregate by adding or subtracting the group aggregate value". Each
//! spec therefore implements three hooks: per-tuple update, group
//! addition, and group removal.

use std::collections::BTreeMap;

use sso_types::Value;

use crate::agg::AggState;
use crate::error::OpError;
use crate::expr::{EvalCtx, Expr};

/// A totally ordered wrapper over [`Value`] (via [`Value::total_cmp`]),
/// so values can key a `BTreeMap`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Specification of one superaggregate slot.
#[derive(Debug, Clone)]
pub enum SuperAggSpec {
    /// `count_distinct$(*)`: the number of groups in the supergroup.
    CountDistinct,
    /// `Kth_smallest_value$(expr, k)`: the k-th smallest value of a
    /// group-by expression over the supergroup's groups; `u64::MAX` while
    /// fewer than `k` groups exist (so `x <= kth` admits during warm-up).
    KthSmallest {
        /// Expression over group-by variables, evaluated on group
        /// add/remove.
        expr: Expr,
        /// Rank `k ≥ 1`.
        k: usize,
    },
    /// `sum$(expr)`: sum over all tuples of the supergroup. Removal of a
    /// group subtracts the paired group aggregate (`agg_slot` must be a
    /// `sum` over the same expression).
    Sum {
        /// Tuple-phase expression added on every admitted tuple.
        expr: Expr,
        /// Group aggregate slot subtracted when a group is evicted.
        agg_slot: usize,
    },
    /// `min$(expr)` / `max$(expr)`: the extreme value of a group-by
    /// expression over the supergroup's live groups (maintained exactly
    /// under group eviction via a multiset, like `Kth_smallest_value$`).
    Extreme {
        /// Expression over group-by variables, evaluated on group
        /// add/remove.
        expr: Expr,
        /// `true` = maximum, `false` = minimum.
        max: bool,
    },
}

/// Runtime state of one superaggregate slot.
#[derive(Debug, Clone)]
pub enum SuperAggState {
    /// Group count.
    CountDistinct(u64),
    /// Multiset of per-group values with rank queries.
    KthSmallest {
        /// Rank being queried.
        k: usize,
        /// value -> multiplicity.
        tracker: BTreeMap<OrdValue, u32>,
        /// Total multiplicity.
        len: usize,
    },
    /// Running sum.
    Sum(Value),
    /// Multiset of per-group values with min/max queries.
    Extreme {
        /// `true` = maximum.
        max: bool,
        /// value -> multiplicity.
        tracker: BTreeMap<OrdValue, u32>,
    },
}

impl SuperAggSpec {
    /// Fresh state for a new supergroup.
    pub fn init(&self) -> SuperAggState {
        match self {
            SuperAggSpec::CountDistinct => SuperAggState::CountDistinct(0),
            SuperAggSpec::KthSmallest { k, .. } => {
                SuperAggState::KthSmallest { k: *k, tracker: BTreeMap::new(), len: 0 }
            }
            SuperAggSpec::Sum { .. } => SuperAggState::Sum(Value::Null),
            SuperAggSpec::Extreme { max, .. } => {
                SuperAggState::Extreme { max: *max, tracker: BTreeMap::new() }
            }
        }
    }

    /// The tuple-phase argument folded in on every admitted tuple, if
    /// this superaggregate has one (`sum$(expr)`).
    pub fn tuple_arg(&self) -> Option<&Expr> {
        match self {
            SuperAggSpec::Sum { expr, .. } => Some(expr),
            _ => None,
        }
    }

    /// The group-key expression whose value is tracked per group, if
    /// this superaggregate has one (`Kth_smallest_value$`, `min$`,
    /// `max$`). The operator lowers it once and hands its value to
    /// [`SuperAggState::track`] / [`SuperAggState::untrack`]; the hooks
    /// below evaluate the tree, and are the reference.
    pub fn group_arg(&self) -> Option<&Expr> {
        match self {
            SuperAggSpec::KthSmallest { expr, .. } | SuperAggSpec::Extreme { expr, .. } => {
                Some(expr)
            }
            _ => None,
        }
    }

    /// Per-tuple update (runs for every tuple passing WHERE).
    pub fn on_tuple(
        &self,
        state: &mut SuperAggState,
        ctx: &mut EvalCtx<'_>,
    ) -> Result<(), OpError> {
        match self.tuple_arg() {
            Some(expr) => state.fold_tuple(&expr.eval(ctx)?),
            None => Ok(()),
        }
    }

    /// A new group with key `group_key` joined the supergroup.
    pub fn on_group_add(
        &self,
        state: &mut SuperAggState,
        group_key: &[Value],
    ) -> Result<(), OpError> {
        match (self, state) {
            (SuperAggSpec::CountDistinct, SuperAggState::CountDistinct(n)) => {
                *n += 1;
            }
            (SuperAggSpec::Sum { .. }, SuperAggState::Sum(_)) => {}
            (SuperAggSpec::KthSmallest { expr, .. }, state @ SuperAggState::KthSmallest { .. })
            | (SuperAggSpec::Extreme { expr, .. }, state @ SuperAggState::Extreme { .. }) => {
                let mut ctx = EvalCtx { group_vars: Some(group_key), ..EvalCtx::empty("SUPERAGG") };
                state.track(&expr.eval(&mut ctx)?);
            }
            _ => {
                return Err(OpError::InvalidSpec(
                    "superaggregate state does not match its spec".to_string(),
                ))
            }
        }
        Ok(())
    }

    /// A group was evicted (cleaning phase or failed HAVING).
    pub fn on_group_remove(
        &self,
        state: &mut SuperAggState,
        group_key: &[Value],
        aggs: &[AggState],
    ) -> Result<(), OpError> {
        match (self, state) {
            (SuperAggSpec::CountDistinct, SuperAggState::CountDistinct(n)) => {
                *n = n.saturating_sub(1);
            }
            (SuperAggSpec::KthSmallest { expr, .. }, state @ SuperAggState::KthSmallest { .. })
            | (SuperAggSpec::Extreme { expr, .. }, state @ SuperAggState::Extreme { .. }) => {
                let mut ctx = EvalCtx { group_vars: Some(group_key), ..EvalCtx::empty("SUPERAGG") };
                state.untrack(&expr.eval(&mut ctx)?);
            }
            (SuperAggSpec::Sum { agg_slot, .. }, SuperAggState::Sum(acc)) => {
                let gv = aggs
                    .get(*agg_slot)
                    .ok_or_else(|| {
                        OpError::InvalidSpec(format!("sum$ paired agg slot {agg_slot} missing"))
                    })?
                    .value();
                if !gv.is_null() && !acc.is_null() {
                    *acc = acc.sub(&gv)?;
                }
            }
            _ => {
                return Err(OpError::InvalidSpec(
                    "superaggregate state does not match its spec".to_string(),
                ))
            }
        }
        Ok(())
    }
}

impl SuperAggState {
    /// Fold one admitted tuple in, given the already evaluated
    /// [`SuperAggSpec::tuple_arg`].
    pub fn fold_tuple(&mut self, v: &Value) -> Result<(), OpError> {
        if let SuperAggState::Sum(acc) = self {
            *acc = if acc.is_null() { v.clone() } else { acc.add(v)? };
        }
        Ok(())
    }

    /// The multiset of per-group values, and its size where the state
    /// keeps one; `None` for a state that tracks no per-group value.
    fn tracker(&mut self) -> Option<(&mut BTreeMap<OrdValue, u32>, Option<&mut usize>)> {
        match self {
            SuperAggState::KthSmallest { tracker, len, .. } => Some((tracker, Some(len))),
            SuperAggState::Extreme { tracker, .. } => Some((tracker, None)),
            _ => None,
        }
    }

    /// A group whose [`SuperAggSpec::group_arg`] is `v` joined the
    /// supergroup. States that track no per-group value ignore it.
    pub fn track(&mut self, v: &Value) {
        let Some((tracker, len)) = self.tracker() else { return };
        *tracker.entry(OrdValue(v.clone())).or_insert(0) += 1;
        if let Some(len) = len {
            *len += 1;
        }
    }

    /// A group whose [`SuperAggSpec::group_arg`] is `v` was evicted. A
    /// value that is not tracked is left alone.
    pub fn untrack(&mut self, v: &Value) {
        let Some((tracker, len)) = self.tracker() else { return };
        let v = OrdValue(v.clone());
        let Some(count) = tracker.get_mut(&v) else { return };
        *count -= 1;
        if *count == 0 {
            tracker.remove(&v);
        }
        if let Some(len) = len {
            *len -= 1;
        }
    }

    /// The superaggregate's current value.
    pub fn value(&self) -> Value {
        match self {
            SuperAggState::CountDistinct(n) => Value::U64(*n),
            SuperAggState::KthSmallest { k, tracker, len } => {
                if *len < *k {
                    return Value::U64(u64::MAX);
                }
                let mut remaining = *k;
                for (v, count) in tracker {
                    let c = *count as usize;
                    if remaining <= c {
                        return v.0.clone();
                    }
                    remaining -= c;
                }
                Value::U64(u64::MAX)
            }
            SuperAggState::Sum(v) => v.clone(),
            SuperAggState::Extreme { max, tracker } => {
                let entry = if *max { tracker.last_key_value() } else { tracker.first_key_value() };
                entry.map(|(v, _)| v.0.clone()).unwrap_or(Value::Null)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: Vec<Value>) -> Vec<Value> {
        vals
    }

    #[test]
    fn count_distinct_tracks_adds_and_removes() {
        let spec = SuperAggSpec::CountDistinct;
        let mut s = spec.init();
        spec.on_group_add(&mut s, &key(vec![Value::U64(1)])).unwrap();
        spec.on_group_add(&mut s, &key(vec![Value::U64(2)])).unwrap();
        assert_eq!(s.value(), Value::U64(2));
        spec.on_group_remove(&mut s, &key(vec![Value::U64(1)]), &[]).unwrap();
        assert_eq!(s.value(), Value::U64(1));
        // Saturates rather than underflows.
        spec.on_group_remove(&mut s, &key(vec![Value::U64(2)]), &[]).unwrap();
        spec.on_group_remove(&mut s, &key(vec![Value::U64(3)]), &[]).unwrap();
        assert_eq!(s.value(), Value::U64(0));
    }

    #[test]
    fn kth_smallest_warmup_returns_max() {
        let spec = SuperAggSpec::KthSmallest { expr: Expr::GroupVar(0), k: 3 };
        let mut s = spec.init();
        assert_eq!(s.value(), Value::U64(u64::MAX));
        spec.on_group_add(&mut s, &key(vec![Value::U64(10)])).unwrap();
        spec.on_group_add(&mut s, &key(vec![Value::U64(20)])).unwrap();
        assert_eq!(s.value(), Value::U64(u64::MAX), "still warming up");
        spec.on_group_add(&mut s, &key(vec![Value::U64(30)])).unwrap();
        assert_eq!(s.value(), Value::U64(30));
    }

    #[test]
    fn kth_smallest_rank_query() {
        let spec = SuperAggSpec::KthSmallest { expr: Expr::GroupVar(0), k: 2 };
        let mut s = spec.init();
        for v in [50u64, 10, 40, 20] {
            spec.on_group_add(&mut s, &key(vec![Value::U64(v)])).unwrap();
        }
        assert_eq!(s.value(), Value::U64(20));
        spec.on_group_remove(&mut s, &key(vec![Value::U64(10)]), &[]).unwrap();
        assert_eq!(s.value(), Value::U64(40));
    }

    #[test]
    fn kth_smallest_handles_duplicates() {
        let spec = SuperAggSpec::KthSmallest { expr: Expr::GroupVar(0), k: 3 };
        let mut s = spec.init();
        for v in [5u64, 5, 5, 9] {
            spec.on_group_add(&mut s, &key(vec![Value::U64(v)])).unwrap();
        }
        assert_eq!(s.value(), Value::U64(5));
        spec.on_group_remove(&mut s, &key(vec![Value::U64(5)]), &[]).unwrap();
        assert_eq!(s.value(), Value::U64(9));
        // Removing a value that is not tracked is a no-op.
        spec.on_group_remove(&mut s, &key(vec![Value::U64(77)]), &[]).unwrap();
        assert_eq!(s.value(), Value::U64(9));
    }

    #[test]
    fn sum_super_adds_tuples_and_subtracts_groups() {
        use sso_types::Tuple;
        let spec = SuperAggSpec::Sum { expr: Expr::Column(0), agg_slot: 0 };
        let mut s = spec.init();
        for v in [10u64, 20, 30] {
            let t = Tuple::new(vec![Value::U64(v)]);
            let mut ctx = EvalCtx { tuple: Some(&t), ..EvalCtx::empty("WHERE") };
            spec.on_tuple(&mut s, &mut ctx).unwrap();
        }
        assert_eq!(s.value(), Value::U64(60));
        // Evict a group whose sum aggregate is 30.
        let aggs = vec![AggState::Sum(Value::U64(30))];
        spec.on_group_remove(&mut s, &[], &aggs).unwrap();
        assert_eq!(s.value(), Value::U64(30));
    }

    #[test]
    fn extreme_super_tracks_min_and_max_under_eviction() {
        let min_spec = SuperAggSpec::Extreme { expr: Expr::GroupVar(0), max: false };
        let max_spec = SuperAggSpec::Extreme { expr: Expr::GroupVar(0), max: true };
        let mut smin = min_spec.init();
        let mut smax = max_spec.init();
        assert_eq!(smin.value(), Value::Null);
        for v in [30u64, 10, 50, 10] {
            min_spec.on_group_add(&mut smin, &[Value::U64(v)]).unwrap();
            max_spec.on_group_add(&mut smax, &[Value::U64(v)]).unwrap();
        }
        assert_eq!(smin.value(), Value::U64(10));
        assert_eq!(smax.value(), Value::U64(50));
        // Evict one 10: a duplicate remains, min unchanged.
        min_spec.on_group_remove(&mut smin, &[Value::U64(10)], &[]).unwrap();
        assert_eq!(smin.value(), Value::U64(10));
        // Evict the other: min moves to 30.
        min_spec.on_group_remove(&mut smin, &[Value::U64(10)], &[]).unwrap();
        assert_eq!(smin.value(), Value::U64(30));
        // Evict the max: max moves down.
        max_spec.on_group_remove(&mut smax, &[Value::U64(50)], &[]).unwrap();
        assert_eq!(smax.value(), Value::U64(30));
    }

    #[test]
    fn ord_value_total_order() {
        let mut vals = [OrdValue(Value::U64(5)), OrdValue(Value::Null), OrdValue(Value::I64(-1))];
        vals.sort();
        assert_eq!(vals[0], OrdValue(Value::Null));
        assert_eq!(vals[1], OrdValue(Value::I64(-1)));
        assert_eq!(vals[2], OrdValue(Value::U64(5)));
    }

    #[test]
    fn mismatched_state_errors() {
        let spec = SuperAggSpec::CountDistinct;
        let mut s = SuperAggState::Sum(Value::Null);
        assert!(spec.on_group_add(&mut s, &[]).is_err());
    }
}
