//! Per-group aggregates.
//!
//! A sampling query's groups carry conventional aggregates — `count(*)`,
//! `sum(len)`, `min`/`max`, and `first`/`last` (Gigascope extensions the
//! heavy-hitter query relies on: `first(current_bucket())` remembers the
//! bucket in which the group was created).
//!
//! Aggregate *argument* expressions are evaluated in the tuple phase, so
//! they may reference input columns, group-by variables, and stateful
//! functions.

use sso_types::Value;

use crate::error::OpError;
use crate::expr::{EvalCtx, Expr};

/// Specification of one aggregate slot.
#[derive(Debug, Clone)]
pub enum AggSpec {
    /// `count(*)`.
    Count,
    /// `sum(expr)`.
    Sum(Expr),
    /// `min(expr)`.
    Min(Expr),
    /// `max(expr)`.
    Max(Expr),
    /// `first(expr)`: the argument's value on the group's first tuple.
    First(Expr),
    /// `last(expr)`: the argument's value on the group's latest tuple.
    Last(Expr),
}

impl AggSpec {
    /// Fresh state for a new group.
    pub fn init(&self) -> AggState {
        match self {
            AggSpec::Count => AggState::Count(0),
            AggSpec::Sum(_) => AggState::Sum(Value::Null),
            AggSpec::Min(_) => AggState::Min(Value::Null),
            AggSpec::Max(_) => AggState::Max(Value::Null),
            AggSpec::First(_) => AggState::First(Value::Null),
            AggSpec::Last(_) => AggState::Last(Value::Null),
        }
    }

    /// The argument expression, if any.
    pub fn arg(&self) -> Option<&Expr> {
        match self {
            AggSpec::Count => None,
            AggSpec::Sum(e)
            | AggSpec::Min(e)
            | AggSpec::Max(e)
            | AggSpec::First(e)
            | AggSpec::Last(e) => Some(e),
        }
    }

    /// Update `state` with one tuple, evaluating the argument in `ctx`.
    pub fn update(&self, state: &mut AggState, ctx: &mut EvalCtx<'_>) -> Result<(), OpError> {
        let arg = match self.arg() {
            Some(e) => Some(e.eval(ctx)?),
            None => None,
        };
        state.fold(arg.as_ref())
    }
}

/// Runtime state of one aggregate slot.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// `count(*)` accumulator.
    Count(u64),
    /// `sum` accumulator (`Null` before the first value).
    Sum(Value),
    /// `min` accumulator.
    Min(Value),
    /// `max` accumulator.
    Max(Value),
    /// `first` latch.
    First(Value),
    /// `last` latch.
    Last(Value),
}

impl AggState {
    /// Fold one tuple in, given the already evaluated argument of the
    /// slot's [`AggSpec`] (`None` for `count(*)`), read where it lies.
    pub fn fold(&mut self, arg: Option<&Value>) -> Result<(), OpError> {
        match (self, arg) {
            (AggState::Count(c), None) => *c += 1,
            (AggState::Sum(acc), Some(v)) => match (&mut *acc, v) {
                // `Value::add`'s result for two `u64`s, on the spot.
                (Value::U64(a), Value::U64(b)) => *a = a.wrapping_add(*b),
                (Value::Null, _) => *acc = v.clone(),
                _ => *acc = acc.add(v)?,
            },
            (AggState::Min(acc), Some(v)) => {
                if acc.is_null() || v.compare(acc)? == std::cmp::Ordering::Less {
                    *acc = v.clone();
                }
            }
            (AggState::Max(acc), Some(v)) => {
                if acc.is_null() || v.compare(acc)? == std::cmp::Ordering::Greater {
                    *acc = v.clone();
                }
            }
            (AggState::First(acc), Some(v)) => {
                if acc.is_null() {
                    *acc = v.clone();
                }
            }
            (AggState::Last(acc), Some(v)) => acc.clone_from(v),
            _ => {
                return Err(OpError::InvalidSpec(
                    "aggregate state does not match its spec".to_string(),
                ))
            }
        }
        Ok(())
    }

    /// The aggregate's current value.
    pub fn value(&self) -> Value {
        match self {
            AggState::Count(c) => Value::U64(*c),
            AggState::Sum(v)
            | AggState::Min(v)
            | AggState::Max(v)
            | AggState::First(v)
            | AggState::Last(v) => v.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_types::Tuple;

    fn update_with(spec: &AggSpec, state: &mut AggState, tuple_vals: Vec<Value>) {
        let t = Tuple::new(tuple_vals);
        let mut ctx = EvalCtx { tuple: Some(&t), ..EvalCtx::empty("AGG") };
        spec.update(state, &mut ctx).unwrap();
    }

    #[test]
    fn count_counts() {
        let spec = AggSpec::Count;
        let mut s = spec.init();
        for _ in 0..3 {
            update_with(&spec, &mut s, vec![]);
        }
        assert_eq!(s.value(), Value::U64(3));
    }

    #[test]
    fn sum_accumulates() {
        let spec = AggSpec::Sum(Expr::Column(0));
        let mut s = spec.init();
        assert_eq!(s.value(), Value::Null);
        update_with(&spec, &mut s, vec![Value::U64(10)]);
        update_with(&spec, &mut s, vec![Value::U64(32)]);
        assert_eq!(s.value(), Value::U64(42));
    }

    #[test]
    fn min_max_track_extremes() {
        let min = AggSpec::Min(Expr::Column(0));
        let max = AggSpec::Max(Expr::Column(0));
        let mut smin = min.init();
        let mut smax = max.init();
        for v in [5u64, 2, 9, 3] {
            update_with(&min, &mut smin, vec![Value::U64(v)]);
            update_with(&max, &mut smax, vec![Value::U64(v)]);
        }
        assert_eq!(smin.value(), Value::U64(2));
        assert_eq!(smax.value(), Value::U64(9));
    }

    #[test]
    fn first_latches_then_ignores() {
        let spec = AggSpec::First(Expr::Column(0));
        let mut s = spec.init();
        update_with(&spec, &mut s, vec![Value::U64(7)]);
        update_with(&spec, &mut s, vec![Value::U64(99)]);
        assert_eq!(s.value(), Value::U64(7));
    }

    #[test]
    fn last_tracks_latest() {
        let spec = AggSpec::Last(Expr::Column(0));
        let mut s = spec.init();
        update_with(&spec, &mut s, vec![Value::U64(7)]);
        update_with(&spec, &mut s, vec![Value::U64(99)]);
        assert_eq!(s.value(), Value::U64(99));
    }

    #[test]
    fn sum_over_expression() {
        // sum(len * 2)
        let spec = AggSpec::Sum(Expr::Column(0).add(Expr::Column(0)));
        let mut s = spec.init();
        update_with(&spec, &mut s, vec![Value::U64(3)]);
        update_with(&spec, &mut s, vec![Value::U64(4)]);
        assert_eq!(s.value(), Value::U64(14));
    }

    #[test]
    fn mismatched_state_errors() {
        let spec = AggSpec::Count;
        let mut s = AggState::Sum(Value::Null);
        let t = Tuple::new(vec![]);
        let mut ctx = EvalCtx { tuple: Some(&t), ..EvalCtx::empty("AGG") };
        assert!(spec.update(&mut s, &mut ctx).is_err());
    }
}
