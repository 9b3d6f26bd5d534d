//! Expressions and their evaluation contexts.
//!
//! The operator's clauses (WHERE, GROUP BY, HAVING, CLEANING WHEN,
//! CLEANING BY, SELECT) are all expression trees over a shared [`Expr`]
//! type, but each clause runs with a different [`EvalCtx`]: the WHERE
//! clause sees the input tuple and the supergroup's stateful-function
//! states; CLEANING BY and HAVING see a group's key and aggregates; and
//! so on. Referencing context a clause does not provide is an
//! [`OpError::MissingContext`].

use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::sync::Arc;

use sso_types::{Tuple, TypeError, Value};

use crate::agg::AggState;
use crate::error::OpError;
use crate::scalar::ScalarFn;
use crate::sfun::SfunFn;
use crate::superagg::SuperAggState;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Apply an arithmetic or comparison operator to two values. This is
    /// the one definition of every operator's semantics: [`Expr::eval`]
    /// and the lowered tuple-phase programs both end here (`AND` / `OR`
    /// short-circuit, so their callers decide whether the right operand
    /// is evaluated at all and pass only truthiness through).
    pub fn apply(self, a: &Value, b: &Value) -> Result<Value, TypeError> {
        Ok(match self {
            BinOp::Add => a.add(b)?,
            BinOp::Sub => a.sub(b)?,
            BinOp::Mul => a.mul(b)?,
            BinOp::Div => a.div(b)?,
            BinOp::Rem => a.rem(b)?,
            BinOp::Eq => Value::Bool(a.eq_value(b)?),
            BinOp::Ne => Value::Bool(!a.eq_value(b)?),
            BinOp::Lt => Value::Bool(a.compare(b)? == CmpOrdering::Less),
            BinOp::Le => Value::Bool(a.compare(b)? != CmpOrdering::Greater),
            BinOp::Gt => Value::Bool(a.compare(b)? == CmpOrdering::Greater),
            BinOp::Ge => Value::Bool(a.compare(b)? != CmpOrdering::Less),
            BinOp::And => Value::Bool(a.truthy() && b.truthy()),
            BinOp::Or => Value::Bool(a.truthy() || b.truthy()),
        })
    }
}

/// A compiled expression. Column, aggregate, superaggregate, and stateful
/// function references are resolved to slot indices by the planner
/// (`sso-query`) or by the programmatic builders in [`crate::queries`].
#[derive(Clone)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// Input-tuple column by position (tuple-phase clauses only).
    Column(usize),
    /// Group-by variable by position: during the tuple phase, the
    /// computed group-by values; during the group phase, the group key.
    GroupVar(usize),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// Group aggregate slot (group-phase clauses only).
    Aggregate(usize),
    /// Superaggregate slot of the current supergroup.
    SuperAgg(usize),
    /// Stateful function call: library slot + function + argument
    /// expressions.
    Sfun {
        /// Index of the owning library in the operator spec.
        lib: usize,
        /// Function name (for error messages).
        name: &'static str,
        /// The function implementation.
        fun: Arc<SfunFn>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Pure scalar function call.
    Scalar {
        /// Function name (for error messages).
        name: &'static str,
        /// The function implementation.
        fun: Arc<ScalarFn>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl std::fmt::Debug for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "Literal({v})"),
            Expr::Column(i) => write!(f, "Column({i})"),
            Expr::GroupVar(i) => write!(f, "GroupVar({i})"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs:?} {op:?} {rhs:?})"),
            Expr::Not(e) => write!(f, "Not({e:?})"),
            Expr::Aggregate(i) => write!(f, "Aggregate({i})"),
            Expr::SuperAgg(i) => write!(f, "SuperAgg({i})"),
            Expr::Sfun { name, args, .. } => write!(f, "Sfun({name}, {args:?})"),
            Expr::Scalar { name, args, .. } => write!(f, "Scalar({name}, {args:?})"),
        }
    }
}

/// The evaluation context of one clause invocation.
///
/// Fields are `Option`s: a clause provides only the context that exists
/// at its point in the evaluation loop (§6.4).
pub struct EvalCtx<'a> {
    /// Which clause is being evaluated (for error messages).
    pub clause: &'static str,
    /// The input tuple (tuple-phase clauses: WHERE, GROUP BY, CLEANING
    /// WHEN, aggregate updates).
    pub tuple: Option<&'a Tuple>,
    /// Group-by variable values: the computed per-tuple values during the
    /// tuple phase, or the group key during the group phase.
    pub group_vars: Option<&'a [Value]>,
    /// The current group's aggregate states (group phase).
    pub aggs: Option<&'a [AggState]>,
    /// The current supergroup's superaggregates.
    pub superaggs: Option<&'a [SuperAggState]>,
    /// The current supergroup's stateful-function states, one per
    /// library.
    pub sfun_states: Option<&'a mut [Box<dyn Any + Send>]>,
}

impl<'a> EvalCtx<'a> {
    /// A context with nothing available (useful for constant folding and
    /// tests).
    pub fn empty(clause: &'static str) -> Self {
        EvalCtx {
            clause,
            tuple: None,
            group_vars: None,
            aggs: None,
            superaggs: None,
            sfun_states: None,
        }
    }
}

impl Expr {
    /// Evaluate against a context.
    pub fn eval(&self, ctx: &mut EvalCtx<'_>) -> Result<Value, OpError> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(i) => {
                let t = ctx
                    .tuple
                    .ok_or(OpError::MissingContext { what: "input column", clause: ctx.clause })?;
                Ok(t.get(*i).clone())
            }
            Expr::GroupVar(i) => {
                let g = ctx.group_vars.ok_or(OpError::MissingContext {
                    what: "group-by variable",
                    clause: ctx.clause,
                })?;
                Ok(g.get(*i).cloned().unwrap_or(Value::Null))
            }
            Expr::Aggregate(i) => {
                let aggs = ctx
                    .aggs
                    .ok_or(OpError::MissingContext { what: "aggregate", clause: ctx.clause })?;
                Ok(aggs.get(*i).map(|a| a.value()).ok_or_else(|| {
                    OpError::InvalidSpec(format!("aggregate slot {i} out of range"))
                })?)
            }
            Expr::SuperAgg(i) => {
                let sa = ctx.superaggs.ok_or(OpError::MissingContext {
                    what: "superaggregate",
                    clause: ctx.clause,
                })?;
                Ok(sa.get(*i).map(|s| s.value()).ok_or_else(|| {
                    OpError::InvalidSpec(format!("superaggregate slot {i} out of range"))
                })?)
            }
            Expr::Not(e) => {
                let v = e.eval(ctx)?;
                Ok(Value::Bool(!v.truthy()))
            }
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logical operators.
                match op {
                    BinOp::And => {
                        if !lhs.eval(ctx)?.truthy() {
                            return Ok(Value::Bool(false));
                        }
                        return Ok(Value::Bool(rhs.eval(ctx)?.truthy()));
                    }
                    BinOp::Or => {
                        if lhs.eval(ctx)?.truthy() {
                            return Ok(Value::Bool(true));
                        }
                        return Ok(Value::Bool(rhs.eval(ctx)?.truthy()));
                    }
                    _ => {}
                }
                let a = lhs.eval(ctx)?;
                let b = rhs.eval(ctx)?;
                Ok(op.apply(&a, &b)?)
            }
            Expr::Sfun { lib, name, fun, args } => {
                // SFUN calls sit in WHERE and run once per input tuple;
                // argument lists are tiny, so evaluate them into a stack
                // buffer to keep the per-tuple path allocation-free.
                let mut stack: [Value; 4] = std::array::from_fn(|_| Value::Null);
                let mut heap;
                let argv: &[Value] = if args.len() <= stack.len() {
                    for (slot, a) in stack.iter_mut().zip(args) {
                        *slot = a.eval(ctx)?;
                    }
                    &stack[..args.len()]
                } else {
                    heap = Vec::with_capacity(args.len());
                    for a in args {
                        heap.push(a.eval(ctx)?);
                    }
                    &heap
                };
                let states = ctx.sfun_states.as_mut().ok_or(OpError::MissingContext {
                    what: "stateful function state",
                    clause: ctx.clause,
                })?;
                let state = states.get_mut(*lib).ok_or_else(|| {
                    OpError::InvalidSpec(format!("sfun library slot {lib} out of range"))
                })?;
                fun(state.as_mut(), argv)
                    .map_err(|reason| OpError::BadSfunCall { function: name.to_string(), reason })
            }
            Expr::Scalar { name, fun, args } => {
                let mut stack: [Value; 4] = std::array::from_fn(|_| Value::Null);
                let mut heap;
                let argv: &[Value] = if args.len() <= stack.len() {
                    for (slot, a) in stack.iter_mut().zip(args) {
                        *slot = a.eval(ctx)?;
                    }
                    &stack[..args.len()]
                } else {
                    heap = Vec::with_capacity(args.len());
                    for a in args {
                        heap.push(a.eval(ctx)?);
                    }
                    &heap
                };
                fun(argv)
                    .map_err(|reason| OpError::BadScalarCall { function: name.to_string(), reason })
            }
        }
    }

    /// Evaluate as a predicate: any error is propagated, otherwise the
    /// value's truthiness.
    pub fn eval_bool(&self, ctx: &mut EvalCtx<'_>) -> Result<bool, OpError> {
        Ok(self.eval(ctx)?.truthy())
    }

    /// Call `f` on this node and every node under it, parents first.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Not(inner) => inner.walk(f),
            Expr::Sfun { args, .. } | Expr::Scalar { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Literal(_)
            | Expr::Column(_)
            | Expr::GroupVar(_)
            | Expr::Aggregate(_)
            | Expr::SuperAgg(_) => {}
        }
    }

    // -- construction helpers (used by tests, examples, and the planner) --

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `lhs op rhs` helper.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Eq, self, other)
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Le, self, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Ge, self, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Gt, self, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::bin(BinOp::And, self, other)
    }

    /// `self / other`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, other)
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, other)
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_types::Tuple;

    fn tuple_ctx(t: &Tuple) -> EvalCtx<'_> {
        EvalCtx { tuple: Some(t), ..EvalCtx::empty("TEST") }
    }

    #[test]
    fn literals_and_arithmetic() {
        let e = Expr::lit(2u64).add(Expr::lit(3u64)).eval(&mut EvalCtx::empty("T")).unwrap();
        assert_eq!(e, Value::U64(5));
        let e = Expr::lit(10u64).div(Expr::lit(4u64)).eval(&mut EvalCtx::empty("T")).unwrap();
        assert_eq!(e, Value::U64(2));
    }

    #[test]
    fn column_access_needs_tuple() {
        let t = Tuple::new(vec![Value::U64(7), Value::str("x")]);
        let mut ctx = tuple_ctx(&t);
        assert_eq!(Expr::Column(0).eval(&mut ctx).unwrap(), Value::U64(7));
        let err = Expr::Column(0).eval(&mut EvalCtx::empty("HAVING")).unwrap_err();
        assert!(matches!(err, OpError::MissingContext { what: "input column", clause: "HAVING" }));
    }

    #[test]
    fn group_vars_and_aggregates_need_context() {
        assert!(Expr::GroupVar(0).eval(&mut EvalCtx::empty("WHERE")).is_err());
        assert!(Expr::Aggregate(0).eval(&mut EvalCtx::empty("WHERE")).is_err());
        assert!(Expr::SuperAgg(0).eval(&mut EvalCtx::empty("GROUP BY")).is_err());
    }

    #[test]
    fn comparisons() {
        let mut ctx = EvalCtx::empty("T");
        assert_eq!(Expr::lit(1u64).lt(Expr::lit(2u64)).eval(&mut ctx).unwrap(), Value::Bool(true));
        assert_eq!(Expr::lit(2u64).le(Expr::lit(2u64)).eval(&mut ctx).unwrap(), Value::Bool(true));
        assert_eq!(Expr::lit(1u64).ge(Expr::lit(2u64)).eval(&mut ctx).unwrap(), Value::Bool(false));
        assert_eq!(
            Expr::lit(1u64).eq(Expr::lit(1i64)).eval(&mut ctx).unwrap(),
            Value::Bool(true),
            "cross-signedness equality"
        );
    }

    #[test]
    fn logical_short_circuit() {
        // The RHS would error (missing tuple), but AND short-circuits.
        let e = Expr::lit(false).and(Expr::Column(0));
        assert_eq!(e.eval(&mut EvalCtx::empty("T")).unwrap(), Value::Bool(false));
        let e = Expr::bin(BinOp::Or, Expr::lit(true), Expr::Column(0));
        assert_eq!(e.eval(&mut EvalCtx::empty("T")).unwrap(), Value::Bool(true));
        // Non-short-circuit path errors.
        let e = Expr::lit(true).and(Expr::Column(0));
        assert!(e.eval(&mut EvalCtx::empty("T")).is_err());
    }

    #[test]
    fn not_negates_truthiness() {
        let mut ctx = EvalCtx::empty("T");
        assert_eq!(Expr::Not(Box::new(Expr::lit(0u64))).eval(&mut ctx).unwrap(), Value::Bool(true));
        assert_eq!(
            Expr::Not(Box::new(Expr::lit(5u64))).eval(&mut ctx).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn eval_bool_uses_truthiness() {
        let mut ctx = EvalCtx::empty("T");
        assert!(Expr::lit(1u64).eval_bool(&mut ctx).unwrap());
        assert!(!Expr::lit(0u64).eval_bool(&mut ctx).unwrap());
        assert!(!Expr::Literal(Value::Null).eval_bool(&mut ctx).unwrap());
    }

    #[test]
    fn division_by_zero_propagates() {
        let e = Expr::lit(1u64).div(Expr::lit(0u64));
        assert!(matches!(
            e.eval(&mut EvalCtx::empty("T")),
            Err(OpError::Type(sso_types::TypeError::DivisionByZero))
        ));
    }

    #[test]
    fn time_bucketing_expression() {
        // time/20 as tb over a tuple with time = 47.
        let t = Tuple::new(vec![Value::U64(47)]);
        let mut ctx = tuple_ctx(&t);
        let tb = Expr::Column(0).div(Expr::lit(20u64)).eval(&mut ctx).unwrap();
        assert_eq!(tb, Value::U64(2));
    }

    #[test]
    fn scalar_call() {
        let umax = crate::scalar::umax();
        let e =
            Expr::Scalar { name: "UMAX", fun: umax, args: vec![Expr::lit(3u64), Expr::lit(9u64)] };
        assert_eq!(e.eval(&mut EvalCtx::empty("T")).unwrap(), Value::U64(9));
    }

    #[test]
    fn debug_formatting_is_informative() {
        let e = Expr::lit(1u64).add(Expr::Column(2));
        assert_eq!(format!("{e:?}"), "(Literal(1) Add Column(2))");
    }
}
