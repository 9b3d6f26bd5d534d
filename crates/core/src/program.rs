//! Lowered expressions: what the operator runs per tuple.
//!
//! [`Expr::eval`] walks a tree and hands a `Result<Value, OpError>` up
//! from every node, cloning a [`Value`] at every leaf. That is the
//! public reference semantics; it is too slow for a loop that rejects
//! 97 % of its input (§6.1's `ssample`). [`SamplingOperator::new`]
//! therefore lowers every clause once into a [`Program`]: a flat list of
//! operations over a register file the program owns. Operands are read
//! in place — an input column, a group-by value, a register — and an
//! operation on two `u64`s is done on the spot, with no `Value` cloned
//! and no `Result<Value, _>` built. Every other operand kind falls into
//! [`BinOp::apply`], the one definition [`Expr::eval`] uses too, so an
//! operator's meaning is written down once.
//!
//! A program is equivalent to the expression it was lowered from: same
//! value or same error, same SFUN calls in the same order (the
//! differential property test at the bottom of this file). Two things it
//! does not carry are the per-evaluation slot range checks —
//! [`OperatorSpec::validate`] rejects an out-of-range group-by,
//! aggregate, superaggregate or library slot once, before anything is
//! lowered — and the per-call argument buffer of `Expr::eval`: call
//! arguments land in adjacent registers, literal arguments are placed
//! there once at lowering.
//!
//! [`SamplingOperator::new`]: crate::operator::SamplingOperator::new
//! [`OperatorSpec::validate`]: crate::operator::OperatorSpec::validate

use std::ops::Range;
use std::sync::Arc;

use sso_types::{Tuple, Value};

use crate::error::OpError;
use crate::expr::{BinOp, EvalCtx, Expr};
use crate::scalar::ScalarFn;
use crate::sfun::SfunFn;

/// Where an operand is read from.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Input-tuple column.
    Col(usize),
    /// Group-by variable.
    GroupVar(usize),
    /// Register: a constant placed at lowering, or the result of an
    /// earlier operation of this evaluation.
    Reg(usize),
}

/// One operation. Every `dst` register has exactly one writer, so a
/// constant register is never overwritten.
enum Op {
    /// `dst = a op b` for arithmetic and comparisons.
    Binary { op: BinOp, a: Src, b: Src, dst: usize },
    /// `dst = Bool(!truthy(a))`.
    Not { a: Src, dst: usize },
    /// `AND` (`when = false`) / `OR` (`when = true`) after the left
    /// operand: if `truthy(a) == when` the result is `Bool(when)` and
    /// the right operand — everything up to `skip_to` — is not run.
    ShortCircuit { a: Src, when: bool, dst: usize, skip_to: usize },
    /// `dst = Bool(truthy(a))`: the right operand of `AND` / `OR`.
    Truthy { a: Src, dst: usize },
    /// `dst = a`: a column or group-by value into a call's argument
    /// registers, or ahead of a sibling whose evaluation must follow it.
    Copy { a: Src, dst: usize },
    /// `dst = aggregate[slot]`.
    Aggregate { slot: usize, dst: usize },
    /// `dst = superaggregate[slot]`.
    SuperAgg { slot: usize, dst: usize },
    /// `dst = fun(state[lib], regs[args])`.
    Sfun { lib: usize, name: &'static str, fun: Arc<SfunFn>, args: Range<usize>, dst: usize },
    /// `dst = fun(regs[args])`.
    Scalar { name: &'static str, fun: Arc<ScalarFn>, args: Range<usize>, dst: usize },
}

/// An [`Expr`] lowered to straight-line code (forward jumps only, for
/// `AND` / `OR`).
pub(crate) struct Program {
    ops: Vec<Op>,
    regs: Vec<Value>,
    result: Src,
}

#[cold]
fn missing(what: &'static str, clause: &'static str) -> OpError {
    OpError::MissingContext { what, clause }
}

/// Read an operand in place.
#[inline(always)]
fn operand<'a>(src: Src, ctx: &'a EvalCtx<'_>, regs: &'a [Value]) -> Result<&'a Value, OpError> {
    match src {
        Src::Reg(r) => Ok(&regs[r]),
        Src::Col(i) => match ctx.tuple {
            Some(t) => Ok(t.get(i)),
            None => Err(missing("input column", ctx.clause)),
        },
        Src::GroupVar(i) => match ctx.group_vars {
            Some(g) => Ok(&g[i]),
            None => Err(missing("group-by variable", ctx.clause)),
        },
    }
}

/// `a op b` where the result is decided by the two `u64`s alone and is
/// the one [`BinOp::apply`] gives; `None` sends the rest there
/// (`u64 - u64 < 0`, a zero divisor, `AND` / `OR`).
#[inline(always)]
fn binary_u64(op: BinOp, a: u64, b: u64) -> Option<Value> {
    Some(match op {
        BinOp::Add => Value::U64(a.wrapping_add(b)),
        BinOp::Sub if a >= b => Value::U64(a - b),
        BinOp::Mul => Value::U64(a.wrapping_mul(b)),
        BinOp::Div if b != 0 => Value::U64(a / b),
        BinOp::Rem if b != 0 => Value::U64(a % b),
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Ne => Value::Bool(a != b),
        BinOp::Lt => Value::Bool(a < b),
        BinOp::Le => Value::Bool(a <= b),
        BinOp::Gt => Value::Bool(a > b),
        BinOp::Ge => Value::Bool(a >= b),
        _ => return None,
    })
}

impl Program {
    /// Lower `expr`. Its slot references must already have been range
    /// checked (`OperatorSpec::validate`).
    pub(crate) fn lower(expr: &Expr) -> Program {
        let mut p = Program { ops: Vec::new(), regs: Vec::new(), result: Src::Reg(0) };
        p.result = p.lower_node(expr, None);
        p
    }

    /// The register a node writes: the one it was given, or a new one.
    fn dst(&mut self, into: Option<usize>) -> usize {
        into.unwrap_or_else(|| {
            self.regs.push(Value::Null);
            self.regs.len() - 1
        })
    }

    /// A column or group-by value: read in place, or copied into `into`.
    fn leaf(&mut self, a: Src, into: Option<usize>) -> Src {
        match into {
            Some(dst) => {
                self.ops.push(Op::Copy { a, dst });
                Src::Reg(dst)
            }
            None => a,
        }
    }

    /// Emit the operations of `e` and say where its value is found; with
    /// `into`, that is the given register.
    fn lower_node(&mut self, e: &Expr, into: Option<usize>) -> Src {
        let dst = match e {
            Expr::Literal(v) => {
                // A constant: placed now, never written again.
                let dst = self.dst(into);
                self.regs[dst] = v.clone();
                dst
            }
            Expr::Column(i) => return self.leaf(Src::Col(*i), into),
            Expr::GroupVar(i) => return self.leaf(Src::GroupVar(*i), into),
            Expr::Binary { op: op @ (BinOp::And | BinOp::Or), lhs, rhs } => {
                let a = self.lower_node(lhs, None);
                let dst = self.dst(into);
                let short = self.ops.len();
                self.ops.push(Op::ShortCircuit { a, when: *op == BinOp::Or, dst, skip_to: 0 });
                let b = self.lower_node(rhs, None);
                self.ops.push(Op::Truthy { a: b, dst });
                let end = self.ops.len();
                if let Op::ShortCircuit { skip_to, .. } = &mut self.ops[short] {
                    *skip_to = end;
                }
                dst
            }
            Expr::Binary { op, lhs, rhs } => {
                let mut a = self.lower_node(lhs, None);
                // `a op b` reads its operands when it runs, after the
                // operations of `b`. A column or group-by value on the
                // left can fail (its context may be absent) and must do
                // so before anything on the right runs, as in the tree.
                let rhs_is_leaf =
                    matches!(**rhs, Expr::Literal(_) | Expr::Column(_) | Expr::GroupVar(_));
                if !matches!(a, Src::Reg(_)) && !rhs_is_leaf {
                    let early = self.dst(None);
                    a = self.leaf(a, Some(early));
                }
                let b = self.lower_node(rhs, None);
                let dst = self.dst(into);
                self.ops.push(Op::Binary { op: *op, a, b, dst });
                dst
            }
            Expr::Not(inner) => {
                let a = self.lower_node(inner, None);
                let dst = self.dst(into);
                self.ops.push(Op::Not { a, dst });
                dst
            }
            Expr::Aggregate(slot) => {
                let dst = self.dst(into);
                self.ops.push(Op::Aggregate { slot: *slot, dst });
                dst
            }
            Expr::SuperAgg(slot) => {
                let dst = self.dst(into);
                self.ops.push(Op::SuperAgg { slot: *slot, dst });
                dst
            }
            Expr::Sfun { lib, name, fun, args } => {
                let args = self.lower_args(args);
                let dst = self.dst(into);
                self.ops.push(Op::Sfun { lib: *lib, name, fun: Arc::clone(fun), args, dst });
                dst
            }
            Expr::Scalar { name, fun, args } => {
                let args = self.lower_args(args);
                let dst = self.dst(into);
                self.ops.push(Op::Scalar { name, fun: Arc::clone(fun), args, dst });
                dst
            }
        };
        Src::Reg(dst)
    }

    /// Lower call arguments into adjacent registers, left to right.
    fn lower_args(&mut self, args: &[Expr]) -> Range<usize> {
        let base = self.regs.len();
        self.regs.resize(base + args.len(), Value::Null);
        for (k, arg) in args.iter().enumerate() {
            self.lower_node(arg, Some(base + k));
        }
        base..base + args.len()
    }

    /// Evaluate against a context; equivalent to [`Expr::eval`].
    pub(crate) fn eval(&mut self, ctx: &mut EvalCtx<'_>) -> Result<Value, OpError> {
        self.run(ctx)?;
        Ok(operand(self.result, ctx, &self.regs)?.clone())
    }

    /// Evaluate as a predicate; equivalent to [`Expr::eval_bool`].
    pub(crate) fn eval_bool(&mut self, ctx: &mut EvalCtx<'_>) -> Result<bool, OpError> {
        self.run(ctx)?;
        Ok(operand(self.result, ctx, &self.regs)?.truthy())
    }

    fn run(&mut self, ctx: &mut EvalCtx<'_>) -> Result<(), OpError> {
        let regs = &mut self.regs;
        let mut pc = 0;
        while let Some(op) = self.ops.get(pc) {
            pc += 1;
            match op {
                Op::Binary { op, a, b, dst } => {
                    let (x, y) = (operand(*a, ctx, regs)?, operand(*b, ctx, regs)?);
                    let fast = match (x, y) {
                        (Value::U64(x), Value::U64(y)) => binary_u64(*op, *x, *y),
                        _ => None,
                    };
                    let v = match fast {
                        Some(v) => v,
                        None => op.apply(x, y)?,
                    };
                    regs[*dst] = v;
                }
                Op::Not { a, dst } => {
                    let v = !operand(*a, ctx, regs)?.truthy();
                    regs[*dst] = Value::Bool(v);
                }
                Op::ShortCircuit { a, when, dst, skip_to } => {
                    if operand(*a, ctx, regs)?.truthy() == *when {
                        regs[*dst] = Value::Bool(*when);
                        pc = *skip_to;
                    }
                }
                Op::Truthy { a, dst } => {
                    let v = operand(*a, ctx, regs)?.truthy();
                    regs[*dst] = Value::Bool(v);
                }
                Op::Copy { a, dst } => {
                    let v = operand(*a, ctx, regs)?.clone();
                    regs[*dst] = v;
                }
                Op::Aggregate { slot, dst } => {
                    let Some(aggs) = ctx.aggs else {
                        return Err(missing("aggregate", ctx.clause));
                    };
                    regs[*dst] = aggs[*slot].value();
                }
                Op::SuperAgg { slot, dst } => {
                    let Some(superaggs) = ctx.superaggs else {
                        return Err(missing("superaggregate", ctx.clause));
                    };
                    regs[*dst] = superaggs[*slot].value();
                }
                Op::Sfun { lib, name, fun, args, dst } => {
                    let Some(states) = ctx.sfun_states.as_mut() else {
                        return Err(missing("stateful function state", ctx.clause));
                    };
                    let state = states[*lib].as_mut();
                    regs[*dst] = fun(state, &regs[args.clone()]).map_err(|reason| {
                        OpError::BadSfunCall { function: name.to_string(), reason }
                    })?;
                }
                Op::Scalar { name, fun, args, dst } => {
                    regs[*dst] = fun(&regs[args.clone()]).map_err(|reason| {
                        OpError::BadScalarCall { function: name.to_string(), reason }
                    })?;
                }
            }
        }
        Ok(())
    }
}

/// A predicate over one input tuple — a shared prefilter hoisted out of
/// the queries behind it — lowered once and run as a [`Program`], the
/// way the operator runs its own clauses. [`Expr::eval_bool`] with only
/// a tuple in scope is its meaning.
///
/// A caller that filters *ahead* of operators which keep their full
/// WHERE treats an error as a pass: the tuple then reaches an operator,
/// which raises the error under its own clause, or rejects the tuple
/// before the failing conjunct is reached — exactly as without the
/// prefilter.
pub struct Predicate(Program);

impl Predicate {
    /// Lower `expr`.
    pub fn new(expr: &Expr) -> Self {
        Predicate(Program::lower(expr))
    }

    /// Does `tuple` satisfy the predicate? Anything but an input column
    /// is out of scope and an error.
    pub fn test(&mut self, tuple: &Tuple) -> Result<bool, OpError> {
        self.0.eval_bool(&mut EvalCtx { tuple: Some(tuple), ..EvalCtx::empty("prefilter") })
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use proptest::prelude::*;

    use super::*;
    use crate::agg::AggState;
    use crate::superagg::SuperAggState;

    /// All six kinds, weighted toward the operands where integer
    /// arithmetic overflows, divides by zero or changes sign.
    fn value() -> BoxedStrategy<Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            (0u64..4).prop_map(Value::U64),
            prop_oneof![Just(u64::MAX), Just(1 << 63), Just((1 << 63) + 7)].prop_map(Value::U64),
            (-3i64..4).prop_map(Value::I64),
            prop_oneof![Just(i64::MIN), Just(i64::MAX)].prop_map(Value::I64),
            prop_oneof![Just(0.0), Just(-2.5), Just(7.0), Just(f64::NAN)].prop_map(Value::F64),
            prop_oneof![Just(""), Just("a"), Just("ab")].prop_map(Value::str),
        ]
        .boxed()
    }

    /// The SFUN state of the test libraries: a log of the calls made.
    type CallLog = Vec<String>;

    /// `rec(..)`: logs its arguments, rejects a string in first place,
    /// and returns the number of calls so far — so a call skipped,
    /// repeated or reordered changes both the log and later results.
    fn rec() -> Arc<SfunFn> {
        Arc::new(|state, argv| {
            let log = state.downcast_mut::<CallLog>().expect("test state");
            log.push(format!("{argv:?}"));
            match argv.first() {
                Some(Value::Str(_)) => Err("rec: string argument".to_string()),
                _ => Ok(Value::U64(log.len() as u64)),
            }
        })
    }

    /// `odd()`: whether an odd number of calls has been logged.
    fn odd() -> Arc<SfunFn> {
        Arc::new(|state, argv| {
            let log = state.downcast_mut::<CallLog>().expect("test state");
            log.push(format!("odd{argv:?}"));
            Ok(Value::Bool(log.len() % 2 == 1))
        })
    }

    const COLUMNS: usize = 3;
    const GROUP_VARS: usize = 3;
    const AGGS: usize = 3;
    const SUPERAGGS: usize = 2;
    const LIBS: usize = 2;

    fn expr() -> BoxedStrategy<Expr> {
        let leaf = prop_oneof![
            value().prop_map(Expr::Literal),
            // One past the tuple's arity: reads as NULL, as in the tree.
            (0..COLUMNS + 1).prop_map(Expr::Column),
            (0..GROUP_VARS).prop_map(Expr::GroupVar),
            (0..AGGS).prop_map(Expr::Aggregate),
            (0..SUPERAGGS).prop_map(Expr::SuperAgg),
        ];
        leaf.prop_recursive(4, 32, 3, |inner| {
            let ops = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Rem,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::And,
                BinOp::Or,
            ];
            let args = || proptest::collection::vec(inner.clone(), 0..4);
            prop_oneof![
                (0..ops.len(), inner.clone(), inner.clone())
                    .prop_map(move |(op, lhs, rhs)| Expr::bin(ops[op], lhs, rhs)),
                inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
                (0..LIBS, any::<bool>(), args()).prop_map(|(lib, which, args)| {
                    let (name, fun) = if which { ("rec", rec()) } else { ("odd", odd()) };
                    Expr::Sfun { lib, name, fun, args }
                }),
                // Wrong arities and non-numeric arguments included.
                (0usize..3, args()).prop_map(|(which, args)| {
                    let (name, fun) =
                        crate::scalar::lookup(["UMAX", "H", "prefix"][which]).expect("scalar");
                    Expr::Scalar { name, fun, args }
                }),
            ]
        })
    }

    /// What a clause's context holds; each part may be absent.
    #[derive(Debug, Clone)]
    struct Scope {
        tuple: Option<Tuple>,
        group_vars: Option<Vec<Value>>,
        aggs: Option<Vec<AggState>>,
        superaggs: Option<Vec<SuperAggState>>,
        sfun_states: bool,
    }

    fn scope() -> impl Strategy<Value = Scope> {
        let values = |n| proptest::collection::vec(value(), n..n + 1);
        let present = || (0u8..5).prop_map(|n| n > 0);
        (
            (present(), values(COLUMNS)),
            (present(), values(GROUP_VARS)),
            (present(), values(AGGS)),
            (present(), value(), any::<u64>()),
            present(),
        )
            .prop_map(|((t, cols), (g, gvs), (a, avs), (s, sv, n), sfun_states)| Scope {
                tuple: t.then(|| Tuple::new(cols)),
                group_vars: g.then_some(gvs),
                aggs: a.then(|| {
                    vec![
                        AggState::Count(avs.len() as u64),
                        AggState::Sum(avs[0].clone()),
                        AggState::Last(avs[1].clone()),
                    ]
                }),
                superaggs: s
                    .then(|| vec![SuperAggState::CountDistinct(n % 5), SuperAggState::Sum(sv)]),
                sfun_states,
            })
    }

    /// Evaluate with `run` in a fresh context over `scope`; the outcome
    /// and the SFUN call logs, rendered exactly (`Value`'s `==` would
    /// let `U64(5)` pass for `I64(5)`).
    fn observe<T: std::fmt::Debug>(
        scope: &Scope,
        run: impl FnOnce(&mut EvalCtx<'_>) -> Result<T, OpError>,
    ) -> String {
        let mut states: Vec<Box<dyn Any + Send>> =
            (0..LIBS).map(|_| Box::new(CallLog::new()) as Box<dyn Any + Send>).collect();
        let outcome = {
            let mut ctx = EvalCtx {
                clause: "TEST",
                tuple: scope.tuple.as_ref(),
                group_vars: scope.group_vars.as_deref(),
                aggs: scope.aggs.as_deref(),
                superaggs: scope.superaggs.as_deref(),
                sfun_states: scope.sfun_states.then_some(states.as_mut_slice()),
            };
            run(&mut ctx)
        };
        let logs: Vec<&CallLog> = states.iter().map(|s| s.downcast_ref().unwrap()).collect();
        format!("{outcome:?} after {logs:?}")
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        /// A lowered program is the expression it came from: the same
        /// value or the same error, after the same SFUN calls.
        #[test]
        fn lowered_program_is_expr_eval(e in expr(), scope in scope()) {
            let mut program = Program::lower(&e);
            // Twice: the second run starts from the first one's registers.
            for _ in 0..2 {
                prop_assert_eq!(
                    observe(&scope, |ctx| program.eval(ctx)),
                    observe(&scope, |ctx| e.eval(ctx)),
                    "eval of {:?} in {:?}", e, scope
                );
                prop_assert_eq!(
                    observe(&scope, |ctx| program.eval_bool(ctx)),
                    observe(&scope, |ctx| e.eval_bool(ctx)),
                    "eval_bool of {:?} in {:?}", e, scope
                );
            }
        }
    }

    #[test]
    fn literal_call_arguments_are_placed_once() {
        // rec(col0, 7): the literal sits in its argument register from
        // lowering on; only the column is copied per evaluation.
        let e = Expr::Sfun {
            lib: 0,
            name: "rec",
            fun: rec(),
            args: vec![Expr::Column(0), Expr::lit(7u64)],
        };
        let program = Program::lower(&e);
        assert_eq!(program.ops.len(), 2, "one copy, one call");
        assert_eq!(program.regs[1], Value::U64(7));
    }

    #[test]
    fn short_circuit_skips_the_right_operand() {
        let scope =
            Scope { tuple: None, group_vars: None, aggs: None, superaggs: None, sfun_states: true };
        let call = || Expr::Sfun { lib: 1, name: "rec", fun: rec(), args: vec![] };
        let mut and = Program::lower(&Expr::lit(false).and(call()));
        assert_eq!(observe(&scope, |ctx| and.eval(ctx)), "Ok(Bool(false)) after [[], []]");
        let mut or = Program::lower(&Expr::bin(BinOp::Or, Expr::lit(0u64), call()));
        assert_eq!(observe(&scope, |ctx| or.eval(ctx)), "Ok(Bool(true)) after [[], [\"[]\"]]");
    }
}
