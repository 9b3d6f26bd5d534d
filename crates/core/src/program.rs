//! Lowered expressions: what the operator runs per tuple and per group.
//!
//! [`Expr::eval`] walks a tree and hands a `Result<Value, OpError>` up
//! from every node, cloning a [`Value`] at every leaf. That is the
//! public reference semantics; it is too slow for a loop that rejects
//! 97 % of its input (§6.1's `ssample`). [`SamplingOperator::new`]
//! therefore lowers the clauses of a spec, once, into two [`Program`]s —
//! the tuple phase and the group phase — each a flat list of operations
//! over one register file, cut into *stages*: the operations of a
//! clause, run when the §6.4 loop gets there. Operands are read in place
//! (an input column, a value of the group's key, a register), two `u64`s
//! or two `Bool`s are combined on the spot, and a result is written into
//! its register, never returned; every other pair of operands falls into
//! [`BinOp::apply`], the one definition [`Expr::eval`] uses too. The loop
//! that runs a stage is inlined where the stage is run and holds only
//! what needs no call; a call of any kind is made out of line. What a
//! clause may read is settled at lowering: its [`Scope`] turns a
//! reference to anything else into the operation that raises
//! `Expr::eval`'s `MissingContext` if it is reached, so the interpreter
//! checks for nothing and a [`Frame`] is plain slices. Sharing registers
//! is what fusing buys: the group-by values are adjacent registers, the
//! group key a slice of them; and a group-phase call declared
//! [read-only](SfunLibrary::register_read_only) moves to a *prologue*
//! run once per phase (DESIGN.md §5 has the layout and the rules).
//!
//! A stage is the expression it was lowered from: same value or same
//! error, same calls in the same order of every SFUN not declared
//! read-only (the differential property test below; `tests/reference.rs`
//! holds the whole operator to it). [`OperatorSpec::validate`] has
//! range-checked every slot before anything is lowered.
//!
//! [`SamplingOperator::new`]: crate::operator::SamplingOperator::new
//! [`OperatorSpec::validate`]: crate::operator::OperatorSpec::validate

use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

use sso_types::{Tuple, Value};

use crate::agg::AggState;
use crate::error::OpError;
use crate::expr::{BinOp, Expr};
use crate::scalar::ScalarFn;
use crate::sfun::{SfunFn, SfunLibrary};
use crate::superagg::SuperAggState;

/// Where an operand is read from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    /// Input-tuple column.
    Col(usize),
    /// Value of the current group's key (group phase).
    Key(usize),
    /// Register: a constant placed at lowering, a group-by value of the
    /// current tuple, or the result of an earlier operation.
    Reg(usize),
}

/// What an operation computes; [`Inst::dst`] is where it goes.
enum Op {
    /// `a op b` for arithmetic and comparisons.
    Binary { op: BinOp, a: Src, b: Src },
    /// `Bool(!truthy(a))`.
    Not { a: Src },
    /// `AND` (`when = false`) / `OR` (`when = true`) after the left
    /// operand: if `truthy(a) == when` the result is `Bool(when)` and
    /// the right operand — everything up to `skip_to` — is not run.
    ShortCircuit { a: Src, when: bool, skip_to: usize },
    /// `Bool(truthy(a))`: the right operand of `AND` / `OR`.
    Truthy { a: Src },
    /// `a`, for a call's argument registers or a group-by register.
    Copy { a: Src },
    /// `aggregate[slot]`.
    Aggregate { slot: usize },
    /// `superaggregate[slot]`.
    SuperAgg { slot: usize },
    /// `fun(state[lib], regs[args])`.
    Sfun { lib: usize, name: &'static str, fun: Arc<SfunFn>, args: Range<usize> },
    /// `fun(regs[args])`.
    Scalar { name: &'static str, fun: Arc<ScalarFn>, args: Range<usize> },
    /// An error: the clause reads `what`, which its [`Scope`] lacks.
    Missing { what: &'static str, clause: &'static str },
}

/// One operation and the register it writes. Every register has exactly
/// one writer, so a constant register is never overwritten.
struct Inst {
    op: Op,
    dst: usize,
}

/// How a clause reads `GroupVar(i)`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GroupVars {
    /// Tuple phase: register `base + i`.
    Regs(usize),
    /// Group phase: value `i` of the group's key.
    Key,
}

/// What a clause sees — the input tuple, the group-by values (and where
/// they are), the group's aggregates, the supergroup's superaggregates
/// and SFUN states — as [`crate::expr::EvalCtx`] says it per evaluation,
/// said once, at lowering. `clause` is for error messages.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Scope {
    pub clause: &'static str,
    pub tuple: bool,
    pub group_vars: Option<GroupVars>,
    pub aggs: bool,
    pub superaggs: bool,
    pub sfun: bool,
}

/// What an evaluation reads besides the registers. The parts a clause
/// does not see are empty, and never read.
pub(crate) struct Frame<'a> {
    pub tuple: &'a Tuple,
    pub key: &'a [Value],
    pub aggs: &'a [AggState],
    pub superaggs: &'a mut [SuperAggState],
    pub states: &'a mut [Box<dyn Any + Send>],
}

impl<'a> Frame<'a> {
    /// Nothing but an input tuple.
    pub(crate) fn of_tuple(tuple: &'a Tuple) -> Self {
        Frame { tuple, key: &[], aggs: &[], superaggs: &mut [], states: &mut [] }
    }

    /// The same supergroup, with the key and aggregates of one of its
    /// groups: a walk makes one per group.
    pub(crate) fn of_group<'g>(&'g mut self, key: &'g [Value], aggs: &'g [AggState]) -> Frame<'g> {
        Frame { tuple: self.tuple, key, aggs, superaggs: self.superaggs, states: self.states }
    }
}

/// One lowered clause: the operations to run, where its value is left.
pub(crate) struct Stage {
    pub ops: Range<usize>,
    pub value: Src,
}

/// [`Expr`]s lowered to straight-line code (forward jumps only, for
/// `AND` / `OR`) over one register file.
pub(crate) struct Program {
    ops: Vec<Inst>,
    regs: Vec<Value>,
}

#[cold]
fn missing(what: &'static str, clause: &'static str) -> OpError {
    OpError::MissingContext { what, clause }
}

#[cold]
fn bad_call(sfun: bool, name: &str, reason: String) -> OpError {
    let function = name.to_string();
    if sfun {
        OpError::BadSfunCall { function, reason }
    } else {
        OpError::BadScalarCall { function, reason }
    }
}

/// Read an operand in place.
#[inline(always)]
fn operand<'v>(src: Src, tuple: &'v Tuple, key: &'v [Value], regs: &'v [Value]) -> &'v Value {
    match src {
        Src::Reg(r) => &regs[r],
        Src::Col(i) => tuple.get(i),
        Src::Key(i) => &key[i],
    }
}

/// `a op b` where the result is decided by two `u64`s or two `Bool`s
/// alone and is the one [`BinOp::apply`] gives; `None` sends the rest
/// there (`u64 - u64 < 0`, a zero divisor, every other pair of kinds).
#[inline(always)]
fn binary_fast(op: BinOp, a: &Value, b: &Value) -> Option<Value> {
    Some(match (op, a, b) {
        (BinOp::Add, Value::U64(a), Value::U64(b)) => Value::U64(a.wrapping_add(*b)),
        (BinOp::Sub, Value::U64(a), Value::U64(b)) if a >= b => Value::U64(a - b),
        (BinOp::Mul, Value::U64(a), Value::U64(b)) => Value::U64(a.wrapping_mul(*b)),
        (BinOp::Div, Value::U64(a), Value::U64(b)) if *b != 0 => Value::U64(a / b),
        (BinOp::Rem, Value::U64(a), Value::U64(b)) if *b != 0 => Value::U64(a % b),
        (BinOp::Eq, Value::U64(a), Value::U64(b)) => Value::Bool(a == b),
        (BinOp::Ne, Value::U64(a), Value::U64(b)) => Value::Bool(a != b),
        (BinOp::Lt, Value::U64(a), Value::U64(b)) => Value::Bool(a < b),
        (BinOp::Le, Value::U64(a), Value::U64(b)) => Value::Bool(a <= b),
        (BinOp::Gt, Value::U64(a), Value::U64(b)) => Value::Bool(a > b),
        (BinOp::Ge, Value::U64(a), Value::U64(b)) => Value::Bool(a >= b),
        // `local_count(100) = TRUE`, as every text query writes it.
        (BinOp::Eq, Value::Bool(a), Value::Bool(b)) => Value::Bool(a == b),
        (BinOp::Ne, Value::Bool(a), Value::Bool(b)) => Value::Bool(a != b),
        _ => return None,
    })
}

/// The operations that call out of the interpreter loop — an SFUN, a
/// scalar function, an aggregate or superaggregate read, [`BinOp::apply`]
/// for every pair [`binary_fast`] leaves, a `Missing` — made here, out of
/// line, so that the loop inlined into each stage's caller holds only
/// what it computes on the spot.
#[inline(never)]
fn call_out(inst: &Inst, regs: &mut [Value], f: &mut Frame<'_>) -> Result<(), OpError> {
    let dst = inst.dst;
    match &inst.op {
        Op::Binary { op, a, b } => {
            let v = op.apply(operand(*a, f.tuple, f.key, regs), operand(*b, f.tuple, f.key, regs));
            regs[dst] = v?;
        }
        Op::Aggregate { slot } => regs[dst] = f.aggs[*slot].value(),
        Op::SuperAgg { slot } => regs[dst] = f.superaggs[*slot].value(),
        // A `Bool` — every sampling predicate's answer — is read back
        // field by field: copied whole, the `Result` the callee has just
        // stored a byte at a time would be loaded 16 bytes at once, and
        // wait for those stores to retire (~6 ns a call).
        Op::Sfun { lib, name, fun, args } => {
            match fun(f.states[*lib].as_mut(), &regs[args.clone()]) {
                Ok(Value::Bool(b)) => regs[dst] = Value::Bool(b),
                Ok(v) => regs[dst] = v,
                Err(reason) => return Err(bad_call(true, name, reason)),
            }
        }
        Op::Scalar { name, fun, args } => match fun(&regs[args.clone()]) {
            Ok(v) => regs[dst] = v,
            Err(reason) => return Err(bad_call(false, name, reason)),
        },
        Op::Missing { what, clause } => return Err(missing(what, clause)),
        Op::Not { .. } | Op::ShortCircuit { .. } | Op::Truthy { .. } | Op::Copy { .. } => {
            unreachable!("computed in the loop")
        }
    }
    Ok(())
}

impl Program {
    /// Lower one expression as a program of its own.
    pub(crate) fn lower(expr: &Expr, scope: Scope) -> (Program, Stage) {
        let mut lowering = Lowering::new(&[]);
        let stage = lowering.stage(expr, scope);
        (lowering.finish(), stage)
    }

    /// The registers `range`: the group-by values of the current tuple,
    /// a supergroup key.
    #[inline]
    pub(crate) fn regs(&self, range: &Range<usize>) -> &[Value] {
        &self.regs[range.clone()]
    }

    /// The value a stage left at `src`.
    #[inline]
    pub(crate) fn value<'v>(&'v self, src: Src, tuple: &'v Tuple, key: &'v [Value]) -> &'v Value {
        operand(src, tuple, key, &self.regs)
    }

    /// Run a stage and read its value as a predicate.
    #[inline(always)]
    pub(crate) fn test(&mut self, stage: &Stage, f: &mut Frame<'_>) -> Result<bool, OpError> {
        self.run(&stage.ops, f)?;
        Ok(self.value(stage.value, f.tuple, f.key).truthy())
    }

    /// Run the operations `ops`, each writing its register: the one
    /// interpreter loop, inlined where a stage is run, so that a stage
    /// with no operations is one comparison and `time / 2` or
    /// `len >= 110` a few instructions in the caller. What needs no call
    /// is computed here; the rest goes to [`call_out`].
    #[inline(always)]
    pub(crate) fn run(&mut self, ops: &Range<usize>, f: &mut Frame<'_>) -> Result<(), OpError> {
        let (code, regs) = (&self.ops[..ops.end], self.regs.as_mut_slice());
        let (tuple, key) = (f.tuple, f.key);
        let mut pc = ops.start;
        while pc < ops.end {
            let inst = &code[pc];
            pc += 1;
            let dst = inst.dst;
            // An operation done on the spot writes its register and goes
            // on; the rest, and a pair `binary_fast` leaves, fall through.
            match &inst.op {
                Op::Binary { op, a, b } => {
                    let (x, y) = (operand(*a, tuple, key, regs), operand(*b, tuple, key, regs));
                    if let Some(v) = binary_fast(*op, x, y) {
                        regs[dst] = v;
                        continue;
                    }
                }
                Op::Not { a } => {
                    regs[dst] = Value::Bool(!operand(*a, tuple, key, regs).truthy());
                    continue;
                }
                Op::ShortCircuit { a, when, skip_to } => {
                    if operand(*a, tuple, key, regs).truthy() == *when {
                        regs[dst] = Value::Bool(*when);
                        pc = *skip_to;
                    }
                    continue;
                }
                Op::Truthy { a } => {
                    regs[dst] = Value::Bool(operand(*a, tuple, key, regs).truthy());
                    continue;
                }
                Op::Copy { a } => {
                    regs[dst] = operand(*a, tuple, key, regs).clone();
                    continue;
                }
                _ => {}
            }
            call_out(inst, regs, f)?;
        }
        Ok(())
    }
}

/// Builds a [`Program`]: the clauses of one phase, lowered in the order
/// the loop runs them, sharing registers.
pub(crate) struct Lowering<'a> {
    program: Program,
    libs: &'a [Arc<SfunLibrary>],
    /// Per library, while a group-phase body is lowered: does no clause
    /// of the body call a function that may change the state?
    unchanged: Vec<bool>,
    /// The body's read-only calls with constant arguments on such a
    /// library, for [`Self::prologue`].
    hoisted: Vec<Inst>,
}

impl<'a> Lowering<'a> {
    pub(crate) fn new(libs: &'a [Arc<SfunLibrary>]) -> Self {
        let program = Program { ops: Vec::new(), regs: Vec::new() };
        Lowering { program, libs, unchanged: Vec::new(), hoisted: Vec::new() }
    }

    pub(crate) fn finish(self) -> Program {
        debug_assert!(self.hoisted.is_empty(), "a body's prologue was not placed");
        self.program
    }

    /// How many operations there are: stages are ranges of them.
    pub(crate) fn at(&self) -> usize {
        self.program.ops.len()
    }

    /// `n` more registers, adjacent.
    pub(crate) fn registers(&mut self, n: usize) -> Range<usize> {
        let base = self.program.regs.len();
        self.program.regs.resize(base + n, Value::Null);
        base..base + n
    }

    /// Lower `e` as a stage of its own.
    pub(crate) fn stage(&mut self, e: &Expr, scope: Scope) -> Stage {
        let start = self.at();
        let value = self.lower(e, scope, None);
        Stage { ops: start..self.at(), value }
    }

    /// Start a body: the clauses evaluated for each group of a phase.
    pub(crate) fn body(&mut self, clauses: &[&Expr]) {
        self.unchanged = vec![true; self.libs.len()];
        for clause in clauses {
            clause.walk(&mut |node| {
                if let Expr::Sfun { lib, name, fun, .. } = node {
                    self.unchanged[*lib] &= self.libs[*lib].is_read_only(name, fun);
                }
            });
        }
    }

    /// End a body: place the calls hoisted out of its clauses, the stage
    /// to run once ahead of the phase's groups.
    pub(crate) fn prologue(&mut self) -> Range<usize> {
        let start = self.at();
        self.program.ops.append(&mut self.hoisted);
        self.unchanged.clear();
        start..self.at()
    }

    /// A value that lies somewhere: read in place, or copied `into`.
    fn leaf(&mut self, a: Src, into: Option<usize>) -> Src {
        let Some(dst) = into else { return a };
        self.program.ops.push(Inst { op: Op::Copy { a }, dst });
        Src::Reg(dst)
    }

    /// Emit the operations of `e` and say where its value is found; with
    /// `into`, that is the given register.
    pub(crate) fn lower(&mut self, e: &Expr, scope: Scope, into: Option<usize>) -> Src {
        let missing = |what| Op::Missing { what, clause: scope.clause };
        let mut hoist = false;
        let op = match e {
            Expr::Literal(v) => {
                // A constant: placed now, never written again.
                let dst = into.unwrap_or_else(|| self.registers(1).start);
                self.program.regs[dst] = v.clone();
                return Src::Reg(dst);
            }
            Expr::Column(i) if scope.tuple => return self.leaf(Src::Col(*i), into),
            Expr::Column(_) => missing("input column"),
            Expr::GroupVar(i) => match scope.group_vars {
                Some(GroupVars::Regs(base)) => return self.leaf(Src::Reg(base + i), into),
                Some(GroupVars::Key) => return self.leaf(Src::Key(*i), into),
                None => missing("group-by variable"),
            },
            Expr::Binary { op: op @ (BinOp::And | BinOp::Or), lhs, rhs } => {
                let a = self.lower(lhs, scope, None);
                let dst = into.unwrap_or_else(|| self.registers(1).start);
                let short = self.at();
                let op = Op::ShortCircuit { a, when: *op == BinOp::Or, skip_to: 0 };
                self.program.ops.push(Inst { op, dst });
                let b = self.lower(rhs, scope, None);
                // Past the `Truthy` that follows the right operand.
                let end = self.at() + 1;
                if let Op::ShortCircuit { skip_to, .. } = &mut self.program.ops[short].op {
                    *skip_to = end;
                }
                return self.emit(Op::Truthy { a: b }, Some(dst));
            }
            Expr::Binary { op, lhs, rhs } => {
                let (a, b) = (self.lower(lhs, scope, None), self.lower(rhs, scope, None));
                Op::Binary { op: *op, a, b }
            }
            Expr::Not(inner) => Op::Not { a: self.lower(inner, scope, None) },
            Expr::Aggregate(slot) if scope.aggs => Op::Aggregate { slot: *slot },
            Expr::Aggregate(_) => missing("aggregate"),
            Expr::SuperAgg(slot) if scope.superaggs => Op::SuperAgg { slot: *slot },
            Expr::SuperAgg(_) => missing("superaggregate"),
            Expr::Sfun { lib, name, fun, args } => {
                hoist = args.iter().all(|arg| matches!(arg, Expr::Literal(_)))
                    && self.unchanged.get(*lib) == Some(&true)
                    && self.libs[*lib].is_read_only(name, fun);
                let args = self.lower_args(args, scope);
                match scope.sfun {
                    true => Op::Sfun { lib: *lib, name, fun: Arc::clone(fun), args },
                    false => missing("stateful function state"),
                }
            }
            Expr::Scalar { name, fun, args } => {
                let args = self.lower_args(args, scope);
                Op::Scalar { name, fun: Arc::clone(fun), args }
            }
        };
        if hoist && scope.sfun {
            let dst = into.unwrap_or_else(|| self.registers(1).start);
            self.hoisted.push(Inst { op, dst });
            return Src::Reg(dst);
        }
        self.emit(op, into)
    }

    /// Place `op`, writing `into` or a new register.
    fn emit(&mut self, op: Op, into: Option<usize>) -> Src {
        let dst = into.unwrap_or_else(|| self.registers(1).start);
        self.program.ops.push(Inst { op, dst });
        Src::Reg(dst)
    }

    /// Lower call arguments into adjacent registers, left to right.
    fn lower_args(&mut self, args: &[Expr], scope: Scope) -> Range<usize> {
        let regs = self.registers(args.len());
        for (arg, reg) in args.iter().zip(regs.clone()) {
            self.lower(arg, scope, Some(reg));
        }
        regs
    }
}

/// A predicate over one input tuple — a shared prefilter hoisted out of
/// the queries behind it — lowered once and run as a `Program`, the
/// way the operator runs its own clauses. [`Expr::eval_bool`] with only
/// a tuple in scope is its meaning.
///
/// A caller that filters *ahead* of operators which keep their full
/// WHERE treats an error as a pass: the tuple then reaches an operator,
/// which raises the error under its own clause, or rejects the tuple
/// before the failing conjunct is reached — exactly as without the
/// prefilter.
pub struct Predicate(Program, Stage);

impl Predicate {
    /// Lower `expr`.
    pub fn new(expr: &Expr) -> Self {
        let scope = Scope { clause: "prefilter", tuple: true, ..Scope::default() };
        let (program, stage) = Program::lower(expr, scope);
        Predicate(program, stage)
    }

    /// Does `tuple` satisfy the predicate? Anything but an input column
    /// is out of scope and an error.
    pub fn test(&mut self, tuple: &Tuple) -> Result<bool, OpError> {
        self.0.test(&self.1, &mut Frame::of_tuple(tuple))
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use proptest::prelude::*;

    use super::*;
    use crate::expr::EvalCtx;

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
    struct Given {
        tuple: Option<Tuple>,
        group_vars: Option<Vec<Value>>,
        aggs: Option<Vec<AggState>>,
        superaggs: Option<Vec<SuperAggState>>,
        sfun_states: bool,
    }

    fn given() -> impl Strategy<Value = Given> {
        let values = |n| proptest::collection::vec(value(), n..n + 1);
        let present = || (0u8..5).prop_map(|n| n > 0);
        (
            (present(), values(COLUMNS)),
            (present(), values(GROUP_VARS)),
            (present(), values(AGGS)),
            (present(), value(), any::<u64>()),
            present(),
        )
            .prop_map(|((t, cols), (g, gvs), (a, avs), (s, sv, n), sfun_states)| Given {
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

    impl Given {
        /// The same, as lowering is told it.
        fn scope(&self) -> Scope {
            Scope {
                clause: "TEST",
                tuple: self.tuple.is_some(),
                group_vars: self.group_vars.as_ref().map(|_| GroupVars::Key),
                aggs: self.aggs.is_some(),
                superaggs: self.superaggs.is_some(),
                sfun: self.sfun_states,
            }
        }
    }

    fn fresh_states() -> Vec<Box<dyn Any + Send>> {
        (0..LIBS).map(|_| Box::new(CallLog::new()) as Box<dyn Any + Send>).collect()
    }

    /// An outcome and the SFUN call logs behind it, rendered exactly
    /// (`Value`'s `==` would let `U64(5)` pass for `I64(5)`).
    fn render<T: std::fmt::Debug>(
        outcome: Result<T, OpError>,
        states: &[Box<dyn Any + Send>],
    ) -> String {
        let logs: Vec<&CallLog> = states.iter().map(|s| s.downcast_ref().unwrap()).collect();
        format!("{outcome:?} after {logs:?}")
    }

    /// Evaluate the reference with `run` in a fresh context over `given`.
    fn observe<T: std::fmt::Debug>(
        given: &Given,
        run: impl FnOnce(&mut EvalCtx<'_>) -> Result<T, OpError>,
    ) -> String {
        let mut states = fresh_states();
        let outcome = run(&mut EvalCtx {
            clause: "TEST",
            tuple: given.tuple.as_ref(),
            group_vars: given.group_vars.as_deref(),
            aggs: given.aggs.as_deref(),
            superaggs: given.superaggs.as_deref(),
            sfun_states: given.sfun_states.then_some(states.as_mut_slice()),
        });
        render(outcome, &states)
    }

    /// Run `stage` of `program` in a fresh frame over `given` and read
    /// its value with `read`.
    fn observe_stage<T: std::fmt::Debug>(
        given: &Given,
        program: &mut Program,
        stage: &Stage,
        read: impl FnOnce(&Value) -> T,
    ) -> String {
        let (none, mut states) = (Tuple::empty(), fresh_states());
        let mut superaggs = given.superaggs.clone().unwrap_or_default();
        let mut frame = Frame {
            tuple: given.tuple.as_ref().unwrap_or(&none),
            key: given.group_vars.as_deref().unwrap_or_default(),
            aggs: given.aggs.as_deref().unwrap_or_default(),
            superaggs: &mut superaggs,
            states: &mut states,
        };
        let outcome = program
            .run(&stage.ops, &mut frame)
            .map(|()| read(program.value(stage.value, frame.tuple, frame.key)));
        render(outcome, &states)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        /// A lowered program is the expression it came from: the same
        /// value or the same error, after the same SFUN calls.
        #[test]
        fn lowered_program_is_expr_eval(e in expr(), given in given()) {
            let (mut program, stage) = Program::lower(&e, given.scope());
            // Twice: the second run starts from the first one's registers.
            for _ in 0..2 {
                prop_assert_eq!(
                    observe_stage(&given, &mut program, &stage, Value::clone),
                    observe(&given, |ctx| e.eval(ctx)),
                    "eval of {:?} in {:?}", e, given
                );
                prop_assert_eq!(
                    observe_stage(&given, &mut program, &stage, Value::truthy),
                    observe(&given, |ctx| e.eval_bool(ctx)),
                    "eval_bool of {:?} in {:?}", e, given
                );
            }
        }
    }

    /// Everything in scope, nothing there: for expressions of literals
    /// and calls.
    fn bare() -> Given {
        Given { tuple: None, group_vars: None, aggs: None, superaggs: None, sfun_states: true }
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
        let scope = Scope { clause: "TEST", tuple: true, sfun: true, ..Scope::default() };
        let (program, _) = Program::lower(&e, scope);
        assert_eq!(program.ops.len(), 2, "one copy, one call");
        assert_eq!(program.regs[1], Value::U64(7));
    }

    #[test]
    fn short_circuit_skips_the_right_operand() {
        let call = || Expr::Sfun { lib: 1, name: "rec", fun: rec(), args: vec![] };
        let observe = |e: Expr| {
            let (mut program, stage) = Program::lower(&e, bare().scope());
            observe_stage(&bare(), &mut program, &stage, Value::clone)
        };
        assert_eq!(observe(Expr::lit(false).and(call())), "Ok(Bool(false)) after [[], []]");
        let or = Expr::bin(BinOp::Or, Expr::lit(0u64), call());
        assert_eq!(observe(or), "Ok(Bool(true)) after [[], [\"[]\"]]");
    }

    /// `x = TRUE` / `x <> FALSE` is how every text query writes a
    /// predicate SFUN: two `Bool`s are compared on the spot, anything
    /// else next to a `Bool` goes to [`BinOp::apply`] — and either way
    /// the answer is `BinOp::apply`'s.
    #[test]
    fn bool_equality_is_decided_on_the_spot() {
        let kinds = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::U64(0),
            Value::U64(1),
            Value::I64(1),
            Value::F64(1.0),
            Value::str("a"),
        ];
        for op in [BinOp::Eq, BinOp::Ne] {
            for (a, b) in kinds.iter().flat_map(|a| kinds.iter().map(move |b| (a, b))) {
                let fast = binary_fast(op, a, b);
                let both_bool = matches!((a, b), (Value::Bool(_), Value::Bool(_)));
                let both_u64 = matches!((a, b), (Value::U64(_), Value::U64(_)));
                assert_eq!(fast.is_some(), both_bool || both_u64, "{a:?} {op:?} {b:?}");
                if let Some(v) = fast {
                    assert_eq!(
                        format!("{:?}", Ok::<_, ()>(v)),
                        format!("{:?}", op.apply(a, b).map_err(|_| ()))
                    );
                }
            }
        }
        // The slow path's answers, through a program.
        let eq_true = |v: Value| {
            let e = Expr::Literal(v).eq(Expr::lit(true));
            let (mut program, stage) = Program::lower(&e, bare().scope());
            let through_program = observe_stage(&bare(), &mut program, &stage, Value::clone);
            assert_eq!(through_program, observe(&bare(), |ctx| e.eval(ctx)));
            through_program
        };
        assert_eq!(eq_true(Value::Null), "Ok(Bool(false)) after [[], []]");
        assert_eq!(eq_true(Value::U64(1)), "Ok(Bool(true)) after [[], []]");
        assert_eq!(eq_true(Value::U64(2)), "Ok(Bool(false)) after [[], []]");
        assert_eq!(eq_true(Value::Bool(true)), "Ok(Bool(true)) after [[], []]");
    }
}
