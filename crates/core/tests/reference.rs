//! The operator against a reference operator.
//!
//! [`Reference`] is the §6.4 loop written directly over the public
//! reference pieces — [`Expr::eval`], [`AggSpec::update`], the
//! [`SuperAggSpec`] hooks, `SfunLibrary::init_state` — with a vector of
//! groups in creation order per supergroup. It lowers nothing, shares no
//! registers, skips no latched aggregate and hoists no call: every
//! clause is a tree walk in its own [`EvalCtx`], where the module
//! documentation of `sso_core::operator` says it happens.
//! [`SamplingOperator`] must be indistinguishable from it: the same
//! `Ok` / `Err` per tuple, the same windows with the same rows in the
//! same order and the same [`WindowStats`] — and the same calls, in the
//! same order, of every stateful function not declared read-only.
//!
//! [`SamplingOperator::process_batch`] must in turn be indistinguishable
//! from [`SamplingOperator::process`] over the same feed cut into
//! batches anywhere: the same windows handed over in the same order and
//! at the same point of the call log, and on a failing tuple the same
//! error, after exactly the windows closed before it.
//!
//! [`WindowStats`]: sso_core::WindowStats

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;
use sso_core::libs::distinct::DistinctOpConfig;
use sso_core::libs::reservoir::ReservoirOpConfig;
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::queries::{self, EXAMPLE_QUERIES};
use sso_core::sfun::{state_mut, state_ref};
use sso_core::{
    AggSpec, AggState, BinOp, EvalCtx, Expr, OpError, OperatorSpec, SamplingOperator, SfunLibrary,
    SfunStates, Signature, SuperAggSpec, SuperAggState, WindowOutput, WindowStats,
};
use sso_types::{Packet, Protocol, Tuple, Value, ValueKind};

struct Group {
    key: Vec<Value>,
    aggs: Vec<AggState>,
}

struct Supergroup {
    key: Vec<Value>,
    superaggs: Vec<SuperAggState>,
    states: SfunStates,
    /// In creation order.
    groups: Vec<Group>,
}

/// The reference operator (see the module documentation).
struct Reference {
    spec: Arc<OperatorSpec>,
    window: Option<Vec<Value>>,
    /// In creation order.
    supergroups: Vec<Supergroup>,
    /// The previous window's SFUN states by supergroup key.
    old: HashMap<Vec<Value>, SfunStates>,
    stats: WindowStats,
}

/// The context of a tuple-phase clause other than GROUP BY.
fn tuple_ctx<'a>(
    clause: &'static str,
    tuple: &'a Tuple,
    group_vars: &'a [Value],
    superaggs: Option<&'a [SuperAggState]>,
    states: &'a mut SfunStates,
) -> EvalCtx<'a> {
    let (tuple, group_vars) = (Some(tuple), Some(group_vars));
    EvalCtx { clause, tuple, group_vars, aggs: None, superaggs, sfun_states: Some(states) }
}

/// The context of a group-phase clause.
fn group_ctx<'a>(
    clause: &'static str,
    group: &'a Group,
    superaggs: &'a [SuperAggState],
    states: &'a mut SfunStates,
) -> EvalCtx<'a> {
    EvalCtx {
        clause,
        tuple: None,
        group_vars: Some(&group.key),
        aggs: Some(&group.aggs),
        superaggs: Some(superaggs),
        sfun_states: Some(states),
    }
}

impl Reference {
    fn new(spec: OperatorSpec) -> Self {
        spec.validate().expect("valid spec");
        Reference {
            spec: Arc::new(spec),
            window: None,
            supergroups: Vec::new(),
            old: HashMap::new(),
            stats: WindowStats::default(),
        }
    }

    fn process(&mut self, tuple: &Tuple) -> Result<Option<WindowOutput>, OpError> {
        let spec = Arc::clone(&self.spec);
        let mut gb = vec![Value::Null; spec.group_by.len()];
        let group_var = |i: usize| {
            let mut ctx = EvalCtx { tuple: Some(tuple), ..EvalCtx::empty("GROUP BY") };
            spec.group_by[i].1.eval(&mut ctx)
        };
        // 1. The window-defining group-by values; a change closes the
        // window.
        for &i in &spec.window_indices {
            gb[i] = group_var(i)?;
        }
        let window: Vec<Value> = spec.window_indices.iter().map(|&i| gb[i].clone()).collect();
        let out = match &self.window {
            Some(current) if *current == window => None,
            Some(_) => Some(self.flush()?),
            None => None,
        };
        self.window = Some(window);
        self.stats.tuples += 1;
        // 2. The group-by values the supergroup key and WHERE read.
        let mut early = spec.supergroup_indices.clone();
        if let Some(w) = &spec.where_clause {
            w.walk(&mut |node| {
                if let Expr::GroupVar(i) = node {
                    early.push(*i);
                }
            });
        }
        early.sort_unstable();
        early.dedup();
        early.retain(|i| !spec.window_indices.contains(i));
        for &i in &early {
            gb[i] = group_var(i)?;
        }
        // 3. The supergroup, its states carried over from the last window.
        let sg_key: Vec<Value> = spec.supergroup_indices.iter().map(|&i| gb[i].clone()).collect();
        let sg_idx = match self.supergroups.iter().position(|sg| sg.key == sg_key) {
            Some(i) => i,
            None => {
                let old = self.old.get(&sg_key);
                let states = (spec.sfun_libs.iter().enumerate())
                    .map(|(li, lib)| lib.init_state(old.map(|old| old[li].as_ref() as &dyn Any)))
                    .collect();
                let superaggs = spec.superaggs.iter().map(SuperAggSpec::init).collect();
                self.supergroups.push(Supergroup {
                    key: sg_key,
                    superaggs,
                    states,
                    groups: vec![],
                });
                self.supergroups.len() - 1
            }
        };
        let Supergroup { superaggs, states, groups, .. } = &mut self.supergroups[sg_idx];
        // 4. WHERE.
        if let Some(w) = &spec.where_clause {
            if !w.eval_bool(&mut tuple_ctx("WHERE", tuple, &gb, Some(superaggs), states))? {
                return Ok(out);
            }
        }
        self.stats.admitted += 1;
        // 5. The remaining group-by values.
        for (i, value) in gb.iter_mut().enumerate() {
            if !spec.window_indices.contains(&i) && !early.contains(&i) {
                *value = group_var(i)?;
            }
        }
        // 6. Superaggregates.
        for (sa, state) in spec.superaggs.iter().zip(superaggs.iter_mut()) {
            sa.on_tuple(state, &mut tuple_ctx("SUPERAGG", tuple, &gb, None, states))?;
        }
        // 7. The group and its aggregates; a group whose first update
        // fails was never there.
        let found = groups.iter().position(|g| g.key == gb);
        let mut fresh: Vec<AggState> = spec.aggregates.iter().map(AggSpec::init).collect();
        let aggs = match found {
            Some(i) => &mut groups[i].aggs,
            None => &mut fresh,
        };
        for (agg, state) in spec.aggregates.iter().zip(aggs.iter_mut()) {
            agg.update(state, &mut tuple_ctx("AGGREGATE", tuple, &gb, None, states))?;
        }
        if found.is_none() {
            self.stats.groups_created += 1;
            groups.push(Group { key: gb.clone(), aggs: fresh });
            for (sa, state) in spec.superaggs.iter().zip(superaggs.iter_mut()) {
                sa.on_group_add(state, &gb)?;
            }
        }
        // 8. CLEANING WHEN, and the cleaning phase.
        let Some(cw) = &spec.cleaning_when else { return Ok(out) };
        if cw.eval_bool(&mut tuple_ctx("CLEANING WHEN", tuple, &gb, Some(superaggs), states))? {
            self.stats.cleaning_phases += 1;
            let cb = spec.cleaning_by.as_ref().expect("CLEANING BY comes with CLEANING WHEN");
            let mut kept = Vec::new();
            for group in std::mem::take(groups) {
                if cb.eval_bool(&mut group_ctx("CLEANING BY", &group, superaggs, states))? {
                    kept.push(group);
                } else {
                    for (sa, state) in spec.superaggs.iter().zip(superaggs.iter_mut()) {
                        sa.on_group_remove(state, &group.key, &group.aggs)?;
                    }
                    self.stats.evictions += 1;
                }
            }
            *groups = kept;
        }
        Ok(out)
    }

    /// Close the window: the window-end signal to every state, then
    /// HAVING and SELECT per group.
    fn flush(&mut self) -> Result<WindowOutput, OpError> {
        for sg in &mut self.supergroups {
            for (lib, state) in self.spec.sfun_libs.iter().zip(sg.states.iter_mut()) {
                lib.on_window_end(state.as_mut());
            }
        }
        let mut rows = Vec::new();
        for Supergroup { superaggs, states, groups, .. } in &mut self.supergroups {
            for group in groups.iter() {
                let keep = match &self.spec.having {
                    Some(h) => h.eval_bool(&mut group_ctx("HAVING", group, superaggs, states))?,
                    None => true,
                };
                if keep {
                    let mut ctx = group_ctx("SELECT", group, superaggs, states);
                    let row: Result<Vec<Value>, OpError> =
                        self.spec.select.iter().map(|(_, e)| e.eval(&mut ctx)).collect();
                    rows.push(Tuple::new(row?));
                }
            }
        }
        self.old = self.supergroups.drain(..).map(|sg| (sg.key, sg.states)).collect();
        let mut stats = std::mem::take(&mut self.stats);
        stats.output_rows = rows.len() as u64;
        let window = Tuple::new(self.window.clone().unwrap_or_default());
        Ok(WindowOutput { window, rows, stats, uncovered: 0 })
    }

    fn finish(&mut self) -> Result<Option<WindowOutput>, OpError> {
        if self.window.is_none() {
            return Ok(None);
        }
        let out = self.flush()?;
        self.window = None;
        Ok(Some(out))
    }
}

// ---- the recording library --------------------------------------------

thread_local! {
    /// Every call a recording function receives, on this thread.
    static LOG: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn log(entry: String) {
    LOG.with(|log| log.borrow_mut().push(entry));
}

fn take_log() -> Vec<String> {
    LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
}

/// The state of the recording library: how many mutating calls it has
/// received (results depend on it, so a call skipped, repeated or
/// reordered changes later results too).
struct Calls(u64);

/// `rec(..)` logs its arguments, rejects a string in first place and
/// returns the number of mutating calls so far; `odd()` whether that
/// number is odd; `seen()` reads it. `seen` is registered read-only iff
/// `read_only` — it logs either way, so the log shows which of its calls
/// the operator made.
fn recording_library(name: &'static str, read_only: bool) -> SfunLibrary {
    let seen = |calls: &Calls| {
        log("seen".to_string());
        Ok(Value::U64(calls.0))
    };
    let lib = SfunLibrary::new(name, |prev| {
        let carried = prev.and_then(|p| p.downcast_ref::<Calls>()).map(|c| c.0 % 3);
        log(format!("init({carried:?})"));
        Box::new(Calls(carried.unwrap_or(0)))
    })
    .with_window_end(|state| log(format!("end({})", state.downcast_ref::<Calls>().unwrap().0)))
    .register("rec", Signature::range(0, 3, ValueKind::UInt), |state, argv| {
        let calls = state_mut::<Calls>(state, "rec")?;
        calls.0 += 1;
        log(format!("rec{argv:?}"));
        match argv.first() {
            Some(Value::Str(_)) => Err("rec: string argument".to_string()),
            _ => Ok(Value::U64(calls.0)),
        }
    })
    .register("odd", Signature::exact(0, ValueKind::Bool), |state, _| {
        let calls = state_mut::<Calls>(state, "odd")?;
        calls.0 += 1;
        log("odd".to_string());
        Ok(Value::Bool(calls.0 % 2 == 1))
    });
    let sig = Signature::exact(0, ValueKind::UInt);
    if read_only {
        lib.register_read_only("seen", sig, move |state, _| seen(state_ref(state, "seen")?))
    } else {
        lib.register("seen", sig, move |state, _| seen(state_ref(state, "seen")?))
    }
}

fn call(libs: &[Arc<SfunLibrary>], lib: usize, name: &'static str, args: Vec<Expr>) -> Expr {
    queries::sfun_expr(lib, &libs[lib], name, args).expect("a recording function")
}

// ---- running both -----------------------------------------------------

/// What one side made of a feed: per tuple the rendered outcome (up to
/// and including the first error), the rendered end-of-stream window,
/// and the calls logged.
#[derive(Debug, PartialEq)]
struct Run {
    outcomes: Vec<String>,
    log: Vec<String>,
}

fn run(
    feed: &[Tuple],
    mut process: impl FnMut(&Tuple) -> Result<Option<WindowOutput>, OpError>,
    finish: impl FnOnce() -> Result<Option<WindowOutput>, OpError>,
) -> Run {
    take_log();
    let mut outcomes = Vec::new();
    for tuple in feed {
        let outcome = process(tuple);
        // Rendered: `Value`'s `==` lets `I64(5)` pass for `U64(5)`.
        outcomes.push(format!("{outcome:?}"));
        if outcome.is_err() {
            return Run { outcomes, log: take_log() };
        }
    }
    outcomes.push(format!("{:?}", finish()));
    Run { outcomes, log: take_log() }
}

/// Run `feed` through the operator and through the reference, each over
/// its own instance of the spec `build` makes (a library may count its
/// instances).
fn both(build: impl Fn() -> OperatorSpec, feed: &[Tuple]) -> (Run, Run) {
    let op = RefCell::new(SamplingOperator::new(build()).expect("valid spec"));
    let operator = run(feed, |t| op.borrow_mut().process(t), || op.borrow_mut().finish());
    let reference = RefCell::new(Reference::new(build()));
    let reference =
        run(feed, |t| reference.borrow_mut().process(t), || reference.borrow_mut().finish());
    (operator, reference)
}

fn without_seen(log: &[String]) -> Vec<&String> {
    log.iter().filter(|entry| *entry != "seen").collect()
}

// ---- process_batch against process ------------------------------------

/// Where a feed is cut into `process_batch` calls: `mode` 0 makes every
/// tuple a batch of its own, 1 cuts at each tuple that closes a window
/// (in the per-tuple run), 2 just past each one, 3 adds nothing; `at`
/// adds a cut at each position it holds, modulo the feed length + 1; and
/// there is always an empty batch.
#[derive(Debug, Clone)]
struct Cuts {
    mode: u8,
    at: Vec<usize>,
}

fn cuts() -> impl Strategy<Value = Cuts> {
    (0u8..4, proptest::collection::vec(0usize..1000, 0..6)).prop_map(|(mode, at)| Cuts { mode, at })
}

impl Cuts {
    /// The batches of a feed of `n` tuples, of which those `closes` says
    /// closed a window.
    fn batches(&self, n: usize, closes: &[bool]) -> Vec<Range<usize>> {
        let closing = (0..n).filter(|&i| closes[i]);
        let mut points: Vec<usize> = self.at.iter().map(|i| i % (n + 1)).collect();
        match self.mode {
            0 => points.extend(0..=n),
            1 => points.extend(closing),
            2 => points.extend(closing.map(|i| i + 1)),
            _ => {}
        }
        points.extend([0, 0, n]);
        points.sort_unstable();
        points.windows(2).map(|w| w[0]..w[1]).collect()
    }
}

/// What a run of the operator handed over, in order: the calls logged
/// up to each window's handover, the window, and at the end the first
/// error or the end-of-stream window — so a window handed over late or
/// early moves against the log.
type Handover = Vec<String>;

fn window_handed_over(events: &mut Handover, w: &WindowOutput) {
    events.extend(take_log());
    events.push(format!("window {w:?}"));
}

fn ended(events: &mut Handover, how: String) -> Handover {
    events.extend(take_log());
    events.push(how);
    std::mem::take(events)
}

/// The operator over `feed` a tuple at a time, and which tuples closed
/// a window.
fn per_tuple(op: &mut SamplingOperator, feed: &[Tuple]) -> (Handover, Vec<bool>) {
    take_log();
    let (mut events, mut closes) = (Vec::new(), vec![false; feed.len()]);
    for (i, tuple) in feed.iter().enumerate() {
        match op.process(tuple) {
            Ok(None) => {}
            Ok(Some(w)) => {
                closes[i] = true;
                window_handed_over(&mut events, &w);
            }
            Err(e) => return (ended(&mut events, format!("error {e:?}")), closes),
        }
    }
    (ended(&mut events, format!("finish {:?}", op.finish())), closes)
}

/// The operator over `feed` a batch at a time.
fn in_batches(op: &mut SamplingOperator, feed: &[Tuple], batches: &[Range<usize>]) -> Handover {
    take_log();
    let mut events = Vec::new();
    for batch in batches {
        let outcome = op.process_batch(&feed[batch.clone()], |w| {
            window_handed_over(&mut events, &w);
        });
        if let Err(e) = outcome {
            return ended(&mut events, format!("error {e:?}"));
        }
    }
    ended(&mut events, format!("finish {:?}", op.finish()))
}

/// Run `feed` through two instances of the operator `build` makes, one
/// per tuple and one in the batches `cuts` makes of it.
fn batched(build: impl Fn() -> OperatorSpec, feed: &[Tuple], cuts: &Cuts) -> (Handover, Handover) {
    let mut op = SamplingOperator::new(build()).expect("valid spec");
    let (one_by_one, closes) = per_tuple(&mut op, feed);
    let batches = cuts.batches(feed.len(), &closes);
    let mut op = SamplingOperator::new(build()).expect("valid spec");
    (one_by_one, in_batches(&mut op, feed, &batches))
}

// ---- generated specs and feeds ----------------------------------------

const COLUMNS: usize = 4;
const GROUP_VARS: usize = 3;
const AGGS: usize = 3;
const SUPERAGGS: usize = 3;
const LIBS: usize = 2;

/// A choice among `arms`, each as likely as its weight says. (The
/// vendored `prop_oneof!` is uniform: a weight is that many arms.)
fn weighted<T: 'static>(arms: Vec<(usize, BoxedStrategy<T>)>) -> BoxedStrategy<T> {
    let arms = arms.into_iter().flat_map(|(weight, arm)| std::iter::repeat_n(arm, weight));
    Union::new(arms.collect()).boxed()
}

/// `Some` seven times in ten.
fn often<T: 'static>(strategy: BoxedStrategy<T>) -> BoxedStrategy<Option<T>> {
    (0u8..10, strategy).prop_map(|(roll, value)| (roll < 7).then_some(value)).boxed()
}

/// Mostly small unsigned integers, so that most arithmetic succeeds;
/// now and then one of the kinds and magnitudes where it overflows,
/// changes sign or fails.
fn value() -> BoxedStrategy<Value> {
    weighted(vec![
        (40, (1u64..6).prop_map(Value::U64).boxed()),
        (2, Just(Value::U64(0)).boxed()),
        (1, Just(Value::Null).boxed()),
        (1, any::<bool>().prop_map(Value::Bool).boxed()),
        (1, prop_oneof![Just(u64::MAX), Just(1 << 63)].prop_map(Value::U64).boxed()),
        (1, (-3i64..4).prop_map(Value::I64).boxed()),
        (1, prop_oneof![Just(0.0), Just(-2.5), Just(f64::NAN)].prop_map(Value::F64).boxed()),
        (1, prop_oneof![Just(""), Just("a")].prop_map(Value::str).boxed()),
    ])
}

/// What a clause sees, and so what its expressions are drawn from.
#[derive(Clone, Copy)]
struct Sees {
    tuple: bool,
    group_vars: bool,
    aggs: bool,
    superaggs: bool,
    sfun: bool,
}

const GROUP_BY: Sees =
    Sees { tuple: true, group_vars: false, aggs: false, superaggs: false, sfun: false };
const ARGUMENT: Sees = Sees { group_vars: true, sfun: true, ..GROUP_BY };
const TUPLE_PREDICATE: Sees = Sees { superaggs: true, ..ARGUMENT };
const GROUP_KEY: Sees = Sees { tuple: false, sfun: false, ..ARGUMENT };
const GROUP_PREDICATE: Sees = Sees { tuple: false, aggs: true, ..TUPLE_PREDICATE };
/// What no clause sees all of: one time in forty a clause is drawn from
/// this, and then fails with `MissingContext` where the stray leaf is
/// reached.
const EVERYTHING: Sees = Sees { tuple: true, ..GROUP_PREDICATE };

/// An expression for a clause that sees `sees`.
fn clause(libs: &[Arc<SfunLibrary>], sees: Sees) -> BoxedStrategy<Expr> {
    weighted(vec![(39, expr(libs, sees)), (1, expr(libs, EVERYTHING))])
}

fn expr(libs: &[Arc<SfunLibrary>], sees: Sees) -> BoxedStrategy<Expr> {
    let weight = |seen: bool| if seen { 8 } else { 0 };
    let leaf = weighted(vec![
        (8, value().prop_map(Expr::Literal).boxed()),
        // Now and then one past the tuple's arity: reads as NULL.
        (weight(sees.tuple), (0..4 * COLUMNS + 1).prop_map(|i| Expr::Column(i / 4)).boxed()),
        (weight(sees.group_vars), (0..GROUP_VARS).prop_map(Expr::GroupVar).boxed()),
        (weight(sees.aggs), (0..AGGS).prop_map(Expr::Aggregate).boxed()),
        (weight(sees.superaggs), (0..SUPERAGGS).prop_map(Expr::SuperAgg).boxed()),
    ]);
    // Subexpressions that recur from clause to clause of a spec: what
    // clauses of one program share (registers, a prologue) must not
    // leak from one into the other.
    let half = || Expr::Column(2).div(Expr::lit(2u64));
    let of_tuple = vec![
        half(),
        Expr::Column(2).div(Expr::lit(2i64)),
        Expr::Column(1).add(Expr::Column(3)),
        Expr::Not(Box::new(Expr::Column(1))),
        half().gt(Expr::lit(1u64)).and(half().lt(Expr::Column(3))),
    ];
    let next = || Expr::GroupVar(1).add(Expr::lit(1u64));
    let of_group = vec![next(), next().gt(Expr::GroupVar(2)), Expr::Not(Box::new(next()))];
    let recurring = |from: Vec<Expr>| (0..from.len()).prop_map(move |i| from[i].clone()).boxed();
    let leaf = weighted(vec![
        (12, leaf),
        (weight(sees.tuple) / 4, recurring(of_tuple)),
        (weight(sees.group_vars) / 4, recurring(of_group)),
    ]);
    let libs = libs.to_vec();
    leaf.prop_recursive(3, 16, 3, move |inner| {
        use BinOp::*;
        // A zero divisor is an error; so that most runs get past their
        // first tuples, division is the rarer operator.
        let ops = [Add, Sub, Mul, Eq, Ne, Lt, Le, Gt, Ge, And, Or];
        let ops = [&ops[..], &ops[..], &[Div, Rem]].concat();
        let args = || proptest::collection::vec(inner.clone(), 0..3);
        let libs = libs.clone();
        let binary = (0..ops.len(), inner.clone(), inner.clone())
            .prop_map(move |(op, lhs, rhs)| Expr::bin(ops[op], lhs, rhs));
        let sfun = (0..LIBS, 0usize..4, args()).prop_map(move |(lib, f, args)| match f {
            0 | 1 => call(&libs, lib, "rec", args),
            2 => call(&libs, lib, "odd", vec![]),
            _ => call(&libs, lib, "seen", vec![]),
        });
        // Mostly at the function's arity.
        let scalar = (0usize..3, args(), 0u8..16).prop_map(|(which, mut args, roll)| {
            let (name, arity) = [("UMAX", 2), ("H", 1), ("prefix", 2)][which];
            let (name, fun) = sso_core::scalar::lookup(name).expect("scalar");
            if roll > 0 {
                args.resize(arity, Expr::lit(3u64));
            }
            Expr::Scalar { name, fun, args }
        });
        weighted(vec![
            (6, binary.boxed()),
            (1, inner.clone().prop_map(|e| Expr::Not(Box::new(e))).boxed()),
            (weight(sees.sfun), sfun.boxed()),
            (2, scalar.boxed()),
        ])
    })
}

fn aggregate(libs: &[Arc<SfunLibrary>]) -> BoxedStrategy<AggSpec> {
    let make: [fn(Expr) -> AggSpec; 5] =
        [AggSpec::Sum, AggSpec::Min, AggSpec::Max, AggSpec::First, AggSpec::Last];
    let with_arg = (0..make.len(), clause(libs, ARGUMENT)).prop_map(move |(kind, e)| make[kind](e));
    let libs = libs.to_vec();
    // What the latch is for.
    let first_seen = (0..LIBS, any::<bool>()).prop_map(move |(lib, negated)| {
        let seen = call(&libs, lib, "seen", vec![]);
        AggSpec::First(if negated { Expr::Not(Box::new(Expr::Column(1))).and(seen) } else { seen })
    });
    weighted(vec![
        (1, Just(AggSpec::Count).boxed()),
        (5, with_arg.boxed()),
        (1, first_seen.boxed()),
    ])
}

/// A spec over four columns: `col0 / 4` is the window, two more group-by
/// variables, three aggregates, three superaggregates, two recording
/// libraries, and every clause drawn from [`clause`].
fn spec(seen_is_read_only: bool) -> BoxedStrategy<OperatorSpec> {
    let libs: Vec<Arc<SfunLibrary>> = ["first_lib", "second_lib"]
        .map(|name| Arc::new(recording_library(name, seen_is_read_only)))
        .to_vec();
    let e = |sees| clause(&libs, sees);
    let tracked =
        (any::<bool>(), e(GROUP_KEY), 1usize..3, any::<bool>()).prop_map(|(kth, expr, k, max)| {
            match kth {
                true => SuperAggSpec::KthSmallest { expr, k },
                false => SuperAggSpec::Extreme { expr, max },
            }
        });
    let summed =
        (e(ARGUMENT), 0..AGGS).prop_map(|(expr, agg_slot)| SuperAggSpec::Sum { expr, agg_slot });
    let tuple_phase = (
        (e(GROUP_BY), e(GROUP_BY), 0usize..4),
        often(e(TUPLE_PREDICATE)),
        proptest::collection::vec(aggregate(&libs), AGGS..AGGS + 1),
        (tracked, summed),
    );
    let group_phase = (
        often((e(TUPLE_PREDICATE), e(GROUP_PREDICATE)).boxed()),
        often(e(GROUP_PREDICATE)),
        proptest::collection::vec(e(GROUP_PREDICATE), 1..4),
    );
    (tuple_phase, group_phase)
        .prop_map(move |(tuple_phase, (cleaning, having, select))| {
            let ((g1, g2, sg), where_clause, aggregates, (tracked, summed)) = tuple_phase;
            let (cleaning_when, cleaning_by) = cleaning.unzip();
            let select = select.into_iter().enumerate();
            OperatorSpec {
                select: select.map(|(i, e)| (format!("c{i}"), e)).collect(),
                where_clause,
                group_by: vec![
                    ("tb".into(), Expr::Column(0).div(Expr::lit(4u64))),
                    ("g1".into(), g1),
                    ("g2".into(), g2),
                ],
                window_indices: vec![0],
                supergroup_indices: [vec![], vec![1], vec![2], vec![2, 1]][sg].clone(),
                having,
                cleaning_when,
                cleaning_by,
                aggregates,
                superaggs: vec![SuperAggSpec::CountDistinct, tracked, summed],
                sfun_libs: libs.clone(),
            }
        })
        .boxed()
}

/// Tuples of [`COLUMNS`] values: a time that never goes back and turns
/// `col0 / 4` over every few tuples, two keys from small domains (groups
/// recur, also after they were evicted), and a measure that is now and
/// then of a kind arithmetic rejects.
fn feed() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec((0u64..3, 0u64..4, value(), 0u64..3), 1..60).prop_map(|steps| {
        let mut time = 0;
        let tuple = |(step, key, measure, other): (u64, u64, Value, u64)| {
            time += step;
            Tuple::new(vec![Value::U64(time), Value::U64(key), measure, Value::U64(other)])
        };
        steps.into_iter().map(tuple).collect()
    })
}

/// A `PKT` feed for the `EXAMPLE_QUERIES` builders: a few hosts, window
/// turnovers, and now and then a packet whose `len` is a string.
fn packets() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec((0u64..800, 0u32..6, 0u32..4, 40u32..1500, 0u8..40), 1..120).prop_map(
        |steps| {
            let mut uts = 0;
            let packet = |(step, src_ip, dest_ip, len, broken): (u64, u32, u32, u32, u8)| {
                uts += step * 1_000_000;
                let proto = Protocol::Tcp;
                let p = Packet { uts, src_ip, dest_ip, src_port: 1000, dest_port: 80, proto, len };
                let mut tuple = p.to_tuple();
                if broken == 0 {
                    tuple.set(7, Value::str("len"));
                }
                tuple
            };
            steps.into_iter().map(packet).collect()
        },
    )
}

/// The builder of an `EXAMPLE_QUERIES` entry, at sizes a 120-packet feed
/// exercises: one-second windows, samples of a handful.
fn builder(name: &str) -> OperatorSpec {
    match name {
        "total_sum_query" => queries::total_sum_query(1),
        "subset_sum_query" => {
            let cfg = SubsetSumOpConfig { target: 4, initial_z: 1.0, ..Default::default() };
            queries::subset_sum_query(1, cfg, true).unwrap()
        }
        "basic_subset_sum_query" => queries::basic_subset_sum_query(1, 600.0).unwrap(),
        "heavy_hitters_query" => queries::heavy_hitters_query(1, 5, Some(2)).unwrap(),
        "minhash_query" => queries::minhash_query(1, 2).unwrap(),
        "distinct_sample_query" => {
            let cfg = DistinctOpConfig { capacity: 3, carry_level: true };
            queries::distinct_sample_query(1, cfg).unwrap()
        }
        "reservoir_query" => {
            let cfg = ReservoirOpConfig { n: 4, ..Default::default() };
            queries::reservoir_query(1, cfg).unwrap()
        }
        other => panic!("EXAMPLE_QUERIES has a builder this test does not know: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// Generated specs whose libraries declare nothing read-only: the
    /// operator is the reference, call for call — a tuple at a time and
    /// a batch at a time.
    #[test]
    fn operator_is_the_reference(spec in spec(false), feed in feed(), cuts in cuts()) {
        let (operator, reference) = both(|| spec.clone(), &feed);
        prop_assert_eq!(operator, reference, "{:#?}", spec);
        let (one_by_one, batched) = batched(|| spec.clone(), &feed, &cuts);
        prop_assert_eq!(one_by_one, batched, "{:?} of {:#?}", cuts, spec);
    }

    /// The same with `seen` declared read-only: calls of it may be
    /// skipped or made ahead of a phase's groups — nothing else moves.
    #[test]
    fn read_only_calls_move_and_nothing_else_does(
        spec in spec(true),
        feed in feed(),
        cuts in cuts(),
    ) {
        let (operator, reference) = both(|| spec.clone(), &feed);
        prop_assert_eq!(&operator.outcomes, &reference.outcomes, "{:#?}", spec);
        prop_assert_eq!(without_seen(&operator.log), without_seen(&reference.log), "{:#?}", spec);
        let (one_by_one, batched) = batched(|| spec.clone(), &feed, &cuts);
        prop_assert_eq!(one_by_one, batched, "{:?} of {:#?}", cuts, spec);
    }

    #[test]
    fn example_queries_are_the_reference(
        which in 0..EXAMPLE_QUERIES.len(),
        feed in packets(),
        cuts in cuts(),
    ) {
        let (name, _) = EXAMPLE_QUERIES[which];
        let (operator, reference) = both(|| builder(name), &feed);
        prop_assert_eq!(operator, reference, "{}", name);
        let (one_by_one, batched) = batched(|| builder(name), &feed, &cuts);
        prop_assert_eq!(one_by_one, batched, "{:?} of {}", cuts, name);
    }
}

// ---- the legality edges of the two skips -------------------------------

/// `SELECT g, count(*), first(seen()) GROUP BY col0/100 as tb, col1 as g`
/// with `CLEANING WHEN rec() % 3 = 0 CLEANING BY count(*) > 1`: every
/// third tuple evicts the groups seen once.
fn latch_spec(seen_is_read_only: bool) -> OperatorSpec {
    let libs = vec![Arc::new(recording_library("lib", seen_is_read_only))];
    let mut spec = OperatorSpec::aggregation(
        vec![
            ("g".into(), Expr::GroupVar(1)),
            ("cnt".into(), Expr::Aggregate(0)),
            ("first_seen".into(), Expr::Aggregate(1)),
        ],
        vec![("tb".into(), Expr::Column(0).div(Expr::lit(100u64))), ("g".into(), Expr::Column(1))],
    );
    spec.window_indices = vec![0];
    spec.aggregates = vec![AggSpec::Count, AggSpec::First(call(&libs, 0, "seen", vec![]))];
    let third = Expr::bin(BinOp::Rem, call(&libs, 0, "rec", vec![]), Expr::lit(3u64));
    spec.cleaning_when = Some(third.eq(Expr::lit(0u64)));
    spec.cleaning_by = Some(Expr::Aggregate(0).gt(Expr::lit(1u64)));
    spec.sfun_libs = libs;
    spec
}

fn keys(feed: &[u64]) -> Vec<Tuple> {
    feed.iter().map(|&k| Tuple::new(vec![Value::U64(1), Value::U64(k)])).collect()
}

/// (i) A function registered through plain `register` is called for
/// every tuple of a live group, latched `first` or not.
#[test]
fn a_mutating_argument_of_first_is_evaluated_for_every_tuple() {
    let feed = keys(&[7, 7, 8, 8, 7, 9, 8, 7]);
    let (operator, reference) = both(|| latch_spec(false), &feed);
    assert_eq!(operator, reference);
    assert_eq!(operator.log.iter().filter(|e| *e == "seen").count(), feed.len());
}

/// (ii) Declared read-only it is called when a group needs its `first`
/// — a group evicted and created again, in the slot it left, needs it
/// again — and the rows are the same.
#[test]
fn a_read_only_argument_of_a_set_first_is_skipped() {
    // 7 twice, 8 once; the third tuple's cleaning phase evicts 8. Then 8
    // again, twice, and 7 again: `first(seen())` of the new 8 is the
    // count of `rec` calls by then, 3, not what the slot held, 2.
    let feed = keys(&[7, 7, 8, 8, 8, 7]);
    let (operator, reference) = both(|| latch_spec(true), &feed);
    assert_eq!(operator.outcomes, reference.outcomes);
    assert_eq!(without_seen(&operator.log), without_seen(&reference.log));
    let seen = |run: &Run| run.log.iter().filter(|e| *e == "seen").count();
    assert_eq!((seen(&operator), seen(&reference)), (3, 6));
    let rows = "rows: [Tuple { values: [U64(7), U64(3), U64(0)] }, \
                Tuple { values: [U64(8), U64(2), U64(3)] }]";
    assert!(operator.outcomes.last().unwrap().contains(rows), "{:?}", operator.outcomes);
}

/// `GROUP BY col0/100 as tb, col1 as g CLEANING WHEN TRUE CLEANING BY
/// <keep>`: a cleaning phase per tuple, over every group so far.
fn hoist_spec(keep: impl Fn(&[Arc<SfunLibrary>]) -> Expr) -> OperatorSpec {
    let libs = vec![Arc::new(recording_library("lib", true))];
    let mut spec = latch_spec(true);
    spec.aggregates = vec![AggSpec::Count, AggSpec::Count];
    spec.cleaning_when = Some(Expr::lit(true));
    spec.cleaning_by = Some(keep(&libs));
    spec.sfun_libs = libs;
    spec
}

/// (iii) A read-only call is made once per phase when nothing in the
/// phase can change what it reads — and where a mutating function of
/// its library is called beside it, it stays where it is.
#[test]
fn a_read_only_call_is_hoisted_unless_its_library_is_mutated_beside_it() {
    let feed = keys(&[1, 2, 3]);
    let calls = |run: &Run| -> Vec<String> {
        run.log
            .iter()
            .filter(|e| !e.starts_with("init") && !e.starts_with("end"))
            .cloned()
            .collect()
    };
    // `rec() >= seen()`: g, ro, g, ro, … as written.
    let mixed =
        |libs: &[Arc<SfunLibrary>]| call(libs, 0, "rec", vec![]).ge(call(libs, 0, "seen", vec![]));
    let (operator, reference) = both(|| hoist_spec(mixed), &feed);
    assert_eq!(operator, reference);
    let per_group = ["rec[]", "seen"];
    assert_eq!(calls(&operator), per_group.repeat(1 + 2 + 3));
    // `count(*) + 1 > seen()`: one `seen` per phase, ahead of its groups.
    let pure = |libs: &[Arc<SfunLibrary>]| {
        Expr::Aggregate(0).add(Expr::lit(1u64)).gt(call(libs, 0, "seen", vec![]))
    };
    let (operator, reference) = both(|| hoist_spec(pure), &feed);
    assert_eq!(operator.outcomes, reference.outcomes);
    assert_eq!((calls(&operator).len(), calls(&reference).len()), (3, 1 + 2 + 3));
}
