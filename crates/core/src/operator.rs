//! The generic sampling operator: specification and runtime.
//!
//! [`SamplingOperator::process`] implements the evaluation loop of §6.4
//! for one tuple, and [`SamplingOperator::process_batch`] the same body
//! over a batch, staged so that a tuple WHERE rejects pays for steps 1–4
//! and nothing else:
//!
//! 1. compute the window-defining group-by values; if one changed, close
//!    the window: run each state's window-end hook, evaluate HAVING on
//!    every group, emit the sampled groups, move supergroup states to the
//!    "old" table, and clear the group and supergroup tables;
//! 2. compute the group-by values the supergroup key and WHERE read;
//! 3. find or create the tuple's supergroup — a new supergroup whose key
//!    existed in the previous window inherits its state via the library's
//!    `state_init(old)`;
//! 4. evaluate WHERE (with tuple, group-by values, superaggregates and
//!    SFUN states in scope); discard the tuple on false;
//! 5. compute the remaining group-by values (they see no SFUN state, so
//!    putting them off changes nothing but the cost of a rejected tuple);
//! 6. update superaggregates;
//! 7. find or create the group; update its aggregates; register new
//!    groups with the supergroup and its superaggregates;
//! 8. evaluate CLEANING WHEN; when true, apply CLEANING BY to every
//!    group of this supergroup and evict the groups for which it is
//!    false (updating superaggregates).
//!
//! Where the spec has a run path (`RunPath`), `process_batch` takes
//! step 4 for a run of tuples in one call, and over a batch of
//! [`Packet`]s it builds a row only for a tuple that enters the body.
//!
//! The clauses are lowered once, at [`SamplingOperator::new`], into the
//! two programs of `crate::program`: the steps above are stages of the
//! tuple-phase program, over one register file in which the group-by
//! values lie as the group key; CLEANING BY, HAVING and SELECT are the
//! group-phase program. [`Expr::eval`] is the reference they are held to
//! (`tests/reference.rs`), not what runs per tuple. Left out, because
//! nobody can tell: the argument of a `first(..)` that is set, if it
//! calls only functions declared read-only; and per group, a read-only
//! call whose answer no clause of the phase can change (made once).
//!
//! Three tables back this, as in §6.4: the group table (`crate::groups`:
//! a group is a dense id into strided key and aggregate arenas), the
//! supergroup table (with its "old" twin for cross-window state
//! carry-over), and the supergroup→groups index — per supergroup, the
//! ids of its groups in insertion order, so output is deterministic and
//! cleaning and window close walk ids without hashing a key.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use rustc_hash::FxHashMap;
use sso_types::wire::{put_bytes, put_tuple, put_u32, take_tuple, Reader};
use sso_types::{Packet, Tuple, Value};

use crate::agg::{AggSpec, AggState};
use crate::error::OpError;
use crate::expr::{BinOp, Expr};
use crate::groups::{GroupTable, PagedBackend, SpillStats};
use crate::metrics::OperatorMetrics;
use crate::program::{Frame, GroupVars, Lowering, Program, Scope, Src, Stage};
use crate::sfun::{RunEnd, SfunLibrary, SfunRun, SfunStates, SfunTelemetry};
use crate::superagg::{SuperAggSpec, SuperAggState};

/// Full specification of a sampling (or plain aggregation) query over
/// one input stream.
#[derive(Debug, Clone)]
pub struct OperatorSpec {
    /// Output columns: name + group-phase expression.
    pub select: Vec<(String, Expr)>,
    /// Tuple-phase admission predicate (may call SFUNs, e.g.
    /// `ssample(len, 1000) = TRUE`).
    pub where_clause: Option<Expr>,
    /// Group-by variables: name + tuple-phase expression.
    pub group_by: Vec<(String, Expr)>,
    /// Indices into `group_by` of the window-defining (ordered)
    /// variables, e.g. `time/20 as tb`.
    pub window_indices: Vec<usize>,
    /// Indices into `group_by` forming the supergroup key (excluding
    /// window variables). Empty = the `ALL` supergroup.
    pub supergroup_indices: Vec<usize>,
    /// Finishing-off predicate, evaluated per group at window close.
    pub having: Option<Expr>,
    /// Cleaning trigger, evaluated per admitted tuple.
    pub cleaning_when: Option<Expr>,
    /// Per-group keep predicate of the cleaning phase (false = evict).
    pub cleaning_by: Option<Expr>,
    /// Group aggregate slots.
    pub aggregates: Vec<AggSpec>,
    /// Superaggregate slots.
    pub superaggs: Vec<SuperAggSpec>,
    /// Stateful-function libraries (state slots per supergroup).
    pub sfun_libs: Vec<Arc<SfunLibrary>>,
}

impl OperatorSpec {
    /// A minimal aggregation spec (no sampling clauses) — useful as a
    /// starting point for builders.
    pub fn aggregation(select: Vec<(String, Expr)>, group_by: Vec<(String, Expr)>) -> Self {
        OperatorSpec {
            select,
            where_clause: None,
            group_by,
            window_indices: Vec::new(),
            supergroup_indices: Vec::new(),
            having: None,
            cleaning_when: None,
            cleaning_by: None,
            aggregates: Vec::new(),
            superaggs: Vec::new(),
            sfun_libs: Vec::new(),
        }
    }

    /// The schema of this operator's output stream: one field per SELECT
    /// column. Fields whose expression is a window-defining group-by
    /// variable are marked `increasing`, so a downstream operator (a §8
    /// *cascade*) can window on them. Field types are nominal (`U64`) —
    /// values stay dynamically typed end to end.
    pub fn output_schema(&self, name: &str) -> sso_types::Schema {
        use sso_types::{Field, FieldType, Ordering};
        let fields = self
            .select
            .iter()
            .map(|(col_name, expr)| {
                let ordering = match expr {
                    Expr::GroupVar(i) if self.window_indices.contains(i) => Ordering::Increasing,
                    _ => Ordering::None,
                };
                Field { name: col_name.clone(), ty: FieldType::U64, ordering }
            })
            .collect();
        sso_types::Schema::new(name, fields)
    }

    /// The window-defining group-by expressions, cloned in
    /// `window_indices` order. A supervisor evaluates these against raw
    /// tuples while a shard is quarantined, to see when the stream has
    /// moved past the poisoned window (cheap: typically one `time/N`).
    pub fn window_exprs(&self) -> Vec<Expr> {
        self.window_indices.iter().map(|&i| self.group_by[i].1.clone()).collect()
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), OpError> {
        if self.select.is_empty() {
            return Err(OpError::InvalidSpec("SELECT list is empty".into()));
        }
        if self.group_by.is_empty() {
            return Err(OpError::InvalidSpec("GROUP BY list is empty".into()));
        }
        for &i in &self.window_indices {
            if i >= self.group_by.len() {
                return Err(OpError::InvalidSpec(format!(
                    "window index {i} out of range ({} group-by vars)",
                    self.group_by.len()
                )));
            }
        }
        for &i in &self.supergroup_indices {
            if i >= self.group_by.len() {
                return Err(OpError::InvalidSpec(format!(
                    "supergroup index {i} out of range ({} group-by vars)",
                    self.group_by.len()
                )));
            }
            if self.window_indices.contains(&i) {
                return Err(OpError::InvalidSpec(format!(
                    "supergroup index {i} is a window variable; window variables are \
                     implicitly part of every supergroup and must not be listed"
                )));
            }
        }
        if self.cleaning_when.is_some() != self.cleaning_by.is_some() {
            return Err(OpError::InvalidSpec(
                "CLEANING WHEN and CLEANING BY must be specified together".into(),
            ));
        }
        for (clause, expr) in self.clauses() {
            self.check_slots(clause, expr)?;
        }
        for sa in &self.superaggs {
            if let SuperAggSpec::Sum { agg_slot, .. } = sa {
                if *agg_slot >= self.aggregates.len() {
                    return Err(OpError::InvalidSpec(format!(
                        "sum$ is paired with aggregate slot {agg_slot}, the spec has {}",
                        self.aggregates.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Every expression of the spec, with the clause it belongs to.
    fn clauses(&self) -> impl Iterator<Item = (&'static str, &Expr)> {
        let optional = [
            ("WHERE", &self.where_clause),
            ("HAVING", &self.having),
            ("CLEANING WHEN", &self.cleaning_when),
            ("CLEANING BY", &self.cleaning_by),
        ];
        let superagg_exprs = self.superaggs.iter().filter_map(|sa| match sa {
            SuperAggSpec::CountDistinct => None,
            SuperAggSpec::KthSmallest { expr, .. }
            | SuperAggSpec::Sum { expr, .. }
            | SuperAggSpec::Extreme { expr, .. } => Some(expr),
        });
        (self.select.iter().map(|(_, e)| ("SELECT", e)))
            .chain(self.group_by.iter().map(|(_, e)| ("GROUP BY", e)))
            .chain(optional.into_iter().filter_map(|(c, e)| Some((c, e.as_ref()?))))
            .chain(self.aggregates.iter().filter_map(|a| Some(("AGGREGATE", a.arg()?))))
            .chain(superagg_exprs.map(|e| ("SUPERAGG", e)))
    }

    /// Range-check every slot `expr` references, once, so that no
    /// evaluation has to: a group-by variable past the GROUP BY list
    /// would otherwise read as `NULL` and the query would silently group
    /// on it.
    fn check_slots(&self, clause: &str, expr: &Expr) -> Result<(), OpError> {
        let mut bad = None;
        expr.walk(&mut |node| {
            let (what, slot, len) = match node {
                Expr::GroupVar(i) => ("group-by variable", *i, self.group_by.len()),
                Expr::Aggregate(i) => ("aggregate", *i, self.aggregates.len()),
                Expr::SuperAgg(i) => ("superaggregate", *i, self.superaggs.len()),
                Expr::Sfun { lib, .. } => ("stateful-function library", *lib, self.sfun_libs.len()),
                _ => return,
            };
            if slot >= len && bad.is_none() {
                bad = Some(format!("{clause} references {what} slot {slot}, the spec has {len}"));
            }
        });
        bad.map_or(Ok(()), |msg| Err(OpError::InvalidSpec(msg)))
    }

    /// Estimated resident bytes of one group-table entry under this
    /// spec: the key (one [`Value`] per group-by variable), the
    /// aggregate states, and the index share, each with room for a
    /// container header. The static audit multiplies this by its
    /// certified group ceiling to turn a group count into a memory
    /// ceiling, so the estimate errs high: the table's real layout
    /// (strided arenas, stored hash, ≤ 2 index slots, member-list entry)
    /// stays under it (`group_entry_bytes_cover_the_real_layout`).
    pub fn group_entry_bytes(&self) -> usize {
        let key = TUPLE_HEADER_BYTES + self.group_by.len() * VALUE_BYTES;
        let aggs = TUPLE_HEADER_BYTES + self.aggregates.len() * AGG_STATE_BYTES;
        key + aggs + HASH_SLOT_BYTES
    }

    /// Estimated resident bytes of one supergroup-table entry: the key
    /// tuple, the superaggregate states, one SFUN state slot per
    /// library, and the per-supergroup member index (whose backing
    /// storage is accounted per group via [`Self::group_entry_bytes`]).
    pub fn supergroup_entry_bytes(&self) -> usize {
        let key = TUPLE_HEADER_BYTES + self.supergroup_indices.len() * VALUE_BYTES;
        let supers = TUPLE_HEADER_BYTES + self.superaggs.len() * SUPERAGG_STATE_BYTES;
        let states = TUPLE_HEADER_BYTES + self.sfun_libs.len() * SFUN_STATE_BYTES;
        key + supers + states + TUPLE_HEADER_BYTES + HASH_SLOT_BYTES
    }
}

/// Size of one dynamically-typed [`Value`] (discriminant + payload,
/// padded).
pub const VALUE_BYTES: usize = 24;
/// `Vec` header (pointer + length + capacity).
pub const TUPLE_HEADER_BYTES: usize = 24;
/// One aggregate state (tagged union of running value(s)).
pub const AGG_STATE_BYTES: usize = 48;
/// One superaggregate state; `KthSmallest` keeps a k-bounded heap whose
/// elements are accounted to the groups they shadow.
pub const SUPERAGG_STATE_BYTES: usize = 64;
/// One boxed SFUN state (e.g. the subset-sum threshold record).
pub const SFUN_STATE_BYTES: usize = 96;
/// Amortized hash-table slot overhead per entry.
pub const HASH_SLOT_BYTES: usize = 16;

/// Pre-sizing hints for an operator instance, produced by the static
/// audit's [`OperatorSpec`]-level state bounds (`sso-analysis`
/// `BoundsReport`) and consumed by the sharded runtime so group tables
/// and rings start at their certified ceilings instead of growing
/// through rehash cycles mid-window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizingHints {
    /// Expected peak live groups per operator instance.
    pub groups: usize,
    /// Expected peak live supergroups per operator instance.
    pub supergroups: usize,
    /// Ring depth override in batches; `None` keeps the runtime
    /// default.
    pub ring_batches: Option<usize>,
}

impl SizingHints {
    /// Cap on pre-reserved table entries: a certified-but-huge bound
    /// (e.g. a rows-per-window fallback at datacenter rate) must not
    /// translate into an allocation larger than the state it guards
    /// against.
    pub const MAX_RESERVE: usize = 1 << 20;
}

/// One supergroup: superaggregates, SFUN states, and the ids of its
/// member groups in insertion order.
struct SupergroupEntry {
    key: Tuple,
    superaggs: Vec<SuperAggState>,
    states: SfunStates,
    groups: Vec<u32>,
}

/// Per-window counters (Figures 3–4 read these).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Tuples that arrived in the window.
    pub tuples: u64,
    /// Tuples that passed WHERE.
    pub admitted: u64,
    /// Cleaning phases triggered by CLEANING WHEN.
    pub cleaning_phases: u64,
    /// Groups created.
    pub groups_created: u64,
    /// Groups evicted by cleaning phases.
    pub evictions: u64,
    /// Rows emitted at window close.
    pub output_rows: u64,
}

impl WindowStats {
    /// Add every count of `other` to this one: the one place that lists
    /// the counts, for the merge's sum over shards and the operator's
    /// lifetime totals.
    pub fn add(&mut self, other: &WindowStats) {
        *self = WindowStats {
            tuples: self.tuples + other.tuples,
            admitted: self.admitted + other.admitted,
            cleaning_phases: self.cleaning_phases + other.cleaning_phases,
            groups_created: self.groups_created + other.groups_created,
            evictions: self.evictions + other.evictions,
            output_rows: self.output_rows + other.output_rows,
        };
    }
}

/// Cumulative counters across the operator's lifetime: the windows
/// closed, and every [`WindowStats`] count summed over them, read
/// through `Deref` (`stats.tuples`, `stats.evictions`, ...).
#[derive(Debug, Clone, Default)]
pub struct OperatorStats {
    /// Windows closed.
    pub windows: u64,
    totals: WindowStats,
}

impl std::ops::Deref for OperatorStats {
    type Target = WindowStats;

    fn deref(&self) -> &WindowStats {
        &self.totals
    }
}

/// The output of one closed window.
#[derive(Debug, Clone)]
pub struct WindowOutput {
    /// The window-defining group-by values (e.g. the time bucket).
    pub window: Tuple,
    /// Output rows, one per group that passed HAVING, in group insertion
    /// order (per supergroup, supergroups in insertion order).
    pub rows: Vec<Tuple>,
    /// The window's counters.
    pub stats: WindowStats,
    /// The window's loss ledger: its tuples a fault (a quarantined worker
    /// or router) took before any operator counted them. The merge sums
    /// it over the shards, and a durable shard logs its own.
    pub uncovered: u64,
}

impl WindowOutput {
    /// The [`coverage`] of the window's counted tuples and its loss.
    pub fn coverage(&self) -> f64 {
        coverage(self.stats.tuples, self.uncovered)
    }

    /// Whether the window lost any tuple to a fault.
    pub fn degraded(&self) -> bool {
        self.uncovered > 0
    }
}

/// The share of `covered + uncovered` offered tuples that `covered` are,
/// what the estimates of a degraded window or run stand for; `1.0` when
/// nothing was lost, an empty window included.
pub fn coverage(covered: u64, uncovered: u64) -> f64 {
    if uncovered == 0 {
        return 1.0;
    }
    covered as f64 / (covered + uncovered) as f64
}

/// The values of several clauses (superaggregate arguments, SELECT
/// columns) computed by one stage; `None` where a slot has none.
struct Args {
    ops: Range<usize>,
    values: Vec<Option<Src>>,
}

impl Args {
    fn lower<'e>(
        l: &mut Lowering<'_>,
        scope: Scope,
        exprs: impl Iterator<Item = Option<&'e Expr>>,
    ) -> Self {
        let start = l.at();
        let values = exprs.map(|e| Some(l.lower(e?, scope, None))).collect();
        Args { ops: start..l.at(), values }
    }
}

/// The group-by variables computed ahead of WHERE (the supergroup key
/// and every variable WHERE reads) and those deferred to admitted
/// tuples: a group-by expression sees the tuple and nothing else, so
/// when it runs changes no state.
fn staging(spec: &OperatorSpec) -> (Vec<usize>, Vec<usize>) {
    let mut early = spec.supergroup_indices.clone();
    if let Some(w) = &spec.where_clause {
        w.walk(&mut |node| {
            if let Expr::GroupVar(i) = node {
                early.push(*i);
            }
        });
    }
    let rest = (0..spec.group_by.len()).filter(|i| !spec.window_indices.contains(i));
    rest.partition(|i| early.contains(i))
}

/// Can skipping the evaluation of `e` go unnoticed: no call but to
/// functions declared read-only, and nothing that can fail outside them?
fn elidable(e: &Expr, libs: &[Arc<SfunLibrary>]) -> bool {
    let mut elidable = true;
    e.walk(&mut |node| {
        elidable &= match node {
            Expr::Literal(_) | Expr::Column(_) | Expr::GroupVar(_) | Expr::Not(_) => true,
            Expr::Binary { op, .. } => matches!(op, BinOp::And | BinOp::Or),
            Expr::Sfun { lib, name, fun, .. } => libs[*lib].is_read_only(name, fun),
            _ => false,
        }
    });
    elidable
}

/// The per-tuple clauses of a spec as one program, in the stages of
/// [`SamplingOperator::process`]. The group-by values are the registers
/// `key`: computed into them, read there, and the slice is the group key.
struct TuplePhase {
    program: Program,
    key: Range<usize>,
    /// The supergroup key, copied by `pre_where` into adjacent
    /// registers of its own; empty: the `ALL` supergroup.
    sg_key: Range<usize>,
    window: Range<usize>,
    pre_where: Range<usize>,
    where_clause: Option<Stage>,
    /// The deferred group-by values, then the `sum$` arguments.
    admitted: Args,
    /// Per aggregate slot: its argument; can a set `first` do without?
    agg_args: Vec<(Option<Stage>, bool)>,
    /// What `Kth_smallest_value$` / `min$` / `max$` track of a new key.
    added: Args,
    cleaning_when: Option<Stage>,
}

impl TuplePhase {
    fn new(spec: &OperatorSpec) -> Self {
        let mut l = Lowering::new(&spec.sfun_libs);
        let key = l.registers(spec.group_by.len());
        let sg_key = l.registers(spec.supergroup_indices.len());
        // What each clause sees (§6.4), from the least.
        let group_by = Scope { clause: "GROUP BY", tuple: true, ..Scope::default() };
        let key_regs = Some(GroupVars::Regs(key.start));
        let hook = Scope { clause: "SUPERAGG", group_vars: key_regs, ..Scope::default() };
        let arg = |clause| Scope { clause, tuple: true, sfun: true, ..hook };
        let predicate = |clause| Scope { superaggs: true, ..arg(clause) };
        // Compute the group-by variables `vars` into their registers.
        let group_vars = |l: &mut Lowering<'_>, vars: &[usize]| {
            let start = l.at();
            for &i in vars {
                l.lower(&spec.group_by[i].1, group_by, Some(key.start + i));
            }
            start..l.at()
        };
        let (early, deferred) = staging(spec);
        TuplePhase {
            window: group_vars(&mut l, &spec.window_indices),
            pre_where: {
                let early = group_vars(&mut l, &early);
                for (&i, reg) in spec.supergroup_indices.iter().zip(sg_key.clone()) {
                    l.lower(&Expr::GroupVar(i), hook, Some(reg));
                }
                early.start..l.at()
            },
            where_clause: spec.where_clause.as_ref().map(|e| l.stage(e, predicate("WHERE"))),
            admitted: {
                let deferred = group_vars(&mut l, &deferred);
                let sums = spec.superaggs.iter().map(|sa| sa.tuple_arg());
                let args = Args::lower(&mut l, arg("SUPERAGG"), sums);
                Args { ops: deferred.start..args.ops.end, ..args }
            },
            agg_args: (spec.aggregates.iter())
                .map(|agg| {
                    let latch = matches!(agg, AggSpec::First(e) if elidable(e, &spec.sfun_libs));
                    (agg.arg().map(|e| l.stage(e, arg("AGGREGATE"))), latch)
                })
                .collect(),
            added: Args::lower(&mut l, hook, spec.superaggs.iter().map(|sa| sa.group_arg())),
            cleaning_when: (spec.cleaning_when.as_ref())
                .map(|e| l.stage(e, predicate("CLEANING WHEN"))),
            program: l.finish(),
            key,
            sg_key,
        }
    }

    /// Fold the tuple into a group's aggregate states: each argument
    /// that is needed is evaluated, and read where its stage left it.
    /// Part of the §6.4 body, and inlined into it like its other stages.
    #[inline(always)]
    fn fold(&mut self, f: &mut Frame<'_>, aggs: &mut [AggState]) -> Result<(), OpError> {
        for (state, (arg, latch)) in aggs.iter_mut().zip(&self.agg_args) {
            match arg {
                None => state.fold(None)?,
                Some(_) if *latch && matches!(state, AggState::First(v) if !v.is_null()) => {}
                Some(arg) => {
                    self.program.run(&arg.ops, f)?;
                    state.fold(Some(self.program.value(arg.value, f.tuple, f.key)))?;
                }
            }
        }
        Ok(())
    }
}

/// What [`SamplingOperator::process_batch`] runs over: [`Tuple`]s, or
/// [`Packet`]s, whose columns the run path reads in place and whose row
/// is built only for a tuple that enters the §6.4 body.
pub trait Record {
    /// Column `c`, if it is a `u64`.
    fn u64_at(&self, c: usize) -> Option<u64>;
    /// The record as a row: itself, or built into `out`.
    fn row<'a>(&'a self, out: &'a mut Tuple) -> &'a Tuple;
}

impl Record for Tuple {
    #[inline(always)]
    fn u64_at(&self, c: usize) -> Option<u64> {
        match self.get(c) {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    #[inline(always)]
    fn row<'a>(&'a self, _: &'a mut Tuple) -> &'a Tuple {
        self
    }
}

impl Record for Packet {
    #[inline(always)]
    fn u64_at(&self, c: usize) -> Option<u64> {
        self.column(c)
    }

    #[inline(always)]
    fn row<'a>(&'a self, out: &'a mut Tuple) -> &'a Tuple {
        self.write_tuple(out);
        out
    }
}

/// WHERE as a run form decides it: `process_batch` gathers the tuples of
/// the open window at the head of a batch, while their argument is a
/// `u64`, and has the kernel decide them all in one call.
struct RunPath {
    lib: usize,
    name: &'static str,
    kernel: Arc<SfunRun>,
    /// The call's arguments, `Null` in the column's place.
    argv: Vec<Value>,
    /// The input column the call reads, if it reads one.
    column: Option<usize>,
    /// The window key is `tuple[time] / divisor`.
    time: usize,
    divisor: u64,
    /// The run's column values, reused from run to run.
    scratch: Vec<u64>,
}

impl RunPath {
    /// The run path of `spec`, if it has one: WHERE is a call with a run
    /// form, bare or `= TRUE`, of the column the form reads (if any; a
    /// group-by variable that is a bare column counts as that column)
    /// and literals; the one window key is a column, or a column divided
    /// by a non-zero `u64` literal; and the supergroup is `ALL`.
    fn of(spec: &OperatorSpec) -> Option<Self> {
        let call = match spec.where_clause.as_ref()? {
            Expr::Binary { op: BinOp::Eq, lhs, rhs }
                if matches!(**rhs, Expr::Literal(Value::Bool(true))) =>
            {
                lhs
            }
            call => call,
        };
        let Expr::Sfun { lib, name, fun, args } = call else { return None };
        let (kernel, reads_column) = spec.sfun_libs[*lib].run_form(name, fun)?;
        let column = |arg: &Expr| match arg {
            Expr::GroupVar(i) => match &spec.group_by.get(*i)?.1 {
                Expr::Column(c) => Some(*c),
                _ => None,
            },
            Expr::Column(c) => Some(*c),
            _ => None,
        };
        let (column, literals) = match (reads_column, args.split_first()) {
            (true, Some((arg, rest))) => (Some(column(arg)?), rest),
            (true, None) => return None,
            (false, _) => (None, &args[..]),
        };
        let mut argv: Vec<Value> = column.map(|_| Value::Null).into_iter().collect();
        for arg in literals {
            let Expr::Literal(v) = arg else { return None };
            argv.push(v.clone());
        }
        let [window] = spec.window_indices[..] else { return None };
        let (time, divisor) = match &spec.group_by[window].1 {
            Expr::Column(c) => (*c, 1),
            Expr::Binary { op: BinOp::Div, lhs, rhs } => match (&**lhs, &**rhs) {
                (Expr::Column(c), Expr::Literal(Value::U64(d))) if *d != 0 => (*c, *d),
                _ => return None,
            },
            _ => return None,
        };
        // With the `ALL` supergroup, the only group-by values computed
        // before WHERE are copies of the column the kernel reads: they
        // cannot fail, and the admitted tuple's body computes them.
        spec.supergroup_indices.is_empty().then_some(())?;
        Some(RunPath { lib: *lib, name, kernel, argv, column, time, divisor, scratch: Vec::new() })
    }
}

/// The per-group clauses as one program: each phase that walks groups
/// has a body, run per group, and a prologue, run once ahead of them.
struct GroupPhase {
    program: Program,
    cleaning_by: Option<Stage>,
    /// For an evicted group: what `added` tracked of its key.
    removed: Args,
    clean_prologue: Range<usize>,
    having: Option<Stage>,
    select: Args,
    close_prologue: Range<usize>,
}

impl GroupPhase {
    fn new(spec: &OperatorSpec) -> Self {
        let mut l = Lowering::new(&spec.sfun_libs);
        let hook =
            Scope { group_vars: Some(GroupVars::Key), clause: "SUPERAGG", ..Scope::default() };
        let clause = |clause| Scope { clause, aggs: true, superaggs: true, sfun: true, ..hook };
        let columns = spec.select.iter().map(|(_, e)| e);
        l.body(&spec.cleaning_by.iter().collect::<Vec<_>>());
        GroupPhase {
            cleaning_by: spec.cleaning_by.as_ref().map(|e| l.stage(e, clause("CLEANING BY"))),
            removed: Args::lower(&mut l, hook, spec.superaggs.iter().map(|sa| sa.group_arg())),
            clean_prologue: l.prologue(),
            having: {
                l.body(&spec.having.iter().chain(columns.clone()).collect::<Vec<_>>());
                spec.having.as_ref().map(|e| l.stage(e, clause("HAVING")))
            },
            select: Args::lower(&mut l, clause("SELECT"), columns.map(Some)),
            close_prologue: l.prologue(),
            program: l.finish(),
        }
    }
}

/// The sampling operator runtime.
pub struct SamplingOperator {
    spec: Arc<OperatorSpec>,
    tuple_phase: TuplePhase,
    run: Option<RunPath>,
    group_phase: GroupPhase,
    groups: GroupTable,
    sg_index: FxHashMap<Tuple, usize>,
    sgs: Vec<SupergroupEntry>,
    old_sgs: FxHashMap<Tuple, SfunStates>,
    /// The last window's member lists, emptied, last opened on top: the
    /// same supergroups opening again each get the list they grew.
    member_lists: Vec<Vec<u32>>,
    window: Option<Vec<Value>>,
    wstats: WindowStats,
    stats: OperatorStats,
    metrics: Option<OperatorMetrics>,
    // Durable-store support: when enabled, every window flush captures
    // the carry-over and aux bytes at the boundary, so a worker can
    // persist them without re-deriving window keys per tuple. One batch
    // can close several windows, so they queue, oldest first.
    capture_flush: bool,
    flush_state: VecDeque<(Vec<u8>, Vec<u8>)>,
    /// Tuples of the current `process_batch` slice handed to `admit`,
    /// the one in hand included.
    batch_entered: usize,
    /// The row a packet of a `process_batch` slice is built into.
    row: Tuple,
}

impl std::fmt::Debug for SamplingOperator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplingOperator")
            .field("group_by", &self.spec.group_by.len())
            .field("groups", &self.groups.len())
            .field("supergroups", &self.sgs.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SamplingOperator {
    /// Build an operator from a validated spec.
    pub fn new(spec: OperatorSpec) -> Result<Self, OpError> {
        spec.validate()?;
        Ok(SamplingOperator {
            tuple_phase: TuplePhase::new(&spec),
            run: RunPath::of(&spec),
            group_phase: GroupPhase::new(&spec),
            groups: GroupTable::new(spec.group_by.len(), &spec.aggregates),
            spec: Arc::new(spec),
            sg_index: FxHashMap::default(),
            sgs: Vec::new(),
            old_sgs: FxHashMap::default(),
            member_lists: Vec::new(),
            window: None,
            wstats: WindowStats::default(),
            stats: OperatorStats::default(),
            metrics: None,
            capture_flush: false,
            flush_state: VecDeque::new(),
            batch_entered: 0,
            row: Tuple::empty(),
        })
    }

    /// Attach registry-backed instrumentation. Per-tuple counters stay
    /// batched in [`WindowStats`] and flush at window close; only the
    /// sampled phase spans touch the clock.
    pub fn set_metrics(&mut self, metrics: OperatorMetrics) {
        self.metrics = Some(metrics);
    }

    /// Keep the groups' aggregate states in a paged (spill-to-disk)
    /// backend instead of RAM; keys and the index stay resident. Must be
    /// called before any tuple is processed; existing entries are not
    /// migrated.
    pub fn set_group_backend(&mut self, backend: Box<dyn PagedBackend>) {
        self.groups.set_backend(backend);
    }

    /// Spill counters when a paged backend is installed; `None` while
    /// aggregate states live in RAM.
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.groups.spill_stats()
    }

    /// Pre-size the group and supergroup tables from the audit's
    /// certified ceilings, capped at [`SizingHints::MAX_RESERVE`]
    /// entries so an intentionally loose bound cannot cause a larger
    /// allocation than the workload itself would.
    pub fn reserve(&mut self, hints: &SizingHints) {
        let groups = hints.groups.min(SizingHints::MAX_RESERVE);
        let sgs = hints.supergroups.min(SizingHints::MAX_RESERVE);
        self.groups.reserve(groups);
        self.sg_index.reserve(sgs);
        self.sgs.reserve(sgs);
        self.old_sgs.reserve(sgs);
    }

    /// The spec this operator runs.
    pub fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    /// Live group count (current window).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Live supergroup count (current window).
    pub fn supergroup_count(&self) -> usize {
        self.sgs.len()
    }

    /// Output column names, in SELECT order.
    pub fn output_columns(&self) -> Vec<&str> {
        self.spec.select.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The window-defining group-by values of the window currently being
    /// accumulated, if any. A supervisor uses this after catching a
    /// worker panic to know which window the poisoned operator was in —
    /// the operator's tables may be mid-update, but the window key is a
    /// plain value vector and stays readable.
    pub fn current_window(&self) -> Option<Tuple> {
        self.window.as_ref().map(|v| Tuple::new(v.clone()))
    }

    /// Capture [`Self::export_carry`] + [`Self::export_aux`] bytes at
    /// every window flush, for [`Self::take_flush_state`]. This is how a
    /// durable worker gets boundary-exact snapshots without evaluating
    /// window keys per tuple: the operator already detects the boundary
    /// in [`Self::process`], so it encodes the carry-over right there.
    pub fn set_capture_flush(&mut self, on: bool) {
        self.capture_flush = on;
    }

    /// The carry/aux bytes captured at the oldest window flush not yet
    /// taken (see [`Self::set_capture_flush`]), consumed. Successive
    /// calls hand back every boundary captured since the last take, in
    /// the order the windows closed, so a batch that closed two windows
    /// yields two snapshots. `None` when capture is off or every
    /// captured snapshot has been taken.
    pub fn take_flush_state(&mut self) -> Option<(Vec<u8>, Vec<u8>)> {
        self.flush_state.pop_front()
    }

    /// How many tuples of the latest [`Self::process_batch`] slice were
    /// handed to the loop body, the last one included: the slice's
    /// length after `Ok`, and the 1-based position of the tuple that
    /// raised it after an `Err` or a panic unwinding out of the call.
    pub fn batch_entered(&self) -> usize {
        self.batch_entered
    }

    /// Does [`Self::process_batch`] decide WHERE a run of tuples at a
    /// time? Then, over [`Packet`]s, it builds a row only for a tuple
    /// that enters the §6.4 body.
    pub fn has_run_path(&self) -> bool {
        self.run.is_some()
    }

    /// Process one tuple. If the tuple opens a new window, the previous
    /// window's output is returned (the tuple itself is processed into
    /// the new window).
    pub fn process(&mut self, tuple: &Tuple) -> Result<Option<WindowOutput>, OpError> {
        let mut closed = None;
        self.admit(tuple, &mut |w| closed = Some(w), false)?;
        Ok(closed)
    }

    /// [`Self::process`] each tuple of `batch` in order, handing every
    /// window to `sink` as it closes. The first error ends the batch
    /// after the windows closed before the failing tuple were handed
    /// over — a window that tuple closed is lost with it, as it is from
    /// `process`. Where the spec has a run path, WHERE is decided a run
    /// of tuples at a time, the same calls in the same order. A packet
    /// is made a row ([`Packet::to_tuple`]) only where it enters the
    /// body: admitted, turning the window over, or outside a run.
    pub fn process_batch<R: Record>(
        &mut self,
        batch: &[R],
        mut sink: impl FnMut(WindowOutput),
    ) -> Result<(), OpError> {
        self.batch_entered = 0;
        let mut row = std::mem::take(&mut self.row);
        let done = self.enter_batch(batch, &mut row, &mut sink);
        self.row = row;
        done
    }

    /// [`Self::process_batch`]'s loop; a packet's row is built in `row`.
    #[inline(always)]
    fn enter_batch<R: Record>(
        &mut self,
        batch: &[R],
        row: &mut Tuple,
        sink: &mut impl FnMut(WindowOutput),
    ) -> Result<(), OpError> {
        // Without a run path, the plain loop: a gather attempt per tuple
        // costs a four-operator fan-out (`mq_shared`) ~3 %.
        if self.run.is_none() {
            for record in batch {
                self.batch_entered += 1;
                self.admit(record.row(row), sink, false)?;
            }
            return Ok(());
        }
        while let Some(record) = batch.get(self.batch_entered) {
            let (start, run) = (self.batch_entered, self.gather(&batch[self.batch_entered..]));
            if run == 0 {
                self.batch_entered += 1;
                self.admit(record.row(row), sink, false)?;
                continue;
            }
            while self.batch_entered < start + run {
                if let Some(i) = self.decide_run(self.batch_entered - start)? {
                    self.admit(batch[start + i].row(row), sink, true)?;
                }
            }
        }
        Ok(())
    }

    /// Gather into the run path's scratch column the run at the head of
    /// `records` it can decide — tuples of the open window whose
    /// argument is a `u64` — and say how long it is.
    #[inline(always)]
    fn gather<R: Record>(&mut self, records: &[R]) -> usize {
        let (Some(run), Some([Value::U64(key)]), false) =
            (&mut self.run, self.window.as_deref(), self.sgs.is_empty())
        else {
            return 0;
        };
        // The times `time / divisor` maps to the open window.
        let Some(start) = key.checked_mul(run.divisor) else { return 0 };
        let end = start.saturating_add(run.divisor - 1);
        run.scratch.clear();
        for record in records {
            let Some(time) = record.u64_at(run.time) else { break };
            let arg = match run.column {
                None => 0,
                Some(c) => match record.u64_at(c) {
                    Some(arg) => arg,
                    None => break,
                },
            };
            if time < start || time > end {
                break;
            }
            run.scratch.push(arg);
        }
        run.scratch.len()
    }

    /// WHERE over the gathered run from its tuple `from` on, in one
    /// kernel call: every tuple it decides is entered, and the one it
    /// admits, if any, is named; on `Err` or a panic, the tuple that
    /// raised it is the last one entered.
    #[inline(always)]
    fn decide_run(&mut self, from: usize) -> Result<Option<usize>, OpError> {
        let (run, sg) = (self.run.as_mut().expect("a gathered run"), &mut self.sgs[0]);
        let _span = self.metrics.as_ref().and_then(|m| m.run_span.start());
        // Entered before the call, so a panicking kernel is charged to
        // the first tuple it decides.
        self.batch_entered += 1;
        let (decided, admitted) =
            match (run.kernel)(sg.states[run.lib].as_mut(), &run.scratch[from..], &run.argv) {
                RunEnd::Rejected => (run.scratch.len() - from, None),
                RunEnd::Admitted(i) => (i + 1, Some(from + i)),
                RunEnd::Failed(i, reason) => {
                    self.wstats.tuples += i as u64 + 1;
                    self.batch_entered += i;
                    return Err(OpError::BadSfunCall { function: run.name.to_string(), reason });
                }
            };
        // The admitted tuple is counted where it enters the body.
        self.wstats.tuples += (decided - usize::from(admitted.is_some())) as u64;
        self.batch_entered += decided - 1;
        Ok(admitted)
    }

    /// The §6.4 loop body for one tuple: [`Self::process`] is this, and
    /// [`Self::process_batch`] runs it inlined in its loop, `admitted`
    /// when the run path has decided WHERE `TRUE` for the tuple. A window
    /// the tuple closes goes to `sink` once the tuple is in; it is not
    /// returned, because a `Result` of a window moved out of every call
    /// is copied through memory on every tuple.
    #[inline(always)]
    fn admit(
        &mut self,
        tuple: &Tuple,
        sink: &mut impl FnMut(WindowOutput),
        admitted: bool,
    ) -> Result<(), OpError> {
        let _span = self.metrics.as_ref().and_then(|m| m.process_span.start());
        // The one context of this tuple's stages.
        let mut frame = Frame::of_tuple(tuple);
        // 1. Window key: compare in place, allocate the window-value
        // vector only when the window actually turns over.
        self.tuple_phase.program.run(&self.tuple_phase.window, &mut frame)?;
        let key = self.tuple_phase.program.regs(&self.tuple_phase.key);
        let window = self.spec.window_indices.iter().map(|&i| &key[i]);
        let mut closed = None;
        if !self.window.as_ref().is_some_and(|current| window.clone().eq(current)) {
            let turned = window.cloned().collect();
            if self.window.is_some() {
                closed = Some(self.flush_window()?);
            }
            self.window = Some(turned);
        }
        self.wstats.tuples += 1;
        // 2. The group-by values the supergroup key and WHERE read.
        self.tuple_phase.program.run(&self.tuple_phase.pre_where, &mut frame)?;
        // 3. Supergroup lookup / creation (with state carry-over). The
        // `ALL` supergroup is entry 0, no probe; otherwise the lookup
        // borrows registers, and a key is allocated for a new one only.
        let sg_idx = if self.tuple_phase.sg_key.is_empty() {
            if self.sgs.is_empty() {
                self.open_supergroup(Tuple::empty());
            }
            0
        } else {
            let key = self.tuple_phase.program.regs(&self.tuple_phase.sg_key);
            match self.sg_index.get(key) {
                Some(&i) => i,
                None => {
                    let key = Tuple::new(key.to_vec());
                    self.open_supergroup(key)
                }
            }
        };
        let (spec, tp) = (&*self.spec, &mut self.tuple_phase);
        let SupergroupEntry { superaggs, states, groups: members, .. } = &mut self.sgs[sg_idx];
        (frame.superaggs, frame.states) = (superaggs, states);
        'admitted: {
            // 4. WHERE, unless the run path has decided it.
            if let Some(w) = tp.where_clause.as_ref().filter(|_| !admitted) {
                if !tp.program.test(w, &mut frame)? {
                    break 'admitted;
                }
            }
            self.wstats.admitted += 1;
            // 5. The group-by values nothing before admission needed, and
            // 6. the superaggregates' per-tuple updates.
            tp.program.run(&tp.admitted.ops, &mut frame)?;
            for (state, arg) in frame.superaggs.iter_mut().zip(&tp.admitted.values) {
                if let Some(arg) = arg {
                    state.fold_tuple(tp.program.value(*arg, tuple, &[]))?;
                }
            }
            // 7. Group lookup / creation by the group-by registers, and
            // aggregate update. A group whose first fold fails was never
            // there.
            let (id, created) = self.groups.upsert(tp.program.regs(&tp.key));
            if let Err(e) = tp.fold(&mut frame, self.groups.entry_mut(id).1) {
                if let Some(created) = created {
                    self.groups.retract(id, created);
                }
                return Err(e);
            }
            if created.is_some() {
                self.wstats.groups_created += 1;
                members.push(id);
                tp.program.run(&tp.added.ops, &mut frame)?;
                let hooks = spec.superaggs.iter().zip(frame.superaggs.iter_mut());
                for ((sa, state), tracked) in hooks.zip(&tp.added.values) {
                    match tracked {
                        Some(v) => state.track(tp.program.value(*v, tuple, &[])),
                        None => sa.on_group_add(state, tp.program.regs(&tp.key))?,
                    }
                }
            }
            // 8. CLEANING WHEN / cleaning phase.
            if let Some(cw) = &tp.cleaning_when {
                if tp.program.test(cw, &mut frame)? {
                    self.wstats.cleaning_phases += 1;
                    self.clean_supergroup(sg_idx)?;
                }
            }
        }
        if let Some(w) = closed {
            sink(w);
        }
        Ok(())
    }

    /// Create the supergroup of `key`; if the key existed in the previous
    /// window, its SFUN states carry over. Returns its index.
    fn open_supergroup(&mut self, key: Tuple) -> usize {
        let old = self.old_sgs.get(&key);
        let states: SfunStates = self
            .spec
            .sfun_libs
            .iter()
            .enumerate()
            .map(|(li, lib)| {
                let prev = old.and_then(|v| v.get(li)).map(|b| b.as_ref() as &dyn Any);
                lib.init_state(prev)
            })
            .collect();
        let superaggs = self.spec.superaggs.iter().map(|s| s.init()).collect();
        let idx = self.sgs.len();
        let groups = self.member_lists.pop().unwrap_or_default();
        self.sgs.push(SupergroupEntry { key: key.clone(), superaggs, states, groups });
        self.sg_index.insert(key, idx);
        idx
    }

    /// Apply CLEANING BY to every group of supergroup `sg_idx`, evicting
    /// groups for which it is false.
    fn clean_supergroup(&mut self, sg_idx: usize) -> Result<(), OpError> {
        let _span = self.metrics.as_ref().and_then(|m| m.clean_span.start());
        let (spec, gp, none) = (&*self.spec, &mut self.group_phase, Tuple::empty());
        let Some(cb) = &gp.cleaning_by else {
            return Ok(());
        };
        let SupergroupEntry { superaggs, states, groups: members, .. } = &mut self.sgs[sg_idx];
        let mut frame = Frame { superaggs, states, ..Frame::of_tuple(&none) };
        gp.program.run(&gp.clean_prologue, &mut frame)?;
        // Walk the member ids, compacting the list in place (order kept).
        // Whatever way the walk ends, `members[kept..seen]` are the ids
        // it evicted.
        let (mut kept, mut seen) = (0, 0);
        let outcome = loop {
            let Some(&id) = members.get(seen) else { break Ok(()) };
            let (key, aggs) = self.groups.entry_mut(id);
            let aggs = &*aggs;
            let mut frame = frame.of_group(key, aggs);
            // The superaggregates see an evicted group's key and
            // aggregates before its id is freed for reuse.
            let keep = gp.program.test(cb, &mut frame).and_then(|keep| {
                if !keep {
                    gp.program.run(&gp.removed.ops, &mut frame)?;
                    let hooks = spec.superaggs.iter().zip(frame.superaggs.iter_mut());
                    for ((sa, state), tracked) in hooks.zip(&gp.removed.values) {
                        match tracked {
                            Some(v) => state.untrack(gp.program.value(*v, &none, key)),
                            None => sa.on_group_remove(state, key, aggs)?,
                        }
                    }
                }
                Ok(keep)
            });
            match keep {
                Ok(true) => {
                    members[kept] = id;
                    kept += 1;
                }
                Ok(false) => {
                    self.wstats.evictions += 1;
                    self.groups.remove(id);
                }
                Err(e) => break Err(e),
            }
            seen += 1;
        };
        members.drain(kept..seen);
        outcome
    }

    /// Close the current window: HAVING + SELECT per group, state
    /// carry-over, table reset.
    fn flush_window(&mut self) -> Result<WindowOutput, OpError> {
        let _span = self.metrics.as_ref().and_then(|m| m.window_span.start());
        let spec = &*self.spec;
        // Signal window end to every state (the paper's final_init()).
        for sg in &mut self.sgs {
            for (li, lib) in spec.sfun_libs.iter().enumerate() {
                lib.on_window_end(sg.states[li].as_mut());
            }
        }
        let (gp, none, mut rows) = (&mut self.group_phase, Tuple::empty(), Vec::new());
        for sg in self.sgs.iter_mut().filter(|sg| !sg.groups.is_empty()) {
            let SupergroupEntry { superaggs, states, groups: members, .. } = sg;
            let mut frame = Frame { superaggs, states, ..Frame::of_tuple(&none) };
            gp.program.run(&gp.close_prologue, &mut frame)?;
            for &id in members.iter() {
                let (key, aggs) = self.groups.entry_mut(id);
                let mut frame = frame.of_group(key, aggs);
                let keep = match &gp.having {
                    Some(h) => gp.program.test(h, &mut frame)?,
                    None => true,
                };
                if keep {
                    gp.program.run(&gp.select.ops, &mut frame)?;
                    let columns = gp.select.values.iter().flatten();
                    let row = columns.map(|v| gp.program.value(*v, &none, key).clone());
                    rows.push(Tuple::new(row.collect()));
                }
            }
        }
        // Probe sampling telemetry while this window's states are still
        // live — `ssfinal_clean` sets the achieved sample size during
        // the HAVING pass above. Telemetry from multiple supergroups is
        // summed (the threshold is taken as the max).
        let telemetry = if self.metrics.is_some() {
            let mut acc: Option<SfunTelemetry> = None;
            for sg in &self.sgs {
                for (li, lib) in spec.sfun_libs.iter().enumerate() {
                    if let Some(t) = lib.probe_telemetry(sg.states[li].as_ref()) {
                        let a = acc.get_or_insert_with(SfunTelemetry::default);
                        a.threshold = a.threshold.max(t.threshold);
                        a.achieved += t.achieved;
                        a.target += t.target;
                        a.offered += t.offered;
                        a.cleanings += t.cleanings;
                    }
                }
            }
            acc
        } else {
            None
        };
        let (groups_at_close, groups_peak) = (self.groups.len() as u64, self.groups.peak() as u64);
        // Carry supergroup states into the old table for the next window.
        self.old_sgs.clear();
        self.member_lists.clear();
        for mut sg in self.sgs.drain(..).rev() {
            sg.groups.clear();
            self.member_lists.push(sg.groups);
            self.old_sgs.insert(sg.key, sg.states);
        }
        self.sg_index.clear();
        self.groups.clear();
        let mut stats = std::mem::take(&mut self.wstats);
        stats.output_rows = rows.len() as u64;
        self.stats.windows += 1;
        self.stats.totals.add(&stats);
        if let Some(m) = &self.metrics {
            m.on_window(&stats, groups_at_close, groups_peak, telemetry.as_ref());
        }
        if self.capture_flush {
            let carry = self.export_carry().map_err(OpError::InvalidSpec)?;
            let aux = self.export_aux();
            self.flush_state.push_back((carry, aux));
        }
        let window = Tuple::new(self.window.clone().unwrap_or_default());
        Ok(WindowOutput { window, rows, stats, uncovered: 0 })
    }

    /// Can every SFUN library of this spec persist its state? Durable
    /// checkpointing requires it.
    pub fn can_persist(&self) -> bool {
        self.spec.sfun_libs.iter().all(|l| l.can_persist())
    }

    /// Export the cross-window carry-over — the "old" supergroup state
    /// table populated at the last window close — as bytes. Entries are
    /// sorted by encoded key so the same logical state always produces
    /// the same bytes (hash-map iteration order must not leak into
    /// snapshots).
    ///
    /// Call between [`Self::finish`] (or a window turnover) and the next
    /// tuple; mid-window live state is intentionally not exportable —
    /// the recovery contract is *window-level*.
    pub fn export_carry(&self) -> Result<Vec<u8>, String> {
        let mut entries = Vec::with_capacity(self.old_sgs.len());
        for (key, states) in &self.old_sgs {
            let mut kb = Vec::new();
            put_tuple(&mut kb, key);
            let mut sb = Vec::new();
            put_u32(&mut sb, states.len() as u32);
            for (li, st) in states.iter().enumerate() {
                let lib = &self.spec.sfun_libs[li];
                let enc = lib.encode_state(st.as_ref()).ok_or_else(|| {
                    format!("SFUN library '{}' cannot persist its state", lib.name())
                })?;
                put_bytes(&mut sb, &enc);
            }
            entries.push((kb, sb));
        }
        entries.sort();
        let mut out = Vec::new();
        put_u32(&mut out, entries.len() as u32);
        for (kb, sb) in entries {
            out.extend_from_slice(&kb);
            out.extend_from_slice(&sb);
        }
        Ok(out)
    }

    /// Restore the carry-over table from [`Self::export_carry`] bytes.
    /// The next window's supergroups then inherit state exactly as they
    /// would have in the original run. Empty input (recovery before any
    /// window closed) is a no-op.
    pub fn import_carry(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            return Ok(());
        }
        let mut r = Reader::new(bytes);
        let n = r.take_u32().map_err(|e| e.to_string())? as usize;
        for _ in 0..n {
            let key = take_tuple(&mut r).map_err(|e| e.to_string())?;
            let nlibs = r.take_u32().map_err(|e| e.to_string())? as usize;
            if nlibs != self.spec.sfun_libs.len() {
                return Err(format!(
                    "carry-over entry has {nlibs} state slots, spec has {}",
                    self.spec.sfun_libs.len()
                ));
            }
            let mut states: SfunStates = Vec::with_capacity(nlibs);
            for li in 0..nlibs {
                let sb = r.take_bytes().map_err(|e| e.to_string())?;
                let lib = &self.spec.sfun_libs[li];
                let st = lib.decode_state(sb).ok_or_else(|| {
                    format!("SFUN library '{}' rejected persisted state", lib.name())
                })?;
                states.push(st);
            }
            self.old_sgs.insert(key, states);
        }
        if !r.is_empty() {
            return Err("trailing bytes in carry-over record".to_string());
        }
        Ok(())
    }

    /// Export each library's auxiliary state (state the library holds
    /// outside any supergroup, e.g. the reservoir seed counter).
    pub fn export_aux(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.spec.sfun_libs.len() as u32);
        for lib in &self.spec.sfun_libs {
            put_bytes(&mut out, &lib.encode_aux());
        }
        out
    }

    /// Restore library-auxiliary state from [`Self::export_aux`] bytes.
    pub fn import_aux(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            return Ok(());
        }
        let mut r = Reader::new(bytes);
        let n = r.take_u32().map_err(|e| e.to_string())? as usize;
        if n != self.spec.sfun_libs.len() {
            return Err(format!(
                "auxiliary record has {n} library slots, spec has {}",
                self.spec.sfun_libs.len()
            ));
        }
        for lib in &self.spec.sfun_libs {
            let sb = r.take_bytes().map_err(|e| e.to_string())?;
            if !lib.decode_aux(sb) {
                return Err(format!("SFUN library '{}' rejected auxiliary state", lib.name()));
            }
        }
        Ok(())
    }

    /// Force-close the current window at end of stream.
    pub fn finish(&mut self) -> Result<Option<WindowOutput>, OpError> {
        if self.window.is_none() {
            return Ok(None);
        }
        let _span = self.metrics.as_ref().and_then(|m| m.finalize_span.start());
        let out = self.flush_window()?;
        self.window = None;
        Ok(Some(out))
    }

    /// Convenience: run a whole tuple iterator, returning every window's
    /// output (including the final partial window).
    pub fn run<'a>(
        &mut self,
        tuples: impl IntoIterator<Item = &'a Tuple>,
    ) -> Result<Vec<WindowOutput>, OpError> {
        let mut out = Vec::new();
        for t in tuples {
            if let Some(w) = self.process(t)? {
                out.push(w);
            }
        }
        if let Some(w) = self.finish()? {
            out.push(w);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;

    /// SELECT tb, sum(v), count(*) GROUP BY t/10 as tb, k
    fn simple_agg_spec() -> OperatorSpec {
        let mut spec = OperatorSpec::aggregation(
            vec![
                ("tb".into(), Expr::GroupVar(0)),
                ("k".into(), Expr::GroupVar(1)),
                ("sum_v".into(), Expr::Aggregate(0)),
                ("cnt".into(), Expr::Aggregate(1)),
            ],
            vec![
                ("tb".into(), Expr::Column(0).div(Expr::lit(10u64))),
                ("k".into(), Expr::Column(1)),
            ],
        );
        spec.window_indices = vec![0];
        spec.aggregates = vec![AggSpec::Sum(Expr::Column(2)), AggSpec::Count];
        spec
    }

    fn t(time: u64, k: u64, v: u64) -> Tuple {
        Tuple::new(vec![Value::U64(time), Value::U64(k), Value::U64(v)])
    }

    #[test]
    fn a_batch_closing_several_windows_queues_every_boundary_snapshot() {
        let spec = || {
            let cfg =
                crate::libs::subset_sum::SubsetSumOpConfig { target: 4, ..Default::default() };
            crate::queries::subset_sum_query(1, cfg, false).unwrap()
        };
        // Four one-second windows of packets; one batch closes three.
        let feed: Vec<Tuple> = (0..40u64)
            .map(|i| {
                sso_types::Packet {
                    uts: i * 100_000_000 + 1,
                    src_ip: i as u32,
                    dest_ip: 9,
                    src_port: 1,
                    dest_port: 2,
                    proto: sso_types::Protocol::Tcp,
                    len: 100 + 37 * (i as u32 % 11),
                }
                .to_tuple()
            })
            .collect();
        // One tuple at a time, taking the snapshot as each window closes.
        let mut single = SamplingOperator::new(spec()).unwrap();
        single.set_capture_flush(true);
        let mut want = Vec::new();
        for tuple in &feed {
            if single.process(tuple).unwrap().is_some() {
                want.push(single.take_flush_state().unwrap());
            }
        }
        assert_eq!(want.len(), 3);
        let mut batched = SamplingOperator::new(spec()).unwrap();
        batched.set_capture_flush(true);
        let mut closed = 0;
        batched.process_batch(&feed, |_| closed += 1).unwrap();
        assert_eq!((closed, batched.batch_entered()), (3, feed.len()));
        let got: Vec<_> = std::iter::from_fn(|| batched.take_flush_state()).collect();
        assert_eq!(got, want, "every boundary, oldest first");
    }

    #[test]
    fn aggregation_per_window() {
        let mut op = SamplingOperator::new(simple_agg_spec()).unwrap();
        let tuples = [t(1, 7, 10), t(2, 7, 5), t(3, 8, 1), t(11, 7, 100)];
        let outs = op.run(tuples.iter()).unwrap();
        assert_eq!(outs.len(), 2);
        // Window 0: group (0,7) sum 15 count 2; group (0,8) sum 1 count 1.
        assert_eq!(outs[0].window, Tuple::new(vec![Value::U64(0)]));
        assert_eq!(
            outs[0].rows,
            vec![
                Tuple::new(vec![Value::U64(0), Value::U64(7), Value::U64(15), Value::U64(2)]),
                Tuple::new(vec![Value::U64(0), Value::U64(8), Value::U64(1), Value::U64(1)]),
            ]
        );
        // Window 1: group (1,7) sum 100.
        assert_eq!(
            outs[1].rows,
            vec![Tuple::new(vec![Value::U64(1), Value::U64(7), Value::U64(100), Value::U64(1)])]
        );
        assert_eq!(op.stats().windows, 2);
        assert_eq!(op.stats().tuples, 4);
    }

    #[test]
    fn where_filters_tuples() {
        let mut spec = simple_agg_spec();
        // WHERE v > 4
        spec.where_clause = Some(Expr::Column(2).gt(Expr::lit(4u64)));
        let mut op = SamplingOperator::new(spec).unwrap();
        let tuples = [t(1, 7, 10), t(2, 7, 3)];
        let outs = op.run(tuples.iter()).unwrap();
        assert_eq!(outs[0].rows.len(), 1);
        assert_eq!(outs[0].rows[0].get(2), &Value::U64(10));
        assert_eq!(outs[0].stats.tuples, 2);
        assert_eq!(outs[0].stats.admitted, 1);
    }

    #[test]
    fn having_filters_groups() {
        let mut spec = simple_agg_spec();
        // HAVING count(*) >= 2
        spec.having = Some(Expr::Aggregate(1).ge(Expr::lit(2u64)));
        let mut op = SamplingOperator::new(spec).unwrap();
        let tuples = [t(1, 7, 10), t(2, 7, 5), t(3, 8, 1)];
        let outs = op.run(tuples.iter()).unwrap();
        assert_eq!(outs[0].rows.len(), 1);
        assert_eq!(outs[0].rows[0].get(1), &Value::U64(7));
    }

    #[test]
    fn count_distinct_superagg_and_cleaning() {
        // Keep at most 2 groups per supergroup: clean when
        // count_distinct$ > 2, keep only groups with sum >= 10.
        let mut spec = simple_agg_spec();
        spec.superaggs = vec![SuperAggSpec::CountDistinct];
        spec.cleaning_when = Some(Expr::SuperAgg(0).gt(Expr::lit(2u64)));
        spec.cleaning_by = Some(Expr::Aggregate(0).ge(Expr::lit(10u64)));
        let mut op = SamplingOperator::new(spec).unwrap();
        let tuples = [t(1, 1, 100), t(2, 2, 3), t(3, 3, 50)];
        let outs = op.run(tuples.iter()).unwrap();
        // Third group triggers cleaning; group k=2 (sum 3) evicted.
        assert_eq!(outs[0].stats.cleaning_phases, 1);
        let keys: Vec<&Value> = outs[0].rows.iter().map(|r| r.get(1)).collect();
        assert_eq!(keys, vec![&Value::U64(1), &Value::U64(3)]);
    }

    /// Lossy counting evicts a source and meets it again in the same
    /// window: the group starts over in a recycled slot — `count(*)` = 1
    /// and `first(current_bucket())` the *new* bucket — not from what
    /// the slot last held.
    #[test]
    fn a_group_recreated_in_a_recycled_slot_starts_fresh() {
        // Buckets of four tuples; time, srcIP, len at the packet's columns.
        let mut spec = crate::queries::heavy_hitters_query(60, 4, None).unwrap();
        spec.select.push(("first_bucket".into(), Expr::Aggregate(2)));
        let mut op = SamplingOperator::new(spec).unwrap();
        let packet = |src_ip: u32| {
            let p = sso_types::Packet {
                uts: 1,
                src_ip,
                dest_ip: 9,
                src_port: 1000,
                dest_port: 80,
                proto: sso_types::Protocol::Tcp,
                len: 10,
            };
            p.to_tuple()
        };
        // Bucket 1: four sources seen once; all fail `f + Δ > b` (1 + 1 > 2).
        for src in [1, 2, 3, 4] {
            op.process(&packet(src)).unwrap();
        }
        assert_eq!((op.group_count(), op.groups.peak()), (0, 4));
        // Bucket 2: source 1 again, twice, then two sources seen once.
        for src in [1, 1, 5, 6] {
            op.process(&packet(src)).unwrap();
        }
        assert_eq!(op.groups.peak(), 4, "bucket 2 ran in bucket 1's slots");
        let out = op.finish().unwrap().unwrap();
        assert_eq!(out.stats.evictions, 6);
        // 2 + 2 > 3: kept, with this bucket's count and bucket id.
        let row = |vals: [u64; 5]| Tuple::new(vals.map(Value::U64).to_vec());
        assert_eq!(out.rows, vec![row([0, 1, 20, 2, 2])]);
    }

    /// `Kth_smallest_value$` and `sum$` are told of an eviction with the
    /// evicted group's own key and aggregates, before its slot is
    /// recycled — and again when the slot's next tenant is evicted.
    #[test]
    fn superaggregates_see_the_evicted_group_before_its_slot_is_recycled() {
        let mut spec = simple_agg_spec();
        spec.superaggs = vec![
            SuperAggSpec::CountDistinct,
            SuperAggSpec::KthSmallest { expr: Expr::GroupVar(1), k: 1 },
            SuperAggSpec::Sum { expr: Expr::Column(2), agg_slot: 0 },
        ];
        spec.cleaning_when = Some(Expr::SuperAgg(0).gt(Expr::lit(2u64)));
        spec.cleaning_by = Some(Expr::Aggregate(0).ge(Expr::lit(10u64)));
        spec.select.push(("least_k".into(), Expr::SuperAgg(1)));
        spec.select.push(("total".into(), Expr::SuperAgg(2)));
        let mut op = SamplingOperator::new(spec).unwrap();
        // The third group triggers a cleaning phase that evicts k=1 (sum
        // 3); k=2 then takes its slot, and is evicted (sum 4) in turn.
        for tuple in [t(1, 5, 100), t(2, 1, 3), t(3, 7, 50), t(4, 2, 4)] {
            op.process(&tuple).unwrap();
        }
        assert_eq!((op.group_count(), op.groups.peak()), (2, 3));
        let out = op.finish().unwrap().unwrap();
        assert_eq!(out.stats.evictions, 2);
        let row = |vals: [u64; 6]| Tuple::new(vals.map(Value::U64).to_vec());
        // Both evicted keys left the rank tracker, both sums left `sum$`.
        assert_eq!(out.rows, vec![row([0, 5, 100, 1, 5, 150]), row([0, 7, 50, 1, 5, 150])]);
    }

    #[test]
    fn supergroup_partitioning() {
        // Supergroup by k: each k gets its own count_distinct$.
        let mut spec = OperatorSpec::aggregation(
            vec![
                ("k".into(), Expr::GroupVar(1)),
                ("v".into(), Expr::GroupVar(2)),
                ("cd".into(), Expr::SuperAgg(0)),
            ],
            vec![
                ("tb".into(), Expr::Column(0).div(Expr::lit(10u64))),
                ("k".into(), Expr::Column(1)),
                ("v".into(), Expr::Column(2)),
            ],
        );
        spec.window_indices = vec![0];
        spec.supergroup_indices = vec![1];
        spec.superaggs = vec![SuperAggSpec::CountDistinct];
        let mut op = SamplingOperator::new(spec).unwrap();
        // k=1 has groups v=1,2; k=2 has v=3.
        let tuples = [t(1, 1, 1), t(2, 1, 2), t(3, 2, 3)];
        let outs = op.run(tuples.iter()).unwrap();
        let rows = &outs[0].rows;
        assert_eq!(rows.len(), 3);
        // count_distinct$ read at flush: 2 for k=1's groups, 1 for k=2's.
        assert_eq!(rows[0].get(2), &Value::U64(2));
        assert_eq!(rows[1].get(2), &Value::U64(2));
        assert_eq!(rows[2].get(2), &Value::U64(1));
    }

    #[test]
    fn window_stats_reset_between_windows() {
        let mut op = SamplingOperator::new(simple_agg_spec()).unwrap();
        let tuples = [t(1, 1, 1), t(2, 2, 2), t(11, 3, 3)];
        let outs = op.run(tuples.iter()).unwrap();
        assert_eq!(outs[0].stats.tuples, 2);
        assert_eq!(outs[0].stats.groups_created, 2);
        assert_eq!(outs[1].stats.tuples, 1);
        assert_eq!(outs[1].stats.groups_created, 1);
    }

    #[test]
    fn finish_without_tuples_is_none() {
        let mut op = SamplingOperator::new(simple_agg_spec()).unwrap();
        assert!(op.finish().unwrap().is_none());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = simple_agg_spec();
        spec.select.clear();
        assert!(SamplingOperator::new(spec).is_err());

        let mut spec = simple_agg_spec();
        spec.window_indices = vec![9];
        assert!(SamplingOperator::new(spec).is_err());

        let mut spec = simple_agg_spec();
        spec.supergroup_indices = vec![0]; // window var listed as supergroup
        assert!(SamplingOperator::new(spec).is_err());

        let mut spec = simple_agg_spec();
        spec.cleaning_when = Some(Expr::lit(true));
        assert!(SamplingOperator::new(spec).is_err(), "CLEANING WHEN without CLEANING BY");
    }

    #[test]
    fn validation_rejects_out_of_range_slots() {
        let rejects = |what: &str, edit: &dyn Fn(&mut OperatorSpec)| {
            let mut spec = simple_agg_spec();
            edit(&mut spec);
            match SamplingOperator::new(spec) {
                Err(OpError::InvalidSpec(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: expected InvalidSpec, got {other:?}"),
            }
        };
        // simple_agg_spec has 2 group-by variables, 2 aggregates, no
        // superaggregates and no SFUN libraries.
        rejects("SELECT references group-by variable slot 2", &|s| {
            s.select[0].1 = Expr::GroupVar(2);
        });
        rejects("WHERE references group-by variable slot 5", &|s| {
            s.where_clause = Some(Expr::GroupVar(5).gt(Expr::lit(0u64)));
        });
        rejects("HAVING references aggregate slot 2", &|s| {
            s.having = Some(Expr::Aggregate(2).ge(Expr::lit(1u64)));
        });
        rejects("CLEANING WHEN references superaggregate slot 0", &|s| {
            s.cleaning_when = Some(Expr::SuperAgg(0).gt(Expr::lit(2u64)));
            s.cleaning_by = Some(Expr::lit(true));
        });
        rejects("CLEANING BY references aggregate slot 7", &|s| {
            s.cleaning_when = Some(Expr::lit(false));
            s.cleaning_by = Some(Expr::Not(Box::new(Expr::Aggregate(7))));
        });
        rejects("AGGREGATE references stateful-function library slot 0", &|s| {
            let lib = crate::libs::heavy_hitter::library();
            let call = crate::queries::sfun_expr(0, &lib, "current_bucket", vec![]).unwrap();
            s.aggregates.push(AggSpec::First(call));
        });
        rejects("SUPERAGG references group-by variable slot 2", &|s| {
            s.superaggs = vec![SuperAggSpec::KthSmallest { expr: Expr::GroupVar(2), k: 1 }];
        });
        rejects("sum$ is paired with aggregate slot 2", &|s| {
            s.superaggs = vec![SuperAggSpec::Sum { expr: Expr::Column(2), agg_slot: 2 }];
        });
        // A slot nested under calls and operators is found too.
        rejects("GROUP BY references aggregate slot 9", &|s| {
            let nested = Expr::lit(1u64).add(Expr::Not(Box::new(Expr::Aggregate(9))));
            s.group_by[1].1 =
                Expr::Scalar { name: "H", fun: crate::scalar::hash_fn(), args: vec![nested] };
        });
    }

    #[test]
    fn group_by_values_are_staged_around_where() {
        // minhash: tb is the window, srcIP the supergroup key, and WHERE
        // reads HX — nothing is left to defer. §6.1: WHERE reads no
        // group-by variable, so all of srcIP, destIP, uts wait.
        let staged = |spec: OperatorSpec| staging(&spec);
        let minhash = crate::queries::minhash_query(60, 10).unwrap();
        assert_eq!(staged(minhash), (vec![1, 2], vec![]));
        let cfg = crate::libs::subset_sum::SubsetSumOpConfig { target: 100, ..Default::default() };
        let ss = crate::queries::subset_sum_query(60, cfg, false).unwrap();
        assert_eq!(staged(ss), (vec![], vec![1, 2, 3]));
    }

    #[test]
    fn decide_on_arrival_samplers_select_the_run_path() {
        use crate::libs::{distinct::DistinctOpConfig, reservoir::ReservoirOpConfig};
        let ss = crate::libs::subset_sum::SubsetSumOpConfig { target: 100, ..Default::default() };
        let rs = ReservoirOpConfig { n: 25, ..Default::default() };
        let ds = DistinctOpConfig { capacity: 256, carry_level: true };
        let run_path = |spec: Result<OperatorSpec, OpError>| {
            let spec = spec.unwrap();
            let mut as_true = spec.clone();
            as_true.where_clause = spec.where_clause.clone().map(|w| w.eq(Expr::lit(true)));
            let bare = SamplingOperator::new(spec).unwrap().run.is_some();
            (bare, SamplingOperator::new(as_true).unwrap().run.is_some())
        };
        // The text form: `dsample(srcIP, 256)` reads the group-by
        // variable `srcIP`, which is the column `srcIP`.
        let distinct_text = crate::queries::distinct_sample_query(60, ds).map(|mut spec| {
            let Some(Expr::Sfun { args, .. }) = &mut spec.where_clause else { panic!("a call") };
            args[0] = Expr::GroupVar(1);
            spec
        });
        // A computed group-by variable is not a column.
        let distinct_computed = distinct_text.clone().map(|mut spec| {
            spec.group_by[1].1 = spec.group_by[1].1.clone().div(Expr::lit(2u64));
            spec
        });
        for (name, spec) in [
            ("subset_sum_query", crate::queries::subset_sum_query(60, ss, false)),
            ("basic_subset_sum_query", crate::queries::basic_subset_sum_query(60, 600.0)),
            ("reservoir_query", crate::queries::reservoir_query(60, rs)),
            ("distinct_sample_query", crate::queries::distinct_sample_query(60, ds)),
            ("distinct_sample_query text", distinct_text),
        ] {
            assert_eq!(run_path(spec), (true, true), "{name}");
        }
        for (name, spec) in [
            ("minhash_query", crate::queries::minhash_query(60, 10)),
            ("heavy_hitters_query", crate::queries::heavy_hitters_query(60, 100, Some(50))),
            ("total_sum_query", Ok(crate::queries::total_sum_query(60))),
            ("dsample of a computed group-by variable", distinct_computed),
        ] {
            assert_eq!(run_path(spec), (false, false), "{name}");
        }
    }

    #[test]
    fn group_and_supergroup_counts_track_tables() {
        let mut op = SamplingOperator::new(simple_agg_spec()).unwrap();
        op.process(&t(1, 1, 1)).unwrap();
        op.process(&t(2, 2, 1)).unwrap();
        assert_eq!(op.group_count(), 2);
        assert_eq!(op.supergroup_count(), 1);
        op.process(&t(11, 1, 1)).unwrap(); // new window
        assert_eq!(op.group_count(), 1);
    }

    #[test]
    fn output_columns_match_select() {
        let op = SamplingOperator::new(simple_agg_spec()).unwrap();
        assert_eq!(op.output_columns(), vec!["tb", "k", "sum_v", "cnt"]);
    }

    #[test]
    fn metrics_flush_at_window_close() {
        let registry = sso_obs::Registry::new();
        let mut op = SamplingOperator::new(simple_agg_spec()).unwrap();
        op.set_metrics(OperatorMetrics::register(&registry, ""));
        op.run([t(1, 7, 10), t(2, 7, 5), t(3, 8, 1), t(11, 7, 100)].iter()).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.value("op.tuples"), 4.0);
        assert_eq!(snap.value("op.windows"), 2.0);
        assert_eq!(snap.value("op.output_rows"), 3.0);
        assert_eq!(snap.value("op.groups_created"), 3.0);
    }

    #[test]
    fn evictions_are_counted() {
        let mut spec = simple_agg_spec();
        spec.superaggs = vec![SuperAggSpec::CountDistinct];
        spec.cleaning_when = Some(Expr::SuperAgg(0).gt(Expr::lit(2u64)));
        spec.cleaning_by = Some(Expr::Aggregate(0).ge(Expr::lit(10u64)));
        let mut op = SamplingOperator::new(spec).unwrap();
        let outs = op.run([t(1, 1, 100), t(2, 2, 3), t(3, 3, 50)].iter()).unwrap();
        assert_eq!(outs[0].stats.evictions, 1, "group k=2 (sum 3) evicted");
        assert_eq!(op.stats().evictions, 1);
    }
}
