//! The resolver: one pass over a parsed query that resolves every name
//! against its clause scope, infers every [`ValueKind`], reports every
//! problem as a [`Diagnostic`] with a stable code and a byte-offset
//! span — without stopping at the first — and, when none of them is an
//! error, builds the executable [`OperatorSpec`].
//!
//! * **Scopes** (§5): GROUP BY expressions see only columns and
//!   scalars; tuple-phase clauses (WHERE, CLEANING WHEN, aggregate
//!   arguments) see columns, group-by variables, SFUNs and
//!   superaggregates; group-phase clauses (SELECT, HAVING, CLEANING BY)
//!   see group-by variables, aggregates, superaggregates and SFUNs;
//!   superaggregate keys must be group-by variables. A packet predicate
//!   ([`crate::compile_packet_predicate`]) sees columns and scalars only.
//! * **Type inference** runs over [`ValueKind`]s: column kinds come
//!   from the schema, group-by variable kinds from their defining
//!   expressions, function result kinds from registered
//!   [`Signature`]s. A node with a problem resolves to a placeholder of
//!   kind `Any`, so one mistake does not cascade.
//! * **Window safety** (§3): a query with CLEANING clauses samples
//!   within a window, so some GROUP BY expression must reference an
//!   *ordered* schema attribute.
//! * **Lints**: constant CLEANING WHEN predicates (W001), cleaning
//!   that never advances its sampling threshold (W002), vacuous
//!   heavy-hitter bounds (W003), truthiness-coerced predicates (W004),
//!   duplicate output columns (W005). They read the kinds the pass
//!   recorded and never resolve a node again.
//!
//! Two orders are fixed. Aggregate, superaggregate and SFUN-library
//! slots are numbered as the clauses are resolved: GROUP BY, SUPERGROUP,
//! WHERE, CLEANING WHEN, CLEANING BY, HAVING, SELECT (the library order
//! is also the durable carry layout). Diagnostics come out per clause in
//! the order WHERE, HAVING, CLEANING WHEN, CLEANING BY, SELECT, then the
//! lints.

use std::sync::Arc;

use sso_core::agg::AggSpec;
use sso_core::expr::{BinOp, Expr};
use sso_core::operator::OperatorSpec;
use sso_core::sfun::{SfunLibrary, Signature};
use sso_core::superagg::SuperAggSpec;
use sso_types::{Schema, Value, ValueKind};

use crate::ast::{AstExpr, BinAstOp, ExprKind, Query, Span};
use crate::diag::{self, Code, Diagnostic};
use crate::error::QueryError;
use crate::plan::{bin_op, references_ordered_column, PlannerConfig};

/// Analyze a parsed query against a schema and the registered SFUN
/// libraries. Returns every diagnostic found, in source order per
/// clause; an empty vector means the query is clean.
pub fn analyze(query: &Query, schema: &Schema, config: &PlannerConfig) -> Vec<Diagnostic> {
    resolve(query, schema, config).0
}

/// Resolve a parsed query once: every diagnostic [`analyze`] reports,
/// and the validated spec [`crate::plan()`] returns — or
/// [`QueryError::Analysis`] carrying those diagnostics when one of them
/// is an error.
pub fn resolve(
    query: &Query,
    schema: &Schema,
    config: &PlannerConfig,
) -> (Vec<Diagnostic>, Result<OperatorSpec, QueryError>) {
    let (diags, spec) = Resolver::new(schema, config).query(query);
    let diags = dedupe(diags);
    let spec = match spec {
        Some(spec) => spec.validate().map(|()| spec).map_err(QueryError::Plan),
        None => Err(QueryError::Analysis(diags.clone())),
    };
    (diags, spec)
}

/// [`crate::compile_packet_predicate`]: `e` resolved in the packet scope.
pub(crate) fn packet_predicate(e: &AstExpr, schema: &Schema) -> Result<Expr, QueryError> {
    let config = PlannerConfig::empty();
    let mut r = Resolver::new(schema, &config);
    let (expr, _) = r.resolve(e, Scope::Packet);
    if diag::has_errors(&r.diags) {
        return Err(QueryError::Analysis(r.diags));
    }
    Ok(expr)
}

/// Collapse duplicate `(code, span)` emissions, keeping first-found
/// order. A clause visited by both the scope pass and a lint pass can
/// report the same problem twice; one report is enough.
fn dedupe(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diag::dedup_diagnostics(&mut diags);
    diags
}

/// Which clause an expression appears in; controls name resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// A GROUP BY expression.
    GroupBy,
    /// WHERE / CLEANING WHEN / aggregate arguments.
    Tuple,
    /// SELECT / HAVING / CLEANING BY.
    Group,
    /// The key expression of a superaggregate.
    SuperKey,
    /// A packet predicate: columns and scalar functions only.
    Packet,
}

impl Scope {
    fn name(self) -> &'static str {
        match self {
            Scope::GroupBy => "GROUP BY",
            Scope::Tuple => "a tuple-phase clause",
            Scope::Group => "a group-phase clause",
            Scope::SuperKey => "a superaggregate key",
            Scope::Packet => "a packet predicate",
        }
    }

    /// GROUP BY and packet predicates see no operator state: no SFUN,
    /// no superaggregate.
    fn stateless(self) -> bool {
        matches!(self, Scope::GroupBy | Scope::Packet)
    }
}

/// A resolved group-by variable.
struct GbVar {
    name: String,
    expr: Expr,
    kind: ValueKind,
    /// Does its defining expression reference an ordered attribute?
    windowed: bool,
}

/// The lengths of the slot tables, so a repeated aggregate can drop
/// whatever resolving its arguments again added.
#[derive(Clone, Copy)]
struct Mark {
    aggregates: usize,
    superaggs: usize,
    libs: usize,
}

struct Resolver<'q, 'a> {
    schema: &'a Schema,
    config: &'a PlannerConfig,
    gb: Vec<GbVar>,
    diags: Vec<Diagnostic>,
    /// The kind of every node resolved, for the lints.
    kinds: Vec<(&'q AstExpr, ValueKind)>,
    /// Aggregate slots with their dedup keys, in first-use order.
    aggregates: Vec<(String, AggSpec)>,
    /// Superaggregate slots with their dedup keys.
    superaggs: Vec<(String, SuperAggSpec)>,
    /// The libraries the query calls, in first-use order.
    libs: Vec<Arc<SfunLibrary>>,
}

/// The `do_clean` SFUNs paired with the `clean_with` call that advances
/// their sampling threshold (subset-sum §4.1, reservoir §4.2, distinct
/// §4.3).
const CLEAN_PAIRS: &[(&str, &str)] =
    &[("ssdo_clean", "ssclean_with"), ("rsdo_clean", "rsclean_with"), ("ddo_clean", "dclean_with")];

/// The calls that size a sampling family, each by its last argument:
/// `ssample(w, N)`, `rsample(n)`, `dsample(x, c)` and `local_count(w)`
/// (`sso_core::Sampler::of` reads the same). A literal 0 there is E013.
pub const SAMPLING_CALLS: [&str; 4] = ["ssample", "rsample", "dsample", "local_count"];

/// What a node with a problem resolves to.
fn placeholder() -> (Expr, ValueKind) {
    (Expr::Literal(Value::Null), ValueKind::Any)
}

impl<'q, 'a> Resolver<'q, 'a> {
    fn new(schema: &'a Schema, config: &'a PlannerConfig) -> Self {
        Resolver {
            schema,
            config,
            gb: Vec::new(),
            diags: Vec::new(),
            kinds: Vec::new(),
            aggregates: Vec::new(),
            superaggs: Vec::new(),
            libs: Vec::new(),
        }
    }

    fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Resolve every clause; the spec comes back only when no
    /// diagnostic is an error.
    fn query(mut self, query: &'q Query) -> (Vec<Diagnostic>, Option<OperatorSpec>) {
        // GROUP BY first: later clauses resolve against its variables.
        if query.group_by.is_empty() {
            self.push(Diagnostic::new(Code::E009, Span::DUMMY, "GROUP BY list is empty"));
        }
        for (i, item) in query.group_by.iter().enumerate() {
            let name = item.name(i);
            if self.gb_index(&name).is_some() {
                self.push(
                    Diagnostic::new(
                        Code::E001,
                        item.expr.span,
                        format!("duplicate group-by variable name `{name}`"),
                    )
                    .with_help("rename one of the expressions with `AS <other-name>`"),
                );
            }
            let (expr, kind) = self.resolve(&item.expr, Scope::GroupBy);
            let windowed = references_ordered_column(&item.expr, self.schema);
            self.gb.push(GbVar { name, expr, kind, windowed });
        }

        // SUPERGROUP names group-by variables; the window variables are
        // implicitly part of every supergroup.
        let mut supergroup_indices = Vec::new();
        for name in &query.supergroup {
            match self.gb_index(&name.text) {
                None => self.push(
                    Diagnostic::new(
                        Code::E011,
                        name.span,
                        format!("SUPERGROUP variable `{name}` is not a group-by variable"),
                    )
                    .with_help("SUPERGROUP lists a subset of the GROUP BY variable names"),
                ),
                Some(i) if !self.gb[i].windowed && !supergroup_indices.contains(&i) => {
                    supergroup_indices.push(i)
                }
                Some(_) => {}
            }
        }

        // Predicates, each in its clause scope. HAVING is resolved
        // after the cleaning clauses (slot order) but reported before
        // them.
        let where_clause = self.predicate(&query.where_clause, "WHERE", Scope::Tuple);
        let cleaning_start = self.diags.len();
        let cleaning_when = self.predicate(&query.cleaning_when, "CLEANING WHEN", Scope::Tuple);
        let cleaning_by = self.predicate(&query.cleaning_by, "CLEANING BY", Scope::Group);
        let cleaning_len = self.diags.len() - cleaning_start;
        let having = self.predicate(&query.having, "HAVING", Scope::Group);
        self.diags[cleaning_start..].rotate_left(cleaning_len);

        // SELECT expressions and duplicate output names.
        let mut select: Vec<(String, Expr)> = Vec::with_capacity(query.select.len());
        for (i, item) in query.select.iter().enumerate() {
            let (expr, _) = self.resolve(&item.expr, Scope::Group);
            let name = item.output_name(i);
            if select.iter().any(|(n, _)| *n == name) {
                self.push(
                    Diagnostic::new(
                        Code::W005,
                        item.expr.span,
                        format!("duplicate output column name `{name}`"),
                    )
                    .with_help("rename with `AS <other-name>` to keep both columns"),
                );
            }
            select.push((name, expr));
        }

        self.check_cleaning_pairing(query);
        self.check_window_safety(query);
        self.lint_constant_cleaning(query);
        self.lint_threshold_update(query);
        self.lint_heavy_hitter(query);

        if diag::has_errors(&self.diags) {
            return (self.diags, None);
        }
        let window_indices = (0..self.gb.len()).filter(|&i| self.gb[i].windowed).collect();
        let spec = OperatorSpec {
            select,
            where_clause,
            group_by: self.gb.into_iter().map(|v| (v.name, v.expr)).collect(),
            window_indices,
            supergroup_indices,
            having,
            cleaning_when,
            cleaning_by,
            aggregates: self.aggregates.into_iter().map(|(_, a)| a).collect(),
            superaggs: self.superaggs.into_iter().map(|(_, s)| s).collect(),
            sfun_libs: self.libs,
        };
        (self.diags, Some(spec))
    }

    /// E012: CLEANING WHEN and CLEANING BY only make sense together.
    fn check_cleaning_pairing(&mut self, query: &Query) {
        match (&query.cleaning_when, &query.cleaning_by) {
            (Some(when), None) => self.push(
                Diagnostic::new(Code::E012, when.span, "CLEANING WHEN without CLEANING BY")
                    .with_help(
                        "CLEANING WHEN decides *when* to clean; add CLEANING BY to say \
                     which tuples survive",
                    ),
            ),
            (None, Some(by)) => self.push(
                Diagnostic::new(Code::E012, by.span, "CLEANING BY without CLEANING WHEN")
                    .with_help(
                        "CLEANING BY says which tuples survive a cleaning pass; add \
                         CLEANING WHEN to say when cleaning runs",
                    ),
            ),
            _ => {}
        }
    }
    /// E010 (§3): a sampling query cleans within a window, so some
    /// GROUP BY expression must reference an ordered attribute.
    fn check_window_safety(&mut self, query: &Query) {
        let cleans = query.cleaning_when.is_some() || query.cleaning_by.is_some();
        if !cleans || self.gb.iter().any(|v| v.windowed) {
            return;
        }
        let span = query
            .cleaning_when
            .as_ref()
            .or(query.cleaning_by.as_ref())
            .map(|e| e.span)
            .unwrap_or(Span::DUMMY);
        let ordered: Vec<&str> = self
            .schema
            .ordered_indices()
            .into_iter()
            .map(|i| self.schema.fields()[i].name.as_str())
            .collect();
        let help = if ordered.is_empty() {
            format!(
                "stream {} has no ordered attribute, so it cannot host a sampling query",
                self.schema.name
            )
        } else {
            format!(
                "group by an expression over an ordered attribute, e.g. `{}/60 as tb`",
                ordered[0]
            )
        };
        self.push(
            Diagnostic::new(
                Code::E010,
                span,
                format!(
                    "sampling query has no window: no GROUP BY expression references an \
                     ordered attribute of {}",
                    self.schema.name
                ),
            )
            .with_help(help),
        );
    }

    /// W001: a CLEANING WHEN predicate that folds to a constant either
    /// never fires or fires on every tuple.
    fn lint_constant_cleaning(&mut self, query: &Query) {
        let Some(when) = &query.cleaning_when else { return };
        match self.pred_truth(when) {
            Some(false) => self.push(
                Diagnostic::new(
                    Code::W001,
                    when.span,
                    "CLEANING WHEN predicate is always false; cleaning never fires",
                )
                .with_help(
                    "the CLEANING clauses are dead code — gate cleaning on an SFUN \
                     such as `ssdo_clean(...)` or a superaggregate bound",
                ),
            ),
            Some(true) => self.push(
                Diagnostic::new(
                    Code::W001,
                    when.span,
                    "CLEANING WHEN predicate is always true; cleaning runs on every tuple",
                )
                .with_help("cleaning on every tuple defeats sampling; test a size bound instead"),
            ),
            None => {}
        }
    }

    /// W002: CLEANING WHEN asks a library's `do_clean` whether to
    /// clean, but CLEANING BY never calls the paired `clean_with`, so
    /// the sampling threshold never advances and cleaning cannot shrink
    /// the sample.
    fn lint_threshold_update(&mut self, query: &Query) {
        let (Some(when), Some(by)) = (&query.cleaning_when, &query.cleaning_by) else {
            return;
        };
        let when_calls = called_functions(when);
        let by_calls = called_functions(by);
        for (do_clean, clean_with) in CLEAN_PAIRS {
            let fired = when_calls.iter().find(|(n, _)| n == do_clean);
            let updated = by_calls.iter().any(|(n, _)| n == clean_with);
            if let (Some((_, _span)), false) = (fired, updated) {
                self.push(
                    Diagnostic::new(
                        Code::W002,
                        by.span,
                        format!(
                            "CLEANING WHEN fires on `{do_clean}` but CLEANING BY never \
                             calls `{clean_with}`; the sampling threshold never advances \
                             and cleaning cannot shrink the sample"
                        ),
                    )
                    .with_help(format!("call `{clean_with}(...)` in CLEANING BY")),
                );
            }
        }
    }

    /// W003: heavy-hitter configurations whose bounds are vacuous — a
    /// bucket width of one (every tuple closes a bucket, ε ≥ 1) or a
    /// HAVING support threshold every group satisfies.
    fn lint_heavy_hitter(&mut self, query: &Query) {
        let mut exprs: Vec<&AstExpr> = Vec::new();
        exprs.extend(query.cleaning_when.iter());
        exprs.extend(query.cleaning_by.iter());
        exprs.extend(query.where_clause.iter());
        for e in exprs {
            e.walk(&mut |node| {
                if let ExprKind::Call { name, superagg: false, args } = &node.kind {
                    if name == "local_count" && args.len() == 1 {
                        if let Some(Const::I(w)) = fold(&args[0]) {
                            // A literal 0 is an error of its own (E013).
                            if w <= 1 && args[0].kind != ExprKind::Int(0) {
                                self.diags.push(
                                    Diagnostic::new(
                                        Code::W003,
                                        node.span,
                                        format!(
                                            "heavy-hitter bucket width {w} is vacuous: \
                                             every tuple closes its own bucket, so the \
                                             frequency-error bound ε = 1/width is useless"
                                        ),
                                    )
                                    .with_help(
                                        "use a bucket width well above 1, e.g. `local_count(100)`",
                                    ),
                                );
                            }
                        }
                    }
                }
            });
        }
        if let Some(having) = &query.having {
            self.lint_vacuous_support(having);
        }
    }

    /// Recurse through the AND branches of a HAVING predicate looking
    /// for `count(*) >= k` comparisons that no group can fail.
    fn lint_vacuous_support(&mut self, e: &AstExpr) {
        if let ExprKind::Binary { op, lhs, rhs } = &e.kind {
            if *op == BinAstOp::And {
                self.lint_vacuous_support(lhs);
                self.lint_vacuous_support(rhs);
                return;
            }
            let vacuous = match (is_count_call(lhs), fold(rhs), fold(lhs), is_count_call(rhs)) {
                // count(*) >= k / count(*) > k
                (true, Some(Const::I(k)), _, _) => match op {
                    BinAstOp::Ge => k <= 1,
                    BinAstOp::Gt => k <= 0,
                    _ => false,
                },
                // k <= count(*) / k < count(*)
                (_, _, Some(Const::I(k)), true) => match op {
                    BinAstOp::Le => k <= 1,
                    BinAstOp::Lt => k <= 0,
                    _ => false,
                },
                _ => false,
            };
            if vacuous {
                self.push(
                    Diagnostic::new(
                        Code::W003,
                        e.span,
                        "support threshold is vacuous: every group has at least one \
                         tuple, so this HAVING comparison filters nothing",
                    )
                    .with_help("raise the count threshold above 1 to select frequent groups"),
                );
            }
        }
    }

    /// Resolve a clause predicate and warn (W004) if its type is not
    /// boolean — the runtime coerces via C-style truthiness.
    fn predicate(&mut self, e: &'q Option<AstExpr>, clause: &str, scope: Scope) -> Option<Expr> {
        let e = e.as_ref()?;
        let (expr, kind) = self.resolve(e, scope);
        if !matches!(kind, ValueKind::Bool | ValueKind::Any | ValueKind::Null) {
            self.push(
                Diagnostic::new(
                    Code::W004,
                    e.span,
                    format!(
                        "{clause} predicate has type {kind}; non-boolean values are \
                         coerced (nonzero/non-empty means true)"
                    ),
                )
                .with_help("write an explicit comparison, e.g. `... <> 0`"),
            );
        }
        Some(expr)
    }

    fn gb_index(&self, name: &str) -> Option<usize> {
        self.gb.iter().position(|v| v.name == name)
    }

    /// Resolve an expression in a scope: its [`Expr`] and its kind,
    /// pushing a diagnostic for every problem found on the way.
    fn resolve(&mut self, e: &'q AstExpr, scope: Scope) -> (Expr, ValueKind) {
        let (expr, kind) = match &e.kind {
            ExprKind::Int(v) => (Expr::lit(*v), ValueKind::UInt),
            ExprKind::Float(v) => (Expr::lit(*v), ValueKind::Float),
            ExprKind::Str(s) => (Expr::lit(s.as_str()), ValueKind::Str),
            ExprKind::Bool(b) => (Expr::lit(*b), ValueKind::Bool),
            ExprKind::Star => {
                self.push(Diagnostic::new(
                    Code::E007,
                    e.span,
                    "`*` is only valid as the argument of count(*) or count_distinct$(*)",
                ));
                placeholder()
            }
            ExprKind::Neg(inner) => {
                let (x, k) = self.resolve(inner, scope);
                let kind = match k {
                    ValueKind::Str => {
                        self.push(Diagnostic::new(
                            Code::E008,
                            inner.span,
                            "cannot negate a string value",
                        ));
                        ValueKind::Any
                    }
                    ValueKind::Float => ValueKind::Float,
                    _ => ValueKind::Int,
                };
                (Expr::lit(0i64).sub(x), kind)
            }
            ExprKind::Not(inner) => {
                let (x, _) = self.resolve(inner, scope);
                (Expr::Not(Box::new(x)), ValueKind::Bool)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let (l, lk) = self.resolve(lhs, scope);
                let (r, rk) = self.resolve(rhs, scope);
                (Expr::bin(bin_op(*op), l, r), self.binary_kind(e, *op, (lhs, lk), (rhs, rk)))
            }
            ExprKind::Ident(name) => self.ident(e, name, scope),
            ExprKind::Call { name, superagg: true, args } => self.superagg(e, name, args, scope),
            ExprKind::Call { name, superagg: false, args } => self.call(e, name, args, scope),
        };
        self.kinds.push((e, kind));
        (expr, kind)
    }

    fn binary_kind(
        &mut self,
        whole: &AstExpr,
        op: BinAstOp,
        (lhs, lk): (&AstExpr, ValueKind),
        (rhs, rk): (&AstExpr, ValueKind),
    ) -> ValueKind {
        if op.is_logical() {
            return ValueKind::Bool;
        }
        if op.is_comparison() {
            // Comparing a string with a definitely-non-string is a
            // type error; Any/Null stay quiet (unknown side).
            let mixed = (lk == ValueKind::Str) != (rk == ValueKind::Str)
                && lk != ValueKind::Any
                && rk != ValueKind::Any
                && lk != ValueKind::Null
                && rk != ValueKind::Null;
            if mixed {
                self.push(
                    Diagnostic::new(
                        Code::E008,
                        whole.span,
                        format!("cannot compare {lk} with {rk}"),
                    )
                    .with_help("string values only compare against other strings"),
                );
            }
            return ValueKind::Bool;
        }
        // Arithmetic: strings never participate.
        for (k, side) in [(lk, lhs), (rk, rhs)] {
            if k == ValueKind::Str {
                self.push(Diagnostic::new(
                    Code::E008,
                    side.span,
                    format!(
                        "operand of `{}` has type str; arithmetic needs numeric operands",
                        op.symbol()
                    ),
                ));
                return ValueKind::Any;
            }
        }
        if lk == ValueKind::Float || rk == ValueKind::Float {
            ValueKind::Float
        } else if lk == ValueKind::UInt && rk == ValueKind::UInt && op != BinAstOp::Sub {
            ValueKind::UInt
        } else {
            ValueKind::Num
        }
    }

    fn ident(&mut self, e: &AstExpr, name: &str, scope: Scope) -> (Expr, ValueKind) {
        // Group-by variables shadow columns outside GROUP BY.
        if scope != Scope::GroupBy {
            if let Some(i) = self.gb_index(name) {
                return (Expr::GroupVar(i), self.gb[i].kind);
            }
        }
        match scope {
            Scope::GroupBy | Scope::Tuple | Scope::Packet => match self.schema.index_of(name) {
                Ok(i) => (Expr::Column(i), self.schema.fields()[i].ty.value_kind()),
                Err(_) => {
                    let columns: Vec<&str> =
                        self.schema.fields().iter().map(|f| f.name.as_str()).collect();
                    self.push(
                        Diagnostic::new(
                            Code::E002,
                            e.span,
                            format!(
                                "unknown name `{name}` (not a column of {} or a group-by \
                                 variable)",
                                self.schema.name
                            ),
                        )
                        .with_help(format!(
                            "columns of {}: {}",
                            self.schema.name,
                            columns.join(", ")
                        )),
                    );
                    placeholder()
                }
            },
            Scope::Group => {
                self.push(
                    Diagnostic::new(
                        Code::E003,
                        e.span,
                        format!(
                            "`{name}` referenced in {} but is not a group-by variable or \
                             aggregate",
                            scope.name()
                        ),
                    )
                    .with_help(format!(
                        "group-phase clauses see group results, not raw tuples; add \
                         `{name}` to GROUP BY or wrap it in an aggregate"
                    )),
                );
                placeholder()
            }
            Scope::SuperKey => {
                self.push(Diagnostic::new(
                    Code::E003,
                    e.span,
                    format!("superaggregate key `{name}` must be a group-by variable"),
                ));
                placeholder()
            }
        }
    }

    fn superagg(
        &mut self,
        whole: &AstExpr,
        name: &str,
        args: &'q [AstExpr],
        scope: Scope,
    ) -> (Expr, ValueKind) {
        if scope.stateless() {
            self.push(Diagnostic::new(
                Code::E003,
                whole.span,
                format!("superaggregate `{name}$` is not allowed in {}", scope.name()),
            ));
        }
        let mark = self.mark();
        let (spec, kind) = match name.to_ascii_lowercase().as_str() {
            "count_distinct" => {
                if !(args.is_empty() || is_star_arg(args)) {
                    self.push(Diagnostic::new(
                        Code::E006,
                        whole.span,
                        "count_distinct$ takes no argument or `*`",
                    ));
                }
                (SuperAggSpec::CountDistinct, ValueKind::UInt)
            }
            "kth_smallest_value" => {
                if args.len() != 2 {
                    self.push(Diagnostic::new(
                        Code::E006,
                        whole.span,
                        "Kth_smallest_value$ expects (expr, k)",
                    ));
                    return placeholder();
                }
                let (expr, kind) = self.resolve(&args[0], Scope::SuperKey);
                let k = match args[1].kind {
                    ExprKind::Int(k) if k > 0 => k as usize,
                    _ => {
                        self.push(
                            Diagnostic::new(
                                Code::E013,
                                args[1].span,
                                "Kth_smallest_value$'s second argument must be a positive \
                                 integer literal",
                            )
                            .with_help(
                                "k is the fixed sample-size bound, e.g. \
                                 `Kth_smallest_value$(HX, 100)`",
                            ),
                        );
                        0
                    }
                };
                (SuperAggSpec::KthSmallest { expr, k }, kind)
            }
            "min" | "max" => {
                if args.len() != 1 {
                    self.push(Diagnostic::new(
                        Code::E006,
                        whole.span,
                        format!("{name}$ expects one argument"),
                    ));
                    return placeholder();
                }
                let (expr, kind) = self.resolve(&args[0], Scope::SuperKey);
                (SuperAggSpec::Extreme { expr, max: name.eq_ignore_ascii_case("max") }, kind)
            }
            "sum" => {
                if args.len() != 1 {
                    self.push(Diagnostic::new(Code::E006, whole.span, "sum$ expects one argument"));
                    return (placeholder().0, ValueKind::Num);
                }
                let (expr, k) = self.resolve(&args[0], Scope::Tuple);
                if k == ValueKind::Str {
                    self.push(Diagnostic::new(
                        Code::E008,
                        args[0].span,
                        "sum$ needs a numeric argument, got str",
                    ));
                }
                // Pair with a group aggregate over the same expression so
                // evictions can subtract the group's contribution.
                let paired = AggSpec::Sum(expr.clone());
                let agg_slot = self.aggregate(format!("sum({})", args[0]), self.mark(), paired);
                (SuperAggSpec::Sum { expr, agg_slot }, sum_kind(k))
            }
            other => {
                self.push(
                    Diagnostic::new(
                        Code::E005,
                        whole.span,
                        format!("unknown superaggregate `{other}$`"),
                    )
                    .with_help(
                        "superaggregates: count_distinct$, Kth_smallest_value$, min$, \
                         max$, sum$",
                    ),
                );
                return placeholder();
            }
        };
        let key = format!("{name}$({})", join_args(args));
        let slot = match self.superaggs.iter().position(|(k, _)| *k == key) {
            Some(i) => {
                self.rollback(mark);
                i
            }
            None => {
                self.superaggs.push((key, spec));
                self.superaggs.len() - 1
            }
        };
        (Expr::SuperAgg(slot), kind)
    }

    fn call(
        &mut self,
        whole: &AstExpr,
        name: &str,
        args: &'q [AstExpr],
        scope: Scope,
    ) -> (Expr, ValueKind) {
        let lower = name.to_ascii_lowercase();
        // Aggregates (avg included: it rewrites to sum/count).
        if matches!(lower.as_str(), "avg" | "count" | "sum" | "min" | "max" | "first" | "last") {
            if scope != Scope::Group {
                self.push(
                    Diagnostic::new(
                        Code::E003,
                        whole.span,
                        format!("aggregate `{name}` is not allowed in {}", scope.name()),
                    )
                    .with_help(
                        "aggregates summarize a finished group; they belong in SELECT, \
                         HAVING, or CLEANING BY",
                    ),
                );
            }
            let key = whole.to_string().to_ascii_lowercase();
            if lower == "count" {
                if !(args.is_empty() || is_star_arg(args)) {
                    self.push(Diagnostic::new(
                        Code::E006,
                        whole.span,
                        "count takes `*` or nothing",
                    ));
                }
                return (
                    Expr::Aggregate(self.aggregate(key, self.mark(), AggSpec::Count)),
                    ValueKind::UInt,
                );
            }
            if args.len() != 1 {
                self.push(Diagnostic::new(
                    Code::E006,
                    whole.span,
                    format!("aggregate `{name}` expects exactly one argument"),
                ));
                let kind = if lower == "avg" { ValueKind::Float } else { ValueKind::Any };
                return (placeholder().0, kind);
            }
            // Aggregate arguments are evaluated per tuple.
            let mark = self.mark();
            let (arg, k) = self.resolve(&args[0], Scope::Tuple);
            if matches!(lower.as_str(), "avg" | "sum") && k == ValueKind::Str {
                self.push(Diagnostic::new(
                    Code::E008,
                    args[0].span,
                    format!("{lower} needs a numeric argument, got str"),
                ));
            }
            let (spec, kind) = match lower.as_str() {
                "avg" => {
                    // avg(x) is sum(x) * 1.0 / count(*), float-promoted so
                    // integer division cannot truncate.
                    let key = format!("sum({})", args[0]).to_ascii_lowercase();
                    let sum = self.aggregate(key, mark, AggSpec::Sum(arg));
                    let count = self.aggregate("count(*)".into(), self.mark(), AggSpec::Count);
                    let expr = Expr::bin(BinOp::Mul, Expr::Aggregate(sum), Expr::lit(1.0f64))
                        .div(Expr::Aggregate(count));
                    return (expr, ValueKind::Float);
                }
                "sum" => (AggSpec::Sum(arg), sum_kind(k)),
                "min" => (AggSpec::Min(arg), k),
                "max" => (AggSpec::Max(arg), k),
                "first" => (AggSpec::First(arg), k),
                _ => (AggSpec::Last(arg), k),
            };
            return (Expr::Aggregate(self.aggregate(key, mark, spec)), kind);
        }
        // Scalar functions (allowed in every scope).
        if let Some(((sname, fun), sig)) =
            sso_core::scalar::lookup(name).zip(sso_core::scalar::signature(name))
        {
            self.check_arity(whole, name, &sig, args.len());
            let args = self.numeric_args(name, args, scope);
            return (Expr::Scalar { name: sname, fun, args }, sig.returns);
        }
        // Stateful functions from the configured libraries.
        let config = self.config;
        for lib in &config.libraries {
            if let Some(((fname, fun), sig)) = lib.function_entry(name).zip(lib.signature(name)) {
                if scope.stateless() {
                    self.push(Diagnostic::new(
                        Code::E003,
                        whole.span,
                        format!("stateful function `{name}` is not allowed in {}", scope.name()),
                    ));
                }
                self.check_arity(whole, name, &sig, args.len());
                // A sampling call's size, when a literal, must be positive:
                // the library refuses a 0 at its first tuple.
                let sampling = SAMPLING_CALLS.iter().any(|c| c.eq_ignore_ascii_case(name));
                let size = args.last().filter(|_| sampling);
                if let Some(a) = size.filter(|a| a.kind == ExprKind::Int(0)) {
                    self.push(
                        Diagnostic::new(
                            Code::E013,
                            a.span,
                            format!("`{name}`'s size argument must be positive, not 0"),
                        )
                        .with_help("the size is the sample's bound, e.g. `ssample(len, 100)`"),
                    );
                }
                let slot = match self.libs.iter().position(|l| Arc::ptr_eq(l, lib)) {
                    Some(slot) => slot,
                    None => {
                        self.libs.push(Arc::clone(lib));
                        self.libs.len() - 1
                    }
                };
                let args = self.numeric_args(name, args, scope);
                return (Expr::Sfun { lib: slot, name: fname, fun, args }, sig.returns);
            }
        }
        let mut known: Vec<&str> = vec!["UMAX", "UMIN", "H", "prefix"];
        for lib in &config.libraries {
            known.extend(lib.function_names());
        }
        known.sort_unstable();
        self.push(
            Diagnostic::new(Code::E004, whole.span, format!("unknown function `{name}`"))
                .with_help(format!("known functions: {}", known.join(", "))),
        );
        placeholder()
    }

    fn check_arity(&mut self, whole: &AstExpr, name: &str, sig: &Signature, n: usize) {
        if !sig.accepts_arity(n) {
            self.push(Diagnostic::new(
                Code::E006,
                whole.span,
                format!("`{name}` expects {}, got {n}", sig.arity_text()),
            ));
        }
    }

    /// Resolve a function's arguments, which must not be strings.
    fn numeric_args(&mut self, name: &str, args: &'q [AstExpr], scope: Scope) -> Vec<Expr> {
        let mut out = Vec::with_capacity(args.len());
        for a in args {
            let (x, k) = self.resolve(a, scope);
            if k == ValueKind::Str {
                self.push(Diagnostic::new(
                    Code::E008,
                    a.span,
                    format!("`{name}` needs numeric arguments, got str"),
                ));
            }
            out.push(x);
        }
        out
    }

    fn mark(&self) -> Mark {
        Mark {
            aggregates: self.aggregates.len(),
            superaggs: self.superaggs.len(),
            libs: self.libs.len(),
        }
    }

    /// Drop every slot added since `mark`.
    fn rollback(&mut self, mark: Mark) {
        self.aggregates.truncate(mark.aggregates);
        self.superaggs.truncate(mark.superaggs);
        self.libs.truncate(mark.libs);
    }

    /// The aggregate slot of `key`, pushing `spec` when the key is new.
    /// A repeated aggregate keeps its first slot and drops what
    /// resolving its arguments again added since `mark`.
    fn aggregate(&mut self, key: String, mark: Mark, spec: AggSpec) -> usize {
        match self.aggregates.iter().position(|(k, _)| *k == key) {
            Some(i) => {
                self.rollback(mark);
                i
            }
            None => {
                self.aggregates.push((key, spec));
                self.aggregates.len() - 1
            }
        }
    }

    /// The kind the pass recorded for `e` (`Any` for a node it never
    /// resolved).
    fn kind_of(&self, e: &AstExpr) -> ValueKind {
        self.kinds.iter().find(|(n, _)| std::ptr::eq(*n, e)).map_or(ValueKind::Any, |(_, k)| *k)
    }

    /// Can this predicate's truth value be decided statically? Handles
    /// constant folding plus the unsigned-vs-negative-constant cases
    /// (`len < 0` over a `u64` column can never hold).
    fn pred_truth(&self, e: &AstExpr) -> Option<bool> {
        if let Some(c) = fold(e) {
            return Some(c.truthy());
        }
        match &e.kind {
            ExprKind::Not(inner) => self.pred_truth(inner).map(|b| !b),
            ExprKind::Binary { op: BinAstOp::And, lhs, rhs } => {
                match (self.pred_truth(lhs), self.pred_truth(rhs)) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }
            }
            ExprKind::Binary { op: BinAstOp::Or, lhs, rhs } => {
                match (self.pred_truth(lhs), self.pred_truth(rhs)) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                }
            }
            ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
                // u64 expression compared against a negative constant.
                if let Some(Const::I(k)) = fold(rhs) {
                    if k < 0 && self.kind_of(lhs) == ValueKind::UInt {
                        return Some(matches!(op, BinAstOp::Gt | BinAstOp::Ge | BinAstOp::Ne));
                    }
                }
                if let Some(Const::I(k)) = fold(lhs) {
                    if k < 0 && self.kind_of(rhs) == ValueKind::UInt {
                        return Some(matches!(op, BinAstOp::Lt | BinAstOp::Le | BinAstOp::Ne));
                    }
                }
                None
            }
            _ => None,
        }
    }
}

/// The kind of `sum` over an argument of kind `k`.
fn sum_kind(k: ValueKind) -> ValueKind {
    if k.is_numeric() && k != ValueKind::Any {
        k
    } else {
        ValueKind::Num
    }
}

/// Is the argument list the single `*` of `count(*)`?
fn is_star_arg(args: &[AstExpr]) -> bool {
    matches!(args, [a] if matches!(a.kind, ExprKind::Star))
}

fn join_args(args: &[AstExpr]) -> String {
    args.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", ")
}

/// Is this expression a `count(*)` / `count()` aggregate call?
fn is_count_call(e: &AstExpr) -> bool {
    matches!(&e.kind, ExprKind::Call { name, superagg: false, .. }
             if name.eq_ignore_ascii_case("count"))
}

/// Every non-superaggregate function called anywhere in an expression.
fn called_functions(e: &AstExpr) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    e.walk(&mut |node| {
        if let ExprKind::Call { name, superagg: false, .. } = &node.kind {
            out.push((name.clone(), node.span));
        }
    });
    out
}

/// A folded constant.
#[derive(Debug, Clone, PartialEq)]
enum Const {
    I(i128),
    F(f64),
    B(bool),
    S(String),
}

impl Const {
    fn truthy(&self) -> bool {
        match self {
            Const::I(v) => *v != 0,
            Const::F(v) => *v != 0.0,
            Const::B(b) => *b,
            Const::S(s) => !s.is_empty(),
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Const::I(v) => Some(*v as f64),
            Const::F(v) => Some(*v),
            _ => None,
        }
    }
}

/// Constant-fold an expression, mirroring runtime semantics closely
/// enough for lints (returns `None` whenever unsure, e.g. division by
/// zero or any non-literal leaf).
fn fold(e: &AstExpr) -> Option<Const> {
    match &e.kind {
        ExprKind::Int(v) => Some(Const::I(*v as i128)),
        ExprKind::Float(v) => Some(Const::F(*v)),
        ExprKind::Bool(b) => Some(Const::B(*b)),
        ExprKind::Str(s) => Some(Const::S(s.clone())),
        ExprKind::Neg(inner) => match fold(inner)? {
            Const::I(v) => Some(Const::I(-v)),
            Const::F(v) => Some(Const::F(-v)),
            _ => None,
        },
        ExprKind::Not(inner) => Some(Const::B(!fold(inner)?.truthy())),
        ExprKind::Binary { op, lhs, rhs } => fold_bin(*op, fold(lhs)?, fold(rhs)?),
        _ => None,
    }
}

fn fold_bin(op: BinAstOp, l: Const, r: Const) -> Option<Const> {
    use BinAstOp::*;
    if matches!(op, And) {
        return Some(Const::B(l.truthy() && r.truthy()));
    }
    if matches!(op, Or) {
        return Some(Const::B(l.truthy() || r.truthy()));
    }
    if op.is_comparison() {
        let ord = match (&l, &r) {
            (Const::S(a), Const::S(b)) => a.cmp(b),
            _ => l.as_f64()?.partial_cmp(&r.as_f64()?)?,
        };
        let b = match op {
            Eq => ord.is_eq(),
            Ne => !ord.is_eq(),
            Lt => ord.is_lt(),
            Le => ord.is_le(),
            Gt => ord.is_gt(),
            Ge => ord.is_ge(),
            _ => unreachable!("comparison ops only"),
        };
        return Some(Const::B(b));
    }
    // Arithmetic.
    match (l, r) {
        (Const::I(a), Const::I(b)) => {
            let v = match op {
                Add => a.checked_add(b)?,
                Sub => a.checked_sub(b)?,
                Mul => a.checked_mul(b)?,
                Div => a.checked_div(b)?,
                Rem => a.checked_rem(b)?,
                _ => return None,
            };
            Some(Const::I(v))
        }
        (l, r) => {
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return None;
                    }
                    a / b
                }
                Rem => {
                    if b == 0.0 {
                        return None;
                    }
                    a % b
                }
                _ => return None,
            };
            Some(Const::F(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use sso_types::Packet;

    fn diags_for(text: &str) -> Vec<Diagnostic> {
        let q = parse_query(text).unwrap();
        analyze(&q, &Packet::schema(), &PlannerConfig::standard())
    }

    fn codes(text: &str) -> Vec<Code> {
        diags_for(text).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn duplicate_code_span_pairs_collapse() {
        // Two passes reporting the same (code, span) must render once;
        // a same-code diagnostic at a different span survives.
        let twice = vec![
            Diagnostic::new(Code::W004, Span::new(3, 7), "from the scope pass"),
            Diagnostic::new(Code::W004, Span::new(3, 7), "from the lint pass"),
            Diagnostic::new(Code::W004, Span::new(9, 12), "different span"),
            Diagnostic::new(Code::E002, Span::new(3, 7), "different code"),
        ];
        let out = dedupe(twice);
        assert_eq!(out.len(), 3, "{out:?}");
        assert_eq!(out[0].message, "from the scope pass", "first emission wins");

        // And end-to-end: no analyze() batch may contain duplicates.
        for q in [
            "SELECT tb, nope, nope FROM PKT WHERE nope > 1 GROUP BY time/60 as tb",
            "SELECT tb, len AS x, len AS x FROM PKT GROUP BY time/60 as tb",
        ] {
            let parsed = parse_query(q).unwrap();
            let d = analyze(&parsed, &Packet::schema(), &PlannerConfig::standard());
            for (i, a) in d.iter().enumerate() {
                for b in &d[i + 1..] {
                    assert!(!(a.code == b.code && a.span == b.span), "duplicate in {d:?}");
                }
            }
        }
    }

    #[test]
    fn e009_empty_group_by() {
        // The grammar requires at least one GROUP BY item, so this only
        // arises for programmatically built ASTs.
        let mut q = parse_query("SELECT tb FROM PKT GROUP BY time/60 as tb").unwrap();
        q.group_by.clear();
        let d = analyze(&q, &Packet::schema(), &PlannerConfig::standard());
        assert!(d.iter().any(|d| d.code == Code::E009), "{d:?}");
        assert_eq!(codes("SELECT tb FROM PKT GROUP BY time/60 as tb"), []);
    }

    /// The full subset-sum / min-hash / heavy-hitter / reservoir
    /// queries from the paper are clean.
    #[test]
    fn paper_queries_are_clean() {
        for q in [
            "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKT \
             WHERE ssample(len, 100) = TRUE \
             GROUP BY time/20 as tb, srcIP, destIP, uts \
             HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE \
             CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY ssclean_with(sum(len)) = TRUE",
            "SELECT tb, srcIP, HX FROM PKT \
             WHERE HX <= Kth_smallest_value$(HX, 100) \
             GROUP_BY time/60 as tb, srcIP, H(destIP) as HX \
             SUPERGROUP BY tb, srcIP \
             HAVING HX <= Kth_smallest_value$(HX, 100) \
             CLEANING WHEN count_distinct$(*) > 100 \
             CLEANING BY HX <= Kth_smallest_value$(HX, 100)",
            "SELECT tb, srcIP, sum(len), count(*) FROM PKT \
             GROUP BY time/60 as tb, srcIP \
             CLEANING WHEN local_count(100) = TRUE \
             CLEANING BY count(*) + first(current_bucket()) > current_bucket()",
            "SELECT tb, srcIP, destIP FROM PKT \
             WHERE rsample(100) = TRUE \
             GROUP_BY time/60 as tb, srcIP, destIP \
             HAVING rsfinal_clean(count_distinct$(*)) = TRUE \
             CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY rsclean_with() = TRUE",
        ] {
            assert_eq!(diags_for(q), vec![], "query should be clean: {q}");
        }
    }

    #[test]
    fn e001_duplicate_group_by_name() {
        assert_eq!(codes("SELECT tb FROM PKT GROUP BY time/60 as tb, len as tb"), [Code::E001]);
        assert_eq!(codes("SELECT tb FROM PKT GROUP BY time/60 as tb, len as l"), []);
    }

    #[test]
    fn e002_unknown_name() {
        let d = diags_for("SELECT tb FROM PKT WHERE nope > 1 GROUP BY time/60 as tb");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::E002);
        assert!(d[0].message.contains("nope"));
        // The span points at `nope` in the source.
        let src = "SELECT tb FROM PKT WHERE nope > 1 GROUP BY time/60 as tb";
        assert_eq!(&src[d[0].span.start..d[0].span.end], "nope");
        assert_eq!(codes("SELECT tb FROM PKT WHERE len > 1 GROUP BY time/60 as tb"), []);
    }

    #[test]
    fn e003_scope_violations() {
        // Aggregate in WHERE (tuple phase).
        let d = diags_for("SELECT tb FROM PKT WHERE sum(len) > 1 GROUP BY time/60 as tb");
        assert!(d.iter().any(|d| d.code == Code::E003 && d.message.contains("not allowed")));
        // Raw column in SELECT (group phase).
        let d = diags_for("SELECT len FROM PKT GROUP BY time/60 as tb");
        assert!(d.iter().any(|d| d.code == Code::E003 && d.message.contains("group-by variable")));
        // Superaggregate key must be a group-by variable.
        let d = diags_for(
            "SELECT tb FROM PKT WHERE len <= Kth_smallest_value$(len, 10) GROUP BY time/60 as tb",
        );
        assert!(d.iter().any(|d| d.code == Code::E003 && d.message.contains("group-by variable")));
        // SFUN in GROUP BY.
        let d = diags_for("SELECT tb FROM PKT GROUP BY ssthreshold() as tb");
        assert!(d.iter().any(|d| d.code == Code::E003));
        assert_eq!(codes("SELECT tb, sum(len) FROM PKT GROUP BY time/60 as tb"), []);
    }

    #[test]
    fn e004_unknown_function() {
        let d = diags_for("SELECT tb, zap(len) FROM PKT GROUP BY time/60 as tb");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::E004);
        assert!(d[0].help.as_deref().unwrap_or("").contains("ssample"));
        assert_eq!(codes("SELECT tb, UMAX(sum(len), 9) FROM PKT GROUP BY time/60 as tb"), []);
    }

    #[test]
    fn e005_unknown_superaggregate() {
        assert_eq!(codes("SELECT tb, weird$(*) FROM PKT GROUP BY time/60 as tb"), [Code::E005]);
        assert_eq!(codes("SELECT tb, count_distinct$(*) FROM PKT GROUP BY time/60 as tb"), []);
    }

    #[test]
    fn e006_arity_mismatches() {
        assert_eq!(codes("SELECT tb, avg(len, 2) FROM PKT GROUP BY time/60 as tb"), [Code::E006]);
        assert_eq!(codes("SELECT tb, H(tb, 2) FROM PKT GROUP BY time/60 as tb"), [Code::E006]);
        assert_eq!(
            codes("SELECT tb FROM PKT WHERE ssample(len, 100, 9) = TRUE GROUP BY time/60 as tb"),
            [Code::E006]
        );
        assert_eq!(codes("SELECT tb, count(len) FROM PKT GROUP BY time/60 as tb"), [Code::E006]);
        assert_eq!(codes("SELECT tb, avg(len) FROM PKT GROUP BY time/60 as tb"), []);
    }

    #[test]
    fn e007_bare_star() {
        let d = diags_for("SELECT * FROM PKT GROUP BY time/60 as tb");
        assert_eq!(d[0].code, Code::E007);
        assert!(d[0].message.contains("only valid"));
        assert_eq!(codes("SELECT count(*) FROM PKT GROUP BY time/60 as tb"), []);
    }

    #[test]
    fn e008_type_mismatches() {
        assert_eq!(
            codes("SELECT tb, sum(len) FROM PKT WHERE len + 'x' > 1 GROUP BY time/60 as tb"),
            [Code::E008]
        );
        let d = diags_for("SELECT tb FROM PKT WHERE len = 'x' GROUP BY time/60 as tb");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::E008);
        assert!(d[0].message.contains("compare"));
        assert_eq!(codes("SELECT tb FROM PKT WHERE len + 1 > 2 GROUP BY time/60 as tb"), []);
    }

    #[test]
    fn e010_window_safety() {
        // Cleaning but no ordered group-by expression: unsafe.
        let d = diags_for(
            "SELECT srcIP, count(*) FROM PKT GROUP BY srcIP \
             CLEANING WHEN local_count(100) = TRUE CLEANING BY count(*) > 2",
        );
        assert!(d.iter().any(|d| d.code == Code::E010), "{d:?}");
        // Same query windowed by time/60: safe.
        let d = diags_for(
            "SELECT tb, srcIP, count(*) FROM PKT GROUP BY time/60 as tb, srcIP \
             CLEANING WHEN local_count(100) = TRUE CLEANING BY count(*) > 2",
        );
        assert!(!d.iter().any(|d| d.code == Code::E010), "{d:?}");
        // No cleaning: windowless aggregation is fine.
        assert_eq!(codes("SELECT srcIP, count(*) FROM PKT GROUP BY srcIP"), []);
    }

    #[test]
    fn e011_supergroup_not_a_gb_var() {
        let d = diags_for("SELECT tb FROM PKT GROUP BY time/60 as tb SUPERGROUP bogus");
        assert_eq!(d[0].code, Code::E011);
        assert!(d[0].message.contains("bogus"));
        assert_eq!(
            codes("SELECT tb, srcIP FROM PKT GROUP BY time/60 as tb, srcIP SUPERGROUP srcIP"),
            []
        );
    }

    #[test]
    fn e012_cleaning_clauses_pair() {
        let d = diags_for(
            "SELECT tb FROM PKT GROUP BY time/60 as tb \
             CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE",
        );
        assert!(d.iter().any(|d| d.code == Code::E012), "{d:?}");
        let d = diags_for(
            "SELECT tb FROM PKT GROUP BY time/60 as tb CLEANING BY rsclean_with() = TRUE",
        );
        assert!(d.iter().any(|d| d.code == Code::E012), "{d:?}");
    }

    #[test]
    fn e013_a_literal_zero_sampling_size() {
        let zero = [
            "SELECT tb, sum(len) FROM PKT WHERE ssample(len, 0) = TRUE GROUP BY time/1 as tb",
            "SELECT tb, srcIP FROM TCP WHERE rsample(0) = TRUE GROUP BY time/1 as tb, srcIP",
            "SELECT tb, srcIP FROM PKT WHERE dsample(srcIP, 0) = TRUE GROUP BY time/1 as tb, srcIP",
            "SELECT tb, srcIP, count(*) FROM TCP GROUP BY time/1 as tb, srcIP \
             CLEANING WHEN local_count(0) = TRUE \
             CLEANING BY count(*) + first(current_bucket()) > current_bucket()",
        ];
        for text in zero {
            let d = diags_for(text);
            assert_eq!(codes(text), [Code::E013], "{text}: {d:?}");
            assert_eq!(&text[d[0].span.start..d[0].span.end], "0", "{text}");
            assert_eq!(codes(&text.replace("0)", "5)")), [], "{text} with a size of 5");
        }
    }

    #[test]
    fn e013_kth_needs_positive_literal_k() {
        let d = diags_for(
            "SELECT tb FROM PKT WHERE tb <= Kth_smallest_value$(tb, 0) GROUP BY time/60 as tb",
        );
        assert_eq!(d[0].code, Code::E013);
        assert!(d[0].message.contains("positive integer"));
        assert_eq!(
            codes(
                "SELECT tb FROM PKT WHERE tb <= Kth_smallest_value$(tb, 5) GROUP BY time/60 as tb"
            ),
            []
        );
    }

    #[test]
    fn w001_constant_cleaning_when() {
        let d = diags_for(
            "SELECT tb FROM PKT GROUP BY time/60 as tb \
             CLEANING WHEN 1 > 2 CLEANING BY rsclean_with() = TRUE",
        );
        assert!(
            d.iter().any(|d| d.code == Code::W001 && d.message.contains("always false")),
            "{d:?}"
        );
        // A u64 column compared against a negative constant can never
        // hold.
        let d = diags_for(
            "SELECT tb FROM PKT GROUP BY time/60 as tb \
             CLEANING WHEN len < 0 - 5 CLEANING BY rsclean_with() = TRUE",
        );
        assert!(d.iter().any(|d| d.code == Code::W001), "{d:?}");
        let d = diags_for(
            "SELECT tb FROM PKT GROUP BY time/60 as tb \
             CLEANING WHEN TRUE CLEANING BY rsclean_with() = TRUE",
        );
        assert!(
            d.iter().any(|d| d.code == Code::W001 && d.message.contains("always true")),
            "{d:?}"
        );
        // Data-dependent predicate: no lint.
        let d = diags_for(
            "SELECT tb FROM PKT GROUP BY time/60 as tb \
             CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY rsclean_with() = TRUE",
        );
        assert!(!d.iter().any(|d| d.code == Code::W001), "{d:?}");
    }

    #[test]
    fn w002_threshold_never_updates() {
        // ssdo_clean fires, but CLEANING BY keeps tuples with a plain
        // comparison — ssclean_with is never called, so the subset-sum
        // threshold never rises.
        let d = diags_for(
            "SELECT tb, sum(len) FROM PKT WHERE ssample(len, 100) = TRUE \
             GROUP BY time/60 as tb \
             CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY sum(len) > 1000",
        );
        assert!(d.iter().any(|d| d.code == Code::W002), "{d:?}");
        // The correct pairing is clean.
        let d = diags_for(
            "SELECT tb, sum(len) FROM PKT WHERE ssample(len, 100) = TRUE \
             GROUP BY time/60 as tb \
             CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY ssclean_with(sum(len)) = TRUE",
        );
        assert!(!d.iter().any(|d| d.code == Code::W002), "{d:?}");
    }

    #[test]
    fn w003_vacuous_heavy_hitter_bounds() {
        let d = diags_for(
            "SELECT tb, srcIP, count(*) FROM PKT GROUP BY time/60 as tb, srcIP \
             CLEANING WHEN local_count(1) = TRUE \
             CLEANING BY count(*) + first(current_bucket()) > current_bucket()",
        );
        assert!(d.iter().any(|d| d.code == Code::W003), "{d:?}");
        let d = diags_for(
            "SELECT tb, srcIP, count(*) FROM PKT GROUP BY time/60 as tb, srcIP \
             HAVING count(*) >= 1",
        );
        assert!(d.iter().any(|d| d.code == Code::W003), "{d:?}");
        // Meaningful bounds are clean.
        let d = diags_for(
            "SELECT tb, srcIP, count(*) FROM PKT GROUP BY time/60 as tb, srcIP \
             HAVING count(*) >= 50",
        );
        assert!(!d.iter().any(|d| d.code == Code::W003), "{d:?}");
    }

    #[test]
    fn w004_truthy_predicate() {
        let d = diags_for("SELECT tb FROM PKT WHERE len GROUP BY time/60 as tb");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::W004);
        assert_eq!(codes("SELECT tb FROM PKT WHERE len > 0 GROUP BY time/60 as tb"), []);
    }

    #[test]
    fn w005_duplicate_output_columns() {
        let d = diags_for("SELECT tb, sum(len), sum(len) FROM PKT GROUP BY time/60 as tb");
        assert_eq!(d.iter().filter(|d| d.code == Code::W005).count(), 1);
        assert_eq!(
            codes("SELECT tb, sum(len), sum(len) as total FROM PKT GROUP BY time/60 as tb"),
            []
        );
    }

    /// The headline behavior: one pass reports *all* mistakes, not
    /// just the first.
    #[test]
    fn multiple_mistakes_reported_in_one_pass() {
        let src = "SELECT len, zap(len), weird$(*) FROM PKT \
                   WHERE sum(len) > 1 AND nope = 3 \
                   GROUP BY time/60 as tb, len as tb";
        let d = diags_for(src);
        let found: Vec<Code> = d.iter().map(|d| d.code).collect();
        for want in [Code::E001, Code::E002, Code::E003, Code::E004, Code::E005] {
            assert!(found.contains(&want), "missing {want:?} in {found:?}");
        }
        // Every diagnostic carries a real span into the source.
        for diag in &d {
            assert!(diag.span.end <= src.len());
            assert!(diag.span.start < diag.span.end, "{diag:?}");
        }
    }

    #[test]
    fn folding_knows_arithmetic_and_division_by_zero() {
        let q = parse_query(
            "SELECT tb FROM PKT GROUP BY time/60 as tb CLEANING WHEN 3 * 2 - 6 \
             CLEANING BY rsclean_with() = TRUE",
        )
        .unwrap();
        let d = analyze(&q, &Packet::schema(), &PlannerConfig::standard());
        assert!(d.iter().any(|d| d.code == Code::W001 && d.message.contains("always false")));
        // Division by zero folds to "unknown", not a crash or a lint.
        let q = parse_query(
            "SELECT tb FROM PKT GROUP BY time/60 as tb CLEANING WHEN len % 0 = 1 \
             CLEANING BY rsclean_with() = TRUE",
        )
        .unwrap();
        let d = analyze(&q, &Packet::schema(), &PlannerConfig::standard());
        assert!(!d.iter().any(|d| d.code == Code::W001));
    }
}
