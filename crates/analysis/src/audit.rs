//! The audit pass: abstract interpretation over a file of cascaded
//! queries, producing a [`BoundsReport`] plus W2xx diagnostics.
//!
//! The pass walks the file exactly as the runtime would wire it
//! (consecutive statements cascade, base-stream names start a fresh
//! pipeline), carries an [`AbstractState`] along each edge, and
//! evaluates the per-sampler closed forms of [`crate::bounds`] at every
//! node. It never instantiates an operator or generates traffic —
//! `clippy.toml` bans the execution paths — so auditing a whole corpus
//! costs milliseconds.

use sso_core::snapshot::{tuple_wire_bytes, WINDOW_OUTPUT_FIXED_BYTES};
use sso_core::{shard_plan, Expr, OperatorSpec};
use sso_netgen::profile::feed_profile;
use sso_query::ast::Query;
use sso_query::diag::{self, Code, Diagnostic};
use sso_query::{analyze, parse_query, plan, PlannerConfig, Span};
use sso_types::Schema;

use crate::bounds::{detect_sampler, expr_cardinality, provably_non_negative, window_seconds};
use crate::domain::{AbstractState, Card, SkewClass};
use crate::report::{BoundsReport, StatementBounds};

/// What to audit against.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// Feed envelope name (see [`sso_netgen::profile::FEED_PROFILES`]).
    /// An unknown name audits with no envelope: every input dimension
    /// starts unbounded.
    pub feed: String,
    /// Shard count the skew and mergeability checks assume.
    pub shards: usize,
    /// Optional total-state budget in bytes; the report records it and
    /// [`AuditOutcome::budget_exceeded`] reflects the verdict.
    pub budget: Option<u64>,
    /// Optional durable-run `--state-budget` in bytes; the report's
    /// `durable` section records it and W206 fires when it is below the
    /// spill pager's two-page-per-shard working-set floor.
    pub state_budget: Option<u64>,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions { feed: "research".to_string(), shards: 1, budget: None, state_budget: None }
    }
}

/// Everything the audit produced for one file.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// The bounds certificate.
    pub report: BoundsReport,
    /// All diagnostics (E-codes from the analyzer, W2xx from the
    /// audit), spans rebased onto the whole file.
    pub diagnostics: Vec<Diagnostic>,
}

impl AuditOutcome {
    /// Did any statement's certified state exceed the budget, or — with
    /// a budget set — fail to certify a finite total at all?
    pub fn budget_exceeded(&self) -> bool {
        match self.report.budget {
            Some(b) => self.report.total_state_bytes().exceeds(b),
            None => false,
        }
    }

    /// Does the outcome contain error-severity diagnostics?
    pub fn has_errors(&self) -> bool {
        diag::has_errors(&self.diagnostics)
    }
}

/// Split a query file into `(byte offset, statement)` pairs on
/// unquoted semicolons, ignoring `--` line comments — the convention
/// shared by `sso check` and `sso audit`. A chunk whose non-comment
/// content is blank (a trailing comment block, stray whitespace) is
/// dropped.
pub fn split_statements(text: &str) -> Vec<(usize, &str)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_string = false;
    let mut in_comment = false;
    for (i, &c) in bytes.iter().enumerate() {
        if in_comment {
            in_comment = c != b'\n';
        } else if in_string {
            in_string = c != b'\'';
        } else {
            match c {
                b'\'' => in_string = true,
                b'-' if bytes.get(i + 1) == Some(&b'-') => in_comment = true,
                b';' => {
                    out.push((start, &text[start..i]));
                    start = i + 1;
                }
                _ => {}
            }
        }
    }
    out.push((start, &text[start..]));
    out.retain(|(_, s)| {
        s.lines().map(|l| l.split("--").next().unwrap_or("")).any(|l| !l.trim().is_empty())
    });
    out
}

/// A statement [`walk_cascade`] planned.
pub struct Planned<'a> {
    /// Position in the file, from 0.
    pub index: usize,
    /// The parsed statement.
    pub query: &'a Query,
    /// Its plan.
    pub spec: &'a OperatorSpec,
    /// The schema it was planned against.
    pub schema: &'a Schema,
    /// Whether FROM names a base stream; if not, the statement reads
    /// the previous statement's output rows.
    pub is_base: bool,
}

/// The statement walk `sso check` and [`audit_file`] share. Each
/// statement of `text` is parsed and analyzed against its input schema:
/// a base stream's, or, for any other FROM name, the previous
/// statement's output (a cascade, whose pair also gets the W101
/// push-down lint). A statement free of errors is planned and handed to
/// `step`, with what `step` returned for the previous statement when
/// this one reads it; the diagnostics `step` returns are the
/// statement's too. Returns every diagnostic, spans rebased onto the
/// whole file.
pub fn walk_cascade<L>(
    text: &str,
    mut step: impl FnMut(&Planned<'_>, Option<&L>) -> (L, Vec<Diagnostic>),
) -> Vec<Diagnostic> {
    let config = PlannerConfig::standard();
    let mut diagnostics = Vec::new();
    let mut prev: Option<(Query, OperatorSpec, L)> = None;
    for (index, (base, stmt)) in split_statements(text).into_iter().enumerate() {
        let mut next = None;
        let mut diags = match parse_query(stmt) {
            Ok(query) => {
                let base_schema = sso_query::base_stream_schema(&query.from.text);
                let is_base = base_schema.is_some();
                let low = prev.as_ref().filter(|_| !is_base);
                let schema = match (low, base_schema) {
                    (_, Some(s)) => s,
                    (Some((_, spec, _)), None) => spec.output_schema(&query.from.text),
                    (None, None) => sso_types::Packet::schema(),
                };
                let mut diags = analyze(&query, &schema, &config);
                if let Some((low_query, _, _)) = low {
                    diags.extend(sso_gigascope::check_pushdown(low_query, &query));
                }
                if !diag::has_errors(&diags) {
                    if let Ok(spec) = plan(&query, &schema, &config) {
                        let planned =
                            Planned { index, query: &query, spec: &spec, schema: &schema, is_base };
                        let (level, step_diags) = step(&planned, low.map(|(_, _, l)| l));
                        diags.extend(step_diags);
                        next = Some((query, spec, level));
                    }
                }
                diags
            }
            // Re-run through check() to get the E100/E101 diagnostic
            // form of lex/parse failures.
            Err(_) => sso_query::check(stmt, &sso_types::Packet::schema(), &config),
        };
        // Re-base spans from the statement onto the whole file.
        for d in &mut diags {
            if !d.span.is_dummy() {
                d.span = Span::new(d.span.start + base, d.span.end + base);
            }
        }
        diagnostics.extend(diags);
        prev = next;
    }
    diagnostics
}

/// What one audited statement hands to the next level of a cascade.
struct Level {
    /// Certified live-group ceiling (drives the high level's rate).
    groups_bound: Card,
    window_secs: Option<u64>,
    /// Per-output-column cardinality bounds.
    out_columns: Vec<(String, Card)>,
    /// `(column, seconds per distinct value)` for the passed-through
    /// window variable, so the high level can window on it.
    ordered_periods: Vec<(String, u64)>,
}

/// Audit a whole query file. Never executes anything.
pub fn audit_file(text: &str, opts: &AuditOptions) -> AuditOutcome {
    let mut statements = Vec::new();
    let mut diagnostics = walk_cascade(text, |p, low: Option<&Level>| {
        let input = input_state(p.query, p.is_base, low, opts);
        let name = format!("stmt{}", p.index);
        let (bounds, level, diags) = audit_statement(name, p.query, p.spec, p.schema, &input, opts);
        statements.push(bounds);
        (level, diags)
    });

    // W206: --state-budget below the spill pager's working-set floor.
    if let Some(budget) = opts.state_budget {
        let floor = 2 * sso_core::snapshot::PAGE_BYTES as u64;
        let per_shard = budget / opts.shards.max(1) as u64;
        if per_shard < floor {
            diagnostics.push(
                Diagnostic::new(
                    Code::W206,
                    Span::DUMMY,
                    format!(
                        "--state-budget {budget} leaves each of {} shards {per_shard} bytes, \
                         below the pager's two-page working set ({floor} bytes)",
                        opts.shards.max(1)
                    ),
                )
                .with_help(
                    "the spill pager pins the open page and the touched page; give each \
                     shard at least two pages or lower --shards",
                ),
            );
        }
    }

    let report = BoundsReport {
        feed: opts.feed.clone(),
        shards: opts.shards,
        budget: opts.budget,
        state_budget: opts.state_budget,
        statements,
    };
    AuditOutcome { report, diagnostics }
}

/// The abstract state on the statement's input edge: the declared feed
/// envelope for a base stream, the previous level's certified output
/// for a cascade high.
fn input_state(q: &Query, is_base: bool, low: Option<&Level>, opts: &AuditOptions) -> InputState {
    if let Some(p) = low {
        // A closed low level emits at most its group ceiling per
        // window; amortized over the window that is the high level's
        // peak input rate.
        let rows_per_sec = match (p.groups_bound, p.window_secs) {
            (Card::Finite(g), Some(w)) => Card::Finite(sso_gigascope::cascade_output_rate(g, w)),
            _ => Card::Unbounded,
        };
        return InputState {
            state: AbstractState { rows_per_sec, columns: p.out_columns.clone() },
            ordered_periods: p.ordered_periods.clone(),
        };
    }
    match feed_profile(&opts.feed) {
        Some(profile) if is_base && q.from.text != sso_obs::METRICS_STREAM => {
            let columns = profile
                .columns
                .iter()
                .filter_map(|c| c.cardinality.map(|n| (c.name.to_string(), Card::Finite(n))))
                .collect();
            InputState {
                state: AbstractState {
                    rows_per_sec: Card::Finite(profile.peak_rows_per_sec),
                    columns,
                },
                // Base packet streams carry `time` in whole seconds.
                ordered_periods: vec![("time".to_string(), 1)],
            }
        }
        _ => InputState {
            state: AbstractState { rows_per_sec: Card::Unbounded, columns: Vec::new() },
            ordered_periods: vec![("time".to_string(), 1)],
        },
    }
}

struct InputState {
    state: AbstractState,
    ordered_periods: Vec<(String, u64)>,
}

/// Audit one planned statement against its input state.
fn audit_statement(
    name: String,
    q: &Query,
    spec: &OperatorSpec,
    schema: &Schema,
    input: &InputState,
    opts: &AuditOptions,
) -> (StatementBounds, Level, Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let env = |col: &str| input.state.column_card(col);
    let period = |col: &str| input.ordered_periods.iter().find(|(n, _)| n == col).map(|&(_, p)| p);

    // Window length: the first window-defining group item with a
    // recognizable shape.
    let window_secs = spec
        .window_indices
        .iter()
        .filter_map(|&i| q.group_by.get(i))
        .find_map(|item| window_seconds(&item.expr, schema, &period));
    let rows_per_window = match window_secs {
        Some(w) => input.state.rows_per_sec.times(w),
        None => Card::Unbounded,
    };

    // Key-cardinality product over the non-window group items: within
    // one tumbling window the window variables are constant, and the
    // group table is flushed when the window closes.
    let is_window = |i: usize| spec.window_indices.contains(&i);
    let mut key_cardinality = Card::Finite(1);
    let mut unbounded_key_span = None;
    for (i, item) in q.group_by.iter().enumerate() {
        if is_window(i) {
            continue;
        }
        let card = expr_cardinality(&item.expr, &env);
        if !card.is_finite() && unbounded_key_span.is_none() {
            unbounded_key_span = Some(item.expr.span);
        }
        key_cardinality = key_cardinality * card;
    }

    // Supergroup cardinality (window variables excluded by the spec).
    let supergroup_cardinality = spec
        .supergroup_indices
        .iter()
        .filter_map(|&i| q.group_by.get(i))
        .fold(Card::Finite(1), |acc, item| acc * expr_cardinality(&item.expr, &env));
    let supergroup_bound = supergroup_cardinality.min(rows_per_window);

    // The sampler's per-supergroup cap, scaled by live supergroups.
    let sampler = detect_sampler(q);
    let per_supergroup_bound = sampler.kind.per_supergroup_bound(rows_per_window);
    let groups_bound =
        key_cardinality.min(rows_per_window).min(per_supergroup_bound * supergroup_bound);

    let group_entry_bytes = spec.group_entry_bytes() as u64;
    let supergroup_entry_bytes = spec.supergroup_entry_bytes() as u64;
    let state_bytes =
        groups_bound.times(group_entry_bytes) + supergroup_bound.times(supergroup_entry_bytes);
    // At most one output row per live group.
    let output_wire_bytes = groups_bound.times(tuple_wire_bytes(spec.select.len()))
        + Card::Finite(tuple_wire_bytes(spec.window_indices.len()) + WINDOW_OUTPUT_FIXED_BYTES);

    // W201: no finite state ceiling.
    if !groups_bound.is_finite() {
        let span = unbounded_key_span.unwrap_or(Span::DUMMY);
        let mut causes = Vec::new();
        if window_secs.is_none() {
            causes.push("the query has no tumbling window over an ordered column");
        }
        if !key_cardinality.is_finite() {
            causes.push("a group-by key has unbounded cardinality under the feed envelope");
        }
        if !per_supergroup_bound.is_finite() {
            causes.push("no sampling clause caps live groups per supergroup");
        }
        diags.push(
            Diagnostic::new(
                Code::W201,
                span,
                format!(
                    "cannot certify a finite state bound for this query ({})",
                    sampler.kind.label()
                ),
            )
            .with_help(causes.join("; ")),
        );
    }

    // Mergeability, skew (W202/W203).
    let (mergeable, skew) = match shard_plan(spec) {
        Ok(plan) => {
            let skew = if plan.partition_exprs.is_empty() {
                SkewClass::RoundRobin
            } else {
                let card = plan
                    .partition_exprs
                    .iter()
                    .fold(Card::Finite(1), |acc, e| acc * core_expr_card(e, q, spec, schema, &env));
                SkewClass::classify(card, opts.shards)
            };
            if opts.shards > 1 && skew.is_hazard() {
                let routed = match skew {
                    SkewClass::Constant => 1,
                    SkewClass::Narrow { cardinality } => cardinality,
                    _ => unreachable!("is_hazard() covers only Constant and Narrow"),
                };
                let message = format!(
                    "partition key reaches at most {routed} of {} shards ({skew} skew class)",
                    opts.shards
                );
                diags.push(Diagnostic::new(Code::W202, Span::DUMMY, message).with_help(
                    "at least one shard is statically guaranteed to idle; partition on a \
                     higher-cardinality key or lower --shards",
                ));
            }
            (true, skew)
        }
        Err(not_mergeable) => {
            if opts.shards > 1 {
                diags.push(
                    Diagnostic::new(
                        Code::W203,
                        Span::DUMMY,
                        format!(
                            "query is not shard-mergeable but the audit assumes --shards {}",
                            opts.shards
                        ),
                    )
                    .with_help(not_mergeable.reason),
                );
            }
            (false, SkewClass::RoundRobin)
        }
    };

    // W204: the operator's subset-sum threshold pass needs a provably
    // non-negative weight.
    if let Some(w) = &sampler.weight_expr {
        if !provably_non_negative(w, schema) {
            diags.push(
                Diagnostic::new(
                    Code::W204,
                    w.span,
                    "subset-sum weight is not provably non-negative",
                )
                .with_help(
                    "the subset-sum threshold pass meters tuples lighter than z by their summed \
                     weight; a weight that can be negative (or wrap) breaks the meter's estimate",
                ),
            );
        }
    }

    let bounds = StatementBounds {
        name,
        stream: q.from.text.clone(),
        sampler: sampler.kind.clone(),
        window_secs,
        rows_per_sec: input.state.rows_per_sec,
        rows_per_window,
        key_cardinality,
        supergroup_cardinality,
        per_supergroup_bound,
        groups_bound,
        group_entry_bytes,
        supergroup_entry_bytes,
        state_bytes,
        output_wire_bytes,
        skew,
        mergeable,
    };

    // What the next cascade level sees: column cardinalities for
    // group-variable passthroughs, the window variable's period.
    let mut out_columns = Vec::new();
    let mut ordered_periods = Vec::new();
    for (col_name, expr) in &spec.select {
        if let Expr::GroupVar(i) = expr {
            if is_window(*i) {
                if let Some(w) = window_secs {
                    ordered_periods.push((col_name.clone(), w));
                }
                continue;
            }
            if let Some(item) = q.group_by.get(*i) {
                let card = expr_cardinality(&item.expr, &env);
                if card.is_finite() {
                    out_columns.push((col_name.clone(), card));
                }
            }
        }
    }
    let level = Level { groups_bound, window_secs, out_columns, ordered_periods };
    (bounds, level, diags)
}

/// Cardinality bound of a compiled (core) expression — used for the
/// router's partition key, which is tuple-phase.
fn core_expr_card(
    e: &Expr,
    q: &Query,
    spec: &OperatorSpec,
    schema: &Schema,
    env: &impl Fn(&str) -> Card,
) -> Card {
    match e {
        Expr::Literal(_) => Card::Finite(1),
        Expr::Column(i) => schema.fields().get(*i).map(|f| env(&f.name)).unwrap_or(Card::Unbounded),
        Expr::GroupVar(i) => {
            if spec.window_indices.contains(i) {
                // Constant within a window; the router only ever sees
                // one live window's tuples per key.
                Card::Finite(1)
            } else {
                q.group_by
                    .get(*i)
                    .map(|item| expr_cardinality(&item.expr, env))
                    .unwrap_or(Card::Unbounded)
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            core_expr_card(lhs, q, spec, schema, env) * core_expr_card(rhs, q, spec, schema, env)
        }
        Expr::Not(inner) => core_expr_card(inner, q, spec, schema, env),
        Expr::Sfun { args, .. } | Expr::Scalar { args, .. } => args
            .iter()
            .fold(Card::Finite(1), |acc, a| acc * core_expr_card(a, q, spec, schema, env)),
        _ => Card::Unbounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_ignores_comments_and_quoted_semicolons() {
        let text = "-- header; not a split\nSELECT a FROM PKT; -- trailing; comment\n\
                    SELECT 'x;y' FROM PKT;\n-- only a comment after the last statement\n";
        let stmts = split_statements(text);
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert!(stmts[0].1.contains("SELECT a"));
        assert!(stmts[1].1.contains("'x;y'"));
        assert_eq!(stmts[0].0, 0, "offsets cover the preceding comment");
    }

    #[test]
    fn splitter_drops_blank_chunks() {
        assert!(split_statements("  \n-- nothing here\n").is_empty());
        assert_eq!(split_statements("SELECT a FROM PKT").len(), 1);
    }
}
