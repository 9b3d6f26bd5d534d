//! The audit pass: abstract interpretation over a file of cascaded
//! queries, producing a [`BoundsReport`] plus W2xx diagnostics.
//!
//! The pass walks the file exactly as the runtime would wire it
//! (consecutive statements cascade, base-stream names start a fresh
//! pipeline), carries an [`AbstractState`] along each edge, and
//! evaluates each sampler's closed-form cap ([`Sampler::groups_cap`]) at
//! every node. Bounds read the planned [`OperatorSpec`]: its sampler
//! ([`Sampler`], the table of families `shard_plan` reads too) and its
//! group-by expressions. The text supplies only what a plan does not
//! keep: spans, the FROM name and the window length. It never
//! instantiates an operator or generates traffic —
//! `clippy.toml` bans the execution paths — so auditing a whole corpus
//! costs milliseconds.

use sso_core::snapshot::{tuple_wire_bytes, WINDOW_OUTPUT_FIXED_BYTES};
use sso_core::{shard_plan, Expr, OperatorSpec, Sampler};
use sso_netgen::profile::feed_profile;
use sso_query::ast::Query;
use sso_query::diag::{self, Code, Diagnostic};
use sso_query::{parse_query, resolve, PlannerConfig, Span};
use sso_types::Schema;

use crate::bounds::{
    expr_card, first_sampling_call, provably_non_negative, ssample_weight, window_seconds,
};
use crate::domain::{AbstractState, Card, SkewClass};
use crate::lint::{cascade_output_rate, check_pushdown};
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

/// A statement [`walk_cascade`] parsed and resolved.
pub struct Statement {
    /// Position in the file, from 0.
    pub index: usize,
    /// Byte offset of the statement in the file.
    pub base: usize,
    /// The parsed statement.
    pub query: Query,
    /// Its plan; `None` when the statement has errors.
    pub spec: Option<OperatorSpec>,
    /// The schema it was resolved against.
    pub schema: Schema,
    /// Whether FROM names a base stream; if not, the statement reads
    /// the previous statement's output rows.
    pub is_base: bool,
}

/// The one pass over a query file, which `sso check`
/// (`sso_rewrite::check_file`), [`audit_file`] and
/// `sso_rewrite::optimize_file` read through their `step`s. Each
/// statement is parsed and resolved once ([`sso_query::resolve`])
/// against its input schema: a base stream's, or, for any other FROM
/// name, the previous statement's output (a cascade, whose pair also
/// gets the W101 push-down lint). `step` sees every statement that
/// parses, with what it returned for the previous one when this one
/// reads it (a statement without a plan hands nothing on); its
/// diagnostics are the statement's too. Returns every diagnostic, spans
/// rebased onto the whole file, and the number of statements.
pub fn walk_cascade<L>(
    text: &str,
    mut step: impl FnMut(&Statement, Option<&L>) -> (Option<L>, Vec<Diagnostic>),
) -> (Vec<Diagnostic>, usize) {
    let config = PlannerConfig::standard();
    let statements = split_statements(text);
    let mut diagnostics = Vec::new();
    let mut prev: Option<(Statement, L)> = None;
    for (index, &(base, stmt)) in statements.iter().enumerate() {
        let mut next = None;
        let mut diags = match parse_query(stmt) {
            Ok(query) => {
                let base_schema = sso_query::base_stream_schema(&query.from.text);
                let is_base = base_schema.is_some();
                let low = prev.as_ref().filter(|_| !is_base);
                let schema = match (low.and_then(|(s, _)| s.spec.as_ref()), base_schema) {
                    (_, Some(s)) => s,
                    (Some(spec), None) => spec.output_schema(&query.from.text),
                    (None, None) => sso_types::Packet::schema(),
                };
                let (mut diags, spec) = resolve(&query, &schema, &config);
                if let Some((low, _)) = low {
                    diags.extend(check_pushdown(&low.query, &query));
                }
                let statement = Statement { index, base, query, spec: spec.ok(), schema, is_base };
                let (level, step_diags) = step(&statement, low.map(|(_, l)| l));
                diags.extend(step_diags);
                next = level.filter(|_| statement.spec.is_some()).map(|l| (statement, l));
                diags
            }
            Err(e) => sso_query::parse_diagnostics(stmt, e),
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
    (diagnostics, statements.len())
}

/// What one audited statement hands to the next level of a cascade:
/// the input edge that level reads.
pub struct Level(InputState);

/// Audit a whole query file. Never executes anything.
pub fn audit_file(text: &str, opts: &AuditOptions) -> AuditOutcome {
    let mut auditor = Auditor::new(opts);
    let (mut diagnostics, _) = walk_cascade(text, |s, low| auditor.step(s, low));

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

    auditor.finish(diagnostics)
}

/// The abstract state on the statement's input edge: the declared feed
/// envelope for a base stream, the previous level's certified output
/// for a cascade high.
fn input_state(q: &Query, is_base: bool, low: Option<&Level>, opts: &AuditOptions) -> InputState {
    if let Some(Level(input)) = low {
        return input.clone();
    }
    let state = match feed_profile(&opts.feed) {
        Some(profile) if is_base && q.from.text != sso_obs::METRICS_STREAM => AbstractState {
            rows_per_sec: Card::Finite(profile.peak_rows_per_sec),
            columns: profile
                .columns
                .iter()
                .filter_map(|c| c.cardinality.map(|n| (c.name.to_string(), Card::Finite(n))))
                .collect(),
        },
        _ => AbstractState { rows_per_sec: Card::Unbounded, columns: Vec::new() },
    };
    // Base packet streams carry `time` in whole seconds.
    InputState { state, ordered_periods: vec![("time".to_string(), 1)] }
}

#[derive(Clone)]
struct InputState {
    state: AbstractState,
    /// `(column, seconds per distinct value)` for each ordered column
    /// a window can be cut on.
    ordered_periods: Vec<(String, u64)>,
}

/// The audit's step over one statement, which [`audit_file`],
/// `sso_rewrite::optimize_file`'s re-audit and `sso run`'s sizing hints
/// share.
pub struct Auditor<'o> {
    opts: &'o AuditOptions,
    /// The bounds of every statement audited so far, in file order.
    pub statements: Vec<StatementBounds>,
}

impl<'o> Auditor<'o> {
    /// An auditor that has audited nothing yet.
    pub fn new(opts: &'o AuditOptions) -> Self {
        Auditor { opts, statements: Vec::new() }
    }

    /// Audit `s` against its input edge: the feed envelope, or `low`,
    /// the level a cascade statement reads. A [`walk_cascade`] step: a
    /// statement without a plan is not audited.
    pub fn step(&mut self, s: &Statement, low: Option<&Level>) -> (Option<Level>, Vec<Diagnostic>) {
        let Some(spec) = &s.spec else { return (None, Vec::new()) };
        let (q, schema, opts) = (&s.query, &s.schema, self.opts);
        let input = input_state(q, s.is_base, low, opts);
        let mut diags = Vec::new();
        let env = |col: &str| input.state.column_card(col);
        let card = |e: &Expr| expr_card(e, spec, schema, &env);
        let group_card = |i: usize| card(&spec.group_by[i].1);
        let period =
            |col: &str| input.ordered_periods.iter().find(|(n, _)| n == col).map(|&(_, p)| p);

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
        let keys = || (0..spec.group_by.len()).filter(|&i| !is_window(i));
        let key_cardinality = keys().fold(Card::Finite(1), |acc, i| acc * group_card(i));

        // Supergroup cardinality (window variables excluded by the spec).
        let supergroup_cardinality =
            spec.supergroup_indices.iter().fold(Card::Finite(1), |acc, &i| acc * group_card(i));
        let supergroup_bound = supergroup_cardinality.min(rows_per_window);

        // The sampler's per-supergroup cap, scaled by live supergroups.
        let sampler = Sampler::of(spec);
        let per_supergroup_bound =
            sampler.groups_cap(rows_per_window.finite()).map_or(Card::Unbounded, Card::Finite);
        let groups_bound =
            key_cardinality.min(rows_per_window).min(per_supergroup_bound * supergroup_bound);

        let group_entry_bytes = spec.group_entry_bytes() as u64;
        let supergroup_entry_bytes = spec.supergroup_entry_bytes() as u64;
        let state_bytes =
            groups_bound.times(group_entry_bytes) + supergroup_bound.times(supergroup_entry_bytes);
        // At most one output row per live group.
        let output_wire_bytes = groups_bound.times(tuple_wire_bytes(spec.select.len()))
            + Card::Finite(tuple_wire_bytes(spec.window_indices.len()) + WINDOW_OUTPUT_FIXED_BYTES);

        // W201: no finite state ceiling, or a sampler that cannot give the
        // cap it asks for (a size that is not a literal, two families).
        let sampler_cause = sampler.uncapped_cause();
        if !groups_bound.is_finite() || sampler_cause.is_some() {
            // At the first unbounded group-by key, as written; with
            // every key bounded, at the sampling call.
            let span = keys()
                .find(|&i| !group_card(i).is_finite())
                .and_then(|i| q.group_by.get(i))
                .map(|item| &item.expr)
                .or_else(|| first_sampling_call(q))
                .map_or(Span::DUMMY, |e| e.span);
            let uncapped = "no sampling clause caps live groups per supergroup";
            let uncapped = sampler_cause.as_deref().unwrap_or(uncapped);
            let causes = [
                (window_secs.is_none(), "the query has no tumbling window over an ordered column"),
                (
                    !key_cardinality.is_finite(),
                    "a group-by key has unbounded cardinality under the feed envelope",
                ),
                (!per_supergroup_bound.is_finite(), uncapped),
            ];
            let help: Vec<&str> = causes.iter().filter(|c| c.0).map(|c| c.1).collect();
            let what = match groups_bound {
                Card::Finite(_) => "the sampler's cap on live groups",
                Card::Unbounded => "a finite state bound",
            };
            let message = format!("cannot certify {what} for this query ({})", sampler.label());
            diags.push(Diagnostic::new(Code::W201, span, message).with_help(help.join("; ")));
        }

        // Mergeability, skew (W202/W203).
        let (mergeable, skew) = match shard_plan(spec) {
            Ok(plan) => {
                let skew = if plan.partition_exprs.is_empty() {
                    SkewClass::RoundRobin
                } else {
                    let card =
                        plan.partition_exprs.iter().fold(Card::Finite(1), |acc, e| acc * card(e));
                    SkewClass::classify(card, opts.shards)
                };
                if let Some(routed) = skew.hazard().filter(|_| opts.shards > 1) {
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
        if let Some(w) = ssample_weight(q) {
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
            name: format!("stmt{}", s.index),
            stream: q.from.text.clone(),
            sampler,
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

        // What the next cascade level sees: at most the group ceiling
        // per closed window, amortized over the window, as its peak
        // input rate; column cardinalities for group-variable
        // passthroughs; the window variable's period.
        let rows_per_sec = match (groups_bound, window_secs) {
            (Card::Finite(g), Some(w)) => Card::Finite(cascade_output_rate(g, w)),
            _ => Card::Unbounded,
        };
        let mut columns = Vec::new();
        let mut ordered_periods = Vec::new();
        for (col_name, expr) in &spec.select {
            if let Expr::GroupVar(i) = expr {
                if is_window(*i) {
                    if let Some(w) = window_secs {
                        ordered_periods.push((col_name.clone(), w));
                    }
                    continue;
                }
                let card = group_card(*i);
                if card.is_finite() {
                    columns.push((col_name.clone(), card));
                }
            }
        }
        self.statements.push(bounds);
        let state = AbstractState { rows_per_sec, columns };
        (Some(Level(InputState { state, ordered_periods })), diags)
    }

    /// The outcome: the bounds report of every statement audited, and
    /// `diagnostics`.
    pub fn finish(self, diagnostics: Vec<Diagnostic>) -> AuditOutcome {
        let opts = self.opts;
        let report = BoundsReport {
            feed: opts.feed.clone(),
            shards: opts.shards,
            budget: opts.budget,
            state_budget: opts.state_budget,
            statements: self.statements,
        };
        AuditOutcome { report, diagnostics }
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
