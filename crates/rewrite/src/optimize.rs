//! The optimizer pass: cluster a file's statements by base stream, find
//! provably shareable work, emit lints (W301–W304) and a sealed
//! [`RewriteCertificate`], and describe the shared-execution plan.

use sso_analysis::{walk_cascade, AuditOptions, Auditor, Card};
use sso_core::operator::OperatorSpec;
use sso_core::Expr;
use sso_query::ast::{Query, Span};
use sso_query::{
    base_stream_schema, compile_packet_predicate, dedup_diagnostics, diag, plan, AstExpr, BinAstOp,
    Code, Diagnostic, ExprKind, PlannerConfig,
};
use sso_types::wire::checksum;

use crate::cert::{RewriteCertificate, RewriteStep};
use crate::equiv::shared_prefilter;
use crate::norm::{normalize_statement, NormalizedStatement};

/// Options for [`optimize_file`].
pub struct OptimizeOptions {
    /// Apply rewrites (default). With `apply = false` (`--explain`),
    /// the pass only *reports* what it would do: sharing opportunities
    /// surface as W301 lints and the certificate stays empty.
    pub apply: bool,
    /// Options for the post-rewrite re-audit (`sso-analysis`).
    pub audit: AuditOptions,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions { apply: true, audit: AuditOptions::default() }
    }
}

/// One group of statements whose canonical normalized plans are
/// identical.
#[derive(Debug, Clone)]
pub struct ShareGroup {
    /// 0-based statement indices, in file order.
    pub statements: Vec<usize>,
    /// The group's canonical node hash.
    pub hash: u64,
    /// The canonical rendering all members share.
    pub canonical: String,
    /// Whether the group's plan is shard-mergeable (the side condition
    /// for actually deduplicating a multi-member group).
    pub mergeable: bool,
    /// The mergeability cause chain when `mergeable` is false.
    pub blocked: Option<String>,
}

/// All statements over one base stream.
#[derive(Debug, Clone)]
pub struct ShareCluster {
    /// The base stream name.
    pub stream: String,
    /// 0-based statement indices, in file order.
    pub members: Vec<usize>,
    /// The provable shared prefilter (canonical clauses), empty when
    /// none exists.
    pub prefilter: Vec<AstExpr>,
    /// Share groups, in first-appearance order.
    pub groups: Vec<ShareGroup>,
}

/// One deduplicated operator in the shared-execution plan description.
#[derive(Debug, Clone)]
pub struct SharedGroupDesc {
    /// 0-based index of the statement whose query builds the operator.
    pub representative: usize,
    /// Consumer query names (`q<n>`, 1-based statement numbers).
    pub consumers: Vec<String>,
    /// The representative's parsed statement.
    query: Query,
}

/// The shared-execution plan for one cluster, as pure data. Turn it
/// into executable components with [`OptimizeOutcome::build_shared`] —
/// which verifies the certificate first.
#[derive(Debug, Clone)]
pub struct SharedPlanDesc {
    /// The base stream the plan taps.
    pub stream: String,
    /// The hoisted shared prefilter (a canonical conjunction), if any.
    pub prefilter: Option<AstExpr>,
    /// Operator groups with their consumers.
    pub groups: Vec<SharedGroupDesc>,
}

/// Summary of the `sso-analysis` re-audit of the rewritten plan:
/// bounds certificates survive rewriting because consumer plans are
/// unchanged and the shared prefilter is stateless.
#[derive(Debug, Clone)]
pub struct ReauditSummary {
    /// No error diagnostics and within budget.
    pub ok: bool,
    /// Certified total state bound across statements.
    pub total_state_bytes: Card,
    /// Statements the audit covered.
    pub statements: usize,
}

/// Everything [`optimize_file`] produced.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// Statements in the file.
    pub statements: usize,
    /// 0-based indices of statements excluded from the sharing
    /// analysis (cascades over derived streams, or statements with
    /// analyzer errors).
    pub skipped: Vec<usize>,
    /// Per-stream clusters.
    pub clusters: Vec<ShareCluster>,
    /// The sealed rewrite trace (empty in `--explain` mode or when
    /// nothing was shareable).
    pub certificate: RewriteCertificate,
    /// Shared-execution plans, one per cluster where a rewrite applied.
    pub shared: Vec<SharedPlanDesc>,
    /// The post-rewrite re-audit.
    pub reaudit: ReauditSummary,
    /// The statement walk's diagnostics (those of `sso check` but
    /// W103) plus W301–W304, spans rebased onto the file, deduplicated
    /// by `(code, span)`.
    pub diagnostics: Vec<Diagnostic>,
}

/// One cluster's executable shared plan: the compiled prefilter plus
/// one [`OperatorSpec`] per group. The gigascope adapter
/// (`sso_gigascope::shared`) instantiates operators from these specs.
pub struct ExecutableSharedPlan {
    /// The base stream the plan taps.
    pub stream: String,
    /// Compiled shared prefilter over the stream schema.
    pub prefilter: Option<Expr>,
    /// `(operator spec, consumer names)` per group.
    pub groups: Vec<(OperatorSpec, Vec<String>)>,
}

impl OptimizeOutcome {
    /// Build executable shared-plan components. **Verifies the
    /// certificate first** — a tampered trace yields an error, never a
    /// runnable plan — and refuses when no rewrite was applied. Each
    /// call resolves every group's kept query against a fresh
    /// [`PlannerConfig`], so the plans it returns own their libraries.
    pub fn build_shared(&self) -> Result<Vec<ExecutableSharedPlan>, String> {
        self.certificate.verify()?;
        if self.certificate.is_empty() && !self.shared.is_empty() {
            return Err("shared plans present without a certificate step".to_string());
        }
        let config = PlannerConfig::standard();
        self.shared
            .iter()
            .map(|d| {
                let schema = base_stream_schema(&d.stream)
                    .ok_or_else(|| format!("unknown base stream `{}`", d.stream))?;
                let prefilter = d
                    .prefilter
                    .as_ref()
                    .map(|ast| compile_packet_predicate(ast, &schema).map_err(|e| e.to_string()))
                    .transpose()?;
                let groups = d
                    .groups
                    .iter()
                    .map(|g| {
                        let spec = plan(&g.query, &schema, &config).map_err(|e| e.to_string())?;
                        Ok((spec, g.consumers.clone()))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(ExecutableSharedPlan { stream: d.stream.clone(), prefilter, groups })
            })
            .collect()
    }
}

/// The span a statement-level finding anchors to: the WHERE clause when
/// present, the FROM name otherwise — rebased onto the file.
fn anchor(n: &NormalizedStatement) -> Span {
    let s = n.query.where_clause.as_ref().map(|w| w.span).unwrap_or(n.query.from.span);
    Span::new(s.start + n.base, s.end + n.base)
}

fn conjunction(clauses: &[AstExpr]) -> Option<AstExpr> {
    let mut it = clauses.iter().cloned();
    let first = it.next()?;
    Some(it.fold(first, |acc, c| AstExpr {
        span: Span::DUMMY,
        kind: ExprKind::Binary { op: BinAstOp::And, lhs: Box::new(acc), rhs: Box::new(c) },
    }))
}

fn render_clauses(clauses: &[AstExpr]) -> String {
    clauses.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" AND ")
}

/// Statement numbers (1-based) as a human list: "statements 1 and 4".
fn stmt_list(indices: &[usize]) -> String {
    let nums: Vec<String> = indices.iter().map(|i| (i + 1).to_string()).collect();
    match nums.len() {
        1 => format!("statement {}", nums[0]),
        2 => format!("statements {} and {}", nums[0], nums[1]),
        _ => {
            let (last, rest) = nums.split_last().expect("non-empty");
            format!("statements {} and {last}", rest.join(", "))
        }
    }
}

/// Run the optimizer over a multi-statement file: one
/// [`walk_cascade`], whose step normalizes each base statement that
/// plans and re-audits every statement.
pub fn optimize_file(text: &str, opts: &OptimizeOptions) -> OptimizeOutcome {
    let mut auditor = Auditor::new(&opts.audit);
    let (mut normalized, mut specs) = (Vec::new(), Vec::new());
    let (mut diagnostics, statements) = walk_cascade(text, |s, low| {
        if let (true, Some(spec)) = (s.is_base, &s.spec) {
            normalized.push(normalize_statement(s.index, s.base, &s.query, &s.schema));
            specs.push(spec.clone());
        }
        // The re-audit's findings are `sso audit`'s to print.
        (auditor.step(s, low).0, Vec::new())
    });
    // Cascades over derived streams and statements with errors are out
    // of the sharing analysis.
    let skipped = (0..statements).filter(|&i| normalized.iter().all(|n| n.index != i)).collect();

    // Cluster by base stream, first-appearance order.
    let mut clusters: Vec<ShareCluster> = Vec::new();
    for n in &normalized {
        match clusters.iter_mut().find(|c| c.stream == n.stream) {
            Some(cluster) => cluster.members.push(n.index),
            None => clusters.push(ShareCluster {
                stream: n.stream.clone(),
                members: vec![n.index],
                prefilter: Vec::new(),
                groups: Vec::new(),
            }),
        }
    }

    let mut steps: Vec<RewriteStep> = Vec::new();
    let mut shared: Vec<SharedPlanDesc> = Vec::new();

    for cluster in &mut clusters {
        let members: Vec<&NormalizedStatement> =
            normalized.iter().filter(|n| cluster.members.contains(&n.index)).collect();

        // Share groups: identical canonical forms.
        for m in &members {
            if let Some(g) = cluster.groups.iter_mut().find(|g| g.hash == m.hash) {
                g.statements.push(m.index);
            } else {
                cluster.groups.push(ShareGroup {
                    statements: vec![m.index],
                    hash: m.hash,
                    canonical: m.canonical.clone(),
                    mergeable: true,
                    blocked: None,
                });
            }
        }

        // Classify multi-member groups: deduplication requires the
        // shared operator to be shard-mergeable, or the rewritten plan
        // could not run on the partitioned runtime.
        for group in &mut cluster.groups {
            if group.statements.len() < 2 {
                continue;
            }
            let rep = normalized.iter().position(|n| n.index == group.statements[0]);
            match sso_core::shard_plan(&specs[rep.expect("member")]).map_err(|nm| nm.reason) {
                Ok(_) => {
                    if opts.apply {
                        steps.push(RewriteStep {
                            rule: "dedup-shared-subplan".to_string(),
                            statements: group.statements.clone(),
                            before: group.statements.iter().map(|_| group.hash).collect(),
                            after: group.hash,
                            side_conditions: vec![
                                "canonical normalized forms are identical".to_string(),
                                "shared operator is shard-mergeable".to_string(),
                                "each consumer receives a clone of every closed window".to_string(),
                            ],
                        });
                    } else {
                        for &i in &group.statements {
                            let n = members.iter().find(|n| n.index == i).expect("member");
                            diagnostics.push(
                                Diagnostic::new(
                                    Code::W301,
                                    anchor(n),
                                    format!(
                                        "{} have identical normalized plans but run as \
                                         separate operators",
                                        stmt_list(&group.statements)
                                    ),
                                )
                                .with_help(
                                    "run `sso optimize` without --explain to deduplicate them \
                                     into one shared operator",
                                ),
                            );
                        }
                    }
                }
                Err(reason) => {
                    group.mergeable = false;
                    group.blocked = Some(reason.clone());
                    for &i in &group.statements {
                        let n = members.iter().find(|n| n.index == i).expect("member");
                        diagnostics.push(
                            Diagnostic::new(
                                Code::W303,
                                anchor(n),
                                format!(
                                    "{} normalize to one plan, but the rewrite is blocked by a \
                                     non-mergeable sampler",
                                    stmt_list(&group.statements)
                                ),
                            )
                            .with_help(format!(
                                "sharing requires a shard-mergeable operator; blocked because: \
                                 {reason}"
                            )),
                        );
                    }
                }
            }
        }

        // Shared prefilter across the whole cluster.
        if members.len() >= 2 {
            cluster.prefilter = shared_prefilter(&members);
        }
        if !cluster.prefilter.is_empty() {
            let pf_text = render_clauses(&cluster.prefilter);
            if opts.apply {
                steps.push(RewriteStep {
                    rule: "hoist-shared-prefilter".to_string(),
                    statements: cluster.members.clone(),
                    before: members.iter().map(|m| m.hash).collect(),
                    after: checksum(pf_text.as_bytes()),
                    side_conditions: vec![
                        "every hoisted clause is pure (no stateful or aggregate calls)".to_string(),
                        "every hoisted clause is total (division only by nonzero literals)"
                            .to_string(),
                        "each member's hoistable WHERE prefix implies every hoisted clause"
                            .to_string(),
                        "consumers keep their full residual predicates".to_string(),
                    ],
                });
            } else {
                for m in &members {
                    diagnostics.push(
                        Diagnostic::new(
                            Code::W301,
                            anchor(m),
                            format!(
                                "{} all imply the prefilter `{pf_text}` but each evaluates it \
                                 independently",
                                stmt_list(&cluster.members)
                            ),
                        )
                        .with_help(
                            "run `sso optimize` without --explain to evaluate it once ahead of \
                             the fan-out",
                        ),
                    );
                }
            }
        }

        // W302: equivalent modulo constants.
        for (ai, a) in members.iter().enumerate() {
            for b in members.iter().skip(ai + 1) {
                if a.param_hash == b.param_hash && a.hash != b.hash {
                    for (x, other) in [(a, b), (b, a)] {
                        diagnostics.push(
                            Diagnostic::new(
                                Code::W302,
                                anchor(x),
                                format!(
                                    "statement {} is equivalent to statement {} modulo \
                                     constants",
                                    x.index + 1,
                                    other.index + 1
                                ),
                            )
                            .with_help(
                                "parameterizing the constant would let one shared plan serve \
                                 both queries",
                            ),
                        );
                    }
                }
            }
        }

        // W304: window periods differing by an integer multiple.
        for (ai, a) in members.iter().enumerate() {
            for b in members.iter().skip(ai + 1) {
                let (Some(wa), Some(wb)) = (a.window, b.window) else { continue };
                if wa == wb || a.group_keys != b.group_keys {
                    continue;
                }
                let (fine, coarse, wf, wc) = if wa < wb { (a, b, wa, wb) } else { (b, a, wb, wa) };
                if wc % wf == 0 {
                    for x in [fine, coarse] {
                        let span =
                            Span::new(x.window_span.start + x.base, x.window_span.end + x.base);
                        diagnostics.push(
                            Diagnostic::new(
                                Code::W304,
                                span,
                                format!(
                                    "statements {} and {} window the same stream at periods \
                                     {wf} and {wc} — an integer multiple",
                                    fine.index + 1,
                                    coarse.index + 1
                                ),
                            )
                            .with_help(
                                "the coarser window is derivable from the finer one's partial \
                                 aggregates (shared partial aggregation, §7.2)",
                            ),
                        );
                    }
                }
            }
        }

        // Describe the shared-execution plan when a rewrite applied.
        let any_dedup = cluster.groups.iter().any(|g| g.statements.len() >= 2 && g.mergeable);
        if opts.apply && (any_dedup || !cluster.prefilter.is_empty()) {
            let query_of = |i| members.iter().find(|n| n.index == i).expect("member").query.clone();
            let mut groups = Vec::new();
            for g in &cluster.groups {
                if g.mergeable {
                    groups.push(SharedGroupDesc {
                        representative: g.statements[0],
                        consumers: g.statements.iter().map(|i| format!("q{}", i + 1)).collect(),
                        query: query_of(g.statements[0]),
                    });
                } else {
                    // A blocked group keeps one operator per member.
                    for &i in &g.statements {
                        groups.push(SharedGroupDesc {
                            representative: i,
                            consumers: vec![format!("q{}", i + 1)],
                            query: query_of(i),
                        });
                    }
                }
            }
            shared.push(SharedPlanDesc {
                stream: cluster.stream.clone(),
                prefilter: conjunction(&cluster.prefilter),
                groups,
            });
        }
    }

    dedup_diagnostics(&mut diagnostics);

    // Re-audit: the rewritten plan's bounds certificates must survive.
    // Consumer operator plans are unchanged and the hoisted prefilter
    // is stateless, so auditing the source file audits the rewrite. The
    // audit's own findings are warnings: its errors are the walk's.
    let audit = auditor.finish(Vec::new());
    let reaudit = ReauditSummary {
        ok: !diag::has_errors(&diagnostics) && !audit.budget_exceeded(),
        total_state_bytes: audit.report.total_state_bytes(),
        statements: audit.report.statements.len(),
    };

    OptimizeOutcome {
        statements,
        skipped,
        clusters,
        certificate: RewriteCertificate::seal(steps),
        shared,
        reaudit,
        diagnostics,
    }
}

/// `sso check`: the diagnostics of the file's one [`walk_cascade`],
/// plus the W103 lint: identical normalized prefilters over the same
/// base stream, across every base statement that parses (errors or
/// not). Conservative: statements with an *empty* hoistable prefix
/// never match (a vacuous `TRUE` prefilter is not a shared prefilter).
/// Deduplicated by `(code, span)`.
pub fn check_file(text: &str) -> Vec<Diagnostic> {
    let mut normalized: Vec<NormalizedStatement> = Vec::new();
    let (mut diags, _) = walk_cascade(text, |s, _: Option<&()>| {
        if s.is_base {
            normalized.push(normalize_statement(s.index, s.base, &s.query, &s.schema));
        }
        (Some(()), Vec::new())
    });
    let key = |n: &NormalizedStatement| -> Vec<String> {
        let mut texts: Vec<String> = n.hoistable.iter().map(|c| c.to_string()).collect();
        texts.sort();
        texts
    };
    for (ai, a) in normalized.iter().enumerate() {
        for b in normalized.iter().skip(ai + 1) {
            if a.stream != b.stream || a.hoistable.is_empty() {
                continue;
            }
            if key(a) == key(b) {
                for (x, other) in [(a, b), (b, a)] {
                    diags.push(
                        Diagnostic::new(
                            Code::W103,
                            anchor(x),
                            format!(
                                "statement {} applies the same normalized prefilter over {} as \
                                 statement {}",
                                x.index + 1,
                                x.stream,
                                other.index + 1
                            ),
                        )
                        .with_help(
                            "run `sso optimize` to evaluate the shared prefilter once ahead of \
                             the fan-out",
                        ),
                    );
                }
            }
        }
    }
    dedup_diagnostics(&mut diags);
    diags
}
