//! Plan normalization: rewrite parsed queries into a canonical
//! symbolic form so that syntactic identity of the rendering *is*
//! plan equivalence for the sharing analysis.
//!
//! The normal form is reached by a terminating rewrite system:
//!
//! 1. **Constant folding** — integer arithmetic, boolean logic, and
//!    literal comparisons evaluate at analysis time (`2 * 30` → `60`,
//!    `1 < 2` → `TRUE`).
//! 2. **Vacuous-term elimination** — `x AND TRUE` → `x`,
//!    `FALSE OR x` → `x`, `NOT NOT x` → `x`, `x = TRUE` → `x` (for
//!    boolean `x`); the short-circuit-absorbing folds
//!    (`FALSE AND x` → `FALSE`, `TRUE OR x` → `TRUE`) are always sound
//!    because the unshared evaluator short-circuits and never runs `x`;
//!    the mirrored folds that *discard an evaluated* `x`
//!    (`x AND FALSE` → `FALSE`) apply only when `x` is pure, so no
//!    stateful call disappears.
//! 3. **Commutative-operand ordering** — `AND`/`OR`/`+`/`*` chains are
//!    flattened, deduplicated (for the idempotent logical ops), sorted
//!    by rendering, and rebuilt left-associated — but **only when every
//!    operand is pure**: reordering a conjunction containing a stateful
//!    sampling function would permute its state-update sequence.
//! 4. **Comparison orientation** — literals move to the right-hand side
//!    (`100 <= len` → `len >= 100`), so the implication prover sees one
//!    shape.
//!
//! Canonical identity is the rendered text of the normalized query
//! (spans are ignored by [`AstExpr`] equality and by `Display`); node
//! hashes in rewrite certificates are FNV-1a
//! (`sso_types::wire::checksum`) over that text.

use sso_query::{AstExpr, BinAstOp, ExprKind, Query, Span};
use sso_types::wire::checksum;
use sso_types::Schema;

/// Is this expression *pure*: free of stateful sampling functions,
/// aggregates, and superaggregates? Pure expressions may be reordered,
/// deduplicated, and hoisted into a shared prefilter; impure ones pin
/// evaluation order.
pub fn is_pure(e: &AstExpr) -> bool {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Str(_) | ExprKind::Bool(_) => true,
        ExprKind::Ident(_) => true,
        ExprKind::Star => false,
        ExprKind::Not(inner) | ExprKind::Neg(inner) => is_pure(inner),
        ExprKind::Binary { lhs, rhs, .. } => is_pure(lhs) && is_pure(rhs),
        ExprKind::Call { superagg: true, .. } => false,
        ExprKind::Call { name, superagg: false, args } => {
            // Only registered scalar functions are pure; anything else
            // (aggregates, SFUN library calls, unknowns) is not.
            sso_core::scalar::lookup(name).is_some() && args.iter().all(is_pure)
        }
    }
}

/// Is this expression *total*: guaranteed to evaluate without a runtime
/// error on every tuple? Division and remainder are total only when the
/// divisor is a nonzero literal. Totality is the side condition that
/// makes hoisting sound: a hoisted clause runs on tuples the original
/// query might have short-circuited past, so it must not be able to
/// fail.
pub fn is_total(e: &AstExpr) -> bool {
    match &e.kind {
        ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::Ident(_)
        | ExprKind::Star => true,
        ExprKind::Not(inner) | ExprKind::Neg(inner) => is_total(inner),
        ExprKind::Binary { op: BinAstOp::Div | BinAstOp::Rem, lhs, rhs } => {
            is_total(lhs)
                && matches!(&rhs.kind,
                    ExprKind::Int(n) if *n != 0)
        }
        ExprKind::Binary { lhs, rhs, .. } => is_total(lhs) && is_total(rhs),
        ExprKind::Call { args, .. } => args.iter().all(is_total),
    }
}

/// Flatten a top-level `AND` chain into its conjuncts, in evaluation
/// order.
pub fn conjuncts(e: &AstExpr) -> Vec<&AstExpr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a AstExpr, out: &mut Vec<&'a AstExpr>) {
        if let ExprKind::Binary { op: BinAstOp::And, lhs, rhs } = &e.kind {
            walk(lhs, out);
            walk(rhs, out);
        } else {
            out.push(e);
        }
    }
    walk(e, &mut out);
    out
}

fn mk(kind: ExprKind, span: Span) -> AstExpr {
    AstExpr { kind, span }
}

fn bool_lit(b: bool, span: Span) -> AstExpr {
    mk(ExprKind::Bool(b), span)
}

/// Does the expression have boolean shape (comparison, logical op,
/// NOT, or boolean literal)? Used to gate `x = TRUE` → `x`.
fn is_boolean(e: &AstExpr) -> bool {
    match &e.kind {
        ExprKind::Bool(_) | ExprKind::Not(_) => true,
        ExprKind::Binary { op, .. } => op.is_comparison() || op.is_logical(),
        _ => false,
    }
}

fn flip(op: BinAstOp) -> BinAstOp {
    match op {
        BinAstOp::Lt => BinAstOp::Gt,
        BinAstOp::Le => BinAstOp::Ge,
        BinAstOp::Gt => BinAstOp::Lt,
        BinAstOp::Ge => BinAstOp::Le,
        other => other,
    }
}

fn is_literal(e: &AstExpr) -> bool {
    matches!(e.kind, ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Str(_) | ExprKind::Bool(_))
}

fn num(e: &AstExpr) -> Option<f64> {
    match &e.kind {
        ExprKind::Int(v) => Some(*v as f64),
        ExprKind::Float(v) => Some(*v),
        _ => None,
    }
}

/// Fold a binary op over two literals, when that is exactly computable.
fn fold(op: BinAstOp, lhs: &AstExpr, rhs: &AstExpr, span: Span) -> Option<AstExpr> {
    if let (ExprKind::Int(a), ExprKind::Int(b)) = (&lhs.kind, &rhs.kind) {
        let v = match op {
            BinAstOp::Add => a.checked_add(*b),
            BinAstOp::Sub => a.checked_sub(*b),
            BinAstOp::Mul => a.checked_mul(*b),
            BinAstOp::Div => a.checked_div(*b),
            BinAstOp::Rem => a.checked_rem(*b),
            _ => None,
        };
        if let Some(v) = v {
            return Some(mk(ExprKind::Int(v), span));
        }
    }
    if op.is_comparison() {
        if let (Some(a), Some(b)) = (num(lhs), num(rhs)) {
            let v = match op {
                BinAstOp::Eq => a == b,
                BinAstOp::Ne => a != b,
                BinAstOp::Lt => a < b,
                BinAstOp::Le => a <= b,
                BinAstOp::Gt => a > b,
                BinAstOp::Ge => a >= b,
                _ => unreachable!("comparison"),
            };
            return Some(bool_lit(v, span));
        }
        if let (ExprKind::Str(a), ExprKind::Str(b)) = (&lhs.kind, &rhs.kind) {
            let v = match op {
                BinAstOp::Eq => a == b,
                BinAstOp::Ne => a != b,
                _ => return None,
            };
            return Some(bool_lit(v, span));
        }
    }
    None
}

/// Normalize one expression into canonical form. Terminates: every rule
/// strictly shrinks the tree or sorts a fixed-size operand list.
pub fn normalize(e: &AstExpr) -> AstExpr {
    let span = e.span;
    match &e.kind {
        ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::Ident(_)
        | ExprKind::Star => e.clone(),
        ExprKind::Neg(inner) => mk(ExprKind::Neg(Box::new(normalize(inner))), span),
        ExprKind::Not(inner) => {
            let n = normalize(inner);
            match n.kind {
                ExprKind::Bool(b) => bool_lit(!b, span),
                ExprKind::Not(x) => *x,
                _ => mk(ExprKind::Not(Box::new(n)), span),
            }
        }
        ExprKind::Call { name, superagg, args } => mk(
            ExprKind::Call {
                name: name.clone(),
                superagg: *superagg,
                args: args.iter().map(normalize).collect(),
            },
            span,
        ),
        ExprKind::Binary { op, lhs, rhs } => {
            let l = normalize(lhs);
            let r = normalize(rhs);
            if let Some(folded) = fold(*op, &l, &r, span) {
                return folded;
            }
            match op {
                BinAstOp::And => normalize_logical(BinAstOp::And, l, r, span),
                BinAstOp::Or => normalize_logical(BinAstOp::Or, l, r, span),
                BinAstOp::Add | BinAstOp::Mul => normalize_chain(*op, l, r, span),
                BinAstOp::Eq | BinAstOp::Ne => {
                    // `x = TRUE` → x; `x != FALSE` → x (boolean x only).
                    if let ExprKind::Bool(b) = r.kind {
                        let keep = (b && *op == BinAstOp::Eq) || (!b && *op == BinAstOp::Ne);
                        if keep && is_boolean(&l) {
                            return l;
                        }
                    }
                    if let ExprKind::Bool(b) = l.kind {
                        let keep = (b && *op == BinAstOp::Eq) || (!b && *op == BinAstOp::Ne);
                        if keep && is_boolean(&r) {
                            return r;
                        }
                    }
                    orient(*op, l, r, span)
                }
                _ if op.is_comparison() => orient(*op, l, r, span),
                _ => mk(ExprKind::Binary { op: *op, lhs: Box::new(l), rhs: Box::new(r) }, span),
            }
        }
    }
}

/// Literal-on-the-right orientation for comparisons.
fn orient(op: BinAstOp, l: AstExpr, r: AstExpr, span: Span) -> AstExpr {
    if is_literal(&l) && !is_literal(&r) {
        mk(ExprKind::Binary { op: flip(op), lhs: Box::new(r), rhs: Box::new(l) }, span)
    } else {
        mk(ExprKind::Binary { op, lhs: Box::new(l), rhs: Box::new(r) }, span)
    }
}

/// AND/OR: identity/annihilator folds, then pure-chain canonical
/// ordering with idempotent dedup.
fn normalize_logical(op: BinAstOp, l: AstExpr, r: AstExpr, span: Span) -> AstExpr {
    let and = op == BinAstOp::And;
    // Identity element: TRUE AND x → x, FALSE OR x → x (either side).
    if matches!(l.kind, ExprKind::Bool(b) if b == and) {
        return r;
    }
    if matches!(r.kind, ExprKind::Bool(b) if b == and) {
        return l;
    }
    // Annihilator. A left annihilator short-circuits `r` away, which is
    // sound unconditionally; folding away an *evaluated* left operand
    // needs purity so no stateful call is erased.
    if matches!(l.kind, ExprKind::Bool(b) if b != and) {
        return bool_lit(!and, span);
    }
    if matches!(r.kind, ExprKind::Bool(b) if b != and) && is_pure(&l) {
        return bool_lit(!and, span);
    }
    normalize_chain(op, l, r, span)
}

/// Flatten, sort, and (for logical ops) dedup a commutative chain —
/// only when every operand is pure, because reordering impure operands
/// permutes stateful call sequences.
fn normalize_chain(op: BinAstOp, l: AstExpr, r: AstExpr, span: Span) -> AstExpr {
    let rebuilt = mk(ExprKind::Binary { op, lhs: Box::new(l), rhs: Box::new(r) }, span);
    let mut operands = Vec::new();
    fn flatten(e: &AstExpr, op: BinAstOp, out: &mut Vec<AstExpr>) {
        if let ExprKind::Binary { op: o, lhs, rhs } = &e.kind {
            if *o == op {
                flatten(lhs, op, out);
                flatten(rhs, op, out);
                return;
            }
        }
        out.push(e.clone());
    }
    flatten(&rebuilt, op, &mut operands);
    if !operands.iter().all(is_pure) {
        return rebuilt;
    }
    operands.sort_by_key(|a| a.to_string());
    if op.is_logical() {
        operands.dedup_by(|a, b| a == b);
    }
    let mut it = operands.into_iter();
    let first = it.next().expect("chain has at least one operand");
    it.fold(first, |acc, x| mk(ExprKind::Binary { op, lhs: Box::new(acc), rhs: Box::new(x) }, span))
}

/// Replace every literal with the parameter hole `?`, for
/// equivalent-modulo-constants comparison (W302).
pub fn abstract_literals(e: &AstExpr) -> AstExpr {
    let span = e.span;
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Str(_) => {
            mk(ExprKind::Ident("?".to_string()), span)
        }
        ExprKind::Bool(_) | ExprKind::Ident(_) | ExprKind::Star => e.clone(),
        ExprKind::Neg(inner) => mk(ExprKind::Neg(Box::new(abstract_literals(inner))), span),
        ExprKind::Not(inner) => mk(ExprKind::Not(Box::new(abstract_literals(inner))), span),
        ExprKind::Binary { op, lhs, rhs } => mk(
            ExprKind::Binary {
                op: *op,
                lhs: Box::new(abstract_literals(lhs)),
                rhs: Box::new(abstract_literals(rhs)),
            },
            span,
        ),
        ExprKind::Call { name, superagg, args } => mk(
            ExprKind::Call {
                name: name.clone(),
                superagg: *superagg,
                args: args.iter().map(abstract_literals).collect(),
            },
            span,
        ),
    }
}

/// A statement in canonical form, with everything the sharing analysis
/// needs precomputed.
#[derive(Debug, Clone)]
pub struct NormalizedStatement {
    /// 0-based statement index in the source file.
    pub index: usize,
    /// Byte offset of the statement in the source file (for span
    /// rebasing).
    pub base: usize,
    /// The parsed original.
    pub query: Query,
    /// The normalized clone (all clause expressions canonical).
    pub norm: Query,
    /// Canonical rendering of the normalized query.
    pub canonical: String,
    /// FNV-1a of `canonical` — the certificate node hash.
    pub hash: u64,
    /// Canonical rendering with literals abstracted to `?`.
    pub param_canonical: String,
    /// FNV-1a of `param_canonical`.
    pub param_hash: u64,
    /// The maximal *pure and total* prefix of the WHERE conjunction, in
    /// canonical form: the hoistable prefilter clauses.
    pub hoistable: Vec<AstExpr>,
    /// Base stream name (uppercased as written).
    pub stream: String,
    /// Window length in units of the ordered column's period, when the
    /// window group item has a recognizable `time/n` shape.
    pub window: Option<u64>,
    /// Span of the window-defining group item (for W304 anchors).
    pub window_span: Span,
    /// Canonical renderings of the non-window group-by expressions.
    pub group_keys: Vec<String>,
}

/// Normalize a parsed base-stream statement.
pub fn normalize_statement(
    index: usize,
    base: usize,
    query: &Query,
    schema: &Schema,
) -> NormalizedStatement {
    let norm = Query {
        select: query
            .select
            .iter()
            .map(|s| sso_query::SelectItem { expr: normalize(&s.expr), alias: s.alias.clone() })
            .collect(),
        from: query.from.clone(),
        where_clause: query.where_clause.as_ref().map(normalize),
        group_by: query
            .group_by
            .iter()
            .map(|g| sso_query::ast::GroupItem { expr: normalize(&g.expr), alias: g.alias.clone() })
            .collect(),
        supergroup: query.supergroup.clone(),
        having: query.having.as_ref().map(normalize),
        cleaning_when: query.cleaning_when.as_ref().map(normalize),
        cleaning_by: query.cleaning_by.as_ref().map(normalize),
    };
    let canonical = norm.to_string();
    let param = Query {
        select: norm
            .select
            .iter()
            .map(|s| sso_query::SelectItem {
                expr: abstract_literals(&s.expr),
                alias: s.alias.clone(),
            })
            .collect(),
        where_clause: norm.where_clause.as_ref().map(abstract_literals),
        group_by: norm
            .group_by
            .iter()
            .map(|g| sso_query::ast::GroupItem {
                expr: abstract_literals(&g.expr),
                alias: g.alias.clone(),
            })
            .collect(),
        having: norm.having.as_ref().map(abstract_literals),
        cleaning_when: norm.cleaning_when.as_ref().map(abstract_literals),
        cleaning_by: norm.cleaning_by.as_ref().map(abstract_literals),
        ..norm.clone()
    };
    let param_canonical = param.to_string();

    // Hoistable prefix: stop at the first impure or partial conjunct.
    // Everything before it runs (and short-circuits) before any
    // stateful call, so evaluating it ahead of the operator preserves
    // every sampler's state-update sequence.
    let hoistable = match &norm.where_clause {
        Some(w) => {
            conjuncts(w).into_iter().take_while(|c| is_pure(c) && is_total(c)).cloned().collect()
        }
        None => Vec::new(),
    };

    let period = |_: &str| Some(1);
    let mut window = None;
    let mut window_span = Span::DUMMY;
    let mut group_keys = Vec::new();
    for item in &query.group_by {
        match sso_analysis::bounds::window_seconds(&item.expr, schema, &period) {
            Some(w) if window.is_none() => {
                window = Some(w);
                window_span = item.expr.span;
            }
            _ => group_keys.push(normalize(&item.expr).to_string()),
        }
    }

    NormalizedStatement {
        index,
        base,
        query: query.clone(),
        hash: checksum(canonical.as_bytes()),
        param_hash: checksum(param_canonical.as_bytes()),
        canonical,
        param_canonical,
        norm,
        hoistable,
        stream: query.from.text.clone(),
        window,
        window_span,
        group_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_query::parse_query;

    fn expr(text: &str) -> AstExpr {
        parse_query(&format!("SELECT tb FROM PKT WHERE {text} GROUP BY time/60 as tb"))
            .unwrap()
            .where_clause
            .unwrap()
    }

    #[test]
    fn constants_fold() {
        assert_eq!(normalize(&expr("len > 2 * 30")).to_string(), "(len > 60)");
        assert_eq!(normalize(&expr("1 < 2")).to_string(), "TRUE");
        assert_eq!(normalize(&expr("NOT (1 < 2)")).to_string(), "FALSE");
    }

    #[test]
    fn vacuous_terms_drop() {
        assert_eq!(normalize(&expr("len > 10 AND 1 < 2")).to_string(), "(len > 10)");
        assert_eq!(normalize(&expr("(len > 10) = TRUE")).to_string(), "(len > 10)");
        assert_eq!(normalize(&expr("NOT NOT (len > 10)")).to_string(), "(len > 10)");
    }

    #[test]
    fn pure_conjunctions_sort_and_dedup() {
        let a = normalize(&expr("src_port = 80 AND len > 100"));
        let b = normalize(&expr("len > 100 AND src_port = 80"));
        assert_eq!(a, b);
        let c = normalize(&expr("len > 100 AND len > 100"));
        assert_eq!(c.to_string(), "(len > 100)");
    }

    #[test]
    fn stateful_conjunctions_keep_order() {
        let a = normalize(&expr("ssample(len, 100) AND len > 10"));
        let b = normalize(&expr("len > 10 AND ssample(len, 100)"));
        assert_ne!(a, b, "reordering around a stateful call must not happen");
    }

    #[test]
    fn comparisons_orient_literal_right() {
        assert_eq!(normalize(&expr("100 <= len")).to_string(), "(len >= 100)");
        assert_eq!(normalize(&expr("100 = len")).to_string(), "(len = 100)");
    }

    #[test]
    fn purity_and_totality_classify() {
        assert!(is_pure(&expr("len > 100")));
        assert!(!is_pure(&expr("ssample(len, 100)")));
        assert!(is_total(&expr("len / 10 > 3")));
        assert!(!is_total(&expr("len / src_port > 3")), "divisor not a literal");
        assert!(!is_total(&expr("len / 0 > 3")), "zero divisor");
    }

    #[test]
    fn hoistable_prefix_stops_at_state() {
        let schema = sso_query::base_stream_schema("PKT").unwrap();
        let q = parse_query(
            "SELECT tb FROM PKT WHERE len > 10 AND ssample(len, 100) AND src_port = 80 \
             GROUP BY time/60 as tb",
        )
        .unwrap();
        let n = normalize_statement(0, 0, &q, &schema);
        // Only the prefix before the sampler hoists; src_port = 80
        // after the sampler stays put.
        assert_eq!(n.hoistable.len(), 1);
        assert_eq!(n.hoistable[0].to_string(), "(len > 10)");
        assert_eq!(n.window, Some(60));
        assert!(n.group_keys.is_empty());
    }

    #[test]
    fn param_abstraction_equates_modulo_constants() {
        let schema = sso_query::base_stream_schema("PKT").unwrap();
        let mk = |t: &str| normalize_statement(0, 0, &parse_query(t).unwrap(), &schema);
        let a = mk("SELECT tb FROM PKT WHERE len > 100 GROUP BY time/60 as tb");
        let b = mk("SELECT tb FROM PKT WHERE len > 200 GROUP BY time/60 as tb");
        assert_ne!(a.hash, b.hash);
        assert_eq!(a.param_hash, b.param_hash);
    }
}
