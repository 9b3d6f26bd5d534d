//! What the audit reads beside the sampler: the weight check (W204), the
//! window length, and the cardinality bound of a planned expression.
//! The sampling family, its label and its closed-form cap on live
//! groups per supergroup are [`sso_core::Sampler`]'s, the same table
//! `shard_plan` reads.

use sso_core::{Expr, OperatorSpec};
use sso_query::ast::{AstExpr, ExprKind, Query};
use sso_query::SAMPLING_CALLS;
use sso_types::{FieldType, Schema};

use crate::domain::Card;

/// `ssample`'s weight argument as written: the first `ssample` call in
/// WHERE, the one [`sso_core::Sampler::of`] reads the subset-sum target
/// from. Read from the text so the weight check (W204) can point at it.
pub fn ssample_weight(q: &Query) -> Option<&AstExpr> {
    let mut weight = None;
    q.where_clause.as_ref()?.walk(&mut |e| match &e.kind {
        ExprKind::Call { name, superagg: false, args } if name.eq_ignore_ascii_case("ssample") => {
            weight = weight.or(args.first());
        }
        _ => {}
    });
    weight
}

/// The first sampling call ([`sso_query::SAMPLING_CALLS`]) in the
/// statement's text, clause by clause: WHERE, HAVING, CLEANING WHEN,
/// CLEANING BY, then SELECT. Where a diagnostic about the sampler
/// points.
pub fn first_sampling_call(q: &Query) -> Option<&AstExpr> {
    let clauses = [&q.where_clause, &q.having, &q.cleaning_when, &q.cleaning_by];
    let exprs = clauses.into_iter().flatten().chain(q.select.iter().map(|s| &s.expr));
    let sampling = |n: &str| SAMPLING_CALLS.iter().any(|c| c.eq_ignore_ascii_case(n));
    let mut found = None;
    for e in exprs {
        e.walk(&mut |node| match &node.kind {
            ExprKind::Call { name, .. } if found.is_none() && sampling(name) => found = Some(node),
            _ => {}
        });
    }
    found
}

/// Can this tuple-phase expression be proven numeric and non-negative
/// over the schema's column types? Used for the weight check (W204): the
/// operator's subset-sum threshold pass meters tuples lighter than its
/// threshold z by their summed weight, which a negative weight breaks.
pub fn provably_non_negative(e: &AstExpr, schema: &Schema) -> bool {
    match &e.kind {
        // Integer literals are unsigned at the AST level.
        ExprKind::Int(_) => true,
        ExprKind::Float(v) => *v >= 0.0,
        ExprKind::Ident(name) => {
            matches!(schema.field(name).map(|f| f.ty), Ok(FieldType::U64))
        }
        ExprKind::Binary { op, lhs, rhs } => {
            use sso_query::BinAstOp as B;
            match op {
                B::Add | B::Mul | B::Div | B::Rem => {
                    provably_non_negative(lhs, schema) && provably_non_negative(rhs, schema)
                }
                // Subtraction can underflow u64 semantics into a huge
                // weight; comparisons and logic are not weights.
                _ => false,
            }
        }
        _ => false,
    }
}

/// Cardinality bound of a planned expression over the input edge's
/// column bounds: any deterministic function of its inputs has at most
/// the product of their cardinalities as distinct outputs; literals are
/// constant, and so is a window variable within its window. Serves the
/// group keys, the supergroup, the router's partition key and the
/// columns a cascade hands on.
pub(crate) fn expr_card(
    e: &Expr,
    spec: &OperatorSpec,
    schema: &Schema,
    env: &impl Fn(&str) -> Card,
) -> Card {
    let card = |e: &Expr| expr_card(e, spec, schema, env);
    match e {
        Expr::Literal(_) => Card::Finite(1),
        Expr::Column(i) => schema.fields().get(*i).map(|f| env(&f.name)).unwrap_or(Card::Unbounded),
        // Constant within a window; the router only ever sees one live
        // window's tuples per key.
        Expr::GroupVar(i) if spec.window_indices.contains(i) => Card::Finite(1),
        Expr::GroupVar(i) => spec.group_by.get(*i).map_or(Card::Unbounded, |(_, g)| card(g)),
        Expr::Binary { lhs, rhs, .. } => card(lhs) * card(rhs),
        Expr::Not(inner) => card(inner),
        Expr::Sfun { args, .. } | Expr::Scalar { args, .. } => {
            args.iter().fold(Card::Finite(1), |acc, a| acc * card(a))
        }
        Expr::Aggregate(_) | Expr::SuperAgg(_) => Card::Unbounded,
    }
}

/// The tumbling-window length in seconds of a window-defining group-by
/// expression, given each ordered column's *period* (seconds between
/// distinct values: 1 for a base stream's `time`, the low query's
/// window length for a cascade's passed-through window variable).
///
/// Recognizes the two canonical shapes: `<ordered>/n` (period × n) and
/// a bare `<ordered>` identifier (one window per distinct value, i.e.
/// the period itself). Anything else is an unknown window length.
pub fn window_seconds(
    e: &AstExpr,
    schema: &Schema,
    period_of: &impl Fn(&str) -> Option<u64>,
) -> Option<u64> {
    match &e.kind {
        ExprKind::Ident(col) if schema.is_ordered(col) => period_of(col),
        ExprKind::Binary { op: sso_query::BinAstOp::Div, lhs, rhs } => {
            if let (ExprKind::Ident(col), ExprKind::Int(n)) = (&lhs.kind, &rhs.kind) {
                if schema.is_ordered(col) && *n > 0 {
                    return period_of(col).map(|p| p.saturating_mul(*n));
                }
            }
            None
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_core::merge::Size;
    use sso_core::Sampler;
    use sso_query::parse_query;
    use sso_types::Packet;

    fn detect(text: &str) -> Sampler {
        let q = parse_query(text).unwrap();
        let schema = sso_query::base_stream_schema(&q.from.text).unwrap();
        Sampler::of(&sso_query::plan(&q, &schema, &sso_query::PlannerConfig::standard()).unwrap())
    }

    #[test]
    fn classifies_every_sampler_family() {
        let cases: &[(&str, Sampler)] = &[
            (sso_core::queries::EXAMPLE_QUERIES[0].1, Sampler::Exact),
            (
                sso_core::queries::EXAMPLE_QUERIES[1].1,
                Sampler::SubsetSum { target: Size::Literal(100), cleaning: true },
            ),
            (
                sso_core::queries::EXAMPLE_QUERIES[2].1,
                Sampler::SubsetSum { target: Size::Literal(1), cleaning: false },
            ),
            (
                sso_core::queries::EXAMPLE_QUERIES[3].1,
                Sampler::LossyCount { bucket_width: Size::Literal(100) },
            ),
            (
                sso_core::queries::EXAMPLE_QUERIES[4].1,
                Sampler::Kmv { k: 10, hash: Some(2), cleaning: true },
            ),
            (
                sso_core::queries::EXAMPLE_QUERIES[5].1,
                Sampler::Distinct { capacity: Size::Literal(256), cleaning: true },
            ),
            (
                sso_core::queries::EXAMPLE_QUERIES[6].1,
                Sampler::Reservoir { n: Size::Literal(25), cleaning: true },
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(&detect(text), expected, "query: {text}");
        }
    }

    #[test]
    fn trigger_thresholds_match_library_defaults() {
        // γ = 2 ⇒ subset-sum peaks at 2N+1; T = 25 ⇒ reservoir at 25n+1.
        let ss = Sampler::SubsetSum { target: Size::Literal(100), cleaning: true };
        assert_eq!(ss.groups_cap(None), Some(201));
        let rs = Sampler::Reservoir { n: Size::Literal(25), cleaning: true };
        assert_eq!(rs.groups_cap(None), Some(626));
        let d = Sampler::Distinct { capacity: Size::Literal(256), cleaning: true };
        assert_eq!(d.groups_cap(None), Some(257));
        let basic = Sampler::Distinct { capacity: Size::Literal(256), cleaning: false };
        assert_eq!(basic.groups_cap(None), None);
        let kmv = Sampler::Kmv { k: 10, hash: Some(2), cleaning: true };
        assert_eq!(kmv.groups_cap(None), Some(11));
    }

    #[test]
    fn lossy_count_bound_is_logarithmic_in_rows() {
        let lc = Sampler::LossyCount { bucket_width: Size::Literal(100) };
        // w(ln(N/w)+1) at N = 1.5M, w = 100: 100·(ln(15000)+1) ≈ 1062.
        let bound = lc.groups_cap(Some(1_500_000)).unwrap();
        assert!((1000..1200).contains(&bound), "bound {bound}");
        assert_eq!(lc.groups_cap(None), None);
    }

    #[test]
    fn unbounded_variants_have_no_sampler_cap() {
        let basic = Sampler::SubsetSum { target: Size::Literal(1), cleaning: false };
        assert_eq!(basic.groups_cap(Some(1000)), None);
        assert_eq!(Sampler::Exact.groups_cap(Some(10)), None);
    }

    #[test]
    fn weight_positivity_prover() {
        let schema = Packet::schema();
        let q = |w: &str| {
            let text =
                format!("SELECT tb FROM PKT WHERE ssample({w}, 10) = TRUE GROUP BY time/60 as tb");
            ssample_weight(&parse_query(&text).unwrap()).unwrap().clone()
        };
        assert!(provably_non_negative(&q("len"), &schema));
        assert!(provably_non_negative(&q("len * 8"), &schema));
        assert!(provably_non_negative(&q("len / 2 + 1"), &schema));
        assert!(!provably_non_negative(&q("len - 1500"), &schema), "subtraction can wrap");
        assert!(!provably_non_negative(&q("prefix(srcIP, 8)"), &schema), "opaque call");
    }

    #[test]
    fn window_seconds_extraction() {
        let schema = Packet::schema();
        let period = |col: &str| if col == "time" { Some(1) } else { None };
        let q = parse_query("SELECT tb FROM PKT GROUP BY time/60 as tb, srcIP").unwrap();
        assert_eq!(window_seconds(&q.group_by[0].expr, &schema, &period), Some(60));
        assert_eq!(window_seconds(&q.group_by[1].expr, &schema, &period), None);
        // A bare ordered identifier windows per distinct value.
        let q = parse_query("SELECT t FROM PKT GROUP BY time as t").unwrap();
        assert_eq!(window_seconds(&q.group_by[0].expr, &schema, &period), Some(1));
        // uts is deliberately unordered; uts/1000 is not a window.
        let q = parse_query("SELECT tb FROM PKT GROUP BY uts/1000 as tb").unwrap();
        assert_eq!(window_seconds(&q.group_by[0].expr, &schema, &period), None);
    }

    #[test]
    fn expr_cardinality_is_multiplicative() {
        let env = |name: &str| match name {
            "srcIP" => Card::Finite(4096),
            "destIP" => Card::Finite(513),
            _ => Card::Unbounded,
        };
        let schema = sso_types::Packet::schema();
        let card = |text: &str| {
            let q = parse_query(&format!("SELECT x FROM PKT GROUP BY {text} as x")).unwrap();
            let spec = sso_query::plan(&q, &schema, &sso_query::PlannerConfig::standard()).unwrap();
            expr_card(&spec.group_by[0].1, &spec, &schema, &env)
        };
        assert_eq!(card("srcIP"), Card::Finite(4096));
        assert_eq!(card("srcIP + destIP"), Card::Finite(4096 * 513));
        assert_eq!(card("prefix(srcIP, 24)"), Card::Finite(4096));
        assert_eq!(card("uts"), Card::Unbounded);
    }
}
