//! The paper's closed-form state bounds per sampling family, evaluated
//! symbolically over the abstract domain, and the cardinality bound of a
//! planned expression. The family is read from the planned spec by
//! [`sso_core::Sampler::of`], the same classification `shard_plan`
//! reads.
//!
//! Each sampling family caps its live group count per supergroup with a
//! cleaning phase that fires at a *trigger threshold*; the certified
//! bound is that threshold plus the single admission that trips it:
//!
//! * **subset-sum** (§6.1): `ssdo_clean` fires when the group count
//!   exceeds `γ·N`, so live groups never pass `⌈γ·N⌉ + 1` — the
//!   paper's O(N) footprint with the over-sampling factor made
//!   explicit. Without the cleaning clause (the §6.1 *basic* variant)
//!   the sampler admits a tuple per distinct weight draw and only the
//!   rows-per-window envelope bounds the table.
//! * **reservoir** (the §6.6 reservoir query): `rsdo_clean` fires past
//!   `T·n`, giving `T·n + 1`.
//! * **lossy counting / heavy hitters** (§6.6): with bucket width `w`
//!   over `N` rows, surviving entries obey the classic
//!   `w·(ln(N/w) + 1)` bound (ε = 1/w ⇒ (1/ε)·log εN).
//! * **distinct sampling** (Gibbons, the paper's ref \[19\]): `ddo_clean` raises the
//!   hash level once the distinct count passes the capacity `c`,
//!   bounding the table at `c + 1`.
//! * **min-hash / KMV** (the §6.6 min-hash query): the k smallest hash values survive
//!   cleaning, so at most `k + 1` groups live per supergroup.
//!
//! Trigger factors (`γ`, `T`) are read from the SFUN libraries' default
//! configs, so a library retune cannot silently invalidate the audit.

use sso_core::libs::reservoir::ReservoirOpConfig;
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{Expr, OperatorSpec, Sampler};
use sso_query::ast::{AstExpr, ExprKind, Query};
use sso_types::{FieldType, Schema};

use crate::domain::Card;

/// The sampling family a planned query runs, with the parameters its
/// closed-form state bound needs.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplerKind {
    /// No sampling clauses: exact grouped aggregation.
    Exact,
    /// `ssample(w, N)`; `cleaning` is true when `ssdo_clean` guards a
    /// cleaning phase (the bounded, threshold-relaxing variant).
    SubsetSum {
        /// Target sample size N.
        target: u64,
        /// Whether the `ssdo_clean` cleaning phase is present.
        cleaning: bool,
    },
    /// `rsample(n)` with the same cleaning split.
    Reservoir {
        /// Reservoir size n.
        n: u64,
        /// Whether the `rsdo_clean` cleaning phase is present.
        cleaning: bool,
    },
    /// `local_count(w)` lossy counting with bucket width w.
    LossyCount {
        /// Bucket width (1/ε).
        bucket_width: u64,
    },
    /// `dsample(x, c)` distinct sampling with capacity c.
    Distinct {
        /// Level-raise capacity c.
        capacity: u64,
    },
    /// `Kth_smallest_value$(h, k)` min-hash with a cleaning phase.
    Kmv {
        /// Sketch size k.
        k: u64,
    },
}

impl SamplerKind {
    /// The family [`Sampler::of`] reads from the plan. A subset-sum
    /// target that is not a positive literal reads as 1, a reservoir size
    /// that is not a literal as 0.
    pub fn of(spec: &OperatorSpec) -> SamplerKind {
        match Sampler::of(spec) {
            Sampler::Exact => SamplerKind::Exact,
            Sampler::SubsetSum { target, cleaning } => {
                SamplerKind::SubsetSum { target: target.filter(|&t| t > 0).unwrap_or(1), cleaning }
            }
            Sampler::Reservoir { n, cleaning } => {
                SamplerKind::Reservoir { n: n.unwrap_or(0), cleaning }
            }
            Sampler::LossyCount { bucket_width } => SamplerKind::LossyCount { bucket_width },
            Sampler::Distinct { capacity } => SamplerKind::Distinct { capacity },
            Sampler::Kmv { k } => SamplerKind::Kmv { k },
        }
    }

    /// Human/JSON label, e.g. `subset-sum(N=100)`.
    pub fn label(&self) -> String {
        match self {
            SamplerKind::Exact => "exact".to_string(),
            SamplerKind::SubsetSum { target, cleaning: true } => format!("subset-sum(N={target})"),
            SamplerKind::SubsetSum { target, cleaning: false } => {
                format!("basic-subset-sum(N={target})")
            }
            SamplerKind::Reservoir { n, cleaning: true } => format!("reservoir(n={n})"),
            SamplerKind::Reservoir { n, cleaning: false } => format!("basic-reservoir(n={n})"),
            SamplerKind::LossyCount { bucket_width } => format!("lossy-count(w={bucket_width})"),
            SamplerKind::Distinct { capacity } => format!("distinct(c={capacity})"),
            SamplerKind::Kmv { k } => format!("kmv(k={k})"),
        }
    }

    /// The closed-form bound on live groups *per supergroup*, given the
    /// rows-per-window envelope (lossy counting's bound depends on it).
    /// `Unbounded` means the sampler itself imposes no cap and only the
    /// input envelopes bound the table.
    pub fn per_supergroup_bound(&self, rows_per_window: Card) -> Card {
        match *self {
            SamplerKind::Exact => Card::Unbounded,
            SamplerKind::SubsetSum { target, cleaning: true } => {
                let gamma = SubsetSumOpConfig::default().gamma;
                Card::Finite((gamma * target as f64).ceil() as u64 + 1)
            }
            SamplerKind::SubsetSum { cleaning: false, .. } => Card::Unbounded,
            SamplerKind::Reservoir { n, cleaning: true } => {
                let t = ReservoirOpConfig::default().t_factor as u64;
                Card::Finite(t.saturating_mul(n) + 1)
            }
            SamplerKind::Reservoir { cleaning: false, .. } => Card::Unbounded,
            SamplerKind::LossyCount { bucket_width } => match rows_per_window {
                Card::Finite(n) => {
                    let w = bucket_width.max(1);
                    let ratio = (n as f64 / w as f64).max(1.0);
                    Card::Finite((w as f64 * (ratio.ln() + 1.0)).ceil() as u64)
                }
                Card::Unbounded => Card::Unbounded,
            },
            SamplerKind::Distinct { capacity } => Card::Finite(capacity + 1),
            SamplerKind::Kmv { k } => Card::Finite(k + 1),
        }
    }
}

/// `ssample`'s weight argument as written: the first `ssample` call in
/// WHERE, the one [`Sampler::of`] classifies a subset-sum plan by. Read
/// from the text so the weight check (W204) can point at it.
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
    use sso_query::parse_query;
    use sso_types::Packet;

    fn detect(text: &str) -> SamplerKind {
        let q = parse_query(text).unwrap();
        let schema = sso_query::base_stream_schema(&q.from.text).unwrap();
        SamplerKind::of(
            &sso_query::plan(&q, &schema, &sso_query::PlannerConfig::standard()).unwrap(),
        )
    }

    #[test]
    fn classifies_every_sampler_family() {
        let cases: &[(&str, SamplerKind)] = &[
            (sso_core::queries::EXAMPLE_QUERIES[0].1, SamplerKind::Exact),
            (
                sso_core::queries::EXAMPLE_QUERIES[1].1,
                SamplerKind::SubsetSum { target: 100, cleaning: true },
            ),
            (
                sso_core::queries::EXAMPLE_QUERIES[2].1,
                SamplerKind::SubsetSum { target: 1, cleaning: false },
            ),
            (
                sso_core::queries::EXAMPLE_QUERIES[3].1,
                SamplerKind::LossyCount { bucket_width: 100 },
            ),
            (sso_core::queries::EXAMPLE_QUERIES[4].1, SamplerKind::Kmv { k: 10 }),
            (sso_core::queries::EXAMPLE_QUERIES[5].1, SamplerKind::Distinct { capacity: 256 }),
            (
                sso_core::queries::EXAMPLE_QUERIES[6].1,
                SamplerKind::Reservoir { n: 25, cleaning: true },
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(&detect(text), expected, "query: {text}");
        }
    }

    #[test]
    fn trigger_thresholds_match_library_defaults() {
        // γ = 2 ⇒ subset-sum peaks at 2N+1; T = 25 ⇒ reservoir at 25n+1.
        let ss = SamplerKind::SubsetSum { target: 100, cleaning: true };
        assert_eq!(ss.per_supergroup_bound(Card::Unbounded), Card::Finite(201));
        let rs = SamplerKind::Reservoir { n: 25, cleaning: true };
        assert_eq!(rs.per_supergroup_bound(Card::Unbounded), Card::Finite(626));
        let d = SamplerKind::Distinct { capacity: 256 };
        assert_eq!(d.per_supergroup_bound(Card::Unbounded), Card::Finite(257));
        let kmv = SamplerKind::Kmv { k: 10 };
        assert_eq!(kmv.per_supergroup_bound(Card::Unbounded), Card::Finite(11));
    }

    #[test]
    fn lossy_count_bound_is_logarithmic_in_rows() {
        let lc = SamplerKind::LossyCount { bucket_width: 100 };
        // w(ln(N/w)+1) at N = 1.5M, w = 100: 100·(ln(15000)+1) ≈ 1062.
        let bound = lc.per_supergroup_bound(Card::Finite(1_500_000)).finite().unwrap();
        assert!((1000..1200).contains(&bound), "bound {bound}");
        assert_eq!(lc.per_supergroup_bound(Card::Unbounded), Card::Unbounded);
    }

    #[test]
    fn unbounded_variants_have_no_sampler_cap() {
        let basic = SamplerKind::SubsetSum { target: 1, cleaning: false };
        assert_eq!(basic.per_supergroup_bound(Card::Finite(1000)), Card::Unbounded);
        assert_eq!(SamplerKind::Exact.per_supergroup_bound(Card::Finite(10)), Card::Unbounded);
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
