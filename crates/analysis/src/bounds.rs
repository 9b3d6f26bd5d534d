//! Sampler classification and the paper's closed-form state bounds,
//! evaluated symbolically over the abstract domain.
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
use sso_query::ast::{AstExpr, ExprKind, Query};
use sso_types::{FieldType, Schema};

use crate::domain::Card;

/// The sampling family a query's clause structure selects, with the
/// parameters its closed-form state bound needs.
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

/// What sampler a query's clauses select, plus the subset-sum weight
/// expression (for the weight check, W204).
#[derive(Debug, Clone)]
pub struct SamplerInfo {
    /// The classified sampling family.
    pub kind: SamplerKind,
    /// `ssample`'s weight argument, when present.
    pub weight_expr: Option<AstExpr>,
}

/// Classify the sampler from the query's clause structure. The SFUN
/// families are disjoint (one state library per query in practice), so
/// the first match wins in WHERE order, then cleaning-only families.
pub fn detect_sampler(q: &Query) -> SamplerInfo {
    let mut info = SamplerInfo { kind: SamplerKind::Exact, weight_expr: None };
    let cleaning_calls = collect_call_names(q.cleaning_when.as_ref());
    if let Some(w) = &q.where_clause {
        let mut kind = None;
        walk(w, &mut |e| {
            if kind.is_some() {
                return;
            }
            let ExprKind::Call { name, superagg, args } = &e.kind else { return };
            let lower = name.to_ascii_lowercase();
            match (lower.as_str(), *superagg) {
                ("ssample", false) => {
                    info.weight_expr = args.first().cloned();
                    let target = int_arg(args, 1).unwrap_or(1);
                    let cleaning = cleaning_calls.iter().any(|c| c == "ssdo_clean");
                    kind = Some(SamplerKind::SubsetSum { target, cleaning });
                }
                ("rsample", false) => {
                    let n = int_arg(args, 0).unwrap_or(0);
                    let cleaning = cleaning_calls.iter().any(|c| c == "rsdo_clean");
                    kind = Some(SamplerKind::Reservoir { n, cleaning });
                }
                ("dsample", false) => {
                    // Capacity comes from the second argument (the
                    // planner's default config leaves it lazy).
                    if let Some(c) = int_arg(args, 1) {
                        kind = Some(SamplerKind::Distinct { capacity: c });
                    }
                }
                // KMV needs the cleaning phase to evict groups
                // stranded above a shrinking k-th smallest hash.
                ("kth_smallest_value", true) if q.cleaning_when.is_some() => {
                    if let Some(k) = int_arg(args, 1) {
                        kind = Some(SamplerKind::Kmv { k });
                    }
                }
                _ => {}
            }
        });
        if let Some(k) = kind {
            info.kind = k;
            return info;
        }
    }
    // Cleaning-only families (no WHERE prefilter): lossy counting.
    if let Some(cw) = &q.cleaning_when {
        let mut kind = None;
        walk(cw, &mut |e| {
            if kind.is_some() {
                return;
            }
            if let ExprKind::Call { name, superagg: false, args } = &e.kind {
                if name.eq_ignore_ascii_case("local_count") {
                    if let Some(w) = int_arg(args, 0) {
                        kind = Some(SamplerKind::LossyCount { bucket_width: w });
                    }
                }
            }
        });
        if let Some(k) = kind {
            info.kind = k;
        }
    }
    info
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

/// Cardinality bound of an expression over a per-column environment:
/// any deterministic function of its inputs has at most the product of
/// their cardinalities as distinct outputs; literals are constant.
pub fn expr_cardinality(e: &AstExpr, column_card: &impl Fn(&str) -> Card) -> Card {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Str(_) | ExprKind::Bool(_) => {
            Card::Finite(1)
        }
        ExprKind::Star => Card::Finite(1),
        ExprKind::Ident(name) => column_card(name),
        ExprKind::Neg(inner) | ExprKind::Not(inner) => expr_cardinality(inner, column_card),
        ExprKind::Binary { lhs, rhs, .. } => {
            expr_cardinality(lhs, column_card) * expr_cardinality(rhs, column_card)
        }
        ExprKind::Call { args, .. } => {
            args.iter().fold(Card::Finite(1), |acc, a| acc * expr_cardinality(a, column_card))
        }
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

/// A positive integer literal argument at `idx`.
fn int_arg(args: &[AstExpr], idx: usize) -> Option<u64> {
    match args.get(idx).map(|a| &a.kind) {
        Some(ExprKind::Int(n)) if *n > 0 => Some(*n),
        _ => None,
    }
}

/// The lower-cased names of every non-superaggregate call in `e`.
fn collect_call_names(e: Option<&AstExpr>) -> Vec<String> {
    let mut names = Vec::new();
    if let Some(e) = e {
        walk(e, &mut |node| {
            if let ExprKind::Call { name, superagg: false, .. } = &node.kind {
                names.push(name.to_ascii_lowercase());
            }
        });
    }
    names
}

/// Depth-first visit of every node in an expression.
fn walk<'e>(e: &'e AstExpr, f: &mut impl FnMut(&'e AstExpr)) {
    f(e);
    match &e.kind {
        ExprKind::Binary { lhs, rhs, .. } => {
            walk(lhs, f);
            walk(rhs, f);
        }
        ExprKind::Not(inner) | ExprKind::Neg(inner) => walk(inner, f),
        ExprKind::Call { args, .. } => {
            for a in args {
                walk(a, f);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_query::parse_query;
    use sso_types::Packet;

    fn detect(text: &str) -> SamplerKind {
        detect_sampler(&parse_query(text).unwrap()).kind
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
            let parsed = parse_query(&text).unwrap();
            detect_sampler(&parsed).weight_expr.unwrap()
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
            "uts" => Card::Unbounded,
            _ => Card::Unbounded,
        };
        let card = |text: &str| {
            let q = format!("SELECT x FROM PKT GROUP BY {text} as x");
            expr_cardinality(&parse_query(&q).unwrap().group_by[0].expr, &env)
        };
        assert_eq!(card("srcIP"), Card::Finite(4096));
        assert_eq!(card("srcIP + destIP"), Card::Finite(4096 * 513));
        assert_eq!(card("prefix(srcIP, 24)"), Card::Finite(4096));
        assert_eq!(card("uts"), Card::Unbounded);
    }
}
