//! Cascade push-down lint (W101).
//!
//! Gigascope splits queries into a low-level partial aggregation and a
//! high-level re-aggregation (§3, §7.2). The split is only correct when
//! the high query *re-aggregates* the partials: `sum` over a partial
//! `sum` or partial `count` is exact, but `count(*)` over partials
//! counts partial tuples (not packets), `avg` over partials is skewed
//! by uneven partial sizes, and `first`/`last` see partial-flush order
//! rather than packet order.
//!
//! [`check_pushdown`] takes the low and high queries of a cascade pair
//! and reports every aggregate in the high query that is not
//! partial-aggregation-safe over the low query's outputs.

use sso_query::ast::{AstExpr, ExprKind};
use sso_query::diag::{Code, Diagnostic};
use sso_query::Query;

/// How a low-level output column was produced, which determines what
/// the high level may do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PartialKind {
    /// A group key (or plain expression): safe everywhere.
    Key,
    /// A partial `sum(...)`: re-aggregate with `sum`.
    Sum,
    /// A partial `count(*)`: re-aggregate with `sum`.
    Count,
    /// A partial `min(...)`: only `min` re-aggregates it.
    Min,
    /// A partial `max(...)`: only `max` re-aggregates it.
    Max,
    /// `avg` / `first` / `last` / superaggregates: no exact
    /// re-aggregation exists.
    Fragile,
}

/// The classified output columns of the low-level query.
struct LowOutputs {
    columns: Vec<(String, PartialKind)>,
}

impl LowOutputs {
    fn kind_of(&self, name: &str) -> Option<PartialKind> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, k)| *k)
    }

    /// The first partial-count column, if the low level kept one.
    fn count_column(&self) -> Option<&str> {
        self.columns.iter().find(|(_, k)| *k == PartialKind::Count).map(|(n, _)| n.as_str())
    }
}

/// Classify a low query's SELECT list. Returns `None` when the low
/// query performs no aggregation (a pure selection forwards raw tuples,
/// so every high-level aggregate is safe).
fn classify_low(low: &Query) -> Option<LowOutputs> {
    let mut columns = Vec::new();
    let mut any_agg = false;
    for (i, item) in low.select.iter().enumerate() {
        let name = item.output_name(i);
        let kind = match &item.expr.kind {
            ExprKind::Call { name: f, superagg: false, .. } => {
                match f.to_ascii_lowercase().as_str() {
                    "sum" => PartialKind::Sum,
                    "count" => PartialKind::Count,
                    "min" => PartialKind::Min,
                    "max" => PartialKind::Max,
                    "avg" | "first" | "last" => PartialKind::Fragile,
                    _ => PartialKind::Key,
                }
            }
            ExprKind::Call { superagg: true, .. } => PartialKind::Fragile,
            _ => PartialKind::Key,
        };
        if kind != PartialKind::Key {
            any_agg = true;
        }
        columns.push((name, kind));
    }
    if any_agg {
        Some(LowOutputs { columns })
    } else {
        None
    }
}

/// Lint a low/high cascade pair: report every aggregate in the high
/// query whose push-down over the low query's partial outputs is not
/// partial-aggregation-safe. Spans point into the *high* query's text.
pub fn check_pushdown(low: &Query, high: &Query) -> Vec<Diagnostic> {
    match classify_low(low) {
        Some(outputs) => check_high(high, &outputs),
        None => Vec::new(),
    }
}

fn check_high(high: &Query, low: &LowOutputs) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut exprs: Vec<&AstExpr> = high.select.iter().map(|s| &s.expr).collect();
    exprs.extend(high.where_clause.iter());
    exprs.extend(high.having.iter());
    exprs.extend(high.cleaning_when.iter());
    exprs.extend(high.cleaning_by.iter());
    for e in exprs {
        e.walk(&mut |node| check_call(node, low, &mut diags));
    }
    diags
}

fn check_call(node: &AstExpr, low: &LowOutputs, diags: &mut Vec<Diagnostic>) {
    let ExprKind::Call { name, superagg, args } = &node.kind else { return };
    if *superagg {
        if name.eq_ignore_ascii_case("count_distinct") {
            diags.push(
                Diagnostic::new(
                    Code::W101,
                    node.span,
                    "count_distinct$ over a partial-aggregate stream counts distinct \
                     partial tuples, not distinct raw tuples",
                )
                .with_help(
                    "distinct counting does not survive partial aggregation; run it \
                     at the low level or over the raw stream",
                ),
            );
        }
        return;
    }
    let lower = name.to_ascii_lowercase();
    // The argument's partial kind, when it is a bare low-output column.
    let arg_kind = match args.first().map(|a| &a.kind) {
        Some(ExprKind::Ident(col)) => low.kind_of(col),
        _ => None,
    };
    let arg_name = match args.first().map(|a| &a.kind) {
        Some(ExprKind::Ident(col)) => col.as_str(),
        _ => "",
    };
    match lower.as_str() {
        "count" => {
            let help = match low.count_column() {
                Some(cnt) => format!("re-aggregate the low level's partial count: `sum({cnt})`"),
                None => "add a `count(*)` column to the low-level query and sum it \
                         here"
                    .to_string(),
            };
            diags.push(
                Diagnostic::new(
                    Code::W101,
                    node.span,
                    "count(*) over a partial-aggregate stream counts partial tuples, \
                     not raw tuples",
                )
                .with_help(help),
            );
        }
        "avg" => diags.push(
            Diagnostic::new(
                Code::W101,
                node.span,
                "avg over a partial-aggregate stream is skewed by uneven partial \
                 sizes",
            )
            .with_help(match low.count_column() {
                Some(cnt) => format!(
                    "compute the exact mean from re-aggregated partials: \
                     `sum({arg_name}) * 1.0 / sum({cnt})`",
                ),
                None => "carry a partial count at the low level and divide the \
                         re-aggregated sum by its sum"
                    .to_string(),
            }),
        ),
        "first" | "last" => {
            if matches!(
                arg_kind,
                Some(
                    PartialKind::Sum
                        | PartialKind::Count
                        | PartialKind::Min
                        | PartialKind::Max
                        | PartialKind::Fragile
                )
            ) {
                diags.push(
                    Diagnostic::new(
                        Code::W101,
                        node.span,
                        format!(
                            "{lower}(`{arg_name}`) over a partial-aggregate stream \
                             observes partial-flush order, not raw arrival order"
                        ),
                    )
                    .with_help("first/last do not survive partial aggregation"),
                );
            }
        }
        "min" | "max" => {
            let safe = matches!(
                (lower.as_str(), arg_kind),
                ("min", Some(PartialKind::Min))
                    | ("max", Some(PartialKind::Max))
                    | (_, Some(PartialKind::Key))
                    | (_, None)
            );
            if !safe {
                diags.push(
                    Diagnostic::new(
                        Code::W101,
                        node.span,
                        format!(
                            "{lower}(`{arg_name}`) over a partial aggregate is the \
                             {lower} of partial values, not of raw tuples"
                        ),
                    )
                    .with_help(format!(
                        "only `{lower}` over a low-level `{lower}` column \
                         re-aggregates exactly"
                    )),
                );
            }
        }
        "sum" => {
            if matches!(arg_kind, Some(PartialKind::Min | PartialKind::Max | PartialKind::Fragile))
            {
                diags.push(
                    Diagnostic::new(
                        Code::W101,
                        node.span,
                        format!(
                            "sum(`{arg_name}`) adds up partial values that are not \
                             additive"
                        ),
                    )
                    .with_help("only partial sums and partial counts are additive"),
                );
            }
        }
        _ => {}
    }
}

/// Cascade node cost: the row rate the high level of a cascade
/// observes. A low-level operator emits at most its certified group
/// ceiling once per window, so the high level's input rate is that
/// ceiling amortized over the window — the quantity the static audit
/// propagates through cascade edges in place of the raw feed rate.
///
/// A zero-second window (no window variable recognised) degenerates to
/// "the whole ceiling every second", the conservative choice.
pub fn cascade_output_rate(low_groups_bound: u64, low_window_secs: u64) -> u64 {
    low_groups_bound.div_ceil(low_window_secs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_query::parse_query;

    const LOW: &str = "SELECT tb, srcIP, destIP, sum(len) as len, count(*) as cnt \
                       FROM PKT GROUP BY time/1 as tb, srcIP, destIP";

    fn pair(high: &str) -> Vec<Diagnostic> {
        let low = parse_query(LOW).unwrap();
        let high = parse_query(high).unwrap();
        check_pushdown(&low, &high)
    }

    #[test]
    fn exact_reaggregation_is_clean() {
        let d = pair(
            "SELECT tb2, destIP, sum(len), sum(cnt) FROM PKTAGG \
             GROUP BY tb/60 as tb2, destIP",
        );
        assert_eq!(d, vec![]);
    }

    #[test]
    fn count_star_over_partials_is_flagged() {
        let src = "SELECT tb2, destIP, count(*) FROM PKTAGG GROUP BY tb/60 as tb2, destIP";
        let d = pair(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::W101);
        assert!(d[0].message.contains("partial tuples"));
        assert!(d[0].help.as_deref().unwrap().contains("sum(cnt)"));
        // The span covers the offending call in the high query's text.
        assert_eq!(&src[d[0].span.start..d[0].span.end], "count(*)");
    }

    #[test]
    fn avg_and_order_sensitive_aggregates_are_flagged() {
        let d = pair("SELECT tb2, avg(len) FROM PKTAGG GROUP BY tb/60 as tb2");
        assert!(d.iter().any(|d| d.code == Code::W101 && d.message.contains("avg")));
        let d = pair("SELECT tb2, first(len), last(cnt) FROM PKTAGG GROUP BY tb/60 as tb2");
        assert_eq!(d.iter().filter(|d| d.code == Code::W101).count(), 2);
    }

    #[test]
    fn min_max_only_reaggregate_their_own_kind() {
        let low = parse_query(
            "SELECT tb, srcIP, min(len) as lo, max(len) as hi FROM PKT \
             GROUP BY time/1 as tb, srcIP",
        )
        .unwrap();
        let ok = parse_query("SELECT tb2, min(lo), max(hi) FROM S GROUP BY tb/60 as tb2").unwrap();
        assert_eq!(check_pushdown(&low, &ok), vec![]);
        let bad = parse_query("SELECT tb2, min(hi), sum(lo) FROM S GROUP BY tb/60 as tb2").unwrap();
        let d = check_pushdown(&low, &bad);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.code == Code::W101));
    }

    #[test]
    fn selection_low_level_is_always_safe() {
        // A pure selection low query forwards raw tuples; counting them
        // at the high level is exact.
        let low =
            parse_query("SELECT tb, srcIP, len FROM PKT GROUP BY time/1 as tb, srcIP").unwrap();
        let high =
            parse_query("SELECT tb2, count(*), avg(len) FROM S GROUP BY tb/60 as tb2").unwrap();
        assert_eq!(check_pushdown(&low, &high), vec![]);
    }

    #[test]
    fn count_distinct_does_not_survive_partials() {
        let d = pair(
            "SELECT tb2, destIP FROM PKTAGG GROUP BY tb/60 as tb2, destIP \
             CLEANING WHEN count_distinct$(*) > 100 \
             CLEANING BY sum(cnt) > 10",
        );
        assert!(d.iter().any(|d| d.message.contains("distinct")), "{d:?}");
    }
}
