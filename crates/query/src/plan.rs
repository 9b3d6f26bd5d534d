//! The planner's entry points: [`plan`] lowers a parsed [`Query`] to an
//! executable [`OperatorSpec`], and [`compile_packet_predicate`] lowers
//! a bare predicate to an [`Expr`]. Both are views of the one
//! resolution pass in [`mod@crate::analyze`], which resolves names per
//! clause scope, reports every problem and builds the spec.
//!
//! Window variables are inferred: a group-by expression referencing an
//! *ordered* schema attribute (e.g. `time/20 as tb` over
//! `time increasing`) defines the query window, exactly as Gigascope
//! determines evaluation windows by analyzing how queries reference
//! ordered attributes (§3).

use std::sync::Arc;

use sso_core::expr::{BinOp, Expr};
use sso_core::libs::distinct::{self, DistinctOpConfig};
use sso_core::libs::heavy_hitter;
use sso_core::libs::reservoir::{self, ReservoirOpConfig};
use sso_core::libs::subset_sum::{self, SubsetSumOpConfig};
use sso_core::operator::OperatorSpec;
use sso_core::sfun::SfunLibrary;
use sso_types::Schema;

use crate::ast::{AstExpr, BinAstOp, ExprKind, Query};
use crate::error::QueryError;

/// The libraries (and thereby algorithm parameters) available to
/// queries.
#[derive(Clone)]
pub struct PlannerConfig {
    /// SFUN libraries, searched in order for function names.
    pub libraries: Vec<Arc<SfunLibrary>>,
}

impl PlannerConfig {
    /// All four SFUN libraries with their default parameters.
    pub fn standard() -> Self {
        Self::with_configs(SubsetSumOpConfig::default(), ReservoirOpConfig::default())
    }

    /// All four SFUN libraries with explicit subset-sum and reservoir
    /// parameters (the paper's knobs: `N`, `γ`, `f`, `T`).
    pub fn with_configs(ss: SubsetSumOpConfig, rs: ReservoirOpConfig) -> Self {
        PlannerConfig {
            libraries: vec![
                Arc::new(subset_sum::library(ss)),
                Arc::new(reservoir::library(rs)),
                Arc::new(heavy_hitter::library()),
                Arc::new(distinct::library(DistinctOpConfig::default())),
            ],
        }
    }

    /// No libraries (aggregation/min-hash queries only).
    pub fn empty() -> Self {
        PlannerConfig { libraries: Vec::new() }
    }
}

/// Plan a parsed query into an operator spec.
///
/// The query is resolved once ([`crate::analyze::resolve`]); if any
/// diagnostic is an error the plan fails with [`QueryError::Analysis`]
/// carrying the full batch, and a spec that fails
/// [`OperatorSpec::validate`] with [`QueryError::Plan`].
///
/// The spec holds the config's own library objects, so every operator
/// planned from one config shares their state factories (the reservoir
/// library's instance counter, for one). Plan each independent operator
/// — each shard of a sharded run — from a config of its own.
pub fn plan(
    query: &Query,
    schema: &Schema,
    config: &PlannerConfig,
) -> Result<OperatorSpec, QueryError> {
    crate::analyze::resolve(query, schema, config).1
}

/// Compile a *pure tuple predicate* against a stream schema, outside of
/// any query: columns resolve directly (no group-by variables) and only
/// scalar functions are allowed — no aggregates, superaggregates, or
/// stateful functions. This is the lowering used for shared prefilters
/// hoisted by `sso-rewrite`: the resulting [`Expr`] can be evaluated
/// against raw tuples with no operator state. Errors are
/// [`QueryError::Analysis`].
pub fn compile_packet_predicate(e: &AstExpr, schema: &Schema) -> Result<Expr, QueryError> {
    crate::analyze::packet_predicate(e, schema)
}

pub(crate) fn bin_op(op: BinAstOp) -> BinOp {
    match op {
        BinAstOp::Add => BinOp::Add,
        BinAstOp::Sub => BinOp::Sub,
        BinAstOp::Mul => BinOp::Mul,
        BinAstOp::Div => BinOp::Div,
        BinAstOp::Rem => BinOp::Rem,
        BinAstOp::Eq => BinOp::Eq,
        BinAstOp::Ne => BinOp::Ne,
        BinAstOp::Lt => BinOp::Lt,
        BinAstOp::Le => BinOp::Le,
        BinAstOp::Gt => BinOp::Gt,
        BinAstOp::Ge => BinOp::Ge,
        BinAstOp::And => BinOp::And,
        BinAstOp::Or => BinOp::Or,
    }
}

/// Does this (GROUP BY) expression reference an ordered schema column?
pub(crate) fn references_ordered_column(e: &AstExpr, schema: &Schema) -> bool {
    let mut ordered = false;
    e.walk(&mut |node| {
        ordered |= matches!(&node.kind, ExprKind::Ident(name) if schema.is_ordered(name));
    });
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use sso_types::Packet;

    fn pkt_schema() -> Schema {
        Packet::schema()
    }

    fn plan_text(text: &str) -> Result<OperatorSpec, QueryError> {
        let q = parse_query(text).unwrap();
        plan(&q, &pkt_schema(), &PlannerConfig::standard())
    }

    #[test]
    fn plans_simple_aggregation() {
        let spec = plan_text(
            "SELECT tb, srcIP, sum(len), count(*) FROM PKT GROUP BY time/60 as tb, srcIP",
        )
        .unwrap();
        assert_eq!(spec.group_by.len(), 2);
        assert_eq!(spec.window_indices, vec![0], "time/60 defines the window");
        assert_eq!(spec.aggregates.len(), 2);
        assert_eq!(spec.select.len(), 4);
        assert!(spec.sfun_libs.is_empty());
    }

    #[test]
    fn dedupes_repeated_aggregates() {
        let spec = plan_text(
            "SELECT sum(len), sum(len), sum(len) + count(*) FROM PKT GROUP BY time/60 as tb",
        )
        .unwrap();
        assert_eq!(spec.aggregates.len(), 2, "sum(len) appears once, count(*) once");
    }

    #[test]
    fn plans_the_papers_subset_sum_query() {
        let spec = plan_text(
            "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) \
             FROM PKT \
             WHERE ssample(len, 100) = TRUE \
             GROUP BY time/20 as tb, srcIP, destIP, uts \
             HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE \
             CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY ssclean_with(sum(len)) = TRUE",
        )
        .unwrap();
        assert_eq!(spec.window_indices, vec![0]);
        assert!(spec.supergroup_indices.is_empty(), "default ALL supergroup");
        assert_eq!(spec.sfun_libs.len(), 1);
        assert_eq!(spec.sfun_libs[0].name(), "subsetsum_sampling_state");
        assert_eq!(spec.superaggs.len(), 1, "count_distinct$ deduped");
        assert_eq!(spec.aggregates.len(), 1, "sum(len) deduped");
    }

    #[test]
    fn plans_the_papers_minhash_query() {
        let spec = plan_text(
            "SELECT tb, srcIP, HX \
             FROM PKT \
             WHERE HX <= Kth_smallest_value$(HX, 100) \
             GROUP_BY time/60 as tb, srcIP, H(destIP) as HX \
             SUPERGROUP BY tb, srcIP \
             HAVING HX <= Kth_smallest_value$(HX, 100) \
             CLEANING WHEN count_distinct$(*) > 100 \
             CLEANING BY HX <= Kth_smallest_value$(HX, 100)",
        )
        .unwrap();
        assert_eq!(spec.window_indices, vec![0]);
        // tb is ordered and therefore implicit; srcIP remains.
        assert_eq!(spec.supergroup_indices, vec![1]);
        assert_eq!(spec.superaggs.len(), 2, "kth_smallest and count_distinct");
        assert!(spec.sfun_libs.is_empty());
    }

    #[test]
    fn plans_the_papers_heavy_hitter_query() {
        let spec = plan_text(
            "SELECT tb, srcIP, sum(len), count(*) \
             FROM PKT \
             GROUP BY time/60 as tb, srcIP \
             CLEANING WHEN local_count(100) = TRUE \
             CLEANING BY count(*) + first(current_bucket()) > current_bucket()",
        )
        .unwrap();
        assert_eq!(spec.sfun_libs.len(), 1);
        assert_eq!(spec.sfun_libs[0].name(), "heavy_hitter_state");
        // sum, count, first(current_bucket()).
        assert_eq!(spec.aggregates.len(), 3);
    }

    #[test]
    fn plans_the_papers_reservoir_query() {
        let spec = plan_text(
            "SELECT tb, srcIP, destIP \
             FROM PKT \
             WHERE rsample(100) = TRUE \
             GROUP_BY time/60 as tb, srcIP, destIP \
             HAVING rsfinal_clean(count_distinct$(*)) = TRUE \
             CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY rsclean_with() = TRUE",
        )
        .unwrap();
        assert_eq!(spec.sfun_libs.len(), 1);
        assert_eq!(spec.sfun_libs[0].name(), "reservoir_sampling_state");
    }

    #[test]
    fn sum_superaggregate_pairs_a_group_aggregate() {
        let spec = plan_text(
            "SELECT tb, srcIP, sum$(len) FROM PKT GROUP BY time/60 as tb, srcIP \
             SUPERGROUP srcIP",
        )
        .unwrap();
        assert_eq!(spec.superaggs.len(), 1);
        assert_eq!(spec.aggregates.len(), 1, "paired sum(len) auto-added");
    }

    #[test]
    fn avg_rewrites_to_float_sum_over_count() {
        let spec = plan_text("SELECT tb, avg(len) FROM PKT GROUP BY time/60 as tb").unwrap();
        // avg adds sum(len) and count(*) slots.
        assert_eq!(spec.aggregates.len(), 2);
        // And it dedupes against explicit uses.
        let spec =
            plan_text("SELECT tb, avg(len), sum(len), count(*) FROM PKT GROUP BY time/60 as tb")
                .unwrap();
        assert_eq!(spec.aggregates.len(), 2);
    }

    #[test]
    fn min_max_superaggregates_plan() {
        let spec = plan_text(
            "SELECT tb, srcIP, HX FROM PKT \
             WHERE HX <= max$(HX) GROUP BY time/60 as tb, srcIP, H(destIP) as HX \
             SUPERGROUP srcIP HAVING HX > min$(HX)",
        )
        .unwrap();
        assert_eq!(spec.superaggs.len(), 2);
    }

    #[test]
    fn prefix_scalar_groups_by_subnet() {
        let spec = plan_text(
            "SELECT net, sum(len) FROM PKT GROUP BY time/60 as tb, prefix(srcIP, 24) as net",
        )
        .unwrap();
        assert_eq!(spec.group_by.len(), 2);
    }

    #[test]
    fn distinct_sampling_query_plans_from_text() {
        let spec = plan_text(
            "SELECT tb, srcIP, count(*), dscale() FROM PKT \
             WHERE dsample(srcIP, 256) = TRUE \
             GROUP BY time/60 as tb, srcIP \
             CLEANING WHEN ddo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY dclean_with(srcIP) = TRUE",
        )
        .unwrap();
        assert_eq!(spec.sfun_libs.len(), 1);
        assert_eq!(spec.sfun_libs[0].name(), "distinct_sampling_state");
    }

    #[test]
    fn semantic_errors() {
        // Unknown column.
        let e = plan_text("SELECT nope FROM PKT GROUP BY time/60 as tb").unwrap_err();
        assert!(e.to_string().contains("nope"), "{e}");
        // Aggregate in WHERE.
        let e =
            plan_text("SELECT tb FROM PKT WHERE sum(len) > 1 GROUP BY time/60 as tb").unwrap_err();
        assert!(e.to_string().contains("not allowed"), "{e}");
        // Raw column in SELECT that is not grouped.
        let e = plan_text("SELECT len FROM PKT GROUP BY time/60 as tb").unwrap_err();
        assert!(e.to_string().contains("group-by variable"), "{e}");
        // Unknown supergroup variable.
        let e =
            plan_text("SELECT tb FROM PKT GROUP BY time/60 as tb SUPERGROUP bogus").unwrap_err();
        assert!(e.to_string().contains("bogus"), "{e}");
        // Unknown function.
        let e = plan_text("SELECT tb, zap(len) FROM PKT GROUP BY time/60 as tb").unwrap_err();
        assert!(e.to_string().contains("unknown function"), "{e}");
        // Unknown superaggregate.
        let e = plan_text("SELECT tb, weird$(*) FROM PKT GROUP BY time/60 as tb").unwrap_err();
        assert!(e.to_string().contains("unknown superaggregate"), "{e}");
        // Duplicate group-by names.
        let e = plan_text("SELECT tb FROM PKT GROUP BY time/60 as tb, len as tb").unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
        // Bare star.
        let e = plan_text("SELECT * FROM PKT GROUP BY time/60 as tb").unwrap_err();
        assert!(e.to_string().contains("only valid"), "{e}");
    }

    #[test]
    fn kth_smallest_requires_literal_k_and_gb_key() {
        let e = plan_text(
            "SELECT tb FROM PKT WHERE len <= Kth_smallest_value$(len, 10) \
             GROUP BY time/60 as tb",
        )
        .unwrap_err();
        assert!(e.to_string().contains("group-by variable"), "{e}");
        let e = plan_text(
            "SELECT tb FROM PKT WHERE tb <= Kth_smallest_value$(tb, 0) GROUP BY time/60 as tb",
        )
        .unwrap_err();
        assert!(e.to_string().contains("positive integer"), "{e}");
    }

    #[test]
    fn group_by_variables_shadow_columns() {
        // srcIP is both a column and (by naming) a group-by variable;
        // SELECT resolves it as the group-by var.
        let spec = plan_text("SELECT srcIP FROM PKT GROUP BY time/60 as tb, srcIP").unwrap();
        match &spec.select[0].1 {
            Expr::GroupVar(1) => {}
            other => panic!("expected GroupVar(1), got {other:?}"),
        }
    }

    #[test]
    fn compile_and_run_end_to_end() {
        use crate::compile;
        use sso_types::{Protocol, Value};
        let mut op = compile(
            "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/2 as tb",
            &pkt_schema(),
            &PlannerConfig::standard(),
        )
        .unwrap();
        let mut tuples = Vec::new();
        for s in 0..4u64 {
            for i in 0..10u64 {
                let p = Packet {
                    uts: s * 1_000_000_000 + i,
                    src_ip: 1,
                    dest_ip: 2,
                    src_port: 3,
                    dest_port: 4,
                    proto: Protocol::Tcp,
                    len: 100,
                };
                tuples.push(p.to_tuple());
            }
        }
        let outs = op.run(tuples.iter()).unwrap();
        assert_eq!(outs.len(), 2);
        for o in &outs {
            assert_eq!(o.rows[0].get(1), &Value::U64(2000));
            assert_eq!(o.rows[0].get(2), &Value::U64(20));
        }
    }
}
