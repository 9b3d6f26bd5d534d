//! # sso-analysis
//!
//! A static audit pass over compiled query plans: abstract
//! interpretation that certifies, *without executing anything*,
//!
//! * a **memory ceiling** per query — the paper's closed-form state
//!   bounds (reservoir O(T·n), subset-sum O(γ·N), lossy counting
//!   O((1/ε)·log εN), distinct/KMV O(k)) evaluated symbolically against
//!   declared feed envelopes ([`sso_netgen::profile`]),
//! * a **router-skew verdict** — whether the sharded runtime's
//!   partition key can actually reach the requested shard count,
//! * **weight soundness** — whether a subset-sum weight is provably
//!   non-negative, as the operator's threshold pass needs (W204).
//!
//! The pass walks a query file the way the runtime wires it
//! (consecutive statements cascade), carries an abstract state along
//! each edge, and emits a [`BoundsReport`] — a machine-readable
//! certificate the CLI prints as JSON, CI diffs against golden
//! snapshots, and the runtime converts into [`sso_core::SizingHints`]
//! to pre-size group tables and rings.
//!
//! Soundness contract: every transfer function only loses precision
//! upward (toward `Unbounded`), so a `Finite(n)` anywhere in the report
//! is a true upper bound on the concrete peak — the dynamic
//! cross-check tests in the workspace root assert observed peak live
//! groups ≤ certified ceiling on real traffic.
//!
//! The crate's `clippy.toml` bans every execution path (operator
//! instantiation, trace generators, plan runners, threads, clocks):
//! auditing a corpus is pure computation over the plan and must stay
//! fast enough for a pre-commit hook.

pub mod audit;
pub mod bounds;
pub mod domain;
pub mod lint;
pub mod report;

pub use audit::{
    audit_file, split_statements, walk_cascade, AuditOptions, AuditOutcome, Auditor, Level,
    Statement,
};
pub use domain::{AbstractState, Card, SkewClass};
pub use report::{BoundsReport, StatementBounds};

#[cfg(test)]
mod tests {
    use super::*;
    use sso_core::queries::EXAMPLE_QUERIES;
    use sso_query::diag::Code;

    fn audit_example(idx: usize, opts: &AuditOptions) -> AuditOutcome {
        let (name, text) = EXAMPLE_QUERIES[idx];
        let out = audit_file(text, opts);
        assert!(!out.has_errors(), "{name} should audit without errors");
        assert_eq!(out.report.statements.len(), 1, "{name}");
        out
    }

    #[test]
    fn every_mergeable_example_certifies_a_finite_ceiling() {
        let opts = AuditOptions::default();
        for (idx, (name, _)) in EXAMPLE_QUERIES.iter().enumerate() {
            let out = audit_example(idx, &opts);
            let s = &out.report.statements[0];
            if s.mergeable {
                assert!(
                    s.state_bytes.is_finite(),
                    "{name}: mergeable example must certify a finite ceiling, got {:?}",
                    s.state_bytes
                );
            }
        }
    }

    #[test]
    fn golden_bounds_for_every_example_query() {
        // The certified numbers under the research envelope
        // (25k rows/s). These are load-bearing: a planner or library
        // change that silently weakens a bound must show up here.
        let opts = AuditOptions::default();
        let golden: &[(&str, &str, Option<u64>, Option<u64>)] = &[
            // (name, sampler label, groups_bound, per-supergroup bound)
            ("total_sum_query", "exact", Some(1), None),
            ("subset_sum_query", "subset-sum(N=100)", Some(201), Some(201)),
            ("basic_subset_sum_query", "basic-subset-sum(N=1)", Some(1_500_000), None),
            ("heavy_hitters_query", "lossy-count(w=100)", Some(1062), Some(1062)),
            ("minhash_query", "kmv(k=10)", Some(45_056), Some(11)),
            ("distinct_sample_query", "distinct(c=256)", Some(257), Some(257)),
            ("reservoir_query", "reservoir(n=25)", Some(626), Some(626)),
        ];
        for (idx, &(name, sampler, groups, per_sg)) in golden.iter().enumerate() {
            assert_eq!(EXAMPLE_QUERIES[idx].0, name, "example order changed");
            let out = audit_example(idx, &opts);
            let s = &out.report.statements[0];
            assert_eq!(s.sampler.label(), sampler, "{name}");
            assert_eq!(s.groups_bound.finite(), groups, "{name} groups_bound");
            assert_eq!(s.per_supergroup_bound.finite(), per_sg, "{name} per-supergroup");
            assert_eq!(s.window_secs, Some(60), "{name} window");
            assert_eq!(s.rows_per_sec.finite(), Some(25_000), "{name} rate");
        }
    }

    #[test]
    fn unbounded_group_key_without_sampler_raises_w201() {
        // No window, unbounded key, no sampling clause: nothing caps
        // the group table.
        let out =
            audit_file("SELECT uts, count(*) FROM PKT GROUP BY uts", &AuditOptions::default());
        assert!(!out.has_errors());
        let w201: Vec<_> = out.diagnostics.iter().filter(|d| d.code == Code::W201).collect();
        assert_eq!(w201.len(), 1, "diags: {:?}", out.diagnostics);
        assert!(!out.report.statements[0].state_bytes.is_finite());
    }

    #[test]
    fn narrow_partition_key_raises_w202() {
        // proto has cardinality 2 under every envelope; 8 shards can
        // never all be reached.
        let out = audit_file(
            "SELECT tb, proto, sum(len) FROM PKT GROUP BY time/60 as tb, proto",
            &AuditOptions { shards: 8, ..AuditOptions::default() },
        );
        assert!(out.diagnostics.iter().any(|d| d.code == Code::W202), "{:?}", out.diagnostics);
        assert_eq!(out.report.statements[0].skew.as_str(), "narrow");
    }

    #[test]
    fn w202_verdict_is_stated_per_router_lane() {
        // The one router's verdict names no lanes.
        let query = "SELECT tb, proto, sum(len) FROM PKT GROUP BY time/60 as tb, proto";
        let out = audit_file(query, &AuditOptions { shards: 8, ..Default::default() });
        let w202 = out.diagnostics.iter().find(|d| d.code == Code::W202).expect("W202 fires");
        assert!(!w202.message.contains("router lanes"), "{}", w202.message);
    }

    #[test]
    fn non_mergeable_plan_with_shards_raises_w203() {
        // Distinct sampling is not shard-mergeable.
        let out = audit_file(
            EXAMPLE_QUERIES[5].1,
            &AuditOptions { shards: 4, ..AuditOptions::default() },
        );
        assert!(out.diagnostics.iter().any(|d| d.code == Code::W203), "{:?}", out.diagnostics);
        assert!(!out.report.statements[0].mergeable);
        // At one shard the same plan is silent.
        let out = audit_file(EXAMPLE_QUERIES[5].1, &AuditOptions::default());
        assert!(out.diagnostics.iter().all(|d| d.code != Code::W203));
    }

    #[test]
    fn unprovable_subset_sum_weight_raises_w204() {
        let out = audit_file(
            "SELECT tb, srcIP, sum(len) FROM PKT WHERE ssample(len - 1500, 10) = TRUE \
             GROUP BY time/60 as tb, srcIP",
            &AuditOptions::default(),
        );
        assert!(out.diagnostics.iter().any(|d| d.code == Code::W204), "{:?}", out.diagnostics);
        // A plain column weight is provably non-negative: no W204.
        let out = audit_file(EXAMPLE_QUERIES[1].1, &AuditOptions::default());
        assert!(out.diagnostics.iter().all(|d| d.code != Code::W204));
    }

    #[test]
    fn tiny_state_budget_raises_w206() {
        let page = sso_core::snapshot::PAGE_BYTES as u64;
        // One page split across 4 shards is under the two-page floor.
        let tiny = AuditOptions { shards: 4, state_budget: Some(page), ..AuditOptions::default() };
        let out = audit_file(EXAMPLE_QUERIES[1].1, &tiny);
        assert!(out.diagnostics.iter().any(|d| d.code == Code::W206), "{:?}", out.diagnostics);
        // Two pages per shard is exactly the floor: silent.
        let ok =
            AuditOptions { shards: 4, state_budget: Some(8 * page), ..AuditOptions::default() };
        let out = audit_file(EXAMPLE_QUERIES[1].1, &ok);
        assert!(out.diagnostics.iter().all(|d| d.code != Code::W206));
        // No budget, no lint.
        let out = audit_file(EXAMPLE_QUERIES[1].1, &AuditOptions::default());
        assert!(out.diagnostics.iter().all(|d| d.code != Code::W206));
    }

    #[test]
    fn budget_verdict() {
        let over = AuditOptions { budget: Some(1), ..AuditOptions::default() };
        let out = audit_file(EXAMPLE_QUERIES[6].1, &over);
        assert!(out.budget_exceeded());
        let under = AuditOptions { budget: Some(u64::MAX), ..AuditOptions::default() };
        let out = audit_file(EXAMPLE_QUERIES[6].1, &under);
        assert!(!out.budget_exceeded());
        // An unbounded statement always violates a finite budget.
        let out = audit_file("SELECT uts, count(*) FROM PKT GROUP BY uts", &over);
        assert!(out.budget_exceeded());
    }

    #[test]
    fn cascade_high_inherits_certified_low_rate() {
        // Low: 60s reservoir per (tb, srcIP); high: per-minute rollup of
        // the low's output. The high's input rate is the low's ceiling
        // amortized over its window.
        let text = "SELECT tb, srcIP, count(*) as cnt FROM TCP \
                    WHERE rsample(25) = TRUE \
                    GROUP BY time/60 as tb, srcIP \
                    CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE \
                    CLEANING BY rsclean_with() = TRUE;\n\
                    SELECT tb, sum(cnt) FROM LOW GROUP BY tb";
        let out = audit_file(text, &AuditOptions::default());
        assert!(!out.has_errors(), "{:?}", out.diagnostics);
        assert_eq!(out.report.statements.len(), 2);
        let low = &out.report.statements[0];
        let high = &out.report.statements[1];
        // 626 groups per 60s window → ceil(626/60) = 11 rows/sec.
        assert_eq!(low.groups_bound, Card::Finite(626));
        assert_eq!(high.rows_per_sec, Card::Finite(11));
        // GROUP BY a bare window passthrough is a 60s window upstream.
        assert_eq!(high.window_secs, Some(60));
        assert!(high.state_bytes.is_finite());
    }

    #[test]
    fn unknown_feed_audits_with_no_envelope() {
        let opts = AuditOptions { feed: "nonexistent".into(), ..AuditOptions::default() };
        let out = audit_file(EXAMPLE_QUERIES[6].1, &opts);
        let s = &out.report.statements[0];
        assert!(!s.rows_per_sec.is_finite());
        // The reservoir cap still bounds state without any envelope.
        assert_eq!(s.groups_bound, Card::Finite(626));
    }
}
