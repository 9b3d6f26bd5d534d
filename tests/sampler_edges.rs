//! Pins of the sampler classification's edge statements
//! (`tests/golden/sampler_edges.sql`): for each statement, audited on
//! its own under the `research` envelope at `--shards` 1 and 4, one line
//! with the sampler label, the per-supergroup and groups bounds, the
//! diagnostic codes, and `shard_plan`'s merge rule or refusal reason.
//! One line per statement, so a re-record shows which statements moved.
//!
//! A mismatch prints every actual line, ready to compare.

use stream_sampler::analysis::{audit_file, split_statements, AuditOptions};
use stream_sampler::prelude::*;
use stream_sampler::query::plan;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// What `shard_plan` makes of one planned statement.
fn verdict(text: &str) -> String {
    let query = parse_query(text).expect("statement parses");
    let schema = base_stream_schema(&query.from.text).expect("base stream");
    let spec = plan(&query, &schema, &PlannerConfig::standard()).expect("statement plans");
    match shard_plan(&spec) {
        Ok(p) => format!("{:?}", p.rule),
        Err(e) => format!("refused: {}", e.reason),
    }
}

/// One statement's line at `shards`.
fn line(index: usize, text: &str, shards: usize) -> String {
    let out = audit(text, shards);
    let codes: Vec<&str> = out.diagnostics.iter().map(|d| d.code.as_str()).collect();
    let [s] = &out.report.statements[..] else {
        // The analyzer refused the statement: nothing planned to bound.
        assert!(out.report.statements.is_empty(), "stmt{index}: one statement audited");
        return format!("{shards} stmt{index}: not planned; [{}]\n", codes.join(" "));
    };
    format!(
        "{shards} stmt{index}: {}; per-supergroup {}; groups {}; [{}]; {}\n",
        s.sampler.label(),
        s.per_supergroup_bound,
        s.groups_bound,
        codes.join(" "),
        verdict(text)
    )
}

const EDGE_LINES: &str = "\
1 stmt0: subset-sum(N=?); per-supergroup unbounded; groups 25000; [W201]; refused: ssample() target sample size is not a literal
1 stmt1: not planned; [E013]
1 stmt2: reservoir(n=?); per-supergroup unbounded; groups 25000; [W201]; refused: rsample() reservoir size is not a literal
1 stmt3: distinct(c=?); per-supergroup unbounded; groups 4096; [W201]; refused: distinct sampling keeps one global hash level per window; per-shard levels diverge and the union over-represents low-level shards
1 stmt4: lossy-count(w=?); per-supergroup unbounded; groups 4096; [W201]; Combine([Key, Key, Sum, Sum])
1 stmt5: basic-subset-sum(N=?); per-supergroup unbounded; groups 4096; []; refused: subset-sum query has no ssample() predicate
1 stmt6: basic-subset-sum(N=100); per-supergroup unbounded; groups 25000; []; Concat
1 stmt7: basic-reservoir(n=25); per-supergroup unbounded; groups 25000; []; Reservoir { n: 25 }
1 stmt8: basic-kmv(k=10); per-supergroup unbounded; groups 25000; []; KmvTruncate { key_cols: [1], hash_col: 2, k: 10 }
1 stmt9: subset-sum(N=5) + kmv(k=10); per-supergroup unbounded; groups 25000; [W201]; refused: query runs 2 sampling families, subset-sum(N=5) + kmv(k=10); merge rules are defined per single family
1 stmt10: basic-subset-sum(N=10) + basic-reservoir(n=5); per-supergroup unbounded; groups 1; [W201]; refused: query runs 2 sampling families, basic-subset-sum(N=10) + basic-reservoir(n=5); merge rules are defined per single family
1 stmt11: lossy-count(w=?) + basic-subset-sum(N=?) + basic-distinct(c=?); per-supergroup unbounded; groups 1; [W201]; refused: query runs 3 sampling families, lossy-count(w=?) + basic-subset-sum(N=?) + basic-distinct(c=?); merge rules are defined per single family
1 stmt12: basic-distinct(c=100); per-supergroup unbounded; groups 4096; [W201]; refused: distinct sampling keeps one global hash level per window; per-shard levels diverge and the union over-represents low-level shards
4 stmt0: subset-sum(N=?); per-supergroup unbounded; groups 25000; [W201 W203]; refused: ssample() target sample size is not a literal
4 stmt1: not planned; [E013]
4 stmt2: reservoir(n=?); per-supergroup unbounded; groups 25000; [W201 W203]; refused: rsample() reservoir size is not a literal
4 stmt3: distinct(c=?); per-supergroup unbounded; groups 4096; [W201 W203]; refused: distinct sampling keeps one global hash level per window; per-shard levels diverge and the union over-represents low-level shards
4 stmt4: lossy-count(w=?); per-supergroup unbounded; groups 4096; [W201]; Combine([Key, Key, Sum, Sum])
4 stmt5: basic-subset-sum(N=?); per-supergroup unbounded; groups 4096; [W203]; refused: subset-sum query has no ssample() predicate
4 stmt6: basic-subset-sum(N=100); per-supergroup unbounded; groups 25000; []; Concat
4 stmt7: basic-reservoir(n=25); per-supergroup unbounded; groups 25000; []; Reservoir { n: 25 }
4 stmt8: basic-kmv(k=10); per-supergroup unbounded; groups 25000; []; KmvTruncate { key_cols: [1], hash_col: 2, k: 10 }
4 stmt9: subset-sum(N=5) + kmv(k=10); per-supergroup unbounded; groups 25000; [W201 W203]; refused: query runs 2 sampling families, subset-sum(N=5) + kmv(k=10); merge rules are defined per single family
4 stmt10: basic-subset-sum(N=10) + basic-reservoir(n=5); per-supergroup unbounded; groups 1; [W201 W203]; refused: query runs 2 sampling families, basic-subset-sum(N=10) + basic-reservoir(n=5); merge rules are defined per single family
4 stmt11: lossy-count(w=?) + basic-subset-sum(N=?) + basic-distinct(c=?); per-supergroup unbounded; groups 1; [W201 W203]; refused: query runs 3 sampling families, lossy-count(w=?) + basic-subset-sum(N=?) + basic-distinct(c=?); merge rules are defined per single family
4 stmt12: basic-distinct(c=100); per-supergroup unbounded; groups 4096; [W201 W203]; refused: distinct sampling keeps one global hash level per window; per-shard levels diverge and the union over-represents low-level shards
";

#[test]
fn sampler_edge_lines_are_pinned() {
    let file = std::fs::read_to_string(format!("{ROOT}/tests/golden/sampler_edges.sql")).unwrap();
    let statements = split_statements(&file);
    assert_eq!(statements.len(), 13);
    let mut actual = String::new();
    for shards in [1, 4] {
        for (i, (_, text)) in statements.iter().enumerate() {
            actual += &line(i, text, shards);
        }
    }
    assert!(actual == EDGE_LINES, "sampler edge lines changed; actual:\n{actual}");
}

/// Audit `text` alone under the research envelope at `shards`.
fn audit(text: &str, shards: usize) -> stream_sampler::analysis::AuditOutcome {
    audit_file(text, &AuditOptions { feed: "research".into(), shards, ..AuditOptions::default() })
}

#[test]
fn computed_sizes_and_two_families_certify_no_sampler_cap() {
    // The §6.1 dynamic subset-sum and the reservoir query in 1 s windows,
    // each with a size the plan holds only as an expression.
    let computed = [
        (
            "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKTS \
             WHERE ssample(len, 50 * 2) = TRUE GROUP BY time/1 as tb, srcIP, destIP, uts \
             HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE \
             CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY ssclean_with(sum(len)) = TRUE",
            "subset-sum(N=?)",
            "the ssample() target sample size is not an integer literal",
            "uts",
        ),
        (
            "SELECT tb, srcIP, destIP FROM TCP WHERE rsample(5 * 5) = TRUE \
             GROUP BY time/1 as tb, srcIP, destIP \
             HAVING rsfinal_clean(count_distinct$(*)) = TRUE \
             CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY rsclean_with() = TRUE",
            "reservoir(n=?)",
            "the rsample() reservoir size is not an integer literal",
            "rsample(5 * 5)",
        ),
    ];
    // The caret: at the first unbounded group-by key (PKTS's `uts`), and
    // with every key bounded at the sampling call.
    for (text, label, cause, caret) in computed {
        let out = audit(text, 1);
        let s = &out.report.statements[0];
        assert_eq!(s.sampler.label(), label);
        assert!(!s.per_supergroup_bound.is_finite(), "{label}: {:?}", s.per_supergroup_bound);
        // Only the feed envelope bounds the table: 25k rows in a window.
        assert_eq!(s.groups_bound.finite(), Some(25_000), "{label}");
        let w201 = out.diagnostics.iter().find(|d| d.code.as_str() == "W201");
        let help = w201.and_then(|d| d.help.as_deref()).unwrap_or_default();
        assert!(help.contains(cause), "{label}: W201 help {help:?}");
        let span = w201.map(|d| d.span).expect("a W201");
        assert_eq!(&text[span.start..span.end], caret, "{label}: W201 caret");
    }

    // Min-hash and subset-sum in one WHERE: refused by a reason that names
    // both families, and neither family's cap (11 and 11) applies.
    let text = "SELECT tb, srcIP, HX, UMAX(sum(len), ssthreshold()) FROM TCP \
                WHERE HX <= Kth_smallest_value$(HX, 10) AND ssample(len, 5) = TRUE \
                GROUP BY time/1 as tb, srcIP, H(destIP) as HX SUPERGROUP tb, srcIP \
                CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE \
                CLEANING BY ssclean_with(sum(len)) = TRUE";
    let reason = verdict(text);
    assert!(
        reason.starts_with("refused: ")
            && reason.contains("subset-sum(N=5)")
            && reason.contains("kmv(k=10)"),
        "{reason}"
    );
    let out = audit(text, 4);
    let s = &out.report.statements[0];
    assert!(!s.per_supergroup_bound.is_finite(), "{:?}", s.per_supergroup_bound);
    assert!(!s.mergeable);
    assert!(out.diagnostics.iter().any(|d| d.code.as_str() == "W201"), "{:?}", out.diagnostics);
}

/// Distinct sampling without `ddo_clean`, the only call that raises the
/// hash level: `dsample()`'s capacity caps nothing, and W201 says so.
#[test]
fn distinct_sample_without_ddo_clean_certifies_no_cap() {
    let text = "SELECT tb, srcIP, count(*) FROM TCP WHERE dsample(srcIP, 100) = TRUE \
                GROUP BY time/1 as tb, srcIP";
    let out = audit(text, 1);
    let s = &out.report.statements[0];
    assert_eq!(s.sampler.label(), "basic-distinct(c=100)");
    assert!(!s.per_supergroup_bound.is_finite(), "{:?}", s.per_supergroup_bound);
    let w201 = out.diagnostics.iter().find(|d| d.code.as_str() == "W201");
    let help = w201.and_then(|d| d.help.as_deref()).unwrap_or_default();
    assert!(help.contains("ddo_clean()"), "W201 help {help:?}");
}
