//! The `sso-rewrite` contract: sharing rewrites change *work*, never
//! *output*, and every applied rewrite is certified.
//!
//! - golden: the example corpus is un-shareable by construction (every
//!   WHERE leads with a stateful sampler), so `sso optimize` over it is
//!   a fixed point — empty certificate, no diagnostics, stable JSON;
//! - property: on generated query pairs, shared execution built from a
//!   verified certificate is `(window, rows)`-identical to unshared;
//! - the certificate is consumed: a tampered trace never yields a
//!   runnable plan;
//! - lint triggers: W103 (check-time duplicate prefilter) and
//!   W301–W304 each fire on a minimal witness, with spans on every
//!   involved statement.

use proptest::prelude::*;
use stream_sampler::gigascope::{
    run_fanout_shared, FanoutReport, SelectionNode, SharedGroup, SharedQueryPlan,
};
use stream_sampler::netgen::research_feed;
use stream_sampler::prelude::*;
use stream_sampler::query::{compile_packet_predicate, Code};
use stream_sampler::rewrite::{check_file, optimize_file, OptimizeOptions, OptimizeOutcome};

fn optimize(text: &str) -> OptimizeOutcome {
    optimize_file(text, &OptimizeOptions::default())
}

fn explain(text: &str) -> OptimizeOutcome {
    optimize_file(text, &OptimizeOptions { apply: false, ..OptimizeOptions::default() })
}

fn codes(o: &OptimizeOutcome) -> Vec<Code> {
    o.diagnostics.iter().map(|d| d.code).collect()
}

/// Compile `text` (one query per `;`) and run all consumers unshared.
fn unshared(text: &str, packets: &[Packet]) -> FanoutReport {
    let schema = stream_sampler::query::base_stream_schema("PKT").unwrap();
    let config = PlannerConfig::standard();
    let highs = stream_sampler::analysis::split_statements(text)
        .iter()
        .enumerate()
        .map(|(i, (_, stmt))| {
            let op = stream_sampler::query::compile(stmt, &schema, &config).expect("compile");
            (format!("q{}", i + 1), op)
        })
        .collect::<Vec<_>>();
    let plan = SharedQueryPlan::unshared(highs);
    run_fanout_shared(Box::new(SelectionNode::pass_all()), plan, packets.to_vec())
        .expect("unshared run")
}

/// Build and run the optimizer's shared plan (certificate verified by
/// `build_shared`) for a single-cluster file.
fn shared(outcome: &OptimizeOutcome, packets: &[Packet]) -> FanoutReport {
    let plans = outcome.build_shared().expect("certificate verifies");
    assert_eq!(plans.len(), 1, "expected one cluster");
    let plan = &plans[0];
    let groups = plan
        .groups
        .iter()
        .map(|(spec, consumers)| SharedGroup {
            op: SamplingOperator::new(spec.clone()).expect("instantiate"),
            consumers: consumers.clone(),
        })
        .collect();
    run_fanout_shared(
        Box::new(SelectionNode::pass_all()),
        SharedQueryPlan { prefilter: plan.prefilter.clone(), groups },
        packets.to_vec(),
    )
    .expect("shared run")
}

fn assert_identical(u: &FanoutReport, s: &FanoutReport, queries: usize) {
    for i in 1..=queries {
        let name = format!("q{i}");
        let uq = u.query(&name).expect("unshared consumer");
        let sq = s.query(&name).expect("shared consumer");
        assert_eq!(uq.windows.len(), sq.windows.len(), "{name}: window count");
        for (wu, ws) in uq.windows.iter().zip(&sq.windows) {
            assert_eq!(wu.window, ws.window, "{name}: window key");
            assert_eq!(wu.rows, ws.rows, "{name}: rows");
        }
    }
}

const SHARING: &str = "SELECT tb, count(*) FROM PKT WHERE len >= 100 GROUP BY time/5 as tb;\n\
                       SELECT tb, count(*) FROM PKT WHERE len >= 100 GROUP BY time/5 as tb;\n\
                       SELECT tb, sum(len) FROM PKT WHERE len >= 130 GROUP BY time/5 as tb";

/// `sso optimize` over the example corpus is a fixed point: every WHERE
/// leads with a stateful sampler (nothing is hoistable), no two plans
/// normalize identically, so the certificate stays empty and no
/// diagnostic fires — which is what keeps `--deny-warnings` green in
/// check.sh. The JSON snapshot pins the machine interface.
#[test]
fn golden_example_corpus_is_a_fixed_point() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/queries.sql"))
            .expect("example corpus");
    let outcome = optimize(&text);
    assert_eq!(outcome.statements, 7);
    assert!(outcome.skipped.is_empty(), "skipped: {:?}", outcome.skipped);
    assert!(outcome.diagnostics.is_empty(), "diagnostics: {:?}", outcome.diagnostics);
    assert!(outcome.certificate.is_empty());
    assert!(outcome.shared.is_empty());
    assert!(outcome.reaudit.ok);

    let clusters: Vec<(&str, &[usize])> =
        vec![("PKT", &[0, 5][..]), ("PKTS", &[1, 2][..]), ("TCP", &[3, 4, 6][..])];
    assert_eq!(outcome.clusters.len(), clusters.len());
    for (c, (stream, members)) in outcome.clusters.iter().zip(&clusters) {
        assert_eq!(c.stream, *stream);
        assert_eq!(c.members, *members);
        assert!(c.prefilter.is_empty(), "{stream}: unexpected shared prefilter");
    }

    // Golden JSON shape (not full content — hashes cover that above).
    let json = serde_json::to_string(&stream_sampler::json::optimize(&outcome)).unwrap();
    assert!(json.starts_with("{\"diagnostics\":[],\"report\":{\"certificate\":{"), "{json}");
    assert!(json.contains("\"clusters\":[{"));
    assert!(json.contains("\"skipped\":[]"));
    assert!(json.contains("\"statements\":7}}"), "{json}");
    assert!(json.contains("\"steps\":[]"));
    assert!(json.contains("\"shared\":[]"));
}

/// Applying the rewrites produces a certificate whose steps name the
/// rules and discharge side conditions; `--explain` reports the same
/// opportunities as W301 and leaves the certificate empty.
#[test]
fn sharing_is_certified_and_explainable() {
    let applied = optimize(SHARING);
    let rules: Vec<&str> = applied.certificate.steps.iter().map(|s| s.rule.as_str()).collect();
    assert_eq!(rules, ["dedup-shared-subplan", "hoist-shared-prefilter"]);
    for step in &applied.certificate.steps {
        assert!(!step.side_conditions.is_empty(), "{}: no side conditions", step.rule);
    }
    applied.certificate.verify().expect("sealed certificate verifies");
    assert!(codes(&applied).iter().all(|c| *c != Code::W301));

    let explained = explain(SHARING);
    assert!(explained.certificate.is_empty());
    assert!(explained.shared.is_empty());
    assert!(codes(&explained).contains(&Code::W301));
}

/// A tampered certificate never yields a runnable plan.
#[test]
fn tampered_certificate_is_refused() {
    let mut outcome = optimize(SHARING);
    outcome.build_shared().expect("untampered certificate builds");

    // Erase a discharged side condition: checksum mismatch.
    let mut erased = outcome.clone();
    erased.certificate.steps[0].side_conditions.pop();
    let Err(err) = erased.build_shared() else { panic!("erased side condition must be detected") };
    assert!(err.contains("checksum"), "{err}");

    // Flip a node hash: same failure.
    outcome.certificate.steps[0].after ^= 1;
    assert!(outcome.build_shared().is_err());
}

/// W103: `check_file` flags duplicate normalized prefilters
/// across statements, with a span on each, and the JSON line round
/// trips through the stable code.
#[test]
fn w103_duplicate_prefilter_across_statements() {
    let text = "SELECT tb, count(*) FROM PKT WHERE len >= 100 GROUP BY time/5 as tb;\n\
                SELECT tb, sum(len) FROM PKT WHERE len >= 100 GROUP BY time/10 as tb";
    let diags = check_file(text);
    assert_eq!(diags.len(), 2);
    let mut spans = Vec::new();
    for d in &diags {
        assert_eq!(d.code, Code::W103);
        assert!(!d.span.is_dummy());
        spans.push(d.span.start);
        let json = serde_json::to_string(&stream_sampler::json::diagnostic(d)).unwrap();
        assert!(json.contains("\"code\":\"W103\""), "{json}");
        assert_eq!("W103".parse::<Code>().unwrap(), Code::W103);
    }
    assert!(spans[1] > spans[0], "second diagnostic must anchor in the second statement");

    // Stateful prefilters are never flagged: nothing is hoistable.
    let stateful = "SELECT tb, count(*) FROM PKT WHERE ssample(len, 100) = TRUE GROUP BY time/5 as tb;\n\
                    SELECT tb, count(*) FROM PKT WHERE ssample(len, 100) = TRUE GROUP BY time/5 as tb";
    assert!(check_file(stateful).is_empty());
}

/// W302: same plan modulo constants — both statements flagged.
#[test]
fn w302_equivalent_modulo_constants() {
    let text = "SELECT tb, count(*) FROM PKT WHERE len >= 100 GROUP BY time/5 as tb;\n\
                SELECT tb, count(*) FROM PKT WHERE len >= 250 GROUP BY time/5 as tb";
    let outcome = optimize(text);
    let w302: Vec<_> = outcome.diagnostics.iter().filter(|d| d.code == Code::W302).collect();
    assert_eq!(w302.len(), 2);
    assert!(w302.iter().all(|d| !d.span.is_dummy()));
}

/// W303: identical plans whose sampler is not shard-mergeable refuse
/// the dedup rewrite and explain why (the cause chain from
/// `shard_plan`). Distinct sampling carries a global hash level, so the
/// default `dsample` plan is the canonical witness.
#[test]
fn w303_blocked_by_non_mergeable_sampler() {
    let stmt = "SELECT tb, srcIP, count(*), dscale(), count_distinct$(*) FROM PKT \
                WHERE dsample(srcIP, 256) = TRUE GROUP BY time/60 as tb, srcIP";
    let outcome = optimize(&format!("{stmt};\n{stmt}"));
    assert!(outcome.certificate.is_empty(), "blocked rewrite must not certify");
    let w303: Vec<_> = outcome.diagnostics.iter().filter(|d| d.code == Code::W303).collect();
    assert_eq!(w303.len(), 2);
    for d in &w303 {
        let help = d.help.as_deref().unwrap_or("");
        assert!(help.contains("blocked because:"), "missing cause chain: {help}");
    }
    let group = &outcome.clusters[0].groups[0];
    assert!(!group.mergeable);
    assert!(group.blocked.is_some());
}

/// W304: same group keys, window periods in integer ratio.
#[test]
fn w304_window_periods_integer_multiple() {
    let text =
        "SELECT tb, srcIP, count(*) FROM PKT WHERE len >= 100 GROUP BY time/5 as tb, srcIP;\n\
                SELECT tb, srcIP, sum(len) FROM PKT WHERE len >= 200 GROUP BY time/10 as tb, srcIP";
    let outcome = optimize(text);
    let w304 = codes(&outcome).iter().filter(|c| **c == Code::W304).count();
    assert_eq!(w304, 2);

    // Periods 5 and 7 are not in integer ratio: no lint.
    let coprime = "SELECT tb, srcIP, count(*) FROM PKT WHERE len >= 100 GROUP BY time/5 as tb, srcIP;\n\
                   SELECT tb, srcIP, sum(len) FROM PKT WHERE len >= 200 GROUP BY time/7 as tb, srcIP";
    assert!(!codes(&optimize(coprime)).contains(&Code::W304));
}

/// The sealed sharing plan executes byte-identically to unshared
/// fan-out on the canonical three-statement witness.
#[test]
fn shared_execution_matches_unshared_on_witness() {
    let packets = research_feed(0xbee).take_seconds(8);
    let outcome = optimize(SHARING);
    let u = unshared(SHARING, &packets);
    let s = shared(&outcome, &packets);
    assert_identical(&u, &s, 3);
    // And the saving is real: the deduped consumers share one operator.
    assert!(s.query("q1").unwrap().stats.tuples_in <= u.query("q1").unwrap().stats.tuples_in);
}

/// One lowered prefilter with one error policy: a tuple the prefilter
/// cannot be evaluated on is passed through, so the operators behind it
/// decide — the same `Ok`/`Err` and the same windows as without the
/// prefilter. (The sharded runtime has no prefilter of its own; a
/// sharded run's only WHERE is each operator's.)
#[test]
fn erroring_prefilter_is_transparent_inline_and_sharded() {
    // `7 / (len % 2)` divides by zero on every even length. The first
    // WHERE rejects an even length before it reaches the division, the
    // second does not.
    let guarded = "SELECT tb, sum(len), count(*) FROM PKT \
                   WHERE len % 2 = 1 AND 7 / (len % 2) >= 1 GROUP BY time/2 as tb";
    let unguarded = "SELECT tb, sum(len), count(*) FROM PKT \
                     WHERE len >= 40 AND 7 / (len % 2) >= 1 GROUP BY time/2 as tb";
    let hoisted = "SELECT tb FROM PKT WHERE 7 / (len % 2) >= 1 GROUP BY time/2 as tb";
    let schema = stream_sampler::query::base_stream_schema("PKT").unwrap();
    let config = PlannerConfig::standard();
    let pred = stream_sampler::query::parse_query(hoisted).unwrap().where_clause.unwrap();
    let prefilter = compile_packet_predicate(&pred, &schema).unwrap();
    let packets = research_feed(0xd1f).take_seconds(6);
    assert!(packets.iter().any(|p| p.len % 2 == 0) && packets.iter().any(|p| p.len % 2 == 1));

    for (text, runs) in [(guarded, true), (unguarded, false)] {
        let op = || stream_sampler::query::compile(text, &schema, &config).expect("compile");
        let low = || Box::new(SelectionNode::pass_all());
        let plain = run_fanout_shared(
            low(),
            SharedQueryPlan::unshared([("q1".into(), op())]),
            packets.clone(),
        );
        let filtered = run_fanout_shared(
            low(),
            SharedQueryPlan {
                prefilter: Some(prefilter.clone()),
                groups: vec![SharedGroup { op: op(), consumers: vec!["q1".into()] }],
            },
            packets.clone(),
        );
        assert_eq!(plain.is_ok(), runs, "{text}");
        match (&plain, &filtered) {
            (Ok(u), Ok(s)) => assert_identical(u, s, 1),
            (Err(u), Err(s)) => assert_eq!(u.to_string(), s.to_string()),
            _ => {
                panic!("inline: unshared ok = {}, shared ok = {}", plain.is_ok(), filtered.is_ok())
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Shared-vs-unshared byte-identity on generated query pairs: any
    /// two threshold queries over one stream — identical (dedup), or
    /// nested thresholds (prefilter hoist) — produce the same windows
    /// either way.
    #[test]
    fn shared_execution_is_byte_identical(
        a in 40u64..400,
        b in 40u64..400,
        window in 1u64..4,
        seed in 0u64..1000,
    ) {
        let text = format!(
            "SELECT tb, sum(len), count(*) FROM PKT WHERE len >= {a} GROUP BY time/{window} as tb;\n\
             SELECT tb, sum(len), count(*) FROM PKT WHERE len >= {b} GROUP BY time/{window} as tb"
        );
        let outcome = optimize(&text);
        // Two pure threshold queries always share: identical plans
        // dedup, distinct thresholds hoist the weaker bound.
        prop_assert!(!outcome.certificate.is_empty());
        let packets = research_feed(seed).take_seconds(4);
        let u = unshared(&text, &packets);
        let s = shared(&outcome, &packets);
        for name in ["q1", "q2"] {
            let uq = u.query(name).unwrap();
            let sq = s.query(name).unwrap();
            prop_assert_eq!(uq.windows.len(), sq.windows.len());
            for (wu, ws) in uq.windows.iter().zip(&sq.windows) {
                prop_assert_eq!(&wu.window, &ws.window);
                prop_assert_eq!(&wu.rows, &ws.rows);
            }
        }
    }
}
