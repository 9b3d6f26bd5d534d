//! Query-language surface tests: the extended syntax end to end over
//! real tuple streams.

use stream_sampler::prelude::*;

fn mini_stream() -> Vec<Tuple> {
    // 2 seconds, 100 packets/s, 10 sources in two /24 subnets, fixed
    // lengths so aggregates are exactly checkable.
    let mut out = Vec::new();
    for s in 0..2u64 {
        for i in 0..100u64 {
            let src =
                if i % 2 == 0 { 0x0a000000 + (i % 5) as u32 } else { 0x0a000100 + (i % 5) as u32 };
            let p = Packet {
                uts: s * 1_000_000_000 + i * 10_000_000,
                src_ip: src,
                dest_ip: 0xc0a80001,
                src_port: 1,
                dest_port: 80,
                proto: stream_sampler::types::Protocol::Tcp,
                len: 100 + (i % 3) as u32 * 100, // 100/200/300
            };
            out.push(p.to_tuple());
        }
    }
    out
}

fn run(query: &str) -> Vec<stream_sampler::operator::WindowOutput> {
    let mut op = compile(query, &Packet::schema(), &PlannerConfig::standard()).unwrap();
    op.run(mini_stream().iter()).unwrap()
}

#[test]
fn avg_is_float_exact() {
    let w = run("SELECT tb, avg(len), sum(len), count(*) FROM PKT GROUP BY time/1 as tb");
    assert_eq!(w.len(), 2);
    for win in &w {
        // lens cycle 100,200,300 at weights: i%3==0 34 times, others 33.
        let sum = win.rows[0].get(2).as_f64().unwrap();
        let cnt = win.rows[0].get(3).as_f64().unwrap();
        let avg = win.rows[0].get(1).as_f64().unwrap();
        assert!((avg - sum / cnt).abs() < 1e-9, "avg must be float-exact");
        assert!((150.0..250.0).contains(&avg));
    }
}

#[test]
fn prefix_groups_by_subnet() {
    let w = run("SELECT net, count(*) FROM PKT GROUP BY time/1 as tb, prefix(srcIP, 24) as net");
    for win in &w {
        assert_eq!(win.rows.len(), 2, "two /24 subnets");
        let total: u64 = win.rows.iter().map(|r| r.get(1).as_u64().unwrap()).sum();
        assert_eq!(total, 100);
    }
}

#[test]
fn min_max_superaggregates_bracket_group_values() {
    let w = run("SELECT tb, srcIP, min$(srcIP), max$(srcIP) FROM PKT GROUP BY time/1 as tb, srcIP");
    for win in &w {
        let keys: Vec<u64> = win.rows.iter().map(|r| r.get(1).as_u64().unwrap()).collect();
        let lo = *keys.iter().min().unwrap();
        let hi = *keys.iter().max().unwrap();
        for r in &win.rows {
            assert_eq!(r.get(2).as_u64().unwrap(), lo);
            assert_eq!(r.get(3).as_u64().unwrap(), hi);
        }
    }
}

#[test]
fn sum_superaggregate_equals_total_over_supergroup() {
    let w = run("SELECT tb, srcIP, sum(len), sum$(len) FROM PKT GROUP BY time/1 as tb, srcIP");
    for win in &w {
        let total: u64 = win.rows.iter().map(|r| r.get(2).as_u64().unwrap()).sum();
        for r in &win.rows {
            assert_eq!(r.get(3).as_u64().unwrap(), total, "sum$ = whole-window sum");
        }
    }
}

#[test]
fn distinct_sampling_runs_from_text() {
    let w = run("SELECT tb, srcIP, dscale(), count_distinct$(*) FROM PKT \
         WHERE dsample(srcIP, 4) = TRUE \
         GROUP BY time/1 as tb, srcIP \
         CLEANING WHEN ddo_clean(count_distinct$(*)) = TRUE \
         CLEANING BY dclean_with(srcIP) = TRUE");
    for win in &w {
        assert!(win.rows.len() <= 4, "bounded by capacity");
    }
}

#[test]
fn cli_explain_surface_is_stable() {
    use stream_sampler::query::{explain, parse_query, plan};
    let q = parse_query(
        "SELECT tb, net, sum(len) FROM PKT GROUP BY time/60 as tb, prefix(srcIP, 24) as net",
    )
    .unwrap();
    let spec = plan(&q, &Packet::schema(), &PlannerConfig::standard()).unwrap();
    let text = explain(&spec);
    assert!(text.contains("[window]"));
    assert!(text.contains("Scalar(prefix"));
}

/// Diagnostic codes for the given query text, via the static checker.
fn codes(query: &str) -> Vec<stream_sampler::query::Code> {
    stream_sampler::query::check(query, &Packet::schema(), &PlannerConfig::standard())
        .into_iter()
        .map(|d| d.code)
        .collect()
}

#[test]
fn useful_errors_for_common_mistakes() {
    use stream_sampler::query::{Code, QueryError};

    // Aggregate in CLEANING WHEN (tuple phase): stable code E003, and
    // the planner error carries the analyzer's batch.
    let err = compile(
        "SELECT tb FROM PKT GROUP BY time/60 as tb CLEANING WHEN count(*) > 1 CLEANING BY TRUE",
        &Packet::schema(),
        &PlannerConfig::standard(),
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("not allowed"),
        "aggregates in CLEANING WHEN must be rejected: {err}"
    );
    let QueryError::Analysis(diags) = &err else { panic!("expected Analysis, got {err:?}") };
    assert!(diags.iter().any(|d| d.code == Code::E003), "{diags:?}");

    // Wrong avg arity: stable code E006.
    let err = compile(
        "SELECT tb, avg(len, 2) FROM PKT GROUP BY time/60 as tb",
        &Packet::schema(),
        &PlannerConfig::standard(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("one argument"), "{err}");
    assert_eq!(codes("SELECT tb, avg(len, 2) FROM PKT GROUP BY time/60 as tb"), [Code::E006]);
}

#[test]
fn check_reports_every_mistake_in_one_pass() {
    use stream_sampler::query::Code;
    let src = "SELECT len, zap(len) FROM PKT WHERE nope = 3 GROUP BY time/60 as tb, len as tb";
    let diags = stream_sampler::query::check(src, &Packet::schema(), &PlannerConfig::standard());
    let found: Vec<Code> = diags.iter().map(|d| d.code).collect();
    for want in [Code::E001, Code::E002, Code::E003, Code::E004] {
        assert!(found.contains(&want), "missing {want:?} in {found:?}");
    }
    // Each diagnostic points at real source text.
    for d in &diags {
        assert!(d.span.start < d.span.end && d.span.end <= src.len(), "{d:?}");
    }
}

#[test]
fn check_turns_parse_failures_into_coded_diagnostics() {
    use stream_sampler::query::Code;
    assert_eq!(codes("SELECT tb FROM"), [Code::E101]);
    assert_eq!(codes("SELECT # FROM PKT GROUP BY time/60 as tb"), [Code::E100]);
}

#[test]
fn check_diagnostics_round_trip_through_json() {
    use stream_sampler::query::Diagnostic;
    // Real analyzer output — a mix of errors (with help text) and a
    // parse failure — survives `sso check --json`'s wire format.
    for src in [
        "SELECT len, zap(len) FROM PKT WHERE nope = 3 GROUP BY time/60 as tb, len as tb",
        "SELECT tb FROM",
        "SELECT tb, sum(len), sum(len) FROM PKT GROUP BY time/1 as tb",
    ] {
        let diags =
            stream_sampler::query::check(src, &Packet::schema(), &PlannerConfig::standard());
        assert!(!diags.is_empty(), "{src}");
        for d in &diags {
            let line = serde_json::to_string(&stream_sampler::json::diagnostic(d)).unwrap();
            assert!(!line.contains('\n'), "one object per line: {line}");
            let back: Diagnostic = stream_sampler::json::parse_diagnostic(&line).unwrap();
            assert_eq!(&back, d, "via {line}");
        }
    }
}

#[test]
fn warnings_do_not_block_planning() {
    use stream_sampler::query::Severity;
    // Duplicate output names are a warning (W005): the query still
    // compiles and runs.
    let src = "SELECT tb, sum(len), sum(len) FROM PKT GROUP BY time/1 as tb";
    let diags = stream_sampler::query::check(src, &Packet::schema(), &PlannerConfig::standard());
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.severity == Severity::Warning), "{diags:?}");
    let w = run(src);
    assert_eq!(w.len(), 2);
}
