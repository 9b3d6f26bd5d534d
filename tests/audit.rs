//! Dynamic cross-checks of the static audit pass.
//!
//! `sso-analysis` certifies state ceilings without executing anything;
//! these tests run the same queries on real synthetic traffic, with the
//! telemetry registry attached, and assert the *observed* peak state
//! never exceeds the *certified* ceiling — the soundness contract the
//! abstract interpretation claims.

use stream_sampler::analysis::{audit_file, split_statements, AuditOptions};
use stream_sampler::operator::queries::EXAMPLE_QUERIES;
use stream_sampler::operator::{OpError, OperatorMetrics};
use stream_sampler::prelude::*;

/// Peak live groups / supergroups while processing `packets`. The
/// groups are the largest `op.groups_peak` the operator exported at a
/// window close, each checked against a poll after every tuple of that
/// window. The two are equal unless the window had a cleaning phase:
/// the group whose arrival triggers one is live during the phase and
/// gone (or a neighbour is) before `process` returns, so there the
/// gauge may read one more than any poll saw.
fn observed_peak(text: &str, packets: &[Packet]) -> (usize, usize) {
    let mut op = compile(text, &Packet::schema(), &PlannerConfig::standard()).unwrap();
    let registry = Registry::new();
    op.set_metrics(OperatorMetrics::register(&registry, ""));
    let (mut peak_groups, mut polled_groups, mut peak_supergroups) = (0usize, 0usize, 0usize);
    let mut close = |closed: &WindowOutput, polled: usize| {
        let exported = registry.snapshot().value("op.groups_peak") as usize;
        let missed = usize::from(closed.stats.cleaning_phases > 0);
        assert!(
            (polled..=polled + missed).contains(&exported),
            "window {:?}: op.groups_peak says {exported}, a poll after every tuple saw {polled} \
             ({} cleaning phases)",
            closed.window,
            closed.stats.cleaning_phases
        );
        peak_groups = peak_groups.max(exported);
    };
    for p in packets {
        // The tuple that closes a window is the next window's first.
        if let Some(closed) = op.process(&p.to_tuple()).unwrap() {
            close(&closed, std::mem::take(&mut polled_groups));
        }
        polled_groups = polled_groups.max(op.group_count());
        peak_supergroups = peak_supergroups.max(op.supergroup_count());
    }
    if let Some(closed) = op.finish().unwrap() {
        close(&closed, polled_groups);
    }
    (peak_groups, peak_supergroups)
}

#[test]
fn observed_peak_state_stays_under_certified_ceiling() {
    // Three sampler families over two full windows of research traffic.
    let packets = research_feed(7).take_seconds(130);
    let opts = AuditOptions::default();
    for name in ["subset_sum_query", "reservoir_query", "distinct_sample_query"] {
        let text = EXAMPLE_QUERIES.iter().find(|(n, _)| *n == name).unwrap().1;
        let out = audit_file(text, &opts);
        assert!(!out.has_errors(), "{name}: {:?}", out.diagnostics);
        let s = &out.report.statements[0];
        let certified = s
            .groups_bound
            .finite()
            .unwrap_or_else(|| panic!("{name}: the audit must certify a finite group ceiling"));
        let (peak_groups, peak_supergroups) = observed_peak(text, &packets);
        assert!(
            peak_groups as u64 <= certified,
            "{name}: observed peak {peak_groups} groups exceeds certified ceiling {certified}"
        );
        if let Some(sg) = s.supergroup_cardinality.min(s.rows_per_window).finite() {
            assert!(
                peak_supergroups as u64 <= sg,
                "{name}: observed {peak_supergroups} supergroups exceeds certified {sg}"
            );
        }
    }
}

#[test]
fn example_corpus_file_matches_library_constant() {
    // scripts/check.sh audits examples/queries.sql; this pins the file
    // to sso_core::EXAMPLE_QUERIES so the CI corpus cannot drift.
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/queries.sql"))
            .unwrap();
    let normalize = |s: &str| -> String {
        let no_comments: String = s
            .lines()
            .map(|l| l.split_once("--").map(|(code, _)| code).unwrap_or(l))
            .collect::<Vec<_>>()
            .join(" ");
        no_comments.split_whitespace().collect::<Vec<_>>().join(" ")
    };
    let statements = split_statements(&text);
    assert_eq!(statements.len(), EXAMPLE_QUERIES.len());
    for ((_, stmt), (name, expected)) in statements.iter().zip(EXAMPLE_QUERIES) {
        assert_eq!(normalize(stmt), normalize(expected), "corpus drifted for {name}");
    }
}

#[test]
fn example_corpus_audits_clean_and_bounded() {
    // The same invariant check.sh enforces with --deny-warnings: the
    // whole corpus certifies finite ceilings with no diagnostics under
    // the research envelope at one shard.
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/queries.sql"))
            .unwrap();
    let out = audit_file(&text, &AuditOptions::default());
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    assert_eq!(out.report.statements.len(), EXAMPLE_QUERIES.len());
    for s in &out.report.statements {
        assert!(s.state_bytes.is_finite(), "{}: unbounded state", s.name);
    }
    assert!(out.report.total_state_bytes().is_finite());
}

/// `sso audit --json` and `sso optimize --json` over the example
/// corpus, parsed as a consumer would: exact key sets, no diagnostics, a
/// finite certified total, no rewrite step and a passing re-audit. A
/// renamed or dropped field fails here instead of in a consumer.
#[test]
fn example_corpus_cli_json_schemas_are_pinned() {
    let run = |command: &str| -> serde_json::Value {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sso"))
            .args([command, "--json", "--deny-warnings", "examples/queries.sql"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("run sso");
        assert!(out.status.success(), "sso {command}: {}", String::from_utf8_lossy(&out.stderr));
        serde_json::from_str(&String::from_utf8(out.stdout).expect("UTF-8")).expect("one JSON doc")
    };
    let keys = |v: &serde_json::Value| -> Vec<String> {
        v.as_object().expect("a JSON object").keys().cloned().collect()
    };
    let empty = |v: &serde_json::Value| v.as_array().is_some_and(Vec::is_empty);

    let audit = run("audit");
    assert_eq!(keys(&audit), ["diagnostics", "report"]);
    assert!(empty(&audit["diagnostics"]), "{:?}", audit["diagnostics"]);
    let report = &audit["report"];
    let report_keys = ["budget", "durable", "feed", "shards", "statements", "total_state_bytes"];
    assert_eq!(keys(report), report_keys);
    assert!(report["total_state_bytes"].as_u64().is_some(), "corpus total must be finite");
    let statements = report["statements"].as_array().expect("statements");
    assert_eq!(statements.len(), EXAMPLE_QUERIES.len());
    for s in statements {
        assert_eq!(
            keys(s),
            [
                "group_entry_bytes",
                "groups_bound",
                "key_cardinality",
                "mergeable",
                "name",
                "per_supergroup_bound",
                "rows_per_sec",
                "rows_per_window",
                "sampler",
                "skew",
                "state_bytes",
                "stream",
                "supergroup_cardinality",
                "supergroup_entry_bytes",
                "window_secs",
            ]
        );
        assert!(s["state_bytes"].as_u64().is_some(), "{:?}: unbounded state", s["name"]);
    }

    let optimize = run("optimize");
    assert_eq!(keys(&optimize), ["diagnostics", "report"]);
    assert!(empty(&optimize["diagnostics"]), "{:?}", optimize["diagnostics"]);
    let report = &optimize["report"];
    let report_keys = ["certificate", "clusters", "reaudit", "shared", "skipped", "statements"];
    assert_eq!(keys(report), report_keys);
    assert!(empty(&report["skipped"]) && empty(&report["shared"]));
    for cluster in report["clusters"].as_array().expect("clusters") {
        assert_eq!(keys(cluster), ["groups", "members", "shared_prefilter", "stream"]);
        for group in cluster["groups"].as_array().expect("groups") {
            let group_keys = ["blocked", "canonical", "hash", "mergeable", "statements"];
            assert_eq!(keys(group), group_keys);
        }
    }
    let certificate = &report["certificate"];
    assert_eq!(keys(certificate), ["checksum", "steps"]);
    assert!(empty(&certificate["steps"]), "stateful prefilters: nothing may be rewritten");
    assert_eq!(keys(&report["reaudit"]), ["ok", "statements", "total_state_bytes"]);
    assert_eq!(report["reaudit"]["ok"].as_bool(), Some(true), "re-audit failed");
}

#[test]
fn sizing_hints_preserve_sharded_output() {
    // Pre-sizing from the certificate is a pure capacity hint: the same
    // windows and rows, full coverage, and every window within the
    // certified ceiling. Each shard plans from a fresh config, so its
    // reservoir library seeds its states from a counter of its own and
    // the rows do not depend on thread timing.
    let (_, text) = EXAMPLE_QUERIES.iter().find(|(n, _)| *n == "reservoir_query").unwrap();
    let packets = research_feed(11).take_seconds(130);
    let schema = Packet::schema();
    let parsed = parse_query(text).unwrap();
    let run = |cfg: &RuntimeConfig| {
        let make = |_shard: usize| {
            stream_sampler::query::plan(&parsed, &schema, &PlannerConfig::standard())
                .map_err(|e| OpError::InvalidSpec(e.to_string()))
        };
        run_plan_sharded(Box::new(SelectionNode::pass_all()), make, cfg, packets.clone()).unwrap()
    };
    let plain = run(&RuntimeConfig::new(2));

    let out = audit_file(text, &AuditOptions { shards: 2, ..AuditOptions::default() });
    let bounds = &out.report.statements[0];
    let cfg = RuntimeConfig::new(2);
    let hints = bounds.sizing_hints(2, cfg.batch_size);
    assert!(hints.groups > 0, "certificate must yield a reservation");
    let sized = run(&cfg.with_sizing(hints));

    assert_eq!(plain.windows.len(), sized.windows.len());
    let ceiling = bounds.groups_bound.finite().unwrap() as usize;
    for (a, b) in plain.windows.iter().zip(&sized.windows) {
        assert_eq!(a.window, b.window, "same window keys in the same order");
        assert_eq!(a.rows, b.rows, "same rows");
        assert!(!b.rows.is_empty());
        assert!(b.rows.len() <= ceiling, "{} rows > certified {ceiling}", b.rows.len());
    }
    assert_eq!(sized.coverage, 1.0, "pre-sizing must not shed or degrade");
}

#[test]
fn observed_log_bytes_per_window_stay_under_certified_ceiling() {
    // A durable record carries the window's output rows besides the
    // carry-over; the certificate has to cover both.
    let packets = research_feed(7).take_seconds(130);
    let schema = Packet::schema();
    let config = PlannerConfig::standard();
    for name in ["subset_sum_query", "reservoir_query", "heavy_hitters_query"] {
        let text = EXAMPLE_QUERIES.iter().find(|(n, _)| *n == name).unwrap().1;
        let out = audit_file(text, &AuditOptions { shards: 2, ..AuditOptions::default() });
        let certified = out.report.durable().wal_bytes_per_window;
        let certified =
            certified.finite().unwrap_or_else(|| panic!("{name}: no finite log ceiling"));
        let parsed = parse_query(text).unwrap();
        let make = |_shard: usize| {
            stream_sampler::query::plan(&parsed, &schema, &config)
                .map_err(|e| OpError::InvalidSpec(e.to_string()))
        };
        let dir = std::env::temp_dir().join(format!("sso-audit-log-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = stream_sampler::runtime::DurabilityConfig::new(&dir);
        let cfg = RuntimeConfig::new(2).with_durability(durability);
        run_plan_sharded(Box::new(SelectionNode::pass_all()), make, &cfg, packets.clone()).unwrap();
        for shard in 0..2 {
            let wal_bytes =
                std::fs::metadata(dir.join(format!("shard-{shard}.wal"))).unwrap().len();
            let windows_recorded =
                stream_sampler::store::recover_shard(&dir, shard).unwrap().outputs.len() as u64;
            assert!(windows_recorded >= 2, "{name}: shard {shard} recorded {windows_recorded}");
            assert!(
                wal_bytes / windows_recorded <= certified,
                "{name}: shard {shard} logged {wal_bytes} B over {windows_recorded} windows, \
                 certified {certified} B/window"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A two-level cascade (W101 on its high level), then a statement the
/// analyzer rejects, a cascade statement that must fall back to the
/// packet schema because its low level did not plan, and one that does
/// not parse.
const CASCADE_FILE: &str = "\
-- A two-level cascade, then a statement that does not plan and one
-- that does not parse.
SELECT tb, srcIP, sum(len), count(*) FROM PKT GROUP BY time/60 as tb, srcIP;
SELECT tb, count(*) FROM PKTAGG GROUP BY tb;
SELECT tb, nosuch FROM PKT GROUP BY time/60 as tb;
SELECT tb, count(*) FROM AGG GROUP BY tb;
SELECT FROM WHERE;
";

const CASCADE_CHECK: &str = r#"warning[W101]: count(*) over a partial-aggregate stream counts partial tuples, not raw tuples
  --> cascade.sql:4:12
   |
 4 | SELECT tb, count(*) FROM PKTAGG GROUP BY tb;
   |            ^^^^^^^^
   = help: re-aggregate the low level's partial count: `sum(count)`

error[E003]: `nosuch` referenced in a group-phase clause but is not a group-by variable or aggregate
  --> cascade.sql:5:12
   |
 5 | SELECT tb, nosuch FROM PKT GROUP BY time/60 as tb;
   |            ^^^^^^
   = help: group-phase clauses see group results, not raw tuples; add `nosuch` to GROUP BY or wrap it in an aggregate

error[E002]: unknown name `tb` (not a column of PKT or a group-by variable)
  --> cascade.sql:6:39
   |
 6 | SELECT tb, count(*) FROM AGG GROUP BY tb;
   |                                       ^^
   = help: columns of PKT: time, uts, srcIP, destIP, srcPort, destPort, proto, len

error[E101]: syntax error: expected expression, found From
  --> cascade.sql:7:8
   |
 7 | SELECT FROM WHERE;
   |        ^

cascade.sql: 3 error(s), 1 warning(s)
"#;

const CASCADE_CHECK_JSON: &str = r#"{"code":"W101","help":"re-aggregate the low level's partial count: `sum(count)`","message":"count(*) over a partial-aggregate stream counts partial tuples, not raw tuples","severity":"warning","span":{"end":188,"start":180}}
{"code":"E003","help":"group-phase clauses see group results, not raw tuples; add `nosuch` to GROUP BY or wrap it in an aggregate","message":"`nosuch` referenced in a group-phase clause but is not a group-by variable or aggregate","severity":"error","span":{"end":231,"start":225}}
{"code":"E002","help":"columns of PKT: time, uts, srcIP, destIP, srcPort, destPort, proto, len","message":"unknown name `tb` (not a column of PKT or a group-by variable)","severity":"error","span":{"end":305,"start":303}}
{"code":"E101","help":null,"message":"syntax error: expected expression, found From","severity":"error","span":{"end":315,"start":314}}
"#;

/// `sso check`'s stdout and exit code, human and `--json`, pinned on
/// the example corpus and on a cascade file that exercises every branch
/// of the statement walk.
#[test]
fn check_cli_output_is_pinned() {
    let dir = std::env::temp_dir().join(format!("sso-check-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("cascade.sql"), CASCADE_FILE).unwrap();
    let check = |cwd: &std::path::Path, args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sso"))
            .arg("check")
            .args(args)
            .current_dir(cwd)
            .output()
            .expect("run sso check");
        (out.status.code(), String::from_utf8(out.stdout).expect("UTF-8"))
    };
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let corpus = "examples/queries.sql";
    let clean = format!("{corpus}: no problems found\n");
    assert_eq!(check(root, &[corpus]), (Some(0), clean));
    assert_eq!(check(root, &["--json", corpus]), (Some(0), String::new()));
    assert_eq!(check(&dir, &["cascade.sql"]), (Some(1), CASCADE_CHECK.to_string()));
    assert_eq!(check(&dir, &["--json", "cascade.sql"]), (Some(1), CASCADE_CHECK_JSON.to_string()));
    let _ = std::fs::remove_dir_all(&dir);
}
