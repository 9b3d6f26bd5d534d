//! The `sso` command line at its surface: the real binary's exit codes
//! and the first word of its stderr for every kind of usage error, on
//! every subcommand, plus the stdout of a valid `trace` and `recover`
//! call and the MANIFEST a durable run writes. The full usage text is
//! not pinned; only that a usage error prints it.

use std::path::PathBuf;
use std::process::{Command, Output};

const QUERY: &str = "SELECT tb, proto, count(*) FROM PKT GROUP BY time/1 as tb, proto";

fn sso(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sso")).args(args).output().expect("run sso")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sso-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `args` exits 2 with nothing on stdout and stderr starting `lead`.
fn assert_exit_2(args: &[&str], lead: &str) {
    let out = sso(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "sso {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "sso {args:?} printed to stdout");
    assert!(stderr.starts_with(lead), "sso {args:?}: stderr does not start {lead:?}:\n{stderr}");
}

fn assert_usage(args: &[&str]) {
    assert_exit_2(args, "usage: sso");
}

/// The operand each subcommand takes; the files need not exist, since
/// a usage error is found before anything is read.
const SUBCOMMANDS: [(&str, &str); 7] = [
    ("run", QUERY),
    ("top", QUERY),
    ("recover", "no-such-store"),
    ("trace", "no-such.ssoprof"),
    ("check", "no-such.sql"),
    ("audit", "no-such.sql"),
    ("optimize", "no-such.sql"),
];

#[test]
fn help_unknown_flags_and_missing_operands_are_usage_errors() {
    assert_usage(&[]);
    assert_usage(&["--help"]);
    assert_usage(&["-h", QUERY]);
    assert_usage(&["--bogus", QUERY]);
    for (cmd, operand) in SUBCOMMANDS {
        assert_usage(&[cmd]);
        assert_usage(&[cmd, "--help"]);
        assert_usage(&[cmd, "-h", operand]);
        assert_usage(&[cmd, operand, "--help"]);
        assert_usage(&[cmd, "--bogus", operand]);
        assert_usage(&[cmd, operand, "a-second-operand"]);
        // A flag another subcommand takes is unknown here.
        let foreign = if cmd == "check" { "--chrome" } else { "--deny-warnings" };
        if !matches!(cmd, "audit" | "optimize") {
            assert_usage(&[cmd, foreign, operand]);
        }
    }
    assert_usage(&["recover", "--metrics", "--json"]);
}

#[test]
fn flags_missing_their_value_are_usage_errors() {
    for args in [
        &["--seconds"][..],
        &["run", "--seconds"],
        &["run", QUERY, "--meta"],
        &["top", QUERY, "--durable"],
        &["recover", "--limit"],
        &["recover", "no-such-store", "--limit"],
        &["trace", "--chrome"],
        &["trace", "no-such.ssoprof", "--limit"],
        &["audit", "--budget"],
        &["audit", "no-such.sql", "--feed"],
        &["audit", "no-such.sql", "--shards"],
    ] {
        assert_usage(args);
    }
}

#[test]
fn malformed_numbers_are_usage_errors() {
    for args in [
        &["run", "--shards", "0", QUERY][..],
        &["run", "--shards", "-1", QUERY],
        &["run", "--seconds", "x", QUERY],
        &["top", "--seed", "1.5", QUERY],
        &["run", "--limit", "-1", QUERY],
        &["run", "--fault-seed", "x", QUERY],
        &["run", "--state-budget", "1k", "--durable", "no-such-store", QUERY],
        &["recover", "--limit", "x", "no-such-store"],
        &["trace", "--limit", "x", "no-such.ssoprof"],
        &["audit", "--budget", "x", "no-such.sql"],
        &["audit", "--shards", "0", "no-such.sql"],
        &["audit", "--state-budget", "x", "no-such.sql"],
    ] {
        assert_usage(args);
    }
}

#[test]
fn parse_time_errors_exit_2_with_an_error_line() {
    assert_exit_2(&["run", "--state-budget", "1000", QUERY], "error: --state-budget requires");
    assert_exit_2(&["run", "--fsync", "sometimes", QUERY], "error: bad fsync policy");
    assert_exit_2(&["audit", "--feed", "bogus", "no-such.sql"], "error:");
}

#[test]
fn trace_renders_a_dump_on_stdout() {
    use stream_sampler::profile::{
        write_dump_file, Dump, DumpReason, Event, LaneDump, LaneKind, Stage,
    };
    let dir = scratch("trace");
    let lane = |kind, index, events| LaneDump { kind, index, dropped: 0, events };
    let dump = Dump {
        reason: DumpReason::Manual,
        lanes: vec![
            lane(LaneKind::Router, 0, vec![Event::new(Stage::Route, 2_000, 500).shard(1).batch(4)]),
            lane(
                LaneKind::Worker,
                1,
                vec![
                    Event::new(Stage::Process, 3_000, 900).shard(1).window(0).batch(4).aux(64),
                    Event::new(Stage::Emit, 5_000, 100).shard(1).window(0),
                ],
            ),
        ],
    };
    let path = dir.join("flight.ssoprof");
    write_dump_file(&path, &dump).unwrap();
    let out = sso(&["trace", "--limit", "2", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let first = stdout.lines().next().unwrap_or_default();
    assert_eq!(
        first,
        "flight recorder: reason=manual, 2 lanes, 3 events (0 dropped to wrap-around)"
    );
    assert_eq!(stdout.lines().nth(1), Some("  ... 1 earlier events elided (--limit)"), "{stdout}");
    assert_eq!(stdout.lines().count(), 4, "{stdout}");
    assert!(stdout.lines().nth(2).unwrap().contains("process"), "{stdout}");
    assert!(stdout.lines().nth(3).unwrap().contains("emit"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

const RECOVERED: &str = "
== window (0) (10069 tuples in, 10069 admitted, 0 cleaning phases, 2 rows) ==
tb\tproto\tcount
0\t6\t9451
... (1 more rows)

== window (1) (6621 tuples in, 6621 admitted, 0 cleaning phases, 2 rows) ==
tb\tproto\tcount
1\t6\t6009
... (1 more rows)
";

#[test]
fn recover_prints_the_recorded_windows() {
    let dir = scratch("recover");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let run = sso(&["run", "--seconds", "2", "--durable", store, QUERY]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    let out = sso(&["recover", "--limit", "1", store]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), RECOVERED);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every key a durable run records, in the order it records them; a
/// flag without a default is recorded only when given.
#[test]
fn durable_run_manifest_is_pinned() {
    let dir = scratch("manifest");
    let trace = dir.join("feed.csv");
    let trace = trace.to_str().unwrap();
    let dumped = sso(&["run", "--seconds", "1", "--limit", "0", "--dump", trace, QUERY]);
    assert_eq!(dumped.status.code(), Some(0), "{}", String::from_utf8_lossy(&dumped.stderr));
    let manifest = |store: &str| std::fs::read_to_string(dir.join(store).join("MANIFEST")).unwrap();

    let plain = dir.join("plain");
    let run = sso(&["run", "--seconds", "1", "--durable", plain.to_str().unwrap(), QUERY]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    let want = format!(
        "# sso durable run\nquery={QUERY}\nfeed=research\nseed=1\nseconds=1\nshards=1\n\
         fsync=never\n"
    );
    assert_eq!(manifest("plain"), want);

    let full = dir.join("full");
    let run = sso(&[
        "run",
        "--seconds",
        "1",
        "--seed",
        "3",
        "--shards",
        "2",
        "--fsync",
        "every=4",
        "--state-budget",
        "1000000",
        "--durable",
        full.to_str().unwrap(),
        "--trace",
        trace,
        QUERY,
    ]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    let want = format!(
        "# sso durable run\nquery={QUERY}\nfeed=research\nseed=3\nseconds=1\nshards=2\n\
         fsync=every=4\ntrace={trace}\nstate_budget=1000000\n"
    );
    assert_eq!(manifest("full"), want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unknown `--feed` is a parse-time error on both subcommands that
/// take one, listing the feeds that have a profile.
#[test]
fn unknown_feed_exits_2_on_run_and_audit() {
    let says = "error: unknown feed `bogus` (research | datacenter | burst | ddos)";
    assert_exit_2(&["run", "--feed", "bogus", QUERY], says);
    assert_exit_2(&["audit", "--feed", "bogus", "no-such.sql"], says);
}

/// A `--meta` query that does not compile fails before the feed is
/// built: no windows on stdout and no store on disk.
#[test]
fn bad_meta_query_fails_before_the_run() {
    let dir = scratch("meta");
    let store = dir.join("store");
    let durable = store.to_str().unwrap();
    let out = sso(&["run", "--seconds", "2", "--durable", durable, "--meta", "SELECT", QUERY]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: meta query:"), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
    assert!(!store.exists(), "a store was written for a run that cannot finish");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded `run` plans each shard from a config of its own: its
/// windows and rows are those of `run_plan_sharded` whose factory
/// builds a fresh `PlannerConfig` per shard. The reservoir library
/// seeds each state from its own instance counter, so shards sharing
/// one library would draw from one counter in thread-timing order.
#[test]
fn sharded_run_plans_each_shard_from_fresh_libraries() {
    use stream_sampler::operator::OpError;
    use stream_sampler::prelude::*;

    let query = "SELECT tb, srcIP, destIP FROM TCP WHERE rsample(25) = TRUE \
                 GROUP BY time/1 as tb, srcIP, destIP \
                 HAVING rsfinal_clean(count_distinct$(*)) = TRUE \
                 CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE \
                 CLEANING BY rsclean_with() = TRUE";
    let args = ["run", "--feed", "research", "--seconds", "20", "--shards", "2", "--json", query];
    let out = sso(&args);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let cli: Vec<(String, serde_json::Value)> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| {
            let w: serde_json::Value = serde_json::from_str(l).unwrap();
            (w["window"].as_str().unwrap().to_string(), w["rows"].clone())
        })
        .collect();

    let parsed = parse_query(query).unwrap();
    let schema = Packet::schema();
    let make = |_shard: usize| {
        stream_sampler::query::plan(&parsed, &schema, &PlannerConfig::standard())
            .map_err(|e| OpError::InvalidSpec(e.to_string()))
    };
    let packets = research_feed(1).take_seconds(20);
    let report = run_plan_sharded(
        Box::new(SelectionNode::pass_all()),
        make,
        &RuntimeConfig::new(2),
        packets,
    )
    .unwrap();
    let library: Vec<(String, serde_json::Value)> = report
        .windows
        .iter()
        .map(|w| {
            let rows: Vec<Vec<String>> = w
                .rows
                .iter()
                .map(|r| r.values().iter().map(ToString::to_string).collect())
                .collect();
            (w.window.to_string(), serde_json::json!(rows))
        })
        .collect();
    assert_eq!(cli.len(), 20, "one window per second");
    assert_eq!(cli, library);
}
