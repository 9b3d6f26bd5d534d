//! The CLI's JSON documents, read back as a consumer reads them: the
//! `run --json` window records, the `--metrics` snapshot series and the
//! `trace --chrome` rendering of a `--profile` dump, each from the real
//! `sso` binary and parsed with the vendored `serde_json`; plus property
//! tests of that reader and of the diagnostic line format.

use std::path::PathBuf;
use std::process::Command;

use proptest::prelude::*;
use serde_json::Value;
use stream_sampler::json::{diagnostic, parse_diagnostic};
use stream_sampler::query::{Code, Diagnostic, Span};

const QUERY: &str = "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb";

/// Run `sso` with `args`; its stdout, after asserting it succeeded.
fn sso(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sso")).args(args).output().expect("run sso");
    assert!(out.status.success(), "sso {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("UTF-8")
}

fn parse(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sso-json-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn window_records_escape_string_cells() {
    let query = "SELECT tb, 'a\"b\\c' AS s, count(*) FROM PKT GROUP BY time/1 as tb";
    let out = sso(&["run", "--feed", "research", "--seconds", "2", "--json", query]);
    let records: Vec<Value> = out.lines().map(parse).collect();
    assert_eq!(records.len(), 2, "{out}");
    for r in &records {
        assert_eq!(r["columns"], serde_json::json!(["tb", "s", "count"]));
        assert_eq!(r["rows"][0][1].as_str(), Some("a\"b\\c"), "{r:?}");
    }
}

/// `--metrics -` after `--json`: one window record per line, then the
/// snapshot document on the last line.
#[test]
fn metrics_series_has_one_snapshot_per_window() {
    let out = sso(&["run", "--metrics", "-", "--seconds", "2", "--json", QUERY]);
    let mut lines: Vec<&str> = out.lines().collect();
    let doc = parse(lines.pop().expect("a snapshot document"));
    let windows: Vec<Value> = lines.into_iter().map(parse).collect();
    let snaps = doc["snapshots"].as_array().expect("snapshots");
    assert!(!snaps.is_empty(), "empty snapshot series");
    // One snapshot per window a later tuple closed, plus the final one,
    // which covers the window the end-of-stream flush closed.
    assert_eq!(
        snaps.len(),
        windows.len(),
        "{} snapshots for {} windows",
        snaps.len(),
        windows.len()
    );
    assert!(!snaps[snaps.len() - 1]["metrics"].as_array().expect("metrics").is_empty());
}

#[test]
fn profile_dump_renders_as_chrome_trace() {
    let dir = scratch("chrome");
    let dump = dir.join("flight.ssoprof");
    let dump_arg = format!("--profile={}", dump.display());
    sso(&["--feed", "research", "--seconds", "2", "--shards", "4", &dump_arg, QUERY]);
    assert!(std::fs::metadata(&dump).expect("dump written").len() > 0);
    let trace = dir.join("trace.json");
    let (trace_arg, dir_arg) = (trace.to_str().unwrap(), dir.to_str().unwrap());
    sso(&["trace", "--chrome", trace_arg, dir_arg]);
    let doc = parse(&std::fs::read_to_string(&trace).unwrap());
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"), "chrome trace must set it");
    let events = doc["traceEvents"].as_array().expect("traceEvents");
    assert!(!events.is_empty(), "empty chrome trace");
    for e in events {
        for key in ["name", "ph", "pid", "tid"] {
            assert!(e.get(key).is_some(), "trace event missing {key}: {e:?}");
        }
        match e["ph"].as_str() {
            Some("X") => assert!(e["ts"].as_f64().is_some() && e["dur"].as_f64().is_some()),
            Some("M") => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    let lanes: Vec<&str> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("M"))
        .map(|e| e["args"]["name"].as_str().expect("lane name"))
        .collect();
    assert!(lanes.iter().any(|n| n.starts_with("router")), "{lanes:?}");
    assert!(lanes.iter().any(|n| n.starts_with("worker")), "{lanes:?}");
}

/// Strings over every kind of character: controls, `"` and `\`, ASCII,
/// the BMP on both sides of the surrogate block, and beyond it.
fn any_text() -> &'static str {
    "[\u{0}-\u{1f}\"\\ -~\u{80}-\u{d7ff}\u{e000}-\u{ffff}\u{10000}-\u{10ffff}]{0,24}"
}

/// Token soup: JSON punctuation, literals, numbers good and bad, and
/// escapes complete and truncated.
fn any_jsonish() -> impl Strategy<Value = String> {
    // `|`-separated, so the space and newline tokens stay visible.
    const TOKENS: &str =
        "{|}|[|]|,|:|\"|\"code\"|\"span\"|\"E001\"|\"error\"|0|1|-|+|.|e|E|01|1.|.5|\
        1e999|18446744073709551616|true|null|fals|\\|\\u|\\ud83d|\\ude00|\\u12|\\x| |\n|\u{1}|é|🦀";
    let tokens: Vec<&str> = TOKENS.split('|').collect();
    proptest::collection::vec(0..tokens.len(), 0..48)
        .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
}

fn any_code() -> impl Strategy<Value = Code> {
    (0..Code::ALL.len()).prop_map(|i| Code::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn readers_never_panic(text in any_jsonish(), depth in 0usize..2000, cut in any::<usize>()) {
        let _ = serde_json::from_str(&text);
        let _ = parse_diagnostic(&text);
        for deep in ["[".repeat(depth), "{\"a\":".repeat(depth) + "1"] {
            let _ = serde_json::from_str(&deep);
            let _ = parse_diagnostic(&deep);
        }
        // A valid line cut anywhere.
        let d = Diagnostic::new(Code::E002, Span::new(1, 5), text);
        let line = serde_json::to_string(&diagnostic(&d)).unwrap();
        let mut end = cut % (line.len() + 1);
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        prop_assert!(end == line.len() || parse_diagnostic(&line[..end]).is_err());
    }

    #[test]
    fn strings_round_trip(text in any_text()) {
        let written = serde_json::to_string(&Value::String(text.clone())).unwrap();
        prop_assert!(!written.contains(|c: char| c < ' '), "raw control character in {written:?}");
        prop_assert_eq!(serde_json::from_str(&written).unwrap(), Value::String(text));
    }

    #[test]
    fn diagnostics_round_trip(
        code in any_code(),
        start in any::<usize>(),
        end in any::<usize>(),
        message in any_text(),
        help in any_text(),
        with_help in proptest::bool::ANY,
    ) {
        let mut d = Diagnostic::new(code, Span::new(start, end), message);
        if with_help {
            d = d.with_help(help);
        }
        let line = serde_json::to_string(&diagnostic(&d)).unwrap();
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(parse_diagnostic(&line).unwrap(), d);
    }
}
