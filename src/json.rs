//! The `sso` CLI's machine interface. Every JSON document it writes —
//! `check` / `audit` / `optimize --json`, the `run --json` window
//! records, `--metrics` snapshots and `trace --chrome` — is built here
//! as a vendored `serde_json::Value`, and the one it reads back, a
//! `check --json` diagnostic, is parsed here. `serde_json::to_string`
//! writes a document on one line, as the JSON Lines outputs need; keys
//! come out sorted (the vendored map is a `BTreeMap`, as upstream's
//! default is) and integers with every digit.
//!
//! The documents live in the root package rather than beside their
//! types because the benchmark builds the library crates against a lock
//! file of its own: a serde dependency in any of them would rewrite it.

use serde_json::{json, Map, Value};

use crate::analysis::{BoundsReport, Card, StatementBounds};
use crate::obs::{Metric, MetricValue, Snapshot};
use crate::operator::WindowOutput;
use crate::profile::{Dump, LaneDump, LaneKind, BATCH_NONE, SHARD_NONE, WINDOW_NONE};
use crate::query::{Code, Diagnostic, Span};
use crate::rewrite::{
    OptimizeOutcome, RewriteStep, ShareCluster, ShareGroup, SharedGroupDesc, SharedPlanDesc,
};

/// A certified bound: the number, or `null` when unbounded.
fn card(c: Card) -> Value {
    c.finite().into()
}

/// Statement indices as the 1-based numbers a user reads in the file.
fn one_based(indices: &[usize]) -> Value {
    indices.iter().map(|i| i + 1).collect::<Vec<_>>().into()
}

fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}

fn list<T>(items: &[T], item: impl Fn(&T) -> Value) -> Value {
    Value::Array(items.iter().map(item).collect())
}

/// One `sso check --json` line: `code`, `severity`, `span` (byte
/// offsets `start` / `end`), `message` and `help` (`null` when absent).
pub fn diagnostic(d: &Diagnostic) -> Value {
    json!({
        "code": d.code.as_str(), "severity": d.severity.label(),
        "span": {"start": d.span.start, "end": d.span.end},
        "message": d.message.as_str(), "help": d.help.as_deref(),
    })
}

/// Read a [`diagnostic`] back. Refused: anything but one object, a key
/// it does not write, a missing `code`, `span` or `message`, and a
/// `severity` that contradicts the code (severity is re-derived from it).
pub fn parse_diagnostic(line: &str) -> Result<Diagnostic, String> {
    let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
    only_keys(&v, &["code", "severity", "span", "message", "help"])?;
    only_keys(&v["span"], &["start", "end"])?;
    let code: Code = v["code"].as_str().ok_or("missing `code`")?.parse()?;
    let offset = |key: &str| {
        let n = v["span"][key].as_u64().and_then(|n| usize::try_from(n).ok());
        n.ok_or(format!("span `{key}` is not a byte offset"))
    };
    let help = match &v["help"] {
        Value::Null => None,
        h => Some(h.as_str().ok_or("`help` is neither a string nor null")?.to_string()),
    };
    let d = Diagnostic {
        severity: code.severity(),
        code,
        span: Span::new(offset("start")?, offset("end")?),
        message: v["message"].as_str().ok_or("missing `message`")?.to_string(),
        help,
    };
    match v.get("severity") {
        Some(s) if s.as_str() != Some(d.severity.label()) => {
            Err(format!("severity {s:?} contradicts code {code}"))
        }
        _ => Ok(d),
    }
}

/// `Ok` when `v` is an object with no key outside `known`.
fn only_keys(v: &Value, known: &[&str]) -> Result<(), String> {
    let object = v.as_object().ok_or("expected an object")?;
    match object.keys().find(|k| !known.contains(&k.as_str())) {
        Some(key) => Err(format!("unknown key `{key}`")),
        None => Ok(()),
    }
}

/// `sso audit --json`: the bounds certificate under `report`, every
/// diagnostic under `diagnostics`.
pub fn audit(report: &BoundsReport, diags: &[Diagnostic]) -> Value {
    let durable = report.durable();
    json!({
        "report": {
            "feed": report.feed.as_str(), "shards": report.shards, "budget": report.budget,
            "total_state_bytes": card(report.total_state_bytes()),
            "durable": {
                "snapshot_bytes_per_window": card(durable.snapshot_bytes_per_window),
                "wal_bytes_per_window": card(durable.wal_bytes_per_window),
                "spill_pages": card(durable.spill_pages),
                "min_state_budget": durable.min_state_budget, "state_budget": durable.state_budget,
            },
            "statements": list(&report.statements, statement),
        },
        "diagnostics": list(diags, diagnostic),
    })
}

fn statement(s: &StatementBounds) -> Value {
    json!({
        "name": s.name.as_str(), "stream": s.stream.as_str(), "sampler": s.sampler.label(),
        "window_secs": s.window_secs,
        "rows_per_sec": card(s.rows_per_sec), "rows_per_window": card(s.rows_per_window),
        "key_cardinality": card(s.key_cardinality),
        "supergroup_cardinality": card(s.supergroup_cardinality),
        "per_supergroup_bound": card(s.per_supergroup_bound),
        "groups_bound": card(s.groups_bound),
        "group_entry_bytes": s.group_entry_bytes,
        "supergroup_entry_bytes": s.supergroup_entry_bytes,
        "state_bytes": card(s.state_bytes),
        "skew": s.skew.as_str(), "mergeable": s.mergeable,
    })
}

/// `sso optimize --json`: the rewrite report (share clusters, the
/// certificate, shared plans, the re-audit) plus every diagnostic.
pub fn optimize(o: &OptimizeOutcome) -> Value {
    json!({
        "report": {
            "statements": o.statements, "skipped": one_based(&o.skipped),
            "clusters": list(&o.clusters, cluster),
            "certificate": {
                "checksum": hex(o.certificate.checksum),
                "steps": list(&o.certificate.steps, step),
            },
            "shared": list(&o.shared, shared_plan),
            "reaudit": {
                "ok": o.reaudit.ok, "statements": o.reaudit.statements,
                "total_state_bytes": card(o.reaudit.total_state_bytes),
            },
        },
        "diagnostics": list(&o.diagnostics, diagnostic),
    })
}

fn cluster(c: &ShareCluster) -> Value {
    let prefilter: Vec<String> = c.prefilter.iter().map(ToString::to_string).collect();
    let group = |g: &ShareGroup| {
        json!({
            "statements": one_based(&g.statements), "hash": hex(g.hash),
            "canonical": g.canonical.as_str(),
            "mergeable": g.mergeable, "blocked": g.blocked.as_deref(),
        })
    };
    json!({
        "stream": c.stream.as_str(), "members": one_based(&c.members),
        "shared_prefilter": (!prefilter.is_empty()).then_some(prefilter),
        "groups": list(&c.groups, group),
    })
}

fn step(s: &RewriteStep) -> Value {
    json!({
        "rule": s.rule.as_str(), "statements": one_based(&s.statements),
        "before": s.before.iter().map(|&h| hex(h)).collect::<Vec<_>>(), "after": hex(s.after),
        "side_conditions": s.side_conditions.clone(),
    })
}

fn shared_plan(p: &SharedPlanDesc) -> Value {
    let group = |g: &SharedGroupDesc| {
        let consumers = g.consumers.clone();
        json!({"representative": g.representative + 1, "consumers": consumers})
    };
    json!({
        "stream": p.stream.as_str(), "prefilter": p.prefilter.as_ref().map(ToString::to_string),
        "groups": list(&p.groups, group),
    })
}

/// One `sso run --json` line: a closed window's key, its rows (every
/// cell as its display string) under `columns`, and its counters.
pub fn window(w: &WindowOutput, columns: &[String]) -> Value {
    let rows: Vec<Vec<String>> =
        w.rows.iter().map(|r| r.values().iter().map(ToString::to_string).collect()).collect();
    json!({
        "window": w.window.to_string(), "columns": columns.to_vec(), "rows": rows,
        "tuples": w.stats.tuples, "admitted": w.stats.admitted,
        "cleaning_phases": w.stats.cleaning_phases,
        "coverage": w.coverage(), "degraded": w.degraded(),
    })
}

/// A run's telemetry series, what `sso run --metrics` writes:
/// `{"snapshots": [{"seq": N, "metrics": [...]}, ...]}`.
pub fn snapshots(snaps: &[Snapshot]) -> Value {
    let snapshot = |s: &Snapshot| json!({"seq": s.seq, "metrics": list(&s.metrics, metric)});
    json!({"snapshots": list(snaps, snapshot)})
}

fn metric(m: &Metric) -> Value {
    let mut v = match &m.value {
        MetricValue::Counter(n) => json!({"value": *n}),
        MetricValue::Gauge(g) => json!({"value": *g}),
        MetricValue::Histogram(h) => json!({
            "count": h.count, "sum": h.sum, "mean": h.mean(),
            "p50": h.quantile(0.5), "p99": h.quantile(0.99),
        }),
    };
    if let Value::Object(fields) = &mut v {
        fields.insert("metric".into(), m.name.into());
        fields.insert("label".into(), m.label.as_str().into());
        fields.insert("kind".into(), m.kind.as_str().into());
    }
    v
}

/// Stable numeric thread id per lane for the trace viewer: workers from
/// 10, routers from 1000 (dumps from older builds can hold several
/// router lanes), so every lane gets its own track and the two families
/// never collide.
fn tid(lane: &LaneDump) -> u32 {
    match lane.kind {
        LaneKind::Merge => 1,
        LaneKind::Low => 2,
        LaneKind::Worker => 10 + lane.index,
        LaneKind::Router => 1000 + lane.index,
    }
}

/// `sso trace --chrome`: Chrome trace-event JSON, loadable in
/// chrome://tracing and Perfetto — one thread-name record (`ph:"M"`) per
/// lane, then one complete event (`ph:"X"`, microsecond `ts` / `dur`)
/// per stamp.
pub fn chrome_trace(dump: &Dump) -> Value {
    let names = dump.lanes.iter().map(|lane| {
        let name = json!({"name": lane.name()});
        json!({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid(lane), "args": name})
    });
    let events = dump.lanes.iter().flat_map(|lane| {
        lane.events.iter().map(move |e| {
            let mut args = Map::from([("aux".to_string(), e.aux.into())]);
            let ids = [
                ("shard", u32::from(e.shard), u32::from(SHARD_NONE)),
                ("window", e.window, WINDOW_NONE),
                ("batch", e.batch, BATCH_NONE),
            ];
            args.extend(
                ids.into_iter()
                    .filter(|&(_, id, none)| id != none)
                    .map(|(key, id, _)| (key.to_string(), id.into())),
            );
            json!({
                "name": e.stage.name(), "cat": "sso", "ph": "X",
                "ts": e.t_ns as f64 / 1e3, "dur": e.dur_ns as f64 / 1e3,
                "pid": 1, "tid": tid(lane), "args": args,
            })
        })
    });
    json!({"displayTimeUnit": "ms", "traceEvents": names.chain(events).collect::<Vec<_>>()})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{audit_file, AuditOptions, SkewClass};
    use crate::operator::merge::Size;
    use crate::operator::queries::EXAMPLE_QUERIES;
    use crate::operator::Sampler;
    use crate::profile::{DumpReason, Event, LaneDump, Stage};

    fn line(v: &Value) -> String {
        serde_json::to_string(v).unwrap()
    }

    #[test]
    fn diagnostic_round_trips() {
        let d = Diagnostic::new(
            Code::E003,
            Span::new(7, 12),
            "aggregate `count` is not allowed in CLEANING WHEN",
        )
        .with_help("aggregates are group-phase; CLEANING WHEN runs per tuple");
        let text = line(&diagnostic(&d));
        assert!(!text.contains('\n'), "one object per line: {text}");
        assert_eq!(parse_diagnostic(&text).unwrap(), d);

        // No help → null, and messages with quotes/newlines survive.
        let d = Diagnostic::new(Code::W004, Span::new(0, 3), "say \"hi\"\nthen \\ stop");
        let text = line(&diagnostic(&d));
        assert!(text.contains("\"help\":null"), "{text}");
        assert!(!text.contains('\n'), "escapes keep it on one line: {text}");
        assert_eq!(parse_diagnostic(&text).unwrap(), d);

        // A deduplicated batch survives a round trip unchanged.
        let mut diags = vec![
            Diagnostic::new(Code::W201, Span::DUMMY, "first copy"),
            Diagnostic::new(Code::W201, Span::DUMMY, "second copy"),
            Diagnostic::new(Code::W103, Span::new(3, 9), "different code survives"),
        ];
        crate::query::diag::dedup_diagnostics(&mut diags);
        let reparsed: Vec<Diagnostic> =
            diags.iter().map(|d| parse_diagnostic(&line(&diagnostic(d))).unwrap()).collect();
        assert_eq!(reparsed, diags);
    }

    #[test]
    fn diagnostic_reader_rejects_malformed_input() {
        assert!(parse_diagnostic("").is_err());
        assert!(parse_diagnostic("{}").is_err(), "missing required keys");
        let good = line(&diagnostic(&Diagnostic::new(Code::E001, Span::new(1, 2), "m")));
        assert!(parse_diagnostic(&good.replace("E001", "E999")).is_err(), "unknown code");
        assert!(parse_diagnostic(&good.replace("error", "warning")).is_err(), "severity lies");
        assert!(parse_diagnostic(&format!("{good}x")).is_err(), "trailing garbage");
        assert!(parse_diagnostic(&good[..good.len() - 2]).is_err(), "truncated");
        assert!(parse_diagnostic(&good.replace("\"help\"", "\"hint\"")).is_err(), "unknown key");
        assert!(
            parse_diagnostic(&good.replace("\"end\"", "\"stop\"")).is_err(),
            "unknown span key"
        );
        assert!(
            parse_diagnostic(&good.replace("\"end\":2", "\"end\":2.0")).is_err(),
            "not an offset"
        );
        assert!(parse_diagnostic(&good.replace("null", "7")).is_err(), "help is not a string");
        assert!(parse_diagnostic(&format!("[{good}]")).is_err(), "not an object");
        // `severity` and `help` may be left out, as the old reader allowed.
        let bare = r#"{"code":"E001","span":{"start":1,"end":2},"message":"m"}"#;
        assert_eq!(parse_diagnostic(bare).unwrap(), parse_diagnostic(&good).unwrap());
    }

    fn sample_statement() -> StatementBounds {
        StatementBounds {
            name: "stmt0".into(),
            stream: "PKT".into(),
            sampler: Sampler::Reservoir { n: Size::Literal(25), cleaning: true },
            window_secs: Some(60),
            rows_per_sec: Card::Finite(25_000),
            rows_per_window: Card::Finite(1_500_000),
            key_cardinality: Card::Unbounded,
            supergroup_cardinality: Card::Finite(61),
            per_supergroup_bound: Card::Finite(626),
            groups_bound: Card::Finite(38_186),
            group_entry_bytes: 160,
            supergroup_entry_bytes: 256,
            state_bytes: Card::Finite(6_125_376),
            output_wire_bytes: Card::Finite(38_186 * 31 + 74),
            skew: SkewClass::Spread,
            mergeable: true,
        }
    }

    #[test]
    fn audit_report_is_field_stable() {
        let report = BoundsReport {
            feed: "research".into(),
            shards: 4,
            budget: Some(8_000_000),
            state_budget: None,
            statements: vec![sample_statement()],
        };
        let doc = audit(&report, &[]);
        let text = line(&doc["report"]);
        assert!(text.contains("\"feed\":\"research\""), "{text}");
        assert!(text.contains("\"shards\":4") && text.contains("\"budget\":8000000"));
        assert!(text.contains("\"sampler\":\"reservoir(n=25)\""));
        assert!(text.contains("\"key_cardinality\":null"), "unbounded renders as null");
        assert!(text.contains("\"total_state_bytes\":6125376"));
        assert!(doc["report"]["durable"]["snapshot_bytes_per_window"].as_u64().is_some());
        assert_eq!(doc["diagnostics"], Value::Array(vec![]));

        // A saturated bound keeps every digit.
        let mut saturated = sample_statement();
        saturated.state_bytes = Card::Finite(u64::MAX);
        let report = BoundsReport { statements: vec![saturated], ..report };
        let text = line(&audit(&report, &[]));
        assert!(text.contains("\"state_bytes\":18446744073709551615"), "{text}");
    }

    #[test]
    fn report_snapshot_is_stable() {
        // One full-report snapshot so schema drift (renamed/removed
        // keys) fails loudly; tests/audit.rs pins the CLI's full document.
        let out = audit_file(EXAMPLE_QUERIES[6].1, &AuditOptions::default());
        let text = line(&audit(&out.report, &out.diagnostics)["report"]);
        for key in [
            "\"feed\":\"research\"",
            "\"shards\":1",
            "\"budget\":null",
            "\"total_state_bytes\":",
            "\"name\":\"stmt0\"",
            "\"stream\":\"TCP\"",
            "\"sampler\":\"reservoir(n=25)\"",
            "\"window_secs\":60",
            "\"rows_per_sec\":25000",
            "\"rows_per_window\":1500000",
            "\"key_cardinality\":",
            "\"supergroup_cardinality\":1",
            "\"per_supergroup_bound\":626",
            "\"groups_bound\":626",
            "\"group_entry_bytes\":",
            "\"supergroup_entry_bytes\":",
            "\"state_bytes\":",
            "\"skew\":",
            "\"mergeable\":true",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    fn sample_registry() -> crate::obs::Registry {
        let r = crate::obs::Registry::new();
        r.counter_labeled("rt.tuples", "shard=0").add(100);
        r.counter_labeled("rt.tuples", "shard=1").add(50);
        r.gauge("op.threshold_z").set(42.25);
        let h = r.histogram("op.process_ns");
        h.record(1000);
        h.record(3000);
        r
    }

    #[test]
    fn snapshot_document_shape() {
        let doc = serde_json::from_str(&line(&snapshots(&[sample_registry().snapshot()]))).unwrap();
        let snap = &doc["snapshots"][0];
        assert_eq!(snap["seq"].as_u64(), Some(0));
        let metrics = snap["metrics"].as_array().unwrap();
        let find = |name: &str, label: &str| {
            metrics
                .iter()
                .find(|m| m["metric"].as_str() == Some(name) && m["label"].as_str() == Some(label))
        };
        assert_eq!(find("rt.tuples", "shard=1").unwrap()["value"].as_u64(), Some(50));
        assert_eq!(find("op.threshold_z", "").unwrap()["value"].as_f64(), Some(42.25));
        let hist = find("op.process_ns", "").unwrap();
        assert_eq!((hist["count"].as_u64(), hist["sum"].as_u64()), (Some(2), Some(4000)));
        assert_eq!(hist["kind"].as_str(), Some("histogram"));
    }

    #[test]
    fn snapshots_document_wraps_series() {
        let r = sample_registry();
        let text = line(&snapshots(&[r.snapshot(), r.snapshot()]));
        assert!(text.starts_with("{\"snapshots\":["));
        assert!(text.contains("\"seq\":1"));
        assert!(text.ends_with("]}") && !text.contains('\n'));
    }

    #[test]
    fn chrome_trace_shape() {
        let dump = Dump {
            reason: DumpReason::Panic,
            lanes: vec![
                LaneDump {
                    kind: LaneKind::Router,
                    index: 0,
                    dropped: 1,
                    events: vec![Event::new(Stage::Route, 2_000, 500).shard(1).batch(4).aux(64)],
                },
                LaneDump {
                    kind: LaneKind::Worker,
                    index: 1,
                    dropped: 0,
                    events: vec![Event::new(Stage::Process, 3_000, 900)
                        .shard(1)
                        .window(0)
                        .batch(4)
                        .aux(64)],
                },
            ],
        };
        let doc = chrome_trace(&dump);
        assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
        let events = doc["traceEvents"].as_array().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M"))
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        // Router lanes are per-index tracks on their own tid block.
        assert_eq!(names, ["router/0", "worker/1"]);
        assert_eq!(events[0]["tid"].as_u64(), Some(1000));
        let route = &events[2];
        assert_eq!((route["ph"].as_str(), route["ts"].as_f64()), (Some("X"), Some(2.0)));
        assert_eq!(route["args"], json!({"aux": 64, "shard": 1, "batch": 4}));
        assert_eq!(events[3]["dur"].as_f64(), Some(0.9));
        assert_eq!(events[3]["args"]["window"].as_u64(), Some(0));
    }
}
