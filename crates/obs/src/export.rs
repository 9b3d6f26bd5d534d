//! The Prometheus text exporter: `# TYPE` lines, labels in `{}`,
//! histograms as cumulative `_bucket{le=...}` series plus
//! `_sum`/`_count`. Snapshots as JSON (`sso run --metrics`) are built
//! through the vendored `serde_json` in the root package's `json` module.

use std::fmt::Write as _;

use crate::hist::HistSnapshot;
use crate::registry::{MetricValue, Snapshot};

fn prom_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

fn prom_labels(label: &str, extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = Vec::new();
    if !label.is_empty() {
        // Labels are "key=value"; fall back to instance="..." otherwise.
        match label.split_once('=') {
            Some((k, v)) => parts.push(format!("{}=\"{}\"", prom_name(k), v)),
            None => parts.push(format!("instance=\"{label}\"")),
        }
    }
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn prom_histogram(out: &mut String, name: &str, label: &str, h: &HistSnapshot) {
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let le = HistSnapshot::bucket_bound(i).to_string();
        let _ = writeln!(out, "{name}_bucket{} {cum}", prom_labels(label, Some(("le", le))));
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        prom_labels(label, Some(("le", "+Inf".into()))),
        h.count
    );
    let _ = writeln!(out, "{name}_sum{} {}", prom_labels(label, None), h.sum);
    let _ = writeln!(out, "{name}_count{} {}", prom_labels(label, None), h.count);
}

/// `# HELP` text for the well-known metric families; scrapers surface
/// it next to the series, so unknown names still get a truthful line.
fn prom_help(name: &str) -> &'static str {
    match name {
        "rt.tuples" => "Tuples processed by the shard worker",
        "rt.windows" => "Windows closed by the shard worker",
        "rt.stalls" => "Full-ring waits the router observed pushing to this shard",
        "rt.ring_depth" => {
            "Batches resident in the shard ring (sampled at push, including wait entry)"
        }
        "rt.quarantines" => "Worker panics caught and quarantined",
        "rt.coverage" => "Run-level output coverage (1.0 = no fault degraded the output)",
        "op.tuples" => "Tuples offered to the sampling operator",
        "op.admitted" => "Tuples admitted past the sampling predicate",
        "op.windows" => "Windows closed by the sampling operator",
        "op.output_rows" => "Rows emitted at window close",
        "op.groups" => "Live groups in the operator table",
        "op.threshold_z" => "Current sampling threshold",
        "op.process_ns" => "Tuple-phase latency (sampled 1 in 64)",
        "op.run_ns" => "Latency of one run of WHERE calls decided at once (sampled 1 in 64)",
        "op.window_close_ns" => "Window-close flush latency",
        "op.finalize_ns" => "End-of-stream force-close latency",
        "low.busy_ns" => "Low-level node busy time on the router thread",
        "prof.stage_ns" => "Causal-trace stage duration total (label stage=NAME)",
        "prof.stage_events" => "Causal-trace events observed per stage",
        "prof.window_ns" => "End-to-end window latency: first Process stamp to merged Emit",
        "prof.dropped_events" => "Trace events lost to lane ring wrap-around",
        n if n.starts_with("prof.stage.") => "Causal-trace per-stage duration distribution",
        n if n.starts_with("store.") => "Durable-store metric (shard log, spill pager)",
        _ => "stream-sampler metric",
    }
}

/// Render one snapshot in the Prometheus text exposition format.
pub fn snapshot_to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for m in &snap.metrics {
        let name = prom_name(m.name);
        if m.name != last_name {
            let ty = m.kind.as_str();
            let _ = writeln!(out, "# HELP {name} {}", prom_help(m.name));
            let _ = writeln!(out, "# TYPE {name} {ty}");
            last_name = m.name;
        }
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name}{} {v}", prom_labels(&m.label, None));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name}{} {v}", prom_labels(&m.label, None));
            }
            MetricValue::Histogram(h) => prom_histogram(&mut out, &name, &m.label, h),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter_labeled("rt.tuples", "shard=0").add(100);
        r.counter_labeled("rt.tuples", "shard=1").add(50);
        r.gauge("op.threshold_z").set(42.25);
        let h = r.histogram("op.process_ns");
        h.record(1000);
        h.record(3000);
        r
    }

    #[test]
    fn prometheus_has_types_and_hist_series() {
        let r = sample_registry();
        let text = snapshot_to_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE rt_tuples counter"));
        assert!(text.contains("rt_tuples{shard=\"0\"} 100"));
        assert!(text.contains("# TYPE op_threshold_z gauge"));
        assert!(text.contains("op_process_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("op_process_ns_sum 4000"));
        assert!(text.contains("op_process_ns_count 2"));
        // TYPE line appears once per metric name even with two cells.
        assert_eq!(text.matches("# TYPE rt_tuples").count(), 1);
    }

    #[test]
    fn json_escapes_strings() {
        // A label reaches the `--metrics` document verbatim; serde's one
        // escaper quotes it there.
        let r = Registry::new();
        r.counter_labeled("rt.tuples", "a\"b\\c\nd").inc();
        let label = &r.snapshot().metrics[0].label;
        assert_eq!(serde_json::to_string(label).unwrap(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn prometheus_help_precedes_every_type_line() {
        let r = sample_registry();
        r.counter("made.up_name").inc();
        let text = snapshot_to_prometheus(&r.snapshot());
        assert!(text.contains("# HELP rt_tuples Tuples processed by the shard worker"));
        assert_eq!(text.matches("# HELP rt_tuples").count(), 1);
        // Unknown names still get a truthful generic HELP line.
        assert!(text.contains("# HELP made_up_name stream-sampler metric"));
        // The exposition-format pairing: each TYPE directly follows its
        // HELP for the same metric name.
        let lines: Vec<&str> = text.lines().collect();
        for (i, l) in lines.iter().enumerate() {
            if let Some(rest) = l.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                let prev = lines[i - 1];
                assert!(
                    prev.starts_with(&format!("# HELP {name} ")),
                    "TYPE for {name} not preceded by its HELP: {prev}"
                );
            }
        }
    }
}
