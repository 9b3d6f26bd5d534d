//! The names this benchmark reports: every end-to-end and per-layer
//! metric with its unit, direction and regression bound, and the text
//! of `BENCHMARK.json` generated from them (a test keeps the file at
//! the repo root in step with this table).

use std::fmt::Write as _;

use crate::workloads::ALL;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the engine sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression. The speed metrics carry
    /// the contract's maximum: the shared 2-core reference host drifts
    /// by 10–35 % over tens of minutes (README.md has the measurements),
    /// so a tighter bound would flag the host, not the change.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "tuples_per_s", unit: "tuples/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "cpu_ns_per_tuple", unit: "ns", better: Lower, bound: 0.25 },
    EndToEnd { name: "window_lag_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "window_lag_p95_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.2 },
];

/// The samplers the operator hosts, as per-layer metric suffixes.
pub const SAMPLERS: [&str; 6] = ["ss", "hh", "reservoir", "kmv", "distinct", "basic_ss"];

/// The standalone `sso-sampling` structures (the hand-coded floor).
pub const STANDALONE: [&str; 5] = ["subset_sum", "reservoir", "reservoir_skip", "lossy", "kmv"];

/// Per-sampler operator metrics: `(prefix, unit, direction)`.
const PER_SAMPLER: [(&str, &str, Better); 7] = [
    ("core.operator.admit_ns", "ns", Lower),
    ("core.operator.flush_us_p50", "us", Lower),
    ("core.operator.flush_us_max", "us", Lower),
    ("core.operator.admit_ratio", "ratio", Lower),
    ("core.operator.cleanings_per_window", "count", Lower),
    ("core.operator.evictions_per_window", "count", Lower),
    ("core.operator.rows_per_window", "count", Higher),
];

/// Per-layer metrics that are not per sampler.
const PER_LAYER_FIXED: [(&str, &str, Better); 28] = [
    ("netgen.generate_ns_per_pkt", "ns", Lower),
    ("query.compile_us", "us", Lower),
    ("rewrite.optimize_us", "us", Lower),
    ("types.to_tuple_ns", "ns", Lower),
    ("gigascope.low_ns_per_pkt", "ns", Lower),
    ("core.expr.eval_ns", "ns", Lower),
    ("runtime.route_ns", "ns", Lower),
    ("runtime.route_skew", "ratio", Lower),
    ("runtime.ring_ns_per_batch", "ns", Lower),
    ("runtime.merge_us_per_window", "us", Lower),
    ("runtime.worker_busy_share", "ratio", Higher),
    ("runtime.stalls", "count", Lower),
    ("runtime.dropped", "count", Lower),
    ("runtime.ring_batches", "count", Lower),
    ("store.record_window_us", "us", Lower),
    ("store.checkpoint_us", "us", Lower),
    ("store.wal_bytes_per_window", "B", Lower),
    ("store.ckpt_bytes", "B", Lower),
    ("rss_baseline_mb", "MiB", Lower),
    ("trace.overhead_pct", "%", Lower),
    ("trace.unattributed_pct", "%", Lower),
    ("share.gigascope.low_pct", "%", Lower),
    ("share.core.expr_pct", "%", Lower),
    ("share.core.operator_pct", "%", Lower),
    ("share.types_pct", "%", Lower),
    ("share.runtime_pct", "%", Lower),
    ("share.store_pct", "%", Lower),
    ("failed_share", "ratio", Lower),
];

/// A per-layer metric's name, unit and direction.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<PerLayer> {
    let fixed = PER_LAYER_FIXED.iter().map(|&(name, unit, better)| PerLayer {
        name: name.to_string(),
        unit,
        better,
    });
    let samplers = PER_SAMPLER.iter().flat_map(|&(prefix, unit, better)| {
        SAMPLERS.iter().map(move |s| PerLayer { name: format!("{prefix}.{s}"), unit, better })
    });
    let standalone = STANDALONE.iter().map(|s| PerLayer {
        name: format!("sampling.offer_ns.{s}"),
        unit: "ns",
        better: Lower,
    });
    fixed.chain(samplers).chain(standalone).collect()
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("write");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in ALL.iter().enumerate() {
        let comma = if i + 1 < ALL.len() { "," } else { "" };
        writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name(), w.why())
            .expect("write");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        )
        .expect("write");
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        )
        .expect("write");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .chain(layers.iter().map(|m| (m.name.clone(), m.unit)))
            .chain(ALL.iter().map(|w| (w.name().to_string(), "s")));
        for (name, unit) in names {
            assert!(valid_name(&name), "bad name {name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
            assert!(unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for w in ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n') && !w.why().contains('"'));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_matches_this_table() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --release -- --print-contract > ../BENCHMARK.json`"
        );
    }
}
