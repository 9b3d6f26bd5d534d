//! **Observability overhead** — throughput cost of full telemetry.
//!
//! Runs the `runtime_scaling` workload (the paper's dynamic subset-sum
//! query, 1000 samples per period, over the steady ~100k pkt/s
//! data-center feed) on the 4-way sharded runtime twice per repetition:
//! once uninstrumented (no registry: spans disabled, operator metrics
//! absent) and once with a live [`sso_obs::Registry`] attached (every
//! counter, gauge, histogram, sampled span, and the under-sampling
//! detector active). Repetitions alternate the two modes so clock drift
//! and cache warming hit both equally; best-of-reps is reported.
//!
//! The acceptance gate (enforced by `scripts/check.sh` over
//! `BENCH_obs.json`) is ≤ 5% throughput overhead: telemetry must be
//! cheap enough to leave on in production, which is the point of the
//! sharded-handle registry and the one-branch disabled path.

use std::time::Instant;

use sso_bench::{header, maybe_json};
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{queries, shard_plan, OpError, OperatorSpec};
use sso_gigascope::{run_plan_sharded_with, SelectionNode};
use sso_netgen::datacenter_feed;
use sso_obs::Registry;
use sso_runtime::RuntimeConfig;
use sso_types::Packet;

const SEED: u64 = 0x5ca1e;
const SECONDS: u64 = 20;
const WINDOW: u64 = 5;
const TARGET: usize = 1000;
const SHARDS: usize = 4;
const REPS: usize = 7;

#[derive(serde::Serialize)]
struct Config {
    feed: &'static str,
    seed: u64,
    seconds: u64,
    packets: usize,
    window_secs: u64,
    target_samples: usize,
    shards: usize,
    reps: usize,
}

#[derive(serde::Serialize)]
struct Mode {
    instrumented: bool,
    secs: f64,
    tuples_per_sec: f64,
    windows: usize,
}

#[derive(serde::Serialize)]
struct Report {
    config: Config,
    uninstrumented: Mode,
    instrumented: Mode,
    /// Throughput lost to telemetry, percent (negative = noise in the
    /// instrumented run's favor).
    overhead_pct: f64,
    metrics_in_final_snapshot: usize,
}

fn spec(shards: usize) -> impl Fn(usize) -> Result<OperatorSpec, OpError> {
    move |_shard| {
        let cfg = SubsetSumOpConfig {
            target: TARGET.div_ceil(shards),
            initial_z: 1.0,
            ..Default::default()
        };
        queries::subset_sum_query(WINDOW, cfg, false)
    }
}

fn run_once(packets: &[Packet], registry: Option<&Registry>) -> (f64, usize) {
    let full = SubsetSumOpConfig { target: TARGET, initial_z: 1.0, ..Default::default() };
    let plan = shard_plan(&queries::subset_sum_query(WINDOW, full, false).unwrap())
        .expect("subset-sum is shard-mergeable");
    let mut cfg = RuntimeConfig::new(SHARDS);
    if let Some(reg) = registry {
        cfg = cfg.with_registry(reg.clone());
    }
    let t0 = Instant::now();
    let report = run_plan_sharded_with(
        Box::new(SelectionNode::pass_all()),
        &plan,
        spec(SHARDS),
        &cfg,
        packets.iter().cloned(),
    )
    .expect("sharded run");
    (t0.elapsed().as_secs_f64(), report.windows.len())
}

fn main() {
    let packets = datacenter_feed(SEED).take_seconds(SECONDS);
    let n = packets.len();
    if !sso_bench::json_mode() {
        eprintln!("# {n} packets, {REPS} alternating reps per mode");
    }

    let mut plain_best = (f64::INFINITY, 0usize);
    let mut instr_best = (f64::INFINITY, 0usize);
    let mut metrics_in_final_snapshot = 0usize;
    for _ in 0..REPS {
        let plain = run_once(&packets, None);
        if plain.0 < plain_best.0 {
            plain_best = plain;
        }
        let registry = Registry::new();
        let instr = run_once(&packets, Some(&registry));
        if instr.0 < instr_best.0 {
            instr_best = instr;
        }
        metrics_in_final_snapshot = registry.snapshot().metrics.len();
    }

    let plain_tps = n as f64 / plain_best.0;
    let instr_tps = n as f64 / instr_best.0;
    let report = Report {
        config: Config {
            feed: "datacenter",
            seed: SEED,
            seconds: SECONDS,
            packets: n,
            window_secs: WINDOW,
            target_samples: TARGET,
            shards: SHARDS,
            reps: REPS,
        },
        uninstrumented: Mode {
            instrumented: false,
            secs: plain_best.0,
            tuples_per_sec: plain_tps,
            windows: plain_best.1,
        },
        instrumented: Mode {
            instrumented: true,
            secs: instr_best.0,
            tuples_per_sec: instr_tps,
            windows: instr_best.1,
        },
        overhead_pct: 100.0 * (plain_tps - instr_tps) / plain_tps,
        metrics_in_final_snapshot,
    };

    if maybe_json(&report) {
        return;
    }
    header("Observability overhead: instrumented vs uninstrumented sharded subset-sum");
    println!("{:>14} {:>8} {:>12} {:>8}", "mode", "secs", "tuples/s", "windows");
    for m in [&report.uninstrumented, &report.instrumented] {
        println!(
            "{:>14} {:>8.3} {:>12.0} {:>8}",
            if m.instrumented { "instrumented" } else { "uninstrumented" },
            m.secs,
            m.tuples_per_sec,
            m.windows,
        );
    }
    println!(
        "overhead: {:.2}% ({} metrics in final snapshot)",
        report.overhead_pct, report.metrics_in_final_snapshot
    );
}
