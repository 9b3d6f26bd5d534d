//! **Profiling overhead** — throughput cost of the causal stage tracer.
//!
//! Runs the `runtime_scaling` workload (the paper's dynamic subset-sum
//! query, 1000 samples per period, over the steady ~100k pkt/s
//! data-center feed) on the 4-way sharded runtime twice per repetition:
//! once unprofiled and once with an [`sso_profile::Profiler`] attached
//! (every batch stamped through ingest → route → ring wait → process →
//! flush → barrier wait → merge → emit). Repetitions alternate the two
//! modes so clock drift and cache warming hit both equally; best-of-reps
//! is reported.
//!
//! The acceptance gate (enforced by `scripts/check.sh` over
//! `BENCH_profile.json`) is ≤ 5% throughput overhead: the flight
//! recorder must be cheap enough to leave on in production, which is
//! the point of the fixed-capacity lanes (4 `Relaxed` stores + one
//! `Release` publish per batch, one branch per batch when disabled).
//!
//! The report also answers ROADMAP item 1's open question — *where does
//! the time go as shards scale?* — with a measured stage-attribution
//! table at 8 shards (`attribution_8shard`): per-stage share of traced
//! time, the dominant stage, and the router's share.

use std::time::Instant;

use sso_bench::{header, maybe_json};
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{queries, shard_plan, OpError, OperatorSpec};
use sso_gigascope::{run_plan_sharded_with, SelectionNode};
use sso_netgen::datacenter_feed;
use sso_profile::{Profiler, ProfilerConfig};
use sso_runtime::RuntimeConfig;
use sso_types::Packet;

const SEED: u64 = 0x5ca1e;
const SECONDS: u64 = 20;
const WINDOW: u64 = 5;
const TARGET: usize = 1000;
const SHARDS: usize = 4;
const ATTRIB_SHARDS: usize = 8;
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
    profiled: bool,
    secs: f64,
    tuples_per_sec: f64,
    windows: usize,
}

#[derive(serde::Serialize)]
struct StageShare {
    stage: &'static str,
    events: u64,
    total_ns: u64,
    share_pct: f64,
}

/// Where the time goes at 8 shards: the measured answer to "is the
/// single router the next wall?" recorded alongside the gate numbers.
#[derive(serde::Serialize)]
struct Attribution {
    shards: usize,
    stages: Vec<StageShare>,
    dominant_stage: Option<&'static str>,
    router_share_pct: f64,
    window_p50_ns: u64,
    window_p99_ns: u64,
    window_count: u64,
    dropped_events: u64,
}

#[derive(serde::Serialize)]
struct Report {
    config: Config,
    unprofiled: Mode,
    profiled: Mode,
    /// Throughput lost to tracing, percent (negative = noise in the
    /// profiled run's favor).
    overhead_pct: f64,
    attribution_8shard: Attribution,
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

fn run_once(packets: &[Packet], shards: usize, profiler: Option<&Profiler>) -> (f64, usize) {
    let full = SubsetSumOpConfig { target: TARGET, initial_z: 1.0, ..Default::default() };
    let plan = shard_plan(&queries::subset_sum_query(WINDOW, full, false).unwrap())
        .expect("subset-sum is shard-mergeable");
    let mut cfg = RuntimeConfig::new(shards);
    if let Some(p) = profiler {
        cfg = cfg.with_profile(p.clone());
    }
    let t0 = Instant::now();
    let report = run_plan_sharded_with(
        Box::new(SelectionNode::pass_all()),
        &plan,
        spec(shards),
        &cfg,
        packets.iter().cloned(),
    )
    .expect("sharded run");
    (t0.elapsed().as_secs_f64(), report.windows.len())
}

fn attribution(packets: &[Packet]) -> Attribution {
    let profiler = Profiler::new(ProfilerConfig::default());
    run_once(packets, ATTRIB_SHARDS, Some(&profiler));
    let rep = profiler.report();
    Attribution {
        shards: ATTRIB_SHARDS,
        stages: rep
            .stages
            .iter()
            .map(|s| StageShare {
                stage: s.stage.name(),
                events: s.events,
                total_ns: s.total_ns,
                share_pct: s.share_pct,
            })
            .collect(),
        dominant_stage: rep.dominant.map(|s| s.name()),
        router_share_pct: rep.router_share_pct,
        window_p50_ns: rep.windows.quantile(0.5),
        window_p99_ns: rep.windows.quantile(0.99),
        window_count: rep.window_count,
        dropped_events: rep.dropped_events,
    }
}

fn main() {
    let packets = datacenter_feed(SEED).take_seconds(SECONDS);
    let n = packets.len();
    if !sso_bench::json_mode() {
        eprintln!("# {n} packets, {REPS} alternating reps per mode");
    }

    let mut plain_best = (f64::INFINITY, 0usize);
    let mut prof_best = (f64::INFINITY, 0usize);
    for _ in 0..REPS {
        let plain = run_once(&packets, SHARDS, None);
        if plain.0 < plain_best.0 {
            plain_best = plain;
        }
        let profiler = Profiler::new(ProfilerConfig::default());
        let prof = run_once(&packets, SHARDS, Some(&profiler));
        if prof.0 < prof_best.0 {
            prof_best = prof;
        }
    }

    let plain_tps = n as f64 / plain_best.0;
    let prof_tps = n as f64 / prof_best.0;
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
        unprofiled: Mode {
            profiled: false,
            secs: plain_best.0,
            tuples_per_sec: plain_tps,
            windows: plain_best.1,
        },
        profiled: Mode {
            profiled: true,
            secs: prof_best.0,
            tuples_per_sec: prof_tps,
            windows: prof_best.1,
        },
        overhead_pct: 100.0 * (plain_tps - prof_tps) / plain_tps,
        attribution_8shard: attribution(&packets),
    };

    if maybe_json(&report) {
        return;
    }
    header("Profiling overhead: traced vs untraced sharded subset-sum");
    println!("{:>12} {:>8} {:>12} {:>8}", "mode", "secs", "tuples/s", "windows");
    for m in [&report.unprofiled, &report.profiled] {
        println!(
            "{:>12} {:>8.3} {:>12.0} {:>8}",
            if m.profiled { "profiled" } else { "unprofiled" },
            m.secs,
            m.tuples_per_sec,
            m.windows,
        );
    }
    println!("overhead: {:.2}%", report.overhead_pct);
    let a = &report.attribution_8shard;
    println!("\nstage attribution at {} shards:", a.shards);
    for s in &a.stages {
        println!("{:>14} {:>10} events {:>6.1}%", s.stage, s.events, s.share_pct);
    }
    println!(
        "dominant: {} | router share: {:.1}% | {} windows, {} dropped events",
        a.dominant_stage.unwrap_or("-"),
        a.router_share_pct,
        a.window_count,
        a.dropped_events,
    );
}
