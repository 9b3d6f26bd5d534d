//! **Fault-tolerance overhead** — throughput cost of shard supervision.
//!
//! The quarantine machinery sits on the worker hot path: a per-tuple
//! fault-schedule check and a per-segment `catch_unwind` (one per
//! batch, not per tuple, when nothing panics). This benchmark runs the
//! `runtime_scaling` workload twice per repetition: once under
//! [`Supervision::Abort`] with no fault plan (the pre-supervision
//! semantics) and once under the default [`Supervision::Quarantine`]
//! with an *armed but never-firing* fault plan (worker events parked at
//! `at_tuple = u64::MAX`), so the fault-check branch is live on every
//! tuple. Repetitions alternate the modes; best-of-reps is reported.
//!
//! The acceptance gate (enforced by `scripts/check.sh` over
//! `BENCH_faults.json`) is ≤ 5% throughput overhead: surviving shard
//! failures must not cost a shard's worth of throughput.

use std::time::Instant;

use sso_bench::{header, maybe_json};
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{queries, shard_plan, OpError, OperatorSpec};
use sso_faults::{FaultEvent, FaultPlan};
use sso_gigascope::{run_plan_sharded_with, SelectionNode};
use sso_netgen::datacenter_feed;
use sso_runtime::{RuntimeConfig, Supervision};
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
    supervised: bool,
    secs: f64,
    tuples_per_sec: f64,
    windows: usize,
}

#[derive(serde::Serialize)]
struct Report {
    config: Config,
    baseline: Mode,
    supervised: Mode,
    /// Throughput lost to supervision + armed fault checks, percent
    /// (negative = noise in the supervised run's favor).
    overhead_pct: f64,
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

/// A plan whose worker events are armed on every shard but can never
/// fire: the per-tuple check branch stays on the hot path.
fn parked_plan() -> FaultPlan {
    let mut plan = FaultPlan::empty(0);
    for shard in 0..SHARDS {
        plan.events.push(FaultEvent::WorkerPanic { shard, at_tuple: u64::MAX });
    }
    plan
}

fn run_once(packets: &[Packet], supervised: bool) -> (f64, usize) {
    let full = SubsetSumOpConfig { target: TARGET, initial_z: 1.0, ..Default::default() };
    let plan = shard_plan(&queries::subset_sum_query(WINDOW, full, false).unwrap())
        .expect("subset-sum is shard-mergeable");
    let mut cfg = RuntimeConfig::new(SHARDS);
    if supervised {
        cfg = cfg.with_faults(parked_plan().into_shared());
    } else {
        cfg.supervision = Supervision::Abort;
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
    assert!(!report.degraded(), "parked faults must never fire");
    (t0.elapsed().as_secs_f64(), report.windows.len())
}

fn main() {
    let packets = datacenter_feed(SEED).take_seconds(SECONDS);
    let n = packets.len();
    if !sso_bench::json_mode() {
        eprintln!("# {n} packets, {REPS} alternating reps per mode");
    }

    let mut base_best = (f64::INFINITY, 0usize);
    let mut sup_best = (f64::INFINITY, 0usize);
    for _ in 0..REPS {
        let base = run_once(&packets, false);
        if base.0 < base_best.0 {
            base_best = base;
        }
        let sup = run_once(&packets, true);
        if sup.0 < sup_best.0 {
            sup_best = sup;
        }
    }

    let base_tps = n as f64 / base_best.0;
    let sup_tps = n as f64 / sup_best.0;
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
        baseline: Mode {
            supervised: false,
            secs: base_best.0,
            tuples_per_sec: base_tps,
            windows: base_best.1,
        },
        supervised: Mode {
            supervised: true,
            secs: sup_best.0,
            tuples_per_sec: sup_tps,
            windows: sup_best.1,
        },
        overhead_pct: 100.0 * (base_tps - sup_tps) / base_tps,
    };

    if maybe_json(&report) {
        return;
    }
    header("Fault-tolerance overhead: supervised (armed checks) vs abort-on-panic");
    println!("{:>12} {:>8} {:>12} {:>8}", "mode", "secs", "tuples/s", "windows");
    for m in [&report.baseline, &report.supervised] {
        println!(
            "{:>12} {:>8.3} {:>12.0} {:>8}",
            if m.supervised { "supervised" } else { "baseline" },
            m.secs,
            m.tuples_per_sec,
            m.windows,
        );
    }
    println!("overhead: {:.2}%", report.overhead_pct);
}
