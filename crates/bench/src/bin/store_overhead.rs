//! **Durable-store overhead** — throughput cost of window checkpoints
//! and the carry-over WAL on the fault-free path.
//!
//! The durable path adds, per tuple, one window-key comparison in the
//! worker loop, and per closed window a carry/aux export plus a WAL
//! append (fsync `never`: the OS page cache absorbs the write). This
//! benchmark runs the subset-sum sharded workload twice per repetition:
//! once in memory and once with a durable store in a temp directory,
//! alternating the modes; best-of-reps is reported.
//!
//! The acceptance gate (enforced by `scripts/check.sh` over
//! `BENCH_store.json`) is ≤ 5% throughput overhead: durability must not
//! cost a shard's worth of throughput on the run that never crashes.

use std::time::Instant;

use sso_bench::{header, maybe_json};
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{queries, shard_plan, OpError, OperatorSpec};
use sso_gigascope::{run_plan_sharded_with, SelectionNode};
use sso_netgen::datacenter_feed;
use sso_runtime::{DurabilityConfig, RuntimeConfig};
use sso_types::Packet;

const SEED: u64 = 0x5704e;
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
    checkpoint_every: u64,
    fsync: &'static str,
}

#[derive(serde::Serialize)]
struct Mode {
    durable: bool,
    secs: f64,
    tuples_per_sec: f64,
    windows: usize,
}

#[derive(serde::Serialize)]
struct Report {
    config: Config,
    baseline: Mode,
    durable: Mode,
    /// Throughput lost to checkpoints + WAL appends, percent (negative
    /// = noise in the durable run's favor).
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

fn run_once(packets: &[Packet], dir: Option<&std::path::Path>) -> (f64, usize) {
    let full = SubsetSumOpConfig { target: TARGET, initial_z: 1.0, ..Default::default() };
    let plan = shard_plan(&queries::subset_sum_query(WINDOW, full, false).unwrap())
        .expect("subset-sum is shard-mergeable");
    let mut cfg = RuntimeConfig::new(SHARDS);
    if let Some(dir) = dir {
        let mut durability = DurabilityConfig::new(dir);
        durability.checkpoint_every = 2;
        cfg = cfg.with_durability(durability);
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
    assert!(!report.degraded(), "the fault-free path must not degrade");
    (t0.elapsed().as_secs_f64(), report.windows.len())
}

fn main() {
    let packets = datacenter_feed(SEED).take_seconds(SECONDS);
    let n = packets.len();
    if !sso_bench::json_mode() {
        eprintln!("# {n} packets, {REPS} alternating reps per mode");
    }
    let dir = std::env::temp_dir().join(format!("sso-store-overhead-{}", std::process::id()));

    let mut base_best = (f64::INFINITY, 0usize);
    let mut dur_best = (f64::INFINITY, 0usize);
    for _ in 0..REPS {
        let base = run_once(&packets, None);
        if base.0 < base_best.0 {
            base_best = base;
        }
        // Each durable rep starts its store fresh: `create` wipes the
        // shard files, so reps measure steady-state write cost, not an
        // ever-growing WAL.
        let durable = run_once(&packets, Some(&dir));
        if durable.0 < dur_best.0 {
            dur_best = durable;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let base_tps = n as f64 / base_best.0;
    let dur_tps = n as f64 / dur_best.0;
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
            checkpoint_every: 2,
            fsync: "never",
        },
        baseline: Mode {
            durable: false,
            secs: base_best.0,
            tuples_per_sec: base_tps,
            windows: base_best.1,
        },
        durable: Mode {
            durable: true,
            secs: dur_best.0,
            tuples_per_sec: dur_tps,
            windows: dur_best.1,
        },
        overhead_pct: 100.0 * (base_tps - dur_tps) / base_tps,
    };

    if maybe_json(&report) {
        return;
    }
    header("Durable-store overhead: checkpoints + WAL (fsync never) vs in-memory");
    println!("{:>12} {:>8} {:>12} {:>8}", "mode", "secs", "tuples/s", "windows");
    for m in [&report.baseline, &report.durable] {
        println!(
            "{:>12} {:>8.3} {:>12.0} {:>8}",
            if m.durable { "durable" } else { "baseline" },
            m.secs,
            m.tuples_per_sec,
            m.windows,
        );
    }
    println!("overhead: {:.2}%", report.overhead_pct);
}
