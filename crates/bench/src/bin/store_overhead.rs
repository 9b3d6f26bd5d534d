//! **Durable-store overhead** — throughput cost of the shard log on the
//! fault-free path.
//!
//! The durable path adds, per tuple, one window-key comparison in the
//! worker loop, and per closed window a carry/aux export plus a log
//! append (fsync `never`: the OS page cache absorbs the write) and a
//! sync of the log every `checkpoint_every` windows. This benchmark runs
//! a subset-sum sharded workload twice per repetition: once in memory
//! and once with a durable store in a temp directory, alternating the
//! modes; best-of-reps is reported.
//!
//! Two shapes are run. The *gated* one (5 s windows, 1 000 samples: 4
//! windows of ~250 rows per shard) carries the acceptance gate enforced
//! by `scripts/check.sh` over `BENCH_store.json`: ≤ 5% throughput
//! overhead. It writes so little that it cannot see the store's write
//! path — it passed while every checkpoint rewrote every output so far —
//! so an *ungated* run shaped like the benchmark's `ss_durable` workload
//! (1 s windows, 20 000 samples, 20 windows) is reported beside it, at
//! a sample size where the store matters.

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
const REPS: usize = 7;

/// One workload shape; the feed is the same for both.
#[derive(Clone, Copy)]
struct Shape {
    window_secs: u64,
    target_samples: usize,
    shards: usize,
    checkpoint_every: u64,
}

const GATED: Shape = Shape { window_secs: 5, target_samples: 1000, shards: 4, checkpoint_every: 2 };
const SS_DURABLE_SHAPED: Shape =
    Shape { window_secs: 1, target_samples: 20_000, shards: 2, checkpoint_every: 4 };

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
struct Comparison {
    config: Config,
    baseline: Mode,
    durable: Mode,
    /// Throughput lost to the shard log, percent (negative = noise in
    /// the durable run's favor).
    overhead_pct: f64,
}

#[derive(serde::Serialize)]
struct Report {
    /// The shape `scripts/check.sh` gates.
    gated: Comparison,
    /// The ungated `ss_durable`-shaped run.
    ss_durable_shaped: Comparison,
}

fn spec(shape: Shape, target: usize) -> Result<OperatorSpec, OpError> {
    let cfg = SubsetSumOpConfig { target, initial_z: 1.0, ..Default::default() };
    queries::subset_sum_query(shape.window_secs, cfg, false)
}

fn run_once(shape: Shape, packets: &[Packet], dir: Option<&std::path::Path>) -> (f64, usize) {
    let plan = shard_plan(&spec(shape, shape.target_samples).unwrap())
        .expect("subset-sum is shard-mergeable");
    let mut cfg = RuntimeConfig::new(shape.shards);
    if let Some(dir) = dir {
        let mut durability = DurabilityConfig::new(dir);
        durability.checkpoint_every = shape.checkpoint_every;
        cfg = cfg.with_durability(durability);
    }
    let t0 = Instant::now();
    let report = run_plan_sharded_with(
        Box::new(SelectionNode::pass_all()),
        &plan,
        |_shard| spec(shape, shape.target_samples.div_ceil(shape.shards)),
        &cfg,
        packets.iter().cloned(),
    )
    .expect("sharded run");
    assert!(!report.degraded(), "the fault-free path must not degrade");
    (t0.elapsed().as_secs_f64(), report.windows.len())
}

fn compare(shape: Shape, packets: &[Packet]) -> Comparison {
    let n = packets.len();
    let dir = std::env::temp_dir().join(format!("sso-store-overhead-{}", std::process::id()));
    let mut base_best = (f64::INFINITY, 0usize);
    let mut dur_best = (f64::INFINITY, 0usize);
    for _ in 0..REPS {
        let base = run_once(shape, packets, None);
        if base.0 < base_best.0 {
            base_best = base;
        }
        // Each durable rep starts its store fresh: `create` wipes the
        // shard files, so reps measure steady-state write cost, not an
        // ever-growing log.
        let durable = run_once(shape, packets, Some(&dir));
        if durable.0 < dur_best.0 {
            dur_best = durable;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let mode = |durable: bool, (secs, windows): (f64, usize)| Mode {
        durable,
        secs,
        tuples_per_sec: n as f64 / secs,
        windows,
    };
    let (baseline, durable) = (mode(false, base_best), mode(true, dur_best));
    Comparison {
        config: Config {
            feed: "datacenter",
            seed: SEED,
            seconds: SECONDS,
            packets: n,
            window_secs: shape.window_secs,
            target_samples: shape.target_samples,
            shards: shape.shards,
            reps: REPS,
            checkpoint_every: shape.checkpoint_every,
            fsync: "never",
        },
        overhead_pct: 100.0 * (baseline.tuples_per_sec - durable.tuples_per_sec)
            / baseline.tuples_per_sec,
        baseline,
        durable,
    }
}

fn main() {
    let packets = datacenter_feed(SEED).take_seconds(SECONDS);
    if !sso_bench::json_mode() {
        eprintln!("# {} packets, {REPS} alternating reps per mode and shape", packets.len());
    }
    let report = Report {
        gated: compare(GATED, &packets),
        ss_durable_shaped: compare(SS_DURABLE_SHAPED, &packets),
    };
    if maybe_json(&report) {
        return;
    }
    header("Durable-store overhead: shard log (fsync never) vs in-memory");
    println!(
        "{:>18} {:>12} {:>8} {:>12} {:>8} {:>10}",
        "shape", "mode", "secs", "tuples/s", "windows", "overhead"
    );
    let shapes =
        [("gated (<= 5%)", &report.gated), ("ss_durable-shaped", &report.ss_durable_shaped)];
    for (name, c) in shapes {
        for m in [&c.baseline, &c.durable] {
            println!(
                "{:>18} {:>12} {:>8.3} {:>12.0} {:>8} {:>9.2}%",
                name,
                if m.durable { "durable" } else { "baseline" },
                m.secs,
                m.tuples_per_sec,
                m.windows,
                if m.durable { c.overhead_pct } else { 0.0 },
            );
        }
    }
}
