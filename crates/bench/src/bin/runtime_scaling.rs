//! **Runtime scaling** — throughput of the sharded runtime as shards
//! are added.
//!
//! The workload is the paper's dynamic subset-sum query (1000 samples
//! per period) over a steady ~100k pkt/s data-center feed, run through
//! `run_plan_sharded` at 1, 2, 4, and 8 shards; the 1-shard run is the
//! baseline every speedup is a ratio to. Wall-clock tuples/sec are
//! reported per configuration.
//!
//! Every configuration runs [`REPS`] interleaved repetitions and is
//! reported as the median wall time with its quartiles; a gate on a
//! single best-of-N number has no measure of spread and fails on noise.
//!
//! The speedup curve is gated in `check.sh` against the recorded
//! `host_cores`: while shards fit within the host's cores, speedup
//! must be monotonically non-decreasing (the multi-router restructure
//! removed the single-router inversion); once shards exceed cores the
//! extra shards cannot run in parallel, so the gate instead bounds the
//! oversubscription cost (each step keeps ≥ 90% of the previous
//! step's speedup, less the two configurations' interquartile ranges —
//! the `worker_busy_secs` column shows the operator floor behind the
//! residual: split samplers at 8× smaller budgets do ~10% more
//! per-tuple work, and the router pays an 8-way scatter).
//!
//! Two correctness gates run alongside the timing:
//!
//! * **exact drift** — an exact per-window `sum(len)`/`count(*)` query
//!   is run single-instance and 4-way sharded over the same packets;
//!   any difference in any window is reported as drift (must be zero —
//!   hash-partitioned groups are disjoint, so Concat/Combine merges are
//!   exact).
//! * **estimate sanity** — the subset-sum volume estimate at every
//!   shard count must stay within a few percent of the true byte
//!   volume, window by window (the merged sample is a valid threshold
//!   sample, so its Horvitz-Thompson estimate stays unbiased).

use std::collections::HashMap;
use std::time::Instant;

use sso_analysis::{audit_file, AuditOptions};
use sso_bench::{header, maybe_json};
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::shard_plan;
use sso_core::{queries, OpError, OperatorSpec, SamplingOperator, WindowOutput};
use sso_gigascope::{
    run_plan, run_plan_sharded, run_plan_sharded_with, SelectionNode, TwoLevelPlan,
};
use sso_netgen::datacenter_feed;
use sso_runtime::RuntimeConfig;
use sso_types::Packet;

const SEED: u64 = 0x5ca1e;
const SECONDS: u64 = 20;
const WINDOW: u64 = 5;
const TARGET: usize = 1000;
const REPS: usize = 7;

#[derive(serde::Serialize)]
struct Config {
    feed: &'static str,
    seed: u64,
    seconds: u64,
    packets: usize,
    window_secs: u64,
    target_samples: usize,
    reps: usize,
    routers: String,
    /// Cores the host could actually run in parallel: the scaling gate
    /// demands non-decreasing speedup only while shards fit in cores,
    /// and bounded oversubscription cost beyond them.
    host_cores: usize,
}

#[derive(serde::Serialize)]
struct Run {
    mode: String,
    shards: usize,
    routers: usize,
    ring_batches: usize,
    /// Median wall time over the repetitions, and its quartiles.
    secs: f64,
    secs_q1: f64,
    secs_q3: f64,
    /// Summed worker busy time: the operator-work floor under `secs`.
    /// The gap between them is routing + hand-off + scheduling.
    worker_busy_secs: f64,
    tuples_per_sec: f64,
    speedup_vs_1shard: f64,
    windows: usize,
    stalls: u64,
    dropped: u64,
    max_estimate_err_pct: f64,
}

#[derive(serde::Serialize)]
struct Report {
    config: Config,
    exact_drift_windows: usize,
    runs: Vec<Run>,
}

fn spec(with: SubsetSumOpConfig) -> Result<OperatorSpec, OpError> {
    queries::subset_sum_query(WINDOW, with, false)
}

fn ss_config() -> SubsetSumOpConfig {
    SubsetSumOpConfig { target: TARGET, initial_z: 1.0, ..Default::default() }
}

/// Worst per-window relative error of the subset-sum volume estimate.
fn max_estimate_err_pct(windows: &[WindowOutput], truth: &HashMap<u64, u64>) -> f64 {
    windows
        .iter()
        .map(|w| {
            let tb = w.window.get(0).as_u64().expect("tb");
            let actual = truth.get(&tb).copied().unwrap_or(0) as f64;
            let est: f64 = w.rows.iter().map(|r| r.get(3).as_f64().expect("adj")).sum();
            if actual == 0.0 {
                0.0
            } else {
                100.0 * (est - actual).abs() / actual
            }
        })
        .fold(0.0, f64::max)
}

/// Exact-query drift check: windows that differ between the single
/// instance and the 4-way sharded run (must be none).
fn exact_drift_windows(packets: &[Packet]) -> usize {
    let single = run_plan(
        TwoLevelPlan::new(
            Box::new(SelectionNode::pass_all()),
            SamplingOperator::new(queries::total_sum_query(WINDOW)).unwrap(),
        ),
        packets.iter().cloned(),
    )
    .expect("exact single run");
    let sharded = run_plan_sharded(
        Box::new(SelectionNode::pass_all()),
        |_| Ok(queries::total_sum_query(WINDOW)),
        &RuntimeConfig::new(4),
        packets.iter().cloned(),
    )
    .expect("exact sharded run");
    if single.windows.len() != sharded.windows.len() {
        return single.windows.len().max(sharded.windows.len());
    }
    single
        .windows
        .iter()
        .zip(&sharded.windows)
        .filter(|(a, b)| a.window != b.window || a.rows != b.rows)
        .count()
}

/// The audited form of the workload: the paper's dynamic subset-sum
/// query, window matching [`spec`] and budget matching the *per-shard*
/// split each worker actually runs, under the data-center feed
/// envelope. Its certified bounds pre-size the group tables and the
/// per-(router, shard) rings exactly as the CLI does — auditing the
/// full budget here would make every shard reserve the full-query
/// table and pay for the empty capacity on each cleaning scan.
fn audit_query(per_shard_target: usize) -> String {
    format!(
        "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKTS \
         WHERE ssample(len, {per_shard_target}) = TRUE \
         GROUP BY time/{WINDOW} as tb, srcIP, destIP, uts \
         HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE \
         CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE \
         CLEANING BY ssclean_with(sum(len)) = TRUE"
    )
}

/// `[q1, median, q3]` of one configuration's wall times (linear
/// interpolation between ranks).
fn quartiles(secs: &mut [f64]) -> [f64; 3] {
    secs.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let rank = p * (secs.len() - 1) as f64;
        let (lo, hi) = (secs[rank.floor() as usize], secs[rank.ceil() as usize]);
        lo + (hi - lo) * rank.fract()
    })
}

/// `--routers auto|N` from the command line (0 = auto, the default).
fn routers_arg() -> (String, usize) {
    let args: Vec<String> = std::env::args().collect();
    let value = args
        .iter()
        .position(|a| a == "--routers")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "auto".to_string());
    let requested = match value.as_str() {
        "auto" => 0,
        n => n.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("usage: runtime_scaling [--routers N|auto] [--json]");
            std::process::exit(2);
        }),
    };
    (value, requested)
}

fn main() {
    let packets = datacenter_feed(SEED).take_seconds(SECONDS);
    let n = packets.len();
    let (routers_label, requested_routers) = routers_arg();
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for p in &packets {
        *truth.entry(p.time() / WINDOW).or_default() += p.len as u64;
    }

    if !sso_bench::json_mode() {
        eprintln!("# {n} packets, {REPS} reps per configuration (interleaved)");
    }

    // One sharded configuration per shard count: the plan is classified
    // from the full-budget query (so the merge re-thresholds to the
    // full 1000-sample target), while each shard samples with a
    // 1000/shards budget — the union of per-partition threshold samples
    // merged at the max shard threshold is the same estimator, and
    // total sampling state stays shard-count-invariant. Rings and group
    // tables are pre-sized from the static audit's certified envelope,
    // per (router, shard) lane, exactly as `sso run` does.
    let plan = shard_plan(&spec(ss_config()).unwrap()).expect("subset-sum is shard-mergeable");
    let shard_counts = [1usize, 2, 4, 8];
    let configs: Vec<(usize, SubsetSumOpConfig, RuntimeConfig)> = shard_counts
        .iter()
        .map(|&shards| {
            let split = SubsetSumOpConfig {
                target: TARGET.div_ceil(shards),
                initial_z: 1.0,
                ..Default::default()
            };
            // Worker threads are capped at the host's cores: beyond
            // that, extra shard threads only add scheduling overhead.
            let cores =
                std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
            let cfg =
                RuntimeConfig::new(shards).with_routers(requested_routers).with_worker_cap(cores);
            let audit_opts =
                AuditOptions { feed: "datacenter".into(), shards, ..AuditOptions::default() };
            let outcome = audit_file(&audit_query(split.target), &audit_opts);
            let bounds = outcome.report.statements.first().expect("workload audits");
            let hints = bounds.sizing_hints(shards, cfg.resolved_routers(), cfg.batch_size);
            (shards, split, cfg.with_sizing(hints))
        })
        .collect();

    // Interleave the repetitions round-robin across every configuration
    // instead of running each one's reps back to back: background noise
    // arrives in bursts, so consecutive reps of one configuration would
    // all land in the same slow patch.
    // Round-robin spreads each configuration's reps across the full
    // measurement span. Output does not depend on timing, so the last
    // repetition's report stands for all of them.
    let mut sharded: Vec<(Vec<f64>, Option<sso_gigascope::ShardedRunReport>)> =
        configs.iter().map(|_| (Vec::with_capacity(REPS), None)).collect();
    for _ in 0..REPS {
        for ((secs, last), (_, split, cfg)) in sharded.iter_mut().zip(&configs) {
            let t0 = Instant::now();
            let report = run_plan_sharded_with(
                Box::new(SelectionNode::pass_all()),
                &plan,
                |_| spec(*split),
                cfg,
                packets.iter().cloned(),
            )
            .expect("sharded run");
            secs.push(t0.elapsed().as_secs_f64());
            *last = Some(report);
        }
    }
    let mut runs: Vec<Run> = Vec::with_capacity(configs.len());
    for ((shards, _, cfg), (mut secs, report)) in configs.iter().zip(sharded) {
        let [q1, median, q3] = quartiles(&mut secs);
        let report = report.expect("at least one rep");
        runs.push(Run {
            mode: "sharded".into(),
            shards: *shards,
            routers: cfg.resolved_routers(),
            ring_batches: cfg.sizing.and_then(|h| h.ring_batches).unwrap_or(cfg.ring_capacity),
            secs: median,
            secs_q1: q1,
            secs_q3: q3,
            worker_busy_secs: report.shards.iter().map(|s| s.busy().as_secs_f64()).sum(),
            tuples_per_sec: n as f64 / median,
            // The first configuration is the 1-shard run.
            speedup_vs_1shard: runs.first().map_or(1.0, |base| base.secs / median),
            windows: report.windows.len(),
            stalls: report.shards.iter().map(|s| s.stalls()).sum(),
            dropped: report.dropped(),
            max_estimate_err_pct: max_estimate_err_pct(&report.windows, &truth),
        });
    }

    let report = Report {
        config: Config {
            feed: "datacenter",
            seed: SEED,
            seconds: SECONDS,
            packets: n,
            window_secs: WINDOW,
            target_samples: TARGET,
            reps: REPS,
            routers: routers_label,
            host_cores: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        },
        exact_drift_windows: exact_drift_windows(&packets),
        runs,
    };

    if maybe_json(&report) {
        return;
    }
    header("Runtime scaling: dynamic subset-sum (1000 samples/period), data-center feed");
    println!(
        "{:>9} {:>7} {:>8} {:>5} {:>8} {:>15} {:>8} {:>12} {:>9} {:>8} {:>8} {:>10}",
        "mode",
        "shards",
        "routers",
        "ring",
        "secs",
        "[q1, q3]",
        "busy",
        "tuples/s",
        "speedup",
        "stalls",
        "dropped",
        "max err%"
    );
    for r in &report.runs {
        println!(
            "{:>9} {:>7} {:>8} {:>5} {:>8.3} {:>15} {:>8.3} {:>12.0} {:>8.2}x {:>8} {:>8} {:>9.2}%",
            r.mode,
            r.shards,
            r.routers,
            r.ring_batches,
            r.secs,
            format!("[{:.3}, {:.3}]", r.secs_q1, r.secs_q3),
            r.worker_busy_secs,
            r.tuples_per_sec,
            r.speedup_vs_1shard,
            r.stalls,
            r.dropped,
            r.max_estimate_err_pct,
        );
    }
    println!(
        "exact drift: {} window(s) differ between single and 4-shard runs",
        report.exact_drift_windows
    );
}
