//! The five workloads: what each feeds the engine, through which public
//! entry point, and the oracle its output must satisfy.
//!
//! Shard and router counts are fixed here (never derived from the
//! host's core count) so numbers compare across hosts.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{
    queries, shard_plan, Expr, OperatorSpec, SamplingOperator, ShardPlan, WindowOutput,
};
use sso_gigascope::{
    run_fanout_shared, run_plan, run_plan_sharded_with, SelectionNode, SharedGroup,
    SharedQueryPlan, TwoLevelPlan,
};
use sso_netgen::datacenter_feed;
use sso_obs::Registry;
use sso_rewrite::{optimize_file, OptimizeOptions};
use sso_runtime::{DurabilityConfig, RuntimeConfig, ShardStats};
use sso_store::{recover_shard, FsyncPolicy};
use sso_types::Packet;

use crate::feed::{window_ranges, window_starts, LagFeed};

/// Worker shards of the sharded workloads.
pub const SHARDS: usize = 2;
/// Router lanes of the sharded workloads.
pub const ROUTERS: usize = 1;
/// Cleaning trigger multiplier γ of the subset-sum queries (the
/// library default, the paper's 2): a window never emits more than γ·N
/// rows.
const GAMMA: f64 = 2.0;
/// Lossy-counting bucket width of `hh_inline` (ε = 1/1000).
pub const HH_BUCKET: u64 = 1000;
/// `HAVING count(*) >=` of `hh_inline`.
const HH_MIN_COUNT: u64 = 50;
/// `len >=` thresholds of the four `mq_shared` share groups.
pub const MQ_THRESHOLDS: [u64; 4] = [100, 110, 120, 130];
/// Byte-identical queries per share group.
const MQ_COPIES: usize = 4;
/// Windows between checkpoints of `ss_durable`.
pub const CHECKPOINT_EVERY: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SsInline,
    HhInline,
    SsSharded,
    SsDurable,
    MqShared,
}

pub const ALL: [Workload; 5] = [
    Workload::SsInline,
    Workload::HhInline,
    Workload::SsSharded,
    Workload::SsDurable,
    Workload::MqShared,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SsInline => "ss_inline",
            Workload::HhInline => "hh_inline",
            Workload::SsSharded => "ss_sharded",
            Workload::SsDurable => "ss_durable",
            Workload::MqShared => "mq_shared",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SsInline => {
                "dynamic subset-sum (paper 6.1) through run_plan: single-threaded headline; \
                 tuple conversion and the operator's admit fast path do the work"
            }
            Workload::HhInline => {
                "lossy-counting heavy hitters through run_plan: every tuple admitted, group \
                 table and frequent cleaning dominate; the opposite use of the operator"
            }
            Workload::SsSharded => {
                "ss_inline's query through run_plan_sharded_with (2 shards): same operator \
                 work plus route, ring, worker, barrier, merge and feed materialisation"
            }
            Workload::SsDurable => {
                "ss_sharded with a durable store, 1 s windows, 20000 samples: a WAL record \
                 per window per shard; the write path beside the read path"
            }
            Workload::MqShared => {
                "16 simultaneous TCP queries (paper 7.1) in 4 share groups through \
                 run_fanout_shared: the one workload with a shared prefilter Expr and a \
                 four-operator fan-out per tuple; sampler state is tiny"
            }
        }
    }

    /// Seconds of the seeded `datacenter_feed` (~100k packets/s) one
    /// repetition consumes: sized so a repetition takes 1.0–1.3 s on the
    /// 2-core reference host, which fits a dozen timed repetitions into
    /// the contract's fifteen-second run.
    pub fn feed_seconds(self) -> u64 {
        match self {
            Workload::SsInline => 40,
            Workload::HhInline => 20,
            Workload::SsSharded => 40,
            Workload::SsDurable => 20,
            Workload::MqShared => 16,
        }
    }

    pub fn window_secs(self) -> u64 {
        match self {
            Workload::SsDurable => 1,
            _ => 2,
        }
    }

    /// Samples per window of the subset-sum workloads. `ss_durable`
    /// uses 20 000: the traced `store.*` share of wall is 8 % at 10 000,
    /// 13 % at 20 000 and 18 % at 30 000 on the reference host, and the
    /// issue asks for at least 10 %.
    pub fn target(self) -> usize {
        match self {
            Workload::SsDurable => 20_000,
            _ => 1000,
        }
    }

    pub fn sharded(self) -> bool {
        matches!(self, Workload::SsSharded | Workload::SsDurable)
    }

    pub fn durable(self) -> bool {
        self == Workload::SsDurable
    }
}

fn ss_spec(window_secs: u64, target: usize) -> OperatorSpec {
    let cfg = SubsetSumOpConfig { target, initial_z: 1.0, gamma: GAMMA, ..Default::default() };
    queries::subset_sum_query(window_secs, cfg, false).expect("subset-sum spec")
}

/// The sixteen `mq_shared` statements, group-major: statement `n`
/// (1-based, the optimizer's consumer `q<n>`) has threshold
/// `MQ_THRESHOLDS[(n - 1) / MQ_COPIES]`.
pub fn mq_statements(window_secs: u64) -> Vec<String> {
    MQ_THRESHOLDS
        .iter()
        .flat_map(|t| {
            std::iter::repeat_n(
                format!(
                    "SELECT tb, sum(len), count(*) FROM TCP WHERE len >= {t} \
                     GROUP BY time/{window_secs} as tb"
                ),
                MQ_COPIES,
            )
        })
        .collect()
}

fn mq_threshold_of(consumer: &str) -> u64 {
    let n: usize = consumer[1..].parse().expect("consumer name q<n>");
    MQ_THRESHOLDS[(n - 1) / MQ_COPIES]
}

/// What the engine runs for one workload, as the pieces every entry
/// point is assembled from — the traced replay drives the same pieces
/// layer by layer.
pub struct Pipeline {
    /// Shared prefilter (`mq_shared` only).
    pub prefilter: Option<Expr>,
    /// One operator spec per share group with its consumers' names; a
    /// single `("q", spec)` group elsewhere. For sharded workloads this
    /// is the full-budget spec the shard plan is classified from.
    pub groups: Vec<(OperatorSpec, Vec<String>)>,
    /// Routing and merge rule of the sharded workloads.
    pub shard_plan: Option<ShardPlan>,
}

impl Workload {
    /// Compile/optimize the workload's queries into a [`Pipeline`].
    pub fn pipeline(self) -> Pipeline {
        let w = self.window_secs();
        match self {
            Workload::SsInline | Workload::SsSharded | Workload::SsDurable => {
                let spec = ss_spec(w, self.target());
                let shard_plan = self
                    .sharded()
                    .then(|| shard_plan(&spec).expect("subset-sum is shard-mergeable"));
                Pipeline { prefilter: None, groups: vec![(spec, vec!["q".into()])], shard_plan }
            }
            Workload::HhInline => {
                let spec = queries::heavy_hitters_query(w, HH_BUCKET, Some(HH_MIN_COUNT))
                    .expect("heavy-hitters spec");
                Pipeline {
                    prefilter: None,
                    groups: vec![(spec, vec!["q".into()])],
                    shard_plan: None,
                }
            }
            Workload::MqShared => {
                let file = mq_statements(w).join(";\n");
                let outcome = optimize_file(&file, &OptimizeOptions::default());
                let mut plans = outcome.build_shared().expect("rewrite certificate verifies");
                assert_eq!(plans.len(), 1, "one TCP cluster");
                let plan = plans.pop().expect("one plan");
                assert_eq!(plan.groups.len(), MQ_THRESHOLDS.len(), "four share groups");
                Pipeline { prefilter: plan.prefilter, groups: plan.groups, shard_plan: None }
            }
        }
    }

    /// The spec every shard runs: the full query at the shard's share of
    /// the sample budget.
    pub fn shard_spec(self) -> OperatorSpec {
        ss_spec(self.window_secs(), self.target().div_ceil(SHARDS))
    }

    /// Runtime configuration of the sharded workloads. `registry`
    /// (traced run only) makes the router's batch histogram readable.
    pub fn runtime_config(self, durable_dir: &Path, registry: Option<Registry>) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::new(SHARDS).with_routers(ROUTERS);
        cfg.registry = registry;
        if self.durable() {
            let mut durability = DurabilityConfig::new(durable_dir);
            durability.checkpoint_every = CHECKPOINT_EVERY;
            durability.fsync = FsyncPolicy::Never;
            cfg = cfg.with_durability(durability);
        }
        cfg
    }
}

/// Everything set-up produces: the materialised feed slice, where its
/// windows start, and the compiled pipeline.
pub struct Prepared {
    pub workload: Workload,
    pub packets: Vec<Packet>,
    pub starts: Vec<usize>,
    pub pipeline: Pipeline,
}

/// The first `feed_seconds` of the seeded feed: every workload consumes
/// a prefix of the same packets.
pub fn generate_feed(seed: u64, feed_seconds: u64) -> Vec<Packet> {
    datacenter_feed(seed).take_seconds(feed_seconds)
}

impl Prepared {
    /// Set-up as the benchmark times it: feed generation, query
    /// compile/optimize, and the build of a first executable plan
    /// (dropped; every repetition builds its own, untimed). Returns the
    /// prepared state and the set-up's wall time in seconds.
    pub fn set_up(workload: Workload, seed: u64, feed_seconds: u64) -> (Prepared, f64) {
        let t0 = Instant::now();
        let packets = generate_feed(seed, feed_seconds);
        let pipeline = workload.pipeline();
        drop(std::hint::black_box(build_operators(&pipeline)));
        let secs = t0.elapsed().as_secs_f64();
        let starts = window_starts(&packets, workload.window_secs());
        (Prepared { workload, packets, starts, pipeline }, secs)
    }
}

/// One operator per share group, with its consumers.
pub fn build_operators(pipeline: &Pipeline) -> Vec<SharedGroup> {
    pipeline
        .groups
        .iter()
        .map(|(spec, consumers)| SharedGroup {
            op: SamplingOperator::new(spec.clone()).expect("instantiate operator"),
            consumers: consumers.clone(),
        })
        .collect()
}

/// What one repetition's entry-point call returned.
pub struct RepOutput {
    /// `(consumer, windows)`; one entry except on `mq_shared`.
    pub consumers: Vec<(String, Vec<WindowOutput>)>,
    /// Tuples dropped + shed + uncovered (sharded runs; else 0).
    pub lost_tuples: u64,
    /// Run-level coverage (1.0 = nothing degraded).
    pub coverage: f64,
    /// Per-shard accounting (sharded runs; else empty).
    pub shards: Vec<ShardStats>,
    /// Instant the entry-point call returned — the instant every window
    /// is handed to the caller, since all entry points return batches.
    pub returned: Instant,
}

/// Run one repetition through the workload's public entry point. The
/// plan is built before the feed's first pull, so it is outside the
/// measured interval.
pub fn run_engine(
    prepared: &Prepared,
    feed: &mut LagFeed<'_>,
    durable_dir: &Path,
    registry: Option<Registry>,
) -> RepOutput {
    let workload = prepared.workload;
    let low = Box::new(SelectionNode::pass_all());
    match workload {
        Workload::SsInline | Workload::HhInline => {
            let high = build_operators(&prepared.pipeline).pop().expect("one operator").op;
            let plan = TwoLevelPlan::new(low, high);
            let report = run_plan(plan, feed).expect("run_plan");
            let returned = Instant::now();
            RepOutput {
                consumers: vec![("q".into(), report.windows)],
                lost_tuples: report.ring_dropped,
                coverage: 1.0,
                shards: Vec::new(),
                returned,
            }
        }
        Workload::MqShared => {
            let plan = SharedQueryPlan {
                prefilter: prepared.pipeline.prefilter.clone(),
                groups: build_operators(&prepared.pipeline),
            };
            let report = run_fanout_shared(low, plan, feed).expect("run_fanout_shared");
            let returned = Instant::now();
            RepOutput {
                consumers: report.queries.into_iter().map(|q| (q.name, q.windows)).collect(),
                lost_tuples: 0,
                coverage: 1.0,
                shards: Vec::new(),
                returned,
            }
        }
        Workload::SsSharded | Workload::SsDurable => {
            let plan = prepared.pipeline.shard_plan.as_ref().expect("sharded pipeline");
            let cfg = workload.runtime_config(durable_dir, registry);
            let report =
                run_plan_sharded_with(low, plan, |_| Ok(workload.shard_spec()), &cfg, feed)
                    .expect("run_plan_sharded_with");
            let returned = Instant::now();
            RepOutput {
                lost_tuples: report.dropped()
                    + report.shed()
                    + report.router_uncovered()
                    + report.shards.iter().map(|s| s.uncovered()).sum::<u64>(),
                coverage: report.coverage,
                consumers: vec![("q".into(), report.windows)],
                shards: report.shards,
                returned,
            }
        }
    }
}

/// The exact per-window facts the oracles compare against, folded
/// directly over the packets.
pub struct Truth {
    windows: Vec<WindowTruth>,
}

struct WindowTruth {
    tb: u64,
    packets: u64,
    bytes: u64,
    /// `hh_inline`: exact packets per source address.
    by_src: HashMap<u32, u64>,
    /// `mq_shared`: exact `(sum(len), count(*))` per threshold.
    by_threshold: [(u64, u64); MQ_THRESHOLDS.len()],
}

impl Truth {
    pub fn of(prepared: &Prepared) -> Truth {
        let workload = prepared.workload;
        let windows = window_ranges(&prepared.starts, prepared.packets.len())
            .map(|(lo, hi)| {
                let slice = &prepared.packets[lo..hi];
                let mut t = WindowTruth {
                    tb: slice[0].time() / workload.window_secs(),
                    packets: slice.len() as u64,
                    bytes: slice.iter().map(|p| p.len as u64).sum(),
                    by_src: HashMap::new(),
                    by_threshold: [(0, 0); MQ_THRESHOLDS.len()],
                };
                for p in slice {
                    match workload {
                        Workload::HhInline => *t.by_src.entry(p.src_ip).or_default() += 1,
                        Workload::MqShared => {
                            for (acc, threshold) in t.by_threshold.iter_mut().zip(MQ_THRESHOLDS) {
                                if p.len as u64 >= threshold {
                                    acc.0 += p.len as u64;
                                    acc.1 += 1;
                                }
                            }
                        }
                        _ => {}
                    }
                }
                t
            })
            .collect();
        Truth { windows }
    }
}

/// Oracle outcome of one or more repetitions.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    pub windows_checked: u64,
    pub windows_failed: u64,
    pub tuples_offered: u64,
    pub tuples_lost: u64,
    /// The first few failures, for the operator of the benchmark.
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn absorb(&mut self, other: Verdict) {
        self.windows_checked += other.windows_checked;
        self.windows_failed += other.windows_failed;
        self.tuples_offered += other.tuples_offered;
        self.tuples_lost += other.tuples_lost;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }

    /// Failed windows and lost tuples, each over its own attempted
    /// count, summed.
    pub fn failed_share(&self) -> f64 {
        let share = |failed: u64, of: u64| if of == 0 { 0.0 } else { failed as f64 / of as f64 };
        share(self.windows_failed, self.windows_checked)
            + share(self.tuples_lost, self.tuples_offered)
    }

    pub fn attempted(&self) -> u64 {
        self.windows_checked + self.tuples_offered
    }

    pub fn failed(&self) -> u64 {
        self.windows_failed + self.tuples_lost
    }

    /// Count one failed check, keeping the first few notes.
    pub fn fail(&mut self, note: String) {
        self.windows_failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

fn u64_at(row: &sso_types::Tuple, col: usize) -> u64 {
    row.get(col).as_u64().expect("u64 output column")
}

/// Check one window of one consumer; `Err` names the first violated
/// rule.
fn check_window(
    workload: Workload,
    consumer: &str,
    truth: &WindowTruth,
    out: &WindowOutput,
) -> Result<(), String> {
    let tb = u64_at(&out.window, 0);
    if tb != truth.tb {
        return Err(format!("window key {tb}, expected {}", truth.tb));
    }
    match workload {
        Workload::SsInline | Workload::SsSharded | Workload::SsDurable => {
            // SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()).
            let estimate: f64 =
                out.rows.iter().map(|r| r.get(3).as_f64().expect("adjusted weight")).sum();
            let exact = truth.bytes as f64;
            if (estimate - exact).abs() > 0.10 * exact {
                return Err(format!("estimate {estimate:.0} not within 10% of {exact:.0} bytes"));
            }
            let ceiling = (GAMMA * workload.target() as f64).ceil() as usize;
            if out.rows.len() > ceiling {
                return Err(format!("{} rows above the gamma*N ceiling {ceiling}", out.rows.len()));
            }
            if out.rows.is_empty() {
                return Err("empty sample".into());
            }
        }
        Workload::HhInline => {
            // SELECT tb, srcIP, sum(len), count(*); lossy counting with
            // eps = 1/HH_BUCKET undercounts by at most eps*N.
            let slack = truth.packets.div_ceil(HH_BUCKET);
            let mut reported: HashMap<u32, u64> = HashMap::with_capacity(out.rows.len());
            for row in &out.rows {
                reported.insert(u64_at(row, 1) as u32, u64_at(row, 3));
            }
            for (src, &count) in &reported {
                let exact = truth.by_src.get(src).copied().unwrap_or(0);
                if count > exact {
                    return Err(format!("source {src}: reported {count} above true {exact}"));
                }
                if exact - count > slack {
                    return Err(format!(
                        "source {src}: undercount {} above {slack}",
                        exact - count
                    ));
                }
                if count < HH_MIN_COUNT {
                    return Err(format!("source {src}: count {count} below the HAVING floor"));
                }
            }
            for (src, &exact) in &truth.by_src {
                if exact >= HH_MIN_COUNT + slack && !reported.contains_key(src) {
                    return Err(format!("source {src} with {exact} packets missing"));
                }
            }
        }
        Workload::MqShared => {
            // SELECT tb, sum(len), count(*): exact, one row per window.
            let threshold = mq_threshold_of(consumer);
            let group = MQ_THRESHOLDS.iter().position(|t| *t == threshold).expect("threshold");
            let (sum, count) = truth.by_threshold[group];
            let [row] = &out.rows[..] else {
                return Err(format!("{} rows, expected 1", out.rows.len()));
            };
            if (u64_at(row, 1), u64_at(row, 2)) != (sum, count) {
                return Err(format!(
                    "sum/count {}/{} differ from the direct fold {sum}/{count}",
                    u64_at(row, 1),
                    u64_at(row, 2)
                ));
            }
        }
    }
    Ok(())
}

/// Check one repetition's output against the workload's oracle.
pub fn check(prepared: &Prepared, truth: &Truth, out: &RepOutput, durable_dir: &Path) -> Verdict {
    let workload = prepared.workload;
    let mut verdict = Verdict {
        tuples_offered: prepared.packets.len() as u64,
        tuples_lost: out.lost_tuples,
        ..Verdict::default()
    };
    let expected_consumers = if workload == Workload::MqShared { 16 } else { 1 };
    for (name, windows) in &out.consumers {
        // A missing or extra window fails once per window of difference.
        verdict.windows_checked += truth.windows.len().max(windows.len()) as u64;
        for _ in 0..truth.windows.len().abs_diff(windows.len()) {
            verdict.fail(format!(
                "{name}: {} windows, expected {}",
                windows.len(),
                truth.windows.len()
            ));
        }
        for (t, w) in truth.windows.iter().zip(windows) {
            if let Err(why) = check_window(workload, name, t, w) {
                verdict.fail(format!("{name} window {}: {why}", t.tb));
            }
        }
    }
    // Run-level rules count as one more checked "window" each.
    let mut rule = |ok: bool, note: String| {
        verdict.windows_checked += 1;
        if !ok {
            verdict.fail(note);
        }
    };
    rule(
        out.consumers.len() == expected_consumers,
        format!("{} consumers, expected {expected_consumers}", out.consumers.len()),
    );
    if workload == Workload::MqShared {
        // Consumers of one share group receive byte-identical windows.
        for group in out.consumers.chunks(MQ_COPIES) {
            let (first, rest) = group.split_first().expect("non-empty group");
            let same = rest.iter().all(|(_, ws)| {
                ws.len() == first.1.len()
                    && ws
                        .iter()
                        .zip(&first.1)
                        .all(|(a, b)| a.window == b.window && a.rows == b.rows)
            });
            rule(same, format!("share group of {} is not identical across consumers", first.0));
        }
    }
    if workload.sharded() {
        rule(out.coverage == 1.0, format!("coverage {} below 1.0", out.coverage));
    }
    if workload.durable() {
        // One durable record per closed window per shard.
        for (shard, stats) in out.shards.iter().enumerate() {
            let recorded = recover_shard(durable_dir, shard).map(|r| r.outputs.len() as u64);
            rule(
                recorded.as_ref().ok() == Some(&stats.windows()),
                format!("shard {shard}: {recorded:?} durable records, {} windows", stats.windows()),
            );
        }
    }
    verdict
}

/// A scratch directory for the durable store, under the benchmark's
/// output directory (the benchmark writes nowhere else).
pub fn durable_dir(out_dir: &Path, workload: Workload) -> PathBuf {
    out_dir.join(format!("durable-{}-{}", workload.name(), std::process::id()))
}
