//! **Overhead** — what each runtime mechanism costs against a baseline
//! run (the paper's §7 way of pricing a mechanism), how the sharded
//! runtime scales, and what multi-query sharing buys; one rule,
//! [`judge`], decides every comparison.
//!
//! The workload is the dynamic subset-sum query (1000 samples per 5 s
//! window) over a seeded data-center feed, sharded as `sso run --shards
//! N` shards it: one worker thread per shard. Arms:
//! `base` and `base_again` (4 shards, an A/A pair); `faults` (an armed
//! fault plan whose events never fire); `registry` (a live
//! [`sso_obs::Registry`]); `profiler` (an [`sso_profile::Profiler`]);
//! `durable` (the shard log); `shards_1`, `shards_2`, `base`, `shards_8`
//! (the scaling curve); `ss_durable_base` and `ss_durable`, ungated and
//! shaped like the benchmark's `ss_durable` workload, whose 20 large
//! windows show the store's write path that the gated shape's 4 small
//! ones cannot; `unshared` and `shared`, §7.1's 16 TCP queries in 4
//! share groups, run as 16 operators or as the plan `sso-rewrite` emits;
//! and `inline`, ungated: the gated shape's query through `run_plan` on
//! the calling thread, whose `RunReport` prices the low-level node and
//! the operator per tuple (`inline_layers` in the report).
//!
//! Every repetition runs every arm once, starting one arm later each
//! time: noise comes in bursts, so back-to-back repetitions of one arm
//! would share a slow patch. An arm is its median wall time with the
//! quartiles. A scaling step is gated only when the larger
//! configuration's threads fit the host's cores ([`fits`]).
//!
//! Every repetition is checked: volume estimates within 5 % per window,
//! no tuple dropped, no window degraded (so no parked fault fired), and
//! fan-out output identical to an unshared reference run. Once per run,
//! an exact query must not drift between one instance and 4 shards, and
//! a profiled 8-shard run must name a dominant stage, drop no trace
//! event and spend less time in ingest than in process.
//!
//! The table goes to stderr; `--json` prints the report (`BENCH.json`)
//! on stdout. A failed check or gated comparison exits 1.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use sso_analysis::{audit_file, AuditOptions};
use sso_bench::maybe_json;
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{queries, shard_plan, OpError, OperatorSpec, SamplingOperator, WindowOutput};
use sso_faults::{FaultEvent, FaultPlan};
use sso_gigascope::{
    run_fanout_shared, run_plan, run_plan_sharded, run_plan_sharded_with, FanoutReport,
    SelectionNode, ShardedRunReport, SharedGroup, SharedQueryPlan, TwoLevelPlan,
};
use sso_netgen::{datacenter_feed, research_feed};
use sso_obs::Registry;
use sso_profile::{Profiler, ProfilerConfig};
use sso_query::{base_stream_schema, compile, PlannerConfig};
use sso_rewrite::{optimize_file, OptimizeOptions};
use sso_runtime::{DurabilityConfig, RuntimeConfig};
use sso_types::{Packet, Tuple};

const SEED: u64 = 0x5ca1e;
const MQ_SEED: u64 = 0x5a3e;
const SECONDS: u64 = 20;
const REPS: usize = 9;
/// What a mechanism may cost, in percent of the baseline's throughput,
/// before the measured noise is added.
const BUDGET_PCT: f64 = 5.0;
const MAX_ESTIMATE_ERR_PCT: f64 = 5.0;

/// One shape of the sharded subset-sum workload.
#[derive(Clone, Copy)]
struct Shape {
    window_secs: u64,
    target: usize,
    shards: usize,
}

const GATED: Shape = Shape { window_secs: 5, target: 1000, shards: 4 };
const SS_DURABLE: Shape = Shape { window_secs: 1, target: 20_000, shards: 2 };

impl Shape {
    fn with_shards(self, shards: usize) -> Shape {
        Shape { shards, ..self }
    }

    fn spec(self, target: usize) -> Result<OperatorSpec, OpError> {
        let cfg = SubsetSumOpConfig { target, initial_z: 1.0, ..Default::default() };
        queries::subset_sum_query(self.window_secs, cfg, false)
    }

    /// The configuration `sso run --shards N` builds. The audit
    /// certifies the per-shard budget each worker runs: the full one
    /// would reserve the whole query's table per shard.
    fn runtime(self) -> RuntimeConfig {
        let cfg = RuntimeConfig::new(self.shards);
        let query = format!(
            "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKTS \
             WHERE ssample(len, {}) = TRUE GROUP BY time/{} as tb, srcIP, destIP, uts \
             HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE \
             CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE \
             CLEANING BY ssclean_with(sum(len)) = TRUE",
            self.target.div_ceil(self.shards),
            self.window_secs
        );
        let opts =
            AuditOptions { feed: "datacenter".into(), shards: self.shards, ..Default::default() };
        let outcome = audit_file(&query, &opts);
        let bounds = outcome.report.statements.first().expect("workload audits");
        let hints = bounds.sizing_hints(self.shards, cfg.batch_size);
        cfg.with_sizing(hints)
    }

    fn run(self, packets: &[Packet], cfg: &RuntimeConfig) -> (f64, ShardedRunReport) {
        let plan = shard_plan(&self.spec(self.target).expect("workload spec"))
            .expect("subset-sum is shard-mergeable");
        let t0 = Instant::now();
        let report = run_plan_sharded_with(
            Box::new(SelectionNode::pass_all()),
            &plan,
            |_| self.spec(self.target.div_ceil(self.shards)),
            cfg,
            packets.iter().cloned(),
        )
        .expect("sharded run");
        (t0.elapsed().as_secs_f64(), report)
    }
}

/// Threads a sharded configuration runs: the pump (the calling thread,
/// which also routes) and one worker per shard.
fn threads(cfg: &RuntimeConfig) -> usize {
    1 + cfg.shards
}

/// Whether a configuration can show parallel scaling on this host: only
/// when each of its threads has a core of its own.
fn fits(threads: usize, host_cores: usize) -> bool {
    threads <= host_cores
}

/// Median and quartiles of one arm's wall times.
#[derive(Clone, Copy, Debug, serde::Serialize)]
struct Spread {
    secs: f64,
    secs_q1: f64,
    secs_q3: f64,
}

impl Spread {
    /// Linear interpolation between ranks.
    fn of(samples: &[f64]) -> Spread {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let [secs_q1, secs, secs_q3] = [0.25, 0.5, 0.75].map(|p| {
            let rank = p * (s.len() - 1) as f64;
            let (lo, hi) = (s[rank.floor() as usize], s[rank.ceil() as usize]);
            lo + (hi - lo) * rank.fract()
        });
        Spread { secs, secs_q1, secs_q3 }
    }

    /// The arm's own run-to-run noise.
    fn rel_iqr(&self) -> f64 {
        (self.secs_q3 - self.secs_q1) / self.secs
    }
}

#[derive(Debug, serde::Serialize)]
struct Verdict {
    /// Throughput the arm loses against its baseline, percent (negative:
    /// the arm was faster).
    overhead_pct: f64,
    allowance_pct: f64,
    pass: bool,
}

/// The one rule: `arm` fails when it loses more than [`BUDGET_PCT`] of
/// `base`'s throughput plus the two arms' IQR/median. A fixed budget on
/// best-of-N numbers has no measure of spread and flips on noise; this
/// allowance widens by exactly the spread the two arms showed.
fn judge(base: Spread, arm: Spread) -> Verdict {
    let overhead_pct = 100.0 * (1.0 - base.secs / arm.secs);
    let allowance_pct = BUDGET_PCT + 100.0 * (base.rel_iqr() + arm.rel_iqr());
    Verdict { overhead_pct, allowance_pct, pass: overhead_pct <= allowance_pct }
}

/// The 16 `(name, text)` queries of the sharing workload: 4 copies each
/// at `len >= 100/110/120/130`, every one implying `len >= 100`.
fn mq_workload() -> Vec<(String, String)> {
    (0..16u64)
        .map(|i| {
            let t = 100 + 10 * (i / 4);
            let text = format!(
                "SELECT tb, sum(len), count(*) FROM TCP WHERE len >= {t} GROUP BY time/5 as tb"
            );
            (format!("t{t}c{}", i % 4), text)
        })
        .collect()
}

fn unshared_plan() -> SharedQueryPlan {
    let schema = base_stream_schema("TCP").expect("TCP schema");
    let config = PlannerConfig::standard();
    SharedQueryPlan::unshared(
        mq_workload()
            .into_iter()
            .map(|(name, text)| (name, compile(&text, &schema, &config).expect("compile"))),
    )
}

/// The plan the optimizer emits for the workload file (certificate
/// verified), its `qN` consumers renamed to the workload's names.
fn shared_plan() -> SharedQueryPlan {
    let (names, texts): (Vec<String>, Vec<String>) = mq_workload().into_iter().unzip();
    let outcome = optimize_file(&texts.join(";\n"), &OptimizeOptions::default());
    assert!(!outcome.certificate.is_empty(), "optimizer found no rewrites on the sharing workload");
    let plans = outcome.build_shared().expect("certificate verifies");
    let [plan] = &plans[..] else { panic!("expected one TCP cluster, got {}", plans.len()) };
    let groups = plan.groups.iter().map(|(spec, consumers)| SharedGroup {
        op: SamplingOperator::new(spec.clone()).expect("instantiate"),
        // `qN` is statement N, workload entry N - 1.
        consumers: consumers
            .iter()
            .map(|q| names[q[1..].parse::<usize>().expect("consumer name") - 1].clone())
            .collect(),
    });
    SharedQueryPlan { prefilter: plan.prefilter.clone(), groups: groups.collect() }
}

fn fan_out(plan: SharedQueryPlan, packets: &[Packet]) -> FanoutReport {
    run_fanout_shared(Box::new(SelectionNode::pass_all()), plan, packets.iter().cloned())
        .expect("fan-out run")
}

/// Every consumer's `(window, rows)` output matches, in order.
fn identical(a: &FanoutReport, b: &FanoutReport) -> bool {
    let outputs = |r: &FanoutReport| -> BTreeMap<String, Vec<(Tuple, Vec<Tuple>)>> {
        let windows = |ws: &[WindowOutput]| -> Vec<_> {
            ws.iter().map(|w| (w.window.clone(), w.rows.clone())).collect()
        };
        r.queries.iter().map(|q| (q.name.clone(), windows(&q.windows))).collect()
    };
    outputs(a) == outputs(b)
}

/// Correctness over every repetition of every arm, and the `inline`
/// arm's layers.
#[derive(Default)]
struct Tally {
    max_err_pct: Cell<f64>,
    dropped: Cell<u64>,
    degraded_windows: Cell<usize>,
    mismatched_fanout_runs: Cell<usize>,
    /// Per `inline` repetition: low and high busy ns per tuple.
    inline_ns: RefCell<Vec<[f64; 2]>>,
}

impl Tally {
    /// Check each window's volume estimate against `truth`.
    fn estimates(&self, truth: &HashMap<u64, u64>, windows: &[WindowOutput]) {
        for w in windows {
            let actual = truth.get(&w.window.get(0).as_u64().expect("tb")).copied().unwrap_or(0);
            let est: f64 = w.rows.iter().map(|r| r.get(3).as_f64().expect("adj")).sum();
            if actual > 0 {
                let err = 100.0 * (est - actual as f64).abs() / actual as f64;
                self.max_err_pct.set(self.max_err_pct.get().max(err));
            }
        }
    }
}

/// Bytes per window of `shape`, the truth its estimates are held to.
fn volumes(shape: Shape, packets: &[Packet]) -> HashMap<u64, u64> {
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for p in packets {
        *truth.entry(p.time() / shape.window_secs).or_default() += p.len as u64;
    }
    truth
}

struct Arm<'a> {
    name: &'static str,
    shards: Option<usize>,
    threads: usize,
    tuples: usize,
    /// One repetition: its wall time and the windows it closed.
    run: Box<dyn Fn() -> (f64, usize) + 'a>,
    secs: Vec<f64>,
    windows: usize,
}

/// A sharded arm. `cfg` builds a fresh configuration per repetition, so
/// a registry or profiler starts empty every time.
fn sharded<'a>(
    name: &'static str,
    shape: Shape,
    cfg: impl Fn() -> RuntimeConfig + 'a,
    packets: &'a [Packet],
    tally: &'a Tally,
) -> Arm<'a> {
    let truth = volumes(shape, packets);
    let threads = threads(&cfg());
    let run = move || {
        let (secs, report) = shape.run(packets, &cfg());
        tally.estimates(&truth, &report.windows);
        tally.dropped.set(tally.dropped.get() + report.dropped());
        let degraded = report.windows.iter().filter(|w| w.degradation.degraded).count();
        tally.degraded_windows.set(tally.degraded_windows.get() + degraded);
        (secs, report.windows.len())
    };
    let (shards, tuples) = (Some(shape.shards), packets.len());
    Arm { name, shards, threads, tuples, run: Box::new(run), secs: vec![], windows: 0 }
}

/// The `inline` arm: the gated shape's query through `run_plan` on the
/// calling thread; building the plan is untimed.
fn inline<'a>(packets: &'a [Packet], tally: &'a Tally) -> Arm<'a> {
    let truth = volumes(GATED, packets);
    let run = move || {
        let op = SamplingOperator::new(GATED.spec(GATED.target).expect("workload spec"));
        let plan = TwoLevelPlan::new(Box::new(SelectionNode::pass_all()), op.expect("operator"));
        let t0 = Instant::now();
        let report = run_plan(plan, packets.iter().copied()).expect("inline run");
        let secs = t0.elapsed().as_secs_f64();
        tally.estimates(&truth, &report.windows);
        let per_tuple = |busy: Duration| busy.as_nanos() as f64 / packets.len() as f64;
        let layers = [per_tuple(report.low.busy), per_tuple(report.high.busy)];
        tally.inline_ns.borrow_mut().push(layers);
        (secs, report.windows.len())
    };
    let (name, tuples) = ("inline", packets.len());
    Arm { name, shards: None, threads: 1, tuples, run: Box::new(run), secs: vec![], windows: 0 }
}

/// A fan-out arm on the calling thread; building the plan is untimed.
fn fanout<'a>(
    name: &'static str,
    plan: fn() -> SharedQueryPlan,
    packets: &'a [Packet],
    reference: &'a FanoutReport,
    tally: &'a Tally,
) -> Arm<'a> {
    let run = move || {
        let plan = plan();
        let t0 = Instant::now();
        let report = fan_out(plan, packets);
        let secs = t0.elapsed().as_secs_f64();
        let mismatched = usize::from(!identical(reference, &report));
        tally.mismatched_fanout_runs.set(tally.mismatched_fanout_runs.get() + mismatched);
        (secs, report.queries.iter().map(|q| q.windows.len()).sum())
    };
    let tuples = packets.len();
    Arm { name, shards: None, threads: 1, tuples, run: Box::new(run), secs: vec![], windows: 0 }
}

#[derive(serde::Serialize)]
struct ArmReport {
    name: &'static str,
    /// `null` for the fan-out arms, which run on the calling thread.
    shards: Option<usize>,
    threads: usize,
    spread: Spread,
    tuples_per_sec: f64,
    windows: usize,
}

#[derive(serde::Serialize)]
struct Comparison {
    name: &'static str,
    arm: &'static str,
    baseline: &'static str,
    threads: usize,
    host_cores: usize,
    /// An ungated comparison is reported and never fails the run.
    gated: bool,
    verdict: Verdict,
}

#[derive(serde::Serialize)]
struct Checks {
    /// Windows in which an exact `sum`/`count` query differs between one
    /// instance and 4 shards.
    exact_drift_windows: usize,
    max_estimate_err_pct: f64,
    dropped: u64,
    degraded_windows: usize,
    mismatched_fanout_runs: usize,
    /// Where the time goes at 8 shards, from one profiled run.
    dominant_stage_8shard: Option<&'static str>,
    ingest_pct_8shard: f64,
    process_pct_8shard: f64,
    router_share_pct_8shard: f64,
    dropped_trace_events_8shard: u64,
}

/// The `inline` arm's layers, from the engine's own `RunReport`: busy
/// ns per tuple, median over the repetitions. `low` is the packet pull
/// and the low-level node, `high` the operator (with the tuple copies
/// of what it admits, where it runs over packets).
#[derive(serde::Serialize)]
struct InlineLayers {
    low_ns_per_tuple: f64,
    high_ns_per_tuple: f64,
}

#[derive(serde::Serialize)]
struct Report {
    datacenter_seed: u64,
    datacenter_packets: usize,
    research_seed: u64,
    research_packets: usize,
    reps: usize,
    host_cores: usize,
    arms: Vec<ArmReport>,
    comparisons: Vec<Comparison>,
    inline_layers: InlineLayers,
    checks: Checks,
    failures: Vec<String>,
}

/// Windows that differ between one instance and 4 shards of an exact
/// query (hash-partitioned groups are disjoint, so the merge is exact).
fn exact_drift_windows(packets: &[Packet]) -> usize {
    let op = SamplingOperator::new(queries::total_sum_query(5)).expect("exact query");
    let low = Box::new(SelectionNode::pass_all());
    let single = run_plan(TwoLevelPlan::new(low, op), packets.iter().cloned()).expect("1 instance");
    let sharded = run_plan_sharded(
        Box::new(SelectionNode::pass_all()),
        |_| Ok(queries::total_sum_query(5)),
        &RuntimeConfig::new(4),
        packets.iter().cloned(),
    )
    .expect("4 shards");
    let (a, b) = (&single.windows, &sharded.windows);
    let differ = a.iter().zip(b).filter(|(x, y)| x.window != y.window || x.rows != y.rows);
    differ.count() + a.len().abs_diff(b.len())
}

fn main() {
    let packets = datacenter_feed(SEED).take_seconds(SECONDS);
    let mq_packets = research_feed(MQ_SEED).take_seconds(SECONDS);
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    // Each durable repetition starts its store fresh (`create` wipes the
    // shard logs): steady-state writes, not an ever-growing log.
    let tmp = std::env::temp_dir().join(format!("sso-overhead-{}", std::process::id()));
    let durable = |dir: &str, checkpoint_every: u64| DurabilityConfig {
        checkpoint_every,
        ..DurabilityConfig::new(tmp.join(dir))
    };
    let base = GATED.runtime();
    let mut parked = FaultPlan::empty(0);
    parked.events.extend(
        (0..GATED.shards).map(|shard| FaultEvent::WorkerPanic { shard, at_tuple: u64::MAX }),
    );
    let parked = parked.into_shared();
    let scaled = |n: usize| {
        let cfg = GATED.with_shards(n).runtime();
        move || cfg.clone()
    };
    let profiler = || Profiler::new(ProfilerConfig::default());
    // The `ss_durable` shape runs as the benchmark's workload does:
    // plain 2-shard configuration, a sync every 4 windows.
    let shaped = || RuntimeConfig::new(SS_DURABLE.shards);
    let (p, t) = (&packets[..], &Tally::default());
    let reference = fan_out(unshared_plan(), &mq_packets);
    let mut arms = vec![
        sharded("base", GATED, || base.clone(), p, t),
        sharded("base_again", GATED, || base.clone(), p, t),
        sharded("faults", GATED, || base.clone().with_faults(parked.clone()), p, t),
        sharded("registry", GATED, || base.clone().with_registry(Registry::new()), p, t),
        sharded("profiler", GATED, || base.clone().with_profile(profiler()), p, t),
        sharded("durable", GATED, || base.clone().with_durability(durable("gated", 2)), p, t),
        sharded("shards_1", GATED.with_shards(1), scaled(1), p, t),
        sharded("shards_2", GATED.with_shards(2), scaled(2), p, t),
        sharded("shards_8", GATED.with_shards(8), scaled(8), p, t),
        sharded("ss_durable_base", SS_DURABLE, shaped, p, t),
        sharded("ss_durable", SS_DURABLE, || shaped().with_durability(durable("ss", 4)), p, t),
        fanout("unshared", unshared_plan, &mq_packets, &reference, t),
        fanout("shared", shared_plan, &mq_packets, &reference, t),
        inline(p, t),
    ];
    eprintln!("# {} arms, {REPS} repetitions each, round-robin; {cores} host cores", arms.len());
    for rep in 0..REPS {
        for k in 0..arms.len() {
            let i = (rep + k) % arms.len();
            let (secs, windows) = (arms[i].run)();
            arms[i].secs.push(secs);
            arms[i].windows = windows;
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let arm = |name: &str| arms.iter().find(|a| a.name == name).expect("arm exists");
    let scaling = |name: &str| fits(arm(name).threads, cores);
    let comparisons: Vec<Comparison> = [
        ("A/A", "base_again", "base", true),
        ("faults", "faults", "base", true),
        ("registry", "registry", "base", true),
        ("profiler", "profiler", "base", true),
        ("durable", "durable", "base", true),
        ("ss_durable", "ss_durable", "ss_durable_base", false),
        ("scaling 1->2", "shards_2", "shards_1", scaling("shards_2")),
        ("scaling 2->4", "base", "shards_2", scaling("base")),
        ("scaling 4->8", "shards_8", "base", scaling("shards_8")),
        ("sharing", "shared", "unshared", true),
    ]
    .into_iter()
    .map(|(name, a, b, gated)| {
        let (a, b) = (arm(a), arm(b));
        let verdict = judge(Spread::of(&b.secs), Spread::of(&a.secs));
        let (arm, baseline, threads) = (a.name, b.name, a.threads);
        Comparison { name, arm, baseline, threads, host_cores: cores, gated, verdict }
    })
    .collect();

    let inline_ns = t.inline_ns.borrow();
    // A spread's middle rank is the median, whatever it measures.
    let median = |layer: usize| Spread::of(&inline_ns.iter().map(|l| l[layer]).collect::<Vec<_>>());
    let inline_layers =
        InlineLayers { low_ns_per_tuple: median(0).secs, high_ns_per_tuple: median(1).secs };

    let eight = GATED.with_shards(8);
    let profiled = Profiler::new(ProfilerConfig::default());
    eight.run(p, &eight.runtime().with_profile(profiled.clone()));
    let trace = profiled.report();
    let share = |stage: &str| {
        trace.stages.iter().find(|s| s.stage.name() == stage).map_or(0.0, |s| s.share_pct)
    };
    let c = Checks {
        exact_drift_windows: exact_drift_windows(p),
        max_estimate_err_pct: t.max_err_pct.get(),
        dropped: t.dropped.get(),
        degraded_windows: t.degraded_windows.get(),
        mismatched_fanout_runs: t.mismatched_fanout_runs.get(),
        dominant_stage_8shard: trace.dominant.map(|s| s.name()),
        ingest_pct_8shard: share("ingest"),
        process_pct_8shard: share("process"),
        router_share_pct_8shard: trace.router_share_pct,
        dropped_trace_events_8shard: trace.dropped_events,
    };
    let mut failures: Vec<String> = comparisons
        .iter()
        .filter(|c| c.gated && !c.verdict.pass)
        .map(|c| format!("{}: {} vs {}: {:?}", c.name, c.arm, c.baseline, c.verdict))
        .collect();
    failures.extend(
        [
            (c.exact_drift_windows == 0, "an exact query drifted between 1 and 4 shards"),
            (c.max_estimate_err_pct <= MAX_ESTIMATE_ERR_PCT, "an estimate missed by over 5 %"),
            (c.dropped == 0, "tuples were dropped"),
            (c.degraded_windows == 0, "windows were degraded"),
            (c.mismatched_fanout_runs == 0, "fan-out output differs from the unshared run"),
            (c.dominant_stage_8shard.is_some(), "8 shards: no dominant stage"),
            (c.dropped_trace_events_8shard == 0, "8 shards: trace events were dropped"),
            (c.ingest_pct_8shard < c.process_pct_8shard, "8 shards: ingest is not below process"),
        ]
        .into_iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| what.to_string()),
    );

    let report = Report {
        datacenter_seed: SEED,
        datacenter_packets: packets.len(),
        research_seed: MQ_SEED,
        research_packets: mq_packets.len(),
        reps: REPS,
        host_cores: cores,
        arms: arms
            .iter()
            .map(|a| {
                let spread = Spread::of(&a.secs);
                let tuples_per_sec = a.tuples as f64 / spread.secs;
                let (name, shards, threads, windows) = (a.name, a.shards, a.threads, a.windows);
                ArmReport { name, shards, threads, spread, tuples_per_sec, windows }
            })
            .collect(),
        comparisons,
        inline_layers,
        checks: c,
        failures,
    };
    print_table(&report);
    maybe_json(&report);
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

fn print_table(r: &Report) {
    for a in &r.arms {
        let (s, shards) = (a.spread, a.shards.map_or("-".to_string(), |n| n.to_string()));
        eprintln!(
            "{:<16} {shards:>2} shards {:>2} threads {:.3} s [{:.3}, {:.3}] {:>9.0} tuples/s",
            a.name, a.threads, s.secs, s.secs_q1, s.secs_q3, a.tuples_per_sec
        );
    }
    for c in &r.comparisons {
        let v = &c.verdict;
        let verdict = match (c.gated, v.pass) {
            (true, true) => "pass".to_string(),
            (true, false) => "FAIL".to_string(),
            (false, _) => format!("ungated ({} threads, {} cores)", c.threads, c.host_cores),
        };
        let pair = format!("{} vs {}", c.arm, c.baseline);
        eprintln!(
            "{:<13} {pair:<31} {:>7.2}% (allowance {:>5.2}%) {verdict}",
            c.name, v.overhead_pct, v.allowance_pct
        );
    }
    let l = &r.inline_layers;
    eprintln!(
        "inline layers: low {:.1} ns/tuple, high {:.1} ns/tuple",
        l.low_ns_per_tuple, l.high_ns_per_tuple
    );
    eprintln!("checks: {}", serde_json::to_string(&r.checks).expect("checks serialize"));
    for f in &r.failures {
        eprintln!("FAILED: {f}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_pass() {
        let s = Spread::of(&[1.0, 1.1, 0.9, 1.05, 0.95]);
        let v = judge(s, s);
        assert_eq!(v.overhead_pct, 0.0);
        assert!(v.pass, "{v:?}");
    }

    #[test]
    fn a_20_pct_slower_arm_with_tight_quartiles_fails() {
        // 20 % less throughput: every repetition takes 1 / 0.8 as long.
        let v = judge(Spread::of(&[1.0; 7]), Spread::of(&[1.25; 7]));
        assert!((v.overhead_pct - 20.0).abs() < 1e-9, "{v:?}");
        assert_eq!(v.allowance_pct, BUDGET_PCT);
        assert!(!v.pass);
    }

    #[test]
    fn wide_quartiles_widen_the_allowance_by_their_iqr_over_median() {
        // q1 0.95, median 1.0, q3 1.05: IQR/median 0.1 on each side.
        let base = Spread::of(&[0.9, 1.0, 1.1]);
        let arm = Spread::of(&[0.9 * 1.25, 1.25, 1.1 * 1.25]);
        assert!((base.rel_iqr() - 0.1).abs() < 1e-12);
        assert!((arm.rel_iqr() - 0.1).abs() < 1e-12);
        let v = judge(base, arm);
        assert!((v.allowance_pct - (BUDGET_PCT + 20.0)).abs() < 1e-9, "{v:?}");
        // The 20 % loss that fails with tight quartiles passes here.
        assert!(v.pass, "{v:?}");
    }

    #[test]
    fn a_configuration_with_more_threads_than_cores_is_ungated() {
        // Pump + 2 workers.
        let cfg = RuntimeConfig::new(2);
        assert_eq!(threads(&cfg), 3);
        assert!(fits(threads(&cfg), 3));
        assert!(!fits(threads(&cfg), 2));
    }
}
