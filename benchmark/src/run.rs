//! One benchmark process: one workload, either untraced (the
//! end-to-end metrics) or traced (the per-layer metrics).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sso_obs::Registry;

use crate::contract::{per_layer, END_TO_END, SAMPLERS, STANDALONE};
use crate::feed::{window_lags, LagFeed};
use crate::layers::{
    micro_expr, micro_operator, micro_ring, micro_standalone, micro_to_tuple, replay, same_output,
    MicroInput, ReplayCounts,
};
use crate::procfs::{cpu_ns, peak_rss_mib, rss_mib};
use crate::stats::{median, percentile, supported_tail, Summary};
use crate::trace::{self_time_by_name, Recorder};
use crate::workloads::{
    check, durable_dir, generate_feed, mq_statements, run_engine, Prepared, RepOutput, Truth,
    Verdict, Workload, ROUTERS, SHARDS,
};

/// Set-ups before the first repetition of an untraced process, and
/// again after the last; `setup_s` is the median of all of them. Two
/// groups a run's length apart, because five back-to-back set-ups take
/// under a second and one slow spell of the host covers them all.
const SETUP_REPS: usize = 5;
/// Fewest timed repetitions of an untraced run, however long they take.
const MIN_REPS: usize = 7;
/// Feed seconds of the `--quick` smoke form: the shortest feed on which
/// every workload closes a window mid-stream, so a lag sample exists.
const QUICK_FEED_SECONDS: u64 = 4;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke form: a 4 s feed, one repetition, oracles only.
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// What a process reports: named metrics in reporting order, with
/// units, and the oracle's verdict.
pub struct Report {
    pub header: String,
    pub metrics: Vec<(String, &'static str, Summary)>,
    pub verdict: Verdict,
}

impl Report {
    /// `true` when every oracle held and every number is finite.
    pub fn correct(&self) -> bool {
        self.verdict.failed() == 0 && self.metrics.iter().all(|(_, _, s)| s.value.is_finite())
    }

    /// The driver-facing result: one JSON object on one line.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                let value = if s.value.is_finite() { s.value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.verdict.attempted().max(1),
            self.verdict.failed(),
            metrics.join(", ")
        )
    }

    /// `name unit value q1 q3 n mad`, one line per metric, after `#`
    /// header lines — the form people and `--aa` read.
    pub fn lines(&self) -> String {
        let mut out = format!("# {}\n", self.header);
        out.push_str(&format!(
            "# oracle: windows {}/{} failed, tuples {}/{} lost, failed_share {}\n",
            self.verdict.windows_failed,
            self.verdict.windows_checked,
            self.verdict.tuples_lost,
            self.verdict.tuples_offered,
            self.verdict.failed_share()
        ));
        for note in &self.verdict.notes {
            out.push_str(&format!("# FAILED {note}\n"));
        }
        for (name, unit, s) in &self.metrics {
            let Summary { value, q1, q3, n, mad } = s;
            out.push_str(&format!("{name} {unit} {value} {q1} {q3} {n} {mad}\n"));
        }
        out
    }
}

fn header(args: &Args, feed_seconds: u64, packets: usize, reps: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "workload={} seed={} trace={} feed_seconds={feed_seconds} packets={packets} reps={reps} \
         window_secs={} target={} shards={SHARDS} routers={ROUTERS} host_cores={cores}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.workload.window_secs(),
        args.workload.target(),
    )
}

/// One repetition through the entry point, measured from the feed side.
struct Rep {
    wall_s: f64,
    cpu_ns: u64,
    lags_ms: Vec<f64>,
    output: RepOutput,
}

fn engine_rep(prepared: &Prepared, dir: &Path, registry: Option<Registry>) -> Rep {
    let mut feed = LagFeed::new(&prepared.packets, &prepared.starts);
    let cpu_before = cpu_ns();
    let output = run_engine(prepared, &mut feed, dir, registry);
    let cpu_ns = cpu_ns() - cpu_before;
    let first_pull = feed.first_pull().expect("the engine pulled the feed");
    // Every entry point returns batches: all windows are handed over
    // when the call returns.
    let handed = vec![output.returned; feed.window_first.len()];
    let lags_ms =
        window_lags(&feed.window_first, &handed).iter().map(|d| d.as_secs_f64() * 1e3).collect();
    Rep { wall_s: (output.returned - first_pull).as_secs_f64(), cpu_ns, lags_ms, output }
}

fn feed_seconds(args: &Args) -> u64 {
    if args.quick {
        QUICK_FEED_SECONDS
    } else {
        args.workload.feed_seconds()
    }
}

/// The untraced process: set-up (several times), one warm-up, timed
/// repetitions for `--seconds`, each checked by the oracle, then the
/// second group of set-ups.
pub fn run_untraced(args: &Args) -> Report {
    let workload = args.workload;
    let feed_seconds = feed_seconds(args);
    let dir = durable_dir(&args.out_dir, workload);

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.quick { 1 } else { SETUP_REPS } {
        // Free the previous feed first: peak RSS must not count two.
        drop(prepared.take());
        let (p, secs) = Prepared::set_up(workload, args.seed, feed_seconds);
        setup_s.push(secs);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let truth = Truth::of(&prepared);
    let n = prepared.packets.len() as f64;

    if !args.quick {
        engine_rep(&prepared, &dir, None); // warm-up, unmeasured
    }
    let min_reps = if args.quick { 1 } else { MIN_REPS };
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut verdict = Verdict::default();
    let (mut tuples_per_s, mut cpu_per_tuple) = (Vec::new(), Vec::new());
    let (mut lag_samples, mut lag_p50, mut lag_p95) = (0usize, Vec::new(), Vec::new());
    while tuples_per_s.len() < min_reps || (!args.quick && started.elapsed() < budget) {
        let rep = engine_rep(&prepared, &dir, None);
        verdict.absorb(check(&prepared, &truth, &rep.output, &dir));
        tuples_per_s.push(n / rep.wall_s);
        cpu_per_tuple.push(rep.cpu_ns as f64 / n);
        lag_p50.push(percentile(&rep.lags_ms, 50.0));
        lag_p95.push(percentile(&rep.lags_ms, 95.0));
        lag_samples += rep.lags_ms.len();
    }
    let _ = fs::remove_dir_all(&dir);
    let packets = prepared.packets.len();
    drop((prepared, truth));
    for _ in 0..if args.quick { 0 } else { SETUP_REPS } {
        setup_s.push(Prepared::set_up(workload, args.seed, feed_seconds).1);
    }

    // Every metric is the median over the repetitions of the
    // repetition's own value. For the lag percentiles that keeps a slow
    // repetition (host noise) out of the tail, which a percentile over
    // the pooled samples would be made of.
    let summaries = [
        Summary::of(&setup_s),
        Summary::of(&tuples_per_s),
        Summary::of(&cpu_per_tuple),
        Summary::of(&lag_p50),
        Summary::of(&lag_p95),
        Summary::single(peak_rss_mib()),
    ];
    let tail = supported_tail(lag_samples).map_or("none".to_string(), |p| format!("p{p}"));
    Report {
        header: format!(
            "{} lag_samples={lag_samples} lag_tail_supported={tail}",
            header(args, feed_seconds, packets, tuples_per_s.len()),
        ),
        metrics: END_TO_END
            .iter()
            .zip(summaries)
            .map(|(m, s)| (m.name.to_string(), m.unit, s))
            .collect(),
        verdict,
    }
}

/// The traced process: set-up under spans, entry-point repetitions
/// (the untraced wall the replay is compared with, and the runtime's
/// own counters), replay repetitions under spans, then the micro
/// measurements. Spans go to `<out>/trace-<workload>.json`.
pub fn run_traced(args: &Args) -> Report {
    let workload = args.workload;
    let feed_seconds = feed_seconds(args);
    let dir = durable_dir(&args.out_dir, workload);
    let mut rec = Recorder::default();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();

    // Set-up, one span per layer that takes part in it.
    let (packets, generate_ns) =
        rec.timed("netgen.generate", |_| generate_feed(args.seed, feed_seconds));
    m.insert("netgen.generate_ns_per_pkt".into(), generate_ns as f64 / packets.len() as f64);
    drop(packets);
    let texts = query_texts(workload);
    let schema = sso_types::Packet::schema();
    let planner = sso_query::PlannerConfig::standard();
    let ((), compile_ns) = rec.timed("query.compile", |_| {
        for text in &texts {
            std::hint::black_box(sso_query::compile(text, &schema, &planner).expect("compile"));
        }
    });
    m.insert("query.compile_us".into(), compile_ns as f64 / 1e3 / texts.len() as f64);
    if workload == Workload::MqShared {
        let (_, optimize_ns) = rec.timed("rewrite.optimize", |_| workload.pipeline());
        m.insert("rewrite.optimize_us".into(), optimize_ns as f64 / 1e3);
    }
    let (prepared, _) = Prepared::set_up(workload, args.seed, feed_seconds);
    let truth = Truth::of(&prepared);
    let n = prepared.packets.len() as f64;
    m.insert("rss_baseline_mb".into(), rss_mib());

    // Entry-point repetitions: one warm-up, then half the budget.
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let min_reps = if args.quick { 1 } else { 2 };
    let mut verdict = Verdict::default();
    // A disabled registry keeps span tracing off but lets the router's
    // batch histogram be read afterwards.
    let registry = Registry::disabled();
    if !args.quick {
        engine_rep(&prepared, &dir, None);
    }
    let started = Instant::now();
    let mut engine_wall = Vec::new();
    let mut last = None;
    while engine_wall.len() < min_reps || (!args.quick && started.elapsed() < half) {
        let reg = workload.sharded().then(|| registry.clone());
        let rep = engine_rep(&prepared, &dir, reg);
        verdict.absorb(check(&prepared, &truth, &rep.output, &dir));
        engine_wall.push(rep.wall_s);
        last = Some(rep);
    }
    let last = last.expect("at least one engine repetition");
    if workload.sharded() {
        let shards = &last.output.shards;
        let busy: f64 = shards.iter().map(|s| s.busy().as_secs_f64()).sum();
        m.insert("runtime.worker_busy_share".into(), busy / (SHARDS as f64 * last.wall_s));
        m.insert("runtime.stalls".into(), shards.iter().map(|s| s.stalls()).sum::<u64>() as f64);
        m.insert("runtime.dropped".into(), shards.iter().map(|s| s.dropped()).sum::<u64>() as f64);
        let batches = registry.snapshot().get("rt.batch_tuples").map_or(0, |h| h.hits());
        m.insert("runtime.ring_batches".into(), batches as f64 / engine_wall.len() as f64);
    }

    // Replay repetitions under spans.
    let started = Instant::now();
    let mut counts = ReplayCounts::default();
    let mut replays = 0u32;
    while replays < min_reps as u32 || (!args.quick && started.elapsed() < half) {
        rec.set_run(replays);
        let output = replay(&mut rec, &prepared, &dir, &mut counts);
        replays += 1;
        // The replay must be the engine: same windows, same rows.
        verdict.windows_checked += 1;
        if !same_output(&output, &last.output.consumers) {
            verdict.fail("replay output differs from the entry point's".into());
        }
    }
    let _ = fs::remove_dir_all(&dir);

    // Shares and per-call costs from the replay's spans (the only
    // spans under a `rep` root so far: the micro measurements run last).
    let spans = rec.spans();
    let rep_total: u64 =
        spans.iter().filter(|s| s.name == "rep").map(|s| s.duration_ns()).sum::<u64>().max(1);
    let rep_walls: Vec<f64> =
        spans.iter().filter(|s| s.name == "rep").map(|s| s.duration_ns() as f64 / 1e9).collect();
    let self_ns = self_time_by_name(spans, |_| true);
    let total = |prefix: &str| -> u64 {
        self_ns.iter().filter(|(name, _)| name.starts_with(prefix)).map(|(_, ns)| ns).sum()
    };
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count().max(1) as f64;
    let pct = |ns: u64| 100.0 * ns as f64 / rep_total as f64;
    let per_rep_tuple = n * replays as f64;
    m.insert("gigascope.low_ns_per_pkt".into(), total("gigascope.low") as f64 / per_rep_tuple);
    m.insert("share.gigascope.low_pct".into(), pct(total("gigascope.low")));
    m.insert("share.core.expr_pct".into(), pct(total("core.expr.prefilter")));
    m.insert("share.core.operator_pct".into(), pct(total("core.operator.")));
    m.insert("share.types_pct".into(), pct(total("types.tuple_drop")));
    m.insert("share.runtime_pct".into(), pct(total("runtime.")));
    m.insert("share.store_pct".into(), pct(total("store.")));
    m.insert("trace.unattributed_pct".into(), pct(total("rep")));
    let engine = median(&engine_wall);
    m.insert("trace.overhead_pct".into(), 100.0 * (median(&rep_walls) - engine) / engine);
    if workload.sharded() {
        m.insert("runtime.route_ns".into(), total("runtime.route") as f64 / per_rep_tuple);
        m.insert("runtime.route_skew".into(), counts.route_skew);
        m.insert(
            "runtime.merge_us_per_window".into(),
            total("runtime.merge") as f64 / 1e3 / counts.merged_windows.max(1) as f64,
        );
    }
    if workload.durable() {
        let recorded = counts.windows_recorded.max(1) as f64;
        m.insert(
            "store.record_window_us".into(),
            total("store.record_window") as f64 / 1e3 / count("store.record_window"),
        );
        m.insert(
            "store.checkpoint_us".into(),
            total("store.checkpoint") as f64 / 1e3 / count("store.checkpoint"),
        );
        m.insert("store.wal_bytes_per_window".into(), counts.wal_bytes as f64 / recorded);
        m.insert("store.ckpt_bytes".into(), counts.ckpt_bytes as f64 / replays as f64);
    }

    // Micro measurements: the same code on the same feed prefix on
    // every workload.
    rec.set_run(u32::MAX);
    let input = MicroInput::new(&prepared.packets);
    m.insert("types.to_tuple_ns".into(), micro_to_tuple(&mut rec, &input));
    m.insert("core.expr.eval_ns".into(), micro_expr(&mut rec, &input, &prepared));
    for sampler in SAMPLERS {
        micro_operator(&mut rec, &input, sampler, &mut m);
    }
    for sampler in STANDALONE {
        let ns = micro_standalone(&mut rec, &input, sampler, args.seed);
        m.insert(format!("sampling.offer_ns.{sampler}"), ns);
    }
    if workload.sharded() {
        m.insert("runtime.ring_ns_per_batch".into(), micro_ring(&mut rec, &input));
    }
    m.insert("failed_share".into(), verdict.failed_share());

    fs::create_dir_all(&args.out_dir).expect("create output directory");
    let trace_path = args.out_dir.join(format!("trace-{}.json", workload.name()));
    fs::write(&trace_path, rec.to_json()).expect("write spans");

    let layers = per_layer();
    for name in m.keys() {
        assert!(layers.iter().any(|l| l.name == *name), "{name} is not a per-layer metric");
    }
    Report {
        header: format!(
            "{} engine_reps={} spans={} trace_file={}",
            header(args, feed_seconds, prepared.packets.len(), replays as usize),
            engine_wall.len(),
            rec.spans().len(),
            trace_path.display()
        ),
        // A layer the workload does not exercise reports 0.
        metrics: layers
            .into_iter()
            .map(|l| {
                let value = m.get(&l.name).copied().unwrap_or(0.0);
                (l.name, l.unit, Summary::single(value))
            })
            .collect(),
        verdict,
    }
}

/// The workload's queries in the surface syntax, for `query.compile_us`.
fn query_texts(workload: Workload) -> Vec<String> {
    let example = |name: &str| {
        let text = sso_core::queries::EXAMPLE_QUERIES
            .iter()
            .find(|(builder, _)| *builder == name)
            .expect("example query")
            .1;
        vec![text.to_string()]
    };
    match workload {
        Workload::HhInline => example("heavy_hitters_query"),
        Workload::MqShared => mq_statements(workload.window_secs()),
        _ => example("subset_sum_query"),
    }
}
