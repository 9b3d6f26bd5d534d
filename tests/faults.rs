//! Fault-injection acceptance: a seeded fault plan panicking one of 16
//! shards mid-window must leave the run alive, the affected window
//! tagged `degraded` with `coverage < 1`, the re-thresholded estimates
//! over the surviving shards *exactly* equal to a fault-free run fed
//! the same surviving tuples, and a same-seed replay byte-identical.
//! Plus the loss-accounting ledger: for every seeded plan,
//! `offered == delivered + accounted losses` and
//! `delivered == covered + uncovered`, exactly.

use std::sync::Arc;

use stream_sampler::prelude::*;
use stream_sampler::runtime::route_stream;

const WINDOW: u64 = 2;
const SHARDS: usize = 16;

fn packets() -> Vec<Packet> {
    research_feed(0xfa).take_seconds(6)
}

/// Pick a `(shard, at_tuple)` panic point that lands mid-window in the
/// victim shard's LAST window, plus that window's id. Mid-window makes
/// the poisoned operator's current window unambiguous; last-window keeps
/// the surviving-tuples comparison exact even for sampled queries (no
/// post-fault windows whose per-shard RNG position could differ from
/// the reference run's).
fn pick_panic_point(
    plan: &ShardPlan,
    pkts: &[Packet],
    shard: usize,
) -> (u64 /* at_tuple */, u64 /* window */) {
    let tuples: Vec<Tuple> = pkts.iter().map(|p| p.to_tuple()).collect();
    let routed = route_stream(plan, SHARDS, &tuples);
    let mine: Vec<usize> = (0..pkts.len()).filter(|&i| routed[i] == shard).collect();
    let window_of = |i: usize| pkts[i].time() / WINDOW;
    let last_w = window_of(*mine.last().expect("victim shard sees traffic"));
    let first_in_last =
        mine.iter().position(|&i| window_of(i) == last_w).expect("last window exists");
    // The third tuple of the window: at least two predecessors pin the
    // operator's current window to `last_w` when the panic fires.
    assert!(mine.len() - first_in_last >= 3, "last window too small to hit mid-window");
    ((first_in_last + 3) as u64, last_w)
}

/// The surviving tuples of a mid-window shard panic: everything except
/// the victim shard's share of the poisoned window. Valid only for
/// keyed (content-routed) plans, where removing tuples does not shift
/// any other tuple's shard assignment.
fn surviving_packets(plan: &ShardPlan, pkts: &[Packet], shard: usize, window: u64) -> Vec<Packet> {
    let tuples: Vec<Tuple> = pkts.iter().map(|p| p.to_tuple()).collect();
    let routed = route_stream(plan, SHARDS, &tuples);
    pkts.iter()
        .enumerate()
        .filter(|&(i, p)| !(routed[i] == shard && p.time() / WINDOW == window))
        .map(|(_, p)| *p)
        .collect()
}

fn run<F>(make: F, cfg: &RuntimeConfig, pkts: Vec<Packet>) -> ShardedRunReport
where
    F: Fn(usize) -> Result<OperatorSpec, stream_sampler::operator::OpError> + Sync,
{
    run_plan_sharded(Box::new(SelectionNode::pass_all()), make, cfg, pkts).expect("run completes")
}

fn assert_reports_byte_identical(a: &ShardedRunReport, b: &ShardedRunReport, what: &str) {
    assert_eq!(a.coverage, b.coverage, "{what}: coverage");
    assert_eq!(a.windows.len(), b.windows.len(), "{what}: window count");
    for (x, y) in a.windows.iter().zip(&b.windows) {
        assert_eq!(x.window, y.window, "{what}: window key");
        assert_eq!(x.rows, y.rows, "{what}: rows for {:?}", x.window);
        assert_eq!(x.stats, y.stats, "{what}: stats for {:?}", x.window);
        assert_eq!(x.degradation.coverage, y.degradation.coverage, "{what}: coverage tag");
        assert_eq!(x.degradation.degraded, y.degradation.degraded, "{what}: degraded tag");
    }
}

/// The headline acceptance run, against the paper's threshold sampler:
/// 1 of 16 shards panics mid-window under a seeded plan; the run
/// completes, the poisoned window is tagged, the re-thresholded sample
/// over the surviving shards matches a fault-free run over the same
/// surviving tuples row-for-row, and the same seed replays to the byte.
#[test]
fn shard_panic_degrades_exactly_one_window_with_exact_surviving_estimates() {
    let make = |_| queries::basic_subset_sum_query(WINDOW, 400.0);
    let plan = shard_plan(&make(0).unwrap()).expect("keyed, shard-mergeable");
    let pkts = packets();
    let victim = 5usize;
    let (at_tuple, poisoned_w) = pick_panic_point(&plan, &pkts, victim);

    let mut fault = FaultPlan::empty(42);
    fault.events.push(FaultEvent::WorkerPanic { shard: victim, at_tuple });
    let fault = fault.into_shared();
    let cfg = RuntimeConfig::new(SHARDS).with_faults(fault.clone());

    let report = run(make, &cfg, pkts.clone());
    assert!(report.degraded(), "a lost half-window must degrade the run");
    assert!(report.coverage < 1.0 && report.coverage > 0.9, "{}", report.coverage);
    assert_eq!(report.quarantines(), 1, "one panic, one quarantine");

    // Conservation: delivered == covered + uncovered, exactly.
    let delivered: u64 = report.shards.iter().map(|s| s.tuples()).sum();
    let uncovered: u64 = report.shards.iter().map(|s| s.uncovered()).sum();
    assert_eq!(delivered, pkts.len() as u64);
    assert!(uncovered > 0);

    // Exactly the poisoned window is tagged.
    for w in &report.windows {
        let wid = w.window.get(0).as_u64().expect("tb window key");
        if wid == poisoned_w {
            assert!(w.degradation.degraded, "poisoned window must be tagged");
            assert!(w.degradation.coverage < 1.0);
        } else {
            assert!(!w.degradation.degraded, "window {wid} lost nothing");
            assert_eq!(w.degradation.coverage, 1.0);
        }
    }

    // Unbiasedness check, exact form: the degraded output must equal a
    // fault-free run over the surviving tuples — the merge re-thresholds
    // over surviving shards, it does not invent or lose anything else.
    let reference = run(make, &RuntimeConfig::new(SHARDS), {
        surviving_packets(&plan, &pkts, victim, poisoned_w)
    });
    assert!(!reference.degraded());
    assert_eq!(reference.windows.len(), report.windows.len());
    for (f, r) in report.windows.iter().zip(&reference.windows) {
        assert_eq!(f.window, r.window);
        assert_eq!(
            f.rows, r.rows,
            "window {:?}: degraded output must equal the fault-free run over surviving tuples",
            f.window
        );
        assert_eq!(f.stats.tuples, r.stats.tuples, "covered-tuple accounting for {:?}", f.window);
    }

    // Replayability: the same seed/plan reproduces the result to the byte.
    let replay = run(make, &cfg, pkts);
    assert_reports_byte_identical(&report, &replay, "same-seed replay");
}

/// The same contract holds for an exact (Concat-merge) query, where
/// every row is checkable against ground truth: heavy hitters with a
/// bucket wider than the stream never evicts, so surviving-shard counts
/// must match the filtered reference bit-for-bit.
#[test]
fn shard_panic_keeps_exact_queries_exact_over_survivors() {
    let make = |_| queries::heavy_hitters_query(WINDOW, 1 << 20, None);
    let plan = shard_plan(&make(0).unwrap()).expect("keyed, shard-mergeable");
    let pkts = packets();
    let victim = 11usize;
    let (at_tuple, poisoned_w) = pick_panic_point(&plan, &pkts, victim);

    let mut fault = FaultPlan::empty(7);
    fault.events.push(FaultEvent::WorkerPanic { shard: victim, at_tuple });
    let cfg = RuntimeConfig::new(SHARDS).with_faults(fault.into_shared());

    let report = run(make, &cfg, pkts.clone());
    assert!(report.degraded());
    let reference = run(make, &RuntimeConfig::new(SHARDS), {
        surviving_packets(&plan, &pkts, victim, poisoned_w)
    });
    assert_eq!(report.windows.len(), reference.windows.len());
    for (f, r) in report.windows.iter().zip(&reference.windows) {
        assert_eq!(f.window, r.window);
        assert_eq!(f.rows, r.rows, "window {:?}", f.window);
    }
}

/// Injected stalls are timing-only faults: under blocking backpressure
/// the result must be byte-identical to the fault-free run, at full
/// coverage — latency is the only casualty.
#[test]
fn worker_stalls_change_timing_not_results() {
    let make = |_| Ok(queries::total_sum_query(WINDOW));
    let pkts = research_feed(3).take_seconds(3);
    let mut fault = FaultPlan::empty(9);
    fault.events.push(FaultEvent::WorkerStall { shard: 1, at_tuple: 200, millis: 15 });
    fault.events.push(FaultEvent::WorkerStall { shard: 3, at_tuple: 500, millis: 10 });
    let cfg = RuntimeConfig::new(4).with_faults(fault.into_shared());

    let faulted = run(make, &cfg, pkts.clone());
    let clean = run(make, &RuntimeConfig::new(4), pkts);
    assert!(!faulted.degraded(), "stalls lose nothing");
    assert_eq!(faulted.coverage, 1.0);
    assert_reports_byte_identical(&faulted, &clean, "stalls vs clean");
}

/// The router half of the fault model: a seeded `panic router=0 at=N`
/// mid-window leaves the run alive with exactly one degraded window
/// (the router's unrouted remainder of that window counted as
/// `rt.router_uncovered` mass), the re-thresholded estimates equal a
/// fault-free run over the surviving tuples row-for-row, and the same
/// seed replays byte-identically. The router counts tuples in stream
/// order, so the loss is every stream position from the trip to the
/// window's end, across however many chunks that spans.
#[test]
fn router_panic_degrades_exactly_one_window_with_exact_surviving_estimates() {
    // One-second windows over an 8-second feed in 1024-tuple chunks: a
    // window spans several chunks, so the quarantine both opens
    // (mid-window trip), is carried across chunk edges, and closes
    // (routing resumes at the next boundary).
    let window = 1u64;
    let make = move |_| queries::basic_subset_sum_query(window, 400.0);
    let pkts = research_feed(0xfa).take_seconds(8);
    let config = || {
        let mut cfg = RuntimeConfig::new(SHARDS);
        cfg.batch_size = 64;
        cfg
    };
    let chunk = config().chunk_tuples();
    let window_of = |i: usize| pkts[i].time() / window;

    // Trip mid-window just past the first window boundary: a whole
    // window slice to lose, and a later window to resume into.
    let boundary = (1..pkts.len())
        .find(|&i| window_of(i) != window_of(0))
        .expect("the feed spans a window boundary");
    let trip = boundary + 2;
    let poisoned_w = window_of(trip);
    assert_eq!(poisoned_w, window_of(trip - 1), "trip lands mid-window");
    assert!(poisoned_w < window_of(pkts.len() - 1), "a later window exists to respawn into");
    let lost: Vec<usize> = (trip..pkts.len()).take_while(|&i| window_of(i) == poisoned_w).collect();
    assert!(lost.last().unwrap() / chunk > lost[0] / chunk, "the loss crosses a chunk edge");
    let at_tuple = (trip + 1) as u64; // 1-based

    let fault = FaultPlan::parse(&format!("panic router=0 at={at_tuple}"))
        .expect("router grammar parses")
        .into_shared();
    let registry = Registry::new();
    let cfg = config().with_faults(fault).with_registry(registry.clone());

    let report = run(make, &cfg, pkts.clone());
    assert!(report.degraded(), "an unrouted window slice must degrade the run");
    // The run-level loss alert: the unrouted mass fires the `rt`
    // undersample detector once, and the coverage gauge is the report's.
    let snap = registry.snapshot();
    let alerts = snap.get_labeled("op.undersampled_windows", "rt").expect("rt detector registered");
    assert_eq!(alerts.scalar(), 1.0, "router loss must alert once");
    assert_eq!(snap.value("rt.coverage"), report.coverage, "rt.coverage gauge");
    assert!(report.coverage < 1.0);
    assert_eq!(report.router_quarantines(), 1, "one router panic, one quarantine");
    assert_eq!(report.quarantines(), 0, "no worker was harmed");
    assert_eq!(report.router_uncovered(), lost.len() as u64, "loss is exactly the window slice");

    // Conservation: offered == delivered + router-uncovered, exactly.
    let delivered: u64 = report.shards.iter().map(|s| s.tuples()).sum();
    assert_eq!(delivered + report.router_uncovered(), pkts.len() as u64);

    // Exactly the poisoned window is tagged.
    for w in &report.windows {
        let wid = w.window.get(0).as_u64().expect("tb window key");
        if wid == poisoned_w {
            assert!(w.degradation.degraded, "poisoned window must be tagged");
            assert!(w.degradation.coverage < 1.0);
        } else {
            assert!(!w.degradation.degraded, "window {wid} lost nothing");
            assert_eq!(w.degradation.coverage, 1.0);
        }
    }

    // Exactness over survivors: content routing is position-free, so
    // dropping the lost slice from the input reproduces the degraded
    // run's estimates bit-for-bit.
    let surviving: Vec<Packet> =
        pkts.iter().enumerate().filter(|(i, _)| !lost.contains(i)).map(|(_, p)| *p).collect();
    let reference = run(make, &config(), surviving);
    assert!(!reference.degraded());
    assert_eq!(reference.windows.len(), report.windows.len());
    for (f, r) in report.windows.iter().zip(&reference.windows) {
        assert_eq!(f.window, r.window);
        assert_eq!(
            f.rows, r.rows,
            "window {:?}: degraded output must equal the fault-free run over surviving tuples",
            f.window
        );
        assert_eq!(f.stats.tuples, r.stats.tuples, "covered-tuple accounting for {:?}", f.window);
    }

    // Replayability: the same plan reproduces the result to the byte.
    let replay = run(make, &cfg, pkts);
    assert_reports_byte_identical(&report, &replay, "same-seed router-panic replay");
    assert_eq!(report.router_uncovered(), replay.router_uncovered(), "replayed loss mass");
}

/// Router stalls are timing-only faults, exactly like worker stalls:
/// under blocking backpressure a stalled router delays batches but loses
/// nothing, so the result is byte-identical to the fault-free run.
#[test]
fn router_stalls_change_timing_not_results() {
    let make = |_| Ok(queries::total_sum_query(WINDOW));
    let pkts = research_feed(3).take_seconds(3);
    let fault = FaultPlan::parse("stall router=0 at=50 ms=10\nstall router=0 at=100 ms=15")
        .expect("router stall grammar parses");
    let cfg = RuntimeConfig::new(4).with_faults(fault.into_shared());

    let faulted = run(make, &cfg, pkts.clone());
    let clean = run(make, &RuntimeConfig::new(4), pkts);
    assert!(!faulted.degraded(), "stalls lose nothing");
    assert_eq!(faulted.coverage, 1.0);
    assert_eq!(faulted.router_uncovered(), 0);
    assert_reports_byte_identical(&faulted, &clean, "router stalls vs clean");
}

/// The loss ledger with router faults in the mix: unrouted quarantine
/// mass is the one loss before delivery — offered == delivered +
/// router-uncovered, and delivered == covered + worker-uncovered.
#[test]
fn router_faults_keep_the_ledger_exact() {
    let plan = FaultPlan::parse("stall router=0 at=50 ms=5\npanic router=0 at=100")
        .expect("router grammar parses")
        .into_shared();
    let pkts = research_feed(11).take_seconds(4);
    let offered = pkts.len() as u64;
    let mut cfg = RuntimeConfig::new(8).with_faults(plan);
    cfg.batch_size = 64;
    let report = run(|_| Ok(queries::total_sum_query(WINDOW)), &cfg, pkts);

    let delivered: u64 = report.shards.iter().map(|s| s.tuples()).sum();
    assert_eq!(
        delivered + report.router_uncovered(),
        offered,
        "offered must equal delivered + accounted losses"
    );
    let covered: u64 = report.windows.iter().map(|w| w.stats.tuples).sum();
    let uncovered: u64 = report.shards.iter().map(|s| s.uncovered()).sum();
    assert_eq!(covered + uncovered, delivered, "delivered must equal covered + worker-uncovered");
    assert_eq!(report.router_quarantines(), 1, "router panic must be caught");
    assert!(report.router_uncovered() > 0, "quarantine mass is accounted");
}

/// The loss ledger, over every event type a seeded plan generates:
/// offered == delivered, and delivered == covered + uncovered. Exact,
/// for every seed.
#[test]
fn seeded_plans_account_for_every_tuple() {
    for seed in [1u64, 7, 13] {
        let plan = Arc::new(FaultPlan::from_seed(seed, 8));
        let pkts = plan.perturb_packets(research_feed(seed).take_seconds(4));
        let offered = pkts.len() as u64;
        let mut cfg = RuntimeConfig::new(8).with_faults(plan.clone());
        cfg.batch_size = 64;
        let report = run(|_| Ok(queries::total_sum_query(WINDOW)), &cfg, pkts);

        let delivered: u64 = report.shards.iter().map(|s| s.tuples()).sum();
        assert_eq!(delivered, offered, "seed {seed}: offered must equal delivered");
        let covered: u64 = report.windows.iter().map(|w| w.stats.tuples).sum();
        let uncovered: u64 = report.shards.iter().map(|s| s.uncovered()).sum();
        assert_eq!(
            covered + uncovered,
            delivered,
            "seed {seed}: delivered must equal covered + uncovered"
        );
        // The seeded plan always panics one shard somewhere.
        assert!(report.quarantines() >= 1, "seed {seed}: panic must be caught");
    }
}

/// Plan round-trip: `Display` output re-parses to the same plan, so a
/// plan written by `--fault-seed` replays identically via `--fault-plan`.
#[test]
fn fault_plans_round_trip_through_text() {
    for seed in [0u64, 5, 99] {
        let plan = FaultPlan::from_seed(seed, 16);
        let text = plan.to_string();
        let reparsed = FaultPlan::parse(&text).expect("round-trip parse");
        assert_eq!(plan, reparsed, "plan text:\n{text}");
    }
}

/// A fault that cannot fire is an error, not a silent no-op: `sso run`
/// exits 1 naming the target when a plan panics a shard the run lacks
/// (the runtime refuses it) or a router other than 0 (the parser does).
#[test]
fn cli_refuses_fault_targets_the_run_lacks() {
    let dir = std::env::temp_dir().join(format!("sso-fault-targets-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    for (directive, says) in [
        ("panic shard=9 at=1000", "fault plan targets shard 9, but the run has 4 shards"),
        ("panic router=3 at=1000", "line 1: no router 3"),
    ] {
        let plan = dir.join("plan.txt");
        std::fs::write(&plan, format!("{directive}\n")).expect("plan file");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sso"))
            .args(["run", "--feed", "research", "--seconds", "2", "--shards", "4"])
            .args(["--fault-plan", plan.to_str().expect("utf-8 tempdir")])
            .arg("SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/1 as tb")
            .output()
            .expect("sso runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{directive}: {stderr}");
        assert!(stderr.contains(says), "{directive}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flight recorder on the crash path: a seeded `crash at=N` run
/// with a profiler attached must leave a decodable dump on disk whose
/// lanes replay the final window's events in causal order — every
/// batch's router `route` stamp precedes the worker `process` stamp
/// that consumed it — and `sso trace DIR` must render it.
#[test]
fn seeded_crash_dumps_flight_recorder_and_trace_replays_causally() {
    use stream_sampler::profile::{
        read_dump_file, DumpReason, Profiler, ProfilerConfig, Stage, DUMP_FILE,
    };

    let dir = std::env::temp_dir().join(format!("sso-prof-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    let dump_path = dir.join(DUMP_FILE);
    let profiler =
        Profiler::new(ProfilerConfig { dump_path: Some(dump_path.clone()), ..Default::default() });

    let pkts = packets();
    // Kill the run at ~60% of the stream: several windows are fully
    // processed, so the dump holds cross-thread lineage to replay.
    let fault =
        FaultPlan::parse(&format!("crash at={}", (pkts.len() * 3) / 5)).expect("plan parses");
    let cfg =
        RuntimeConfig::new(SHARDS).with_profile(profiler.clone()).with_faults(fault.into_shared());
    let err = run_plan_sharded(
        Box::new(SelectionNode::pass_all()),
        |_| Ok(queries::total_sum_query(WINDOW)),
        &cfg,
        pkts,
    )
    .expect_err("crash fault kills the run");
    assert!(
        matches!(
            err,
            stream_sampler::gigascope::ShardedRunError::Runtime(
                stream_sampler::runtime::RuntimeError::Crashed { .. }
            )
        ),
        "got: {err}"
    );
    assert_eq!(profiler.triggered(), Some(DumpReason::Crash));
    assert!(dump_path.is_file(), "runtime writes the dump after joining workers");

    let dump = read_dump_file(&dump_path).expect("dump decodes");
    assert_eq!(dump.reason, DumpReason::Crash);
    assert!(dump.event_count() > 0, "lanes captured events");
    // Within a lane, publish order is record order: stamps are monotone.
    for lane in &dump.lanes {
        for pair in lane.events.windows(2) {
            assert!(
                pair[0].t_ns <= pair[1].t_ns,
                "lane {:?}/{} out of causal order",
                lane.kind,
                lane.index
            );
        }
    }
    // Across lanes: for every batch of the final window, the router's
    // `route` stamp (push start) precedes the worker's `process` stamp
    // (batch start) — the hand-off is causal, not coincidental.
    let events = || dump.lanes.iter().flat_map(|l| l.events.iter());
    let final_w = events()
        .filter(|e| e.stage == Stage::Process)
        .map(|e| e.window)
        .max()
        .expect("process events recorded");
    let mut checked = 0;
    for p in events().filter(|e| e.stage == Stage::Process && e.window == final_w) {
        if let Some(r) =
            events().find(|e| e.stage == Stage::Route && e.shard == p.shard && e.batch == p.batch)
        {
            assert!(
                r.t_ns <= p.t_ns,
                "batch {} shard {}: route at {} after process at {}",
                p.batch,
                p.shard,
                r.t_ns,
                p.t_ns
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "final window {final_w} has route->process pairs to check");

    // `sso trace DIR` resolves the dump inside the directory and
    // renders the timeline.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sso"))
        .args(["trace", dir.to_str().expect("utf-8 tempdir")])
        .output()
        .expect("sso trace runs");
    assert!(out.status.success(), "sso trace failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("timeline is utf-8");
    assert!(text.contains("reason=crash"), "timeline names the trigger:\n{text}");
    assert!(text.contains("process"), "timeline shows worker stages");
    let _ = std::fs::remove_dir_all(&dir);
}
