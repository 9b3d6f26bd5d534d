//! Crash-recovery acceptance for the durable store (`sso-store`): a
//! 16-shard run killed mid-stream by an injected `crash@N` fault,
//! restarted against the same store over the same deterministic input,
//! must produce per-window results byte-identical to a fault-free run —
//! for the paper's subset-sum, reservoir, and lossy-counting samplers.
//! A worker panic in an early window, ahead of the crash, is a loss the
//! store keeps: the resumed run equals the uncrashed faulted run window
//! for window, its coverage and degraded tags included.
//! A second resume replays every window straight from the finalized
//! store, still byte-identical. Plus the spill pager: a huge-cardinality
//! lossy-counting query completes under a `--state-budget` well below
//! its certified in-RAM ceiling, with observed peak resident state
//! under the per-shard budget.

use std::path::PathBuf;

use stream_sampler::gigascope::ShardedRunError;
use stream_sampler::operator::{OpError, OperatorSpec, WindowOutput};
use stream_sampler::prelude::*;
use stream_sampler::runtime::{DurabilityConfig, RuntimeError};

const WINDOW: u64 = 2;
const SHARDS: usize = 16;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sso-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn packets() -> Vec<Packet> {
    research_feed(0xd1).take_seconds(8)
}

fn run<F>(make: F, cfg: &RuntimeConfig, pkts: Vec<Packet>) -> ShardedRunReport
where
    F: Fn(usize) -> Result<OperatorSpec, OpError> + Sync,
{
    run_plan_sharded(Box::new(SelectionNode::pass_all()), make, cfg, pkts).expect("run completes")
}

fn assert_windows_equal(a: &[WindowOutput], b: &[WindowOutput], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: window count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.window, y.window, "{what}: window key");
        assert_eq!(x.rows, y.rows, "{what}: rows for {:?}", x.window);
        assert_eq!(x.coverage(), y.coverage(), "{what}: coverage of {:?}", x.window);
        assert_eq!(x.degraded(), y.degraded(), "{what}: degraded tag of {:?}", x.window);
    }
}

/// The shared acceptance harness: reference run, crashed durable run,
/// resumed run compared window-for-window, and a second resume served
/// entirely from the finalized store. `panic`, when given, is a worker
/// fault both the reference and the crashed run take ahead of the
/// crash; without it the reference is fault-free.
fn crash_then_recover<F>(make: F, tag: &str, panic: Option<FaultEvent>)
where
    F: Fn(usize) -> Result<OperatorSpec, OpError> + Sync,
{
    let pkts = packets();
    let mut faulted = FaultPlan::empty(7);
    faulted.events.extend(panic);
    let reference_cfg = RuntimeConfig::new(SHARDS).with_faults(faulted.clone().into_shared());
    let reference = run(&make, &reference_cfg, pkts.clone());
    assert!(reference.windows.len() >= 3, "{tag}: need several windows to lose one");
    let degraded: Vec<bool> = reference.windows.iter().map(|w| w.degraded()).collect();
    let want: Vec<bool> = (0..degraded.len()).map(|i| i == 0 && panic.is_some()).collect();
    assert_eq!(degraded, want, "{tag}: only a panic degrades, and only window 0");

    // Kill the run at ~60% of the stream: past the first checkpoint,
    // mid-way through a later window.
    let dir = tmpdir(tag);
    let at_tuple = (pkts.len() as u64 * 3) / 5;
    let mut fault = faulted;
    fault.events.push(FaultEvent::Crash { at_tuple });
    let mut durability = DurabilityConfig::new(&dir);
    durability.checkpoint_every = 2;
    let cfg =
        RuntimeConfig::new(SHARDS).with_durability(durability).with_faults(fault.into_shared());
    let err = run_plan_sharded(Box::new(SelectionNode::pass_all()), &make, &cfg, pkts.clone())
        .expect_err("the injected crash must kill the run");
    assert!(
        matches!(
            err,
            ShardedRunError::Runtime(RuntimeError::Crashed { at_tuple: t }) if t == at_tuple
        ),
        "{tag}: unexpected failure: {err}"
    );

    // Restart against the same store over the same deterministic
    // input and no faults: recorded windows are served back with the
    // loss they recorded, the crash window is recomputed, and a
    // fault-free reference leaves nothing degraded.
    let resume = |what: &str| {
        let mut durability = DurabilityConfig::new(&dir);
        durability.checkpoint_every = 2;
        durability.resume = true;
        let cfg = RuntimeConfig::new(SHARDS).with_durability(durability);
        let report = run(&make, &cfg, pkts.clone());
        if panic.is_none() {
            assert_eq!(report.coverage, 1.0, "{tag}: {what} must not be a degraded run");
        }
        report
    };
    let recovered = resume("recovery");
    assert_windows_equal(
        &reference.windows,
        &recovered.windows,
        &format!("{tag}: recovery vs reference"),
    );
    assert_eq!(recovered.coverage, reference.coverage, "{tag}: recovery's run coverage");

    // Same-seed replay: the finalized store now holds every window, so
    // a second resume serves them all from disk — still byte-identical.
    let replayed = resume("replay");
    assert_windows_equal(
        &recovered.windows,
        &replayed.windows,
        &format!("{tag}: replay vs recovery"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subset_sum_crash_recovery_matches_fault_free() {
    crash_then_recover(|_| queries::basic_subset_sum_query(WINDOW, 400.0), "subset-sum", None);
}

/// Shard 0 panics at its 300th tuple, in window 0, and loses that
/// window's tuples; the crash comes windows later. The resumed run
/// serves window 0 from the store as degraded as the faulted run left
/// it.
#[test]
fn subset_sum_crash_recovery_keeps_a_worker_panics_loss() {
    let panic = FaultEvent::WorkerPanic { shard: 0, at_tuple: 300 };
    let make = |_| queries::basic_subset_sum_query(WINDOW, 400.0);
    crash_then_recover(make, "subset-sum-panic", Some(panic));
}

#[test]
fn reservoir_crash_recovery_matches_fault_free() {
    crash_then_recover(
        |_| {
            queries::reservoir_query(
                WINDOW,
                ReservoirOpConfig { n: 40, seed: 11, ..Default::default() },
            )
        },
        "reservoir",
        None,
    );
}

#[test]
fn lossy_counting_crash_recovery_matches_fault_free() {
    crash_then_recover(|_| queries::heavy_hitters_query(WINDOW, 200, None), "lossy-counting", None);
}

/// The CLI recover path: a durable run killed mid-stream by `crash
/// at=N` leaves a MANIFEST that records the run's shape and nothing
/// about routing — the partition is a function of the tuples and the
/// shard count — and `sso recover DIR` resumes with window output
/// byte-identical to a fault-free run of the same query, also from a
/// manifest that still carries the `routers` and `router_cursors` keys
/// older builds wrote.
#[test]
fn cli_recover_ignores_stale_router_keys() {
    let sso = env!("CARGO_BIN_EXE_sso");
    let dir = tmpdir("cli-routers");
    let seed = 9u64;
    let seconds = 4u64;
    let query = "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/2 as tb, srcIP";
    let n = research_feed(seed).take_seconds(seconds).len() as u64;
    let at_tuple = (n * 3) / 5;
    let plan_path =
        std::env::temp_dir().join(format!("sso-recovery-cli-routers-{}.fault", std::process::id()));
    std::fs::write(&plan_path, format!("crash at={at_tuple}\n")).expect("plan file");
    let base = |extra: &[&str]| {
        let mut cmd = std::process::Command::new(sso);
        cmd.args(["run", "--feed", "research"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--shards", "4", "--json"])
            .args(extra)
            .arg(query);
        cmd.output().expect("sso runs")
    };

    // The fault-free reference: same query, same shards, no store.
    let reference = base(&[]);
    assert!(reference.status.success(), "{}", String::from_utf8_lossy(&reference.stderr));

    // The durable run dies at the injected crash, after the MANIFEST
    // (written before execution) has recorded the run's shape.
    let dir_s = dir.to_str().expect("utf-8 tempdir");
    let crashed = base(&["--durable", dir_s, "--fault-plan", plan_path.to_str().unwrap()]);
    assert!(!crashed.status.success(), "the injected crash must kill the run");
    let stderr = String::from_utf8_lossy(&crashed.stderr);
    assert!(stderr.contains("sso recover"), "crash output points at recovery:\n{stderr}");

    // Schema pin: the run shape is recorded, the routing is not.
    let mut manifest = stream_sampler::store::read_manifest(&dir).expect("MANIFEST survives");
    let get = |k: &str| manifest.iter().find(|(key, _)| key == k).map(|(_, v)| v.as_str());
    assert_eq!(get("shards"), Some("4"));
    assert_eq!(get("routers"), None, "the run has one router, nothing to pin");
    assert_eq!(get("router_cursors"), None, "the partition is a function of the tuples");

    // Older builds' manifests carried a router-lane count and per-lane
    // segment cursors; such a store must still recover, the keys
    // ignored.
    manifest.push(("routers".into(), "2".into()));
    manifest.push(("router_cursors".into(), format!("0,{}", n / 2)));
    stream_sampler::store::write_manifest(&dir, &manifest).expect("rewrite MANIFEST");

    // An older build's store kept checkpoint files its log chained
    // onto; such a directory is refused by name, not read as empty.
    let old_ckpt = dir.join("shard-2.ckpt");
    std::fs::write(&old_ckpt, b"SSOSTOR1").expect("plant an old-layout file");
    let refused = std::process::Command::new(sso)
        .args(["recover", "--json", dir_s])
        .output()
        .expect("sso recover runs");
    assert!(!refused.status.success(), "an old-layout store must not recover");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("shard-2.ckpt") && stderr.contains("older store layout"), "{stderr}");
    std::fs::remove_file(&old_ckpt).expect("remove the planted file");

    // Recovery converges on the fault-free output, byte for byte on the
    // machine-readable channel.
    let recovered = std::process::Command::new(sso)
        .args(["recover", "--json", dir_s])
        .output()
        .expect("sso recover runs");
    assert!(recovered.status.success(), "{}", String::from_utf8_lossy(&recovered.stderr));
    assert_eq!(
        String::from_utf8_lossy(&recovered.stdout),
        String::from_utf8_lossy(&reference.stdout),
        "recovered windows must equal the fault-free run's"
    );
    let _ = std::fs::remove_file(&plan_path);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `sso recover --metrics - DIR` reads the bare `-` as stdout, as
/// `sso run --metrics - QUERY` does: it prints what `--metrics DIR`
/// prints, the same windows and the same metrics, whose timings alone
/// may differ from run to run.
#[test]
fn cli_recover_reads_a_bare_dash_after_metrics_as_stdout() {
    let sso = env!("CARGO_BIN_EXE_sso");
    let dir = tmpdir("cli-metrics-dash");
    let dir_s = dir.to_str().expect("utf-8 tempdir");
    let query = "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 as tb, srcIP";
    let run = std::process::Command::new(sso)
        .args(["run", "--seconds", "2", "--shards", "2", "--durable", dir_s, query])
        .output()
        .expect("sso runs");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));

    // Each stdout line, a metrics document reduced to its metrics'
    // names and labels.
    let recover = |args: &[&str]| -> Vec<String> {
        let out = std::process::Command::new(sso)
            .arg("recover")
            .args(args)
            .output()
            .expect("sso recover runs");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("UTF-8");
        let line = |l: &str| match serde_json::from_str(l) {
            Ok(doc) => {
                let snapshots = doc["snapshots"].as_array().expect("a metrics document");
                let metrics = snapshots.iter().flat_map(|s| s["metrics"].as_array().unwrap());
                let names = metrics.map(|m| format!("{:?}{{{:?}}}", m["metric"], m["label"]));
                names.collect::<Vec<_>>().join(" ")
            }
            Err(_) => l.to_string(),
        };
        stdout.lines().map(line).collect()
    };
    let dash = recover(&["--metrics", "-", dir_s]);
    assert!(dash.iter().any(|l| l.contains("rt.tuples")), "no metrics printed");
    assert!(dash.iter().any(|l| l.starts_with("== window")), "no windows printed");
    assert_eq!(dash, recover(&["--metrics", dir_s]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The spill pager acceptance: a lossy-counting query whose certified
/// in-RAM ceiling is megabytes completes under a state budget of three
/// pages per shard, pages cold groups through the spill file, and never
/// holds more resident state than the budget allows — with output
/// byte-identical to the unconstrained run.
#[test]
fn heavy_hitter_completes_under_budget_below_certified_ceiling() {
    use stream_sampler::analysis::{audit_file, AuditOptions};

    // A huge bucket width keeps lossy counting from pruning groups
    // inside the window, so live state genuinely approaches the
    // certified ceiling instead of being cleaned down under the budget.
    let text = "SELECT tb, srcIP, destIP, sum(len), count(*) FROM PKT \
                GROUP BY time/4 as tb, srcIP, destIP \
                CLEANING WHEN local_count(1048576) = TRUE \
                CLEANING BY count(*) + first(current_bucket()) > current_bucket()";
    let shards = 4usize;
    let page = stream_sampler::operator::snapshot::PAGE_BYTES as u64;

    // The static audit certifies the in-RAM ceiling; the budget we run
    // under must genuinely undercut it.
    let out = audit_file(text, &AuditOptions { shards, ..AuditOptions::default() });
    let certified = out.report.total_state_bytes().finite().expect("certified finite ceiling");
    let budget = 3 * page * shards as u64;
    assert!(budget < certified, "budget {budget} must undercut the certified ceiling {certified}");
    // And the certificate already prices the spill file for it.
    let durable = out.report.durable();
    assert_eq!(durable.spill_pages.finite(), Some(certified.div_ceil(page)));

    let schema = Packet::schema();
    let config = PlannerConfig::standard();
    let parsed = parse_query(text).expect("example parses");
    let make = |_shard: usize| {
        stream_sampler::query::plan(&parsed, &schema, &config)
            .map_err(|e| OpError::InvalidSpec(e.to_string()))
    };
    let pkts = research_feed(0xbeef).take_seconds(12);

    let plain = run(make, &RuntimeConfig::new(shards), pkts.clone());

    let dir = tmpdir("spill");
    let registry = Registry::new();
    let mut durability = DurabilityConfig::new(&dir);
    durability.state_budget = Some(budget);
    let cfg =
        RuntimeConfig::new(shards).with_registry(registry.clone()).with_durability(durability);
    let spilled = run(make, &cfg, pkts);
    assert_windows_equal(&plain.windows, &spilled.windows, "spill vs unconstrained");

    let snap = registry.snapshot();
    let per_shard = budget / shards as u64;
    let peaks: Vec<f64> = snap
        .metrics
        .iter()
        .filter(|m| m.name == "store.peak_resident_bytes")
        .map(|m| m.scalar())
        .collect();
    assert_eq!(peaks.len(), shards, "one peak gauge per shard");
    for p in &peaks {
        assert!(*p > 0.0, "peak resident state was recorded");
        assert!(*p <= per_shard as f64, "peak {p} exceeds the per-shard budget {per_shard}");
    }
    let faults: f64 =
        snap.metrics.iter().filter(|m| m.name == "store.page_faults").map(|m| m.scalar()).sum();
    assert!(faults > 0.0, "a budget this tight must fault pages back in");
    let _ = std::fs::remove_dir_all(&dir);
}
