//! Integration tests for the telemetry subsystem: the under-sampling
//! detector replaying the paper's bursty-load pathology, and the
//! self-monitoring meta-stream (a sampling query over the operator's
//! own telemetry tuples).

use stream_sampler::obs::{snapshot_tuples, Registry, Snapshot};
use stream_sampler::operator::libs::subset_sum::SubsetSumOpConfig;
use stream_sampler::operator::{queries, OperatorMetrics};
use stream_sampler::prelude::*;

/// Run the paper's dynamic subset-sum query over the burst feed with
/// the given relaxation factor, windows aligned to the burst
/// half-period, and return (undersampled windows fired, snapshots).
fn run_burst(relax_factor: f64) -> (u64, Vec<Snapshot>) {
    let pkts = stream_sampler::netgen::burst_feed(11).take_seconds(60);
    let cfg = SubsetSumOpConfig { target: 500, initial_z: 1.0, relax_factor, ..Default::default() };
    let spec = queries::subset_sum_query(10, cfg, false).unwrap();
    let mut op = SamplingOperator::new(spec).unwrap();
    let registry = Registry::new();
    op.set_metrics(OperatorMetrics::register(&registry, ""));
    let mut snapshots = Vec::new();
    for p in &pkts {
        if op.process(&p.to_tuple()).unwrap().is_some() {
            snapshots.push(registry.snapshot());
        }
    }
    op.finish().unwrap();
    snapshots.push(registry.snapshot());
    let fired = snapshots.last().unwrap().value("op.undersampled_windows") as u64;
    (fired, snapshots)
}

/// §7.1: a threshold carried strictly (`f = 1`) out of a busy window is
/// ~50× too high for the quiet window that follows, so the quiet
/// window's achieved sample collapses and the detector fires; the
/// relaxed `f = 10` carry-over recovers within the window and stays
/// quiet.
#[test]
fn undersampling_detector_fires_for_strict_carry_over_only() {
    let (strict_fired, _) = run_burst(1.0);
    let (relaxed_fired, _) = run_burst(10.0);
    assert!(
        strict_fired >= 1,
        "strict carry-over should under-sample at least one quiet window, fired {strict_fired}"
    );
    assert_eq!(relaxed_fired, 0, "relaxed f=10 carry-over should keep every window sampled");
}

/// The detector's registry outputs carry the paper's diagnostic signals:
/// the threshold trajectory z(t) and achieved-vs-target sample sizes.
#[test]
fn telemetry_snapshots_expose_threshold_trajectory() {
    let (_, snapshots) = run_burst(1.0);
    assert!(snapshots.len() >= 4, "one snapshot per closed window plus final");
    let thresholds: Vec<f64> = snapshots.iter().map(|s| s.value("op.threshold_z")).collect();
    assert!(
        thresholds.iter().any(|&z| z > 1.0),
        "busy windows must push the threshold up: {thresholds:?}"
    );
    let last = snapshots.last().unwrap();
    assert!(last.value("op.sample_target") > 0.0);
    assert!(last.value("op.windows") >= 5.0);
    assert!(last.value("op.tuples") > 100_000.0, "burst feed offers >100k tuples");
}

/// The on-theme acceptance path: snapshots rendered as METRICS tuples
/// are fed back through a *sampling operator* — the DSMS querying its
/// own telemetry, as Gigascope monitored Gigascope.
#[test]
fn meta_stream_query_runs_end_to_end() {
    let (_, snapshots) = run_burst(10.0);
    let tuples: Vec<Tuple> = snapshots.iter().flat_map(snapshot_tuples).collect();
    assert!(!tuples.is_empty());

    let mut meta = compile(
        "SELECT sb, metric, sum(value), count(*) FROM METRICS \
         GROUP BY seq/2 as sb, metric",
        &metrics_schema(),
        &PlannerConfig::standard(),
    )
    .unwrap();
    let windows = meta.run(tuples.iter()).unwrap();
    assert!(!windows.is_empty(), "meta query must close at least one window");

    // Every snapshot carries the same metric set, so each meta window
    // groups by metric name; the op.tuples series must appear and its
    // per-window sums must be positive and non-decreasing over time
    // (counters are cumulative).
    let mut tuple_sums = Vec::new();
    for w in &windows {
        for row in &w.rows {
            if row.get(1).as_str() == Ok("op.tuples") {
                tuple_sums.push(row.get(2).as_f64().unwrap());
            }
        }
    }
    assert!(!tuple_sums.is_empty(), "op.tuples series missing from meta output");
    assert!(tuple_sums.windows(2).all(|p| p[1] >= p[0]), "cumulative counter: {tuple_sums:?}");
}

/// Satellite of the fault-tolerance PR: per-shard runtime health —
/// drops, stalls, quarantines, coverage — flows through the same
/// METRICS meta-stream, labeled `shard=N`, so a meta query can watch
/// shard failures the way it watches threshold trajectories.
#[test]
fn per_shard_fault_accounting_reaches_the_metrics_stream() {
    use stream_sampler::operator::{queries, shard_plan};
    use stream_sampler::runtime::{run_sharded, RuntimeConfig};

    let registry = Registry::new();
    let spec = queries::total_sum_query(1);
    let plan = shard_plan(&spec).unwrap();
    // One injected panic: shard 2 quarantines one window.
    let mut fault = stream_sampler::faults::FaultPlan::empty(3);
    fault.events.push(stream_sampler::faults::FaultEvent::WorkerPanic { shard: 2, at_tuple: 500 });
    let cfg =
        RuntimeConfig::new(4).with_registry(registry.clone()).with_faults(fault.into_shared());
    let pkts = stream_sampler::netgen::research_feed(11).take_seconds(3);
    let tuples: Vec<Tuple> = pkts.iter().map(|p| p.to_tuple()).collect();
    let report = run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, tuples).unwrap();
    assert!(report.degraded());

    let snap = registry.snapshot();
    // Every shard publishes its own labeled series.
    for shard in 0..4 {
        let label = format!("shard={shard}");
        for name in ["rt.tuples", "rt.stalls", "rt.quarantines", "rt.uncovered"] {
            assert!(
                snap.metrics.iter().any(|m| m.name == name && m.label == label),
                "missing {name}{{{label}}} in snapshot"
            );
        }
    }
    // The quarantine landed on the injected shard, and the registry's
    // labeled cells agree with the report exactly.
    let quarantined: f64 = snap
        .metrics
        .iter()
        .filter(|m| m.name == "rt.quarantines" && m.label == "shard=2")
        .map(|m| m.scalar())
        .sum();
    assert_eq!(quarantined, 1.0);
    let cov = snap.metrics.iter().find(|m| m.name == "rt.coverage").expect("coverage gauge");
    assert!((cov.scalar() - report.coverage).abs() < 1e-12);

    // And the meta-stream carries it: group the snapshot's tuples by
    // (metric, label) and find the per-shard uncovered series.
    let tuples: Vec<Tuple> = snapshot_tuples(&snap);
    let mut meta = compile(
        "SELECT sb, metric, label, sum(value) FROM METRICS \
         GROUP BY seq/1 as sb, metric, label",
        &metrics_schema(),
        &PlannerConfig::standard(),
    )
    .unwrap();
    let windows = meta.run(tuples.iter()).unwrap();
    let mut uncovered_rows = 0;
    for w in &windows {
        for row in &w.rows {
            if row.get(1).as_str() == Ok("rt.uncovered")
                && row.get(2).as_str().map(|l| l.starts_with("shard=")).unwrap_or(false)
            {
                uncovered_rows += 1;
            }
        }
    }
    assert_eq!(uncovered_rows, 4, "one labeled uncovered series per shard");
}
