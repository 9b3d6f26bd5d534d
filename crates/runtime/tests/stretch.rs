//! The sharded worker hands its operator whole stretches of a batch, one
//! `process_batch` call each. Where a stretch ends — at a fault trip, at
//! a tuple whose operator call panics, at the end of a resume prefix —
//! must not show in the output: every run here is compared, window for
//! window and count for count, with the same run at one tuple per batch,
//! where every stretch is one tuple long.

use std::sync::Arc;

use sso_core::{queries, shard_plan, Expr, OpError, OperatorSpec};
use sso_faults::{FaultEvent, FaultPlan};
use sso_runtime::{run_sharded, DurabilityConfig, RuntimeConfig, RuntimeError};
use sso_types::{Packet, Protocol, Tuple, Value};

/// Tuples per worker batch in the runs under test. Two shards deal the
/// key-free query round-robin and a chunk is 16 batches, so every batch
/// a shard receives is full: shard tuple `k` (1-based) sits at position
/// `(k - 1) % BATCH` of its batch.
const BATCH: usize = 32;

/// `n` tuples, 1000 to the second: global position `p` has
/// `uts = p * 1 ms + 1`.
fn feed(n: u64) -> Vec<Tuple> {
    feed_at(n, 1000)
}

/// `n` tuples, `per_sec` to the second.
fn feed_at(n: u64, per_sec: u64) -> Vec<Tuple> {
    (0..n)
        .map(|p| {
            Packet {
                uts: p * (1_000_000_000 / per_sec) + 1,
                src_ip: (p % 16) as u32,
                dest_ip: 9,
                src_port: 1000,
                dest_port: 80,
                proto: Protocol::Tcp,
                len: 100 + (p % 7) as u32 * 100,
            }
            .to_tuple()
        })
        .collect()
}

/// The global position of shard `shard`'s `k`-th tuple (1-based) in a
/// two-shard round-robin run.
fn position(shard: u64, k: u64) -> u64 {
    2 * (k - 1) + shard
}

/// Everything a run reports that a stretch boundary could move: each
/// merged window in full, and per shard its delivered, closed, lost and
/// quarantine counts.
#[derive(Debug, PartialEq)]
struct Outcome {
    windows: Vec<String>,
    shards: Vec<(u64, u64, u64, u64)>,
}

fn run(
    batch: usize,
    cfg: RuntimeConfig,
    make: impl Fn(usize) -> Result<OperatorSpec, OpError> + Sync,
    tuples: &[Tuple],
) -> Result<Outcome, RuntimeError> {
    let plan = shard_plan(&queries::total_sum_query(1)).unwrap();
    let mut cfg = cfg;
    cfg.batch_size = batch;
    let report = run_sharded(&plan, make, &cfg, tuples.to_vec())?;
    // Conservation: every delivered tuple is in a merged window or in
    // the uncovered ledger.
    let n = tuples.len() as u64;
    let delivered: u64 = report.shards.iter().map(|s| s.tuples()).sum();
    let uncovered: u64 = report.shards.iter().map(|s| s.uncovered()).sum();
    let covered: u64 = report.windows.iter().map(|w| w.stats.tuples).sum();
    assert_eq!(delivered, n, "batch {batch}: every tuple delivered");
    assert_eq!(covered + uncovered, n, "batch {batch}: coverage accounting must be exact");
    Ok(Outcome {
        windows: report.windows.iter().map(|w| format!("{w:?}")).collect(),
        shards: report
            .shards
            .iter()
            .map(|s| (s.tuples(), s.windows(), s.uncovered(), s.quarantines()))
            .collect(),
    })
}

fn sum_query(_: usize) -> Result<OperatorSpec, OpError> {
    Ok(queries::total_sum_query(1))
}

fn assert_batch_invariant(
    what: &str,
    cfg: impl Fn() -> RuntimeConfig,
    make: impl Fn(usize) -> Result<OperatorSpec, OpError> + Sync + Copy,
    tuples: &[Tuple],
) -> Outcome {
    let one = run(1, cfg(), make, tuples).unwrap();
    let batched = run(BATCH, cfg(), make, tuples).unwrap();
    assert_eq!(batched, one, "{what}: batch of {BATCH} against batch of 1");
    batched
}

#[test]
fn fault_trips_at_batch_edges_match_one_tuple_batches() {
    let tuples = feed(3000);
    // Shard 1 holds 500 tuples of each window. Within a window, where a
    // panic strikes moves nothing (the rest of the window is discarded
    // either way), so the mid-batch trips sit on a window edge: tripped
    // late, they would charge the wrong window.
    let b = BATCH as u64;
    let (first, last) = (10 * b + 1, 20 * b);
    let (window_end, window_start) = (500, 501);
    assert!(![0, b - 1].contains(&((window_end - 1) % b)), "window edges are mid-batch");
    let cases: [(&str, &[u64]); 5] = [
        ("first tuple of a batch", &[first]),
        ("last tuple of a batch", &[last]),
        ("mid-batch, last tuple of a window", &[window_end]),
        ("mid-batch, first tuple of a window", &[window_start]),
        // The later trips fall due while the shard is quarantined for
        // an earlier one's window, and fire at its first live tuple.
        ("all four", &[first, window_end, window_start, last]),
    ];
    for (what, at) in cases {
        let mut plan = FaultPlan::empty(3);
        for &at_tuple in at {
            plan.events.push(FaultEvent::WorkerPanic { shard: 1, at_tuple });
        }
        let plan = plan.into_shared();
        let cfg = || RuntimeConfig::new(2).with_faults(Arc::clone(&plan));
        let out = assert_batch_invariant(what, cfg, sum_query, &tuples);
        assert!(out.shards[1].3 >= 1, "{what}: shard 1 was quarantined");
        assert_eq!(out.shards[0].3, 0, "{what}: shard 0 ran clean");
    }
}

#[test]
fn operator_panics_are_charged_to_the_tuple_that_raised_them() {
    let tuples = feed(4000);
    // One panic in each of shard 1's four windows (500 tuples each):
    // mid-batch in a batch that also holds the next window's first
    // tuples, which must go to that window and not to the poisoned one;
    // at the first tuple of window 1, mid-batch, just after the respawn;
    // at the first tuple of a batch; and at the last tuple of a batch.
    let b = BATCH as u64;
    let panics: Vec<u64> = [490, 501, 33 * b + 1, 48 * b]
        .into_iter()
        .map(|k| position(1, k) * 1_000_000 + 1)
        .collect();
    let panics: Arc<[u64]> = panics.into();
    let make = |_: usize| {
        let mut spec = queries::total_sum_query(1);
        let panics = Arc::clone(&panics);
        spec.where_clause = Some(Expr::Scalar {
            name: "PANIC_AT",
            fun: Arc::new(move |args: &[Value]| {
                if matches!(args[0], Value::U64(uts) if panics.contains(&uts)) {
                    panic!("operator panic at uts {:?}", args[0]);
                }
                Ok(Value::Bool(true))
            }),
            args: vec![Expr::Column(1)],
        });
        Ok(spec)
    };
    let out = assert_batch_invariant("operator panics", || RuntimeConfig::new(2), make, &tuples);
    assert_eq!(out.shards[1].3, 4, "shard 1 quarantined at each panic: {:?}", out.shards);
}

#[test]
fn resume_watermark_ending_mid_batch_matches_one_tuple_batches() {
    // 48 tuples a batch. At 1000 tuples a second, a shard's 1000 tuples
    // of the two recovered windows end 40 tuples into its 21st batch, so
    // the resume prefix ends mid-batch and the first live stretch starts
    // there. At 10 a second, a shard holds 5 tuples of each window, so
    // every batch closes nine or ten windows, each recorded durably with
    // its own boundary snapshot.
    const BATCH: usize = 48;
    for per_sec in [1000, 10] {
        let tuples = feed_at(3000, per_sec);
        let plain = run(BATCH, RuntimeConfig::new(2), sum_query, &tuples).unwrap();
        let mut resumed = Vec::new();
        for batch in [1, BATCH] {
            let dir = std::env::temp_dir()
                .join(format!("sso-stretch-resume-{per_sec}-{batch}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut crash = FaultPlan::empty(7);
            crash.events.push(FaultEvent::Crash { at_tuple: 2500 });
            let cfg = RuntimeConfig::new(2)
                .with_faults(crash.into_shared())
                .with_durability(DurabilityConfig::new(&dir));
            let err = run(batch, cfg, sum_query, &tuples).unwrap_err();
            assert!(matches!(err, RuntimeError::Crashed { at_tuple: 2500 }), "{err}");
            let mut d = DurabilityConfig::new(&dir);
            d.resume = true;
            let out = run(batch, RuntimeConfig::new(2).with_durability(d), sum_query, &tuples);
            let _ = std::fs::remove_dir_all(&dir);
            resumed.push(out.unwrap());
        }
        assert_eq!(resumed[1], resumed[0], "{per_sec}/s: batch of {BATCH} against batch of 1");
        assert_eq!(resumed[1].windows, plain.windows, "{per_sec}/s: against the fault-free run");
    }
}
