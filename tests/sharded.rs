//! Sharded-runtime determinism: every shard-mergeable example query is
//! run through `run_plan_sharded` at 1, 2, and 8 shards over a seeded
//! feed. Exact queries (counts, sums, KMV signatures) must reproduce the
//! single-instance output bit-for-bit at every shard count; sampled
//! queries (dynamic subset-sum, reservoir) must be run-to-run
//! reproducible at a fixed seed and statistically sound.

use std::cmp::Ordering;

use stream_sampler::prelude::*;

const SECONDS: u64 = 6;
const WINDOW: u64 = 2;
const FEED_SEED: u64 = 0xd5;

fn packets() -> Vec<Packet> {
    research_feed(FEED_SEED).take_seconds(SECONDS)
}

/// Single-instance reference over an explicit packet list (see
/// [`reference`] for the canonical ordering).
fn reference_for(spec: OperatorSpec, pkts: &[Packet]) -> Vec<WindowOutput> {
    let tuples: Vec<Tuple> = pkts.iter().map(|p| p.to_tuple()).collect();
    let mut windows =
        SamplingOperator::new(spec).expect("spec").run(tuples.iter()).expect("single run");
    for w in &mut windows {
        w.rows.sort_by(tuple_cmp);
    }
    windows
}

fn sharded_for<F>(make: F, shards: usize, pkts: &[Packet]) -> ShardedRunReport
where
    F: Fn(usize) -> Result<OperatorSpec, stream_sampler::operator::OpError> + Sync,
{
    run_plan_sharded(
        Box::new(SelectionNode::pass_all()),
        make,
        &RuntimeConfig::new(shards),
        pkts.to_vec(),
    )
    .expect("sharded run")
}

/// Single-instance reference run, rows put into the merge's canonical
/// order (the operator emits rows in group-creation order; the sharded
/// merge sorts them by value).
fn reference(spec: OperatorSpec) -> Vec<WindowOutput> {
    let tuples: Vec<Tuple> = packets().iter().map(|p| p.to_tuple()).collect();
    let mut windows =
        SamplingOperator::new(spec).expect("spec").run(tuples.iter()).expect("single run");
    for w in &mut windows {
        w.rows.sort_by(tuple_cmp);
    }
    windows
}

fn tuple_cmp(a: &Tuple, b: &Tuple) -> Ordering {
    for (x, y) in a.values().iter().zip(b.values()) {
        match x.compare(y).unwrap_or(Ordering::Equal) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

fn sharded<F>(make: F, shards: usize) -> ShardedRunReport
where
    F: Fn(usize) -> Result<OperatorSpec, stream_sampler::operator::OpError> + Sync,
{
    run_plan_sharded(
        Box::new(SelectionNode::pass_all()),
        make,
        &RuntimeConfig::new(shards),
        packets(),
    )
    .expect("sharded run")
}

/// The operator spec the planner makes of a query over `PKT`.
fn planned(text: &str) -> Result<OperatorSpec, stream_sampler::operator::OpError> {
    let schema = stream_sampler::query::base_stream_schema("PKT").unwrap();
    let config = stream_sampler::query::PlannerConfig::standard();
    let q = stream_sampler::query::parse_query(text).unwrap();
    stream_sampler::query::plan(&q, &schema, &config).map_err(|e| match e {
        stream_sampler::query::QueryError::Plan(op) => op,
        other => panic!("unexpected: {other}"),
    })
}

fn assert_windows_equal(single: &[WindowOutput], sharded: &[WindowOutput], what: &str) {
    assert_eq!(single.len(), sharded.len(), "{what}: window count");
    for (a, b) in single.iter().zip(sharded) {
        assert_eq!(a.window, b.window, "{what}: window key");
        assert_eq!(a.rows, b.rows, "{what}: rows for window {:?}", a.window);
    }
}

#[test]
fn exact_sums_and_counts_do_not_drift_at_any_shard_count() {
    let single = reference(queries::total_sum_query(WINDOW));
    for shards in [1, 2, 8] {
        let report = sharded(|_| Ok(queries::total_sum_query(WINDOW)), shards);
        assert_windows_equal(&single, &report.windows, &format!("total_sum x{shards}"));
        assert_eq!(
            report.shards.iter().map(|s| s.tuples()).sum::<u64>(),
            packets().len() as u64,
            "every tuple must reach a shard"
        );
    }
}

/// A `sum` whose shards' partial sums differ in sign: the merge adds a
/// `U64` and an `I64` partial as the operator's `sum` does, to the same
/// exact integer of the same kind — not to an `F64`.
#[test]
fn sums_of_opposite_sign_on_two_shards_merge_to_the_inline_sum() {
    let spec =
        || planned("SELECT tb, sum(srcPort - 30000), count(*) FROM PKT GROUP BY time/2 as tb");
    // No partition key: tuples are dealt round-robin, so shard 0 sees
    // the even positions (srcPort - 30000 = len) and shard 1 the odd
    // ones (-len).
    let pkts: Vec<Packet> = packets()
        .into_iter()
        .enumerate()
        .map(|(i, mut p)| {
            let len = p.len as u16;
            p.src_port = if i % 2 == 0 { 30000 + len } else { 30000 - len };
            p
        })
        .collect();
    let single = reference_for(spec().unwrap(), &pkts);
    let report = sharded_for(|_| spec(), 2, &pkts);
    let busy: Vec<u64> = report.shards.iter().map(|s| s.tuples()).collect();
    assert!(busy.iter().all(|&n| n > 0), "both shards hold a partial: {busy:?}");
    // Byte-identical: `Value`'s `==` would take `U64(5)` for `I64(5)`.
    let rows = |windows: &[WindowOutput]| -> Vec<String> {
        windows.iter().map(|w| format!("{:?} {:?}", w.window, w.rows)).collect()
    };
    assert_eq!(rows(&single), rows(&report.windows));
}

#[test]
fn heavy_hitter_counts_merge_exactly() {
    // Bucket width far beyond the stream length: lossy counting never
    // decrements, so per-group counts are exact and must merge exactly.
    let make = |_| queries::heavy_hitters_query(WINDOW, 1 << 20, None);
    let single = reference(make(0).unwrap());
    for shards in [1, 2, 8] {
        let report = sharded(make, shards);
        assert_windows_equal(&single, &report.windows, &format!("heavy_hitters x{shards}"));
    }
}

#[test]
fn minhash_signatures_merge_exactly() {
    let make = |_| queries::minhash_query(WINDOW, 16);
    let single = reference(make(0).unwrap());
    for shards in [1, 2, 8] {
        let report = sharded(make, shards);
        assert_windows_equal(&single, &report.windows, &format!("minhash x{shards}"));
    }
}

#[test]
fn all_tuples_on_one_shard_matches_every_shard_count() {
    // Adversarial skew: the heavy-hitter query partitions on srcIP (its
    // only non-window group key), so a stream with a single source
    // hashes every tuple onto ONE shard — the others spin up, see
    // nothing, and publish empty partials into the merge.
    let make = |_| queries::heavy_hitters_query(WINDOW, 1 << 20, None);
    let pkts: Vec<Packet> = packets()
        .into_iter()
        .map(|mut p| {
            p.src_ip = 0x0a00_0001;
            p
        })
        .collect();
    let single = reference_for(make(0).unwrap(), &pkts);
    for shards in [1, 2, 16] {
        let report = sharded_for(make, shards, &pkts);
        assert_windows_equal(&single, &report.windows, &format!("one-shard skew x{shards}"));
        let busy: Vec<u64> = report.shards.iter().map(|s| s.tuples()).collect();
        assert_eq!(busy.iter().sum::<u64>(), pkts.len() as u64, "no tuple lost to skew");
        assert_eq!(
            busy.iter().filter(|&&t| t > 0).count(),
            1,
            "a single partition key must land on a single shard: {busy:?}"
        );
    }
}

#[test]
fn empty_shards_and_shard_count_leave_results_byte_identical() {
    // Two distinct partition keys fanned out over 16 shards: at least
    // 14 shards process nothing, and the merged output at 1, 2, and 16
    // shards must be byte-identical (not merely statistically close).
    let make = |_| queries::heavy_hitters_query(WINDOW, 1 << 20, None);
    let pkts: Vec<Packet> = packets()
        .into_iter()
        .map(|mut p| {
            p.src_ip = 0x0a00_0001 + (p.len % 2); // exactly two sources
            p
        })
        .collect();
    let single = reference_for(make(0).unwrap(), &pkts);
    let reports: Vec<(usize, ShardedRunReport)> =
        [1, 2, 16].into_iter().map(|shards| (shards, sharded_for(make, shards, &pkts))).collect();
    for (shards, report) in &reports {
        assert_windows_equal(&single, &report.windows, &format!("two-key skew x{shards}"));
    }
    let empty = reports[2].1.shards.iter().filter(|s| s.tuples() == 0).count();
    assert!(empty >= 14, "two keys cannot occupy more than two of 16 shards ({empty} empty)");
    // Cross-compare the shard counts directly: same windows, same rows,
    // same bytes, regardless of how many workers (or idle shards) ran.
    for pair in reports.windows(2) {
        let ((a_n, a), (b_n, b)) = (&pair[0], &pair[1]);
        assert_windows_equal(
            &a.windows,
            &b.windows,
            &format!("shard counts {a_n} vs {b_n} disagree on merged output"),
        );
    }
}

#[test]
fn dynamic_subset_sum_is_reproducible_and_accurate() {
    let make = |_| {
        queries::subset_sum_query(
            WINDOW,
            SubsetSumOpConfig { target: 100, initial_z: 1.0, ..Default::default() },
            false,
        )
    };
    let mut truth = std::collections::HashMap::new();
    for p in packets() {
        *truth.entry(p.time() / WINDOW).or_insert(0u64) += p.len as u64;
    }
    for shards in [1, 2, 8] {
        let a = sharded(make, shards);
        let b = sharded(make, shards);
        assert_windows_equal(&a.windows, &b.windows, &format!("subset_sum rerun x{shards}"));
        for w in &a.windows {
            assert!(w.rows.len() <= 110, "{shards} shards: merged sample stays near target");
            let tb = w.window.get(0).as_u64().unwrap();
            let actual = truth[&tb] as f64;
            let est: f64 = w.rows.iter().map(|r| r.get(3).as_f64().unwrap()).sum();
            let err = (est - actual).abs() / actual;
            assert!(err < 0.25, "{shards} shards, window {tb}: estimate off by {err:.3}");
        }
    }
}

#[test]
fn reservoir_sample_is_seed_fixed_per_shard_count() {
    let make = |_| {
        queries::reservoir_query(WINDOW, ReservoirOpConfig { n: 50, seed: 7, ..Default::default() })
    };
    for shards in [1, 2, 8] {
        let a = sharded(make, shards);
        let b = sharded(make, shards);
        assert_windows_equal(&a.windows, &b.windows, &format!("reservoir rerun x{shards}"));
        for w in &a.windows {
            assert!(w.rows.len() <= 50, "reservoir never exceeds n");
            assert!(!w.rows.is_empty(), "reservoir keeps a sample");
        }
    }
}

#[test]
fn fixed_threshold_subset_sum_is_reproducible() {
    let make = |_| queries::basic_subset_sum_query(WINDOW, 400.0);
    for shards in [1, 2, 8] {
        let a = sharded(make, shards);
        let b = sharded(make, shards);
        assert_windows_equal(&a.windows, &b.windows, &format!("basic_ss rerun x{shards}"));
        assert!(a.windows.iter().any(|w| !w.rows.is_empty()));
    }
}

// ---------------------------------------------------------------------
// Injected disorder: reordering and timestamp skew from a fault plan
// must not make the sharded runtime's window assignment drift from a
// single instance fed the same perturbed stream. Exact (Combine-rule)
// queries make the comparison byte-level: both sides' outputs are
// collapsed per window key (disorder can close and reopen a window) and
// must agree exactly.

use proptest::prelude::*;

fn collapse(spec: &OperatorSpec, windows: Vec<WindowOutput>, seed: u64) -> Vec<WindowOutput> {
    let plan = shard_plan(spec).expect("shard-mergeable");
    let mut merged = stream_sampler::runtime::merge_windows(vec![windows], &plan.rule, seed);
    for w in &mut merged {
        w.rows.sort_by(tuple_cmp);
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn reordered_and_skewed_streams_window_identically_to_single_shard(
        reorder_window in 2u64..200,
        skew_at in 0u64..2000,
        skew_len in 1u64..400,
        // Straddle window boundaries in both directions, up to ±2 windows.
        offset_ns in (-2i64 * WINDOW as i64 * 1_000_000_000)..(2i64 * WINDOW as i64 * 1_000_000_000),
        plan_seed in 0u64..u64::MAX,
    ) {
        let mut fault = FaultPlan::empty(plan_seed);
        fault.events.push(FaultEvent::SkewTimestamps {
            at_packet: skew_at,
            len: skew_len,
            offset_ns,
        });
        fault.events.push(FaultEvent::Reorder { window: reorder_window });
        let pkts = fault.perturb_packets(packets());

        let spec = queries::total_sum_query(WINDOW);
        let tuples: Vec<Tuple> = pkts.iter().map(|p| p.to_tuple()).collect();
        let raw = SamplingOperator::new(queries::total_sum_query(WINDOW))
            .expect("spec")
            .run(tuples.iter())
            .expect("single run");
        let single = collapse(&spec, raw, 0);

        for shards in [2usize, 8] {
            let report = sharded_for(|_| Ok(queries::total_sum_query(WINDOW)), shards, &pkts);
            prop_assert!(!report.degraded(), "disorder alone must not lose coverage");
            let mut got = report.windows;
            for w in &mut got {
                w.rows.sort_by(tuple_cmp);
            }
            // The sharded merge already collapsed per window key; sort
            // both sides by key for a deterministic comparison order.
            let mut single = single.clone();
            single.sort_by(|a, b| tuple_cmp(&a.window, &b.window));
            got.sort_by(|a, b| tuple_cmp(&a.window, &b.window));
            prop_assert_eq!(single.len(), got.len(), "window count at {} shards", shards);
            for (a, b) in single.iter().zip(&got) {
                prop_assert_eq!(&a.window, &b.window, "window key at {} shards", shards);
                prop_assert_eq!(&a.rows, &b.rows, "rows for window {:?} at {} shards", a.window, shards);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Chunk edges: the pump pulls the stream in fixed-length chunks and
// flushes every shard's partial batch at every chunk end. None of that
// may show: feeds that end just before, on, and just after a chunk
// edge, with window boundaries both inside chunks and exactly on an
// edge, must reproduce the single-instance output at every shard count
// (one worker thread per shard) — for position-routed (round-robin) and
// content-routed plans alike.

#[test]
fn chunk_edges_are_invisible_at_every_router_shard_and_worker_count() {
    let config = |shards: usize| {
        let mut cfg = RuntimeConfig::new(shards);
        cfg.batch_size = 8;
        cfg
    };
    let chunk = config(1).chunk_tuples();
    // One window per chunk and a half: boundaries fall alternately
    // mid-chunk (1.5, 4.5, ...) and exactly on a chunk edge (3, 6, ...).
    let per_window = 3 * chunk / 2;
    let feed: Vec<Packet> = research_feed(FEED_SEED)
        .take_seconds(SECONDS)
        .into_iter()
        .enumerate()
        .map(|(i, mut p)| {
            p.uts = (i / per_window) as u64 * WINDOW * 1_000_000_000 + (i % per_window) as u64;
            p
        })
        .collect();
    assert!(feed.len() > 3 * chunk + 7);

    type MakeSpec =
        Box<dyn Fn(usize) -> Result<OperatorSpec, stream_sampler::operator::OpError> + Sync>;
    let cases: Vec<(&str, MakeSpec)> = vec![
        ("total_sum", Box::new(|_| Ok(queries::total_sum_query(WINDOW)))),
        ("heavy_hitters", Box::new(|_| queries::heavy_hitters_query(WINDOW, 1 << 20, None))),
    ];
    for len in [chunk - 1, chunk, chunk + 1, 3 * chunk + 7] {
        let pkts = &feed[..len];
        for (name, make) in &cases {
            let single = reference_for(make(0).unwrap(), pkts);
            for shards in [1usize, 2, 5] {
                let report = run_plan_sharded(
                    Box::new(SelectionNode::pass_all()),
                    make,
                    &config(shards),
                    pkts.to_vec(),
                )
                .expect("sharded run");
                let what = format!("{name}: {len} tuples, {shards} shards");
                assert_windows_equal(&single, &report.windows, &what);
                assert_eq!(
                    report.router.tuples(),
                    len as u64,
                    "{what}: every tuple passed through the router"
                );
                assert_eq!(report.tuples_processed(), len as u64, "{what}");
            }
        }
    }
}
