//! Golden digests of the operator's output.
//!
//! Every `EXAMPLE_QUERIES` builder runs over the same seeded
//! `research_feed`; the FNV-1a digest of each window's key, rows and
//! [`WindowStats`] was recorded before the operator's tuple phase was
//! lowered and staged (DESIGN.md §6.4) and must not move: the operator
//! may get faster, its output may not change by a byte.
//!
//! `minhash_query` is the hazard case for staged admission — its WHERE
//! reads `HX`, a group-by variable that is neither a window nor a
//! supergroup variable, and `Kth_smallest_value$`.

use sso_core::libs::distinct::DistinctOpConfig;
use sso_core::libs::reservoir::ReservoirOpConfig;
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::queries::{self, EXAMPLE_QUERIES};
use sso_core::{AggSpec, Expr, OperatorSpec, Record, SamplingOperator, WindowOutput};
use sso_netgen::research_feed;
use sso_types::wire::{checksum, put_tuple, put_u32, put_u64};
use sso_types::{Packet, Tuple, Value};

const SEED: u64 = 7;
const FEED_SECONDS: u64 = 8;
const WINDOW_SECS: u64 = 2;

fn packets() -> Vec<Packet> {
    research_feed(SEED).take_seconds(FEED_SECONDS)
}

fn feed() -> Vec<Tuple> {
    packets().iter().map(Packet::to_tuple).collect()
}

/// The digest of a run through `process`, a tuple at a time.
fn digest(spec: OperatorSpec, tuples: &[Tuple]) -> u64 {
    let mut op = SamplingOperator::new(spec).expect("valid spec");
    digest_of(&op.run(tuples).expect("run"))
}

/// The digest of a run through `process_batch`, `batch` records a call.
fn digest_batched(spec: OperatorSpec, records: &[impl Record], batch: usize) -> u64 {
    let mut op = SamplingOperator::new(spec).expect("valid spec");
    let mut outs = Vec::new();
    for chunk in records.chunks(batch) {
        op.process_batch(chunk, |w| outs.push(w)).expect("process_batch");
    }
    outs.extend(op.finish().expect("finish"));
    digest_of(&outs)
}

fn digest_of(outs: &[WindowOutput]) -> u64 {
    assert_eq!(outs.len() as u64, FEED_SECONDS / WINDOW_SECS);
    let mut buf = Vec::new();
    for o in outs {
        put_tuple(&mut buf, &o.window);
        put_u32(&mut buf, o.rows.len() as u32);
        for row in &o.rows {
            put_tuple(&mut buf, row);
        }
        let s = &o.stats;
        for n in
            [s.tuples, s.admitted, s.cleaning_phases, s.groups_created, s.evictions, s.output_rows]
        {
            put_u64(&mut buf, n);
        }
    }
    checksum(&buf)
}

fn builder(name: &str) -> OperatorSpec {
    match name {
        "total_sum_query" => queries::total_sum_query(WINDOW_SECS),
        "subset_sum_query" => {
            let cfg = SubsetSumOpConfig { target: 100, initial_z: 1.0, ..Default::default() };
            queries::subset_sum_query(WINDOW_SECS, cfg, true).unwrap()
        }
        "basic_subset_sum_query" => queries::basic_subset_sum_query(WINDOW_SECS, 600.0).unwrap(),
        "heavy_hitters_query" => queries::heavy_hitters_query(WINDOW_SECS, 100, Some(50)).unwrap(),
        "minhash_query" => queries::minhash_query(WINDOW_SECS, 10).unwrap(),
        "distinct_sample_query" => {
            let cfg = DistinctOpConfig { capacity: 256, carry_level: true };
            queries::distinct_sample_query(WINDOW_SECS, cfg).unwrap()
        }
        "reservoir_query" => {
            let cfg = ReservoirOpConfig { n: 25, ..Default::default() };
            queries::reservoir_query(WINDOW_SECS, cfg).unwrap()
        }
        other => panic!("EXAMPLE_QUERIES grew a builder this test does not know: {other}"),
    }
}

/// Recorded on the commit before the tuple phase was lowered.
const GOLDEN: &[(&str, u64)] = &[
    ("total_sum_query", 0x6504d354f68e0e7a),
    ("subset_sum_query", 0x9e83d0b2ba88f3e8),
    ("basic_subset_sum_query", 0xa61dfc10df80f2af),
    ("heavy_hitters_query", 0x01be79c2190be0ac),
    ("minhash_query", 0x2ad4e8c29c864ffe),
    ("distinct_sample_query", 0x333cfa52a3416e46),
    ("reservoir_query", 0x91b56f08a3b82bf3),
];

#[test]
fn example_queries_keep_their_output() {
    let (tuples, packets) = (feed(), packets());
    assert!(tuples.len() > 20_000, "feed too small to exercise cleaning: {}", tuples.len());
    assert_eq!(GOLDEN.len(), EXAMPLE_QUERIES.len());
    let mut over_packets = Vec::new();
    for ((name, _), (golden_name, want)) in EXAMPLE_QUERIES.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        let got = digest(builder(name), &tuples);
        assert_eq!(got, *want, "{name}: output digest moved ({got:#018x})");
        // `process_batch`, where the run path decides WHERE, is held to
        // the same digest.
        for batch in [1, 7, 4096] {
            let got = digest_batched(builder(name), &tuples, batch);
            assert_eq!(got, *want, "{name} in batches of {batch}: digest moved ({got:#018x})");
        }
        // Where it has a run path, over packets: a row is built only for
        // a tuple that enters the §6.4 body.
        if !SamplingOperator::new(builder(name)).expect("valid spec").has_run_path() {
            continue;
        }
        for batch in [1, 7, 4096] {
            let got = digest_batched(builder(name), &packets, batch);
            assert_eq!(got, *want, "{name} over packets, {batch} a call: ({got:#018x})");
        }
        over_packets.push(*name);
    }
    let run_path =
        ["subset_sum_query", "basic_subset_sum_query", "distinct_sample_query", "reservoir_query"];
    assert_eq!(over_packets, run_path, "the queries with a run path");
}

/// The one visible change of staging: a group-by expression WHERE does
/// not read is evaluated for admitted tuples only, so an error it would
/// raise on a *rejected* tuple no longer aborts the run. On an admitted
/// tuple it still does.
#[test]
fn deferred_group_by_error_is_raised_for_admitted_tuples_only() {
    // SELECT tb, q, count(*) WHERE keep > 0 GROUP BY t/10 as tb, a/b as q
    let mut spec = OperatorSpec::aggregation(
        vec![
            ("tb".into(), Expr::GroupVar(0)),
            ("q".into(), Expr::GroupVar(1)),
            ("cnt".into(), Expr::Aggregate(0)),
        ],
        vec![
            ("tb".into(), Expr::Column(0).div(Expr::lit(10u64))),
            ("q".into(), Expr::Column(1).div(Expr::Column(2))),
        ],
    );
    spec.window_indices = vec![0];
    spec.where_clause = Some(Expr::Column(3).gt(Expr::lit(0u64)));
    spec.aggregates = vec![AggSpec::Count];
    let t = |time: u64, a: u64, b: u64, keep: u64| {
        Tuple::new(vec![Value::U64(time), Value::U64(a), Value::U64(b), Value::U64(keep)])
    };

    let mut op = SamplingOperator::new(spec.clone()).unwrap();
    let outs = op.run([t(1, 8, 2, 1), t(2, 8, 0, 0), t(3, 9, 3, 1)].iter()).unwrap();
    assert_eq!(outs[0].stats.tuples, 3);
    assert_eq!(outs[0].stats.admitted, 2);
    assert_eq!(outs[0].rows.len(), 2);

    let mut op = SamplingOperator::new(spec).unwrap();
    op.process(&t(1, 8, 2, 1)).unwrap();
    assert!(op.process(&t(2, 8, 0, 1)).is_err(), "a/0 on an admitted tuple is still an error");
}

/// The audit turns a certified group count into a memory ceiling with
/// `group_entry_bytes`. The model must stay above what the group table
/// really spends on a group: its key and aggregate states in the strided
/// arenas, the stored hash, two index slots (load ≤ ½) — with the
/// member-list entry and the growth slack of the vectors inside the
/// difference.
#[test]
fn group_entry_bytes_cover_the_real_layout() {
    use std::mem::size_of;
    for (name, _) in EXAMPLE_QUERIES {
        let spec = builder(name);
        let (k, a) = (spec.group_by.len(), spec.aggregates.len());
        let real =
            k * size_of::<sso_types::Value>() + a * size_of::<sso_core::AggState>() + 8 + 2 * 4;
        assert!(
            real <= spec.group_entry_bytes(),
            "{name}: a group really takes {real} B, the audit models {}",
            spec.group_entry_bytes()
        );
    }
}
