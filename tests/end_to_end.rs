//! End-to-end integration: query text → parser → planner → operator →
//! results, on synthetic feeds, cross-checked against the reference
//! algorithms in `sso-sampling` and exact computation.

use std::collections::{HashMap, HashSet};

use stream_sampler::prelude::*;
use stream_sampler::sampling::{KmvSketch, LossyCounter};

fn tuples_of(packets: &[Packet]) -> Vec<Tuple> {
    packets.iter().map(|p| p.to_tuple()).collect()
}

#[test]
fn subset_sum_text_query_tracks_exact_sums() {
    let query = "
        SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
        FROM PKT
        WHERE ssample(len, 200) = TRUE
        GROUP BY time/10 as tb, srcIP, destIP, uts
        HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
        CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
        CLEANING BY ssclean_with(sum(len)) = TRUE";
    let mut op = compile(query, &Packet::schema(), &PlannerConfig::standard()).unwrap();

    let packets = datacenter_feed(101).take_seconds(30);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for p in &packets {
        *truth.entry(p.time() / 10).or_default() += p.len as u64;
    }
    let windows = op.run(tuples_of(&packets).iter()).unwrap();
    assert_eq!(windows.len(), 3);
    for w in &windows {
        let tb = w.window.get(0).as_u64().unwrap();
        let estimate: f64 = w.rows.iter().map(|r| r.get(3).as_f64().unwrap()).sum();
        let actual = truth[&tb] as f64;
        let rel = (estimate - actual).abs() / actual;
        assert!(rel < 0.2, "window {tb}: estimate {estimate:.0} vs {actual:.0} (rel {rel:.3})");
        assert!(w.rows.len() <= 220, "sample bounded near target: {}", w.rows.len());
    }
}

#[test]
fn subset_sum_subset_queries_are_estimable() {
    // The whole point of subset-sum sampling: sums over arbitrary
    // "colors" (here: per destination IP) estimated from one sample.
    let query = "
        SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
        FROM PKT
        WHERE ssample(len, 2000) = TRUE
        GROUP BY time/30 as tb, srcIP, destIP, uts
        HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
        CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
        CLEANING BY ssclean_with(sum(len)) = TRUE";
    let mut op = compile(query, &Packet::schema(), &PlannerConfig::standard()).unwrap();

    let packets = datacenter_feed(102).take_seconds(30);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for p in &packets {
        *truth.entry(p.dest_ip as u64).or_default() += p.len as u64;
    }
    let windows = op.run(tuples_of(&packets).iter()).unwrap();
    let w = &windows[0];
    let mut est: HashMap<u64, f64> = HashMap::new();
    for r in &w.rows {
        *est.entry(r.get(2).as_u64().unwrap()).or_default() += r.get(3).as_f64().unwrap();
    }
    // Check the largest destinations (small ones have high variance).
    let mut biggest: Vec<(&u64, &u64)> = truth.iter().collect();
    biggest.sort_by_key(|(_, v)| std::cmp::Reverse(**v));
    for (dest, &actual) in biggest.into_iter().take(5) {
        let e = est.get(dest).copied().unwrap_or(0.0);
        let rel = (e - actual as f64).abs() / actual as f64;
        assert!(rel < 0.35, "dest {dest}: estimate {e:.0} vs {actual} (rel {rel:.3})");
    }
}

#[test]
fn heavy_hitter_query_agrees_with_lossy_counter_reference() {
    let packets = datacenter_feed(103).take_seconds(10);
    // Operator-hosted lossy counting over destIP, one 10s window.
    let query = "
        SELECT tb, destIP, sum(len), count(*)
        FROM PKT
        GROUP BY time/10 as tb, destIP
        CLEANING WHEN local_count(1000) = TRUE
        CLEANING BY count(*) + first(current_bucket()) > current_bucket()";
    let mut op = compile(query, &Packet::schema(), &PlannerConfig::standard()).unwrap();
    let windows = op.run(tuples_of(&packets).iter()).unwrap();
    let w = &windows[0];
    let op_counts: HashMap<u64, u64> =
        w.rows.iter().map(|r| (r.get(1).as_u64().unwrap(), r.get(3).as_u64().unwrap())).collect();

    // Reference sketch over the same stream (same epsilon = 1/1000).
    let mut reference = LossyCounter::new(0.001);
    let mut exact: HashMap<u64, u64> = HashMap::new();
    for p in &packets {
        reference.insert(p.dest_ip as u64);
        *exact.entry(p.dest_ip as u64).or_default() += 1;
    }

    let n = packets.len() as f64;
    let eps_n = (0.001 * n).ceil() as u64;
    let support = 0.01;
    let ref_hits: HashSet<u64> = reference.query(support).into_iter().map(|(k, _)| k).collect();
    for (&dest, &f) in &exact {
        // Both must satisfy lossy counting's guarantees against exact.
        if (f as f64) >= support * n {
            assert!(ref_hits.contains(&dest), "reference missed {dest}");
            let op_f = op_counts.get(&dest).copied().unwrap_or(0);
            assert!(op_f > 0, "operator pruned a true heavy hitter {dest}");
            assert!(op_f <= f, "operator overcounted {dest}: {op_f} > {f}");
            assert!(f - op_f <= eps_n, "operator undercount too large for {dest}");
        }
    }
}

#[test]
fn minhash_query_matches_kmv_reference_signature() {
    const K: usize = 64;
    let packets = research_feed(104).take_seconds(20);
    let query = format!(
        "SELECT tb, srcIP, HX FROM PKT
         WHERE HX <= Kth_smallest_value$(HX, {K})
         GROUP BY time/30 as tb, srcIP, H(destIP) as HX
         SUPERGROUP srcIP
         HAVING HX <= Kth_smallest_value$(HX, {K})
         CLEANING WHEN count_distinct$(*) > {K}
         CLEANING BY HX <= Kth_smallest_value$(HX, {K})"
    );
    let mut op = compile(&query, &Packet::schema(), &PlannerConfig::empty()).unwrap();
    let windows = op.run(tuples_of(&packets).iter()).unwrap();
    let w = &windows[0];

    // Operator signature per source.
    let mut op_sigs: HashMap<u64, Vec<u64>> = HashMap::new();
    for r in &w.rows {
        op_sigs.entry(r.get(1).as_u64().unwrap()).or_default().push(r.get(2).as_u64().unwrap());
    }

    // Reference KMV per source (same hash function).
    let mut ref_sigs: HashMap<u64, KmvSketch> = HashMap::new();
    for p in &packets {
        ref_sigs
            .entry(p.src_ip as u64)
            .or_insert_with(|| KmvSketch::new(K))
            .insert(p.dest_ip as u64);
    }

    assert!(!op_sigs.is_empty());
    for (src, mut sig) in op_sigs {
        sig.sort_unstable();
        let expected: Vec<u64> = ref_sigs[&src].values().collect();
        assert_eq!(sig, expected, "signature mismatch for source {src}");
    }
}

#[test]
fn reservoir_query_sample_is_plausibly_uniform() {
    // Uniformity over *packets* needs every packet to be its own group
    // (add uts to GROUP BY, as the subset-sum query does). The paper's
    // plain (srcIP, destIP) grouping samples distinct keys, whose
    // candidacy is any-packet-admitted and therefore not uniform over
    // keys — see reservoir_query_returns_exactly_n_when_enough_input
    // for that variant.
    let query = "
        SELECT tb, srcIP, destIP
        FROM PKT
        WHERE rsample(20) = TRUE
        GROUP BY time/1 as tb, srcIP, destIP, uts
        HAVING rsfinal_clean(count_distinct$(*)) = TRUE
        CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
        CLEANING BY rsclean_with() = TRUE";
    let mut op = compile(query, &Packet::schema(), &PlannerConfig::standard()).unwrap();

    // Build a synthetic regular stream: 100 flows x 50 packets/second,
    // round robin, 40 seconds.
    let mut packets = Vec::new();
    for s in 0..40u64 {
        for i in 0..5000u64 {
            packets.push(Packet {
                uts: s * 1_000_000_000 + i * 200_000,
                src_ip: (i % 100) as u32,
                dest_ip: 1000 + (i % 100) as u32,
                src_port: 1,
                dest_port: 2,
                proto: stream_sampler::types::Protocol::Udp,
                len: 100,
            });
        }
    }
    let windows = op.run(tuples_of(&packets).iter()).unwrap();
    assert_eq!(windows.len(), 40);
    let mut counts = vec![0u32; 100];
    for w in &windows {
        assert_eq!(w.rows.len(), 20, "exactly n samples per window");
        for r in &w.rows {
            counts[r.get(1).as_u64().unwrap() as usize] += 1;
        }
    }
    // Every flow has expectation 40 * 20/100 = 8 inclusions. Check the
    // distribution's shape rather than each Poisson-8 tail individually.
    let zeros = counts.iter().filter(|&&c| c == 0).count();
    let max = *counts.iter().max().unwrap();
    let mean = counts.iter().sum::<u32>() as f64 / counts.len() as f64;
    assert!(zeros <= 2, "{zeros} flows never sampled (P ~ 3e-4 each)");
    assert!(max <= 25, "a flow was sampled {max} times; expected ~8");
    assert!((6.0..=10.0).contains(&mean), "mean inclusion {mean}, expected 8");
}

#[test]
fn queries_compile_against_builders_equivalently() {
    // The text front end and the programmatic builders must agree on
    // output for the deterministic (non-randomized) heavy-hitter query.
    let packets = datacenter_feed(105).take_seconds(5);
    let tuples = tuples_of(&packets);

    let text = "
        SELECT tb, srcIP, sum(len), count(*)
        FROM PKT
        GROUP BY time/5 as tb, srcIP
        CLEANING WHEN local_count(500) = TRUE
        CLEANING BY count(*) + first(current_bucket()) > current_bucket()";
    let mut from_text = compile(text, &Packet::schema(), &PlannerConfig::standard()).unwrap();
    let spec = queries::heavy_hitters_query(5, 500, None).unwrap();
    let mut from_builder = SamplingOperator::new(spec).unwrap();

    let a = from_text.run(tuples.iter()).unwrap();
    let b = from_builder.run(tuples.iter()).unwrap();
    assert_eq!(a.len(), b.len());
    for (wa, wb) in a.iter().zip(&b) {
        assert_eq!(wa.rows, wb.rows);
    }
}

/// The inline driver against the plainest reference there is —
/// `SamplingOperator::run` over freshly built tuples — for every example
/// query, on feeds cut around the driver's batch boundaries.
#[test]
fn inline_driver_matches_operator_run_on_every_example_query() {
    use stream_sampler::gigascope::BATCH;
    let schema = Packet::schema();
    // Two seconds of feed stretched over five minutes, so the example
    // texts' 60 s windows close inside every cut but the shortest.
    let feed: Vec<Packet> = research_feed(106)
        .take_seconds(2)
        .into_iter()
        .map(|p| Packet { uts: p.uts * 150, ..p })
        .collect();
    let cuts = [0, 1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 7];
    assert!(feed.len() >= 3 * BATCH + 7 && feed[3 * BATCH + 6].time() >= 120);
    let assert_same = |what: &str, got: &[WindowOutput], want: &[WindowOutput]| {
        assert_eq!(got.len(), want.len(), "{what}: window count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.window, w.window, "{what}: window key");
            assert_eq!(g.rows, w.rows, "{what}: rows of window {}", w.window);
        }
    };

    let mut compiled = 0;
    for (name, text) in queries::EXAMPLE_QUERIES {
        // A planner config per operator: its SFUN libraries number the
        // states they create, and that number seeds each state's RNG.
        let make = || compile(text, &schema, &PlannerConfig::standard());
        if make().is_err() {
            continue;
        }
        compiled += 1;
        let low = || Box::new(SelectionNode::pass_all());
        for n in cuts {
            let what = format!("{name} over {n} packets");
            let packets = &feed[..n];
            let reference = make().unwrap().run(tuples_of(packets).iter()).unwrap();

            let registry = Registry::new();
            let plan = TwoLevelPlan::new(low(), make().unwrap()).with_registry(registry.clone());
            let single = run_plan(plan, packets.to_vec()).unwrap();
            assert_same(&what, &single.windows, &reference);
            let snap = registry.snapshot();
            assert!(snap.get("high.tuples_in").is_some(), "{what}: counters published");
            assert_eq!(snap.value("low.tuples_in"), n as f64, "{what}");
            assert_eq!(snap.value("high.tuples_in"), snap.value("low.tuples_out"), "{what}");
            assert_eq!(single.high.tuples_in, single.low.tuples_out, "{what}");

            // k copies of the query in k groups each equal the single
            // run; k = 1 is `run_plan` against a one-group fan-out.
            for k in [1, 3] {
                let copies = (0..k).map(|i| (format!("q{i}"), make().unwrap()));
                let fan =
                    run_fanout_shared(low(), SharedQueryPlan::unshared(copies), packets.to_vec())
                        .unwrap();
                assert_eq!(fan.queries.len(), k);
                for q in &fan.queries {
                    assert_same(&format!("{what}, {} of {k}", q.name), &q.windows, &reference);
                }
            }
        }
    }
    assert!(compiled >= 5, "only {compiled} example queries compile against PKT");
}
