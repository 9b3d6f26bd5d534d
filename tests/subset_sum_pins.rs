//! Pins on the subset-sum threshold family, written against the
//! behaviour every implementation of it must keep:
//!
//! * the §7.2 prefilter node and the operator's basic subset-sum query
//!   run the same keep-one-per-`z` meter, so over one window they keep
//!   exactly the same packets;
//! * the dynamic subset-sum operator's snapshot bytes (carry-over and
//!   library aux, as a durable worker captures them at every window
//!   close) stay the same, so a durable store written earlier still
//!   resumes.

use stream_sampler::gigascope::LowLevelQuery;
use stream_sampler::operator::Expr;
use stream_sampler::prelude::*;

/// `(uts, srcIP, destIP)` of a packet.
type Key = (u64, u64, u64);

/// One window of a seeded feed: every packet of its first `secs` seconds.
fn one_window(seed: u64, secs: u64) -> Vec<Packet> {
    let packets = research_feed(seed).take_seconds(secs);
    assert!(packets.iter().all(|p| p.time() < secs));
    packets
}

/// The packets `PrefilterNode::new(z)` forwards.
fn prefilter_keeps(packets: &[Packet], z: f64) -> Vec<Key> {
    let mut node = PrefilterNode::new(z);
    let mut kept: Vec<Key> = packets
        .iter()
        .filter(|p| node.process(p).is_some())
        .map(|p| (p.uts, p.src_ip as u64, p.dest_ip as u64))
        .collect();
    kept.sort_unstable();
    kept
}

/// The packets `queries::basic_subset_sum_query(window, z)` admits: its
/// rows, with the `uts` group variable selected beside them.
fn basic_query_keeps(packets: &[Packet], window: u64, z: f64) -> Vec<Key> {
    let mut spec = queries::basic_subset_sum_query(window, z).unwrap();
    spec.select.push(("uts".into(), Expr::GroupVar(3)));
    let mut op = SamplingOperator::new(spec).unwrap();
    let tuples: Vec<Tuple> = packets.iter().map(|p| p.to_tuple()).collect();
    let windows = op.run(tuples.iter()).unwrap();
    assert_eq!(windows.len(), 1, "the feed spans one window");
    let u = |v: &Value| v.as_u64().unwrap();
    let mut kept: Vec<Key> =
        windows[0].rows.iter().map(|r| (u(r.get(4)), u(r.get(1)), u(r.get(2)))).collect();
    kept.sort_unstable();
    kept
}

#[test]
fn prefilter_node_forwards_what_the_basic_query_admits() {
    let secs = 3;
    let packets = one_window(7, secs);
    // A threshold inside the length range meters small packets and keeps
    // large ones outright; one above it meters every packet.
    for z in [700.0, 100_000.0] {
        let node = prefilter_keeps(&packets, z);
        let query = basic_query_keeps(&packets, secs, z);
        assert!(!node.is_empty() && node.len() < packets.len(), "z = {z}: {} kept", node.len());
        assert_eq!(node, query, "z = {z}: prefilter and basic query keep different packets");
    }
}

/// 64-bit FNV-1a, folded over every byte given to it.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Run dynamic subset-sum over a seeded feed in one-second windows,
/// capturing the carry-over and aux bytes at every window close; return
/// how many closes there were and the hash of all their bytes in order.
fn snapshot_digest(cfg: SubsetSumOpConfig) -> (usize, u64) {
    let spec = queries::subset_sum_query(1, cfg, false).unwrap();
    let mut op = SamplingOperator::new(spec).unwrap();
    op.set_capture_flush(true);
    let tuples: Vec<Tuple> =
        research_feed(11).take_seconds(8).iter().map(|p| p.to_tuple()).collect();
    op.run(tuples.iter()).unwrap();
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut closes = 0;
    while let Some((carry, aux)) = op.take_flush_state() {
        for part in [carry, aux] {
            hash.write(&(part.len() as u64).to_le_bytes());
            hash.write(&part);
        }
        closes += 1;
    }
    (closes, hash.0)
}

#[test]
fn dynamic_subset_sum_snapshot_bytes_do_not_drift() {
    let relaxed = |n| SubsetSumOpConfig { target: n, initial_z: 1.0, ..Default::default() };
    let cases = [
        ("N=50 relaxed", relaxed(50), 0xf351_87c3_65ad_747e),
        ("N=50 non-relaxed", relaxed(50).non_relaxed(), 0xa3b4_c1f6_0514_364d),
        ("N=200 relaxed", relaxed(200), 0xbf5e_77c7_6e97_5239),
        ("N=200 non-relaxed", relaxed(200).non_relaxed(), 0x32ce_7383_933a_5468),
    ];
    for (name, cfg, want) in cases {
        let (closes, got) = snapshot_digest(cfg);
        assert_eq!(closes, 8, "{name}: one snapshot per window");
        assert_eq!(got, want, "{name}: snapshot bytes changed (digest {got:#018x})");
    }
}
