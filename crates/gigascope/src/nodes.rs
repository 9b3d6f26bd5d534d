//! Low-level query nodes: early data reduction at the packet level.
//!
//! Gigascope's low-level queries are "simple data reduction operators"
//! — selection and partial aggregation — running directly against the
//! ring buffer. Crucially, a packet only incurs a *copy* (here: the
//! construction of a boxed-value [`Tuple`]) when it is forwarded to a
//! high-level query. The paper's Figure 6 shows why this matters: a
//! pass-everything selection subquery burned ~60% of a CPU in memory
//! copies, while pushing *basic* subset-sum sampling (threshold `z/10`)
//! down into the low-level node cut it to ~4%.

use sso_sampling::subset_sum::BasicSubsetSum;
use sso_types::{Packet, Tuple};

/// A low-level query node: packet in, optional forwarded tuple out.
pub trait LowLevelQuery: Send {
    /// The node's display name.
    fn name(&self) -> &'static str;

    /// Process one packet; `Some(tuple)` forwards it to the high level.
    fn process(&mut self, pkt: &Packet) -> Option<Tuple>;

    /// [`LowLevelQuery::process`] into a caller-owned tuple: `true`
    /// means `out` now holds the forwarded tuple (whatever it held
    /// before is overwritten), `false` leaves `out` unspecified. The
    /// executors hand in a recycled tuple, so a node that overrides
    /// this forwards without allocating.
    fn process_into(&mut self, pkt: &Packet, out: &mut Tuple) -> bool {
        match self.process(pkt) {
            Some(tuple) => {
                *out = tuple;
                true
            }
            None => false,
        }
    }

    /// End of stream: flush any buffered output (e.g. a partial
    /// aggregation epoch). Defaults to nothing.
    fn finish(&mut self) -> Vec<Tuple> {
        Vec::new()
    }

    /// The pass test of a node that forwards each packet unchanged or not
    /// at all and holds nothing back for `finish`: `pass(pkt)` is what
    /// [`LowLevelQuery::process_into`] returns, with the same effect on
    /// the node. `None` (the default): the node changes or holds back
    /// what it forwards.
    fn pass_test(&mut self) -> Option<&mut dyn FnMut(&Packet) -> bool> {
        None
    }
}

/// A cheap native predicate over packet fields.
pub type PacketPredicate = Box<dyn FnMut(&Packet) -> bool + Send>;

/// A selection node with a cheap native predicate over packet fields.
pub struct SelectionNode {
    predicate: PacketPredicate,
}

impl SelectionNode {
    /// Forward every packet (the paper's baseline low-level query).
    pub fn pass_all() -> Self {
        Self::with_predicate(|_| true)
    }

    /// Forward packets matching the predicate.
    pub fn with_predicate(pred: impl FnMut(&Packet) -> bool + Send + 'static) -> Self {
        SelectionNode { predicate: Box::new(pred) }
    }
}

// The tuple is the "memory copy" of the real system: it is only built
// (or overwritten) for forwarded packets.
impl LowLevelQuery for SelectionNode {
    fn name(&self) -> &'static str {
        "selection"
    }

    fn process(&mut self, pkt: &Packet) -> Option<Tuple> {
        (self.predicate)(pkt).then(|| pkt.to_tuple())
    }

    fn process_into(&mut self, pkt: &Packet, out: &mut Tuple) -> bool {
        let pass = (self.predicate)(pkt);
        if pass {
            pkt.write_tuple(out);
        }
        pass
    }

    fn pass_test(&mut self) -> Option<&mut dyn FnMut(&Packet) -> bool> {
        Some(&mut *self.predicate)
    }
}

/// The §7.2 prefilter: *basic* subset-sum sampling at a low threshold in
/// the low-level node. The high-level dynamic algorithm then sees an
/// already-thinned stream and adapts its own threshold upward.
///
/// Per the basic algorithm (§4.4), a sampled *small* tuple's measure is
/// adjusted to the threshold ("setting t.x to z") before forwarding, so
/// downstream sums over the thinned stream remain unbiased.
pub struct PrefilterNode {
    basic: BasicSubsetSum,
    len_idx: usize,
}

impl PrefilterNode {
    /// Prefilter with the given threshold (the paper used a tenth of the
    /// dynamic algorithm's steady-state threshold).
    pub fn new(z: f64) -> Self {
        let len_idx = Packet::schema().index_of("len").expect("PKT has len");
        PrefilterNode { basic: BasicSubsetSum::new(z), len_idx }
    }

    /// The prefilter's threshold.
    pub fn z(&self) -> f64 {
        self.basic.z()
    }

    /// Packets offered / sampled so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.basic.offered(), self.basic.sampled())
    }

    /// Offer the packet to the sampler; if sampled, its adjusted `len`.
    fn sampled_len(&mut self, pkt: &Packet) -> Option<sso_types::Value> {
        let len = pkt.len as u64;
        self.basic.offer(len).then(|| sso_types::Value::U64(self.basic.adjusted_weight(len) as u64))
    }
}

impl LowLevelQuery for PrefilterNode {
    fn name(&self) -> &'static str {
        "basic-ss-prefilter"
    }

    fn process(&mut self, pkt: &Packet) -> Option<Tuple> {
        let len = self.sampled_len(pkt)?;
        let mut tuple = pkt.to_tuple();
        tuple.set(self.len_idx, len);
        Some(tuple)
    }

    fn process_into(&mut self, pkt: &Packet, out: &mut Tuple) -> bool {
        let Some(len) = self.sampled_len(pkt) else { return false };
        pkt.write_tuple(out);
        out.set(self.len_idx, len);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_types::Protocol;

    fn pkt(len: u32) -> Packet {
        Packet {
            uts: 1,
            src_ip: 1,
            dest_ip: 2,
            src_port: 3,
            dest_port: 4,
            proto: Protocol::Tcp,
            len,
        }
    }

    #[test]
    fn pass_all_forwards_everything() {
        let mut n = SelectionNode::pass_all();
        assert!(n.process(&pkt(100)).is_some());
        assert!(n.process(&pkt(40)).is_some());
    }

    #[test]
    fn predicate_filters() {
        let mut n = SelectionNode::with_predicate(|p| p.len > 100);
        assert!(n.process(&pkt(1500)).is_some());
        assert!(n.process(&pkt(40)).is_none());
    }

    #[test]
    fn forwarded_tuple_matches_schema() {
        let mut n = SelectionNode::pass_all();
        let t = n.process(&pkt(123)).unwrap();
        t.check_arity(&Packet::schema()).unwrap();
    }

    /// Drive `a` through `process` and `b` through `process_into` (into
    /// one recycled, initially dirty slot); both must forward the same
    /// packets as the same tuples.
    fn assert_same_forwarding(a: &mut dyn LowLevelQuery, b: &mut dyn LowLevelQuery, lens: &[u32]) {
        let mut slot = Tuple::new(vec![sso_types::Value::str("dead"); 11]);
        for (i, &len) in lens.iter().enumerate() {
            let p = Packet { uts: i as u64, ..pkt(len) };
            let forwarded = b.process_into(&p, &mut slot);
            assert_eq!(a.process(&p), forwarded.then(|| slot.clone()), "packet {i} (len {len})");
        }
    }

    proptest::proptest! {
        #[test]
        fn process_into_is_process_for_selection(
            lens in proptest::collection::vec(0u32..3000, 0..200),
            cut in 0u32..3000,
        ) {
            assert_same_forwarding(
                &mut SelectionNode::pass_all(),
                &mut SelectionNode::pass_all(),
                &lens,
            );
            // A stateful predicate: its own state must advance alike.
            let make = || {
                let mut seen = 0u32;
                SelectionNode::with_predicate(move |p| {
                    seen += 1;
                    p.len >= cut || seen.is_multiple_of(3)
                })
            };
            assert_same_forwarding(&mut make(), &mut make(), &lens);
        }

        #[test]
        fn process_into_is_process_for_the_prefilter(
            lens in proptest::collection::vec(0u32..3000, 0..200),
            z in 0.0f64..5000.0,
        ) {
            let (mut a, mut b) = (PrefilterNode::new(z), PrefilterNode::new(z));
            assert_same_forwarding(&mut a, &mut b, &lens);
            // Same threshold state afterwards: counters agree and the
            // metering residue decides the next packets alike.
            proptest::prop_assert_eq!(a.counts(), b.counts());
            proptest::prop_assert_eq!(a.z(), b.z());
            assert_same_forwarding(&mut a, &mut b, &[1, 40, 700, 1, 1500, 2]);
        }
    }

    #[test]
    fn prefilter_thins_small_packets() {
        let mut n = PrefilterNode::new(10_000.0);
        let mut forwarded = 0;
        for _ in 0..1000 {
            if n.process(&pkt(100)).is_some() {
                forwarded += 1;
            }
        }
        // 1000 * 100 bytes = 100k total, z = 10k -> ~10 samples.
        assert!((5..=15).contains(&forwarded), "forwarded {forwarded}");
        let (offered, sampled) = n.counts();
        assert_eq!(offered, 1000);
        assert_eq!(sampled as usize, forwarded);
    }

    #[test]
    fn prefilter_always_forwards_large_packets() {
        let mut n = PrefilterNode::new(1000.0);
        for _ in 0..10 {
            assert!(n.process(&pkt(1500)).is_some());
        }
    }
}
