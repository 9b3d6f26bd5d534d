//! Pins the sharded runtime's merged output *in the order it is
//! emitted*: window keys, each window's rows as the merge leaves them,
//! and the merged stats, folded into one digest per query at 2 shards.
//!
//! `tests/sharded.rs` and `tests/sharded_inline.rs` sort both sides
//! before comparing, so they cannot see a change in the merge's row
//! order; these digests can.

use stream_sampler::gigascope::run_plan_sharded_with;
use stream_sampler::operator::OpError;
use stream_sampler::prelude::*;

/// 64-bit FNV-1a, folded over every byte given to it.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        let text = format!("{v:?}");
        self.write(&(text.len() as u64).to_le_bytes());
        self.write(text.as_bytes());
    }
}

/// Run `make` through `run_plan_sharded_with` at 2 shards over the first
/// `secs` seconds of `datacenter_feed(seed)`; return the window count,
/// the largest window's row count and the digest of every window in
/// emitted order. Stats are digested field by field without
/// `evictions`, whose merged sum the merge module's unit tests pin.
fn digest<F>(make: F, seed: u64, secs: u64) -> (usize, usize, u64)
where
    F: Fn(usize) -> Result<OperatorSpec, OpError> + Sync,
{
    let plan = shard_plan(&make(0).unwrap()).unwrap();
    let packets = datacenter_feed(seed).take_seconds(secs);
    let report = run_plan_sharded_with(
        Box::new(SelectionNode::pass_all()),
        &plan,
        make,
        &RuntimeConfig::new(2),
        packets,
    )
    .unwrap();
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for w in &report.windows {
        hash.debug(&w.window);
        hash.write(&(w.rows.len() as u64).to_le_bytes());
        for row in &w.rows {
            hash.debug(row);
        }
        let s = &w.stats;
        for n in [s.tuples, s.admitted, s.cleaning_phases, s.groups_created, s.output_rows] {
            hash.write(&n.to_le_bytes());
        }
        // The window's loss, printed as the digests were recorded.
        let (coverage, degraded) = (w.coverage(), w.degraded());
        hash.debug(&format_args!(
            "Degradation {{ coverage: {coverage:?}, degraded: {degraded:?} }}"
        ));
    }
    let widest = report.windows.iter().map(|w| w.rows.len()).max().unwrap_or(0);
    (report.windows.len(), widest, hash.0)
}

fn check(name: &str, got: (usize, usize, u64), want: u64, min_rows: usize) {
    let (windows, widest, hash) = got;
    assert!(windows >= 2, "{name}: {windows} windows");
    assert!(widest >= min_rows, "{name}: widest window has {widest} rows");
    assert_eq!(hash, want, "{name}: merged output changed (digest {hash:#018x})");
}

/// Dynamic subset-sum at N = 5 000 in 1 s windows: thousands of rows a
/// window, every column a `U64` but the `F64` adjusted weight.
#[test]
fn subset_sum_merge_order_does_not_drift() {
    let make = |_| {
        let cfg = SubsetSumOpConfig { target: 5_000, initial_z: 1.0, ..Default::default() };
        queries::subset_sum_query(1, cfg, false)
    };
    check("subset_sum", digest(make, 1, 3), 0x052f_19a7_5db8_cb57, 3_000);
}

/// An exact aggregation, merged by the `Combine` rule (key columns
/// matched, `sum` / `count` columns added).
#[test]
fn combine_merge_order_does_not_drift() {
    let make = |_| queries::heavy_hitters_query(1, 1 << 20, None);
    check("heavy_hitters", digest(make, 2, 3), 0x4930_196a_2813_b6e9, 100);
}

/// A reservoir sample, merged by the seeded reservoir rule.
#[test]
fn reservoir_merge_order_does_not_drift() {
    let make = |_| {
        queries::reservoir_query(1, ReservoirOpConfig { n: 500, seed: 7, ..Default::default() })
    };
    check("reservoir", digest(make, 3, 3), 0x6767_6696_a7be_7695, 400);
}
