//! The fault contract the router and the shard workers share: a panic
//! quarantines its stage for the rest of the window it struck, the
//! window's unprocessed tuples are counted as uncovered, and the stage
//! is live again at the next window boundary. Each case here pins, for a
//! router panic, a shard panic or both, every number the contract
//! produces: each window's `Degradation`, the per-shard and router
//! quarantine and uncovered counts, and the run's coverage. Every window
//! no fault touched must come out byte-identical to the fault-free run's.
//!
//! The feed is 1000 tuples a second, so window `w` is global stream
//! positions `1000 w .. 1000 (w + 1)`. The query is key-free, so two
//! shards deal it round-robin by global position: shard 0 takes the even
//! positions and shard 1 the odd ones, whether or not the router routes
//! them. With 128-tuple batches a chunk is 2048 tuples, pulled and
//! routed in two pieces of 1024.

use std::sync::Arc;

use sso_core::{queries, shard_plan, Degradation, OpError, OperatorSpec, WindowOutput};
use sso_faults::{FaultEvent, FaultPlan};
use sso_runtime::{run_sharded, RuntimeConfig, ShardedReport};
use sso_types::{Packet, Protocol, Tuple};

const PER_WINDOW: u64 = 1000;
const BATCH: usize = 128;
const PIECE: u64 = 1024;

/// `n` tuples, `PER_WINDOW` to the second.
fn feed(n: u64) -> Vec<Tuple> {
    (0..n)
        .map(|p| {
            Packet {
                uts: p * (1_000_000_000 / PER_WINDOW) + 1,
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

fn sum_query(_: usize) -> Result<OperatorSpec, OpError> {
    Ok(queries::total_sum_query(1))
}

fn run(tuples: &[Tuple], events: &[FaultEvent]) -> ShardedReport {
    let plan = shard_plan(&queries::total_sum_query(1)).unwrap();
    let mut faults = FaultPlan::empty(11);
    faults.events.extend_from_slice(events);
    let mut cfg = RuntimeConfig::new(2).with_faults(Arc::new(faults));
    cfg.batch_size = BATCH;
    assert_eq!(cfg.chunk_tuples() as u64, 2 * PIECE);
    run_sharded(&plan, sum_query, &cfg, tuples.to_vec()).unwrap()
}

/// What a case must produce: per degraded window its index and the
/// tuples it lost, and per stage its `(quarantines, uncovered)`.
struct Want {
    lost: &'static [(usize, u64)],
    shards: [(u64, u64); 2],
    router: (u64, u64),
}

fn check(what: &str, tuples: &[Tuple], events: &[FaultEvent], want: Want) {
    let clean = run(tuples, &[]);
    let report = run(tuples, events);
    let windows = tuples.len() as u64 / PER_WINDOW;
    assert_eq!(report.windows.len() as u64, windows, "{what}: window count");
    let show = |w: &WindowOutput| format!("{w:?}");
    for (i, (got, base)) in report.windows.iter().zip(&clean.windows).enumerate() {
        match want.lost.iter().find(|&&(w, _)| w == i) {
            Some(&(_, lost)) => {
                assert_eq!(got.window, base.window, "{what}: window {i}'s key");
                assert_eq!(got.stats.tuples, PER_WINDOW - lost, "{what}: window {i} covered");
                let deg = Degradation::from_counts(PER_WINDOW - lost, lost);
                assert_eq!(got.degradation, deg, "{what}: window {i}'s degradation");
            }
            None => assert_eq!(show(got), show(base), "{what}: window {i} was not degraded"),
        }
    }
    let shards: Vec<(u64, u64)> =
        report.shards.iter().map(|s| (s.quarantines(), s.uncovered())).collect();
    assert_eq!(shards, want.shards, "{what}: per-shard (quarantines, uncovered)");
    let router = (report.router.quarantines(), report.router.uncovered());
    assert_eq!(router, want.router, "{what}: router (quarantines, uncovered)");
    let lost: u64 = want.lost.iter().map(|&(_, n)| n).sum();
    let n = tuples.len() as u64;
    assert_eq!(report.coverage, (n - lost) as f64 / n as f64, "{what}: run coverage");
    let delivered: u64 = report.shards.iter().map(|s| s.tuples()).sum();
    assert_eq!(delivered + want.router.1, n, "{what}: every tuple delivered or lost routing");
}

fn router_panic(at_tuple: u64) -> FaultEvent {
    FaultEvent::RouterPanic { at_tuple }
}

fn shard_panic(shard: usize, at_tuple: u64) -> FaultEvent {
    FaultEvent::WorkerPanic { shard, at_tuple }
}

#[test]
fn router_and_shard_panic_in_the_same_window() {
    // The router trips at position 1300 and loses window 1 from there:
    // 700 tuples. Shard 0's 601st tuple is position 1200, the 101st of
    // its 150 window-1 tuples (1000, 1002 .. 1298): it loses all 150.
    // Window 1 keeps shard 1's 150.
    let events = [router_panic(1301), shard_panic(0, 601)];
    let want = Want { lost: &[(1, 850)], shards: [(1, 150), (0, 0)], router: (1, 700) };
    check("same window", &feed(4000), &events, want);
}

#[test]
fn router_and_shard_panic_in_adjacent_windows() {
    // The router loses window 1 from position 1300, as above, so shard 1
    // holds 500 + 150 tuples of windows 0 and 1. Its 750th tuple is then
    // position 2201, the 101st of its window 2: it loses that window's
    // 500. The router and the shard both come back live for window 3.
    let events = [router_panic(1301), shard_panic(1, 750)];
    let want = Want { lost: &[(1, 700), (2, 500)], shards: [(0, 0), (1, 500)], router: (1, 700) };
    check("router then shard", &feed(4000), &events, want);
    // The other order: shard 0 loses its 500 tuples of window 0 from its
    // 100th (position 198), and the router all of window 1 from its
    // first tuple.
    let events = [shard_panic(0, 100), router_panic(1001)];
    let want = Want { lost: &[(0, 500), (1, 1000)], shards: [(1, 500), (0, 0)], router: (1, 1000) };
    check("shard then router", &feed(4000), &events, want);
}

#[test]
fn router_trips_on_the_first_tuple_of_a_piece() {
    // Position 1024 opens the second piece of chunk 0: the router loses
    // window 1 from there to its end at position 2000.
    let events = [router_panic(PIECE + 1)];
    let want = Want { lost: &[(1, 2000 - PIECE)], shards: [(0, 0); 2], router: (1, 2000 - PIECE) };
    check("first tuple of a piece", &feed(4000), &events, want);
    // Position 3072 opens chunk 1's second piece, mid-window 3; the
    // router loses it to the end of the stream.
    let events = [router_panic(3 * PIECE + 1)];
    let want = Want { lost: &[(3, 4000 - 3 * PIECE)], shards: [(0, 0); 2], router: (1, 928) };
    check("first tuple of the last piece", &feed(4000), &events, want);
}

#[test]
fn router_trips_on_the_last_tuple_of_a_chunk() {
    // Position 4095 ends chunk 1, mid-window 4: the quarantine crosses
    // the chunk edge (and its flush of partial batches) and lifts at
    // position 5000, the first tuple of window 5.
    let events = [router_panic(4 * PIECE)];
    let want = Want { lost: &[(4, 5000 - 4095)], shards: [(0, 0); 2], router: (1, 905) };
    check("last tuple of a chunk", &feed(6000), &events, want);
}

#[test]
fn shard_trips_on_the_first_tuple_of_a_batch() {
    // Every batch a shard receives is full (1024 of its tuples a
    // chunk), so shard 1's 641st tuple opens its sixth batch: position
    // 1281, in window 1. The shard loses all 500 of its window-1 tuples.
    let k = 5 * BATCH as u64 + 1;
    let events = [shard_panic(1, k)];
    let want = Want { lost: &[(1, 500)], shards: [(0, 0), (1, 500)], router: (0, 0) };
    check("first tuple of a batch", &feed(4000), &events, want);
}

#[test]
fn shard_trips_on_the_first_tuple_of_a_window() {
    // Shard 1's 501st tuple is position 1001, the first of window 1: the
    // trip fires before the operator sees it, while the operator still
    // holds the shard's 500 window-0 tuples. Those go to window 0, the
    // tripping tuple to window 1, and the rest of window 1 is covered by
    // the respawned operator.
    let events = [shard_panic(1, 501)];
    let want = Want { lost: &[(0, 500), (1, 1)], shards: [(0, 0), (1, 501)], router: (0, 0) };
    check("first tuple of a window", &feed(4000), &events, want);
}
