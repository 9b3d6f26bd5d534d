//! Exhaustive concurrency model checks for the two hand-rolled
//! lock-free structures (`sso check`'s dynamic sibling): the metrics
//! registry write/snapshot-fold path and the SPSC shard ring under both
//! backpressure policies.
//!
//! Each positive test asserts `complete == true`: the bounded
//! interleaving space was *exhausted* with zero reported races, not
//! sampled. The `seeded_bug_*` tests plant real bugs (a `Relaxed` store
//! where `Release` is required; an off-by-one slot index; a park
//! without the re-check after the announcement) and assert the checker
//! catches them, printing the replayable schedule — the detector is
//! itself under test. A model `park` wakes only on its own slot's
//! notify, so a missed wakeup is reported as a deadlock.
//!
//! Configurations are deliberately tiny (2–3 threads, 2–4 ops each):
//! exhaustive exploration is exponential, and these shapes already
//! cover every ordering the production code paths exercise.

use std::sync::Arc;

use sso_sync::hint::spin_yield;
use sso_sync::model::{check, FailureKind, Model};
use sso_sync::Ordering::{Acquire, Relaxed, Release};
use sso_sync::{thread, ParkSlot, SyncCell, SyncUsize};
use stream_sampler::obs::Registry;
use stream_sampler::runtime::{ring, PushError};

// ---------------------------------------------------------------------------
// Registry: sharded-handle writes vs the snapshot fold
// ---------------------------------------------------------------------------

/// Two shard handles under one name write while the main thread
/// snapshots: the fold must never observe a torn (name,label) merge —
/// each key appears exactly once, and the merged counter is one of the
/// totals an atomic history allows.
#[test]
fn registry_snapshot_never_tears_the_fold() {
    let explored = check(|| {
        let r = Registry::new();
        let c0 = r.counter_labeled("rt.tuples", "shard=0");
        let r2 = r.clone();
        let worker = thread::spawn(move || {
            // A shard registering its handle and writing, concurrently
            // with the snapshot: the registration path and the fold
            // share the cell-table mutex.
            let c1 = r2.counter_labeled("rt.tuples", "shard=0");
            c1.add(2);
        });
        c0.inc();
        let snap = r.snapshot();
        // The fold merges cells by (name, label): however the mutex
        // interleaved, "rt.tuples"/"shard=0" must be a single metric.
        let folded: Vec<_> =
            snap.metrics.iter().filter(|m| m.name == "rt.tuples" && m.label == "shard=0").collect();
        assert!(folded.len() <= 1, "torn fold: {} entries for one key", folded.len());
        let v = snap.get("rt.tuples").map(|m| m.scalar()).unwrap_or(0.0);
        assert!([0.0, 1.0, 2.0, 3.0].contains(&v), "snapshot saw impossible counter total {v}");
        worker.join();
        // After the join, everything is visible: the final fold is exact.
        assert_eq!(r.snapshot().get("rt.tuples").unwrap().scalar(), 3.0);
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(explored.complete, "exploration must be exhaustive: {explored:?}");
    assert!(explored.schedules > 1, "interleavings explored: {explored:?}");
}

/// Gauge cells: `set` is a blind store (legitimate — last writer wins),
/// `add` is a CAS loop. Concurrent `add`s must not be flagged as lost
/// updates, and must both land.
#[test]
fn registry_gauge_cas_loop_is_lossless() {
    let explored = check(|| {
        let r = Registry::new();
        let g = r.gauge("rt.ring_depth");
        let g2 = r.gauge("rt.ring_depth");
        let worker = thread::spawn(move || {
            g2.add(2.0);
        });
        g.add(1.0);
        worker.join();
        assert_eq!(r.snapshot().value("rt.ring_depth"), 3.0);
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(explored.complete);
}

// ---------------------------------------------------------------------------
// Shard ring
// ---------------------------------------------------------------------------

/// Block policy: every pushed tuple arrives exactly once, in order,
/// through a ring smaller than the stream (so wraparound and the full
/// ring + blocked producer path are explored).
#[test]
fn ring_block_neither_loses_nor_duplicates() {
    let explored = check(|| {
        // Capacity 1 with two pushes: the second push finds the ring
        // full whenever the consumer lags, so the blocked-producer and
        // slot-reuse (wraparound) paths are both inside the explored
        // space while the schedule count stays exhaustible.
        let (mut tx, mut rx) = ring::<u32>(1);
        let producer = thread::spawn(move || {
            for i in 0..2 {
                tx.push(i).expect("consumer alive");
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.pop() {
            got.push(v);
        }
        producer.join();
        assert_eq!(got, vec![0, 1], "Block must be lossless and FIFO");
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(explored.complete, "exploration must be exhaustive: {explored:?}");
}

/// The consumer's park: in the schedules where the consumer finds the
/// ring empty it announces itself, re-checks and parks, and the
/// producer's push must wake it — every schedule ends, none deadlocks.
/// The producer drops only once the consumer has acknowledged the item
/// on a second ring, so the close's own notify cannot stand in for a
/// missed push notify.
#[test]
fn ring_consumer_park_never_misses_a_push() {
    let explored = check(|| {
        let (mut tx, mut rx) = ring::<u32>(1);
        let (mut ack_tx, mut ack_rx) = ring::<u32>(1);
        let producer = thread::spawn(move || {
            tx.try_push(7).expect("capacity 1 holds one item");
            assert_eq!(ack_rx.pop(), Some(7), "the consumer acknowledges");
        });
        assert_eq!(rx.pop(), Some(7), "the push reaches the parked consumer");
        ack_tx.try_push(7).expect("capacity 1 holds the acknowledgement");
        assert_eq!(rx.pop(), None, "the drop closes the ring");
        producer.join();
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(explored.complete, "exploration must be exhaustive: {explored:?}");
    assert!(explored.schedules > 1, "interleavings explored: {explored:?}");
}

/// `try_push`, the router's first attempt at every batch: whatever
/// interleaving the router and worker land in, attempted == delivered +
/// refused, delivered values keep stream order, and a counter of the
/// refusals (an obs counter) agrees with the handed-back values.
#[test]
fn ring_drop_newest_accounts_attempted_minus_delivered() {
    let explored = check(|| {
        let r = Registry::disabled();
        let dropped = r.counter("rt.dropped");
        let d2 = dropped.clone();
        let (mut tx, mut rx) = ring::<u32>(1);
        let producer = thread::spawn(move || {
            for i in 0..2u32 {
                match tx.try_push(i) {
                    Ok(()) => {}
                    Err(PushError::Full(_)) => d2.inc(),
                    Err(PushError::Closed(_)) => unreachable!("consumer outlives producer"),
                }
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.pop() {
            got.push(v);
        }
        producer.join();
        assert_eq!(
            got.len() as u64 + dropped.get(),
            2,
            "drops must equal attempted - delivered (got {got:?})"
        );
        assert!(got.windows(2).all(|w| w[0] < w[1]), "delivered keeps order: {got:?}");
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(explored.complete, "exploration must be exhaustive: {explored:?}");
}

/// Stall accounting (`rt.stalls`): one full-ring wait is ONE stall,
/// however many spin iterations the wait took. `push_tracked` returns a
/// single bool per call, so counting per `Full` observation (the bug
/// this pins against) is structurally impossible; what the exhaustive
/// exploration verifies is the other face of the contract — a push that
/// never waited must not report a stall — plus lossless FIFO hand-off.
#[test]
fn ring_push_tracked_counts_one_stall_per_wait() {
    let explored = check(|| {
        let (mut tx, mut rx) = ring::<u32>(1);
        let producer = thread::spawn(move || {
            // Asserted in-thread: a shared stall cell would add atomic
            // events and push the schedule space past exhaustion. One
            // call returns one bool, so a wait structurally cannot
            // count twice; what needs checking is that a wait-free push
            // never reports a stall.
            let first = tx.push_tracked(0).expect("consumer alive");
            assert!(!first, "first push into an empty capacity-1 ring cannot stall");
            let _second_may_stall = tx.push_tracked(1).expect("consumer alive");
        });
        let mut got = Vec::new();
        while let Some(v) = rx.pop() {
            got.push(v);
        }
        producer.join();
        assert_eq!(got, vec![0, 1], "push_tracked must stay lossless and FIFO");
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(explored.complete, "exploration must be exhaustive: {explored:?}");
    assert!(explored.schedules > 1, "interleavings explored: {explored:?}");
}

/// Spent batches travel home on a return ring nobody ever waits on: the
/// worker `try_push`es and, finding the ring full, drops the buffer;
/// the lane `try_pop`s when it needs one and, finding none, allocates.
/// Here the return ring is deliberately too small (the engine sizes it
/// so it never fills): whether the second return finds room depends on
/// whether the lane took the first one home in time. Either way the run
/// completes — nobody waits, so a lane blocked on its forward ring can
/// never be waited on in turn — and every buffer is accounted for: a
/// lost return costs the lane one allocation, never a tuple. The
/// forward ring is pre-filled and closed from the main thread, so the
/// only live race is the one under test (and no spin loop multiplies
/// the schedule space).
#[test]
fn full_return_ring_drops_the_buffer_and_never_blocks() {
    use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};
    // Deliberately invisible to the checker: tallies across schedules.
    static DROPPED_ONE: AtomicUsize = AtomicUsize::new(0);
    static DROPPED_NONE: AtomicUsize = AtomicUsize::new(0);
    let explored = check(|| {
        let (mut tx, mut rx) = ring::<u32>(2);
        let (mut home_tx, mut home_rx) = ring::<u32>(1);
        for buffer in 0..2u32 {
            tx.try_push(buffer).expect("capacity 2 holds both batches");
        }
        drop(tx);
        let worker = thread::spawn(move || {
            let mut dropped = 0usize;
            while let Some(spent) = rx.pop() {
                if home_tx.try_push(spent).is_err() {
                    dropped += 1;
                }
            }
            dropped
        });
        // The lane needs one buffer: a recycled one if any is home yet.
        let recycled = usize::from(matches!(home_rx.try_pop(), Ok(Some(_))));
        let dropped = worker.join();
        let mut left_home = 0usize;
        while let Ok(Some(_)) = home_rx.try_pop() {
            left_home += 1;
        }
        assert_eq!(recycled + left_home + dropped, 2, "every spent buffer is accounted for");
        assert!(dropped <= 1 && (dropped == 0) == (recycled + left_home == 2));
        [&DROPPED_NONE, &DROPPED_ONE][dropped].fetch_add(1, StdOrdering::Relaxed);
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(explored.complete, "exploration must be exhaustive: {explored:?}");
    assert!(
        DROPPED_ONE.load(StdOrdering::Relaxed) > 0 && DROPPED_NONE.load(StdOrdering::Relaxed) > 0,
        "both the full-ring drop and the in-time return must be explored: {explored:?}"
    );
}

// ---------------------------------------------------------------------------
// Seeded bugs: the detector must detect
// ---------------------------------------------------------------------------

/// A miniature of the ring's publish path with the one bug the `Release`
/// in `Producer::try_push` prevents: the tail store downgraded to
/// `Relaxed`. The consumer's slot read then races with the producer's
/// slot write, and the checker must say so.
#[test]
fn seeded_bug_relaxed_tail_store_is_reported() {
    struct BuggySlot {
        slot: SyncCell<Option<u32>>,
        tail: SyncUsize,
    }
    let failure = check(|| {
        let ring = Arc::new(BuggySlot { slot: SyncCell::new(None), tail: SyncUsize::new(0) });
        let r2 = ring.clone();
        let producer = thread::spawn(move || {
            unsafe { r2.slot.with_mut(|s| *s = Some(7)) };
            // BUG: must be `Release` to publish the slot write.
            r2.tail.store(1, Relaxed);
        });
        if ring.tail.load(Acquire) == 1 {
            let v = unsafe { ring.slot.with(|s| *s) };
            assert_eq!(v, Some(7));
        }
        producer.join();
    })
    .expect_err("a Relaxed tail store must be reported as a race");
    eprintln!("{failure}"); // the replayable schedule, for the log
    assert_eq!(failure.kind, FailureKind::DataRace);
    assert!(!failure.schedule.is_empty());
    assert!(!failure.trace.is_empty());
}

/// A miniature ring with an off-by-one slot index: the producer writes
/// `(tail + 1) % cap` instead of `tail % cap`, so the consumer pops a
/// slot nobody filled — caught as a torn hand-off. Also proves the
/// printed schedule replays to the same failure.
#[test]
fn seeded_bug_off_by_one_ring_index_is_reported() {
    const CAP: usize = 2;
    struct BuggyRing {
        slots: [SyncCell<Option<u32>>; CAP],
        head: SyncUsize,
        tail: SyncUsize,
    }
    let scenario = || {
        let ring = Arc::new(BuggyRing {
            slots: [SyncCell::new(None), SyncCell::new(None)],
            head: SyncUsize::new(0),
            tail: SyncUsize::new(0),
        });
        let r2 = ring.clone();
        let producer = thread::spawn(move || {
            for i in 0..2u32 {
                let tail = r2.tail.load(Relaxed);
                while tail.wrapping_sub(r2.head.load(Acquire)) >= CAP {
                    spin_yield();
                }
                // BUG: fills the *next* slot, not the one `tail` names.
                unsafe { r2.slots[(tail + 1) % CAP].with_mut(|s| *s = Some(i)) };
                r2.tail.store(tail.wrapping_add(1), Release);
            }
        });
        for expect in 0..2u32 {
            let head = ring.head.load(Relaxed);
            while ring.tail.load(Acquire) == head {
                spin_yield();
            }
            let v = unsafe { ring.slots[head % CAP].with_mut(|s| s.take()) };
            assert_eq!(v, Some(expect), "ring handed over a torn or empty slot");
            ring.head.store(head.wrapping_add(1), Release);
        }
        producer.join();
    };
    let failure = check(scenario).expect_err("off-by-one slot index must be caught");
    eprintln!("{failure}"); // the replayable schedule, for the log
    assert!(
        matches!(failure.kind, FailureKind::Panic | FailureKind::DataRace),
        "unexpected failure kind: {failure}"
    );
    assert!(!failure.schedule.is_empty());
    let replayed = Model::new()
        .replay(failure.schedule.clone())
        .check(scenario)
        .expect_err("replaying the printed schedule reproduces the bug");
    assert_eq!(replayed.kind, failure.kind);
}

/// The lost wakeup the re-check prevents: a waiter that announces
/// itself and parks without looking again sleeps through a notify that
/// ran between its last check and its announcement (the notifier saw
/// nobody waiting). Nothing else can wake a model park, so the checker
/// reports a deadlock, and the printed schedule replays to it.
#[test]
fn seeded_bug_skipped_recheck_is_a_lost_wakeup() {
    let scenario = || {
        let tail = Arc::new(SyncUsize::new(0));
        let items = Arc::new(ParkSlot::new());
        let (t2, i2) = (tail.clone(), items.clone());
        let producer = thread::spawn(move || {
            t2.store(1, Release);
            i2.notify();
        });
        while tail.load(Acquire) == 0 {
            items.announce();
            // BUG: parks without re-checking `tail` after the announcement.
            items.park();
        }
        producer.join();
    };
    let failure = check(scenario).expect_err("a park without the re-check must be caught");
    eprintln!("{failure}"); // the replayable schedule, for the log
    assert_eq!(failure.kind, FailureKind::Deadlock, "unexpected failure kind: {failure}");
    assert!(!failure.schedule.is_empty());
    let replayed = Model::new()
        .replay(failure.schedule.clone())
        .check(scenario)
        .expect_err("replaying the printed schedule reproduces the lost wakeup");
    assert_eq!(replayed.kind, FailureKind::Deadlock);
}

// ---------------------------------------------------------------------------
// Profile lanes: record + one-Release publish vs a concurrent collector
// ---------------------------------------------------------------------------

/// The flight-recorder lane protocol (`sso-profile`): a writer records
/// a batch of events with `Relaxed` stores and publishes them with one
/// `Release` head store; a concurrent collector `Acquire`-loads the
/// head. The collector must see the batch all-or-nothing — never a
/// prefix, never a torn event — and the post-join read is exact.
#[test]
fn profile_lane_publish_is_all_or_nothing() {
    use stream_sampler::profile::{DumpReason, Event, LaneKind, Profiler, ProfilerConfig, Stage};
    let explored = check(|| {
        let p = Profiler::new(ProfilerConfig { ring_capacity: 4, dump_path: None });
        let writer = {
            let mut lane = p.lane(LaneKind::Worker, 0);
            thread::spawn(move || {
                // One batch: two records, one publish — the engine's
                // per-batch budget (Process + Flush, then publish).
                lane.record(Event::new(Stage::Process, 1, 2).shard(0).window(0).batch(0).aux(7));
                lane.record(Event::new(Stage::Flush, 3, 1).shard(0).window(0));
                lane.publish();
            })
        };
        let live = p.dump(DumpReason::Manual);
        assert_eq!(live.lanes.len(), 1);
        let seen = &live.lanes[0].events;
        // Head moves 0 -> 2 in one Release store: a racing collector
        // sees the whole batch or nothing, and what it sees is intact.
        assert!(seen.is_empty() || seen.len() == 2, "partial batch visible: {}", seen.len());
        if seen.len() == 2 {
            assert_eq!(seen[0].stage, Stage::Process);
            assert_eq!(seen[0].aux, 7, "Acquire head load must order slot reads after stores");
            assert_eq!(seen[1].stage, Stage::Flush);
        }
        writer.join();
        let settled = p.dump(DumpReason::Manual);
        assert_eq!(settled.lanes[0].events.len(), 2, "post-join read is authoritative");
        assert_eq!(settled.lanes[0].dropped, 0);
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(explored.complete, "exploration must be exhaustive: {explored:?}");
    assert!(explored.schedules > 1, "interleavings explored: {explored:?}");
}

/// The ring-depth accounting protocol around `push_tracked_with`
/// (regression for the gauge sampled only at batch boundaries): the
/// router counts a batch *at wait entry* — the moment the hook runs —
/// or at the post-push boundary, never both and never twice. Counts
/// travel back through `join` rather than a shared gauge cell: every
/// extra shared write bumps the model's wake epoch and re-runs both
/// spin loops, pushing the schedule space past exhaustion, and the
/// balance property only needs the totals.
#[test]
fn ring_depth_accounting_balances_across_wait_entry() {
    let explored = check(|| {
        let (mut tx, mut rx) = ring::<u32>(1);
        let producer = thread::spawn(move || {
            let (mut at_wait_entry, mut at_boundary) = (0usize, 0usize);
            for item in 0..2u32 {
                let mut waited = false;
                let stalled = tx
                    .push_tracked_with(item, || {
                        waited = true;
                        // Wait entry: the batch is counted resident
                        // *now*, not at the next batch boundary.
                        at_wait_entry += 1;
                    })
                    .expect("consumer alive");
                assert_eq!(stalled, waited, "hook must fire exactly on stalled pushes");
                if !waited {
                    at_boundary += 1;
                }
            }
            (at_wait_entry, at_boundary)
        });
        let mut popped = 0usize;
        while rx.pop().is_some() {
            popped += 1;
        }
        let (at_wait_entry, at_boundary) = producer.join();
        assert_eq!(popped, 2);
        // Balance: every batch the consumer drained was counted into
        // the gauge exactly once — at wait entry or at the boundary —
        // so a decrement-per-pop scheme returns the depth to zero.
        assert_eq!(
            at_wait_entry + at_boundary,
            popped,
            "each resident batch counted exactly once ({at_wait_entry} waits, {at_boundary} boundary)"
        );
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert!(explored.complete, "exploration must be exhaustive: {explored:?}");
    assert!(explored.schedules > 1, "interleavings explored: {explored:?}");
}
