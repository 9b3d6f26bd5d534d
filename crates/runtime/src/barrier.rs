//! The window-aligned merge-finalize barrier.
//!
//! Each worker shard deposits its final per-run partial (its window
//! outputs) into its own slot and announces it with one `Release`
//! increment of the published count; the merging thread waits for the
//! count to reach the shard total with an `Acquire` load and only then
//! reads the slots. The increments form a single release sequence on
//! the counter, so the final `Acquire` load synchronizes with *every*
//! publisher — the merge can never observe a shard's slot before that
//! shard's last write to it. The `model_check` suite verifies exactly
//! this invariant (and that downgrading the increment to `Relaxed` is
//! reported as a data race).
//!
//! The merging thread parks while it waits, on a
//! [`sso_sync::ParkSlot`]: it announces itself with a `SeqCst` store,
//! re-checks the count, and parks only if shards are still missing.
//! Every publish ends with a `notify` — a `SeqCst` fence, then one load
//! of the announcement — and unparks the merger only if it announced.
//! The fences order each side's store before its load of the other's,
//! so the last publish and the merger's announcement cannot both go
//! unseen.

use std::sync::Arc;
use std::time::Duration;

use sso_obs::Stopwatch;
use sso_sync::Ordering::{Acquire, Release};
use sso_sync::{ParkSlot, SyncBool, SyncCell, SyncUsize};

/// Collects one `T` per shard; see the module docs for the protocol.
pub struct MergeBarrier<T> {
    slots: Box<[SyncCell<Option<T>>]>,
    /// Per-slot published flags, for the deadline path: `take_ready`
    /// must know *which* slots are safe to read, not just how many.
    ready: Box<[SyncBool]>,
    published: SyncUsize,
    /// Where the merging thread waits; every publish notifies it.
    merger: ParkSlot,
}

impl<T: Send> MergeBarrier<T> {
    /// A barrier expecting one publish per shard.
    pub fn new(shards: usize) -> Arc<Self> {
        Arc::new(MergeBarrier {
            slots: (0..shards).map(|_| SyncCell::new(None)).collect(),
            ready: (0..shards).map(|_| SyncBool::new(false)).collect(),
            published: SyncUsize::new(0),
            merger: ParkSlot::new(),
        })
    }

    /// Deposit shard `shard`'s final partial. Call at most once per
    /// shard; the slot write is exclusive because each shard owns its
    /// own index.
    pub fn publish(&self, shard: usize, value: T) {
        // SAFETY: shard-indexed slot, written only by that shard's
        // worker, before the Release stores below publish it.
        unsafe { self.slots[shard].with_mut(|slot| *slot = Some(value)) };
        self.ready[shard].store(true, Release);
        self.published.fetch_add(1, Release);
        self.merger.notify();
    }

    /// Wait until every shard has published, then take all partials in
    /// shard order (`None` entries would mean a double-take and panic).
    pub fn wait_all(&self) -> Vec<T> {
        self.park_until_published(None);
        self.slots
            .iter()
            .enumerate()
            .map(|(shard, slot)| {
                // SAFETY: the Acquire load above synchronized with every
                // publisher's Release increment, so all slot writes
                // happened-before these reads and no writer remains.
                unsafe { slot.with_mut(|s| s.take()) }
                    .unwrap_or_else(|| panic!("shard {shard} never published"))
            })
            .collect()
    }

    /// Park until every shard has published or `timeout` has passed,
    /// whichever comes first — the window-deadline wait ahead of
    /// [`Self::take_ready`].
    pub fn wait_timeout(&self, timeout: Duration) {
        self.park_until_published(Some(timeout));
    }

    fn park_until_published(&self, timeout: Option<Duration>) {
        let all = || self.published.load(Acquire) >= self.slots.len();
        let clock = timeout.map(|t| (t, Stopwatch::start()));
        while !all() {
            let left = match clock {
                None => None,
                Some((t, sw)) => match t.checked_sub(sw.elapsed()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return,
                },
            };
            self.merger.announce();
            if all() {
                self.merger.withdraw();
                return;
            }
            match left {
                None => self.merger.park(),
                Some(left) => self.merger.park_timeout(left),
            }
        }
    }

    /// Take the partials of every shard that has published *so far*,
    /// leaving `None` in the positions of shards that have not — the
    /// window-deadline finalize path, where stragglers are cut off
    /// rather than waited for. Each taken slot's read is ordered after
    /// its publisher's write by the per-slot `Acquire`/`Release` flag;
    /// unpublished slots are never touched, so a straggler publishing
    /// concurrently with this call is safe (its flag is simply seen as
    /// false and its slot left alone).
    pub fn take_ready(&self) -> Vec<Option<T>> {
        self.ready
            .iter()
            .zip(self.slots.iter())
            .map(|(ready, slot)| {
                if ready.load(Acquire) {
                    // SAFETY: the Acquire load of this slot's flag
                    // synchronized with its publisher's Release store,
                    // so the slot write happened-before this take.
                    unsafe { slot.with_mut(|s| s.take()) }
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_in_shard_order() {
        let b = MergeBarrier::new(3);
        b.publish(2, "c");
        b.publish(0, "a");
        b.publish(1, "b");
        assert_eq!(b.wait_all(), vec!["a", "b", "c"]);
    }

    #[test]
    fn waits_for_concurrent_publishers() {
        let b = MergeBarrier::new(4);
        let handles: Vec<_> = (0..4)
            .map(|shard| {
                let b = b.clone();
                sso_sync::thread::spawn(move || b.publish(shard, shard * 10))
            })
            .collect();
        let got = b.wait_all();
        assert_eq!(got, vec![0, 10, 20, 30]);
        for h in handles {
            h.join();
        }
    }

    #[test]
    fn take_ready_skips_stragglers_and_sees_late_publishers() {
        let b = MergeBarrier::new(3);
        b.publish(2, "c");
        b.publish(0, "a");
        assert_eq!(b.take_ready(), vec![Some("a"), None, Some("c")]);
        // A straggler publishing after the cut still lands; a second
        // take picks it up (taken slots stay empty).
        b.publish(1, "b");
        assert_eq!(b.take_ready(), vec![None, Some("b"), None]);
    }

    #[test]
    fn wait_timeout_returns_at_the_deadline_or_the_last_publish() {
        let b = MergeBarrier::new(2);
        b.publish(0, 1);
        let sw = Stopwatch::start();
        b.wait_timeout(Duration::from_millis(5));
        assert!(sw.elapsed() >= Duration::from_millis(5), "a straggler holds it to the deadline");
        let late = {
            let b = b.clone();
            sso_sync::thread::spawn(move || b.publish(1, 2))
        };
        let sw = Stopwatch::start();
        b.wait_timeout(Duration::from_secs(60));
        assert!(sw.elapsed() < Duration::from_secs(60), "the last publish wakes it");
        assert_eq!(b.wait_all(), vec![1, 2]);
        late.join();
    }

    #[test]
    #[should_panic(expected = "never published")]
    fn double_take_is_a_bug() {
        let b = MergeBarrier::new(1);
        b.publish(0, 7);
        b.wait_all();
        b.wait_all();
    }
}
