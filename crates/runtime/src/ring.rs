//! The shard ring: a bounded single-producer single-consumer queue on
//! the [`sso_sync`] facade, replacing the vendored channel so the
//! hand-off protocol is model-checkable.
//!
//! Classic Lamport design: `head`/`tail` are *monotonic* counters (slot
//! index is `counter % capacity`, so full/empty never alias), slots are
//! [`SyncCell`]s written by exactly one side at a time. The protocol's
//! memory orderings — and why each one is required — are verified by
//! the `model_check` suite and written up in `DESIGN.md`:
//!
//! * producer publishes a slot with a `Release` store of `tail`; the
//!   consumer's `Acquire` load of `tail` orders the slot read after the
//!   slot write;
//! * consumer retires a slot with a `Release` store of `head`; the
//!   producer's `Acquire` load of `head` orders slot *reuse* after the
//!   consumer's take;
//! * the two side-closed flags are `Release`-stored on drop and
//!   `Acquire`-checked after an empty/full observation, so a final
//!   hand-off is never missed.
//!
//! A side that must wait — the consumer on an empty ring, the producer
//! on a full one — parks instead of spinning, on a
//! [`sso_sync::ParkSlot`]: it announces itself with a `SeqCst` store,
//! re-checks the indices, and parks only if the ring is still empty
//! (full). Every push, pop and close ends with the other side's
//! `notify` — a `SeqCst` fence and one load of its announcement, so
//! one per batch — and unparks it only if it announced. The fences
//! pair the announcement with the index store: without them a waiter
//! could miss the push that landed just before it announced while the
//! pusher missed the announcement, and sleep forever. Each ring owns
//! both slots. In the runtime there is one forward ring per shard, the
//! pump producing and the shard's worker consuming, and beside it one
//! return ring taking spent batches the other way.
//!
//! Single-producer / single-consumer is enforced structurally: the two
//! endpoint types are not `Clone` and their methods take `&mut self`.

use std::sync::Arc;

#[cfg(test)]
use sso_sync::hint::spin_yield;
use sso_sync::Ordering::{Acquire, Relaxed, Release};
use sso_sync::{ParkSlot, SyncBool, SyncCell, SyncUsize};

struct Shared<T> {
    slots: Box<[SyncCell<Option<T>>]>,
    /// Next slot the consumer takes (monotonic; slot = head % capacity).
    head: SyncUsize,
    /// Next slot the producer fills (monotonic; slot = tail % capacity).
    tail: SyncUsize,
    /// The producer is gone: once the ring drains, `pop` returns `None`.
    producer_done: SyncBool,
    /// The consumer is gone: pushes fail fast instead of blocking.
    consumer_gone: SyncBool,
    /// Where a producer waits for room: notified by pops and by the
    /// consumer's drop.
    room: ParkSlot,
    /// Where the consumer waits for items: notified by pushes and by the
    /// producer's drop.
    items: ParkSlot,
}

/// Why a push did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is full; the value is handed back (the router then
    /// waits in [`Producer::push`]).
    Full(T),
    /// The consumer is gone; the value is handed back.
    Closed(T),
}

/// Create a bounded SPSC ring holding at most `capacity` items.
///
/// # Panics
/// If `capacity` is zero.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    let shared = Arc::new(Shared {
        slots: (0..capacity).map(|_| SyncCell::new(None)).collect(),
        head: SyncUsize::new(0),
        tail: SyncUsize::new(0),
        producer_done: SyncBool::new(false),
        consumer_gone: SyncBool::new(false),
        room: ParkSlot::new(),
        items: ParkSlot::new(),
    });
    (Producer { shared: shared.clone() }, Consumer { shared })
}

/// The write end of a ring. Not `Clone`: exactly one producer.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

/// The read end of a ring. Not `Clone`: exactly one consumer.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

impl<T: Send> Producer<T> {
    /// Enqueue without waiting.
    pub fn try_push(&mut self, value: T) -> Result<(), PushError<T>> {
        let s = &*self.shared;
        if s.consumer_gone.load(Acquire) {
            return Err(PushError::Closed(value));
        }
        // `tail` is only written by this side; `Relaxed` suffices.
        let tail = s.tail.load(Relaxed);
        // `Acquire` on `head` orders the slot overwrite below after the
        // consumer's take of the previous occupant.
        let head = s.head.load(Acquire);
        if tail.wrapping_sub(head) >= s.slots.len() {
            return Err(PushError::Full(value));
        }
        // SAFETY: `head <= tail < head + capacity` makes this slot
        // exclusively the producer's until `tail` advances past it.
        unsafe { s.slots[tail % s.slots.len()].with_mut(|slot| *slot = Some(value)) };
        // `Release` publishes the slot write to the consumer's
        // `Acquire` load of `tail`.
        s.tail.store(tail.wrapping_add(1), Release);
        s.items.notify();
        Ok(())
    }

    /// Full with the consumer still there: the wait's re-check.
    fn full(&self) -> bool {
        let s = &*self.shared;
        !s.consumer_gone.load(Acquire)
            && s.tail.load(Relaxed).wrapping_sub(s.head.load(Acquire)) >= s.slots.len()
    }

    /// Enqueue, waiting while the ring is full. `Err` hands the value
    /// back if the consumer is gone.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        self.push_tracked(value).map(|_| ())
    }

    /// [`Producer::push`], reporting whether the call had to wait:
    /// `Ok(true)` means the ring was full at least once before the value
    /// went in. One full-ring wait is one stall, *however many times the
    /// producer woke to a still-full ring* — callers that count stalls
    /// must not be able to over-count (the `model_check` suite pins
    /// this).
    pub fn push_tracked(&mut self, value: T) -> Result<bool, T> {
        self.push_tracked_with(value, || {})
    }

    /// [`Producer::push_tracked`] with a wait-entry hook:
    /// `on_first_stall` runs **exactly once**, at the first full-ring
    /// observation, before the first park — not per retry. This is
    /// where callers record "a batch is now waiting" state (e.g. the
    /// `rt.ring_depth` gauge), so stalls shorter than one batch are
    /// visible the moment they begin rather than only at the next batch
    /// boundary. The once-per-wait contract is model-checked.
    pub fn push_tracked_with(
        &mut self,
        mut value: T,
        mut on_first_stall: impl FnMut(),
    ) -> Result<bool, T> {
        let mut stalled = false;
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(stalled),
                Err(PushError::Closed(v)) => return Err(v),
                Err(PushError::Full(v)) => {
                    if !stalled {
                        stalled = true;
                        on_first_stall();
                    }
                    value = v;
                    let room = &self.shared.room;
                    room.announce();
                    if self.full() {
                        room.park();
                    } else {
                        room.withdraw();
                    }
                }
            }
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // `Release` so a consumer that observes the flag also observes
        // every push before it.
        self.shared.producer_done.store(true, Release);
        self.shared.items.notify();
    }
}

impl<T: Send> Consumer<T> {
    /// Dequeue without waiting. `Ok(None)` means currently empty but
    /// the producer may still push; `Err(())` means drained and closed.
    #[allow(clippy::result_unit_err)]
    pub fn try_pop(&mut self) -> Result<Option<T>, ()> {
        let s = &*self.shared;
        // `head` is only written by this side; `Relaxed` suffices.
        let head = s.head.load(Relaxed);
        // `Acquire` pairs with the producer's `Release` store: the slot
        // read below sees the push that made `tail` advance.
        if s.tail.load(Acquire) == head {
            if !s.producer_done.load(Acquire) {
                return Ok(None);
            }
            // The producer's last push happened before it set the flag;
            // re-check `tail` so that push is not missed. If it landed
            // between the two loads, fall through and take it now —
            // returning `Ok(None)` here would make a caller wait for a
            // wakeup that never comes.
            if s.tail.load(Acquire) == head {
                return Err(());
            }
        }
        // SAFETY: `head < tail` makes this slot exclusively the
        // consumer's until `head` advances past it.
        let value = unsafe { s.slots[head % s.slots.len()].with_mut(|slot| slot.take()) };
        // `Release` hands the emptied slot back to the producer's
        // `Acquire` load of `head`.
        s.head.store(head.wrapping_add(1), Release);
        s.room.notify();
        Ok(Some(value.expect("ring slot published but empty")))
    }

    /// Empty with the producer still there: the wait's re-check.
    fn empty(&self) -> bool {
        let s = &*self.shared;
        s.tail.load(Acquire) == s.head.load(Relaxed) && !s.producer_done.load(Acquire)
    }

    /// Dequeue, parking while the ring is empty. `None` means the
    /// producer is gone and the ring is drained.
    pub fn pop(&mut self) -> Option<T> {
        loop {
            match self.try_pop() {
                Ok(Some(v)) => return Some(v),
                Err(()) => return None,
                Ok(None) => {
                    let items = &self.shared.items;
                    items.announce();
                    if self.empty() {
                        items.park();
                    } else {
                        items.withdraw();
                    }
                }
            }
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_gone.store(true, Release);
        self.shared.room.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = ring::<u32>(4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(9), Err(PushError::Full(9)));
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Ok(Some(i)));
        }
        assert_eq!(rx.try_pop(), Ok(None));
    }

    #[test]
    fn pop_drains_after_producer_drop() {
        let (mut tx, mut rx) = ring::<u32>(8);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        drop(tx);
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn push_fails_after_consumer_drop() {
        let (mut tx, rx) = ring::<u32>(2);
        drop(rx);
        assert_eq!(tx.try_push(5), Err(PushError::Closed(5)));
        assert_eq!(tx.push(6), Err(6));
    }

    #[test]
    fn cross_thread_handoff_is_lossless() {
        const N: u32 = 10_000;
        let (mut tx, mut rx) = ring::<u32>(8);
        let producer = sso_sync::thread::spawn(move || {
            for i in 0..N {
                tx.push(i).unwrap();
            }
        });
        let mut expected = 0;
        while let Some(v) = rx.pop() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, N);
        producer.join();
    }

    #[test]
    fn wait_entry_hook_fires_once_per_wait_only_when_full() {
        let (mut tx, mut rx) = ring::<u32>(1);
        let mut fired = 0u32;
        assert_eq!(tx.push_tracked_with(1, || fired += 1), Ok(false));
        assert_eq!(fired, 0, "no hook on an un-stalled push");
        // The consumer drains only after the hook has run, so the
        // second push deterministically observes a full ring — and the
        // hook still runs exactly once across all the spins that follow.
        let gate = Arc::new(SyncBool::new(false));
        let gate2 = gate.clone();
        let consumer = sso_sync::thread::spawn(move || {
            while !gate2.load(Acquire) {
                spin_yield();
            }
            assert_eq!(rx.pop(), Some(1));
            assert_eq!(rx.pop(), Some(2));
            assert_eq!(rx.pop(), None);
        });
        let stalled = tx
            .push_tracked_with(2, || {
                fired += 1;
                gate.store(true, Release);
            })
            .unwrap();
        assert!(stalled);
        assert_eq!(fired, 1);
        drop(tx);
        consumer.join();
    }

    #[test]
    fn wraparound_reuses_slots() {
        let (mut tx, mut rx) = ring::<u64>(2);
        for round in 0..100u64 {
            tx.try_push(round * 2).unwrap();
            tx.try_push(round * 2 + 1).unwrap();
            assert_eq!(rx.try_pop(), Ok(Some(round * 2)));
            assert_eq!(rx.try_pop(), Ok(Some(round * 2 + 1)));
        }
    }
}
