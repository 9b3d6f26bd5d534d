//! Blocking hand-off: one waiter parks on a [`ParkSlot`], any number of
//! notifiers wake it.
//!
//! The protocol is the classic announce / re-check / notify handshake:
//!
//! * the **waiter** finds its condition false, [`ParkSlot::announce`]s
//!   itself (a `SeqCst` store of the slot's `waiting` flag, then a
//!   `SeqCst` fence), re-checks the condition, and only if it is still
//!   false calls [`ParkSlot::park`]; a re-check that succeeds
//!   [`ParkSlot::withdraw`]s instead;
//! * the **notifier** first makes the condition true (a push, a pop, a
//!   close, a publish), then calls [`ParkSlot::notify`]: a `SeqCst`
//!   fence and one load of `waiting`, and an unpark only if it is set.
//!
//! Each side stores one location and then loads the other's — the
//! store-buffering shape, where plain `Release`/`Acquire` allows both
//! loads to miss both stores (x86 reorders a store with a later load).
//! The two `SeqCst` fences forbid that: whichever fence comes first in
//! the single total order, the other side's load sees the store before
//! it. So either the notifier sees the announcement and unparks, or the
//! waiter's re-check sees the new state and never parks — a wakeup can
//! not be lost. Skipping the re-check reopens the window, and the model
//! checker reports it as a deadlock (`tests/model_check.rs`).
//!
//! The waiting thread is registered at [`ParkSlot::announce`], not when
//! the slot is made: the endpoint that owns a slot may be built on one
//! thread and waited on from another. A notification whose waiter has
//! already woken leaves a stale unpark token behind, so a `park` may
//! return early; callers always loop and re-check. The notifier's cost
//! when nobody waits is one fence and one load — callers pay it once
//! per batch or chunk, never per tuple.
//!
//! Under the `model` feature, a `park` inside a model run blocks until
//! *this slot* is notified — not until any other write — so a skipped
//! notify surfaces as a deadlock instead of being hidden by an
//! unrelated store.

use std::sync::atomic::fence;
use std::sync::Mutex;
use std::thread::Thread;

use crate::Ordering::{Relaxed, SeqCst};
use crate::SyncBool;

/// One waiter's parking place; see the module docs for the protocol.
#[derive(Debug, Default)]
pub struct ParkSlot {
    /// Set by the waiter between its announcement and its wake.
    waiting: SyncBool,
    /// The thread that last announced itself. Only a notifier that saw
    /// `waiting` set reads it, so the lock is off the fast path.
    thread: Mutex<Option<Thread>>,
}

impl ParkSlot {
    /// A slot nobody waits on yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare that the calling thread is about to park. The caller
    /// must re-check its condition afterwards, then [`Self::park`] or
    /// [`Self::withdraw`].
    pub fn announce(&self) {
        if !in_model() {
            let mut thread = self.thread.lock().expect("park slot poisoned");
            let current = std::thread::current();
            if thread.as_ref().map(Thread::id) != Some(current.id()) {
                *thread = Some(current);
            }
        }
        self.waiting.store(true, SeqCst);
        fence(SeqCst);
    }

    /// The re-check after [`Self::announce`] succeeded: stop waiting.
    pub fn withdraw(&self) {
        self.waiting.store(false, Relaxed);
    }

    /// Block until notified (or spuriously woken); the announcement is
    /// cleared on return.
    pub fn park(&self) {
        #[cfg(feature = "model")]
        let modeled = crate::model::ctx::with(|c| c.park(self.token())).is_some();
        #[cfg(not(feature = "model"))]
        let modeled = false;
        if !modeled {
            std::thread::park();
        }
        self.withdraw();
    }

    /// Wake the waiter if one has announced itself. Call after the
    /// state change the waiter is waiting for.
    pub fn notify(&self) {
        fence(SeqCst);
        if !self.waiting.load(SeqCst) {
            return;
        }
        #[cfg(feature = "model")]
        if crate::model::ctx::with(|c| c.unpark(self.token())).is_some() {
            return;
        }
        if let Some(thread) = self.thread.lock().expect("park slot poisoned").as_ref() {
            thread.unpark();
        }
    }

    /// The model location of this slot's unpark token: distinct from
    /// `waiting`'s, so parking does not alias the flag's accesses.
    #[cfg(feature = "model")]
    fn token(&self) -> usize {
        &self.thread as *const _ as usize
    }
}

#[cfg(feature = "model")]
fn in_model() -> bool {
    crate::model::ctx::in_model()
}

#[cfg(not(feature = "model"))]
fn in_model() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ordering::{Acquire, Release};
    use std::sync::Arc;

    #[test]
    fn notify_before_park_is_not_lost() {
        let slot = Arc::new(ParkSlot::new());
        let flag = Arc::new(SyncBool::new(false));
        let (s2, f2) = (slot.clone(), flag.clone());
        let waker = crate::thread::spawn(move || {
            f2.store(true, Release);
            s2.notify();
        });
        while !flag.load(Acquire) {
            slot.announce();
            if flag.load(Acquire) {
                slot.withdraw();
                break;
            }
            slot.park();
        }
        waker.join();
    }
}
