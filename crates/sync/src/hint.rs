//! Spin-loop shims.

/// Yield inside a spin loop.
///
/// Normal builds: `std::thread::yield_now()`. In a model run the thread
/// *blocks* until some other thread performs a write (any store, RMW,
/// cell write, or unlock) — an unbounded spin loop would otherwise make
/// exhaustive exploration diverge, and a spin that can never be
/// released by another thread's write is a livelock, which the
/// scheduler reports as a deadlock. Waits that may last go through a
/// [`crate::ParkSlot`] instead.
#[inline]
pub fn spin_yield() {
    #[cfg(feature = "model")]
    if crate::model::ctx::with(|c| c.yield_now()).is_some() {
        return;
    }
    std::thread::yield_now();
}
