//! Sampled span tracing.
//!
//! A [`SampledSpan`] wraps a histogram (raw per-span nanoseconds) and a
//! counter (total busy nanoseconds) from the registry.
//!
//! What [`SampledSpan::start`] costs:
//!
//! * **Disabled** (the registry's tracing was off at registration): one
//!   test of a flag held in the span itself and a `None` return.
//! * **Enabled, unsampled** (`2^k - 1` entries in `2^k`): the flag test
//!   plus a plain load, add and store of the span's own call counter. The
//!   counter is a `Cell`, so no locked read-modify-write and no shared
//!   cache line: the span is `Send` but not `Sync`, and the one thread
//!   that holds it owns its count. A clone starts from the original's
//!   count and advances its own.
//! * **Enabled, sampled** (1 entry in `2^k`): an `Instant` pair, two
//!   `Arc` bumps for the guard, and on drop one histogram record plus
//!   one counter add. The raw duration goes into the histogram and is
//!   scaled back up (`× 2^k`) into the busy counter, so busy time stays
//!   an unbiased estimate of total time spent in the span.

use std::cell::Cell;

use crate::hist::Histogram;
use crate::registry::{Counter, Registry};
use crate::time::Stopwatch;

/// A named span that samples 1 in `2^k` entries.
#[derive(Debug, Clone)]
pub struct SampledSpan {
    enabled: bool,
    calls: Cell<u64>,
    mask: u64,
    hist: Histogram,
    busy: Counter,
}

impl SampledSpan {
    /// Register a span in `registry`: raw durations land in the
    /// histogram `<name>_ns`, scaled busy time in the counter
    /// `<name>_busy_ns` under `label`. `sample_shift` is `k`: sample 1
    /// in `2^k` entries (0 = every entry).
    pub fn register(
        registry: &Registry,
        hist_name: &'static str,
        busy_name: &'static str,
        label: impl Into<String> + Clone,
        sample_shift: u32,
    ) -> Self {
        SampledSpan {
            enabled: registry.is_enabled(),
            calls: Cell::new(0),
            mask: (1u64 << sample_shift) - 1,
            hist: registry.histogram_labeled(hist_name, label.clone()),
            busy: registry.counter_labeled(busy_name, label),
        }
    }

    /// Enter the span. `None` when tracing is disabled or this entry is
    /// not sampled; hold the guard for the duration of the work.
    #[inline]
    pub fn start(&self) -> Option<SpanGuard> {
        if !self.enabled {
            return None;
        }
        let call = self.calls.get();
        self.calls.set(call.wrapping_add(1));
        if call & self.mask != 0 {
            return None;
        }
        Some(SpanGuard {
            hist: self.hist.clone(),
            busy: self.busy.clone(),
            scale: self.mask + 1,
            sw: Stopwatch::start(),
        })
    }
}

/// An open sampled span; records on drop.
///
/// Owns clones of the destination handles (cheap `Arc` bumps, paid only
/// on the sampled path) so a guard can be held across `&mut self` calls
/// on the instrumented object.
#[derive(Debug)]
pub struct SpanGuard {
    hist: Histogram,
    busy: Counter,
    scale: u64,
    sw: Stopwatch,
}

impl SpanGuard {
    /// Finish explicitly (identical to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.sw.elapsed_ns();
        self.hist.record(ns);
        self.busy.add(ns.saturating_mul(self.scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_never_samples() {
        let r = Registry::disabled();
        let span = SampledSpan::register(&r, "t_ns", "t_busy_ns", "", 0);
        for _ in 0..100 {
            assert!(span.start().is_none());
        }
        let snap = r.snapshot();
        assert_eq!(snap.get("t_ns").unwrap().hits(), 0);
    }

    #[test]
    fn samples_one_in_2k_and_scales_busy() {
        let r = Registry::new();
        let span = SampledSpan::register(&r, "t_ns", "t_busy_ns", "", 3);
        let mut taken = 0;
        for _ in 0..64 {
            if let Some(g) = span.start() {
                taken += 1;
                g.finish();
            }
        }
        assert_eq!(taken, 8, "1 in 2^3 of 64 calls");
        let snap = r.snapshot();
        let hist = snap.get("t_ns").unwrap();
        assert_eq!(hist.hits(), 8);
        // Busy is the histogram's raw sum scaled by 2^3.
        assert_eq!(snap.value("t_busy_ns"), hist.scalar() * 8.0);
    }

    #[test]
    fn shift_zero_records_every_entry() {
        let r = Registry::new();
        let span = SampledSpan::register(&r, "t_ns", "t_busy_ns", "x", 0);
        for _ in 0..5 {
            span.start();
        }
        assert_eq!(r.snapshot().get_labeled("t_ns", "x").unwrap().hits(), 5);
    }

    #[test]
    fn owned_counter_samples_exactly_n_of_n_times_2k() {
        for shift in [0u32, 1, 3, 6, 10] {
            for n in [1u64, 5, 37] {
                let r = Registry::new();
                let span = SampledSpan::register(&r, "t_ns", "t_busy_ns", "", shift);
                // The span moves to the thread that owns it; its count
                // travels with it.
                let taken = std::thread::spawn(move || {
                    (0..n << shift).filter_map(|_| span.start().map(SpanGuard::finish)).count()
                })
                .join()
                .unwrap();
                assert_eq!(taken as u64, n, "shift {shift}");
                let snap = r.snapshot();
                let hist = snap.get("t_ns").unwrap();
                assert_eq!(hist.hits(), n, "shift {shift}");
                assert_eq!(snap.value("t_busy_ns"), hist.scalar() * (1u64 << shift) as f64);
            }
        }
    }
}
