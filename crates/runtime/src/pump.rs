//! The pump: the calling thread's end of the sharded pipeline.
//!
//! The source is pulled into one fixed-length *chunk*, which the same
//! thread then routes into the shards' rings (see [`crate::engine`])
//! before pulling the next. Chunk `c` holds stream positions
//! `c * chunk_len ..`, so routing knows every tuple's global position
//! without counting, and an unbounded source runs in bounded memory.
//!
//! The chunk buffer is refilled in place: routing trades every tuple it
//! sends for a dead one from a recycled batch, and the pump overwrites
//! the dead tuples ([`TupleSource`]). In steady state the pump allocates
//! neither chunks nor tuples.

use sso_obs::Counter;
use sso_profile::{DumpReason, Event as ProfEvent, LaneKind, Profiler, Stage as ProfStage};
use sso_sync::Ordering::Release;
use sso_sync::SyncBool;
use sso_types::{Tuple, Value};

/// Batches' worth of tuples per chunk. Long enough that the per-chunk
/// flush (one partial batch per shard) is noise next to the full
/// batches, short enough that a lightly loaded shard's tuples do not
/// wait long for it.
pub(crate) const CHUNK_BATCHES: usize = 16;

/// How many tuples ahead of the one in hand a stage asks the cache for.
pub(crate) const PREFETCH_AHEAD: usize = 8;

/// Bytes per cache line on every host this runs on.
const LINE: usize = 64;

/// The address of every cache line the bytes `[addr, addr + len)`
/// touch, once each and in order: from `addr` aligned down to a line
/// through the line holding the last byte. A block that does not start
/// on a line spans one line more than its length alone suggests, so
/// stepping `LINE` bytes from `addr` misses the last one.
pub(crate) fn cache_lines(addr: usize, len: usize) -> impl Iterator<Item = usize> {
    let first = addr & !(LINE - 1);
    let end = if len == 0 { first } else { addr + len };
    (first..end).step_by(LINE)
}

/// Ask the cache for a recycled tuple's `values` (all of them, or the
/// columns a stage reads) ahead of use. They were last touched by
/// another stage on another core, so each first touch is a cross-core
/// miss; requested a few tuples early, the misses overlap instead of
/// stalling one after the other. Every line the values span is
/// requested ([`cache_lines`]): the allocator aligns them to 16 bytes,
/// not 64, so a 192-byte packet tuple usually spans four lines, not
/// three. `write` asks for the lines in exclusive state, for a tuple
/// about to be overwritten. A hint only: it never faults and changes no
/// value.
#[inline(always)]
pub(crate) fn prefetch(values: &[Value], write: bool) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0, _MM_HINT_T0};
        let start = values.as_ptr() as usize;
        for line in cache_lines(start, std::mem::size_of_val(values)) {
            let line = std::ptr::without_provenance::<i8>(line);
            // SAFETY: SSE is part of the x86_64 baseline, and a prefetch
            // never dereferences its address.
            unsafe {
                if write {
                    _mm_prefetch::<_MM_HINT_ET0>(line);
                } else {
                    _mm_prefetch::<_MM_HINT_T0>(line);
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (values, write);
}

/// Where [`crate::run_sharded`] pulls its tuples from.
///
/// Any `IntoIterator<Item = Tuple>` is a source (each yielded tuple
/// replaces a recycled one, which is dropped); a [`Refill`] source
/// writes into the recycled tuple instead, which is what keeps the
/// packet path free of per-tuple allocation.
pub trait TupleSource {
    /// The pull function: overwrite the tuple with the stream's next
    /// one and return `true`, or return `false` at end of stream
    /// (leaving the tuple unspecified).
    fn into_refill(self) -> impl FnMut(&mut Tuple) -> bool;
}

impl<I: IntoIterator<Item = Tuple>> TupleSource for I {
    fn into_refill(self) -> impl FnMut(&mut Tuple) -> bool {
        let mut tuples = self.into_iter();
        move |slot| tuples.next().map(|t| *slot = t).is_some()
    }
}

/// A [`TupleSource`] given directly as its pull function.
pub struct Refill<F>(pub F);

impl<F: FnMut(&mut Tuple) -> bool> TupleSource for Refill<F> {
    fn into_refill(self) -> impl FnMut(&mut Tuple) -> bool {
        self.0
    }
}

/// Pump the source dry (or up to the crash trigger), handing each
/// chunk to `route` with its first stream position and whether the
/// injected crash fired inside it (the chunk is then everything before
/// the trigger). `route` returns `false` to stop the pump. Returns the
/// trigger position if the injected crash fired.
pub(crate) fn pump(
    mut next: impl FnMut(&mut Tuple) -> bool,
    chunk_len: usize,
    crash_at: Option<u64>,
    crashed: &SyncBool,
    fresh: &Counter,
    profile: Option<&Profiler>,
    mut route: impl FnMut(&mut [Tuple], u64, bool) -> bool,
) -> Option<u64> {
    let mut trace = profile.map(|p| (p, p.lane(LaneKind::Low, 0)));
    let mut pulled = 0u64;
    let mut fired = None;
    fresh.inc();
    let mut tuples = Vec::with_capacity(chunk_len);
    for seq in 0u64.. {
        let t0 = trace.as_ref().map(|(p, _)| p.now_ns());
        let (mut live, mut ended, mut crash) = (0usize, false, false);
        while live < chunk_len {
            if live == tuples.len() {
                tuples.push(Tuple::empty());
            }
            if let Some(ahead) = tuples.get(live + PREFETCH_AHEAD) {
                prefetch(ahead.values(), true);
            }
            if !next(&mut tuples[live]) {
                ended = true;
                break;
            }
            pulled += 1;
            if crash_at == Some(pulled) {
                // The arriving trigger tuple kills the "process": it and
                // everything after it is lost.
                crash = true;
                break;
            }
            live += 1;
        }
        if crash {
            // Raised before routing ends and the rings close, so a worker
            // that finds its ring closed sees it.
            crashed.store(true, Release);
            fired = crash_at;
            if let Some(p) = profile {
                p.trigger(DumpReason::Crash);
            }
        }
        if live == 0 && !crash {
            break;
        }
        if let (Some((p, events)), Some(t0)) = (trace.as_mut(), t0) {
            events.record(
                ProfEvent::new(ProfStage::Low, t0, p.now_ns().saturating_sub(t0)).aux(live as u64),
            );
            events.publish();
        }
        let go_on = route(&mut tuples[..live], seq * chunk_len as u64, crash);
        if ended || crash || !go_on {
            break;
        }
    }
    fired
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_lines_cover_each_touched_line_once() {
        // A base that is itself line-aligned, so `align` is the block's
        // offset within its first line.
        let base = 1 << 20;
        // A packet tuple: eight 24-byte values in a block the allocator
        // aligned to 16 bytes spans four lines, not three.
        assert_eq!(cache_lines(base + 16, 192).count(), 4);
        for align in 0..LINE {
            for len in 0..=512 {
                let addr = base + align;
                let lines: Vec<usize> = cache_lines(addr, len).collect();
                let mut want: Vec<usize> =
                    (addr..addr + len).map(|byte| byte & !(LINE - 1)).collect();
                want.dedup();
                assert_eq!(lines, want, "start {align} mod {LINE}, length {len}");
            }
        }
    }
}
