//! The pump: the calling thread's end of the sharded pipeline.
//!
//! The source is pulled into fixed-length *chunks*; chunk `c` goes to
//! router lane `c mod R` over that lane's chunk ring. The partition is a
//! pure function of stream position and `R` — no stream length, no
//! cursors — so an unbounded source runs in bounded memory, and a lane's
//! position in the stream is recomputable by anyone who knows the chunk
//! length ([`crate::RuntimeConfig::chunk_tuples`]).
//!
//! Chunk buffers are recycled: a lane trades every tuple it routes for a
//! dead one and sends the chunk home on a return ring, and the pump
//! overwrites the dead tuples in place ([`TupleSource`]). In steady
//! state the pump allocates neither chunks nor tuples.

use sso_obs::Counter;
use sso_profile::{DumpReason, Event as ProfEvent, LaneKind, Profiler, Stage as ProfStage};
use sso_sync::Ordering::Release;
use sso_sync::SyncBool;
use sso_types::{Tuple, Value};

use crate::ring::{Consumer, Producer};

/// Batches' worth of tuples per chunk. Long enough that the per-chunk
/// flush (one partial batch per shard) is noise next to the full
/// batches, short enough that `R` lanes interleave within a window.
pub(crate) const CHUNK_BATCHES: usize = 16;

/// Chunks queued per lane ahead of the one being routed.
pub(crate) const CHUNK_RING: usize = 2;

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

/// One pumped chunk: stream positions `seq * chunk_len ..` in
/// `tuples[..live]`; anything past `live` is dead weight from the
/// buffer's previous trip.
pub(crate) struct Chunk {
    pub seq: u64,
    pub live: usize,
    pub tuples: Vec<Tuple>,
    /// The injected crash fired inside this chunk: `tuples[..live]` is
    /// everything before the trigger, and the lane dies after routing
    /// it without flushing.
    pub crash: bool,
}

/// The pump's two rings to one router lane.
pub(crate) struct ChunkLane {
    pub tx: Producer<Chunk>,
    /// Routed chunks coming home, full of dead tuples.
    pub home: Consumer<Vec<Tuple>>,
}

/// Pump the source dry (or up to the crash trigger) into `lanes`,
/// closing every chunk ring on return. Returns the trigger position if
/// the injected crash fired.
pub(crate) fn pump(
    mut next: impl FnMut(&mut Tuple) -> bool,
    mut lanes: Vec<ChunkLane>,
    chunk_len: usize,
    crash_at: Option<u64>,
    crashed: &SyncBool,
    fresh: &Counter,
    profile: Option<&Profiler>,
) -> Option<u64> {
    let mut trace = profile.map(|p| (p, p.lane(LaneKind::Low, 0)));
    let mut pulled = 0u64;
    let mut fired = None;
    let routers = lanes.len() as u64;
    for seq in 0u64.. {
        let lane = &mut lanes[(seq % routers) as usize];
        let mut tuples = match lane.home.try_pop() {
            Ok(Some(routed)) => routed,
            // Nothing has come home (a return was dropped): a lost
            // return costs an allocation, never correctness.
            _ => {
                fresh.inc();
                Vec::with_capacity(chunk_len)
            }
        };
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
            // Raised before the chunk is pushed, so a worker that finds
            // its ring closed without an end-of-chunk marker sees it.
            crashed.store(true, Release);
            fired = crash_at;
            if let Some(p) = profile {
                p.trigger(DumpReason::Crash);
            }
        }
        let mut lane_gone = false;
        if live > 0 || crash {
            let t1 = trace.as_ref().map(|(p, _)| p.now_ns());
            let mut wait_from = None;
            let sent = lane.tx.push_tracked_with(Chunk { seq, live, tuples, crash }, || {
                wait_from = trace.as_ref().map(|(p, _)| p.now_ns());
            });
            // A closed chunk ring is a dead lane (a panic outside its
            // per-chunk guard); the join in `run_sharded` reports it.
            lane_gone = sent.is_err();
            if let (Some((p, events)), Some(t0), Some(t1)) = (trace.as_mut(), t0, t1) {
                events.record(
                    ProfEvent::new(ProfStage::Low, t0, t1.saturating_sub(t0)).aux(live as u64),
                );
                if let Some(w) = wait_from {
                    events.record(ProfEvent::new(
                        ProfStage::RingWait,
                        w,
                        p.now_ns().saturating_sub(w),
                    ));
                }
                events.publish();
            }
        }
        if ended || crash || lane_gone {
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
