//! The pump: the calling thread's end of the sharded pipeline.
//!
//! The source is pulled into one fixed-length *chunk*, which the same
//! thread routes into the shards' rings (see `route`) before
//! pulling the next. Chunk `c` holds stream positions
//! `c * chunk_len ..`, so routing knows every tuple's global position
//! without counting, and an unbounded source runs in bounded memory.
//! A chunk is pulled and routed a *piece* of [`PIECE_TUPLES`] at a
//! time: routing reads each tuple's key columns and trades it out of
//! the chunk while the pull that wrote it is still in cache. A whole
//! chunk (16 batches of packet tuples, some 4 MB) outgrows a core's
//! L2, so routing it after pulling all of it would read every tuple
//! back from memory. Partial batches are flushed once per chunk.
//!
//! The chunk buffer is refilled in place: routing trades every tuple it
//! sends for a dead one from a recycled batch, and the pump overwrites
//! the dead tuples ([`TupleSource`]). In steady state the pump allocates
//! neither chunks nor tuples.

use std::time::Duration;

use sso_obs::{Counter, Stopwatch};
use sso_profile::{
    DumpReason, Event as ProfEvent, LaneKind, LaneWriter, Profiler, Stage as ProfStage,
};
use sso_sync::Ordering::Release;
use sso_sync::SyncBool;
use sso_types::Tuple;

/// Batches' worth of tuples per chunk. Long enough that the per-chunk
/// flush (one partial batch per shard) is noise next to the full
/// batches, short enough that a lightly loaded shard's tuples do not
/// wait long for it.
pub(crate) const CHUNK_BATCHES: usize = 16;

/// How many tuples ahead of the one in hand a stage asks the cache for.
pub(crate) const PREFETCH_AHEAD: usize = 8;

/// Tuples pulled before they are routed: a piece of packet tuples (some
/// 250 KB with their values) stays in a core's L2 from pull to route.
pub(crate) const PIECE_TUPLES: usize = 1024;

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
/// columns a stage reads), or for a batch's tuple slots, ahead of use.
/// They were last touched by another stage on another core, so each
/// first touch is a cross-core miss; requested a few tuples early, the
/// misses overlap instead of stalling one after the other. Every line
/// the items span is requested ([`cache_lines`]): the allocator aligns
/// values to 16 bytes, not 64, so a 192-byte packet tuple usually spans
/// four lines, not three. `write` asks for the lines in exclusive
/// state, for items about to be overwritten. A hint only: it never
/// faults and changes no value.
#[inline(always)]
pub(crate) fn prefetch<T>(values: &[T], write: bool) {
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

/// Record one `stage` lineage event of `busy` ns ending now on `lane`,
/// shaped by `detail`, and publish it.
pub(crate) fn stamp(
    p: &Profiler,
    lane: &mut LaneWriter,
    stage: ProfStage,
    busy: u64,
    detail: impl FnOnce(ProfEvent) -> ProfEvent,
) {
    let end = p.now_ns();
    lane.record(detail(ProfEvent::new(stage, end.saturating_sub(busy), busy)));
    lane.publish();
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
/// piece to `route` with its first stream position, whether it ends
/// its chunk, and whether the injected crash fired inside it (the piece
/// then ends just before the trigger and the pump stops). `route`
/// returns `false` to stop the pump. Returns the trigger position if
/// the injected crash fired, and the time spent pulling: one clock
/// reading per piece, which is also the piece's `Low` stamp.
pub(crate) fn pump(
    mut next: impl FnMut(&mut Tuple) -> bool,
    chunk_len: usize,
    crash_at: Option<u64>,
    crashed: &SyncBool,
    fresh: &Counter,
    profile: Option<&Profiler>,
    mut route: impl FnMut(&mut [Tuple], u64, bool, bool) -> bool,
) -> (Option<u64>, Duration) {
    let mut trace = profile.map(|p| (p, p.lane(LaneKind::Low, 0)));
    let (mut pulled, mut pull_ns) = (0u64, 0u64);
    fresh.inc();
    let mut tuples = Vec::with_capacity(chunk_len);
    for seq in 0u64.. {
        let (mut live, mut ended, mut crash) = (0usize, false, false);
        while !ended && !crash && live < chunk_len {
            let sw = Stopwatch::start();
            let from = live;
            let end = (live + PIECE_TUPLES).min(chunk_len);
            while live < end {
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
                    // The arriving trigger tuple kills the "process": it
                    // and everything after it is lost.
                    crash = true;
                    break;
                }
                live += 1;
            }
            let ns = sw.elapsed_ns();
            pull_ns += ns;
            if crash {
                // Raised before routing ends and the rings close, so a
                // worker that finds its ring closed sees it.
                crashed.store(true, Release);
                if let Some(p) = profile {
                    p.trigger(DumpReason::Crash);
                }
            }
            if live == 0 && !crash {
                break;
            }
            if let Some((p, lane)) = trace.as_mut() {
                stamp(p, lane, ProfStage::Low, ns, |e| e.aux((live - from) as u64));
            }
            let chunk_done = ended || crash || live == chunk_len;
            let start = seq * chunk_len as u64 + from as u64;
            if !route(&mut tuples[from..live], start, chunk_done, crash) || crash {
                return (crash.then_some(pulled), Duration::from_nanos(pull_ns));
            }
        }
        if ended {
            break;
        }
    }
    (None, Duration::from_nanos(pull_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_obs::Registry;
    use sso_types::Value;

    /// One `route` call: `(start, len, chunk_done, crash)`.
    type Call = (u64, usize, bool, bool);

    /// Pump `n` numbered tuples in chunks of 2.5 pieces: every call, and
    /// the trigger if it fired.
    fn pieces(n: u64, crash_at: Option<u64>) -> (Vec<Call>, Option<u64>) {
        let chunk = 2 * PIECE_TUPLES + PIECE_TUPLES / 2;
        let mut source = 0..n;
        let mut calls = Vec::new();
        let fresh = Registry::new().counter("fresh");
        let (fired, _) = pump(
            |t: &mut Tuple| source.next().map(|v| *t = Tuple::new(vec![Value::U64(v)])).is_some(),
            chunk,
            crash_at,
            &SyncBool::new(false),
            &fresh,
            None,
            |piece, start, chunk_done, crash| {
                for (i, t) in piece.iter().enumerate() {
                    assert_eq!(t.get(0), &Value::U64(start + i as u64), "stream order");
                }
                calls.push((start, piece.len(), chunk_done, crash));
                true
            },
        );
        (calls, fired)
    }

    #[test]
    fn pieces_cover_the_stream_and_end_each_chunk() {
        let (p, chunk) = (PIECE_TUPLES, 2 * PIECE_TUPLES + PIECE_TUPLES / 2);
        let full = |c: usize| {
            let c0 = (c * chunk) as u64;
            [(c0, p, false, false), (c0 + p as u64, p, false, false)]
        };
        // Two whole chunks and 7 tuples: each chunk's half piece ends it.
        let (calls, fired) = pieces(2 * chunk as u64 + 7, None);
        let mut want = Vec::new();
        for c in 0..2 {
            want.extend(full(c));
            want.push(((c * chunk + 2 * p) as u64, p / 2, true, false));
        }
        want.push(((2 * chunk) as u64, 7, true, false));
        assert_eq!((calls, fired), (want, None));
        // A stream that ends on a piece edge ends its chunk with an empty
        // piece, so the partial batches are flushed.
        let (calls, _) = pieces((chunk + 2 * p) as u64, None);
        assert_eq!(calls.last(), Some(&((chunk + 2 * p) as u64, 0, true, false)));
        // The trigger tuple and everything after it are lost.
        let at = (chunk + p + 5) as u64;
        let (calls, fired) = pieces(3 * chunk as u64, Some(at));
        assert_eq!(calls.last(), Some(&((chunk + p) as u64, 4, true, true)));
        assert_eq!(fired, Some(at));
    }

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
