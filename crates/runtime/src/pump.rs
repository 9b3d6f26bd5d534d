//! The pump: the calling thread's end of the sharded pipeline.
//!
//! The source is pulled a *piece* of `PIECE_TUPLES` records at a time
//! into one reused buffer, which the same thread routes into the
//! shards' rings (see `route`) before pulling the next piece, while the
//! pull that wrote the piece is still in cache. Pieces make up
//! fixed-length *chunks*: chunk `c` holds stream positions
//! `c * chunk_len ..`, so routing knows every record's global position
//! without counting, and every shard's partial batch is flushed at each
//! chunk's end. An unbounded source runs in bounded memory.
//!
//! A record is whatever the source yields ([`sso_core::Record`]): behind
//! a low node with a pass test, the 32-byte packet itself, so the pump
//! and the router copy packets and a row is built only where a shard's
//! operator needs one; otherwise a row. Routing moves each record out
//! of the piece into a shard's batch, and in steady state the pump
//! allocates nothing.

use std::time::Duration;

use sso_obs::{Counter, Stopwatch};
use sso_profile::{
    DumpReason, Event as ProfEvent, LaneKind, LaneWriter, Profiler, Stage as ProfStage,
};
use sso_sync::Ordering::Release;
use sso_sync::SyncBool;

/// Batches' worth of records per chunk. Long enough that the per-chunk
/// flush (one partial batch per shard) is noise next to the full
/// batches, short enough that a lightly loaded shard's records do not
/// wait long for it.
pub(crate) const CHUNK_BATCHES: usize = 16;

/// Records pulled before they are routed: a piece of packets (32 KB)
/// stays in a core's L1 and L2 from pull to route.
pub(crate) const PIECE_TUPLES: usize = 1024;

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

/// Pump the source dry (or up to the crash trigger), handing each
/// piece to `route` with its first stream position, whether it ends
/// its chunk, and whether the injected crash fired inside it (the piece
/// then ends just before the trigger and the pump stops). `route`
/// returns `false` to stop the pump. Returns the trigger position if
/// the injected crash fired, and the time spent pulling: one clock
/// reading per piece, which is also the piece's `Low` stamp.
pub(crate) fn pump<R>(
    mut source: impl Iterator<Item = R>,
    chunk_len: usize,
    crash_at: Option<u64>,
    crashed: &SyncBool,
    fresh: &Counter,
    profile: Option<&Profiler>,
    mut route: impl FnMut(&mut [R], u64, bool, bool) -> bool,
) -> (Option<u64>, Duration) {
    let mut trace = profile.map(|p| (p, p.lane(LaneKind::Low, 0)));
    let (mut pulled, mut pull_ns) = (0u64, 0u64);
    fresh.inc();
    let mut piece = Vec::with_capacity(PIECE_TUPLES.min(chunk_len));
    // `start`: the stream position of the piece's first record.
    let (mut start, mut ended, mut crash) = (0u64, false, false);
    while !ended && !crash {
        let sw = Stopwatch::start();
        let in_chunk = (start % chunk_len as u64) as usize;
        let want = PIECE_TUPLES.min(chunk_len - in_chunk);
        piece.clear();
        while piece.len() < want {
            let Some(record) = source.next() else {
                ended = true;
                break;
            };
            pulled += 1;
            if crash_at == Some(pulled) {
                // The arriving trigger record kills the "process": it
                // and everything after it is lost.
                crash = true;
                break;
            }
            piece.push(record);
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
        // A stream that ends on a chunk edge has nothing left to flush.
        if in_chunk + piece.len() == 0 && !crash {
            break;
        }
        if let Some((p, lane)) = trace.as_mut() {
            stamp(p, lane, ProfStage::Low, ns, |e| e.aux(piece.len() as u64));
        }
        let chunk_done = ended || crash || in_chunk + piece.len() == chunk_len;
        if !route(&mut piece, start, chunk_done, crash) {
            break;
        }
        start += piece.len() as u64;
    }
    (crash.then_some(pulled), Duration::from_nanos(pull_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_obs::Registry;

    /// One `route` call: `(start, len, chunk_done, crash)`.
    type Call = (u64, usize, bool, bool);

    /// Pump `n` numbered tuples in chunks of 2.5 pieces: every call, and
    /// the trigger if it fired.
    fn pieces(n: u64, crash_at: Option<u64>) -> (Vec<Call>, Option<u64>) {
        let chunk = 2 * PIECE_TUPLES + PIECE_TUPLES / 2;
        let mut calls = Vec::new();
        let fresh = Registry::new().counter("fresh");
        let (fired, _) = pump(
            0..n,
            chunk,
            crash_at,
            &SyncBool::new(false),
            &fresh,
            None,
            |piece, start, chunk_done, crash| {
                for (i, &v) in piece.iter().enumerate() {
                    assert_eq!(v, start + i as u64, "stream order");
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
}
