//! The router: the pump's second half (see [`crate::pump`]). Each
//! pulled piece is routed on the calling thread, tuple by tuple, into
//! one batch per shard; a full batch goes into the shard's ring, waiting
//! for room when the ring is full, and every partial batch is flushed at
//! the chunk's end. Keyed routing is a pure content hash and
//! round-robin routing a pure function of the tuple's global stream
//! position, so [`route_stream`] replays it from the tuples alone.
//! Routing runs under the fault contract the shard workers share
//! ([`crate::supervise`]).
//!
//! Every buffer is reused. Spent batches travel back (worker → router)
//! on return rings that are never waited on — a full or closed return
//! ring drops the buffer, and the next taker allocates one
//! (`rt.tuple_buffers_fresh`) — while routing *swaps* each tuple with a
//! dead one, so the pump's chunk stays full of tuples for the source to
//! overwrite in place.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use rustc_hash::FxHasher;
use sso_core::{EvalCtx, Expr, ShardPlan};
use sso_faults::WorkerFaultSchedule;
use sso_obs::{Counter, Gauge, Histogram, Registry};
use sso_profile::{Event as ProfEvent, LaneKind, LaneWriter, Profiler, Stage as ProfStage};
use sso_types::Tuple;

use crate::engine::{RuntimeConfig, ShardStats};
use crate::pump::{prefetch, PREFETCH_AHEAD};
use crate::ring::{ring, Consumer, Producer, PushError};
use crate::supervise::{stretch, supervised, window_key, Quarantine};

/// Map a partition-key hash to a shard; hot enough on the router thread
/// that the power-of-two mask (vs a 64-bit division) is measurable.
#[inline]
fn pick_shard(hash: u64, shards: usize) -> usize {
    if shards.is_power_of_two() {
        (hash as usize) & (shards - 1)
    } else {
        (hash % shards as u64) as usize
    }
}

/// How the router picks a shard for a tuple. Stateless — a routing
/// decision depends only on the tuple's content (keyed routing) or its
/// global stream position (round-robin), never on what was routed
/// before, so [`route_stream`] replays it from the tuples alone.
pub(crate) enum Router {
    /// No partition key: deal tuples out cyclically by global stream
    /// position (valid only with a key-free merge rule).
    RoundRobin,
    /// Every partition expression is a plain input column.
    Columns(Vec<usize>),
    /// General tuple-phase expressions.
    Exprs(Vec<Expr>),
}

impl Router {
    pub(crate) fn new(plan: &ShardPlan) -> Router {
        if plan.partition_exprs.is_empty() {
            return Router::RoundRobin;
        }
        let cols: Option<Vec<usize>> = plan
            .partition_exprs
            .iter()
            .map(|e| match e {
                Expr::Column(i) => Some(*i),
                _ => None,
            })
            .collect();
        match cols {
            Some(cols) => Router::Columns(cols),
            None => Router::Exprs(plan.partition_exprs.clone()),
        }
    }

    /// The columns [`Self::route`] reads, as one span: none for
    /// round-robin, from the first to the last key column, or every
    /// column (`0..usize::MAX`) for general expressions.
    fn reads(&self) -> Range<usize> {
        match self {
            Router::RoundRobin => 0..0,
            Router::Columns(cols) => {
                let (lo, hi) = (cols.iter().min(), cols.iter().max());
                lo.map_or(0, |&c| c)..hi.map_or(0, |&c| c + 1)
            }
            Router::Exprs(_) => 0..usize::MAX,
        }
    }

    /// The shard for the tuple at 0-based global stream position
    /// `index`.
    fn route(&self, tuple: &Tuple, index: u64, shards: usize) -> usize {
        match self {
            Router::RoundRobin => (index % shards as u64) as usize,
            Router::Columns(cols) => {
                let mut h = FxHasher::default();
                for &c in cols.iter() {
                    tuple.get(c).hash(&mut h);
                }
                pick_shard(h.finish(), shards)
            }
            Router::Exprs(exprs) => {
                let mut h = FxHasher::default();
                for e in exprs.iter() {
                    let mut ctx = EvalCtx { tuple: Some(tuple), ..EvalCtx::empty("GROUP BY") };
                    match e.eval(&mut ctx) {
                        Ok(v) => v.hash(&mut h),
                        // The worker evaluates the same expression in its
                        // GROUP BY and will surface the error; any shard
                        // will do for the faulty tuple.
                        Err(_) => return 0,
                    }
                }
                pick_shard(h.finish(), shards)
            }
        }
    }
}

/// Replay the router's shard decisions for a tuple sequence — the shard
/// each tuple would land on in a run with `shards` workers. Tests (and
/// fault-plan authors) use this to find which window a planned
/// `(shard, tuple-count)` panic lands in.
pub fn route_stream<'a>(
    plan: &ShardPlan,
    shards: usize,
    tuples: impl IntoIterator<Item = &'a Tuple>,
) -> Vec<usize> {
    let router = Router::new(plan);
    tuples.into_iter().enumerate().map(|(i, t)| router.route(t, i as u64, shards)).collect()
}

/// The router's tracing state: its event lane (`router/0`, written by
/// the pump) plus the end of the previous send, which anchors the next
/// `Ingest` stamp (everything the router did between two sends —
/// hashing, batch accumulation — is ingest time). The pump pulls a
/// piece between two routing calls; that fill is its `Low` stamp, not
/// ingest, so each call moves the mark forward by the time since the
/// last one ended (`paused_ns`).
pub(crate) struct RouterTrace {
    pub(crate) p: Profiler,
    lane: LaneWriter,
    pub(crate) mark_ns: u64,
    pub(crate) paused_ns: u64,
}

/// Stamp one completed send: `Ingest` since the previous send,
/// `RingWait` if the push had to wait (`wait_from`), and `Route` for
/// the push itself net of the wait. One `Release` publish for the lot.
fn record_router_send(
    t: &mut RouterTrace,
    shard: usize,
    batch_id: u32,
    len: u64,
    t0: u64,
    end: u64,
    wait_from: Option<u64>,
) {
    t.lane.record(
        ProfEvent::new(ProfStage::Ingest, t.mark_ns, t0.saturating_sub(t.mark_ns)).aux(len),
    );
    let mut wait_ns = 0;
    if let Some(w) = wait_from {
        wait_ns = end.saturating_sub(w);
        t.lane.record(
            ProfEvent::new(ProfStage::RingWait, w, wait_ns).shard(shard as u16).batch(batch_id),
        );
    }
    t.lane.record(
        ProfEvent::new(ProfStage::Route, t0, end.saturating_sub(t0).saturating_sub(wait_ns))
            .shard(shard as u16)
            .batch(batch_id)
            .aux(len),
    );
    t.mark_ns = end;
    t.lane.publish();
}

/// What crosses a shard ring: routed tuples. Only `tuples[..live]`
/// are this batch; anything past `live` is dead weight from the
/// buffer's previous trip, riding along so its allocation stays in
/// circulation. `id` threads lineage stamps from route to process.
pub(crate) struct Batch {
    pub(crate) id: u32,
    pub(crate) live: usize,
    pub(crate) tuples: Vec<Tuple>,
}

/// The router's sending state: the per-shard rings and batch
/// accumulators, and its accounting cells.
pub(crate) struct Sender<'a> {
    shards: usize,
    batch_size: usize,
    txs: Vec<Producer<Batch>>,
    /// Spent batches coming home from each shard's worker.
    homes: Vec<Consumer<Vec<Tuple>>>,
    /// Per shard: the batch being filled and how many of its tuples are
    /// live (the rest are dead tuples waiting to be traded).
    batches: Vec<(Vec<Tuple>, usize)>,
    next_batch_id: u32,
    stats: &'a [ShardStats],
    ring_depths: &'a [Gauge],
    batch_hist: Histogram,
    fresh: Counter,
    /// A batch ring turned out closed: its worker is gone, and the run
    /// with it (workers outlive the pump's routing unless they fail).
    pub(crate) worker_gone: bool,
    pub(crate) trace: Option<RouterTrace>,
}

/// A shard worker's ends of its rings: batches from the router, and
/// the return ring its spent batches go home on.
pub(crate) type WorkerRings = (Consumer<Batch>, Producer<Vec<Tuple>>);

impl<'a> Sender<'a> {
    /// The router's end of one batch ring and one return ring per
    /// shard, and the workers' ends. The return ring holds the shard's
    /// whole pool — the ring's depth, the batch being filled, the batch
    /// being processed — so the router never allocates a batch and a
    /// return never finds its ring full.
    pub(crate) fn new(
        cfg: &RuntimeConfig,
        stats: &'a [ShardStats],
        ring_depths: &'a [Gauge],
        registry: &Registry,
        fresh: &Counter,
    ) -> (Self, Vec<WorkerRings>) {
        let ring_cap = cfg.effective_ring_capacity();
        let (mut txs, mut homes, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..cfg.shards {
            let (tx, rx) = ring::<Batch>(ring_cap);
            // The return ring starts out full, its buffers counted as
            // fresh: with the whole pool in circulation a taker always
            // finds one at home and a return always finds room.
            let (mut home, home_rx) = ring(ring_cap + 2);
            for _ in 0..ring_cap + 2 {
                let _ = home.try_push(Vec::with_capacity(cfg.batch_size));
            }
            fresh.add(ring_cap as u64 + 2);
            txs.push(tx);
            homes.push(home_rx);
            ends.push((rx, home));
        }
        let mut sender = Sender {
            shards: cfg.shards,
            batch_size: cfg.batch_size,
            txs,
            homes,
            batches: (0..cfg.shards).map(|_| Default::default()).collect(),
            next_batch_id: 0,
            stats,
            ring_depths,
            batch_hist: registry.histogram("rt.batch_tuples"),
            fresh: fresh.clone(),
            worker_gone: false,
            trace: cfg.profile.as_ref().map(|p| RouterTrace {
                p: p.clone(),
                lane: p.lane(LaneKind::Router, 0),
                mark_ns: 0,
                paused_ns: 0,
            }),
        };
        for shard in 0..cfg.shards {
            sender.batches[shard].0 = sender.recycled(shard);
        }
        (sender, ends)
    }

    /// Route `tuple` to `shard` by trading it for a dead tuple of the
    /// batch being filled: the chunk it came from goes home with a
    /// buffer the source can overwrite.
    fn push_tuple(&mut self, shard: usize, tuple: &mut Tuple) {
        let (slots, live) = &mut self.batches[shard];
        // The slots came home from the worker's core: ask for the one
        // this shard fills a few tuples from now.
        if let Some(ahead) = slots.get(*live + PREFETCH_AHEAD..=*live + PREFETCH_AHEAD) {
            prefetch(ahead, true);
        }
        match slots.get_mut(*live) {
            Some(dead) => std::mem::swap(dead, tuple),
            None => slots.push(std::mem::take(tuple)),
        }
        *live += 1;
        if *live >= self.batch_size {
            self.send_batch(shard);
        }
    }

    /// End of chunk: send every partial batch still buffered, so a
    /// lightly loaded shard's tuples wait at most one chunk.
    pub(crate) fn end_chunk(&mut self) {
        for shard in 0..self.shards {
            if self.batches[shard].1 > 0 {
                self.send_batch(shard);
            }
        }
    }

    /// A spent batch from `shard`'s worker, or — when none has come
    /// home — a new one.
    fn recycled(&mut self, shard: usize) -> Vec<Tuple> {
        match self.homes[shard].try_pop() {
            Ok(Some(spent)) => spent,
            _ => {
                self.fresh.inc();
                Vec::with_capacity(self.batch_size)
            }
        }
    }

    /// Account one batch that reached the shard's ring.
    fn delivered(&mut self, shard: usize, id: u32, len: u64, t0: Option<u64>, wait: Option<u64>) {
        self.batch_hist.record(len);
        if let Some(t) = self.trace.as_mut() {
            let end = t.p.now_ns();
            record_router_send(t, shard, id, len, t0.unwrap_or(end), end, wait);
        }
    }

    /// Push one batch into a ring found full, waiting for room: one
    /// stall, however long the wait. A closed ring hands the buffer
    /// back.
    fn push_blocking(
        &mut self,
        shard: usize,
        id: u32,
        live: usize,
        tuples: Vec<Tuple>,
        t0: Option<u64>,
    ) -> Option<Vec<Tuple>> {
        // The waiting batch counts toward ring depth from wait *entry*:
        // a full-ring stall shorter than one batch is visible to a
        // mid-run snapshot, not only at the next batch boundary.
        self.ring_depths[shard].add(1.0);
        self.stats[shard].stalls.inc();
        let wait_from = self.trace.as_ref().map(|t| t.p.now_ns());
        match self.txs[shard].push(Batch { id, live, tuples }) {
            Ok(()) => {
                self.delivered(shard, id, live as u64, t0, wait_from);
                None
            }
            // Closed ring: the batch counted above never arrived.
            Err(batch) => {
                self.ring_depths[shard].add(-1.0);
                self.worker_gone = true;
                Some(batch.tuples)
            }
        }
    }

    /// Deliver `shard`'s accumulated batch into its ring, waiting for
    /// room when it is full, and start the next one in a recycled
    /// buffer.
    fn send_batch(&mut self, shard: usize) {
        let (tuples, live) = std::mem::take(&mut self.batches[shard]);
        let id = self.next_batch_id;
        self.next_batch_id = id.wrapping_add(1);
        let t0 = self.trace.as_ref().map(|t| t.p.now_ns());
        let unsent = match self.txs[shard].try_push(Batch { id, live, tuples }) {
            Ok(()) => {
                self.ring_depths[shard].add(1.0);
                self.delivered(shard, id, live as u64, t0, None);
                None
            }
            Err(PushError::Full(batch)) => self.push_blocking(shard, id, live, batch.tuples, t0),
            // Worker death closes the ring: the pump stops at the end
            // of the chunk, and the join in `run_sharded` surfaces the
            // reason.
            Err(PushError::Closed(batch)) => {
                self.worker_gone = true;
                Some(batch.tuples)
            }
        };
        // A batch that never left is the next accumulator as it stands.
        let next = unsent.unwrap_or_else(|| self.recycled(shard));
        self.batches[shard] = (next, 0);
    }
}

/// Route one piece of a chunk, stream positions `start ..`, in
/// supervised stretches. A panic quarantines the router for the window
/// it struck: the window's unrouted tuples are counted, never sent,
/// until its first tuple of the next window. Routing is stateless, so
/// going live again *is* the respawn. A tuple's fault ordinal is its
/// 1-based stream position, quarantined tuples included.
pub(crate) fn route_piece(
    sender: &mut Sender<'_>,
    quarantine: &mut Quarantine,
    faults: &mut WorkerFaultSchedule,
    router: &Router,
    wexprs: &[Expr],
    chunk: &mut [Tuple],
    start: u64,
) {
    // The router prefetches only the values it reads: the lines the
    // worker alone reads then travel from the pump's cache once.
    let reads = router.reads();
    let mut local = 0usize;
    while local < chunk.len() {
        local += quarantine.skip(&chunk[local..], wexprs);
        if quarantine.active() {
            break;
        }
        let first = start + local as u64 + 1;
        let (fault, len) = stretch(faults, first, chunk.len() - local);
        let end = local + len;
        // `local` lives outside the closure: after a panic it names the
        // tuple that tripped it (an injected trip fires before its
        // tuple is traded out of the chunk, so it is still intact for
        // window-key attribution).
        let outcome = {
            let (local, chunk, sender, reads) = (&mut local, &mut *chunk, &mut *sender, &reads);
            supervised(move || {
                if let Some(f) = fault {
                    f.trip_router(first);
                }
                while *local < end {
                    if let Some(ahead) = chunk.get(*local + PREFETCH_AHEAD) {
                        let values = ahead.values();
                        prefetch(values.get(reads.clone()).unwrap_or(values), false);
                    }
                    let tuple = &mut chunk[*local];
                    let shard = router.route(tuple, start + *local as u64, sender.shards);
                    sender.push_tuple(shard, tuple);
                    *local += 1;
                }
            })
        };
        if outcome.is_err() {
            // The tripping tuple is the first of its window's tuples the
            // router loses.
            quarantine.enter(window_key(wexprs, &chunk[local]), 1);
            local += 1;
        }
    }
}
