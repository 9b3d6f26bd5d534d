//! The router: the pump's second half (see [`crate::pump`]). Each
//! pulled piece is routed on the calling thread, record by record, into
//! one batch per shard; a full batch goes into the shard's ring, waiting
//! for room when the ring is full, and every partial batch is flushed at
//! the chunk's end. What crosses a ring is the record the pump pulled:
//! a packet behind a low node with a pass test, a row otherwise. Keyed
//! routing is a pure content hash and round-robin routing a pure
//! function of the record's global stream position, so
//! [`route_stream`] replays it from the records alone. Routing runs
//! under the fault contract the shard workers share
//! ([`crate::supervise`]).
//!
//! Every buffer is reused. Spent batches travel back (worker → router)
//! emptied, on return rings that are never waited on — a full or closed
//! return ring drops the buffer, and the next taker allocates one
//! (`rt.tuple_buffers_fresh`).

use std::hash::{Hash, Hasher};

use rustc_hash::FxHasher;
use sso_core::{EvalCtx, Expr, Record, ShardPlan};
use sso_faults::WorkerFaultSchedule;
use sso_obs::{Counter, Gauge, Histogram, Registry};
use sso_profile::{Event as ProfEvent, LaneKind, LaneWriter, Profiler, Stage as ProfStage};
use sso_types::Tuple;

use crate::engine::{RuntimeConfig, ShardStats};
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

/// How the router picks a shard for a record. Stateless — a routing
/// decision depends only on the record's content (keyed routing) or its
/// global stream position (round-robin), never on what was routed
/// before, so [`route_stream`] replays it from the records alone.
pub(crate) struct Router {
    key: Key,
    /// Where a packet is made a row when its key needs one: a column
    /// that is not a `u64`, or a general expression.
    row: Tuple,
}

enum Key {
    /// No partition key: deal records out cyclically by global stream
    /// position (valid only with a key-free merge rule).
    RoundRobin,
    /// Every partition expression is a plain input column.
    Columns(Vec<usize>),
    /// General tuple-phase expressions.
    Exprs(Vec<Expr>),
}

impl Router {
    pub(crate) fn new(plan: &ShardPlan) -> Router {
        let cols: Option<Vec<usize>> = plan
            .partition_exprs
            .iter()
            .map(|e| match e {
                Expr::Column(i) => Some(*i),
                _ => None,
            })
            .collect();
        let key = match cols {
            _ if plan.partition_exprs.is_empty() => Key::RoundRobin,
            Some(cols) => Key::Columns(cols),
            None => Key::Exprs(plan.partition_exprs.clone()),
        };
        Router { key, row: Tuple::empty() }
    }

    /// The shard for the record at 0-based global stream position
    /// `index`. A key column that is a `u64` is hashed as its
    /// [`sso_types::Value::U64`] hashes, so a packet lands where its row
    /// would.
    #[inline]
    fn route<R: Record>(&mut self, record: &R, index: u64, shards: usize) -> usize {
        match &self.key {
            Key::RoundRobin => (index % shards as u64) as usize,
            Key::Columns(cols) => {
                let mut h = FxHasher::default();
                for &c in cols.iter() {
                    match record.u64_at(c) {
                        Some(v) => {
                            h.write_u8(2);
                            h.write_u64(v);
                        }
                        None => record.row(&mut self.row).get(c).hash(&mut h),
                    }
                }
                pick_shard(h.finish(), shards)
            }
            Key::Exprs(exprs) => {
                let tuple = record.row(&mut self.row);
                let mut h = FxHasher::default();
                for e in exprs.iter() {
                    let mut ctx = EvalCtx { tuple: Some(tuple), ..EvalCtx::empty("GROUP BY") };
                    match e.eval(&mut ctx) {
                        Ok(v) => v.hash(&mut h),
                        // The worker evaluates the same expression in its
                        // GROUP BY and will surface the error; any shard
                        // will do for the faulty record.
                        Err(_) => return 0,
                    }
                }
                pick_shard(h.finish(), shards)
            }
        }
    }
}

/// Replay the router's shard decisions for a record sequence — the
/// shard each record (a row or a packet) would land on in a run with
/// `shards` workers. Tests (and fault-plan authors) use this to find
/// which window a planned `(shard, tuple-count)` panic lands in.
pub fn route_stream<'a, R: Record + 'a>(
    plan: &ShardPlan,
    shards: usize,
    records: impl IntoIterator<Item = &'a R>,
) -> Vec<usize> {
    let mut router = Router::new(plan);
    records.into_iter().enumerate().map(|(i, r)| router.route(r, i as u64, shards)).collect()
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

/// What crosses a shard ring: a batch of routed records. `id` threads
/// lineage stamps from route to process.
pub(crate) struct Batch<R> {
    pub(crate) id: u32,
    pub(crate) records: Vec<R>,
}

/// The router's sending state: the per-shard rings and batch
/// accumulators, and its accounting cells.
pub(crate) struct Sender<'a, R> {
    shards: usize,
    batch_size: usize,
    txs: Vec<Producer<Batch<R>>>,
    /// Spent batches coming home, emptied, from each shard's worker.
    homes: Vec<Consumer<Vec<R>>>,
    /// Per shard: the batch being filled.
    batches: Vec<Vec<R>>,
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
pub(crate) type WorkerRings<R> = (Consumer<Batch<R>>, Producer<Vec<R>>);

impl<'a, R: Send> Sender<'a, R> {
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
    ) -> (Self, Vec<WorkerRings<R>>) {
        let ring_cap = cfg.effective_ring_capacity();
        let (mut txs, mut homes, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..cfg.shards {
            let (tx, rx) = ring::<Batch<R>>(ring_cap);
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
            batches: (0..cfg.shards).map(|_| Vec::new()).collect(),
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
            sender.batches[shard] = sender.recycled(shard);
        }
        (sender, ends)
    }

    /// Add `record` to `shard`'s batch, sending the batch once it is
    /// full.
    #[inline]
    fn push(&mut self, shard: usize, record: R) {
        let batch = &mut self.batches[shard];
        batch.push(record);
        if batch.len() >= self.batch_size {
            self.send_batch(shard);
        }
    }

    /// End of chunk: send every partial batch still buffered, so a
    /// lightly loaded shard's records wait at most one chunk.
    pub(crate) fn end_chunk(&mut self) {
        for shard in 0..self.shards {
            if !self.batches[shard].is_empty() {
                self.send_batch(shard);
            }
        }
    }

    /// A spent batch from `shard`'s worker, or — when none has come
    /// home — a new one.
    fn recycled(&mut self, shard: usize) -> Vec<R> {
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
    /// stall, however long the wait. A closed ring hands the batch
    /// back.
    fn push_blocking(&mut self, shard: usize, batch: Batch<R>, t0: Option<u64>) -> Option<Vec<R>> {
        // The waiting batch counts toward ring depth from wait *entry*:
        // a full-ring stall shorter than one batch is visible to a
        // mid-run snapshot, not only at the next batch boundary.
        self.ring_depths[shard].add(1.0);
        self.stats[shard].stalls.inc();
        let wait_from = self.trace.as_ref().map(|t| t.p.now_ns());
        let (id, len) = (batch.id, batch.records.len() as u64);
        match self.txs[shard].push(batch) {
            Ok(()) => {
                self.delivered(shard, id, len, t0, wait_from);
                None
            }
            // Closed ring: the batch counted above never arrived.
            Err(batch) => {
                self.ring_depths[shard].add(-1.0);
                self.worker_gone = true;
                Some(batch.records)
            }
        }
    }

    /// Deliver `shard`'s accumulated batch into its ring, waiting for
    /// room when it is full, and start the next one in a recycled
    /// buffer.
    fn send_batch(&mut self, shard: usize) {
        let records = std::mem::take(&mut self.batches[shard]);
        let (id, len) = (self.next_batch_id, records.len() as u64);
        self.next_batch_id = id.wrapping_add(1);
        let t0 = self.trace.as_ref().map(|t| t.p.now_ns());
        let unsent = match self.txs[shard].try_push(Batch { id, records }) {
            Ok(()) => {
                self.ring_depths[shard].add(1.0);
                self.delivered(shard, id, len, t0, None);
                None
            }
            Err(PushError::Full(batch)) => self.push_blocking(shard, batch, t0),
            // Worker death closes the ring: the pump stops at the end
            // of the chunk, and the join in `run_sharded` surfaces the
            // reason.
            Err(PushError::Closed(batch)) => {
                self.worker_gone = true;
                Some(batch.records)
            }
        };
        // A batch that never left is the next accumulator, emptied.
        self.batches[shard] = match unsent {
            Some(mut records) => {
                records.clear();
                records
            }
            None => self.recycled(shard),
        };
    }
}

/// Route one piece of a chunk, stream positions `start ..`, in
/// supervised stretches, moving each record into its shard's batch. A
/// panic quarantines the router for the window it struck: the window's
/// unrouted records are counted, never sent, until its first record of
/// the next window. Routing is stateless, so going live again *is* the
/// respawn. A record's fault ordinal is its 1-based stream position,
/// quarantined records included.
pub(crate) fn route_piece<R: Record + Default + Send>(
    sender: &mut Sender<'_, R>,
    quarantine: &mut Quarantine,
    faults: &mut WorkerFaultSchedule,
    router: &mut Router,
    wexprs: &[Expr],
    piece: &mut [R],
    start: u64,
) {
    let mut local = 0usize;
    while local < piece.len() {
        local += quarantine.skip(&piece[local..], wexprs);
        if quarantine.active() {
            break;
        }
        let first = start + local as u64 + 1;
        let (fault, len) = stretch(faults, first, piece.len() - local);
        let end = local + len;
        // `local` lives outside the closure: after a panic it names the
        // record that tripped it (an injected trip fires before its
        // record is moved out of the piece, so it is still intact for
        // window-key attribution).
        let outcome = {
            let (local, piece, sender, router) =
                (&mut local, &mut *piece, &mut *sender, &mut *router);
            supervised(move || {
                if let Some(f) = fault {
                    f.trip_router(first);
                }
                while *local < end {
                    let record = &mut piece[*local];
                    let shard = router.route(record, start + *local as u64, sender.shards);
                    sender.push(shard, std::mem::take(record));
                    *local += 1;
                }
            })
        };
        if outcome.is_err() {
            // The tripping record is the first of its window's records
            // the router loses.
            quarantine.enter(window_key(wexprs, &piece[local]), 1);
            local += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_core::expr::BinOp;
    use sso_core::MergeRule;
    use sso_types::{Packet, Protocol, Value};

    fn packets(n: u64) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet {
                uts: i * 7_919 + 1,
                src_ip: (i.wrapping_mul(2_654_435_761) >> 7) as u32,
                dest_ip: (i % 13) as u32,
                src_port: (i * 31) as u16,
                dest_port: 80,
                proto: if i % 3 == 0 { Protocol::Udp } else { Protocol::Tcp },
                len: 40 + (i % 1460) as u32,
            })
            .collect()
    }

    #[test]
    fn a_packet_goes_where_its_row_goes_for_every_router_kind() {
        let (src, dest, len) = (Expr::Column(2), Expr::Column(3), Expr::Column(7));
        let keys = [
            ("round-robin", vec![]),
            ("one column", vec![src.clone()]),
            ("two columns", vec![src.clone(), dest.clone()]),
            ("an expression", vec![Expr::bin(BinOp::Rem, src, Expr::lit(16u64))]),
            ("a column and an expression", vec![dest, len.div(Expr::lit(100u64))]),
        ];
        let pkts = packets(5_000);
        let rows: Vec<Tuple> = pkts.iter().map(Packet::to_tuple).collect();
        for (what, partition_exprs) in keys {
            let plan = ShardPlan { partition_exprs, rule: MergeRule::Concat };
            for shards in [1, 2, 3, 8] {
                let by_packet = route_stream(&plan, shards, &pkts);
                assert_eq!(
                    by_packet,
                    route_stream(&plan, shards, &rows),
                    "{what}, {shards} shards"
                );
                if shards > 1 {
                    let used = (0..shards).filter(|s| by_packet.contains(s)).count();
                    assert!(used > 1, "{what}, {shards} shards: every packet on one shard");
                }
            }
        }
    }

    #[test]
    fn a_key_column_that_is_not_a_u64_hashes_as_its_value() {
        // Rows whose key column holds other kinds of value: the router
        // hashes the value itself, and a non-negative `I64` lands where
        // the equal `U64` does.
        let plan = ShardPlan { partition_exprs: vec![Expr::Column(0)], rule: MergeRule::Concat };
        let rows = |v: fn(u64) -> Value| -> Vec<Tuple> {
            (0..512).map(|i| Tuple::new(vec![v(i)])).collect()
        };
        let unsigned = route_stream(&plan, 8, &rows(Value::U64));
        assert_eq!(unsigned, route_stream(&plan, 8, &rows(|i| Value::I64(i as i64))));
        let text = route_stream(&plan, 8, &rows(|i| Value::str(&i.to_string())));
        assert!((0..8).all(|s| text.contains(&s)), "text keys spread over every shard");
    }
}
