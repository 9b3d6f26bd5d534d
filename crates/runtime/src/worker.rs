//! The shard worker: one thread per shard drains the shard's one ring
//! and runs its supervised operator instance over each batch (see
//! [`crate::engine`] for the pump that routes into it).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering as AtomicOrdering;

use sso_core::{
    EvalCtx, Expr, OpError, OperatorMetrics, OperatorSpec, SamplingOperator, WindowOutput,
};
use sso_faults::WorkerFaultSchedule;
use sso_obs::{Gauge, Registry, Stopwatch};
use sso_profile::{DumpReason, Event as ProfEvent, LaneWriter, Profiler, Stage as ProfStage};
use sso_store::{ShardStore, WindowRecord};
use sso_sync::SyncBool;
use sso_types::Tuple;

use crate::engine::{Batch, RuntimeError, ShardStats, StoreStats};
use crate::merge::ShardPartial;
use crate::pump::prefetch;
use crate::ring::{Consumer, Producer};

/// Evaluate the window-defining expressions against a raw tuple. `None`
/// on evaluation error (the operator will surface the error itself when
/// the tuple is processed live).
pub(crate) fn window_key(wexprs: &[Expr], tuple: &Tuple) -> Option<Tuple> {
    let mut vals = Vec::with_capacity(wexprs.len());
    for e in wexprs {
        let mut ctx = EvalCtx { tuple: Some(tuple), ..EvalCtx::empty("GROUP BY") };
        vals.push(e.eval(&mut ctx).ok()?);
    }
    Some(Tuple::new(vals))
}

/// `a <= b` under pairwise value comparison — the resume-time
/// watermark-skip test. Windows are assumed monotone in stream order
/// (the same assumption the operator's key-change turnover makes).
fn window_le(a: &Tuple, b: &Tuple) -> bool {
    for (x, y) in a.values().iter().zip(b.values()) {
        match x.compare(y).unwrap_or(std::cmp::Ordering::Equal) {
            std::cmp::Ordering::Equal => continue,
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
        }
    }
    a.arity() <= b.arity()
}
/// Durably record one closed window: the output plus the carry-over and
/// library-auxiliary bytes the operator captured *at the flush boundary*
/// (see `SamplingOperator::set_capture_flush`) — exactly the restart
/// state, with no per-tuple work in the worker loop.
fn record_window(
    store: &mut ShardStore,
    output: &WindowOutput,
    carry: &[u8],
    aux: &[u8],
    shard: usize,
) -> Result<(), RuntimeError> {
    store
        .record_window(&WindowRecord { output, carry, aux })
        .map_err(|e| RuntimeError::Store { shard, message: e.to_string() })
}

/// One shard's supervised worker: its forward ring and return ring, the
/// live operator (or the window key it is quarantined for),
/// the window outputs accumulated so far, and the per-window uncovered
/// counts. Each shard runs one on a thread of its own ([`Worker::drain`]).
pub(crate) struct Worker<'a, F> {
    pub(crate) shard: usize,
    /// The shard's ring from the pump.
    pub(crate) rx: Consumer<Batch>,
    /// Spent batches go home to the pump.
    pub(crate) home: Producer<Vec<Tuple>>,
    /// This shard's `rt.ring_depth` cell: one down per batch taken.
    pub(crate) depth: Gauge,
    pub(crate) op: Option<SamplingOperator>,
    /// `Some(key)` while quarantined: tuples of window `key` are
    /// discarded (and counted); the first tuple of a different window
    /// triggers the respawn.
    pub(crate) quarantined: Option<Tuple>,
    /// Tuples fed into the live operator's current window (the loss if
    /// it panics now).
    pub(crate) window_tuples: u64,
    /// Tuples handed to this worker so far (fault triggers key on this).
    pub(crate) tuple_count: u64,
    pub(crate) windows: Vec<WindowOutput>,
    pub(crate) uncovered: Vec<(Tuple, u64)>,
    pub(crate) wexprs: Vec<Expr>,
    pub(crate) faults: WorkerFaultSchedule,
    pub(crate) stats: ShardStats,
    pub(crate) registry: Registry,
    pub(crate) make_spec: &'a F,
    /// Durable writer for this shard (`None` = in-memory run).
    pub(crate) store: Option<ShardStore>,
    /// Resume watermark: tuples whose window key is `<=` this are
    /// skipped (their windows were recovered from the store). Cleared
    /// at the first tuple past it.
    pub(crate) watermark: Option<Tuple>,
    pub(crate) store_stats: Option<StoreStats>,
    /// Flight-recorder handle: a caught panic arms the dump trigger so
    /// the last events before the quarantine survive the run.
    pub(crate) profiler: Option<Profiler>,
    /// The worker's lineage lane, opened on its own thread (`Some`
    /// exactly when `profiler` is).
    pub(crate) trace: Option<LaneWriter>,
}

impl<F> Worker<'_, F>
where
    F: Fn(usize) -> Result<OperatorSpec, OpError>,
{
    fn add_uncovered(&mut self, key: Tuple, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.uncovered.add(n);
        match self.uncovered.iter_mut().find(|(k, _)| *k == key) {
            Some((_, c)) => *c += n,
            None => self.uncovered.push((key, n)),
        }
    }

    /// Catch the aftermath of a panic: take the poisoned operator, mark
    /// its in-flight window (everything fed into it, plus the tuple
    /// that tripped the panic, if any) as uncovered, and quarantine.
    ///
    /// If the panic struck *while flushing* the previous window (the
    /// tripping tuple opened a new one), the operator's current window
    /// is still the old key, so the tripping tuple is attributed there —
    /// a one-tuple misattribution; the totals stay exact.
    fn enter_quarantine(&mut self, tripped_by: Option<&Tuple>) {
        let key = self
            .op
            .take()
            .and_then(|o| o.current_window())
            .or_else(|| tripped_by.and_then(|t| window_key(&self.wexprs, t)))
            .unwrap_or_else(|| Tuple::new(Vec::new()));
        let lost = self.window_tuples + u64::from(tripped_by.is_some());
        self.add_uncovered(key.clone(), lost);
        self.stats.quarantines.inc();
        self.window_tuples = 0;
        self.quarantined = Some(key);
        if let Some(p) = &self.profiler {
            p.trigger(DumpReason::Panic);
        }
    }

    /// Leave quarantine: build a fresh operator instance from the spec
    /// factory. Its sampler state starts clean — cross-window threshold
    /// carry-over is lost for this shard, which only makes the next
    /// window's sample *larger* (lower z), never biased.
    fn revive(&mut self) -> Result<(), OpError> {
        let mut op = SamplingOperator::new((self.make_spec)(self.shard)?)?;
        op.set_metrics(OperatorMetrics::register(&self.registry, format!("shard={}", self.shard)));
        // A durable worker needs the respawned operator capturing
        // boundary snapshots too, or its next window close has nothing
        // to record.
        if self.store.is_some() {
            op.set_capture_flush(true);
        }
        self.op = Some(op);
        self.quarantined = None;
        self.window_tuples = 0;
        Ok(())
    }

    fn run_batch(&mut self, batch: &[Tuple]) -> Result<(), RuntimeError> {
        let mut cursor = 0usize;
        while cursor < batch.len() {
            if let Some(qkey) = self.quarantined.clone() {
                while cursor < batch.len() {
                    let t = &batch[cursor];
                    if window_key(&self.wexprs, t).as_ref() == Some(&qkey) {
                        self.tuple_count += 1;
                        self.add_uncovered(qkey.clone(), 1);
                        cursor += 1;
                    } else {
                        // Window boundary: respawn and resume live.
                        let shard = self.shard;
                        self.revive().map_err(|source| RuntimeError::Op { shard, source })?;
                        break;
                    }
                }
                if self.quarantined.is_some() {
                    return Ok(());
                }
            }
            cursor = self.skip_recovered(batch, cursor);
            if cursor < batch.len() {
                cursor += self.run_stretch(&batch[cursor..])?;
            }
        }
        Ok(())
    }

    /// Resume prefix: tuples at or below the watermark are covered by
    /// recovered windows' stored outputs, so they are counted and
    /// skipped. Only this prefix pays a per-tuple window-key
    /// evaluation; windows are monotone in stream order, so the first
    /// tuple past the watermark ends the checking for good. Returns the
    /// position of the first tuple the operator must see.
    fn skip_recovered(&mut self, batch: &[Tuple], mut cursor: usize) -> usize {
        while let (Some(wm), Some(t)) = (&self.watermark, batch.get(cursor)) {
            match window_key(&self.wexprs, t) {
                Some(k) if window_le(&k, wm) => {
                    self.tuple_count += 1;
                    cursor += 1;
                }
                Some(_) => self.watermark = None,
                // The operator evaluates the key again and reports the
                // error; the watermark stays up for the next tuple.
                None => break,
            }
        }
        cursor
    }

    /// Hand the live operator one stretch from the front of `tuples` in
    /// one `process_batch` call, under one `catch_unwind`, and return
    /// how many tuples it consumed. A stretch ends just before the
    /// tuple the shard's next fault is due at, so a fault trips first
    /// thing in a stretch, before the operator sees its tuple; while a
    /// resume watermark is still up (its tuple had no window key) the
    /// stretch is that one tuple. After a panic the operator's
    /// [`SamplingOperator::batch_entered`] names the tuple that raised
    /// it, and that tuple is the last one consumed.
    fn run_stretch(&mut self, tuples: &[Tuple]) -> Result<usize, RuntimeError> {
        let shard = self.shard;
        let first = self.tuple_count + 1;
        let fault = self.faults.check(first);
        let len = match (&self.watermark, self.faults.peek()) {
            (Some(_), _) => 1,
            (None, Some(at)) => at.saturating_sub(first).max(1).min(tuples.len() as u64) as usize,
            (None, None) => tuples.len(),
        };
        let op = self.op.as_mut().expect("live worker has an operator");
        let windows = &mut self.windows;
        let before = windows.len();
        let mut in_op = false;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = fault {
                f.trip(shard, first);
            }
            in_op = true;
            op.process_batch(&tuples[..len], |w| windows.push(w))
        }));
        let (entered, panicked) = match &outcome {
            Ok(Ok(())) => (len, false),
            Ok(Err(_)) => (op.batch_entered(), false),
            Err(_) if in_op => (op.batch_entered(), true),
            // The fault tripped before the operator saw its tuple.
            Err(_) => (1, true),
        };
        self.tuple_count += entered as u64;
        // Every window the stretch closed, in order: each was complete
        // before the tuple that failed or panicked (if any) came in.
        let mut closed_tuples = 0;
        for w in &self.windows[before..] {
            self.stats.windows.inc();
            closed_tuples += w.stats.tuples;
            if let Some(store) = self.store.as_mut() {
                // The operator captured carry/aux at each flush
                // boundary, before the tuple that closed the window
                // touched the new window's state: exactly the restart
                // state.
                let (carry, aux) = op.take_flush_state().ok_or_else(|| RuntimeError::Store {
                    shard,
                    message: "window closed without a boundary snapshot".into(),
                })?;
                record_window(store, w, &carry, &aux, shard)?;
            }
        }
        // Tuples fed into the window still open: those already in it,
        // plus the stretch's tuples before a panicking one, less every
        // tuple of the windows that closed.
        let fed = (entered - usize::from(panicked)) as u64;
        self.window_tuples = self.window_tuples + fed - closed_tuples;
        match outcome {
            Ok(Ok(())) => Ok(len),
            Ok(Err(source)) => Err(RuntimeError::Op { shard, source }),
            Err(_) => {
                self.enter_quarantine(Some(&tuples[entered - 1]));
                Ok(entered)
            }
        }
    }

    /// End of stream: flush the live operator's final window (a panic
    /// during the flush loses that window, accounted like any other),
    /// then seal a durable run with its final checkpoint.
    fn finish(&mut self) -> Result<(), RuntimeError> {
        let shard = self.shard;
        if let Some(op) = self.op.as_mut() {
            match catch_unwind(AssertUnwindSafe(|| op.finish())) {
                Ok(Ok(Some(w))) => {
                    self.stats.windows.inc();
                    if let Some(store) = self.store.as_mut() {
                        // The final flush captured its boundary
                        // snapshot like any other; fall back to a
                        // direct export if capture was somehow off.
                        let (carry, aux) = match op.take_flush_state() {
                            Some(s) => s,
                            None => {
                                let carry = op
                                    .export_carry()
                                    .map_err(|message| RuntimeError::Store { shard, message })?;
                                (carry, op.export_aux())
                            }
                        };
                        record_window(store, &w, &carry, &aux, shard)?;
                    }
                    self.windows.push(w);
                }
                Ok(Ok(None)) => {}
                Ok(Err(source)) => return Err(RuntimeError::Op { shard, source }),
                Err(_) => self.enter_quarantine(None),
            }
        }
        if let Some(store) = self.store.as_mut() {
            store.finalize().map_err(|e| RuntimeError::Store { shard, message: e.to_string() })?;
        }
        self.publish_store_stats();
        Ok(())
    }

    /// Refresh the `store.*` gauges from the live store and pager.
    fn publish_store_stats(&self) {
        if let (Some(store), Some(ss)) = (self.store.as_ref(), self.store_stats.as_ref()) {
            ss.set_from(store, self.op.as_ref().and_then(|o| o.spill_stats()));
        }
    }

    /// The shard's thread body. Drains the ring in stream order, waiting
    /// in the ring's own blocking `pop`; a closed, drained ring means the
    /// pump is done, so the shard is complete and its partial is the
    /// thread's result, which the pump takes when it joins the thread.
    pub(crate) fn drain(
        mut self,
        crashed: &SyncBool,
    ) -> Result<Option<ShardPartial>, RuntimeError> {
        while let Some(Batch { id, live, tuples }) = self.rx.pop() {
            self.depth.add(-1.0);
            let win = self.windows.len() as u32;
            let sw = Stopwatch::start();
            for tuple in &tuples[..live] {
                prefetch(tuple.values(), false);
            }
            self.run_batch(&tuples[..live])?;
            let busy = sw.elapsed_ns();
            self.stats.tuples.add(live as u64);
            self.stats.busy_ns.add(busy);
            // Never waited on: a full or closed return ring frees the
            // batch here and the pump allocates its replacement.
            let _ = self.home.try_push(tuples);
            self.stamp(ProfStage::Process, busy, |e| e.window(win).batch(id).aux(live as u64));
            self.publish_store_stats();
        }
        if crashed.load(AtomicOrdering::Acquire) {
            // Simulated process death: the pump cut the stream exactly
            // at the trigger position, so what was delivered is
            // deterministic, but the open window dies here. No finish,
            // no finalize, no partial: exactly what a killed process
            // leaves behind.
            return Ok(None);
        }
        let sw = Stopwatch::start();
        self.finish()?;
        let busy = sw.elapsed_ns();
        self.stats.busy_ns.add(busy);
        let win = self.windows.len().saturating_sub(1) as u32;
        self.stamp(ProfStage::Flush, busy, |e| e.window(win));
        Ok(Some(ShardPartial { windows: self.windows, uncovered: self.uncovered }))
    }

    /// Stamp one `stage` event of `busy` ns ending now on the worker's
    /// lineage lane.
    fn stamp(&mut self, stage: ProfStage, busy: u64, detail: impl FnOnce(ProfEvent) -> ProfEvent) {
        if let (Some(p), Some(lane)) = (&self.profiler, self.trace.as_mut()) {
            let end = p.now_ns();
            let event = ProfEvent::new(stage, end.saturating_sub(busy), busy);
            lane.record(detail(event.shard(self.shard as u16)));
            lane.publish();
        }
    }
}
