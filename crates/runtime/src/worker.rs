//! The shard worker: one thread per shard drains the shard's one ring
//! and runs its supervised operator instance over each batch (see
//! [`crate::route`] for the router that fills the ring, and
//! [`crate::supervise`] for the fault contract both keep).

use std::sync::atomic::Ordering as AtomicOrdering;

use sso_core::{
    Expr, OpError, OperatorMetrics, OperatorSpec, Record, SamplingOperator, WindowOutput,
};
use sso_faults::WorkerFaultSchedule;
use sso_obs::{Gauge, Registry, Stopwatch};
use sso_profile::{Event as ProfEvent, LaneWriter, Profiler, Stage as ProfStage};
use sso_store::{PagedGroupTable, ShardStore, WindowRecord};
use sso_sync::SyncBool;
use sso_types::Tuple;

use crate::engine::{RuntimeConfig, RuntimeError, ShardStats, StoreStats};
use crate::merge::tuple_cmp;
use crate::pump::stamp;
use crate::ring::{Consumer, Producer};
use crate::route::Batch;
use crate::supervise::{stretch, supervised, window_key, Quarantine};

/// Durably record one window the shard is done with, on a durable run:
/// the output plus, for a window `op` closed, the carry-over and
/// library-auxiliary bytes the operator captured *at the flush
/// boundary* (see `SamplingOperator::set_capture_flush`), before the
/// tuple that closed the window touched the new window's state —
/// exactly the restart state, with no per-tuple work in the worker
/// loop. A window no operator closed (`op` is `None`) is a quarantine's
/// loss: it records no state, which restarts as the fresh operator the
/// quarantine respawns.
fn record_window(
    store: Option<&mut ShardStore>,
    op: Option<&mut SamplingOperator>,
    output: &WindowOutput,
    shard: usize,
) -> Result<(), RuntimeError> {
    let Some(store) = store else { return Ok(()) };
    let store_err = |message| RuntimeError::Store { shard, message };
    let (carry, aux) = match op {
        Some(op) => op
            .take_flush_state()
            .ok_or_else(|| store_err("window closed without a boundary snapshot".into()))?,
        None => Default::default(),
    };
    let record = WindowRecord { output, carry: &carry, aux: &aux };
    store.record_window(&record).map_err(|e| store_err(e.to_string()))
}

/// Build shard `shard`'s operator from the spec factory, wired for the
/// run: its metrics on the shard's label, pre-sized from `cfg.sizing`
/// and, on a durable run, capturing its boundary snapshots at every
/// window flush. The first instance of a run with a state budget keeps
/// its groups in the spill pager; a `respawn` after a quarantine runs
/// in RAM, so budget enforcement covers the fault-free path only.
pub(crate) fn operator<F>(
    make_spec: &F,
    shard: usize,
    cfg: &RuntimeConfig,
    registry: &Registry,
    respawn: bool,
) -> Result<SamplingOperator, RuntimeError>
where
    F: Fn(usize) -> Result<OperatorSpec, OpError>,
{
    let op_err = |source| RuntimeError::Op { shard, source };
    let spec = make_spec(shard).map_err(op_err)?;
    let entry_bytes = spec.group_entry_bytes() as u64;
    let mut op = SamplingOperator::new(spec).map_err(op_err)?;
    op.set_metrics(OperatorMetrics::register(registry, format!("shard={shard}")));
    if let Some(d) = &cfg.durability {
        if !op.can_persist() {
            return Err(RuntimeError::BadConfig(
                "query uses a stateful function without persistence support".into(),
            ));
        }
        // The operator snapshots carry/aux at each window flush; the
        // worker records those bytes when `process` hands it the closed
        // window. Per-tuple cost on the durable path: none.
        op.set_capture_flush(true);
        if let Some(total) = d.state_budget.filter(|_| !respawn) {
            let per_shard = (total / cfg.shards as u64).max(1);
            let table = PagedGroupTable::for_shard(&d.dir, shard, per_shard, entry_bytes)
                .map_err(|e| RuntimeError::Store { shard, message: e.to_string() })?;
            op.set_group_backend(Box::new(table));
        }
    }
    if let Some(hints) = &cfg.sizing {
        op.reserve(hints);
    }
    Ok(op)
}

/// A run's operator builder, shared by the first spawn and every respawn.
pub(crate) type Build<'a> =
    dyn Fn(usize, bool) -> Result<SamplingOperator, RuntimeError> + Sync + 'a;

/// One shard's supervised worker: its forward ring and return ring, the
/// live operator (`None` while quarantined), the windows it is done
/// with so far, and its quarantine. Each shard runs one on a
/// thread of its own ([`Worker::drain`]) over records of type `R`: the
/// operator builds a packet's row only where it needs one.
pub(crate) struct Worker<'a, R> {
    pub(crate) shard: usize,
    /// The shard's ring from the pump.
    pub(crate) rx: Consumer<Batch<R>>,
    /// Spent batches go home to the pump, emptied.
    pub(crate) home: Producer<Vec<R>>,
    /// This shard's `rt.ring_depth` cell: one down per batch taken.
    pub(crate) depth: Gauge,
    pub(crate) op: Option<SamplingOperator>,
    pub(crate) quarantine: Quarantine,
    /// Records fed into the live operator's current window (the loss if
    /// it panics now).
    pub(crate) window_tuples: u64,
    /// Records handed to this worker so far (fault triggers key on this).
    pub(crate) tuple_count: u64,
    pub(crate) windows: Vec<WindowOutput>,
    pub(crate) wexprs: Vec<Expr>,
    pub(crate) faults: WorkerFaultSchedule,
    pub(crate) stats: ShardStats,
    /// The run's [`operator`] builder: `build(shard, respawn)`.
    pub(crate) build: &'a Build<'a>,
    /// Durable writer for this shard (`None` = in-memory run).
    pub(crate) store: Option<ShardStore>,
    /// Resume watermark: records whose window key is `<=` this are
    /// skipped (their windows were recovered from the store). Cleared
    /// at the first record past it.
    pub(crate) watermark: Option<Tuple>,
    pub(crate) store_stats: Option<StoreStats>,
    /// The worker's lineage lane, opened on its own thread (`Some`
    /// exactly when the run is profiled).
    pub(crate) trace: Option<(Profiler, LaneWriter)>,
}

impl<R: Record + Send> Worker<'_, R> {
    /// Catch the aftermath of a panic: take the poisoned operator,
    /// charge the tuples fed into it to its current window and the tuple
    /// that tripped the panic (if any) to the window its own key names,
    /// and quarantine the operator's window — the tripping tuple's when
    /// the operator had none. A trip on the first tuple of a new window
    /// thus quarantines the old one, which the next tuple lifts: the new
    /// window loses the tripping tuple only, and the respawned
    /// operator's output for it carries that loss.
    fn enter_quarantine(&mut self, tripped_by: Option<&R>) {
        let current = self.op.take().and_then(|o| o.current_window());
        let tripped = tripped_by.and_then(|t| window_key(&self.wexprs, t));
        let key = current.or_else(|| tripped.clone());
        self.quarantine.enter(key.clone(), self.window_tuples);
        if tripped_by.is_some() {
            // A tripping tuple with no key of its own goes to the
            // quarantined window.
            self.quarantine.charge(tripped.or(key).as_ref(), 1);
        }
        self.window_tuples = 0;
    }

    fn run_batch(&mut self, batch: &[R]) -> Result<(), RuntimeError> {
        let mut cursor = 0usize;
        while cursor < batch.len() {
            if self.quarantine.active() {
                let skipped = self.quarantine.skip(&batch[cursor..], &self.wexprs);
                self.tuple_count += skipped as u64;
                cursor += skipped;
                if self.quarantine.active() {
                    return Ok(());
                }
                // Window boundary: the shard is done with every charged
                // window but the one the lifting tuple opens.
                let next = window_key(&self.wexprs, &batch[cursor]);
                self.release(next.as_ref())?;
                // Respawn a fresh operator and resume
                // live. Its sampler state starts clean — cross-window
                // threshold carry-over is lost for this shard, which
                // only makes the next window's sample *larger* (lower
                // z), never biased.
                self.op = Some((self.build)(self.shard, true)?);
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
    fn skip_recovered(&mut self, batch: &[R], mut cursor: usize) -> usize {
        while let (Some(wm), Some(t)) = (&self.watermark, batch.get(cursor)) {
            match window_key(&self.wexprs, t) {
                Some(k) if tuple_cmp(&k, wm).is_le() => {
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

    /// Hand the live operator one [`stretch`] from the front of
    /// `tuples` in one `process_batch` call, [`supervised`], and return
    /// how many tuples it consumed. While a resume watermark is still up
    /// (its tuple had no window key) the stretch is that one tuple.
    /// After a panic the operator's [`SamplingOperator::batch_entered`]
    /// names the tuple that raised it, and that tuple is the last one
    /// consumed.
    fn run_stretch(&mut self, tuples: &[R]) -> Result<usize, RuntimeError> {
        let shard = self.shard;
        let first = self.tuple_count + 1;
        let (fault, mut len) = stretch(&mut self.faults, first, tuples.len());
        if self.watermark.is_some() {
            len = 1;
        }
        let op = self.op.as_mut().expect("live worker has an operator");
        let windows = &mut self.windows;
        let before = windows.len();
        let mut in_op = false;
        let outcome = supervised(|| {
            if let Some(f) = fault {
                f.trip(shard, first);
            }
            in_op = true;
            op.process_batch(&tuples[..len], |w| windows.push(w))
        });
        let (entered, panicked) = match &outcome {
            Ok(Ok(())) => (len, false),
            Ok(Err(_)) => (op.batch_entered(), false),
            Err(_) if in_op => (op.batch_entered(), true),
            // The fault tripped before the operator saw its tuple.
            Err(_) => (1, true),
        };
        self.tuple_count += entered as u64;
        // Every window the stretch closed, in order: each was complete
        // before the tuple that failed or panicked (if any) came in, and
        // carries what the quarantine charged to it.
        let mut closed_tuples = 0;
        for w in &mut self.windows[before..] {
            self.stats.windows.inc();
            closed_tuples += w.stats.tuples;
            w.uncovered += self.quarantine.take(&w.window);
            record_window(self.store.as_mut(), Some(&mut *op), w, shard)?;
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

    /// Hand over, as windows of their own, the quarantine's charges to
    /// every window but `keep` (the one a live operator is to close):
    /// count, log and keep each like a window the operator closed.
    fn release(&mut self, keep: Option<&Tuple>) -> Result<(), RuntimeError> {
        for w in self.quarantine.release(keep) {
            self.stats.windows.inc();
            record_window(self.store.as_mut(), None, &w, self.shard)?;
            self.windows.push(w);
        }
        Ok(())
    }

    /// End of stream: flush the live operator's final window (a panic
    /// during the flush loses that window, accounted like any other),
    /// hand over every window still charged, then seal a durable run
    /// with its final checkpoint.
    fn finish(&mut self) -> Result<(), RuntimeError> {
        let shard = self.shard;
        if let Some(op) = self.op.as_mut() {
            match supervised(|| op.finish()) {
                Ok(Ok(Some(mut w))) => {
                    self.stats.windows.inc();
                    w.uncovered += self.quarantine.take(&w.window);
                    // The final flush captured its boundary snapshot
                    // like any other.
                    record_window(self.store.as_mut(), Some(op), &w, shard)?;
                    self.windows.push(w);
                }
                Ok(Ok(None)) => {}
                Ok(Err(source)) => return Err(RuntimeError::Op { shard, source }),
                Err(_) => self.enter_quarantine(None),
            }
        }
        self.release(None)?;
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
    /// pump is done, so the shard is complete and its windows are the
    /// thread's result, which the pump takes when it joins the thread.
    pub(crate) fn drain(
        mut self,
        crashed: &SyncBool,
    ) -> Result<Option<Vec<WindowOutput>>, RuntimeError> {
        while let Some(Batch { id, mut records }) = self.rx.pop() {
            self.depth.add(-1.0);
            let win = self.windows.len() as u32;
            let len = records.len() as u64;
            let sw = Stopwatch::start();
            self.run_batch(&records)?;
            let busy = sw.elapsed_ns();
            self.stats.tuples.add(len);
            self.stats.busy_ns.add(busy);
            // Never waited on: a full or closed return ring frees the
            // batch here and the pump allocates its replacement.
            records.clear();
            let _ = self.home.try_push(records);
            self.stamp(ProfStage::Process, busy, |e| e.window(win).batch(id).aux(len));
            self.publish_store_stats();
        }
        if crashed.load(AtomicOrdering::Acquire) {
            // Simulated process death: the pump cut the stream exactly
            // at the trigger position, so what was delivered is
            // deterministic, but the open window dies here. No finish,
            // no finalize, no windows: exactly what a killed process
            // leaves behind.
            return Ok(None);
        }
        let sw = Stopwatch::start();
        self.finish()?;
        let busy = sw.elapsed_ns();
        self.stats.busy_ns.add(busy);
        let win = self.windows.len().saturating_sub(1) as u32;
        self.stamp(ProfStage::Flush, busy, |e| e.window(win));
        Ok(Some(self.windows))
    }

    /// Stamp one `stage` event of `busy` ns ending now on the worker's
    /// lineage lane.
    fn stamp(&mut self, stage: ProfStage, busy: u64, detail: impl FnOnce(ProfEvent) -> ProfEvent) {
        let shard = self.shard as u16;
        if let Some((p, lane)) = self.trace.as_mut() {
            stamp(p, lane, stage, busy, |e| detail(e.shard(shard)));
        }
    }
}
