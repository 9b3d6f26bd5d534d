//! The fault contract the router ([`crate::route`]) and every shard
//! worker ([`crate::worker`]) share (see `DESIGN.md` §"Fault model").
//!
//! A stage processes its tuples in *stretches*, each under one
//! [`supervised`] call. A stretch ends just before the tuple its next
//! injected fault is due at ([`stretch`]), so the fault trips first
//! thing in a stretch, before the stage touches that tuple. A panic
//! enters the stage's [`Quarantine`] for the window it struck: the
//! window's remaining tuples are counted as uncovered, and the first
//! tuple of another window lifts it — the router goes live again, a
//! worker respawns its operator.
//!
//! What a quarantine charges is handed over on windows, the one place a
//! loss is kept: on the output of the window an operator closes, or on
//! a rowless window of its own for a window no operator closed.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sso_core::{panic_message, EvalCtx, Expr, Record, WindowOutput, WindowStats};
use sso_faults::{WorkerFault, WorkerFaultSchedule};
use sso_obs::Counter;
use sso_profile::{DumpReason, Profiler};
use sso_types::Tuple;

use crate::merge::tuple_cmp;

thread_local! {
    /// Set only inside [`supervised`]: a panic caught there is part of
    /// the fault model, not a crash, so the hook reduces it to one
    /// stderr line — the quarantine accounting is the real report.
    /// Every other panic, on any thread, reaches the previously
    /// installed hook.
    static QUIET_WORKER_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Install — once per process — a panic hook that quiets supervised
/// panics and chains to the prior hook for all others.
fn install_supervised_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET_WORKER_PANICS.with(Cell::get) {
                let msg = panic_message(info.payload());
                eprintln!("sso-runtime: supervised panic (quarantined for this window): {msg}");
            } else {
                prev(info);
            }
        }));
    });
}

/// Run `f` under `catch_unwind`, its panics quieted for this thread,
/// and restore the thread's previous setting after: the pump routes on
/// the caller's thread, whose other panics keep their hook.
pub(crate) fn supervised<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    install_supervised_panic_hook();
    let was = QUIET_WORKER_PANICS.with(|q| q.replace(true));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    QUIET_WORKER_PANICS.with(|q| q.set(was));
    outcome
}

/// The next stretch of a stage whose first tuple has 1-based ordinal
/// `first` and which has `avail` tuples at hand: the fault due at
/// `first` (if any), to trip before the stretch's first tuple, and the
/// stretch's length — up to just before the next pending trigger.
pub(crate) fn stretch(
    faults: &mut WorkerFaultSchedule,
    first: u64,
    avail: usize,
) -> (Option<WorkerFault>, usize) {
    let fault = faults.check(first);
    let len = match faults.peek() {
        Some(at) => at.saturating_sub(first).max(1).min(avail as u64) as usize,
        None => avail,
    };
    (fault, len)
}

/// Evaluate the window-defining expressions against a record, made a
/// row for it (a packet's row is built here: only the quarantine and
/// resume paths ask). `None` on evaluation error (the operator will
/// surface the error itself when the record is processed live).
pub(crate) fn window_key<R: Record>(wexprs: &[Expr], record: &R) -> Option<Tuple> {
    let mut row = Tuple::empty();
    let tuple = record.row(&mut row);
    let mut vals = Vec::with_capacity(wexprs.len());
    for e in wexprs {
        let mut ctx = EvalCtx { tuple: Some(tuple), ..EvalCtx::empty("GROUP BY") };
        vals.push(e.eval(&mut ctx).ok()?);
    }
    Some(Tuple::new(vals))
}

/// One stage's window quarantine and its uncovered ledger.
pub(crate) struct Quarantine {
    /// `Some(key)` while quarantined for window `key`.
    window: Option<Tuple>,
    /// Tuples lost per window key and not yet handed over on a window
    /// ([`Self::take`], [`Self::release`]).
    charged: Vec<(Tuple, u64)>,
    /// The stage's uncovered-tuple and quarantine counters.
    lost: Counter,
    entered: Counter,
    /// Flight recorder: a quarantine arms its dump trigger, so the last
    /// events before the panic survive the run.
    profiler: Option<Profiler>,
}

impl Quarantine {
    pub(crate) fn new(lost: Counter, entered: Counter, profiler: Option<Profiler>) -> Self {
        Quarantine { window: None, charged: Vec::new(), lost, entered, profiler }
    }

    /// Is the stage quarantined?
    pub(crate) fn active(&self) -> bool {
        self.window.is_some()
    }

    /// Count `n` tuples of window `key` as uncovered (`None`: a window
    /// with no key, e.g. one whose evaluation failed).
    pub(crate) fn charge(&mut self, key: Option<&Tuple>, n: u64) {
        if n == 0 {
            return;
        }
        let key = key.cloned().unwrap_or_else(|| Tuple::new(Vec::new()));
        self.lost.add(n);
        match self.charged.iter_mut().find(|(k, _)| *k == key) {
            Some((_, c)) => *c += n,
            None => self.charged.push((key, n)),
        }
    }

    /// The tuples charged to window `key`, handed over: an operator
    /// closed that window, and its output carries them.
    pub(crate) fn take(&mut self, key: &Tuple) -> u64 {
        match self.charged.iter().position(|(k, _)| k == key) {
            Some(i) => self.charged.swap_remove(i).1,
            None => 0,
        }
    }

    /// Every charge but `keep`'s, handed over in window order as a
    /// window of its own: no rows, no counted tuple, only the loss.
    pub(crate) fn release(&mut self, keep: Option<&Tuple>) -> Vec<WindowOutput> {
        let (kept, lost): (Vec<_>, Vec<_>) =
            self.charged.drain(..).partition(|(k, _)| Some(k) == keep);
        self.charged = kept;
        let mut lost: Vec<WindowOutput> = lost
            .into_iter()
            .map(|(window, uncovered)| WindowOutput {
                window,
                rows: Vec::new(),
                stats: WindowStats::default(),
                uncovered,
            })
            .collect();
        lost.sort_by(|a, b| tuple_cmp(&a.window, &b.window));
        lost
    }

    /// A panic struck window `key` after `lost` of its tuples entered
    /// the stage: [`Self::charge`] them, and quarantine the window.
    pub(crate) fn enter(&mut self, key: Option<Tuple>, lost: u64) {
        self.charge(key.as_ref(), lost);
        let key = key.unwrap_or_else(|| Tuple::new(Vec::new()));
        self.entered.inc();
        self.window = Some(key);
        if let Some(p) = &self.profiler {
            p.trigger(DumpReason::Panic);
        }
    }

    /// Pass over the quarantined window's records at the front of
    /// `records`, counting them as uncovered, and return how many were
    /// passed over. The first record of any other window lifts the
    /// quarantine; it is not passed over.
    pub(crate) fn skip<R: Record>(&mut self, records: &[R], wexprs: &[Expr]) -> usize {
        let Some(key) = self.window.take() else { return 0 };
        let n =
            records.iter().take_while(|r| window_key(wexprs, *r).as_ref() == Some(&key)).count();
        self.charge(Some(&key), n as u64);
        if n == records.len() {
            self.window = Some(key);
        }
        n
    }
}
