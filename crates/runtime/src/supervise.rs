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

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sso_core::{panic_message, EvalCtx, Expr};
use sso_faults::{WorkerFault, WorkerFaultSchedule};
use sso_obs::Counter;
use sso_profile::{DumpReason, Profiler};
use sso_types::Tuple;

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

/// One stage's window quarantine and its uncovered ledger.
pub(crate) struct Quarantine {
    /// `Some(key)` while quarantined for window `key`.
    window: Option<Tuple>,
    /// Tuples lost per window key; merge-finalize folds them into each
    /// window's `Degradation`.
    pub(crate) uncovered: Vec<(Tuple, u64)>,
    /// The stage's uncovered-tuple and quarantine counters.
    lost: Counter,
    entered: Counter,
    /// Flight recorder: a quarantine arms its dump trigger, so the last
    /// events before the panic survive the run.
    profiler: Option<Profiler>,
}

impl Quarantine {
    pub(crate) fn new(lost: Counter, entered: Counter, profiler: Option<Profiler>) -> Self {
        Quarantine { window: None, uncovered: Vec::new(), lost, entered, profiler }
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
        match self.uncovered.iter_mut().find(|(k, _)| *k == key) {
            Some((_, c)) => *c += n,
            None => self.uncovered.push((key, n)),
        }
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

    /// Pass over the quarantined window's tuples at the front of
    /// `tuples`, counting them as uncovered, and return how many were
    /// passed over. The first tuple of any other window lifts the
    /// quarantine; it is not passed over.
    pub(crate) fn skip(&mut self, tuples: &[Tuple], wexprs: &[Expr]) -> usize {
        let Some(key) = self.window.take() else { return 0 };
        let n = tuples.iter().take_while(|t| window_key(wexprs, t).as_ref() == Some(&key)).count();
        self.charge(Some(&key), n as u64);
        if n == tuples.len() {
            self.window = Some(key);
        }
        n
    }
}
