//! The deterministic model checker behind the `model` feature.
//!
//! [`Model::check`] runs a closure repeatedly, once per explored
//! schedule. Threads spawned through [`crate::thread::spawn`] run on
//! real OS threads but are serialized: a scheduler baton lets exactly
//! one thread execute at a time, and every facade operation (atomic
//! access, cell access, mutex lock/unlock, fence, yield, park/unpark,
//! spawn, join)
//! is one scheduling decision. The explorer drives a depth-first search
//! over those decisions, pruned with dynamic partial-order reduction:
//! only reorderings of *dependent* operations (same location, at least
//! one write) seed new schedules, and sleep sets skip a thread whose
//! next operation was already explored from an equivalent state.
//!
//! Synchronization is tracked with vector clocks, ThreadSanitizer
//! style: values are sequentially consistent (the real atomics are
//! used for storage), but clocks only propagate along the *declared*
//! orderings — an `Acquire` load joins a location's clock only if it
//! was published by a `Release`-or-stronger store (or an RMW extending
//! its release sequence). A missing `Release`/`Acquire` pair therefore
//! surfaces as a happens-before data race on the [`crate::SyncCell`]
//! data it was supposed to order.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A vector clock over model-thread ids (dense, small).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, tid: usize) -> u64 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    fn tick(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// `self ≤ other` pointwise: everything `self` knows, `other` knows.
    fn leq(&self, other: &VClock) -> bool {
        self.0.iter().enumerate().all(|(i, &v)| v <= other.get(i))
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What a visible operation did (recorded post-execution, so a failed
/// CAS shows up as the load it behaved as).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Load(Ordering),
    Store(Ordering),
    Rmw(Ordering),
    CellRead,
    CellWrite,
    Lock,
    Unlock,
    Fence(Ordering),
    Yield,
    Park,
    Unpark,
    Spawn,
    Join,
}

impl Op {
    fn is_write(self) -> bool {
        matches!(self, Op::Store(_) | Op::Rmw(_) | Op::CellWrite | Op::Unlock | Op::Unpark)
    }
}

#[derive(Clone, Debug)]
struct Event {
    tid: usize,
    op: Op,
    /// Display id of the touched location (`None` for fence/yield/
    /// spawn/join), assigned in first-touch order.
    loc: Option<usize>,
    /// Address of the touched location: what dependence compares.
    addr: Option<usize>,
}

impl Event {
    fn new(tid: usize, op: Op, addr: Option<usize>) -> Self {
        Event { tid, op, loc: None, addr }
    }

    /// The operation `tid` is parked at, as the event it will become
    /// (a CAS counts as its success, the conservative choice).
    fn pending(tid: usize, p: &Pending) -> Self {
        let (op, addr) = match *p {
            Pending::Atomic(op, a) | Pending::Cell(op, a) => (op, Some(a)),
            Pending::Lock(a) => (Op::Lock, Some(a)),
            Pending::Unlock(a) => (Op::Unlock, Some(a)),
            Pending::Fence(o) => (Op::Fence(o), None),
            Pending::Yield(_) => (Op::Yield, None),
            Pending::Park(token) => (Op::Park, Some(token)),
            Pending::Unpark(token) => (Op::Unpark, Some(token)),
            Pending::Spawn => (Op::Spawn, None),
            Pending::Join(_) => (Op::Join, None),
        };
        Event::new(tid, op, addr)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{} ", self.tid)?;
        match self.op {
            Op::Load(o) => write!(f, "load({o:?})")?,
            Op::Store(o) => write!(f, "store({o:?})")?,
            Op::Rmw(o) => write!(f, "rmw({o:?})")?,
            Op::CellRead => write!(f, "cell-read")?,
            Op::CellWrite => write!(f, "cell-write")?,
            Op::Lock => write!(f, "lock")?,
            Op::Unlock => write!(f, "unlock")?,
            Op::Fence(o) => write!(f, "fence({o:?})")?,
            Op::Yield => write!(f, "yield")?,
            Op::Park => write!(f, "park")?,
            Op::Unpark => write!(f, "unpark")?,
            Op::Spawn => write!(f, "spawn")?,
            Op::Join => write!(f, "join")?,
        }
        if let Some(l) = self.loc {
            write!(f, " @a{l}")?;
        }
        Ok(())
    }
}

/// Two events fail to commute: same location with at least one write,
/// or lock-protocol ops on the same mutex, or a yield against any
/// write (a write is what re-enables a yielded spinner).
fn dependent(a: &Event, b: &Event) -> bool {
    if a.tid == b.tid {
        return false;
    }
    if matches!(a.op, Op::Yield) {
        return b.op.is_write();
    }
    if matches!(b.op, Op::Yield) {
        return a.op.is_write();
    }
    match (a.addr, b.addr) {
        (Some(x), Some(y)) if x == y => match (a.op, b.op) {
            // Mutex protocol: two acquires of the same (free) mutex are
            // the only co-enabled dependent pair. Unlock↔lock and
            // unlock↔unlock can never both be enabled — one requires
            // the mutex held, the other free — so there is no
            // reordering to backtrack into, and treating them as
            // dependent would shadow the lock↔lock pair (DPOR only
            // looks at the *last* dependent event).
            (Op::Lock, Op::Lock) => true,
            (Op::Lock | Op::Unlock, _) | (_, Op::Lock | Op::Unlock) => false,
            _ => a.op.is_write() || b.op.is_write(),
        },
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Failures and results
// ---------------------------------------------------------------------------

/// Why a check failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// Two unordered accesses to the same `SyncCell`, at least one a write.
    DataRace,
    /// A plain store clobbered a value the storing thread loaded before
    /// another thread changed it (use an RMW or CAS loop instead).
    LostUpdate,
    /// No thread can make progress (includes spin livelock: every live
    /// thread yield-blocked with no writer left to wake it).
    Deadlock,
    /// The closure panicked (assertion failure, index out of bounds, …).
    Panic,
    /// A bound was hit (`max_steps`); the run is inconclusive, not racy.
    Limit,
}

/// A failed check: what went wrong, on which schedule, with the event
/// trace that led there. `schedule` can be fed to [`Model::replay`] to
/// deterministically re-execute the failing interleaving.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    pub message: String,
    /// Thread choice per decision — the replayable schedule.
    pub schedule: Vec<usize>,
    /// Human-readable event per decision.
    pub trace: Vec<String>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model check failed: {:?}: {}", self.kind, self.message)?;
        writeln!(f, "replayable schedule: {:?}", self.schedule)?;
        writeln!(f, "trace ({} events):", self.trace.len())?;
        for (i, t) in self.trace.iter().enumerate() {
            writeln!(f, "  [{i:3}] {t}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Failure {}

/// A successful exploration.
#[derive(Clone, Copy, Debug)]
pub struct Explored {
    /// Number of schedules executed.
    pub schedules: usize,
    /// `true` if the state space was exhausted within the bounds
    /// (`false` means `max_schedules` stopped the search early).
    pub complete: bool,
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

/// A parked thread's announced next operation.
#[derive(Clone, Debug)]
enum Pending {
    Atomic(Op, usize),
    Cell(Op, usize),
    Lock(usize),
    Unlock(usize),
    Fence(Ordering),
    /// Yield, with the global write epoch at announce time: enabled
    /// only once some other thread has written since.
    Yield(u64),
    /// Park on a slot's token: enabled once the slot has been unparked.
    Park(usize),
    Unpark(usize),
    Spawn,
    /// Join on a model thread id: enabled once that thread finished.
    Join(usize),
}

#[derive(Default)]
struct ThreadState {
    parked: Option<Pending>,
    finished: bool,
    clock: VClock,
    /// Clocks gathered by `Relaxed` loads, claimable by an acquire fence.
    acq_pending: VClock,
    /// Clock staged by a release fence, published by later `Relaxed` stores.
    fence_release: VClock,
    /// Per-location version observed at this thread's last atomic load.
    last_load: HashMap<usize, u64>,
    /// Global write epoch at this thread's last completed op. A yield
    /// blocks until a write lands *after* that op — capturing the epoch
    /// at yield time instead would lose wakeups (the writer may finish
    /// between the spin body's check and the yield).
    seen_epoch: u64,
}

#[derive(Default)]
struct Loc {
    /// Display id (first-touch order).
    id: usize,
    /// Clock published by the last release store (grown by RMWs
    /// extending the release sequence), joined by acquire loads.
    release: VClock,
    /// Bumped on every atomic write; drives lost-update detection.
    version: u64,
    /// Cell state: clock of the last writer, and per-thread read marks.
    cell_write: Option<VClock>,
    cell_reads: HashMap<usize, u64>,
}

/// One decision point of the current execution.
#[derive(Clone, Debug)]
struct Branch {
    enabled: BTreeSet<usize>,
    choice: usize,
    /// Threads asleep at this point: their next operation was explored
    /// from an equivalent state, so choosing one is redundant.
    sleep: BTreeSet<usize>,
}

struct SchedState {
    threads: Vec<ThreadState>,
    live: usize,
    /// Thread currently granted the baton (executing its visible op).
    executing: Option<usize>,
    /// Thread choices to follow; extended by the default policy past
    /// its end.
    prescription: Vec<usize>,
    /// The sleep set at the prescription's last decision: the threads
    /// already explored there and the ones asleep before them.
    sleep_from: Option<(usize, BTreeSet<usize>)>,
    /// The current sleep set (empty while replaying the prescription).
    sleep: BTreeSet<usize>,
    depth: usize,
    branches: Vec<Branch>,
    trace: Vec<Event>,
    locs: HashMap<usize, Loc>,
    next_loc_id: usize,
    /// Held model mutexes (by address).
    held: BTreeSet<usize>,
    /// Park slots with an unconsumed unpark token (by address).
    tokens: BTreeSet<usize>,
    /// Bumped on every write; wakes yield-blocked spinners.
    write_epoch: u64,
    /// The epoch of the last forced spinner wake (see `maybe_decide`):
    /// when it still equals `write_epoch`, the wake produced no real
    /// write and an all-yield stall is a genuine deadlock.
    forced_wake_epoch: Option<u64>,
    failure: Option<Failure>,
    aborting: bool,
    max_steps: usize,
}

struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Panic payload used to unwind model threads after a failure.
struct Abort;

fn install_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Abort>().is_none() {
                prev(info);
            }
        }));
    });
}

impl Scheduler {
    fn new(
        prescription: Vec<usize>,
        sleep_from: Option<(usize, BTreeSet<usize>)>,
        max_steps: usize,
    ) -> Arc<Self> {
        Arc::new(Scheduler {
            state: Mutex::new(SchedState {
                threads: vec![ThreadState { clock: VClock(vec![1]), ..Default::default() }],
                live: 1,
                executing: None,
                prescription,
                sleep_from,
                sleep: BTreeSet::new(),
                depth: 0,
                branches: Vec::new(),
                trace: Vec::new(),
                locs: HashMap::new(),
                next_loc_id: 0,
                held: BTreeSet::new(),
                tokens: BTreeSet::new(),
                write_epoch: 0,
                forced_wake_epoch: None,
                failure: None,
                aborting: false,
                max_steps,
            }),
            cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        })
    }

    /// Park at a visible op and wait for the baton. Returns with the
    /// baton held (`executing == Some(tid)`); the caller must finish
    /// the op via [`Self::complete`].
    fn acquire(&self, tid: usize, pending: Pending) {
        let mut st = self.state.lock().expect("model scheduler poisoned");
        st.threads[tid].parked = Some(pending);
        maybe_decide(&mut st, &self.cv);
        loop {
            if st.aborting {
                drop(st);
                panic::panic_any(Abort);
            }
            if st.executing == Some(tid) {
                st.threads[tid].parked = None;
                return;
            }
            st = self.cv.wait(st).expect("model scheduler poisoned");
        }
    }

    /// Record the executed event, run clock bookkeeping, release the
    /// baton. If bookkeeping raised a failure, start aborting.
    fn complete(
        &self,
        tid: usize,
        ev: Event,
        book: impl FnOnce(&mut SchedState) -> Result<(), (FailureKind, String)>,
    ) {
        let mut st = self.state.lock().expect("model scheduler poisoned");
        st.threads[tid].clock.tick(tid);
        st.trace.push(ev);
        if let Err((kind, message)) = book(&mut st) {
            fail(&mut st, kind, message);
        }
        let epoch = st.write_epoch;
        st.threads[tid].seen_epoch = epoch;
        st.executing = None;
        self.cv.notify_all();
        let abort = st.aborting;
        drop(st);
        if abort {
            panic::panic_any(Abort);
        }
    }

    fn finish(&self, tid: usize) {
        let mut st = self.state.lock().expect("model scheduler poisoned");
        st.threads[tid].finished = true;
        st.live -= 1;
        maybe_decide(&mut st, &self.cv);
        self.cv.notify_all();
    }
}

fn fail(st: &mut SchedState, kind: FailureKind, message: String) {
    if st.failure.is_none() {
        st.failure = Some(Failure {
            kind,
            message,
            schedule: st.branches.iter().map(|b| b.choice).collect(),
            trace: st.trace.iter().map(|e| e.to_string()).collect(),
        });
    }
    st.aborting = true;
}

/// Is `p` runnable right now?
fn pending_enabled(st: &SchedState, p: &Pending) -> bool {
    match p {
        Pending::Lock(addr) => !st.held.contains(addr),
        Pending::Join(child) => st.threads[*child].finished,
        Pending::Yield(epoch) => st.write_epoch != *epoch,
        Pending::Park(token) => st.tokens.contains(token),
        _ => true,
    }
}

/// If every live thread is parked (or blocked) and nobody holds the
/// baton, pick the next thread: prescription first, then
/// continue-the-last-thread, then lowest enabled id.
fn maybe_decide(st: &mut SchedState, cv: &Condvar) {
    if st.executing.is_some() || st.aborting {
        return;
    }
    let all_parked = st.threads.iter().all(|t| t.finished || t.parked.is_some());
    if !all_parked || st.live == 0 {
        return;
    }
    let runnable = |st: &SchedState| -> BTreeSet<usize> {
        st.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.finished)
            .filter(|(_, t)| t.parked.as_ref().is_some_and(|p| pending_enabled(st, p)))
            .map(|(i, _)| i)
            .collect()
    };
    let mut enabled = runnable(st);
    if enabled.is_empty() {
        // A yield parks until a *new* write arrives — but a spinner
        // that itself wrote after the state it failed on had already
        // changed (e.g. a wait-entry hook updating a gauge after the
        // consumer's pop) would park here forever even though its next
        // re-read succeeds. When every live thread is yield-parked,
        // grant one forced wake; only if the wake round produces no
        // real write is the stall a genuine deadlock/livelock.
        let all_yield = st
            .threads
            .iter()
            .filter(|t| !t.finished)
            .all(|t| matches!(t.parked, Some(Pending::Yield(_))));
        if all_yield && st.forced_wake_epoch != Some(st.write_epoch) {
            st.write_epoch += 1;
            st.forced_wake_epoch = Some(st.write_epoch);
            enabled = runnable(st);
        }
    }
    if enabled.is_empty() {
        let waits: Vec<String> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.finished)
            .map(|(i, t)| format!("t{i} blocked on {:?}", t.parked))
            .collect();
        fail(
            st,
            FailureKind::Deadlock,
            format!("no thread can make progress: {}", waits.join("; ")),
        );
        cv.notify_all();
        return;
    }
    if st.depth >= st.max_steps {
        fail(st, FailureKind::Limit, format!("schedule exceeded max_steps = {}", st.max_steps));
        cv.notify_all();
        return;
    }
    let d = st.depth;
    if let Some((_, sleep)) = st.sleep_from.take_if(|(at, _)| *at == d) {
        st.sleep = sleep;
    }
    let choice = match st.prescription.get(d) {
        Some(&c) if enabled.contains(&c) => c,
        Some(&c) => {
            // Stale prescription (nondeterministic closure); fall back.
            debug_assert!(false, "prescribed t{c} not enabled at depth {d}");
            *enabled.iter().next().expect("nonempty")
        }
        None => {
            let awake: BTreeSet<usize> = enabled.difference(&st.sleep).copied().collect();
            let Some(&lowest) = awake.iter().next() else {
                // Every enabled thread is asleep: whatever runs next was
                // already explored from an equivalent state. End this
                // schedule without a failure.
                st.aborting = true;
                cv.notify_all();
                return;
            };
            let last = st.trace.last().map(|e| e.tid);
            let c = match last {
                Some(t) if awake.contains(&t) => t,
                _ => lowest,
            };
            st.prescription.push(c);
            c
        }
    };
    // A sleeping thread wakes once an operation dependent on its own
    // next one runs.
    let sleep = std::mem::take(&mut st.sleep);
    let next = |t: usize| Event::pending(t, st.threads[t].parked.as_ref().expect("all parked"));
    let chosen = next(choice);
    st.sleep =
        sleep.iter().copied().filter(|&t| t != choice && !dependent(&next(t), &chosen)).collect();
    st.branches.push(Branch { enabled, choice, sleep });
    st.depth += 1;
    st.executing = Some(choice);
    cv.notify_all();
}

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn loc_entry(st: &mut SchedState, addr: usize) -> &mut Loc {
    let next = &mut st.next_loc_id;
    st.locs.entry(addr).or_insert_with(|| {
        let id = *next;
        *next += 1;
        Loc { id, ..Default::default() }
    })
}

// ---------------------------------------------------------------------------
// Thread-local context: the facade's entry point
// ---------------------------------------------------------------------------

pub(crate) mod ctx {
    use super::*;
    use std::cell::RefCell;

    /// Kind of plain atomic op, as announced by the facade.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum AtomKind {
        Load,
        Store,
        Rmw,
    }

    pub(crate) struct Ctx {
        sched: Arc<Scheduler>,
        tid: usize,
    }

    thread_local! {
        static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    }

    pub(crate) fn in_model() -> bool {
        CTX.with(|c| c.borrow().is_some())
    }

    /// Run `f` with this thread's model context, or `None` outside a
    /// model run (the facade then falls through to the raw op).
    pub(crate) fn with<R>(f: impl FnOnce(&Ctx) -> R) -> Option<R> {
        CTX.with(|c| {
            // A shared borrow is held across `f`, which may re-enter
            // `with` from nested facade calls — shared borrows stack.
            let b = c.borrow();
            b.as_ref().map(f)
        })
    }

    fn set(ctx: Option<Ctx>) {
        CTX.with(|c| *c.borrow_mut() = ctx);
    }

    impl Ctx {
        /// During abort unwinding, destructors may still hit facade
        /// ops; run them raw instead of re-entering the scheduler.
        fn bypass(&self) -> bool {
            let st = self.sched.state.lock().expect("model scheduler poisoned");
            st.aborting && std::thread::panicking()
        }

        pub(crate) fn atomic<R>(
            &self,
            addr: usize,
            kind: AtomKind,
            ord: Ordering,
            body: impl FnOnce() -> R,
        ) -> R {
            if self.bypass() {
                return body();
            }
            let tid = self.tid;
            let (pending, op) = match kind {
                AtomKind::Load => (Pending::Atomic(Op::Load(ord), addr), Op::Load(ord)),
                AtomKind::Store => (Pending::Atomic(Op::Store(ord), addr), Op::Store(ord)),
                AtomKind::Rmw => (Pending::Atomic(Op::Rmw(ord), addr), Op::Rmw(ord)),
            };
            self.sched.acquire(tid, pending);
            let r = body();
            self.sched.complete(tid, Event::new(tid, op, Some(addr)), |st| {
                let loc = loc_entry(st, addr);
                let id = loc.id;
                let result = apply_atomic(st, tid, addr, op);
                if let Some(ev) = st.trace.last_mut() {
                    ev.loc = Some(id);
                }
                result
            });
            r
        }

        pub(crate) fn cas<R>(
            &self,
            addr: usize,
            success: Ordering,
            failure: Ordering,
            body: impl FnOnce() -> (R, bool),
        ) -> R {
            if self.bypass() {
                return body().0;
            }
            let tid = self.tid;
            self.sched.acquire(tid, Pending::Atomic(Op::Rmw(success), addr));
            let (r, ok) = body();
            let op = if ok { Op::Rmw(success) } else { Op::Load(failure) };
            self.sched.complete(tid, Event::new(tid, op, Some(addr)), |st| {
                let loc = loc_entry(st, addr);
                let id = loc.id;
                let result = apply_atomic(st, tid, addr, op);
                if let Some(ev) = st.trace.last_mut() {
                    ev.loc = Some(id);
                }
                result
            });
            r
        }

        pub(crate) fn cell_read<R>(&self, addr: usize, body: impl FnOnce() -> R) -> R {
            self.cell(addr, Op::CellRead, body)
        }

        pub(crate) fn cell_write<R>(&self, addr: usize, body: impl FnOnce() -> R) -> R {
            self.cell(addr, Op::CellWrite, body)
        }

        fn cell<R>(&self, addr: usize, op: Op, body: impl FnOnce() -> R) -> R {
            if self.bypass() {
                return body();
            }
            let tid = self.tid;
            self.sched.acquire(tid, Pending::Cell(op, addr));
            // Race check happens BEFORE the raw access: a racy access
            // is UB in the modeled program, so report instead of doing
            // it. Under the serialized scheduler the access itself is
            // physically safe either way, but the report must win.
            {
                let mut st = self.sched.state.lock().expect("model scheduler poisoned");
                let clock = st.threads[tid].clock.clone();
                let loc = loc_entry(&mut st, addr);
                let id = loc.id;
                let mut racy = None;
                if let Some(w) = &loc.cell_write {
                    if !w.leq(&clock) {
                        racy = Some("concurrent write not ordered before this access");
                    }
                }
                if op == Op::CellWrite && racy.is_none() {
                    for (&u, &c) in &loc.cell_reads {
                        if clock.get(u) < c {
                            racy = Some("concurrent read not ordered before this write");
                            break;
                        }
                    }
                }
                if let Some(why) = racy {
                    let kind_s = if op == Op::CellWrite { "write" } else { "read" };
                    st.trace.push(Event { tid, op, loc: Some(id), addr: Some(addr) });
                    fail(
                        &mut st,
                        FailureKind::DataRace,
                        format!("data race: t{tid} cell-{kind_s} @a{id}: {why}"),
                    );
                    self.sched.cv.notify_all();
                    drop(st);
                    panic::panic_any(Abort);
                }
            }
            let r = body();
            self.sched.complete(tid, Event::new(tid, op, Some(addr)), move |st| {
                let clock = st.threads[tid].clock.clone();
                let epoch = clock.get(tid);
                let loc = loc_entry(st, addr);
                let id = loc.id;
                if op == Op::CellWrite {
                    loc.cell_write = Some(clock);
                    loc.cell_reads.clear();
                    st.write_epoch += 1;
                } else {
                    loc.cell_reads.insert(tid, epoch);
                }
                if let Some(ev) = st.trace.last_mut() {
                    ev.loc = Some(id);
                }
                Ok(())
            });
            r
        }

        pub(crate) fn mutex_lock(&self, addr: usize) {
            if self.bypass() {
                return;
            }
            let tid = self.tid;
            self.sched.acquire(tid, Pending::Lock(addr));
            self.sched.complete(tid, Event::new(tid, Op::Lock, Some(addr)), |st| {
                let loc = loc_entry(st, addr);
                let id = loc.id;
                let release = loc.release.clone();
                st.threads[tid].clock.join(&release);
                st.held.insert(addr);
                if let Some(ev) = st.trace.last_mut() {
                    ev.loc = Some(id);
                }
                Ok(())
            });
        }

        pub(crate) fn mutex_unlock(&self, addr: usize) {
            if self.bypass() {
                return;
            }
            let tid = self.tid;
            self.sched.acquire(tid, Pending::Unlock(addr));
            self.sched.complete(tid, Event::new(tid, Op::Unlock, Some(addr)), |st| {
                let clock = st.threads[tid].clock.clone();
                let loc = loc_entry(st, addr);
                let id = loc.id;
                loc.release = clock;
                st.held.remove(&addr);
                st.write_epoch += 1;
                if let Some(ev) = st.trace.last_mut() {
                    ev.loc = Some(id);
                }
                Ok(())
            });
        }

        pub(crate) fn fence(&self, ord: Ordering) {
            if self.bypass() {
                return;
            }
            let tid = self.tid;
            self.sched.acquire(tid, Pending::Fence(ord));
            self.sched.complete(tid, Event::new(tid, Op::Fence(ord), None), |st| {
                let t = &mut st.threads[tid];
                if is_acquire(ord) {
                    let pend = t.acq_pending.clone();
                    t.clock.join(&pend);
                }
                if is_release(ord) {
                    t.fence_release = t.clock.clone();
                }
                Ok(())
            });
        }

        pub(crate) fn yield_now(&self) {
            if self.bypass() {
                return;
            }
            let tid = self.tid;
            let epoch = {
                let st = self.sched.state.lock().expect("model scheduler poisoned");
                st.threads[tid].seen_epoch
            };
            self.sched.acquire(tid, Pending::Yield(epoch));
            self.sched.complete(tid, Event::new(tid, Op::Yield, None), |_| Ok(()));
        }

        /// Block until `token`'s slot is unparked — only that slot's
        /// unpark enables it, so a missed notify is a deadlock — then
        /// consume the token.
        pub(crate) fn park(&self, token: usize) {
            if self.bypass() {
                return;
            }
            let tid = self.tid;
            self.sched.acquire(tid, Pending::Park(token));
            self.sched.complete(tid, Event::new(tid, Op::Park, Some(token)), |st| {
                st.tokens.remove(&token);
                let id = loc_entry(st, token).id;
                if let Some(ev) = st.trace.last_mut() {
                    ev.loc = Some(id);
                }
                Ok(())
            });
        }

        /// Leave an unpark token on `token`'s slot.
        pub(crate) fn unpark(&self, token: usize) {
            if self.bypass() {
                return;
            }
            let tid = self.tid;
            self.sched.acquire(tid, Pending::Unpark(token));
            self.sched.complete(tid, Event::new(tid, Op::Unpark, Some(token)), |st| {
                st.tokens.insert(token);
                st.write_epoch += 1;
                let id = loc_entry(st, token).id;
                if let Some(ev) = st.trace.last_mut() {
                    ev.loc = Some(id);
                }
                Ok(())
            });
        }

        pub(crate) fn spawn(&self, f: Box<dyn FnOnce() + Send>) -> usize {
            if self.bypass() {
                // No meaningful way to model-spawn while aborting; run
                // inline so the closure's effects still happen.
                f();
                return usize::MAX;
            }
            let tid = self.tid;
            self.sched.acquire(tid, Pending::Spawn);
            let child = {
                let mut st = self.sched.state.lock().expect("model scheduler poisoned");
                let child = st.threads.len();
                let mut clock = st.threads[tid].clock.clone();
                clock.tick(child);
                st.threads.push(ThreadState { clock, ..Default::default() });
                st.live += 1;
                child
            };
            let sched = self.sched.clone();
            let handle = std::thread::Builder::new()
                .name(format!("sso-model-t{child}"))
                .spawn(move || run_model_thread(sched, child, f))
                .expect("spawn model thread");
            self.sched.handles.lock().expect("handles").push(handle);
            self.sched.complete(tid, Event::new(tid, Op::Spawn, None), |_| Ok(()));
            child
        }

        pub(crate) fn join(&self, child: usize) {
            if self.bypass() {
                return;
            }
            let tid = self.tid;
            self.sched.acquire(tid, Pending::Join(child));
            self.sched.complete(tid, Event::new(tid, Op::Join, None), |st| {
                let child_clock = st.threads[child].clock.clone();
                st.threads[tid].clock.join(&child_clock);
                Ok(())
            });
        }
    }

    /// Clock bookkeeping shared by plain atomics and CAS outcomes.
    fn apply_atomic(
        st: &mut SchedState,
        tid: usize,
        addr: usize,
        op: Op,
    ) -> Result<(), (FailureKind, String)> {
        match op {
            Op::Load(ord) => {
                let release = loc_entry(st, addr).release.clone();
                let version = loc_entry(st, addr).version;
                let t = &mut st.threads[tid];
                if is_acquire(ord) {
                    t.clock.join(&release);
                } else {
                    t.acq_pending.join(&release);
                }
                t.last_load.insert(addr, version);
                Ok(())
            }
            Op::Store(ord) => {
                let (version, id) = {
                    let loc = loc_entry(st, addr);
                    (loc.version, loc.id)
                };
                if let Some(&seen) = st.threads[tid].last_load.get(&addr) {
                    if seen != version {
                        return Err((
                            FailureKind::LostUpdate,
                            format!(
                                "lost update: t{tid} stores to @a{id} but the value \
                                 changed since its last load (loaded v{seen}, now v{version}); \
                                 use fetch_add/compare_exchange"
                            ),
                        ));
                    }
                }
                let clock = st.threads[tid].clock.clone();
                let staged = st.threads[tid].fence_release.clone();
                let loc = loc_entry(st, addr);
                loc.version += 1;
                // A release store publishes this thread's clock; a
                // relaxed store publishes only what a prior release
                // fence staged (and severs any earlier release).
                loc.release = if is_release(ord) { clock } else { staged };
                let v = loc.version;
                st.threads[tid].last_load.insert(addr, v);
                st.write_epoch += 1;
                Ok(())
            }
            Op::Rmw(ord) => {
                let release = loc_entry(st, addr).release.clone();
                {
                    let t = &mut st.threads[tid];
                    if is_acquire(ord) {
                        t.clock.join(&release);
                    } else {
                        t.acq_pending.join(&release);
                    }
                }
                let clock = st.threads[tid].clock.clone();
                let loc = loc_entry(st, addr);
                loc.version += 1;
                // An RMW extends the release sequence: the prior
                // release clock is kept even when the RMW is Relaxed,
                // and a Release RMW adds this thread's clock on top.
                if is_release(ord) {
                    loc.release.join(&clock);
                }
                let v = loc.version;
                st.threads[tid].last_load.insert(addr, v);
                st.write_epoch += 1;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    pub(super) fn run_model_thread(sched: Arc<Scheduler>, tid: usize, f: Box<dyn FnOnce() + Send>) {
        set(Some(Ctx { sched: sched.clone(), tid }));
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        set(None);
        if let Err(payload) = result {
            if payload.downcast_ref::<Abort>().is_none() {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                let mut st = sched.state.lock().expect("model scheduler poisoned");
                fail(&mut st, FailureKind::Panic, format!("t{tid} panicked: {msg}"));
                sched.cv.notify_all();
            }
        }
        sched.finish(tid);
    }
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// Persistent DFS state for one decision depth, shared across
/// executions with an identical prefix.
struct StackFrame {
    enabled: BTreeSet<usize>,
    done: BTreeSet<usize>,
    /// Threads asleep when this state was first reached; never chosen.
    sleep: BTreeSet<usize>,
    /// DPOR: threads whose op was found dependent with a later event
    /// and must be tried at this point.
    backtrack: BTreeSet<usize>,
}

/// Model-check builder. See the crate docs for the memory-model rules.
#[derive(Clone, Debug)]
pub struct Model {
    max_schedules: usize,
    max_steps: usize,
    dpor: bool,
    replay: Option<Vec<usize>>,
}

impl Default for Model {
    fn default() -> Self {
        Self::new()
    }
}

impl Model {
    pub fn new() -> Self {
        Model { max_schedules: 50_000, max_steps: 20_000, dpor: true, replay: None }
    }

    /// Stop after this many schedules (`Explored::complete` turns false).
    pub fn max_schedules(mut self, n: usize) -> Self {
        self.max_schedules = n;
        self
    }

    /// Fail any single schedule longer than `n` decisions with
    /// [`FailureKind::Limit`] (guards runaway loops).
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Disable partial-order reduction (full DFS over enabled sets).
    pub fn dpor(mut self, on: bool) -> Self {
        self.dpor = on;
        self
    }

    /// Execute exactly one schedule — the one a [`Failure`] printed.
    pub fn replay(mut self, schedule: Vec<usize>) -> Self {
        self.replay = Some(schedule);
        self
    }

    /// Explore interleavings of `f`. `f` runs once per schedule and
    /// must build its state from scratch each time (it gets no input;
    /// capture configuration by value).
    pub fn check(self, f: impl Fn() + Send + Sync + 'static) -> Result<Explored, Box<Failure>> {
        install_panic_hook();
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);

        if let Some(schedule) = self.replay {
            let (_, _, failure) = run_one(&f, schedule, None, self.max_steps);
            return match failure {
                Some(fl) => Err(Box::new(fl)),
                None => Ok(Explored { schedules: 1, complete: false }),
            };
        }

        let mut stack: Vec<StackFrame> = Vec::new();
        let mut schedules = 0usize;
        let mut prescription: Vec<usize> = Vec::new();
        let mut sleep_from = None;

        loop {
            if schedules >= self.max_schedules {
                return Ok(Explored { schedules, complete: false });
            }
            schedules += 1;
            let (branches, events, failure) =
                run_one(&f, prescription, sleep_from.take(), self.max_steps);
            if let Some(fl) = failure {
                return Err(Box::new(fl));
            }

            // Fold this execution into the DFS stack. The prefix up to
            // the backtrack point is unchanged from the previous run,
            // so frames stay valid; deeper frames are fresh.
            let path: Vec<usize> = branches.iter().map(|b| b.choice).collect();
            for (d, b) in branches.iter().enumerate() {
                if d < stack.len() {
                    stack[d].done.insert(b.choice);
                } else {
                    stack.push(StackFrame {
                        enabled: b.enabled.clone(),
                        done: BTreeSet::from([b.choice]),
                        sleep: b.sleep.clone(),
                        backtrack: BTreeSet::new(),
                    });
                }
            }
            stack.truncate(branches.len());

            if self.dpor {
                // Classic DPOR: for each event, find the most recent
                // dependent event of another thread; its decision point
                // must also try (roughly) this event's thread.
                for (j, ej) in events.iter().enumerate() {
                    let Some(i) = (0..j).rev().find(|&i| dependent(&events[i], ej)) else {
                        continue;
                    };
                    let frame = &mut stack[i];
                    if frame.enabled.contains(&ej.tid) {
                        frame.backtrack.insert(ej.tid);
                    } else {
                        // ej's thread wasn't schedulable there; try
                        // everything enabled (conservative).
                        let all = frame.enabled.clone();
                        frame.backtrack.extend(all);
                    }
                }
            }

            // Deepest frame with an untried candidate.
            let next = (0..stack.len()).rev().find_map(|d| {
                let fr = &stack[d];
                let pool = if self.dpor { &fr.backtrack } else { &fr.enabled };
                pool.iter().find(|c| !fr.done.contains(c) && !fr.sleep.contains(c)).map(|&c| (d, c))
            });
            match next {
                Some((d, c)) => {
                    prescription = path[..d].to_vec();
                    prescription.push(c);
                    // What was explored from this state before `c`
                    // sleeps through `c`'s subtree until woken.
                    let fr = &stack[d];
                    sleep_from = Some((d, fr.sleep.union(&fr.done).copied().collect()));
                    stack.truncate(d + 1);
                }
                None => return Ok(Explored { schedules, complete: true }),
            }
        }
    }
}

/// Explore with default bounds.
pub fn check(f: impl Fn() + Send + Sync + 'static) -> Result<Explored, Box<Failure>> {
    Model::new().check(f)
}

fn run_one(
    f: &Arc<dyn Fn() + Send + Sync>,
    prescription: Vec<usize>,
    sleep_from: Option<(usize, BTreeSet<usize>)>,
    max_steps: usize,
) -> (Vec<Branch>, Vec<Event>, Option<Failure>) {
    let sched = Scheduler::new(prescription, sleep_from, max_steps);
    let root = f.clone();
    let s2 = sched.clone();
    let root_handle = std::thread::Builder::new()
        .name("sso-model-t0".into())
        .spawn(move || ctx::run_model_thread(s2, 0, Box::new(move || root())))
        .expect("spawn model root thread");

    {
        let mut st = sched.state.lock().expect("model scheduler poisoned");
        while st.live > 0 {
            st = sched.cv.wait(st).expect("model scheduler poisoned");
        }
    }
    root_handle.join().ok();
    for h in sched.handles.lock().expect("handles").drain(..) {
        h.join().ok();
    }

    let sched = Arc::try_unwrap(sched).unwrap_or_else(|_| panic!("scheduler still shared"));
    let st = sched.state.into_inner().expect("model scheduler poisoned");
    (st.branches, st.trace, st.failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hint, thread, SyncCell, SyncMutex, SyncU64};

    #[test]
    fn counter_rmw_explores_and_passes() {
        let explored = check(|| {
            let c = Arc::new(SyncU64::new(0));
            let c2 = c.clone();
            let h = thread::spawn(move || {
                c2.fetch_add(1, Ordering::Relaxed);
            });
            c.fetch_add(1, Ordering::Relaxed);
            h.join();
            assert_eq!(c.load(Ordering::Relaxed), 2);
        })
        .expect("no race in RMW counter");
        assert!(explored.complete);
        assert!(explored.schedules >= 2, "interleavings were explored: {explored:?}");
    }

    #[test]
    fn release_acquire_publication_is_race_free() {
        check(|| {
            let data = Arc::new(SyncCell::new(0u64));
            let flag = Arc::new(SyncU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let h = thread::spawn(move || {
                unsafe { d2.with_mut(|v| *v = 42) };
                f2.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) == 1 {
                let v = unsafe { data.with(|v| *v) };
                assert_eq!(v, 42);
            }
            h.join();
        })
        .expect("release/acquire publication is sound");
    }

    #[test]
    fn relaxed_publication_is_a_data_race() {
        let failure = check(|| {
            let data = Arc::new(SyncCell::new(0u64));
            let flag = Arc::new(SyncU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let h = thread::spawn(move || {
                unsafe { d2.with_mut(|v| *v = 42) };
                f2.store(1, Ordering::Relaxed); // BUG: needs Release
            });
            if flag.load(Ordering::Acquire) == 1 {
                unsafe { data.with(|v| *v) };
            }
            h.join();
        })
        .expect_err("relaxed flag must not order the cell");
        assert_eq!(failure.kind, FailureKind::DataRace);
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn fences_upgrade_relaxed_publication() {
        check(|| {
            let data = Arc::new(SyncCell::new(0u64));
            let flag = Arc::new(SyncU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let h = thread::spawn(move || {
                unsafe { d2.with_mut(|v| *v = 42) };
                crate::fence(Ordering::Release);
                f2.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) == 1 {
                crate::fence(Ordering::Acquire);
                unsafe { data.with(|v| *v) };
            }
            h.join();
        })
        .expect("fence pair orders the relaxed flag");
    }

    #[test]
    fn load_then_store_loses_updates() {
        let failure = check(|| {
            let c = Arc::new(SyncU64::new(0));
            let c2 = c.clone();
            let h = thread::spawn(move || {
                let v = c2.load(Ordering::Relaxed);
                c2.store(v + 1, Ordering::Relaxed); // BUG: racy increment
            });
            let v = c.load(Ordering::Relaxed);
            c.store(v + 1, Ordering::Relaxed);
            h.join();
        })
        .expect_err("racy load+store increment must be reported");
        assert_eq!(failure.kind, FailureKind::LostUpdate);
    }

    #[test]
    fn abba_lock_order_deadlocks() {
        let failure = check(|| {
            let a = Arc::new(SyncMutex::new(()));
            let b = Arc::new(SyncMutex::new(()));
            let (a2, b2) = (a.clone(), b.clone());
            let h = thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop(_ga);
            drop(_gb);
            h.join();
        })
        .expect_err("ABBA ordering must deadlock in some schedule");
        assert_eq!(failure.kind, FailureKind::Deadlock);
    }

    #[test]
    fn replay_reproduces_a_failure() {
        let scenario = || {
            let data = Arc::new(SyncCell::new(0u64));
            let flag = Arc::new(SyncU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let h = thread::spawn(move || {
                unsafe { d2.with_mut(|v| *v = 1) };
                f2.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Acquire) == 1 {
                unsafe { data.with(|v| *v) };
            }
            h.join();
        };
        let failure = check(scenario).expect_err("race expected");
        let replayed = Model::new()
            .replay(failure.schedule.clone())
            .check(scenario)
            .expect_err("replaying the failing schedule reproduces the race");
        assert_eq!(replayed.kind, failure.kind);
    }

    #[test]
    fn spin_yield_wakes_on_write_and_livelock_is_deadlock() {
        check(|| {
            let flag = Arc::new(SyncU64::new(0));
            let f2 = flag.clone();
            let h = thread::spawn(move || {
                f2.store(1, Ordering::Release);
            });
            while flag.load(Ordering::Acquire) == 0 {
                hint::spin_yield();
            }
            h.join();
        })
        .expect("spin loop terminates once the writer runs");

        let failure = check(|| {
            let flag = SyncU64::new(0);
            while flag.load(Ordering::Acquire) == 0 {
                hint::spin_yield();
            }
        })
        .expect_err("spinning with no writer is a livelock");
        assert_eq!(failure.kind, FailureKind::Deadlock);
    }

    /// A spinner that *itself writes* inside the wait loop (the
    /// wait-entry gauge pattern) can advance its own wake epoch past
    /// the very store it is waiting for: writer stores the flag, then
    /// the spinner's gauge RMW bumps the epoch, then it parks — and no
    /// further write would ever wake it. The scheduler grants one
    /// forced wake per epoch before declaring deadlock, so the re-read
    /// observes the flag; a truly writer-less spin still fails.
    #[test]
    fn self_writing_spinner_is_woken_not_deadlocked() {
        check(|| {
            let flag = Arc::new(SyncU64::new(0));
            let gauge = Arc::new(SyncU64::new(0));
            let f2 = flag.clone();
            let h = thread::spawn(move || {
                f2.store(1, Ordering::Release);
            });
            while flag.load(Ordering::Acquire) == 0 {
                gauge.fetch_add(1, Ordering::Relaxed);
                hint::spin_yield();
            }
            h.join();
        })
        .expect("a spinner whose own RMW trails the store must still wake");

        // Write once at wait entry, then pure-spin with no writer: the
        // single forced wake produces no new write, so the second stall
        // is still reported as a genuine deadlock.
        let failure = check(|| {
            let flag = SyncU64::new(0);
            let gauge = SyncU64::new(0);
            let mut entered = false;
            while flag.load(Ordering::Acquire) == 0 {
                if !entered {
                    entered = true;
                    gauge.fetch_add(1, Ordering::Relaxed);
                }
                hint::spin_yield();
            }
        })
        .expect_err("one forced wake must not mask a writer-less livelock");
        assert_eq!(failure.kind, FailureKind::Deadlock);
    }

    /// A park is released by its own slot's notify and nothing else: an
    /// unrelated store, or a notify of another slot, leaves it blocked,
    /// and the stall is reported as a deadlock.
    #[test]
    fn park_waits_for_its_own_slot_only() {
        use crate::park::ParkSlot;
        check(|| {
            let flag = Arc::new(SyncU64::new(0));
            let slot = Arc::new(ParkSlot::new());
            let (f2, s2) = (flag.clone(), slot.clone());
            let h = thread::spawn(move || {
                f2.store(1, Ordering::Release);
                s2.notify();
            });
            while flag.load(Ordering::Acquire) == 0 {
                slot.announce();
                if flag.load(Ordering::Acquire) != 0 {
                    slot.withdraw();
                    break;
                }
                slot.park();
            }
            h.join();
        })
        .expect("announce / re-check / park never misses the notify");

        let failure = check(|| {
            let flag = Arc::new(SyncU64::new(0));
            let (mine, other) = (Arc::new(ParkSlot::new()), Arc::new(ParkSlot::new()));
            let (f2, o2) = (flag.clone(), other.clone());
            let h = thread::spawn(move || {
                f2.store(1, Ordering::Release);
                o2.notify();
            });
            mine.announce();
            mine.park();
            h.join();
        })
        .expect_err("a park nobody notifies must not be woken by other writes");
        assert_eq!(failure.kind, FailureKind::Deadlock);
    }

    #[test]
    fn mutex_guards_cells() {
        check(|| {
            let m = Arc::new(SyncMutex::new(()));
            let data = Arc::new(SyncCell::new(0u64));
            let (m2, d2) = (m.clone(), data.clone());
            let h = thread::spawn(move || {
                let _g = m2.lock();
                unsafe { d2.with_mut(|v| *v += 1) };
            });
            {
                let _g = m.lock();
                unsafe { data.with_mut(|v| *v += 1) };
            }
            h.join();
        })
        .expect("lock-protected cell writes are ordered");
    }

    #[test]
    fn assertion_failures_surface_as_panic_with_schedule() {
        let failure = check(|| {
            let c = Arc::new(SyncU64::new(0));
            let c2 = c.clone();
            let h = thread::spawn(move || {
                c2.store(1, Ordering::Release);
            });
            // BUG (intentional): asserts a value another thread may
            // change concurrently.
            assert_eq!(c.load(Ordering::Acquire), 0, "seeded assertion");
            h.join();
        })
        .expect_err("some schedule violates the assertion");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.message.contains("seeded assertion"), "{}", failure.message);
    }
}
