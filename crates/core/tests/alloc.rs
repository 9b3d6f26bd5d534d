//! The allocation gate: a steady-state `process()` or `process_batch()`
//! call allocates nothing.
//!
//! Steady state is the second window onward of a stream whose windows
//! repeat, and a call that neither closes a window nor opens a
//! supergroup: the window's output, the window key, a new supergroup's
//! key, states and table entry are allocated per window or per
//! supergroup, by design. Everything per tuple — group-by values, the
//! group key, aggregate and SFUN arguments, a new group's key and
//! states, its entry in its supergroup's member list — lives in the
//! register file and in arenas that keep their capacity across windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sso_core::libs::reservoir::ReservoirOpConfig;
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{queries, OperatorSpec, SamplingOperator};
use sso_netgen::research_feed;
use sso_types::{Packet, Tuple};

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is passed on to `System` unchanged, which upholds
// the `GlobalAlloc` contract; counting touches a thread-local `Cell`
// only, and allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; the rest is the caller's to uphold.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WINDOW_SECS: u64 = 2;
const WINDOWS: u64 = 4;

/// The first window of the seeded research feed, `WINDOWS` times over:
/// what the second window needs, the first one left behind.
fn feed() -> Vec<Tuple> {
    let window = research_feed(7).take_seconds(WINDOW_SECS);
    let repeats = (0..WINDOWS).flat_map(|k| {
        let later = move |p: &Packet| Packet { uts: p.uts + k * WINDOW_SECS * 1_000_000_000, ..*p };
        window.iter().map(later).collect::<Vec<_>>()
    });
    repeats.map(|p| p.to_tuple()).collect()
}

/// How the feed enters the operator.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// `process`, a tuple per call.
    Process,
    /// `process_batch`, this many tuples per call.
    Batch(usize),
}

impl Entry {
    /// Tuples per call.
    fn len(self) -> usize {
        match self {
            Entry::Process => 1,
            Entry::Batch(len) => len,
        }
    }
}

/// Allocations made by the steady-state calls of a run over `feed`, and
/// how many calls that was.
fn steady_state_allocations(spec: OperatorSpec, feed: &[Tuple], entry: Entry) -> (u64, usize) {
    let mut op = SamplingOperator::new(spec).expect("valid spec");
    let (mut windows_closed, mut allocations, mut calls) = (0, 0, 0);
    for tuples in feed.chunks(entry.len()) {
        let supergroups = op.supergroup_count();
        let before = ALLOCATIONS.with(Cell::get);
        let closed = match entry {
            Entry::Process => u64::from(op.process(&tuples[0]).expect("process").is_some()),
            Entry::Batch(_) => {
                let mut closed = 0;
                op.process_batch(tuples, |_| closed += 1).expect("process_batch");
                closed
            }
        };
        let made = ALLOCATIONS.with(Cell::get) - before;
        if closed > 0 {
            windows_closed += closed;
        } else if windows_closed > 0 && op.supergroup_count() == supergroups {
            allocations += made;
            calls += 1;
        }
    }
    assert_eq!(windows_closed, WINDOWS - 1, "the feed is {WINDOWS} windows");
    (allocations, calls)
}

#[test]
fn a_steady_state_process_call_allocates_nothing() {
    let feed = feed();
    let subset_sum = SubsetSumOpConfig { target: 100, initial_z: 1.0, ..Default::default() };
    let reservoir = ReservoirOpConfig { n: 100, ..Default::default() };
    let specs = || {
        [
            ("heavy_hitters_query", queries::heavy_hitters_query(WINDOW_SECS, 100, Some(50))),
            ("subset_sum_query", queries::subset_sum_query(WINDOW_SECS, subset_sum, true)),
            ("reservoir_query", queries::reservoir_query(WINDOW_SECS, reservoir)),
            ("minhash_query", queries::minhash_query(WINDOW_SECS, 10)),
        ]
    };
    // A batch of 16 closes a window or opens a supergroup more often than
    // one tuple does, so fewer of its calls are steady.
    for (entry, steady_share) in [(Entry::Process, 2), (Entry::Batch(16), 4)] {
        for (name, spec) in specs() {
            let (allocations, calls) = steady_state_allocations(spec.unwrap(), &feed, entry);
            let offered = feed.len().div_ceil(entry.len());
            let what = format!("{name} through {entry:?}");
            assert!(calls > offered / steady_share, "{what}: {calls} steady calls of {offered}");
            assert_eq!(allocations, 0, "{what}: over {calls} steady-state calls");
        }
    }
}
