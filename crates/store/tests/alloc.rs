//! The store's memory does not grow with the stream: once a window of a
//! given size has been recorded, recording another and taking a
//! checkpoint allocate nothing, and the live heap after 2 000 windows
//! is the live heap after 20.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sso_core::operator::WindowStats;
use sso_core::WindowOutput;
use sso_store::{ShardStore, StoreConfig, WindowRecord};
use sso_types::{Tuple, Value};

/// The system allocator, counting this thread's allocations and the
/// bytes it holds.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(allocations: u64, bytes: i64) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every request is passed on to `System` unchanged, which upholds
// the `GlobalAlloc` contract; counting touches thread-local `Cell`s
// only, and allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; the rest is the caller's to uphold.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn recording_and_checkpointing_allocate_nothing_after_the_first_window() {
    let dir = std::env::temp_dir().join(format!("sso-store-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig { checkpoint_every: 4, ..StoreConfig::new(&dir) };
    let mut store = ShardStore::create(&cfg, 0).expect("create store");
    let output = WindowOutput {
        window: Tuple::new(vec![Value::U64(1)]),
        rows: (0..50u64)
            .map(|i| {
                Tuple::new(vec![Value::U64(i), Value::F64(i as f64), Value::Str("row".into())])
            })
            .collect(),
        stats: WindowStats { tuples: 100, output_rows: 50, ..Default::default() },
        uncovered: 0,
    };
    let rec = WindowRecord { output: &output, carry: &[7; 300], aux: &[9; 40] };
    store.record_window(&rec).expect("record the first window");
    let mut live_after_20 = 0;
    for window in 2..=2000 {
        let before = ALLOCATIONS.with(Cell::get);
        store.record_window(&rec).expect("record window");
        if window % 10 == 0 {
            store.checkpoint().expect("checkpoint");
        }
        assert_eq!(ALLOCATIONS.with(Cell::get) - before, 0, "window {window} allocated");
        if window == 20 {
            live_after_20 = LIVE_BYTES.with(Cell::get);
        }
    }
    assert_eq!(LIVE_BYTES.with(Cell::get), live_after_20, "live heap grew with the stream");
    assert_eq!(store.windows_recorded(), 2000);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
