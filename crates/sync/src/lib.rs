//! # sso-sync
//!
//! The concurrency facade for the workspace's hand-rolled lock-free
//! structures: the sharded-handle metrics registry in `sso-obs` and the
//! SPSC shard rings in `sso-runtime`. Hot paths use [`SyncU64`],
//! [`SyncUsize`], [`SyncBool`], [`SyncCell`], and [`SyncMutex`] instead of raw
//! `std::sync::atomic` / `std::sync::Mutex` types, and block on a
//! [`ParkSlot`] instead of spinning, yielding or sleeping (lint-enforced
//! via per-crate `clippy.toml` deny-lists).
//!
//! In a normal build every facade call is an `#[inline]` passthrough to
//! the `std` primitive — zero cost, identical codegen. With the `model`
//! feature enabled, the same types additionally check a thread-local:
//! inside a [`model::Model::check`] run they become *visible operations*
//! of a deterministic scheduler that
//!
//! - enumerates thread interleavings up to bounded depth, pruning
//!   equivalent schedules with dynamic partial-order reduction (only
//!   reorderings of *dependent* operations — same location, at least
//!   one write — spawn new schedules), and
//! - tracks a vector clock per thread and per location, reporting
//!   happens-before data races on [`SyncCell`] accesses, lost updates
//!   (a plain store clobbering a value the storing thread never
//!   observed), and deadlocks — each with a replayable schedule trace.
//!
//! Outside a model run the instrumented types take one thread-local
//! branch and then behave exactly like the plain build, so a test
//! binary that links the `model` feature can still run ordinary
//! multi-threaded tests.
//!
//! The memory-model treatment is ThreadSanitizer-style: values are
//! sequentially consistent, but *synchronization* follows the declared
//! orderings — an `Acquire` load only joins clocks published by a
//! `Release` (or stronger) store, a `Relaxed` store publishes nothing.
//! A missing `Release`/`Acquire` pair therefore surfaces as a data race
//! on the non-atomic data it was supposed to order, which is exactly
//! the bug class the orderings exist to prevent. Relaxed *value*
//! reordering (store buffering litmus shapes) is not modeled.

mod facade;

pub use facade::{fence, SyncBool, SyncCell, SyncMutex, SyncMutexGuard, SyncU64, SyncUsize};
pub use std::sync::atomic::Ordering;

pub mod hint;
pub mod park;
pub mod thread;

pub use park::ParkSlot;

#[cfg(feature = "model")]
pub mod model;
