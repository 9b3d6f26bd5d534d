//! The profiler handle threaded through the runtime.
//!
//! A [`Profiler`] is a cheap `Arc` clone shared by the router, every
//! worker shard, and the merge path. Each thread opens its own
//! [`LaneWriter`]; the profiler itself only holds the lane table (a
//! mutex touched at lane *creation*, never on the record path), the
//! epoch stopwatch, the dump trigger, and the dump destination.
//!
//! Dump triggers are first-CAS-wins: the first of panic / crash to
//! fire names the dump's reason; later triggers are
//! no-ops. Triggering only raises a flag — the dump itself is written
//! by the runtime **after** worker joins, when every lane is quiescent
//! and the `Release`-published heads are authoritative.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sso_obs::{Registry, Stopwatch};
use sso_sync::Ordering::{Acquire, Relaxed};
use sso_sync::{SyncMutex, SyncU64};

use crate::collect::ProfileReport;
use crate::dump::{write_dump_file, Dump};
use crate::lane::{new_lane, LaneKind, LaneShared, LaneWriter};

/// Why a flight-recorder dump was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DumpReason {
    /// Explicit request (`--profile=FILE` at end of run).
    Manual = 0,
    /// A worker shard panicked into quarantine.
    Panic = 1,
    // Bytes 2 and 3 stay unassigned (3 named a full-ring shed trigger
    // the runtime no longer has): a dump carrying either must not
    // decode as another reason.
    /// A `crash at=N` fault fired.
    Crash = 4,
}

impl DumpReason {
    pub fn as_str(self) -> &'static str {
        match self {
            DumpReason::Manual => "manual",
            DumpReason::Panic => "panic",
            DumpReason::Crash => "crash",
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<DumpReason> {
        match v {
            0 => Some(DumpReason::Manual),
            1 => Some(DumpReason::Panic),
            4 => Some(DumpReason::Crash),
            _ => None,
        }
    }
}

/// Profiler construction knobs.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Events retained per lane (the flight recorder's "last N").
    pub ring_capacity: usize,
    /// Where a triggered (or manual) dump lands; `None` disables dumps
    /// but keeps live attribution.
    pub dump_path: Option<PathBuf>,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig { ring_capacity: 8192, dump_path: None }
    }
}

struct Inner {
    epoch: Stopwatch,
    capacity: usize,
    lanes: SyncMutex<Vec<Arc<LaneShared>>>,
    /// 0 = untriggered, else `DumpReason as u8 + 1`.
    trigger: SyncU64,
    dump_path: Option<PathBuf>,
}

/// The shared causal-tracing handle. Clones share all state.
#[derive(Clone)]
pub struct Profiler {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("capacity", &self.inner.capacity)
            .field("dump_path", &self.inner.dump_path)
            .field("triggered", &self.triggered())
            .finish()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new(ProfilerConfig::default())
    }
}

impl Profiler {
    pub fn new(cfg: ProfilerConfig) -> Profiler {
        Profiler {
            inner: Arc::new(Inner {
                epoch: Stopwatch::start(),
                capacity: cfg.ring_capacity,
                lanes: SyncMutex::new(Vec::new()),
                trigger: SyncU64::new(0),
                dump_path: cfg.dump_path,
            }),
        }
    }

    /// Nanoseconds since the profiler epoch — every stamp's clock.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed_ns()
    }

    /// Open a new lane for the calling thread. Locks the lane table
    /// (creation-time only; recording never locks).
    pub fn lane(&self, kind: LaneKind, index: u32) -> LaneWriter {
        let (writer, shared) = new_lane(kind, index, self.inner.capacity);
        self.inner.lanes.lock().push(shared);
        writer
    }

    /// Raise the dump trigger; the first caller's reason wins.
    pub fn trigger(&self, reason: DumpReason) {
        let _ = self.inner.trigger.compare_exchange(0, reason as u64 + 1, Relaxed, Relaxed);
    }

    /// The winning trigger, if any fired.
    pub fn triggered(&self) -> Option<DumpReason> {
        match self.inner.trigger.load(Acquire) {
            0 => None,
            v => DumpReason::from_u8((v - 1) as u8),
        }
    }

    /// Where dumps go, if anywhere.
    pub fn dump_path(&self) -> Option<&Path> {
        self.inner.dump_path.as_deref()
    }

    /// Snapshot every lane's published suffix.
    pub fn dump(&self, reason: DumpReason) -> Dump {
        let lanes = self.inner.lanes.lock();
        let mut out: Vec<_> = lanes.iter().map(|l| l.collect()).collect();
        drop(lanes);
        out.sort_by_key(|l| (l.kind as u8, l.index));
        Dump { reason, lanes: out }
    }

    /// Write the current state to `path` (triggered reason, else the
    /// given fallback).
    pub fn write_dump(&self, path: &Path, fallback: DumpReason) -> std::io::Result<()> {
        let reason = self.triggered().unwrap_or(fallback);
        write_dump_file(path, &self.dump(reason))
    }

    /// If a trigger fired and a dump path is configured, write the dump
    /// and return its path. Called by the runtime after worker joins.
    pub fn write_dump_if_triggered(&self) -> std::io::Result<Option<PathBuf>> {
        match (self.triggered(), &self.inner.dump_path) {
            (Some(reason), Some(path)) => {
                write_dump_file(path, &self.dump(reason))?;
                Ok(Some(path.clone()))
            }
            _ => Ok(None),
        }
    }

    /// Fold all lanes into a stage-attribution report.
    pub fn report(&self) -> ProfileReport {
        ProfileReport::from_dump(&self.dump(self.triggered().unwrap_or(DumpReason::Manual)))
    }

    /// Register `prof.*` metrics (per-stage and end-to-end window
    /// latency histograms) into an `sso-obs` registry, feeding
    /// `sso top` and the METRICS meta-stream.
    pub fn fold_into(&self, registry: &Registry) {
        crate::collect::fold_into(
            &self.dump(self.triggered().unwrap_or(DumpReason::Manual)),
            registry,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Stage};

    #[test]
    fn first_trigger_wins() {
        let p = Profiler::new(ProfilerConfig::default());
        assert_eq!(p.triggered(), None);
        p.trigger(DumpReason::Panic);
        p.trigger(DumpReason::Crash);
        assert_eq!(p.triggered(), Some(DumpReason::Panic));
    }

    #[test]
    fn dump_orders_lanes() {
        let p = Profiler::new(ProfilerConfig { ring_capacity: 16, dump_path: None });
        let mut w1 = p.lane(LaneKind::Worker, 1);
        let mut r = p.lane(LaneKind::Router, 0);
        let mut w0 = p.lane(LaneKind::Worker, 0);
        r.record(Event::new(Stage::Ingest, 0, 1));
        w0.record(Event::new(Stage::Process, 1, 1).shard(0));
        w1.record(Event::new(Stage::Process, 2, 1).shard(1));
        r.publish();
        w0.publish();
        w1.publish();
        let d = p.dump(DumpReason::Manual);
        let keys: Vec<_> = d.lanes.iter().map(|l| (l.kind, l.index)).collect();
        assert_eq!(keys, vec![(LaneKind::Router, 0), (LaneKind::Worker, 0), (LaneKind::Worker, 1)]);
    }

    #[test]
    fn write_dump_if_untriggered_is_noop() {
        let p = Profiler::new(ProfilerConfig {
            ring_capacity: 4,
            dump_path: Some(std::env::temp_dir().join("never-written.ssoprof")),
        });
        assert!(p.write_dump_if_triggered().unwrap().is_none());
    }
}
