//! The lock-free metrics registry.
//!
//! A [`Registry`] hands out writer handles — [`Counter`], [`Gauge`],
//! [`crate::Histogram`] — each backed by its own *cell* of
//! atomics. Handles are cheap `Arc` clones; writers update their cell
//! with `Relaxed` operations and never contend with other shards.
//! [`Registry::snapshot`] walks the cell table and merges cells sharing
//! a `(name, label)` key, so per-shard handles registered under the same
//! name read back as one metric.
//!
//! The registry itself is `Clone` (shared interior), `Send`, and `Sync`.
//! A [`Registry::disabled`] registry still hands out working handles —
//! writes land in the cells as usual so callers need no branches — but
//! marks span tracing off so [`SampledSpan`](crate::SampledSpan) guards
//! are never taken, and `is_enabled()` lets exporters skip work.

use std::sync::Arc;

use sso_sync::Ordering::Relaxed;
use sso_sync::{SyncBool, SyncMutex, SyncU64};

use crate::hist::{HistCore, HistSnapshot, Histogram};

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<SyncU64>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value of this cell (not merged across shards).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A gauge handle holding an `f64` (stored as bits in a `SyncU64`).
///
/// `set` overwrites; `add` does a CAS loop, so per-shard gauge cells
/// registered under one name sum to a meaningful total at snapshot time
/// (e.g. ring depth contributions).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<SyncU64>);

impl Gauge {
    /// Overwrite the gauge value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    /// Add `delta` (may be negative) to the gauge value.
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.0.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value of this cell (not merged across shards).
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

/// What kind of metric a cell holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// The merged value of a metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Sum of all counter cells.
    Counter(u64),
    /// Sum of all gauge cells (per-shard contributions add up).
    Gauge(f64),
    /// Element-wise merged histogram.
    Histogram(HistSnapshot),
}

/// One merged metric: `(name, label)` plus its merged value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    /// Distinguishes instances of the same metric (e.g. `shard=3`).
    /// Empty for unlabeled metrics.
    pub label: String,
    pub kind: MetricKind,
    pub value: MetricValue,
}

impl Metric {
    /// The merged value as a single `f64` — counters and gauges as-is,
    /// histograms as their sum (e.g. total nanoseconds).
    pub fn scalar(&self) -> f64 {
        match &self.value {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(v) => *v,
            MetricValue::Histogram(h) => h.sum as f64,
        }
    }

    /// Observation count: 1 for counters/gauges, `count` for histograms.
    pub fn hits(&self) -> u64 {
        match &self.value {
            MetricValue::Histogram(h) => h.count,
            _ => 1,
        }
    }
}

/// A point-in-time merged view of every metric in a registry.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Snapshot sequence number, increasing per `Registry::snapshot` call.
    pub seq: u64,
    /// Merged metrics, sorted by `(name, label)`.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// Look up a merged metric by name (first label match wins).
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Look up a merged metric by name and label.
    pub fn get_labeled(&self, name: &str, label: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name && m.label == label)
    }

    /// Scalar value of a metric, or 0 when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map(|m| m.scalar()).unwrap_or(0.0)
    }
}

enum CellValue {
    Counter(Arc<SyncU64>),
    Gauge(Arc<SyncU64>),
    Histogram(Arc<HistCore>),
}

struct Cell {
    name: &'static str,
    label: String,
    value: CellValue,
}

struct Inner {
    /// Span tracing on/off; `false` for `Registry::disabled()`.
    enabled: SyncBool,
    cells: SyncMutex<Vec<Cell>>,
    seq: SyncU64,
}

/// Shared handle to the metrics registry. Cloning shares state.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .field("cells", &self.inner.cells.lock().len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A live registry: handles record, spans sample.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                enabled: SyncBool::new(true),
                cells: SyncMutex::new(Vec::new()),
                seq: SyncU64::new(0),
            }),
        }
    }

    /// A disabled registry: handles still work (no branches for
    /// callers) but span tracing is off and `is_enabled()` is false.
    pub fn disabled() -> Self {
        let r = Registry::new();
        r.inner.enabled.store(false, Relaxed);
        r
    }

    /// Whether span tracing / live export is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Relaxed)
    }

    fn register(&self, name: &'static str, label: String, value: CellValue) {
        self.inner.cells.lock().push(Cell { name, label, value });
    }

    /// Register a new counter cell under `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_labeled(name, String::new())
    }

    /// Register a new counter cell under `(name, label)`.
    pub fn counter_labeled(&self, name: &'static str, label: impl Into<String>) -> Counter {
        let cell = Arc::new(SyncU64::new(0));
        self.register(name, label.into(), CellValue::Counter(cell.clone()));
        Counter(cell)
    }

    /// Register a new gauge cell under `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_labeled(name, String::new())
    }

    /// Register a new gauge cell under `(name, label)`.
    pub fn gauge_labeled(&self, name: &'static str, label: impl Into<String>) -> Gauge {
        let cell = Arc::new(SyncU64::new(0f64.to_bits()));
        self.register(name, label.into(), CellValue::Gauge(cell.clone()));
        Gauge(cell)
    }

    /// Register a new histogram cell under `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histogram_labeled(name, String::new())
    }

    /// Register a new histogram cell under `(name, label)`.
    pub fn histogram_labeled(&self, name: &'static str, label: impl Into<String>) -> Histogram {
        let h = Histogram::new();
        self.register(name, label.into(), CellValue::Histogram(h.0.clone()));
        h
    }

    /// Merge all cells into a sorted snapshot and bump the sequence
    /// number. Reads are `Relaxed`: a snapshot is a statistical view
    /// and may miss increments still in flight on other cores.
    pub fn snapshot(&self) -> Snapshot {
        let cells = self.inner.cells.lock();
        let mut metrics: Vec<Metric> = Vec::new();
        for cell in cells.iter() {
            let existing =
                metrics.iter_mut().find(|m| m.name == cell.name && m.label == cell.label);
            match (&cell.value, existing) {
                (CellValue::Counter(c), Some(m)) => {
                    if let MetricValue::Counter(v) = &mut m.value {
                        *v += c.load(Relaxed);
                    }
                }
                (CellValue::Counter(c), None) => metrics.push(Metric {
                    name: cell.name,
                    label: cell.label.clone(),
                    kind: MetricKind::Counter,
                    value: MetricValue::Counter(c.load(Relaxed)),
                }),
                (CellValue::Gauge(g), Some(m)) => {
                    if let MetricValue::Gauge(v) = &mut m.value {
                        *v += f64::from_bits(g.load(Relaxed));
                    }
                }
                (CellValue::Gauge(g), None) => metrics.push(Metric {
                    name: cell.name,
                    label: cell.label.clone(),
                    kind: MetricKind::Gauge,
                    value: MetricValue::Gauge(f64::from_bits(g.load(Relaxed))),
                }),
                (CellValue::Histogram(h), Some(m)) => {
                    if let MetricValue::Histogram(s) = &mut m.value {
                        s.merge_from(h);
                    }
                }
                (CellValue::Histogram(h), None) => {
                    let mut s = HistSnapshot::default();
                    s.merge_from(h);
                    metrics.push(Metric {
                        name: cell.name,
                        label: cell.label.clone(),
                        kind: MetricKind::Histogram,
                        value: MetricValue::Histogram(s),
                    });
                }
            }
        }
        drop(cells);
        metrics.sort_by(|a, b| (a.name, &a.label).cmp(&(b.name, &b.label)));
        Snapshot { seq: self.inner.seq.fetch_add(1, Relaxed), metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_by_name() {
        let r = Registry::new();
        let a = r.counter("rt.tuples");
        let b = r.counter("rt.tuples");
        a.add(10);
        b.add(32);
        let snap = r.snapshot();
        let m = snap.get("rt.tuples").unwrap();
        assert_eq!(m.value, MetricValue::Counter(42));
        assert_eq!(snap.metrics.len(), 1);
    }

    #[test]
    fn labels_keep_cells_apart() {
        let r = Registry::new();
        r.counter_labeled("rt.tuples", "shard=0").add(1);
        r.counter_labeled("rt.tuples", "shard=1").add(2);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 2);
        assert_eq!(snap.get_labeled("rt.tuples", "shard=1").unwrap().scalar(), 2.0);
    }

    #[test]
    fn gauges_sum_and_add_cas() {
        let r = Registry::new();
        let g0 = r.gauge("rt.ring_depth");
        let g1 = r.gauge("rt.ring_depth");
        g0.set(3.0);
        g1.add(2.0);
        g1.add(-0.5);
        assert_eq!(g1.get(), 1.5);
        assert_eq!(r.snapshot().value("rt.ring_depth"), 4.5);
    }

    #[test]
    fn histograms_merge_elementwise() {
        let r = Registry::new();
        let h0 = r.histogram("op.process_ns");
        let h1 = r.histogram("op.process_ns");
        h0.record(100);
        h1.record(100);
        h1.record(1 << 30);
        let snap = r.snapshot();
        let m = snap.get("op.process_ns").unwrap();
        match &m.value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 3);
                assert_eq!(h.buckets[6], 2);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(m.hits(), 3);
    }

    #[test]
    fn seq_increases_per_snapshot() {
        let r = Registry::new();
        assert_eq!(r.snapshot().seq, 0);
        assert_eq!(r.snapshot().seq, 1);
        assert_eq!(r.snapshot().seq, 2);
    }

    #[test]
    fn disabled_registry_still_counts() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x");
        c.inc();
        assert_eq!(r.snapshot().value("x"), 1.0);
    }

    #[test]
    fn snapshot_is_sorted() {
        let r = Registry::new();
        r.counter("b").inc();
        r.counter("a").inc();
        r.counter_labeled("a", "shard=1").inc();
        let names: Vec<_> =
            r.snapshot().metrics.iter().map(|m| (m.name, m.label.clone())).collect();
        assert_eq!(
            names,
            vec![("a", String::new()), ("a", "shard=1".into()), ("b", String::new())]
        );
    }
}
