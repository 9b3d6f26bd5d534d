//! # sso-obs
//!
//! The telemetry subsystem: a lock-free metrics registry, a sampled
//! span-tracing facade, the Prometheus text exporter, and
//! the **self-monitoring meta-stream** — snapshots rendered as tuples
//! with a published [`Schema`](sso_types::Schema) so the sampling
//! operator can query its own telemetry, mirroring Gigascope's use of
//! the DSMS to monitor the DSMS.
//!
//! ## Design
//!
//! * **Sharded handles, merged on read.** Every call to
//!   [`Registry::counter`] (or `gauge`/`histogram`) registers a fresh
//!   *cell* — its own cache line of atomics — under the metric's name.
//!   Writers touch only their own cell with `Relaxed` atomics; a
//!   [`Registry::snapshot`] merges cells with the same `(name, label)`
//!   at read time. Per-shard code simply registers its own handle and
//!   never contends with its siblings.
//! * **One branch when disabled.** [`SampledSpan::start`] tests one
//!   flag held in the span and returns `None` when the registry's
//!   tracing was off at registration; when on, a counter the span's
//!   thread owns picks every `1/2^k`-th call to pay the `Instant` pair,
//!   and the measured duration is scaled back up into the busy counter.
//! * **Memory ordering.** All hot-path operations are `Relaxed`:
//!   snapshots are statistical reads that tolerate a few in-flight
//!   increments. Where exactness matters (final per-shard stats), the
//!   reader runs after a channel close + thread join, which provide the
//!   happens-before edge; no `Acquire`/`Release` is needed on the
//!   counters themselves. See DESIGN.md §Telemetry.

pub mod detect;
pub mod export;
pub mod hist;
pub mod meta;
pub mod registry;
pub mod time;
pub mod trace;

pub use detect::{UndersampleConfig, UndersampleDetector};
pub use hist::{HistSnapshot, Histogram};
pub use meta::{metrics_schema, snapshot_tuples, METRICS_STREAM};
pub use registry::{Counter, Gauge, Metric, MetricKind, MetricValue, Registry, Snapshot};
pub use time::Stopwatch;
pub use trace::{SampledSpan, SpanGuard};
