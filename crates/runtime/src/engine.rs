//! The sharded runtime: the calling thread pumps the source and
//! hash-partitions each tuple by the plan's partition key into one
//! batched bounded ring per shard; each shard runs its own operator
//! instance on a thread of its own, draining its ring; each worker's
//! window outputs are its thread's result, and the pump merges them by
//! the plan's rule once it has joined every worker.
//!
//! ## Pump, rings, and recycled batches
//!
//! The calling thread *pumps* the source into a fixed-length chunk (see
//! [`crate::pump`]), routes it into the shards' SPSC rings a piece at a
//! time as it fills, and flushes every partial batch at the chunk's
//! end, which bounds how long a lightly loaded shard's tuples wait. One thread routes, and
//! each shard reads one ring, so a shard consumes its tuples in global
//! stream order. Keyed routing is a pure content hash and round-robin
//! routing a pure function of the tuple's global stream position.
//!
//! Nothing is materialized: the pump runs at most
//! [`RuntimeConfig::max_look_ahead`] tuples ahead of the operators.
//! And every buffer is reused. Spent batches travel back (worker →
//! pump) on return rings that are never waited on — a full or closed
//! return ring drops the buffer, and the next taker allocates one
//! (`rt.tuple_buffers_fresh`) — while routing *swaps* each tuple with a
//! dead one, so the one chunk buffer stays full of tuples for the
//! source to overwrite in place.
//!
//! ## Fault tolerance
//!
//! Degradation mechanisms keep a run alive — and its samples
//! honest — when a shard *or the router* misbehaves (see `DESIGN.md`
//! §"Fault model"):
//!
//! * **Quarantine supervision**: a worker panic is caught with the
//!   poisoned operator's current window key; the shard discards (and
//!   counts) that window's remaining tuples, then respawns a fresh
//!   operator instance at the next window boundary. Merge-finalize
//!   re-thresholds the surviving shards' samples and tags the window's
//!   output with its coverage.
//! * **Principled shedding** ([`Backpressure::Shed`]): ring pressure
//!   raises a per-shard threshold z (the §7.1 mechanism driven in
//!   reverse), so overload sheds *below-threshold* tuples with exact
//!   Horvitz–Thompson accounting instead of dropping whole batches.
//! * **Router supervision**: the pump routes under a per-stretch
//!   `catch_unwind`; a routing panic quarantines the router for the
//!   current window (its unrouted tuples counted as
//!   `rt.router_uncovered` mass, degrading that window exactly like a
//!   quarantined shard) and routing resumes at the next window
//!   boundary. Router death is a degraded window, not a dead process.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rustc_hash::FxHasher;
use sso_core::{
    panic_message, EvalCtx, Expr, OpError, OperatorMetrics, OperatorSpec, Predicate,
    SamplingOperator, ShardPlan, SizingHints, SpillStats, WindowOutput,
};
use sso_faults::{FaultEvent, FaultPlan, WorkerFaultSchedule};
use sso_obs::{Counter, Gauge, Histogram, Registry, UndersampleConfig, UndersampleDetector};
use sso_profile::{
    DumpReason, Event as ProfEvent, LaneKind, LaneWriter, Profiler, Stage as ProfStage,
};
use sso_store::{FsyncPolicy, PagedGroupTable, ShardStore, StoreConfig};
use sso_sync::SyncBool;
use sso_types::Tuple;

use crate::merge::ShardPartial;
use crate::pump::{prefetch, pump, TupleSource, CHUNK_BATCHES, PREFETCH_AHEAD};
use crate::ring::{ring, Consumer, Producer, PushError};
use crate::worker::{window_key, Worker};

/// What the router does when a shard's ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Wait for the worker (lossless; counts a stall per wait).
    Block,
    /// Discard the newest batch (lossy; counts every dropped tuple) —
    /// the behaviour of a real NIC ring under overload. Biases every
    /// downstream estimate; kept for comparison and for workloads where
    /// bias is acceptable.
    DropNewest,
    /// Shed below-threshold tuples (lossy but *principled*): a full ring
    /// raises the shard's shed threshold z, and a tuple of weight `w`
    /// survives if `w > z` or by the deterministic metering rule (one
    /// survivor per z of accumulated small weight — the same rule as the
    /// operator's threshold pass). Every shed tuple and its weight is
    /// counted, so `offered == delivered + shed` exactly, and the kept
    /// stream is an unbiased threshold sample of the offered stream.
    Shed {
        /// Input column holding the tuple's weight. `None` weights every
        /// tuple 1 (count semantics).
        weight_col: Option<usize>,
    },
}

/// Durable-state configuration (the `sso-store` subsystem): one
/// append-only log of closed windows per shard under [`Self::dir`], and
/// an optional resident-state budget that swaps the in-RAM group table
/// for the spill-to-disk pager.
///
/// Recovery contract: a run killed mid-stream loses at most the window
/// that was open at the kill. A resumed run
/// ([`DurabilityConfig::resume`]) re-feeds the same deterministic input,
/// skips every window at or below the recovered watermark (those
/// outputs come from the store), and recomputes the rest — byte
/// -identical to a fault-free run for every window.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Store directory: per-shard log and spill files and the run
    /// MANIFEST.
    pub dir: PathBuf,
    /// Windows between checkpoints (syncs of the log); `0` = only at
    /// end of stream.
    pub checkpoint_every: u64,
    /// Per-record fsync policy (checkpoints always sync).
    pub fsync: FsyncPolicy,
    /// Total resident group-state budget in bytes, split evenly across
    /// shards. `None` keeps the in-RAM table (no spilling). After a
    /// quarantine respawn the fresh operator runs in RAM — budget
    /// enforcement covers the fault-free path.
    pub state_budget: Option<u64>,
    /// Resume from the directory's recovered state instead of starting
    /// a fresh run (the `sso recover` path).
    pub resume: bool,
}

impl DurabilityConfig {
    /// Durability under `dir` with the default cadence: checkpoint
    /// every 8 windows, no per-record fsync, no state budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 8,
            fsync: FsyncPolicy::Never,
            state_budget: None,
            resume: false,
        }
    }
}

/// Sharded-runtime tuning knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker shards (operator instances).
    pub shards: usize,
    /// Ring depth per shard, in batches.
    pub ring_capacity: usize,
    /// Tuples per batch.
    pub batch_size: usize,
    /// Full-ring policy.
    pub backpressure: Backpressure,
    /// Seed for randomized window merges (reservoir); per-shard sampler
    /// seeds come from the spec factory instead.
    pub seed: u64,
    /// Telemetry registry to record into. `None` = a private disabled
    /// registry: counters still land (so [`ShardStats`] stays exact)
    /// but span tracing is off and nothing is exported.
    pub registry: Option<Registry>,
    /// Fault-injection plan: worker events fire inside the shard
    /// workers. Feed-level events must be applied by the caller via
    /// [`sso_faults::FaultPlan::perturb_packets`].
    pub faults: Option<Arc<FaultPlan>>,
    /// Pre-sizing hints from the static audit's certified state bounds
    /// (per shard): group/supergroup tables are reserved up front and
    /// `ring_batches` overrides [`Self::ring_capacity`]. `None` keeps
    /// grow-on-demand behaviour.
    pub sizing: Option<SizingHints>,
    /// Durable operator state: `None` runs fully in memory; `Some`
    /// logs every shard's closed windows under the configured
    /// directory and (optionally) bounds resident group state.
    pub durability: Option<DurabilityConfig>,
    /// Causal stage tracing: every batch leaves lineage stamps (ingest →
    /// route → ring wait → process → barrier wait → merge → emit) in
    /// per-thread event rings, and panic/shed/crash triggers
    /// dump them as a flight recording. `None` costs one branch per
    /// batch.
    pub profile: Option<Profiler>,
    /// A shared prefilter from a certified plan rewrite
    /// (`sso-rewrite`): a pure tuple predicate every registered query
    /// implies, evaluated once per tuple *ahead of the router*. Tuples
    /// failing it are dropped before routing; because every consumer
    /// keeps its full residual predicate, window output is unchanged —
    /// only routing and operator work shrinks. An evaluation error
    /// passes the tuple through (hoisted clauses are proven total, so
    /// this is belt-and-braces, never a correctness lever).
    pub shared_prefilter: Option<Arc<Expr>>,
}

impl RuntimeConfig {
    /// A config with `shards` workers and the default ring shape:
    /// 16 batches of 1024 tuples, blocking backpressure. (Same 16K-tuple
    /// ring depth as 64x256, but fewer handoffs per tuple; larger
    /// batches start thrashing cache.)
    pub fn new(shards: usize) -> Self {
        RuntimeConfig {
            shards,
            ring_capacity: 16,
            batch_size: 1024,
            backpressure: Backpressure::Block,
            seed: 0x5eed_00d5,
            registry: None,
            faults: None,
            sizing: None,
            durability: None,
            profile: None,
            shared_prefilter: None,
        }
    }

    /// Record this run's telemetry into `registry`.
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Compatibility shim for callers that still pin a router-lane
    /// count: the pump is the one router, so the only count there is
    /// is 1. Stores nothing; to be deleted with its last caller.
    ///
    /// # Panics
    /// If `routers` is not 1.
    pub fn with_routers(self, routers: usize) -> Self {
        assert_eq!(routers, 1, "the pump is the only router");
        self
    }

    /// Inject faults from `plan` (worker panics and stalls).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Pre-size per-shard operator tables (and optionally rings) from
    /// the audit's certified bounds.
    pub fn with_sizing(mut self, hints: SizingHints) -> Self {
        self.sizing = Some(hints);
        self
    }

    /// Persist operator state under `durability`'s store directory.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Evaluate `prefilter` once per tuple ahead of the router,
    /// dropping tuples that fail it (see
    /// [`RuntimeConfig::shared_prefilter`]).
    pub fn with_shared_prefilter(mut self, prefilter: Arc<Expr>) -> Self {
        self.shared_prefilter = Some(prefilter);
        self
    }

    /// Record per-batch lineage stamps (and arm the flight recorder)
    /// into `profiler`.
    pub fn with_profile(mut self, profiler: Profiler) -> Self {
        self.profile = Some(profiler);
        self
    }

    /// The effective ring depth: the sizing hint's override when
    /// present, the configured default otherwise.
    fn effective_ring_capacity(&self) -> usize {
        self.sizing.and_then(|h| h.ring_batches).unwrap_or(self.ring_capacity)
    }

    /// Tuples per pumped chunk: the pump pulls this many from the
    /// source, routes them, and flushes every shard's partial batch.
    pub fn chunk_tuples(&self) -> usize {
        CHUNK_BATCHES * self.batch_size
    }

    /// The most tuples the run ever holds between the source and the
    /// operators: the pump's chunk, plus per shard its ring's depth,
    /// the batch being filled and the batch being processed. A function
    /// of the configuration only — never of the stream's length.
    pub fn max_look_ahead(&self) -> usize {
        self.chunk_tuples() + self.shards * (self.effective_ring_capacity() + 2) * self.batch_size
    }
}

/// Per-shard accounting: a thin view over this shard's registry cells
/// (`rt.*` metrics labeled `shard=N`). The workers and the router write
/// the cells directly, so mid-run snapshots of the shared registry see
/// live values; the accessors here read the same cells and are exact
/// once the run has joined its workers.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    pub(crate) tuples: Counter,
    pub(crate) windows: Counter,
    stalls: Counter,
    dropped: Counter,
    pub(crate) busy_ns: Counter,
    pub(crate) quarantines: Counter,
    pub(crate) uncovered: Counter,
    shed_tuples: Counter,
    shed_weight: Gauge,
    shed_z: Gauge,
}

impl ShardStats {
    fn register(registry: &Registry, shard: usize) -> Self {
        let label = format!("shard={shard}");
        ShardStats {
            shard,
            tuples: registry.counter_labeled("rt.tuples", label.clone()),
            windows: registry.counter_labeled("rt.windows", label.clone()),
            stalls: registry.counter_labeled("rt.stalls", label.clone()),
            dropped: registry.counter_labeled("rt.dropped", label.clone()),
            busy_ns: registry.counter_labeled("rt.busy_ns", label.clone()),
            quarantines: registry.counter_labeled("rt.quarantines", label.clone()),
            uncovered: registry.counter_labeled("rt.uncovered", label.clone()),
            shed_tuples: registry.counter_labeled("rt.shed_tuples", label.clone()),
            shed_weight: registry.gauge_labeled("rt.shed_weight", label.clone()),
            shed_z: registry.gauge_labeled("rt.shed_z", label),
        }
    }

    /// Tuples delivered to the worker (including any it then lost to a
    /// quarantined window; see [`ShardStats::uncovered`]).
    pub fn tuples(&self) -> u64 {
        self.tuples.get()
    }

    /// Windows the worker closed.
    pub fn windows(&self) -> u64 {
        self.windows.get()
    }

    /// Times the router blocked on this shard's full ring (one stall per
    /// full-ring wait, however long the wait).
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Tuples dropped at this shard's full ring
    /// ([`Backpressure::DropNewest`] only).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Worker busy time, updated per batch (not only at worker join).
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.get())
    }

    /// Worker panics caught and quarantined on this shard.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.get()
    }

    /// Tuples lost to quarantined windows on this shard.
    pub fn uncovered(&self) -> u64 {
        self.uncovered.get()
    }

    /// Tuples shed below the threshold at this shard's full ring
    /// ([`Backpressure::Shed`] only).
    pub fn shed(&self) -> u64 {
        self.shed_tuples.get()
    }

    /// Total weight shed at this shard's full ring.
    pub fn shed_weight(&self) -> f64 {
        self.shed_weight.get()
    }

    /// The shard's current shed threshold z (0 = not shedding).
    pub fn shed_z(&self) -> f64 {
        self.shed_z.get()
    }
}

/// The router's accounting: a thin view over its registry cells
/// (`rt.router_*` metrics labeled `router=0`). Exact once the run has
/// returned.
#[derive(Debug, Clone)]
pub struct RouterStats {
    tuples: Counter,
    quarantines: Counter,
    uncovered: Counter,
}

impl RouterStats {
    fn register(registry: &Registry) -> Self {
        let label = "router=0";
        RouterStats {
            tuples: registry.counter_labeled("rt.router_tuples", label),
            quarantines: registry.counter_labeled("rt.router_quarantines", label),
            uncovered: registry.counter_labeled("rt.router_uncovered", label),
        }
    }

    /// Tuples of the finished chunks (routed, prefiltered away, or
    /// uncovered); advances chunk by chunk while the run is live.
    pub fn tuples(&self) -> u64 {
        self.tuples.get()
    }

    /// Routing panics caught and quarantined.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.get()
    }

    /// Tuples lost while the router was quarantined (never routed).
    pub fn uncovered(&self) -> u64 {
        self.uncovered.get()
    }
}

/// Per-shard durable-store telemetry (`store.*` gauges labeled
/// `shard=N`), set from the shard's [`ShardStore`] counters and the
/// pager's [`SpillStats`] after every batch and at worker exit.
pub(crate) struct StoreStats {
    wal_appends: Gauge,
    wal_bytes: Gauge,
    ckpt_writes: Gauge,
    /// Windows recorded since the log was last synced — what power loss
    /// right now would cost.
    ckpt_age: Gauge,
    resident_bytes: Gauge,
    peak_resident_bytes: Gauge,
    page_faults: Gauge,
    spilled_pages: Gauge,
}

impl StoreStats {
    fn register(registry: &Registry, shard: usize) -> Self {
        let label = format!("shard={shard}");
        StoreStats {
            wal_appends: registry.gauge_labeled("store.wal_appends", label.clone()),
            wal_bytes: registry.gauge_labeled("store.wal_bytes", label.clone()),
            ckpt_writes: registry.gauge_labeled("store.ckpt_writes", label.clone()),
            ckpt_age: registry.gauge_labeled("store.ckpt_age", label.clone()),
            resident_bytes: registry.gauge_labeled("store.resident_bytes", label.clone()),
            peak_resident_bytes: registry.gauge_labeled("store.peak_resident_bytes", label.clone()),
            page_faults: registry.gauge_labeled("store.page_faults", label.clone()),
            spilled_pages: registry.gauge_labeled("store.spilled_pages", label),
        }
    }

    pub(crate) fn set_from(&self, store: &ShardStore, spill: Option<SpillStats>) {
        self.wal_appends.set(store.wal_appends() as f64);
        self.wal_bytes.set(store.wal_bytes() as f64);
        self.ckpt_writes.set(store.ckpt_writes() as f64);
        self.ckpt_age.set(store.windows_since_ckpt() as f64);
        if let Some(s) = spill {
            self.resident_bytes.set(s.resident_bytes as f64);
            self.peak_resident_bytes.set(s.peak_resident_bytes as f64);
            self.page_faults.set(s.page_faults as f64);
            self.spilled_pages.set(s.spilled_pages as f64);
        }
    }
}

/// Why a sharded run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A shard's operator returned an error.
    Op {
        /// Shard index.
        shard: usize,
        /// The operator error.
        source: OpError,
    },
    /// A shard's worker thread panicked outside quarantine supervision
    /// (which converts operator panics into coverage loss) — for
    /// example in the spec factory while respawning the shard.
    WorkerPanic {
        /// Shard index.
        shard: usize,
        /// Panic payload message.
        message: String,
    },
    /// The configuration is unusable (zero shards, zero batch size).
    BadConfig(String),
    /// An injected `crash@N` fault fired: routing stopped at the
    /// trigger tuple, the workers abandoned their open windows, and
    /// nothing was merged — the whole-process-death simulation. A
    /// durable run's recorded state survives for `sso recover`.
    Crashed {
        /// The trigger: the 1-based index of the stream tuple whose
        /// arrival killed the run.
        at_tuple: u64,
    },
    /// A durable-store operation failed (I/O or a state codec error).
    Store {
        /// Shard index.
        shard: usize,
        /// What failed.
        message: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Op { shard, source } => write!(f, "shard {shard}: {source}"),
            RuntimeError::WorkerPanic { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
            RuntimeError::BadConfig(msg) => write!(f, "bad runtime config: {msg}"),
            RuntimeError::Crashed { at_tuple } => {
                write!(f, "injected crash fired at stream tuple {at_tuple}")
            }
            RuntimeError::Store { shard, message } => {
                write!(f, "shard {shard} durable store: {message}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The result of a sharded run: merged windows plus per-shard accounting.
#[derive(Debug)]
pub struct ShardedReport {
    /// Window outputs after merge-finalize, in window order. Each
    /// carries its own [`sso_core::Degradation`] tag.
    pub windows: Vec<WindowOutput>,
    /// Per-shard accounting, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// The router's accounting.
    pub router: RouterStats,
    /// Run-level coverage: fraction of offered tuples (worker-delivered
    /// plus lost to router quarantine) represented by the merged output.
    pub coverage: f64,
}

impl ShardedReport {
    /// Total tuples dropped at full rings.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped()).sum()
    }

    /// Total router stalls on full rings.
    pub fn stalls(&self) -> u64 {
        self.shards.iter().map(|s| s.stalls()).sum()
    }

    /// Total tuples shed below the backpressure threshold.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed()).sum()
    }

    /// Total worker panics caught and quarantined.
    pub fn quarantines(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantines()).sum()
    }

    /// Routing panics caught and quarantined.
    pub fn router_quarantines(&self) -> u64 {
        self.router.quarantines()
    }

    /// Tuples lost to router quarantine (never routed).
    pub fn router_uncovered(&self) -> u64 {
        self.router.uncovered()
    }

    /// Whether any fault degraded the output (`coverage < 1`).
    pub fn degraded(&self) -> bool {
        self.coverage < 1.0
    }
}

/// Map a partition-key hash to a shard; hot enough on the router thread
/// that the power-of-two mask (vs a 64-bit division) is measurable.
#[inline]
fn pick_shard(hash: u64, shards: usize) -> usize {
    if shards.is_power_of_two() {
        (hash as usize) & (shards - 1)
    } else {
        (hash % shards as u64) as usize
    }
}

/// How the router picks a shard for a tuple. Stateless — a routing
/// decision depends only on the tuple's content (keyed routing) or its
/// global stream position (round-robin), never on what was routed
/// before, so [`route_stream`] replays it from the tuples alone.
enum Router {
    /// No partition key: deal tuples out cyclically by global stream
    /// position (valid only with a key-free merge rule).
    RoundRobin,
    /// Every partition expression is a plain input column.
    Columns(Vec<usize>),
    /// General tuple-phase expressions.
    Exprs(Vec<Expr>),
}

impl Router {
    fn new(plan: &ShardPlan) -> Router {
        if plan.partition_exprs.is_empty() {
            return Router::RoundRobin;
        }
        let cols: Option<Vec<usize>> = plan
            .partition_exprs
            .iter()
            .map(|e| match e {
                Expr::Column(i) => Some(*i),
                _ => None,
            })
            .collect();
        match cols {
            Some(cols) => Router::Columns(cols),
            None => Router::Exprs(plan.partition_exprs.clone()),
        }
    }

    /// The columns [`Self::route`] reads, as one span: none for
    /// round-robin, from the first to the last key column, or every
    /// column (`0..usize::MAX`) for general expressions.
    fn reads(&self) -> Range<usize> {
        match self {
            Router::RoundRobin => 0..0,
            Router::Columns(cols) => {
                let (lo, hi) = (cols.iter().min(), cols.iter().max());
                lo.map_or(0, |&c| c)..hi.map_or(0, |&c| c + 1)
            }
            Router::Exprs(_) => 0..usize::MAX,
        }
    }

    /// The shard for the tuple at 0-based global stream position
    /// `index`.
    fn route(&self, tuple: &Tuple, index: u64, shards: usize) -> usize {
        match self {
            Router::RoundRobin => (index % shards as u64) as usize,
            Router::Columns(cols) => {
                let mut h = FxHasher::default();
                for &c in cols.iter() {
                    tuple.get(c).hash(&mut h);
                }
                pick_shard(h.finish(), shards)
            }
            Router::Exprs(exprs) => {
                let mut h = FxHasher::default();
                for e in exprs.iter() {
                    let mut ctx = EvalCtx { tuple: Some(tuple), ..EvalCtx::empty("GROUP BY") };
                    match e.eval(&mut ctx) {
                        Ok(v) => v.hash(&mut h),
                        // The worker evaluates the same expression in its
                        // GROUP BY and will surface the error; any shard
                        // will do for the faulty tuple.
                        Err(_) => return 0,
                    }
                }
                pick_shard(h.finish(), shards)
            }
        }
    }
}

/// Replay the router's shard decisions for a tuple sequence — the shard
/// each tuple would land on in a run with `shards` workers. Tests (and
/// fault-plan authors) use this to find which window a planned
/// `(shard, tuple-count)` panic lands in.
pub fn route_stream<'a>(
    plan: &ShardPlan,
    shards: usize,
    tuples: impl IntoIterator<Item = &'a Tuple>,
) -> Vec<usize> {
    let router = Router::new(plan);
    tuples.into_iter().enumerate().map(|(i, t)| router.route(t, i as u64, shards)).collect()
}

/// Per-shard setup built before the workers spawn: the operator, its
/// durable writer (if any), its resume watermark, and the recovered
/// window outputs that seed its partial.
type ShardSetup = (SamplingOperator, Option<ShardStore>, Option<Tuple>, Vec<WindowOutput>);

thread_local! {
    /// Set on worker threads, and on the pump while it routes under
    /// supervision: a caught supervised panic is part of the fault
    /// model, not a crash, so the hook reduces it to one stderr line —
    /// the quarantine accounting is the real report. Everywhere else
    /// the previously installed hook runs.
    static QUIET_WORKER_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install — once per process — a panic hook that quiets supervised
/// worker panics, chaining to the prior hook for all other threads.
fn install_supervised_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET_WORKER_PANICS.with(std::cell::Cell::get) {
                let payload = info.payload();
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("<non-string panic payload>");
                eprintln!("sso-runtime: supervised panic (quarantined for this window): {msg}");
            } else {
                prev(info);
            }
        }));
    });
}

/// Run `f` under `catch_unwind` with the supervised-panic hook quieted
/// for this thread, restoring the thread's previous setting after: the
/// pump routes on the caller's thread, whose other panics keep their
/// hook.
fn supervised<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    let was = QUIET_WORKER_PANICS.with(|q| q.replace(true));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    QUIET_WORKER_PANICS.with(|q| q.set(was));
    outcome
}

/// Per-shard shed state: the threshold z and the small-tuple meter (the
/// deterministic metering rule of the operator's threshold pass, applied
/// at the ring instead).
struct ShedState {
    z: f64,
    /// The z the current pressure episode started at; decaying below it
    /// switches shedding off.
    z0: f64,
    meter: f64,
}

#[inline]
fn tuple_weight(t: &Tuple, weight_col: Option<usize>) -> f64 {
    match weight_col {
        Some(c) => t.values().get(c).and_then(|v| v.as_f64().ok()).unwrap_or(1.0),
        None => 1.0,
    }
}

/// The router's tracing state: its event lane (`router/0`, written by
/// the pump) plus the end of the previous send, which anchors the next
/// `Ingest` stamp (everything the router did between two sends —
/// hashing, batch accumulation — is ingest time). The pump pulls a
/// piece between two routing calls; that fill is its `Low` stamp, not
/// ingest, so each call moves the mark forward by the time since the
/// last one ended (`paused_ns`).
struct RouterTrace {
    p: Profiler,
    lane: LaneWriter,
    mark_ns: u64,
    paused_ns: u64,
}

/// Stamp one completed send: `Ingest` since the previous send,
/// `RingWait` if the push had to wait (`wait_from`), and `Route` for
/// the push itself net of the wait. One `Release` publish for the lot.
fn record_router_send(
    t: &mut RouterTrace,
    shard: usize,
    batch_id: u32,
    len: u64,
    t0: u64,
    end: u64,
    wait_from: Option<u64>,
) {
    t.lane.record(
        ProfEvent::new(ProfStage::Ingest, t.mark_ns, t0.saturating_sub(t.mark_ns)).aux(len),
    );
    let mut wait_ns = 0;
    if let Some(w) = wait_from {
        wait_ns = end.saturating_sub(w);
        t.lane.record(
            ProfEvent::new(ProfStage::RingWait, w, wait_ns).shard(shard as u16).batch(batch_id),
        );
    }
    t.lane.record(
        ProfEvent::new(ProfStage::Route, t0, end.saturating_sub(t0).saturating_sub(wait_ns))
            .shard(shard as u16)
            .batch(batch_id)
            .aux(len),
    );
    t.mark_ns = end;
    t.lane.publish();
}

/// What crosses a shard ring: routed tuples. Only `tuples[..live]`
/// are this batch; anything past `live` is dead weight from the
/// buffer's previous trip, riding along so its allocation stays in
/// circulation. `id` threads lineage stamps from route to process.
pub(crate) struct Batch {
    pub(crate) id: u32,
    pub(crate) live: usize,
    pub(crate) tuples: Vec<Tuple>,
}

/// The router's sending state: the per-shard rings, batch accumulators
/// and shed state, and its accounting cells.
struct Sender<'a> {
    shards: usize,
    batch_size: usize,
    backpressure: Backpressure,
    txs: Vec<Producer<Batch>>,
    /// Spent batches coming home from each shard's worker.
    homes: Vec<Consumer<Vec<Tuple>>>,
    /// Per shard: the batch being filled and how many of its tuples are
    /// live (the rest are dead tuples waiting to be traded).
    batches: Vec<(Vec<Tuple>, usize)>,
    shed: Vec<ShedState>,
    next_batch_id: u32,
    stats: &'a [ShardStats],
    ring_depths: &'a [Gauge],
    batch_hist: Histogram,
    router_stats: RouterStats,
    fresh: Counter,
    /// A batch ring turned out closed: its worker is gone, and the run
    /// with it (workers outlive the pump's routing unless they fail).
    worker_gone: bool,
    trace: Option<RouterTrace>,
    /// The lowered [`RuntimeConfig::shared_prefilter`].
    prefilter: Option<Predicate>,
}

impl Sender<'_> {
    /// Is `tuple` routed at all? A tuple the shared prefilter cannot be
    /// evaluated on is: the operator behind the router keeps its full
    /// WHERE and raises the error, or rejects the tuple, as it would
    /// without a prefilter.
    #[inline]
    fn passes_prefilter(&mut self, tuple: &Tuple) -> bool {
        match &mut self.prefilter {
            None => true,
            Some(pred) => pred.test(tuple).unwrap_or(true),
        }
    }

    /// Route `tuple` to `shard` by trading it for a dead tuple of the
    /// batch being filled: the chunk it came from goes home with a
    /// buffer the source can overwrite.
    fn push_tuple(&mut self, shard: usize, tuple: &mut Tuple) {
        let (slots, live) = &mut self.batches[shard];
        // The slots came home from the worker's core: ask for the one
        // this shard fills a few tuples from now.
        if let Some(ahead) = slots.get(*live + PREFETCH_AHEAD..=*live + PREFETCH_AHEAD) {
            prefetch(ahead, true);
        }
        match slots.get_mut(*live) {
            Some(dead) => std::mem::swap(dead, tuple),
            None => slots.push(std::mem::take(tuple)),
        }
        *live += 1;
        if *live >= self.batch_size {
            self.send_batch(shard);
        }
    }

    /// End of chunk: send every partial batch still buffered, so a
    /// lightly loaded shard's tuples wait at most one chunk.
    fn end_chunk(&mut self) {
        for shard in 0..self.shards {
            if self.batches[shard].1 > 0 {
                self.send_batch(shard);
            }
        }
    }

    /// A spent batch from `shard`'s worker, or — when none has come
    /// home — a new one.
    fn recycled(&mut self, shard: usize) -> Vec<Tuple> {
        match self.homes[shard].try_pop() {
            Ok(Some(spent)) => spent,
            _ => {
                self.fresh.inc();
                Vec::with_capacity(self.batch_size)
            }
        }
    }

    /// Account one batch that reached the shard's ring.
    fn delivered(&mut self, shard: usize, id: u32, len: u64, t0: Option<u64>, wait: Option<u64>) {
        self.batch_hist.record(len);
        if let Some(t) = self.trace.as_mut() {
            let end = t.p.now_ns();
            record_router_send(t, shard, id, len, t0.unwrap_or(end), end, wait);
        }
    }

    /// Push one batch into a ring found full, waiting for room: one
    /// stall, however long the wait. A closed ring hands the buffer
    /// back.
    fn push_blocking(
        &mut self,
        shard: usize,
        id: u32,
        live: usize,
        tuples: Vec<Tuple>,
        t0: Option<u64>,
    ) -> Option<Vec<Tuple>> {
        // The waiting batch counts toward ring depth from wait *entry*:
        // a full-ring stall shorter than one batch is visible to a
        // mid-run snapshot, not only at the next batch boundary.
        self.ring_depths[shard].add(1.0);
        self.stats[shard].stalls.inc();
        let wait_from = self.trace.as_ref().map(|t| t.p.now_ns());
        match self.txs[shard].push(Batch { id, live, tuples }) {
            Ok(()) => {
                self.delivered(shard, id, live as u64, t0, wait_from);
                None
            }
            // Closed ring: the batch counted above never arrived.
            Err(batch) => {
                self.ring_depths[shard].add(-1.0);
                self.worker_gone = true;
                Some(batch.tuples)
            }
        }
    }

    /// Deliver `shard`'s accumulated batch into its ring under the
    /// configured backpressure policy, and start the next one in a
    /// recycled buffer.
    fn send_batch(&mut self, shard: usize) {
        let (tuples, live) = std::mem::take(&mut self.batches[shard]);
        let id = self.next_batch_id;
        self.next_batch_id = id.wrapping_add(1);
        let t0 = self.trace.as_ref().map(|t| t.p.now_ns());
        let unsent = match (self.txs[shard].try_push(Batch { id, live, tuples }), self.backpressure)
        {
            (Ok(()), policy) => {
                self.ring_depths[shard].add(1.0);
                self.delivered(shard, id, live as u64, t0, None);
                let state = &mut self.shed[shard];
                if matches!(policy, Backpressure::Shed { .. }) && state.z > 0.0 {
                    // Pressure easing: decay toward off.
                    state.z *= 0.5;
                    if state.z < state.z0 {
                        state.z = 0.0;
                        state.meter = 0.0;
                    }
                    self.stats[shard].shed_z.set(state.z);
                }
                None
            }
            // Worker death closes the ring: the pump stops at the end
            // of the chunk, and the join in `run_sharded` surfaces the
            // reason.
            (Err(PushError::Closed(batch)), _) => {
                self.worker_gone = true;
                Some(batch.tuples)
            }
            (Err(PushError::Full(batch)), Backpressure::Block) => {
                self.push_blocking(shard, id, live, batch.tuples, t0)
            }
            (Err(PushError::Full(batch)), Backpressure::DropNewest) => {
                self.stats[shard].dropped.add(live as u64);
                Some(batch.tuples)
            }
            (Err(PushError::Full(batch)), Backpressure::Shed { weight_col }) => {
                // Ring pressure raises the threshold (the §7.1 mechanism
                // in reverse): the batch shrinks by below-threshold
                // rejection with exact HT accounting, then the survivors
                // are delivered losslessly.
                let mut tuples = batch.tuples;
                let state = &mut self.shed[shard];
                let mean: f64 =
                    tuples[..live].iter().map(|t| tuple_weight(t, weight_col)).sum::<f64>()
                        / live.max(1) as f64;
                if state.z == 0.0 {
                    state.z0 = if mean.is_finite() && mean > 0.0 { 2.0 * mean } else { 2.0 };
                    state.z = state.z0;
                    // Shedding switched on: arm the flight recorder so
                    // the pressure build-up is preserved.
                    if let Some(t) = self.trace.as_ref() {
                        t.p.trigger(DumpReason::Shed);
                    }
                } else {
                    state.z *= 2.0;
                }
                self.stats[shard].shed_z.set(state.z);
                // Survivors are compacted to the front in stream order;
                // the shed tuples stay behind them as dead weight.
                let mut kept = 0usize;
                let mut shed_w = 0.0;
                for i in 0..live {
                    let w = tuple_weight(&tuples[i], weight_col);
                    let keep = w > state.z || {
                        state.meter += w;
                        let metered = state.meter >= state.z;
                        if metered {
                            state.meter -= state.z;
                        }
                        metered
                    };
                    if keep {
                        tuples.swap(kept, i);
                        kept += 1;
                    } else {
                        shed_w += w;
                    }
                }
                self.stats[shard].shed_tuples.add((live - kept) as u64);
                self.stats[shard].shed_weight.add(shed_w);
                if kept == 0 {
                    Some(tuples)
                } else {
                    self.push_blocking(shard, id, kept, tuples, t0)
                }
            }
        };
        // A batch that never left is the next accumulator as it stands.
        let next = unsent.unwrap_or_else(|| self.recycled(shard));
        self.batches[shard] = (next, 0);
    }
}

/// A return ring that starts out full: a pool of `buffers` empty
/// buffers with room for `len` tuples each, counted as fresh. With the
/// whole pool in circulation a taker always finds one at home and a
/// return always finds room.
fn buffer_pool(
    buffers: usize,
    len: usize,
    fresh: &Counter,
) -> (Producer<Vec<Tuple>>, Consumer<Vec<Tuple>>) {
    let (mut tx, rx) = ring(buffers);
    for _ in 0..buffers {
        let _ = tx.try_push(Vec::with_capacity(len));
    }
    fresh.add(buffers as u64);
    (tx, rx)
}

fn add_uncovered(uncovered: &mut Vec<(Tuple, u64)>, key: Tuple, n: u64) {
    match uncovered.iter_mut().find(|(k, _)| *k == key) {
        Some((_, c)) => *c += n,
        None => uncovered.push((key, n)),
    }
}

/// What routing supervision carries from chunk to chunk: a quarantine
/// opened in one chunk closes at the next window boundary, wherever
/// that falls.
#[derive(Default)]
struct RouteGuard {
    /// `Some(key)` while quarantined: tuples of window `key` are counted
    /// as uncovered, never routed.
    quarantined: Option<Tuple>,
    uncovered: Vec<(Tuple, u64)>,
    /// 1-based stream ordinal of the tuple being routed: router fault
    /// triggers (`panic router=0 at=N`) key on it, quarantined tuples
    /// included — the same counting workers use.
    count: u64,
    faults: WorkerFaultSchedule,
}

/// Route one piece of a chunk — stream positions `start ..` — under
/// the workers' supervision contract: per-stretch `catch_unwind`, a
/// panicked router quarantined for the current window (its unrouted
/// tuples counted, never sent), live again at the next window boundary.
fn route_piece(
    sender: &mut Sender<'_>,
    sup: &mut RouteGuard,
    router_def: &Router,
    wexprs: &[Expr],
    profiler: Option<&Profiler>,
    chunk: &mut [Tuple],
    start: u64,
) {
    // The router prefetches only the values it reads: the lines the
    // worker alone reads then travel from the pump's cache once.
    let reads = if sender.prefilter.is_some() { 0..usize::MAX } else { router_def.reads() };
    let mut local = 0usize;
    while local < chunk.len() {
        if let Some(qkey) = sup.quarantined.clone() {
            while local < chunk.len() {
                let t = &chunk[local];
                if window_key(wexprs, t).as_ref() == Some(&qkey) {
                    sup.count += 1;
                    if sender.passes_prefilter(t) {
                        add_uncovered(&mut sup.uncovered, qkey.clone(), 1);
                        sender.router_stats.uncovered.inc();
                    }
                    local += 1;
                } else {
                    // Window boundary: routing is stateless, so going
                    // live again *is* the respawn.
                    sup.quarantined = None;
                    break;
                }
            }
            if sup.quarantined.is_some() {
                break;
            }
        }
        // Live stretch: one catch_unwind per stretch, not per tuple.
        // `local` lives outside the closure: after a panic it names the
        // tuple that tripped it (the injected trip fires before the
        // tuple is traded out of the chunk, so it is still intact for
        // window-key attribution).
        let outcome = {
            let local = &mut local;
            let count = &mut sup.count;
            let faults = &mut sup.faults;
            let chunk = &mut *chunk;
            let sender = &mut *sender;
            let reads = &reads;
            supervised(move || {
                while *local < chunk.len() {
                    if let Some(ahead) = chunk.get(*local + PREFETCH_AHEAD) {
                        let values = ahead.values();
                        prefetch(values.get(reads.clone()).unwrap_or(values), false);
                    }
                    *count += 1;
                    if let Some(f) = faults.check(*count) {
                        f.trip_router(*count);
                    }
                    let tuple = &mut chunk[*local];
                    if sender.passes_prefilter(tuple) {
                        let shard = router_def.route(tuple, start + *local as u64, sender.shards);
                        sender.push_tuple(shard, tuple);
                    }
                    *local += 1;
                }
            })
        };
        if outcome.is_err() {
            // The tripping tuple's window is poisoned for the router:
            // the tuple itself (if it would have been routed) and every
            // following same-window tuple are lost.
            let t = &chunk[local];
            let key = window_key(wexprs, t).unwrap_or_else(|| Tuple::new(Vec::new()));
            if sender.passes_prefilter(t) {
                add_uncovered(&mut sup.uncovered, key.clone(), 1);
                sender.router_stats.uncovered.inc();
            }
            sender.router_stats.quarantines.inc();
            if let Some(p) = profiler {
                p.trigger(DumpReason::Panic);
            }
            sup.quarantined = Some(key);
            local += 1;
        }
    }
}

/// Run `tuples` through `cfg.shards` operator instances partitioned and
/// merged per `plan`, returning the merged windows.
///
/// `make_spec` builds one fresh [`OperatorSpec`] per shard (shard index
/// passed in): per-shard specs must not share stateful-function
/// libraries, both so sampler RNG streams stay deterministic per shard
/// and so no state is accidentally shared across threads. It must be
/// `Sync` because quarantine supervision calls it *from the worker
/// threads* to respawn a fresh operator after a panic.
///
/// The calling thread pumps `tuples` (any `IntoIterator<Item = Tuple>`,
/// or a [`crate::Refill`] pull function) chunk by chunk and routes each
/// chunk into the shards' rings itself — the source may be endless; at
/// most [`RuntimeConfig::max_look_ahead`] tuples are ever in flight.
/// The `cfg.shards` workers run under [`std::thread::scope`]. An
/// operator error aborts the run with the shard index attached; a
/// worker or routing panic quarantines the shard (or the router) for
/// the poisoned window and the run completes with coverage accounting.
/// A worker panic supervision cannot catch — one in the spec factory
/// while a shard respawns — aborts the run with
/// [`RuntimeError::WorkerPanic`].
pub fn run_sharded<F, S>(
    plan: &ShardPlan,
    make_spec: F,
    cfg: &RuntimeConfig,
    tuples: S,
) -> Result<ShardedReport, RuntimeError>
where
    F: Fn(usize) -> Result<OperatorSpec, OpError> + Sync,
    S: TupleSource,
{
    if cfg.shards == 0 {
        return Err(RuntimeError::BadConfig("shards must be positive".into()));
    }
    if cfg.batch_size == 0 || cfg.effective_ring_capacity() == 0 {
        return Err(RuntimeError::BadConfig(
            "batch size and ring capacity must be positive".into(),
        ));
    }

    // A worker fault aimed past the last shard would never fire.
    let events = cfg.faults.iter().flat_map(|p| &p.events);
    if let Some(shard) = events
        .filter_map(|e| match *e {
            FaultEvent::WorkerPanic { shard, .. } | FaultEvent::WorkerStall { shard, .. } => {
                Some(shard)
            }
            _ => None,
        })
        .find(|&shard| shard >= cfg.shards)
    {
        return Err(RuntimeError::BadConfig(format!(
            "fault plan targets shard {shard}, but the run has {} shards",
            cfg.shards
        )));
    }

    let chunk_len = cfg.chunk_tuples();

    // A run without a caller-supplied registry records into a private
    // disabled one: ShardStats cells still work, spans stay off.
    let registry = cfg.registry.clone().unwrap_or_else(Registry::disabled);
    let mut shard_setups: Vec<ShardSetup> = Vec::with_capacity(cfg.shards);
    for shard in 0..cfg.shards {
        let spec = make_spec(shard).map_err(|source| RuntimeError::Op { shard, source })?;
        let entry_bytes = spec.group_entry_bytes() as u64;
        let mut op =
            SamplingOperator::new(spec).map_err(|source| RuntimeError::Op { shard, source })?;
        op.set_metrics(OperatorMetrics::register(&registry, format!("shard={shard}")));
        let store_err = |message: String| RuntimeError::Store { shard, message };
        if let Some(d) = &cfg.durability {
            if !op.can_persist() {
                return Err(RuntimeError::BadConfig(
                    "query uses a stateful function without persistence support".into(),
                ));
            }
            // The operator snapshots carry/aux at each window flush; the
            // worker records those bytes when `process` hands it the
            // closed window. Per-tuple cost on the durable path: none.
            op.set_capture_flush(true);
            if let Some(total) = d.state_budget {
                let per_shard = (total / cfg.shards as u64).max(1);
                let table = PagedGroupTable::for_shard(&d.dir, shard, per_shard, entry_bytes)
                    .map_err(|e| store_err(e.to_string()))?;
                op.set_group_backend(Box::new(table));
            }
        }
        if let Some(hints) = &cfg.sizing {
            op.reserve(hints);
        }
        let (store, watermark, recovered_windows) = match &cfg.durability {
            None => (None, None, Vec::new()),
            Some(d) => {
                let scfg = StoreConfig {
                    dir: d.dir.clone(),
                    checkpoint_every: d.checkpoint_every,
                    fsync: d.fsync,
                };
                if d.resume {
                    let (store, rec) = ShardStore::open_resumed(&scfg, shard)
                        .map_err(|e| store_err(e.to_string()))?;
                    op.import_carry(&rec.carry).map_err(store_err)?;
                    op.import_aux(&rec.aux).map_err(store_err)?;
                    (Some(store), rec.watermark, rec.outputs)
                } else {
                    let store =
                        ShardStore::create(&scfg, shard).map_err(|e| store_err(e.to_string()))?;
                    (Some(store), None, Vec::new())
                }
            }
        };
        shard_setups.push((op, store, watermark, recovered_windows));
    }

    let stats: Vec<ShardStats> =
        (0..cfg.shards).map(|shard| ShardStats::register(&registry, shard)).collect();
    let router_stats = RouterStats::register(&registry);
    // Ring depth is maintained by hand (inc on enqueue, dec on dequeue):
    // the channel exposes no len(), and per-shard gauge cells sum to the
    // total queued batches at snapshot time.
    let ring_depths: Vec<Gauge> = (0..cfg.shards)
        .map(|shard| registry.gauge_labeled("rt.ring_depth", format!("shard={shard}")))
        .collect();
    // Batch and chunk buffers allocated because no recycled one was at
    // hand: the chunk, the seeded pools below, plus one per lost
    // return. A function of the configuration, not of the stream's
    // length.
    let fresh = registry.counter("rt.tuple_buffers_fresh");

    install_supervised_panic_hook();
    // The process-crash fault: when the pump's global stream position
    // reaches the trigger, this flag flips and the run dies like a
    // kill — no flushes, no merge, no final checkpoints. (`at=0` is
    // clamped to the first tuple.)
    let crash_at = cfg.faults.as_ref().and_then(|p| p.crash_at()).map(|n| n.max(1));
    let crashed = SyncBool::new(false);
    let make_spec = &make_spec;
    // Router quarantine attributes unrouted tuples to the window they
    // would have landed in; every shard shares the same window shape,
    // so shard 0's expressions serve.
    let route_wexprs: Vec<Expr> =
        shard_setups.first().map(|(op, ..)| op.spec().window_exprs()).unwrap_or_default();
    let router_def = Router::new(plan);
    // Lineage tracing: the merge path and the pump own lanes here; the
    // workers open theirs on their own threads. Everything is `None`
    // (one branch per batch) when profiling is off.
    let mut merge_trace = cfg.profile.as_ref().map(|p| (p.clone(), p.lane(LaneKind::Merge, 0)));
    let next_tuple = tuples.into_refill();
    type ScopeOut = (Vec<ShardPartial>, Vec<(Tuple, u64)>);
    let (mut parts, router_uncovered) =
        std::thread::scope(|s| -> Result<ScopeOut, RuntimeError> {
            // One SPSC ring per shard, the pump producing and the shard's
            // worker consuming. Batches carry the router-assigned batch id
            // so worker-side stamps share lineage with the route stamp.
            // Beside every ring runs a return ring taking spent batches
            // home, holding the shard's whole pool — the ring's depth, the
            // batch being filled, the batch being processed — so the pump
            // never allocates a batch and a return never finds its ring
            // full.
            let ring_cap = cfg.effective_ring_capacity();
            let mut txs = Vec::with_capacity(cfg.shards);
            let mut homes = Vec::with_capacity(cfg.shards);
            // One worker thread per shard; `handles[k]` is shard k's.
            let mut handles = Vec::with_capacity(cfg.shards);
            for (shard, (op, store, watermark, recovered)) in shard_setups.into_iter().enumerate() {
                let (tx, rx) = ring::<Batch>(ring_cap);
                let (home, home_rx) = buffer_pool(ring_cap + 2, cfg.batch_size, &fresh);
                txs.push(tx);
                homes.push(home_rx);
                let (stats, depth) = (stats[shard].clone(), ring_depths[shard].clone());
                let (crashed, registry) = (&crashed, &registry);
                handles.push(s.spawn(move || {
                    QUIET_WORKER_PANICS.with(|q| q.set(true));
                    let worker = Worker {
                        shard,
                        rx,
                        home,
                        depth,
                        wexprs: op.spec().window_exprs(),
                        op: Some(op),
                        quarantined: None,
                        window_tuples: 0,
                        tuple_count: 0,
                        // Recovered windows seed the partial so the
                        // merge sees them exactly as a fault-free run
                        // would have produced them.
                        windows: recovered,
                        uncovered: Vec::new(),
                        faults: cfg
                            .faults
                            .as_ref()
                            .map(|p| p.worker_schedule(shard))
                            .unwrap_or_default(),
                        stats,
                        registry: registry.clone(),
                        make_spec,
                        store_stats: store.as_ref().map(|_| StoreStats::register(registry, shard)),
                        store,
                        watermark,
                        profiler: cfg.profile.clone(),
                        trace: cfg.profile.as_ref().map(|p| p.lane(LaneKind::Worker, shard as u32)),
                    };
                    worker.drain(crashed)
                }));
            }

            // The calling thread routes: it pulls a chunk a piece at a
            // time, routes each piece under the workers' supervision
            // contract, and flushes every partial batch before pulling the
            // next chunk.
            let shards = cfg.shards;
            let mut sender = Sender {
                shards,
                batch_size: cfg.batch_size,
                backpressure: cfg.backpressure,
                txs,
                homes,
                batches: (0..shards).map(|_| Default::default()).collect(),
                shed: (0..shards).map(|_| ShedState { z: 0.0, z0: 0.0, meter: 0.0 }).collect(),
                next_batch_id: 0,
                stats: &stats,
                ring_depths: &ring_depths,
                batch_hist: registry.histogram("rt.batch_tuples"),
                router_stats: router_stats.clone(),
                fresh: fresh.clone(),
                worker_gone: false,
                trace: cfg.profile.as_ref().map(|p| RouterTrace {
                    p: p.clone(),
                    lane: p.lane(LaneKind::Router, 0),
                    mark_ns: 0,
                    paused_ns: 0,
                }),
                prefilter: cfg.shared_prefilter.as_deref().map(Predicate::new),
            };
            for shard in 0..shards {
                sender.batches[shard].0 = sender.recycled(shard);
            }
            let faults = cfg.faults.as_ref().map(|p| p.router_schedule()).unwrap_or_default();
            let mut sup = RouteGuard { faults, ..Default::default() };
            let crash_fired = pump(
                next_tuple,
                chunk_len,
                crash_at,
                &crashed,
                &fresh,
                cfg.profile.as_ref(),
                |piece, start, chunk_done, crash| {
                    if let Some(t) = sender.trace.as_mut() {
                        t.mark_ns += t.p.now_ns().saturating_sub(t.paused_ns);
                    }
                    let counted = sup.count;
                    route_piece(
                        &mut sender,
                        &mut sup,
                        &router_def,
                        &route_wexprs,
                        cfg.profile.as_ref(),
                        piece,
                        start,
                    );
                    sender.router_stats.tuples.add(sup.count - counted);
                    // The crash trigger sat right behind this piece: the
                    // partial batches die unsent. A closed batch ring is a
                    // worker that died of an error: the run stops at the
                    // chunk's end.
                    if crash || (chunk_done && sender.worker_gone) {
                        return false;
                    }
                    if chunk_done {
                        sender.end_chunk();
                    }
                    if let Some(t) = sender.trace.as_mut() {
                        t.paused_ns = t.p.now_ns();
                    }
                    true
                },
            );
            // Dropping the sender closes every ring, so the workers drain
            // and exit.
            drop(sender);
            let router_uncovered = sup.uncovered;
            let bw_start = merge_trace.as_ref().map(|(p, _)| p.now_ns());
            // Each worker's partial is its thread's result: the join is
            // the happens-before edge from the shard's last write to the
            // merge. Partials come out in shard order; a crashed run's
            // workers return none.
            let mut partials = Vec::with_capacity(handles.len());
            for (shard, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(partial) => partials.extend(partial?),
                    Err(payload) => {
                        return Err(RuntimeError::WorkerPanic {
                            shard,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                }
            }
            if let Some(at_tuple) = crash_fired {
                // Nothing merges. The joins above give the flight
                // recorder's dump its happens-before edge: every worker is
                // quiescent when the last events are read.
                if let Some(p) = &cfg.profile {
                    if let Err(e) = p.write_dump_if_triggered() {
                        eprintln!("sso-profile: flight-recorder dump failed: {e}");
                    }
                }
                return Err(RuntimeError::Crashed { at_tuple });
            }
            if let Some((p, lane)) = merge_trace.as_mut() {
                let end = p.now_ns();
                let start = bw_start.unwrap_or(end);
                lane.record(ProfEvent::new(
                    ProfStage::BarrierWait,
                    start,
                    end.saturating_sub(start),
                ));
                lane.publish();
            }
            Ok((partials, router_uncovered))
        })?;

    let router_uncovered_total: u64 = router_uncovered.iter().map(|(_, n)| *n).sum();
    if !router_uncovered.is_empty() {
        // Router-quarantine losses enter the merge as one windows-free
        // partial: merge-finalize folds the per-window counts into each
        // window's Degradation verdict exactly as it does a quarantined
        // shard's.
        parts.push(ShardPartial { windows: Vec::new(), uncovered: router_uncovered });
    }
    let merge_start = merge_trace.as_ref().map(|(p, _)| p.now_ns());
    let windows = crate::merge::merge_shard_partials(parts, &plan.rule, cfg.seed);
    if let Some((p, lane)) = merge_trace.as_mut() {
        let end = p.now_ns();
        let start = merge_start.unwrap_or(end);
        lane.record(
            ProfEvent::new(ProfStage::Merge, start, end.saturating_sub(start))
                .aux(windows.len() as u64),
        );
        // One Emit stamp per merged window: its end minus the window's
        // earliest Process stamp is the end-to-end latency the collector
        // reports.
        for (i, w) in windows.iter().enumerate() {
            lane.record(
                ProfEvent::new(ProfStage::Emit, end, 0).window(i as u32).aux(w.rows.len() as u64),
            );
        }
        lane.publish();
    }

    // Run-level coverage: delivered tuples the merged output represents,
    // over everything delivered or lost before delivery (router
    // quarantine contributes only loss).
    let mut covered = 0u64;
    let mut uncovered_total = router_uncovered_total;
    for st in &stats {
        covered += st.tuples().saturating_sub(st.uncovered());
        uncovered_total += st.uncovered();
    }
    let coverage = if uncovered_total == 0 {
        1.0
    } else {
        covered as f64 / (covered + uncovered_total) as f64
    };
    registry.gauge("rt.coverage").set(coverage);
    if router_uncovered_total > 0 {
        // Router quarantine cut real traffic out of the result: fire the
        // undersample path so the degradation shows up on the same
        // alert channel as the §7.1 pathology.
        let offered = covered + uncovered_total;
        UndersampleDetector::register(&registry, "rt", UndersampleConfig { ratio: 1.0 })
            .observe(covered, offered, offered);
    }
    // A triggered flight recording (panic, shed) lands on
    // disk even when the run completes; crash dumps were written on the
    // early-return path above.
    if let Some(p) = &cfg.profile {
        if let Err(e) = p.write_dump_if_triggered() {
            eprintln!("sso-profile: flight-recorder dump failed: {e}");
        }
    }
    Ok(ShardedReport { windows, shards: stats, router: router_stats, coverage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_core::{queries, shard_plan};
    use sso_sync::SyncUsize;
    use sso_types::{Packet, Protocol, Value};
    use std::sync::atomic::Ordering as AtomicOrdering;

    fn stream(secs: u64, per_sec: u64, n_src: u32) -> Vec<Tuple> {
        let mut out = Vec::new();
        let mut i = 0u64;
        for sec in 0..secs {
            for j in 0..per_sec {
                let p = Packet {
                    uts: sec * 1_000_000_000 + j * (1_000_000_000 / per_sec) + 1,
                    src_ip: (i % n_src as u64) as u32,
                    dest_ip: 9,
                    src_port: 1000,
                    dest_port: 80,
                    proto: Protocol::Tcp,
                    len: 100 + (i % 7) as u32 * 100,
                };
                out.push(p.to_tuple());
                i += 1;
            }
        }
        out
    }

    fn run_exact(shards: usize) -> Vec<WindowOutput> {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let cfg = RuntimeConfig::new(shards);
        run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, stream(3, 1000, 16))
            .unwrap()
            .windows
    }

    #[test]
    fn round_robin_combine_is_exact_for_any_shard_count() {
        let single = run_exact(1);
        for shards in [2, 3, 8] {
            let sharded = run_exact(shards);
            assert_eq!(single.len(), sharded.len());
            for (a, b) in single.iter().zip(&sharded) {
                assert_eq!(a.window, b.window);
                assert_eq!(a.rows, b.rows, "{shards} shards must not drift");
                assert_eq!(a.stats.tuples, b.stats.tuples);
                assert!(!b.degradation.degraded, "fault-free run must not be degraded");
            }
        }
    }

    #[test]
    fn key_partitioned_concat_is_exact() {
        let spec = queries::heavy_hitters_query(1, 1 << 20, None).unwrap();
        let plan = shard_plan(&spec).unwrap();
        let make = |_| queries::heavy_hitters_query(1, 1 << 20, None);
        let tuples = stream(2, 2000, 32);
        let single =
            run_sharded(&plan, make, &RuntimeConfig::new(1), tuples.clone()).unwrap().windows;
        let sharded = run_sharded(&plan, make, &RuntimeConfig::new(4), tuples).unwrap().windows;
        assert_eq!(single.len(), sharded.len());
        for (a, b) in single.iter().zip(&sharded) {
            assert_eq!(a.rows, b.rows);
        }
    }

    #[test]
    fn route_stream_replays_router_decisions() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let tuples = stream(1, 30, 4);
        let shards = route_stream(&plan, 3, &tuples);
        // Key-free plans deal round-robin.
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(*s, i % 3);
        }
        let spec = queries::heavy_hitters_query(1, 1 << 20, None).unwrap();
        let plan = shard_plan(&spec).unwrap();
        let shards = route_stream(&plan, 4, &tuples);
        // Keyed routing is a pure function of the key columns.
        assert_eq!(shards, route_stream(&plan, 4, &tuples));
    }

    #[test]
    fn worker_errors_carry_the_shard_index() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let make = |shard: usize| {
            let mut spec = queries::total_sum_query(1);
            if shard == 1 {
                spec.where_clause = Some(Expr::Scalar {
                    name: "BOOM",
                    fun: std::sync::Arc::new(|_: &[Value]| Err("shard fault".to_string())),
                    args: vec![],
                });
            }
            Ok(spec)
        };
        // Round-robin routing guarantees shard 1 receives tuples.
        let err = run_sharded(&plan, make, &RuntimeConfig::new(3), stream(1, 600, 4)).unwrap_err();
        match err {
            RuntimeError::Op { shard, source } => {
                assert_eq!(shard, 1);
                assert!(source.to_string().contains("shard fault"));
            }
            other => panic!("expected Op error, got {other}"),
        }
    }

    #[test]
    fn panic_during_respawn_escapes_supervision_as_worker_panic() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        // Shard 1 panics mid-window 0 and is quarantined; at the next
        // window boundary its respawn calls the factory again, which
        // panics outside any catch_unwind. The run must end with the
        // error, not hang on the dead worker's rings.
        let mut fault = FaultPlan::empty(7);
        fault.events.push(sso_faults::FaultEvent::WorkerPanic { shard: 1, at_tuple: 150 });
        let cfg = RuntimeConfig::new(2).with_faults(fault.into_shared());
        let shard1_builds = SyncUsize::new(0);
        let make = |shard: usize| {
            if shard == 1 && shard1_builds.fetch_add(1, AtomicOrdering::Relaxed) > 0 {
                panic!("respawn refused for shard 1");
            }
            Ok(queries::total_sum_query(1))
        };
        match run_sharded(&plan, make, &cfg, stream(3, 600, 4)).unwrap_err() {
            RuntimeError::WorkerPanic { shard: 1, message } => {
                assert!(message.contains("respawn refused for shard 1"), "{message}");
            }
            other => panic!("expected WorkerPanic on shard 1, got {other}"),
        }
    }

    #[test]
    fn quarantine_supervision_completes_with_accounted_coverage() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        // Shard 0 panics on every tuple: each window quarantines it anew,
        // the respawned operator trips again, and every shard-0 tuple
        // lands in the uncovered ledger.
        let make = |shard: usize| {
            let mut spec = queries::total_sum_query(1);
            if shard == 0 {
                spec.where_clause = Some(Expr::Scalar {
                    name: "PANIC",
                    fun: std::sync::Arc::new(|_: &[Value]| panic!("injected shard panic")),
                    args: vec![],
                });
            }
            Ok(spec)
        };
        let tuples = stream(2, 600, 4);
        let n = tuples.len() as u64;
        let report = run_sharded(&plan, make, &RuntimeConfig::new(2), tuples).unwrap();
        assert!(report.degraded());
        assert!(report.coverage > 0.0 && report.coverage < 1.0, "{}", report.coverage);
        assert!(report.quarantines() >= 1);
        // Conservation: every delivered tuple is either represented in
        // the merged output or in the uncovered ledger.
        let delivered: u64 = report.shards.iter().map(|s| s.tuples()).sum();
        let uncovered: u64 = report.shards.iter().map(|s| s.uncovered()).sum();
        let covered: u64 = report.windows.iter().map(|w| w.stats.tuples).sum();
        assert_eq!(delivered, n);
        assert_eq!(covered + uncovered, n, "coverage accounting must be exact");
        // Every window lost its shard-0 half and is tagged.
        for w in &report.windows {
            assert!(w.degradation.degraded, "window {:?} should be degraded", w.window);
            assert!(w.degradation.coverage < 1.0);
        }
    }

    #[test]
    fn run_form_panic_quarantines_one_window() {
        use sso_core::{queries::sfun_expr, SfunLibrary, Signature};
        use sso_types::ValueKind;
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        // WHERE is a run form that rejects every tuple, so each 16-tuple
        // batch of an open window is one run from the batch's head; its
        // body panics once, on shard 1's 150th call. The panic must be
        // charged to a tuple of the run: one window quarantined, not a
        // WorkerPanic.
        let fired = std::sync::Arc::new(SyncUsize::new(0));
        let len = Packet::schema().index_of("len").unwrap();
        let make = |shard: usize| {
            let fired = fired.clone();
            let body = move |calls: &mut u64, _: u64, _: &[Value]| {
                *calls += 1;
                if shard == 1 && *calls == 150 && fired.fetch_add(1, AtomicOrdering::Relaxed) == 0 {
                    panic!("injected run-form panic");
                }
                Ok(false)
            };
            let lib = SfunLibrary::new("calls", |_| Box::new(0u64)).register_run(
                "reject",
                Signature::exact(1, ValueKind::Bool),
                body,
            );
            let mut spec = queries::total_sum_query(1);
            spec.where_clause = Some(sfun_expr(0, &lib, "reject", vec![Expr::Column(len)])?);
            spec.sfun_libs = vec![lib.into()];
            Ok(spec)
        };
        let mut cfg = RuntimeConfig::new(2);
        cfg.batch_size = 16;
        let tuples = stream(3, 600, 4);
        let n = tuples.len() as u64;
        let report = run_sharded(&plan, make, &cfg, tuples).unwrap();
        assert_eq!(report.quarantines(), 1);
        let uncovered: u64 = report.shards.iter().map(|s| s.uncovered()).sum();
        let covered: u64 = report.windows.iter().map(|w| w.stats.tuples).sum();
        assert_eq!(covered + uncovered, n, "coverage accounting must be exact");
        assert_eq!(report.windows.iter().filter(|w| w.degradation.degraded).count(), 1);
    }

    #[test]
    fn quarantined_shard_respawns_at_window_boundary() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        // A one-shot panic mid-window: the shard loses that window only
        // and the respawned operator covers later windows in full.
        let mut fault = FaultPlan::empty(7);
        fault.events.push(sso_faults::FaultEvent::WorkerPanic { shard: 1, at_tuple: 150 });
        let cfg = RuntimeConfig::new(2).with_faults(fault.into_shared());
        let tuples = stream(3, 600, 4);
        let report = run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, tuples).unwrap();
        assert_eq!(report.quarantines(), 1);
        assert!(report.degraded());
        assert_eq!(report.windows.len(), 3);
        // Exactly one window is degraded; the others recovered in full.
        let degraded: Vec<_> = report.windows.iter().filter(|w| w.degradation.degraded).collect();
        assert_eq!(degraded.len(), 1);
        assert!(degraded[0].degradation.coverage < 1.0);
        for w in report.windows.iter().filter(|w| !w.degradation.degraded) {
            assert_eq!(w.degradation.coverage, 1.0);
        }
    }

    #[test]
    fn router_panic_quarantines_one_window_and_replays_identically() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let make = |_| Ok(queries::total_sum_query(1));
        // 1800 tuples, 3 windows of 600, chunks of 128. The router's
        // 406th tuple is global index 405, mid-window 0, in chunk 3.
        let mut fault = FaultPlan::empty(7);
        fault.events.push(sso_faults::FaultEvent::RouterPanic { at_tuple: 406 });
        let fault = fault.into_shared();
        let tuples = stream(3, 600, 4);
        let n = tuples.len() as u64;
        let run = || {
            let mut cfg = RuntimeConfig::new(2).with_faults(std::sync::Arc::clone(&fault));
            cfg.batch_size = 8;
            assert_eq!(cfg.chunk_tuples(), 128);
            run_sharded(&plan, make, &cfg, tuples.clone()).unwrap()
        };
        let report = run();
        assert_eq!(report.router_quarantines(), 1);
        // The tripping tuple and the rest of window 0 (through index
        // 599, across chunk edges) are lost, never routed; routing
        // resumes at index 600, the first tuple of window 1.
        assert_eq!(report.router_uncovered(), 600 - 405);
        assert_eq!(report.quarantines(), 0, "no worker was harmed");
        assert!(report.degraded());
        assert_eq!(report.windows.len(), 3);
        let degraded: Vec<_> = report.windows.iter().filter(|w| w.degradation.degraded).collect();
        assert_eq!(degraded.len(), 1, "exactly one window pays for the router's death");
        assert!(degraded[0].degradation.coverage < 1.0);
        // Conservation: delivered + router-lost covers the whole stream.
        let delivered: u64 = report.shards.iter().map(|s| s.tuples()).sum();
        assert_eq!(delivered + report.router_uncovered(), n);
        let covered: u64 = report.windows.iter().map(|w| w.stats.tuples).sum();
        assert_eq!(covered, delivered, "every routed tuple is represented");
        assert!((report.coverage - covered as f64 / n as f64).abs() < 1e-12);
        // Same seed, same fault plan: byte-identical replay.
        let replay = run();
        assert_eq!(report.windows.len(), replay.windows.len());
        for (a, b) in report.windows.iter().zip(&replay.windows) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.degradation.degraded, b.degradation.degraded);
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the sleep simulates a slow shard
    fn drop_newest_accounts_every_lost_tuple() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let mut cfg = RuntimeConfig::new(1);
        cfg.ring_capacity = 1;
        cfg.batch_size = 16;
        cfg.backpressure = Backpressure::DropNewest;
        // A worker that can't keep up: every tuple takes a busy-loop hit.
        let make = |_| {
            let mut spec = queries::total_sum_query(1);
            spec.where_clause = Some(Expr::Scalar {
                name: "SLOW",
                fun: std::sync::Arc::new(|_: &[Value]| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    Ok(Value::Bool(true))
                }),
                args: vec![],
            });
            Ok(spec)
        };
        let tuples = stream(1, 5000, 4);
        let n = tuples.len() as u64;
        let report = run_sharded(&plan, make, &cfg, tuples).unwrap();
        let processed: u64 = report.shards.iter().map(|s| s.tuples()).sum();
        assert!(report.dropped() > 0, "1-deep ring must overflow");
        assert_eq!(processed + report.dropped(), n, "drops must be fully accounted");
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the sleep simulates a slow shard
    fn shed_backpressure_accounts_every_lost_tuple() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let mut cfg = RuntimeConfig::new(1);
        cfg.ring_capacity = 1;
        cfg.batch_size = 16;
        cfg.backpressure = Backpressure::Shed { weight_col: None };
        let make = |_| {
            let mut spec = queries::total_sum_query(1);
            spec.where_clause = Some(Expr::Scalar {
                name: "SLOW",
                fun: std::sync::Arc::new(|_: &[Value]| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    Ok(Value::Bool(true))
                }),
                args: vec![],
            });
            Ok(spec)
        };
        let tuples = stream(1, 5000, 4);
        let n = tuples.len() as u64;
        let report = run_sharded(&plan, make, &cfg, tuples).unwrap();
        let processed: u64 = report.shards.iter().map(|s| s.tuples()).sum();
        assert!(report.shed() > 0, "1-deep ring must force shedding");
        assert_eq!(report.dropped(), 0, "shed mode never whole-batch drops");
        assert_eq!(processed + report.shed(), n, "sheds must be fully accounted");
        // Count-weight shedding with the metering rule keeps 1-in-z:
        // some of every overloaded batch must still get through.
        assert!(processed > 0);
    }

    #[test]
    fn blocking_backpressure_is_lossless_and_counts_stalls() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let mut cfg = RuntimeConfig::new(2);
        cfg.ring_capacity = 1;
        cfg.batch_size = 8;
        let tuples = stream(1, 4000, 4);
        let n = tuples.len() as u64;
        let report = run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, tuples).unwrap();
        let processed: u64 = report.shards.iter().map(|s| s.tuples()).sum();
        assert_eq!(processed, n, "blocking mode must be lossless");
        assert_eq!(report.dropped(), 0);
    }

    #[test]
    fn supplied_registry_collects_runtime_and_operator_metrics() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let registry = Registry::new();
        let cfg = RuntimeConfig::new(2).with_registry(registry.clone());
        let tuples = stream(2, 1000, 8);
        let n = tuples.len() as f64;
        let report = run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, tuples).unwrap();
        let snap = registry.snapshot();
        // Merged across shard labels the totals must match the report.
        let rt_tuples: f64 = report.shards.iter().map(|s| s.tuples() as f64).sum();
        assert_eq!(rt_tuples, n);
        let merged: f64 =
            snap.metrics.iter().filter(|m| m.name == "rt.tuples").map(|m| m.scalar()).sum();
        assert_eq!(merged, n);
        // The per-shard operators flushed their window counters too.
        let op_tuples: f64 =
            snap.metrics.iter().filter(|m| m.name == "op.tuples").map(|m| m.scalar()).sum();
        assert_eq!(op_tuples, n);
        // Busy time was recorded per batch, and rings drained to depth 0.
        assert!(report.shards.iter().all(|s| s.busy() > Duration::ZERO));
        let depth: f64 =
            snap.metrics.iter().filter(|m| m.name == "rt.ring_depth").map(|m| m.scalar()).sum();
        assert_eq!(depth, 0.0);
        // Router batch sizes were recorded.
        let batches = snap.get("rt.batch_tuples").unwrap();
        assert!(batches.hits() > 0);
        // A clean run publishes full coverage.
        let cov = snap.metrics.iter().find(|m| m.name == "rt.coverage").unwrap();
        assert_eq!(cov.scalar(), 1.0);
    }

    fn engine_tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("sso-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn durable_run_matches_in_memory_and_resumes_from_the_store() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let tuples = stream(3, 1000, 16);
        let plain = run_sharded(
            &plan,
            |_| Ok(queries::total_sum_query(1)),
            &RuntimeConfig::new(4),
            tuples.clone(),
        )
        .unwrap()
        .windows;
        let dir = engine_tmpdir("durable-match");
        let mut d = DurabilityConfig::new(&dir);
        d.checkpoint_every = 2;
        let cfg = RuntimeConfig::new(4).with_durability(d.clone());
        let durable = run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, tuples.clone())
            .unwrap()
            .windows;
        assert_eq!(plain.len(), durable.len());
        for (a, b) in plain.iter().zip(&durable) {
            assert_eq!(a.window, b.window);
            assert_eq!(a.rows, b.rows, "durable run must not perturb results");
        }
        // Resume over the same stream: every window sits at or below the
        // watermark, so the whole output is served from the store.
        d.resume = true;
        let cfg = RuntimeConfig::new(4).with_durability(d);
        let resumed =
            run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, tuples).unwrap().windows;
        assert_eq!(plain.len(), resumed.len());
        for (a, b) in plain.iter().zip(&resumed) {
            assert_eq!(a.rows, b.rows, "recovered windows must round-trip exactly");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_fault_kills_the_run_and_recovery_completes_it() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let tuples = stream(3, 1000, 16);
        let plain = run_sharded(
            &plan,
            |_| Ok(queries::total_sum_query(1)),
            &RuntimeConfig::new(2),
            tuples.clone(),
        )
        .unwrap()
        .windows;
        let dir = engine_tmpdir("crash-recover");
        let mut fault = FaultPlan::empty(7);
        fault.events.push(sso_faults::FaultEvent::Crash { at_tuple: 2500 });
        let cfg = RuntimeConfig::new(2)
            .with_faults(fault.into_shared())
            .with_durability(DurabilityConfig::new(&dir));
        let err = run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, tuples.clone())
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Crashed { at_tuple: 2500 }), "{err}");
        // Restart over the same deterministic stream: recovered windows
        // come from the store, the crash window is recomputed, and the
        // result matches the fault-free run row for row.
        let mut d = DurabilityConfig::new(&dir);
        d.resume = true;
        let cfg = RuntimeConfig::new(2).with_durability(d);
        let recovered =
            run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &cfg, tuples).unwrap().windows;
        assert_eq!(plain.len(), recovered.len(), "all three windows survive");
        for (a, b) in plain.iter().zip(&recovered) {
            assert_eq!(a.window, b.window);
            assert_eq!(a.rows, b.rows, "window {:?} must match the fault-free run", a.window);
            assert!(!b.degradation.degraded, "recovery must not report degradation");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_budget_spills_and_stays_under_budget() {
        // High-cardinality keyed count: many groups per window.
        let spec = queries::heavy_hitters_query(1, 1 << 20, None).unwrap();
        let plan = shard_plan(&spec).unwrap();
        let make = |_| queries::heavy_hitters_query(1, 1 << 20, None);
        let tuples = stream(2, 4000, 4000);
        let plain =
            run_sharded(&plan, make, &RuntimeConfig::new(2), tuples.clone()).unwrap().windows;
        let dir = engine_tmpdir("budget");
        let registry = Registry::new();
        let mut d = DurabilityConfig::new(&dir);
        // Small enough to force spilling (~4000 groups/shard model well
        // past 3 pages), large enough to stay useful.
        let budget = 3 * sso_core::snapshot::PAGE_BYTES as u64 * 2;
        d.state_budget = Some(budget);
        let cfg = RuntimeConfig::new(2).with_registry(registry.clone()).with_durability(d);
        let spilled = run_sharded(&plan, make, &cfg, tuples).unwrap().windows;
        assert_eq!(plain.len(), spilled.len());
        for (a, b) in plain.iter().zip(&spilled) {
            assert_eq!(a.rows, b.rows, "spilling must not change results");
        }
        let snap = registry.snapshot();
        let per_shard = budget / 2;
        let peaks: Vec<f64> = snap
            .metrics
            .iter()
            .filter(|m| m.name == "store.peak_resident_bytes")
            .map(|m| m.scalar())
            .collect();
        assert_eq!(peaks.len(), 2, "one peak gauge per shard");
        for p in &peaks {
            assert!(*p > 0.0, "peak resident was recorded");
            assert!(*p <= per_shard as f64, "peak {p} exceeds per-shard budget {per_shard}");
        }
        let faults: f64 =
            snap.metrics.iter().filter(|m| m.name == "store.page_faults").map(|m| m.scalar()).sum();
        assert!(faults > 0.0, "a budget this tight must fault pages back in");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_zero_shards() {
        let spec = queries::total_sum_query(1);
        let plan = shard_plan(&spec).unwrap();
        let err =
            run_sharded(&plan, |_| Ok(queries::total_sum_query(1)), &RuntimeConfig::new(0), [])
                .unwrap_err();
        assert!(matches!(err, RuntimeError::BadConfig(_)));
    }

    #[test]
    fn rejects_a_worker_fault_past_the_last_shard() {
        let plan = shard_plan(&queries::total_sum_query(1)).unwrap();
        for event in [
            sso_faults::FaultEvent::WorkerPanic { shard: 4, at_tuple: 10 },
            sso_faults::FaultEvent::WorkerStall { shard: 9, at_tuple: 10, millis: 1 },
        ] {
            let mut fault = FaultPlan::empty(7);
            fault.events.push(event);
            let cfg = RuntimeConfig::new(4).with_faults(fault.into_shared());
            let make = |_| Ok(queries::total_sum_query(1));
            match run_sharded(&plan, make, &cfg, stream(1, 100, 4)).unwrap_err() {
                RuntimeError::BadConfig(msg) => {
                    assert!(msg.contains("shard") && msg.contains("4 shards"), "{msg}")
                }
                other => panic!("{event}: expected BadConfig, got {other}"),
            }
        }
    }
}
