//! The sharded runtime's entry point, [`run_sharded`], with its
//! configuration ([`RuntimeConfig`]), its report ([`ShardedReport`],
//! [`ShardStats`], [`RouterStats`]) and its errors ([`RuntimeError`]).
//!
//! `run_sharded` wires the stages together and runs them; each lives
//! in a module of its own:
//!
//! * [`crate::pump`]: the calling thread pulls the source a piece at a
//!   time into one reused chunk.
//! * `route`: the same thread partitions each piece into one batched
//!   bounded ring per shard.
//! * `worker`: one thread per shard runs its own operator instance.
//! * `supervise`: the fault contract the router and the workers share.
//! * [`crate::merge`]: once every worker is joined, the calling thread
//!   merges their partials by the plan's rule.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sso_core::{
    panic_message, Degradation, Expr, OpError, OperatorSpec, SamplingOperator, ShardPlan,
    SizingHints, SpillStats, WindowOutput,
};
use sso_faults::{FaultEvent, FaultPlan};
use sso_obs::{Counter, Gauge, Registry, Stopwatch, UndersampleConfig, UndersampleDetector};
use sso_profile::{Event as ProfEvent, LaneKind, Profiler, Stage as ProfStage};
use sso_store::{FsyncPolicy, ShardStore, StoreConfig};
use sso_sync::SyncBool;
use sso_types::Tuple;

use crate::merge::ShardPartial;
use crate::pump::{pump, stamp, TupleSource, CHUNK_BATCHES};
use crate::route::{route_piece, Router, Sender};
use crate::supervise::Quarantine;
use crate::worker::{operator, Worker};

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
    /// route → ring wait → process → join → merge → emit; the join,
    /// the pump waiting on the workers' partials, is the stage named
    /// `barrier_wait`) in per-thread event rings, and panic and crash
    /// triggers dump them as a flight recording. `None` costs one
    /// branch per batch.
    pub profile: Option<Profiler>,
}

impl RuntimeConfig {
    /// A config with `shards` workers and the default ring shape:
    /// 16 batches of 1024 tuples. (Same 16K-tuple ring depth as 64x256,
    /// but fewer handoffs per tuple; larger batches start thrashing
    /// cache.)
    pub fn new(shards: usize) -> Self {
        RuntimeConfig {
            shards,
            ring_capacity: 16,
            batch_size: 1024,
            seed: 0x5eed_00d5,
            registry: None,
            faults: None,
            sizing: None,
            durability: None,
            profile: None,
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

    /// Record per-batch lineage stamps (and arm the flight recorder)
    /// into `profiler`.
    pub fn with_profile(mut self, profiler: Profiler) -> Self {
        self.profile = Some(profiler);
        self
    }

    /// The effective ring depth: the sizing hint's override when
    /// present, the configured default otherwise.
    pub(crate) fn effective_ring_capacity(&self) -> usize {
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
    pub(crate) stalls: Counter,
    pub(crate) busy_ns: Counter,
    pub(crate) quarantines: Counter,
    pub(crate) uncovered: Counter,
}

impl ShardStats {
    fn register(registry: &Registry, shard: usize) -> Self {
        let label = format!("shard={shard}");
        ShardStats {
            shard,
            tuples: registry.counter_labeled("rt.tuples", label.clone()),
            windows: registry.counter_labeled("rt.windows", label.clone()),
            stalls: registry.counter_labeled("rt.stalls", label.clone()),
            busy_ns: registry.counter_labeled("rt.busy_ns", label.clone()),
            quarantines: registry.counter_labeled("rt.quarantines", label.clone()),
            uncovered: registry.counter_labeled("rt.uncovered", label),
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

    /// Always 0: a full ring blocks the router and loses nothing. Kept
    /// for the benchmark harness, which still reads it.
    pub fn dropped(&self) -> u64 {
        0
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

    /// Tuples of the finished chunks (routed or uncovered); advances
    /// chunk by chunk while the run is live.
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
    /// Time the calling thread spent pulling the source, read once per
    /// pulled piece: with a low-level query node as the source, that
    /// node's busy time.
    pub pull: Duration,
}

impl ShardedReport {
    /// Tuples the shard workers were delivered, total.
    pub fn tuples_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.tuples()).sum()
    }

    /// Always 0, like [`ShardStats::dropped`].
    pub fn dropped(&self) -> u64 {
        0
    }

    /// Always 0: nothing is shed at a full ring. Kept for the benchmark
    /// harness, which still reads it.
    pub fn shed(&self) -> u64 {
        0
    }

    /// Total router stalls on full rings.
    pub fn stalls(&self) -> u64 {
        self.shards.iter().map(|s| s.stalls()).sum()
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

/// Per-shard setup built before the workers spawn: the operator, its
/// durable writer (if any), its resume watermark, and the recovered
/// window outputs that seed its partial.
type ShardSetup = (SamplingOperator, Option<ShardStore>, Option<Tuple>, Vec<WindowOutput>);

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

    // A run without a caller-supplied registry records into a private
    // disabled one: ShardStats cells still work, spans stay off.
    let registry = cfg.registry.clone().unwrap_or_else(Registry::disabled);
    let build = |shard, respawn| operator(&make_spec, shard, cfg, &registry, respawn);
    let mut shard_setups: Vec<ShardSetup> = Vec::with_capacity(cfg.shards);
    for shard in 0..cfg.shards {
        let mut op = build(shard, false)?;
        let store_err = |message: String| RuntimeError::Store { shard, message };
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
    // hand: the chunk, the seeded pools, plus one per lost return. A
    // function of the configuration, not of the stream's length.
    let fresh = registry.counter("rt.tuple_buffers_fresh");

    // The process-crash fault: when the pump's global stream position
    // reaches the trigger, this flag flips and the run dies like a
    // kill — no flushes, no merge, no final checkpoints. (`at=0` is
    // clamped to the first tuple.)
    let crash_at = cfg.faults.as_ref().and_then(|p| p.crash_at()).map(|n| n.max(1));
    let crashed = SyncBool::new(false);
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
    type ScopeOut = (Vec<ShardPartial>, Vec<(Tuple, u64)>, Duration);
    let (mut parts, router_uncovered, pull) =
        std::thread::scope(|s| -> Result<ScopeOut, RuntimeError> {
            // One SPSC ring per shard, the pump producing and the shard's
            // worker consuming, and beside it a return ring taking spent
            // batches home. Batches carry the router-assigned batch id
            // so worker-side stamps share lineage with the route stamp.
            let (mut sender, rings) = Sender::new(cfg, &stats, &ring_depths, &registry, &fresh);
            // One worker thread per shard; `handles[k]` is shard k's.
            let mut handles = Vec::with_capacity(cfg.shards);
            let setups = shard_setups.into_iter().zip(rings).enumerate();
            for (shard, ((op, store, watermark, recovered), (rx, home))) in setups {
                let (stats, depth) = (stats[shard].clone(), ring_depths[shard].clone());
                let (crashed, registry) = (&crashed, &registry);
                handles.push(s.spawn(move || {
                    let quarantine = Quarantine::new(
                        stats.uncovered.clone(),
                        stats.quarantines.clone(),
                        cfg.profile.clone(),
                    );
                    let worker = Worker {
                        shard,
                        rx,
                        home,
                        depth,
                        wexprs: op.spec().window_exprs(),
                        op: Some(op),
                        quarantine,
                        window_tuples: 0,
                        tuple_count: 0,
                        // Recovered windows seed the partial so the
                        // merge sees them exactly as a fault-free run
                        // would have produced them.
                        windows: recovered,
                        faults: cfg
                            .faults
                            .as_ref()
                            .map(|p| p.worker_schedule(shard))
                            .unwrap_or_default(),
                        stats,
                        build: &build,
                        store_stats: store.as_ref().map(|_| StoreStats::register(registry, shard)),
                        store,
                        watermark,
                        trace: cfg
                            .profile
                            .as_ref()
                            .map(|p| (p.clone(), p.lane(LaneKind::Worker, shard as u32))),
                    };
                    worker.drain(crashed)
                }));
            }

            // The calling thread routes: it pulls a chunk a piece at a
            // time, routes each piece under the workers' fault
            // contract, and flushes every partial batch before pulling
            // the next chunk.
            let mut quarantine = Quarantine::new(
                router_stats.uncovered.clone(),
                router_stats.quarantines.clone(),
                cfg.profile.clone(),
            );
            let mut faults = cfg.faults.as_ref().map(|p| p.router_schedule()).unwrap_or_default();
            let (crash_fired, pull) = pump(
                next_tuple,
                cfg.chunk_tuples(),
                crash_at,
                &crashed,
                &fresh,
                cfg.profile.as_ref(),
                |piece, start, chunk_done, crash| {
                    if let Some(t) = sender.trace.as_mut() {
                        t.mark_ns += t.p.now_ns().saturating_sub(t.paused_ns);
                    }
                    let (wexprs, router) = (&route_wexprs, &router_def);
                    route_piece(
                        &mut sender,
                        &mut quarantine,
                        &mut faults,
                        router,
                        wexprs,
                        piece,
                        start,
                    );
                    router_stats.tuples.add(piece.len() as u64);
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
            let barrier = Stopwatch::start();
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
                write_dump(cfg);
                return Err(RuntimeError::Crashed { at_tuple });
            }
            if let Some((p, lane)) = merge_trace.as_mut() {
                stamp(p, lane, ProfStage::BarrierWait, barrier.elapsed_ns(), |e| e);
            }
            Ok((partials, quarantine.uncovered, pull))
        })?;

    // Router-quarantine losses enter the merge as one windows-free
    // partial: merge-finalize folds the per-window counts into each
    // window's Degradation verdict exactly as it does a quarantined
    // shard's.
    parts.push(ShardPartial { windows: Vec::new(), uncovered: router_uncovered });
    let merging = Stopwatch::start();
    let windows = crate::merge::merge_shard_partials(parts, &plan.rule, cfg.seed);
    if let Some((p, lane)) = merge_trace.as_mut() {
        let n = windows.len() as u64;
        stamp(p, lane, ProfStage::Merge, merging.elapsed_ns(), |e| e.aux(n));
        // One Emit stamp per merged window: its end minus the window's
        // earliest Process stamp is the end-to-end latency the collector
        // reports.
        let end = p.now_ns();
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
    let mut uncovered_total = router_stats.uncovered();
    for st in &stats {
        covered += st.tuples().saturating_sub(st.uncovered());
        uncovered_total += st.uncovered();
    }
    let coverage = Degradation::from_counts(covered, uncovered_total).coverage;
    registry.gauge("rt.coverage").set(coverage);
    if router_stats.uncovered() > 0 {
        // Router quarantine cut real traffic out of the result: fire the
        // undersample path so the degradation shows up on the same
        // alert channel as the §7.1 pathology.
        let offered = covered + uncovered_total;
        UndersampleDetector::register(&registry, "rt", UndersampleConfig { ratio: 1.0 })
            .observe(covered, offered, offered);
    }
    // A triggered flight recording (a panic) lands on disk even when
    // the run completes; crash dumps were written on the early-return
    // path above.
    write_dump(cfg);
    Ok(ShardedReport { windows, shards: stats, router: router_stats, coverage, pull })
}

/// Write the flight recording to disk if a panic or a crash triggered
/// it.
fn write_dump(cfg: &RuntimeConfig) {
    if let Some(Err(e)) = cfg.profile.as_ref().map(Profiler::write_dump_if_triggered) {
        eprintln!("sso-profile: flight-recorder dump failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::route_stream;
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
