//! The traced run: the workload's pipeline driven layer by layer from
//! the benchmark's side, with a span around every call into a layer's
//! public functions, plus the per-layer micro measurements that run on
//! the same seeded inputs on every workload.
//!
//! No engine code is instrumented: the replay assembles the pipeline
//! from the same public pieces the entry point is built from (low-level
//! node, prefilter `Expr`, `SamplingOperator`, `route_stream`,
//! `merge_windows`, `ShardStore`), checks that it produces the windows
//! the entry point produced, and times each piece per batch of at most
//! [`BATCH`] tuples.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sso_core::expr::EvalCtx;
use sso_core::libs::distinct::DistinctOpConfig;
use sso_core::libs::reservoir::ReservoirOpConfig;
use sso_core::libs::subset_sum::SubsetSumOpConfig;
use sso_core::{queries, Expr, OperatorSpec, SamplingOperator, WindowOutput};
use sso_gigascope::{LowLevelQuery, SelectionNode};
use sso_runtime::{merge_windows, route_stream, RuntimeConfig};
use sso_sampling::{
    DynamicSubsetSum, KmvSketch, LossyCounter, Reservoir, SkipReservoir, SubsetSumConfig,
};
use sso_store::{FsyncPolicy, ShardStore, StoreConfig, WindowRecord};
use sso_types::{Packet, Tuple};

use crate::feed::{window_ranges, window_starts};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::workloads::{Prepared, CHECKPOINT_EVERY, HH_BUCKET, SHARDS};

/// Tuples per timed batch: the clock is read per batch, never per
/// tuple.
pub const BATCH: usize = 1024;

/// Seconds of feed the micro measurements run over (the same prefix on
/// every workload, so their numbers compare across workloads).
pub const MICRO_SECONDS: u64 = 8;
/// Window length of the micro measurements.
const MICRO_WINDOW_SECS: u64 = 2;
/// Sample target of the sampler micro measurements.
const MICRO_TARGET: usize = 1000;
/// Min-hash signature size of the `kmv` micro measurements.
const KMV_K: usize = 10;

/// Drives one operator the way an entry point does, timing `process`
/// calls that close a window (and `finish`) singly as flushes and all
/// other calls per batch as admits, and — on the durable workload —
/// recording every closed window in a `ShardStore`.
struct OpDriver {
    op: SamplingOperator,
    store: Option<ShardStore>,
    windows: Vec<WindowOutput>,
    /// The next tuple fed opens a new window, so its `process` call
    /// flushes the previous one.
    flush_next: bool,
    started: bool,
    since_checkpoint: u64,
    flush_ns: Vec<u64>,
    admit_ns: u64,
    admit_tuples: u64,
}

impl OpDriver {
    fn new(spec: OperatorSpec, store: Option<ShardStore>) -> Self {
        let mut op = SamplingOperator::new(spec).expect("instantiate operator");
        // As the runtime does for a durable shard: snapshot carry/aux
        // bytes at each window flush.
        op.set_capture_flush(store.is_some());
        OpDriver {
            op,
            store,
            windows: Vec::new(),
            flush_next: false,
            started: false,
            since_checkpoint: 0,
            flush_ns: Vec::new(),
            admit_ns: 0,
            admit_tuples: 0,
        }
    }

    /// The tuples fed next belong to a new window.
    fn open_window(&mut self) {
        self.flush_next = self.started;
    }

    fn feed(&mut self, rec: &mut Recorder, tuples: &[Tuple]) {
        let mut rest = tuples;
        if self.flush_next {
            let Some((first, tail)) = tuples.split_first() else { return };
            self.flush_next = false;
            rest = tail;
            let (closed, ns) = rec
                .timed("core.operator.flush", |_| self.op.process(first).expect("process tuple"));
            self.flush_ns.push(ns);
            if let Some(w) = closed {
                self.close(rec, w);
            }
        }
        if rest.is_empty() {
            return;
        }
        self.started = true;
        let (closed, ns) = rec.timed("core.operator.admit", |_| {
            let mut closed = Vec::new();
            for t in rest {
                if let Some(w) = self.op.process(t).expect("process tuple") {
                    closed.push(w);
                }
            }
            closed
        });
        self.admit_ns += ns;
        self.admit_tuples += rest.len() as u64;
        for w in closed {
            self.close(rec, w);
        }
    }

    fn close(&mut self, rec: &mut Recorder, window: WindowOutput) {
        if let Some(store) = &mut self.store {
            rec.span("store.record_window", |_| {
                let (carry, aux) = self.op.take_flush_state().expect("captured flush state");
                store
                    .record_window(&WindowRecord { output: &window, carry: &carry, aux: &aux })
                    .expect("record window");
            });
            self.since_checkpoint += 1;
            if self.since_checkpoint == CHECKPOINT_EVERY {
                self.since_checkpoint = 0;
                rec.span("store.checkpoint", |_| store.checkpoint().expect("checkpoint"));
            }
        }
        self.windows.push(window);
    }

    fn finish(&mut self, rec: &mut Recorder) {
        let (closed, ns) =
            rec.timed("core.operator.flush", |_| self.op.finish().expect("finish operator"));
        self.flush_ns.push(ns);
        if let Some(w) = closed {
            self.close(rec, w);
        }
        if let Some(store) = &mut self.store {
            rec.span("store.checkpoint", |_| store.finalize().expect("final checkpoint"));
        }
    }
}

/// Evaluate `pred` over `tuple` as the shared prefilter does.
fn passes(pred: &Expr, tuple: &Tuple) -> bool {
    let mut ctx = EvalCtx { tuple: Some(tuple), ..EvalCtx::empty("shared prefilter") };
    pred.eval_bool(&mut ctx).expect("prefilter evaluates")
}

/// Counters the replay reads off the layers it drove.
#[derive(Default)]
pub struct ReplayCounts {
    /// Largest share of the stream one shard received.
    pub route_skew: f64,
    /// WAL bytes, checkpoint bytes and windows recorded, over shards.
    pub wal_bytes: u64,
    pub ckpt_bytes: u64,
    pub windows_recorded: u64,
    /// Windows that went through `merge_windows`.
    pub merged_windows: u64,
}

/// One traced repetition under a root span `rep`. Returns what the
/// entry point would return: `(consumer, windows)` per consumer.
pub fn replay(
    rec: &mut Recorder,
    prepared: &Prepared,
    durable_dir: &Path,
    counts: &mut ReplayCounts,
) -> Vec<(String, Vec<WindowOutput>)> {
    rec.span("rep", |rec| {
        if prepared.workload.sharded() {
            replay_sharded(rec, prepared, durable_dir, counts)
        } else {
            replay_inline(rec, prepared)
        }
    })
}

/// `run_plan` / `run_fanout_shared`, layer by layer: low-level node,
/// shared prefilter, then every share group's operator.
fn replay_inline(rec: &mut Recorder, prepared: &Prepared) -> Vec<(String, Vec<WindowOutput>)> {
    let pipeline = &prepared.pipeline;
    let mut low = SelectionNode::pass_all();
    let mut drivers: Vec<OpDriver> =
        pipeline.groups.iter().map(|(spec, _)| OpDriver::new(spec.clone(), None)).collect();
    let mut tuples: Vec<Tuple> = Vec::with_capacity(BATCH);
    for (lo, hi) in window_ranges(&prepared.starts, prepared.packets.len()) {
        drivers.iter_mut().for_each(OpDriver::open_window);
        for chunk in prepared.packets[lo..hi].chunks(BATCH) {
            rec.span("gigascope.low", |_| {
                tuples.extend(chunk.iter().filter_map(|p| low.process(p)))
            });
            if let Some(pred) = &pipeline.prefilter {
                rec.span("core.expr.prefilter", |_| tuples.retain(|t| passes(pred, t)));
            }
            for d in &mut drivers {
                d.feed(rec, &tuples);
            }
            rec.span("types.tuple_drop", |_| tuples.clear());
        }
    }
    assert!(low.finish().is_empty(), "a selection node buffers nothing");
    let mut out = Vec::new();
    for (mut d, (_, consumers)) in drivers.into_iter().zip(&pipeline.groups) {
        d.finish(rec);
        out.extend(consumers.iter().map(|c| (c.clone(), d.windows.clone())));
    }
    out
}

/// `run_plan_sharded_with`, layer by layer and on one thread: the low
/// node materialises the stream (as `run_sharded` does), `route_stream`
/// picks shards, each shard's operator runs over its sub-stream (with
/// its `ShardStore` on the durable workload), `merge_windows` combines.
fn replay_sharded(
    rec: &mut Recorder,
    prepared: &Prepared,
    durable_dir: &Path,
    counts: &mut ReplayCounts,
) -> Vec<(String, Vec<WindowOutput>)> {
    let workload = prepared.workload;
    let plan = prepared.pipeline.shard_plan.as_ref().expect("sharded pipeline");
    let mut low = SelectionNode::pass_all();
    let mut stream: Vec<Tuple> = Vec::with_capacity(prepared.packets.len());
    for chunk in prepared.packets.chunks(BATCH) {
        rec.span("gigascope.low", |_| stream.extend(chunk.iter().filter_map(|p| low.process(p))));
    }
    assert_eq!(stream.len(), prepared.packets.len(), "pass-all low node");
    let shard_of = rec.span("runtime.route", |_| route_stream(plan, SHARDS, stream.iter()));

    // Scatter into per-shard sub-streams, noting where each shard's
    // windows start (stream index == packet index under a pass-all low
    // node, so the feed's window starts apply).
    let (subs, sub_starts) = rec.span("runtime.scatter", |_| {
        let mut subs: Vec<Vec<Tuple>> = vec![Vec::new(); SHARDS];
        let mut sub_starts: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
        let mut next_start = prepared.starts.iter().copied().peekable();
        let mut window = 0usize;
        let mut last_window = [0usize; SHARDS];
        for (i, (tuple, &shard)) in stream.into_iter().zip(&shard_of).enumerate() {
            if next_start.next_if_eq(&i).is_some() {
                window += 1;
            }
            if last_window[shard] != window {
                last_window[shard] = window;
                sub_starts[shard].push(subs[shard].len());
            }
            subs[shard].push(tuple);
        }
        (subs, sub_starts)
    });
    counts.route_skew =
        subs.iter().map(Vec::len).max().unwrap_or(0) as f64 / prepared.packets.len().max(1) as f64;

    let mut per_shard: Vec<Vec<WindowOutput>> = Vec::with_capacity(SHARDS);
    for (shard, (sub, starts)) in subs.iter().zip(&sub_starts).enumerate() {
        let store = workload.durable().then(|| {
            // Cadence 0: the driver calls `checkpoint` itself, so the
            // two store costs get separate spans.
            let cfg = StoreConfig {
                dir: durable_dir.join("replay"),
                checkpoint_every: 0,
                fsync: FsyncPolicy::Never,
            };
            ShardStore::create(&cfg, shard).expect("create shard store")
        });
        let mut driver = OpDriver::new(workload.shard_spec(), store);
        for (lo, hi) in window_ranges(starts, sub.len()) {
            driver.open_window();
            for chunk in sub[lo..hi].chunks(BATCH) {
                driver.feed(rec, chunk);
            }
        }
        driver.finish(rec);
        if let Some(store) = &driver.store {
            counts.wal_bytes += store.wal_bytes();
            counts.ckpt_bytes += store.ckpt_bytes();
            counts.windows_recorded += store.windows_recorded();
        }
        per_shard.push(driver.windows);
    }
    rec.span("types.tuple_drop", |_| drop(subs));
    // The runtime merges with its configured seed; the workloads keep
    // the default.
    let seed = RuntimeConfig::new(SHARDS).seed;
    let merged = rec.span("runtime.merge", |_| merge_windows(per_shard, &plan.rule, seed));
    counts.merged_windows += merged.len() as u64;
    vec![("q".into(), merged)]
}

/// Whether two runs produced the same windows with the same rows.
pub fn same_output(a: &[(String, Vec<WindowOutput>)], b: &[(String, Vec<WindowOutput>)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((an, aw), (bn, bw))| {
            an == bn
                && aw.len() == bw.len()
                && aw.iter().zip(bw).all(|(x, y)| x.window == y.window && x.rows == y.rows)
        })
}

/// The operator spec hosting sampler `name` in the micro measurements.
fn sampler_spec(name: &str) -> OperatorSpec {
    let w = MICRO_WINDOW_SECS;
    let spec = match name {
        "ss" => {
            let cfg =
                SubsetSumOpConfig { target: MICRO_TARGET, initial_z: 1.0, ..Default::default() };
            queries::subset_sum_query(w, cfg, false)
        }
        "hh" => queries::heavy_hitters_query(w, HH_BUCKET, None),
        "reservoir" => {
            queries::reservoir_query(w, ReservoirOpConfig { n: MICRO_TARGET, ..Default::default() })
        }
        "kmv" => queries::minhash_query(w, KMV_K),
        "distinct" => queries::distinct_sample_query(
            w,
            DistinctOpConfig { capacity: MICRO_TARGET, ..Default::default() },
        ),
        // A fixed threshold that keeps on the order of a thousand
        // samples per window of the datacenter feed.
        "basic_ss" => queries::basic_subset_sum_query(w, 100_000.0),
        other => panic!("unknown sampler {other}"),
    };
    spec.expect("sampler spec")
}

/// The inputs of the micro measurements: the first [`MICRO_SECONDS`] of
/// the workload's feed, as packets and as tuples.
pub struct MicroInput<'a> {
    packets: &'a [Packet],
    tuples: Vec<Tuple>,
    starts: Vec<usize>,
}

impl<'a> MicroInput<'a> {
    pub fn new(packets: &'a [Packet]) -> Self {
        let end = packets.partition_point(|p| p.time() < MICRO_SECONDS);
        let packets = &packets[..end];
        MicroInput {
            packets,
            tuples: packets.iter().map(Packet::to_tuple).collect(),
            starts: window_starts(packets, MICRO_WINDOW_SECS),
        }
    }
}

/// `types.to_tuple_ns`: `Packet::to_tuple` per batch, result dropped
/// outside the span.
pub fn micro_to_tuple(rec: &mut Recorder, input: &MicroInput<'_>) -> f64 {
    let mut total_ns = 0u64;
    let mut batch: Vec<Tuple> = Vec::with_capacity(BATCH);
    rec.span("micro.types", |rec| {
        for chunk in input.packets.chunks(BATCH) {
            let ((), ns) =
                rec.timed("types.to_tuple", |_| batch.extend(chunk.iter().map(Packet::to_tuple)));
            total_ns += ns;
            std::hint::black_box(&batch);
            batch.clear();
        }
    });
    total_ns as f64 / input.packets.len().max(1) as f64
}

/// `core.expr.eval_ns`: the workload's window expression(s) through
/// `Expr::eval` and its shared prefilter, if any, through
/// `Expr::eval_bool`, per evaluation.
pub fn micro_expr(rec: &mut Recorder, input: &MicroInput<'_>, prepared: &Prepared) -> f64 {
    let window_exprs = prepared.pipeline.groups[0].0.window_exprs();
    let prefilter = prepared.pipeline.prefilter.as_ref();
    let per_tuple = window_exprs.len() + usize::from(prefilter.is_some());
    let mut total_ns = 0u64;
    rec.span("micro.core.expr", |rec| {
        for chunk in input.tuples.chunks(BATCH) {
            let ((), ns) = rec.timed("core.expr.eval", |_| {
                for t in chunk {
                    for e in &window_exprs {
                        let mut ctx = EvalCtx { tuple: Some(t), ..EvalCtx::empty("GROUP BY") };
                        std::hint::black_box(e.eval(&mut ctx).expect("window expression"));
                    }
                    if let Some(pred) = prefilter {
                        std::hint::black_box(passes(pred, t));
                    }
                }
            });
            total_ns += ns;
        }
    });
    total_ns as f64 / (input.tuples.len() * per_tuple).max(1) as f64
}

/// The seven per-sampler operator metrics of sampler `name`, over the
/// micro input, into `metrics`.
pub fn micro_operator(
    rec: &mut Recorder,
    input: &MicroInput<'_>,
    name: &'static str,
    metrics: &mut BTreeMap<String, f64>,
) {
    let mut driver = OpDriver::new(sampler_spec(name), None);
    rec.span("micro.core.operator", |rec| {
        for (lo, hi) in window_ranges(&input.starts, input.tuples.len()) {
            driver.open_window();
            for chunk in input.tuples[lo..hi].chunks(BATCH) {
                driver.feed(rec, chunk);
            }
        }
        driver.finish(rec);
    });
    let stats = driver.op.stats();
    let windows = stats.windows.max(1) as f64;
    let flush: Vec<f64> = driver.flush_ns.iter().map(|&ns| ns as f64).collect();
    let mut put = |prefix: &str, value: f64| {
        metrics.insert(format!("core.operator.{prefix}.{name}"), value);
    };
    put("admit_ns", driver.admit_ns as f64 / driver.admit_tuples.max(1) as f64);
    put("flush_us_p50", median(&flush) / 1e3);
    put("flush_us_max", percentile(&flush, 100.0) / 1e3);
    put("admit_ratio", stats.admitted as f64 / stats.tuples.max(1) as f64);
    put("cleanings_per_window", stats.cleaning_phases as f64 / windows);
    put("evictions_per_window", stats.evictions as f64 / windows);
    put("rows_per_window", stats.output_rows as f64 / windows);
}

/// `sampling.offer_ns.*`: the standalone `sso-sampling` structures over
/// the same keys and windows — the hand-coded floor under the
/// operator-hosted samplers.
pub fn micro_standalone(
    rec: &mut Recorder,
    input: &MicroInput<'_>,
    name: &'static str,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total_ns = 0u64;
    let packets = input.packets;
    // One fresh structure per window, like the operator's per-window
    // state; subset-sum carries its threshold across `end_window`.
    let mut subset_sum = DynamicSubsetSum::<(u32, u32)>::new(SubsetSumConfig::new(MICRO_TARGET));
    rec.span("micro.sampling", |rec| {
        for (lo, hi) in window_ranges(&input.starts, packets.len()) {
            let mut reservoir = Reservoir::<(u32, u32)>::new(MICRO_TARGET);
            let mut skip = SkipReservoir::<(u32, u32)>::new(MICRO_TARGET);
            let mut lossy = LossyCounter::<u32>::new(1.0 / HH_BUCKET as f64);
            // One 10-value signature per source, as the min-hash query keeps.
            let mut kmv: HashMap<u32, KmvSketch> = HashMap::new();
            for chunk in packets[lo..hi].chunks(BATCH) {
                let ((), ns) = rec.timed("sampling.offer", |_| match name {
                    "subset_sum" => chunk.iter().for_each(|p| {
                        subset_sum.offer((p.src_ip, p.dest_ip), p.len as u64);
                    }),
                    "reservoir" => chunk.iter().for_each(|p| {
                        reservoir.offer((p.src_ip, p.dest_ip), &mut rng);
                    }),
                    "reservoir_skip" => chunk.iter().for_each(|p| {
                        skip.offer((p.src_ip, p.dest_ip), &mut rng);
                    }),
                    "lossy" => chunk.iter().for_each(|p| lossy.insert(p.src_ip)),
                    "kmv" => chunk.iter().for_each(|p| {
                        let sketch = kmv.entry(p.src_ip).or_insert_with(|| KmvSketch::new(KMV_K));
                        sketch.insert(p.dest_ip as u64);
                    }),
                    other => panic!("unknown standalone sampler {other}"),
                });
                total_ns += ns;
            }
            if name == "subset_sum" {
                std::hint::black_box(subset_sum.end_window());
            }
            std::hint::black_box((&reservoir, &skip, &lossy, &kmv));
        }
    });
    total_ns as f64 / packets.len().max(1) as f64
}

/// `runtime.ring_ns_per_batch`: batches of [`BATCH`] tuples through one
/// `sso_runtime::ring`, producer and consumer each on a thread, wall
/// time per batch.
pub fn micro_ring(rec: &mut Recorder, input: &MicroInput<'_>) -> f64 {
    let batches: Vec<Vec<Tuple>> = input.tuples.chunks(BATCH).map(<[Tuple]>::to_vec).collect();
    let n = batches.len();
    let capacity = RuntimeConfig::new(SHARDS).ring_capacity;
    let (mut tx, mut rx) = sso_runtime::ring::<Vec<Tuple>>(capacity);
    // The received batches leave the span alive: freeing them is not
    // the ring's cost.
    let (received, ns) = rec.timed("runtime.ring", |_| {
        std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                let mut received = Vec::with_capacity(n);
                while let Some(batch) = rx.pop() {
                    received.push(batch);
                }
                received
            });
            for batch in batches {
                tx.push(batch).expect("consumer alive");
            }
            drop(tx);
            consumer.join().expect("ring consumer")
        })
    });
    assert_eq!(received.len(), n, "every batch crosses the ring");
    ns as f64 / n.max(1) as f64
}
