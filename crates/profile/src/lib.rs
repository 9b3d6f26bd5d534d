//! # sso-profile
//!
//! Causal stage tracing, end-to-end latency accounting, and a
//! post-mortem flight recorder for the sharded runtime.
//!
//! Every batch crossing the pipeline leaves a compact **lineage
//! stamp** — ingest tick → router hash/push → ring wait → shard
//! process → join (the pump waiting on the workers' partials; the
//! stage keeps its old `barrier_wait` name) → merge → emit — in a per-thread
//! fixed-capacity event ring ([`LaneWriter`]). Recording is four
//! `Relaxed` stores; visibility costs **one `Release` store per
//! batch**, so the enabled path stays within the same budget as
//! `sso-obs`'s SampledSpan and the disabled path is a single branch.
//!
//! A merge-on-read collector ([`ProfileReport`]) folds the lanes into
//! per-stage attribution (quantifying the ROADMAP-item-1 router share
//! directly) and per-window end-to-end latency histograms on the
//! `sso-obs` power-of-two buckets.
//!
//! The same rings double as a **flight recorder**: on a worker or
//! router panic or a `crash` fault, the last N events per lane are
//! dumped (checksummed `sso-store`-style
//! frames, atomic rename) and `sso trace` renders them as a human
//! timeline or Chrome trace-event JSON.
//!
//! Everything shared goes through the `sso-sync` facade, so the
//! record/publish/collect protocol is exhaustively explored by
//! `tests/model_check.rs` alongside the ring.

pub mod collect;
pub mod dump;
pub mod event;
pub mod lane;
pub mod profiler;
pub mod render;

pub use collect::{fmt_ns, ProfileReport, StageTotal};
pub use dump::{
    decode_dump, encode_dump, read_dump_file, write_dump_file, Dump, LaneDump, DUMP_FILE,
};
pub use event::{Event, Stage, AUX_MAX, BATCH_NONE, SHARD_NONE, STAGES, WINDOW_NONE};
pub use lane::{LaneKind, LaneWriter};
pub use profiler::{DumpReason, Profiler, ProfilerConfig};
pub use render::render_timeline;
