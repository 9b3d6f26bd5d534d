//! # sso-runtime
//!
//! A sharded execution runtime for the sampling operator (§7.2 partial
//! aggregation): the calling thread pulls the input stream and
//! hash-partitions it on the query's group key across N worker shards,
//! each running its own [`sso_core::SamplingOperator`] instance behind
//! one batched bounded ring. Each shard's window outputs are its worker
//! thread's result; once every worker is joined they are re-combined,
//! window by window, by the query's [`sso_core::MergeRule`].
//!
//! The contract comes from [`sso_core::shard_plan`]: a query is
//! shard-mergeable when its per-window state obeys a partial-aggregation
//! merge rule —
//!
//! * disjoint group keys ⇒ concatenate ([`sso_core::MergeRule::Concat`]);
//! * column-wise combinable aggregates ⇒ sum/min/max per column
//!   ([`sso_core::MergeRule::Combine`]);
//! * threshold (subset-sum) samples ⇒ re-threshold the union at the
//!   maximum per-shard threshold
//!   ([`sso_core::MergeRule::SubsetSum`], backed by
//!   [`sso_sampling::subset_sum::merge_threshold_samples`]);
//! * reservoirs ⇒ hypergeometric weighted re-sample
//!   ([`sso_core::MergeRule::Reservoir`], backed by
//!   [`sso_sampling::Reservoir::merge`]);
//! * min-hash signatures ⇒ union-then-truncate
//!   ([`sso_core::MergeRule::KmvTruncate`], the row-level form of
//!   [`sso_sampling::KmvSketch::merge`]).
//!
//! A full shard ring blocks the router until the worker makes room,
//! counting one stall per wait: overload slows the feed and loses
//! nothing, and the operators absorb load by their own thresholds
//! (paper §7.1). The router and every shard keep one fault
//! contract: a panic quarantines the stage for the poisoned window, the
//! stage is live again at the next window boundary (a shard with a
//! fresh operator), and the merged output is tagged with per-window
//! coverage. [`engine`] maps the modules.

pub mod engine;
pub mod merge;
pub mod pump;
pub mod ring;
mod route;
mod supervise;
mod worker;

pub use engine::{
    run_sharded, DurabilityConfig, RouterStats, RuntimeConfig, RuntimeError, ShardStats,
    ShardedReport,
};
pub use merge::{merge_shard_partials, merge_windows, ShardPartial};
pub use pump::{Refill, TupleSource};
pub use ring::{ring, Consumer, Producer, PushError};
pub use route::route_stream;
