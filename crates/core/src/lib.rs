//! # sso-core
//!
//! The paper's primary contribution: a **generic stream sampling
//! operator** (§5–§6) that can be specialized into a wide family of
//! stream-sampling algorithms.
//!
//! The operator extends grouping/aggregation with:
//!
//! * **supergroups** — a grouping-set over a subset of the group-by
//!   variables; sampling *state* and *superaggregates* live per
//!   supergroup, samples (groups) live inside supergroups;
//! * **stateful functions (SFUNs)** — families of functions sharing
//!   mutable per-supergroup state, with window-to-window state
//!   carry-over;
//! * **cleaning phases** — `CLEANING WHEN <pred>` triggers a pass that
//!   applies `CLEANING BY <pred>` to every group of the supergroup,
//!   evicting groups for which it is false;
//! * **HAVING at window close** — the finishing-off predicate that
//!   decides which groups become output samples.
//!
//! The evaluation loop implemented by [`operator::SamplingOperator`]
//! follows §6.4 step by step. The four representative algorithms are
//! provided as SFUN libraries in [`libs`] plus ready-made query shapes in
//! [`queries`].
//!
//! Everything here is independent of any particular DSMS; `sso-gigascope`
//! embeds the operator into a two-level runtime, and `sso-query` builds
//! [`operator::OperatorSpec`]s from query text.

pub mod agg;
pub mod error;
pub mod expr;
pub mod groups;
pub mod libs;
pub mod merge;
pub mod metrics;
pub mod operator;
mod program;
pub mod queries;
pub mod scalar;
pub mod sfun;
pub mod snapshot;
pub mod superagg;

pub use agg::{AggSpec, AggState};
pub use error::{panic_message, OpError};
pub use expr::{BinOp, EvalCtx, Expr};
pub use groups::{PagedBackend, SpillStats};
pub use merge::{shard_plan, ColumnRule, MergeRule, NotMergeable, Sampler, ShardPlan};
pub use metrics::OperatorMetrics;
pub use operator::{
    coverage, OperatorSpec, OperatorStats, Record, SamplingOperator, SizingHints, WindowOutput,
    WindowStats,
};
pub use program::Predicate;
pub use sfun::{SfunLibrary, SfunStates, SfunTelemetry, Signature};
pub use superagg::{SuperAggSpec, SuperAggState};
