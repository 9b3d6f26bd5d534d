//! # stream-sampler
//!
//! A from-scratch reproduction of **"Sampling Algorithms in a Stream
//! Operator"** (Johnson, Muthukrishnan, Rozenbaum — SIGMOD 2005): a
//! single generic stream-sampling operator that can be specialized —
//! via stateful functions, supergroups, and superaggregates — into a
//! wide family of stream-sampling algorithms, hosted in a miniature
//! Gigascope-style two-level DSMS.
//!
//! ## Crate map
//!
//! | Module (re-export) | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `sso-types` | values, tuples, schemas, the `PKT` packet record |
//! | [`sampling`] | `sso-sampling` | reference algorithms: reservoir, lossy counting, KMV min-hash, subset-sum |
//! | [`operator`] | `sso-core` | the sampling operator, SFUN machinery, superaggregates, paper query builders |
//! | [`obs`] | `sso-obs` | telemetry: metrics registry, sampled spans, exporters, the `METRICS` meta-stream |
//! | [`query`] | `sso-query` | the §5 query language: lexer, parser, planner |
//! | [`runtime`] | `sso-runtime` | sharded execution: hash-partitioned worker shards, window-aligned merge, shard supervision |
//! | [`store`] | `sso-store` | durable operator state: an append-only log of closed windows per shard, spill-to-disk group tables |
//! | [`faults`] | `sso-faults` | seeded, replayable fault plans: worker panics/stalls, bursts, reordering, skew, malformed tuples |
//! | [`gigascope`] | `sso-gigascope` | low-level nodes, the inline batch driver, two-level and multi-query plans, CPU accounting |
//! | [`netgen`] | `sso-netgen` | synthetic research-center and data-center packet feeds |
//! | [`analysis`] | `sso-analysis` | static audit: abstract interpretation certifying memory bounds, skew safety, degradation behavior |
//! | [`rewrite`] | `sso-rewrite` | certified plan-rewrite optimizer: canonical normalization, equivalence prover, multi-query sharing |
//! | [`json`] | (this package) | every JSON document the `sso` CLI writes or reads, through the vendored `serde_json` |
//!
//! ## Quick start
//!
//! ```
//! use stream_sampler::prelude::*;
//!
//! // The paper's dynamic subset-sum sampling query, as text.
//! let query = "
//!     SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
//!     FROM PKT
//!     WHERE ssample(len, 100) = TRUE
//!     GROUP BY time/20 as tb, srcIP, destIP, uts
//!     HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
//!     CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
//!     CLEANING BY ssclean_with(sum(len)) = TRUE";
//! let mut op = compile(query, &Packet::schema(), &PlannerConfig::standard()).unwrap();
//!
//! // Run it over 30 seconds of a synthetic bursty feed.
//! let packets = research_feed(42).take_seconds(30);
//! let tuples: Vec<_> = packets.iter().map(|p| p.to_tuple()).collect();
//! let windows = op.run(tuples.iter()).unwrap();
//! assert!(!windows.is_empty());
//! for w in &windows {
//!     assert!(w.rows.len() <= 110, "each window holds ~100 samples");
//! }
//! ```

pub use sso_analysis as analysis;
pub use sso_core as operator;
pub use sso_faults as faults;
pub use sso_gigascope as gigascope;
pub use sso_netgen as netgen;
pub use sso_obs as obs;
pub use sso_profile as profile;
pub use sso_query as query;
pub use sso_rewrite as rewrite;
pub use sso_runtime as runtime;
pub use sso_sampling as sampling;
pub use sso_store as store;
pub use sso_types as types;

pub mod json;

/// The names most programs need.
pub mod prelude {
    pub use sso_core::libs::reservoir::ReservoirOpConfig;
    pub use sso_core::libs::subset_sum::SubsetSumOpConfig;
    pub use sso_core::{queries, OperatorSpec, SamplingOperator, WindowOutput};
    pub use sso_core::{shard_plan, MergeRule, ShardPlan};
    pub use sso_faults::{FaultEvent, FaultPlan};
    pub use sso_gigascope::{
        run_fanout_shared, run_inline, run_plan, run_plan_sharded, PrefilterNode, SelectionNode,
        ShardedRunReport, SharedGroup, SharedQueryPlan, TwoLevelPlan,
    };
    pub use sso_netgen::{burst_feed, datacenter_feed, ddos_feed, research_feed};
    pub use sso_obs::{metrics_schema, snapshot_tuples, Registry, Snapshot};
    pub use sso_query::{
        base_stream_schema, check_shard_mergeable, compile, parse_query, PlannerConfig,
    };
    pub use sso_runtime::{run_sharded, RuntimeConfig};
    pub use sso_types::{format_ipv4, Packet, Schema, Tuple, Value};
}
