//! # sso-gigascope
//!
//! A miniature Gigascope-style DSMS runtime (§3) hosting the sampling
//! operator:
//!
//! * the packet iterator standing in for the NIC ring: each packet is
//!   read in place, without copying;
//! * **low-level query nodes** ([`nodes`]) that perform early data
//!   reduction directly on packet records — plain selection, or the
//!   §7.2 trick of running *basic* subset-sum sampling as a prefilter at
//!   a tenth of the dynamic algorithm's threshold. Only packets that
//!   survive the low-level node are copied into tuples (the copy is the
//!   dominant low-level cost, as in the paper's Figure 6);
//! * **high-level nodes**: a [`sso_core::SamplingOperator`] consuming
//!   the low-level node's tuple stream;
//! * an [`engine`] with the one inline driver, [`run_inline`]: a
//!   recycled batch of tuples is the bounded buffer between the levels
//!   (of packets, where the operators build a tuple only for what they
//!   admit), every operator of the plan runs over it, and each node's
//!   busy time is accounted so the benchmark harness can report the
//!   paper's "%CPU at line rate" figures. [`run_plan`] (one query) and
//!   [`run_fanout_shared`] (many, optionally sharing work) wrap it;
//!   [`run_plan_sharded`] hands the same low-level source to
//!   `sso-runtime`'s shards instead.

pub mod cascade;
pub mod engine;
pub mod lint;
pub mod network;
pub mod nodes;
pub mod partial;
pub mod sharded;
pub mod shared;

pub use cascade::Cascade;
pub use engine::{run_inline, run_plan, InlineRun, NodeStats, RunReport, TwoLevelPlan, BATCH};
pub use lint::{cascade_output_rate, check_pushdown, check_reaggregation};
pub use network::{Input, NetworkReport, QueryNetwork};
pub use nodes::{LowLevelQuery, PrefilterNode, SelectionNode};
pub use partial::PartialAggNode;
pub use sharded::{run_plan_sharded, run_plan_sharded_with, ShardedRunError, ShardedRunReport};
pub use shared::{run_fanout_shared, FanoutReport, QueryResult, SharedGroup, SharedQueryPlan};
