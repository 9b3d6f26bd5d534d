//! # sso-sampling
//!
//! The stream-sampling algorithm families the paper runs on its generic
//! sampling operator (§4), outside the operator:
//!
//! * [`reservoir`] — fixed-size uniform sampling: Vitter's Algorithm R and
//!   the skip-based Algorithm Z ("generate a skip, jump, replace").
//! * [`lossy`] — the Manku–Motwani lossy-counting heavy-hitters sketch.
//! * [`kmv`] — k-minimum-values min-hash signatures with resemblance and
//!   rarity estimators (Broder; Datar–Muthukrishnan).
//! * [`subset_sum`] — Duffield–Lund–Thorup threshold ("subset-sum")
//!   sampling: the basic fixed-threshold form, the dynamic fixed-size form
//!   with aggressive threshold adjustment, and the paper's **relaxed**
//!   cross-window variant (§7.1).
//! * [`distinct`] — Gibbons' distinct sampling (the paper's reference
//!   \[19\]): a bounded uniform sample over distinct values via hash-level
//!   thresholds, for distinct-count and distinct-subset queries.
//!
//! For the threshold family this crate holds the operator's own kernel
//! ([`ThresholdMeter`], [`ThresholdState`]): `sso-core`'s subset-sum
//! library runs it, as do the prefilter node and the samplers here. Lossy
//! counting and KMV are written apart from the operator and remain its
//! end-to-end oracles. The benchmark harness uses this crate's samplers as
//! the "algorithm outside the DSMS" comparators.

pub mod distinct;
pub mod hash;
pub mod kmv;
pub mod lossy;
pub mod reservoir;
pub mod subset_sum;

pub use distinct::DistinctSampler;
pub use kmv::KmvSketch;
pub use lossy::LossyCounter;
pub use reservoir::{Reservoir, SkipReservoir};
pub use subset_sum::{
    merge_threshold_samples, merge_window_results, BasicSubsetSum, DynamicSubsetSum,
    MergedThresholdSample, SubsetSumConfig, ThresholdCarry, ThresholdMeter, ThresholdPart,
    ThresholdState, WeightedSample, WindowResult,
};
