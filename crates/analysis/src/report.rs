//! Machine-readable audit output.
//!
//! A [`BoundsReport`] is the certificate the audit emits: per-statement
//! state ceilings plus the verdicts (skew class, mergeability) the
//! runtime and CI consume. `sso audit --json` renders it through the
//! vendored `serde_json` in the root package's `json` module, and
//! `tests/audit.rs` pins that document's keys, so adding or renaming one
//! is a deliberate, reviewed change.

use sso_core::{Sampler, SizingHints};

use crate::domain::{Card, SkewClass};

/// Certified bounds for one audited statement.
#[derive(Debug, Clone)]
pub struct StatementBounds {
    /// Statement label (`stmt0`, `stmt1`, … in file order).
    pub name: String,
    /// The FROM stream.
    pub stream: String,
    /// The classified sampling family.
    pub sampler: Sampler,
    /// Tumbling-window length from `GROUP BY <ordered>/n`, when the
    /// query has that canonical shape.
    pub window_secs: Option<u64>,
    /// Peak input rate from the feed envelope.
    pub rows_per_sec: Card,
    /// Rows per window: rate × window length.
    pub rows_per_window: Card,
    /// Product of group-by key cardinalities.
    pub key_cardinality: Card,
    /// Product of supergroup key cardinalities.
    pub supergroup_cardinality: Card,
    /// The sampler's per-supergroup live-group cap.
    pub per_supergroup_bound: Card,
    /// Certified ceiling on simultaneously live groups.
    pub groups_bound: Card,
    /// Estimated bytes per group-table entry.
    pub group_entry_bytes: u64,
    /// Estimated bytes per supergroup-state entry.
    pub supergroup_entry_bytes: u64,
    /// Certified ceiling on operator state bytes.
    pub state_bytes: Card,
    /// Certified ceiling on the encoded bytes of one closed window's
    /// output in a durable record: a row per live group, the window key
    /// and the stats. Rendered through `durable.wal_bytes_per_window`
    /// only — the statement's JSON keys are pinned.
    pub output_wire_bytes: Card,
    /// Router-skew verdict at the audited shard count.
    pub skew: SkewClass,
    /// Whether the plan shards/merges (`shard_plan` succeeds).
    pub mergeable: bool,
}

impl StatementBounds {
    /// Pre-sizing hints for the runtime: reserve the certified group
    /// and supergroup ceilings up front (capped at
    /// [`SizingHints::MAX_RESERVE`]), and size each shard's ring for
    /// about a second of its batches at the certified input rate.
    /// Unbounded dimensions reserve nothing and keep the configured
    /// ring.
    pub fn sizing_hints(&self, shards: usize, batch_size: usize) -> SizingHints {
        let cap = |c: Card| -> usize {
            c.finite().map(|n| (n as usize).min(SizingHints::MAX_RESERVE)).unwrap_or(0)
        };
        let supergroups = self.supergroup_cardinality.min(self.rows_per_window);
        let ring_batches = self.rows_per_sec.finite().map(|r| {
            let per_shard = r / (batch_size.max(1) as u64) / (shards.max(1) as u64);
            (per_shard as usize).clamp(16, 256)
        });
        SizingHints { groups: cap(self.groups_bound), supergroups: cap(supergroups), ring_batches }
    }
}

/// Fixed allowance on top of the state payload of a boundary snapshot
/// (headers and fixed fields of whatever carries it).
pub const SNAPSHOT_HEADER_BYTES: u64 = 64;

/// Fixed per-WAL-record overhead: the frame header (checksum + length),
/// the sequence number, and the three section length prefixes.
pub const WAL_RECORD_OVERHEAD: u64 = 32;

/// Certified durable-state overheads for a `--durable` run: what the
/// store writes per closed window, and what the spill pager needs to
/// stay under a `--state-budget`.
#[derive(Debug, Clone)]
pub struct DurableBounds {
    /// Ceiling on the operator state live at a window boundary — what
    /// a snapshot of it would hold: the certified state-bytes ceiling
    /// plus [`SNAPSHOT_HEADER_BYTES`]. Not bytes the store writes; those
    /// are [`Self::wal_bytes_per_window`].
    pub snapshot_bytes_per_window: Card,
    /// Ceiling on the bytes the store appends to a shard's log per
    /// closed window, its only write: the window's output
    /// ([`StatementBounds::output_wire_bytes`]), one carry-over record
    /// per live supergroup, and [`WAL_RECORD_OVERHEAD`].
    pub wal_bytes_per_window: Card,
    /// Spill pages needed to hold the certified state ceiling.
    pub spill_pages: Card,
    /// Per-run working-set floor for `--state-budget`: the pager pins
    /// two pages per shard, so budgets below this cannot be enforced
    /// (the W206 lint fires).
    pub min_state_budget: u64,
    /// The audited `--state-budget`, if one was given.
    pub state_budget: Option<u64>,
}

/// The audit's certificate for one file: every statement's bounds under
/// one feed envelope and shard count.
#[derive(Debug, Clone)]
pub struct BoundsReport {
    /// Feed envelope the bounds were certified against.
    pub feed: String,
    /// Shard count the skew/mergeability verdicts assume.
    pub shards: usize,
    /// The `--budget` limit, if one was given.
    pub budget: Option<u64>,
    /// The `--state-budget` limit, if one was given (recorded in the
    /// `durable` section; drives W206).
    pub state_budget: Option<u64>,
    /// Per-statement bounds, in file order.
    pub statements: Vec<StatementBounds>,
}

impl BoundsReport {
    /// Certified ceiling on total state bytes across all statements
    /// (unbounded if any statement is).
    pub fn total_state_bytes(&self) -> Card {
        self.statements.iter().fold(Card::Finite(0), |acc, s| acc + s.state_bytes)
    }

    /// Certified durable-run overheads derived from the state bounds.
    pub fn durable(&self) -> DurableBounds {
        let state = self.total_state_bytes();
        let wal = self.statements.iter().fold(Card::Finite(0), |acc, s| {
            let supergroup_bound = s.supergroup_cardinality.min(s.rows_per_window);
            acc + s.output_wire_bytes
                + supergroup_bound.times(s.supergroup_entry_bytes)
                + Card::Finite(WAL_RECORD_OVERHEAD)
        });
        let page = sso_core::snapshot::PAGE_BYTES as u64;
        let spill_pages = match state.finite() {
            Some(b) => Card::Finite(b.div_ceil(page)),
            None => Card::Unbounded,
        };
        DurableBounds {
            snapshot_bytes_per_window: state + Card::Finite(SNAPSHOT_HEADER_BYTES),
            wal_bytes_per_window: wal,
            spill_pages,
            min_state_budget: 2 * page * self.shards.max(1) as u64,
            state_budget: self.state_budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_core::merge::Size;

    fn sample_statement() -> StatementBounds {
        StatementBounds {
            name: "stmt0".into(),
            stream: "PKT".into(),
            sampler: Sampler::Reservoir { n: Size::Literal(25), cleaning: true },
            window_secs: Some(60),
            rows_per_sec: Card::Finite(25_000),
            rows_per_window: Card::Finite(1_500_000),
            key_cardinality: Card::Unbounded,
            supergroup_cardinality: Card::Finite(61),
            per_supergroup_bound: Card::Finite(626),
            groups_bound: Card::Finite(38_186),
            group_entry_bytes: 160,
            supergroup_entry_bytes: 256,
            state_bytes: Card::Finite(6_125_376),
            output_wire_bytes: Card::Finite(38_186 * 31 + 74),
            skew: SkewClass::Spread,
            mergeable: true,
        }
    }

    #[test]
    fn durable_bounds_track_state_and_pages() {
        let page = sso_core::snapshot::PAGE_BYTES as u64;
        let report = BoundsReport {
            feed: "research".into(),
            shards: 4,
            budget: None,
            state_budget: Some(page),
            statements: vec![sample_statement()],
        };
        let d = report.durable();
        assert_eq!(d.snapshot_bytes_per_window.finite(), Some(6_125_376 + SNAPSHOT_HEADER_BYTES));
        // The window's rows, 61 supergroups × 256 bytes of carry, and
        // one record's frame overhead.
        assert_eq!(
            d.wal_bytes_per_window.finite(),
            Some(38_186 * 31 + 74 + 61 * 256 + WAL_RECORD_OVERHEAD)
        );
        assert_eq!(d.spill_pages.finite(), Some(6_125_376u64.div_ceil(page)));
        assert_eq!(d.min_state_budget, 2 * page * 4);
        assert_eq!(d.state_budget, Some(page));

        let mut unbounded = sample_statement();
        unbounded.state_bytes = Card::Unbounded;
        let report = BoundsReport {
            feed: "research".into(),
            shards: 1,
            budget: None,
            state_budget: None,
            statements: vec![unbounded],
        };
        let d = report.durable();
        assert!(!d.snapshot_bytes_per_window.is_finite());
        assert!(!d.spill_pages.is_finite());
    }

    #[test]
    fn sizing_hints_cap_and_ring() {
        let s = sample_statement();
        let hints = s.sizing_hints(4, 1024);
        assert_eq!(hints.groups, 38_186);
        assert_eq!(hints.supergroups, 61);
        // 25k rows/s ÷ 1024 batch ÷ 4 shards ≈ 6 → clamped up to 16.
        assert_eq!(hints.ring_batches, Some(16));
        // A single shard keeps a second of batches: 25k ÷ 1024 ≈ 24 —
        // the deep ring that absorbs feed bursts instead of thrashing
        // `push_tracked` waits.
        assert_eq!(s.sizing_hints(1, 1024).ring_batches, Some(24));

        let mut unbounded = sample_statement();
        unbounded.groups_bound = Card::Unbounded;
        unbounded.rows_per_sec = Card::Unbounded;
        let hints = unbounded.sizing_hints(4, 1024);
        assert_eq!(hints.groups, 0, "unbounded reserves nothing");
        assert_eq!(hints.ring_batches, None);
    }

    #[test]
    fn json_string_escaping() {
        // Statement names reach the `audit --json` document verbatim;
        // serde's one escaper quotes them there.
        let mut s = sample_statement();
        s.name = "a\"b\\c\nd".into();
        assert_eq!(serde_json::to_string(&s.name).unwrap(), "\"a\\\"b\\\\c\\nd\"");
    }
}
