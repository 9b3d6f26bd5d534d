//! Machine-readable audit output.
//!
//! A [`BoundsReport`] is the certificate the audit emits: per-statement
//! state ceilings plus the verdicts (skew class, mergeability, deletion
//! safety) the runtime and CI consume. The JSON rendering is hand-rolled
//! and field-stable — `tests/audit.rs` pins the schema, so adding
//! or renaming a key is a deliberate, reviewed change.

use sso_core::SizingHints;

use crate::bounds::SamplerKind;
use crate::domain::{Card, DeletionSafety, SkewClass};

/// Certified bounds for one audited statement.
#[derive(Debug, Clone)]
pub struct StatementBounds {
    /// Statement label (`stmt0`, `stmt1`, … in file order).
    pub name: String,
    /// The FROM stream.
    pub stream: String,
    /// The classified sampling family.
    pub sampler: SamplerKind,
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
    /// Whether the state survives turnstile deletions.
    pub deletion_safety: DeletionSafety,
}

impl StatementBounds {
    /// Pre-sizing hints for the runtime: reserve the certified group
    /// and supergroup ceilings up front (capped at
    /// [`SizingHints::MAX_RESERVE`]), and size each (router, shard)
    /// ring for about a second of that lane's batches at the certified
    /// input rate — each of a shard's `routers` rings carries 1/routers
    /// of the shard's traffic, so the per-shard buffering stays one
    /// second of input however many lanes feed it. Unbounded dimensions
    /// reserve nothing and keep the configured ring.
    pub fn sizing_hints(&self, shards: usize, routers: usize, batch_size: usize) -> SizingHints {
        let cap = |c: Card| -> usize {
            c.finite().map(|n| (n as usize).min(SizingHints::MAX_RESERVE)).unwrap_or(0)
        };
        let supergroups = self.supergroup_cardinality.min(self.rows_per_window);
        let ring_batches = self.rows_per_sec.finite().map(|r| {
            let per_lane =
                r / (batch_size.max(1) as u64) / (shards.max(1) as u64) / (routers.max(1) as u64);
            (per_lane as usize).clamp(16, 256)
        });
        SizingHints { groups: cap(self.groups_bound), supergroups: cap(supergroups), ring_batches }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":{},\"stream\":{},\"sampler\":{},\"window_secs\":{},",
                "\"rows_per_sec\":{},\"rows_per_window\":{},\"key_cardinality\":{},",
                "\"supergroup_cardinality\":{},\"per_supergroup_bound\":{},",
                "\"groups_bound\":{},\"group_entry_bytes\":{},",
                "\"supergroup_entry_bytes\":{},\"state_bytes\":{},\"skew\":{},",
                "\"mergeable\":{},\"deletion_safe\":{}}}"
            ),
            json_str(&self.name),
            json_str(&self.stream),
            json_str(&self.sampler.label()),
            self.window_secs.map(|w| w.to_string()).unwrap_or_else(|| "null".into()),
            self.rows_per_sec.to_json(),
            self.rows_per_window.to_json(),
            self.key_cardinality.to_json(),
            self.supergroup_cardinality.to_json(),
            self.per_supergroup_bound.to_json(),
            self.groups_bound.to_json(),
            self.group_entry_bytes,
            self.supergroup_entry_bytes,
            self.state_bytes.to_json(),
            json_str(self.skew.as_str()),
            self.mergeable,
            self.deletion_safety.is_safe(),
        )
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

impl DurableBounds {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"snapshot_bytes_per_window\":{},\"wal_bytes_per_window\":{},",
                "\"spill_pages\":{},\"min_state_budget\":{},\"state_budget\":{}}}"
            ),
            self.snapshot_bytes_per_window.to_json(),
            self.wal_bytes_per_window.to_json(),
            self.spill_pages.to_json(),
            self.min_state_budget,
            self.state_budget.map(|b| b.to_string()).unwrap_or_else(|| "null".into()),
        )
    }
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

    /// Field-stable JSON rendering.
    pub fn to_json(&self) -> String {
        let stmts: Vec<String> = self.statements.iter().map(|s| s.to_json()).collect();
        format!(
            concat!(
                "{{\"feed\":{},\"shards\":{},\"budget\":{},",
                "\"total_state_bytes\":{},\"durable\":{},\"statements\":[{}]}}"
            ),
            json_str(&self.feed),
            self.shards,
            self.budget.map(|b| b.to_string()).unwrap_or_else(|| "null".into()),
            self.total_state_bytes().to_json(),
            self.durable().to_json(),
            stmts.join(","),
        )
    }
}

/// Escape a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_statement() -> StatementBounds {
        StatementBounds {
            name: "stmt0".into(),
            stream: "PKT".into(),
            sampler: SamplerKind::Reservoir { n: 25, cleaning: true },
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
            deletion_safety: DeletionSafety::Safe,
        }
    }

    #[test]
    fn json_is_field_stable() {
        let report = BoundsReport {
            feed: "research".into(),
            shards: 4,
            budget: Some(8_000_000),
            state_budget: None,
            statements: vec![sample_statement()],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"feed\":\"research\",\"shards\":4,\"budget\":8000000,"));
        assert!(json.contains("\"sampler\":\"reservoir(n=25)\""));
        assert!(json.contains("\"key_cardinality\":null"), "unbounded renders as null");
        assert!(json.contains("\"total_state_bytes\":6125376"));
        assert!(json.contains("\"durable\":{\"snapshot_bytes_per_window\":"));
        assert!(json.contains("\"deletion_safe\":true"));
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
        let hints = s.sizing_hints(4, 1, 1024);
        assert_eq!(hints.groups, 38_186);
        assert_eq!(hints.supergroups, 61);
        // 25k rows/s ÷ 1024 batch ÷ 4 shards ÷ 1 router ≈ 6 → clamped up to 16.
        assert_eq!(hints.ring_batches, Some(16));
        // A single shard fed by one lane keeps a second of batches:
        // 25k ÷ 1024 ≈ 24 — the deep ring that absorbs feed bursts
        // instead of thrashing `push_tracked` waits.
        assert_eq!(s.sizing_hints(1, 1, 1024).ring_batches, Some(24));
        // Two lanes each carry half the shard's traffic; the per-lane
        // ring halves (floor at 16) so total buffering is unchanged.
        assert_eq!(s.sizing_hints(1, 2, 1024).ring_batches, Some(16));

        let mut unbounded = sample_statement();
        unbounded.groups_bound = Card::Unbounded;
        unbounded.rows_per_sec = Card::Unbounded;
        let hints = unbounded.sizing_hints(4, 1, 1024);
        assert_eq!(hints.groups, 0, "unbounded reserves nothing");
        assert_eq!(hints.ring_batches, None);
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
