//! The lineage stamp: one pipeline stage crossing, packed into four
//! `u64` words (32 bytes).
//!
//! ## Layout
//!
//! ```text
//! word 0   t_ns     start time, ns since the profiler epoch
//! word 1   dur_ns   duration in ns (0 for instant events)
//! word 2   window (low u32) | batch (high u32)
//! word 3   stage (u8) | shard (u16) << 8 | aux (40 bits) << 24
//! ```
//!
//! `shard = u16::MAX`, `window/batch = u32::MAX` mean "not applicable".
//! `aux` is a stage-specific payload (tuples in the batch, rows merged)
//! clamped to 40 bits **at construction**, so an [`Event`] always
//! re-encodes to the exact words it decoded from — the property the
//! flight-recorder round-trip proptest pins.

/// Pipeline stages a batch crosses, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Router-side stream intake: reading the feed (incl. any upstream
    /// low-level node running inline) and hashing tuples to shards.
    Ingest = 0,
    /// Handing one batch to a shard ring (the push itself, wait excluded).
    Route = 1,
    /// Blocked on a full shard ring before the push succeeded.
    RingWait = 2,
    /// A worker running the operator over one batch.
    Process = 3,
    /// A worker's end-of-stream finalize (final window flush).
    Flush = 4,
    /// The pump joining the shard workers for their partials.
    BarrierWait = 5,
    /// Merging per-shard partial windows.
    Merge = 6,
    /// One merged window leaving the operator.
    Emit = 7,
    /// Gigascope low-level node work attributed to the stream source.
    Low = 8,
}

/// All stages, in causal order (the order attribution tables print in).
pub const STAGES: [Stage; 9] = [
    Stage::Ingest,
    Stage::Route,
    Stage::RingWait,
    Stage::Process,
    Stage::Flush,
    Stage::BarrierWait,
    Stage::Merge,
    Stage::Emit,
    Stage::Low,
];

impl Stage {
    /// Stable lowercase name (used in dumps, reports, and `prof.*` metrics).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Route => "route",
            Stage::RingWait => "ring_wait",
            Stage::Process => "process",
            Stage::Flush => "flush",
            Stage::BarrierWait => "barrier_wait",
            Stage::Merge => "merge",
            Stage::Emit => "emit",
            Stage::Low => "low",
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Stage> {
        STAGES.get(v as usize).copied()
    }
}

/// `shard` value meaning "no shard" (router-side events).
pub const SHARD_NONE: u16 = u16::MAX;
/// `window` value meaning "no window ordinal".
pub const WINDOW_NONE: u32 = u32::MAX;
/// `batch` value meaning "no batch id".
pub const BATCH_NONE: u32 = u32::MAX;
/// Largest representable `aux` payload (40 bits).
pub const AUX_MAX: u64 = (1 << 40) - 1;

/// One decoded lineage-stamp event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub stage: Stage,
    /// Owning shard, or [`SHARD_NONE`].
    pub shard: u16,
    /// Window ordinal (per-shard for `Process`, merged for `Emit`), or
    /// [`WINDOW_NONE`].
    pub window: u32,
    /// Router-assigned batch id threading causality across threads, or
    /// [`BATCH_NONE`].
    pub batch: u32,
    /// Start, ns since the profiler epoch.
    pub t_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Stage-specific payload (tuple count, rows), clamped to 40 bits.
    pub aux: u64,
}

impl Event {
    /// A stamp with no shard/window/batch attribution.
    pub fn new(stage: Stage, t_ns: u64, dur_ns: u64) -> Event {
        Event {
            stage,
            shard: SHARD_NONE,
            window: WINDOW_NONE,
            batch: BATCH_NONE,
            t_ns,
            dur_ns,
            aux: 0,
        }
    }

    pub fn shard(mut self, shard: u16) -> Event {
        self.shard = shard;
        self
    }

    pub fn window(mut self, window: u32) -> Event {
        self.window = window;
        self
    }

    pub fn batch(mut self, batch: u32) -> Event {
        self.batch = batch;
        self
    }

    /// Attach a payload, clamped to [`AUX_MAX`].
    pub fn aux(mut self, aux: u64) -> Event {
        self.aux = aux.min(AUX_MAX);
        self
    }

    /// End of the event: `t_ns + dur_ns`, saturating.
    pub fn end_ns(&self) -> u64 {
        self.t_ns.saturating_add(self.dur_ns)
    }

    pub(crate) fn to_words(self) -> [u64; 4] {
        [
            self.t_ns,
            self.dur_ns,
            u64::from(self.window) | (u64::from(self.batch) << 32),
            u64::from(self.stage as u8)
                | (u64::from(self.shard) << 8)
                | ((self.aux & AUX_MAX) << 24),
        ]
    }

    /// Decode one slot; `None` if the stage byte is out of range (a
    /// torn live read or a corrupt dump frame).
    pub(crate) fn from_words(w: [u64; 4]) -> Option<Event> {
        let stage = Stage::from_u8((w[3] & 0xff) as u8)?;
        Some(Event {
            stage,
            shard: ((w[3] >> 8) & 0xffff) as u16,
            window: (w[2] & 0xffff_ffff) as u32,
            batch: (w[2] >> 32) as u32,
            t_ns: w[0],
            dur_ns: w[1],
            aux: w[3] >> 24,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip() {
        let e = Event::new(Stage::Process, 123_456_789, 42).shard(7).window(3).batch(91).aux(1024);
        let w = e.to_words();
        assert_eq!(Event::from_words(w), Some(e));
        assert_eq!(Event::from_words(w).unwrap().to_words(), w);
    }

    #[test]
    fn aux_clamps_to_40_bits() {
        let e = Event::new(Stage::Emit, 0, 0).aux(u64::MAX);
        assert_eq!(e.aux, AUX_MAX);
        assert_eq!(Event::from_words(e.to_words()), Some(e));
    }

    #[test]
    fn none_sentinels_survive() {
        let e = Event::new(Stage::Ingest, 1, 2);
        let d = Event::from_words(e.to_words()).unwrap();
        assert_eq!(d.shard, SHARD_NONE);
        assert_eq!(d.window, WINDOW_NONE);
        assert_eq!(d.batch, BATCH_NONE);
    }

    #[test]
    fn bad_stage_byte_rejected() {
        assert_eq!(Event::from_words([0, 0, 0, 200]), None);
    }
}
