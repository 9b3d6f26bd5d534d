//! # sso-faults
//!
//! Seeded, replayable fault plans for the stream-sampler runtime.
//!
//! The paper's §7.1 production lesson is that overload and partial
//! failure must degrade the sample *predictably*. Proving that our
//! runtime actually does so requires injecting the failures on demand,
//! deterministically, so a run under faults can be replayed bit-for-bit
//! and compared against a fault-free reference. A [`FaultPlan`] is that
//! injection schedule: a seed plus an explicit event list, serialized in
//! a line-based text format (`sso run --fault-plan FILE`) or generated
//! from a seed alone (`--fault-seed N`).
//!
//! Two classes of event exist, matching the two places a real deployment
//! hurts:
//!
//! * **Worker faults** ([`FaultEvent::WorkerPanic`],
//!   [`FaultEvent::WorkerStall`]) fire inside a shard worker when its
//!   processed-tuple count reaches the event's trigger. Because the
//!   router's hash-partitioning is deterministic, "shard 3's 1500th
//!   tuple" names the same tuple on every run with the same input.
//! * **Feed faults** ([`FaultEvent::Burst`], [`FaultEvent::Reorder`],
//!   [`FaultEvent::SkewTimestamps`], [`FaultEvent::Malformed`]) rewrite
//!   the packet stream before it enters the pipeline:
//!   [`FaultPlan::perturb_packets`] applies them in a fixed order with
//!   RNG state derived only from the plan seed.
//!
//! The crate depends on nothing but `sso-types` and the vendored `rand`,
//! so every layer (runtime, gigascope, CLI, benches) can use it without
//! dependency cycles.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sso_types::Packet;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Panic shard `shard`'s worker when it is handed its `at_tuple`-th
    /// tuple (1-based over the shard's whole run).
    WorkerPanic {
        /// Shard whose worker panics.
        shard: usize,
        /// 1-based processed-tuple trigger.
        at_tuple: u64,
    },
    /// Stall shard `shard`'s worker for `millis` before it processes its
    /// `at_tuple`-th tuple — a slow consumer that backs up its ring.
    WorkerStall {
        /// Shard whose worker sleeps.
        shard: usize,
        /// 1-based processed-tuple trigger.
        at_tuple: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Duplicate the `at_packet`-th packet (0-based) `copies` times in
    /// place — a ring-overflow burst concentrated on one instant.
    Burst {
        /// 0-based packet index to duplicate.
        at_packet: u64,
        /// Number of extra copies inserted.
        copies: u64,
    },
    /// Shuffle packets within consecutive chunks of `window` packets
    /// (seeded) — bounded out-of-order delivery.
    Reorder {
        /// Chunk length within which packets may be reordered.
        window: u64,
    },
    /// Shift the timestamps of `len` packets starting at `at_packet` by
    /// `offset_ns` (saturating) — skewed clocks that straddle window
    /// boundaries.
    SkewTimestamps {
        /// 0-based first packet affected.
        at_packet: u64,
        /// Number of consecutive packets affected.
        len: u64,
        /// Signed nanosecond shift.
        offset_ns: i64,
    },
    /// Zero out the length and ports of every `every`-th packet —
    /// malformed captures the operator must survive (weight-0 tuples).
    Malformed {
        /// Period: packet indices divisible by this are malformed.
        every: u64,
    },
    /// Panic the router (`router=0`, the one there is) when it is
    /// handed its `at_tuple`-th tuple (1-based over the stream). The
    /// supervisor quarantines the router for the current window — its
    /// unrouted tuples become `rt.router_uncovered` mass — and routing
    /// resumes at the next window boundary.
    RouterPanic {
        /// 1-based stream tuple trigger.
        at_tuple: u64,
    },
    /// Stall the router for `millis` before it routes its `at_tuple`-th
    /// tuple — a slow producer that starves the shard rings
    /// (timing-only: output is unchanged).
    RouterStall {
        /// 1-based stream tuple trigger.
        at_tuple: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Kill the whole process (equivalent) after the router has
    /// dispatched `at_tuple` tuples: routing stops, workers abandon
    /// their open windows, and nothing is merged or published. Only
    /// durable state (the `sso-store` shard logs) survives; the run
    /// is then resumed with `sso recover`.
    Crash {
        /// 1-based globally-routed-tuple trigger.
        at_tuple: u64,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::WorkerPanic { shard, at_tuple } => {
                write!(f, "panic shard={shard} at={at_tuple}")
            }
            FaultEvent::WorkerStall { shard, at_tuple, millis } => {
                write!(f, "stall shard={shard} at={at_tuple} ms={millis}")
            }
            FaultEvent::RouterPanic { at_tuple } => write!(f, "panic router=0 at={at_tuple}"),
            FaultEvent::RouterStall { at_tuple, millis } => {
                write!(f, "stall router=0 at={at_tuple} ms={millis}")
            }
            FaultEvent::Burst { at_packet, copies } => {
                write!(f, "burst at={at_packet} copies={copies}")
            }
            FaultEvent::Reorder { window } => write!(f, "reorder window={window}"),
            FaultEvent::SkewTimestamps { at_packet, len, offset_ns } => {
                write!(f, "skew at={at_packet} len={len} offset={offset_ns}")
            }
            FaultEvent::Malformed { every } => write!(f, "malformed every={every}"),
            FaultEvent::Crash { at_tuple } => write!(f, "crash at={at_tuple}"),
        }
    }
}

/// A complete, replayable injection schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for every randomized perturbation (reorder shuffles). Two
    /// plans with equal seeds and events perturb identically.
    pub seed: u64,
    /// The events, in declaration order.
    pub events: Vec<FaultEvent>,
}

/// A plan parse failure: line number (1-based) plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// 1-based line of the offending directive.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanParseError {}

fn field<T: std::str::FromStr>(
    fields: &[(&str, &str)],
    key: &str,
    line: usize,
) -> Result<T, PlanParseError> {
    let raw = fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| PlanParseError { line, message: format!("missing field `{key}=`") })?;
    raw.parse()
        .map_err(|_| PlanParseError { line, message: format!("bad value `{raw}` for `{key}=`") })
}

/// Check a `router=R` target: the runtime has one router, so R is 0.
fn check_router_target(fields: &[(&str, &str)], line: usize) -> Result<(), PlanParseError> {
    match field::<usize>(fields, "router", line)? {
        0 => Ok(()),
        r => Err(PlanParseError {
            line,
            message: format!("no router {r}: the run has one router, `router=0`"),
        }),
    }
}

impl FaultPlan {
    /// A plan with no events (the null injection).
    pub fn empty(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new() }
    }

    /// Generate a deterministic plan from a seed alone: one worker panic,
    /// one worker stall, one burst, one reorder, one timestamp skew —
    /// the matrix the `check.sh` fault stage replays. `shards` bounds the
    /// shard indices drawn.
    pub fn from_seed(seed: u64, shards: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let shards = shards.max(1);
        let events = vec![
            FaultEvent::WorkerPanic {
                shard: rng.gen_range(0..shards),
                at_tuple: rng.gen_range(200..2000u64),
            },
            FaultEvent::WorkerStall {
                shard: rng.gen_range(0..shards),
                at_tuple: rng.gen_range(100..1000u64),
                millis: rng.gen_range(5..40u64),
            },
            FaultEvent::Burst {
                at_packet: rng.gen_range(0..4000u64),
                copies: rng.gen_range(1000..5000u64),
            },
            FaultEvent::Reorder { window: rng.gen_range(2..64u64) },
            FaultEvent::SkewTimestamps {
                at_packet: rng.gen_range(0..4000u64),
                len: rng.gen_range(10..300u64),
                offset_ns: rng.gen_range(0..4_000_000_000i64) - 2_000_000_000,
            },
        ];
        FaultPlan { seed, events }
    }

    /// Parse the line-based text format produced by [`FaultPlan`]'s
    /// `Display`. Blank lines and `#` comments are ignored; a `seed N`
    /// line sets the seed; every other line is one event directive.
    pub fn parse(text: &str) -> Result<Self, PlanParseError> {
        let mut plan = FaultPlan::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let stripped = raw.split('#').next().unwrap_or("").trim();
            if stripped.is_empty() {
                continue;
            }
            let mut words = stripped.split_whitespace();
            let verb = words.next().expect("non-empty line has a first word");
            let fields: Vec<(&str, &str)> =
                words.filter_map(|w| w.split_once('=')).collect::<Vec<_>>();
            let event = match verb {
                "seed" => {
                    plan.seed = stripped
                        .split_whitespace()
                        .nth(1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| PlanParseError {
                            line,
                            message: "seed needs one integer argument".into(),
                        })?;
                    continue;
                }
                // `panic`/`stall` address either a worker (`shard=S`) or the
                // router (`router=0`); the target field picks the arm.
                "panic" if fields.iter().any(|(k, _)| *k == "router") => {
                    check_router_target(&fields, line)?;
                    FaultEvent::RouterPanic { at_tuple: field(&fields, "at", line)? }
                }
                "panic" => FaultEvent::WorkerPanic {
                    shard: field(&fields, "shard", line)?,
                    at_tuple: field(&fields, "at", line)?,
                },
                "stall" if fields.iter().any(|(k, _)| *k == "router") => {
                    check_router_target(&fields, line)?;
                    FaultEvent::RouterStall {
                        at_tuple: field(&fields, "at", line)?,
                        millis: field(&fields, "ms", line)?,
                    }
                }
                "stall" => FaultEvent::WorkerStall {
                    shard: field(&fields, "shard", line)?,
                    at_tuple: field(&fields, "at", line)?,
                    millis: field(&fields, "ms", line)?,
                },
                "burst" => FaultEvent::Burst {
                    at_packet: field(&fields, "at", line)?,
                    copies: field(&fields, "copies", line)?,
                },
                "reorder" => FaultEvent::Reorder { window: field(&fields, "window", line)? },
                "skew" => FaultEvent::SkewTimestamps {
                    at_packet: field(&fields, "at", line)?,
                    len: field(&fields, "len", line)?,
                    offset_ns: field(&fields, "offset", line)?,
                },
                "malformed" => FaultEvent::Malformed { every: field(&fields, "every", line)? },
                "crash" => FaultEvent::Crash { at_tuple: field(&fields, "at", line)? },
                other => {
                    return Err(PlanParseError {
                        line,
                        message: format!("unknown directive `{other}`"),
                    })
                }
            };
            plan.events.push(event);
        }
        Ok(plan)
    }

    /// The worker-fault schedule for one shard: triggers sorted by
    /// tuple count, consumed front to back by
    /// [`WorkerFaultSchedule::check`].
    pub fn worker_schedule(&self, shard: usize) -> WorkerFaultSchedule {
        let mut events: Vec<(u64, WorkerFault)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::WorkerPanic { shard: s, at_tuple } if s == shard => {
                    Some((at_tuple, WorkerFault::Panic))
                }
                FaultEvent::WorkerStall { shard: s, at_tuple, millis } if s == shard => {
                    Some((at_tuple, WorkerFault::Stall { millis }))
                }
                _ => None,
            })
            .collect();
        events.sort_by_key(|(at, _)| *at);
        WorkerFaultSchedule { events, next: 0 }
    }

    /// The router-fault schedule: triggers sorted by tuple count,
    /// consumed front to back by [`WorkerFaultSchedule::check`]. The
    /// router reuses the worker schedule machinery — the trigger
    /// counter is its 1-based tuple ordinal over the stream.
    pub fn router_schedule(&self) -> WorkerFaultSchedule {
        let mut events: Vec<(u64, WorkerFault)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::RouterPanic { at_tuple } => Some((at_tuple, WorkerFault::Panic)),
                FaultEvent::RouterStall { at_tuple, millis } => {
                    Some((at_tuple, WorkerFault::Stall { millis }))
                }
                _ => None,
            })
            .collect();
        events.sort_by_key(|(at, _)| *at);
        WorkerFaultSchedule { events, next: 0 }
    }

    /// The process-crash trigger, if the plan has one (the earliest
    /// wins when several are declared).
    pub fn crash_at(&self) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Crash { at_tuple } => Some(at_tuple),
                _ => None,
            })
            .min()
    }

    /// Whether any event targets a worker (cheap gate for the hot loop).
    pub fn has_worker_faults(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::WorkerPanic { .. } | FaultEvent::WorkerStall { .. }))
    }

    /// Whether any event targets the router.
    pub fn has_router_faults(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::RouterPanic { .. } | FaultEvent::RouterStall { .. }))
    }

    /// Apply every feed-level event to `packets`, deterministically:
    /// skews first (index-addressed), then malformed marking, then
    /// bursts (which change indexing), then the seeded reorder shuffle.
    pub fn perturb_packets(&self, mut packets: Vec<Packet>) -> Vec<Packet> {
        for e in &self.events {
            if let FaultEvent::SkewTimestamps { at_packet, len, offset_ns } = *e {
                let start = at_packet as usize;
                let end = start.saturating_add(len as usize).min(packets.len());
                for p in packets.get_mut(start..end).unwrap_or_default() {
                    p.uts = if offset_ns >= 0 {
                        p.uts.saturating_add(offset_ns as u64)
                    } else {
                        p.uts.saturating_sub(offset_ns.unsigned_abs())
                    };
                }
            }
        }
        for e in &self.events {
            if let FaultEvent::Malformed { every } = *e {
                let every = (every as usize).max(1);
                for p in packets.iter_mut().step_by(every) {
                    p.len = 0;
                    p.src_port = 0;
                    p.dest_port = 0;
                }
            }
        }
        for e in &self.events {
            if let FaultEvent::Burst { at_packet, copies } = *e {
                let at = at_packet as usize;
                if at < packets.len() {
                    let burst = packets[at];
                    let tail = packets.split_off(at);
                    packets.extend(std::iter::repeat_n(burst, copies as usize));
                    packets.extend(tail);
                }
            }
        }
        for e in &self.events {
            if let FaultEvent::Reorder { window } = *e {
                let window = (window as usize).max(2);
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_fa17);
                for chunk in packets.chunks_mut(window) {
                    // Fisher–Yates within the chunk: bounded reordering.
                    for i in (1..chunk.len()).rev() {
                        let j = rng.gen_range(0..=i);
                        chunk.swap(i, j);
                    }
                }
            }
        }
        packets
    }

    /// Share the plan for the runtime config.
    pub fn into_shared(self) -> Arc<FaultPlan> {
        Arc::new(self)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# sso fault plan")?;
        writeln!(f, "seed {}", self.seed)?;
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// A worker-side fault, delivered by [`WorkerFaultSchedule::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Panic now (the supervisor's quarantine path is exercised).
    Panic,
    /// Sleep before processing the trigger tuple.
    Stall {
        /// Stall length in milliseconds.
        millis: u64,
    },
}

impl WorkerFault {
    /// Trip this fault: sleep for a stall, panic for a panic. Call from
    /// inside the worker's supervised section.
    pub fn trip(self, shard: usize, at_tuple: u64) {
        match self {
            WorkerFault::Stall { millis } => std::thread::sleep(Duration::from_millis(millis)),
            WorkerFault::Panic => {
                panic!("injected fault: shard {shard} panics at tuple {at_tuple}")
            }
        }
    }

    /// Trip this fault inside the router's supervised section: sleep
    /// for a stall, panic for a panic.
    pub fn trip_router(self, at_tuple: u64) {
        match self {
            WorkerFault::Stall { millis } => std::thread::sleep(Duration::from_millis(millis)),
            WorkerFault::Panic => panic!("injected fault: router panics at tuple {at_tuple}"),
        }
    }
}

/// One shard's triggers, consumed in tuple-count order. `check` is one
/// compare when no trigger is pending, so it can sit in the per-tuple
/// hot loop.
#[derive(Debug, Clone, Default)]
pub struct WorkerFaultSchedule {
    events: Vec<(u64, WorkerFault)>,
    next: usize,
}

impl WorkerFaultSchedule {
    /// No pending triggers at all?
    pub fn is_empty(&self) -> bool {
        self.next >= self.events.len()
    }

    /// The tuple count the next pending trigger is due at, without
    /// consuming it: a caller that works in batches stops its batch
    /// short of that tuple.
    pub fn peek(&self) -> Option<u64> {
        self.events.get(self.next).map(|&(at, _)| at)
    }

    /// The fault (if any) scheduled for the `tuple_count`-th tuple.
    /// Triggers whose count has already passed fire immediately (a shard
    /// may receive fewer tuples between triggers than the plan guessed).
    #[inline]
    pub fn check(&mut self, tuple_count: u64) -> Option<WorkerFault> {
        let (at, fault) = *self.events.get(self.next)?;
        if tuple_count >= at {
            self.next += 1;
            Some(fault)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_types::Protocol;

    fn pkts(n: u64) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet {
                uts: i * 1_000_000 + 1,
                src_ip: i as u32,
                dest_ip: 1,
                src_port: 10,
                dest_port: 20,
                proto: Protocol::Udp,
                len: 100,
            })
            .collect()
    }

    #[test]
    fn display_parse_round_trip() {
        let plan = FaultPlan {
            seed: 42,
            events: vec![
                FaultEvent::WorkerPanic { shard: 3, at_tuple: 1500 },
                FaultEvent::WorkerStall { shard: 1, at_tuple: 900, millis: 20 },
                FaultEvent::RouterPanic { at_tuple: 700 },
                FaultEvent::RouterStall { at_tuple: 350, millis: 15 },
                FaultEvent::Burst { at_packet: 10_000, copies: 3000 },
                FaultEvent::Reorder { window: 64 },
                FaultEvent::SkewTimestamps { at_packet: 5000, len: 200, offset_ns: -2_000_000_000 },
                FaultEvent::Malformed { every: 997 },
                FaultEvent::Crash { at_tuple: 40_000 },
            ],
        };
        let text = plan.to_string();
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn crash_at_takes_the_earliest_trigger() {
        let plan = FaultPlan::parse("crash at=900\ncrash at=500\n").unwrap();
        assert_eq!(plan.crash_at(), Some(500));
        assert_eq!(FaultPlan::empty(0).crash_at(), None);
        assert!(!plan.has_worker_faults(), "crash is a router-level fault");
    }

    #[test]
    fn parse_reports_line_and_reason() {
        let err = FaultPlan::parse("seed 1\npanic shard=0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("at="), "{err}");
        let err = FaultPlan::parse("warp speed=9\n").unwrap_err();
        assert!(err.message.contains("warp"), "{err}");
    }

    #[test]
    fn from_seed_is_deterministic_and_in_range() {
        let a = FaultPlan::from_seed(7, 16);
        let b = FaultPlan::from_seed(7, 16);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::from_seed(8, 16));
        for e in &a.events {
            match *e {
                FaultEvent::WorkerPanic { shard, .. } | FaultEvent::WorkerStall { shard, .. } => {
                    assert!(shard < 16)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn worker_schedule_fires_in_order_and_once() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent::WorkerStall { shard: 2, at_tuple: 10, millis: 1 },
                FaultEvent::WorkerPanic { shard: 2, at_tuple: 5 },
                FaultEvent::WorkerPanic { shard: 0, at_tuple: 1 },
            ],
        };
        let mut sched = plan.worker_schedule(2);
        assert!(!sched.is_empty());
        assert_eq!(sched.check(4), None);
        assert_eq!(sched.check(5), Some(WorkerFault::Panic));
        // Triggers already passed fire on the next check.
        assert_eq!(sched.check(12), Some(WorkerFault::Stall { millis: 1 }));
        assert_eq!(sched.check(13), None);
        assert!(sched.is_empty());
        assert!(plan.worker_schedule(1).is_empty());
    }

    #[test]
    fn router_events_parse_by_target_field() {
        let plan = FaultPlan::parse("panic router=0 at=41\nstall router=0 at=9 ms=7\n").unwrap();
        assert_eq!(
            plan.events,
            vec![
                FaultEvent::RouterPanic { at_tuple: 41 },
                FaultEvent::RouterStall { at_tuple: 9, millis: 7 },
            ]
        );
        assert!(plan.has_router_faults());
        assert!(!plan.has_worker_faults(), "router events are not worker events");
        // A panic with neither target field is rejected at the worker arm.
        let err = FaultPlan::parse("panic at=5\n").unwrap_err();
        assert!(err.message.contains("shard="), "{err}");
    }

    #[test]
    fn a_router_other_than_zero_is_rejected_with_its_line() {
        for directive in ["panic router=3 at=1000", "stall router=1 at=9 ms=7"] {
            let err = FaultPlan::parse(&format!("seed 1\n{directive}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{directive}");
            assert!(err.message.contains("router=0"), "{directive}: {err}");
        }
    }

    #[test]
    fn router_schedule_fires_in_order_and_once() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent::RouterStall { at_tuple: 20, millis: 1 },
                FaultEvent::RouterPanic { at_tuple: 6 },
                FaultEvent::WorkerPanic { shard: 1, at_tuple: 2 },
            ],
        };
        let mut sched = plan.router_schedule();
        assert!(!sched.is_empty());
        assert_eq!(sched.check(5), None);
        assert_eq!(sched.check(6), Some(WorkerFault::Panic));
        assert_eq!(sched.check(25), Some(WorkerFault::Stall { millis: 1 }));
        assert!(sched.is_empty());
        // Worker events never leak into the router schedule and vice versa.
        let mut workers = plan.worker_schedule(1);
        assert_eq!(workers.check(2), Some(WorkerFault::Panic));
        assert!(workers.is_empty());
    }

    proptest::proptest! {
        /// Any event list survives a Display -> parse round trip.
        #[test]
        fn display_parse_round_trip_prop(
            seed in proptest::prelude::any::<u64>(),
            events in proptest::collection::vec(arb_event(), 0..12),
        ) {
            let plan = FaultPlan { seed, events };
            proptest::prop_assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        }

        /// Arbitrary text parses to a plan or an error, never a panic.
        #[test]
        fn parse_never_panics_prop(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
        ) {
            let _ = FaultPlan::parse(&String::from_utf8_lossy(&bytes));
        }
    }

    fn arb_event() -> impl proptest::strategy::Strategy<Value = FaultEvent> {
        use proptest::prelude::*;
        prop_oneof![
            (0usize..64, 1u64..100_000)
                .prop_map(|(shard, at_tuple)| FaultEvent::WorkerPanic { shard, at_tuple }),
            (0usize..64, 1u64..100_000, 1u64..5_000).prop_map(|(shard, at_tuple, millis)| {
                FaultEvent::WorkerStall { shard, at_tuple, millis }
            }),
            (1u64..100_000).prop_map(|at_tuple| FaultEvent::RouterPanic { at_tuple }),
            (1u64..100_000, 1u64..5_000)
                .prop_map(|(at_tuple, millis)| FaultEvent::RouterStall { at_tuple, millis }),
            (0u64..100_000, 1u64..10_000)
                .prop_map(|(at_packet, copies)| FaultEvent::Burst { at_packet, copies }),
            (2u64..1024).prop_map(|window| FaultEvent::Reorder { window }),
            (0u64..100_000, 1u64..10_000, proptest::prelude::any::<i64>()).prop_map(
                |(at_packet, len, offset_ns)| FaultEvent::SkewTimestamps {
                    at_packet,
                    len,
                    offset_ns
                }
            ),
            (1u64..100_000).prop_map(|every| FaultEvent::Malformed { every }),
            (1u64..1_000_000).prop_map(|at_tuple| FaultEvent::Crash { at_tuple }),
        ]
    }

    #[test]
    fn burst_duplicates_in_place() {
        let plan =
            FaultPlan { seed: 0, events: vec![FaultEvent::Burst { at_packet: 2, copies: 3 }] };
        let out = plan.perturb_packets(pkts(5));
        assert_eq!(out.len(), 8);
        assert!(out[2..6].iter().all(|p| p.src_ip == 2), "copies sit at the burst point");
        assert_eq!(out[6].src_ip, 3, "tail preserved");
    }

    #[test]
    fn skew_shifts_and_saturates() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::SkewTimestamps {
                at_packet: 1,
                len: 2,
                offset_ns: -5_000_000_000,
            }],
        };
        let out = plan.perturb_packets(pkts(4));
        assert_eq!(out[0].uts, 1);
        assert_eq!(out[1].uts, 0, "negative shift saturates at zero");
        assert_eq!(out[2].uts, 0);
        assert_eq!(out[3].uts, 3_000_001);
    }

    #[test]
    fn reorder_is_seeded_and_bounded() {
        let plan = FaultPlan { seed: 9, events: vec![FaultEvent::Reorder { window: 4 }] };
        let a = plan.perturb_packets(pkts(16));
        let b = plan.perturb_packets(pkts(16));
        assert_eq!(a, b, "same seed, same shuffle");
        for (chunk_idx, chunk) in a.chunks(4).enumerate() {
            let mut ips: Vec<u32> = chunk.iter().map(|p| p.src_ip).collect();
            ips.sort_unstable();
            let base = chunk_idx as u32 * 4;
            assert_eq!(ips, (base..base + 4).collect::<Vec<_>>(), "reorder escaped its chunk");
        }
        let other = FaultPlan { seed: 10, events: plan.events.clone() };
        assert_ne!(other.perturb_packets(pkts(16)), a, "different seed, different shuffle");
    }

    #[test]
    fn malformed_zeroes_periodically() {
        let plan = FaultPlan { seed: 0, events: vec![FaultEvent::Malformed { every: 3 }] };
        let out = plan.perturb_packets(pkts(7));
        for (i, p) in out.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!((p.len, p.src_port), (0, 0));
            } else {
                assert_eq!(p.len, 100);
            }
        }
    }
}
