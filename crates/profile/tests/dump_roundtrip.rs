//! Flight-recorder dump format property: for arbitrary dumps,
//! encode → decode → encode is **byte-identical**, decode rejects
//! any single-bit corruption of the framed payloads, and decode of
//! arbitrary bytes returns an error instead of panicking. This is what lets
//! `sso trace` trust a dump written moments before a crash: either the
//! frames checksum clean and decode to exactly what was recorded, or
//! the file fails loudly.

use proptest::prelude::*;
use sso_profile::dump::{MAGIC, VERSION};
use sso_profile::{
    decode_dump, encode_dump, Dump, DumpReason, Event, LaneDump, LaneKind, Stage, AUX_MAX,
};

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::Ingest),
        Just(Stage::Route),
        Just(Stage::RingWait),
        Just(Stage::Process),
        Just(Stage::Flush),
        Just(Stage::BarrierWait),
        Just(Stage::Merge),
        Just(Stage::Emit),
        Just(Stage::Low),
    ]
}

fn event_strategy() -> impl Strategy<Value = Event> {
    // The vendored proptest implements Strategy for tuples up to five
    // elements — nest the id fields.
    (
        (stage_strategy(), any::<u64>(), any::<u64>()),
        (any::<u16>(), any::<u32>(), any::<u32>(), any::<u64>()),
    )
        .prop_map(|((stage, t_ns, dur_ns), (shard, window, batch, aux))| {
            // The constructor clamps aux to 40 bits, which is exactly
            // why re-encoding is lossless.
            Event::new(stage, t_ns, dur_ns).shard(shard).window(window).batch(batch).aux(aux)
        })
}

fn lane_strategy() -> impl Strategy<Value = LaneDump> {
    (
        prop_oneof![
            Just(LaneKind::Router),
            Just(LaneKind::Worker),
            Just(LaneKind::Merge),
            Just(LaneKind::Low)
        ],
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(event_strategy(), 0..24),
    )
        .prop_map(|(kind, index, dropped, events)| LaneDump { kind, index, dropped, events })
}

fn dump_strategy() -> impl Strategy<Value = Dump> {
    (
        prop_oneof![
            Just(DumpReason::Manual),
            Just(DumpReason::Panic),
            Just(DumpReason::Shed),
            Just(DumpReason::Crash)
        ],
        proptest::collection::vec(lane_strategy(), 0..6),
    )
        .prop_map(|(reason, lanes)| Dump { reason, lanes })
}

proptest! {
    #[test]
    fn encode_decode_encode_is_byte_identical(dump in dump_strategy()) {
        let bytes = encode_dump(&dump);
        let decoded = decode_dump(&bytes).expect("canonical bytes decode");
        prop_assert_eq!(&decoded, &dump);
        prop_assert_eq!(encode_dump(&decoded), bytes);
    }

    #[test]
    fn clamped_aux_survives_and_events_round_trip(dump in dump_strategy()) {
        let decoded = decode_dump(&encode_dump(&dump)).expect("decodes");
        for (l, dl) in dump.lanes.iter().zip(decoded.lanes.iter()) {
            prop_assert_eq!(l.events.len(), dl.events.len());
            for (e, de) in l.events.iter().zip(dl.events.iter()) {
                prop_assert!(de.aux <= AUX_MAX);
                prop_assert_eq!(e, de);
            }
        }
    }

    #[test]
    fn payload_bit_flips_are_rejected(dump in dump_strategy(), flip in any::<usize>()) {
        let mut bytes = encode_dump(&dump);
        // Flip one bit past the 12-byte magic+version preamble: it
        // lands in a checksummed frame and must not decode clean to a
        // different dump.
        let start = 12;
        let i = start + flip % (bytes.len() - start);
        bytes[i] ^= 1 << (i % 8);
        match decode_dump(&bytes) {
            Err(_) => {}
            Ok(d) => prop_assert_eq!(d, dump, "a surviving decode must be the original"),
        }
    }

    #[test]
    fn arbitrary_bytes_decode_or_fail_without_panicking(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode_dump(&bytes);
    }

    #[test]
    fn arbitrary_bytes_after_a_valid_preamble_decode_or_fail_without_panicking(
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let _ = decode_dump(&bytes);
    }

    #[test]
    fn truncation_never_decodes(dump in dump_strategy(), cut in 1usize..32) {
        let bytes = encode_dump(&dump);
        if bytes.len() > cut {
            prop_assert!(decode_dump(&bytes[..bytes.len() - cut]).is_err());
        }
    }
}
