//! Generated damage to a shard log: for a log of random records cut at
//! *every* length, and with single bits flipped at generated offsets,
//! recovery never panics and returns exactly the records before the
//! first damaged frame, with the carry, aux and watermark of the last
//! of them; a resumed writer cuts the torn tail off and the log goes on
//! from there.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use sso_core::operator::WindowStats;
use sso_core::snapshot::put_window_output;
use sso_core::WindowOutput;
use sso_store::{recover_shard, RecoveredShard, ShardStore, StoreConfig, WindowRecord};
use sso_types::{Tuple, Value};

/// One generated window: its output, carry and aux.
type Record = (WindowOutput, Vec<u8>, Vec<u8>);

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        (-1.0e9..1.0e9f64).prop_map(Value::F64),
        "[a-z]{0,12}".prop_map(|s| Value::Str(s.into())),
    ]
}

fn record_strategy() -> impl Strategy<Value = Record> {
    let row = proptest::collection::vec(value_strategy(), 0..5).prop_map(Tuple::new);
    (
        any::<u64>(),
        proptest::collection::vec(row, 0..6),
        proptest::collection::vec(any::<u8>(), 0..40),
        proptest::collection::vec(any::<u8>(), 0..20),
    )
        .prop_map(|(window, rows, carry, aux)| {
            let stats = WindowStats {
                tuples: window % 1000,
                output_rows: rows.len() as u64,
                ..Default::default()
            };
            let output = WindowOutput {
                window: Tuple::new(vec![Value::U64(window)]),
                rows,
                stats,
                uncovered: 0,
            };
            (output, carry, aux)
        })
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sso-store-damage-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn append(store: &mut ShardStore, (output, carry, aux): &Record) {
    store.record_window(&WindowRecord { output, carry, aux }).expect("record window");
}

/// Write `records` as shard 0's log under `dir`; returns the log's
/// bytes and the offset at which each record's frame ends.
fn write_log(dir: &Path, records: &[Record], checkpoint_every: u64) -> (Vec<u8>, Vec<usize>) {
    let cfg = StoreConfig { checkpoint_every, ..StoreConfig::new(dir) };
    let mut store = ShardStore::create(&cfg, 0).expect("create store");
    let mut ends = Vec::new();
    for rec in records {
        append(&mut store, rec);
        ends.push(store.wal_bytes() as usize);
    }
    drop(store); // a crash: no finalize
    (fs::read(dir.join("shard-0.wal")).expect("read log"), ends)
}

fn encoded(out: &WindowOutput) -> Vec<u8> {
    let mut b = Vec::new();
    put_window_output(&mut b, out);
    b
}

/// `got` is exactly `want`, byte for byte, with the last record's state.
fn assert_is_prefix(got: &RecoveredShard, want: &[Record], damage: &str) {
    assert_eq!(got.outputs.len(), want.len(), "{damage}");
    for (g, (w, _, _)) in got.outputs.iter().zip(want) {
        assert_eq!(encoded(g), encoded(w), "{damage}");
    }
    let (carry, aux, watermark) = match want.last() {
        Some((out, carry, aux)) => (&carry[..], &aux[..], Some(&out.window)),
        None => (&[][..], &[][..], None),
    };
    assert_eq!(&got.carry[..], carry, "{damage}");
    assert_eq!(&got.aux[..], aux, "{damage}");
    assert_eq!(got.watermark.as_ref(), watermark, "{damage}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_truncation_recovers_the_whole_frames_before_it(
        records in proptest::collection::vec(record_strategy(), 1..6),
        checkpoint_every in 0u64..3,
    ) {
        let dir = tmpdir("cut");
        let (log, ends) = write_log(&dir, &records, checkpoint_every);
        prop_assert_eq!(ends.last(), Some(&log.len()));
        for cut in 0..=log.len() {
            fs::write(dir.join("shard-0.wal"), &log[..cut]).expect("write torn log");
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let got = recover_shard(&dir, 0).expect("recover");
            assert_is_prefix(&got, &records[..whole], &format!("cut at {cut} of {}", log.len()));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_bit_ends_replay_at_its_frame(
        records in proptest::collection::vec(record_strategy(), 1..6),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..24),
    ) {
        let dir = tmpdir("flip");
        let (log, ends) = write_log(&dir, &records, 0);
        for (at, bit) in flips {
            let at = at % log.len();
            let mut damaged = log.clone();
            damaged[at] ^= 1 << bit;
            fs::write(dir.join("shard-0.wal"), &damaged).expect("write damaged log");
            let before = ends.iter().filter(|&&end| end <= at).count();
            let got = recover_shard(&dir, 0).expect("recover");
            assert_is_prefix(&got, &records[..before], &format!("bit {bit} of byte {at} flipped"));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resumed_writer_cuts_the_torn_tail_and_appends(
        records in proptest::collection::vec(record_strategy(), 1..6),
        more in proptest::collection::vec(record_strategy(), 2..3),
        cut in any::<usize>(),
    ) {
        let dir = tmpdir("resume");
        let (log, ends) = write_log(&dir, &records, 0);
        let cut = cut % (log.len() + 1);
        fs::write(dir.join("shard-0.wal"), &log[..cut]).expect("write torn log");
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let (mut store, recovered) =
            ShardStore::open_resumed(&StoreConfig::new(&dir), 0).expect("resume");
        assert_is_prefix(&recovered, &records[..whole], "resumed");
        prop_assert_eq!(store.windows_recorded(), whole as u64);
        for rec in &more {
            append(&mut store, rec);
        }
        store.finalize().expect("finalize");
        let size = fs::metadata(dir.join("shard-0.wal")).expect("log metadata").len();
        prop_assert_eq!(store.wal_bytes(), size);
        let mut want = records[..whole].to_vec();
        want.extend(more);
        assert_is_prefix(&recover_shard(&dir, 0).expect("recover"), &want, "after the resumed run");
        let _ = fs::remove_dir_all(&dir);
    }
}
