//! Byte codecs for durable operator state.
//!
//! `sso-store` persists three kinds of operator payload, all encoded
//! here or via the per-library SFUN codecs:
//!
//! * **window outputs** — the emitted rows of each closed window, so a
//!   recovered run can re-publish results without reprocessing;
//! * **aggregate states** — the group table's per-group values, paged to
//!   a spill file when live state exceeds the configured budget;
//! * **window stats / loss ledger** — the counters and the uncovered
//!   count attached to each output, so recovered windows are
//!   indistinguishable from live ones, degraded ones included.
//!
//! Everything rides on the little-endian, variant-tagged primitives of
//! [`sso_types::wire`]; re-encoding a decoded value reproduces the
//! original bytes exactly.

use sso_types::wire::{put_tuple, put_u32, put_u64, take_tuple, Reader, WireError};
use sso_types::Value;

use crate::agg::AggState;
use crate::operator::{WindowOutput, WindowStats};

/// Spill-page payload size: a sealed page of the paged group table holds
/// up to this many bytes of encoded group entries. Also the unit the
/// static audit uses to convert a certified state ceiling into a page
/// count.
pub const PAGE_BYTES: usize = 64 * 1024;

/// Variant tags for [`AggState`].
const TAG_COUNT: u8 = 0;
const TAG_SUM: u8 = 1;
const TAG_MIN: u8 = 2;
const TAG_MAX: u8 = 3;
const TAG_FIRST: u8 = 4;
const TAG_LAST: u8 = 5;

fn err<T>(message: impl Into<String>) -> Result<T, WireError> {
    Err(WireError { message: message.into() })
}

/// Append one [`AggState`], variant tag first.
pub fn put_agg_state(out: &mut Vec<u8>, s: &AggState) {
    let put_v = |out: &mut Vec<u8>, tag: u8, v: &Value| {
        out.push(tag);
        sso_types::wire::put_value(out, v);
    };
    match s {
        AggState::Count(n) => {
            out.push(TAG_COUNT);
            put_u64(out, *n);
        }
        AggState::Sum(v) => put_v(out, TAG_SUM, v),
        AggState::Min(v) => put_v(out, TAG_MIN, v),
        AggState::Max(v) => put_v(out, TAG_MAX, v),
        AggState::First(v) => put_v(out, TAG_FIRST, v),
        AggState::Last(v) => put_v(out, TAG_LAST, v),
    }
}

/// Read one [`AggState`].
pub fn take_agg_state(r: &mut Reader<'_>) -> Result<AggState, WireError> {
    let tag = r.take_u8()?;
    Ok(match tag {
        TAG_COUNT => AggState::Count(r.take_u64()?),
        TAG_SUM => AggState::Sum(sso_types::wire::take_value(r)?),
        TAG_MIN => AggState::Min(sso_types::wire::take_value(r)?),
        TAG_MAX => AggState::Max(sso_types::wire::take_value(r)?),
        TAG_FIRST => AggState::First(sso_types::wire::take_value(r)?),
        TAG_LAST => AggState::Last(sso_types::wire::take_value(r)?),
        t => return err(format!("unknown aggregate-state tag {t}")),
    })
}

/// Append a count-prefixed aggregate-state vector (one group entry).
pub fn put_agg_states(out: &mut Vec<u8>, states: &[AggState]) {
    put_u32(out, states.len() as u32);
    for s in states {
        put_agg_state(out, s);
    }
}

/// Read a count-prefixed aggregate-state vector.
pub fn take_agg_states(r: &mut Reader<'_>) -> Result<Vec<AggState>, WireError> {
    let n = r.take_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(take_agg_state(r)?);
    }
    Ok(out)
}

fn put_window_stats(out: &mut Vec<u8>, s: &WindowStats) {
    put_u64(out, s.tuples);
    put_u64(out, s.admitted);
    put_u64(out, s.cleaning_phases);
    put_u64(out, s.groups_created);
    put_u64(out, s.evictions);
    put_u64(out, s.output_rows);
}

fn take_window_stats(r: &mut Reader<'_>) -> Result<WindowStats, WireError> {
    Ok(WindowStats {
        tuples: r.take_u64()?,
        admitted: r.take_u64()?,
        cleaning_phases: r.take_u64()?,
        groups_created: r.take_u64()?,
        evictions: r.take_u64()?,
        output_rows: r.take_u64()?,
    })
}

/// Append one closed window's full output record.
pub fn put_window_output(out: &mut Vec<u8>, w: &WindowOutput) {
    put_tuple(out, &w.window);
    put_u32(out, w.rows.len() as u32);
    for row in &w.rows {
        put_tuple(out, row);
    }
    put_window_stats(out, &w.stats);
    put_u64(out, w.uncovered);
}

/// Read one window-output record.
pub fn take_window_output(r: &mut Reader<'_>) -> Result<WindowOutput, WireError> {
    let window = take_tuple(r)?;
    let n = r.take_u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        rows.push(take_tuple(r)?);
    }
    let stats = take_window_stats(r)?;
    Ok(WindowOutput { window, rows, stats, uncovered: r.take_u64()? })
}

/// Encoded bytes of a tuple of `arity` non-string values: the arity
/// prefix, then at most a tag and eight bytes per value. (A `Str`
/// travels at its own length; the audit's entry-byte estimates leave
/// string heaps out the same way.)
pub const fn tuple_wire_bytes(arity: usize) -> u64 {
    4 + 9 * arity as u64
}

/// Encoded bytes of a window output apart from its window key and its
/// rows: the row count, the six stats counters and the uncovered count.
pub const WINDOW_OUTPUT_FIXED_BYTES: u64 = 4 + 6 * 8 + 8;

#[cfg(test)]
mod tests {
    use super::*;
    use sso_types::Tuple;

    fn round_trip_state(s: &AggState) -> AggState {
        let mut buf = Vec::new();
        put_agg_state(&mut buf, s);
        let mut r = Reader::new(&buf);
        let out = take_agg_state(&mut r).unwrap();
        assert!(r.is_empty());
        out
    }

    #[test]
    fn window_output_size_model_matches_the_encoder() {
        let row = |i: u64| Tuple::new(vec![Value::U64(i), Value::F64(0.5), Value::I64(-1)]);
        let w = WindowOutput {
            window: Tuple::new(vec![Value::U64(3)]),
            rows: (0..5).map(row).collect(),
            stats: WindowStats::default(),
            uncovered: 0,
        };
        let mut buf = Vec::new();
        put_window_output(&mut buf, &w);
        let modelled = tuple_wire_bytes(1) + WINDOW_OUTPUT_FIXED_BYTES + 5 * tuple_wire_bytes(3);
        assert_eq!(buf.len() as u64, modelled);
    }

    #[test]
    fn agg_states_round_trip() {
        for s in [
            AggState::Count(42),
            AggState::Sum(Value::F64(2.5)),
            AggState::Min(Value::I64(-7)),
            AggState::Max(Value::U64(u64::MAX)),
            AggState::First(Value::Str("a".into())),
            AggState::Last(Value::Null),
        ] {
            assert_eq!(round_trip_state(&s), s);
        }
    }

    #[test]
    fn agg_state_vectors_round_trip() {
        let states = vec![AggState::Count(1), AggState::Sum(Value::U64(9))];
        let mut buf = Vec::new();
        put_agg_states(&mut buf, &states);
        let mut r = Reader::new(&buf);
        assert_eq!(take_agg_states(&mut r).unwrap(), states);
        assert!(r.is_empty());
    }

    #[test]
    fn window_outputs_round_trip() {
        let w = WindowOutput {
            window: Tuple::new(vec![Value::U64(3)]),
            rows: vec![
                Tuple::new(vec![Value::U64(3), Value::Str("k".into()), Value::F64(1.25)]),
                Tuple::new(vec![Value::U64(3), Value::Null, Value::I64(-1)]),
            ],
            stats: WindowStats {
                tuples: 10,
                admitted: 8,
                cleaning_phases: 1,
                groups_created: 2,
                evictions: 1,
                output_rows: 2,
            },
            uncovered: 3,
        };
        let mut buf = Vec::new();
        put_window_output(&mut buf, &w);
        let mut r = Reader::new(&buf);
        let out = take_window_output(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(out.window, w.window);
        assert_eq!(out.rows, w.rows);
        assert_eq!(out.stats, w.stats);
        assert_eq!(out.uncovered, w.uncovered);

        // Re-encoding reproduces the original bytes exactly.
        let mut again = Vec::new();
        put_window_output(&mut again, &out);
        assert_eq!(buf, again);
    }

    #[test]
    fn unknown_tag_errors() {
        let mut r = Reader::new(&[99]);
        assert!(take_agg_state(&mut r).is_err());
    }
}
