//! Byte-level wire codec for [`Value`] and [`Tuple`].
//!
//! The durable-state subsystem (`sso-store`) snapshots operator state to
//! disk and must round-trip it *byte-identically*: a value decoded from
//! a snapshot and re-encoded produces the same bytes. Everything here is
//! little-endian, length-prefixed, and variant-tagged — `F64` travels as
//! its IEEE bit pattern (`to_bits`), so NaNs and signed zeros survive,
//! and `U64`/`I64` keep their exact variant even where `PartialEq`
//! would treat them as equal.

use crate::tuple::Tuple;
use crate::value::Value;

/// A decode failure: truncated input or an unknown tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode: {}", self.message)
    }
}

impl std::error::Error for WireError {}

fn err<T>(message: impl Into<String>) -> Result<T, WireError> {
    Err(WireError { message: message.into() })
}

/// Append a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` (little-endian two's complement).
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// A cursor over encoded bytes; every `take_*` advances it.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return err(format!("need {n} bytes, have {}", self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an `i64`.
    pub fn take_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.take_u32()? as usize;
        self.take(n)
    }
}

/// Variant tags (one byte each) for [`Value`].
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;

/// Append one [`Value`], variant tag first.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::U64(n) => {
            out.push(TAG_U64);
            put_u64(out, *n);
        }
        Value::I64(n) => {
            out.push(TAG_I64);
            put_i64(out, *n);
        }
        Value::F64(f) => {
            out.push(TAG_F64);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_bytes(out, s.as_bytes());
        }
    }
}

/// Read one [`Value`].
pub fn take_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    let tag = r.take(1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(r.take(1)?[0] != 0),
        TAG_U64 => Value::U64(r.take_u64()?),
        TAG_I64 => Value::I64(r.take_i64()?),
        TAG_F64 => Value::F64(r.take_f64()?),
        TAG_STR => {
            let bytes = r.take_bytes()?;
            match std::str::from_utf8(bytes) {
                Ok(s) => Value::Str(s.into()),
                Err(_) => return err("string value is not UTF-8"),
            }
        }
        t => return err(format!("unknown value tag {t}")),
    })
}

/// Append one [`Tuple`] (arity-prefixed values).
pub fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_u32(out, t.arity() as u32);
    for v in t.values() {
        put_value(out, v);
    }
}

/// Read one [`Tuple`].
pub fn take_tuple(r: &mut Reader<'_>) -> Result<Tuple, WireError> {
    let n = r.take_u32()? as usize;
    let mut vals = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        vals.push(take_value(r)?);
    }
    Ok(Tuple::new(vals))
}

/// FNV-1a 64-bit checksum — the frame integrity check of every durable
/// record, and the node hash of rewrite certificates. Not
/// cryptographic; it detects torn writes and bit rot.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Reserve the length prefix of a [`put_bytes`] section at the end of
/// `out`, so the section can be encoded straight behind it instead of
/// into a buffer of its own; [`end_bytes`] takes the returned offset.
pub fn begin_bytes(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    put_u32(out, 0);
    start
}

/// Seal the section begun at `start`: everything appended since is its
/// content. 4 GiB or more does not fit the `u32` prefix and is an
/// error, never a truncated length that cannot be read back.
pub fn end_bytes(out: &mut [u8], start: usize) -> Result<(), WireError> {
    let len = section_len(out.len() - start - 4)?;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

fn section_len(bytes: usize) -> Result<u32, WireError> {
    u32::try_from(bytes)
        .or_else(|_| err(format!("section of {bytes} bytes exceeds the u32 length prefix")))
}

/// Reserve a frame header — the `u64` [`checksum`] of the payload, then
/// the payload as a [`put_bytes`] section — at the end of `out`. Every
/// durable record in the tree (shard log, flight-recorder dump) travels
/// in this one frame; [`end_frame`] takes the returned offset.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    put_u64(out, 0);
    begin_bytes(out);
    start
}

/// Seal the frame begun at `start`: everything appended since is the
/// payload, whose checksum and length are patched into the header.
pub fn end_frame(out: &mut [u8], start: usize) -> Result<(), WireError> {
    end_bytes(out, start + 8)?;
    let sum = checksum(&out[start + 12..]);
    out[start..start + 8].copy_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Append `payload` as one frame.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), WireError> {
    let start = begin_frame(out);
    out.extend_from_slice(payload);
    end_frame(out, start)
}

/// Read one frame's payload; a short header, a length past the end of
/// the input or a checksum mismatch is an error (and the reader's
/// position is then unspecified).
pub fn take_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], WireError> {
    let want = r.take_u64()?;
    let payload = r.take_bytes()?;
    if checksum(payload) != want {
        return err("frame checksum mismatch");
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut buf = Vec::new();
        put_value(&mut buf, v);
        let mut r = Reader::new(&buf);
        let out = take_value(&mut r).unwrap();
        assert!(r.is_empty());
        out
    }

    #[test]
    fn values_round_trip_exactly() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::I64(-42),
            Value::F64(3.5),
            Value::F64(-0.0),
            Value::F64(f64::NAN),
            Value::Str("hello wire".into()),
            Value::Str("".into()),
        ] {
            let out = round_trip(&v);
            // Compare through re-encoding so NaN and -0.0 count as equal
            // to themselves (PartialEq would not).
            let (mut a, mut b) = (Vec::new(), Vec::new());
            put_value(&mut a, &v);
            put_value(&mut b, &out);
            assert_eq!(a, b, "{v:?}");
        }
    }

    #[test]
    fn variant_is_preserved_across_eq_classes() {
        // U64(5) == I64(5) under PartialEq, but the wire keeps variants.
        let mut a = Vec::new();
        let mut b = Vec::new();
        put_value(&mut a, &Value::U64(5));
        put_value(&mut b, &Value::I64(5));
        assert_ne!(a, b);
        let mut r = Reader::new(&a);
        assert!(matches!(take_value(&mut r).unwrap(), Value::U64(5)));
    }

    #[test]
    fn tuples_round_trip() {
        let t = Tuple::new(vec![Value::U64(7), Value::Str("x".into()), Value::Null]);
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        let mut r = Reader::new(&buf);
        assert_eq!(take_tuple(&mut r).unwrap(), t);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::U64(7));
        buf.truncate(buf.len() - 1);
        let mut r = Reader::new(&buf);
        assert!(take_value(&mut r).is_err());
        assert!(Reader::new(&[99]).take_u32().is_err());
    }

    #[test]
    fn frames_round_trip_and_reject_damage() {
        let mut buf = vec![0xaa];
        put_frame(&mut buf, b"first").unwrap();
        let start = begin_frame(&mut buf);
        put_u64(&mut buf, 7);
        end_frame(&mut buf, start).unwrap();
        let mut r = Reader::new(&buf[1..]);
        assert_eq!(take_frame(&mut r).unwrap(), b"first");
        assert_eq!(take_frame(&mut r).unwrap(), 7u64.to_le_bytes());
        assert!(r.is_empty());
        assert!(take_frame(&mut r).is_err(), "no header left");
        let last = buf.len() - 1;
        buf[last] ^= 1;
        let mut r = Reader::new(&buf[1..]);
        assert!(take_frame(&mut r).is_ok());
        assert!(take_frame(&mut r).is_err(), "flipped payload bit");
        let mut r = Reader::new(&buf[1..last]);
        assert!(take_frame(&mut r).is_ok());
        assert!(take_frame(&mut r).is_err(), "torn payload");
    }

    #[test]
    fn a_length_that_does_not_fit_is_an_error_not_a_truncation() {
        // The check every section and frame goes through, without
        // allocating 4 GiB to reach it.
        assert_eq!(section_len(u32::MAX as usize), Ok(u32::MAX));
        if let Some(too_long) = (u32::MAX as usize).checked_add(1) {
            assert!(section_len(too_long).unwrap_err().message.contains("4294967296 bytes"));
        }
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"sso-store");
        assert_eq!(a, checksum(b"sso-store"));
        assert_ne!(a, checksum(b"sso-storf"));
        assert_ne!(checksum(b""), 0);
    }
}
