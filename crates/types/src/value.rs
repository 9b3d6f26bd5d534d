//! Dynamically typed values flowing through operators.
//!
//! Packet-monitoring queries are overwhelmingly integer-typed (timestamps,
//! IPv4 addresses, lengths, counters), so [`Value`] keeps the integer
//! variants unboxed and cheap to copy. Strings are reference-counted so
//! tuples remain cheap to clone on the hot path.

use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::TypeError;

/// Coarse static type of an expression, used by signature metadata and
/// the query analyzer. This is the compile-time counterpart of
/// [`Value::kind`]: `UInt`/`Int`/`Float` map one-to-one onto the
/// runtime variants, while `Num` ("some numeric kind") and `Any`
/// describe polymorphic positions such as `UMAX`'s result or an
/// unresolvable column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// Statically [`Value::Null`].
    Null,
    /// Boolean.
    Bool,
    /// Unsigned 64-bit integer.
    UInt,
    /// Signed 64-bit integer.
    Int,
    /// Double-precision float.
    Float,
    /// String.
    Str,
    /// Some numeric kind (`UInt`, `Int`, or `Float`), not known which.
    Num,
    /// Statically unknown.
    Any,
}

impl ValueKind {
    /// `true` if values of this kind participate in arithmetic.
    /// `Any`/`Null` pass: they may turn out numeric at runtime.
    pub fn is_numeric(self) -> bool {
        !matches!(self, ValueKind::Str)
    }

    /// Least upper bound of two kinds: the static type of an
    /// expression that may produce either (e.g. the two sides of a
    /// numeric promotion).
    pub fn unify(self, other: ValueKind) -> ValueKind {
        use ValueKind::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Null, k) | (k, Null) => k,
            (Any, _) | (_, Any) => Any,
            (Float, k) | (k, Float) if k.is_numeric() => Float,
            (a, b) if a.is_numeric() && b.is_numeric() => Num,
            _ => Any,
        }
    }

    /// Short lowercase name, matching [`Value::kind`] where the kinds
    /// coincide.
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::Null => "null",
            ValueKind::Bool => "bool",
            ValueKind::UInt => "u64",
            ValueKind::Int => "i64",
            ValueKind::Float => "f64",
            ValueKind::Str => "str",
            ValueKind::Num => "numeric",
            ValueKind::Any => "any",
        }
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed scalar value.
///
/// Arithmetic follows SQL-ish numeric promotion: `U64 op U64 -> U64`
/// (signed if subtraction underflows), any operand `F64` promotes the
/// result to `F64`, and `I64` mixes promote to `I64`. Every operator is
/// total over the integers: overflow wraps (`add`, `mul`, `I64` `sub`,
/// `i64::MIN / -1`) and never panics; only a zero divisor is an error.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent / undefined value (e.g. an aggregate over an empty group).
    Null,
    /// Boolean, produced by predicates.
    Bool(bool),
    /// Unsigned 64-bit integer: timestamps, lengths, counts, IPv4 addresses.
    U64(u64),
    /// Signed 64-bit integer, produced by subtraction underflow and literals.
    I64(i64),
    /// Double-precision float: thresholds, probabilities, estimates.
    F64(f64),
    /// Interned string (rare on the packet hot path).
    Str(Arc<str>),
}

impl Value {
    /// Short name of this value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) => "u64",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Str(_) => "str",
        }
    }

    /// The static [`ValueKind`] of this value.
    pub fn value_kind(&self) -> ValueKind {
        match self {
            Value::Null => ValueKind::Null,
            Value::Bool(_) => ValueKind::Bool,
            Value::U64(_) => ValueKind::UInt,
            Value::I64(_) => ValueKind::Int,
            Value::F64(_) => ValueKind::Float,
            Value::Str(_) => ValueKind::Str,
        }
    }

    /// Build a string value.
    pub fn str(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }

    /// `true` iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a boolean. `Null` is `false`; numbers are true iff
    /// nonzero, mirroring the loose C-style predicates of the Gigascope
    /// runtime library.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::U64(v) => *v != 0,
            Value::I64(v) => *v != 0,
            Value::F64(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// Convert to `u64`, accepting any non-negative integral value.
    pub fn as_u64(&self) -> Result<u64, TypeError> {
        match self {
            Value::U64(v) => Ok(*v),
            Value::I64(v) if *v >= 0 => Ok(*v as u64),
            Value::Bool(b) => Ok(*b as u64),
            Value::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Ok(*v as u64)
            }
            other => Err(TypeError::InvalidConversion { target: "u64", actual: other.kind() }),
        }
    }

    /// Convert to `f64`, accepting any numeric value.
    pub fn as_f64(&self) -> Result<f64, TypeError> {
        match self {
            Value::U64(v) => Ok(*v as f64),
            Value::I64(v) => Ok(*v as f64),
            Value::F64(v) => Ok(*v),
            Value::Bool(b) => Ok(*b as u8 as f64),
            other => Err(TypeError::InvalidConversion { target: "f64", actual: other.kind() }),
        }
    }

    /// Convert to `&str` if this is a string.
    pub fn as_str(&self) -> Result<&str, TypeError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(TypeError::InvalidConversion { target: "str", actual: other.kind() }),
        }
    }

    fn numeric_pair(&self, other: &Self, op: &'static str) -> Result<NumPair, TypeError> {
        use Value::*;
        Ok(match (self, other) {
            (F64(a), _) => NumPair::F(*a, other.as_f64().map_err(|_| binop_err(op, self, other))?),
            (_, F64(b)) => NumPair::F(self.as_f64().map_err(|_| binop_err(op, self, other))?, *b),
            (U64(a), U64(b)) => NumPair::U(*a, *b),
            (I64(a), I64(b)) => NumPair::I(*a, *b),
            (U64(a), I64(b)) | (I64(b), U64(a)) => {
                // Mixed signedness: compute in i128 and narrow on use.
                NumPair::Mixed(*a as i128, *b as i128)
            }
            (Bool(a), _) => {
                return U64(*a as u64).numeric_pair(other, op);
            }
            (_, Bool(b)) => {
                return self.numeric_pair(&U64(*b as u64), op);
            }
            _ => return Err(binop_err(op, self, other)),
        })
    }

    /// Addition with numeric promotion.
    pub fn add(&self, other: &Self) -> Result<Value, TypeError> {
        match self.numeric_pair(other, "+")? {
            NumPair::U(a, b) => Ok(Value::U64(a.wrapping_add(b))),
            NumPair::I(a, b) => Ok(Value::I64(a.wrapping_add(b))),
            NumPair::F(a, b) => Ok(Value::F64(a + b)),
            NumPair::Mixed(a, b) => Ok(narrow_i128(a + b)),
        }
    }

    /// Subtraction; `U64 - U64` yields `I64` when the result is negative.
    /// A difference below `i64::MIN` (operands more than 2^63 apart)
    /// saturates there: wrapping it would hand back a positive number
    /// for a negative result.
    pub fn sub(&self, other: &Self) -> Result<Value, TypeError> {
        match self.numeric_pair(other, "-")? {
            NumPair::U(a, b) => {
                if a >= b {
                    Ok(Value::U64(a - b))
                } else {
                    Ok(Value::I64(0i64.saturating_sub_unsigned(b - a)))
                }
            }
            NumPair::I(a, b) => Ok(Value::I64(a.wrapping_sub(b))),
            NumPair::F(a, b) => Ok(Value::F64(a - b)),
            NumPair::Mixed(a, b) => Ok(narrow_i128(a - b)),
        }
    }

    /// Multiplication with numeric promotion.
    pub fn mul(&self, other: &Self) -> Result<Value, TypeError> {
        match self.numeric_pair(other, "*")? {
            NumPair::U(a, b) => Ok(Value::U64(a.wrapping_mul(b))),
            NumPair::I(a, b) => Ok(Value::I64(a.wrapping_mul(b))),
            NumPair::F(a, b) => Ok(Value::F64(a * b)),
            NumPair::Mixed(a, b) => Ok(narrow_i128(a * b)),
        }
    }

    /// Integer division truncates (this is what `time/60 as tb` relies on);
    /// float division is exact.
    pub fn div(&self, other: &Self) -> Result<Value, TypeError> {
        match self.numeric_pair(other, "/")? {
            NumPair::U(_, 0) | NumPair::I(_, 0) | NumPair::Mixed(_, 0) => {
                Err(TypeError::DivisionByZero)
            }
            NumPair::U(a, b) => Ok(Value::U64(a / b)),
            NumPair::I(a, b) => Ok(Value::I64(a.wrapping_div(b))),
            NumPair::F(a, b) => {
                if b == 0.0 {
                    Err(TypeError::DivisionByZero)
                } else {
                    Ok(Value::F64(a / b))
                }
            }
            NumPair::Mixed(a, b) => Ok(narrow_i128(a / b)),
        }
    }

    /// Modulus; errors on zero divisor.
    pub fn rem(&self, other: &Self) -> Result<Value, TypeError> {
        match self.numeric_pair(other, "%")? {
            NumPair::U(_, 0) | NumPair::I(_, 0) | NumPair::Mixed(_, 0) => {
                Err(TypeError::DivisionByZero)
            }
            NumPair::U(a, b) => Ok(Value::U64(a % b)),
            NumPair::I(a, b) => Ok(Value::I64(a.wrapping_rem(b))),
            NumPair::F(a, b) => {
                if b == 0.0 {
                    Err(TypeError::DivisionByZero)
                } else {
                    Ok(Value::F64(a % b))
                }
            }
            NumPair::Mixed(a, b) => Ok(narrow_i128(a % b)),
        }
    }

    /// Three-way comparison across numeric types and strings, as a
    /// query's predicates compare.
    ///
    /// `Null` compares equal to `Null` and less than everything else.
    /// Cross-kind numeric comparisons promote to `f64`. This is not a
    /// total order: a string beside a number or a `Bool` is an error,
    /// `NaN` compares `Equal` to every number, and the promotion rounds
    /// (`U64(2^53 + 1)` equals `F64(2^53)`, which equals `U64(2^53)`).
    /// Sort with [`Value::total_cmp`].
    pub fn compare(&self, other: &Self) -> Result<CmpOrdering, TypeError> {
        use Value::*;
        Ok(match (self, other) {
            (Null, Null) => CmpOrdering::Equal,
            (Null, _) => CmpOrdering::Less,
            (_, Null) => CmpOrdering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (U64(a), U64(b)) => a.cmp(b),
            (I64(a), I64(b)) => a.cmp(b),
            (U64(a), I64(b)) => (*a as i128).cmp(&(*b as i128)),
            (I64(a), U64(b)) => (*a as i128).cmp(&(*b as i128)),
            _ => {
                let a = self.as_f64().map_err(|_| binop_err("<=>", self, other))?;
                let b = other.as_f64().map_err(|_| binop_err("<=>", self, other))?;
                a.partial_cmp(&b).unwrap_or(CmpOrdering::Equal)
            }
        })
    }

    /// Equality via [`Value::compare`].
    pub fn eq_value(&self, other: &Self) -> Result<bool, TypeError> {
        Ok(self.compare(other)? == CmpOrdering::Equal)
    }

    /// A total order over every value, for sorting rows and keying
    /// ordered maps: `Null` first, then every number by its exact value
    /// (`U64`, `I64`, `F64`, and `Bool` as 0 or 1; `-0.0` equals `0.0`),
    /// then `NaN`, then strings in byte order.
    ///
    /// It agrees with [`Value::compare`] wherever that is consistent: on
    /// `U64`s alone, on non-NaN `F64`s alone, between integers, and on
    /// strings alone. Unlike `compare` it never refuses a pair and never
    /// rounds an integer to `f64` beside a float.
    pub fn total_cmp(&self, other: &Self) -> CmpOrdering {
        match (self, other) {
            (Value::U64(a), Value::U64(b)) => a.cmp(b),
            _ => self.sort_key().cmp(&other.sort_key()),
        }
    }

    fn sort_key(&self) -> SortKey<'_> {
        match self {
            Value::Null => SortKey::Null,
            Value::Bool(b) => SortKey::Int(i128::from(*b)),
            Value::U64(v) => SortKey::Int(i128::from(*v)),
            Value::I64(v) => SortKey::Int(i128::from(*v)),
            Value::F64(v) if v.is_nan() => SortKey::NaN,
            Value::F64(v) => SortKey::Float(*v),
            Value::Str(s) => SortKey::Str(s),
        }
    }
}

/// Where a value sorts in [`Value::total_cmp`]: its rank, then the exact
/// number or the string it holds.
enum SortKey<'a> {
    Null,
    Int(i128),
    /// Never `NaN`.
    Float(f64),
    NaN,
    Str(&'a str),
}

impl SortKey<'_> {
    fn rank(&self) -> u8 {
        match self {
            SortKey::Null => 0,
            SortKey::Int(_) | SortKey::Float(_) => 1,
            SortKey::NaN => 2,
            SortKey::Str(_) => 3,
        }
    }

    fn cmp(&self, other: &Self) -> CmpOrdering {
        match (self, other) {
            (SortKey::Int(a), SortKey::Int(b)) => a.cmp(b),
            (SortKey::Float(a), SortKey::Float(b)) => {
                a.partial_cmp(b).unwrap_or(CmpOrdering::Equal)
            }
            (SortKey::Int(a), SortKey::Float(b)) => int_float_cmp(*a, *b),
            (SortKey::Float(a), SortKey::Int(b)) => int_float_cmp(*b, *a).reverse(),
            (SortKey::Str(a), SortKey::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// Exact comparison of an integer within ±2^64 and a non-NaN float.
fn int_float_cmp(i: i128, f: f64) -> CmpOrdering {
    const TWO_64: f64 = 18_446_744_073_709_551_616.0;
    if f >= TWO_64 {
        return CmpOrdering::Less;
    }
    if f <= -TWO_64 {
        return CmpOrdering::Greater;
    }
    // |f| < 2^64: its integral part converts exactly, and where `i`
    // equals it the fraction's sign decides.
    let whole = f.trunc();
    i.cmp(&(whole as i128)).then(whole.partial_cmp(&f).unwrap_or(CmpOrdering::Equal))
}

fn binop_err(op: &'static str, lhs: &Value, rhs: &Value) -> TypeError {
    TypeError::InvalidOperands { op, lhs: lhs.kind(), rhs: Some(rhs.kind()) }
}

fn narrow_i128(v: i128) -> Value {
    if v >= 0 && v <= u64::MAX as i128 {
        Value::U64(v as u64)
    } else {
        Value::I64(v as i64)
    }
}

enum NumPair {
    U(u64, u64),
    I(i64, i64),
    F(f64, f64),
    Mixed(i128, i128),
}

/// Structural equality used for group keys: kinds must match exactly,
/// except numerically equal integers of different signedness, which hash
/// and compare equal so `U64(5)` and `I64(5)` land in the same group.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (U64(a), U64(b)) => a == b,
            (I64(a), I64(b)) => a == b,
            (U64(a), I64(b)) | (I64(b), U64(a)) => *b >= 0 && *a == *b as u64,
            (F64(a), F64(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            // Non-negative I64 hashes like the equal U64 (see PartialEq).
            Value::U64(v) => {
                state.write_u8(2);
                state.write_u64(*v);
            }
            Value::I64(v) if *v >= 0 => {
                state.write_u8(2);
                state.write_u64(*v as u64);
            }
            Value::I64(v) => {
                state.write_u8(3);
                state.write_i64(*v);
            }
            Value::F64(v) => {
                state.write_u8(4);
                state.write_u64(v.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(5);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(Value::U64(3).add(&Value::U64(4)).unwrap(), Value::U64(7));
        assert_eq!(Value::U64(3).sub(&Value::U64(4)).unwrap(), Value::I64(-1));
        assert_eq!(Value::U64(4).sub(&Value::U64(3)).unwrap(), Value::U64(1));
        assert_eq!(Value::F64(1.5).add(&Value::U64(1)).unwrap(), Value::F64(2.5));
        assert_eq!(Value::I64(-2).mul(&Value::U64(3)).unwrap(), Value::I64(-6));
        assert_eq!(Value::U64(7).div(&Value::U64(2)).unwrap(), Value::U64(3));
        assert_eq!(Value::U64(7).rem(&Value::U64(2)).unwrap(), Value::U64(1));
    }

    #[test]
    fn integer_division_truncates_like_time_bucketing() {
        // time/60 as tb: the window id of t=119 is 1, of t=120 is 2.
        assert_eq!(Value::U64(119).div(&Value::U64(60)).unwrap(), Value::U64(1));
        assert_eq!(Value::U64(120).div(&Value::U64(60)).unwrap(), Value::U64(2));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert_eq!(Value::U64(1).div(&Value::U64(0)), Err(TypeError::DivisionByZero));
        assert_eq!(Value::F64(1.0).div(&Value::F64(0.0)), Err(TypeError::DivisionByZero));
        assert_eq!(Value::U64(1).rem(&Value::U64(0)), Err(TypeError::DivisionByZero));
    }

    #[test]
    fn integer_overflow_is_total() {
        // i64::MIN / -1 overflows: it wraps like `add` / `mul`, it does
        // not panic.
        let (min, neg1) = (Value::I64(i64::MIN), Value::I64(-1));
        assert_eq!(min.div(&neg1).unwrap(), Value::I64(i64::MIN));
        assert_eq!(min.rem(&neg1).unwrap(), Value::I64(0));
        // U64 - U64 keeps its sign however far apart the operands are.
        let big = Value::U64(u64::MAX);
        assert_eq!(Value::U64(0).sub(&big).unwrap(), Value::I64(i64::MIN));
        assert_eq!(Value::U64(5).sub(&Value::U64((1 << 63) + 6)).unwrap(), Value::I64(i64::MIN));
        assert_eq!(Value::U64(0).sub(&Value::U64(1 << 63)).unwrap(), Value::I64(i64::MIN));
        assert_eq!(Value::U64(1).sub(&Value::U64(1 << 63)).unwrap(), Value::I64(i64::MIN + 1));
        assert_eq!(Value::I64(i64::MIN).sub(&Value::I64(1)).unwrap(), Value::I64(i64::MAX));
    }

    #[test]
    fn invalid_operands_error() {
        let err = Value::str("a").add(&Value::U64(1)).unwrap_err();
        assert!(matches!(err, TypeError::InvalidOperands { op: "+", .. }));
    }

    #[test]
    fn comparisons_across_kinds() {
        assert_eq!(Value::U64(5).compare(&Value::I64(5)).unwrap(), CmpOrdering::Equal);
        assert_eq!(Value::I64(-1).compare(&Value::U64(0)).unwrap(), CmpOrdering::Less);
        assert_eq!(Value::F64(2.5).compare(&Value::U64(2)).unwrap(), CmpOrdering::Greater);
        assert_eq!(Value::Null.compare(&Value::U64(0)).unwrap(), CmpOrdering::Less);
        assert_eq!(Value::Null.compare(&Value::Null).unwrap(), CmpOrdering::Equal);
        assert_eq!(Value::str("a").compare(&Value::str("b")).unwrap(), CmpOrdering::Less);
    }

    #[test]
    fn mixed_sign_equality_hashes_consistently() {
        // Required for group keys: equal values must have equal hashes.
        assert_eq!(Value::U64(5), Value::I64(5));
        assert_eq!(hash_of(&Value::U64(5)), hash_of(&Value::I64(5)));
        assert_ne!(Value::I64(-5), Value::U64(5));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Null.truthy());
        assert!(Value::U64(1).truthy());
        assert!(!Value::U64(0).truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::str("").truthy());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::U64(7).as_u64().unwrap(), 7);
        assert_eq!(Value::I64(7).as_u64().unwrap(), 7);
        assert!(Value::I64(-7).as_u64().is_err());
        assert_eq!(Value::F64(7.0).as_u64().unwrap(), 7);
        assert!(Value::F64(7.5).as_u64().is_err());
        assert_eq!(Value::U64(7).as_f64().unwrap(), 7.0);
        assert_eq!(Value::str("hi").as_str().unwrap(), "hi");
        assert!(Value::U64(1).as_str().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::U64(42).to_string(), "42");
        assert_eq!(Value::I64(-1).to_string(), "-1");
        assert_eq!(Value::str("x").to_string(), "x");
    }

    #[test]
    fn value_kind_lattice() {
        use ValueKind::*;
        assert_eq!(Value::U64(1).value_kind(), UInt);
        assert_eq!(Value::F64(1.0).value_kind(), Float);
        assert_eq!(UInt.unify(UInt), UInt);
        assert_eq!(UInt.unify(Float), Float);
        assert_eq!(UInt.unify(Int), Num);
        assert_eq!(Null.unify(Str), Str);
        assert_eq!(Str.unify(UInt), Any);
        assert!(UInt.is_numeric());
        assert!(!Str.is_numeric());
        assert!(Any.is_numeric(), "unknown kinds may be numeric at runtime");
    }

    #[test]
    fn f64_equality_is_bitwise() {
        // NaN == NaN under bitwise semantics, so groups keyed on a float
        // expression cannot multiply without bound.
        let nan = Value::F64(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn total_cmp_orders_every_kind() {
        use CmpOrdering::*;
        let two53 = 1u64 << 53;
        // Exact where `compare` rounds both sides to 2^53.
        assert_eq!(Value::U64(two53 + 1).total_cmp(&Value::F64(two53 as f64)), Greater);
        assert_eq!(Value::F64(two53 as f64).total_cmp(&Value::U64(two53)), Equal);
        assert_eq!(Value::I64(-3).total_cmp(&Value::F64(-2.5)), Less);
        assert_eq!(Value::F64(-0.0).total_cmp(&Value::F64(0.0)), Equal);
        assert_eq!(Value::F64(-0.0).total_cmp(&Value::U64(0)), Equal);
        assert_eq!(Value::Bool(true).total_cmp(&Value::U64(1)), Equal);
        assert_eq!(Value::U64(u64::MAX).total_cmp(&Value::F64(f64::INFINITY)), Less);
        // Null, numbers, NaN, strings.
        assert_eq!(Value::Null.total_cmp(&Value::I64(i64::MIN)), Less);
        assert_eq!(Value::F64(f64::NAN).total_cmp(&Value::F64(f64::INFINITY)), Greater);
        assert_eq!(Value::F64(f64::NAN).total_cmp(&Value::F64(-f64::NAN)), Equal);
        assert_eq!(Value::str("").total_cmp(&Value::F64(f64::NAN)), Greater);
        assert_eq!(Value::str("a").total_cmp(&Value::str("b")), Less);
    }

    /// Values where orders go wrong: NaN, both zeros, integers and
    /// floats around 2^53 (where `f64` stops holding every integer),
    /// strings, booleans and `Null`.
    fn arb_value() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        let two53 = 1u64 << 53;
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            (two53 - 2..two53 + 3).prop_map(Value::U64),
            (0u64..4).prop_map(Value::U64),
            (-3i64..3).prop_map(Value::I64),
            (two53 - 2..two53 + 3).prop_map(|v| Value::F64(v as f64)),
            (0usize..7).prop_map(|i| {
                Value::F64([f64::NAN, -0.0, 0.0, 0.5, -2.5, 1.0, f64::INFINITY][i])
            }),
            (0usize..3).prop_map(|i| Value::str(["", "a", "b"][i])),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 4096,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// `total_cmp` is a total order: antisymmetric and transitive,
        /// and it agrees with `compare` on `U64`s alone and on non-NaN
        /// `F64`s alone.
        #[test]
        fn total_cmp_is_a_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
            use CmpOrdering::*;
            proptest::prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
            let (ab, bc, ac) = (a.total_cmp(&b), b.total_cmp(&c), a.total_cmp(&c));
            if ab != Greater && bc != Greater {
                proptest::prop_assert!(ac != Greater, "{a:?} <= {b:?} <= {c:?} but {ac:?}");
                if ab == Equal && bc == Equal {
                    proptest::prop_assert_eq!(ac, Equal);
                }
            }
            let same_packed_kind = match (&a, &b) {
                (Value::U64(_), Value::U64(_)) => true,
                (Value::F64(x), Value::F64(y)) => !x.is_nan() && !y.is_nan(),
                _ => false,
            };
            if same_packed_kind {
                proptest::prop_assert_eq!(Ok(ab), a.compare(&b));
            }
        }
    }
}
