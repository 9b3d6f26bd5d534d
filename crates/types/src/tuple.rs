//! Positional tuples of [`Value`]s.

use crate::error::TypeError;
use crate::schema::Schema;
use crate::value::Value;

/// A positional row of values, interpreted against a [`Schema`].
///
/// Group keys are also represented as `Tuple`s (of the group-by
/// expression values), so `Tuple` implements `Hash`/`Eq` with the
/// cross-signedness equivalence of [`Value`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// An empty tuple (the key of the `ALL` supergroup).
    pub fn empty() -> Self {
        Tuple { values: Vec::new() }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// `true` if the tuple has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at `idx`, or `Null` past the end.
    pub fn get(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.values.get(idx).unwrap_or(&NULL)
    }

    /// The value of the named column under `schema`.
    pub fn get_named(&self, schema: &Schema, name: &str) -> Result<&Value, TypeError> {
        let idx = schema.index_of(name)?;
        if idx >= self.values.len() {
            return Err(TypeError::ArityMismatch {
                expected: schema.arity(),
                actual: self.values.len(),
            });
        }
        Ok(&self.values[idx])
    }

    /// Check that this tuple matches the schema's arity.
    pub fn check_arity(&self, schema: &Schema) -> Result<(), TypeError> {
        if self.values.len() == schema.arity() {
            Ok(())
        } else {
            Err(TypeError::ArityMismatch { expected: schema.arity(), actual: self.values.len() })
        }
    }

    /// Overwrite the value at `idx` (e.g. a sampling stage adjusting a
    /// tuple's measure attribute, as basic subset-sum sampling does when
    /// it "sets t.x to z").
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn set(&mut self, idx: usize, value: Value) {
        self.values[idx] = value;
    }

    /// Overwrite the tuple with unsigned integers, keeping the value
    /// buffer: whatever it held is released (a `Str`'s `Arc` is
    /// dropped), and a tuple that already had room for `N` values is
    /// rewritten without allocating. Each value is written straight
    /// into its slot — building a `[Value; N]` first costs a stalled
    /// load per value when it is copied out again.
    pub fn refill_u64<const N: usize>(&mut self, values: [u64; N]) {
        self.values.truncate(N);
        let kept = self.values.len();
        for (slot, v) in self.values.iter_mut().zip(values) {
            *slot = Value::U64(v);
        }
        self.values.extend(values[kept..].iter().map(|&v| Value::U64(v)));
    }

    /// Project the given indices into a new tuple (used to build group and
    /// supergroup keys).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.get(i).clone()).collect())
    }

    /// Consume into the underlying values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

// Lets hash maps keyed by `Tuple` be probed with a borrowed value slice,
// so per-tuple hot paths can look up group keys without allocating a
// `Tuple`. Sound because the derived `Hash`/`Eq` delegate to the inner
// `Vec<Value>`, which hashes and compares exactly like its slice.
impl std::borrow::Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl std::fmt::Display for Tuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, FieldType};

    fn schema() -> Schema {
        Schema::new("T", vec![Field::new("a", FieldType::U64), Field::new("b", FieldType::Str)])
    }

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn named_access() {
        let tup = t(vec![Value::U64(1), Value::str("x")]);
        let s = schema();
        assert_eq!(tup.get_named(&s, "a").unwrap(), &Value::U64(1));
        assert_eq!(tup.get_named(&s, "b").unwrap(), &Value::str("x"));
        assert!(tup.get_named(&s, "c").is_err());
    }

    #[test]
    fn arity_mismatch_detected() {
        let tup = t(vec![Value::U64(1)]);
        let s = schema();
        assert!(tup.check_arity(&s).is_err());
        assert!(matches!(tup.get_named(&s, "b"), Err(TypeError::ArityMismatch { .. })));
        let ok = t(vec![Value::U64(1), Value::str("x")]);
        assert!(ok.check_arity(&s).is_ok());
    }

    #[test]
    fn out_of_range_get_is_null() {
        let tup = t(vec![Value::U64(1)]);
        assert_eq!(tup.get(5), &Value::Null);
    }

    #[test]
    fn projection_builds_keys() {
        let tup = t(vec![Value::U64(1), Value::U64(2), Value::U64(3)]);
        assert_eq!(tup.project(&[2, 0]), t(vec![Value::U64(3), Value::U64(1)]));
        assert_eq!(tup.project(&[]), Tuple::empty());
    }

    #[test]
    fn display() {
        let tup = t(vec![Value::U64(1), Value::str("x")]);
        assert_eq!(tup.to_string(), "(1, x)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    #[test]
    fn tuples_hash_as_group_keys() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(t(vec![Value::U64(5)]));
        // Mixed-signedness equal values must dedupe.
        assert!(!set.insert(t(vec![Value::I64(5)])));
        assert!(set.insert(t(vec![Value::I64(-5)])));
    }
}
