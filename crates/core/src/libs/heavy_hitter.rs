//! The heavy-hitter (lossy counting) SFUN library (§4.2, §6.6).
//!
//! Manku–Motwani lossy counting maps onto the operator with almost no
//! special machinery: the groups *are* the tracked entries, `count(*)`
//! is the entry frequency `f`, and `first(current_bucket())` is the
//! bucket in which the entry was created (so `Δ = first - 1`). The only
//! stateful pieces are the per-window tuple counter and bucket id:
//!
//! * `local_count(w)` — increments the counter; `TRUE` once every `w`
//!   tuples, i.e. at every bucket boundary (the CLEANING WHEN trigger);
//! * `current_bucket()` — the 1-based id of the bucket the *next* tuple
//!   falls in (`count/w + 1`), which equals `⌈i/w⌉` when evaluated
//!   before `local_count` increments for tuple `i`.
//!
//! The prune rule is then the ordinary CLEANING BY expression
//!
//! ```text
//! CLEANING BY count(*) + first(current_bucket()) > current_bucket()
//! ```
//!
//! which is exactly lossy counting's *keep* condition `f + Δ > b`.
//! (The paper's §6.6 example writes the *delete* condition with `<`;
//! under the operator's false-means-evict semantics the keep form above
//! is the consistent one.)

use sso_types::wire::{put_u64, Reader};
use sso_types::{Value, ValueKind};

use crate::sfun::args::u64_arg;
use crate::sfun::{state_mut, state_ref, SfunLibrary, Signature};

/// The shared state: bucket width and per-window tuple count.
#[derive(Debug, Clone, Default)]
pub struct HeavyHitterState {
    /// Bucket width `w = ⌈1/ε⌉`; set lazily from `local_count`'s
    /// argument.
    pub w: u64,
    /// Tuples processed this window.
    pub count: u64,
}

impl HeavyHitterState {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        put_u64(&mut out, self.w);
        put_u64(&mut out, self.count);
        out
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let st = HeavyHitterState { w: r.take_u64().ok()?, count: r.take_u64().ok()? };
        r.is_empty().then_some(st)
    }
}

/// Build the heavy-hitter SFUN library. State is per-window (no
/// carry-over): the paper's query emits its report every window.
pub fn library() -> SfunLibrary {
    SfunLibrary::new("heavy_hitter_state", |_prev| Box::new(HeavyHitterState::default()))
        .with_persist(
            |state| state.downcast_ref::<HeavyHitterState>().map(HeavyHitterState::encode),
            |bytes| {
                HeavyHitterState::decode(bytes)
                    .map(|s| Box::new(s) as Box<dyn std::any::Any + Send>)
            },
        )
        .register("local_count", Signature::exact(1, ValueKind::Bool), |state, argv| {
            let s = state_mut::<HeavyHitterState>(state, "local_count")?;
            if s.w == 0 {
                let w = u64_arg("local_count", argv, 0)?;
                if w == 0 {
                    return Err("local_count: bucket width must be positive".to_string());
                }
                s.w = w;
            }
            s.count += 1;
            Ok(Value::Bool(s.count % s.w == 0))
        })
        .register_read_only(
            "current_bucket",
            Signature::exact(0, ValueKind::UInt),
            |state, _argv| {
                let s = state_ref::<HeavyHitterState>(state, "current_bucket")?;
                if s.w == 0 {
                    // Before the first local_count call everything is in
                    // bucket 1.
                    return Ok(Value::U64(1));
                }
                Ok(Value::U64(s.count / s.w + 1))
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    fn call(lib: &SfunLibrary, state: &mut Box<dyn Any + Send>, f: &str, args: &[Value]) -> Value {
        lib.function(f).expect(f)(state.as_mut(), args).unwrap()
    }

    #[test]
    fn local_count_fires_every_w_tuples() {
        let lib = library();
        let mut st = lib.init_state(None);
        let mut fires = Vec::new();
        for i in 1..=10u64 {
            if call(&lib, &mut st, "local_count", &[Value::U64(3)]) == Value::Bool(true) {
                fires.push(i);
            }
        }
        assert_eq!(fires, vec![3, 6, 9]);
    }

    #[test]
    fn current_bucket_is_one_before_anything() {
        let lib = library();
        let mut st = lib.init_state(None);
        assert_eq!(call(&lib, &mut st, "current_bucket", &[]), Value::U64(1));
    }

    #[test]
    fn bucket_ids_advance_per_w_tuples() {
        let lib = library();
        let mut st = lib.init_state(None);
        // current_bucket is evaluated before local_count for each tuple
        // (aggregate updates precede CLEANING WHEN in the operator loop).
        let mut seen = Vec::new();
        for _ in 0..7 {
            seen.push(call(&lib, &mut st, "current_bucket", &[]).as_u64().unwrap());
            call(&lib, &mut st, "local_count", &[Value::U64(3)]);
        }
        // Tuples 1..=7 with w=3: buckets 1,1,1,2,2,2,3.
        assert_eq!(seen, vec![1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn keep_rule_matches_lossy_counting() {
        // Simulate the CLEANING BY expression f + first > current for an
        // entry inserted in bucket 1 with f = 1: at the end of bucket 1
        // (count = w, current_bucket = 2 after increment... evaluated in
        // the cleaning pass, count/w+1 = 2), keep iff 1 + 1 > 2 = false:
        // pruned, matching f + Δ <= b_current with Δ = 0, b = 1... keep
        // iff f + Δ > b  ⇔  1 + 0 > 1 = false.
        let lib = library();
        let mut st = lib.init_state(None);
        for _ in 0..3 {
            call(&lib, &mut st, "local_count", &[Value::U64(3)]);
        }
        let current = call(&lib, &mut st, "current_bucket", &[]).as_u64().unwrap();
        assert_eq!(current, 2);
        let f = 1u64;
        let first = 1u64;
        assert!(f + first <= current, "singleton from bucket 1 is pruned");
        let f_heavy = 3u64;
        assert!(f_heavy + first > current, "heavy entry survives");
    }

    #[test]
    fn zero_width_rejected() {
        let lib = library();
        let mut st = lib.init_state(None);
        let f = lib.function("local_count").unwrap();
        assert!(f(st.as_mut(), &[Value::U64(0)]).unwrap_err().contains("positive"));
    }
}
