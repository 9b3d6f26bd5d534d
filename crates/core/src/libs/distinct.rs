//! The distinct-sampling SFUN library (Gibbons, VLDB 2001 — the paper's
//! reference \[19\]), hosted on the operator.
//!
//! The retained distinct values are the operator's *groups*; this state
//! holds only the hash-level threshold `L`. The query shape is another
//! instance of the paper's admit/clean/finalize skeleton:
//!
//! ```text
//! SELECT tb, x, count(*), dscale()
//! FROM S
//! WHERE dsample(x) = TRUE                     -- level(h(x)) >= L
//! GROUP BY time/w as tb, x
//! CLEANING WHEN ddo_clean(count_distinct$(*)) = TRUE   -- sample overflow
//! CLEANING BY dclean_with(x) = TRUE           -- level(h(x)) >= raised L
//! ```
//!
//! Estimators: distinct count = `count_distinct$(*) · dscale()`; an
//! *event report* for value `x` is `count(*) · dscale()`.

use sso_sampling::hash::splitmix64;
use sso_types::wire::{put_u64, Reader};
use sso_types::{Value, ValueKind};

use crate::sfun::args::u64_arg;
use crate::sfun::{state_mut, state_ref, SfunLibrary, Signature};

/// Configuration for [`library`].
#[derive(Debug, Clone, Copy)]
pub struct DistinctOpConfig {
    /// Sample-size budget (distinct values retained); `0` = take it
    /// from `dsample`'s second argument on first call.
    pub capacity: usize,
    /// Carry the previous window's level (minus one, as a warm start)
    /// into the next window, analogous to the relaxed subset-sum
    /// threshold carry-over. `false` = restart at level 0 each window.
    pub carry_level: bool,
}

impl Default for DistinctOpConfig {
    fn default() -> Self {
        DistinctOpConfig { capacity: 0, carry_level: true }
    }
}

/// The shared state: the current hash-level threshold.
#[derive(Debug, Clone)]
pub struct DistinctSfunState {
    capacity: usize,
    /// Current level `L`: values with fewer than `L` trailing zero bits
    /// in their hash are rejected.
    pub level: u32,
}

impl DistinctSfunState {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        put_u64(&mut out, self.capacity as u64);
        put_u64(&mut out, u64::from(self.level));
        out
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let st = DistinctSfunState {
            capacity: r.take_u64().ok()? as usize,
            level: r.take_u64().ok()? as u32,
        };
        r.is_empty().then_some(st)
    }
}

fn value_level(v: u64) -> u32 {
    splitmix64(v).trailing_zeros()
}

/// Build the distinct-sampling SFUN library.
pub fn library(cfg: DistinctOpConfig) -> SfunLibrary {
    let cfg_capacity = cfg.capacity;
    SfunLibrary::new("distinct_sampling_state", move |prev| {
        let level = match prev.and_then(|p| p.downcast_ref::<DistinctSfunState>()) {
            Some(old) if cfg.carry_level => old.level.saturating_sub(1),
            _ => 0,
        };
        let capacity = prev
            .and_then(|p| p.downcast_ref::<DistinctSfunState>())
            .map(|o| o.capacity)
            .unwrap_or(cfg.capacity);
        Box::new(DistinctSfunState { capacity, level })
    })
    .with_persist(
        |state| state.downcast_ref::<DistinctSfunState>().map(DistinctSfunState::encode),
        |bytes| {
            DistinctSfunState::decode(bytes).map(|s| Box::new(s) as Box<dyn std::any::Any + Send>)
        },
    )
    .register(
        "dsample",
        // Second (capacity) argument is only needed when the config
        // does not preset it.
        if cfg_capacity > 0 {
            Signature::range(1, 2, ValueKind::Bool)
        } else {
            Signature::exact(2, ValueKind::Bool)
        },
        |state, argv| {
            let s = state_mut::<DistinctSfunState>(state, "dsample")?;
            let v = u64_arg("dsample", argv, 0)?;
            if s.capacity == 0 {
                let cap = u64_arg("dsample", argv, 1)? as usize;
                if cap == 0 {
                    return Err("dsample: capacity must be positive".to_string());
                }
                s.capacity = cap;
            }
            Ok(Value::Bool(value_level(v) >= s.level))
        },
    )
    .register("ddo_clean", Signature::exact(1, ValueKind::Bool), |state, argv| {
        let s = state_mut::<DistinctSfunState>(state, "ddo_clean")?;
        let count = u64_arg("ddo_clean", argv, 0)? as usize;
        if s.capacity > 0 && count > s.capacity {
            s.level += 1;
            Ok(Value::Bool(true))
        } else {
            Ok(Value::Bool(false))
        }
    })
    .register("dclean_with", Signature::exact(1, ValueKind::Bool), |state, argv| {
        let s = state_mut::<DistinctSfunState>(state, "dclean_with")?;
        let v = u64_arg("dclean_with", argv, 0)?;
        Ok(Value::Bool(value_level(v) >= s.level))
    })
    .register_read_only("dlevel", Signature::exact(0, ValueKind::UInt), |state, _argv| {
        let s = state_ref::<DistinctSfunState>(state, "dlevel")?;
        Ok(Value::U64(s.level as u64))
    })
    .register_read_only("dscale", Signature::exact(0, ValueKind::UInt), |state, _argv| {
        let s = state_ref::<DistinctSfunState>(state, "dscale")?;
        Ok(Value::U64(1u64 << s.level))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    fn call(lib: &SfunLibrary, state: &mut Box<dyn Any + Send>, f: &str, args: &[Value]) -> Value {
        lib.function(f).expect(f)(state.as_mut(), args).unwrap()
    }

    #[test]
    fn level_zero_admits_everything() {
        let lib = library(DistinctOpConfig { capacity: 100, ..Default::default() });
        let mut st = lib.init_state(None);
        for v in 0..50u64 {
            assert_eq!(call(&lib, &mut st, "dsample", &[Value::U64(v)]), Value::Bool(true));
        }
        assert_eq!(call(&lib, &mut st, "dscale", &[]), Value::U64(1));
    }

    #[test]
    fn ddo_clean_raises_level_on_overflow() {
        let lib = library(DistinctOpConfig { capacity: 10, ..Default::default() });
        let mut st = lib.init_state(None);
        assert_eq!(call(&lib, &mut st, "ddo_clean", &[Value::U64(10)]), Value::Bool(false));
        assert_eq!(call(&lib, &mut st, "ddo_clean", &[Value::U64(11)]), Value::Bool(true));
        assert_eq!(call(&lib, &mut st, "dlevel", &[]), Value::U64(1));
        assert_eq!(call(&lib, &mut st, "dscale", &[]), Value::U64(2));
    }

    #[test]
    fn clean_with_rejects_about_half_at_level_one() {
        let lib = library(DistinctOpConfig { capacity: 1, ..Default::default() });
        let mut st = lib.init_state(None);
        call(&lib, &mut st, "ddo_clean", &[Value::U64(2)]); // -> level 1
        let kept = (0..10_000u64)
            .filter(|&v| call(&lib, &mut st, "dclean_with", &[Value::U64(v)]) == Value::Bool(true))
            .count();
        let frac = kept as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "level-1 keep fraction {frac}");
    }

    #[test]
    fn lazy_capacity_from_dsample() {
        let lib = library(DistinctOpConfig::default());
        let mut st = lib.init_state(None);
        call(&lib, &mut st, "dsample", &[Value::U64(1), Value::U64(64)]);
        assert_eq!(st.downcast_ref::<DistinctSfunState>().unwrap().capacity, 64);
        let f = lib.function("dsample").unwrap();
        let mut st2 = lib.init_state(None);
        assert!(f(st2.as_mut(), &[Value::U64(1), Value::U64(0)]).unwrap_err().contains("positive"));
    }

    #[test]
    fn carry_over_warm_starts_one_level_below() {
        let lib = library(DistinctOpConfig { capacity: 8, carry_level: true });
        let mut old = lib.init_state(None);
        old.downcast_mut::<DistinctSfunState>().unwrap().level = 5;
        let next = lib.init_state(Some(old.as_ref()));
        assert_eq!(next.downcast_ref::<DistinctSfunState>().unwrap().level, 4);

        let lib = library(DistinctOpConfig { capacity: 8, carry_level: false });
        let mut old = lib.init_state(None);
        old.downcast_mut::<DistinctSfunState>().unwrap().level = 5;
        let next = lib.init_state(Some(old.as_ref()));
        assert_eq!(next.downcast_ref::<DistinctSfunState>().unwrap().level, 0);
    }
}
