//! The reservoir-sampling SFUN library (§4.1, §6.6).
//!
//! Vitter's candidate-reservoir formulation: record `t` becomes a
//! *candidate* with probability `n/t`; when the candidate set exceeds
//! `T·n` (the tolerance `10 < T < 40`), a cleaning phase keeps a uniform
//! random `n` of them; the window-border pass does the same. The
//! candidates themselves are the operator's groups — this state only
//! makes the admission and keep decisions.
//!
//! The per-pass exact-subsampling uses Knuth's selection sampling
//! (Algorithm S): group `i` of the pass is kept with probability
//! `still_needed / still_remaining`, which keeps *exactly* `n`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sso_types::wire::{put_u64, Reader};
use sso_types::{Value, ValueKind};

use crate::sfun::args::u64_arg;
use crate::sfun::{state_mut, SfunLibrary, Signature};

/// Configuration for [`library`].
#[derive(Debug, Clone, Copy)]
pub struct ReservoirOpConfig {
    /// Sample size `n`; `0` = take it from `rsample`'s argument.
    pub n: usize,
    /// Candidate tolerance `T` (clean when candidates exceed `T·n`).
    pub t_factor: u32,
    /// Base RNG seed; each supergroup state derives a distinct stream.
    pub seed: u64,
}

impl Default for ReservoirOpConfig {
    fn default() -> Self {
        ReservoirOpConfig { n: 0, t_factor: 25, seed: 0xfeed_5eed }
    }
}

/// The shared state of the reservoir SFUN family.
#[derive(Debug)]
pub struct ReservoirSfunState {
    n: usize,
    t_factor: u32,
    seen: u64,
    rng: StdRng,
    /// Algorithm-S counters of the in-progress cleaning pass.
    keep_left: usize,
    total_left: usize,
    final_started: bool,
    final_subsample: bool,
}

impl ReservoirSfunState {
    /// Serialize, capturing the raw RNG words: `gen_range` rejection
    /// sampling makes draw counts unreproducible, so only exact state
    /// restoration continues the random stream correctly.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(72);
        put_u64(&mut out, self.n as u64);
        put_u64(&mut out, u64::from(self.t_factor));
        put_u64(&mut out, self.seen);
        for w in self.rng.state() {
            put_u64(&mut out, w);
        }
        put_u64(&mut out, self.keep_left as u64);
        put_u64(&mut out, self.total_left as u64);
        out.push(u8::from(self.final_started));
        out.push(u8::from(self.final_subsample));
        out
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let n = r.take_u64().ok()? as usize;
        let t_factor = r.take_u64().ok()? as u32;
        let seen = r.take_u64().ok()?;
        let mut words = [0u64; 4];
        for w in &mut words {
            *w = r.take_u64().ok()?;
        }
        let st = ReservoirSfunState {
            n,
            t_factor,
            seen,
            rng: StdRng::from_state(words),
            keep_left: r.take_u64().ok()? as usize,
            total_left: r.take_u64().ok()? as usize,
            final_started: r.take_u8().ok()? != 0,
            final_subsample: r.take_u8().ok()? != 0,
        };
        r.is_empty().then_some(st)
    }

    fn selection_step(&mut self) -> bool {
        if self.total_left == 0 {
            return false;
        }
        let keep = (self.rng.gen_range(0..self.total_left as u64) as usize) < self.keep_left;
        if keep {
            self.keep_left = self.keep_left.saturating_sub(1);
        }
        self.total_left -= 1;
        keep
    }
}

/// Build the reservoir SFUN library. Reservoir state does not carry
/// across windows; each window samples afresh.
pub fn library(cfg: ReservoirOpConfig) -> SfunLibrary {
    let cfg_n = cfg.n;
    // Distinct deterministic RNG stream per created state. Shared with
    // the persistence hooks so a resumed run hands later states the
    // same per-instance seeds the original run would have.
    let instance = Arc::new(AtomicU64::new(0));
    let aux_enc = Arc::clone(&instance);
    let aux_dec = Arc::clone(&instance);
    SfunLibrary::new("reservoir_sampling_state", move |_prev| {
        let k = instance.fetch_add(1, Ordering::Relaxed);
        Box::new(ReservoirSfunState {
            n: cfg.n,
            t_factor: cfg.t_factor.max(2),
            seen: 0,
            rng: StdRng::seed_from_u64(cfg.seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            keep_left: 0,
            total_left: 0,
            final_started: false,
            final_subsample: false,
        })
    })
    .with_persist(
        |state| state.downcast_ref::<ReservoirSfunState>().map(ReservoirSfunState::encode),
        |bytes| {
            ReservoirSfunState::decode(bytes).map(|s| Box::new(s) as Box<dyn std::any::Any + Send>)
        },
    )
    .with_persist_aux(
        move || {
            let mut out = Vec::with_capacity(8);
            put_u64(&mut out, aux_enc.load(Ordering::Relaxed));
            out
        },
        move |bytes| match Reader::new(bytes).take_u64() {
            Ok(v) => {
                aux_dec.store(v, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        },
    )
    .register_run(
        "rsample",
        // The sample size argument is only needed when the config does
        // not preset it.
        if cfg_n > 0 {
            Signature::range(0, 1, ValueKind::Bool)
        } else {
            Signature::exact(1, ValueKind::Bool)
        },
        #[inline(always)]
        |s: &mut ReservoirSfunState, (): (), argv: &[Value]| {
            if s.n == 0 {
                let n = u64_arg("rsample", argv, 0)? as usize;
                if n == 0 {
                    return Err("rsample: sample size must be positive".to_string());
                }
                s.n = n;
            }
            s.seen += 1;
            let admit = if s.seen <= s.n as u64 {
                true
            } else {
                // Candidate with probability n / t.
                (s.rng.gen::<f64>() * s.seen as f64) < s.n as f64
            };
            Ok(admit)
        },
    )
    .register("rsdo_clean", Signature::exact(1, ValueKind::Bool), |state, argv| {
        let s = state_mut::<ReservoirSfunState>(state, "rsdo_clean")?;
        let count = u64_arg("rsdo_clean", argv, 0)? as usize;
        if s.n > 0 && count > s.t_factor as usize * s.n {
            s.keep_left = s.n;
            s.total_left = count;
            Ok(Value::Bool(true))
        } else {
            Ok(Value::Bool(false))
        }
    })
    .register("rsclean_with", Signature::exact(0, ValueKind::Bool), |state, _argv| {
        let s = state_mut::<ReservoirSfunState>(state, "rsclean_with")?;
        Ok(Value::Bool(s.selection_step()))
    })
    .register("rsfinal_clean", Signature::exact(1, ValueKind::Bool), |state, argv| {
        let s = state_mut::<ReservoirSfunState>(state, "rsfinal_clean")?;
        if !s.final_started {
            s.final_started = true;
            let count = u64_arg("rsfinal_clean", argv, 0)? as usize;
            s.final_subsample = s.n > 0 && count > s.n;
            if s.final_subsample {
                s.keep_left = s.n;
                s.total_left = count;
            }
        }
        let keep = if s.final_subsample { s.selection_step() } else { true };
        Ok(Value::Bool(keep))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfun::run_and_calls;
    use proptest::prelude::*;
    use std::any::Any;

    fn call(lib: &SfunLibrary, state: &mut Box<dyn Any + Send>, f: &str, args: &[Value]) -> Value {
        lib.function(f).expect(f)(state.as_mut(), args).unwrap()
    }

    #[test]
    fn rsample_accepts_first_n_unconditionally() {
        let lib = library(ReservoirOpConfig { n: 5, ..Default::default() });
        let mut st = lib.init_state(None);
        for _ in 0..5 {
            assert_eq!(call(&lib, &mut st, "rsample", &[Value::U64(5)]), Value::Bool(true));
        }
    }

    #[test]
    fn rsample_admission_rate_decays_like_n_over_t() {
        let lib = library(ReservoirOpConfig { n: 50, ..Default::default() });
        let mut st = lib.init_state(None);
        let mut admitted = 0u64;
        let total = 20_000u64;
        for _ in 0..total {
            if call(&lib, &mut st, "rsample", &[Value::U64(50)]) == Value::Bool(true) {
                admitted += 1;
            }
        }
        // E[admissions] = n + n*(H_total - H_n) ~ 50 * (1 + ln(400)) ~ 350.
        assert!(admitted > 150 && admitted < 800, "admitted {admitted}");
    }

    #[test]
    fn rsdo_clean_triggers_past_tolerance() {
        let lib = library(ReservoirOpConfig { n: 10, t_factor: 3, ..Default::default() });
        let mut st = lib.init_state(None);
        call(&lib, &mut st, "rsample", &[Value::U64(10)]);
        assert_eq!(call(&lib, &mut st, "rsdo_clean", &[Value::U64(30)]), Value::Bool(false));
        assert_eq!(call(&lib, &mut st, "rsdo_clean", &[Value::U64(31)]), Value::Bool(true));
    }

    #[test]
    fn cleaning_pass_keeps_exactly_n() {
        let lib = library(ReservoirOpConfig { n: 10, t_factor: 3, ..Default::default() });
        let mut st = lib.init_state(None);
        call(&lib, &mut st, "rsample", &[Value::U64(10)]);
        assert_eq!(call(&lib, &mut st, "rsdo_clean", &[Value::U64(40)]), Value::Bool(true));
        let mut kept = 0;
        for _ in 0..40 {
            if call(&lib, &mut st, "rsclean_with", &[]) == Value::Bool(true) {
                kept += 1;
            }
        }
        assert_eq!(kept, 10, "Algorithm S keeps exactly n");
    }

    #[test]
    fn final_clean_keeps_all_when_small_and_exactly_n_when_large() {
        let lib = library(ReservoirOpConfig { n: 5, ..Default::default() });
        let mut st = lib.init_state(None);
        call(&lib, &mut st, "rsample", &[Value::U64(5)]);
        for _ in 0..3 {
            assert_eq!(call(&lib, &mut st, "rsfinal_clean", &[Value::U64(3)]), Value::Bool(true));
        }
        // New state: over target.
        let mut st = lib.init_state(None);
        call(&lib, &mut st, "rsample", &[Value::U64(5)]);
        let mut kept = 0;
        for _ in 0..20 {
            if call(&lib, &mut st, "rsfinal_clean", &[Value::U64(20)]) == Value::Bool(true) {
                kept += 1;
            }
        }
        assert_eq!(kept, 5);
    }

    #[test]
    fn distinct_states_use_distinct_random_streams() {
        let lib = library(ReservoirOpConfig { n: 10, ..Default::default() });
        let mut a = lib.init_state(None);
        let mut b = lib.init_state(None);
        let run = |st: &mut Box<dyn Any + Send>, lib: &SfunLibrary| {
            (0..200)
                .map(|_| call(lib, st, "rsample", &[Value::U64(10)]) == Value::Bool(true))
                .collect::<Vec<_>>()
        };
        assert_ne!(run(&mut a, &lib), run(&mut b, &lib));
    }

    #[test]
    fn zero_n_is_rejected() {
        let lib = library(ReservoirOpConfig::default());
        let mut st = lib.init_state(None);
        let f = lib.function("rsample").unwrap();
        assert!(f(st.as_mut(), &[Value::U64(0)]).unwrap_err().contains("positive"));
    }

    /// A state as `decode` rebuilds it from arbitrary field values: a
    /// sample size of 0 (so `rsample`'s argument sets it), any RNG words,
    /// a cleaning pass in progress.
    fn any_state() -> impl Strategy<Value = Vec<u8>> {
        let size = || prop_oneof![Just(0usize), 1usize..50, 0usize..1 << 40];
        let words = (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>());
        let flags = (any::<bool>(), any::<bool>());
        let sizes = (size(), any::<u32>(), prop_oneof![0u64..100, 0u64..1 << 40], size(), size());
        (sizes, words, flags).prop_map(|(sizes, (a, b, c, d), flags)| {
            let (n, t_factor, seen, keep_left, total_left) = sizes;
            let (final_started, final_subsample) = flags;
            let rng = StdRng::from_state([a, b, c, d]);
            let st = ReservoirSfunState {
                n,
                t_factor,
                seen,
                rng,
                keep_left,
                total_left,
                final_started,
                final_subsample,
            };
            st.encode()
        })
    }

    /// `rsample()` or `rsample(n)`, `n` now and then 0.
    fn argv() -> impl Strategy<Value = Vec<Value>> {
        let n = prop_oneof![Just(None), Just(Some(0u64)), (1u64..50).prop_map(Some)];
        n.prop_map(|n| n.map(Value::U64).into_iter().collect())
    }

    proptest! {
        #[test]
        fn rsample_run_form_is_its_calls(
            state in any_state(),
            column in proptest::collection::vec(any::<u64>(), 0..64),
            argv in argv(),
        ) {
            let lib = library(ReservoirOpConfig::default());
            let [run, calls] = run_and_calls(&lib, "rsample", &state, &column, &argv);
            prop_assert_eq!(run, calls);
        }
    }
}
