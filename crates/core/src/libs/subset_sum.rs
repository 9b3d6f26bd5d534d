//! The subset-sum sampling SFUN library (§6.1, §6.5).
//!
//! The sample itself lives in the operator's group table (every packet is
//! its own group via `uts`); this state holds only the control variables:
//! the threshold `z`, the previous threshold `z_prev` (used to re-weight
//! retained samples during cleaning), the small-tuple counters, and the
//! bookkeeping needed for the aggressive threshold adjustment and the
//! relaxed/non-relaxed cross-window carry-over.
//!
//! Functions (mirroring the paper's declarations):
//!
//! | SFUN | clause | effect |
//! |---|---|---|
//! | `ssample(len, N)` | WHERE | basic threshold-sampling admission test |
//! | `ssdo_clean(count_distinct$(*))` | CLEANING WHEN | trigger + threshold raise when the sample exceeds `γ·N` |
//! | `ssclean_with(sum(len))` | CLEANING BY | per-group keep decision of the cleaning subsample |
//! | `ssfinal_clean(sum(len), count_distinct$(*))` | HAVING | final subsample at the window border |
//! | `ssthreshold()` | SELECT | the final threshold (for `UMAX(sum(len), ssthreshold())`) |
//! | `sscleanings()` | SELECT | cleaning phases this window (Figure 4's metric) |

use sso_sampling::subset_sum::ThresholdCarry;
use sso_types::wire::{put_f64, put_u32, put_u64, Reader};
use sso_types::{Value, ValueKind};

use crate::sfun::args::{f64_arg, u64_arg};
use crate::sfun::{state_mut, state_ref, SfunLibrary, SfunTelemetry, Signature};

/// Configuration for [`library`].
#[derive(Debug, Clone, Copy)]
pub struct SubsetSumOpConfig {
    /// Desired samples per window; `0` = take it from `ssample`'s second
    /// argument on first call.
    pub target: usize,
    /// Cleaning trigger multiplier γ (paper: 2).
    pub gamma: f64,
    /// First window's threshold.
    pub initial_z: f64,
    /// Cross-window relaxation factor `f` (1 = non-relaxed, paper: 10).
    pub relax_factor: f64,
}

impl Default for SubsetSumOpConfig {
    fn default() -> Self {
        SubsetSumOpConfig { target: 0, gamma: 2.0, initial_z: 0.0, relax_factor: 10.0 }
    }
}

impl SubsetSumOpConfig {
    /// Non-relaxed variant (`f = 1`).
    pub fn non_relaxed(mut self) -> Self {
        self.relax_factor = 1.0;
        self
    }
}

/// The shared state of the subset-sum SFUN family.
#[derive(Debug, Clone)]
pub struct SubsetSumSfunState {
    cfg: SubsetSumOpConfig,
    target: usize,
    /// Current threshold.
    pub z: f64,
    /// Threshold before the most recent adjustment (re-weighting floor).
    pub z_prev: f64,
    /// Small-tuple admission counter.
    admit_counter: f64,
    /// Small-tuple counter of the in-progress cleaning pass.
    clean_counter: f64,
    /// Σ effective weights of the current sample (for bootstrap adjust).
    sample_weight: f64,
    /// Samples with effective weight above `z`.
    big_count: usize,
    /// Accumulators being rebuilt by an in-progress cleaning pass.
    pass_weight: f64,
    pass_big: usize,
    in_pass: bool,
    /// Whether the final (window-border) pass subsamples or keeps all.
    final_started: bool,
    final_subsample: bool,
    /// Tuples admitted this window (Figure 3's metric).
    pub admissions: u64,
    /// Tuples offered this window.
    pub offered: u64,
    /// Cleaning phases this window, including the final one (Figure 4).
    pub cleanings: u32,
    /// Groups kept by the final pass (drives the carry-over).
    pub final_kept: u64,
}

impl SubsetSumSfunState {
    fn new(cfg: SubsetSumOpConfig, z: f64) -> Self {
        SubsetSumSfunState {
            cfg,
            target: cfg.target,
            z,
            z_prev: z,
            admit_counter: 0.0,
            clean_counter: 0.0,
            sample_weight: 0.0,
            big_count: 0,
            pass_weight: 0.0,
            pass_big: 0,
            in_pass: false,
            final_started: false,
            final_subsample: false,
            admissions: 0,
            offered: 0,
            cleanings: 0,
            final_kept: 0,
        }
    }

    /// Fold a finished cleaning pass's accumulators into the live stats.
    fn fold_pass(&mut self) {
        if self.in_pass {
            self.sample_weight = self.pass_weight;
            self.big_count = self.pass_big;
            self.in_pass = false;
        }
    }

    /// The paper's aggressive threshold adjustment toward `target`
    /// retained samples, given the current sample size `s`.
    fn target_z(&self, s: usize) -> f64 {
        let m = self.target.max(1);
        let b = self.big_count.min(s);
        if self.z > 0.0 && b < m {
            self.z * (1.0f64).max((s.saturating_sub(b)) as f64 / (m - b) as f64)
        } else {
            // Bootstrap (z = 0 or everything is "big"): the threshold
            // under which the sample's total effective weight yields ~m
            // expected samples.
            (self.sample_weight / m as f64).max(self.z * 1.05).max(f64::MIN_POSITIVE)
        }
    }

    /// Begin a cleaning pass at sample size `s`: raise the threshold and
    /// reset the pass accumulators.
    fn begin_clean(&mut self, s: usize) {
        self.fold_pass();
        self.z_prev = self.z;
        self.z = self.target_z(s);
        self.clean_counter = 0.0;
        self.pass_weight = 0.0;
        self.pass_big = 0;
        self.in_pass = true;
        self.cleanings += 1;
    }

    /// One keep decision of a cleaning pass (shared by `ssclean_with`
    /// and the subsampling branch of `ssfinal_clean`).
    fn clean_keep(&mut self, weight: f64) -> bool {
        let eff = weight.max(self.z_prev);
        let keep = if eff > self.z {
            true
        } else {
            self.clean_counter += eff;
            if self.clean_counter > self.z {
                self.clean_counter -= self.z;
                true
            } else {
                false
            }
        };
        if keep {
            self.pass_weight += eff.max(self.z);
            self.pass_big += (eff > self.z) as usize;
        }
        keep
    }

    /// Serialize every field (threshold trajectory, pass accumulators,
    /// counters) so a restored state continues the stream byte-exactly.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(136);
        put_u64(&mut out, self.cfg.target as u64);
        put_f64(&mut out, self.cfg.gamma);
        put_f64(&mut out, self.cfg.initial_z);
        put_f64(&mut out, self.cfg.relax_factor);
        put_u64(&mut out, self.target as u64);
        put_f64(&mut out, self.z);
        put_f64(&mut out, self.z_prev);
        put_f64(&mut out, self.admit_counter);
        put_f64(&mut out, self.clean_counter);
        put_f64(&mut out, self.sample_weight);
        put_u64(&mut out, self.big_count as u64);
        put_f64(&mut out, self.pass_weight);
        put_u64(&mut out, self.pass_big as u64);
        out.push(u8::from(self.in_pass));
        out.push(u8::from(self.final_started));
        out.push(u8::from(self.final_subsample));
        put_u64(&mut out, self.admissions);
        put_u64(&mut out, self.offered);
        put_u32(&mut out, self.cleanings);
        put_u64(&mut out, self.final_kept);
        out
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let cfg = SubsetSumOpConfig {
            target: r.take_u64().ok()? as usize,
            gamma: r.take_f64().ok()?,
            initial_z: r.take_f64().ok()?,
            relax_factor: r.take_f64().ok()?,
        };
        let mut st = SubsetSumSfunState::new(cfg, 0.0);
        st.target = r.take_u64().ok()? as usize;
        st.z = r.take_f64().ok()?;
        st.z_prev = r.take_f64().ok()?;
        st.admit_counter = r.take_f64().ok()?;
        st.clean_counter = r.take_f64().ok()?;
        st.sample_weight = r.take_f64().ok()?;
        st.big_count = r.take_u64().ok()? as usize;
        st.pass_weight = r.take_f64().ok()?;
        st.pass_big = r.take_u64().ok()? as usize;
        st.in_pass = r.take_u8().ok()? != 0;
        st.final_started = r.take_u8().ok()? != 0;
        st.final_subsample = r.take_u8().ok()? != 0;
        st.admissions = r.take_u64().ok()?;
        st.offered = r.take_u64().ok()?;
        st.cleanings = r.take_u32().ok()?;
        st.final_kept = r.take_u64().ok()?;
        r.is_empty().then_some(st)
    }

    /// Admission decision for a tuple of the given weight.
    fn admit(&mut self, weight: f64) -> bool {
        self.fold_pass();
        self.offered += 1;
        let admit = if weight > self.z {
            true
        } else {
            self.admit_counter += weight;
            if self.admit_counter > self.z {
                self.admit_counter -= self.z;
                true
            } else {
                false
            }
        };
        if admit {
            self.admissions += 1;
            self.sample_weight += weight.max(self.z);
            self.big_count += (weight > self.z) as usize;
        }
        admit
    }
}

/// Build the subset-sum SFUN library. Each supergroup gets one
/// [`SubsetSumSfunState`]; a supergroup recurring in the next window
/// inherits a threshold via the configured [`ThresholdCarry`].
pub fn library(cfg: SubsetSumOpConfig) -> SfunLibrary {
    let cfg_target = cfg.target;
    SfunLibrary::new("subsetsum_sampling_state", move |prev| {
        let z = match prev.and_then(|p| p.downcast_ref::<SubsetSumSfunState>()) {
            Some(old) => ThresholdCarry { relax_factor: cfg.relax_factor }.next_z(
                old.z,
                old.final_kept as usize,
                old.target.max(1),
            ),
            None => cfg.initial_z,
        };
        let mut st = SubsetSumSfunState::new(cfg, z);
        if let Some(old) = prev.and_then(|p| p.downcast_ref::<SubsetSumSfunState>()) {
            st.target = old.target;
        }
        Box::new(st)
    })
    .with_window_end(|state| {
        if let Some(s) = state.downcast_mut::<SubsetSumSfunState>() {
            s.fold_pass();
            s.final_started = false;
            s.final_kept = 0;
        }
    })
    .with_persist(
        |state| state.downcast_ref::<SubsetSumSfunState>().map(SubsetSumSfunState::encode),
        |bytes| {
            SubsetSumSfunState::decode(bytes).map(|s| Box::new(s) as Box<dyn std::any::Any + Send>)
        },
    )
    .with_telemetry(|state| {
        state.downcast_ref::<SubsetSumSfunState>().map(|s| SfunTelemetry {
            threshold: s.z,
            achieved: s.final_kept,
            target: s.target as u64,
            offered: s.offered,
            cleanings: s.cleanings as u64,
        })
    })
    .register_run(
        "ssample",
        // Second (target sample size) argument is only needed when the
        // config does not preset it.
        if cfg_target > 0 {
            Signature::range(1, 2, ValueKind::Bool)
        } else {
            Signature::exact(2, ValueKind::Bool)
        },
        #[inline(always)]
        |s: &mut SubsetSumSfunState, len: f64, argv: &[Value]| {
            if s.target == 0 {
                let n = u64_arg("ssample", argv, 1)? as usize;
                if n == 0 {
                    return Err("ssample: sample size must be positive".to_string());
                }
                s.target = n;
            }
            Ok(s.admit(len))
        },
    )
    .register("ssdo_clean", Signature::exact(1, ValueKind::Bool), |state, argv| {
        let s = state_mut::<SubsetSumSfunState>(state, "ssdo_clean")?;
        s.fold_pass();
        let count = u64_arg("ssdo_clean", argv, 0)? as usize;
        if s.target > 0 && count as f64 > s.cfg.gamma * s.target as f64 {
            s.begin_clean(count);
            Ok(Value::Bool(true))
        } else {
            Ok(Value::Bool(false))
        }
    })
    .register("ssclean_with", Signature::exact(1, ValueKind::Bool), |state, argv| {
        let s = state_mut::<SubsetSumSfunState>(state, "ssclean_with")?;
        let w = f64_arg("ssclean_with", argv, 0)?;
        Ok(Value::Bool(s.clean_keep(w)))
    })
    .register("ssfinal_clean", Signature::exact(2, ValueKind::Bool), |state, argv| {
        let s = state_mut::<SubsetSumSfunState>(state, "ssfinal_clean")?;
        let w = f64_arg("ssfinal_clean", argv, 0)?;
        let count = u64_arg("ssfinal_clean", argv, 1)? as usize;
        if !s.final_started {
            s.final_started = true;
            s.final_subsample = s.target > 0 && count > s.target;
            if s.final_subsample {
                s.begin_clean(count);
            }
        }
        let keep = if s.final_subsample { s.clean_keep(w) } else { true };
        if keep {
            s.final_kept += 1;
        }
        Ok(Value::Bool(keep))
    })
    .register_read_only("ssthreshold", Signature::exact(0, ValueKind::Float), |state, _argv| {
        let s = state_ref::<SubsetSumSfunState>(state, "ssthreshold")?;
        Ok(Value::F64(s.z))
    })
    .register_read_only("sscleanings", Signature::exact(0, ValueKind::UInt), |state, _argv| {
        let s = state_ref::<SubsetSumSfunState>(state, "sscleanings")?;
        Ok(Value::U64(s.cleanings as u64))
    })
    .register_read_only(
        "ssadmissions",
        Signature::exact(0, ValueKind::UInt),
        |state, _argv| {
            let s = state_ref::<SubsetSumSfunState>(state, "ssadmissions")?;
            Ok(Value::U64(s.admissions))
        },
    )
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::sfun::run_and_calls;

    fn call(
        lib: &SfunLibrary,
        state: &mut Box<dyn std::any::Any + Send>,
        f: &str,
        args: &[Value],
    ) -> Value {
        lib.function(f).expect(f)(state.as_mut(), args).unwrap()
    }

    #[test]
    fn ssample_admits_large_and_meters_small() {
        let lib = library(SubsetSumOpConfig { initial_z: 100.0, target: 10, ..Default::default() });
        let mut st = lib.init_state(None);
        assert_eq!(
            call(&lib, &mut st, "ssample", &[Value::U64(500), Value::U64(10)]),
            Value::Bool(true)
        );
        // 40+40 = 80 <= 100 -> no; +40 = 120 > 100 -> yes.
        assert_eq!(
            call(&lib, &mut st, "ssample", &[Value::U64(40), Value::U64(10)]),
            Value::Bool(false)
        );
        assert_eq!(
            call(&lib, &mut st, "ssample", &[Value::U64(40), Value::U64(10)]),
            Value::Bool(false)
        );
        assert_eq!(
            call(&lib, &mut st, "ssample", &[Value::U64(40), Value::U64(10)]),
            Value::Bool(true)
        );
    }

    #[test]
    fn lazy_target_from_ssample_arg() {
        let lib = library(SubsetSumOpConfig::default());
        let mut st = lib.init_state(None);
        call(&lib, &mut st, "ssample", &[Value::U64(40), Value::U64(77)]);
        assert_eq!(st.downcast_ref::<SubsetSumSfunState>().unwrap().target, 77);
    }

    #[test]
    fn ssdo_clean_triggers_past_gamma_target_and_raises_z() {
        let lib = library(SubsetSumOpConfig {
            initial_z: 10.0,
            target: 5,
            gamma: 2.0,
            ..Default::default()
        });
        let mut st = lib.init_state(None);
        // Build up some sample weight so the adjustment has data.
        for _ in 0..12 {
            call(&lib, &mut st, "ssample", &[Value::U64(50), Value::U64(5)]);
        }
        assert_eq!(call(&lib, &mut st, "ssdo_clean", &[Value::U64(10)]), Value::Bool(false));
        assert_eq!(call(&lib, &mut st, "ssdo_clean", &[Value::U64(11)]), Value::Bool(true));
        let s = st.downcast_ref::<SubsetSumSfunState>().unwrap();
        assert!(s.z > 10.0, "z must rise: {}", s.z);
        assert_eq!(s.z_prev, 10.0);
        assert_eq!(s.cleanings, 1);
    }

    #[test]
    fn ssclean_with_keeps_bigs_and_meters_smalls() {
        let lib = library(SubsetSumOpConfig {
            initial_z: 10.0,
            target: 2,
            gamma: 2.0,
            ..Default::default()
        });
        let mut st = lib.init_state(None);
        for _ in 0..5 {
            call(&lib, &mut st, "ssample", &[Value::U64(50), Value::U64(2)]);
        }
        assert_eq!(call(&lib, &mut st, "ssdo_clean", &[Value::U64(5)]), Value::Bool(true));
        let z = st.downcast_ref::<SubsetSumSfunState>().unwrap().z;
        // A sample far above the new threshold is always kept.
        assert_eq!(call(&lib, &mut st, "ssclean_with", &[Value::F64(z * 10.0)]), Value::Bool(true));
        // Small samples are metered: some kept, some dropped.
        let mut kept = 0;
        for _ in 0..10 {
            if call(&lib, &mut st, "ssclean_with", &[Value::U64(50)]) == Value::Bool(true) {
                kept += 1;
            }
        }
        assert!(kept > 0 && kept < 10, "metered small keeps: {kept}");
    }

    #[test]
    fn ssfinal_clean_keeps_all_when_under_target() {
        let lib = library(SubsetSumOpConfig { initial_z: 100.0, target: 10, ..Default::default() });
        let mut st = lib.init_state(None);
        lib.on_window_end(st.as_mut());
        for _ in 0..5 {
            assert_eq!(
                call(&lib, &mut st, "ssfinal_clean", &[Value::U64(40), Value::U64(5)]),
                Value::Bool(true)
            );
        }
        assert_eq!(st.downcast_ref::<SubsetSumSfunState>().unwrap().final_kept, 5);
    }

    #[test]
    fn ssfinal_clean_subsamples_when_over_target() {
        let lib = library(SubsetSumOpConfig { initial_z: 10.0, target: 4, ..Default::default() });
        let mut st = lib.init_state(None);
        for _ in 0..20 {
            call(&lib, &mut st, "ssample", &[Value::U64(15), Value::U64(4)]);
        }
        lib.on_window_end(st.as_mut());
        let mut kept = 0;
        for _ in 0..20 {
            if call(&lib, &mut st, "ssfinal_clean", &[Value::U64(15), Value::U64(20)])
                == Value::Bool(true)
            {
                kept += 1;
            }
        }
        assert!(kept < 20, "final pass must subsample: kept {kept}");
        assert!(kept >= 2, "but not drop everything: kept {kept}");
        let s = st.downcast_ref::<SubsetSumSfunState>().unwrap();
        assert_eq!(s.final_kept as usize, kept);
        assert!(s.cleanings >= 1);
    }

    #[test]
    fn carry_over_relaxed_divides_by_f() {
        let lib = library(SubsetSumOpConfig {
            initial_z: 0.0,
            target: 10,
            relax_factor: 10.0,
            ..Default::default()
        });
        let mut old = lib.init_state(None);
        {
            let s = old.downcast_mut::<SubsetSumSfunState>().unwrap();
            s.z = 500.0;
            s.final_kept = 10; // on target
        }
        let next = lib.init_state(Some(old.as_ref()));
        let s = next.downcast_ref::<SubsetSumSfunState>().unwrap();
        assert!((s.z - 50.0).abs() < 1e-9, "z = {}", s.z);
    }

    #[test]
    fn carry_over_non_relaxed_scales_by_undersampling() {
        let lib = library(SubsetSumOpConfig {
            initial_z: 0.0,
            target: 10,
            relax_factor: 1.0,
            ..Default::default()
        });
        let mut old = lib.init_state(None);
        {
            let s = old.downcast_mut::<SubsetSumSfunState>().unwrap();
            s.z = 500.0;
            s.final_kept = 5; // half the target
        }
        let next = lib.init_state(Some(old.as_ref()));
        let s = next.downcast_ref::<SubsetSumSfunState>().unwrap();
        assert!((s.z - 250.0).abs() < 1e-9, "z = {}", s.z);
        // Target is inherited, too.
        assert_eq!(s.target, 10);
    }

    #[test]
    fn ssthreshold_and_counters_are_queryable() {
        let lib = library(SubsetSumOpConfig { initial_z: 42.0, target: 3, ..Default::default() });
        let mut st = lib.init_state(None);
        assert_eq!(call(&lib, &mut st, "ssthreshold", &[]), Value::F64(42.0));
        assert_eq!(call(&lib, &mut st, "sscleanings", &[]), Value::U64(0));
        assert_eq!(call(&lib, &mut st, "ssadmissions", &[]), Value::U64(0));
        call(&lib, &mut st, "ssample", &[Value::U64(100), Value::U64(3)]);
        assert_eq!(call(&lib, &mut st, "ssadmissions", &[]), Value::U64(1));
    }

    #[test]
    fn bad_args_are_clean_errors() {
        let lib = library(SubsetSumOpConfig::default());
        let mut st = lib.init_state(None);
        let f = lib.function("ssample").unwrap();
        assert!(f(st.as_mut(), &[]).unwrap_err().contains("missing argument"));
        let f = lib.function("ssample").unwrap();
        assert!(f(st.as_mut(), &[Value::U64(1), Value::U64(0)])
            .unwrap_err()
            .contains("must be positive"));
    }

    /// A state as `decode` rebuilds it from arbitrary field values: a
    /// threshold of 0 or NaN, a target of 0 (so `ssample`'s second
    /// argument sets it), a cleaning pass in progress.
    fn any_state() -> impl Strategy<Value = Vec<u8>> {
        let real = || prop_oneof![Just(0.0), Just(f64::NAN), -1e3..3e3, 0.0..1e18, any::<f64>()];
        let size = || prop_oneof![Just(0usize), 1usize..200];
        let count = || 0u64..1 << 40;
        let cfg = (size(), real(), real(), real()).prop_map(|(target, gamma, initial_z, relax)| {
            SubsetSumOpConfig { target, gamma, initial_z, relax_factor: relax }
        });
        let reals = (real(), real(), real(), real(), (real(), real()));
        let flags = (any::<bool>(), any::<bool>(), any::<bool>());
        let counts = (size(), 0usize..1 << 40, 0usize..1 << 40, (count(), count()), count());
        (cfg, reals, flags, counts, 0u32..1 << 20).prop_map(
            |(cfg, reals, flags, counts, cleanings)| {
                let (z, z_prev, admit_counter, clean_counter, (sample_weight, pass_weight)) = reals;
                let (target, big_count, pass_big, (admissions, offered), final_kept) = counts;
                let mut st = SubsetSumSfunState::new(cfg, z);
                (st.target, st.z_prev, st.admit_counter, st.clean_counter) =
                    (target, z_prev, admit_counter, clean_counter);
                (st.sample_weight, st.pass_weight, st.big_count, st.pass_big) =
                    (sample_weight, pass_weight, big_count, pass_big);
                (st.in_pass, st.final_started, st.final_subsample) = flags;
                (st.admissions, st.offered, st.cleanings, st.final_kept) =
                    (admissions, offered, cleanings, final_kept);
                st.encode()
            },
        )
    }

    /// Packet lengths, and weights past 2^53 that an `f64` rounds.
    fn weights() -> impl Strategy<Value = Vec<u64>> {
        let weight = prop_oneof![Just(0u64), 1u64..3000, (1u64 << 53)..u64::MAX];
        proptest::collection::vec(weight, 0..48)
    }

    /// `ssample(len)` or `ssample(len, N)`, `N` now and then 0; what lies
    /// at the column's place is not read.
    fn argv() -> impl Strategy<Value = Vec<Value>> {
        let n = prop_oneof![Just(None), Just(Some(0u64)), (1u64..300).prop_map(Some)];
        n.prop_map(|n| [Value::str("len")].into_iter().chain(n.map(Value::U64)).collect())
    }

    proptest! {
        #[test]
        fn ssample_run_form_is_its_calls(state in any_state(), column in weights(), argv in argv()) {
            let lib = library(SubsetSumOpConfig::default());
            let [run, calls] = run_and_calls(&lib, "ssample", &state, &column, &argv);
            prop_assert_eq!(run, calls);
        }
    }
}
