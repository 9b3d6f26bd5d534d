//! Stateful functions (§6.2).
//!
//! A *stateful function* (SFUN) is like a UDAF except that (a) it can
//! produce output many times during execution and (b) a whole family of
//! functions shares one state structure. The paper declares them as
//!
//! ```text
//! STATE char[50] subsetsum_sampling_state;
//! SFUN int subsetsum_sampling_state ssample(int, CONST int);
//! ```
//!
//! and implicitly passes every function a `void*` to the state. Our Rust
//! model is [`SfunLibrary`]: a named state constructor (with the paper's
//! `_sfun_state_init_<state>(new, old)` carry-over semantics — the `old`
//! pointer is the equivalent state from the previous time window), an
//! optional window-end hook (the paper's `final_init()` signal), and a
//! map of functions `fn(&mut dyn Any, &[Value]) -> Value` sharing that
//! state.
//!
//! One state instance lives in each supergroup's superaggregate
//! structure, exactly as in §6.2.
//!
//! A function that only *reads* the state is declared so, with
//! [`SfunLibrary::register_read_only`] — its closure is handed
//! `&dyn Any`. The operator makes such a call only when it needs the
//! value (a `first(..)` that is set does not; a group-phase clause needs
//! it once per phase, not once per group); a function registered with
//! [`SfunLibrary::register`] is called exactly where the query says.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use sso_types::{Value, ValueKind};

/// Static call signature of a registered function: accepted argument
/// count range and the kind of value it returns. This is the paper's
/// `SFUN int subsetsum_sampling_state ssample(int, CONST int)`
/// declaration line, kept as data so the query analyzer can check
/// calls without executing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Minimum number of arguments.
    pub min_args: usize,
    /// Maximum number of arguments.
    pub max_args: usize,
    /// Kind of the returned value.
    pub returns: ValueKind,
}

impl Signature {
    /// A signature taking exactly `n` arguments.
    pub const fn exact(n: usize, returns: ValueKind) -> Self {
        Signature { min_args: n, max_args: n, returns }
    }

    /// A signature taking between `min` and `max` arguments.
    pub const fn range(min: usize, max: usize, returns: ValueKind) -> Self {
        Signature { min_args: min, max_args: max, returns }
    }

    /// `true` if a call with `n` arguments satisfies this signature.
    pub fn accepts_arity(&self, n: usize) -> bool {
        (self.min_args..=self.max_args).contains(&n)
    }

    /// Human-readable arity, e.g. `exactly 2 arguments` or
    /// `1 to 2 arguments`.
    pub fn arity_text(&self) -> String {
        match (self.min_args, self.max_args) {
            (n, m) if n == m && n == 1 => "exactly one argument".to_string(),
            (n, m) if n == m => format!("exactly {n} arguments"),
            (n, m) => format!("{n} to {m} arguments"),
        }
    }
}

/// A stateful function implementation: mutable shared state + evaluated
/// arguments in, value out. Errors are strings, wrapped into
/// [`crate::OpError::BadSfunCall`] by the evaluator.
pub type SfunFn = dyn Fn(&mut dyn Any, &[Value]) -> Result<Value, String> + Send + Sync;

/// State-constructor: receives the equivalent state from the previous
/// time window (if the supergroup existed then) for carry-over.
pub type SfunInit = dyn Fn(Option<&dyn Any>) -> Box<dyn Any + Send> + Send + Sync;

/// Window-end hook, invoked on every live state when the window closes,
/// before the HAVING clause runs (the paper's `final_init()`).
pub type SfunWindowEnd = dyn Fn(&mut dyn Any) + Send + Sync;

/// Per-window sampling telemetry a library can expose for observability:
/// the numbers behind the paper's bursty-load diagnosis (threshold
/// trajectory, achieved vs. target sample size).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SfunTelemetry {
    /// Current sampling threshold `z`.
    pub threshold: f64,
    /// Samples kept by the final window pass.
    pub achieved: u64,
    /// Configured target sample size.
    pub target: u64,
    /// Tuples offered to the admission test this window.
    pub offered: u64,
    /// Cleaning phases this window.
    pub cleanings: u64,
}

/// Telemetry probe: reads a state snapshot without mutating it.
pub type SfunProbe = dyn Fn(&dyn Any) -> Option<SfunTelemetry> + Send + Sync;

/// Persistence encoder: serializes one state to bytes (`None` if the
/// boxed value has an unexpected type).
pub type SfunEncode = dyn Fn(&dyn Any) -> Option<Vec<u8>> + Send + Sync;

/// Persistence decoder: rebuilds a state from encoded bytes (`None` on
/// malformed input).
pub type SfunDecode = dyn Fn(&[u8]) -> Option<Box<dyn Any + Send>> + Send + Sync;

/// Library-auxiliary encoder: serializes state the *library itself*
/// holds outside any supergroup (e.g. the reservoir library's instance
/// counter that derives per-supergroup RNG seeds).
pub type SfunAuxEncode = dyn Fn() -> Vec<u8> + Send + Sync;

/// Library-auxiliary decoder: restores what [`SfunAuxEncode`] captured.
pub type SfunAuxDecode = dyn Fn(&[u8]) -> bool + Send + Sync;

/// The per-supergroup states of all libraries used by a query, one per
/// library slot.
pub type SfunStates = Vec<Box<dyn Any + Send>>;

/// A family of stateful functions sharing one state type.
pub struct SfunLibrary {
    name: &'static str,
    init: Box<SfunInit>,
    window_end: Option<Box<SfunWindowEnd>>,
    telemetry: Option<Box<SfunProbe>>,
    persist: Option<(Box<SfunEncode>, Box<SfunDecode>)>,
    persist_aux: Option<(Box<SfunAuxEncode>, Box<SfunAuxDecode>)>,
    /// Signature, implementation, and whether it was declared read-only.
    functions: HashMap<&'static str, (Signature, Arc<SfunFn>, bool)>,
}

impl std::fmt::Debug for SfunLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<_> = self.functions.keys().collect();
        names.sort();
        f.debug_struct("SfunLibrary").field("name", &self.name).field("functions", &names).finish()
    }
}

impl SfunLibrary {
    /// Create a library with the given state constructor.
    pub fn new(
        name: &'static str,
        init: impl Fn(Option<&dyn Any>) -> Box<dyn Any + Send> + Send + Sync + 'static,
    ) -> Self {
        SfunLibrary {
            name,
            init: Box::new(init),
            window_end: None,
            telemetry: None,
            persist: None,
            persist_aux: None,
            functions: HashMap::new(),
        }
    }

    /// Install the window-end hook.
    pub fn with_window_end(mut self, hook: impl Fn(&mut dyn Any) + Send + Sync + 'static) -> Self {
        self.window_end = Some(Box::new(hook));
        self
    }

    /// Install the telemetry probe.
    pub fn with_telemetry(
        mut self,
        probe: impl Fn(&dyn Any) -> Option<SfunTelemetry> + Send + Sync + 'static,
    ) -> Self {
        self.telemetry = Some(Box::new(probe));
        self
    }

    /// Install the persistence codec for this library's state type.
    /// Checkpointing requires it: a spec whose libraries all have a
    /// codec can have its cross-window carry-over exported and restored
    /// byte-identically.
    pub fn with_persist(
        mut self,
        encode: impl Fn(&dyn Any) -> Option<Vec<u8>> + Send + Sync + 'static,
        decode: impl Fn(&[u8]) -> Option<Box<dyn Any + Send>> + Send + Sync + 'static,
    ) -> Self {
        self.persist = Some((Box::new(encode), Box::new(decode)));
        self
    }

    /// Install the library-auxiliary codec (state held by the library
    /// outside any supergroup, e.g. an instance counter feeding seeds).
    pub fn with_persist_aux(
        mut self,
        encode: impl Fn() -> Vec<u8> + Send + Sync + 'static,
        decode: impl Fn(&[u8]) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.persist_aux = Some((Box::new(encode), Box::new(decode)));
        self
    }

    /// Register one function with its call signature.
    pub fn register(
        mut self,
        name: &'static str,
        sig: Signature,
        f: impl Fn(&mut dyn Any, &[Value]) -> Result<Value, String> + Send + Sync + 'static,
    ) -> Self {
        self.functions.insert(name, (sig, Arc::new(f), false));
        self
    }

    /// Register a function that only *reads* the state — the closure is
    /// handed `&dyn Any`, so the compiler holds it to that:
    ///
    /// ```
    /// # use sso_core::sfun::{state_ref, SfunLibrary, Signature};
    /// # use sso_types::{Value, ValueKind};
    /// SfunLibrary::new("counter", |_| Box::new(0u64)).register_read_only(
    ///     "seen",
    ///     Signature::exact(0, ValueKind::UInt),
    ///     |state, _argv| Ok(Value::U64(*state_ref::<u64>(state, "seen")?)),
    /// );
    /// ```
    ///
    /// ```compile_fail
    /// # use sso_core::sfun::{SfunLibrary, Signature};
    /// # use sso_types::{Value, ValueKind};
    /// SfunLibrary::new("counter", |_| Box::new(0u64)).register_read_only(
    ///     "bump",
    ///     Signature::exact(0, ValueKind::UInt),
    ///     |state, _argv| {
    ///         *state.downcast_mut::<u64>().unwrap() += 1; // `state` is `&dyn Any`
    ///         Ok(Value::Null)
    ///     },
    /// );
    /// ```
    ///
    /// The declaration is a contract with the operator: the call's
    /// outcome depends on the state and the arguments alone, so the
    /// operator makes the call only when it needs the value. The argument
    /// of a `first(..)` that is already set is skipped, if nothing in it
    /// but read-only calls could be told apart from not running; and a
    /// call with constant arguments in CLEANING BY, HAVING or SELECT is
    /// made once per cleaning phase / window close, ahead of the
    /// supergroup's groups, unless a clause of that phase calls a
    /// function of this library registered with [`Self::register`] —
    /// which is always called exactly where the query says.
    pub fn register_read_only(
        mut self,
        name: &'static str,
        sig: Signature,
        f: impl Fn(&dyn Any, &[Value]) -> Result<Value, String> + Send + Sync + 'static,
    ) -> Self {
        let fun = move |state: &mut dyn Any, argv: &[Value]| f(state, argv);
        self.functions.insert(name, (sig, Arc::new(fun), true));
        self
    }

    /// Is `fun` this library's function `name`, and was it registered
    /// with [`Self::register_read_only`]?
    pub fn is_read_only(&self, name: &str, fun: &Arc<SfunFn>) -> bool {
        self.functions.get(name).is_some_and(|(_, f, read_only)| *read_only && Arc::ptr_eq(f, fun))
    }

    /// Library name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<Arc<SfunFn>> {
        self.functions.get(name).map(|(_, f, _)| Arc::clone(f))
    }

    /// Look up a function's declared signature.
    pub fn signature(&self, name: &str) -> Option<Signature> {
        self.functions.get(name).map(|(sig, ..)| *sig)
    }

    /// Look up a function by name, returning the library's canonical
    /// `'static` name alongside the implementation (the planner stores
    /// this in compiled expressions).
    pub fn function_entry(&self, name: &str) -> Option<(&'static str, Arc<SfunFn>)> {
        self.functions.get_key_value(name).map(|(k, (_, f, _))| (*k, Arc::clone(f)))
    }

    /// Names of all registered functions.
    pub fn function_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.functions.keys().copied()
    }

    /// Construct a state, carrying over from the previous window's
    /// equivalent state if provided.
    pub fn init_state(&self, prev: Option<&dyn Any>) -> Box<dyn Any + Send> {
        (self.init)(prev)
    }

    /// Signal the end of the sampling window to a state.
    pub fn on_window_end(&self, state: &mut dyn Any) {
        if let Some(hook) = &self.window_end {
            hook(state);
        }
    }

    /// Read a state's sampling telemetry, if this library exposes any.
    pub fn probe_telemetry(&self, state: &dyn Any) -> Option<SfunTelemetry> {
        self.telemetry.as_ref().and_then(|p| p(state))
    }

    /// Does this library support state persistence?
    pub fn can_persist(&self) -> bool {
        self.persist.is_some()
    }

    /// Serialize one state (`None` if no codec is installed or the
    /// state has an unexpected type).
    pub fn encode_state(&self, state: &dyn Any) -> Option<Vec<u8>> {
        self.persist.as_ref().and_then(|(enc, _)| enc(state))
    }

    /// Rebuild a state from bytes produced by [`Self::encode_state`].
    pub fn decode_state(&self, bytes: &[u8]) -> Option<Box<dyn Any + Send>> {
        self.persist.as_ref().and_then(|(_, dec)| dec(bytes))
    }

    /// Serialize the library-auxiliary state (empty when none exists).
    pub fn encode_aux(&self) -> Vec<u8> {
        self.persist_aux.as_ref().map(|(enc, _)| enc()).unwrap_or_default()
    }

    /// Restore library-auxiliary state; `false` on malformed input.
    /// Empty input is the "nothing was captured" case and succeeds.
    pub fn decode_aux(&self, bytes: &[u8]) -> bool {
        match (&self.persist_aux, bytes.is_empty()) {
            (_, true) => true,
            (Some((_, dec)), false) => dec(bytes),
            (None, false) => false,
        }
    }
}

/// Downcast helper for SFUN implementations.
pub fn state_mut<'a, T: 'static>(state: &'a mut dyn Any, fname: &str) -> Result<&'a mut T, String> {
    state
        .downcast_mut::<T>()
        .ok_or_else(|| format!("{fname}: state has unexpected type (library misconfigured)"))
}

/// Downcast helper for read-only SFUN implementations.
pub fn state_ref<'a, T: 'static>(state: &'a dyn Any, fname: &str) -> Result<&'a T, String> {
    state
        .downcast_ref::<T>()
        .ok_or_else(|| format!("{fname}: state has unexpected type (library misconfigured)"))
}

/// Argument-extraction helpers shared by the SFUN libraries.
pub mod args {
    use sso_types::Value;

    /// The `idx`-th argument as `u64`.
    pub fn u64_arg(fname: &str, argv: &[Value], idx: usize) -> Result<u64, String> {
        argv.get(idx)
            .ok_or_else(|| format!("{fname}: missing argument {idx}"))?
            .as_u64()
            .map_err(|e| format!("{fname}: argument {idx}: {e}"))
    }

    /// The `idx`-th argument as `f64`.
    pub fn f64_arg(fname: &str, argv: &[Value], idx: usize) -> Result<f64, String> {
        argv.get(idx)
            .ok_or_else(|| format!("{fname}: missing argument {idx}"))?
            .as_f64()
            .map_err(|e| format!("{fname}: argument {idx}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CounterState {
        count: u64,
        carried: bool,
    }

    fn counter_library() -> SfunLibrary {
        SfunLibrary::new("counter", |prev| {
            let carried = prev.and_then(|p| p.downcast_ref::<CounterState>()).is_some();
            Box::new(CounterState { count: 0, carried })
        })
        .register("bump", Signature::exact(0, ValueKind::UInt), |state, _argv| {
            let s = state_mut::<CounterState>(state, "bump")?;
            s.count += 1;
            Ok(Value::U64(s.count))
        })
        .register("carried", Signature::exact(0, ValueKind::Bool), |state, _argv| {
            let s = state_mut::<CounterState>(state, "carried")?;
            Ok(Value::Bool(s.carried))
        })
    }

    #[test]
    fn functions_share_state() {
        let lib = counter_library();
        let mut state = lib.init_state(None);
        let bump = lib.function("bump").unwrap();
        assert_eq!(bump(state.as_mut(), &[]).unwrap(), Value::U64(1));
        assert_eq!(bump(state.as_mut(), &[]).unwrap(), Value::U64(2));
    }

    #[test]
    fn init_receives_previous_state() {
        let lib = counter_library();
        let old = lib.init_state(None);
        let carried = lib.function("carried").unwrap();
        let mut fresh = lib.init_state(None);
        assert_eq!(carried(fresh.as_mut(), &[]).unwrap(), Value::Bool(false));
        let mut next = lib.init_state(Some(old.as_ref()));
        assert_eq!(carried(next.as_mut(), &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn unknown_function_is_none() {
        let lib = counter_library();
        assert!(lib.function("nope").is_none());
        assert!(lib.function("bump").is_some());
    }

    #[test]
    fn wrong_state_type_is_a_clean_error() {
        let lib = counter_library();
        let bump = lib.function("bump").unwrap();
        let mut wrong: Box<dyn Any + Send> = Box::new(42u32);
        let err = bump(wrong.as_mut(), &[]).unwrap_err();
        assert!(err.contains("unexpected type"));
    }

    #[test]
    fn window_end_hook_runs() {
        let lib = SfunLibrary::new("w", |_| Box::new(CounterState { count: 0, carried: false }))
            .with_window_end(|state| {
                if let Some(s) = state.downcast_mut::<CounterState>() {
                    s.count = 999;
                }
            });
        let mut state = lib.init_state(None);
        lib.on_window_end(state.as_mut());
        assert_eq!(state.downcast_ref::<CounterState>().unwrap().count, 999);
    }

    #[test]
    fn arg_helpers() {
        use super::args::*;
        assert_eq!(u64_arg("f", &[Value::U64(5)], 0).unwrap(), 5);
        assert!(u64_arg("f", &[], 0).unwrap_err().contains("missing argument"));
        assert!(u64_arg("f", &[Value::str("x")], 0).unwrap_err().contains("argument 0"));
        assert_eq!(f64_arg("f", &[Value::F64(2.5)], 0).unwrap(), 2.5);
    }

    #[test]
    fn debug_lists_functions() {
        let lib = counter_library();
        let s = format!("{lib:?}");
        assert!(s.contains("counter") && s.contains("bump"));
    }

    #[test]
    fn signatures_are_queryable() {
        let lib = counter_library();
        let sig = lib.signature("bump").unwrap();
        assert_eq!(sig, Signature::exact(0, ValueKind::UInt));
        assert!(sig.accepts_arity(0));
        assert!(!sig.accepts_arity(1));
        assert!(lib.signature("nope").is_none());
        assert_eq!(Signature::exact(1, ValueKind::Bool).arity_text(), "exactly one argument");
        assert_eq!(Signature::exact(2, ValueKind::Bool).arity_text(), "exactly 2 arguments");
        assert_eq!(Signature::range(1, 2, ValueKind::Bool).arity_text(), "1 to 2 arguments");
    }
}
