//! `sso-rewrite`: a certified plan-rewrite optimizer with multi-query
//! sharing analysis.
//!
//! The paper's §7.1 runs *simultaneous query sets* — many registered
//! queries over one packet tap — and §7.2 shows shared partial work
//! (the low-level prefilter) paying for itself many times over. This
//! crate is the static half of that story: given a multi-statement
//! query file, it
//!
//! 1. **normalizes** every plan into a canonical symbolic form
//!    ([`norm`]: constant folding, vacuous-term elimination,
//!    commutative-operand ordering over pure chains, literal-on-the-
//!    right comparisons),
//! 2. **proves** sharing opportunities with a syntactic/semantic
//!    equivalence prover ([`equiv`]: canonical identity for whole-plan
//!    deduplication, a comparison-widening implication closure for
//!    shared prefilters), and
//! 3. **emits a certificate** ([`cert`]): a checked trace of every
//!    applied rewrite — rule, statements, before/after node hashes,
//!    discharged side conditions — plus a shared-execution plan
//!    description ([`optimize`]).
//!
//! The certificate is consumed, not decorative:
//! [`OptimizeOutcome::build_shared`] verifies it before yielding
//! executable components, `sso_gigascope::shared::run_fanout_shared`
//! runs the shared plan and must produce `(window, rows)` output
//! byte-identical to unshared execution (golden + property tested), and
//! `sso-analysis` re-audits the rewritten plan so memory-bound
//! certificates survive rewriting.
//!
//! Like `sso-analysis`, this crate is a *static* pass: its clippy
//! configuration bans operator instantiation, plan execution, threads,
//! and clock reads.
//!
//! Lints (surfaced by `sso optimize`, wired into [`sso_query::Code`]):
//!
//! | code | meaning |
//! |------|---------|
//! | W301 | shareable work not shared (only in `--explain` mode) |
//! | W302 | subplans equivalent modulo constants — parameterize |
//! | W303 | rewrite blocked by a non-mergeable sampler (cause chain) |
//! | W304 | window periods differ by an integer multiple (§7.2) |

pub mod cert;
pub mod equiv;
pub mod norm;
pub mod optimize;
pub mod report;

pub use cert::{RewriteCertificate, RewriteStep};
pub use equiv::{implies, shared_prefilter};
pub use norm::{is_pure, is_total, normalize, normalize_statement, NormalizedStatement};
pub use optimize::{
    check_file, optimize_file, ExecutableSharedPlan, OptimizeOptions, OptimizeOutcome,
    ReauditSummary, ShareCluster, ShareGroup, SharedGroupDesc, SharedPlanDesc,
};
pub use report::render_summary;
