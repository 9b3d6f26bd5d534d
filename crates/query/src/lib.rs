//! # sso-query
//!
//! The textual front end for the sampling operator: a lexer, a
//! recursive-descent parser for the extended aggregation syntax of §5,
//!
//! ```text
//! SELECT <select expression list>
//! FROM <stream>
//! WHERE <predicate>
//! GROUP BY <group-by variable definition list>
//! [SUPERGROUP <group-by variable list>]
//! [HAVING <predicate>]
//! CLEANING WHEN <predicate>
//! CLEANING BY <predicate>
//! ```
//!
//! and one resolution pass ([`resolve`]) that checks names, scopes and
//! types against a stream [`Schema`] and a set of registered SFUN
//! libraries, reporting every problem ([`analyze()`]) and producing an
//! executable [`sso_core::OperatorSpec`] ([`plan()`]).
//!
//! ```
//! use sso_query::{compile, PlannerConfig};
//! use sso_types::Packet;
//!
//! let mut op = compile(
//!     "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/60 as tb, srcIP",
//!     &Packet::schema(),
//!     &PlannerConfig::standard(),
//! ).unwrap();
//! let out = op.run(std::iter::empty()).unwrap();
//! assert!(out.is_empty());
//! ```

pub mod analyze;
pub mod ast;
pub mod diag;
pub mod error;
pub mod explain;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use analyze::{analyze, resolve, SAMPLING_CALLS};
pub use ast::{AstExpr, BinAstOp, ExprKind, Query, SelectItem, Span};
pub use diag::{dedup_diagnostics, Code, Diagnostic, Severity};
pub use error::QueryError;
pub use explain::explain;
pub use lexer::{Lexer, Token};
pub use parser::parse_query;
pub use plan::{compile_packet_predicate, plan, PlannerConfig};

use sso_core::SamplingOperator;
use sso_types::Schema;

/// The schema of a base stream name, if `name` is one.
///
/// `PKT`/`PKTS`/`TCP`/`UDP` are the conventional Gigascope packet
/// streams (all the [`sso_types::Packet`] schema here); `METRICS` is
/// the telemetry meta-stream published by `sso-obs`, so a sampling
/// query can run over the operator's own telemetry. A FROM name that is
/// none of these reads another query's output (the high level of a
/// cascade) and has no intrinsic schema.
pub fn base_stream_schema(name: &str) -> Option<Schema> {
    match name {
        "PKT" | "PKTS" | "TCP" | "UDP" => Some(sso_types::Packet::schema()),
        sso_obs::METRICS_STREAM => Some(sso_obs::metrics_schema()),
        _ => None,
    }
}

/// Parse, plan, and instantiate a query in one step.
pub fn compile(
    text: &str,
    schema: &Schema,
    config: &PlannerConfig,
) -> Result<SamplingOperator, QueryError> {
    let q = parse_query(text)?;
    let spec = plan(&q, schema, config)?;
    SamplingOperator::new(spec).map_err(QueryError::Plan)
}

/// Check whether a query can run on the sharded runtime: parse and plan
/// it, then classify the spec with [`sso_core::shard_plan`]. A query
/// that fails to parse or plan returns [`check`]'s diagnostics; a valid
/// but non-shard-mergeable query returns a single `W102` warning whose
/// help text explains which merge rule is missing
/// ([`not_mergeable_diagnostic`]).
pub fn check_shard_mergeable(
    text: &str,
    schema: &Schema,
    config: &PlannerConfig,
) -> Vec<Diagnostic> {
    let q = match parse_query(text) {
        Ok(q) => q,
        Err(e) => return parse_diagnostics(text, e),
    };
    let spec = match resolve(&q, schema, config) {
        (_, Ok(spec)) => spec,
        (diags, Err(_)) => return diags,
    };
    match sso_core::shard_plan(&spec) {
        Ok(_) => Vec::new(),
        Err(not_mergeable) => vec![not_mergeable_diagnostic(&not_mergeable)],
    }
}

/// The `W102` warning for a query [`sso_core::shard_plan`] refused: the
/// query must run on a single operator instance, and the help says which
/// merge rule is missing.
pub fn not_mergeable_diagnostic(refusal: &sso_core::NotMergeable) -> Diagnostic {
    Diagnostic::new(
        Code::W102,
        Span::DUMMY,
        "query is not shard-mergeable; it must run on a single operator instance",
    )
    .with_help(refusal.reason.clone())
}

/// Statically check a query: parse, then resolve it, returning every
/// diagnostic found. Lexical and syntax errors come back as single
/// `E100`/`E101` diagnostics ([`parse_diagnostics`]) so callers can
/// render any failure the same way.
pub fn check(text: &str, schema: &Schema, config: &PlannerConfig) -> Vec<Diagnostic> {
    match parse_query(text) {
        Ok(q) => analyze(&q, schema, config),
        Err(e) => parse_diagnostics(text, e),
    }
}

/// The diagnostics of `text`'s [`parse_query`] error: a lexical or
/// syntax error as one `E100` / `E101` at its position.
pub fn parse_diagnostics(text: &str, error: QueryError) -> Vec<Diagnostic> {
    match error {
        QueryError::Lex { position, message } => vec![Diagnostic::new(
            Code::E100,
            Span::new(position, position + 1),
            format!("lexical error: {message}"),
        )],
        QueryError::Parse { position, message } => vec![Diagnostic::new(
            Code::E101,
            Span::new(position, position + 1),
            format!("syntax error: {message}"),
        )],
        // parse_query only produces Lex/Parse errors today; if a future
        // front-end change routes others here, surface their own
        // diagnostics when they carry them, and otherwise point at the
        // statement the error is about — never at offset 0.
        QueryError::Analysis(diags) => diags,
        other => {
            let span = other.primary_span(text);
            vec![Diagnostic::new(Code::E101, span, other.to_string())]
        }
    }
}
