//! Query front-end errors.

use std::fmt;

use sso_core::OpError;

use crate::ast::Span;
use crate::diag::Diagnostic;

/// Errors from lexing, parsing, analyzing or planning a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A lexical error at a byte offset.
    Lex {
        /// Byte position in the query text.
        position: usize,
        /// Description.
        message: String,
    },
    /// A syntax error.
    Parse {
        /// Byte position in the query text (approximate: token start).
        position: usize,
        /// Description.
        message: String,
    },
    /// Semantic analysis failed; carries every diagnostic found (errors
    /// *and* warnings), not just the first. Use
    /// [`crate::diag::render`] against the query text for the full
    /// rustc-style report.
    Analysis(Vec<Diagnostic>),
    /// An error surfaced from the operator layer during planning or
    /// instantiation.
    Plan(OpError),
}

impl QueryError {
    /// The byte span in `src` (the query text this error came from)
    /// that the error most precisely points at: lex/parse errors know
    /// their offset, analysis errors carry spans on their diagnostics,
    /// and the rest cover the trimmed statement. Never [`Span::DUMMY`],
    /// so renderers don't silently point at offset 0.
    pub fn primary_span(&self, src: &str) -> Span {
        match self {
            QueryError::Lex { position, .. } | QueryError::Parse { position, .. } => {
                Span::new(*position, position + 1)
            }
            QueryError::Analysis(diags) => diags
                .iter()
                .find(|d| d.is_error())
                .or_else(|| diags.first())
                .map(|d| d.span)
                .filter(|s| !s.is_dummy())
                .unwrap_or_else(|| statement_span(src)),
            QueryError::Plan(_) => statement_span(src),
        }
    }
}

/// The span of the non-whitespace body of `src` (at least one byte),
/// for errors with no finer position of their own.
fn statement_span(src: &str) -> Span {
    let start = src.len() - src.trim_start().len();
    let end = (start + src.trim().len()).max(start + 1);
    Span::new(start, end)
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Lex { position, message } => {
                write!(f, "lexical error at byte {position}: {message}")
            }
            QueryError::Parse { position, message } => {
                write!(f, "syntax error at byte {position}: {message}")
            }
            QueryError::Analysis(diags) => {
                let joined = diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("; ");
                write!(f, "semantic error: {joined}")
            }
            QueryError::Plan(e) => write!(f, "planning error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<OpError> for QueryError {
    fn from(e: OpError) -> Self {
        QueryError::Plan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = QueryError::Lex { position: 3, message: "bad char".into() };
        assert_eq!(e.to_string(), "lexical error at byte 3: bad char");
        let e = QueryError::Plan(OpError::InvalidSpec("unknown column x".into()));
        assert!(e.to_string().contains("unknown column x"));
    }

    #[test]
    fn primary_span_is_never_dummy() {
        use crate::diag::Code;

        let src = "  SELECT x FROM PKT  ";
        let lex = QueryError::Lex { position: 9, message: "bad".into() };
        assert_eq!(lex.primary_span(src), Span::new(9, 10));
        let parse = QueryError::Parse { position: 7, message: "bad".into() };
        assert_eq!(parse.primary_span(src), Span::new(7, 8));

        // Analysis: the first *error* diagnostic's span wins over an
        // earlier warning's.
        let analysis = QueryError::Analysis(vec![
            Diagnostic::new(Code::W005, Span::new(1, 2), "dup"),
            Diagnostic::new(Code::E002, Span::new(9, 10), "unknown"),
        ]);
        assert_eq!(analysis.primary_span(src), Span::new(9, 10));
        // Dummy-spanned diagnostics fall back to the statement body.
        let analysis = QueryError::Analysis(vec![Diagnostic::new(Code::E009, Span::DUMMY, "x")]);
        assert_eq!(analysis.primary_span(src), Span::new(2, 19));

        // Positionless errors cover the trimmed statement.
        let sem = QueryError::Plan(OpError::InvalidSpec("no".into()));
        assert_eq!(sem.primary_span(src), Span::new(2, 19));
        assert!(!sem.primary_span("").is_dummy(), "even empty input gets a 1-byte span");
    }
}
