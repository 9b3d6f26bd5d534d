//! Structured diagnostics for the query analyzer, with rustc-style
//! rendering.
//!
//! The analyzer does not stop at the first problem: it walks the whole
//! query and returns a *list* of [`Diagnostic`]s, each carrying a
//! stable [`Code`], a byte-offset [`Span`] into the source, a message,
//! and an optional help line. [`render`] turns a batch of diagnostics
//! into the familiar `error[E003]: ... --> query:2:7` display with a
//! caret line under the offending characters.

use std::fmt;

use crate::ast::Span;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The query is still plannable; the construct is merely suspect.
    Warning,
    /// The query cannot be planned.
    Error,
}

impl Severity {
    /// Lowercase label used in rendered output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes. `E...` are errors, `W...` warnings; `W1xx`
/// codes come from the Gigascope cascade linter rather than the
/// single-query analyzer, `W2xx` codes from the `sso-analysis`
/// static audit pass (memory bounds, skew, degradation safety), and
/// `W3xx` codes from the `sso-rewrite` plan-rewrite optimizer
/// (multi-query sharing analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// Lexical error (bad character, unterminated string).
    E100,
    /// Syntax error.
    E101,
    /// Duplicate group-by variable name.
    E001,
    /// Unknown name: neither a column nor a group-by variable in scope.
    E002,
    /// Name or function not allowed in this clause's scope.
    E003,
    /// Unknown function.
    E004,
    /// Unknown superaggregate.
    E005,
    /// Wrong number of arguments.
    E006,
    /// `*` outside `count(*)` / `count_distinct$(*)`.
    E007,
    /// Type mismatch (e.g. arithmetic on a string).
    E008,
    /// Empty GROUP BY list.
    E009,
    /// Window-safety: sampling clauses but no ordered-attribute window.
    E010,
    /// SUPERGROUP variable is not a group-by variable.
    E011,
    /// CLEANING WHEN and CLEANING BY must appear together.
    E012,
    /// A sampling size argument: `Kth_smallest_value$`'s k is not a positive
    /// integer literal, or `ssample`, `rsample`, `dsample` or `local_count`
    /// has a literal 0 size.
    E013,
    /// CLEANING WHEN predicate is constant (never or always fires).
    W001,
    /// Subset-sum cleaning never updates its threshold.
    W002,
    /// Heavy-hitter configuration makes the count bound vacuous.
    W003,
    /// Non-boolean predicate coerced through C-style truthiness.
    W004,
    /// Duplicate output column names.
    W005,
    /// Two statements in one file apply an identical normalized
    /// prefilter over the same base stream (cheap cross-statement form
    /// of the optimizer's sharing analysis).
    W103,
    /// Cascade push-down is not partial-aggregation-safe.
    W101,
    /// Query is not shard-mergeable: it cannot run on a partitioned
    /// multi-shard runtime.
    W102,
    /// Unbounded state: exact GROUP BY over an unbounded-cardinality
    /// key with no sampling operator to cap the group table.
    W201,
    /// Skew hazard: partition-key cardinality is below the shard count
    /// (or constant), so the router cannot spread load.
    W202,
    /// Non-mergeable plan requested with `--shards > 1`; the static
    /// upgrade of the runtime-discovered [`W102`](Code::W102).
    W203,
    /// Unsound weight: the subset-sum threshold pass weights by an
    /// expression the plan cannot prove numeric and non-negative.
    W204,
    /// State budget below the spill pager's working-set floor: the
    /// paged group table pins two pages (the open page and the touched
    /// page), so a per-shard budget under two pages cannot be enforced.
    W206,
    /// Shareable prefilter not shared: several statements' predicates
    /// all imply a common pure prefilter, but each fan-out query
    /// evaluates it independently. Fires only when the optimizer's
    /// rewrite is not applied (`sso optimize --explain`).
    W301,
    /// Two subplans are equivalent modulo integer/float constants;
    /// parameterizing the constant would let one plan serve both.
    W302,
    /// A provable sharing rewrite is blocked by a non-shard-mergeable
    /// sampler: the shared operator could not run on the partitioned
    /// runtime, so each query keeps its own instance.
    W303,
    /// Two otherwise-compatible queries window the same stream at
    /// periods differing by an integer multiple; the coarser query is
    /// derivable from the finer one's partial aggregates (§7.2).
    W304,
}

/// `Code::ALL` and `Code::as_str` from one list of the codes, so the
/// two cannot drift (a code missing here fails `as_str`'s match).
macro_rules! code_table {
    ($($code:ident)*) => {
        /// Every code.
        pub const ALL: &'static [Code] = &[$(Code::$code),*];

        /// The code as it renders, e.g. `E003`.
        pub fn as_str(self) -> &'static str {
            match self {
                $(Code::$code => stringify!($code),)*
            }
        }
    };
}

impl Code {
    code_table! {
        E100 E101 E001 E002 E003 E004 E005 E006 E007 E008 E009 E010 E011 E012 E013
        W001 W002 W003 W004 W005 W103 W101 W102 W201 W202 W203 W204 W206 W301 W302 W303 W304
    }

    /// The severity implied by the code's letter.
    pub fn severity(self) -> Severity {
        if self.as_str().starts_with('E') {
            Severity::Error
        } else {
            Severity::Warning
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Code {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let code = Code::ALL.iter().copied().find(|c| c.as_str() == s);
        code.ok_or_else(|| format!("unknown diagnostic code `{s}`"))
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable code.
    pub code: Code,
    /// Byte range in the query source this points at.
    pub span: Span,
    /// What is wrong.
    pub message: String,
    /// Optional suggestion.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Build a diagnostic; severity is derived from the code.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic { severity: code.severity(), code, span, message: message.into(), help: None }
    }

    /// Attach a help line.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// `true` if this diagnostic is an error.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity.label(), self.code, self.message)
    }
}

/// `true` if any diagnostic in the batch is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(Diagnostic::is_error)
}

/// Drop duplicate diagnostics, keeping the first occurrence per
/// `(code, span)`. Multi-statement files can legitimately reproduce the
/// same finding once per statement (dummy-span warnings especially);
/// emitting it once is all a reader or a CI consumer needs.
pub fn dedup_diagnostics(diags: &mut Vec<Diagnostic>) {
    let mut seen: Vec<(Code, Span)> = Vec::with_capacity(diags.len());
    diags.retain(|d| {
        let key = (d.code, d.span);
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
}

/// 1-based (line, column) of a byte offset, counting columns in bytes.
fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(src.len());
    let before = &src[..offset];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = before.rfind('\n').map(|nl| offset - nl - 1).unwrap_or(offset) + 1;
    (line, col)
}

/// Render one diagnostic rustc-style against its source text.
///
/// ```text
/// error[E003]: aggregate `count` is not allowed in CLEANING WHEN
///   --> query:1:44
///    |
///  1 | SELECT tb FROM PKT ... CLEANING WHEN count(*) > 1
///    |                                      ^^^^^^^^
///    = help: aggregates are group-phase; CLEANING WHEN runs per tuple
/// ```
pub fn render_one(src: &str, source_name: &str, d: &Diagnostic) -> String {
    let (line, col) = line_col(src, d.span.start);
    let mut out = format!("{}[{}]: {}\n", d.severity.label(), d.code, d.message);
    out.push_str(&format!("  --> {source_name}:{line}:{col}\n"));
    // The source line the span starts on.
    let line_start = src[..d.span.start.min(src.len())].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let line_end = src[line_start..].find('\n').map(|i| line_start + i).unwrap_or(src.len());
    let text = &src[line_start..line_end];
    let gutter = format!("{line}");
    let pad = " ".repeat(gutter.len());
    out.push_str(&format!(" {pad} |\n"));
    out.push_str(&format!(" {gutter} | {text}\n"));
    // Caret run: clamp the span to this line.
    let caret_start = d.span.start.saturating_sub(line_start);
    let span_end = d.span.end.max(d.span.start + 1).min(line_end.max(d.span.start + 1));
    let caret_len = span_end.saturating_sub(d.span.start).max(1);
    out.push_str(&format!(" {pad} | {}{}\n", " ".repeat(caret_start), "^".repeat(caret_len)));
    if let Some(help) = &d.help {
        out.push_str(&format!(" {pad} = help: {help}\n"));
    }
    out
}

/// Render a whole batch, errors and warnings in the order found, with a
/// summary line.
pub fn render(src: &str, source_name: &str, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&render_one(src, source_name, d));
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.len() - errors;
    match (errors, warnings) {
        (0, 0) => out.push_str("no problems found\n"),
        (e, 0) => out.push_str(&format!("{e} error{} found\n", plural(e))),
        (0, w) => out.push_str(&format!("{w} warning{} found\n", plural(w))),
        (e, w) => {
            out.push_str(&format!("{e} error{}, {w} warning{} found\n", plural(e), plural(w)))
        }
    }
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_imply_severity() {
        assert_eq!(Code::E003.severity(), Severity::Error);
        assert_eq!(Code::W001.severity(), Severity::Warning);
        assert!(Diagnostic::new(Code::E002, Span::DUMMY, "x").is_error());
        assert!(!Diagnostic::new(Code::W004, Span::DUMMY, "x").is_error());
    }

    #[test]
    fn line_col_is_one_based() {
        let src = "SELECT a\nFROM S\nGROUP BY a";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 7), (1, 8));
        assert_eq!(line_col(src, 9), (2, 1));
        assert_eq!(line_col(src, 14), (2, 6));
        assert_eq!(line_col(src, src.len()), (3, 11));
    }

    #[test]
    fn render_points_carets_at_span() {
        let src = "SELECT bogus FROM PKT GROUP BY time/60 as tb";
        let d = Diagnostic::new(Code::E002, Span::new(7, 12), "unknown name `bogus`")
            .with_help("no column or group-by variable with this name");
        let text = render_one(src, "query", &d);
        assert!(text.contains("error[E002]: unknown name `bogus`"), "{text}");
        assert!(text.contains("--> query:1:8"), "{text}");
        assert!(text.contains("^^^^^"), "{text}");
        assert!(text.contains("= help:"), "{text}");
        // Caret line aligns under `bogus`.
        let caret_line = text.lines().find(|l| l.contains('^')).unwrap();
        let src_line = text.lines().find(|l| l.contains("SELECT")).unwrap();
        assert_eq!(
            caret_line.find('^').unwrap() - (caret_line.find('|').unwrap() + 2),
            src_line.find("bogus").unwrap() - (src_line.find('|').unwrap() + 2)
        );
    }

    #[test]
    fn render_batch_summarizes() {
        let src = "SELECT a FROM S GROUP BY a";
        let diags = vec![
            Diagnostic::new(Code::E002, Span::new(7, 8), "unknown name `a`"),
            Diagnostic::new(Code::W005, Span::new(7, 8), "duplicate output column"),
        ];
        let text = render(src, "q", &diags);
        assert!(text.contains("1 error, 1 warning found"), "{text}");
        let text = render(src, "q", &[]);
        assert!(text.contains("no problems found"), "{text}");
    }

    #[test]
    fn code_as_str_round_trips() {
        for code in [
            Code::E100,
            Code::E101,
            Code::E001,
            Code::E002,
            Code::E003,
            Code::E004,
            Code::E005,
            Code::E006,
            Code::E007,
            Code::E008,
            Code::E009,
            Code::E010,
            Code::E011,
            Code::E012,
            Code::E013,
            Code::W001,
            Code::W002,
            Code::W003,
            Code::W004,
            Code::W005,
            Code::W103,
            Code::W101,
            Code::W102,
            Code::W201,
            Code::W202,
            Code::W203,
            Code::W204,
            Code::W206,
            Code::W301,
            Code::W302,
            Code::W303,
            Code::W304,
        ] {
            assert_eq!(code.as_str().parse::<Code>().unwrap(), code);
        }
        assert!("E0".parse::<Code>().is_err());
    }

    #[test]
    fn dedup_keeps_first_per_code_and_span() {
        let mut diags = vec![
            Diagnostic::new(Code::W201, Span::DUMMY, "first copy"),
            Diagnostic::new(Code::W201, Span::DUMMY, "second copy"),
            Diagnostic::new(Code::W201, Span::new(3, 9), "different span survives"),
            Diagnostic::new(Code::W103, Span::new(3, 9), "different code survives"),
            Diagnostic::new(Code::W103, Span::new(3, 9), "exact duplicate dies"),
        ];
        dedup_diagnostics(&mut diags);
        assert_eq!(diags.len(), 3);
        assert_eq!(diags[0].message, "first copy");
        assert_eq!(diags[1].message, "different span survives");
        assert_eq!(diags[2].message, "different code survives");
    }

    #[test]
    fn multiline_source_renders_correct_line() {
        let src = "SELECT tb\nFROM PKT\nWHERE nope > 1\nGROUP BY time/60 as tb";
        let pos = src.find("nope").unwrap();
        let d = Diagnostic::new(Code::E002, Span::new(pos, pos + 4), "unknown name `nope`");
        let text = render_one(src, "query", &d);
        assert!(text.contains("--> query:3:7"), "{text}");
        assert!(text.contains("3 | WHERE nope > 1"), "{text}");
    }
}
