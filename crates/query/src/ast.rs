//! The parsed query representation, plus a pretty-printer used for
//! diagnostics and round-trip tests.
//!
//! Every expression node carries a byte-offset [`Span`] into the source
//! text so the analyzer can point diagnostics at the offending
//! characters. Spans are *not* part of structural equality: two ASTs
//! parsed from differently-spaced sources compare equal, which is what
//! the parse → pretty-print → re-parse round-trip tests rely on.

use std::fmt;

/// A half-open byte range `[start, end)` into the query source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// A placeholder span for synthesized nodes.
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    /// Build a span.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// `true` for the placeholder span of synthesized nodes.
    pub fn is_dummy(self) -> bool {
        self == Span::DUMMY
    }
}

/// An identifier with its source span, used for positions that name
/// things rather than compute them (`FROM`, `SUPERGROUP`). Equality
/// ignores the span.
#[derive(Debug, Clone, Eq)]
pub struct Name {
    /// The identifier text.
    pub text: String,
    /// Where it appeared.
    pub span: Span,
}

impl Name {
    /// A name with a placeholder span (for programmatic construction).
    pub fn synthetic(text: impl Into<String>) -> Self {
        Name { text: text.into(), span: Span::DUMMY }
    }

    /// A name at a source location.
    pub fn new(text: impl Into<String>, span: Span) -> Self {
        Name { text: text.into(), span }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.text == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        &self.text == other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Binary operators at the AST level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinAstOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinAstOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinAstOp::Add => "+",
            BinAstOp::Sub => "-",
            BinAstOp::Mul => "*",
            BinAstOp::Div => "/",
            BinAstOp::Rem => "%",
            BinAstOp::Eq => "=",
            BinAstOp::Ne => "<>",
            BinAstOp::Lt => "<",
            BinAstOp::Le => "<=",
            BinAstOp::Gt => ">",
            BinAstOp::Ge => ">=",
            BinAstOp::And => "AND",
            BinAstOp::Or => "OR",
        }
    }

    /// `true` for `=`, `<>`, `<`, `<=`, `>`, `>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinAstOp::Eq | BinAstOp::Ne | BinAstOp::Lt | BinAstOp::Le | BinAstOp::Gt | BinAstOp::Ge
        )
    }

    /// `true` for `AND` / `OR`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinAstOp::And | BinAstOp::Or)
    }
}

/// The shape of an unresolved expression (see [`AstExpr`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(u64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// A name: column, group-by variable — resolved by the planner.
    Ident(String),
    /// `*` (only valid as a call argument, e.g. `count_distinct$(*)`).
    Star,
    /// A function call; `superagg` marks the `$` suffix.
    Call {
        /// Function name.
        name: String,
        /// `true` for `name$(...)`.
        superagg: bool,
        /// Arguments.
        args: Vec<AstExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinAstOp,
        /// Left operand.
        lhs: Box<AstExpr>,
        /// Right operand.
        rhs: Box<AstExpr>,
    },
    /// `NOT expr`.
    Not(Box<AstExpr>),
    /// `-expr`.
    Neg(Box<AstExpr>),
}

/// An unresolved expression: an [`ExprKind`] plus its source [`Span`].
///
/// Equality compares only the kind (recursively), never spans.
#[derive(Debug, Clone)]
pub struct AstExpr {
    /// The expression shape.
    pub kind: ExprKind,
    /// Where it appeared in the source.
    pub span: Span,
}

impl AstExpr {
    /// Build an expression at a source location.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        AstExpr { kind, span }
    }

    /// Visit this node and then, depth first, every node under it.
    pub fn walk<'e>(&'e self, f: &mut impl FnMut(&'e AstExpr)) {
        f(self);
        match &self.kind {
            ExprKind::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            ExprKind::Not(inner) | ExprKind::Neg(inner) => inner.walk(f),
            ExprKind::Call { args, .. } => args.iter().for_each(|a| a.walk(f)),
            _ => {}
        }
    }
}

impl From<ExprKind> for AstExpr {
    /// Wrap a kind with a placeholder span (programmatic construction
    /// and tests).
    fn from(kind: ExprKind) -> Self {
        AstExpr { kind, span: Span::DUMMY }
    }
}

impl PartialEq for AstExpr {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl fmt::Display for AstExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ExprKind::Int(v) => write!(f, "{v}"),
            ExprKind::Float(v) => {
                if v.fract() == 0.0 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            ExprKind::Str(s) => write!(f, "'{s}'"),
            ExprKind::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            ExprKind::Ident(n) => write!(f, "{n}"),
            ExprKind::Star => write!(f, "*"),
            ExprKind::Call { name, superagg, args } => {
                write!(f, "{name}{}(", if *superagg { "$" } else { "" })?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ExprKind::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            ExprKind::Not(e) => write!(f, "(NOT {e})"),
            ExprKind::Neg(e) => write!(f, "(-{e})"),
        }
    }
}

/// One SELECT-list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: AstExpr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

impl SelectItem {
    /// The output column name: the alias, a bare identifier's own name,
    /// or a generated `col<i>`.
    pub fn output_name(&self, index: usize) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.expr.kind {
            ExprKind::Ident(n) => n.clone(),
            ExprKind::Call { name, superagg, .. } => {
                format!("{name}{}", if *superagg { "$" } else { "" })
            }
            _ => format!("col{index}"),
        }
    }
}

/// One GROUP BY entry: an expression with an optional `AS` name.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupItem {
    /// The grouping expression.
    pub expr: AstExpr,
    /// Optional `AS` name; a bare identifier names itself.
    pub alias: Option<String>,
}

impl GroupItem {
    /// The group-by variable's name.
    pub fn name(&self, index: usize) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.expr.kind {
            ExprKind::Ident(n) => n.clone(),
            _ => format!("gb{index}"),
        }
    }
}

/// A parsed sampling query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// FROM stream name.
    pub from: Name,
    /// WHERE predicate.
    pub where_clause: Option<AstExpr>,
    /// GROUP BY list.
    pub group_by: Vec<GroupItem>,
    /// SUPERGROUP variable names (empty = the ALL supergroup).
    pub supergroup: Vec<Name>,
    /// HAVING predicate.
    pub having: Option<AstExpr>,
    /// CLEANING WHEN predicate.
    pub cleaning_when: Option<AstExpr>,
    /// CLEANING BY predicate.
    pub cleaning_by: Option<AstExpr>,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, s) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", s.expr)?;
            if let Some(a) = &s.alias {
                write!(f, " as {a}")?;
            }
        }
        write!(f, " FROM {}", self.from)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        write!(f, " GROUP BY ")?;
        for (i, g) in self.group_by.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", g.expr)?;
            if let Some(a) = &g.alias {
                write!(f, " as {a}")?;
            }
        }
        if !self.supergroup.is_empty() {
            let names: Vec<&str> = self.supergroup.iter().map(|n| n.text.as_str()).collect();
            write!(f, " SUPERGROUP {}", names.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if let Some(c) = &self.cleaning_when {
            write!(f, " CLEANING WHEN {c}")?;
        }
        if let Some(c) = &self.cleaning_by {
            write!(f, " CLEANING BY {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(kind: ExprKind) -> AstExpr {
        kind.into()
    }

    #[test]
    fn expr_display() {
        let expr = e(ExprKind::Binary {
            op: BinAstOp::Le,
            lhs: Box::new(e(ExprKind::Ident("HX".into()))),
            rhs: Box::new(e(ExprKind::Call {
                name: "Kth_smallest_value".into(),
                superagg: true,
                args: vec![e(ExprKind::Ident("HX".into())), e(ExprKind::Int(100))],
            })),
        });
        assert_eq!(expr.to_string(), "(HX <= Kth_smallest_value$(HX, 100))");
    }

    #[test]
    fn select_item_names() {
        let item = SelectItem { expr: e(ExprKind::Ident("srcIP".into())), alias: None };
        assert_eq!(item.output_name(0), "srcIP");
        let item = SelectItem {
            expr: e(ExprKind::Call { name: "sum".into(), superagg: false, args: vec![] }),
            alias: Some("total".into()),
        };
        assert_eq!(item.output_name(1), "total");
        let item = SelectItem { expr: e(ExprKind::Int(1)), alias: None };
        assert_eq!(item.output_name(2), "col2");
    }

    #[test]
    fn group_item_names() {
        let g = GroupItem {
            expr: e(ExprKind::Binary {
                op: BinAstOp::Div,
                lhs: Box::new(e(ExprKind::Ident("time".into()))),
                rhs: Box::new(e(ExprKind::Int(60))),
            }),
            alias: Some("tb".into()),
        };
        assert_eq!(g.name(0), "tb");
        let g = GroupItem { expr: e(ExprKind::Ident("srcIP".into())), alias: None };
        assert_eq!(g.name(1), "srcIP");
    }

    #[test]
    fn equality_ignores_spans() {
        let a = AstExpr::new(ExprKind::Int(7), Span::new(3, 4));
        let b = AstExpr::new(ExprKind::Int(7), Span::new(10, 11));
        assert_eq!(a, b);
        let nested_a = AstExpr::new(ExprKind::Not(Box::new(a.clone())), Span::new(0, 4));
        let nested_b = AstExpr::new(ExprKind::Not(Box::new(b)), Span::DUMMY);
        assert_eq!(nested_a, nested_b);
        assert_ne!(AstExpr::from(ExprKind::Int(7)), AstExpr::from(ExprKind::Int(8)));
        assert_eq!(Name::new("tb", Span::new(1, 3)), Name::synthetic("tb"));
        assert_eq!(Name::synthetic("PKT"), "PKT");
    }

    #[test]
    fn span_merge() {
        assert_eq!(Span::new(3, 7).to(Span::new(10, 12)), Span::new(3, 12));
        assert_eq!(Span::new(10, 12).to(Span::new(3, 7)), Span::new(3, 12));
        assert!(Span::DUMMY.is_dummy());
        assert!(!Span::new(0, 1).is_dummy());
    }
}
