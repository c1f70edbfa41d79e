//! The Subjective SQL abstract syntax tree.

use crate::value::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
}

impl CmpOp {
    /// Truth of the comparison given the SQL-style ordering of its
    /// operands; `None` (incomparable / NULL) is always false. This is
    /// *the* objective-predicate semantics — the row-at-a-time
    /// executor and the vectorized column comparison both call it, so
    /// they cannot drift apart.
    #[inline]
    pub fn evaluate(&self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering;
        match (self, ord) {
            (_, None) => false,
            (CmpOp::Lt, Some(o)) => o == Ordering::Less,
            (CmpOp::Le, Some(o)) => o != Ordering::Greater,
            (CmpOp::Gt, Some(o)) => o == Ordering::Greater,
            (CmpOp::Ge, Some(o)) => o != Ordering::Less,
            (CmpOp::Eq, Some(o)) => o == Ordering::Equal,
            (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
        }
    }

    /// The operator with its operands swapped: `lit op col` ≡
    /// `col (op.flip()) lit`. Lets the vectorized comparison handle
    /// literal-first spellings.
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

/// A column reference, optionally qualified with a table alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Optional table name or alias (`h` in `h.price`).
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

/// A WHERE-clause expression.
///
/// Objective sub-expressions evaluate to 0/1; subjective ones to a degree
/// of truth in `[0, 1]`; `And`/`Or`/`Not` combine them under the chosen
/// fuzzy algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Comparison between a column and a literal (or two columns).
    Compare {
        /// Left operand.
        lhs: Operand,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: Operand,
    },
    /// A natural-language subjective predicate: `"has really clean rooms"`.
    Subjective(String),
    /// A direct marker condition: `h.comfort .= "firm"`.
    MarkerMatch {
        /// The subjective attribute reference.
        attribute: ColumnRef,
        /// The marker or free phrase.
        phrase: String,
    },
    /// Fuzzy conjunction (⊗).
    And(Box<Expr>, Box<Expr>),
    /// Fuzzy disjunction (⊕).
    Or(Box<Expr>, Box<Expr>),
    /// Fuzzy negation (1 − x).
    Not(Box<Expr>),
}

/// A comparison operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Column reference.
    Column(ColumnRef),
    /// Literal value.
    Literal(Value),
}

/// ORDER BY direction and column.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// Column to order by.
    pub column: ColumnRef,
    /// Ascending when true.
    pub ascending: bool,
}

/// A join clause: `JOIN table [alias] ON left = right`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Joined table name.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
    /// Left side of the equi-join condition.
    pub left: ColumnRef,
    /// Right side of the equi-join condition.
    pub right: ColumnRef,
}

/// A review qualifier: which reviews count toward subjective degrees
/// (Sec. 2/6 of the paper — "only opinions of reviewers who reviewed at
/// least 10 hotels", "reviews after 2010").
///
/// Spelled `with reviews(year >= 2015, reviewer_min_count >= 10)` after
/// the WHERE clause. The bounds are closed: `min_year`/`max_year` are
/// inclusive, `min_reviewer_count` is the smallest accepted number of
/// reviews the author wrote corpus-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReviewQualifier {
    /// Earliest accepted publication year (inclusive).
    pub min_year: Option<u32>,
    /// Latest accepted publication year (inclusive).
    pub max_year: Option<u32>,
    /// Minimum number of reviews the author wrote (inclusive).
    pub min_reviewer_count: Option<u32>,
}

impl ReviewQualifier {
    /// True when the qualifier accepts every review.
    pub fn is_trivial(&self) -> bool {
        self.min_year.is_none() && self.max_year.is_none() && self.min_reviewer_count.is_none()
    }

    /// The reference semantics: does a review published in `year` by an
    /// author with `reviewer_count` total reviews qualify? Every
    /// evaluation path (the engine's fold, the reference's rescan) calls
    /// this.
    pub fn accepts(&self, year: u32, reviewer_count: u32) -> bool {
        self.min_year.is_none_or(|y| year >= y)
            && self.max_year.is_none_or(|y| year <= y)
            && self.min_reviewer_count.is_none_or(|c| reviewer_count >= c)
    }
}

impl std::fmt::Display for ReviewQualifier {
    /// Canonical rendering, e.g.
    /// `reviews(year >= 2015, reviewer_min_count >= 10)`. Injective over
    /// the bound values, so it doubles as the filtered-summary cache key
    /// and as the [`Select::normalized`] suffix distinguishing qualified
    /// statement variants.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("reviews(")?;
        let mut first = true;
        let mut sep = |f: &mut std::fmt::Formatter<'_>| -> std::fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                f.write_str(", ")
            }
        };
        if let Some(y) = self.min_year {
            sep(f)?;
            write!(f, "year >= {y}")?;
        }
        if let Some(y) = self.max_year {
            sep(f)?;
            write!(f, "year <= {y}")?;
        }
        if let Some(c) = self.min_reviewer_count {
            sep(f)?;
            write!(f, "reviewer_min_count >= {c}")?;
        }
        f.write_str(")")
    }
}

/// A parsed `INSERT` statement:
/// `insert into <table> [(col, …)] values (v, …) [, (v, …)]*`.
///
/// The write surface of live ingest. Values are literals only — the
/// engine-side executor validates them against the table schema, so
/// the AST stays typed-value-agnostic like [`Operand::Literal`].
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table name (lowercased, like every identifier).
    pub table: String,
    /// Explicit column list; empty means schema order.
    pub columns: Vec<String>,
    /// One literal tuple per `(…)` group, in statement order.
    pub rows: Vec<Vec<Value>>,
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projected columns; empty means `*`.
    pub columns: Vec<ColumnRef>,
    /// Base table.
    pub from: String,
    /// Optional alias for the base table.
    pub alias: Option<String>,
    /// Equi-joins, applied left to right.
    pub joins: Vec<Join>,
    /// Optional WHERE expression.
    pub where_clause: Option<Expr>,
    /// Optional review qualifier scoping the subjective degrees.
    pub review_qualifier: Option<ReviewQualifier>,
    /// Optional ORDER BY (defaults to fuzzy score descending).
    pub order_by: Option<OrderBy>,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

impl Expr {
    /// True when the expression contains any subjective construct.
    pub fn has_subjective(&self) -> bool {
        match self {
            Expr::Subjective(_) | Expr::MarkerMatch { .. } => true,
            Expr::Compare { .. } => false,
            Expr::And(a, b) | Expr::Or(a, b) => a.has_subjective() || b.has_subjective(),
            Expr::Not(e) => e.has_subjective(),
        }
    }

    /// Collects the texts of all natural-language predicates.
    pub fn subjective_predicates(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_subjective(&mut out);
        out
    }

    /// True when every leaf is a subjective construct — no objective
    /// comparison anywhere. Such expressions evaluate the subjective
    /// degrees for *every* row; a mixed expression may short-circuit on
    /// its objective filters.
    pub fn is_purely_subjective(&self) -> bool {
        match self {
            Expr::Subjective(_) | Expr::MarkerMatch { .. } => true,
            Expr::Compare { .. } => false,
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.is_purely_subjective() && b.is_purely_subjective()
            }
            Expr::Not(e) => e.is_purely_subjective(),
        }
    }

    /// Flattens the top-level `AND` tree into its conjuncts, left to
    /// right. A non-`And` expression is a single conjunct. The planner
    /// evaluates the objective ones into the candidate bitmap.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        match self {
            Expr::And(a, b) => {
                a.collect_conjuncts(out);
                b.collect_conjuncts(out);
            }
            other => out.push(other),
        }
    }

    fn collect_subjective<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Subjective(s) => out.push(s),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_subjective(out);
                b.collect_subjective(out);
            }
            Expr::Not(e) => e.collect_subjective(out),
            _ => {}
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// Escapes quotes and backslashes so two distinct strings never render
/// identically. The lexer has no escape sequences, so escaped output is
/// not re-parseable — but a cache key only needs to be injective.
fn fmt_quoted(s: &str, quote: char, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    use std::fmt::Write;
    f.write_char(quote)?;
    for c in s.chars() {
        if c == quote || c == '\\' {
            f.write_char('\\')?;
        }
        f.write_char(c)?;
    }
    f.write_char(quote)
}

/// Lossless literal rendering for [`Select::normalized`]. `Value`'s
/// `Display` rounds floats for human output; a cache key must instead
/// round-trip every distinct literal to a distinct string.
fn fmt_literal(v: &Value, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    match v {
        Value::Null => f.write_str("null"),
        Value::Int(i) => write!(f, "{i}"),
        Value::Float(x) => write!(f, "{x}"),
        Value::Text(s) => fmt_quoted(s, '\'', f),
        Value::Bool(b) => write!(f, "{b}"),
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Column(c) => write!(f, "{c}"),
            Operand::Literal(v) => fmt_literal(v, f),
        }
    }
}

impl std::fmt::Display for Expr {
    /// Canonical form: binary operators are always parenthesized, so the
    /// rendering is unambiguous regardless of the precedence the parser
    /// applied.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Compare { lhs, op, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Expr::Subjective(p) => fmt_quoted(p, '"', f),
            Expr::MarkerMatch { attribute, phrase } => {
                write!(f, "{attribute} .= ")?;
                fmt_quoted(phrase, '"', f)
            }
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::Not(e) => write!(f, "not ({e})"),
        }
    }
}

impl Select {
    /// A canonical, whitespace/case-normalized rendering of the statement.
    ///
    /// Two textual queries that parse to the same AST normalize to the
    /// same string, so this is the key the serving layer's result cache
    /// uses: `SELECT  *  FROM hotels` and `select * from hotels` share an
    /// entry, while any semantic difference (a literal, a limit, an
    /// operator) produces a different key.
    pub fn normalized(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("select ");
        if self.columns.is_empty() {
            s.push('*');
        } else {
            for (i, c) in self.columns.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{c}");
            }
        }
        let _ = write!(s, " from {}", self.from);
        if let Some(a) = &self.alias {
            let _ = write!(s, " {a}");
        }
        for j in &self.joins {
            let _ = write!(s, " join {}", j.table);
            if let Some(a) = &j.alias {
                let _ = write!(s, " {a}");
            }
            let _ = write!(s, " on {} = {}", j.left, j.right);
        }
        if let Some(w) = &self.where_clause {
            let _ = write!(s, " where {w}");
        }
        if let Some(q) = &self.review_qualifier {
            let _ = write!(s, " with {q}");
        }
        if let Some(ob) = &self.order_by {
            let _ = write!(
                s,
                " order by {} {}",
                ob.column,
                if ob.ascending { "asc" } else { "desc" }
            );
        }
        if let Some(l) = self.limit {
            let _ = write!(s, " limit {l}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subjective_detection() {
        let objective = Expr::Compare {
            lhs: Operand::Column(ColumnRef {
                table: None,
                column: "price".into(),
            }),
            op: CmpOp::Lt,
            rhs: Operand::Literal(Value::Int(150)),
        };
        assert!(!objective.has_subjective());
        let mixed = Expr::And(
            Box::new(objective),
            Box::new(Expr::Subjective("clean rooms".into())),
        );
        assert!(mixed.has_subjective());
        assert_eq!(mixed.subjective_predicates(), vec!["clean rooms"]);
    }

    #[test]
    fn normalization_collapses_formatting_variants() {
        let a = crate::parser::parse_select(
            "SELECT  *  FROM Hotels WHERE price_pn < 150 AND \"clean rooms\" LIMIT 5",
        )
        .unwrap();
        let b = crate::parser::parse_select(
            "select * from hotels where (price_pn < 150 and 'clean rooms') limit 5",
        )
        .unwrap();
        assert_eq!(a.normalized(), b.normalized());
        assert_eq!(
            a.normalized(),
            "select * from hotels where (price_pn < 150 and \"clean rooms\") limit 5"
        );
    }

    #[test]
    fn normalization_reparses_to_the_same_ast() {
        for sql in [
            "select * from hotels where price_pn < 150 and \"clean rooms\" limit 5",
            "select hotelname, price_pn from hotels h join cafes c on h.street = c.street",
            "select * from t where not (a > 1.25 or b != 'x') order by a desc limit 3",
            "select * from hotels h where h.comfort .= \"firm\"",
        ] {
            let q = crate::parser::parse_select(sql).unwrap();
            let reparsed = crate::parser::parse_select(&q.normalized()).unwrap();
            assert_eq!(q, reparsed, "normalized form of {sql:?} must round-trip");
            assert_eq!(q.normalized(), reparsed.normalized());
        }
    }

    #[test]
    fn normalization_distinguishes_qualified_variants() {
        let plain = crate::parser::parse_select("select * from hotels where \"clean rooms\"")
            .unwrap()
            .normalized();
        let y2015 = crate::parser::parse_select(
            "select * from hotels where \"clean rooms\" with reviews(year >= 2015)",
        )
        .unwrap()
        .normalized();
        let y2016 = crate::parser::parse_select(
            "select * from hotels where \"clean rooms\" with reviews(year >= 2016)",
        )
        .unwrap()
        .normalized();
        let trivial = crate::parser::parse_select(
            "select * from hotels where \"clean rooms\" with reviews()",
        )
        .unwrap()
        .normalized();
        // Every semantic variant keys the result cache differently.
        for pair in [
            (&plain, &y2015),
            (&plain, &trivial),
            (&y2015, &y2016),
            (&y2015, &trivial),
        ] {
            assert_ne!(pair.0, pair.1);
        }
        // Spelling variants of one qualifier collapse.
        let gt = crate::parser::parse_select(
            "select * from hotels where \"clean rooms\" with reviews(year > 2014)",
        )
        .unwrap()
        .normalized();
        assert_eq!(gt, y2015);
    }

    #[test]
    fn qualified_normalization_round_trips() {
        for sql in [
            "select * from hotels where \"clean rooms\" with reviews(year >= 2015, reviewer_min_count >= 10) limit 5",
            "select * from hotels where \"a\" with reviews(year >= 2010, year <= 2012)",
            "select * from hotels where \"a\" with reviews()",
            "select * from hotels with reviews(reviewer_min_count >= 3)",
        ] {
            let q = crate::parser::parse_select(sql).unwrap();
            let reparsed = crate::parser::parse_select(&q.normalized()).unwrap();
            assert_eq!(q, reparsed, "normalized form of {sql:?} must round-trip");
            assert_eq!(q.normalized(), reparsed.normalized());
        }
    }

    #[test]
    fn review_qualifier_accepts_reference_semantics() {
        let q = ReviewQualifier {
            min_year: Some(2010),
            max_year: Some(2015),
            min_reviewer_count: Some(10),
        };
        assert!(q.accepts(2010, 10));
        assert!(q.accepts(2015, 99));
        assert!(!q.accepts(2009, 10), "below the year range");
        assert!(!q.accepts(2016, 10), "above the year range");
        assert!(!q.accepts(2012, 9), "too few reviews written");
        assert!(ReviewQualifier::default().is_trivial());
        assert!(ReviewQualifier::default().accepts(0, 0));
        assert!(!q.is_trivial());
    }

    #[test]
    fn normalization_keeps_distinct_literals_distinct() {
        let a = crate::parser::parse_select("select * from t where x < 150.123456").unwrap();
        let b = crate::parser::parse_select("select * from t where x < 150.123457").unwrap();
        assert_ne!(a.normalized(), b.normalized());
    }

    #[test]
    fn conjuncts_flatten_left_to_right() {
        let q = crate::parser::parse_select(
            "select * from t where price < 150 and \"a\" and x = 'y' and \"b\"",
        )
        .unwrap();
        let w = q.where_clause.unwrap();
        let parts = w.conjuncts();
        assert_eq!(parts.len(), 4);
        assert!(matches!(parts[0], Expr::Compare { .. }));
        assert_eq!(parts[1], &Expr::Subjective("a".into()));
        assert!(matches!(parts[2], Expr::Compare { .. }));
        assert_eq!(parts[3], &Expr::Subjective("b".into()));
        // Non-And roots are a single conjunct.
        let q = crate::parser::parse_select("select * from t where \"a\" or \"b\"").unwrap();
        assert_eq!(q.where_clause.unwrap().conjuncts().len(), 1);
    }

    #[test]
    fn cmp_op_truth_table() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Lt.evaluate(Some(Less)));
        assert!(!CmpOp::Lt.evaluate(Some(Equal)));
        assert!(CmpOp::Le.evaluate(Some(Equal)));
        assert!(CmpOp::Gt.evaluate(Some(Greater)));
        assert!(CmpOp::Ge.evaluate(Some(Greater)));
        assert!(CmpOp::Eq.evaluate(Some(Equal)));
        assert!(CmpOp::Ne.evaluate(Some(Less)));
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert!(!op.evaluate(None), "NULL/incomparable is always false");
        }
    }

    #[test]
    fn normalization_escapes_embedded_quotes() {
        // A predicate containing quote characters must not collide with
        // the rendering of a conjunction of two predicates.
        let tricky = Expr::Subjective("a\" and \"b".into());
        let pair = Expr::And(
            Box::new(Expr::Subjective("a".into())),
            Box::new(Expr::Subjective("b".into())),
        );
        assert_ne!(tricky.to_string(), pair.to_string());
    }
}
