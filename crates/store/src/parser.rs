//! Recursive-descent parser for Subjective SQL.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! select    := SELECT cols FROM ident [ident]
//!              (JOIN ident [ident] ON colref '=' colref)*
//!              [WHERE expr] [WITH REVIEWS '(' qualifiers ')']
//!              [ORDER BY colref [ASC|DESC]] [LIMIT int]
//! insert    := INSERT INTO ident ['(' ident (',' ident)* ')']
//!              VALUES tuple (',' tuple)*
//! tuple     := '(' literal (',' literal)* ')'
//! literal   := number | string | TRUE | FALSE | NULL
//! cols      := '*' | colref (',' colref)*
//! qualifiers:= [qualifier (',' qualifier)*]
//! qualifier := 'year' cmp_op int
//!            | 'reviewer_min_count' ('>=' | '>') int
//! expr      := and_expr (OR and_expr)*
//! and_expr  := unary (AND unary)*
//! unary     := NOT unary | primary
//! primary   := '(' expr ')'
//!            | colref '.=' string          -- marker condition
//!            | colref cmp_op operand       -- objective comparison
//!            | string                      -- subjective predicate
//! operand   := colref | number | string | TRUE | FALSE
//! colref    := ident ['.' ident]
//! ```

use crate::ast::{
    CmpOp, ColumnRef, Expr, InsertStmt, Join, Operand, OrderBy, ReviewQualifier, Select,
};
use crate::value::Value;

/// A parse failure, with a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong, and roughly where.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a Subjective SQL `SELECT` statement.
pub fn parse_select(input: &str) -> Result<Select, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let select = p.parse_select()?;
    if p.pos != p.tokens.len() {
        return Err(p.err(&format!("unexpected trailing token {:?}", p.peek())));
    }
    Ok(select)
}

/// A top-level Subjective SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A plain `SELECT …`.
    Select(Select),
    /// `EXPLAIN ANALYZE SELECT …`: execute the query and return its
    /// per-stage trace instead of (or alongside) the rows.
    ExplainAnalyze(Select),
    /// `INSERT INTO … VALUES …`: the live-ingest write surface.
    Insert(InsertStmt),
}

impl Statement {
    /// The wrapped `SELECT` for the read-statement forms; `None` for a
    /// write statement.
    pub fn select(&self) -> Option<&Select> {
        match self {
            Statement::Select(s) | Statement::ExplainAnalyze(s) => Some(s),
            Statement::Insert(_) => None,
        }
    }
}

/// Parses a statement: a `SELECT` (optionally prefixed with
/// `EXPLAIN ANALYZE`) or an `INSERT`.
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let statement = if p.eat_keyword("insert") {
        Statement::Insert(p.parse_insert()?)
    } else {
        let explain = p.eat_keyword("explain");
        if explain {
            p.expect_keyword("analyze")?;
        }
        let select = p.parse_select()?;
        if explain {
            Statement::ExplainAnalyze(select)
        } else {
            Statement::Select(select)
        }
    };
    if p.pos != p.tokens.len() {
        return Err(p.err(&format!("unexpected trailing token {:?}", p.peek())));
    }
    Ok(statement)
}

/// Parses a Subjective SQL `INSERT` statement.
pub fn parse_insert(input: &str) -> Result<InsertStmt, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    p.expect_keyword("insert")?;
    let insert = p.parse_insert()?;
    if p.pos != p.tokens.len() {
        return Err(p.err(&format!("unexpected trailing token {:?}", p.peek())));
    }
    Ok(insert)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    Str(String),
    Star,
    Comma,
    LParen,
    RParen,
    Dot,
    DotEq,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

fn lex(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '.' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::DotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Dot);
                    i += 1;
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else if chars.get(i + 1) == Some(&'>') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(ParseError {
                        message: "stray '!'".into(),
                    });
                }
            }
            '"' | '\'' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j] != quote {
                    j += 1;
                }
                if j == chars.len() {
                    return Err(ParseError {
                        message: "unterminated string literal".into(),
                    });
                }
                tokens.push(Token::Str(chars[start..j].iter().collect()));
                i = j + 1;
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    // Stop before ".=" so "price.=" can't happen mid-number.
                    if chars[i] == '.' && chars.get(i + 1) == Some(&'=') {
                        break;
                    }
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let n = text.parse::<f64>().map_err(|_| ParseError {
                    message: format!("bad number {text}"),
                })?;
                tokens.push(Token::Number(n));
            }
            _ if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token::Ident(chars[start..i].iter().collect()));
            }
            _ => {
                return Err(ParseError {
                    message: format!("unexpected character {c:?}"),
                })
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: format!("{message} (at token {})", self.pos),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(w)) => Ok(w.to_lowercase()),
            other => Err(self.err(&format!("expected identifier, got {other:?}"))),
        }
    }

    fn is_reserved(word: &str) -> bool {
        [
            "select", "from", "where", "and", "or", "not", "join", "on", "order", "by", "limit",
            "asc", "desc", "true", "false", "with", "insert", "into", "values", "null",
        ]
        .iter()
        .any(|k| word.eq_ignore_ascii_case(k))
    }

    fn parse_select(&mut self) -> Result<Select, ParseError> {
        self.expect_keyword("select")?;
        let columns = self.parse_columns()?;
        self.expect_keyword("from")?;
        let from = self.expect_ident()?;
        let alias = self.parse_optional_alias();

        let mut joins = Vec::new();
        while self.eat_keyword("join") {
            let table = self.expect_ident()?;
            let join_alias = self.parse_optional_alias();
            self.expect_keyword("on")?;
            let left = self.parse_colref()?;
            if self.next() != Some(Token::Eq) {
                return Err(self.err("expected '=' in join condition"));
            }
            let right = self.parse_colref()?;
            joins.push(Join {
                table,
                alias: join_alias,
                left,
                right,
            });
        }

        let where_clause = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let review_qualifier = if self.eat_keyword("with") {
            Some(self.parse_review_qualifier()?)
        } else {
            None
        };

        let order_by = if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            let column = self.parse_colref()?;
            let ascending = if self.eat_keyword("desc") {
                false
            } else {
                self.eat_keyword("asc");
                true
            };
            Some(OrderBy { column, ascending })
        } else {
            None
        };

        let limit = if self.eat_keyword("limit") {
            match self.next() {
                Some(Token::Number(n)) if n >= 0.0 => Some(n as usize),
                other => return Err(self.err(&format!("expected limit count, got {other:?}"))),
            }
        } else {
            None
        };

        Ok(Select {
            columns,
            from,
            alias,
            joins,
            where_clause,
            review_qualifier,
            order_by,
            limit,
        })
    }

    /// Parses the remainder of an `INSERT` statement, after the leading
    /// `insert` keyword:
    /// `into <table> ['(' col, … ')'] values (lit, …) [, (lit, …)]*`.
    fn parse_insert(&mut self) -> Result<InsertStmt, ParseError> {
        self.expect_keyword("into")?;
        let table = self.expect_ident()?;
        let mut columns = Vec::new();
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            loop {
                columns.push(self.expect_ident()?);
                match self.next() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    other => {
                        return Err(self.err(&format!(
                            "expected ',' or ')' in insert column list, got {other:?}"
                        )))
                    }
                }
            }
        }
        self.expect_keyword("values")?;
        let mut rows = Vec::new();
        loop {
            if self.next() != Some(Token::LParen) {
                return Err(self.err("expected '(' to open a values tuple"));
            }
            let mut row = Vec::new();
            loop {
                row.push(self.parse_literal()?);
                match self.next() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    other => {
                        return Err(self.err(&format!(
                            "expected ',' or ')' in values tuple, got {other:?}"
                        )))
                    }
                }
            }
            if !columns.is_empty() && row.len() != columns.len() {
                return Err(self.err(&format!(
                    "values tuple has {} values but {} columns were named",
                    row.len(),
                    columns.len()
                )));
            }
            rows.push(row);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
                continue;
            }
            break;
        }
        Ok(InsertStmt {
            table,
            columns,
            rows,
        })
    }

    /// Parses one literal cell of a values tuple. Numbers follow the
    /// same Int/Float split as [`Parser::parse_operand`].
    fn parse_literal(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(if n.fract() == 0.0 && n.abs() < 9e15 {
                Value::Int(n as i64)
            } else {
                Value::Float(n)
            }),
            Some(Token::Str(s)) => Ok(Value::Text(s)),
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("null") => Ok(Value::Null),
            other => Err(self.err(&format!("expected literal value, got {other:?}"))),
        }
    }

    /// Parses `reviews(year >= 2015, reviewer_min_count >= 10)` — the
    /// review-qualifier clause following `with`. Bounds of the same kind
    /// intersect (two `year >=` keep the tighter one), so the qualifier
    /// is always a closed year range plus a min-degree threshold.
    fn parse_review_qualifier(&mut self) -> Result<ReviewQualifier, ParseError> {
        self.expect_keyword("reviews")?;
        if self.next() != Some(Token::LParen) {
            return Err(self.err("expected '(' after reviews"));
        }
        let mut q = ReviewQualifier::default();
        if self.peek() == Some(&Token::RParen) {
            self.pos += 1;
            return Ok(q);
        }
        loop {
            let field = self.expect_ident()?;
            let op = match self.next() {
                Some(Token::Lt) => CmpOp::Lt,
                Some(Token::Le) => CmpOp::Le,
                Some(Token::Gt) => CmpOp::Gt,
                Some(Token::Ge) => CmpOp::Ge,
                Some(Token::Eq) => CmpOp::Eq,
                other => {
                    return Err(self.err(&format!(
                        "expected comparison in review qualifier, got {other:?}"
                    )))
                }
            };
            let n = match self.next() {
                Some(Token::Number(n)) if n >= 0.0 && n.fract() == 0.0 && n < 4.0e9 => n as u32,
                other => {
                    return Err(self.err(&format!(
                        "expected a non-negative integer in review qualifier, got {other:?}"
                    )))
                }
            };
            let tighten_min = |cur: &mut Option<u32>, n: u32| {
                *cur = Some(cur.map_or(n, |c| c.max(n)));
            };
            let tighten_max = |cur: &mut Option<u32>, n: u32| {
                *cur = Some(cur.map_or(n, |c| c.min(n)));
            };
            match field.as_str() {
                "year" => match op {
                    CmpOp::Ge => tighten_min(&mut q.min_year, n),
                    CmpOp::Gt => tighten_min(&mut q.min_year, n.saturating_add(1)),
                    CmpOp::Le => tighten_max(&mut q.max_year, n),
                    CmpOp::Lt => tighten_max(&mut q.max_year, n.saturating_sub(1)),
                    CmpOp::Eq => {
                        tighten_min(&mut q.min_year, n);
                        tighten_max(&mut q.max_year, n);
                    }
                    CmpOp::Ne => unreachable!("not produced above"),
                },
                "reviewer_min_count" => match op {
                    CmpOp::Ge => tighten_min(&mut q.min_reviewer_count, n),
                    CmpOp::Gt => {
                        tighten_min(&mut q.min_reviewer_count, n.saturating_add(1));
                    }
                    other => {
                        return Err(self.err(&format!(
                            "reviewer_min_count supports only lower bounds (>=, >), got {other}"
                        )))
                    }
                },
                other => {
                    return Err(self.err(&format!(
                        "unknown review qualifier field {other:?} (expected year or reviewer_min_count)"
                    )))
                }
            }
            match self.next() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => {
                    return Err(self.err(&format!(
                        "expected ',' or ')' in review qualifier, got {other:?}"
                    )))
                }
            }
        }
        Ok(q)
    }

    fn parse_optional_alias(&mut self) -> Option<String> {
        if let Some(Token::Ident(w)) = self.peek() {
            if !Self::is_reserved(w) {
                let alias = w.to_lowercase();
                self.pos += 1;
                return Some(alias);
            }
        }
        None
    }

    fn parse_columns(&mut self) -> Result<Vec<ColumnRef>, ParseError> {
        if self.peek() == Some(&Token::Star) {
            self.pos += 1;
            return Ok(Vec::new());
        }
        let mut cols = vec![self.parse_colref()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            cols.push(self.parse_colref()?);
        }
        Ok(cols)
    }

    fn parse_colref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.expect_ident()?;
        if self.peek() == Some(&Token::Dot) {
            self.pos += 1;
            let column = self.expect_ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("or") {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        while self.eat_keyword("and") {
            let right = self.parse_unary()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword("not") {
            let inner = self.parse_unary()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.parse_expr()?;
                if self.next() != Some(Token::RParen) {
                    return Err(self.err("expected ')'"));
                }
                Ok(e)
            }
            Some(Token::Str(_)) => {
                let Some(Token::Str(s)) = self.next() else {
                    unreachable!()
                };
                Ok(Expr::Subjective(s))
            }
            Some(Token::Ident(_)) => {
                let colref = self.parse_colref()?;
                match self.peek() {
                    Some(Token::DotEq) => {
                        self.pos += 1;
                        match self.next() {
                            Some(Token::Str(s)) => Ok(Expr::MarkerMatch {
                                attribute: colref,
                                phrase: s,
                            }),
                            other => {
                                Err(self.err(&format!("expected string after .=, got {other:?}")))
                            }
                        }
                    }
                    _ => {
                        let op = match self.next() {
                            Some(Token::Lt) => CmpOp::Lt,
                            Some(Token::Le) => CmpOp::Le,
                            Some(Token::Gt) => CmpOp::Gt,
                            Some(Token::Ge) => CmpOp::Ge,
                            Some(Token::Eq) => CmpOp::Eq,
                            Some(Token::Ne) => CmpOp::Ne,
                            other => {
                                return Err(self.err(&format!("expected comparison, got {other:?}")))
                            }
                        };
                        let rhs = self.parse_operand()?;
                        Ok(Expr::Compare {
                            lhs: Operand::Column(colref),
                            op,
                            rhs,
                        })
                    }
                }
            }
            other => Err(self.err(&format!("unexpected token {other:?}"))),
        }
    }

    fn parse_operand(&mut self) -> Result<Operand, ParseError> {
        match self.peek() {
            Some(Token::Number(_)) => {
                let Some(Token::Number(n)) = self.next() else {
                    unreachable!()
                };
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    Ok(Operand::Literal(Value::Int(n as i64)))
                } else {
                    Ok(Operand::Literal(Value::Float(n)))
                }
            }
            Some(Token::Str(_)) => {
                let Some(Token::Str(s)) = self.next() else {
                    unreachable!()
                };
                Ok(Operand::Literal(Value::Text(s)))
            }
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("true") => {
                self.pos += 1;
                Ok(Operand::Literal(Value::Bool(true)))
            }
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("false") => {
                self.pos += 1;
                Ok(Operand::Literal(Value::Bool(false)))
            }
            Some(Token::Ident(_)) => Ok(Operand::Column(self.parse_colref()?)),
            other => Err(self.err(&format!("expected operand, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_running_example() {
        let q = parse_select(
            "select * from Hotels where price_pn < 150 and \
             \"has really clean rooms\" and \"is a romantic getaway\"",
        )
        .unwrap();
        assert_eq!(q.from, "hotels");
        let w = q.where_clause.unwrap();
        assert!(w.has_subjective());
        assert_eq!(
            w.subjective_predicates(),
            vec!["has really clean rooms", "is a romantic getaway"]
        );
    }

    #[test]
    fn parses_marker_match() {
        let q = parse_select(
            "select * from Hotels h where h.comfort .= \"firm\" and h.style .= \"luxurious\"",
        )
        .unwrap();
        let w = q.where_clause.unwrap();
        match w {
            Expr::And(a, b) => {
                assert!(matches!(*a, Expr::MarkerMatch { .. }));
                assert!(matches!(*b, Expr::MarkerMatch { .. }));
            }
            other => panic!("expected And, got {other:?}"),
        }
        assert_eq!(q.alias.as_deref(), Some("h"));
    }

    #[test]
    fn parses_projection_list() {
        let q = parse_select("select hotelname, price_pn from hotels").unwrap();
        assert_eq!(q.columns.len(), 2);
        assert_eq!(q.columns[0].column, "hotelname");
    }

    #[test]
    fn parses_join() {
        let q = parse_select(
            "select * from hotels h join cafes c on h.street = c.street \
             where \"a lively bar\" and \"a relaxing atmosphere\"",
        )
        .unwrap();
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].table, "cafes");
        assert_eq!(q.joins[0].left.table.as_deref(), Some("h"));
    }

    #[test]
    fn parses_order_and_limit() {
        let q = parse_select("select * from t order by price desc limit 10").unwrap();
        let ob = q.order_by.unwrap();
        assert!(!ob.ascending);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_not_and_parens() {
        let q = parse_select("select * from t where not (a > 1 or b < 2)").unwrap();
        assert!(matches!(q.where_clause.unwrap(), Expr::Not(_)));
    }

    #[test]
    fn parses_single_quotes() {
        let q = parse_select("select * from t where 'clean rooms'").unwrap();
        assert_eq!(
            q.where_clause.unwrap(),
            Expr::Subjective("clean rooms".into())
        );
    }

    #[test]
    fn parses_explain_analyze() {
        let s = parse_statement(
            "EXPLAIN ANALYZE select * from hotels where price_pn < 150 and \"clean rooms\" limit 5",
        )
        .unwrap();
        let Statement::ExplainAnalyze(q) = &s else {
            panic!("expected EXPLAIN ANALYZE, got {s:?}");
        };
        assert_eq!(q.from, "hotels");
        assert_eq!(q.limit, Some(5));
        assert_eq!(s.select().unwrap().from, "hotels");
        // Keywords are case-insensitive, like the rest of the dialect.
        assert!(matches!(
            parse_statement("explain analyze select * from t").unwrap(),
            Statement::ExplainAnalyze(_)
        ));
        // A plain select parses to the Select variant, identically to
        // `parse_select`.
        let plain = parse_statement("select * from t where \"a\"").unwrap();
        assert_eq!(
            *plain.select().unwrap(),
            parse_select("select * from t where \"a\"").unwrap()
        );
        // EXPLAIN without ANALYZE (or bare EXPLAIN ANALYZE) is rejected.
        assert!(parse_statement("explain select * from t").is_err());
        assert!(parse_statement("explain analyze").is_err());
    }

    #[test]
    fn parses_insert_statement() {
        let s = parse_statement(
            "INSERT INTO reviews (review_id, entity, reviewer_id, year, helpful_votes) \
             VALUES (900001, 'hotel_3', 42, 2019, 0)",
        )
        .unwrap();
        let Statement::Insert(ins) = &s else {
            panic!("expected Insert, got {s:?}");
        };
        assert_eq!(ins.table, "reviews");
        assert_eq!(
            ins.columns,
            [
                "review_id",
                "entity",
                "reviewer_id",
                "year",
                "helpful_votes"
            ]
        );
        assert_eq!(ins.rows.len(), 1);
        assert_eq!(
            ins.rows[0],
            vec![
                Value::Int(900001),
                Value::text("hotel_3"),
                Value::Int(42),
                Value::Int(2019),
                Value::Int(0),
            ]
        );
        // Write statements carry no SELECT.
        assert!(s.select().is_none());
    }

    #[test]
    fn parses_multi_row_insert_without_column_list() {
        let ins = parse_insert("insert into t values (1, 'a', true, null), (2, 'b', false, 1.5)")
            .unwrap();
        assert_eq!(ins.table, "t");
        assert!(ins.columns.is_empty());
        assert_eq!(ins.rows.len(), 2);
        assert_eq!(
            ins.rows[0],
            vec![
                Value::Int(1),
                Value::text("a"),
                Value::Bool(true),
                Value::Null
            ]
        );
        assert_eq!(ins.rows[1][3], Value::Float(1.5));
    }

    #[test]
    fn insert_rejects_bad_shapes() {
        for sql in [
            "insert",
            "insert into",
            "insert into t",
            "insert into t values",
            "insert into t values ()",
            "insert into t values (1",
            "insert into t values (1,)",
            "insert into t (a, b) values (1)",
            "insert into t values (1) garbage",
            "insert into t values (a)",
            "insert t values (1)",
        ] {
            assert!(parse_statement(sql).is_err(), "{sql:?} should not parse");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_select("select from").is_err());
        assert!(parse_select("").is_err());
        assert!(parse_select("select * from t where").is_err());
        assert!(parse_select("select * from t where \"unterminated").is_err());
        // "extra" would be a legal alias; a dangling number is not.
        assert!(parse_select("select * from t 5").is_err());
        assert!(parse_select("select * from t where 5 > 1").is_err());
    }

    #[test]
    fn float_and_int_literals() {
        let q = parse_select("select * from t where a < 1.5 and b > 2").unwrap();
        match q.where_clause.unwrap() {
            Expr::And(a, b) => {
                match *a {
                    Expr::Compare { rhs, .. } => {
                        assert_eq!(rhs, Operand::Literal(Value::Float(1.5)))
                    }
                    other => panic!("{other:?}"),
                }
                match *b {
                    Expr::Compare { rhs, .. } => assert_eq!(rhs, Operand::Literal(Value::Int(2))),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_review_qualifier() {
        let q = parse_select(
            "select * from hotels where \"clean rooms\" \
             with reviews(year >= 2015, reviewer_min_count >= 10) limit 5",
        )
        .unwrap();
        let rq = q.review_qualifier.unwrap();
        assert_eq!(rq.min_year, Some(2015));
        assert_eq!(rq.max_year, None);
        assert_eq!(rq.min_reviewer_count, Some(10));
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn review_qualifier_bounds_normalize_and_tighten() {
        let q = parse_select(
            "select * from t where \"a\" with reviews(year > 2010, year >= 2012, \
             year < 2018, reviewer_min_count > 3)",
        )
        .unwrap();
        let rq = q.review_qualifier.unwrap();
        assert_eq!(rq.min_year, Some(2012), "tightest lower bound wins");
        assert_eq!(rq.max_year, Some(2017), "strict < becomes inclusive -1");
        assert_eq!(rq.min_reviewer_count, Some(4), "strict > becomes >= n+1");
        let eq = parse_select("select * from t where \"a\" with reviews(year = 2014)").unwrap();
        let rq = eq.review_qualifier.unwrap();
        assert_eq!((rq.min_year, rq.max_year), (Some(2014), Some(2014)));
    }

    #[test]
    fn empty_review_qualifier_is_trivial() {
        let q = parse_select("select * from t where \"a\" with reviews()").unwrap();
        assert!(q.review_qualifier.unwrap().is_trivial());
        // No `with` clause at all parses to None, a distinct statement.
        let q = parse_select("select * from t where \"a\"").unwrap();
        assert!(q.review_qualifier.is_none());
    }

    #[test]
    fn with_is_reserved_and_not_an_alias() {
        // `with` cannot be captured as a table alias: the qualifier
        // grammar needs it after the (absent) where clause.
        let q = parse_select("select * from hotels with reviews(year >= 2010)").unwrap();
        assert_eq!(q.alias, None);
        assert_eq!(q.review_qualifier.unwrap().min_year, Some(2010));
    }

    #[test]
    fn review_qualifier_rejects_bad_shapes() {
        for sql in [
            "select * from t where \"a\" with",
            "select * from t where \"a\" with reviews",
            "select * from t where \"a\" with reviews(",
            "select * from t where \"a\" with reviews(year)",
            "select * from t where \"a\" with reviews(year >= 'x')",
            "select * from t where \"a\" with reviews(year >= 2010.5)",
            "select * from t where \"a\" with reviews(helpful >= 3)",
            "select * from t where \"a\" with reviews(reviewer_min_count <= 3)",
            "select * from t where \"a\" with reviews(year != 2010)",
            "select * from t where \"a\" with reviews(year >= 2010 year <= 2012)",
        ] {
            assert!(parse_select(sql).is_err(), "{sql:?} should not parse");
        }
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse_select("SELECT * FROM Hotels WHERE price_pn < 150 LIMIT 3").unwrap();
        assert_eq!(q.limit, Some(3));
    }
}
