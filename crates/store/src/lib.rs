//! An in-memory relational engine with a **Subjective SQL** dialect.
//!
//! The original OpineDB runs on PostgreSQL, parsing Subjective SQL with
//! `sqlparse` and evaluating membership functions as user-defined
//! aggregates. This crate provides the equivalent substrate:
//!
//! * [`value`] / [`schema`] / [`table`] / [`catalog`] — typed values,
//!   **columnar** tables (typed per-column vectors + null bitmaps behind
//!   a row-view adapter) with primary keys, and a concurrent catalog;
//! * [`bitmap`] / [`column`] — the candidate/null [`Bitmap`] and the
//!   typed column storage with vectorized objective comparisons;
//! * [`json`] — the one JSON formatter of cell values, which a frozen
//!   table also renders its cells with once ([`Table::render_json`]);
//! * [`ast`] / [`parser`] — the Subjective SQL dialect: ordinary
//!   `SELECT … FROM … WHERE` plus natural-language predicates
//!   (`"has really clean rooms"`) and direct marker conditions
//!   (`h.comfort .= "firm"`);
//! * [`exec`] — the executor: objective predicates evaluate to {0, 1},
//!   subjective ones to a degree of truth supplied by a
//!   [`exec::SubjectiveScorer`], all combined with a pluggable fuzzy
//!   algebra and returned as a ranked result.
//!
//! Writing a scorer: do everything that depends only on the
//! [`exec::Subjective`] leaf in `bind` (called once per leaf per
//! statement) and return an [`exec::BoundLeaf`]. Every leaf reads one
//! row's degree **by key** ([`exec::BoundLeaf::by_key`]): that is how
//! overlay rows, joined rows and rows of a table you know nothing about
//! are scored. Add a **by-position** reader
//! ([`exec::BoundLeaf::with_positions`]) only when you can prove that
//! row `i` of the `base` table you were handed is item `i` of whatever
//! you index — the executor then reads base rows as `read(i)` and never
//! renders their keys. A position is meaningful only together with its
//! table: `bind` and `rank_residue` both receive the statement's
//! [`exec::Scope`], whose `base` is that table; the candidate bitmap
//! indexes its rows, the ranking returns its positions, and a scorer
//! that cannot prove the table declines to rank it (`None`) rather than
//! guess. The scope also carries the review qualifier (`with
//! reviews(…)`), which a scorer honours or rejects with `NoScorer`.
//!
//! A scorer with an index may also rank ([`exec::SubjectiveScorer::rank_residue`]):
//! it receives the statement's [`exec::Residue`] — the WHERE tree as
//! parsed, objective conjuncts pruned — and its [`exec::Leaf`]s with the
//! algebra, `k` and the candidate bitmap, and must score a row with
//! [`exec::Residue::score`] over that row's leaf degrees (or, for an
//! [`exec::Residue::is_conjunction`] residue, [`exec::Residue::conjoin`],
//! the same fold without the tree walk). The row loop scores through
//! [`exec::Residue::score`] too, which makes the ranking its answer to
//! the bit. Sorted access (Fagin's TA) may bound an unseen row only for
//! a [`exec::Residue::is_monotone`] residue; one with a NOT must be
//! scanned.
//!
//! ```
//! use opine_store::{Catalog, Column, ColumnType, FuzzyAlgebra, Schema, Value};
//! use opine_store::parser::parse_select;
//! use opine_store::exec::{execute, ObjectiveOnly};
//!
//! let mut catalog = Catalog::new();
//! let schema = Schema::new(
//!     "hotels",
//!     vec![
//!         Column::new("name", ColumnType::Text),
//!         Column::new("price", ColumnType::Float),
//!     ],
//!     0,
//! );
//! catalog.create_table(schema).unwrap();
//! catalog
//!     .insert("hotels", vec![Value::text("Grand"), Value::Float(120.0)])
//!     .unwrap();
//! let q = parse_select("select * from hotels where price < 200 limit 5").unwrap();
//! let result = execute(&q, &catalog, &ObjectiveOnly, FuzzyAlgebra::Product, None).unwrap();
//! assert_eq!(result.len(), 1);
//! ```

pub mod ast;
pub mod bitmap;
pub mod catalog;
pub mod column;
pub mod exec;
pub mod json;
pub mod overlay;
pub mod parser;
pub mod schema;
pub mod table;
pub mod value;

pub use ast::{CmpOp, Expr, InsertStmt, OrderBy, ReviewQualifier, Select};
pub use bitmap::Bitmap;
pub use catalog::Catalog;
pub use column::ColumnData;
pub use exec::{
    execute, BoundLeaf, FuzzyAlgebra, Leaf, ObjectiveOnly, ProjectedValues, Residue, ResultSet,
    Scope, ScoredRows, Subjective, SubjectiveScorer,
};
pub use json::RenderedRow;
pub use overlay::TableOverlay;
pub use parser::{parse_insert, parse_select, parse_statement, ParseError, Statement};
pub use schema::{Column, ColumnType, Schema};
pub use table::{RowView, Table};
pub use value::{Value, ValueRef};

/// Errors produced by the storage and execution layers.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A table name was not found in the catalog.
    UnknownTable(String),
    /// A column name was not found in a table.
    UnknownColumn(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// Row arity or value type does not match the schema.
    SchemaMismatch(String),
    /// A subjective construct was used without a scorer that supports it.
    NoScorer(String),
    /// Any other execution error.
    Execution(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            StoreError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            StoreError::DuplicateTable(t) => write!(f, "table already exists: {t}"),
            StoreError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StoreError::NoScorer(p) => {
                write!(f, "subjective construct needs a scorer: {p}")
            }
            StoreError::Execution(m) => write!(f, "execution error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}
