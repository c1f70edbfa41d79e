//! The executor: evaluates a [`Select`] against a [`Catalog`].
//!
//! Every row receives a fuzzy score in `[0, 1]`: objective comparisons
//! contribute 0 or 1 (as in Sec. 3.1 of the paper, "an objective predicate
//! will simply be interpreted as 0 or 1"), subjective constructs ask a
//! [`SubjectiveScorer`] for a degree of truth, and the WHERE expression
//! combines them with the configured [`FuzzyAlgebra`]. The result is ranked
//! by score descending (unless an explicit ORDER BY overrides it).
//!
//! ## Planning
//!
//! For single-table queries the WHERE clause is split into an
//! **objective prefilter** and a **subjective residue**: the objective
//! conjuncts evaluate vectorized over the table's typed columns into a
//! candidate [`Bitmap`], and the residue is scored only over candidates.
//! When every leaf of the residue is a natural-language predicate — any
//! nest of AND / OR / NOT, under either algebra — the residue as parsed
//! ([`Residue`]) and the bitmap are handed to the scorer's top-k
//! ([`SubjectiveScorer::rank_residue`]): the paper's running example
//! `price_pn < 150 and "clean rooms"` and a filtered
//! `price_pn < 150 and ("a" or "b")` both ride the ranking kernel
//! instead of row-at-a-time scoring.
//!
//! Everything else — a `.=` leaf, a comparison under OR/NOT, an
//! `ORDER BY`, joined rows, overlay rows, a statement without an index
//! behind it — goes through one row loop (`score_rows`), which binds
//! each subjective leaf once per statement
//! ([`SubjectiveScorer::bind_predicate`], [`SubjectiveScorer::bind_match`])
//! and reads the bound leaf once per row. The row loop (`eval`) and the
//! ranking kernel ([`Residue::score`]) apply the fuzzy operations in the
//! same order, so both produce the same bits.
//!
//! ## Row positions
//!
//! The identifier that crosses the scorer boundary is a **row position
//! of the statement's base table**, and every call that carries one also
//! carries that [`Table`]: candidate bitmaps index its rows, the ranking
//! returns its positions, and a [`BoundLeaf`] may offer a by-position
//! reader for it. A scorer that cannot prove how the table's rows relate
//! to whatever it indexes reads by key and declines to rank.

use crate::ast::{CmpOp, ColumnRef, Expr, Operand, ReviewQualifier, Select};
use crate::bitmap::Bitmap;
use crate::catalog::Catalog;
use crate::overlay::TableOverlay;
use crate::table::{RowView, Table};
use crate::value::{Value, ValueRef};
use crate::StoreError;
use std::cmp::Ordering;
use std::collections::HashMap;

/// The two t-norm variants the paper discusses (Sec. 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FuzzyAlgebra {
    /// The multiplication variant OpineDB uses: `x⊗y = xy`,
    /// `x⊕y = 1−(1−x)(1−y)`, `¬x = 1−x`.
    #[default]
    Product,
    /// The classic Gödel variant: `x⊗y = min`, `x⊕y = max`, `¬x = 1−x`.
    Godel,
}

impl FuzzyAlgebra {
    /// Fuzzy AND.
    #[inline]
    pub fn and(&self, x: f64, y: f64) -> f64 {
        match self {
            FuzzyAlgebra::Product => x * y,
            FuzzyAlgebra::Godel => x.min(y),
        }
    }

    /// Fuzzy OR.
    #[inline]
    pub fn or(&self, x: f64, y: f64) -> f64 {
        match self {
            FuzzyAlgebra::Product => 1.0 - (1.0 - x) * (1.0 - y),
            FuzzyAlgebra::Godel => x.max(y),
        }
    }

    /// Fuzzy NOT.
    #[inline]
    pub fn not(&self, x: f64) -> f64 {
        1.0 - x
    }
}

/// One subjective leaf of a WHERE clause, bound by a [`SubjectiveScorer`]
/// for the statement being executed. It always reads a row's degree of
/// truth **by key** (the base table's key value — in OpineDB the entity
/// identifier); a scorer that has proven how the base table's row
/// positions map to what it indexes also offers a **by-position**
/// reader, which the row loop prefers for base-table rows.
pub struct BoundLeaf<'s> {
    by_key: KeyReader<'s>,
    by_position: Option<PositionReader<'s>>,
}

type KeyReader<'s> = Box<dyn Fn(&Value) -> Result<f64, StoreError> + 's>;
type PositionReader<'s> = Box<dyn Fn(usize) -> f64 + 's>;

impl<'s> BoundLeaf<'s> {
    /// A leaf that reads by key only. Owned rows (overlay, joined) are
    /// always read this way, so every leaf has this reader.
    pub fn by_key(read: impl Fn(&Value) -> Result<f64, StoreError> + 's) -> Self {
        BoundLeaf {
            by_key: Box::new(read),
            by_position: None,
        }
    }

    /// Adds the reader for rows of the base table the leaf was bound
    /// against, addressed by position. It must agree with the by-key
    /// reader on every row of that table, and cannot fail: whatever
    /// could go wrong was checked when the table was proven.
    pub fn with_positions(mut self, read: impl Fn(usize) -> f64 + 's) -> Self {
        self.by_position = Some(Box::new(read));
        self
    }

    /// The degree of one row of the (possibly joined) layout whose base
    /// key sits in `key_slot`.
    #[inline]
    fn degree(&self, row: &RowHandle<'_>, key_slot: usize) -> Result<f64, StoreError> {
        match (row, &self.by_position) {
            (RowHandle::Base(view), Some(read)) => Ok(read(view.index())),
            (RowHandle::Base(view), None) => (self.by_key)(&view.get(key_slot).to_value()),
            (RowHandle::Owned(values), _) => (self.by_key)(&values[key_slot]),
        }
    }
}

/// Supplies degrees of truth for subjective constructs.
///
/// The executor binds every subjective leaf of a statement **once**,
/// before the first row, and calls the bound leaf per row. Whatever a
/// leaf costs that does not depend on the row (interpreting the
/// predicate, embedding the phrase, finding or building a degree column,
/// resolving the attribute name) belongs in `bind_*`; so do its errors,
/// which makes a bad leaf an error whether or not any row reaches it.
///
/// Every method receives `base`, the statement's base table: a row
/// position means nothing without the table it indexes.
pub trait SubjectiveScorer {
    /// Binds a natural-language predicate for a statement over `base`.
    fn bind_predicate<'s>(
        &'s self,
        base: &Table,
        predicate: &'s str,
    ) -> Result<BoundLeaf<'s>, StoreError>;

    /// Binds `attribute .= "phrase"` for a statement over `base`.
    fn bind_match<'s>(
        &'s self,
        base: &Table,
        attribute: &'s ColumnRef,
        phrase: &'s str,
    ) -> Result<BoundLeaf<'s>, StoreError>;

    /// Optional index-assisted ranking for a WHERE clause whose
    /// subjective residue has only natural-language predicates for
    /// leaves: the top `k` `(row position in base, degree)` pairs, where
    /// a row's degree is [`Residue::score`] under `algebra` with leaf
    /// `i` reading the row's degree of `predicates[i]`, ranked by degree
    /// descending with a deterministic tiebreak (row position
    /// ascending).
    ///
    /// `candidates`, when present, is the objective prefilter: a bitmap
    /// over the row positions of `base` with a set bit for every row
    /// that passed the objective conjuncts. The scorer must then rank
    /// only candidate rows (restricted sorted access in TA terms).
    /// Returning `None` (the default) falls back to scoring candidate
    /// rows one at a time; a scorer must decline a `base` whose rows it
    /// cannot map to what it indexes.
    fn rank_residue(
        &self,
        _base: &Table,
        _residue: &Residue,
        _predicates: &[&str],
        _algebra: FuzzyAlgebra,
        _k: usize,
        _candidates: Option<&Bitmap>,
    ) -> Option<Vec<(usize, f64)>> {
        None
    }

    /// A scorer view whose subjective degrees count only the reviews
    /// accepted by `qualifier` (the paper's "reviews after 2010" /
    /// "reviewers with ≥ 10 reviews" queries). The executor requests one
    /// per qualified statement and routes every subjective evaluation of
    /// that statement through it; objective predicates are unaffected.
    ///
    /// The default `None` means the scorer cannot scope its degrees, and
    /// qualified statements fail with [`StoreError::NoScorer`] rather
    /// than silently answering from unqualified summaries.
    fn qualified_scorer<'s>(
        &'s self,
        _qualifier: &ReviewQualifier,
    ) -> Option<Box<dyn SubjectiveScorer + 's>> {
        None
    }
}

/// A scorer that rejects all subjective constructs — for purely objective
/// queries.
pub struct ObjectiveOnly;

impl SubjectiveScorer for ObjectiveOnly {
    fn bind_predicate<'s>(
        &'s self,
        _base: &Table,
        predicate: &'s str,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        Err(StoreError::NoScorer(predicate.to_string()))
    }

    fn bind_match<'s>(
        &'s self,
        _base: &Table,
        attribute: &'s ColumnRef,
        phrase: &'s str,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        Err(StoreError::NoScorer(format!(
            "{}.= \"{phrase}\"",
            attribute.column
        )))
    }
}

/// A ranked query result.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output column names (qualified where ambiguous).
    pub columns: Vec<String>,
    /// Rows with their fuzzy scores, ordered as returned.
    pub rows: Vec<(Vec<Value>, f64)>,
}

impl ResultSet {
    /// The key/score pairs in rank order for the given column index.
    pub fn column_values(&self, idx: usize) -> Vec<&Value> {
        self.rows.iter().map(|(r, _)| &r[idx]).collect()
    }
}

/// One result row of the borrowing path: a view straight into the base
/// table's columnar storage when possible, owned only when a join had
/// to materialize a combined row.
#[derive(Debug)]
enum RowHandle<'a> {
    Base(RowView<'a>),
    Owned(Vec<Value>),
}

impl RowHandle<'_> {
    /// Cell at output slot `i`, read without materializing the row.
    #[inline]
    fn value(&self, i: usize) -> ValueRef<'_> {
        match self {
            RowHandle::Base(view) => view.get(i),
            RowHandle::Owned(row) => ValueRef::from(&row[i]),
        }
    }

    /// Number of cells in the (possibly joined) row layout.
    fn width(&self) -> usize {
        match self {
            RowHandle::Base(view) => view.len(),
            RowHandle::Owned(row) => row.len(),
        }
    }

    /// The whole row, owned.
    fn into_values(self) -> Vec<Value> {
        match self {
            RowHandle::Base(view) => view.to_values(),
            RowHandle::Owned(row) => row,
        }
    }
}

/// A ranked result that *borrows* matching rows from the catalog instead
/// of cloning each `Vec<Value>`, with the projection applied lazily at
/// read time.
///
/// This is the id-indexed serving path: a consumer that only needs to
/// look at (or serialize) the winning rows iterates [`Self::values`]
/// without a single per-row allocation. [`Self::into_result_set`]
/// materializes the classic owned [`ResultSet`] for callers that want to
/// keep the rows beyond the catalog borrow.
#[derive(Debug)]
pub struct ScoredRows<'a> {
    columns: Vec<String>,
    entries: Vec<(RowHandle<'a>, f64)>,
    /// Output slots into the full row layout; `None` means all slots.
    projection: Option<Vec<usize>>,
}

/// Iterator over one result row's projected values.
///
/// Yields [`ValueRef`]s — with columnar base storage there is no
/// `&Value` to hand out; scalars are copied, text is borrowed.
#[derive(Debug, Clone)]
pub struct ProjectedValues<'r> {
    row: &'r RowHandle<'r>,
    projection: Option<&'r [usize]>,
    pos: usize,
}

impl<'r> Iterator for ProjectedValues<'r> {
    type Item = ValueRef<'r>;

    fn next(&mut self) -> Option<ValueRef<'r>> {
        let slot = match self.projection {
            Some(idx) => *idx.get(self.pos)?,
            None => {
                if self.pos >= self.row.width() {
                    return None;
                }
                self.pos
            }
        };
        self.pos += 1;
        Some(self.row.value(slot))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let total = match self.projection {
            Some(idx) => idx.len(),
            None => self.row.width(),
        };
        let rem = total.saturating_sub(self.pos);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ProjectedValues<'_> {}

impl<'a> ScoredRows<'a> {
    /// Output column names (qualified where ambiguous).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no row matched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The fuzzy score of row `i`.
    pub fn score(&self, i: usize) -> f64 {
        self.entries[i].1
    }

    /// The projected values of row `i`, in output-column order, without
    /// cloning.
    pub fn values(&self, i: usize) -> ProjectedValues<'_> {
        ProjectedValues {
            row: &self.entries[i].0,
            projection: self.projection.as_deref(),
            pos: 0,
        }
    }

    /// `(values, score)` pairs in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (ProjectedValues<'_>, f64)> {
        (0..self.len()).map(|i| (self.values(i), self.score(i)))
    }

    /// Materializes an owned [`ResultSet`], cloning only the winning
    /// (post-limit) rows.
    pub fn into_result_set(self) -> ResultSet {
        let ScoredRows {
            columns,
            entries,
            projection,
        } = self;
        let rows = entries
            .into_iter()
            .map(|(handle, score)| {
                let row = match &projection {
                    Some(idx) => idx.iter().map(|&i| handle.value(i).to_value()).collect(),
                    None => handle.into_values(),
                };
                (row, score)
            })
            .collect();
        ResultSet { columns, rows }
    }
}

/// Column resolution over the (possibly joined) row layout.
struct Layout<'a> {
    /// `(table_or_alias, column_name)` per output slot.
    slots: Vec<(String, String)>,
    /// The statement's base table: its columns are the first slots, its
    /// key column the slot subjective leaves read by key, and its row
    /// positions the ones candidate bitmaps and rankings speak of.
    base: &'a Table,
}

impl Layout<'_> {
    fn resolve(&self, r: &ColumnRef) -> Result<usize, StoreError> {
        let matches: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, (tbl, col))| col == &r.column && r.table.as_ref().is_none_or(|t| t == tbl))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(StoreError::UnknownColumn(format!(
                "{}{}",
                r.table
                    .as_deref()
                    .map(|t| format!("{t}."))
                    .unwrap_or_default(),
                r.column
            ))),
            1 => Ok(matches[0]),
            _ => Err(StoreError::Execution(format!(
                "ambiguous column {}",
                r.column
            ))),
        }
    }
}

/// Executes `query` against `catalog` using `scorer` for subjective
/// parts and `algebra` to combine degrees. The returned [`ScoredRows`]
/// borrows winning rows from the catalog, so serving layers serialize
/// results with zero per-row clones; [`ScoredRows::into_result_set`]
/// materializes owned rows.
///
/// `overlay` is the read path of live ingest, where rows inserted after
/// the build ride in a pinned [`TableOverlay`] generation instead of
/// mutating catalog tables: overlay rows are logically appended to
/// their table's row set — they participate in scans, joins, and
/// scoring as owned rows, after any planner fast path has ranked the
/// (bitmap-indexed) base rows. Scores are identical to what a
/// from-scratch build containing the same rows would produce.
pub fn execute<'a>(
    query: &Select,
    catalog: &'a Catalog,
    scorer: &dyn SubjectiveScorer,
    algebra: FuzzyAlgebra,
    overlay: Option<&TableOverlay>,
) -> Result<ScoredRows<'a>, StoreError> {
    // Review-qualified statements swap in the scorer's scoped view for
    // every subjective evaluation below. The scoped view declines
    // rank_residue, so qualified queries take the row-at-a-time path
    // over the (still vectorized) objective prefilter — degree columns
    // cache *unqualified* degrees only.
    let scoped = resolve_qualified(query, scorer)?;
    let scorer: &dyn SubjectiveScorer = scoped.as_deref().unwrap_or(scorer);
    let base = catalog.table(&query.from)?;
    let base_name = query.alias.clone().unwrap_or_else(|| query.from.clone());

    // Build the combined layout; joins extend it below.
    let mut layout = Layout {
        slots: base
            .schema()
            .columns
            .iter()
            .map(|c| (base_name.clone(), c.name.clone()))
            .collect(),
        base,
    };

    // Single-table planner: objective prefilter bitmap + subjective
    // residue, pushed down into the scorer's ranking when every leaf is
    // a predicate. What it leaves to the row loop stays a bitmap of
    // base positions. Joins
    // change the row set, so they probe every base row by value.
    let mut scored = Vec::new();
    let mut answered = false;
    let mut scan = None;
    let mut rows: Vec<RowHandle<'a>> = Vec::new();
    if query.joins.is_empty() {
        match plan_single_table(query, &layout, scorer, algebra)? {
            Plan::Answered(ranked) => {
                scored = ranked;
                answered = true;
            }
            Plan::Scan(left) => scan = Some(left),
        }
    } else {
        rows.extend(base.rows().map(RowHandle::Base));
    }
    // Overlay rows are not bitmap-indexed: whatever the plan, they are
    // scored one at a time with the full WHERE expression and ranked
    // with the base rows before the final sort/limit, which keeps top-k
    // answers exact.
    for row in overlay.iter().flat_map(|o| o.rows_for(&query.from)) {
        opine_faults::checkpoint();
        rows.push(RowHandle::Owned(checked_overlay_row(
            &query.from,
            row,
            layout.slots.len(),
        )?));
    }

    for join in &query.joins {
        let right = catalog.table(&join.table)?;
        let right_name = join.alias.clone().unwrap_or_else(|| join.table.clone());
        // Which side refers to the already-built layout decides probe/build.
        let (probe_ref, build_ref) = if layout.resolve(&join.left).is_ok() {
            (&join.left, &join.right)
        } else {
            (&join.right, &join.left)
        };
        let probe_slot = layout.resolve(probe_ref)?;
        let build_col = right
            .schema()
            .column_index(&build_ref.column)
            .ok_or_else(|| StoreError::UnknownColumn(build_ref.column.clone()))?;

        // Hash join: build side = joined table (row positions for base
        // rows, owned tuples for the table's overlay rows).
        let mut hash: HashMap<String, Vec<BuildRow>> = HashMap::new();
        for view in right.rows() {
            opine_faults::checkpoint();
            hash.entry(view.get(build_col).to_string())
                .or_default()
                .push(BuildRow::Pos(view.index()));
        }
        for row in overlay.iter().flat_map(|o| o.rows_for(&join.table)) {
            opine_faults::checkpoint();
            let row = checked_overlay_row(&join.table, row, right.schema().columns.len())?;
            hash.entry(ValueRef::from(&row[build_col]).to_string())
                .or_default()
                .push(BuildRow::Extra(row));
        }
        let mut joined = Vec::new();
        for handle in &rows {
            opine_faults::checkpoint();
            if let Some(matches) = hash.get(&handle.value(probe_slot).to_string()) {
                for m in matches {
                    opine_faults::checkpoint();
                    let mut combined: Vec<Value> = (0..handle.width())
                        .map(|s| handle.value(s).to_value())
                        .collect();
                    match m {
                        BuildRow::Pos(m) => combined.extend(right.row(*m).to_values()),
                        BuildRow::Extra(row) => combined.extend(row.iter().cloned()),
                    }
                    joined.push(RowHandle::Owned(combined));
                }
            }
        }
        rows = joined;
        layout.slots.extend(
            right
                .schema()
                .columns
                .iter()
                .map(|c| (right_name.clone(), c.name.clone())),
        );
    }

    // A plan that answered the base rows leaves only overlay rows, and
    // usually none. A scan binds its WHERE clause even over zero rows.
    if !(answered && rows.is_empty()) {
        let where_clause = query.where_clause.as_ref();
        score_rows(
            where_clause,
            scan,
            rows,
            &layout,
            scorer,
            algebra,
            &mut scored,
        )?;
    }
    finish(query, layout, scored)
}

/// Resolves a statement's review qualifier to the scorer's scoped view,
/// erroring when the statement is qualified but the scorer cannot scope
/// its degrees (answering from unqualified summaries would be wrong).
fn resolve_qualified<'s>(
    query: &Select,
    scorer: &'s dyn SubjectiveScorer,
) -> Result<Option<Box<dyn SubjectiveScorer + 's>>, StoreError> {
    match &query.review_qualifier {
        None => Ok(None),
        // A trivial qualifier accepts every review: the base scorer
        // already answers it, with all of its fast paths (TA ranking,
        // degree columns) intact.
        Some(qualifier) if qualifier.is_trivial() => Ok(None),
        Some(qualifier) => scorer
            .qualified_scorer(qualifier)
            .map(Some)
            .ok_or_else(|| StoreError::NoScorer(format!("review qualifier `with {qualifier}`"))),
    }
}

/// What the single-table planner decided about the base table's rows.
enum Plan<'a> {
    /// They are answered: ranked by the scorer's top-k, or selected
    /// by a purely objective WHERE clause with score 1.
    Answered(Vec<(RowHandle<'a>, f64)>),
    /// Some of them are left to the row loop.
    Scan(Scan),
}

/// The base-table rows a plan leaves to the row loop: a bitmap over the
/// base table's row positions (every row, or the objective prefilter's
/// candidates), scored one at a time with the full WHERE expression.
struct Scan {
    candidates: Bitmap,
    /// Why no index answered, for the plan note.
    why: &'static str,
}

impl Plan<'_> {
    fn every_row(base: &Table, why: &'static str) -> Self {
        Plan::Scan(Scan {
            candidates: Bitmap::all_set(base.len()),
            why,
        })
    }
}

/// The single-table planner: the only place that chooses between the
/// scorer's index and the row loop.
fn plan_single_table<'a>(
    query: &Select,
    layout: &Layout<'a>,
    scorer: &dyn SubjectiveScorer,
    algebra: FuzzyAlgebra,
) -> Result<Plan<'a>, StoreError> {
    let base = layout.base;
    let Some(where_clause) = &query.where_clause else {
        return Ok(Plan::every_row(base, "no WHERE clause"));
    };
    let plan_span = opine_trace::span("plan");
    let conjuncts = where_clause.conjuncts();
    let (objective, subjective): (Vec<&Expr>, Vec<&Expr>) =
        conjuncts.into_iter().partition(|e| !e.has_subjective());
    let residue = Residue::of(where_clause);
    drop(plan_span);

    // Objective prefilter: vectorized comparisons over typed columns,
    // AND-combined into one candidate bitmap.
    let candidates = if objective.is_empty() {
        None
    } else {
        let prefilter_span = opine_trace::span("prefilter_bitmap");
        let candidates = objective_bitmap(layout, &objective, scorer)?;
        if prefilter_span.active() {
            prefilter_span.count("candidates", candidates.count_ones() as u64);
        }
        Some(candidates)
    };

    if subjective.is_empty() {
        // Purely objective WHERE: the bitmap *is* the answer (score 1).
        let candidates = candidates.expect("a WHERE clause has a conjunct");
        return Ok(Plan::Answered(
            candidates
                .iter_ones()
                .map(|i| (RowHandle::Base(base.row(i)), 1.0))
                .collect(),
        ));
    }

    // The residue as parsed goes to the scorer's top-k, with the
    // candidate bitmap pushed down. An objective conjunct is exactly 1
    // on every candidate and `and(1, r) = r` bit for bit under both
    // t-norms, so pruning the objective conjuncts changes no score. The
    // scorer ranks in degree order, so an ORDER BY scores rows instead;
    // so does a residue with a leaf no degree column holds (a `.=`
    // match, a comparison under OR/NOT). The row loop scores with the
    // *full* WHERE expression.
    let why = match (residue, &query.order_by) {
        (_, Some(_)) => "ORDER BY sorts by a column",
        (None, None) => "residue not TA-rankable",
        (Some((residue, predicates)), None) => {
            let k = query
                .limit
                .unwrap_or(usize::MAX)
                .min(candidates.as_ref().map_or(base.len(), Bitmap::count_ones));
            let ranked =
                scorer.rank_residue(base, &residue, &predicates, algebra, k, candidates.as_ref());
            if let Some(ranked) = ranked {
                opine_trace::note(|| match candidates {
                    None => "plan: subjective residue → scorer top-k".into(),
                    Some(_) => {
                        "plan: objective prefilter + subjective residue → scorer top-k pushdown"
                            .into()
                    }
                });
                return Ok(Plan::Answered(materialize_ranked(base, ranked)?));
            }
            "scorer declined TA ranking"
        }
    };
    // Non-candidates would have scored 0.
    Ok(Plan::Scan(Scan {
        candidates: candidates.unwrap_or_else(|| Bitmap::all_set(base.len())),
        why,
    }))
}

/// Evaluates the objective conjuncts into one candidate bitmap over the
/// base table's rows. Column-vs-literal comparisons vectorize over the
/// typed column storage; other objective shapes (column-vs-column,
/// OR/NOT trees) evaluate row-at-a-time over the still-live candidates.
/// `scorer` is never consulted — every conjunct here is subjective-free.
fn objective_bitmap(
    layout: &Layout<'_>,
    conjuncts: &[&Expr],
    scorer: &dyn SubjectiveScorer,
) -> Result<Bitmap, StoreError> {
    let base = layout.base;
    let mut candidates = Bitmap::all_set(base.len());
    for expr in conjuncts {
        if let Expr::Compare { lhs, op, rhs } = expr {
            let vectorized = match (lhs, rhs) {
                (Operand::Column(c), Operand::Literal(v)) => Some((layout.resolve(c)?, *op, v)),
                (Operand::Literal(v), Operand::Column(c)) => {
                    Some((layout.resolve(c)?, op.flip(), v))
                }
                _ => None,
            };
            if let Some((slot, op, lit)) = vectorized {
                // The conjunct's canonical rendering is injective, so it
                // keys the table's selection-vector cache: a repeated
                // objective filter costs a hash probe, not an O(rows)
                // column scan.
                let bitmap = base.cached_filter(&expr.to_string(), || {
                    base.column(slot).compare_bitmap(op, lit)
                });
                candidates.and_assign(&bitmap);
                continue;
            }
        }
        let bound = bind(expr, layout, scorer)?;
        for i in 0..base.len() {
            opine_faults::checkpoint();
            if candidates.get(i)
                && eval(
                    &bound,
                    &RowHandle::Base(base.row(i)),
                    base.schema().key,
                    FuzzyAlgebra::Product,
                )? == 0.0
            {
                candidates.clear(i);
            }
        }
    }
    Ok(candidates)
}

/// One build-side row of a hash join: a base-table position, or an
/// owned overlay tuple.
enum BuildRow {
    Pos(usize),
    Extra(Vec<Value>),
}

/// Validates an overlay row's width against the table schema and
/// returns an owned copy. A mismatched tuple means the engine-side
/// delta was built against a different schema — surface it rather than
/// panicking on a slot read.
fn checked_overlay_row(table: &str, row: &[Value], width: usize) -> Result<Vec<Value>, StoreError> {
    if row.len() != width {
        return Err(StoreError::SchemaMismatch(format!(
            "{table}: overlay row has {} values, schema has {width} columns",
            row.len()
        )));
    }
    Ok(row.to_vec())
}

/// The row loop, the only one: binds the WHERE clause once, then scores
/// the base positions a plan's `scan` left over, followed by `rows` —
/// overlay rows, joined rows — one at a time, and appends the survivors
/// to `scored` in that order. Base rows are read by position wherever
/// the bound leaves allow it; owned rows are always read by key.
fn score_rows<'a>(
    where_clause: Option<&Expr>,
    scan: Option<Scan>,
    rows: Vec<RowHandle<'a>>,
    layout: &Layout<'a>,
    scorer: &dyn SubjectiveScorer,
    algebra: FuzzyAlgebra,
    scored: &mut Vec<(RowHandle<'a>, f64)>,
) -> Result<(), StoreError> {
    let span = opine_trace::span("rescore");
    let base = layout.base;
    let key_slot = base.schema().key;
    let bound = where_clause
        .map(|expr| bind(expr, layout, scorer))
        .transpose()?;
    let base_rows = scan.as_ref().map_or(0, |s| s.candidates.count_ones());
    span.count("scored", (base_rows + rows.len()) as u64);
    if let Some(scan) = &scan {
        opine_trace::note(|| {
            let reader = match &bound {
                Some(bound) if !bound.reads_by_position() => "key",
                _ => "position",
            };
            format!("plan: {} → {base_rows} candidates by {reader}", scan.why)
        });
    }
    scored.reserve(base_rows + rows.len());
    let candidates = scan.iter().flat_map(|s| s.candidates.iter_ones());
    for handle in candidates.map(|i| RowHandle::Base(base.row(i))).chain(rows) {
        // Cancellation checkpoint per scored row: an expired request
        // deadline unwinds out of the scan at the next chunk boundary.
        opine_faults::checkpoint();
        let score = match &bound {
            None => 1.0,
            Some(bound) => eval(bound, &handle, key_slot, algebra)?,
        };
        if score > 0.0 {
            scored.push((handle, score));
        }
    }
    Ok(())
}

/// Turns the scorer's ranked `(row position, degree)` pairs into views
/// of those base-table rows — no key is rendered, no index probed.
fn materialize_ranked<'a>(
    base: &'a Table,
    ranked: Vec<(usize, f64)>,
) -> Result<Vec<(RowHandle<'a>, f64)>, StoreError> {
    let mut scored = Vec::with_capacity(ranked.len());
    for (pos, score) in ranked {
        opine_faults::checkpoint();
        if score <= 0.0 {
            continue;
        }
        if pos >= base.len() {
            return Err(StoreError::Execution(format!(
                "ranked position {pos} not in base table ({} rows)",
                base.len()
            )));
        }
        scored.push((RowHandle::Base(base.row(pos)), score));
    }
    Ok(scored)
}

/// Shared result assembly: ordering, limit, projection-slot resolution.
/// Rows are neither cloned nor projected here — [`ScoredRows`] applies
/// the projection lazily at read time.
fn finish<'a>(
    query: &Select,
    layout: Layout<'a>,
    mut scored: Vec<(RowHandle<'a>, f64)>,
) -> Result<ScoredRows<'a>, StoreError> {
    let span = opine_trace::span("materialize");
    // Order: explicit ORDER BY, else score descending with equal scores
    // in arrival order (base-row / rank order, then overlay rows).
    match (&query.order_by, query.limit) {
        // ORDER BY sorts every scored row, stably: nothing here depends
        // on the scores, so the top-k selection below does not apply.
        (Some(ob), _) => {
            let slot = layout.resolve(&ob.column)?;
            scored.sort_by(|a, b| {
                let ord =
                    a.0.value(slot)
                        .compare(&b.0.value(slot))
                        .unwrap_or(Ordering::Equal);
                if ob.ascending {
                    ord
                } else {
                    ord.reverse()
                }
            });
        }
        // LIMIT k usually keeps far fewer rows than were scored: drop
        // all but the top k under the total order a stable sort by
        // score produces — (score descending, arrival index ascending)
        // — and sort only those.
        (None, limit) => {
            if let Some(k) = limit.filter(|&k| k < scored.len()) {
                retain_top_k(&mut scored, k);
            }
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        }
    }
    if let Some(limit) = query.limit {
        scored.truncate(limit);
    }
    span.count("rows", scored.len() as u64);

    let (columns, projection) = if query.columns.is_empty() {
        (
            layout
                .slots
                .iter()
                .map(|(t, c)| format!("{t}.{c}"))
                .collect(),
            None,
        )
    } else {
        let indices: Vec<usize> = query
            .columns
            .iter()
            .map(|c| layout.resolve(c))
            .collect::<Result<_, _>>()?;
        let names = query
            .columns
            .iter()
            .map(|c| c.column.clone())
            .collect::<Vec<_>>();
        (names, Some(indices))
    };

    Ok(ScoredRows {
        columns,
        entries: scored,
        projection,
    })
}

/// Keeps the `k < scored.len()` entries a stable sort by score
/// descending would put first, in their arrival order.
fn retain_top_k<T>(scored: &mut Vec<(T, f64)>, k: usize) {
    if k == 0 {
        return scored.clear();
    }
    let mut order: Vec<usize> = (0..scored.len()).collect();
    order.select_nth_unstable_by(k - 1, |&a, &b| {
        scored[b].1.total_cmp(&scored[a].1).then(a.cmp(&b))
    });
    let mut keep = vec![false; scored.len()];
    for &i in &order[..k] {
        keep[i] = true;
    }
    // `retain` visits every entry exactly once, in order.
    let mut keep = keep.into_iter();
    scored.retain(|_| keep.next() == Some(true));
}

/// A WHERE clause bound for one statement: column references resolved
/// to row slots and every subjective leaf bound by the scorer, so
/// evaluating a row looks nothing up by name.
enum Bound<'s> {
    Compare {
        lhs: BoundOperand<'s>,
        op: CmpOp,
        rhs: BoundOperand<'s>,
    },
    Leaf(BoundLeaf<'s>),
    And(Box<Bound<'s>>, Box<Bound<'s>>),
    Or(Box<Bound<'s>>, Box<Bound<'s>>),
    Not(Box<Bound<'s>>),
}

enum BoundOperand<'s> {
    Literal(&'s Value),
    Slot(usize),
}

impl BoundOperand<'_> {
    #[inline]
    fn value<'r>(&'r self, row: &'r RowHandle<'_>) -> ValueRef<'r> {
        match self {
            BoundOperand::Literal(v) => ValueRef::from(*v),
            BoundOperand::Slot(slot) => row.value(*slot),
        }
    }
}

impl Bound<'_> {
    /// True when no base-table row needs its key rendered: every
    /// subjective leaf (there may be none) offers a by-position reader.
    fn reads_by_position(&self) -> bool {
        match self {
            Bound::Compare { .. } => true,
            Bound::Leaf(leaf) => leaf.by_position.is_some(),
            Bound::And(a, b) | Bound::Or(a, b) => a.reads_by_position() && b.reads_by_position(),
            Bound::Not(e) => e.reads_by_position(),
        }
    }
}

fn bind<'s>(
    expr: &'s Expr,
    layout: &Layout<'_>,
    scorer: &'s dyn SubjectiveScorer,
) -> Result<Bound<'s>, StoreError> {
    let operand = |op: &'s Operand| match op {
        Operand::Literal(v) => Ok(BoundOperand::Literal(v)),
        Operand::Column(c) => layout.resolve(c).map(BoundOperand::Slot),
    };
    let boxed = |e: &'s Expr| bind(e, layout, scorer).map(Box::new);
    Ok(match expr {
        Expr::Compare { lhs, op, rhs } => Bound::Compare {
            lhs: operand(lhs)?,
            op: *op,
            rhs: operand(rhs)?,
        },
        Expr::Subjective(p) => Bound::Leaf(scorer.bind_predicate(layout.base, p)?),
        Expr::MarkerMatch { attribute, phrase } => {
            Bound::Leaf(scorer.bind_match(layout.base, attribute, phrase)?)
        }
        Expr::And(a, b) => Bound::And(boxed(a)?, boxed(b)?),
        Expr::Or(a, b) => Bound::Or(boxed(a)?, boxed(b)?),
        Expr::Not(e) => Bound::Not(boxed(e)?),
    })
}

/// Scores one row; `key_slot` is where the base table's key sits in it.
fn eval(
    bound: &Bound<'_>,
    row: &RowHandle<'_>,
    key_slot: usize,
    algebra: FuzzyAlgebra,
) -> Result<f64, StoreError> {
    match bound {
        Bound::Compare { lhs, op, rhs } => {
            let holds = op.evaluate(lhs.value(row).compare(&rhs.value(row)));
            Ok(if holds { 1.0 } else { 0.0 })
        }
        Bound::Leaf(leaf) => leaf.degree(row, key_slot),
        Bound::And(a, b) => {
            let x = eval(a, row, key_slot, algebra)?;
            // 0 annihilates under both t-norms; skip the (possibly
            // expensive subjective) right side for filtered-out rows.
            if x == 0.0 {
                return Ok(0.0);
            }
            let y = eval(b, row, key_slot, algebra)?;
            Ok(algebra.and(x, y))
        }
        Bound::Or(a, b) => {
            let x = eval(a, row, key_slot, algebra)?;
            let y = eval(b, row, key_slot, algebra)?;
            Ok(algebra.or(x, y))
        }
        Bound::Not(e) => {
            let x = eval(e, row, key_slot, algebra)?;
            Ok(algebra.not(x))
        }
    }
}

/// The subjective residue of a WHERE clause as parsed: the tree with its
/// top-level objective conjuncts pruned (they are the candidate bitmap),
/// every leaf a natural-language predicate numbered by its distinct
/// text. `"a" and ("b" or not "a")` is
/// `And([Leaf(0), Or([Leaf(1), Not(Leaf(0))])])` over `["a", "b"]`.
///
/// This is what a scorer ranks ([`SubjectiveScorer::rank_residue`]), and
/// [`Residue::score`] is the one way its degree is computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Residue {
    /// The degree of distinct predicate `i`.
    Leaf(usize),
    /// Fuzzy conjunction of two or more operands, folded from the left
    /// as the parser nests a chain: `And([a, b, c])` is
    /// `(a and b) and c`, while `a and (b and c)` is
    /// `And([a, And([b, c])])`.
    And(Vec<Residue>),
    /// Fuzzy disjunction, likewise.
    Or(Vec<Residue>),
    /// Fuzzy negation.
    Not(Box<Residue>),
}

impl Residue {
    /// The residue of `where_clause` and the predicate texts its leaves
    /// number; `None` when no conjunct is subjective, or when one holds
    /// a leaf that is not a natural-language predicate (a `.=` match, a
    /// comparison under OR/NOT).
    pub fn of(where_clause: &Expr) -> Option<(Residue, Vec<&str>)> {
        let mut predicates = Vec::new();
        let residue = Self::prune(where_clause, &mut predicates)??;
        Some((residue, predicates))
    }

    /// `leaf 0 and leaf 1 and … and leaf n−1`; `None` for no leaves.
    pub fn conjunction(leaves: usize) -> Option<Residue> {
        (0..leaves).map(Residue::Leaf).reduce(Residue::and)
    }

    /// Whether this is [`Self::conjunction`]`(leaves)`: the shape a flat
    /// AND of distinct predicates parses to, and most statements take.
    pub fn is_conjunction(&self, leaves: usize) -> bool {
        Residue::conjunction(leaves).as_ref() == Some(self)
    }

    /// [`Self::score`] of [`Self::conjunction`]`(n)`, given its n leaves'
    /// degrees in order: the same left fold with the same short-circuit
    /// on 0, without the tree walk. The ranking kernels score a flat
    /// conjunction through here.
    #[inline]
    pub fn conjoin(algebra: FuzzyAlgebra, degrees: impl IntoIterator<Item = f64>) -> f64 {
        let mut degrees = degrees.into_iter();
        let mut x = degrees.next().expect("a conjunction has leaves");
        // lint:allow(checkpoint_coverage, reason = "one trip per predicate the statement spells, not per row")
        for y in degrees {
            x = if x == 0.0 { 0.0 } else { algebra.and(x, y) };
        }
        x
    }

    /// True when no leaf sits under a NOT: the residue's degree is then
    /// non-decreasing in every leaf (rounding preserves order), which is
    /// what lets sorted access bound the degree of an unseen row.
    pub fn is_monotone(&self) -> bool {
        match self {
            Residue::Leaf(_) => true,
            Residue::And(operands) | Residue::Or(operands) => {
                operands.iter().all(Residue::is_monotone)
            }
            Residue::Not(_) => false,
        }
    }

    /// The residue's degree, given each leaf's. Applies the operations
    /// of `eval` (the row loop) in its order, including And's
    /// short-circuit on 0, so a ranked row scores what the row loop
    /// would have scored it, to the bit.
    #[inline]
    pub fn score<F: Fn(usize) -> f64>(&self, algebra: FuzzyAlgebra, leaf: &F) -> f64 {
        match self {
            Residue::Leaf(i) => leaf(*i),
            Residue::And(operands) => {
                let (first, rest) = operands.split_first().expect("an AND has operands");
                let mut x = first.operand(algebra, leaf);
                // lint:allow(checkpoint_coverage, reason = "one trip per operand the statement spells, not per row")
                for b in rest {
                    if x == 0.0 {
                        return 0.0;
                    }
                    x = algebra.and(x, b.operand(algebra, leaf));
                }
                x
            }
            Residue::Or(operands) => {
                let (first, rest) = operands.split_first().expect("an OR has operands");
                rest.iter().fold(first.operand(algebra, leaf), |x, b| {
                    algebra.or(x, b.operand(algebra, leaf))
                })
            }
            Residue::Not(e) => algebra.not(e.operand(algebra, leaf)),
        }
    }

    /// [`Self::score`] of an operand: a leaf is read in place, an
    /// operator is scored out of line. The kernels score every
    /// candidate through here and most operands are leaves; a call the
    /// loop above can see would make it spill its registers around
    /// every leaf read.
    #[inline(always)]
    fn operand<F: Fn(usize) -> f64>(&self, algebra: FuzzyAlgebra, leaf: &F) -> f64 {
        match self {
            Residue::Leaf(i) => leaf(*i),
            nested => nested.score_nested(algebra, leaf),
        }
    }

    #[cold]
    #[inline(never)]
    fn score_nested<F: Fn(usize) -> f64>(&self, algebra: FuzzyAlgebra, leaf: &F) -> f64 {
        self.score(algebra, leaf)
    }

    /// `self and right`, as the parser nests it: a chain grows on the
    /// right of its last operand, a nested right side stays nested.
    fn and(self, right: Residue) -> Residue {
        match self {
            Residue::And(mut operands) => {
                operands.push(right);
                Residue::And(operands)
            }
            left => Residue::And(vec![left, right]),
        }
    }

    /// `self or right`, likewise.
    fn or(self, right: Residue) -> Residue {
        match self {
            Residue::Or(mut operands) => {
                operands.push(right);
                Residue::Or(operands)
            }
            left => Residue::Or(vec![left, right]),
        }
    }

    /// The top-level AND spine of `expr`: `Some(None)` when it is all
    /// objective (pruned), `None` when a subjective conjunct is not
    /// rankable.
    fn prune<'e>(expr: &'e Expr, predicates: &mut Vec<&'e str>) -> Option<Option<Residue>> {
        match expr {
            Expr::And(a, b) => Some(
                match (Self::prune(a, predicates)?, Self::prune(b, predicates)?) {
                    (Some(a), Some(b)) => Some(a.and(b)),
                    (one, None) | (None, one) => one,
                },
            ),
            e if !e.has_subjective() => Some(None),
            e => Self::leaves(e, predicates).map(Some),
        }
    }

    /// A subjective conjunct whose leaves are all predicates.
    fn leaves<'e>(expr: &'e Expr, predicates: &mut Vec<&'e str>) -> Option<Residue> {
        Some(match expr {
            Expr::Subjective(p) => Residue::Leaf(match predicates.iter().position(|q| q == p) {
                Some(i) => i,
                None => {
                    predicates.push(p);
                    predicates.len() - 1
                }
            }),
            Expr::And(a, b) => Self::leaves(a, predicates)?.and(Self::leaves(b, predicates)?),
            Expr::Or(a, b) => Self::leaves(a, predicates)?.or(Self::leaves(b, predicates)?),
            Expr::Not(e) => Residue::Not(Box::new(Self::leaves(e, predicates)?)),
            Expr::Compare { .. } | Expr::MarkerMatch { .. } => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::schema::{Column, ColumnType, Schema};
    use std::cell::Cell;

    /// [`execute`], materialized.
    fn run(
        query: &Select,
        catalog: &Catalog,
        scorer: &dyn SubjectiveScorer,
        overlay: Option<&TableOverlay>,
    ) -> Result<ResultSet, StoreError> {
        execute(query, catalog, scorer, FuzzyAlgebra::Product, overlay)
            .map(ScoredRows::into_result_set)
    }

    fn hotel_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(Schema::new(
            "hotels",
            vec![
                Column::new("hotelname", ColumnType::Text),
                Column::new("city", ColumnType::Text),
                Column::new("price_pn", ColumnType::Float),
                Column::new("street", ColumnType::Text),
            ],
            0,
        ))
        .unwrap();
        for (name, city, price, street) in [
            ("Grand", "London", 120.0, "baker"),
            ("Plaza", "London", 300.0, "oxford"),
            ("Canal", "Amsterdam", 90.0, "herengracht"),
        ] {
            c.insert(
                "hotels",
                vec![
                    Value::text(name),
                    Value::text(city),
                    Value::Float(price),
                    Value::text(street),
                ],
            )
            .unwrap();
        }
        c
    }

    /// Binds a degree function of `(predicate or phrase, row key)`.
    fn leaf<'s>(
        text: &'s str,
        degree: impl Fn(&str, &str) -> f64 + 's,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        Ok(BoundLeaf::by_key(move |key| {
            Ok(degree(text, key.as_str().unwrap_or("")))
        }))
    }

    fn canned_predicate(predicate: &str, key: &str) -> f64 {
        // "clean rooms": Grand 0.9, Plaza 0.5, Canal 0.2
        match (predicate, key) {
            ("clean rooms", "Grand") => 0.9,
            ("clean rooms", "Plaza") => 0.5,
            ("clean rooms", "Canal") => 0.2,
            _ => 0.1,
        }
    }

    fn canned_match(phrase: &str, key: &str) -> f64 {
        match (phrase, key) {
            ("firm", "Plaza") => 0.8,
            _ => 0.3,
        }
    }

    /// Scorer with canned degrees for tests.
    struct Canned;
    impl SubjectiveScorer for Canned {
        fn bind_predicate<'s>(
            &'s self,
            _base: &Table,
            predicate: &'s str,
        ) -> Result<BoundLeaf<'s>, StoreError> {
            leaf(predicate, canned_predicate)
        }
        fn bind_match<'s>(
            &'s self,
            _base: &Table,
            _attribute: &'s ColumnRef,
            phrase: &'s str,
        ) -> Result<BoundLeaf<'s>, StoreError> {
            leaf(phrase, canned_match)
        }
    }

    /// A scorer with an index: ranks the canned degrees through the
    /// same contract OpineDb implements, recording the candidate
    /// bitmaps it receives.
    struct Indexed {
        pushdowns: Cell<usize>,
        last_candidates: Cell<Option<usize>>,
    }

    impl Indexed {
        fn new() -> Self {
            Indexed {
                pushdowns: Cell::new(0),
                last_candidates: Cell::new(None),
            }
        }
    }

    impl SubjectiveScorer for Indexed {
        fn bind_predicate<'s>(
            &'s self,
            _base: &Table,
            predicate: &'s str,
        ) -> Result<BoundLeaf<'s>, StoreError> {
            leaf(predicate, canned_predicate)
        }
        fn bind_match<'s>(
            &'s self,
            _base: &Table,
            _attribute: &'s ColumnRef,
            phrase: &'s str,
        ) -> Result<BoundLeaf<'s>, StoreError> {
            leaf(phrase, canned_match)
        }
        fn rank_residue(
            &self,
            _base: &Table,
            residue: &Residue,
            predicates: &[&str],
            algebra: FuzzyAlgebra,
            k: usize,
            candidates: Option<&Bitmap>,
        ) -> Option<Vec<(usize, f64)>> {
            if candidates.is_some() {
                self.pushdowns.set(self.pushdowns.get() + 1);
            }
            self.last_candidates.set(candidates.map(Bitmap::count_ones));
            // Rank rows 0..3 (Grand, Plaza, Canal) by the canned degrees.
            let names = ["Grand", "Plaza", "Canal"];
            let mut ranked: Vec<(usize, f64)> = names
                .iter()
                .enumerate()
                .filter(|(i, _)| candidates.is_none_or(|c| c.get(*i)))
                .map(|(i, n)| {
                    let score =
                        residue.score(algebra, &|leaf| canned_predicate(predicates[leaf], n));
                    (i, score)
                })
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            ranked.truncate(k);
            Some(ranked)
        }
    }

    /// A scorer whose qualified view halves every degree — enough to
    /// observe that the executor routes qualified statements through the
    /// scoped scorer and unqualified ones through the base scorer.
    struct Scoping;

    struct Halved;
    impl SubjectiveScorer for Halved {
        fn bind_predicate<'s>(
            &'s self,
            _base: &Table,
            predicate: &'s str,
        ) -> Result<BoundLeaf<'s>, StoreError> {
            leaf(predicate, |p, key| canned_predicate(p, key) / 2.0)
        }
        fn bind_match<'s>(
            &'s self,
            _base: &Table,
            _attribute: &'s ColumnRef,
            phrase: &'s str,
        ) -> Result<BoundLeaf<'s>, StoreError> {
            leaf(phrase, |p, key| canned_match(p, key) / 2.0)
        }
    }

    impl SubjectiveScorer for Scoping {
        fn bind_predicate<'s>(
            &'s self,
            _base: &Table,
            predicate: &'s str,
        ) -> Result<BoundLeaf<'s>, StoreError> {
            leaf(predicate, canned_predicate)
        }
        fn bind_match<'s>(
            &'s self,
            _base: &Table,
            _attribute: &'s ColumnRef,
            phrase: &'s str,
        ) -> Result<BoundLeaf<'s>, StoreError> {
            leaf(phrase, canned_match)
        }
        fn qualified_scorer<'s>(
            &'s self,
            _qualifier: &ReviewQualifier,
        ) -> Option<Box<dyn SubjectiveScorer + 's>> {
            Some(Box::new(Halved))
        }
    }

    #[test]
    fn review_qualifier_routes_through_the_scoped_scorer() {
        let cat = hotel_catalog();
        let plain = parse_select("select * from hotels where \"clean rooms\"").unwrap();
        let qualified =
            parse_select("select * from hotels where \"clean rooms\" with reviews(year >= 2015)")
                .unwrap();
        let base = run(&plain, &cat, &Scoping, None).unwrap();
        let scoped = run(&qualified, &cat, &Scoping, None).unwrap();
        assert_eq!(base.rows.len(), scoped.rows.len());
        for (b, s) in base.rows.iter().zip(&scoped.rows) {
            assert_eq!(b.0[0], s.0[0], "same ranking order");
            assert!((b.1 / 2.0 - s.1).abs() < 1e-12, "scoped degrees are halved");
        }
    }

    #[test]
    fn trivial_qualifier_bypasses_the_scoped_scorer() {
        let cat = hotel_catalog();
        let plain = parse_select("select * from hotels where \"clean rooms\"").unwrap();
        let trivial =
            parse_select("select * from hotels where \"clean rooms\" with reviews()").unwrap();
        let base = run(&plain, &cat, &Scoping, None).unwrap();
        let bypassed = run(&trivial, &cat, &Scoping, None).unwrap();
        // `with reviews()` accepts every review — the base scorer
        // answers it directly (degrees NOT halved), keeping its fast
        // paths. A scorer without qualifier support also serves it.
        assert_eq!(base.rows, bypassed.rows);
        assert!(run(&trivial, &cat, &Canned, None).is_ok());
    }

    #[test]
    fn review_qualifier_without_scorer_support_is_an_error() {
        let cat = hotel_catalog();
        let q =
            parse_select("select * from hotels where \"clean rooms\" with reviews(year >= 2015)")
                .unwrap();
        // Canned has no qualified view; silently answering from
        // unqualified degrees would be wrong, so this must error.
        assert!(matches!(
            run(&q, &cat, &Canned, None),
            Err(StoreError::NoScorer(_))
        ));
        // Same under the Gödel algebra.
        assert!(matches!(
            execute(&q, &cat, &Canned, FuzzyAlgebra::Godel, None),
            Err(StoreError::NoScorer(_))
        ));
    }

    #[test]
    fn qualified_mixed_query_keeps_the_objective_prefilter() {
        let cat = hotel_catalog();
        let q = parse_select(
            "select * from hotels where price_pn < 150 and \"clean rooms\" \
             with reviews(year >= 2015)",
        )
        .unwrap();
        let r = run(&q, &cat, &Scoping, None).unwrap();
        // Plaza (300/night) filtered objectively; degrees are the scoped
        // (halved) ones.
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert!((r.rows[0].1 - 0.45).abs() < 1e-12);
    }

    /// Regression: an Int-keyed base table must resolve scorer keys
    /// through the shared `Value::with_key_str` rendering — the same
    /// path the table key index uses — end to end.
    #[test]
    fn int_keyed_base_table_scores_subjectively() {
        struct ById;
        impl SubjectiveScorer for ById {
            fn bind_predicate<'s>(
                &'s self,
                _base: &Table,
                _predicate: &'s str,
            ) -> Result<BoundLeaf<'s>, StoreError> {
                // Resolve the key the way an engine-side entity map
                // would: by its shared key rendering.
                Ok(BoundLeaf::by_key(|key| {
                    key.with_key_str(|s| match s {
                        "41" => Ok(0.9),
                        "-7" => Ok(0.4),
                        other => Err(StoreError::Execution(format!("unknown key {other}"))),
                    })
                }))
            }
            fn bind_match<'s>(
                &'s self,
                _base: &Table,
                attribute: &'s ColumnRef,
                _phrase: &'s str,
            ) -> Result<BoundLeaf<'s>, StoreError> {
                Err(StoreError::NoScorer(attribute.column.clone()))
            }
        }
        let mut cat = Catalog::new();
        cat.create_table(crate::schema::Schema::new(
            "events",
            vec![
                crate::schema::Column::new("id", crate::schema::ColumnType::Int),
                crate::schema::Column::new("label", crate::schema::ColumnType::Text),
            ],
            0,
        ))
        .unwrap();
        cat.insert("events", vec![Value::Int(41), Value::text("a")])
            .unwrap();
        cat.insert("events", vec![Value::Int(-7), Value::text("b")])
            .unwrap();
        let q = parse_select("select * from events where \"great\"").unwrap();
        let r = run(&q, &cat, &ById, None).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0[0], Value::Int(41));
        assert!((r.rows[0].1 - 0.9).abs() < 1e-12);
        assert_eq!(r.rows[1].0[0], Value::Int(-7));
    }

    /// A scorer whose leaves read base rows of `hotels` by position
    /// only: the by-position reader counts its calls, the by-key reader
    /// counts its own and — while `base_keys_fail` — refuses the keys of
    /// the three base rows, so a base row that reached it fails the
    /// statement.
    struct Positional {
        base_keys_fail: bool,
        by_position: Cell<usize>,
        by_key: Cell<usize>,
    }

    impl Positional {
        fn new(base_keys_fail: bool) -> Self {
            Positional {
                base_keys_fail,
                by_position: Cell::new(0),
                by_key: Cell::new(0),
            }
        }

        fn leaf<'s>(&'s self, text: &'s str, degree: fn(&str, &str) -> f64) -> BoundLeaf<'s> {
            const NAMES: [&str; 3] = ["Grand", "Plaza", "Canal"];
            BoundLeaf::by_key(move |key| {
                self.by_key.set(self.by_key.get() + 1);
                let key = key.as_str().unwrap_or("");
                if self.base_keys_fail && NAMES.contains(&key) {
                    return Err(StoreError::Execution(format!("base row {key} read by key")));
                }
                Ok(degree(text, key))
            })
            .with_positions(move |pos| {
                self.by_position.set(self.by_position.get() + 1);
                degree(text, NAMES[pos])
            })
        }
    }

    impl SubjectiveScorer for Positional {
        fn bind_predicate<'s>(
            &'s self,
            _base: &Table,
            predicate: &'s str,
        ) -> Result<BoundLeaf<'s>, StoreError> {
            Ok(self.leaf(predicate, canned_predicate))
        }
        fn bind_match<'s>(
            &'s self,
            _base: &Table,
            _attribute: &'s ColumnRef,
            phrase: &'s str,
        ) -> Result<BoundLeaf<'s>, StoreError> {
            Ok(self.leaf(phrase, canned_match))
        }
    }

    /// Adds `cafes(cafename, street)` with one cafe, on Grand's street.
    fn cafes(cat: &mut Catalog) {
        cat.create_table(Schema::new(
            "cafes",
            vec![
                Column::new("cafename", ColumnType::Text),
                Column::new("street", ColumnType::Text),
            ],
            0,
        ))
        .unwrap();
        cat.insert("cafes", vec![Value::text("Beans"), Value::text("baker")])
            .unwrap();
    }

    #[test]
    fn base_rows_are_read_by_position_and_owned_rows_by_key() {
        let mut cat = hotel_catalog();
        cafes(&mut cat);
        let mut overlay = TableOverlay::new();
        overlay.push_row(
            "hotels",
            vec![
                Value::text("Nieuw"),
                Value::text("Amsterdam"),
                Value::Float(80.0),
                Value::text("damrak"),
            ],
        );
        // Two leaves under an OR, so no row short-circuits past a leaf
        // and no plan ranks: every statement goes through the row loop.
        let residue = "(\"clean rooms\" or h.comfort .= \"firm\")";
        // (statement, overlay?, base rows scored, owned rows scored)
        let cases = [
            (
                format!("select * from hotels h where {residue}"),
                false,
                3,
                0,
            ),
            (
                format!("select * from hotels h where h.price_pn < 150 and {residue}"),
                false,
                2,
                0,
            ),
            (
                format!("select * from hotels h where {residue}"),
                true,
                3,
                1,
            ),
            (
                format!("select * from hotels h where h.price_pn < 150 and {residue}"),
                true,
                2,
                1,
            ),
        ];
        for (sql, with_overlay, base_rows, owned_rows) in cases {
            let q = parse_select(&sql).unwrap();
            let overlay = with_overlay.then_some(&overlay);
            let scorer = Positional::new(true);
            let fast = run(&q, &cat, &scorer, overlay).expect(&sql);
            assert_eq!(scorer.by_position.get(), base_rows * 2, "{sql}");
            assert_eq!(scorer.by_key.get(), owned_rows * 2, "{sql}");
            assert_eq!(
                fast.rows,
                run(&q, &cat, &Canned, overlay).unwrap().rows,
                "{sql}"
            );
        }

        // A join turns every base row into an owned row: all by key.
        let q = parse_select(&format!(
            "select * from hotels h join cafes c on h.street = c.street where {residue}"
        ))
        .unwrap();
        let scorer = Positional::new(false);
        let joined = run(&q, &cat, &scorer, None).unwrap();
        assert_eq!(joined.rows.len(), 1, "Grand × Beans");
        assert_eq!((scorer.by_position.get(), scorer.by_key.get()), (0, 2));
        assert_eq!(joined.rows, run(&q, &cat, &Canned, None).unwrap().rows);
    }

    /// The pre-select-k `finish` ordering, verbatim: the oracle.
    fn stable_sort_then_truncate<T>(scored: &mut Vec<(T, f64)>, limit: Option<usize>) {
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        if let Some(limit) = limit {
            scored.truncate(limit);
        }
    }

    /// `finish` with a LIMIT selects the top k instead of sorting every
    /// scored row; the answer — which rows, in which order — must be the
    /// stable full sort's, ties included. (`ORDER BY` statements never
    /// reach the selection: they sort by a column, as before.)
    #[test]
    fn limit_selects_what_the_stable_full_sort_kept() {
        let mut cat = Catalog::new();
        cat.create_table(Schema::new(
            "t",
            vec![Column::new("id", ColumnType::Int)],
            0,
        ))
        .unwrap();
        let base_rows = 23;
        for i in 0..base_rows {
            cat.insert("t", vec![Value::Int(i)]).unwrap();
        }
        let base = cat.table("t").unwrap();
        let palettes: [&[f64]; 4] = [
            &[0.25],
            &[0.0, -0.0],
            &[0.25, 0.25, 0.25, 0.5, 0.125],
            &[0.9, 0.25, 0.25, -0.0, 0.0, 0.7, 0.25, 1.0],
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for palette in palettes {
            for overlay_rows in [0, 1, 9] {
                // Arrival order: base rows by position, then overlay rows.
                let scores: Vec<f64> = (0..base_rows as usize + overlay_rows)
                    .map(|_| palette[next(palette.len())])
                    .collect();
                let n = scores.len();
                for limit in [Some(0), Some(1), Some(5), Some(n), Some(n + 1), None] {
                    let mut q = parse_select("select * from t").unwrap();
                    q.limit = limit;
                    let scored: Vec<(RowHandle<'_>, f64)> = scores
                        .iter()
                        .enumerate()
                        .map(|(i, &score)| {
                            let handle = if i < base_rows as usize {
                                RowHandle::Base(base.row(i))
                            } else {
                                RowHandle::Owned(vec![Value::Int(i as i64)])
                            };
                            (handle, score)
                        })
                        .collect();
                    let layout = Layout {
                        slots: vec![("t".into(), "id".into())],
                        base,
                    };
                    let got = finish(&q, layout, scored).unwrap().into_result_set();
                    let mut want: Vec<(Vec<Value>, f64)> = scores
                        .iter()
                        .enumerate()
                        .map(|(i, &score)| (vec![Value::Int(i as i64)], score))
                        .collect();
                    stable_sort_then_truncate(&mut want, limit);
                    assert_eq!(got.rows.len(), want.len(), "{palette:?} limit {limit:?}");
                    for (g, w) in got.rows.iter().zip(&want) {
                        assert_eq!(g.0, w.0, "{palette:?} limit {limit:?}");
                        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{palette:?} limit {limit:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn objective_filter_works() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels where price_pn < 150").unwrap();
        let r = run(&q, &cat, &ObjectiveOnly, None).unwrap();
        assert_eq!(r.rows.len(), 2);
        for (row, score) in &r.rows {
            assert!(row[2].as_f64().unwrap() < 150.0);
            assert_eq!(*score, 1.0);
        }
    }

    #[test]
    fn subjective_predicate_ranks_rows() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels where \"clean rooms\"").unwrap();
        let r = run(&q, &cat, &Canned, None).unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert!((r.rows[0].1 - 0.9).abs() < 1e-9);
        assert!(r.rows[0].1 > r.rows[1].1 && r.rows[1].1 > r.rows[2].1);
    }

    #[test]
    fn mixed_query_multiplies_degrees() {
        let cat = hotel_catalog();
        let q =
            parse_select("select * from hotels where price_pn < 150 and \"clean rooms\"").unwrap();
        let r = run(&q, &cat, &Canned, None).unwrap();
        // Plaza (300/night) excluded by the objective 0; Grand 0.9, Canal 0.2.
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert!((r.rows[0].1 - 0.9).abs() < 1e-9);
    }

    #[test]
    fn mixed_query_pushes_candidates_into_the_ta_path() {
        let cat = hotel_catalog();
        let scorer = Indexed::new();
        let q =
            parse_select("select * from hotels where price_pn < 150 and \"clean rooms\" limit 10")
                .unwrap();
        let r = run(&q, &cat, &scorer, None).unwrap();
        assert_eq!(scorer.pushdowns.get(), 1, "pushdown path must fire");
        assert_eq!(
            scorer.last_candidates.get(),
            Some(2),
            "objective bitmap admits Grand + Canal"
        );
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert!((r.rows[0].1 - 0.9).abs() < 1e-9);
        assert_eq!(r.rows[1].0[0], Value::text("Canal"));
        // Results equal the naive path exactly.
        let naive = run(&q, &cat, &Canned, None).unwrap();
        assert_eq!(r.rows, naive.rows);
    }

    #[test]
    fn pushdown_handles_scattered_objective_conjuncts() {
        let cat = hotel_catalog();
        let scorer = Indexed::new();
        // objective · subjective · objective — flattening must collect
        // both comparisons into the prefilter.
        let q = parse_select(
            "select * from hotels where price_pn < 400 and \"clean rooms\" and city = 'London'",
        )
        .unwrap();
        let r = run(&q, &cat, &scorer, None).unwrap();
        assert_eq!(scorer.pushdowns.get(), 1);
        assert_eq!(scorer.last_candidates.get(), Some(2), "Grand + Plaza");
        let naive = run(&q, &cat, &Canned, None).unwrap();
        assert_eq!(r.rows, naive.rows);
    }

    #[test]
    fn order_by_disables_the_pushdown_but_keeps_the_prefilter() {
        let cat = hotel_catalog();
        let scorer = Indexed::new();
        let q = parse_select(
            "select * from hotels where price_pn < 150 and \"clean rooms\" order by price_pn asc",
        )
        .unwrap();
        let r = run(&q, &cat, &scorer, None).unwrap();
        assert_eq!(scorer.pushdowns.get(), 0, "ORDER BY must skip TA");
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].0[0], Value::text("Canal"), "ordered by price");
    }

    #[test]
    fn literal_first_comparison_vectorizes_flipped() {
        use crate::ast::CmpOp;
        let cat = hotel_catalog();
        // The parser only spells column-first comparisons, but the AST
        // admits literal-first; the planner flips the operator.
        let mut q = parse_select("select * from hotels").unwrap();
        q.where_clause = Some(Expr::Compare {
            lhs: Operand::Literal(Value::Int(150)),
            op: CmpOp::Gt,
            rhs: Operand::Column(ColumnRef {
                table: None,
                column: "price_pn".into(),
            }),
        });
        let r = run(&q, &cat, &ObjectiveOnly, None).unwrap();
        assert_eq!(r.rows.len(), 2);
        for (row, _) in &r.rows {
            assert!(row[2].as_f64().unwrap() < 150.0);
        }
    }

    #[test]
    fn marker_match_uses_scorer() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels h where h.comfort .= \"firm\"").unwrap();
        let r = run(&q, &cat, &Canned, None).unwrap();
        assert_eq!(r.rows[0].0[0], Value::text("Plaza"));
    }

    #[test]
    fn mixed_marker_residue_scores_candidates_only() {
        let cat = hotel_catalog();
        // Marker residue can't ride TA, but the objective prefilter
        // still applies: only Plaza (price ≥ 150) is scored.
        let q = parse_select(
            "select * from hotels h where h.price_pn >= 150 and h.comfort .= \"firm\"",
        )
        .unwrap();
        let r = run(&q, &cat, &Canned, None).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].0[0], Value::text("Plaza"));
        assert!((r.rows[0].1 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn missing_scorer_is_an_error() {
        let cat = hotel_catalog();
        // An error whether or not any row reaches the leaf: the last two
        // statements have no candidate rows.
        for sql in [
            "select * from hotels where \"clean rooms\"",
            "select * from hotels where price_pn < 0 and \"clean rooms\"",
            "select * from hotels h where h.price_pn < 0 and (\"a\" or h.comfort .= \"firm\")",
        ] {
            let q = parse_select(sql).unwrap();
            assert!(
                matches!(
                    run(&q, &cat, &ObjectiveOnly, None),
                    Err(StoreError::NoScorer(_))
                ),
                "{sql}"
            );
        }
    }

    #[test]
    fn projection_selects_columns() {
        let cat = hotel_catalog();
        let q = parse_select("select hotelname from hotels where price_pn < 150").unwrap();
        let r = run(&q, &cat, &ObjectiveOnly, None).unwrap();
        assert_eq!(r.columns, vec!["hotelname"]);
        assert_eq!(r.rows[0].0.len(), 1);
    }

    #[test]
    fn order_by_overrides_score_order() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels order by price_pn asc").unwrap();
        let r = run(&q, &cat, &ObjectiveOnly, None).unwrap();
        assert_eq!(r.rows[0].0[0], Value::text("Canal"));
        assert_eq!(r.rows[2].0[0], Value::text("Plaza"));
    }

    #[test]
    fn limit_truncates() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels limit 1").unwrap();
        let r = run(&q, &cat, &ObjectiveOnly, None).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn join_combines_tables() {
        let mut cat = hotel_catalog();
        cafes(&mut cat);
        cat.insert("cafes", vec![Value::text("Brew"), Value::text("canal")])
            .unwrap();
        let q = parse_select("select * from hotels h join cafes c on h.street = c.street").unwrap();
        let r = run(&q, &cat, &ObjectiveOnly, None).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert_eq!(r.rows[0].0[4], Value::text("Beans"));
    }

    /// The join's build and probe loops checkpoint: an expired deadline
    /// cancels a join even when it produces no row for the row loop.
    #[test]
    fn expired_deadline_cancels_a_join_with_no_matching_rows() {
        let mut cat = hotel_catalog();
        cat.create_table(Schema::new(
            "cafes",
            vec![
                Column::new("cafename", ColumnType::Text),
                Column::new("street", ColumnType::Text),
            ],
            0,
        ))
        .unwrap();
        // More build rows than one checkpoint stride, none on a hotel's street.
        for i in 0..600 {
            cat.insert(
                "cafes",
                vec![Value::text(&format!("cafe{i}")), Value::text("nowhere")],
            )
            .unwrap();
        }
        let q = parse_select("select * from hotels h join cafes c on h.street = c.street").unwrap();
        assert_eq!(run(&q, &cat, &ObjectiveOnly, None).unwrap().rows.len(), 0);
        let expired = opine_faults::Deadline::after(std::time::Duration::ZERO);
        let unwound = opine_faults::with_deadline(Some(expired), || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run(&q, &cat, &ObjectiveOnly, None).map(|r| r.rows.len())
            }))
        });
        let payload = unwound.expect_err("the build loop must reach a checkpoint");
        assert!(payload.is::<opine_faults::Cancelled>());
    }

    #[test]
    fn fuzzy_algebra_laws() {
        for alg in [FuzzyAlgebra::Product, FuzzyAlgebra::Godel] {
            // identity / annihilator
            assert_eq!(alg.and(1.0, 0.7), 0.7);
            assert_eq!(alg.and(0.0, 0.7), 0.0);
            assert_eq!(alg.or(0.0, 0.7), 0.7);
            assert_eq!(alg.or(1.0, 0.7), 1.0);
            // De Morgan: ¬(x ⊗ y) = ¬x ⊕ ¬y
            let (x, y) = (0.3, 0.6);
            let lhs = alg.not(alg.and(x, y));
            let rhs = alg.or(alg.not(x), alg.not(y));
            assert!((lhs - rhs).abs() < 1e-12, "{alg:?}");
        }
    }

    #[test]
    fn godel_variant_uses_min() {
        let cat = hotel_catalog();
        let q =
            parse_select("select * from hotels where \"clean rooms\" and \"clean rooms\"").unwrap();
        let product = run(&q, &cat, &Canned, None).unwrap();
        let godel = execute(&q, &cat, &Canned, FuzzyAlgebra::Godel, None)
            .unwrap()
            .into_result_set();
        // product: 0.81 for Grand; Gödel: 0.9.
        assert!((product.rows[0].1 - 0.81).abs() < 1e-9);
        assert!((godel.rows[0].1 - 0.9).abs() < 1e-9);
    }

    #[test]
    fn lazy_path_matches_materialized_execution() {
        let cat = hotel_catalog();
        for sql in [
            "select * from hotels where price_pn < 150 and \"clean rooms\"",
            "select hotelname from hotels where \"clean rooms\" limit 2",
            "select * from hotels order by price_pn asc",
        ] {
            let q = parse_select(sql).unwrap();
            let lazy = execute(&q, &cat, &Canned, FuzzyAlgebra::Product, None).unwrap();
            let materialized = run(&q, &cat, &Canned, None).unwrap();
            assert_eq!(lazy.columns(), materialized.columns.as_slice(), "{sql}");
            assert_eq!(lazy.len(), materialized.rows.len(), "{sql}");
            for (i, (row, score)) in materialized.rows.iter().enumerate() {
                assert_eq!(lazy.score(i), *score, "{sql}");
                let borrowed: Vec<ValueRef<'_>> = lazy.values(i).collect();
                assert_eq!(borrowed.len(), row.len(), "{sql}");
                for (a, b) in borrowed.iter().zip(row) {
                    assert_eq!(*a, *b, "{sql}");
                }
            }
        }
    }

    #[test]
    fn lazy_projection_is_applied_at_read_time() {
        let cat = hotel_catalog();
        let q = parse_select("select hotelname, city from hotels where price_pn < 150").unwrap();
        let lazy = execute(&q, &cat, &ObjectiveOnly, FuzzyAlgebra::Product, None).unwrap();
        assert_eq!(lazy.columns(), ["hotelname", "city"]);
        let vals: Vec<ValueRef<'_>> = lazy.values(0).collect();
        assert_eq!(vals.len(), 2);
        assert_eq!(lazy.values(0).len(), 2, "ExactSizeIterator length");
        let rs = lazy.into_result_set();
        assert_eq!(rs.rows[0].0.len(), 2);
    }

    #[test]
    fn lazy_join_materializes_combined_rows() {
        let mut cat = hotel_catalog();
        cafes(&mut cat);
        let q = parse_select("select * from hotels h join cafes c on h.street = c.street").unwrap();
        let lazy = execute(&q, &cat, &ObjectiveOnly, FuzzyAlgebra::Product, None).unwrap();
        assert_eq!(lazy.len(), 1);
        let vals: Vec<ValueRef<'_>> = lazy.values(0).collect();
        assert_eq!(vals[4], Value::text("Beans"));
    }

    #[test]
    fn overlay_rows_join_the_planner_fast_path_results() {
        let cat = hotel_catalog();
        let mut overlay = TableOverlay::new();
        overlay.push_row(
            "hotels",
            vec![
                Value::text("Nieuw"),
                Value::text("Amsterdam"),
                Value::Float(80.0),
                Value::text("damrak"),
            ],
        );
        // Purely objective WHERE rides the bitmap for base rows; the
        // overlay row is evaluated separately and still included.
        let q = parse_select("select * from hotels where price_pn < 150").unwrap();
        let r = run(&q, &cat, &ObjectiveOnly, Some(&overlay)).unwrap();
        assert_eq!(r.rows.len(), 3, "Grand, Canal, and the overlay row");
        assert!(r.rows.iter().any(|(row, _)| row[0] == Value::text("Nieuw")));
        // Without the overlay the same query sees only base rows.
        let base = run(&q, &cat, &ObjectiveOnly, None).unwrap();
        assert_eq!(base.rows.len(), 2);
    }

    #[test]
    fn overlay_rows_score_subjectively_and_rank_with_base_rows() {
        let cat = hotel_catalog();
        let mut overlay = TableOverlay::new();
        overlay.push_row(
            "hotels",
            vec![
                Value::text("Plaza"), // same canned key: degree 0.5
                Value::text("Paris"),
                Value::Float(110.0),
                Value::text("rivoli"),
            ],
        );
        let q = parse_select("select * from hotels where \"clean rooms\"").unwrap();
        let r = run(&q, &cat, &Canned, Some(&overlay)).unwrap();
        assert_eq!(r.rows.len(), 4);
        // Ranked by degree among base rows: Grand 0.9, the two Plazas
        // 0.5, Canal 0.2.
        assert_eq!(r.rows[0].0[0], Value::text("Grand"));
        assert!((r.rows[1].1 - 0.5).abs() < 1e-12);
        assert!((r.rows[2].1 - 0.5).abs() < 1e-12);
        assert_eq!(r.rows[3].0[0], Value::text("Canal"));
    }

    #[test]
    fn overlay_limit_keeps_topk_exact_over_base_and_delta() {
        let cat = hotel_catalog();
        let scorer = Indexed::new();
        let mut overlay = TableOverlay::new();
        overlay.push_row(
            "hotels",
            vec![
                Value::text("Grand"), // canned degree 0.9 — ties the best base row
                Value::text("Oslo"),
                Value::Float(70.0),
                Value::text("karl"),
            ],
        );
        let q = parse_select("select * from hotels where \"clean rooms\" limit 2").unwrap();
        let r = run(&q, &cat, &scorer, Some(&overlay)).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert!((r.rows[0].1 - 0.9).abs() < 1e-12);
        assert!(
            (r.rows[1].1 - 0.9).abs() < 1e-12,
            "delta row outranks Plaza"
        );
    }

    #[test]
    fn overlay_rows_participate_in_joins() {
        let mut cat = hotel_catalog();
        cafes(&mut cat);
        let mut overlay = TableOverlay::new();
        // Overlay on the build side: a new cafe on Plaza's street.
        overlay.push_row("cafes", vec![Value::text("Roast"), Value::text("oxford")]);
        let q = parse_select("select * from hotels h join cafes c on h.street = c.street").unwrap();
        let r = run(&q, &cat, &ObjectiveOnly, Some(&overlay)).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert!(r
            .rows
            .iter()
            .any(|(row, _)| row[0] == Value::text("Plaza") && row[4] == Value::text("Roast")));
    }

    #[test]
    fn overlay_width_mismatch_is_reported() {
        let cat = hotel_catalog();
        let mut overlay = TableOverlay::new();
        overlay.push_row("hotels", vec![Value::text("Short")]);
        let q = parse_select("select * from hotels where price_pn < 150").unwrap();
        assert!(matches!(
            run(&q, &cat, &ObjectiveOnly, Some(&overlay)),
            Err(StoreError::SchemaMismatch(_))
        ));
        let scan = parse_select("select * from hotels").unwrap();
        assert!(matches!(
            run(&scan, &cat, &ObjectiveOnly, Some(&overlay)),
            Err(StoreError::SchemaMismatch(_))
        ));
    }

    /// A random subjective tree of depth ≤ `depth` over `p0`…`p3`.
    fn random_tree(next: &mut impl FnMut(usize) -> usize, depth: usize) -> Expr {
        if depth == 0 || next(4) == 0 {
            return Expr::Subjective(format!("p{}", next(4)));
        }
        let op = next(3);
        let a = Box::new(random_tree(next, depth - 1));
        match op {
            0 => Expr::And(a, Box::new(random_tree(next, depth - 1))),
            1 => Expr::Or(a, Box::new(random_tree(next, depth - 1))),
            _ => Expr::Not(a),
        }
    }

    /// `expr` with `objective` conjoined somewhere on its top-level AND
    /// spine, on the left or on the right.
    fn conjoin_somewhere(
        expr: Expr,
        objective: Expr,
        next: &mut impl FnMut(usize) -> usize,
    ) -> Expr {
        match (expr, next(4)) {
            (Expr::And(a, b), 0) => Expr::And(Box::new(conjoin_somewhere(*a, objective, next)), b),
            (Expr::And(a, b), 1) => Expr::And(a, Box::new(conjoin_somewhere(*b, objective, next))),
            (expr, 2) => Expr::And(Box::new(objective), Box::new(expr)),
            (expr, _) => Expr::And(Box::new(expr), Box::new(objective)),
        }
    }

    /// The kernel's scorer and the row loop's evaluator agree to the bit
    /// on every candidate row: random trees (AND / OR / NOT, nested
    /// either way, predicates repeated) with objective conjuncts spliced
    /// into their AND spine, both algebras, degrees that include 0 and 1.
    /// A flat conjunction also folds to the same bits through
    /// [`Residue::conjoin`].
    #[test]
    fn residue_score_equals_eval_of_the_full_where_on_candidates() {
        const ROWS: usize = 40;
        const PALETTE: [f64; 7] = [0.0, 1.0, 0.5, 0.25, 0.3, 0.9, 1.0 - f64::EPSILON];
        let mut cat = Catalog::new();
        cat.create_table(Schema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("price", ColumnType::Int),
            ],
            0,
        ))
        .unwrap();
        for i in 0..ROWS as i64 {
            cat.insert("t", vec![Value::Int(i), Value::Int(i % 10)])
                .unwrap();
        }
        let base = cat.table("t").unwrap();
        let layout = Layout {
            slots: vec![("t".into(), "id".into()), ("t".into(), "price".into())],
            base,
        };
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let degrees: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..ROWS).map(|_| PALETTE[next(PALETTE.len())]).collect())
            .collect();

        /// `p{i}` of the row with id `r` is `degrees[i][r]`.
        struct Palette(Vec<Vec<f64>>);
        impl SubjectiveScorer for Palette {
            fn bind_predicate<'s>(
                &'s self,
                _base: &Table,
                predicate: &'s str,
            ) -> Result<BoundLeaf<'s>, StoreError> {
                let p: usize = predicate[1..].parse().unwrap();
                Ok(BoundLeaf::by_key(move |key| {
                    Ok(self.0[p][key.as_f64().unwrap() as usize])
                }))
            }
            fn bind_match<'s>(
                &'s self,
                _base: &Table,
                attribute: &'s ColumnRef,
                _phrase: &'s str,
            ) -> Result<BoundLeaf<'s>, StoreError> {
                Err(StoreError::NoScorer(attribute.column.clone()))
            }
        }
        let scorer = Palette(degrees.clone());

        let (mut scored, mut negated, mut flat) = (0, 0, 0);
        for _ in 0..300 {
            let mut where_clause = random_tree(&mut next, 3);
            for _ in 0..next(3) {
                let price = next(11);
                let objective = parse_select(&format!("select * from t where price < {price}"))
                    .unwrap()
                    .where_clause
                    .unwrap();
                where_clause = conjoin_somewhere(where_clause, objective, &mut next);
            }
            let (residue, predicates) = Residue::of(&where_clause).expect("every leaf is quoted");
            negated += usize::from(!residue.is_monotone());
            let full = bind(&where_clause, &layout, &scorer).unwrap();
            let objective: Vec<Bound<'_>> = where_clause
                .conjuncts()
                .into_iter()
                .filter(|e| !e.has_subjective())
                .map(|e| bind(e, &layout, &scorer).unwrap())
                .collect();
            for algebra in [FuzzyAlgebra::Product, FuzzyAlgebra::Godel] {
                for (row, view) in base.rows().enumerate() {
                    let handle = RowHandle::Base(view);
                    let eval = |bound: &Bound<'_>| eval(bound, &handle, 0, algebra).unwrap();
                    if objective.iter().any(|b| eval(b) != 1.0) {
                        continue;
                    }
                    let read =
                        |leaf: usize| degrees[predicates[leaf][1..].parse::<usize>().unwrap()][row];
                    let kernel = residue.score(algebra, &read);
                    assert_eq!(
                        kernel.to_bits(),
                        eval(&full).to_bits(),
                        "{where_clause} row {row} {algebra:?}"
                    );
                    if residue.is_conjunction(predicates.len()) {
                        let folded = Residue::conjoin(algebra, (0..predicates.len()).map(read));
                        assert_eq!(
                            folded.to_bits(),
                            kernel.to_bits(),
                            "{where_clause} row {row} {algebra:?}: conjoin"
                        );
                        flat += 1;
                    }
                    scored += 1;
                }
            }
        }
        assert!(
            scored > 5_000 && negated > 50 && flat > 500,
            "{scored} rows, {negated} NOTs, {flat} flat conjunction rows"
        );

        // A leaf no column holds keeps the row loop.
        for sql in [
            "select * from t h where h.comfort .= \"firm\" and \"p0\"",
            "select * from t where price < 3 or \"p0\"",
            "select * from t where not (price < 3 and \"p0\")",
            "select * from t where price < 3",
        ] {
            let q = parse_select(sql).unwrap();
            assert_eq!(Residue::of(q.where_clause.as_ref().unwrap()), None, "{sql}");
        }
        let q = parse_select("select * from t where \"a\" and price < 3 and (\"b\" or not \"a\")")
            .unwrap();
        assert_eq!(
            Residue::of(q.where_clause.as_ref().unwrap()),
            Some((
                Residue::And(vec![
                    Residue::Leaf(0),
                    Residue::Or(vec![
                        Residue::Leaf(1),
                        Residue::Not(Box::new(Residue::Leaf(0)))
                    ])
                ]),
                vec!["a", "b"]
            ))
        );
        // A chain folds into one operator; a nested right side stays.
        let q =
            parse_select("select * from t where \"a\" and \"b\" and (\"c\" and \"a\")").unwrap();
        let leaf = Residue::Leaf;
        assert_eq!(
            Residue::of(q.where_clause.as_ref().unwrap()),
            Some((
                Residue::And(vec![leaf(0), leaf(1), Residue::And(vec![leaf(2), leaf(0)])]),
                vec!["a", "b", "c"]
            ))
        );
    }

    #[test]
    fn unknown_column_is_reported() {
        let cat = hotel_catalog();
        let q = parse_select("select * from hotels where nosuch > 5").unwrap();
        assert!(matches!(
            run(&q, &cat, &ObjectiveOnly, None),
            Err(StoreError::UnknownColumn(_))
        ));
    }
}
