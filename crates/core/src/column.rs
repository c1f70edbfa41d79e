//! Degree columns and the batched membership kernel that fills them.
//!
//! A predicate's [`DegreeColumn`] holds one degree of truth per entity.
//! Building one is the cold half of every subjective query, and its
//! cost splits cleanly in two:
//!
//! * the **query half** — the query phrase's embedding, sentiment and
//!   its cosine to every marker — depends on the predicate only, so
//!   [`OpineDb::prepare_interpretation`] computes it once into a
//!   [`PreparedInterpretation`];
//! * the **entity half** — per-marker fractions, sentiment means and
//!   totals of each `(entity, attribute)` summary — depends on the data
//!   only, so the builder freezes it into a [`FeaturePlane`], folding
//!   each cell's build-time occurrences once and keeping no summary.
//!
//! The plane is **column-major**: per attribute, one `f64` column of
//! all entities for each of the `2k + 3` slots of a feature row. A term
//! column is filled eight entities per pass: each slot of eight
//! consecutive entities is one contiguous load, and the k-term support
//! sum, the 9-weight logistic and the sigmoid run as eight independent
//! chains. **The lane rule:** per lane, the operations are those of the
//! one-entity path, in the same order, so a degree's bits do not
//! depend on the lane it ran in. An entity the caller's override hook
//! yields a degree for takes that degree in place of its lane's, and
//! the tail past the last full block takes the one-entity path
//! (`OpineDb::term_degree`), which reads the columns in place. A cell
//! live ingest touched carries its whole summary in the pinned delta,
//! its row written on the spot ([`PreparedTerm::summary_degree`]); a
//! review-qualified set ([`crate::qualified`]) is a plane of its own,
//! and the entities a repair refolded carry rows written at the repair
//! ([`PreparedTerm::row_degree`]). Both run the one-lane join over that
//! row. Every degree is bit-identical to
//! [`crate::membership::marker_features`] followed by
//! [`crate::MembershipModel::degree`]: that reference is the same two
//! halves composed per call.

use crate::db::{OpineDb, PreparedPhrase, ReviewMeta};
use crate::ingest::Pin;
use crate::interpret::Interpretation;
use crate::membership::{
    feature_row_len, lane_features, marker_sims, row_features, summary_features, write_feature_row,
    MarkerSims, MembershipModel,
};
use crate::summary::{MarkerSet, MarkerSummary};
use opine_ir::bm25_term_score;
use opine_store::ast::ColumnRef;
use opine_store::{Bitmap, Expr, FuzzyAlgebra, Leaf, ReviewQualifier, StoreError, Subjective};
use opine_text::WordId;
use std::borrow::Cow;
use std::cell::{LazyCell, OnceCell};
use std::sync::{Arc, OnceLock};

/// The dense degree column of one predicate: one slot per entity, plus
/// the descending-degree entity order (TA's sorted-access list),
/// computed once on demand — by the first top-k that walks it, which
/// the ranking plan arranges to be the column's first *reuse* — reused
/// by every subsequent top-k over the same predicate, and carried over
/// by a live-ingest repair.
#[derive(Debug)]
pub struct DegreeColumn {
    degrees: Vec<f64>,
    sorted: OnceLock<Vec<u32>>,
}

/// Sort key whose ascending `u64` order is `f64::total_cmp`'s
/// *descending* order: `total_cmp`'s own order-preserving bit transform
/// (flip the magnitude bits of negatives), biased to unsigned, inverted.
#[inline]
fn descending_key(degree: f64) -> u64 {
    let mut bits = degree.to_bits() as i64;
    bits ^= (((bits >> 63) as u64) >> 1) as i64;
    !((bits as u64) ^ (1 << 63))
}

impl DegreeColumn {
    /// A column over `degrees[entity]`.
    pub fn new(degrees: Vec<f64>) -> Self {
        DegreeColumn {
            degrees,
            sorted: OnceLock::new(),
        }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// True when the column holds no entities.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// Degree of truth per entity id.
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// Heap bytes of the degree storage.
    pub fn memory_bytes(&self) -> usize {
        self.degrees.len() * std::mem::size_of::<f64>()
    }

    /// A copy with the given `(entity, degree)` slots replaced — the
    /// live-ingest cache-repair path, which recomputes only the
    /// entities whose delta version moved past the cached column's
    /// epoch stamp instead of rebuilding all of them.
    ///
    /// A column that had its sorted order keeps one. The old order is
    /// sorted by the old `(descending_key, id)`, so a binary search by
    /// old key finds where each updated entity leaves it and one by new
    /// key where it re-enters (every other entity kept its key); the
    /// new order is the old one copied in runs around those positions —
    /// the order [`Self::sorted_order`] would compute from scratch, in
    /// O(m log n) searches and one O(n) copy for m updates instead of
    /// an O(n log n) sort at the next TA. Past n / 8 updates the
    /// searches cost most of that sort (≈ 0.13 µs per update against
    /// ≈ 55 µs per sort at 2 000 entities), so the column stays lazy, as
    /// does a column without an order.
    fn patched(&self, updates: &[(usize, f64)]) -> DegreeColumn {
        let mut degrees = self.degrees.clone();
        for &(entity, degree) in updates {
            degrees[entity] = degree;
        }
        let mut moved: Vec<u32> = updates.iter().map(|&(e, _)| e as u32).collect();
        moved.sort_unstable();
        moved.dedup();
        let order = match self.sorted.get() {
            Some(order) if moved.len() <= order.len() / 8 => order,
            _ => return DegreeColumn::new(degrees),
        };
        let old_key = |e: u32| (descending_key(self.degrees[e as usize]), e);
        let mut leaves: Vec<usize> = moved
            .iter()
            .map(|&e| order.partition_point(|&x| old_key(x) < old_key(e)))
            .collect();
        leaves.sort_unstable();
        let mut enters: Vec<(u64, u32)> = moved
            .iter()
            .map(|&e| (descending_key(degrees[e as usize]), e))
            .collect();
        enters.sort_unstable();

        let mut merged = Vec::with_capacity(order.len());
        let mut from = 0;
        let mut leaves = leaves.into_iter().peekable();
        for entering in enters {
            opine_faults::checkpoint();
            let at = order.partition_point(|&x| old_key(x) < entering);
            while let Some(left) = leaves.next_if(|&left| left < at) {
                merged.extend_from_slice(&order[from..left]);
                from = left + 1;
            }
            merged.extend_from_slice(&order[from..at]);
            merged.push(entering.1);
            from = at;
        }
        for left in leaves {
            merged.extend_from_slice(&order[from..left]);
            from = left + 1;
        }
        merged.extend_from_slice(&order[from..]);
        DegreeColumn {
            degrees,
            sorted: OnceLock::from(merged),
        }
    }

    /// Whether [`Self::sorted_order`] has been computed for this column.
    pub fn has_order(&self) -> bool {
        self.sorted.get().is_some()
    }

    /// Entity ids in descending-degree order (ties by entity id) under
    /// `f64::total_cmp`. Sorted once per column; repeated queries reuse
    /// the order.
    pub fn sorted_order(&self) -> &[u32] {
        self.sorted.get_or_init(|| {
            // Packed `(key, id)` pairs are distinct, so the unstable
            // sort yields the one permutation the comparator
            // `degree(b).total_cmp(degree(a)).then(a.cmp(b))` defines.
            let mut keyed: Vec<(u64, u32)> = self
                .degrees
                .iter()
                .enumerate()
                .map(|(e, &d)| (descending_key(d), e as u32))
                .collect();
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, e)| e).collect()
        })
    }
}

/// Entities per pass of the column kernel.
pub(crate) const LANES: usize = 8;

/// The frozen entity half of the membership features, column-major:
/// per attribute, slot `c` of every entity's [`write_feature_row`] row
/// is one column of `entities` values. Immutable once built; an entity
/// whose cell moved since is scored from its own row or summary
/// instead.
#[derive(Debug)]
pub(crate) struct FeaturePlane {
    entities: usize,
    /// Per attribute: its `feature_row_len(k)` columns, one after the
    /// other.
    attributes: Vec<Vec<f64>>,
    /// Where each attribute's row starts in an entity's rows laid end
    /// to end, and their total length last.
    starts: Vec<usize>,
}

impl FeaturePlane {
    /// Freezes `summary(entity, attribute)` of `entities` entities into
    /// columns, each summary dropped once its row is written.
    pub(crate) fn build(
        entities: usize,
        marker_sets: &[MarkerSet],
        summary: impl Fn(usize, usize) -> MarkerSummary,
    ) -> Self {
        let attributes = marker_sets
            .iter()
            .enumerate()
            .map(|(attribute, set)| {
                let k = set.markers.len();
                let mut row = vec![0.0; feature_row_len(k)];
                let mut columns = vec![0.0; entities * row.len()];
                for entity in 0..entities {
                    opine_faults::checkpoint();
                    write_feature_row(&summary(entity, attribute), k, &mut row);
                    for (slot, &value) in row.iter().enumerate() {
                        columns[slot * entities + entity] = value;
                    }
                }
                columns
            })
            .collect();
        let mut starts = vec![0];
        for set in marker_sets {
            starts.push(starts[starts.len() - 1] + feature_row_len(set.markers.len()));
        }
        FeaturePlane {
            entities,
            attributes,
            starts,
        }
    }

    /// Where `attribute`'s row lies in an entity's rows laid end to end
    /// (the layout of [`Self::entity_rows`]).
    pub(crate) fn row_range(&self, attribute: usize) -> std::ops::Range<usize> {
        self.starts[attribute]..self.starts[attribute + 1]
    }

    /// Every attribute's row of one entity, laid end to end, written
    /// by `row(attribute, out)`.
    pub(crate) fn entity_rows(&self, mut row: impl FnMut(usize, &mut [f64])) -> Box<[f64]> {
        let mut rows = vec![0.0; self.starts[self.starts.len() - 1]];
        for attribute in 0..self.attributes.len() {
            row(attribute, &mut rows[self.row_range(attribute)]);
        }
        rows.into_boxed_slice()
    }

    /// The row of `(entity, attribute)`, gathered from its columns.
    pub(crate) fn row(&self, entity: usize, attribute: usize) -> Vec<f64> {
        let columns = &self.attributes[attribute];
        (0..self.row_range(attribute).len())
            .map(|slot| columns[slot * self.entities + entity])
            .collect()
    }

    /// The degrees of `term` over entities `first..first + L`, every
    /// slot read from the plane: lane `l` is entity `first + l`.
    #[inline]
    fn degrees<const L: usize>(
        &self,
        first: usize,
        term: &PreparedTerm,
        model: &MembershipModel,
    ) -> [f64; L] {
        let columns = &self.attributes[term.attribute];
        let slot = |c: usize| -> &[f64; L] {
            let at = c * self.entities + first;
            columns[at..at + L]
                .try_into()
                .expect("a lane block lies inside one column")
        };
        model.degrees(&lane_features(slot, &term.sims, term.phrase.sentiment))
    }

    /// The degree of `term` for one entity, its plane slots read in
    /// place.
    fn degree(&self, entity: usize, term: &PreparedTerm, model: &MembershipModel) -> f64 {
        self.degrees::<1>(entity, term, model)[0]
    }

    /// The degree of `term` for every entity, [`LANES`] entities per
    /// pass. An entity `over` yields a degree for takes that degree in
    /// place of its lane's; the tail takes [`Self::degree`] per entity
    /// `over` yields none for.
    pub(crate) fn term_column(
        &self,
        term: &PreparedTerm,
        model: &MembershipModel,
        over: impl Fn(usize) -> Option<f64>,
    ) -> Vec<f64> {
        let mut degrees = vec![0.0; self.entities];
        let mut blocks = degrees.chunks_exact_mut(LANES);
        for (first, block) in (0..).step_by(LANES).zip(&mut blocks) {
            // One checkpoint per entity: the deadline's clock is read
            // every 256 calls, so a call per block would let a column of
            // 2 000 entities finish without reading it.
            (0..LANES).for_each(|_| opine_faults::checkpoint());
            block.copy_from_slice(&self.degrees::<LANES>(first, term, model));
            for (entity, slot) in (first..).zip(block) {
                if let Some(degree) = over(entity) {
                    *slot = degree;
                }
            }
        }
        let tail = blocks.into_remainder();
        let first = self.entities - tail.len();
        for (entity, slot) in (first..).zip(tail) {
            opine_faults::checkpoint();
            *slot = over(entity).unwrap_or_else(|| self.degree(entity, term, model));
        }
        degrees
    }

    /// Heap bytes of the columns.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.attributes
            .iter()
            .map(|columns| columns.len() * std::mem::size_of::<f64>())
            .sum()
    }
}

/// One `attribute .= phrase` term with its query half computed: the
/// prepared phrase and its similarity to every marker of the attribute.
#[derive(Debug)]
pub(crate) struct PreparedTerm {
    pub(crate) attribute: usize,
    phrase: Arc<PreparedPhrase>,
    sims: MarkerSims,
}

impl PreparedTerm {
    /// The term's degree over `summary`, its row written on the spot
    /// and joined over one lane.
    pub(crate) fn summary_degree(&self, summary: &MarkerSummary, model: &MembershipModel) -> f64 {
        model.degree(&summary_features(
            summary,
            &self.sims,
            self.phrase.sentiment,
        ))
    }

    /// The term's degree over a row [`write_feature_row`] wrote before,
    /// joined over one lane.
    pub(crate) fn row_degree(&self, row: &[f64], model: &MembershipModel) -> f64 {
        model.degree(&row_features(row, &self.sims, self.phrase.sentiment))
    }
}

/// An interpretation with its query-side work hoisted out of the
/// per-entity loop: embeddings, sentiments, marker similarities and
/// fallback term ids are computed once, so scoring an entity touches
/// only entity state.
#[derive(Debug)]
pub(crate) enum PreparedInterpretation {
    /// Stage 1: one attribute, scored against the original phrase.
    Direct(PreparedTerm),
    /// Stage 2: fuzzy combination of `(attribute, marker phrase)` terms,
    /// each with its marker index, whose phrase with the term's
    /// attribute names the term's cached column ([`OpineDb::term_key`]).
    CoOccur {
        terms: Vec<(usize, PreparedTerm)>,
        conjunctive: bool,
    },
    /// Stage 3: BM25 fallback over pre-resolved term ids, scored a
    /// column at a time ([`OpineDb::text_degrees`]).
    Text { terms: Vec<WordId> },
}

impl PreparedInterpretation {
    /// The degree of one entity: `term` scores each membership term,
    /// and co-occurrence terms combine through [`fold_terms`]. `None`
    /// for the text fallback, which has no per-entity degree: its BM25
    /// reads corpus-wide statistics.
    pub(crate) fn combine(&self, term: impl Fn(&PreparedTerm) -> f64) -> Option<f64> {
        match self {
            PreparedInterpretation::Direct(t) => Some(term(t)),
            PreparedInterpretation::CoOccur { terms, conjunctive } => {
                Some(fold_terms(*conjunctive, terms.iter().map(|(_, t)| term(t))))
            }
            PreparedInterpretation::Text { .. } => None,
        }
    }
}

/// The co-occurrence column of `n` entities from its term columns,
/// slot by slot through [`fold_terms`].
pub(crate) fn fold_columns(conjunctive: bool, columns: &[&[f64]], n: usize) -> Vec<f64> {
    (0..n)
        .map(|entity| {
            opine_faults::checkpoint();
            fold_terms(conjunctive, columns.iter().map(|c| c[entity]))
        })
        .collect()
}

/// A co-occurrence interpretation's degree from its term degrees, in
/// term order under the product algebra: `⊗` folds from 1, `⊕` from 0.
/// The point path and the column fold both call it, so a folded slot
/// has the bits of the per-entity combination.
#[inline]
fn fold_terms(conjunctive: bool, degrees: impl Iterator<Item = f64>) -> f64 {
    let algebra = FuzzyAlgebra::Product;
    if conjunctive {
        degrees.fold(1.0, |acc, d| algebra.and(acc, d))
    } else {
        degrees.fold(0.0, |acc, d| algebra.or(acc, d))
    }
}

pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// The tag that opens a term column's cache key.
const TERM_TAG: &str = "\0T";
/// The tag that opens the key of a predicate whose text starts with NUL.
const ESCAPED_PREDICATE_TAG: &str = "\0P";

/// The column cache key of a predicate: its text. Term keys open with
/// [`TERM_TAG`], so a predicate that starts with NUL is escaped behind
/// [`ESCAPED_PREDICATE_TAG`]. No text given to
/// [`OpineDb::degree_column`] can name a term column.
fn predicate_key(predicate: &str) -> Cow<'_, str> {
    if predicate.starts_with('\0') {
        Cow::Owned(format!("{ESCAPED_PREDICATE_TAG}{predicate}"))
    } else {
        Cow::Borrowed(predicate)
    }
}

/// What a cached column is computed from.
enum ColumnSource<'a> {
    /// A predicate, by its interpretation.
    Predicate(&'a str, PreparedInterpretation),
    /// One `attribute .= phrase` term — of a co-occurrence
    /// interpretation, or a `.=` leaf: the column of `Direct(term)`.
    Term(&'a PreparedTerm),
}

impl ColumnSource<'_> {
    /// The degree of one entity at `pin`; `None` for a text fallback
    /// (see [`PreparedInterpretation::combine`]).
    fn degree(&self, db: &OpineDb, entity: usize, pin: &Pin) -> Option<f64> {
        match self {
            ColumnSource::Predicate(_, prepared) => {
                prepared.combine(|term| db.term_degree(entity, term, pin))
            }
            ColumnSource::Term(term) => Some(db.term_degree(entity, term, pin)),
        }
    }
}

impl OpineDb {
    /// The dense degree column of a predicate over all entities at the
    /// current pin, cached. Degrees are computed per entity, except that
    /// a text fallback is one pass over its terms' review postings
    /// ([`Self::text_degrees`]) and a co-occurrence interpretation folds
    /// its terms' cached columns.
    ///
    /// Cached columns are stamped with the data epoch they were built
    /// at. A probe from a newer pin **repairs** a stale column instead
    /// of rebuilding it: only the entities whose pinned delta version
    /// moved past the stamp recompute (an `INSERT` touches one entity;
    /// the other N−1 slots are reused verbatim). A text fallback column
    /// has no per-entity repair: inserted in-vocabulary text moves the
    /// corpus statistics every entity's BM25 reads, so the column is
    /// rebuilt whole when such text arrived after its stamp, and reused
    /// as it is otherwise.
    pub fn degree_column(&self, predicate: &str) -> Arc<DegreeColumn> {
        self.fetch_column(predicate, &self.pin()).0
    }

    /// [`Self::degree_column`] at `pin`, and whether this call had to
    /// build the column from nothing (a cache miss; a restamp or a
    /// repair starts from a column some earlier statement paid for).
    pub(crate) fn fetch_column(&self, predicate: &str, pin: &Pin) -> (Arc<DegreeColumn>, bool) {
        self.column_from(&predicate_key(predicate), pin, || {
            ColumnSource::Predicate(predicate, self.prepare_interpretation(predicate))
        })
    }

    /// The column cached under `key` for `pin` — a hit, a restamp, a
    /// repair, or a build from what `source` prepares — and whether it
    /// was built from nothing. Each outcome counts once under the
    /// `ta_topk` stage, for predicate and term columns alike.
    fn column_from<'a>(
        &self,
        key: &str,
        pin: &Pin,
        source: impl FnOnce() -> ColumnSource<'a>,
    ) -> (Arc<DegreeColumn>, bool) {
        let source = LazyCell::new(source);
        let mut cacheable = true;
        if let Some((stamp, column)) = self.column_cache.get(key) {
            if stamp == pin.epoch {
                opine_trace::count("ta_topk", "cache_hits", 1);
                return (column, false);
            }
            if stamp < pin.epoch {
                'carried: {
                    let updates: Option<Vec<(usize, f64)>> = pin
                        .delta
                        .changed_since(stamp)
                        .into_iter()
                        .map(|entity| {
                            opine_faults::checkpoint();
                            Some((entity, source.degree(self, entity, pin)?))
                        })
                        .collect();
                    let column = match updates {
                        Some(updates) if !updates.is_empty() => {
                            opine_trace::count("ta_topk", "cache_repairs", 1);
                            Arc::new(column.patched(&updates))
                        }
                        // A text fallback has no per-entity degree and
                        // reads the delta's text at every entity: built
                        // whole below once in-vocabulary text arrived.
                        None if pin.delta.text_epoch > stamp => break 'carried,
                        // Nothing the column depends on changed across
                        // those epochs; restamp so the next probe hits
                        // on the fast equality check.
                        _ => {
                            opine_trace::count("ta_topk", "cache_hits", 1);
                            column
                        }
                    };
                    self.column_cache.insert(key, (pin.epoch, column.clone()));
                    return (column, false);
                }
            } else {
                // A column from this pin's future. Build privately
                // without regressing the cached stamp.
                cacheable = false;
            }
        }
        opine_trace::count("ta_topk", "cache_misses", 1);
        let model = &self.membership_markers;
        let term_column = |term: &PreparedTerm| {
            self.plane.term_column(term, model, |entity| {
                let summary = pin.delta.summary(entity, term.attribute)?;
                Some(term.summary_degree(summary, model))
            })
        };
        let degrees = match &*source {
            ColumnSource::Predicate(_, PreparedInterpretation::Text { terms }) => {
                self.text_degrees(terms, pin, None)
            }
            ColumnSource::Predicate(
                predicate,
                PreparedInterpretation::CoOccur { terms, conjunctive },
            ) => self.fold_term_columns(predicate, terms, *conjunctive, pin),
            ColumnSource::Predicate(_, PreparedInterpretation::Direct(term)) => term_column(term),
            ColumnSource::Term(term) => term_column(term),
        };
        let column = Arc::new(DegreeColumn::new(degrees));
        if cacheable {
            self.column_cache.insert(key, (pin.epoch, column.clone()));
        }
        (column, true)
    }

    /// The column a WHERE clause's leaf reads at `pin`, for the ranking
    /// kernel and the row loop alike, and whether this call built it from
    /// nothing: a predicate's [`Self::fetch_column`]; for `attribute .=
    /// phrase` the cached term column of `(attribute, phrase)`, which a
    /// co-occurrence term of that marker phrase shares; a comparison's
    /// bitmap as 0.0 / 1.0. Under a review `qualifier` a subjective leaf
    /// reads its column of the qualified set instead
    /// ([`Self::qualified_column`]), built for this statement. An
    /// unknown `.=` attribute is [`StoreError::UnknownColumn`].
    pub(crate) fn leaf_column(
        &self,
        leaf: &Leaf<'_, Bitmap>,
        qualifier: Option<&ReviewQualifier>,
        pin: &Pin,
    ) -> Result<(Arc<DegreeColumn>, bool), StoreError> {
        Ok(match (qualifier, leaf) {
            (Some(qualifier), Leaf::Subjective(leaf)) => {
                let degrees = self.qualified_column(*leaf, qualifier, pin)?;
                (Arc::new(DegreeColumn::new(degrees)), true)
            }
            (_, leaf) => self.unqualified_column(leaf, pin)?,
        })
    }

    /// [`Self::leaf_column`] with no qualifier.
    fn unqualified_column(
        &self,
        leaf: &Leaf<'_, Bitmap>,
        pin: &Pin,
    ) -> Result<(Arc<DegreeColumn>, bool), StoreError> {
        Ok(match leaf {
            Leaf::Subjective(Subjective::Predicate(predicate)) => self.fetch_column(predicate, pin),
            Leaf::Subjective(Subjective::Match { attribute, phrase }) => {
                let attribute = self.match_attribute(attribute)?;
                let term = OnceCell::new();
                self.column_from(&self.term_key(attribute, phrase), pin, || {
                    ColumnSource::Term(term.get_or_init(|| self.prepare_term(attribute, phrase)))
                })
            }
            Leaf::Compare(holds) => {
                let degrees = (0..self.num_entities())
                    .map(|entity| if holds.get(entity) { 1.0 } else { 0.0 })
                    .collect();
                (Arc::new(DegreeColumn::new(degrees)), true)
            }
        })
    }

    /// The column cache key of the term `attribute .= phrase`:
    /// [`TERM_TAG`], then the term's canonical `.=` rendering.
    fn term_key(&self, attribute: usize, phrase: &str) -> String {
        let term = Expr::MarkerMatch {
            attribute: ColumnRef {
                table: None,
                column: self.attributes[attribute].clone(),
            },
            phrase: phrase.to_string(),
        };
        format!("{TERM_TAG}{term}")
    }

    /// A co-occurrence predicate's degrees: each term's cached column
    /// (a hit, a repair or a build), folded slot by slot through
    /// [`fold_terms`]. A term column depends only on its `(attribute,
    /// phrase)`, so the paraphrases of one concept share them, and a
    /// `.=` of a marker phrase shares them too.
    fn fold_term_columns(
        &self,
        predicate: &str,
        terms: &[(usize, PreparedTerm)],
        conjunctive: bool,
        pin: &Pin,
    ) -> Vec<f64> {
        let mut cached = 0;
        let columns: Vec<Arc<DegreeColumn>> = terms
            .iter()
            .map(|(marker, term)| {
                let phrase = &self.marker_set(term.attribute).markers[*marker].phrase;
                let key = self.term_key(term.attribute, phrase);
                let (column, built) = self.column_from(&key, pin, || ColumnSource::Term(term));
                cached += usize::from(!built);
                column
            })
            .collect();
        opine_trace::note(|| {
            format!(
                "ta_topk: column of \"{predicate}\" folded from {} term columns ({cached} cached)",
                columns.len()
            )
        });
        let columns: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
        fold_columns(conjunctive, &columns, self.num_entities())
    }

    /// Hoists the query half of a `attribute .= phrase` term.
    pub(crate) fn prepare_term(&self, attribute: usize, phrase: &str) -> PreparedTerm {
        let phrase = self.prepare_phrase(phrase);
        PreparedTerm {
            attribute,
            sims: marker_sims(self.marker_set(attribute), &phrase.rep),
            phrase,
        }
    }

    /// Interprets a predicate and hoists its query-side work
    /// (embeddings, sentiment, marker similarities, fallback term
    /// lookup) so per-entity scoring is pure entity-state access.
    pub(crate) fn prepare_interpretation(&self, predicate: &str) -> PreparedInterpretation {
        match self.interpret(predicate) {
            Interpretation::Direct { attribute, .. } => {
                PreparedInterpretation::Direct(self.prepare_term(attribute, predicate))
            }
            Interpretation::CoOccur { terms, conjunctive } => PreparedInterpretation::CoOccur {
                terms: terms
                    .iter()
                    .map(|&(a, m)| {
                        (
                            m,
                            self.prepare_term(a, &self.marker_set(a).markers[m].phrase),
                        )
                    })
                    .collect(),
                conjunctive,
            },
            Interpretation::TextFallback => PreparedInterpretation::Text {
                terms: self.text_terms(predicate),
            },
        }
    }

    /// The in-vocabulary term ids of a predicate (the text fallback's
    /// query).
    pub(crate) fn text_terms(&self, predicate: &str) -> Vec<WordId> {
        opine_text::tokenize(predicate)
            .iter()
            .filter_map(|t| self.vocab().get(t))
            .collect()
    }

    /// Degree of one membership term for an entity: its plane slots read
    /// in place, or, when delta reviews mentioned the cell, the pinned
    /// delta cell's summary of the whole cell (no merge, no allocation).
    /// The column kernel's path for a delta cell's block and the tail,
    /// and the per-entity repair's.
    pub(crate) fn term_degree(&self, entity: usize, term: &PreparedTerm, pin: &Pin) -> f64 {
        let model = &self.membership_markers;
        match pin.delta.summary(entity, term.attribute) {
            Some(summary) => term.summary_degree(summary, model),
            None => self.plane.degree(entity, term, model),
        }
    }

    /// Degree of one membership term over an explicit summary: the
    /// kernel's arm for a delta cell, which writes the entity-half row
    /// on the spot.
    pub(crate) fn summary_term_degree(&self, summary: &MarkerSummary, term: &PreparedTerm) -> f64 {
        term.summary_degree(summary, &self.membership_markers)
    }

    /// The text fallback's degree of every entity: `sigmoid(BM25 − c)`
    /// of its reviews at `pin`, base and delta, that the qualifier
    /// accepts, as one document. Per query term, in query order and
    /// duplicates included, the tf of its review postings and of the
    /// pinned delta reviews holding it sums into each entity's slot, and
    /// each entity touched adds the term's BM25. Document frequency and
    /// mean length are the live, unqualified ones of every review at the
    /// pin — a rebuilt database's. With an empty delta and no qualifier
    /// these are the integers and term order of an index with one
    /// document per entity, so the degrees are its bits.
    ///
    /// `qualified` is the qualifier with each entity's accepted text
    /// length, which its set carries ([`crate::QualifiedSet::text_len`]),
    /// so a qualified column walks only its terms' postings.
    pub(crate) fn text_degrees(
        &self,
        terms: &[WordId],
        pin: &Pin,
        qualified: Option<(&ReviewQualifier, &[u32])>,
    ) -> Vec<f64> {
        let n = self.num_entities();
        let index = self.interpreter().review_index();
        let delta = &pin.delta;
        let accepts = |meta: &ReviewMeta| {
            qualified.is_none_or(|(q, _)| {
                q.accepts(meta.year, self.reviewer_count_at(delta, meta.reviewer_id))
            })
        };
        let lengths = match qualified {
            Some((_, lengths)) => Cow::Borrowed(lengths),
            None => {
                let mut lengths = self.entity_text_len.clone();
                for (meta, len) in delta.review_lengths() {
                    opine_faults::checkpoint();
                    lengths[meta.entity_id] += len;
                }
                Cow::Owned(lengths)
            }
        };
        let total_len = index.total_len() + delta.text_len();
        let mut scores = vec![0.0f64; n];
        let mut tf = vec![0u32; n];
        // The entities whose text holds the term, accepted or not.
        let mut holds = vec![false; n];
        let mut holders = Vec::new();
        for &term in terms {
            let base = index.term_postings(term).iter();
            let base = base.map(|&(doc, count)| (self.review_meta[doc.index()], count));
            for (meta, count) in base.chain(delta.reviews_holding(term)) {
                opine_faults::checkpoint();
                let entity = meta.entity_id;
                if !std::mem::replace(&mut holds[entity], true) {
                    holders.push(entity);
                }
                if accepts(&meta) {
                    tf[entity] += count;
                }
            }
            let df = holders.len();
            for entity in holders.drain(..) {
                opine_faults::checkpoint();
                holds[entity] = false;
                let tf = std::mem::take(&mut tf[entity]);
                if tf > 0 {
                    scores[entity] += bm25_term_score(n, total_len, df, tf, lengths[entity]);
                }
            }
        }
        scores
            .into_iter()
            .map(|score| sigmoid(score - self.config.sigmoid_c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::{feature_row, marker_features, MembershipModel};
    use crate::summary::{AssignMode, Marker, PhraseContribution, SummaryKind};
    use opine_ml::LogRegConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `marker_features` as it was before the query/entity split, kept
    /// verbatim as the frozen specification of every degree's bits.
    fn legacy_marker_features(
        summary: &MarkerSummary,
        markers: &MarkerSet,
        query_rep: &[f32],
        query_sentiment: f64,
    ) -> Vec<f64> {
        let fracs = summary.fractions();
        let mut support = 0.0;
        let mut avg_sent = 0.0;
        let mut best = (0usize, f32::NEG_INFINITY);
        for (i, m) in markers.markers.iter().enumerate() {
            let sim = opine_embed::cosine(query_rep, &m.rep);
            support += fracs.get(i).copied().unwrap_or(0.0) * sim.max(0.0) as f64;
            avg_sent += fracs.get(i).copied().unwrap_or(0.0) * summary.sentiment_mean(i);
            if sim > best.1 {
                best = (i, sim);
            }
        }
        let (best_idx, best_sim) = best;
        let (best_frac, best_sent) = if markers.markers.is_empty() {
            (0.0, 0.0)
        } else {
            (
                fracs.get(best_idx).copied().unwrap_or(0.0),
                summary.sentiment_mean(best_idx),
            )
        };
        vec![
            support,
            avg_sent,
            best_frac,
            best_sim.max(-1.0) as f64,
            best_sent,
            (summary.total + 1.0).ln(),
            summary.unmatched_fraction(),
            query_sentiment,
            avg_sent * query_sentiment,
        ]
    }

    fn random_rep(rng: &mut StdRng, dim: usize) -> Vec<f32> {
        let mut rep: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        opine_embed::normalize(&mut rep);
        rep
    }

    fn random_marker_set(rng: &mut StdRng, k: usize, kind: SummaryKind) -> MarkerSet {
        MarkerSet {
            attribute: "a".into(),
            kind,
            markers: (0..k)
                .map(|i| {
                    let rep = random_rep(rng, 8);
                    Marker::new(format!("m{i}"), rep, rng.gen::<f64>() * 2.0 - 1.0)
                })
                .collect(),
        }
    }

    /// A summary of `phrases` random phrases; `min_similarity` above 1
    /// leaves every one of them unmatched.
    fn random_summary(
        rng: &mut StdRng,
        set: &MarkerSet,
        phrases: usize,
        mode: AssignMode,
        min_similarity: f32,
    ) -> MarkerSummary {
        let mut summary = MarkerSummary::empty(set.markers.len());
        for _ in 0..phrases {
            let rep = random_rep(rng, 8);
            let sentiment = rng.gen::<f64>() * 2.0 - 1.0;
            summary.add(&PhraseContribution::compute(
                &rep,
                sentiment,
                set,
                mode,
                min_similarity,
            ));
        }
        summary
    }

    /// Every degree path against the frozen specification: the column
    /// kernel (lanes, a delta cell's block, the tail), the one-entity
    /// plane path, the summary path and `marker_features`. Entity counts
    /// straddle one and several lane blocks, marker counts straddle the
    /// stack row of `summary_features`, the queries include the zero
    /// vector and ones most similar to the first and to the last marker,
    /// and delta cells sit in the first and the last slot of a block and
    /// in the tail.
    #[test]
    fn plane_summary_and_reference_features_agree_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(12);
        let tuples: Vec<(Vec<f64>, bool)> = (0..200)
            .map(|_| {
                let x: Vec<f64> = (0..crate::membership::FEATURE_DIM)
                    .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
                    .collect();
                let y = x[0] + x[1] > x[6];
                (x, y)
            })
            .collect();
        let model = MembershipModel::train(&tuples, &LogRegConfig::default());
        const ENTITIES: [usize; 7] = [1, 7, 8, 9, 63, 64, 65];

        for (k, kind) in [
            (0, SummaryKind::Linear),
            (1, SummaryKind::Linear),
            (4, SummaryKind::Linear),
            (10, SummaryKind::Linear),
            (6, SummaryKind::Categorical),
            // The stack row of `summary_features`, and one past it.
            (16, SummaryKind::Linear),
            (17, SummaryKind::Linear),
            (20, SummaryKind::Linear),
        ] {
            let set = random_marker_set(&mut rng, k, kind);
            // One cell per shape: empty, all-unmatched, a lone phrase,
            // then best- and proportional-assign mixes with a threshold
            // that leaves some phrases unmatched.
            let mut cells = vec![
                MarkerSummary::empty(k),
                random_summary(&mut rng, &set, 5, AssignMode::Best, 2.0),
                random_summary(&mut rng, &set, 1, AssignMode::Best, -1.0),
            ];
            while cells.len() < ENTITIES[6] {
                let phrases = rng.gen_range(1..40);
                let (mode, min_similarity) = if cells.len() % 2 == 0 {
                    (AssignMode::Best, 0.2)
                } else {
                    (AssignMode::Proportional, -0.3)
                };
                cells.push(random_summary(
                    &mut rng,
                    &set,
                    phrases,
                    mode,
                    min_similarity,
                ));
            }
            // What a delta cell holds for each entity, and its row as a
            // qualified repair writes it.
            let deltas: Vec<MarkerSummary> = (0..cells.len())
                .map(|_| {
                    let phrases = rng.gen_range(1..40);
                    random_summary(&mut rng, &set, phrases, AssignMode::Best, 0.2)
                })
                .collect();
            let delta_rows: Vec<Vec<f64>> = deltas.iter().map(feature_row).collect();
            let planes: Vec<FeaturePlane> = ENTITIES
                .iter()
                .map(|&n| {
                    let plane =
                        FeaturePlane::build(n, std::slice::from_ref(&set), |e, _| cells[e].clone());
                    assert_eq!(plane.memory_bytes(), n * feature_row_len(k) * 8);
                    for (e, cell) in cells[..n].iter().enumerate() {
                        let bits =
                            |row: Vec<f64>| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(plane.row(e, 0)),
                            bits(feature_row(cell)),
                            "k={k} n={n} {e}"
                        );
                    }
                    plane
                })
                .collect();

            // The zero vector (cosine 0 against everything), the first
            // and the last marker's own embedding, then random ones.
            let mut queries = vec![vec![0.0; 8]];
            if let (Some(first), Some(last)) = (set.markers.first(), set.markers.last()) {
                queries.push(first.rep.clone());
                queries.push(last.rep.clone());
            }
            queries.extend((0..5).map(|_| random_rep(&mut rng, 8)));
            for (q, query) in queries.iter().enumerate() {
                let sentiment = rng.gen::<f64>() * 2.0 - 1.0;
                let sims = marker_sims(&set, query);
                if k > 0 && q == 1 {
                    assert_eq!(sims.best, 0, "k={k}");
                }
                if k > 0 && q == 2 {
                    assert_eq!(sims.best, k - 1, "k={k}");
                }
                let legacy = |cell: &MarkerSummary| {
                    model
                        .degree(&legacy_marker_features(cell, &set, query, sentiment))
                        .to_bits()
                };
                let legacy_cells: Vec<u64> = cells.iter().map(legacy).collect();
                let legacy_deltas: Vec<u64> = deltas.iter().map(legacy).collect();
                for (entity, cell) in cells.iter().enumerate() {
                    let over_summary = model.degree(&summary_features(cell, &sims, sentiment));
                    let reference = model.degree(&marker_features(cell, &set, query, sentiment));
                    let expected = legacy_cells[entity];
                    assert_eq!(over_summary.to_bits(), expected, "k={k} cell {entity}");
                    assert_eq!(reference.to_bits(), expected, "k={k} cell {entity}");
                }

                let term = PreparedTerm {
                    attribute: 0,
                    phrase: Arc::new(PreparedPhrase {
                        rep: query.clone(),
                        sentiment,
                    }),
                    sims,
                };
                for (&n, plane) in ENTITIES.iter().zip(&planes) {
                    // Block 1's first slot, block 2's last, the last
                    // entity when it is in the tail.
                    let touched = |e: usize| e == 8 || e == 23 || (n % LANES != 0 && e == n - 1);
                    // No override, a delta cell's summary, a written row.
                    for mode in 0..3 {
                        let delta = |e: usize| match mode {
                            1 if touched(e) => Some(term.summary_degree(&deltas[e], &model)),
                            2 if touched(e) => Some(term.row_degree(&delta_rows[e], &model)),
                            _ => None,
                        };
                        let column = plane.term_column(&term, &model, delta);
                        assert_eq!(column.len(), n);
                        for (entity, degree) in column.iter().enumerate() {
                            let single = delta(entity)
                                .unwrap_or_else(|| plane.degree(entity, &term, &model));
                            let expected = match delta(entity) {
                                Some(_) => legacy_deltas[entity],
                                None => legacy_cells[entity],
                            };
                            let at = format!("k={k} n={n} query {q} mode {mode} {entity}");
                            assert_eq!(degree.to_bits(), single.to_bits(), "{at}");
                            assert_eq!(single.to_bits(), expected, "{at}");
                        }
                    }
                }
            }
        }
    }

    /// The order `sorted_order` produced before it sorted packed keys.
    fn comparator_order(column: &DegreeColumn) -> Vec<u32> {
        let degrees = column.degrees();
        let mut order: Vec<u32> = (0..column.len() as u32).collect();
        order.sort_by(|&a, &b| {
            degrees[b as usize]
                .total_cmp(&degrees[a as usize])
                .then_with(|| a.cmp(&b))
        });
        order
    }

    #[test]
    fn packed_key_order_equals_the_comparator_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            -5e-324,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            1.0 - f64::EPSILON,
        ];
        let columns = [
            DegreeColumn::new(Vec::new()),
            DegreeColumn::new(vec![0.25; 300]),
            DegreeColumn::new(specials.to_vec()),
            DegreeColumn::new(
                (0..400)
                    .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                    .collect(),
            ),
            DegreeColumn::new((0..500).map(|_| rng.gen::<f64>()).collect()),
            DegreeColumn::new(
                (0..500)
                    .map(|_| specials[rng.gen_range(0..specials.len())])
                    .collect(),
            ),
        ];
        for column in &columns {
            assert_eq!(column.sorted_order(), comparator_order(column).as_slice());
        }
    }

    /// A repaired column's order is the order a fresh column over the
    /// same degrees sorts, whatever the update count (none to every
    /// entity), with ties and both zeros on both sides of the moves and
    /// an entity updated twice. It is carried over up to n / 8 updates;
    /// past that, and for a column without an order, it stays lazy.
    #[test]
    fn patched_order_equals_a_fresh_sort() {
        let mut rng = StdRng::seed_from_u64(25);
        let palette = [0.0, -0.0, 0.25, 0.5, 0.5, 1.0, f64::MIN_POSITIVE];
        for n in [1usize, 2, 7, 60, 300] {
            let degree = |rng: &mut StdRng| -> f64 {
                if rng.gen::<f64>() < 0.5 {
                    palette[rng.gen_range(0..palette.len())]
                } else {
                    rng.gen::<f64>()
                }
            };
            let old = DegreeColumn::new((0..n).map(|_| degree(&mut rng)).collect());
            let lazy = DegreeColumn::new(old.degrees().to_vec());
            old.sorted_order();
            let mut counts: Vec<usize> = (0..=n.min(12)).collect();
            counts.extend([n / 2, n.saturating_sub(1), n]);
            for m in counts {
                let mut entities: Vec<usize> = (0..n).collect();
                for i in 0..m {
                    let j = rng.gen_range(i..n);
                    entities.swap(i, j);
                }
                let mut updates: Vec<(usize, f64)> = entities[..m]
                    .iter()
                    .map(|&e| (e, degree(&mut rng)))
                    .collect();
                if let Some(&(e, _)) = updates.first() {
                    updates.push((e, degree(&mut rng)));
                }
                let patched = old.patched(&updates);
                assert_eq!(patched.has_order(), m <= n / 8, "n={n} m={m}");
                let fresh = DegreeColumn::new(patched.degrees().to_vec());
                assert_eq!(patched.sorted_order(), fresh.sorted_order(), "n={n} m={m}");
                assert!(!lazy.patched(&updates).has_order(), "n={n} m={m}");
            }
        }
    }
}
