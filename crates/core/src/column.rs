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
//!   only, so `OpineDb::assemble` freezes it into a [`FeaturePlane`].
//!
//! Scoring an entity is then one sequential row read, a k-term dot
//! product, and the logistic. Cells with a pinned delta summary (live
//! ingest) and externally supplied summaries (review-qualified
//! statements) run the same feature function over a row written on the
//! spot from the merged [`MarkerSummary`]. Every degree is bit-identical
//! to [`crate::membership::marker_features`] followed by
//! [`crate::MembershipModel::degree`]: that reference is the same two
//! halves composed per call.

use crate::db::{OpineDb, PreparedPhrase};
use crate::ingest::Pin;
use crate::interpret::Interpretation;
use crate::membership::{
    feature_row_len, features_from_row, marker_sims, summary_features, write_feature_row,
    MarkerSims,
};
use crate::par;
use crate::summary::{MarkerSet, MarkerSummary};
use opine_store::ast::ColumnRef;
use opine_store::{Expr, FuzzyAlgebra};
use opine_text::WordId;
use std::borrow::Cow;
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

/// The frozen entity half of the membership features: per attribute one
/// contiguous `entities × feature_row_len(k)` array of
/// [`write_feature_row`] rows over the build-time summaries. Immutable
/// after `OpineDb::assemble`; cells touched by live ingest are scored
/// from their merged summary instead.
#[derive(Debug)]
pub(crate) struct FeaturePlane {
    /// Per attribute: the row stride and the rows, entity-major.
    attributes: Vec<(usize, Vec<f64>)>,
}

impl FeaturePlane {
    /// Freezes `summaries[entity][attribute]` into rows.
    pub(crate) fn build(summaries: &[Vec<MarkerSummary>], marker_sets: &[MarkerSet]) -> Self {
        let attributes = marker_sets
            .iter()
            .enumerate()
            .map(|(attribute, set)| {
                let k = set.markers.len();
                let stride = feature_row_len(k);
                let mut rows = vec![0.0; summaries.len() * stride];
                for (row, per_attribute) in rows.chunks_exact_mut(stride).zip(summaries) {
                    write_feature_row(&per_attribute[attribute], k, row);
                }
                (stride, rows)
            })
            .collect();
        FeaturePlane { attributes }
    }

    /// The row of one `(attribute, entity)` cell.
    #[inline]
    fn row(&self, attribute: usize, entity: usize) -> &[f64] {
        let (stride, rows) = &self.attributes[attribute];
        &rows[entity * stride..(entity + 1) * stride]
    }

    /// Heap bytes of the rows.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.attributes
            .iter()
            .map(|(_, rows)| rows.len() * std::mem::size_of::<f64>())
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

/// An interpretation with its query-side work hoisted out of the
/// per-entity loop: embeddings, sentiments, marker similarities and
/// fallback term ids are computed once, so scoring an entity touches
/// only entity state.
#[derive(Debug)]
pub(crate) enum PreparedInterpretation {
    /// Stage 1: one attribute, scored against the original phrase.
    Direct(PreparedTerm),
    /// Stage 2: fuzzy combination of `(attribute, marker phrase)` terms,
    /// each with its marker index, which with the term's attribute names
    /// the term's cached column ([`OpineDb::term_key`]).
    CoOccur {
        terms: Vec<(usize, PreparedTerm)>,
        conjunctive: bool,
    },
    /// Stage 3: BM25 fallback over pre-resolved term ids.
    Text { terms: Vec<WordId> },
}

impl PreparedInterpretation {
    /// The degree of one entity: `term` scores each membership term,
    /// `text` the fallback's term ids; co-occurrence terms combine
    /// through [`fold_terms`].
    pub(crate) fn combine(
        &self,
        term: impl Fn(&PreparedTerm) -> f64,
        text: impl FnOnce(&[WordId]) -> f64,
    ) -> f64 {
        match self {
            PreparedInterpretation::Direct(t) => term(t),
            PreparedInterpretation::CoOccur { terms, conjunctive } => {
                fold_terms(*conjunctive, terms.iter().map(|(_, t)| term(t)))
            }
            PreparedInterpretation::Text { terms } => text(terms),
        }
    }
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

fn sigmoid(x: f64) -> f64 {
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
    /// One `attribute .= marker phrase` term of a co-occurrence
    /// interpretation: the column of `Direct(term)`.
    Term(&'a PreparedTerm),
}

impl ColumnSource<'_> {
    /// The degree of one entity at `pin`.
    fn degree(&self, db: &OpineDb, entity: usize, pin: &Pin) -> f64 {
        match self {
            ColumnSource::Predicate(_, prepared) => db.degree_prepared(entity, prepared, pin),
            ColumnSource::Term(term) => db.term_degree(entity, term, pin),
        }
    }
}

impl OpineDb {
    /// The dense degree column of a predicate over all entities, cached.
    /// Degrees are computed per entity (in parallel over entity chunks
    /// from [`par::PAR_THRESHOLD`] entities up), except that a text
    /// fallback is one pass over the entity index's postings and a
    /// co-occurrence interpretation folds its terms' cached columns.
    ///
    /// Cached columns are stamped with the data epoch they were built
    /// at. A probe from a newer pin **repairs** a stale column instead
    /// of rebuilding it: only the entities whose pinned delta version
    /// moved past the stamp recompute (an `INSERT` touches one entity;
    /// the other N−1 slots are reused verbatim).
    pub fn degree_column(&self, predicate: &str) -> Arc<DegreeColumn> {
        self.fetch_column(predicate).0
    }

    /// [`Self::degree_column`], and whether this call had to build the
    /// column from nothing (a cache miss; a restamp or a repair starts
    /// from a column some earlier statement paid for).
    pub(crate) fn fetch_column(&self, predicate: &str) -> (Arc<DegreeColumn>, bool) {
        self.ensure_pinned(|pin| {
            self.column_from(&predicate_key(predicate), pin, || {
                ColumnSource::Predicate(predicate, self.prepare_interpretation(predicate))
            })
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
        let mut cacheable = true;
        if let Some((stamp, column)) = self.column_cache.get(key) {
            if stamp == pin.epoch {
                opine_trace::count("ta_topk", "cache_hits", 1);
                return (column, false);
            }
            if stamp < pin.epoch {
                let stale = pin.delta.changed_since(stamp);
                if stale.is_empty() {
                    // Nothing the column depends on changed across
                    // those epochs; restamp so the next probe hits
                    // on the fast equality check.
                    opine_trace::count("ta_topk", "cache_hits", 1);
                    self.column_cache.insert(key, (pin.epoch, column.clone()));
                    return (column, false);
                }
                opine_trace::count("ta_topk", "cache_repairs", 1);
                let source = source();
                let updates: Vec<(usize, f64)> = stale
                    .iter()
                    .map(|&entity| {
                        opine_faults::checkpoint();
                        (entity, source.degree(self, entity, pin))
                    })
                    .collect();
                let column = Arc::new(column.patched(&updates));
                self.column_cache.insert(key, (pin.epoch, column.clone()));
                return (column, false);
            }
            // stamp > pin.epoch: a column from this pin's future.
            // Build privately without regressing the cached stamp.
            cacheable = false;
        }
        opine_trace::count("ta_topk", "cache_misses", 1);
        let source = source();
        let degrees = match &source {
            // Text fallback: one term-at-a-time pass over the entity
            // index's posting lists (O(total postings)) instead of a
            // per-entity per-term lookup — bit-identical to the point
            // path, which sums the same contributions per document.
            // The pinned delta's merged text contributes through its
            // own dense pass, added as one `f64` add per entity exactly
            // like the point path.
            ColumnSource::Predicate(_, PreparedInterpretation::Text { terms })
                if self.entity_index.num_docs() == self.num_entities() =>
            {
                let mut scores = self.entity_index.bm25_dense(terms);
                pin.delta.add_text_scores(terms, &mut scores);
                scores
                    .into_iter()
                    .map(|score| sigmoid(score - self.config.sigmoid_c))
                    .collect()
            }
            ColumnSource::Predicate(
                predicate,
                PreparedInterpretation::CoOccur { terms, conjunctive },
            ) => self.fold_term_columns(predicate, terms, *conjunctive, pin),
            _ => par::par_map(self.num_entities(), |entity| {
                opine_faults::checkpoint();
                source.degree(self, entity, pin)
            }),
        };
        let column = Arc::new(DegreeColumn::new(degrees));
        if cacheable {
            self.column_cache.insert(key, (pin.epoch, column.clone()));
        }
        (column, true)
    }

    /// The column cache key of the term `attribute .= marker phrase`:
    /// [`TERM_TAG`], then the term's canonical `.=` rendering.
    fn term_key(&self, attribute: usize, marker: usize) -> String {
        let term = Expr::MarkerMatch {
            attribute: ColumnRef {
                table: None,
                column: self.attributes[attribute].clone(),
            },
            phrase: self.marker_set(attribute).markers[marker].phrase.clone(),
        };
        format!("{TERM_TAG}{term}")
    }

    /// A co-occurrence predicate's degrees: each term's cached column
    /// (a hit, a repair or a build), folded slot by slot through
    /// [`fold_terms`]. A term column depends only on its `(attribute,
    /// marker)`, so the paraphrases of one concept share them.
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
                let key = self.term_key(term.attribute, *marker);
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
        par::par_map(self.num_entities(), |entity| {
            opine_faults::checkpoint();
            fold_terms(conjunctive, columns.iter().map(|c| c.degrees[entity]))
        })
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

    /// Degree of one entity under a prepared interpretation, reading
    /// the frozen plane and `pin`'s delta.
    pub(crate) fn degree_prepared(
        &self,
        entity: usize,
        prepared: &PreparedInterpretation,
        pin: &Pin,
    ) -> f64 {
        prepared.combine(
            |term| self.term_degree(entity, term, pin),
            |terms| self.text_degree_terms(entity, terms, pin),
        )
    }

    /// Degree of one membership term for an entity.
    pub(crate) fn term_degree(&self, entity: usize, term: &PreparedTerm, pin: &Pin) -> f64 {
        let attribute = term.attribute;
        match pin.delta.summary(entity, attribute) {
            None => self.membership_markers.degree(&features_from_row(
                self.plane.row(attribute, entity),
                &term.sims,
                term.phrase.sentiment,
            )),
            // Delta reviews mentioned this cell: score over the frozen
            // summary merged with the pinned delta summary (fixed-point
            // merge — identical to rebuilding from base + delta
            // occurrences; accumulators only, provenance is not scored).
            Some(delta_summary) => {
                let base = &self.summaries[entity][attribute];
                let mut merged = MarkerSummary::empty(base.num_markers());
                merged.merge_aggregates(base);
                merged.merge_aggregates(delta_summary);
                self.summary_term_degree(&merged, term)
            }
        }
    }

    /// Degree of one membership term over an explicit summary: the
    /// kernel's generic arm (delta-merged cells, review-qualified
    /// summaries), which writes the entity-half row on the spot.
    pub(crate) fn summary_term_degree(&self, summary: &MarkerSummary, term: &PreparedTerm) -> f64 {
        self.membership_markers.degree(&summary_features(
            summary,
            &term.sims,
            term.phrase.sentiment,
        ))
    }

    /// Text-retrieval fallback degree over pre-resolved term ids:
    /// `sigmoid(BM25(D_e, q) − c)`, with the pinned delta's merged text
    /// contributing once a merge has frozen it (near-real-time,
    /// Lucene-style: delta text becomes retrievable at the next merge,
    /// not the next epoch).
    pub(crate) fn text_degree_terms(&self, entity: usize, terms: &[WordId], pin: &Pin) -> f64 {
        let doc = opine_ir::DocId(entity as u32);
        let mut score = self.entity_index.bm25(doc, terms);
        if let Some(delta) = pin.delta.text_score(entity, terms, self.num_entities()) {
            score += delta;
        }
        sigmoid(score - self.config.sigmoid_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::{marker_features, MembershipModel};
    use crate::summary::{AssignMode, Marker, SummaryKind};
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
                .map(|i| Marker {
                    phrase: format!("m{i}"),
                    rep: random_rep(rng, 8),
                    sentiment: rng.gen::<f64>() * 2.0 - 1.0,
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
        for review in 0..phrases {
            let rep = random_rep(rng, 8);
            let sentiment = rng.gen::<f64>() * 2.0 - 1.0;
            summary.add_phrase("p", &rep, sentiment, set, mode, min_similarity, review);
        }
        summary
    }

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

        for (k, kind) in [
            (0, SummaryKind::Linear),
            (1, SummaryKind::Linear),
            (4, SummaryKind::Linear),
            (10, SummaryKind::Linear),
            (6, SummaryKind::Categorical),
            // Past the stack row of `summary_features`.
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
            for _ in 0..20 {
                let phrases = rng.gen_range(1..40);
                cells.push(random_summary(
                    &mut rng,
                    &set,
                    phrases,
                    AssignMode::Best,
                    0.2,
                ));
                cells.push(random_summary(
                    &mut rng,
                    &set,
                    phrases,
                    AssignMode::Proportional,
                    -0.3,
                ));
            }
            let summaries: Vec<Vec<MarkerSummary>> = cells.into_iter().map(|c| vec![c]).collect();
            let plane = FeaturePlane::build(&summaries, std::slice::from_ref(&set));
            assert_eq!(
                plane.memory_bytes(),
                summaries.len() * feature_row_len(k) * 8
            );

            for _ in 0..8 {
                // Includes the zero vector: cosine 0 against everything.
                let query = if rng.gen::<f64>() < 0.15 {
                    vec![0.0; 8]
                } else {
                    random_rep(&mut rng, 8)
                };
                let sentiment = rng.gen::<f64>() * 2.0 - 1.0;
                let sims = marker_sims(&set, &query);
                for (entity, cell) in summaries.iter().enumerate() {
                    let over_plane =
                        model.degree(&features_from_row(plane.row(0, entity), &sims, sentiment));
                    let over_summary = model.degree(&summary_features(&cell[0], &sims, sentiment));
                    let reference =
                        model.degree(&marker_features(&cell[0], &set, &query, sentiment));
                    let legacy =
                        model.degree(&legacy_marker_features(&cell[0], &set, &query, sentiment));
                    assert_eq!(
                        over_plane.to_bits(),
                        legacy.to_bits(),
                        "k={k} cell {entity}"
                    );
                    assert_eq!(
                        over_summary.to_bits(),
                        legacy.to_bits(),
                        "k={k} cell {entity}"
                    );
                    assert_eq!(reference.to_bits(), legacy.to_bits(), "k={k} cell {entity}");
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
