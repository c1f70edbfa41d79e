//! The reference evaluator: the paper's semantics as one slow function
//! of a statement and a data epoch.
//!
//! [`OpineDb::reference`] borrows the engine and scores row at a time
//! through the *unsplit* specification functions the builder trains
//! with — [`marker_features`] (or [`scan_features`] after
//! [`Reference::scan`], Table 7's "no markers" arm) and
//! [`crate::MembershipModel::degree`], BM25 over the concatenation of the
//! entity's accepted reviews for the fallback, each review's term
//! frequencies read on their own, and for every term it scores a marker
//! summary rescanned from the cell's occurrences (the rescan of
//! [`OpineDb::summaries_with_review_filter`], scoped by the statement's
//! `with reviews(…)`) — all at the one pin it holds. Its
//! bound leaves hoist nothing out of the row loop (each row interprets, embeds and scores
//! again) and read **by key on purpose** — every row, whatever table it
//! came from, is resolved through its key value, never through a row
//! position, so the oracle depends on no proof about row order — it
//! declines the executor's index ([`SubjectiveScorer::rank_residue`]
//! stays at its default), and it reads and writes no cache but the
//! interpreter's memo, so it is what every fast path, cold or warm, is
//! compared against bit for bit, and what an ablation runs on.
//!
//! Beside it sits the top-k kernels' own oracle,
//! [`full_scan_topk_dense`].

use crate::column::sigmoid;
use crate::db::{OpineDb, OpineError, QueryOutput, QueryRef, ReviewMeta};
use crate::ingest::Pin;
use crate::interpret::Interpretation;
use crate::membership::{marker_features, scan_features};
use crate::summary::{MarkerSummary, PhraseContribution};
use crate::topk::rank_cmp;
use opine_ir::{bm25_term_score, DocId};
use opine_store::exec::{BoundLeaf, Scope, Subjective, SubjectiveScorer};
use opine_store::{parse_select, FuzzyAlgebra, Residue, ReviewQualifier, StoreError};
use std::collections::BTreeSet;

/// The top-k reference over dense columns (`columns[leaf][entity]`):
/// score every entity through `residue` under `algebra`, sort by the
/// ranking order, truncate. What `topk::threshold_topk` and
/// `topk::scan_topk` must return, bit for bit.
pub fn full_scan_topk_dense<C: AsRef<[f64]>>(
    columns: &[C],
    residue: &Residue,
    algebra: FuzzyAlgebra,
    k: usize,
) -> Vec<(usize, f64)> {
    let Some(first) = columns.first() else {
        return Vec::new();
    };
    let mut combined: Vec<(usize, f64)> = (0..first.as_ref().len())
        .map(|e| (e, residue.score(algebra, &|leaf| columns[leaf].as_ref()[e])))
        .collect();
    combined.sort_by(rank_cmp);
    combined.truncate(k);
    combined
}

/// A borrowed, cache-free, row-at-a-time evaluator over an [`OpineDb`]
/// at one delta generation.
pub struct Reference<'a> {
    db: &'a OpineDb,
    /// The generation every read of this evaluator sees.
    pin: Pin,
    /// Score from raw occurrences instead of marker summaries.
    scan: bool,
    /// Bound for a `with reviews(…)` statement: the reviews it accepts.
    qualifier: Option<ReviewQualifier>,
}

impl OpineDb {
    /// The reference evaluator over this engine's data at the current
    /// pin: each statement it answers reads that generation.
    pub fn reference(&self) -> Reference<'_> {
        self.reference_at(self.pin())
    }

    /// The reference evaluator at `pin`.
    pub(crate) fn reference_at(&self, pin: Pin) -> Reference<'_> {
        Reference {
            db: self,
            pin,
            scan: false,
            qualifier: None,
        }
    }

    /// Recomputes all summaries over the subset of reviews accepted by
    /// `filter` — the paper's "only consider opinions of people who
    /// reviewed at least 10 hotels" / "reviews after 2010" queries, for
    /// *arbitrary* closures.
    ///
    /// This is the rescan oracle: every raw occurrence, base and pinned
    /// delta, is resolved from scratch through
    /// [`PhraseContribution::compute`] (marker cosines and all, never
    /// the engine's contribution table), O(total extractions × markers).
    /// Qualifiers expressible as year ranges + reviewer-degree
    /// thresholds are served by [`Self::summaries_qualified`]: the fold
    /// behind its feature rows ([`Self::summary_qualified`]) must equal
    /// these aggregates bit for bit, and its rows these summaries'
    /// rows.
    ///
    /// The rescan reads the current pin, taken once here. A count that
    /// `filter` looks up through another public read, such as
    /// [`Self::reviewer_review_count`], is read at the pin that read
    /// takes: the same one unless an `INSERT` lands meanwhile.
    pub fn summaries_with_review_filter(
        &self,
        filter: impl Fn(&ReviewMeta) -> bool,
    ) -> Vec<Vec<MarkerSummary>> {
        let pin = self.pin();
        (0..self.num_entities())
            .map(|entity| {
                (0..self.attributes.len())
                    .map(|attr| self.rescan_cell(entity, attr, &pin, &filter))
                    .collect()
            })
            .collect()
    }

    /// One cell of [`Self::summaries_with_review_filter`]: every
    /// occurrence at `pin` whose review `filter` accepts, resolved from
    /// scratch.
    fn rescan_cell(
        &self,
        entity: usize,
        attribute: usize,
        pin: &Pin,
        filter: impl Fn(&ReviewMeta) -> bool,
    ) -> MarkerSummary {
        let markers = self.marker_set(attribute);
        let variations = self.opinion_domain(attribute).variations();
        let mut summary = MarkerSummary::empty(markers.markers.len());
        for occ in self.occurrences_at(entity, attribute, pin) {
            opine_faults::checkpoint();
            if !filter(&self.review_meta_at(&pin.delta, occ.review_id)) {
                continue;
            }
            let variation = &variations[occ.variation as usize];
            summary.add(&PhraseContribution::compute(
                &variation.rep,
                variation.sentiment,
                markers,
                self.config.assign,
                self.config.unmatched_threshold,
            ));
        }
        summary
    }

    /// Degree of `attribute .= phrase` computed over externally supplied
    /// summaries (pairs with [`Self::summaries_with_review_filter`]):
    /// the one-entity route a qualified column
    /// ([`Self::degree_column_qualified`]) must equal bit for bit.
    pub fn attribute_degree_with_summaries(
        &self,
        summaries: &[Vec<MarkerSummary>],
        entity: usize,
        attribute: usize,
        phrase: &str,
    ) -> f64 {
        let term = self.prepare_term(attribute, phrase);
        self.summary_term_degree(&summaries[entity][attribute], &term)
    }
}

impl<'a> Reference<'a> {
    /// Scores from every raw extracted phrase through the scan
    /// membership model (Table 7's "no markers" arm). Raw occurrences
    /// carry no per-review summaries to qualify, so `with reviews(…)`
    /// statements are declined in this mode.
    pub fn scan(self) -> Self {
        Reference { scan: true, ..self }
    }

    /// [`OpineDb::query`], scored by this evaluator.
    pub fn query(&self, sql: &str) -> Result<QueryOutput, OpineError> {
        self.query_ref(sql).map(QueryOutput::from)
    }

    /// [`OpineDb::query_ref`], scored by this evaluator.
    pub fn query_ref(&self, sql: &str) -> Result<QueryRef<'a>, OpineError> {
        let select = parse_select(sql).map_err(|e| OpineError::Parse(e.to_string()))?;
        self.db
            .query_select_with(&select, &self.pin, self, FuzzyAlgebra::Product)
    }

    /// Degree of truth of a natural-language predicate for an entity.
    pub fn degree(&self, entity: usize, predicate: &str) -> f64 {
        let db = self.db;
        let algebra = FuzzyAlgebra::Product;
        match db.interpret(predicate) {
            Interpretation::Direct { attribute, .. } => {
                self.term_degree(entity, attribute, predicate)
            }
            Interpretation::CoOccur { terms, conjunctive } => {
                let degrees = terms.iter().map(|&(a, m)| {
                    self.term_degree(entity, a, &db.marker_set(a).markers[m].phrase)
                });
                if conjunctive {
                    degrees.fold(1.0, |acc, d| algebra.and(acc, d))
                } else {
                    degrees.fold(0.0, |acc, d| algebra.or(acc, d))
                }
            }
            Interpretation::TextFallback => self.text_degree(entity, predicate),
        }
    }

    /// The text fallback's degree, `sigmoid(BM25 − c)` of the
    /// concatenation of the entity's reviews at the pin, base and delta,
    /// that the statement's qualifier accepts, each review's length and
    /// term frequencies read on their own. Document frequency and mean
    /// length count one document per entity over every review at the
    /// pin, whatever the qualifier.
    fn text_degree(&self, entity: usize, predicate: &str) -> f64 {
        let (db, delta) = (self.db, &self.pin.delta);
        let index = db.interpreter().review_index();
        let qualifier = self.qualifier.as_ref();
        let own = |m: &ReviewMeta| {
            let count = db.reviewer_count_at(delta, m.reviewer_id);
            m.entity_id == entity && qualifier.is_none_or(|q| q.accepts(m.year, count))
        };
        let lens = (0..)
            .zip(&db.review_meta)
            .map(|(r, m)| (*m, index.doc_len(DocId(r))));
        let lens: Vec<(ReviewMeta, u32)> = lens.chain(delta.review_lengths()).collect();
        let total_len = lens.iter().map(|&(_, len)| u64::from(len)).sum();
        let doc_len = lens.iter().filter(|(m, _)| own(m)).map(|r| r.1).sum();
        let mut score = 0.0;
        for term in db.text_terms(predicate) {
            opine_faults::checkpoint();
            // Every review holding the term, with its frequency in it.
            let base = index.term_postings(term).iter();
            let base = base.map(|&(doc, tf)| (db.review_meta[doc.index()], tf));
            let holding: Vec<(ReviewMeta, u32)> = base.chain(delta.reviews_holding(term)).collect();
            let tf = holding.iter().filter(|(m, _)| own(m)).map(|r| r.1).sum();
            let df = holding
                .iter()
                .map(|(m, _)| m.entity_id)
                .collect::<BTreeSet<_>>();
            if tf > 0 {
                score += bm25_term_score(db.num_entities(), total_len, df.len(), tf, doc_len);
            }
        }
        sigmoid(score - db.config.sigmoid_c)
    }

    /// Degree of `attribute .= phrase` for an entity.
    fn term_degree(&self, entity: usize, attribute: usize, phrase: &str) -> f64 {
        let db = self.db;
        let mut rep = db.embedder().rep(phrase, db.vocab());
        opine_embed::normalize(&mut rep);
        let sentiment = db.sentiment().score(phrase);
        if self.scan {
            let phrases = db.raw_phrases_at(entity, attribute, &self.pin);
            return db
                .membership_scan()
                .degree(&scan_features(&phrases, &rep, sentiment));
        }
        // The cell rescanned at the pin, keeping the reviews the
        // statement's qualifier accepts under live reviewer counts.
        let pin = &self.pin;
        let summary = db.rescan_cell(entity, attribute, pin, |m| {
            let count = db.reviewer_count_at(&pin.delta, m.reviewer_id);
            self.qualifier.is_none_or(|q| q.accepts(m.year, count))
        });
        db.membership_markers().degree(&marker_features(
            &summary,
            db.marker_set(attribute),
            &rep,
            sentiment,
        ))
    }
}

impl SubjectiveScorer for Reference<'_> {
    /// Under a review qualifier the leaf rescans, per row and term, the
    /// occurrences whose review it accepts, and the fallback reads the
    /// reviews it accepts. Raw occurrences carry no summaries to
    /// qualify, so [`Self::scan`] declines a qualified leaf.
    fn bind<'s>(
        &'s self,
        scope: Scope<'_>,
        leaf: Subjective<'s>,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        let db = self.db;
        // A bad attribute fails whether or not a row reaches the leaf;
        // each row resolves it again, as it redoes everything else.
        if let Subjective::Match { attribute, .. } = leaf {
            db.match_attribute(attribute)?;
        }
        let qualified = match scope.qualifier {
            None => None,
            Some(q) if self.scan => return Err(StoreError::NoScorer(format!("with {q}"))),
            Some(q) => Some(Reference {
                qualifier: Some(q),
                ..db.reference_at(self.pin.clone())
            }),
        };
        Ok(BoundLeaf::by_key(move |key| {
            let reference = qualified.as_ref().unwrap_or(self);
            let entity = db.entity_of_value(key)?;
            Ok(match leaf {
                Subjective::Predicate(predicate) => reference.degree(entity, predicate),
                Subjective::Match { attribute, phrase } => {
                    let attribute = db.match_attribute(attribute)?;
                    reference.term_degree(entity, attribute, phrase)
                }
            })
        }))
    }
}
