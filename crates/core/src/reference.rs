//! The reference evaluator: the paper's semantics as one slow function
//! of a statement and a data epoch.
//!
//! [`OpineDb::reference`] borrows the engine and scores row at a time
//! through the *unsplit* specification functions the builder trains
//! with — [`marker_features`] (or [`scan_features`] after
//! [`Reference::scan`], Table 7's "no markers" arm) and
//! [`crate::MembershipModel::degree`], the point BM25 plus the pinned
//! delta text for the fallback, and the raw rescan
//! ([`OpineDb::summaries_with_review_filter`]) for `with reviews(…)` —
//! under the same pin as every other read. Its bound leaves hoist
//! nothing out of the row loop (each row interprets, embeds and scores
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

use crate::db::{OpineDb, OpineError, QueryOutput, QueryRef, ReviewMeta};
use crate::ingest::Pin;
use crate::interpret::Interpretation;
use crate::membership::{marker_features, scan_features};
use crate::summary::{MarkerSummary, PhraseContribution};
use crate::topk::rank_cmp;
use opine_store::ast::ColumnRef;
use opine_store::exec::{BoundLeaf, SubjectiveScorer};
use opine_store::{parse_select, FuzzyAlgebra, Residue, ReviewQualifier, StoreError, Table};
use std::borrow::{Borrow, Cow};

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

/// A borrowed, cache-free, row-at-a-time evaluator over an [`OpineDb`].
pub struct Reference<'a> {
    db: &'a OpineDb,
    /// Score from raw occurrences instead of marker summaries.
    scan: bool,
    /// Inside a `with reviews(…)` statement: the summaries of the raw
    /// rescan under the statement's qualifier.
    qualified: Option<Vec<Vec<MarkerSummary>>>,
}

impl OpineDb {
    /// The reference evaluator over this engine's data.
    pub fn reference(&self) -> Reference<'_> {
        Reference {
            db: self,
            scan: false,
            qualified: None,
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
    /// the engine's assignment table), O(total extractions × markers).
    /// Qualifiers expressible as year ranges + reviewer-degree
    /// thresholds are served by [`Self::summaries_qualified`], whose
    /// aggregates must equal these bit for bit.
    pub fn summaries_with_review_filter<F>(&self, filter: F) -> Vec<Vec<MarkerSummary>>
    where
        F: Fn(&ReviewMeta) -> bool,
    {
        self.ensure_pinned(|pin| {
            let mut out: Vec<Vec<MarkerSummary>> = Vec::with_capacity(self.num_entities());
            for entity in 0..self.num_entities() {
                let mut row = Vec::with_capacity(self.attributes.len());
                for attr in 0..self.attributes.len() {
                    let markers = self.marker_set(attr);
                    let variations = self.opinion_domain(attr).variations();
                    let mut summary = MarkerSummary::empty(markers.markers.len());
                    for occ in self.occurrences_at(entity, attr, pin) {
                        opine_faults::checkpoint();
                        if !filter(&self.review_meta_at(&pin.delta, occ.review_id)) {
                            continue;
                        }
                        let variation = &variations[occ.variation];
                        let contribution = PhraseContribution::compute(
                            &variation.phrase,
                            &variation.rep,
                            occ.sentiment,
                            markers,
                            self.config.assign,
                            self.config.unmatched_threshold,
                            occ.review_id,
                        );
                        summary.apply(&contribution, true);
                    }
                    row.push(summary);
                }
                out.push(row);
            }
            out
        })
    }

    /// Degree of `attribute .= phrase` computed over externally supplied
    /// summaries (pairs with [`Self::summaries_with_review_filter`]).
    /// Rows may be owned (`Vec<Vec<MarkerSummary>>`, the rescan's) or
    /// shared ([`crate::QualifiedSummaries`]).
    pub fn attribute_degree_with_summaries<R: Borrow<Vec<MarkerSummary>>>(
        &self,
        summaries: &[R],
        entity: usize,
        attribute: usize,
        phrase: &str,
    ) -> f64 {
        let term = self.prepare_term(attribute, phrase);
        self.summary_term_degree(&summaries[entity].borrow()[attribute], &term)
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

    /// Degree of truth of a natural-language predicate for an entity.
    pub fn degree(&self, entity: usize, predicate: &str) -> f64 {
        self.db
            .ensure_pinned(|pin| self.predicate_degree(entity, predicate, pin))
    }

    /// [`OpineDb::query`], scored by this evaluator.
    pub fn query(&self, sql: &str) -> Result<QueryOutput, OpineError> {
        self.query_ref(sql).map(QueryOutput::from)
    }

    /// [`OpineDb::query_ref`], scored by this evaluator.
    pub fn query_ref(&self, sql: &str) -> Result<QueryRef<'a>, OpineError> {
        let select = parse_select(sql).map_err(|e| OpineError::Parse(e.to_string()))?;
        self.db
            .query_select_with(&select, self, FuzzyAlgebra::Product)
    }

    fn predicate_degree(&self, entity: usize, predicate: &str, pin: &Pin) -> f64 {
        let db = self.db;
        let algebra = FuzzyAlgebra::Product;
        match db.interpret(predicate) {
            Interpretation::Direct { attribute, .. } => {
                self.term_degree(entity, attribute, predicate, pin)
            }
            Interpretation::CoOccur { terms, conjunctive } => {
                let degrees = terms.iter().map(|&(a, m)| {
                    self.term_degree(entity, a, &db.marker_set(a).markers[m].phrase, pin)
                });
                if conjunctive {
                    degrees.fold(1.0, |acc, d| algebra.and(acc, d))
                } else {
                    degrees.fold(0.0, |acc, d| algebra.or(acc, d))
                }
            }
            Interpretation::TextFallback => {
                db.text_degree_terms(entity, &db.text_terms(predicate), pin)
            }
        }
    }

    /// Degree of `attribute .= phrase` for an entity.
    fn term_degree(&self, entity: usize, attribute: usize, phrase: &str, pin: &Pin) -> f64 {
        let db = self.db;
        let mut rep = db.embedder().rep(phrase, db.vocab());
        opine_embed::normalize(&mut rep);
        let sentiment = db.sentiment().score(phrase);
        if self.scan {
            let variations = db.opinion_domain(attribute).variations();
            let phrases: Vec<(&[f32], f64)> = db
                .occurrences_at(entity, attribute, pin)
                .map(|occ| (variations[occ.variation].rep.as_slice(), occ.sentiment))
                .collect();
            return db
                .membership_scan()
                .degree(&scan_features(&phrases, &rep, sentiment));
        }
        let summary = self.summary(entity, attribute, pin);
        db.membership_markers().degree(&marker_features(
            &summary,
            db.marker_set(attribute),
            &rep,
            sentiment,
        ))
    }

    /// The summary of one cell at `pin`: the rescan's inside a qualified
    /// statement, else the build-time summary merged with the pinned
    /// delta's.
    fn summary(&self, entity: usize, attribute: usize, pin: &Pin) -> Cow<'_, MarkerSummary> {
        if let Some(set) = &self.qualified {
            return Cow::Borrowed(&set[entity][attribute]);
        }
        let base = &self.db.summaries[entity][attribute];
        match pin.delta.summary(entity, attribute) {
            None => Cow::Borrowed(base),
            Some(delta) => {
                let mut merged = MarkerSummary::empty(base.num_markers());
                merged.merge_aggregates(base);
                merged.merge_aggregates(delta);
                Cow::Owned(merged)
            }
        }
    }
}

impl SubjectiveScorer for Reference<'_> {
    fn bind_predicate<'s>(
        &'s self,
        _base: &Table,
        predicate: &'s str,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        Ok(BoundLeaf::by_key(move |key| {
            Ok(self.degree(self.db.entity_of_value(key)?, predicate))
        }))
    }

    fn bind_match<'s>(
        &'s self,
        _base: &Table,
        attribute: &'s ColumnRef,
        phrase: &'s str,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        let db = self.db;
        let attr = db.match_attribute(attribute)?;
        Ok(BoundLeaf::by_key(move |key| {
            let entity = db.entity_of_value(key)?;
            Ok(db.ensure_pinned(|pin| self.term_degree(entity, attr, phrase, pin)))
        }))
    }

    fn qualified_scorer<'s>(
        &'s self,
        qualifier: &ReviewQualifier,
    ) -> Option<Box<dyn SubjectiveScorer + 's>> {
        if self.scan {
            return None;
        }
        let db = self.db;
        let rescan = db.summaries_with_review_filter(|m| {
            qualifier.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
        });
        Some(Box::new(Reference {
            db,
            scan: false,
            qualified: Some(rescan),
        }))
    }
}
