//! Review-qualified summaries: the paper's "only people who reviewed at
//! least 10 hotels" / "reviews after 2010" statements (Sec. 2), `with
//! reviews(…)` in Subjective SQL.
//!
//! A qualified summary is **one fold over the raw occurrences** of its
//! cell — the build-time ones and the pinned delta's — keeping those
//! whose review the qualifier accepts under live reviewer counts. Each
//! kept occurrence adds its variation's tabulated `summary::Assignment`
//! scaled by its sentiment: two table lookups and a few integer adds,
//! no marker cosine. Fixed-point
//! accumulation makes the fold bit-identical to the reference's rescan
//! ([`OpineDb::summaries_with_review_filter`] over
//! [`ReviewQualifier::accepts`]), which resolves every occurrence from
//! scratch and never reads the table.
//!
//! Sets are cached per qualifier and stamped with the epoch they are
//! exact for; a newer pin re-folds only the entities that changed.

use crate::db::OpineDb;
use crate::ingest::Pin;
use crate::par;
use crate::summary::MarkerSummary;
use opine_store::ast::ColumnRef;
use opine_store::exec::{BoundLeaf, SubjectiveScorer};
use opine_store::{ReviewQualifier, StoreError, Table};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// One entity's review-qualified summaries, one per attribute. Shared
/// between the generations of a cached set: a repair replaces only the
/// rows of the entities that changed.
pub type QualifiedRow = Arc<Vec<MarkerSummary>>;

/// A review-qualified summary set: `set[entity][attribute]`.
pub type QualifiedSummaries = Arc<Vec<QualifiedRow>>;

impl OpineDb {
    /// The summaries of a structured review qualifier at the current
    /// pin, bit-identical to [`Self::summaries_with_review_filter`] over
    /// [`ReviewQualifier::accepts`] (modulo provenance, which the fold
    /// does not record).
    ///
    /// Sets are cached (bounded) by the qualifier's canonical rendering
    /// and stamped with the epoch they are exact for. A pin at that
    /// epoch costs a hash probe; a newer pin **repairs** the set: it
    /// shares every row but those of the entities whose qualified
    /// version moved past the stamp (their own inserts, or a review
    /// gained elsewhere by one of their reviewers), which fold again. A
    /// cold set folds every entity at the pin; a set from the pin's
    /// future is left alone and the pin folds a private one, as degree
    /// columns do.
    pub fn summaries_qualified(&self, qualifier: &ReviewQualifier) -> QualifiedSummaries {
        self.ensure_pinned(|pin| {
            let key = qualifier.to_string();
            let found = self.filtered_cache.get(&key);
            let missed = found.is_none();
            if !missed {
                opine_trace::count("summary_merge", "cache_hits", 1);
            }
            let (stale, cacheable) = match found {
                Some((stamp, set)) if stamp == pin.epoch => return set,
                // A set from this pin's future keeps its stamp.
                Some((stamp, _)) if stamp > pin.epoch => (None, false),
                older => (older, true),
            };
            let span = opine_trace::span("summary_merge");
            let set = match stale {
                Some((stamp, set)) => self.repair_qualified(qualifier, stamp, set, pin, &span),
                None => {
                    if missed {
                        span.count("cache_misses", 1);
                    }
                    Arc::new(self.fold_qualified(qualifier, pin))
                }
            };
            drop(span);
            if cacheable {
                self.filtered_cache.insert(&key, (pin.epoch, set.clone()));
            }
            set
        })
    }

    /// Brings `set`, exact for epoch `stamp`, to `pin`: the entities
    /// whose qualified version moved in `(stamp, pin.epoch]` fold again,
    /// every other row is shared.
    fn repair_qualified(
        &self,
        qualifier: &ReviewQualifier,
        stamp: u64,
        mut set: QualifiedSummaries,
        pin: &Pin,
        span: &opine_trace::SpanGuard,
    ) -> QualifiedSummaries {
        let dirty = pin.delta.qualified_changed_since(stamp);
        if dirty.is_empty() {
            return set;
        }
        self.qualified_repairs.fetch_add(1, Relaxed);
        self.qualified_repaired_entities
            .fetch_add(dirty.len() as u64, Relaxed);
        span.count("repairs", 1);
        span.count("repaired_entities", dirty.len() as u64);
        let rows = Arc::make_mut(&mut set);
        for entity in dirty {
            opine_faults::checkpoint();
            rows[entity] = self.requalify_row(entity, qualifier, pin);
        }
        set
    }

    /// The cold set: every entity folded at `pin`, parallel over entity
    /// chunks.
    fn fold_qualified(&self, qualifier: &ReviewQualifier, pin: &Pin) -> Vec<QualifiedRow> {
        opine_faults::fire_panic("summary_merge");
        par::par_map(self.num_entities(), |entity| {
            opine_faults::checkpoint();
            self.requalify_row(entity, qualifier, pin)
        })
    }

    fn requalify_row(&self, entity: usize, qualifier: &ReviewQualifier, pin: &Pin) -> QualifiedRow {
        Arc::new(
            (0..self.attributes.len())
                .map(|attr| self.requalify_cell(entity, attr, qualifier, pin))
                .collect(),
        )
    }

    /// The qualified summary of one cell: the fold of its base and
    /// pinned-delta occurrences whose review `qualifier` accepts under
    /// live reviewer counts.
    fn requalify_cell(
        &self,
        entity: usize,
        attr: usize,
        qualifier: &ReviewQualifier,
        pin: &Pin,
    ) -> MarkerSummary {
        let assignments = &self.assignments[attr];
        let mut out = MarkerSummary::empty(self.marker_set(attr).markers.len());
        for occ in self.occurrences_at(entity, attr, pin) {
            opine_faults::checkpoint();
            let meta = self.review_meta_at(&pin.delta, occ.review_id);
            let count = self.reviewer_count_at(&pin.delta, meta.reviewer_id);
            if qualifier.accepts(meta.year, count) {
                out.add_assigned(&assignments[occ.variation], occ.sentiment);
            }
        }
        out
    }
}

/// A scorer view over one review qualifier's summaries: every
/// subjective degree is computed from the qualified summaries through
/// the membership kernel's generic-summary arm, so only qualifying
/// reviews count. Interpretations, prepared phrases, and the membership
/// model are shared with the engine; the unqualified degree columns are
/// bypassed (their entries assume all reviews).
///
/// The executor obtains one per qualified statement via
/// [`SubjectiveScorer::qualified_scorer`]. It deliberately declines the
/// ranking kernel (`rank_residue` default): qualified statements score
/// row-at-a-time over the qualified summaries.
pub struct QualifiedScorer<'a> {
    db: &'a OpineDb,
    summaries: QualifiedSummaries,
    /// The delta generation the statement pinned (the text fallback
    /// reads its merged text index).
    pin: Pin,
}

impl<'a> QualifiedScorer<'a> {
    pub(crate) fn new(db: &'a OpineDb, qualifier: &ReviewQualifier) -> Self {
        QualifiedScorer {
            db,
            summaries: db.summaries_qualified(qualifier),
            pin: db.pinned(),
        }
    }
}

impl SubjectiveScorer for QualifiedScorer<'_> {
    /// The text-retrieval fallback (stage 3) scores the entity's full
    /// review document — BM25 has no per-review summary to filter — so
    /// it is the one stage a qualifier cannot scope.
    fn bind_predicate<'s>(
        &'s self,
        base: &Table,
        predicate: &'s str,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        let db = self.db;
        let prepared = db.prepare_interpretation(predicate);
        Ok(db.entity_leaf(base, move |entity| {
            prepared.combine(
                |term| db.summary_term_degree(&self.summaries[entity][term.attribute], term),
                |terms| db.text_degree_terms(entity, terms, &self.pin),
            )
        }))
    }

    fn bind_match<'s>(
        &'s self,
        base: &Table,
        attribute: &'s ColumnRef,
        phrase: &'s str,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        let db = self.db;
        let term = db.prepare_term(db.match_attribute(attribute)?, phrase);
        Ok(db.entity_leaf(base, move |entity| {
            db.summary_term_degree(&self.summaries[entity][term.attribute], &term)
        }))
    }
}
