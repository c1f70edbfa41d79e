//! Review-qualified summaries: the paper's "only people who reviewed at
//! least 10 hotels" / "reviews after 2010" statements (Sec. 2), `with
//! reviews(…)` in Subjective SQL.
//!
//! A qualified summary is **one fold over the raw occurrences** of its
//! cell — the build-time ones and the pinned delta's — keeping those
//! whose review the qualifier accepts under live reviewer counts. Each
//! kept occurrence adds its variation's tabulated
//! `summary::PhraseContribution`: one table lookup and a few integer
//! adds, no marker cosine. Fixed-point
//! accumulation makes the fold bit-identical to the reference's rescan
//! ([`OpineDb::summaries_with_review_filter`] over
//! [`ReviewQualifier::accepts`]), which resolves every occurrence from
//! scratch and never reads the table.
//!
//! Sets are cached per qualifier and stamped with the epoch they are
//! exact for; a newer pin re-folds only the entities that changed.
//!
//! A qualifier is an argument of the one scorer, not a scorer of its
//! own: `bind` and `rank_residue` receive it in the statement's `Scope`
//! and read a leaf's degree through `OpineDb::qualified_degree`. The
//! kernel ranks over columns filled for that statement's candidates
//! only, never cached or sorted, so a qualified residue always scans.

use crate::column::PreparedInterpretation;
use crate::db::{OpineDb, PhraseOcc};
use crate::ingest::Pin;
use crate::summary::MarkerSummary;
use opine_store::exec::Subjective;
use opine_store::{ReviewQualifier, StoreError};
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
    /// [`ReviewQualifier::accepts`].
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
        self.summaries_qualified_at(qualifier, &self.pin())
    }

    /// [`Self::summaries_qualified`] at `pin`.
    pub(crate) fn summaries_qualified_at(
        &self,
        qualifier: &ReviewQualifier,
        pin: &Pin,
    ) -> QualifiedSummaries {
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

    /// The cold set: every entity folded at `pin`.
    fn fold_qualified(&self, qualifier: &ReviewQualifier, pin: &Pin) -> Vec<QualifiedRow> {
        opine_faults::fire_panic("summary_merge");
        (0..self.num_entities())
            .map(|entity| {
                opine_faults::checkpoint();
                self.requalify_row(entity, qualifier, pin)
            })
            .collect()
    }

    /// One entity's qualified summaries: per cell, the fold of its base
    /// and pinned-delta occurrences whose review `qualifier` accepts
    /// under live reviewer counts.
    fn requalify_row(&self, entity: usize, qualifier: &ReviewQualifier, pin: &Pin) -> QualifiedRow {
        let accepts = |occ: &PhraseOcc| {
            let meta = self.review_meta_at(&pin.delta, occ.review_id);
            qualifier.accepts(
                meta.year,
                self.reviewer_count_at(&pin.delta, meta.reviewer_id),
            )
        };
        Arc::new(
            (0..self.attributes.len())
                .map(|attr| self.fold_cell(entity, attr, pin, accepts))
                .collect(),
        )
    }

    /// The degree of `leaf` at `pin` as a function of the entity, counting
    /// only the reviews `qualifier` accepts: every membership term scores
    /// the entity's cell of [`Self::summaries_qualified`], and the text
    /// fallback (stage 3) reads the column [`Self::text_degrees`] scores
    /// once for the statement from the accepted reviews' postings
    /// (document frequency and mean length stay unqualified). `bind`
    /// reads it per row, the ranking kernel per candidate
    /// (`rank_top_k_filtered`).
    pub(crate) fn qualified_degree(
        &self,
        leaf: Subjective<'_>,
        qualifier: &ReviewQualifier,
        pin: &Pin,
    ) -> Result<impl Fn(usize) -> f64 + '_, StoreError> {
        let prepared = match leaf {
            Subjective::Predicate(predicate) => self.prepare_interpretation(predicate),
            Subjective::Match { attribute, phrase } => PreparedInterpretation::Direct(
                self.prepare_term(self.match_attribute(attribute)?, phrase),
            ),
        };
        let summaries = self.summaries_qualified_at(qualifier, pin);
        let text = match &prepared {
            PreparedInterpretation::Text { terms } => {
                self.text_degrees(terms, pin, Some(qualifier))
            }
            _ => Vec::new(),
        };
        Ok(move |entity: usize| {
            prepared
                .combine(|term| self.summary_term_degree(&summaries[entity][term.attribute], term))
                .unwrap_or_else(|| text[entity])
        })
    }
}
