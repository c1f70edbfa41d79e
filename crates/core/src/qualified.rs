//! Review-qualified feature planes: the paper's "only people who
//! reviewed at least 10 hotels" / "reviews after 2010" statements
//! (Sec. 2), `with reviews(…)` in Subjective SQL.
//!
//! A qualified summary is **one fold over the raw occurrences** of its
//! cell — the build-time ones and the pinned delta's — keeping those
//! whose review the qualifier accepts under live reviewer counts. Each
//! kept occurrence adds its variation's tabulated
//! `summary::PhraseContribution`: one table lookup and a few integer
//! adds, no marker cosine. Fixed-point accumulation makes the fold
//! bit-identical to the reference's rescan
//! ([`OpineDb::summaries_with_review_filter`] over
//! [`ReviewQualifier::accepts`]), which resolves every occurrence from
//! scratch and never reads the table.
//!
//! A [`QualifiedSet`] keeps no summary: a cold fold writes each cell's
//! feature row straight into a [`FeaturePlane`] of its own, the shape
//! of the build-time one, beside each entity's accepted text length.
//! Sets are cached per qualifier and stamped with the epoch they are
//! exact for. A newer pin **repairs** a set: the entities whose
//! qualified version moved fold again into rows held beside the shared
//! plane, found through a dense per-entity index. Those rows are
//! bounded: a repair that would leave more than `n / LANES`
//! entities with one folds the set cold instead. Without that bound a
//! long-lived set under inserts spread over many entities grows toward
//! a second plane of rows (a row costs what the plane spends on the
//! entity), and each of its columns toward `n` one-lane degrees on top
//! of the kernel; with it, the rows stay under an eighth of the plane
//! and the extra work under `n / 8` one-lane degrees per column.
//! Inserts confined to a hot set of fewer entities never reach it.
//!
//! A qualifier is an argument of the one scorer, not a scorer of its
//! own: `bind` and `rank_residue` receive it in the statement's `Scope`
//! and read a leaf's column through `OpineDb::leaf_column`, which
//! fills it from the set with the unqualified kernel
//! ([`FeaturePlane::term_column`], then `fold_columns` for a
//! co-occurrence leaf, and [`OpineDb::text_degrees`] over the set's
//! lengths for the text fallback). The column is the statement's own,
//! never cached or sorted, so a qualified residue always scans.

use crate::column::{fold_columns, FeaturePlane, PreparedInterpretation, PreparedTerm, LANES};
use crate::db::{Csr, OpineDb, ReviewMeta};
use crate::ingest::Pin;
use crate::membership::write_feature_row;
use crate::summary::MarkerSummary;
use opine_ir::DocId;
use opine_store::exec::Subjective;
use opine_store::{ReviewQualifier, StoreError};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// A review-qualified set at the epoch its cache entry is stamped
/// with: the feature plane of its cold fold, each entity's accepted
/// text length, and the rows of the entities repaired since.
#[derive(Debug, Clone)]
pub struct QualifiedSet {
    /// The cold fold's rows; shared by every repair of the set.
    plane: Arc<FeaturePlane>,
    /// Per entity: the in-vocabulary tokens of its accepted reviews.
    text_lens: Vec<u32>,
    /// Per entity: every attribute's row as a repair wrote it, laid end
    /// to end ([`FeaturePlane::row_range`]); empty until the first
    /// repair.
    repaired: Vec<Option<Arc<[f64]>>>,
    /// Entities with a repaired row.
    repaired_entities: usize,
}

impl QualifiedSet {
    /// The feature row of `(entity, attribute)` in
    /// [`crate::membership::feature_row`]'s layout: the row a repair
    /// wrote, else the plane's.
    pub fn feature_row(&self, entity: usize, attribute: usize) -> Vec<f64> {
        match self.repaired_row(entity, attribute) {
            Some(row) => row.to_vec(),
            None => self.plane.row(entity, attribute),
        }
    }

    /// The in-vocabulary tokens of the reviews of `entity` the
    /// qualifier accepts: its length as the text fallback's BM25 reads
    /// it.
    pub fn text_len(&self, entity: usize) -> u32 {
        self.text_lens[entity]
    }

    /// Entities whose rows a repair wrote beside the plane.
    pub fn repaired_entities(&self) -> usize {
        self.repaired_entities
    }

    /// Heap bytes: the plane and the lengths, then, once repaired, the
    /// per-entity index and the rows beside the plane.
    pub fn memory_bytes(&self) -> usize {
        let rows: usize = self
            .repaired
            .iter()
            .flatten()
            .map(|rows| std::mem::size_of_val(&rows[..]))
            .sum();
        self.plane.memory_bytes()
            + std::mem::size_of_val(&self.text_lens[..])
            + std::mem::size_of_val(&self.repaired[..])
            + rows
    }

    /// The row a repair wrote for `(entity, attribute)`, if any.
    #[inline]
    fn repaired_row(&self, entity: usize, attribute: usize) -> Option<&[f64]> {
        let rows = self.repaired.get(entity)?.as_deref()?;
        Some(&rows[self.plane.row_range(attribute)])
    }
}

impl OpineDb {
    /// The qualified set of a structured review qualifier at the current
    /// pin: its rows are those of the summaries
    /// [`Self::summaries_with_review_filter`] rescans over
    /// [`ReviewQualifier::accepts`], bit for bit.
    ///
    /// Sets are cached (bounded) by the qualifier's canonical rendering
    /// and stamped with the epoch they are exact for. A pin at that
    /// epoch costs a hash probe; a newer pin **repairs** the set: it
    /// shares the plane and every row but those of the entities whose
    /// qualified version moved past the stamp (their own inserts, or a
    /// review gained elsewhere by one of their reviewers), which fold
    /// again. A cold set folds every entity at the pin; a set from the
    /// pin's future is left alone and the pin folds a private one, as
    /// degree columns do.
    pub fn summaries_qualified(&self, qualifier: &ReviewQualifier) -> Arc<QualifiedSet> {
        self.summaries_qualified_at(qualifier, &self.pin())
    }

    /// [`Self::summaries_qualified`] at `pin`.
    pub(crate) fn summaries_qualified_at(
        &self,
        qualifier: &ReviewQualifier,
        pin: &Pin,
    ) -> Arc<QualifiedSet> {
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
    /// whose qualified version moved in `(stamp, pin.epoch]` fold again
    /// into rows beside the shared plane. When that would leave more
    /// than `n / LANES` entities with a row, the set folds cold (the
    /// bound on its rows the module doc sets out).
    fn repair_qualified(
        &self,
        qualifier: &ReviewQualifier,
        stamp: u64,
        mut set: Arc<QualifiedSet>,
        pin: &Pin,
        span: &opine_trace::SpanGuard,
    ) -> Arc<QualifiedSet> {
        let dirty = pin.delta.qualified_changed_since(stamp);
        if dirty.is_empty() {
            return set;
        }
        let n = self.num_entities();
        let fresh = dirty
            .iter()
            .filter(|&&entity| set.repaired.get(entity).is_none_or(Option::is_none))
            .count();
        if set.repaired_entities + fresh > n / LANES {
            self.qualified_refolds.fetch_add(1, Relaxed);
            span.count("refolds", 1);
            return Arc::new(self.fold_qualified(qualifier, pin));
        }
        self.qualified_repairs.fetch_add(1, Relaxed);
        self.qualified_repaired_entities
            .fetch_add(dirty.len() as u64, Relaxed);
        span.count("repairs", 1);
        span.count("repaired_entities", dirty.len() as u64);
        let accepts = self.review_accepts(qualifier, pin);
        let lens = self.repaired_text_lens(&accepts, pin, &dirty);
        let set_mut = Arc::make_mut(&mut set);
        set_mut.repaired.resize(n, None);
        for (&entity, len) in dirty.iter().zip(lens) {
            opine_faults::checkpoint();
            let rows = set_mut.plane.entity_rows(|attribute, row| {
                let summary = self.fold_accepted(entity, attribute, pin, &accepts);
                write_feature_row(&summary, summary.markers(), row);
            });
            if set_mut.repaired[entity].replace(rows.into()).is_none() {
                set_mut.repaired_entities += 1;
            }
            set_mut.text_lens[entity] = len;
        }
        set
    }

    /// The cold set: every cell folded at `pin` into a fresh plane.
    fn fold_qualified(&self, qualifier: &ReviewQualifier, pin: &Pin) -> QualifiedSet {
        opine_faults::fire_panic("summary_merge");
        let accepts = self.review_accepts(qualifier, pin);
        let n = self.num_entities();
        let plane =
            FeaturePlane::build(n, self.interpreter().marker_sets(), |entity, attribute| {
                self.fold_accepted(entity, attribute, pin, &accepts)
            });
        QualifiedSet {
            plane: Arc::new(plane),
            text_lens: self.accepted_text_lens(&accepts, pin),
            repaired: Vec::new(),
            repaired_entities: 0,
        }
    }

    /// Whether `qualifier` accepts a review at `pin`, under live
    /// reviewer counts.
    fn review_accepts<'a>(
        &'a self,
        qualifier: &'a ReviewQualifier,
        pin: &'a Pin,
    ) -> impl Fn(&ReviewMeta) -> bool + 'a {
        move |meta| {
            let count = self.reviewer_count_at(&pin.delta, meta.reviewer_id);
            qualifier.accepts(meta.year, count)
        }
    }

    /// The summary of one cell at `pin` over the occurrences whose
    /// review `accepts` keeps.
    fn fold_accepted(
        &self,
        entity: usize,
        attribute: usize,
        pin: &Pin,
        accepts: &impl Fn(&ReviewMeta) -> bool,
    ) -> MarkerSummary {
        self.fold_cell(entity, attribute, pin, |occ| {
            accepts(&self.review_meta_at(&pin.delta, occ.review_id))
        })
    }

    /// The accepted text length of every entity at `pin`: one pass over
    /// the base reviews, then one over the delta's.
    fn accepted_text_lens(&self, accepts: &impl Fn(&ReviewMeta) -> bool, pin: &Pin) -> Vec<u32> {
        let index = self.interpreter().review_index();
        let mut lens = vec![0u32; self.num_entities()];
        for (review, meta) in (0u32..).zip(&self.review_meta) {
            opine_faults::checkpoint();
            if accepts(meta) {
                lens[meta.entity_id] += index.doc_len(DocId(review));
            }
        }
        for (meta, len) in pin.delta.review_lengths() {
            opine_faults::checkpoint();
            if accepts(&meta) {
                lens[meta.entity_id] += len;
            }
        }
        lens
    }

    /// The accepted text length of each of `entities` (ascending, the
    /// few a repair refolds) at `pin`: its base reviews through the
    /// entity → review index, then one pass over the delta's.
    fn repaired_text_lens(
        &self,
        accepts: &impl Fn(&ReviewMeta) -> bool,
        pin: &Pin,
        entities: &[usize],
    ) -> Vec<u32> {
        let index = self.interpreter().review_index();
        let reviews = self.ingest.entity_reviews.get_or_init(|| {
            let metas = (0u32..).zip(&self.review_meta);
            Csr::group(self.num_entities(), metas.map(|(r, m)| (m.entity_id, r)))
        });
        let mut lens: Vec<u32> = entities
            .iter()
            .map(|&entity| {
                opine_faults::checkpoint();
                let accepted = reviews
                    .row(entity)
                    .iter()
                    .filter(|&&review| accepts(&self.review_meta[review as usize]));
                accepted.map(|&review| index.doc_len(DocId(review))).sum()
            })
            .collect();
        for (meta, len) in pin.delta.review_lengths() {
            opine_faults::checkpoint();
            if let Ok(at) = entities.binary_search(&meta.entity_id) {
                if accepts(&meta) {
                    lens[at] += len;
                }
            }
        }
        lens
    }

    /// The review-qualified summary of one cell at the current pin: the
    /// fold a qualified set writes the cell's row from.
    pub fn summary_qualified(
        &self,
        entity: usize,
        attribute: usize,
        qualifier: &ReviewQualifier,
    ) -> MarkerSummary {
        let pin = self.pin();
        let accepts = self.review_accepts(qualifier, &pin);
        self.fold_accepted(entity, attribute, &pin, &accepts)
    }

    /// The degree column of `predicate` at the current pin over the
    /// reviews `qualifier` accepts: the column a `with reviews(…)`
    /// statement's leaf reads.
    pub fn degree_column_qualified(
        &self,
        predicate: &str,
        qualifier: &ReviewQualifier,
    ) -> Vec<f64> {
        let leaf = Subjective::Predicate(predicate);
        self.qualified_column(leaf, qualifier, &self.pin())
            .expect("a predicate names no attribute")
    }

    /// The column of `leaf` at `pin` counting only the reviews
    /// `qualifier` accepts, from its qualified set: every membership
    /// term's [`FeaturePlane::term_column`], its repaired rows as
    /// overrides, co-occurrence terms folded slot by slot, and the text
    /// fallback from the set's accepted lengths (document frequency and
    /// mean length stay unqualified).
    pub(crate) fn qualified_column(
        &self,
        leaf: Subjective<'_>,
        qualifier: &ReviewQualifier,
        pin: &Pin,
    ) -> Result<Vec<f64>, StoreError> {
        let prepared = match leaf {
            Subjective::Predicate(predicate) => self.prepare_interpretation(predicate),
            Subjective::Match { attribute, phrase } => PreparedInterpretation::Direct(
                self.prepare_term(self.match_attribute(attribute)?, phrase),
            ),
        };
        let set = self.summaries_qualified_at(qualifier, pin);
        let model = &self.membership_markers;
        let term_column = |term: &PreparedTerm| {
            set.plane.term_column(term, model, |entity| {
                let row = set.repaired_row(entity, term.attribute)?;
                Some(term.row_degree(row, model))
            })
        };
        Ok(match &prepared {
            PreparedInterpretation::Direct(term) => term_column(term),
            PreparedInterpretation::CoOccur { terms, conjunctive } => {
                let columns: Vec<Vec<f64>> = terms.iter().map(|(_, t)| term_column(t)).collect();
                let columns: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
                fold_columns(*conjunctive, &columns, self.num_entities())
            }
            PreparedInterpretation::Text { terms } => {
                self.text_degrees(terms, pin, Some((qualifier, &set.text_lens)))
            }
        })
    }
}

/// Whether the row of `(entity, attribute)` in `set` has the bits of
/// `summary`'s: the set-level comparison of the crate's tests.
#[cfg(test)]
pub(crate) fn same_row(
    set: &QualifiedSet,
    entity: usize,
    attribute: usize,
    summary: &MarkerSummary,
) -> bool {
    let bits = |row: Vec<f64>| row.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    bits(set.feature_row(entity, attribute)) == bits(crate::membership::feature_row(summary))
}
