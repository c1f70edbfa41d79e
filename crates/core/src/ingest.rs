//! Live ingest: the mutable delta segment behind snapshot-isolated reads,
//! and the writer that grows it.
//!
//! A built [`crate::OpineDb`] is immutable — its relational tables,
//! summaries, and indexes are frozen artifacts. Reviews
//! inserted at serve time land in a [`DeltaState`]: a copy-on-write
//! value published through a [`crate::snapshot::SnapshotCell`], so every
//! query pins exactly one delta generation for its whole execution (the
//! thread-local [`Pin`]) and a half-applied `INSERT` batch is never
//! observable.
//!
//! The **model plane stays frozen**: vocabulary, embeddings, sentiment,
//! interpreter, membership functions, and marker sets are fixed at
//! build time. The delta only moves the **data plane** — relational
//! rows (a [`TableOverlay`]), per-entity/per-reviewer counts, marker
//! summaries (phrase occurrences are extracted at insert time by exact
//! token matching against the frozen opinion domains), and per-entity
//! term frequencies of the merged review text. Near-real-time semantics
//! follow Lucene's: summary/count effects are visible at the very next
//! epoch, text-retrieval (BM25) effects become visible at the next delta
//! merge.
//!
//! ## Cost shape
//!
//! A generation is **entity-major and shared structurally** with its
//! predecessor: one `Arc<EntityDelta>` row per touched entity behind a
//! two-level spine, review metadata in sealed chunks plus a tail,
//! reviewer counts in fixed copy-on-write shards. Publishing a batch
//! copies the spine and the rows, chunks and shards the batch touches —
//! never the rest — and a merge folds only the reviews since the last
//! merge. Readers bring an artifact stamped at epoch *s* to a pin at
//! epoch *e* by asking [`DeltaState::changed_since`] which entities
//! moved in (*s*, *e*].

use crate::db::{OpineDb, OpineError, PhraseOcc, ReviewMeta};
use crate::domain::LinguisticDomain;
use crate::snapshot::SnapshotCell;
use crate::summary::{Assignment, MarkerSummary};
use opine_ir::bm25_term_score;
use opine_store::{parse_insert, InsertStmt, StoreError, TableOverlay, Value};
use opine_text::{Vocab, WordId};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, OnceLock};

/// Default number of unsealed delta reviews that triggers a merge.
pub const DEFAULT_MERGE_THRESHOLD: usize = 64;

/// Entity rows per spine chunk: a publish copies one chunk of this many
/// pointers per chunk it touches.
const SPINE_CHUNK: usize = 64;

/// Reviews per sealed chunk of the review log; the unsealed tail a
/// publish copies is shorter than this.
const LOG_CHUNK: usize = 256;

/// Shards of the delta reviewer map; a publish copies the shards of the
/// batch's reviewers.
const REVIEWER_SHARDS: usize = 256;

/// "No earlier review" in the per-reviewer chain through the log.
const NO_REVIEW: u32 = u32::MAX;

/// The delta phrase occurrences of one `(entity, attribute)` cell and
/// the marker summary over all of them, maintained at insert time so the
/// unqualified read path is one merge away.
#[derive(Debug, Clone)]
pub(crate) struct DeltaCell {
    /// Every delta occurrence, in insert order.
    pub occs: Vec<PhraseOcc>,
    /// Marker summary over `occs`.
    pub summary: MarkerSummary,
}

/// Everything the delta holds about one entity. Immutable once
/// published; a batch that touches the entity publishes a copy, which
/// still shares the cells the batch did not mention and (an insert's
/// copy) the merged term frequencies.
#[derive(Debug, Clone, Default)]
pub(crate) struct EntityDelta {
    /// Delta reviews of the entity.
    pub reviews: u32,
    /// Per attribute, `None` until a delta review mentions it.
    cells: Vec<Option<Arc<DeltaCell>>>,
    /// Text of the reviews inserted since the last merge, which folds
    /// it into `term_freqs` and clears it.
    unsealed_text: String,
    /// Term frequencies of the merged delta text, ascending by word.
    term_freqs: Arc<[(WordId, u32)]>,
    /// In-vocabulary tokens of the merged delta text.
    text_len: u32,
}

/// One chunk of the entity spine: the rows and, beside them, the two
/// version stamps of each entity — in the chunk, not the row, so a
/// reader checks freshness without touching the row and a writer that
/// only re-qualifies an entity copies no row.
#[derive(Debug, Clone)]
struct SpineChunk {
    /// Per entity, the epoch of the last published change to anything
    /// that feeds its degrees (summaries at insert, text at merge).
    /// Epoch-stamped cache entries compare against this to stay
    /// precise: an entity untouched since an entry was stamped never
    /// invalidates it.
    versions: [u64; SPINE_CHUNK],
    /// Per entity, the epoch of the last change to what a
    /// review-qualified summary of it aggregates: its own inserts, and
    /// a review gained elsewhere by any author of one of its reviews
    /// (live reviewer counts move those reviews across
    /// `reviewer_min_count` thresholds). Text merges do not move it.
    qualified_versions: [u64; SPINE_CHUNK],
    /// The newest stamp of each kind in the chunk, so
    /// [`DeltaState::changed_since`] skips chunks nothing moved in.
    max_version: u64,
    max_qualified_version: u64,
    /// `None` until a delta review of the entity arrives.
    rows: [Option<Arc<EntityDelta>>; SPINE_CHUNK],
}

impl Default for SpineChunk {
    fn default() -> Self {
        SpineChunk {
            versions: [0; SPINE_CHUNK],
            qualified_versions: [0; SPINE_CHUNK],
            max_version: 0,
            max_qualified_version: 0,
            rows: std::array::from_fn(|_| None),
        }
    }
}

/// One delta review in the log: its metadata and the previous delta
/// review by the same reviewer, so "which entities did this reviewer
/// touch" is a walk through the append-only log instead of a growing
/// per-reviewer list.
#[derive(Debug, Clone, Copy)]
struct LoggedReview {
    meta: ReviewMeta,
    previous_by_reviewer: u32,
}

/// The append-only log of delta reviews: full chunks are sealed and
/// shared between generations, only the tail is copied.
#[derive(Debug, Clone, Default)]
struct ReviewLog {
    sealed: Vec<Arc<Vec<LoggedReview>>>,
    tail: Vec<LoggedReview>,
}

impl ReviewLog {
    fn len(&self) -> usize {
        self.sealed.len() * LOG_CHUNK + self.tail.len()
    }

    fn get(&self, i: usize) -> LoggedReview {
        match self.sealed.get(i / LOG_CHUNK) {
            Some(chunk) => chunk[i % LOG_CHUNK],
            None => self.tail[i % LOG_CHUNK],
        }
    }

    fn push(&mut self, review: LoggedReview) {
        self.tail.push(review);
        if self.tail.len() == LOG_CHUNK {
            self.sealed.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }
}

/// A reviewer's delta side: reviews written and the newest of them (the
/// head of the chain through the log).
#[derive(Debug, Clone, Copy)]
struct ReviewerDelta {
    count: u32,
    last_review: u32,
}

/// Corpus statistics of the merged delta text, the shared half of its
/// BM25 scores (the per-entity half is [`EntityDelta::term_freqs`]).
#[derive(Debug, Clone, Default)]
struct DeltaText {
    /// Entities whose merged delta text contains the word.
    doc_freqs: HashMap<WordId, u32>,
    /// In-vocabulary tokens over all merged delta text.
    total_len: u64,
}

/// Mutable access to a node of a generation under construction, copying
/// the node first when a published generation still shares it.
fn cow<'a, T: Clone>(node: &'a mut Arc<T>, copied: &mut u64) -> &'a mut T {
    if Arc::get_mut(node).is_none() {
        *copied += 1;
    }
    Arc::make_mut(node)
}

/// One immutable delta generation. Published wholesale through the
/// ingest [`SnapshotCell`]; never mutated in place after publication.
/// `Clone` copies the spines only — rows, chunks and shards stay shared
/// until a writer touches them.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaState {
    /// Relational rows appended to the catalog's `reviews` table.
    pub overlay: TableOverlay,
    /// Entity rows, `SPINE_CHUNK` to a chunk; empty until the first
    /// insert, so every accessor of an empty delta is one `Vec::get`.
    spine: Vec<Option<Arc<SpineChunk>>>,
    /// Every delta review; the review with delta index `i` has global id
    /// `base_review_count + i`.
    log: ReviewLog,
    /// Reviewer id → delta side, sharded by `id % REVIEWER_SHARDS`.
    reviewers: Vec<Arc<HashMap<usize, ReviewerDelta>>>,
    /// Statistics of the merged delta text.
    text: Arc<DeltaText>,
    /// Anonymous reviewer ids handed out so far (see
    /// [`Self::draw_anonymous_reviewer`]).
    anonymous_drawn: usize,
    /// Delta reviews whose text the last merge folded in.
    pub merged_reviews: usize,
    /// Delta reviews inserted since the last merge — drives the merge
    /// threshold.
    pub unsealed_reviews: usize,
}

impl DeltaState {
    /// Delta reviews in this generation.
    pub fn reviews(&self) -> usize {
        self.log.len()
    }

    fn chunk(&self, entity: usize) -> Option<&SpineChunk> {
        self.spine.get(entity / SPINE_CHUNK)?.as_deref()
    }

    fn row(&self, entity: usize) -> Option<&EntityDelta> {
        self.chunk(entity)?.rows[entity % SPINE_CHUNK].as_deref()
    }

    /// The delta occurrences and summary of one cell, if any delta
    /// review mentioned it.
    #[inline]
    pub fn cell(&self, entity: usize, attribute: usize) -> Option<&DeltaCell> {
        self.row(entity)?.cells.get(attribute)?.as_deref()
    }

    /// The marker summary over the delta occurrences of one cell.
    #[inline]
    pub fn summary(&self, entity: usize, attribute: usize) -> Option<&MarkerSummary> {
        self.cell(entity, attribute).map(|cell| &cell.summary)
    }

    /// Delta reviews of `entity`.
    #[inline]
    pub fn entity_reviews(&self, entity: usize) -> u32 {
        self.row(entity).map_or(0, |row| row.reviews)
    }

    /// Entities whose degrees changed after epoch `stamp`, ascending.
    pub fn changed_since(&self, stamp: u64) -> Vec<usize> {
        self.moved_since(stamp, |chunk| (chunk.max_version, &chunk.versions))
    }

    /// Entities whose review-qualified summaries changed after epoch
    /// `stamp`, ascending.
    pub fn qualified_changed_since(&self, stamp: u64) -> Vec<usize> {
        self.moved_since(stamp, |chunk| {
            (chunk.max_qualified_version, &chunk.qualified_versions)
        })
    }

    fn moved_since(
        &self,
        stamp: u64,
        stamps: impl Fn(&SpineChunk) -> (u64, &[u64; SPINE_CHUNK]),
    ) -> Vec<usize> {
        let mut moved = Vec::new();
        for (c, chunk) in self.spine.iter().enumerate() {
            opine_faults::checkpoint();
            let Some((newest, versions)) = chunk.as_deref().map(&stamps) else {
                continue;
            };
            if newest > stamp {
                moved.extend(
                    (0..SPINE_CHUNK)
                        .filter(|&r| versions[r] > stamp)
                        .map(|r| c * SPINE_CHUNK + r),
                );
            }
        }
        moved
    }

    /// Every touched entity's row, ascending by entity.
    fn rows(&self) -> impl Iterator<Item = (usize, &EntityDelta)> + '_ {
        self.spine.iter().enumerate().flat_map(|(c, chunk)| {
            chunk.iter().flat_map(move |chunk| {
                chunk
                    .rows
                    .iter()
                    .enumerate()
                    .filter_map(move |(r, row)| Some((c * SPINE_CHUNK + r, row.as_deref()?)))
            })
        })
    }

    /// Metadata of the delta review with delta index `i`.
    #[inline]
    pub fn review_meta(&self, i: usize) -> ReviewMeta {
        self.log.get(i).meta
    }

    fn reviewer(&self, reviewer_id: usize) -> Option<ReviewerDelta> {
        self.reviewers
            .get(reviewer_id % REVIEWER_SHARDS)?
            .get(&reviewer_id)
            .copied()
    }

    /// Delta reviews written by `reviewer_id`.
    #[inline]
    pub fn reviewer_count(&self, reviewer_id: usize) -> u32 {
        self.reviewer(reviewer_id)
            .map_or(0, |reviewer| reviewer.count)
    }

    /// The entities of `reviewer_id`'s delta reviews, newest first
    /// (repeats possible).
    fn reviewer_entities(&self, reviewer_id: usize) -> Vec<usize> {
        let mut entities = Vec::new();
        let mut next = self
            .reviewer(reviewer_id)
            .map_or(NO_REVIEW, |reviewer| reviewer.last_review);
        while next != NO_REVIEW {
            opine_faults::checkpoint();
            let review = self.log.get(next as usize);
            entities.push(review.meta.entity_id);
            next = review.previous_by_reviewer;
        }
        entities
    }

    /// BM25 score of one query term against `row`'s merged delta text,
    /// the statistics being those of an index with one document per
    /// entity: bit-identical to `InvertedIndex::bm25` over such an
    /// index, whose scoring function this calls.
    fn term_score(&self, row: &EntityDelta, term: WordId, num_entities: usize) -> Option<f64> {
        let i = row
            .term_freqs
            .binary_search_by_key(&term, |&(word, _)| word)
            .ok()?;
        Some(bm25_term_score(
            num_entities,
            self.text.total_len,
            self.text.doc_freqs.get(&term).copied().unwrap_or(0) as usize,
            row.term_freqs[i].1,
            row.text_len,
        ))
    }

    /// BM25 of `entity`'s merged delta text for `terms` — `None` until a
    /// merge has folded any text (delta text becomes retrievable at the
    /// next merge, not the next epoch).
    pub fn text_score(&self, entity: usize, terms: &[WordId], num_entities: usize) -> Option<f64> {
        (self.merged_reviews > 0).then(|| {
            let row = self.row(entity);
            terms
                .iter()
                .map(|&term| {
                    row.and_then(|row| self.term_score(row, term, num_entities))
                        .unwrap_or(0.0)
                })
                .sum()
        })
    }

    /// Adds every entity's merged-text BM25 for `terms` to its slot of
    /// `scores` — the dense twin of [`Self::text_score`], accumulating
    /// per entity in query-term order like `InvertedIndex::bm25_dense`.
    pub fn add_text_scores(&self, terms: &[WordId], scores: &mut [f64]) {
        if self.merged_reviews == 0 {
            return;
        }
        for (entity, row) in self.rows() {
            opine_faults::checkpoint();
            if row.term_freqs.is_empty() {
                continue;
            }
            let score = terms
                .iter()
                .filter_map(|&term| self.term_score(row, term, scores.len()))
                .fold(0.0, |sum, score| sum + score);
            scores[entity] += score;
        }
    }

    /// Approximate heap bytes of the generation (shared nodes counted
    /// once; they are shared with older generations, not within one).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        // An overlay row: five values and the key text, rounded.
        const OVERLAY_ROW_BYTES: usize = 192;
        let rows: usize = self
            .rows()
            .map(|(_, row)| {
                let cells: usize = row
                    .cells
                    .iter()
                    .flatten()
                    .map(|cell| {
                        size_of::<DeltaCell>()
                            + cell.occs.capacity() * size_of::<PhraseOcc>()
                            + cell.summary.accumulator_bytes()
                    })
                    .sum();
                size_of::<EntityDelta>()
                    + row.cells.capacity() * size_of::<Option<Arc<DeltaCell>>>()
                    + cells
                    + row.unsealed_text.capacity()
                    + row.term_freqs.len() * size_of::<(WordId, u32)>()
            })
            .sum();
        let reviewers: usize = self
            .reviewers
            .iter()
            .map(|shard| shard.capacity() * size_of::<(usize, ReviewerDelta)>())
            .sum();
        rows + self.spine.iter().flatten().count() * size_of::<SpineChunk>()
            + self.log.len() * size_of::<LoggedReview>()
            + reviewers
            + self.text.doc_freqs.capacity() * size_of::<(WordId, u32)>()
            + self.overlay.total_len() * OVERLAY_ROW_BYTES
    }

    // ---- writer side: every mutation goes through `cow` ----

    fn chunk_mut(&mut self, entity: usize, copied: &mut u64) -> &mut SpineChunk {
        let c = entity / SPINE_CHUNK;
        if self.spine.len() <= c {
            self.spine.resize(c + 1, None);
        }
        cow(self.spine[c].get_or_insert_with(Default::default), copied)
    }

    /// Stamps `entity`'s review-qualified summaries as changed at
    /// `epoch`.
    fn requalify(&mut self, entity: usize, epoch: u64, copied: &mut u64) {
        let chunk = self.chunk_mut(entity, copied);
        chunk.qualified_versions[entity % SPINE_CHUNK] = epoch;
        chunk.max_qualified_version = epoch;
    }

    /// The row of `entity` in this generation under construction, its
    /// degrees stamped as changed at `epoch`.
    fn row_mut(&mut self, entity: usize, epoch: u64, copied: &mut u64) -> &mut EntityDelta {
        let chunk = self.chunk_mut(entity, copied);
        chunk.versions[entity % SPINE_CHUNK] = epoch;
        chunk.max_version = epoch;
        cow(
            chunk.rows[entity % SPINE_CHUNK].get_or_insert_with(Default::default),
            copied,
        )
    }

    /// A reviewer id for a row inserted without one: `first_unknown`
    /// (one past the base's ids) plus a counter, skipping every id the
    /// delta has seen in an explicit `reviewer_id` — handing one of
    /// those out would merge two people into one reviewer.
    fn draw_anonymous_reviewer(&mut self, first_unknown: usize) -> usize {
        loop {
            opine_faults::checkpoint();
            let id = first_unknown + self.anonymous_drawn;
            self.anonymous_drawn += 1;
            if self.reviewer_count(id) == 0 {
                return id;
            }
        }
    }

    /// Appends one review to the log and its reviewer's chain.
    fn log_review(&mut self, meta: ReviewMeta, copied: &mut u64) {
        if self.reviewers.is_empty() {
            self.reviewers = vec![Arc::default(); REVIEWER_SHARDS];
        }
        let index = self.log.len() as u32;
        let reviewer = cow(
            &mut self.reviewers[meta.reviewer_id % REVIEWER_SHARDS],
            copied,
        )
        .entry(meta.reviewer_id)
        .or_insert(ReviewerDelta {
            count: 0,
            last_review: NO_REVIEW,
        });
        let previous_by_reviewer = std::mem::replace(&mut reviewer.last_review, index);
        reviewer.count += 1;
        self.log.push(LoggedReview {
            meta,
            previous_by_reviewer,
        });
    }
}

impl EntityDelta {
    /// Adds one extracted occurrence to a cell and folds it into the
    /// cell's summary.
    fn push_occurrence(
        &mut self,
        attribute: usize,
        markers: usize,
        occ: PhraseOcc,
        assignment: &Assignment,
        copied: &mut u64,
    ) {
        if self.cells.len() <= attribute {
            self.cells.resize_with(attribute + 1, || None);
        }
        let cell = cow(
            self.cells[attribute].get_or_insert_with(|| {
                Arc::new(DeltaCell {
                    occs: Vec::new(),
                    summary: MarkerSummary::empty(markers),
                })
            }),
            copied,
        );
        cell.summary.add_assigned(assignment, occ.sentiment);
        cell.occs.push(occ);
    }

    /// Folds the unsealed text into the merged term frequencies,
    /// updating the shared statistics: tokens outside the frozen
    /// vocabulary are dropped and do not count towards the length.
    fn merge_text(&mut self, vocab: &Vocab, text: &mut DeltaText) {
        let mut words: Vec<WordId> = opine_text::tokenize(&self.unsealed_text)
            .iter()
            .filter_map(|token| vocab.get(token))
            .collect();
        self.unsealed_text = String::new();
        if words.is_empty() {
            return;
        }
        self.text_len += words.len() as u32;
        text.total_len += words.len() as u64;
        words.sort_unstable();
        let mut merged = Vec::with_capacity(self.term_freqs.len() + words.len());
        let mut old = self.term_freqs.iter().copied().peekable();
        for run in words.chunk_by(|a, b| a == b) {
            opine_faults::checkpoint();
            let (word, count) = (run[0], run.len() as u32);
            while let Some(entry) = old.next_if(|&(w, _)| w < word) {
                merged.push(entry);
            }
            match old.next_if(|&(w, _)| w == word) {
                Some((_, tf)) => merged.push((word, tf + count)),
                None => {
                    *text.doc_freqs.entry(word).or_insert(0) += 1;
                    merged.push((word, count));
                }
            }
        }
        merged.extend(old);
        self.term_freqs = merged.into();
    }
}

/// A query's pinned delta generation: the epoch and the generation's
/// shared state, installed thread-locally for the whole execution (and
/// re-installed inside parallel workers by `par::par_map`).
#[derive(Debug, Clone)]
pub(crate) struct Pin {
    pub epoch: u64,
    pub delta: Arc<DeltaState>,
}

impl Pin {
    /// The pinned generation's relational rows, `None` while it has none
    /// (the executor's no-overlay case).
    pub fn overlay(&self) -> Option<&TableOverlay> {
        (!self.delta.overlay.is_empty()).then_some(&self.delta.overlay)
    }
}

thread_local! {
    /// The delta generation pinned by the query running on this thread.
    static PIN: RefCell<Option<Pin>> = const { RefCell::new(None) };
}

/// Runs `f` with `pin` installed as the thread's pinned generation,
/// restoring the previous pin on exit (panic-safe via a drop guard) —
/// the same ambient-state pattern as `opine_faults::with_deadline`.
pub(crate) fn with_pin<T>(pin: Option<Pin>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Pin>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            PIN.with(|p| *p.borrow_mut() = previous);
        }
    }
    let previous = PIN.with(|p| p.borrow_mut().take());
    let _restore = Restore(previous);
    PIN.with(|p| *p.borrow_mut() = pin);
    f()
}

/// The pin installed on this thread, if any.
pub(crate) fn current_pin() -> Option<Pin> {
    PIN.with(|p| p.borrow().clone())
}

/// Snapshot pins: how the engine's read paths get at their generation.
impl OpineDb {
    /// Runs `f` under a pinned delta generation: the pin already
    /// installed on this thread (so every read inside one query shares
    /// a generation), else the currently published generation installed
    /// for the duration of `f`. Every delta-aware entry point goes
    /// through this — it is what makes a whole request observe exactly
    /// one epoch.
    pub(crate) fn ensure_pinned<T>(&self, f: impl FnOnce(&Pin) -> T) -> T {
        if let Some(pin) = current_pin() {
            return f(&pin);
        }
        let snap = self.ingest.cell.load();
        let pin = Pin {
            epoch: snap.epoch(),
            delta: snap.value().clone(),
        };
        with_pin(Some(pin.clone()), || f(&pin))
    }

    /// The delta generation this thread's query pinned, or (outside a
    /// query) the currently published one. Leaf reads that don't
    /// recurse into other delta-aware paths use this instead of
    /// [`Self::ensure_pinned`].
    pub(crate) fn pinned(&self) -> Pin {
        current_pin().unwrap_or_else(|| {
            let snap = self.ingest.cell.load();
            Pin {
                epoch: snap.epoch(),
                delta: snap.value().clone(),
            }
        })
    }

    /// Every occurrence of one cell at `pin`: the build-time ones, then
    /// the pinned delta's.
    pub(crate) fn occurrences_at<'a>(
        &'a self,
        entity: usize,
        attribute: usize,
        pin: &'a Pin,
    ) -> impl Iterator<Item = &'a PhraseOcc> + 'a {
        let delta_occs = pin
            .delta
            .cell(entity, attribute)
            .map_or(&[][..], |cell| cell.occs.as_slice());
        self.raw[entity][attribute].iter().chain(delta_occs)
    }

    /// Metadata of a review by global id: base reviews first, then the
    /// pinned delta's (delta review `i` has id `base_count + i`).
    #[inline]
    pub(crate) fn review_meta_at(&self, delta: &DeltaState, review_id: usize) -> ReviewMeta {
        if review_id < self.review_meta.len() {
            self.review_meta[review_id]
        } else {
            delta.review_meta(review_id - self.review_meta.len())
        }
    }
}

/// Exact-phrase matcher over the frozen opinion domains: maps a
/// tokenized review text to `(attribute, variation)` occurrences by
/// matching each variation's token sequence at every position. Built
/// once per engine (lazily, on the first insert) and keyed by first
/// token so a text scan only examines candidates sharing its anchor.
#[derive(Debug, Default)]
pub(crate) struct PhraseMatcher {
    /// First token → `(attribute, variation index, full token list)`.
    by_first: HashMap<String, Vec<(usize, usize, Vec<String>)>>,
}

impl PhraseMatcher {
    /// Builds the matcher from the engine's frozen opinion domains.
    pub fn build(domains: &[LinguisticDomain]) -> Self {
        let mut by_first: HashMap<String, Vec<(usize, usize, Vec<String>)>> = HashMap::new();
        for (attr, domain) in domains.iter().enumerate() {
            for (var, variation) in domain.variations().iter().enumerate() {
                opine_faults::checkpoint();
                let tokens = opine_text::tokenize(&variation.phrase);
                if let Some(first) = tokens.first() {
                    by_first
                        .entry(first.clone())
                        .or_default()
                        .push((attr, var, tokens.clone()));
                }
            }
        }
        PhraseMatcher { by_first }
    }

    /// `(attribute, variation)` occurrences of the domains' phrases in
    /// `text`, in scan order. Longer candidate phrases win at a given
    /// anchor position (the scan does not double-count a long phrase as
    /// its own prefix), matching how extraction yields one opinion term
    /// per expression.
    pub fn extract(&self, text: &str) -> Vec<(usize, usize)> {
        let tokens = opine_text::tokenize(text);
        let mut out = Vec::new();
        for start in 0..tokens.len() {
            opine_faults::checkpoint();
            let Some(candidates) = self.by_first.get(&tokens[start]) else {
                continue;
            };
            let mut best: Option<(usize, usize, usize)> = None;
            // lint:allow(checkpoint_coverage, reason = "bounded by the domains' variation count per anchor token, not by data volume")
            for &(attr, var, ref phrase) in candidates {
                let fits = phrase.len() <= tokens.len() - start
                    && phrase.iter().zip(&tokens[start..]).all(|(p, t)| p == t);
                if fits && best.is_none_or(|(_, _, len)| phrase.len() > len) {
                    best = Some((attr, var, phrase.len()));
                }
            }
            if let Some((attr, var, _)) = best {
                out.push((attr, var));
            }
        }
        out
    }
}

/// Base reviewer id → the entities of the reviews they wrote, in CSR
/// form. Built on the first insert by a reviewer the base knows (like
/// the matcher, not at build): that insert moves the reviewer's live
/// count, so every entity they reviewed must re-qualify.
#[derive(Debug)]
pub(crate) struct ReviewerEntities {
    /// `entities[starts[r]..starts[r + 1]]` are reviewer `r`'s.
    starts: Vec<u32>,
    entities: Vec<u32>,
}

impl ReviewerEntities {
    fn build(review_meta: &[ReviewMeta], reviewer_counts: &[u32]) -> Self {
        let mut starts = Vec::with_capacity(reviewer_counts.len() + 1);
        let mut total = 0u32;
        starts.push(0);
        for &count in reviewer_counts {
            opine_faults::checkpoint();
            total += count;
            starts.push(total);
        }
        let mut next = starts.clone();
        let mut entities = vec![0u32; total as usize];
        for meta in review_meta {
            opine_faults::checkpoint();
            let slot = &mut next[meta.reviewer_id];
            entities[*slot as usize] = meta.entity_id as u32;
            *slot += 1;
        }
        ReviewerEntities { starts, entities }
    }

    fn of(&self, reviewer_id: usize) -> &[u32] {
        &self.entities[self.starts[reviewer_id] as usize..self.starts[reviewer_id + 1] as usize]
    }
}

/// The engine's ingest machinery: the published delta generation, the
/// writer lock serializing inserts and merges, and the observability
/// counters the `/stats` surface reports.
pub(crate) struct IngestState {
    /// The current delta generation; `publish` bumps the data epoch.
    pub cell: SnapshotCell<DeltaState>,
    /// Serializes writers. Readers never take it — they pin a
    /// generation and go.
    pub writer: Mutex<()>,
    /// Reviews accepted by `INSERT` statements (counter).
    pub inserted_reviews: AtomicU64,
    /// Completed delta merges (counter).
    pub delta_merges: AtomicU64,
    /// Merges that panicked and were rolled back — the previous epoch
    /// kept serving (counter).
    pub failed_merges: AtomicU64,
    /// Nodes of the delta (entity rows, spine chunks, reviewer shards)
    /// that publishes copied because an older generation shared them
    /// (counter) — the copy-on-write cost, a function of the batch.
    pub delta_rows_copied: AtomicU64,
    /// Unsealed reviews that trigger a merge.
    pub merge_threshold: AtomicUsize,
    /// Lazily built exact-phrase matcher over the frozen domains.
    pub matcher: OnceLock<PhraseMatcher>,
    /// Lazily built base reviewer → entities index.
    pub reviewer_entities: OnceLock<ReviewerEntities>,
}

impl IngestState {
    pub fn new() -> Self {
        IngestState {
            cell: SnapshotCell::new(DeltaState::default()),
            writer: Mutex::new(()),
            inserted_reviews: AtomicU64::new(0),
            delta_merges: AtomicU64::new(0),
            failed_merges: AtomicU64::new(0),
            delta_rows_copied: AtomicU64::new(0),
            merge_threshold: AtomicUsize::new(DEFAULT_MERGE_THRESHOLD),
            matcher: OnceLock::new(),
            reviewer_entities: OnceLock::new(),
        }
    }
}

/// What an accepted `INSERT` statement did — returned by
/// [`crate::OpineDb::execute_insert`] and rendered by the serving
/// layer's ingest endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Rows inserted by this statement (all-or-nothing).
    pub inserted: usize,
    /// The data epoch after this statement (and any merge it
    /// triggered) published.
    pub epoch: u64,
    /// Total delta reviews now live.
    pub delta_reviews: usize,
    /// True when this statement pushed the delta over the merge
    /// threshold and the merge completed.
    pub merged: bool,
}

/// One validated `INSERT` row, resolved against the frozen entity set.
struct InsertRow {
    entity: usize,
    text: String,
    /// `None` defaults to a fresh reviewer id at apply time.
    reviewer_id: Option<usize>,
    year: u32,
    helpful_votes: u32,
}

/// An `INSERT` rejection (shape/typing/unknown-entity problems surface
/// as execution errors, like the executor's own validation does).
fn insert_error(message: String) -> OpineError {
    OpineError::Store(StoreError::Execution(message))
}

impl OpineDb {
    /// The current data epoch: 0 at build, bumped by every published
    /// `INSERT` batch and every completed merge.
    pub fn ingest_epoch(&self) -> u64 {
        self.ingest.cell.epoch()
    }

    /// Delta reviews live in the current generation.
    pub fn delta_reviews(&self) -> usize {
        self.ingest.cell.load().value().reviews()
    }

    /// Sets the unsealed-review count that triggers a merge after an
    /// insert (clamped to ≥ 1; default [`DEFAULT_MERGE_THRESHOLD`]).
    pub fn set_merge_threshold(&self, reviews: usize) {
        // sync: writer-side tuning knob; a racing insert that reads the
        // old threshold merges one batch early or late, both harmless.
        self.ingest.merge_threshold.store(reviews.max(1), Relaxed);
    }

    /// Parses and executes one `INSERT INTO reviews ...` statement.
    pub fn insert_sql(&self, sql: &str) -> Result<IngestReceipt, OpineError> {
        let stmt = parse_insert(sql).map_err(|e| OpineError::Parse(e.to_string()))?;
        self.execute_insert(&stmt)
    }

    /// Executes an already-parsed `INSERT`, all-or-nothing: the batch
    /// is validated in full, applied to a successor of the delta
    /// generation that shares every node the batch does not touch, and
    /// published with **one** epoch bump — a concurrent query pins
    /// either every row of the batch or none.
    ///
    /// Only the `reviews` table accepts inserts (the entity set — and
    /// with it every frozen model artifact — is fixed at build time).
    /// Columns must be listed by name. `entity` is required; the
    /// virtual `text` column carries the review text that insert-time
    /// phrase extraction and the next merge's term-frequency fold
    /// consume; `reviewer_id`, `year`, and `helpful_votes` are
    /// optional (`reviewer_id` defaults to a fresh reviewer).
    /// `review_id` is assigned by the engine and cannot be specified.
    ///
    /// When the statement pushes the unsealed delta over the merge
    /// threshold, the merge runs immediately (still under the writer
    /// lock) and publishes a second epoch. A merge failure does not
    /// fail the insert — the batch already published; the merge
    /// retries at the next threshold crossing.
    pub fn execute_insert(&self, stmt: &InsertStmt) -> Result<IngestReceipt, OpineError> {
        let rows = self.validate_insert(stmt)?;
        // lint:allow(lock_hold, reason = "single writer lock by design: inserts and merges serialize; readers pin generations and never take it")
        let _writer = self.ingest.writer.lock();
        let span = opine_trace::span("ingest");
        let snap = self.ingest.cell.load();
        // Single writer (the lock above) ⇒ the next publish gets
        // exactly this epoch; inserted entities are stamped with it.
        let new_epoch = snap.epoch() + 1;
        let mut next = DeltaState::clone(snap.value());
        let mut copied = 0u64;
        let matcher = self
            .ingest
            .matcher
            .get_or_init(|| PhraseMatcher::build(&self.opinion_domains));
        let marker_sets = self.interpreter().marker_sets();
        for row in &rows {
            opine_faults::checkpoint();
            let review_id = self.review_meta.len() + next.reviews();
            let reviewer_id = row
                .reviewer_id
                .unwrap_or_else(|| next.draw_anonymous_reviewer(self.reviewer_counts.len()));
            next.overlay.push_row(
                "reviews",
                vec![
                    Value::Int(review_id as i64),
                    Value::text(&self.entity_keys[row.entity]),
                    Value::Int(reviewer_id as i64),
                    Value::Int(i64::from(row.year)),
                    Value::Int(i64::from(row.helpful_votes)),
                ],
            );
            // The reviewer's live count moves, and with it every review
            // they wrote can cross a `reviewer_min_count` threshold:
            // the entities of those reviews re-qualify at this epoch.
            if self
                .reviewer_counts
                .get(reviewer_id)
                .is_some_and(|&c| c > 0)
            {
                let index = self.ingest.reviewer_entities.get_or_init(|| {
                    ReviewerEntities::build(&self.review_meta, &self.reviewer_counts)
                });
                for &entity in index.of(reviewer_id) {
                    opine_faults::checkpoint();
                    next.requalify(entity as usize, new_epoch, &mut copied);
                }
            }
            for entity in next.reviewer_entities(reviewer_id) {
                opine_faults::checkpoint();
                next.requalify(entity, new_epoch, &mut copied);
            }
            next.log_review(
                ReviewMeta {
                    entity_id: row.entity,
                    reviewer_id,
                    year: row.year,
                    helpful_votes: row.helpful_votes,
                },
                &mut copied,
            );
            next.unsealed_reviews += 1;
            next.requalify(row.entity, new_epoch, &mut copied);
            let entity = next.row_mut(row.entity, new_epoch, &mut copied);
            entity.reviews += 1;
            if !row.text.is_empty() {
                if !entity.unsealed_text.is_empty() {
                    entity.unsealed_text.push(' ');
                }
                entity.unsealed_text.push_str(&row.text);
            }
            // Insert-time extraction against the frozen domains: each
            // occurrence lands in its cell and folds into the cell's
            // running summary through its variation's tabulated
            // assignment — the increments the build computed for the
            // same variation.
            for (attr, variation) in matcher.extract(&row.text) {
                opine_faults::checkpoint();
                let occ = PhraseOcc {
                    variation,
                    sentiment: self.opinion_domains[attr].variations()[variation].sentiment,
                    review_id,
                };
                entity.push_occurrence(
                    attr,
                    marker_sets[attr].markers.len(),
                    occ,
                    &self.assignments[attr][variation],
                    &mut copied,
                );
            }
        }
        let unsealed = next.unsealed_reviews;
        span.count("rows", rows.len() as u64);
        let published = self.ingest.cell.publish(next);
        debug_assert_eq!(published, new_epoch);
        self.ingest
            .inserted_reviews
            .fetch_add(rows.len() as u64, Relaxed);
        self.ingest.delta_rows_copied.fetch_add(copied, Relaxed);
        drop(span);

        // Threshold merge, still under the writer lock so no other
        // insert interleaves between the batch publish and the merge
        // publish.
        // sync: tuning knob; a stale threshold merges a batch late.
        let threshold = self.ingest.merge_threshold.load(Relaxed);
        let merged = unsealed >= threshold && self.merge_delta_locked().is_ok();
        let snap = self.ingest.cell.load();
        Ok(IngestReceipt {
            inserted: rows.len(),
            epoch: snap.epoch(),
            delta_reviews: snap.value().reviews(),
            merged,
        })
    }

    /// Validates the whole statement before anything mutates — every
    /// rejection surfaces with zero rows applied.
    fn validate_insert(&self, stmt: &InsertStmt) -> Result<Vec<InsertRow>, OpineError> {
        if stmt.table != "reviews" {
            return Err(insert_error(format!(
                "INSERT supports only the reviews table (the `{}` entity set and every \
                 model artifact are frozen at build time), got `{}`",
                self.entity_table(),
                stmt.table
            )));
        }
        if stmt.columns.is_empty() {
            return Err(insert_error(
                "INSERT INTO reviews requires a named column list (the virtual `text` \
                 column is not part of the stored schema)"
                    .into(),
            ));
        }
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for (i, name) in stmt.columns.iter().enumerate() {
            opine_faults::checkpoint();
            match name.as_str() {
                "entity" | "text" | "reviewer_id" | "year" | "helpful_votes" => {}
                "review_id" => {
                    return Err(insert_error(
                        "review_id is assigned by the engine and cannot be inserted".into(),
                    ))
                }
                other => {
                    return Err(insert_error(format!(
                        "unknown insert column `{other}` \
                         (allowed: entity, text, reviewer_id, year, helpful_votes)"
                    )))
                }
            }
            if seen.insert(name.as_str(), i).is_some() {
                return Err(insert_error(format!("duplicate insert column `{name}`")));
            }
        }
        let Some(&entity_col) = seen.get("entity") else {
            return Err(insert_error(
                "INSERT INTO reviews requires the entity column".into(),
            ));
        };
        let mut rows = Vec::with_capacity(stmt.rows.len());
        for (r, values) in stmt.rows.iter().enumerate() {
            opine_faults::checkpoint();
            if values.len() != stmt.columns.len() {
                return Err(insert_error(format!(
                    "row {r}: {} values for {} columns",
                    values.len(),
                    stmt.columns.len()
                )));
            }
            let int_field = |name: &str| -> Result<Option<i64>, OpineError> {
                match seen.get(name) {
                    None => Ok(None),
                    Some(&c) => match &values[c] {
                        Value::Int(v) => Ok(Some(*v)),
                        other => Err(insert_error(format!(
                            "row {r}: {name} must be an integer, got {other}"
                        ))),
                    },
                }
            };
            let key = values[entity_col]
                .as_str()
                .ok_or_else(|| insert_error(format!("row {r}: entity must be a string key")))?;
            let entity = self.entity_id(key).ok_or_else(|| {
                insert_error(format!(
                    "row {r}: unknown entity `{key}` (the entity set is frozen at build time)"
                ))
            })?;
            let reviewer_id = match int_field("reviewer_id")? {
                None => None,
                Some(v) if v >= 0 => Some(v as usize),
                Some(v) => {
                    return Err(insert_error(format!(
                        "row {r}: reviewer_id must be non-negative, got {v}"
                    )))
                }
            };
            let year = match int_field("year")? {
                None => 0,
                Some(v) if (0..=i64::from(u32::MAX)).contains(&v) => v as u32,
                Some(v) => return Err(insert_error(format!("row {r}: year out of range: {v}"))),
            };
            let helpful_votes = match int_field("helpful_votes")? {
                None => 0,
                Some(v) if (0..=i64::from(u32::MAX)).contains(&v) => v as u32,
                Some(v) => {
                    return Err(insert_error(format!(
                        "row {r}: helpful_votes out of range: {v}"
                    )))
                }
            };
            let text = match seen.get("text") {
                None => String::new(),
                Some(&c) => values[c]
                    .as_str()
                    .ok_or_else(|| insert_error(format!("row {r}: text must be a string")))?
                    .to_string(),
            };
            rows.push(InsertRow {
                entity,
                text,
                reviewer_id,
                year,
                helpful_votes,
            });
        }
        Ok(rows)
    }

    /// Freezes the unsealed tail of the delta: seals the overlay tail
    /// into an `Arc`-shared chunk and folds the text of the reviews
    /// inserted since the last merge into their entities' term
    /// frequencies and the shared delta statistics, so delta BM25
    /// scores exactly as an index over all merged delta text would —
    /// then publishes with a single epoch bump. The cost is the tail's,
    /// not the delta's. On failure (an injected `mid_merge` fault, a
    /// cancelled deadline) nothing publishes — the previous epoch keeps
    /// serving — and `failed_merges` increments.
    pub fn merge_delta(&self) -> Result<u64, OpineError> {
        // lint:allow(lock_hold, reason = "single writer lock by design: inserts and merges serialize; readers pin generations and never take it")
        let _writer = self.ingest.writer.lock();
        self.merge_delta_locked()
    }

    /// The merge body; the caller holds the writer lock.
    fn merge_delta_locked(&self) -> Result<u64, OpineError> {
        let snap = self.ingest.cell.load();
        if snap.value().unsealed_reviews == 0 {
            return Ok(snap.epoch());
        }
        let span = opine_trace::span("delta_merge");
        let new_epoch = snap.epoch() + 1;
        // The merge builds a successor generation off to the side and
        // publishes it only if every step succeeds; a panic (injected
        // fault, expired deadline) is caught — NOT resumed, unlike the
        // query path — because a failed merge is recoverable by design:
        // the old generation is untouched and keeps serving.
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            opine_faults::fire_panic("mid_merge");
            let mut next = DeltaState::clone(snap.value());
            let mut copied = 0u64;
            next.overlay.seal();
            // The merge changes the tail reviews' text-retrieval
            // contribution, so their entities must invalidate
            // epoch-stamped cache entries from before it.
            let mut tail: Vec<usize> = (next.merged_reviews..next.reviews())
                .map(|i| next.review_meta(i).entity_id)
                .collect();
            tail.sort_unstable();
            tail.dedup();
            let mut text = DeltaText::clone(&next.text);
            for entity in tail {
                opine_faults::checkpoint();
                next.row_mut(entity, new_epoch, &mut copied)
                    .merge_text(self.vocab(), &mut text);
            }
            next.text = Arc::new(text);
            next.merged_reviews = next.reviews();
            next.unsealed_reviews = 0;
            (next, copied)
        }));
        match built {
            Ok((next, copied)) => {
                let epoch = self.ingest.cell.publish(next);
                debug_assert_eq!(epoch, new_epoch);
                self.ingest.delta_merges.fetch_add(1, Relaxed);
                self.ingest.delta_rows_copied.fetch_add(copied, Relaxed);
                drop(span);
                Ok(epoch)
            }
            Err(payload) => {
                self.ingest.failed_merges.fetch_add(1, Relaxed);
                drop(span);
                if payload.is::<opine_faults::Cancelled>() {
                    Err(OpineError::QueryTimeout)
                } else {
                    Err(OpineError::Store(StoreError::Execution(
                        "delta merge failed and was rolled back; the previous epoch keeps serving"
                            .into(),
                    )))
                }
            }
        }
    }
}

/// Serializes the tests that merge or arm failpoints: the faults
/// registry is process-global, and an armed `mid_merge` panic must not
/// leak into a concurrently merging test.
#[cfg(test)]
pub(crate) fn merge_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, BuildConfig};
    use crate::interpret::{Interpretation, InterpreterConfig};
    use opine_corpus::hotel::hotel_spec;
    use opine_corpus::{Corpus, CorpusConfig};
    use opine_embed::Word2VecConfig;
    use opine_ir::{DocId, InvertedIndex};
    use opine_store::ReviewQualifier;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture(interpreter: InterpreterConfig) -> (Corpus, OpineDb) {
        let corpus = Corpus::generate(
            hotel_spec(),
            &CorpusConfig {
                num_entities: 16,
                mean_reviews: 16,
                seed: 9,
            },
        );
        let db = build(
            &corpus,
            &BuildConfig {
                w2v: Word2VecConfig {
                    dim: 24,
                    epochs: 2,
                    ..Default::default()
                },
                membership_tuples: 400,
                interpreter,
                ..Default::default()
            },
        );
        (corpus, db)
    }

    fn db() -> OpineDb {
        fixture(InterpreterConfig::default()).1
    }

    /// One single-row `INSERT`; `reviewer` `None` leaves the column out.
    fn insert(db: &OpineDb, entity: usize, text: &str, year: u32, reviewer: Option<usize>) {
        let key = db.entity_key(entity);
        let sql = match reviewer {
            Some(id) => format!(
                "INSERT INTO reviews (entity, text, year, reviewer_id) \
                 VALUES ('{key}', '{text}', {year}, {id})"
            ),
            None => format!(
                "INSERT INTO reviews (entity, text, year) VALUES ('{key}', '{text}', {year})"
            ),
        };
        db.insert_sql(&sql).unwrap();
    }

    #[test]
    fn anonymous_reviewers_never_collide_with_explicit_ids() {
        let db = db();
        let first_unknown = db.reviewer_counts.len();
        // An explicit id exactly where the anonymous counter would land
        // after one delta review.
        insert(&db, 0, "fine", 2020, Some(first_unknown + 1));
        for entity in 1..4 {
            insert(&db, entity, "fine", 2020, None);
        }
        let delta = db.pinned().delta;
        let reviewers: Vec<usize> = (0..delta.reviews())
            .map(|i| delta.review_meta(i).reviewer_id)
            .collect();
        assert_eq!(reviewers[0], first_unknown + 1);
        for &reviewer in &reviewers {
            assert_eq!(
                db.reviewer_review_count(reviewer),
                1,
                "two reviews share reviewer {reviewer}: {reviewers:?}"
            );
        }
        // (The collision made `reviewer_min_count >= 2` accept both
        // reviews of the merged "reviewer".)
    }

    fn same_set(a: &[crate::QualifiedRow], b: &[Vec<MarkerSummary>]) -> bool {
        a.iter()
            .zip(b)
            .all(|(a, b)| a.iter().zip(b).all(|(a, b)| a.same_aggregates(b)))
    }

    #[test]
    fn a_reader_pinned_before_a_publish_keeps_its_own_qualified_set() {
        let db = db();
        let phrase = db.opinion_domains[0].variations()[0].phrase.clone();
        let reviewer = (0..db.reviewer_counts.len())
            .find(|&r| db.reviewer_counts[r] == 1)
            .expect("a base reviewer with one review");
        let qualifier = ReviewQualifier {
            min_reviewer_count: Some(2),
            ..Default::default()
        };
        let rescan = || {
            db.summaries_with_review_filter(|m| {
                qualifier.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
            })
        };
        insert(&db, 1, &format!("so {phrase}"), 2015, Some(900_001));
        let old_pin = db.pinned();
        let old_set = with_pin(Some(old_pin.clone()), rescan);
        // The base reviewer returns: its other review now counts.
        insert(&db, 2, &format!("very {phrase}"), 2016, Some(reviewer));
        let new_set = rescan();
        assert!(
            !same_set(&db.summaries_qualified(&qualifier), &old_set),
            "fixture: the publish must change the qualified set"
        );
        // The cache now holds the set of the newer epoch; the old pin
        // still gets its own generation's, privately.
        let sets_before = db.cache_report().filtered_summary_sets;
        let under_old_pin = with_pin(Some(old_pin), || db.summaries_qualified(&qualifier));
        assert!(same_set(&under_old_pin, &old_set));
        assert_eq!(db.cache_report().filtered_summary_sets, sets_before);
        assert!(same_set(&db.summaries_qualified(&qualifier), &new_set));
    }

    /// `sigmoid(base BM25 + delta BM25 − c)` with the delta side scored
    /// by an `InvertedIndex` rebuilt from scratch over the concatenated
    /// merged delta text — how the engine itself scored delta text
    /// before it kept per-entity term frequencies.
    fn text_degrees_by_rebuilt_index(
        db: &OpineDb,
        merged: Option<&[String]>,
        predicate: &str,
    ) -> (Vec<u64>, Vec<u64>) {
        let terms = db.text_terms(predicate);
        let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        // Only in-vocabulary tokens are indexed, as the merge keeps only
        // those: the copy of the vocabulary interns nothing new, so its
        // word ids are the engine's.
        let index = merged.map(|texts| {
            let mut vocab = db.vocab().clone();
            let mut index = InvertedIndex::new();
            for text in texts {
                let known: Vec<String> = opine_text::tokenize(text)
                    .into_iter()
                    .filter(|token| vocab.get(token).is_some())
                    .collect();
                index.add_document(&known.join(" "), &mut vocab);
            }
            assert_eq!(vocab.len(), db.vocab().len());
            index
        });
        let point = (0..db.num_entities())
            .map(|e| {
                let doc = DocId(e as u32);
                let mut score = db.entity_index.bm25(doc, &terms);
                if let Some(index) = &index {
                    score += index.bm25(doc, &terms);
                }
                sigmoid(score - db.config.sigmoid_c).to_bits()
            })
            .collect();
        let mut scores = db.entity_index.bm25_dense(&terms);
        if let Some(index) = &index {
            for (score, delta) in scores.iter_mut().zip(index.bm25_dense(&terms)) {
                *score += delta;
            }
        }
        let dense = scores
            .into_iter()
            .map(|score| sigmoid(score - db.config.sigmoid_c).to_bits())
            .collect();
        (point, dense)
    }

    #[test]
    fn delta_text_scores_match_an_index_rebuilt_from_scratch() {
        let _guard = merge_test_lock();
        let (corpus, db) = fixture(InterpreterConfig {
            theta1: 1.01,
            theta2: f64::INFINITY,
            ..Default::default()
        });
        db.set_merge_threshold(usize::MAX);
        let predicates = [
            "clean rooms",
            "friendly staff breakfast",
            "zzzunknown",
            "quiet",
        ];
        for predicate in predicates {
            assert_eq!(db.interpret(predicate), Interpretation::TextFallback);
        }
        let n = db.num_entities();
        let mut rng = StdRng::seed_from_u64(77);
        let mut merged: Option<Vec<String>> = None;
        let mut unsealed = vec![String::new(); n];
        let mut merges = 0;
        for step in 0..60 {
            let entity = rng.gen_range(0..n);
            // Donor text is in-vocabulary; the suffix is not.
            let donor = &corpus.reviews[rng.gen_range(0..corpus.reviews.len())].text;
            let text: String = donor.chars().filter(|c| *c != '\'').collect();
            let text = format!("{text} zzzunknown{step}");
            insert(&db, entity, &text, 2020, None);
            if !unsealed[entity].is_empty() {
                unsealed[entity].push(' ');
            }
            unsealed[entity].push_str(&text);
            if rng.gen_bool(0.3) {
                db.merge_delta().unwrap();
                merges += 1;
                let merged = merged.get_or_insert_with(|| vec![String::new(); n]);
                for (doc, tail) in merged.iter_mut().zip(&mut unsealed) {
                    if !tail.is_empty() {
                        if !doc.is_empty() {
                            doc.push(' ');
                        }
                        doc.push_str(&std::mem::take(tail));
                    }
                }
            }
            for predicate in predicates {
                let (point, dense) =
                    text_degrees_by_rebuilt_index(&db, merged.as_deref(), predicate);
                // Point path: the reference, no memo or column in the way.
                let got: Vec<u64> = (0..n)
                    .map(|e| db.reference().degree(e, predicate).to_bits())
                    .collect();
                assert_eq!(got, point, "step {step} {predicate:?}: point path");
                // Dense path: a cold column build.
                db.clear_degree_columns();
                let column = db.degree_column(predicate);
                let got: Vec<u64> = column.degrees().iter().map(|d| d.to_bits()).collect();
                assert_eq!(got, dense, "step {step} {predicate:?}: dense path");
            }
        }
        assert!(merges >= 5, "the schedule must merge repeatedly");
    }

    /// Spine chunk and row of `entity` in a generation.
    fn nodes(delta: &DeltaState, entity: usize) -> (&Arc<SpineChunk>, &Arc<EntityDelta>) {
        let chunk = delta.spine[entity / SPINE_CHUNK].as_ref().expect("chunk");
        let row = chunk.rows[entity % SPINE_CHUNK].as_ref().expect("row");
        (chunk, row)
    }

    #[test]
    fn consecutive_generations_share_every_untouched_node() {
        // 200 entities: four spine chunks.
        let corpus = Corpus::generate(
            hotel_spec(),
            &CorpusConfig {
                num_entities: 200,
                mean_reviews: 2,
                seed: 3,
            },
        );
        let db = build(
            &corpus,
            &BuildConfig {
                w2v: Word2VecConfig {
                    dim: 16,
                    epochs: 1,
                    ..Default::default()
                },
                membership_tuples: 200,
                ..Default::default()
            },
        );
        // Two phrases the matcher files under two different attributes.
        let matcher = PhraseMatcher::build(&db.opinion_domains);
        let mut phrases = db
            .opinion_domains
            .iter()
            .enumerate()
            .filter_map(|(attr, d)| {
                let phrase = d.variations().iter().map(|v| v.phrase.clone());
                let mut own = phrase
                    .filter(|p| matches!(matcher.extract(p).as_slice(), [(a, _)] if *a == attr));
                Some((attr, own.next()?))
            });
        let (a0, p0) = phrases.next().expect("an extractable phrase");
        let (a1, p1) = phrases.next().expect("one of another attribute");
        let both = format!("{p0} and {p1}");
        for (i, entity) in [3, 70, 71, 140, 199].into_iter().enumerate() {
            insert(&db, entity, &both, 2019, Some(800_000 + i));
        }
        let before = db.pinned().delta;
        // One more review of entity 70, mentioning the first attribute
        // only, by a reviewer of its own.
        insert(&db, 70, &p0, 2020, Some(800_100));
        let after = db.pinned().delta;

        for entity in [3, 140, 199] {
            let (chunk_a, row_a) = nodes(&before, entity);
            let (chunk_b, row_b) = nodes(&after, entity);
            assert!(Arc::ptr_eq(chunk_a, chunk_b), "chunk of {entity}");
            assert!(Arc::ptr_eq(row_a, row_b), "row of {entity}");
        }
        // The touched chunk is a copy that still shares its other row…
        let (chunk_a, neighbour_a) = nodes(&before, 71);
        let (chunk_b, neighbour_b) = nodes(&after, 71);
        assert!(!Arc::ptr_eq(chunk_a, chunk_b));
        assert!(Arc::ptr_eq(neighbour_a, neighbour_b));
        // …and the touched row a copy that shares the cell the review
        // did not mention and the merged term frequencies.
        let (row_a, row_b) = (nodes(&before, 70).1, nodes(&after, 70).1);
        assert!(!Arc::ptr_eq(row_a, row_b));
        let cell = |row: &EntityDelta, attr: usize| row.cells[attr].clone().expect("cell");
        assert!(!Arc::ptr_eq(&cell(row_a, a0), &cell(row_b, a0)));
        assert!(Arc::ptr_eq(&cell(row_a, a1), &cell(row_b, a1)));
        assert!(Arc::ptr_eq(&row_a.term_freqs, &row_b.term_freqs));
        // Reviewer shards: only the new reviewer's was copied.
        let touched = 800_100 % REVIEWER_SHARDS;
        for (shard, (a, b)) in before.reviewers.iter().zip(&after.reviewers).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), shard != touched, "shard {shard}");
        }
        // A batch that touches entities and reviewers of one chunk and
        // one shard copied: the chunk, the row, one cell, the shard.
        let copied = |db: &OpineDb| db.cache_report().delta_rows_copied;
        let at = copied(&db);
        insert(&db, 70, &p0, 2021, Some(800_100 + REVIEWER_SHARDS));
        assert_eq!(copied(&db) - at, 4);
    }

    #[test]
    fn copies_per_publish_do_not_grow_with_the_stream() {
        let _guard = merge_test_lock();
        let db = db();
        let phrase = db.opinion_domains[0].variations()[0].phrase.clone();
        let attributes = db.attributes.len() as u64;
        // A periodic stream: four rows a batch to rotating entities by
        // new reviewers, one reviewer returning every eighth batch; the
        // default threshold merges inline every sixteenth.
        const BATCHES: usize = 400;
        const ROWS: usize = 4;
        let mut per_batch = Vec::with_capacity(BATCHES);
        let mut last = 0;
        for batch in 0..BATCHES {
            let rows: Vec<String> = (0..ROWS)
                .map(|r| {
                    let entity = db.entity_key((batch * ROWS + r) % db.num_entities());
                    let reviewer = if batch % 8 == 0 && r == 0 {
                        700_000
                    } else {
                        710_000 + batch * ROWS + r
                    };
                    format!("('{entity}', 'really {phrase} again', 2020, {reviewer})")
                })
                .collect();
            db.insert_sql(&format!(
                "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES {}",
                rows.join(", ")
            ))
            .unwrap();
            let total = db.cache_report().delta_rows_copied;
            per_batch.push(total - last);
            last = total;
        }
        assert_eq!(db.cache_report().delta_merges as usize, BATCHES * ROWS / 64);
        // Per publish: each row copies at most its entity row, spine
        // chunk, reviewer shard and the cells it mentions; a returning
        // reviewer and a merge add at most the spine and the tail's rows.
        let spine = db.pinned().delta.spine.len() as u64;
        let bound = ROWS as u64 * (3 + attributes) + spine + 64;
        let (first, tail) = (&per_batch[48..96], &per_batch[BATCHES - 48..]);
        assert!(per_batch.iter().all(|&c| c <= bound), "{per_batch:?}");
        // Three whole periods each, 300 batches apart: the same cost.
        assert_eq!(
            tail.iter().sum::<u64>(),
            first.iter().sum::<u64>(),
            "first {first:?} last {tail:?}"
        );
    }

    #[test]
    fn failed_merge_leaves_the_serving_generation_pointer_identical() {
        let _guard = merge_test_lock();
        let db = db();
        let phrase = db.opinion_domains[0].variations()[0].phrase.clone();
        for entity in 0..5 {
            insert(&db, entity, &format!("so {phrase}"), 2018, None);
        }
        let before = db.ingest.cell.load();
        let report = db.cache_report();
        opine_faults::configure("mid_merge=panic@1", 7).expect("valid spec");
        let failed = db.merge_delta();
        opine_faults::clear();
        assert!(failed.is_err());
        let after = db.ingest.cell.load();
        assert_eq!(after.epoch(), before.epoch());
        // The same generation object: spine, rows, log and shards of
        // the serving generation cannot have been touched.
        assert!(Arc::ptr_eq(before.value(), after.value()));
        for entity in 0..5 {
            let (chunk_a, row_a) = nodes(before.value(), entity);
            let (chunk_b, row_b) = nodes(after.value(), entity);
            assert!(Arc::ptr_eq(chunk_a, chunk_b) && Arc::ptr_eq(row_a, row_b));
            assert_eq!(row_b.term_freqs.len(), 0, "no text was folded");
        }
        let now = db.cache_report();
        assert_eq!(now.delta_rows_copied, report.delta_rows_copied);
        assert_eq!(now.delta_bytes, report.delta_bytes);
        assert_eq!(now.delta_merges, report.delta_merges);
        assert_eq!(now.failed_merges, report.failed_merges + 1);
    }

    #[test]
    fn with_pin_installs_and_restores() {
        assert!(current_pin().is_none());
        let pin = Pin {
            epoch: 3,
            delta: Arc::new(DeltaState::default()),
        };
        with_pin(Some(pin.clone()), || {
            assert_eq!(current_pin().expect("pinned").epoch, 3);
            // Nesting replaces, exit restores the outer pin.
            with_pin(
                Some(Pin {
                    epoch: 4,
                    delta: Arc::new(DeltaState::default()),
                }),
                || assert_eq!(current_pin().expect("pinned").epoch, 4),
            );
            assert_eq!(current_pin().expect("outer pin restored").epoch, 3);
        });
        assert!(current_pin().is_none());
    }

    #[test]
    fn with_pin_restores_after_panic() {
        let result = std::panic::catch_unwind(|| {
            with_pin(
                Some(Pin {
                    epoch: 1,
                    delta: Arc::new(DeltaState::default()),
                }),
                || panic!("boom"),
            )
        });
        assert!(result.is_err());
        assert!(current_pin().is_none(), "drop guard must restore the pin");
    }

    #[test]
    fn matcher_prefers_longest_phrase_at_an_anchor() {
        // A hand-built matcher (domains need an embedder; the map is
        // enough to exercise the scan logic).
        let mut m = PhraseMatcher::default();
        m.by_first.insert(
            "very".into(),
            vec![
                (0, 1, vec!["very".into(), "clean".into()]),
                (0, 2, vec!["very".into()]),
            ],
        );
        m.by_first
            .insert("clean".into(), vec![(0, 0, vec!["clean".into()])]);
        let occs = m.extract("the room was very clean indeed");
        // "very clean" wins at the anchor "very"; "clean" still matches
        // at its own anchor one token later.
        assert_eq!(occs, vec![(0, 1), (0, 0)]);
        assert_eq!(m.extract("nothing matches here"), vec![]);
    }
}
