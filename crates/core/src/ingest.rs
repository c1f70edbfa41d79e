//! Live ingest: the mutable delta segment behind snapshot-isolated reads,
//! and the writer that grows it.
//!
//! A built [`crate::OpineDb`] is immutable — its relational tables,
//! phrase occurrences, feature plane and indexes are frozen artifacts.
//! Reviews inserted at serve time land in a [`DeltaState`]: a copy-on-write
//! value published through a [`crate::snapshot::SnapshotCell`]. Every
//! read entry point takes one [`Pin`] of it with [`OpineDb::pin`] and
//! hands that pin down as an argument, so a whole statement reads
//! exactly one delta generation and a half-applied `INSERT` batch is
//! never observable.
//!
//! The **model plane stays frozen**: vocabulary, embeddings, sentiment,
//! interpreter, membership functions, and marker sets are fixed at
//! build time. The delta only moves the **data plane** — relational
//! rows (a [`TableOverlay`]), per-entity/per-reviewer counts, marker
//! summaries (phrase occurrences are extracted at insert time by exact
//! token matching against the frozen opinion domains; a cell an insert
//! mentions becomes a [`DeltaCell`] whose summary covers the whole
//! cell, so a read scores it as it stands, whatever the uptime), and
//! each review's in-vocabulary term frequencies, which the text
//! fallback reads beside the build's review postings. Every effect of
//! an insert, text retrieval (BM25) included, is visible at the
//! insert's own epoch; a merge only seals the relational overlay.
//!
//! ## Cost shape
//!
//! A generation is **entity-major and shared structurally** with its
//! predecessor: one `Arc<EntityDelta>` row per touched entity behind a
//! two-level spine, review metadata in sealed chunks plus a tail,
//! reviewer counts in fixed copy-on-write shards. Publishing a batch
//! copies the spine and the rows, chunks and shards the batch touches —
//! never the rest. Readers bring an artifact stamped at epoch *s* to a
//! pin at epoch *e* by asking [`DeltaState::changed_since`] which
//! entities moved in (*s*, *e*].

use crate::db::{Csr, OpineDb, OpineError, PhraseOcc, ReviewMeta};
use crate::domain::LinguisticDomain;
use crate::snapshot::SnapshotCell;
use crate::summary::{MarkerSummary, PhraseContribution};
use opine_store::{parse_insert, InsertStmt, StoreError, TableOverlay, Value};
use opine_text::WordId;
use parking_lot::Mutex;
use std::cmp::Reverse;
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
/// the marker summary of the whole cell, maintained at insert time so
/// the unqualified read path scores it as it stands.
#[derive(Debug, Clone)]
pub(crate) struct DeltaCell {
    /// Every delta occurrence, in insert order.
    pub occs: Vec<PhraseOcc>,
    /// Marker summary over the cell's build-time occurrences and `occs`:
    /// seeded at the first delta occurrence by folding the build-time
    /// ones, then grown by one `add` per delta occurrence.
    pub summary: MarkerSummary,
}

/// Everything the delta holds about one entity. Immutable once
/// published; a batch that touches the entity publishes a copy, which
/// still shares the cells the batch did not mention.
#[derive(Debug, Clone, Default)]
pub(crate) struct EntityDelta {
    /// Delta reviews of the entity.
    pub reviews: u32,
    /// Per attribute, `None` until a delta review mentions it.
    cells: Vec<Option<Arc<DeltaCell>>>,
}

/// One chunk of the entity spine: the rows and, beside them, the two
/// version stamps of each entity — in the chunk, not the row, so a
/// reader checks freshness without touching the row and a writer that
/// only re-qualifies an entity copies no row.
#[derive(Debug, Clone)]
struct SpineChunk {
    /// Per entity, the epoch of its last insert, which moves its
    /// summaries and its text. Epoch-stamped cache entries compare
    /// against this to stay precise: an entity untouched since an entry
    /// was stamped never invalidates it.
    versions: [u64; SPINE_CHUNK],
    /// Per entity, the epoch of the last change to what a
    /// review-qualified summary of it aggregates: its own inserts, and
    /// a review gained elsewhere by any author of one of its reviews
    /// (live reviewer counts move those reviews across
    /// `reviewer_min_count` thresholds).
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

/// A review's text as BM25 reads it: its in-vocabulary words with
/// their frequencies, ascending by word. Tokens outside the frozen
/// vocabulary are dropped and do not count towards its length, as the
/// build's review index never saw them.
type ReviewTerms = Arc<[(WordId, u32)]>;

fn review_terms(mut words: Vec<WordId>) -> ReviewTerms {
    words.sort_unstable();
    let runs = words.chunk_by(|a, b| a == b);
    runs.map(|run| (run[0], run.len() as u32)).collect()
}

/// One delta review in the log: its metadata, the length of its text
/// and the previous delta review by the same reviewer, so "which
/// entities did this reviewer touch" is a walk through the append-only
/// log instead of a growing per-reviewer list.
#[derive(Debug, Clone, Copy)]
struct LoggedReview {
    meta: ReviewMeta,
    previous_by_reviewer: u32,
    /// In-vocabulary tokens of its text.
    len: u32,
}

/// A sealed chunk of the review log: its reviews and the postings of
/// their text, `(word, offset in the chunk, tf)` sorted, so the text
/// fallback finds a word's reviews by binary search.
#[derive(Debug)]
struct SealedChunk {
    reviews: Vec<LoggedReview>,
    postings: Vec<(WordId, u16, u32)>,
}

/// The append-only log of delta reviews: full chunks are sealed and
/// shared between generations, only the tail is copied.
#[derive(Debug, Clone, Default)]
struct ReviewLog {
    sealed: Vec<Arc<SealedChunk>>,
    tail: Vec<LoggedReview>,
    /// The terms of the tail's reviews, index-aligned with it.
    tail_terms: Vec<ReviewTerms>,
    /// The in-vocabulary tokens of every review in the log.
    text_len: u64,
}

impl ReviewLog {
    fn len(&self) -> usize {
        self.sealed.len() * LOG_CHUNK + self.tail.len()
    }

    fn get(&self, i: usize) -> LoggedReview {
        match self.sealed.get(i / LOG_CHUNK) {
            Some(chunk) => chunk.reviews[i % LOG_CHUNK],
            None => self.tail[i % LOG_CHUNK],
        }
    }

    fn push(&mut self, review: LoggedReview, terms: ReviewTerms) {
        self.text_len += u64::from(review.len);
        self.tail.push(review);
        self.tail_terms.push(terms);
        if self.tail.len() == LOG_CHUNK {
            let mut postings = Vec::new();
            for (i, terms) in (0u16..).zip(self.tail_terms.drain(..)) {
                opine_faults::checkpoint();
                postings.extend(terms.iter().map(|&(word, tf)| (word, i, tf)));
            }
            postings.sort_unstable();
            let reviews = std::mem::take(&mut self.tail);
            let chunk = SealedChunk { reviews, postings };
            self.sealed.push(Arc::new(chunk));
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
    /// The epoch of the last insert that added in-vocabulary text — the
    /// last move of the corpus statistics every text fallback column
    /// reads.
    pub text_epoch: u64,
    /// Anonymous reviewer ids handed out so far (see
    /// [`Self::draw_anonymous_reviewer`]).
    anonymous_drawn: usize,
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

    /// The marker summary of one cell a delta review mentioned, over
    /// all its occurrences, build-time and delta.
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

    /// The text length of every delta review together: what the delta
    /// adds to the text fallback's total length.
    pub fn text_len(&self) -> u64 {
        self.log.text_len
    }

    /// Every delta review's metadata and text length, in log order.
    pub fn review_lengths(&self) -> impl Iterator<Item = (ReviewMeta, u32)> + '_ {
        let sealed = self.log.sealed.iter().flat_map(|chunk| &chunk.reviews);
        sealed
            .chain(&self.log.tail)
            .map(|review| (review.meta, review.len))
    }

    /// The metadata of every delta review holding `word`, with its
    /// frequency in it: a binary search per sealed chunk, then the tail.
    pub fn reviews_holding(&self, word: WordId) -> impl Iterator<Item = (ReviewMeta, u32)> + '_ {
        let sealed = self.log.sealed.iter().flat_map(move |chunk| {
            let from = chunk.postings.partition_point(|&(w, _, _)| w < word);
            let postings = chunk.postings[from..].iter();
            let postings = postings.take_while(move |&&(w, _, _)| w == word);
            postings.map(|&(_, i, tf)| (chunk.reviews[usize::from(i)].meta, tf))
        });
        let tail = self.log.tail.iter().zip(&self.log.tail_terms);
        sealed.chain(tail.filter_map(move |(review, terms)| {
            let i = terms.binary_search_by_key(&word, |&(w, _)| w).ok()?;
            Some((review.meta, terms[i].1))
        }))
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
            })
            .sum();
        let sealed: usize = self.log.sealed.iter().map(|c| c.postings.len()).sum();
        let tail: usize = self.log.tail_terms.iter().map(|terms| terms.len()).sum();
        let texts = sealed * size_of::<(WordId, u16, u32)>() + tail * size_of::<(WordId, u32)>();
        let reviewers: usize = self
            .reviewers
            .iter()
            .map(|shard| shard.capacity() * size_of::<(usize, ReviewerDelta)>())
            .sum();
        rows + self.spine.iter().flatten().count() * size_of::<SpineChunk>()
            + self.log.len() * size_of::<LoggedReview>()
            + texts
            + reviewers
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
    fn log_review(&mut self, meta: ReviewMeta, terms: ReviewTerms, copied: &mut u64) {
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
        let len = terms.iter().map(|&(_, tf)| tf).sum();
        self.log.push(
            LoggedReview {
                meta,
                previous_by_reviewer,
                len,
            },
            terms,
        );
    }
}

impl EntityDelta {
    /// Adds one extracted occurrence to a cell and folds it into the
    /// cell's summary; a cell's first delta occurrence starts from
    /// `seed`, the summary of its build-time occurrences.
    fn push_occurrence(
        &mut self,
        attribute: usize,
        seed: impl FnOnce() -> MarkerSummary,
        occ: PhraseOcc,
        contribution: &PhraseContribution,
        copied: &mut u64,
    ) {
        if self.cells.len() <= attribute {
            self.cells.resize_with(attribute + 1, || None);
        }
        let cell = cow(
            self.cells[attribute].get_or_insert_with(|| {
                Arc::new(DeltaCell {
                    occs: Vec::new(),
                    summary: seed(),
                })
            }),
            copied,
        );
        cell.summary.add(contribution);
        cell.occs.push(occ);
    }
}

/// A statement's pinned delta generation: the epoch and the
/// generation's shared state. A read entry point takes one with
/// [`OpineDb::pin`] and passes it to every read beneath it.
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

/// Snapshot pins: how the engine's read paths get at their generation.
impl OpineDb {
    /// The currently published delta generation — the one way a read
    /// takes its pin. A public read calls this once and hands the pin
    /// down, so everything it reads shares one epoch.
    pub(crate) fn pin(&self) -> Pin {
        let snap = self.ingest.cell.load();
        Pin {
            epoch: snap.epoch(),
            delta: snap.value().clone(),
        }
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
        let base = self.raw.row(entity * self.attributes.len() + attribute);
        base.iter().chain(delta_occs)
    }

    /// The summary of one cell at `pin` over the occurrences `accept`
    /// keeps, each adding its variation's tabulated contribution — the
    /// one fold behind [`Self::summary`], every review-qualified
    /// summary, and the seed of a delta cell.
    pub(crate) fn fold_cell(
        &self,
        entity: usize,
        attribute: usize,
        pin: &Pin,
        accept: impl Fn(&PhraseOcc) -> bool,
    ) -> MarkerSummary {
        let contributions = &self.contributions[attribute];
        let mut summary = MarkerSummary::empty(self.marker_set(attribute).markers.len());
        for occ in self.occurrences_at(entity, attribute, pin) {
            opine_faults::checkpoint();
            if accept(occ) {
                summary.add(&contributions[occ.variation as usize]);
            }
        }
        summary
    }

    /// Metadata of a review by global id: base reviews first, then the
    /// pinned delta's (delta review `i` has id `base_count + i`).
    #[inline]
    pub(crate) fn review_meta_at(&self, delta: &DeltaState, review_id: u32) -> ReviewMeta {
        let review_id = review_id as usize;
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
    by_first: HashMap<String, Vec<(usize, u32, Vec<String>)>>,
}

impl PhraseMatcher {
    /// Builds the matcher from the engine's frozen opinion domains.
    pub fn build(domains: &[LinguisticDomain]) -> Self {
        let mut by_first: HashMap<String, Vec<(usize, u32, Vec<String>)>> = HashMap::new();
        for (attr, domain) in domains.iter().enumerate() {
            for (var, variation) in (0u32..).zip(domain.variations()) {
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
    /// a text's `tokens` ([`opine_text::tokenize`]), in scan order. The
    /// longest candidate phrase wins at an anchor position, and the
    /// scan resumes after it, so no token counts toward two
    /// occurrences: "not nice cocktails" is `not nice`, never also
    /// `nice`. That matches how extraction yields one opinion term per
    /// expression.
    pub fn extract(&self, tokens: &[String]) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < tokens.len() {
            opine_faults::checkpoint();
            let longest = self.by_first.get(&tokens[start]).and_then(|candidates| {
                candidates
                    .iter()
                    .filter(|(_, _, phrase)| tokens[start..].starts_with(phrase))
                    .min_by_key(|(_, _, phrase)| Reverse(phrase.len()))
            });
            match longest {
                Some((attr, var, phrase)) => {
                    out.push((*attr, *var));
                    start += phrase.len();
                }
                None => start += 1,
            }
        }
        out
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
    /// Base reviewer id → the entities of the reviews they wrote. Built
    /// on the first insert by a reviewer the base knows (like the
    /// matcher, not at build): that insert moves the reviewer's live
    /// count, so every entity they reviewed must re-qualify.
    pub reviewer_entities: OnceLock<Csr<u32>>,
    /// Base entity → the ids of its reviews. Built by the first repair
    /// of a review-qualified set, which sums each repaired entity's
    /// accepted text length over them.
    pub entity_reviews: OnceLock<Csr<u32>>,
}

impl IngestState {
    /// Heap bytes of the two base review indexes, once built.
    pub fn index_bytes(&self) -> usize {
        let bytes = |index: &OnceLock<Csr<u32>>| index.get().map_or(0, Csr::memory_bytes);
        bytes(&self.reviewer_entities) + bytes(&self.entity_reviews)
    }

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
            entity_reviews: OnceLock::new(),
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

/// The engine-assigned id of a review appended after `existing` ones,
/// or the rejection of a batch whose ids would pass the 32 bits a
/// [`PhraseOcc`] stores.
fn next_review_id(existing: usize) -> Result<u32, OpineError> {
    u32::try_from(existing).map_err(|_| {
        insert_error(format!(
            "review id {existing} would pass u32::MAX: the engine holds its maximum review count"
        ))
    })
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
    /// virtual `text` column carries the review text, tokenized once
    /// for insert-time phrase extraction and for the review's
    /// in-vocabulary term frequencies, which the text fallback counts
    /// from this epoch on; `reviewer_id`, `year`, and `helpful_votes` are
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
        // The generation this batch extends, and reads its seeds at.
        let base = self.pin();
        // Single writer (the lock above) ⇒ the next publish gets
        // exactly this epoch; inserted entities are stamped with it.
        let new_epoch = base.epoch + 1;
        let mut next = DeltaState::clone(&base.delta);
        let mut copied = 0u64;
        let matcher = self
            .ingest
            .matcher
            .get_or_init(|| PhraseMatcher::build(&self.opinion_domains));
        for row in &rows {
            opine_faults::checkpoint();
            let review_id = next_review_id(self.review_meta.len() + next.reviews())?;
            let reviewer_id = row
                .reviewer_id
                .unwrap_or_else(|| next.draw_anonymous_reviewer(self.reviewer_counts.len()));
            next.overlay.push_row(
                "reviews",
                vec![
                    Value::Int(i64::from(review_id)),
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
                    let metas = self.review_meta.iter();
                    let tagged = metas.map(|m| (m.reviewer_id, m.entity_id as u32));
                    Csr::group(self.reviewer_counts.len(), tagged)
                });
                for &entity in index.row(reviewer_id) {
                    opine_faults::checkpoint();
                    next.requalify(entity as usize, new_epoch, &mut copied);
                }
            }
            for entity in next.reviewer_entities(reviewer_id) {
                opine_faults::checkpoint();
                next.requalify(entity, new_epoch, &mut copied);
            }
            let tokens = opine_text::tokenize(&row.text);
            let terms = review_terms(
                tokens
                    .iter()
                    .filter_map(|token| self.vocab().get(token))
                    .collect(),
            );
            if !terms.is_empty() {
                next.text_epoch = new_epoch;
            }
            next.log_review(
                ReviewMeta {
                    entity_id: row.entity,
                    reviewer_id,
                    year: row.year,
                    helpful_votes: row.helpful_votes,
                },
                terms,
                &mut copied,
            );
            next.unsealed_reviews += 1;
            next.requalify(row.entity, new_epoch, &mut copied);
            let entity = next.row_mut(row.entity, new_epoch, &mut copied);
            entity.reviews += 1;
            // Insert-time extraction against the frozen domains: each
            // occurrence lands in its cell and folds into the cell's
            // running summary through its variation's tabulated
            // contribution. A cell new to `next` is absent from `base`,
            // so its fold at `base` is its build-time summary.
            for (attr, variation) in matcher.extract(&tokens) {
                opine_faults::checkpoint();
                entity.push_occurrence(
                    attr,
                    || self.fold_cell(row.entity, attr, &base, |_| true),
                    PhraseOcc {
                        variation,
                        review_id,
                    },
                    &self.contributions[attr][variation as usize],
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
    /// into an `Arc`-shared chunk and publishes with a single epoch
    /// bump. No degree moves: every review already counted, its text
    /// included, from its insert's epoch. The cost is the tail's, not
    /// the delta's. On failure (an injected `mid_merge` fault, a
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
            next.overlay.seal();
            next.unsealed_reviews = 0;
            next
        }));
        match built {
            Ok(next) => {
                let epoch = self.ingest.cell.publish(next);
                debug_assert_eq!(epoch, new_epoch);
                self.ingest.delta_merges.fetch_add(1, Relaxed);
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
    use crate::db::{AtPin, QueryOutput};
    use crate::interpret::{Interpretation, InterpreterConfig};
    use crate::qualified::same_row;
    use opine_corpus::hotel::hotel_spec;
    use opine_corpus::{Corpus, CorpusConfig};
    use opine_embed::Word2VecConfig;
    use opine_ir::{DocId, InvertedIndex};
    use opine_store::{FuzzyAlgebra, ReviewQualifier};
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
        let delta = db.pin().delta;
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

    fn same_set(a: &crate::QualifiedSet, b: &[Vec<MarkerSummary>]) -> bool {
        let mut cells = b.iter().enumerate().flat_map(|(e, row)| {
            row.iter()
                .enumerate()
                .map(move |(attr, summary)| (e, attr, summary))
        });
        cells.all(|(e, attr, summary)| same_row(a, e, attr, summary))
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
        // The rescan of the current generation, `pin`, with its
        // reviewer counts.
        let rescan = |pin: &Pin| {
            db.summaries_with_review_filter(|m| {
                qualifier.accepts(m.year, db.reviewer_count_at(&pin.delta, m.reviewer_id))
            })
        };
        insert(&db, 1, &format!("so {phrase}"), 2015, Some(900_001));
        let old_pin = db.pin();
        let old_set = rescan(&old_pin);
        // The base reviewer returns: its other review now counts.
        insert(&db, 2, &format!("very {phrase}"), 2016, Some(reviewer));
        let new_set = rescan(&db.pin());
        assert!(
            !same_set(&db.summaries_qualified(&qualifier), &old_set),
            "fixture: the publish must change the qualified set"
        );
        // The cache now holds the set of the newer epoch; the old pin
        // still gets its own generation's, privately.
        let sets_before = db.cache_report().filtered_summary_sets;
        let under_old_pin = db.summaries_qualified_at(&qualifier, &old_pin);
        assert!(same_set(&under_old_pin, &old_set));
        assert_eq!(db.cache_report().filtered_summary_sets, sets_before);
        assert!(same_set(&db.summaries_qualified(&qualifier), &new_set));
    }

    /// Rows and score bits of an answer, for comparing two of them.
    fn answer_bits(out: &QueryOutput) -> Vec<(Vec<Value>, u64)> {
        let rows = out.result.rows.iter();
        rows.map(|(row, score)| (row.clone(), score.to_bits()))
            .collect()
    }

    /// A statement evaluated at a pin taken before an INSERT answers as
    /// the database did then, fast path and reference alike, while the
    /// current pin sees the insert.
    #[test]
    fn a_statement_at_an_old_pin_answers_as_before_the_insert() {
        let db = db();
        let phrase = db.opinion_domains[0].variations()[0].phrase.clone();
        let (table, attribute) = (db.entity_table(), &db.attributes[0]);
        let sql = format!("select * from {table} where {attribute} .= \"{phrase}\"");
        let select = opine_store::parse_select(&sql).unwrap();
        let at = |pin: &Pin| -> QueryOutput {
            let engine = AtPin {
                db: &db,
                pin: pin.clone(),
            };
            let out = engine.query_select(&select, FuzzyAlgebra::Product);
            out.unwrap().into()
        };
        let before = db.query(&sql).unwrap();
        let pin = db.pin();
        for year in 2015..2020 {
            insert(&db, 0, &format!("so {phrase}"), year, None);
        }
        assert_ne!(
            answer_bits(&at(&db.pin())),
            answer_bits(&before),
            "fixture: the inserts must move the answer"
        );
        // The cache now holds the newer column; the old pin reads its own.
        assert_eq!(answer_bits(&at(&pin)), answer_bits(&before));
        let reference = db.reference_at(pin).query(&sql).unwrap();
        assert_eq!(answer_bits(&reference), answer_bits(&before));
    }

    /// The in-vocabulary token ids of `text`.
    fn known(db: &OpineDb, text: &str) -> Vec<WordId> {
        opine_text::tokenize(text)
            .iter()
            .filter_map(|token| db.vocab().get(token))
            .collect()
    }

    /// Every entity's fallback degree bits for `predicate` under an
    /// index rebuilt from scratch with one document per entity, `docs`:
    /// the in-vocabulary tokens of its build-time reviews, then of the
    /// texts inserted for it — what a database rebuilt from every review
    /// at the pin would score. It reads nothing of the engine but the
    /// frozen vocabulary and the fallback's constant.
    fn text_degrees_by_rebuilt_index(
        db: &OpineDb,
        docs: &[Vec<WordId>],
        predicate: &str,
    ) -> Vec<u64> {
        let mut index = InvertedIndex::new();
        for doc in docs {
            index.add_terms(doc);
        }
        let terms = db.text_terms(predicate);
        let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        (0..docs.len())
            .map(|e| sigmoid(index.bm25(DocId(e as u32), &terms) - db.config.sigmoid_c).to_bits())
            .collect()
    }

    /// After every insert, merged or not, the reference, a cold column
    /// and a warm column carried across all the inserts equal the
    /// rebuilt index bit for bit — past a sealed chunk of the review
    /// log, so both the chunk's postings and the tail are read.
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
            // Warm from here on: the cache is never cleared.
            db.degree_column(predicate);
        }
        let n = db.num_entities();
        let mut docs = vec![Vec::new(); n];
        for review in &corpus.reviews {
            docs[review.entity_id].extend(known(&db, &review.text));
        }
        let mut rng = StdRng::seed_from_u64(77);
        let mut merges = 0;
        for step in 0..LOG_CHUNK + 40 {
            let entity = rng.gen_range(0..n);
            // Donor text is in-vocabulary; one insert in five has no
            // in-vocabulary word at all.
            let donor = &corpus.reviews[rng.gen_range(0..corpus.reviews.len())].text;
            let text: String = match rng.gen_range(0..5) {
                0 => format!("zzzunknown{step}"),
                _ => donor.chars().filter(|c| *c != '\'').collect(),
            };
            insert(&db, entity, &text, 2020, None);
            docs[entity].extend(known(&db, &text));
            if rng.gen_bool(0.3) {
                db.merge_delta().unwrap();
                merges += 1;
            }
            let pin = db.pin();
            for predicate in predicates {
                let want = text_degrees_by_rebuilt_index(&db, &docs, predicate);
                let bits =
                    |degrees: &[f64]| -> Vec<u64> { degrees.iter().map(|d| d.to_bits()).collect() };
                let reference: Vec<f64> = (0..n)
                    .map(|e| db.reference().degree(e, predicate))
                    .collect();
                assert_eq!(
                    bits(&reference),
                    want,
                    "step {step} {predicate:?}: reference"
                );
                let cold = db.text_degrees(&db.text_terms(predicate), &pin, None);
                assert_eq!(bits(&cold), want, "step {step} {predicate:?}: cold column");
                let warm = db.degree_column(predicate);
                assert_eq!(
                    bits(warm.degrees()),
                    want,
                    "step {step} {predicate:?}: warm column"
                );
            }
        }
        assert!(merges >= 5, "the schedule must merge repeatedly");
        assert_eq!(db.pin().delta.log.sealed.len(), 1);
    }

    /// Inserted text moves the corpus statistics every entity's BM25
    /// reads, so a warm fallback column must come out of an INSERT
    /// (and a merge) equal to a cold one at every entity, not only at
    /// the entity the insert touched.
    #[test]
    fn a_warm_fallback_column_equals_a_cold_one_after_text_elsewhere() {
        let _guard = merge_test_lock();
        let (_, db) = fixture(InterpreterConfig {
            theta1: 1.01,
            theta2: f64::INFINITY,
            ..Default::default()
        });
        db.set_merge_threshold(usize::MAX);
        let predicate = "clean rooms";
        assert_eq!(db.interpret(predicate), Interpretation::TextFallback);
        insert(&db, 3, "clean rooms clean", 2020, None);
        db.merge_delta().unwrap();
        db.degree_column(predicate);
        insert(&db, 5, "the rooms were clean and quiet", 2021, None);
        db.merge_delta().unwrap();
        let warm: Vec<u64> = db
            .degree_column(predicate)
            .degrees()
            .iter()
            .map(|d| d.to_bits())
            .collect();
        db.clear_degree_columns();
        let cold: Vec<u64> = db
            .degree_column(predicate)
            .degrees()
            .iter()
            .map(|d| d.to_bits())
            .collect();
        for (entity, (w, c)) in warm.iter().zip(&cold).enumerate() {
            assert_eq!(w, c, "entity {entity}: warm {w:#x} cold {c:#x}");
        }
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
                    .filter(|p| matches!(matcher.extract(&opine_text::tokenize(p)).as_slice(), [(a, _)] if *a == attr));
                Some((attr, own.next()?))
            });
        let (a0, p0) = phrases.next().expect("an extractable phrase");
        let (a1, p1) = phrases.next().expect("one of another attribute");
        let both = format!("{p0} and {p1}");
        for (i, entity) in [3, 70, 71, 140, 199].into_iter().enumerate() {
            insert(&db, entity, &both, 2019, Some(800_000 + i));
        }
        let before = db.pin().delta;
        // One more review of entity 70, mentioning the first attribute
        // only, by a reviewer of its own.
        insert(&db, 70, &p0, 2020, Some(800_100));
        let after = db.pin().delta;

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
        // did not mention.
        let (row_a, row_b) = (nodes(&before, 70).1, nodes(&after, 70).1);
        assert!(!Arc::ptr_eq(row_a, row_b));
        let cell = |row: &EntityDelta, attr: usize| row.cells[attr].clone().expect("cell");
        assert!(!Arc::ptr_eq(&cell(row_a, a0), &cell(row_b, a0)));
        assert!(Arc::ptr_eq(&cell(row_a, a1), &cell(row_b, a1)));
        // The copied log tail shares every earlier review's terms.
        assert_eq!(after.log.tail_terms.len(), before.log.tail_terms.len() + 1);
        for (a, b) in before.log.tail_terms.iter().zip(&after.log.tail_terms) {
            assert!(Arc::ptr_eq(a, b));
        }
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
        let spine = db.pin().delta.spine.len() as u64;
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
        }
        let now = db.cache_report();
        assert_eq!(now.delta_rows_copied, report.delta_rows_copied);
        assert_eq!(now.delta_bytes, report.delta_bytes);
        assert_eq!(now.delta_merges, report.delta_merges);
        assert_eq!(now.failed_merges, report.failed_merges + 1);
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
        m.by_first.insert(
            "not".into(),
            vec![(1, 3, vec!["not".into(), "nice".into()])],
        );
        m.by_first
            .insert("nice".into(), vec![(1, 4, vec!["nice".into()])]);
        let extract = |m: &PhraseMatcher, text: &str| m.extract(&opine_text::tokenize(text));
        // "very clean" wins at the anchor "very", and the scan resumes
        // after it: "clean" is not counted a second time.
        assert_eq!(extract(&m, "the room was very clean indeed"), vec![(0, 1)]);
        // Likewise "not nice" holds "nice"; a later "nice" counts.
        assert_eq!(extract(&m, "not nice cocktails"), vec![(1, 3)]);
        assert_eq!(
            extract(&m, "clean but not nice, nice view"),
            vec![(0, 0), (1, 3), (1, 4)]
        );
        assert_eq!(extract(&m, "nothing matches here"), vec![]);
    }

    #[test]
    fn review_ids_past_u32_max_are_rejected() {
        let last = usize::try_from(u32::MAX).unwrap();
        assert_eq!(next_review_id(last).unwrap(), u32::MAX);
        let err = next_review_id(last + 1).unwrap_err();
        assert!(
            matches!(err, OpineError::Store(StoreError::Execution(_))),
            "{err:?}"
        );
    }
}
