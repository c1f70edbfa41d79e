//! [`OpineDb`]: the end-to-end subjective database engine.
//!
//! Executes Subjective SQL by combining the relational executor of
//! `opine-store` with the interpreter, membership functions, and fuzzy
//! logic of this crate (Fig. 4 of the paper).

use crate::builder::BuildConfig;
use crate::cache::{BoundedCache, CacheStats};
pub use crate::column::DegreeColumn;
use crate::column::FeaturePlane;
use crate::domain::LinguisticDomain;
use crate::ingest::{DeltaState, IngestState, Pin};
use crate::interpret::{Interpretation, Interpreter};
use crate::membership::MembershipModel;
use crate::qualified::QualifiedSet;
use crate::summary::{MarkerSet, MarkerSummary, PhraseContribution};
use crate::topk::{scan_topk, threshold_topk};
use opine_embed::PhraseEmbedder;
use opine_ir::DocId;
use opine_sentiment::SentimentAnalyzer;
use opine_store::ast::ColumnRef;
use opine_store::exec::{BoundLeaf, Leaf, Scope, Subjective, SubjectiveScorer};
use opine_store::{
    execute, parse_select, Bitmap, Catalog, FuzzyAlgebra, Residue, ResultSet, ReviewQualifier,
    ScoredRows, Select, StoreError, Table, Value,
};
use opine_text::Vocab;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// One extracted phrase occurrence in an entity's raw digest — the one
/// copy of it the engine keeps. Its phrase, embedding and sentiment are
/// its variation's, read from the attribute's opinion domain.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhraseOcc {
    /// Index into the attribute's opinion domain.
    pub variation: u32,
    /// Source review id.
    pub review_id: u32,
}

/// Items grouped by row in compressed-sparse-row form: row `r` owns
/// `items[offsets[r]..offsets[r + 1]]`, in the order they were given —
/// two allocations of their final size, whatever the row count.
#[derive(Debug)]
pub(crate) struct Csr<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// Groups `(row, item)` pairs by row, a counting sort: `tagged` is
    /// walked to size the items, to count each row's and to place them.
    pub(crate) fn group(rows: usize, tagged: impl Iterator<Item = (usize, T)> + Clone) -> Self {
        u32::try_from(tagged.clone().count()).expect("u32 offsets hold < 2^32 items");
        let mut offsets = vec![0u32; rows + 1];
        for (row, _) in tagged.clone() {
            offsets[row + 1] += 1;
        }
        for row in 0..rows {
            offsets[row + 1] += offsets[row];
        }
        let mut items = vec![T::default(); offsets[rows] as usize];
        let mut next = offsets.clone();
        for (row, item) in tagged {
            items[next[row] as usize] = item;
            next[row] += 1;
        }
        Csr { offsets, items }
    }

    /// The items of row `r`.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[T] {
        &self.items[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Heap bytes of the offsets and the items (both exactly sized).
    pub(crate) fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..]) + std::mem::size_of_val(&self.items[..])
    }
}

/// Review metadata kept for review-qualifying filters.
#[derive(Debug, Clone, Copy)]
pub struct ReviewMeta {
    /// Reviewed entity.
    pub entity_id: usize,
    /// Author id.
    pub reviewer_id: usize,
    /// Publication year.
    pub year: u32,
    /// Helpful votes.
    pub helpful_votes: u32,
}

/// Errors surfaced by [`OpineDb`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpineError {
    /// SQL parse failure.
    Parse(String),
    /// Storage/execution failure.
    Store(StoreError),
    /// The request's deadline expired mid-execution: a cancellation
    /// checkpoint fired inside a long scan and the engine unwound to
    /// the query entry. The serving layer maps this to 504.
    QueryTimeout,
}

impl std::fmt::Display for OpineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpineError::Parse(m) => write!(f, "{m}"),
            OpineError::Store(e) => write!(f, "{e}"),
            OpineError::QueryTimeout => write!(f, "query cancelled: deadline exceeded"),
        }
    }
}

impl std::error::Error for OpineError {}

impl From<StoreError> for OpineError {
    fn from(e: StoreError) -> Self {
        OpineError::Store(e)
    }
}

/// A ranked query answer plus the interpretations that produced it.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The ranked relational result.
    pub result: ResultSet,
    /// `(predicate, interpretation)` for every natural-language predicate.
    pub interpretations: Vec<(String, Interpretation)>,
}

/// [`QueryOutput`]'s borrowing twin: the ranked rows reference the
/// catalog's storage instead of cloning every `Vec<Value>`, so a serving
/// layer can serialize the answer with zero per-row allocation.
#[derive(Debug)]
pub struct QueryRef<'a> {
    /// The ranked result, borrowing winning rows from the catalog.
    pub result: ScoredRows<'a>,
    /// `(predicate, interpretation)` for every natural-language predicate.
    pub interpretations: Vec<(String, Interpretation)>,
    /// The data epoch this query pinned: every read underneath saw
    /// exactly the delta generation published as `epoch`. The serving
    /// layer keys its result cache by `(statement, epoch)` so an
    /// `INSERT` invalidates cached answers without a flush.
    pub epoch: u64,
}

impl From<QueryRef<'_>> for QueryOutput {
    fn from(q: QueryRef<'_>) -> Self {
        QueryOutput {
            result: q.result.into_result_set(),
            interpretations: q.interpretations,
        }
    }
}

/// A point-in-time snapshot of every query-path cache, for the serving
/// layer's `/stats` endpoint and for benches.
#[derive(Debug, Clone, Copy)]
pub struct CacheReport {
    /// Interpretation memo hits/misses.
    pub interpretations: CacheStats,
    /// Prepared-phrase memo hits/misses.
    pub phrases: CacheStats,
    /// Always zero: the `(entity, predicate)` point-degree memo it
    /// counted is gone. Read only by `perfbench/src/run.rs`, and not
    /// exported through [`Self::fields`].
    pub points: CacheStats,
    /// Degree-column cache hits/misses, counting the probes for the term
    /// columns a co-occurrence column is folded from.
    pub columns: CacheStats,
    /// Number of dense degree columns currently cached, term columns
    /// included.
    pub cached_columns: usize,
    /// Heap bytes held by the cached degree columns, term columns
    /// included.
    pub column_bytes: usize,
    /// Heap bytes of the frozen feature plane (the entity half of the
    /// membership features; fixed at build time).
    pub feature_plane_bytes: usize,
    /// Heap bytes of the build-time phrase occurrences (`raw`: 8 per
    /// occurrence plus 4 per cell offset, one flat array each; fixed at
    /// build time).
    pub raw_bytes: usize,
    /// Heap bytes of the entity table's cells rendered to JSON at build
    /// (the text plus a `u32` offset per cell and one past the end;
    /// fixed at build time).
    pub rendered_cell_bytes: usize,
    /// Queries answered by the threshold-algorithm fast path (pure
    /// subjective conjunctions and pushdown queries combined).
    pub ta_queries: u64,
    /// TA fast-path queries that carried an objective-prefilter
    /// candidate bitmap (the paper's `price < 150 AND "clean rooms"`
    /// shape) — the pushdown counter the serving layer's `/stats`
    /// reports and CI guards.
    pub pushdown_queries: u64,
    /// Filtered-summary cache hits/misses (qualifier rendering →
    /// qualified set).
    pub filtered_summaries: CacheStats,
    /// Qualified sets currently cached.
    pub filtered_summary_sets: usize,
    /// Heap bytes held by the cached qualified sets: each set's feature
    /// plane and accepted text lengths, and once repaired its
    /// per-entity index and the rows beside the plane.
    pub qualified_set_bytes: usize,
    /// Review-qualified rankings served (`with reviews(...)` statements
    /// the ranking kernel answered) — the `filtered_summary_queries`
    /// counter in `/stats` that the serve-smoke CI job guards.
    pub filtered_summary_queries: u64,
    /// Cached qualified sets brought to a newer epoch by re-aggregating
    /// only the entities that changed since their stamp.
    pub qualified_repairs: u64,
    /// Entities those repairs re-aggregated.
    pub qualified_repaired_entities: u64,
    /// Cached qualified sets folded cold at a newer epoch because a
    /// repair would have left more than one entity in eight with a row
    /// beside the plane.
    pub qualified_refolds: u64,
    /// Top-k BM25 retrievals over the review index (co-occurrence
    /// interpretation; the text fallback scores every entity and
    /// retrieves no top k) — the `/stats` counter the serve-smoke CI job
    /// greps.
    pub wand_queries: u64,
    /// Always 0: retrieval scores every posting and skips no block. Kept
    /// only because the benchmark harness still reads it.
    pub blocks_skipped: u64,
    /// Queries cancelled mid-scan because their deadline expired
    /// (surfaced to callers as [`OpineError::QueryTimeout`]).
    pub timed_out_queries: u64,
    /// Faults triggered by the `opine_faults` failpoints (delays,
    /// injected errors, injected panics) — zero unless fault injection
    /// is armed. The chaos-smoke CI job greps this from `/stats`.
    pub faults_injected: u64,
    /// The current data epoch: bumped by every published `INSERT` batch
    /// and every completed delta merge. 0 until the first insert.
    pub ingest_epoch: u64,
    /// Delta reviews live in the current generation (level, not a
    /// counter: a future delta GC could shrink it).
    pub delta_reviews: u64,
    /// Reviews accepted by `INSERT` statements since startup.
    pub inserted_reviews: u64,
    /// Delta merges that published (sealed the unsealed rows of the
    /// relational overlay).
    pub delta_merges: u64,
    /// Delta merges that failed and were rolled back — the previous
    /// epoch kept serving. The chaos-smoke CI job greps this.
    pub failed_merges: u64,
    /// Delta nodes (entity rows, spine chunks, reviewer shards) that
    /// publishes copied — the copy-on-write cost of ingest.
    pub delta_rows_copied: u64,
    /// Approximate heap bytes of the current delta generation.
    pub delta_bytes: usize,
    /// Heap bytes of the base review indexes live ingest builds on
    /// first use: reviewer → entities (the first insert by a reviewer
    /// the base knows) and entity → reviews (the first repair of a
    /// qualified set).
    pub ingest_index_bytes: usize,
}

/// One exported value of a [`CacheReport`] field, typed so each metrics
/// surface can render it idiomatically (JSON object vs. Prometheus
/// counter/gauge lines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level that can go up or down.
    Gauge(u64),
    /// A cache's hit/miss pair.
    Cache(CacheStats),
}

impl CacheReport {
    /// Every public field as a `(name, value)` pair, in declaration
    /// order, under the names the `/stats` JSON uses. Both `/stats` and
    /// the `/metrics` Prometheus exposition render from this one list,
    /// so the two surfaces cannot drift apart.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, MetricValue)> {
        use MetricValue::{Cache, Counter, Gauge};
        [
            ("interpretations", Cache(self.interpretations)),
            ("phrases", Cache(self.phrases)),
            ("degree_columns", Cache(self.columns)),
            ("cached_degree_columns", Gauge(self.cached_columns as u64)),
            ("degree_column_bytes", Gauge(self.column_bytes as u64)),
            (
                "feature_plane_bytes",
                Gauge(self.feature_plane_bytes as u64),
            ),
            ("raw_bytes", Gauge(self.raw_bytes as u64)),
            (
                "rendered_cell_bytes",
                Gauge(self.rendered_cell_bytes as u64),
            ),
            ("ta_queries", Counter(self.ta_queries)),
            ("pushdown_queries", Counter(self.pushdown_queries)),
            ("filtered_summaries", Cache(self.filtered_summaries)),
            (
                "filtered_summary_sets",
                Gauge(self.filtered_summary_sets as u64),
            ),
            (
                "qualified_set_bytes",
                Gauge(self.qualified_set_bytes as u64),
            ),
            (
                "filtered_summary_queries",
                Counter(self.filtered_summary_queries),
            ),
            ("qualified_repairs", Counter(self.qualified_repairs)),
            (
                "qualified_repaired_entities",
                Counter(self.qualified_repaired_entities),
            ),
            ("qualified_refolds", Counter(self.qualified_refolds)),
            ("wand_queries", Counter(self.wand_queries)),
            ("timed_out_queries", Counter(self.timed_out_queries)),
            ("faults_injected", Counter(self.faults_injected)),
            ("ingest_epoch", Gauge(self.ingest_epoch)),
            ("delta_reviews", Gauge(self.delta_reviews)),
            ("inserted_reviews", Counter(self.inserted_reviews)),
            ("delta_merges", Counter(self.delta_merges)),
            ("failed_merges", Counter(self.failed_merges)),
            ("delta_rows_copied", Counter(self.delta_rows_copied)),
            ("delta_bytes", Gauge(self.delta_bytes as u64)),
            ("ingest_index_bytes", Gauge(self.ingest_index_bytes as u64)),
        ]
        .into_iter()
    }
}

/// A query phrase prepared for membership scoring: its normalized
/// embedding and sentiment, computed once instead of once per entity.
#[derive(Debug, Clone)]
pub struct PreparedPhrase {
    /// Normalized phrase embedding.
    pub rep: Vec<f32>,
    /// Phrase sentiment.
    pub sentiment: f64,
}

/// The subjective database engine.
pub struct OpineDb {
    /// Subjective attribute names, index-aligned with the domain spec.
    pub attributes: Vec<String>,
    vocab: Vocab,
    embedder: PhraseEmbedder,
    sentiment: SentimentAnalyzer,
    pub(crate) opinion_domains: Vec<LinguisticDomain>,
    interpreter: Interpreter,
    /// The entity half of the membership features of every build-time
    /// summary, frozen column-major (see [`crate::column`]).
    pub(crate) plane: FeaturePlane,
    /// Every build-time occurrence, row `entity · attributes +
    /// attribute` per cell ([`Self::occurrences_at`] reads it).
    pub(crate) raw: Csr<PhraseOcc>,
    pub(crate) membership_markers: MembershipModel,
    pub(crate) membership_scan: MembershipModel,
    catalog: Catalog,
    entity_table: String,
    pub(crate) entity_keys: Vec<String>,
    key_to_entity: HashMap<String, usize>,
    pub(crate) review_meta: Vec<ReviewMeta>,
    /// Reviews aggregated per entity, precomputed at build time (the
    /// old `review_count` walked every review per call).
    entity_review_counts: Vec<u32>,
    /// Per entity, the tokens of its build-time reviews in the review
    /// index: its document length to the text fallback before the
    /// delta.
    pub(crate) entity_text_len: Vec<u32>,
    /// Reviews written per reviewer id — the degree the qualifier's
    /// `reviewer_min_count` thresholds compare against.
    pub(crate) reviewer_counts: Vec<u32>,
    /// `[attribute][variation]`: what one occurrence of a variation adds
    /// to a summary, its sentiment applied. Every summary grows by
    /// entries of it, read by `PhraseOcc::variation` — the builder's,
    /// delta cells, qualified folds; only the reference's rescan
    /// recomputes the marker cosines.
    pub(crate) contributions: Vec<Vec<PhraseContribution>>,
    pub(crate) config: BuildConfig,
    /// Predicate → dense degree column over all entities, with its sorted
    /// order, stamped with the data epoch it was built (or last repaired)
    /// at. Keyed by predicate text so repeated queries reuse both the
    /// degrees and the sort. Beside them, in a key namespace no predicate
    /// text reaches, it holds the term columns that co-occurrence
    /// columns are folded from, keyed by their `(attribute, marker)`.
    /// Bounded: columns are the largest per-entry cache (8 bytes ×
    /// entities each).
    pub(crate) column_cache: BoundedCache<(u64, Arc<DegreeColumn>)>,
    /// Phrase → normalized embedding + sentiment, shared by the
    /// interpretation, marker-match (`attr .= "phrase"`), and column
    /// scoring paths.
    phrase_cache: BoundedCache<Arc<PreparedPhrase>>,
    /// Whether row `i` of the catalog's entity table is entity `i`,
    /// verified once at assembly ([`Self::rows_are_entities`]).
    entity_rows: bool,
    /// TA fast-path rankings served.
    ta_queries: std::sync::atomic::AtomicU64,
    /// TA rankings that carried an objective candidate bitmap.
    pushdown_queries: std::sync::atomic::AtomicU64,
    /// Qualifier rendering → qualified set stamped with the
    /// epoch it is exact for, so repeated review-qualified statements
    /// (the interactive case) skip even the fold and a newer pin repairs
    /// only what changed since the stamp.
    pub(crate) filtered_cache: BoundedCache<(u64, Arc<QualifiedSet>)>,
    /// Review-qualified rankings served (the `/stats`
    /// `filtered_summary_queries` counter).
    qualified_queries: std::sync::atomic::AtomicU64,
    /// Stale qualified sets repaired / entities they re-aggregated.
    pub(crate) qualified_repairs: std::sync::atomic::AtomicU64,
    pub(crate) qualified_repaired_entities: std::sync::atomic::AtomicU64,
    pub(crate) qualified_refolds: std::sync::atomic::AtomicU64,
    /// Queries cancelled by an expired deadline (mapped to
    /// [`OpineError::QueryTimeout`] at the query entry).
    timed_out_queries: std::sync::atomic::AtomicU64,
    /// Live ingest: the published delta generation, the writer lock,
    /// and the ingest counters.
    pub(crate) ingest: IngestState,
}

impl OpineDb {
    /// Assembles a database from prebuilt parts (used by [`crate::build`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        attributes: Vec<String>,
        vocab: Vocab,
        embedder: PhraseEmbedder,
        sentiment: SentimentAnalyzer,
        opinion_domains: Vec<LinguisticDomain>,
        interpreter: Interpreter,
        plane: FeaturePlane,
        raw: Csr<PhraseOcc>,
        contributions: Vec<Vec<PhraseContribution>>,
        membership_markers: MembershipModel,
        membership_scan: MembershipModel,
        catalog: Catalog,
        entity_table: String,
        entity_keys: Vec<String>,
        review_meta: Vec<ReviewMeta>,
        config: BuildConfig,
    ) -> Self {
        let key_to_entity: HashMap<String, usize> = entity_keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i))
            .collect();
        // As many rows as entities, and every row's key resolves — the
        // way `entity_of_value` resolves it for a by-key reader — to its
        // own position, which also rules out duplicate keys.
        let entity_rows = catalog.table(&entity_table).is_ok_and(|table| {
            table.len() == entity_keys.len()
                && table.rows().all(|row| {
                    let key = row.get(table.schema().key).to_value();
                    key.with_key_str(|s| key_to_entity.get(s).copied()) == Some(row.index())
                })
        });

        // Per-entity and per-reviewer review counts and per-entity text
        // lengths, all needed at query time: the first answers
        // `review_count` in O(1), the second resolves reviewer-degree
        // thresholds, the third is the text fallback's base length.
        let mut entity_review_counts = vec![0u32; entity_keys.len()];
        let mut entity_text_len = vec![0u32; entity_keys.len()];
        let max_reviewer = review_meta.iter().map(|m| m.reviewer_id).max();
        let mut reviewer_counts = vec![0u32; max_reviewer.map_or(0, |m| m + 1)];
        let review_index = interpreter.review_index();
        // lint:allow(checkpoint_coverage, reason = "construction path; no request deadline is armed during build")
        for (review, meta) in review_meta.iter().enumerate() {
            if let Some(c) = entity_review_counts.get_mut(meta.entity_id) {
                *c += 1;
            }
            if let Some(len) = entity_text_len.get_mut(meta.entity_id) {
                *len += review_index.doc_len(DocId(review as u32));
            }
            reviewer_counts[meta.reviewer_id] += 1;
        }

        Self {
            attributes,
            vocab,
            embedder,
            sentiment,
            opinion_domains,
            interpreter,
            plane,
            raw,
            membership_markers,
            membership_scan,
            catalog,
            entity_table,
            entity_keys,
            key_to_entity,
            review_meta,
            entity_review_counts,
            entity_text_len,
            reviewer_counts,
            contributions,
            config,
            column_cache: BoundedCache::new(256),
            phrase_cache: BoundedCache::new(4096),
            entity_rows,
            ta_queries: std::sync::atomic::AtomicU64::new(0),
            pushdown_queries: std::sync::atomic::AtomicU64::new(0),
            filtered_cache: BoundedCache::new(16),
            qualified_queries: std::sync::atomic::AtomicU64::new(0),
            qualified_repairs: std::sync::atomic::AtomicU64::new(0),
            qualified_repaired_entities: std::sync::atomic::AtomicU64::new(0),
            qualified_refolds: std::sync::atomic::AtomicU64::new(0),
            timed_out_queries: std::sync::atomic::AtomicU64::new(0),
            ingest: IngestState::new(),
        }
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.entity_keys.len()
    }

    /// The entity key (name) for a dense entity id.
    pub fn entity_key(&self, entity: usize) -> &str {
        &self.entity_keys[entity]
    }

    /// Dense entity id for a key, if known.
    pub fn entity_id(&self, key: &str) -> Option<usize> {
        self.key_to_entity.get(key).copied()
    }

    /// The name of the entity table ("hotels" / "restaurants").
    pub fn entity_table(&self) -> &str {
        &self.entity_table
    }

    /// The relational catalog (entities + reviews).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The marker set of an attribute.
    pub fn marker_set(&self, attribute: usize) -> &MarkerSet {
        &self.interpreter.marker_sets()[attribute]
    }

    /// The marker summary of an entity/attribute at the current pin:
    /// the fold of every occurrence of the cell, build-time and delta.
    pub fn summary(&self, entity: usize, attribute: usize) -> MarkerSummary {
        self.fold_cell(entity, attribute, &self.pin(), |_| true)
    }

    /// The vocabulary built over the corpus.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The phrase embedder (word2vec + IDF).
    pub fn embedder(&self) -> &PhraseEmbedder {
        &self.embedder
    }

    /// The sentiment analyzer.
    pub fn sentiment(&self) -> &SentimentAnalyzer {
        &self.sentiment
    }

    /// The three-stage interpreter.
    pub fn interpreter(&self) -> &Interpreter {
        &self.interpreter
    }

    /// How many TA fast-path rankings carried an objective candidate
    /// bitmap — the pushdown counter (also in [`Self::cache_report`]).
    pub fn pushdown_queries(&self) -> u64 {
        self.pushdown_queries
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Drops only the cached degree columns, leaving the interpretation
    /// and phrase memos warm — used to benchmark column construction in
    /// isolation.
    pub fn clear_degree_columns(&self) {
        self.column_cache.clear();
    }

    /// Drops every query-time cache: memoized interpretations, degree
    /// columns, and prepared phrases. Used by benches to measure the cold
    /// path honestly.
    pub fn clear_caches(&self) {
        self.interpreter.clear_cache();
        self.column_cache.clear();
        self.phrase_cache.clear();
        self.filtered_cache.clear();
    }

    /// Drops only the cached sets of review-qualified
    /// statements — used to benchmark the cold fold in isolation.
    pub fn clear_filtered_summaries(&self) {
        self.filtered_cache.clear();
    }

    /// Hit/miss counters of the interpretation memo.
    pub fn interp_cache_stats(&self) -> CacheStats {
        self.interpreter.cache_stats()
    }

    /// Hit/miss counters of the prepared-phrase memo.
    pub fn phrase_cache_stats(&self) -> CacheStats {
        self.phrase_cache.stats()
    }

    /// Number of cached degree columns: predicate columns and the term
    /// columns co-occurrence predicates are folded from.
    pub fn cached_degree_columns(&self) -> usize {
        self.column_cache.len()
    }

    /// Snapshot of every query-path cache (interpretations, phrases,
    /// degree columns) — the `/stats` payload's engine section.
    pub fn cache_report(&self) -> CacheReport {
        let mut column_bytes = 0usize;
        self.column_cache
            .for_each_value(|(_, c)| column_bytes += c.memory_bytes());
        let mut qualified_set_bytes = 0usize;
        self.filtered_cache
            .for_each_value(|(_, set)| qualified_set_bytes += set.memory_bytes());
        let delta = self.ingest.cell.load();
        CacheReport {
            interpretations: self.interpreter.cache_stats(),
            phrases: self.phrase_cache.stats(),
            points: CacheStats { hits: 0, misses: 0 },
            columns: self.column_cache.stats(),
            cached_columns: self.column_cache.len(),
            column_bytes,
            feature_plane_bytes: self.plane.memory_bytes(),
            raw_bytes: self.raw.memory_bytes(),
            rendered_cell_bytes: self
                .catalog
                .table(&self.entity_table)
                .map_or(0, |table| table.rendered_bytes()),
            ta_queries: self.ta_queries.load(std::sync::atomic::Ordering::Relaxed),
            pushdown_queries: self.pushdown_queries(),
            filtered_summaries: self.filtered_cache.stats(),
            filtered_summary_sets: self.filtered_cache.len(),
            qualified_set_bytes,
            filtered_summary_queries: self.qualified_queries.load(Relaxed),
            qualified_repairs: self.qualified_repairs.load(Relaxed),
            qualified_repaired_entities: self.qualified_repaired_entities.load(Relaxed),
            qualified_refolds: self.qualified_refolds.load(Relaxed),
            wand_queries: self.interpreter.review_index().wand_queries(),
            blocks_skipped: 0,
            timed_out_queries: self
                .timed_out_queries
                .load(std::sync::atomic::Ordering::Relaxed),
            faults_injected: opine_faults::injected_total(),
            ingest_epoch: delta.epoch(),
            delta_reviews: delta.value().reviews() as u64,
            inserted_reviews: self.ingest.inserted_reviews.load(Relaxed),
            delta_merges: self.ingest.delta_merges.load(Relaxed),
            failed_merges: self.ingest.failed_merges.load(Relaxed),
            delta_rows_copied: self.ingest.delta_rows_copied.load(Relaxed),
            delta_bytes: delta.value().memory_bytes(),
            ingest_index_bytes: self.ingest.index_bytes(),
        }
    }

    /// The marker-feature membership function.
    pub fn membership_markers(&self) -> &MembershipModel {
        &self.membership_markers
    }

    /// The raw-scan membership function (no-marker ablation).
    pub fn membership_scan(&self) -> &MembershipModel {
        &self.membership_scan
    }

    /// The opinion-level linguistic domain of an attribute.
    pub fn opinion_domain(&self, attribute: usize) -> &LinguisticDomain {
        &self.opinion_domains[attribute]
    }

    /// `(rep, sentiment)` views of every extracted phrase of an
    /// entity/attribute at the current pin, build-time then delta (the
    /// scan path's input).
    pub fn raw_phrases(&self, entity: usize, attribute: usize) -> Vec<(&[f32], f64)> {
        self.raw_phrases_at(entity, attribute, &self.pin())
    }

    /// [`Self::raw_phrases`] at `pin`.
    pub(crate) fn raw_phrases_at(
        &self,
        entity: usize,
        attribute: usize,
        pin: &Pin,
    ) -> Vec<(&[f32], f64)> {
        let variations = self.opinion_domains[attribute].variations();
        self.occurrences_at(entity, attribute, pin)
            .map(|occ| {
                let variation = &variations[occ.variation as usize];
                (variation.rep.as_slice(), variation.sentiment)
            })
            .collect()
    }

    /// The provenance of an entity/attribute's summary at the current
    /// pin: `(review id, phrase)` of every occurrence it aggregates, the
    /// build-time ones first, then the delta's in insert order — "which
    /// reviews is this summary made of" (Sec. 2).
    pub fn provenance(&self, entity: usize, attribute: usize) -> Vec<(usize, &str)> {
        let variations = self.opinion_domains[attribute].variations();
        self.occurrences_at(entity, attribute, &self.pin())
            .map(|occ| {
                let phrase = variations[occ.variation as usize].phrase.as_str();
                (occ.review_id as usize, phrase)
            })
            .collect()
    }

    /// Executes a Subjective SQL query (the paper's running example shape:
    /// `select * from hotels where price_pn < 150 and "clean rooms"`).
    pub fn query(&self, sql: &str) -> Result<QueryOutput, OpineError> {
        self.query_ref(sql).map(QueryOutput::from)
    }

    /// [`Self::query`] without materialization: the returned rows borrow
    /// the catalog, so serializing an answer clones nothing per row.
    pub fn query_ref(&self, sql: &str) -> Result<QueryRef<'_>, OpineError> {
        let select = parse_select(sql).map_err(|e| OpineError::Parse(e.to_string()))?;
        self.query_select_ref(&select)
    }

    /// Executes an already-parsed statement through the borrowing path —
    /// the parse-once/execute-many entry the serving layer's prepared
    /// queries use.
    ///
    /// The whole execution runs on the calling thread at one pin, taken
    /// here: row scans see {frozen tables + that generation's overlay
    /// rows}, and every degree, count, and qualified set underneath
    /// reads the same generation — snapshot isolation against
    /// concurrent `INSERT`s.
    pub fn query_select_ref(&self, select: &Select) -> Result<QueryRef<'_>, OpineError> {
        self.at_pin().query_select(select, FuzzyAlgebra::Product)
    }

    /// The engine at the current pin, as the executor's scorer: every
    /// leaf of a statement it scores, over the engine's catalog or any
    /// other (one extended with a joined table, say), reads that one
    /// generation.
    pub fn at_pin(&self) -> AtPin<'_> {
        AtPin {
            db: self,
            pin: self.pin(),
        }
    }

    /// A statement at `pin` with its subjective parts scored by `scorer`
    /// (the engine at `pin`, or a [`crate::reference`] at `pin`) and
    /// combined under `algebra`.
    pub(crate) fn query_select_with(
        &self,
        select: &Select,
        pin: &Pin,
        scorer: &dyn SubjectiveScorer,
        algebra: FuzzyAlgebra,
    ) -> Result<QueryRef<'_>, OpineError> {
        let interpretations = select
            .where_clause
            .as_ref()
            .map(|w| {
                w.subjective_predicates()
                    .into_iter()
                    .map(|p| (p.to_string(), self.interpret(p)))
                    .collect()
            })
            .unwrap_or_default();
        let result = execute(select, &self.catalog, scorer, algebra, pin.overlay())?;
        Ok(QueryRef {
            result,
            interpretations,
            epoch: pin.epoch,
        })
    }

    /// [`Self::query_select_ref`] under a request deadline: `deadline`
    /// is installed as the thread's ambient cancellation token for the
    /// duration of execution, so every long scan underneath (TA depth
    /// loops, posting accumulation, qualified-summary folds, row scoring)
    /// checkpoints against it at chunk boundaries.
    ///
    /// This is the **single catch site** for the cancellation unwind: an
    /// expired checkpoint panics with [`opine_faults::Cancelled`], which
    /// is caught here and mapped to the typed
    /// [`OpineError::QueryTimeout`] (and counted in
    /// [`CacheReport::timed_out_queries`]). Every other panic payload is
    /// resumed untouched for the serving layer's per-request isolation
    /// to handle. The unwind is state-safe: the workspace's locks never
    /// poison (`parking_lot` shim) and every bounded cache computes
    /// outside its lock, so a cancelled query cannot publish a partial
    /// result.
    pub fn query_select_ref_deadline(
        &self,
        select: &Select,
        deadline: Option<opine_faults::Deadline>,
    ) -> Result<QueryRef<'_>, OpineError> {
        if deadline.is_none() {
            return self.query_select_ref(select);
        }
        opine_faults::with_deadline(deadline, || {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Coarse entry checkpoint: an already-spent budget (or a
                // pre-cancelled token) times out before any work, even
                // for queries too small to reach a strided checkpoint.
                opine_faults::checkpoint_now();
                self.query_select_ref(select)
            })) {
                Ok(result) => result,
                Err(payload) if payload.is::<opine_faults::Cancelled>() => {
                    self.timed_out_queries
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Err(OpineError::QueryTimeout)
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    /// [`Self::query`] with an explicit fuzzy algebra (ablation hook).
    /// Either algebra takes the same plans: the ranking kernel combines
    /// a statement's degrees under the algebra it is given.
    pub fn query_with_algebra(
        &self,
        sql: &str,
        algebra: FuzzyAlgebra,
    ) -> Result<QueryOutput, OpineError> {
        let select = parse_select(sql).map_err(|e| OpineError::Parse(e.to_string()))?;
        self.at_pin()
            .query_select(&select, algebra)
            .map(QueryOutput::from)
    }

    /// Interprets a predicate through the interpreter's bounded memo.
    pub fn interpret(&self, predicate: &str) -> Interpretation {
        self.interpreter
            .interpret_cached(predicate, &self.embedder, &self.vocab)
    }

    /// Degree of truth of a natural-language predicate for an entity:
    /// the entity's slot of the predicate's [`Self::degree_column`].
    pub fn degree(&self, entity: usize, predicate: &str) -> f64 {
        self.degree_column(predicate).degrees()[entity]
    }

    /// Top-k entities for a conjunction of natural-language predicates
    /// under the product t-norm, over the predicates' cached degree
    /// columns.
    ///
    /// Returns `(entity, combined degree)` in ranking order (degree
    /// descending, entity id ascending on ties), including zero-degree
    /// entities when fewer than `k` score positively.
    pub fn rank_top_k(&self, predicates: &[&str], k: usize) -> Vec<(usize, f64)> {
        let leaves: Vec<_> = predicates
            .iter()
            .map(|p| Leaf::Subjective(Subjective::Predicate(p)))
            .collect();
        Residue::conjunction(leaves.len()).map_or_else(Vec::new, |residue| {
            self.at_pin()
                .rank_top_k_filtered(&residue, &leaves, FuzzyAlgebra::Product, k, None, None)
                .expect("a predicate always has a column")
        })
    }

    /// Normalized embedding + sentiment of a query phrase, memoized.
    pub fn prepare_phrase(&self, phrase: &str) -> Arc<PreparedPhrase> {
        self.phrase_cache.get_or_insert_with(phrase, || {
            let mut rep = self.embedder.rep(phrase, &self.vocab);
            opine_embed::normalize(&mut rep);
            Arc::new(PreparedPhrase {
                rep,
                sentiment: self.sentiment.score(phrase),
            })
        })
    }

    /// Degree of truth of `attribute .= phrase` for an entity, via the
    /// marker-feature membership function.
    pub fn attribute_degree(&self, entity: usize, attribute: usize, phrase: &str) -> f64 {
        let term = self.prepare_term(attribute, phrase);
        self.term_degree(entity, &term, &self.pin())
    }

    /// Text-retrieval fallback degree: `sigmoid(BM25(D_e, q) − c)` of
    /// the entity's reviews at the pin, base and delta — its slot of the
    /// fallback's one pass over every entity.
    pub fn text_degree(&self, entity: usize, predicate: &str) -> f64 {
        self.text_degrees(&self.text_terms(predicate), &self.pin(), None)[entity]
    }

    /// Number of reviews aggregated for an entity: the build-time count
    /// plus the current delta's (both O(1); the base side used to walk
    /// every review in the corpus per call).
    pub fn review_count(&self, entity: usize) -> usize {
        self.entity_review_counts[entity] as usize
            + self.pin().delta.entity_reviews(entity) as usize
    }

    /// Number of reviews written by a reviewer — the degree the
    /// qualifier's `reviewer_min_count` thresholds compare against.
    /// Live: includes the current delta's reviews, which is why an
    /// insert re-qualifies every entity its reviewer ever reviewed.
    pub fn reviewer_review_count(&self, reviewer_id: usize) -> usize {
        self.reviewer_count_at(&self.pin().delta, reviewer_id) as usize
    }

    /// [`Self::reviewer_review_count`] against an explicit generation.
    #[inline]
    pub(crate) fn reviewer_count_at(&self, delta: &DeltaState, reviewer_id: usize) -> u32 {
        self.reviewer_counts.get(reviewer_id).copied().unwrap_or(0)
            + delta.reviewer_count(reviewer_id)
    }

    /// Resolves an attribute name to its index.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a == name)
    }

    /// The attribute a `attribute .= "phrase"` leaf names.
    pub(crate) fn match_attribute(&self, attribute: &ColumnRef) -> Result<usize, StoreError> {
        self.attribute_index(&attribute.column)
            .ok_or_else(|| StoreError::UnknownColumn(attribute.column.clone()))
    }

    /// Dense entity id for a row-key [`Value`]. Goes through the shared
    /// [`Value::with_key_str`] rendering — the same path the table key
    /// index uses — so text keys probe the map by `&str`, non-text keys
    /// render into a stack buffer (no per-lookup `String`), and the two
    /// layers can never disagree on how a key spells.
    pub(crate) fn entity_of_value(&self, key: &Value) -> Result<usize, StoreError> {
        key.with_key_str(|s| self.key_to_entity.get(s).copied())
            .ok_or_else(|| StoreError::Execution(format!("unknown entity key {key}")))
    }

    /// True when `base` is the catalog's entity table and its row `i`
    /// is entity `i` — the one fact that lets a row position of `base`
    /// stand for an entity id (a degree-column slot, a candidate bit, a
    /// ranked id) with no translation. Any other table — a joined-in
    /// relation, `reviews`, a clone of the catalog the caller extended —
    /// is unproven: its leaves read by key and its ranking is declined,
    /// which is slower and never wrong.
    ///
    /// The catalog is immutable once assembled, so the row-by-row half
    /// of the proof was made there; what is left per statement is
    /// whether `base` is that very table.
    pub(crate) fn rows_are_entities(&self, base: &Table) -> bool {
        self.entity_rows
            && self
                .catalog
                .table(&self.entity_table)
                .is_ok_and(|own| std::ptr::eq(own, base))
    }

    /// A bound leaf over `base` whose degree is a function of the entity
    /// id: read by key through [`Self::entity_of_value`], and by
    /// position when [`Self::rows_are_entities`] proves them equal.
    pub(crate) fn entity_leaf<'s>(
        &'s self,
        base: &Table,
        degree: impl Fn(usize) -> f64 + 's,
    ) -> BoundLeaf<'s> {
        let degree = Rc::new(degree);
        let by_entity = Rc::clone(&degree);
        let leaf = BoundLeaf::by_key(move |key| Ok(by_entity(self.entity_of_value(key)?)));
        if self.rows_are_entities(base) {
            leaf.with_positions(move |pos| degree(pos))
        } else {
            leaf
        }
    }
}

/// The engine at one pinned generation ([`OpineDb::at_pin`]): the
/// executor's scorer. Every column, qualified set and degree it
/// reads is read at its pin.
pub struct AtPin<'a> {
    pub(crate) db: &'a OpineDb,
    pub(crate) pin: Pin,
}

impl<'a> AtPin<'a> {
    /// A statement at this pin, combined under `algebra`.
    pub(crate) fn query_select(
        &self,
        select: &Select,
        algebra: FuzzyAlgebra,
    ) -> Result<QueryRef<'a>, OpineError> {
        self.db.query_select_with(select, &self.pin, self, algebra)
    }

    /// Top-k entities by `residue`'s degree under `algebra`, its leaf
    /// `i` reading the column of `leaves[i]` (`leaf_column`),
    /// among the set bits of `candidates` (the executor's objective
    /// prefilter; every entity when `None`) — and the one place the
    /// ranking plan is chosen. Each leaf's column is fetched once; then,
    /// the classic selection-vs-sorted-access optimizer choice:
    ///
    /// * **scan** — read every candidate's degrees straight from the
    ///   dense columns, combine, select the k best
    ///   ([`scan_topk`]). O(candidates · leaves), and needs no sorted
    ///   order.
    /// * **sorted access** — the (filtered) threshold algorithm
    ///   ([`threshold_topk`]), which walks ~`k / selectivity` positions
    ///   of each column's sorted order and so needs every order built.
    ///
    /// The scan wins when the candidate set is small
    /// (`candidates² ≤ k · entities`, equating the two cost models;
    /// selective filters — the whole point of the pushdown — land
    /// there, while weak filters keep TA's early termination), and when
    /// a residue over two or more predicates had to build one of its
    /// columns just now: it has already paid Θ(entities) for the build,
    /// and sorting that column for a list TA reads a short prefix of
    /// costs more than one pass over all of them. The order is a
    /// column's reward for being *reused*: the next statement that finds
    /// it cached sorts it. A lone predicate keeps sorted access — its
    /// answer is the order's prefix. A residue with a NOT is always
    /// scanned: its degree falls as a leaf's rises, so no cursor bounds
    /// an unseen entity.
    ///
    /// Under a review `qualifier` a subjective leaf reads its column of
    /// the qualified set, filled by the same lane kernel as a cached
    /// column but for this statement alone: never cached nor sorted, so
    /// the residue is scanned.
    ///
    /// `candidates` and a comparison leaf's bitmap index rows of a table
    /// with [`OpineDb::rows_are_entities`], so a set bit, a column slot
    /// and a ranked id are the same number. An error is a leaf's (a `.=`
    /// on an unknown attribute).
    pub fn rank_top_k_filtered(
        &self,
        residue: &Residue,
        leaves: &[Leaf<'_, Bitmap>],
        algebra: FuzzyAlgebra,
        k: usize,
        candidates: Option<&Bitmap>,
        qualifier: Option<&ReviewQualifier>,
    ) -> Result<Vec<(usize, f64)>, StoreError> {
        let db = self.db;
        if candidates.is_some() {
            db.pushdown_queries
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let n = db.num_entities();
        let mut built = false;
        let columns = leaves
            .iter()
            .map(|leaf| {
                let (column, fresh) = db.leaf_column(leaf, qualifier, &self.pin)?;
                built |= fresh;
                Ok(column)
            })
            .collect::<Result<Vec<Arc<DegreeColumn>>, StoreError>>()?;
        if k == 0 {
            return Ok(Vec::new());
        }
        let degrees: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
        let cand_count = candidates.map_or(n, Bitmap::count_ones);
        let few = cand_count.saturating_mul(cand_count) <= k.saturating_mul(n);
        let monotone = residue.is_monotone();
        let qualified = qualifier.is_some();
        if qualified || few || !monotone || (built && columns.len() >= 2) {
            opine_trace::note(|| {
                if few && candidates.is_some() && !qualified {
                    return format!(
                        "ta_topk: pushdown via gather ({cand_count} candidates, k={k})"
                    );
                }
                let why = if qualified {
                    "qualified columns are built per statement"
                } else if few {
                    "k reaches them all"
                } else if !monotone {
                    "a NOT is not monotone, so no sorted-access bound holds"
                } else {
                    "column built by this statement"
                };
                format!("ta_topk: scan of {cand_count} candidates (k={k}) — {why}")
            });
            // Two instantiations on purpose, here and below: the
            // unfiltered loops compile without the candidate test.
            return Ok(match candidates {
                None => scan_topk(&degrees, residue, algebra, k, 0..n, n),
                Some(bitmap) => scan_topk(
                    &degrees,
                    residue,
                    algebra,
                    k,
                    bitmap.iter_ones(),
                    cand_count,
                ),
            });
        }
        let orders: Vec<&[u32]> = columns.iter().map(|c| c.sorted_order()).collect();
        Ok(match candidates {
            None => {
                opine_trace::note(|| format!("ta_topk: full TA over degree columns (k={k})"));
                threshold_topk(&degrees, &orders, residue, algebra, k, |_| true)
            }
            Some(bitmap) => {
                opine_trace::note(|| {
                    format!(
                        "ta_topk: pushdown via restricted sorted access ({cand_count} candidates, k={k})"
                    )
                });
                threshold_topk(&degrees, &orders, residue, algebra, k, |entity| {
                    bitmap.get(entity)
                })
            }
        })
    }
}

impl SubjectiveScorer for AtPin<'_> {
    /// The leaf reads one [`DegreeColumn`] for the whole statement, the
    /// one the ranking kernel reads (`leaf_column`, under the scope's
    /// review qualifier). Over the entity table a row's degree is read
    /// at its position.
    fn bind<'s>(
        &'s self,
        scope: Scope<'_>,
        leaf: Subjective<'s>,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        let db = self.db;
        let qualifier = scope.qualifier.as_ref();
        let (column, _) = db.leaf_column(&Leaf::Subjective(leaf), qualifier, &self.pin)?;
        Ok(db.entity_leaf(scope.base, move |entity| column.degrees()[entity]))
    }

    /// Ranks entity ids, which are row positions of `scope.base` only
    /// when [`OpineDb::rows_are_entities`] says so; any other table is
    /// declined.
    fn rank_residue(
        &self,
        scope: Scope<'_>,
        residue: &Residue,
        leaves: &[Leaf<'_, Bitmap>],
        algebra: FuzzyAlgebra,
        k: usize,
        candidates: Option<&Bitmap>,
    ) -> Result<Option<Vec<(usize, f64)>>, StoreError> {
        let db = self.db;
        if !db.rows_are_entities(scope.base) {
            opine_trace::note(|| "ta_topk: declined — base rows are not the entities".into());
            return Ok(None);
        }
        opine_faults::fire_panic("pre_ta");
        let span = opine_trace::span("ta_topk");
        let qualifier = scope.qualifier.as_ref();
        let ranked =
            self.rank_top_k_filtered(residue, leaves, algebra, k, candidates, qualifier)?;
        span.count("scored", ranked.len() as u64);
        drop(span);
        db.ta_queries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if qualifier.is_some() {
            db.qualified_queries.fetch_add(1, Relaxed);
        }
        Ok(Some(ranked))
    }
}

/// Concurrency audit: the serving layer shares one `OpineDb` behind an
/// `Arc` across request threads, so every interior cache (the bounded
/// memos, the `OnceLock` sorted orders) must be
/// thread-safe. Failing this assertion is a compile error, not a runtime
/// surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OpineDb>();
    assert_send_sync::<DegreeColumn>();
    assert_send_sync::<CacheReport>();
    // `raw` holds every occurrence once, at 8 bytes each.
    assert!(std::mem::size_of::<PhraseOcc>() == 8);
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, BuildConfig};
    use crate::qualified::same_row;
    use opine_corpus::hotel::hotel_spec;
    use opine_corpus::{Corpus, CorpusConfig};
    use opine_embed::Word2VecConfig;

    fn db() -> (Corpus, OpineDb) {
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
                ..Default::default()
            },
        );
        (corpus, db)
    }

    /// Same rows in the same order with bit-equal scores.
    fn assert_same_answer(fast: &QueryOutput, reference: &QueryOutput, sql: &str) {
        assert_eq!(fast.result.rows.len(), reference.result.rows.len(), "{sql}");
        for (f, r) in fast.result.rows.iter().zip(&reference.result.rows) {
            assert_eq!(f.0, r.0, "{sql}: same rows in the same order");
            assert_eq!(f.1.to_bits(), r.1.to_bits(), "{sql}: bit-equal scores");
        }
    }

    #[test]
    fn end_to_end_query_ranks_clean_hotels_higher() {
        let (corpus, db) = db();
        let out = db
            .query("select * from hotels where \"clean rooms\" limit 16")
            .unwrap();
        assert!(!out.result.rows.is_empty());
        // The top third should have higher average cleanliness θ than the
        // bottom third.
        let n = out.result.rows.len();
        let theta = |rows: &[(Vec<Value>, f64)]| -> f64 {
            rows.iter()
                .map(|(r, _)| {
                    let id = db.entity_id(r[0].as_str().unwrap()).unwrap();
                    corpus.entities[id].quality[0]
                })
                .sum::<f64>()
                / rows.len() as f64
        };
        let top = theta(&out.result.rows[..n / 3]);
        let bottom = theta(&out.result.rows[n - n / 3..]);
        assert!(top > bottom, "top θ {top} should exceed bottom θ {bottom}");
    }

    #[test]
    fn objective_and_subjective_conditions_combine() {
        let (_, db) = db();
        let out = db
            .query("select * from hotels where price_pn < 250 and \"clean rooms\" limit 50")
            .unwrap();
        for (row, score) in &out.result.rows {
            assert!(row[2].as_f64().unwrap() < 250.0);
            assert!((0.0..=1.0).contains(score));
        }
    }

    #[test]
    fn interpretations_are_reported() {
        let (_, db) = db();
        let out = db
            .query("select * from hotels where \"spotless rooms\" limit 3")
            .unwrap();
        assert_eq!(out.interpretations.len(), 1);
        assert_eq!(out.interpretations[0].0, "spotless rooms");
    }

    #[test]
    fn degree_cache_is_consistent() {
        let (_, db) = db();
        let a = db.degree(0, "clean rooms");
        let b = db.degree(0, "clean rooms");
        assert_eq!(a, b);
        assert_eq!(a, db.degree_column("clean rooms").degrees()[0]);
    }

    #[test]
    fn marker_and_scan_paths_correlate() {
        let (_, db) = db();
        let with_markers: Vec<f64> = (0..db.num_entities())
            .map(|e| db.degree(e, "clean rooms"))
            .collect();
        let without: Vec<f64> = (0..db.num_entities())
            .map(|e| db.reference().scan().degree(e, "clean rooms"))
            .collect();
        for (e, fast) in with_markers.iter().enumerate() {
            let reference = db.reference().degree(e, "clean rooms");
            assert_eq!(fast.to_bits(), reference.to_bits(), "entity {e}");
        }
        // Spearman-ish check: the top marker-entity should be in the upper
        // half of the scan ranking.
        let top = with_markers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let rank = without.iter().filter(|&&d| d > without[top]).count();
        assert!(
            rank <= db.num_entities() / 2,
            "marker-top entity ranks {rank} under scan"
        );
    }

    #[test]
    fn review_filter_recomputes_summaries() {
        let (_, db) = db();
        let filtered = db.summaries_with_review_filter(|m| m.year >= 2012);
        let full_total: f64 = (0..db.num_entities()).map(|e| db.summary(e, 0).total).sum();
        let filtered_total: f64 = filtered.iter().map(|per| per[0].total).sum();
        assert!(filtered_total < full_total);
        assert!(filtered_total > 0.0);
    }

    #[test]
    fn bucket_merge_matches_raw_rebuild_bit_for_bit() {
        let (_, db) = db();
        // Year bounds on one side and both, and reviewer-degree
        // thresholds alone and combined with them.
        for q in [
            ReviewQualifier {
                min_year: Some(2012),
                max_year: None,
                min_reviewer_count: None,
            },
            ReviewQualifier {
                min_year: Some(2008),
                max_year: Some(2015),
                min_reviewer_count: Some(3),
            },
            ReviewQualifier {
                min_year: None,
                max_year: None,
                min_reviewer_count: Some(2),
            },
            ReviewQualifier::default(),
        ] {
            let merged = db.summaries_qualified(&q);
            let rebuilt = db.summaries_with_review_filter(|m| {
                q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
            });
            for (e, row) in rebuilt.iter().enumerate() {
                for (a, rebuilt) in row.iter().enumerate() {
                    let folded = db.summary_qualified(e, a, &q);
                    assert!(
                        folded.same_aggregates(rebuilt),
                        "{q} entity {e} attr {a}: folded {:?} vs rebuilt {:?}",
                        folded.counts(),
                        rebuilt.counts()
                    );
                    assert!(same_row(&merged, e, a, rebuilt), "{q} row {e} {a}");
                }
            }
        }
    }

    /// The trivial qualifier's fold equals the build-time summaries as
    /// the reference rescans them (`summary(e, a)` is the same fold, so
    /// it is no independent witness).
    #[test]
    fn trivial_qualifier_merge_equals_build_time_summaries() {
        let (_, db) = db();
        let merged = db.summaries_qualified(&ReviewQualifier::default());
        let rescan = db.summaries_with_review_filter(|_| true);
        for (e, row) in rescan.iter().enumerate() {
            for (a, rescanned) in row.iter().enumerate() {
                let folded = db.summary_qualified(e, a, &ReviewQualifier::default());
                assert!(folded.same_aggregates(rescanned), "entity {e} attr {a}");
                assert!(same_row(&merged, e, a, rescanned), "row {e} {a}");
            }
        }
    }

    #[test]
    fn qualified_sql_matches_rebuild_reference_and_counts() {
        let (_, db) = db();
        let before = db.cache_report();
        assert_eq!(before.filtered_summary_queries, 0);
        let sql = "select * from hotels where \"clean rooms\" \
                   with reviews(year >= 2012) limit 16";
        let out = db.query(sql).unwrap();
        assert!(!out.result.rows.is_empty());
        let after = db.cache_report();
        assert_eq!(after.filtered_summary_queries, 1, "qualified counter");
        assert!(after.filtered_summaries.misses > before.filtered_summaries.misses);

        // Reference: score every entity through the raw-rebuild
        // summaries; the SQL path must agree bit-for-bit.
        let q = ReviewQualifier {
            min_year: Some(2012),
            max_year: None,
            min_reviewer_count: None,
        };
        let rebuilt = db.summaries_with_review_filter(|m| {
            q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
        });
        let mut expected: Vec<(usize, f64)> = (0..db.num_entities())
            .map(|e| {
                (
                    e,
                    db.attribute_degree_with_summaries(&rebuilt, e, 0, "clean rooms"),
                )
            })
            .collect();
        expected.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for ((row, score), (entity, degree)) in out.result.rows.iter().zip(&expected) {
            assert_eq!(row[0].as_str(), Some(db.entity_key(*entity)));
            assert_eq!(score.to_bits(), degree.to_bits(), "bit-identical degrees");
        }

        // A repeat replays from the filtered-summary cache.
        let again = db.query(sql).unwrap();
        assert_eq!(again.result.rows.len(), out.result.rows.len());
        let warm = db.cache_report();
        assert!(warm.filtered_summaries.hits > after.filtered_summaries.hits);
        assert_eq!(warm.filtered_summary_queries, 2);
    }

    #[test]
    fn qualified_and_unqualified_queries_do_not_share_answers() {
        let (_, db) = db();
        let plain = db
            .query("select * from hotels where \"clean rooms\" limit 16")
            .unwrap();
        let qualified = db
            .query(
                "select * from hotels where \"clean rooms\" \
                 with reviews(year >= 2014, reviewer_min_count >= 2) limit 16",
            )
            .unwrap();
        // The qualifier drops review mass, so at least one degree must
        // change (the generator spreads years 2005..=2019).
        let changed = plain
            .result
            .rows
            .iter()
            .zip(&qualified.result.rows)
            .any(|(a, b)| a.0[0] != b.0[0] || (a.1 - b.1).abs() > 1e-15);
        assert!(changed, "qualifier had no effect on any degree");
    }

    #[test]
    fn scan_ablation_declines_qualified_statements() {
        let (_, db) = db();
        let sql = "select * from hotels where \"clean rooms\" \
                   with reviews(year >= 2012) limit 4";
        // Raw occurrences carry no summaries a qualifier could scope:
        // answering would silently switch models, so the scan reference
        // must error instead.
        let err = db.reference().scan().query(sql).unwrap_err();
        assert!(
            matches!(err, OpineError::Store(StoreError::NoScorer(_))),
            "expected NoScorer, got {err:?}"
        );
        // The marker reference answers it, from the raw rescan, exactly
        // as the engine does from the fold.
        let reference = db.reference().query(sql).unwrap();
        assert_same_answer(&db.query(sql).unwrap(), &reference, sql);
    }

    #[test]
    fn trivial_qualifier_stays_on_the_fast_path() {
        let (_, db) = db();
        let before = db.cache_report();
        let out = db
            .query("select * from hotels where \"clean rooms\" with reviews() limit 8")
            .unwrap();
        assert!(!out.result.rows.is_empty());
        let after = db.cache_report();
        // with reviews() accepts every review: the base scorer (and its
        // TA fast path) answers it — no merge, no qualified counter.
        assert_eq!(
            after.filtered_summary_queries,
            before.filtered_summary_queries
        );
        assert_eq!(
            after.filtered_summaries.misses,
            before.filtered_summaries.misses
        );
        assert!(after.ta_queries > before.ta_queries);
    }

    #[test]
    fn review_counts_are_precomputed_correctly() {
        let (corpus, db) = db();
        for e in 0..db.num_entities() {
            let scan = corpus.reviews.iter().filter(|r| r.entity_id == e).count();
            assert_eq!(db.review_count(e), scan, "entity {e}");
        }
        let reviewer_scan = corpus.reviewer_counts();
        for (&reviewer, &count) in &reviewer_scan {
            assert_eq!(db.reviewer_review_count(reviewer), count);
        }
        assert_eq!(db.reviewer_review_count(usize::MAX), 0, "unknown reviewer");
    }

    #[test]
    fn clear_caches_drops_filtered_summary_sets() {
        let (_, db) = db();
        let _ = db.summaries_qualified(&ReviewQualifier {
            min_year: Some(2010),
            max_year: None,
            min_reviewer_count: None,
        });
        assert_eq!(db.cache_report().filtered_summary_sets, 1);
        db.clear_caches();
        assert_eq!(db.cache_report().filtered_summary_sets, 0);
    }

    #[test]
    fn marker_match_syntax_works() {
        let (_, db) = db();
        let out = db
            .query("select * from hotels h where h.room_cleanliness .= \"very clean\" limit 5")
            .unwrap();
        assert!(!out.result.rows.is_empty());
    }

    /// A database whose interpreter thresholds are unreachable, so
    /// every predicate falls through word2vec and co-occurrence to the
    /// text-retrieval stage — the fixture for the text-fallback column
    /// and the retrieval counter (stage 2 still *runs* its retrieval
    /// before giving up, so `wand_queries` fires).
    fn text_fallback_db() -> OpineDb {
        let corpus = Corpus::generate(
            hotel_spec(),
            &CorpusConfig {
                num_entities: 16,
                mean_reviews: 16,
                seed: 9,
            },
        );
        build(
            &corpus,
            &BuildConfig {
                w2v: Word2VecConfig {
                    dim: 24,
                    epochs: 2,
                    ..Default::default()
                },
                membership_tuples: 400,
                interpreter: crate::interpret::InterpreterConfig {
                    theta1: 1.01,
                    theta2: f64::INFINITY,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn text_fallback_column_matches_point_path_bit_for_bit() {
        let db = text_fallback_db();
        let predicate = "clean rooms";
        assert_eq!(
            db.interpret(predicate),
            Interpretation::TextFallback,
            "unreachable thresholds must force the text stage"
        );
        // Batched column (one pass over the posting lists)…
        let column = db.degree_column(predicate);
        // …must equal the reference's per-entity point BM25 exactly.
        for (e, column_degree) in column.degrees().iter().enumerate() {
            let point = db.reference().degree(e, predicate);
            assert_eq!(
                column_degree.to_bits(),
                point.to_bits(),
                "entity {e}: batched text column diverged from the point path"
            );
        }
    }

    #[test]
    fn cache_report_aggregates_wand_counters() {
        let db = text_fallback_db();
        let before = db.cache_report();
        // The cascade runs the co-occurrence retrieval (stage 2) before
        // falling back, so one cold interpretation fires the counter.
        let _ = db.interpret("comfortable beds");
        let after = db.cache_report();
        assert!(
            after.wand_queries > before.wand_queries,
            "stage-2 retrieval must count its top-k search: {after:?}"
        );
        // The same retrieval through the oracle, on the interpreter's
        // real index at its real depth.
        let index = db.interpreter().review_index();
        let terms = db.text_terms("comfortable beds");
        let k = db.interpreter().config().top_k_reviews * 4;
        let oracle = index.search_terms_exhaustive(&terms, k);
        let hits = index.search_terms(&terms, k);
        assert_eq!(db.cache_report().wand_queries, after.wand_queries + 1);
        assert_eq!(hits.len(), oracle.len());
        for (h, o) in hits.iter().zip(&oracle) {
            assert_eq!((h.doc, h.score.to_bits()), (o.doc, o.score.to_bits()));
        }
    }

    #[test]
    fn text_fallback_degree_is_bounded() {
        let (_, db) = db();
        for e in 0..db.num_entities() {
            let d = db.text_degree(e, "great for motorcyclists");
            assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn unknown_table_query_errors() {
        let (_, db) = db();
        assert!(db.query("select * from nonexistent").is_err());
        assert!(db.query("not sql at all").is_err());
    }

    #[test]
    fn interpretation_cache_hits_on_repeated_predicates() {
        let (_, db) = db();
        let before = db.interp_cache_stats();
        for _ in 0..5 {
            db.query("select * from hotels where \"clean rooms\" limit 4")
                .unwrap();
        }
        let after = db.interp_cache_stats();
        assert!(
            after.misses - before.misses <= 1,
            "one distinct predicate must interpret at most once, got {} misses",
            after.misses - before.misses
        );
        assert!(
            after.hits > before.hits,
            "repeated queries must hit the interpretation memo"
        );
    }

    #[test]
    fn degree_column_matches_naive_per_entity_path() {
        let (_, db) = db();
        let column = db.degree_column("clean rooms");
        let degrees = column.degrees();
        assert_eq!(degrees.len(), db.num_entities());
        // The reference's per-entity path must produce the same degrees.
        for (e, column_degree) in degrees.iter().enumerate() {
            let naive = db.reference().degree(e, "clean rooms");
            assert_eq!(
                column_degree.to_bits(),
                naive.to_bits(),
                "entity {e}: column {column_degree} vs naive {naive}"
            );
        }
    }

    #[test]
    fn sorted_order_is_descending_with_id_tiebreak() {
        let (_, db) = db();
        let column = db.degree_column("clean rooms");
        let order = column.sorted_order();
        assert_eq!(order.len(), db.num_entities());
        for w in order.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            let (da, db_) = (column.degrees()[a], column.degrees()[b]);
            assert!(da > db_ || (da == db_ && a < b));
        }
    }

    #[test]
    fn rank_top_k_matches_full_column_sort() {
        let (_, db) = db();
        let preds = ["clean rooms", "friendly staff"];
        let ranked = db.rank_top_k(&preds, 5);
        let cols: Vec<_> = preds.iter().map(|p| db.degree_column(p)).collect();
        let mut naive: Vec<(usize, f64)> = (0..db.num_entities())
            .map(|e| (e, cols.iter().map(|c| c.degrees()[e]).product()))
            .collect();
        naive.sort_by(crate::topk::rank_cmp);
        naive.truncate(5);
        assert_eq!(ranked, naive);
    }

    #[test]
    fn ta_fast_path_matches_row_at_a_time_scoring() {
        let (_, db) = db();
        let sql = "select * from hotels where \"clean rooms\" limit 8";
        let before = db.cache_report().ta_queries;
        let fast = db.query(sql).unwrap();
        assert_eq!(db.cache_report().ta_queries, before + 1);
        // The reference declines every index: the same statement through
        // the naive row-at-a-time executor path.
        assert_same_answer(&fast, &db.reference().query(sql).unwrap(), sql);
    }

    #[test]
    fn mixed_queries_ride_the_pushdown_ta_path() {
        let (_, db) = db();
        let sql = "select * from hotels where price_pn < 250 and \"clean rooms\" limit 50";
        let before = db.cache_report();
        assert_eq!(before.pushdown_queries, 0);
        let out = db.query(sql).unwrap();
        let after = db.cache_report();
        assert_eq!(
            after.pushdown_queries,
            before.pushdown_queries + 1,
            "the paper's running-example shape must take the pushdown TA path"
        );
        assert!(after.ta_queries > before.ta_queries);
        for (row, _) in &out.result.rows {
            assert!(
                row[2].as_f64().unwrap() < 250.0,
                "objective filter still applies on the TA path"
            );
        }
        // The pushdown answer must equal the reference's prefilter +
        // row-at-a-time residue exactly.
        assert_same_answer(&out, &db.reference().query(sql).unwrap(), sql);
    }

    #[test]
    fn pushdown_with_empty_candidate_set_returns_no_rows() {
        let (_, db) = db();
        let out = db
            .query("select * from hotels where price_pn < 0 and \"clean rooms\"")
            .unwrap();
        assert!(out.result.rows.is_empty());
    }

    #[test]
    fn clear_caches_resets_columns() {
        let (_, db) = db();
        let _ = db.degree_column("clean rooms");
        assert!(db.cached_degree_columns() >= 1);
        db.clear_caches();
        assert_eq!(db.cached_degree_columns(), 0);
    }

    // ---- live ingest ----

    use crate::ingest::merge_test_lock as ingest_lock;

    #[test]
    fn insert_lands_in_delta_and_is_immediately_queryable() {
        let (_, db) = db();
        assert_eq!(db.ingest_epoch(), 0);
        let entity = db.entity_key(3).to_string();
        let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
        let base_count = db.review_count(3);
        let receipt = db
            .insert_sql(&format!(
                "INSERT INTO reviews (entity, text, year, reviewer_id, helpful_votes) \
                 VALUES ('{entity}', 'the {phrase} impressed us', 2021, 77777, 3)"
            ))
            .unwrap();
        assert_eq!(receipt.inserted, 1);
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.delta_reviews, 1);
        assert!(!receipt.merged, "below the default merge threshold");
        assert_eq!(db.ingest_epoch(), 1);
        assert_eq!(db.delta_reviews(), 1);
        // Counts are live at the very next read, not merge-deferred.
        assert_eq!(db.review_count(3), base_count + 1);
        assert_eq!(db.reviewer_review_count(77777), 1);
        // The overlay row answers relational SELECTs right away.
        let out = db
            .query("select * from reviews where reviewer_id = 77777")
            .unwrap();
        assert_eq!(out.result.rows.len(), 1);
        assert_eq!(out.result.rows[0].0[1].as_str(), Some(entity.as_str()));
        assert_eq!(out.result.rows[0].0[3], Value::Int(2021));
        // Two selects over the same epoch answer identically.
        let replay = db
            .query("select * from reviews where reviewer_id = 77777")
            .unwrap();
        assert_eq!(out.result.rows, replay.result.rows);
    }

    #[test]
    fn batch_insert_publishes_exactly_one_epoch() {
        let (_, db) = db();
        let e0 = db.entity_key(0).to_string();
        let e1 = db.entity_key(1).to_string();
        let base0 = db.review_count(0);
        let base1 = db.review_count(1);
        let receipt = db
            .insert_sql(&format!(
                "INSERT INTO reviews (entity, year) \
                 VALUES ('{e0}', 2020), ('{e1}', 2021), ('{e0}', 2022)"
            ))
            .unwrap();
        assert_eq!(receipt.inserted, 3);
        assert_eq!(db.ingest_epoch(), 1, "one publish for the whole batch");
        assert_eq!(db.delta_reviews(), 3);
        assert_eq!(db.review_count(0), base0 + 2);
        assert_eq!(db.review_count(1), base1 + 1);
        let report = db.cache_report();
        assert_eq!(report.inserted_reviews, 3);
        assert_eq!(report.ingest_epoch, 1);
        assert_eq!(report.delta_reviews, 3);
    }

    #[test]
    fn invalid_inserts_are_rejected_with_zero_rows_applied() {
        let (_, db) = db();
        let entity = db.entity_key(0).to_string();
        for sql in [
            // only the reviews table accepts inserts
            format!("INSERT INTO hotels (entity) VALUES ('{entity}')"),
            // review_id is engine-assigned
            format!("INSERT INTO reviews (review_id, entity) VALUES (1, '{entity}')"),
            // the column list is required
            format!("INSERT INTO reviews VALUES (1, '{entity}', 1, 2020, 0)"),
            // unknown column
            format!("INSERT INTO reviews (entity, rating) VALUES ('{entity}', 5)"),
            // duplicate column
            format!("INSERT INTO reviews (entity, year, year) VALUES ('{entity}', 2020, 2021)"),
            // unknown entity key — the entity set is frozen at build time
            "INSERT INTO reviews (entity) VALUES ('no_such_hotel')".to_string(),
            // entity is required
            "INSERT INTO reviews (year) VALUES (2020)".to_string(),
            // type error
            format!("INSERT INTO reviews (entity, year) VALUES ('{entity}', 'soon')"),
            // a bad second row rejects the whole batch
            format!(
                "INSERT INTO reviews (entity, year) \
                 VALUES ('{entity}', 2020), ('{entity}', 5000000000)"
            ),
        ] {
            let err = db.insert_sql(&sql).unwrap_err();
            assert!(matches!(err, OpineError::Store(_)), "{sql}: {err:?}");
        }
        assert_eq!(
            db.ingest_epoch(),
            0,
            "every rejection left the epoch untouched"
        );
        assert_eq!(db.delta_reviews(), 0);
        assert_eq!(db.cache_report().inserted_reviews, 0);
    }

    #[test]
    fn insert_repairs_degree_columns_precisely() {
        let (_, db) = db();
        let predicate = "clean rooms";
        assert_ne!(
            db.interpret(predicate),
            Interpretation::TextFallback,
            "fixture precondition: the repair under test is the marker path"
        );
        let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
        let before = db.degree_column(predicate);
        let before_degrees = before.degrees().to_vec();
        // A strong new signal for entity 0 only.
        let text = [phrase.as_str(); 6].join(" and ");
        let entity = db.entity_key(0).to_string();
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text) VALUES ('{entity}', '{text}')"
        ))
        .unwrap();
        // The warm probe repairs the stale column: only entity 0
        // recomputes, the other slots are reused verbatim.
        let repaired = db.degree_column(predicate);
        let repaired_degrees = repaired.degrees().to_vec();
        for e in 1..db.num_entities() {
            assert_eq!(
                repaired_degrees[e].to_bits(),
                before_degrees[e].to_bits(),
                "entity {e} was untouched by the insert"
            );
        }
        assert_ne!(
            repaired_degrees[0].to_bits(),
            before_degrees[0].to_bits(),
            "entity 0 absorbed the inserted occurrences"
        );
        // Bit-identical to a cold rebuild at the new epoch.
        db.clear_caches();
        let cold = db.degree_column(predicate);
        let cold_degrees = cold.degrees();
        for e in 0..db.num_entities() {
            assert_eq!(
                repaired_degrees[e].to_bits(),
                cold_degrees[e].to_bits(),
                "entity {e}: repaired column diverged from a cold rebuild"
            );
        }
    }

    #[test]
    fn provenance_names_every_occurrence_of_a_summary() {
        let _guard = ingest_lock();
        let corpus = Corpus::generate(
            hotel_spec(),
            &CorpusConfig {
                num_entities: 48,
                mean_reviews: 10,
                seed: 3,
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
                membership_tuples: 300,
                ..Default::default()
            },
        );
        let mut occurrences = 0;
        for e in 0..db.num_entities() {
            for a in 0..db.attributes.len() {
                let provenance = db.provenance(e, a);
                occurrences += provenance.len();
                assert_eq!(
                    provenance.len() as f64,
                    db.summary(e, a).total,
                    "({e}, {a})"
                );
                for &(review, phrase) in &provenance {
                    assert!(db.opinion_domain(a).get(phrase).is_some(), "{phrase}");
                    assert_eq!(db.review_meta[review].entity_id, e);
                }
                // The entity's reviews in corpus order, each review's
                // extractions in extraction order.
                let expected: Vec<(usize, &str)> = corpus
                    .reviews
                    .iter()
                    .filter(|r| r.entity_id == e)
                    .flat_map(|r| {
                        r.gold
                            .iter()
                            .filter(|g| g.aspect == a)
                            .map(move |g| (r.id, g.opinion_term.as_str()))
                    })
                    .collect();
                assert_eq!(provenance, expected, "({e}, {a})");
            }
        }

        // Every occurrence is stored once, in 8 bytes, beside one 4-byte
        // offset per cell and one past the last.
        let cells = db.num_entities() * db.attributes.len();
        assert_eq!(
            db.cache_report().raw_bytes,
            occurrences * 8 + (cells + 1) * 4
        );

        // An INSERT batch appends its occurrences under the
        // engine-assigned ids; the build-time pairs keep their order.
        let entity = 3;
        let before = db.provenance(entity, 0);
        let untouched = db.provenance(entity + 1, 0);
        let variations = db.opinion_domain(0).variations();
        let (p0, p1) = (&variations[0].phrase, &variations[1].phrase);
        let key = db.entity_key(entity).to_string();
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year) VALUES \
             ('{key}', 'the {p0} impressed us', 2021), ('{key}', '{p1}', 2022)"
        ))
        .unwrap();
        let base = db.review_meta.len();
        let after = db.provenance(entity, 0);
        assert_eq!(after[..before.len()], before[..]);
        let new = &after[before.len()..];
        assert!(new.contains(&(base, p0.as_str())), "{new:?}");
        assert!(new.contains(&(base + 1, p1.as_str())), "{new:?}");
        assert!(new.windows(2).all(|w| w[0].0 <= w[1].0), "insert order");
        assert!(new.iter().all(|&(id, _)| id == base || id == base + 1));
        assert_eq!(db.provenance(entity + 1, 0), untouched);
        // The scan path's phrases are the cell's at the pin too.
        assert_eq!(db.raw_phrases(entity, 0).len(), after.len());
    }

    #[test]
    fn qualified_summaries_with_delta_match_rescan_pre_and_post_merge() {
        let _guard = ingest_lock();
        let (_, db) = db();
        let phrase0 = db.opinion_domain(0).variations()[0].phrase.clone();
        let phrase1 = db.opinion_domain(1).variations()[0].phrase.clone();
        let e2 = db.entity_key(2).to_string();
        let e5 = db.entity_key(5).to_string();
        // A cell with no build-time occurrence, and a phrase the insert
        // path files under its attribute alone.
        let matcher = crate::ingest::PhraseMatcher::build(&db.opinion_domains);
        let (empty_entity, empty_attr, empty_phrase) = (0..db.num_entities())
            .flat_map(|e| (0..db.attributes.len()).map(move |a| (e, a)))
            .filter(|&(e, a)| db.provenance(e, a).is_empty())
            .find_map(|(e, a)| {
                let phrases = db.opinion_domain(a).variations().iter();
                let own = phrases.map(|v| &v.phrase).find(|p| {
                    matches!(matcher.extract(&opine_text::tokenize(p)).as_slice(), [(x, _)] if *x == a)
                })?;
                Some((e, a, own.clone()))
            })
            .expect("fixture: an empty cell with a phrase of its own");
        let empty_key = db.entity_key(empty_entity).to_string();
        assert!(db.pin().delta.summary(2, 0).is_none());
        assert!(!db.provenance(2, 0).is_empty(), "fixture: a built cell");
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES \
             ('{e2}', 'really {phrase0} here', 2016, 901), \
             ('{e2}', '{phrase1} but loud', 2009, 901), \
             ('{e5}', '{phrase0} and {phrase1}', 2013, 902), \
             ('{empty_key}', 'so {empty_phrase}', 2014, 903)"
        ))
        .unwrap();
        // Both cells are delta cells now, each carrying its whole summary.
        assert!(db.pin().delta.summary(2, 0).is_some());
        assert_eq!(db.provenance(empty_entity, empty_attr).len(), 1);
        let qualifiers = [
            ReviewQualifier {
                min_year: Some(2012),
                max_year: None,
                min_reviewer_count: None,
            },
            ReviewQualifier {
                min_year: Some(2008),
                max_year: Some(2015),
                min_reviewer_count: Some(3),
            },
            ReviewQualifier {
                min_year: None,
                max_year: None,
                min_reviewer_count: Some(2),
            },
            ReviewQualifier::default(),
        ];
        let check = |label: &str| {
            for q in &qualifiers {
                let merged = db.summaries_qualified(q);
                let rebuilt = db.summaries_with_review_filter(|m| {
                    q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
                });
                for (e, row) in rebuilt.iter().enumerate() {
                    for (a, rebuilt) in row.iter().enumerate() {
                        let folded = db.summary_qualified(e, a, q);
                        assert!(
                            folded.same_aggregates(rebuilt),
                            "{label} {q} entity {e} attr {a}: folded {:?} vs rebuilt {:?}",
                            folded.counts(),
                            rebuilt.counts()
                        );
                        assert!(same_row(&merged, e, a, rebuilt), "{label} {q} {e} {a}");
                    }
                }
            }
            // The unqualified summary at the pin, and the delta cells'
            // own summaries, equal the rescan of every occurrence.
            let rescan = db.summaries_with_review_filter(|_| true);
            let delta = db.pin().delta;
            for (e, row) in rescan.iter().enumerate() {
                for (a, rescanned) in row.iter().enumerate() {
                    let summary = db.summary(e, a);
                    assert!(
                        summary.same_aggregates(rescanned),
                        "{label} summary({e}, {a})"
                    );
                    if let Some(cell) = delta.summary(e, a) {
                        assert!(cell.same_aggregates(&summary), "{label} cell ({e}, {a})");
                    }
                }
            }
        };
        // Pre-merge: cold sets, repaired from the delta occurrences.
        check("pre-merge");
        let epoch = db.merge_delta().unwrap();
        assert_eq!(epoch, 2);
        // Post-merge: the merge moves nothing; the cached sets restamp.
        check("post-merge");
    }

    #[test]
    fn threshold_crossing_triggers_an_immediate_merge() {
        let _guard = ingest_lock();
        let (_, db) = db();
        db.set_merge_threshold(2);
        let e = db.entity_key(7).to_string();
        let first = db
            .insert_sql(&format!(
                "INSERT INTO reviews (entity, year) VALUES ('{e}', 2020)"
            ))
            .unwrap();
        assert!(!first.merged);
        assert_eq!(first.epoch, 1);
        let second = db
            .insert_sql(&format!(
                "INSERT INTO reviews (entity, year) VALUES ('{e}', 2021)"
            ))
            .unwrap();
        assert!(second.merged, "second insert crossed the threshold");
        assert_eq!(second.epoch, 3, "batch publish + merge publish");
        let report = db.cache_report();
        assert_eq!((report.delta_merges, report.failed_merges), (1, 0));
        // The merge seals the overlay; its rows keep serving.
        assert_eq!(db.delta_reviews(), 2);
        let rows = db
            .query(&format!(
                "select * from reviews where entity = '{e}' and year >= 2020"
            ))
            .unwrap()
            .result
            .rows;
        assert_eq!(rows.len(), 2, "merged rows keep serving");
    }

    #[test]
    fn inserted_text_lifts_text_degrees_at_its_epoch() {
        let _guard = ingest_lock();
        let (_, db) = db();
        let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
        let entity = db.entity_key(6).to_string();
        let before = db.text_degree(6, &phrase);
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text) VALUES ('{entity}', '{phrase} {phrase} {phrase}')"
        ))
        .unwrap();
        // Text counts at the insert's epoch, like counts and summaries
        // (see the tests above)…
        let after = db.text_degree(6, &phrase);
        assert!(
            after > before,
            "inserted text must lift entity 6: {before} -> {after}"
        );
        // …and a merge, which only seals the overlay, moves nothing.
        db.merge_delta().unwrap();
        assert_eq!(db.text_degree(6, &phrase).to_bits(), after.to_bits());
    }

    #[test]
    fn failed_merge_leaves_the_old_epoch_serving() {
        let _guard = ingest_lock();
        let (_, db) = db();
        let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
        let entity = db.entity_key(4).to_string();
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year) VALUES ('{entity}', 'so {phrase}', 2018)"
        ))
        .unwrap();
        assert_eq!(db.ingest_epoch(), 1);
        let sql = "select * from hotels where \"clean rooms\" limit 16";
        let before = db.query(sql).unwrap();

        opine_faults::configure("mid_merge=panic@1", 7).expect("valid spec");
        let err = db.merge_delta().unwrap_err();
        opine_faults::clear();
        assert!(
            matches!(err, OpineError::Store(StoreError::Execution(_))),
            "{err:?}"
        );
        assert_eq!(db.ingest_epoch(), 1, "nothing published");
        assert_eq!(db.cache_report().failed_merges, 1);
        assert_eq!(db.cache_report().delta_merges, 0);

        // The failed merge is invisible to readers: byte-identical
        // answers from the still-serving generation.
        let after = db.query(sql).unwrap();
        assert_eq!(before.result.rows.len(), after.result.rows.len());
        for (a, b) in before.result.rows.iter().zip(&after.result.rows) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }

        // Disarmed, the retry freezes and publishes.
        let epoch = db.merge_delta().unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(db.cache_report().delta_merges, 1);
        assert_eq!(
            db.delta_reviews(),
            1,
            "merged reviews stay in the delta generation"
        );
    }
}
