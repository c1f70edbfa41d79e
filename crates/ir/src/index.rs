//! Inverted index with Okapi BM25 ranking and Block-Max-WAND top-k.
//!
//! Documents are added once (the build phase); the first retrieval
//! freezes every posting list into fixed-size blocks of `(doc, tf)`
//! pairs sorted by document id, each carrying a *max impact* — a
//! precomputed upper bound of any member document's BM25 contribution —
//! and a last-doc skip pointer. [`InvertedIndex::search_terms`] then
//! runs Block-Max WAND: a pivot walks the term cursors in document
//! order and whole blocks are skipped when their summed impact bounds
//! cannot beat the current top-k threshold. The pre-existing exhaustive
//! scorer survives as the equivalence-test reference
//! ([`InvertedIndex::search_terms_exhaustive`]): both paths funnel every
//! `(term, doc)` contribution through one scoring expression and
//! accumulate in query-term order, so their answers are
//! **bit-identical** — same documents, same `f64` score bits, same tie
//! order.

use opine_text::{tokenize, Vocab, WordId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::OnceLock;

/// Identifier of an indexed document (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

impl DocId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// BM25 term-frequency saturation (`k1`).
pub const BM25_K1: f64 = 1.2;
/// BM25 length-normalization strength (`b`). The block-max bounds rely
/// on `k1 ≥ 0` and `0 ≤ b ≤ 1`: scores monotone in term frequency,
/// antitone in document length.
pub const BM25_B: f64 = 0.75;

/// A scored retrieval result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matching document.
    pub doc: DocId,
    /// Its BM25 score (≥ 0).
    pub score: f64,
}

/// Documents per posting block of the frozen index (see
/// [`InvertedIndex::set_block_size`]).
pub const DEFAULT_BLOCK_SIZE: usize = 128;

/// Counters of the retrieval paths, for the serving layer's `/stats`
/// and the bench/CI skipping guards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalStats {
    /// Top-k searches answered by the Block-Max-WAND path.
    pub wand_queries: u64,
    /// Top-k searches answered by the exhaustive reference scorer.
    pub exhaustive_queries: u64,
    /// Posting blocks bypassed via skip pointers instead of being
    /// scored document-at-a-time.
    pub blocks_skipped: u64,
}

/// One `(term, doc)` BM25 contribution. Every scoring path — the point
/// lookup, the exhaustive scorer, Block-Max WAND, and the dense batch
/// scorer — funnels through this one expression, which is what makes
/// their answers bit-identical.
#[inline]
fn score_one(idf: f64, tf: u32, doc_len: u32, avg_len: f64) -> f64 {
    let tf = tf as f64;
    let len_norm = 1.0 - BM25_B + BM25_B * doc_len as f64 / avg_len;
    idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * len_norm)
}

/// One block of a frozen posting list: its last document (the skip
/// pointer) and the precomputed max impact.
#[derive(Debug)]
struct Block {
    /// Largest document id in the block.
    last_doc: u32,
    /// `max` over member documents of their exact BM25 contribution —
    /// a tight upper bound.
    max_impact: f64,
}

/// A posting list frozen into block-partitioned parallel arrays.
#[derive(Debug)]
struct FrozenList {
    /// Document ids, ascending.
    docs: Vec<u32>,
    /// Term frequencies, aligned with `docs`.
    tfs: Vec<u32>,
    /// Per-block metadata; block `b` spans `docs[b·B .. (b+1)·B]`.
    blocks: Vec<Block>,
    /// The list's idf under the frozen corpus statistics.
    idf: f64,
    /// `max` over blocks of their max impact (the WAND pivot bound).
    max_impact: f64,
}

/// The immutable retrieval structure, built once per corpus state.
#[derive(Debug)]
struct Frozen {
    lists: HashMap<WordId, FrozenList>,
    block_size: usize,
}

/// An in-memory inverted index over tokenized documents.
///
/// Documents are added once; the index maintains postings (sorted by
/// document id) with term frequencies, document lengths, and document
/// frequencies for BM25. Retrieval freezes the postings into a
/// block-max structure on first use; adding a document invalidates it.
#[derive(Debug)]
pub struct InvertedIndex {
    postings: HashMap<WordId, Vec<(DocId, u32)>>,
    doc_lengths: Vec<u32>,
    total_length: u64,
    block_size: usize,
    frozen: OnceLock<Frozen>,
    wand_queries: AtomicU64,
    exhaustive_queries: AtomicU64,
    blocks_skipped: AtomicU64,
}

impl Default for InvertedIndex {
    fn default() -> Self {
        InvertedIndex {
            postings: HashMap::new(),
            doc_lengths: Vec::new(),
            total_length: 0,
            block_size: DEFAULT_BLOCK_SIZE,
            frozen: OnceLock::new(),
            wand_queries: AtomicU64::new(0),
            exhaustive_queries: AtomicU64::new(0),
            blocks_skipped: AtomicU64::new(0),
        }
    }
}

/// One term cursor of the WAND driver. Duplicate query terms get
/// *separate* cursors so score accumulation stays in query-term order
/// (bit-identical to the exhaustive scorer's term-major accumulation).
struct Cursor<'a> {
    list: &'a FrozenList,
    /// Index of the next unconsumed posting.
    pos: usize,
    /// Block containing `pos` (tracked incrementally; a division per
    /// bound probe showed up in the retrieval profile).
    block: usize,
    /// Posting index one past the current block.
    block_end: usize,
    /// List-level score upper bound.
    bound: f64,
}

impl Cursor<'_> {
    #[inline]
    fn exhausted(&self) -> bool {
        self.pos >= self.list.docs.len()
    }

    #[inline]
    fn doc(&self) -> u32 {
        self.list.docs[self.pos]
    }

    /// Consumes the current posting (after scoring it).
    #[inline]
    fn advance(&mut self, block_size: usize) {
        self.pos += 1;
        if self.pos >= self.block_end {
            self.block += 1;
            self.block_end = (self.block_end + block_size).min(self.list.docs.len());
        }
    }
}

/// Advances `c` to the first posting with doc ≥ `target`, bypassing
/// whole blocks via their last-doc skip pointers (counted in
/// `skipped`) and binary-searching within the landing block.
fn seek(c: &mut Cursor<'_>, target: u32, block_size: usize, skipped: &mut u64) {
    let b0 = c.block;
    let nblocks = c.list.blocks.len();
    let mut b = b0;
    while b < nblocks && c.list.blocks[b].last_doc < target {
        b += 1;
    }
    if b > b0 {
        *skipped += (b - b0) as u64;
        c.pos = b * block_size;
        c.block = b;
        c.block_end = ((b + 1) * block_size).min(c.list.docs.len());
    }
    if b >= nblocks {
        c.pos = c.list.docs.len();
        return;
    }
    c.pos += c.list.docs[c.pos..c.block_end].partition_point(|&d| d < target);
}

impl InvertedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document, interning its tokens into `vocab`.
    ///
    /// Returns the new document's id. A frozen block structure is
    /// dropped: corpus statistics moved under every stored bound, so the
    /// next retrieval (or [`Self::freeze`]) rebuilds it.
    pub fn add_document(&mut self, text: &str, vocab: &mut Vocab) -> DocId {
        let tokens = tokenize(text);
        let doc = DocId(self.doc_lengths.len() as u32);
        let mut tf: HashMap<WordId, u32> = HashMap::new();
        for t in &tokens {
            *tf.entry(vocab.intern(t)).or_insert(0) += 1;
        }
        for (word, count) in tf {
            // Documents arrive in ascending id order, so each posting
            // list stays sorted by doc id without ever re-sorting.
            self.postings.entry(word).or_default().push((doc, count));
        }
        self.doc_lengths.push(tokens.len() as u32);
        self.total_length += tokens.len() as u64;
        self.frozen.take();
        doc
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_lengths.len()
    }

    /// Number of documents containing `word`.
    pub fn doc_freq(&self, word: WordId) -> usize {
        self.postings.get(&word).map_or(0, Vec::len)
    }

    /// Length (token count) of `doc`.
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_lengths[doc.index()]
    }

    /// Documents per posting block (must be ≥ 1; default
    /// [`DEFAULT_BLOCK_SIZE`]). Small blocks are used by the edge-case
    /// and property tests to exercise many block boundaries on small
    /// corpora. Resets the frozen structure.
    pub fn set_block_size(&mut self, block_size: usize) {
        self.block_size = block_size.max(1);
        self.frozen.take();
    }

    /// Retrieval-path counters since construction.
    pub fn retrieval_stats(&self) -> RetrievalStats {
        RetrievalStats {
            wand_queries: self.wand_queries.load(Relaxed),
            exhaustive_queries: self.exhaustive_queries.load(Relaxed),
            blocks_skipped: self.blocks_skipped.load(Relaxed),
        }
    }

    /// Builds the frozen block structure eagerly (it is otherwise built
    /// lazily on the first search), so a serving path never pays the
    /// freeze inside a query.
    pub fn freeze(&self) {
        let _ = self.frozen();
    }

    /// The `(doc, tf)` postings of `term`, sorted by document id
    /// (empty for unseen terms).
    pub fn term_postings(&self, term: WordId) -> &[(DocId, u32)] {
        self.postings.get(&term).map_or(&[], Vec::as_slice)
    }

    /// Frozen block metadata of `term`: one `(first_doc, last_doc,
    /// upper_bound)` triple per block, where `upper_bound` is the stored
    /// max impact — the exact maximum of the member documents' BM25
    /// contributions, so ≥ every one of them (property-tested in
    /// `tests/wand_equivalence.rs`).
    pub fn term_blocks(&self, term: WordId) -> Vec<(DocId, DocId, f64)> {
        let frozen = self.frozen();
        let Some(list) = frozen.lists.get(&term) else {
            return Vec::new();
        };
        list.blocks
            .iter()
            .enumerate()
            .map(|(b, blk)| {
                let first = list.docs[b * frozen.block_size];
                (DocId(first), DocId(blk.last_doc), blk.max_impact)
            })
            .collect()
    }

    /// BM25 score of `doc` for the (tokenized, interned) query terms.
    pub fn bm25(&self, doc: DocId, query_terms: &[WordId]) -> f64 {
        let avg_len = self.avg_doc_len();
        query_terms
            .iter()
            .map(|&term| self.bm25_term(doc, term, avg_len))
            .sum()
    }

    fn bm25_term(&self, doc: DocId, term: WordId, avg_len: f64) -> f64 {
        let Some(postings) = self.postings.get(&term) else {
            return 0.0;
        };
        // Postings are sorted by doc id (documents are appended in id
        // order), so the per-(doc, term) lookup is a binary search —
        // this used to be a linear scan of the whole list.
        let Ok(i) = postings.binary_search_by_key(&doc, |&(d, _)| d) else {
            return 0.0;
        };
        let idf = self.idf(postings.len());
        score_one(idf, postings[i].1, self.doc_len(doc), avg_len)
    }

    /// BM25 scores of **every** document for `query_terms`, in one
    /// term-at-a-time pass over the posting lists — `O(total postings)`
    /// instead of a per-document per-term lookup, and bit-identical to
    /// calling [`Self::bm25`] on each document. This is the batch entry
    /// the text-fallback degree column rides.
    pub fn bm25_dense(&self, query_terms: &[WordId]) -> Vec<f64> {
        let avg_len = self.avg_doc_len();
        let mut scores = vec![0.0f64; self.num_docs()];
        for &term in query_terms {
            let Some(postings) = self.postings.get(&term) else {
                continue;
            };
            let idf = self.idf(postings.len());
            for &(doc, tf) in postings {
                opine_faults::checkpoint();
                scores[doc.index()] += score_one(idf, tf, self.doc_lengths[doc.index()], avg_len);
            }
        }
        scores
    }

    /// Top-`k` documents by BM25 for a free-text query.
    ///
    /// Only documents containing at least one query term are scored, so the
    /// result may be shorter than `k`. Ties break by ascending doc id for
    /// determinism.
    pub fn search(&self, query: &str, k: usize, vocab: &Vocab) -> Vec<SearchHit> {
        let terms: Vec<WordId> = tokenize(query)
            .iter()
            .filter_map(|t| vocab.get(t))
            .collect();
        self.search_terms(&terms, k)
    }

    /// The exhaustive scorer: accumulate every candidate's score
    /// document-at-a-time over the full posting lists, then heap-select
    /// the top k. Kept verbatim as the equivalence-test reference.
    pub fn search_terms_exhaustive(&self, terms: &[WordId], k: usize) -> Vec<SearchHit> {
        if k == 0 || terms.is_empty() {
            return Vec::new();
        }
        self.exhaustive_queries.fetch_add(1, Relaxed);
        let avg_len = self.avg_doc_len();
        // Accumulate scores document-at-a-time over candidate postings.
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        for &term in terms {
            let Some(postings) = self.postings.get(&term) else {
                continue;
            };
            let idf = self.idf(postings.len());
            for &(doc, tf) in postings {
                opine_faults::checkpoint();
                let s = score_one(idf, tf, self.doc_len(doc), avg_len);
                *scores.entry(doc).or_insert(0.0) += s;
            }
        }

        // Keep the k best via a min-heap of (Reverse score, doc).
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
        for (doc, score) in scores {
            opine_faults::checkpoint();
            heap.push(HeapEntry { score, doc });
            if heap.len() > k {
                heap.pop();
            }
        }
        sorted_hits(heap)
    }

    /// Top-`k` documents for pre-interned query terms by Block-Max WAND:
    /// advance a pivot over doc-ordered term cursors, skipping whole
    /// blocks whose summed max-impact bounds cannot beat the current k-th
    /// score.
    pub fn search_terms(&self, terms: &[WordId], k: usize) -> Vec<SearchHit> {
        if k == 0 || terms.is_empty() || self.doc_lengths.is_empty() {
            return Vec::new();
        }
        self.wand_queries.fetch_add(1, Relaxed);
        let span = opine_trace::span("wand_retrieval");
        let frozen = self.frozen();
        let avg_len = self.avg_doc_len();
        let block_size = frozen.block_size;

        // One cursor per query-term *occurrence* (duplicates included),
        // in query order, so full evaluations add contributions in the
        // exact order the exhaustive scorer does.
        let mut cursors: Vec<Cursor<'_>> = terms
            .iter()
            .filter_map(|t| frozen.lists.get(t))
            .map(|list| Cursor {
                list,
                pos: 0,
                block: 0,
                block_end: block_size.min(list.docs.len()),
                bound: list.max_impact,
            })
            .collect();
        if cursors.is_empty() {
            return Vec::new();
        }

        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
        let mut skipped = 0u64;
        // Indices into `cursors`, kept sorted by current document.
        let mut order: Vec<usize> = (0..cursors.len()).collect();

        // The `mid_wand` failpoint sits inside the pivot loop (armed
        // only under fault injection), alongside the cancellation
        // checkpoint an expired request deadline unwinds from.
        loop {
            opine_faults::checkpoint();
            opine_faults::fire_panic("mid_wand");
            order.retain(|&i| !cursors[i].exhausted());
            if order.is_empty() {
                break;
            }
            order.sort_by_key(|&i| cursors[i].doc());
            let threshold = if heap.len() >= k {
                heap.peek().expect("heap holds k entries").score
            } else {
                f64::NEG_INFINITY
            };

            // Pivot: the shortest prefix of the sorted cursors whose
            // summed list bounds could still beat the k-th score. A doc
            // scoring exactly the threshold loses the tie to an
            // already-kept smaller id, so the comparison is strict.
            let mut ub = 0.0;
            let mut pivot_rank = None;
            // lint:allow(checkpoint_coverage, reason = "bounded by query term count; the enclosing WAND round checkpoints")
            for (rank, &i) in order.iter().enumerate() {
                ub += cursors[i].bound;
                if ub > threshold {
                    pivot_rank = Some(rank);
                    break;
                }
            }
            let Some(p) = pivot_rank else {
                break; // nothing left can enter the top k
            };
            let pivot_doc = cursors[order[p]].doc();
            // Cursors past the pivot rank can sit exactly on the pivot
            // document; they contribute to its score and bound too.
            let mut m = p;
            while m + 1 < order.len() && cursors[order[m + 1]].doc() == pivot_doc {
                m += 1;
            }

            // Block-max refinement: bound every document in
            // [pivot_doc, min participating block's last doc].
            let mut block_ub = 0.0;
            let mut min_block_last = u32::MAX;
            // lint:allow(checkpoint_coverage, reason = "bounded by query term count; the enclosing WAND round checkpoints")
            for &i in &order[..=m] {
                let c = &cursors[i];
                let nblocks = c.list.blocks.len();
                let mut b = c.block;
                while b < nblocks && c.list.blocks[b].last_doc < pivot_doc {
                    b += 1;
                }
                if b == nblocks {
                    // No remaining posting of this list reaches the
                    // pivot; its leftovers are all below the pivot and
                    // provably under the threshold.
                    continue;
                }
                let blk = &c.list.blocks[b];
                block_ub += blk.max_impact;
                min_block_last = min_block_last.min(blk.last_doc);
            }

            if block_ub <= threshold {
                // Skip: no document up to the nearest participating
                // block boundary can make the top k. Jump past it,
                // capped at the next non-participating cursor's doc.
                let mut target = min_block_last.saturating_add(1);
                if m + 1 < order.len() {
                    target = target.min(cursors[order[m + 1]].doc());
                }
                for &i in &order[..=m] {
                    seek(&mut cursors[i], target, block_size, &mut skipped);
                }
            } else if cursors[order[0]].doc() == pivot_doc {
                // Fully aligned: score the pivot document, accumulating
                // contributions in query-term order (bit-identical to
                // the exhaustive scorer's sum).
                let doc_len = self.doc_lengths[pivot_doc as usize];
                let mut score = 0.0;
                // lint:allow(checkpoint_coverage, reason = "bounded by query term count; the enclosing WAND round checkpoints")
                for c in cursors.iter_mut() {
                    if !c.exhausted() && c.doc() == pivot_doc {
                        score += score_one(c.list.idf, c.list.tfs[c.pos], doc_len, avg_len);
                        c.advance(block_size);
                    }
                }
                // A full heap would evict a sub-threshold doc right
                // back (equal scores lose the tie to the smaller,
                // already-kept id), so only push winners.
                if heap.len() < k || score > threshold {
                    heap.push(HeapEntry {
                        score,
                        doc: DocId(pivot_doc),
                    });
                    if heap.len() > k {
                        heap.pop();
                    }
                }
            } else {
                // Lagging cursors: documents before the pivot appear
                // only in lists whose summed bounds are ≤ threshold
                // (that is what made it the pivot) — align to it.
                for &i in &order[..=m] {
                    if cursors[i].doc() < pivot_doc {
                        seek(&mut cursors[i], pivot_doc, block_size, &mut skipped);
                    }
                }
            }
        }
        span.count("blocks_skipped", skipped);
        self.blocks_skipped.fetch_add(skipped, Relaxed);
        sorted_hits(heap)
    }

    /// The frozen block structure, built on first use.
    fn frozen(&self) -> &Frozen {
        self.frozen.get_or_init(|| {
            let avg_len = self.avg_doc_len();
            let block_size = self.block_size.max(1);
            let lists = self
                .postings
                .iter()
                .map(|(&term, postings)| {
                    let idf = self.idf(postings.len());
                    let docs: Vec<u32> = postings.iter().map(|&(d, _)| d.0).collect();
                    debug_assert!(
                        docs.windows(2).all(|w| w[0] < w[1]),
                        "postings must be sorted by doc id"
                    );
                    let tfs: Vec<u32> = postings.iter().map(|&(_, tf)| tf).collect();
                    let mut blocks = Vec::with_capacity(docs.len().div_ceil(block_size));
                    let mut list_max = 0.0f64;
                    // lint:allow(checkpoint_coverage, reason = "construction path; block summaries are built before the index serves queries")
                    for start in (0..docs.len()).step_by(block_size) {
                        let end = (start + block_size).min(docs.len());
                        let max_impact = (start..end)
                            .map(|i| {
                                let len = self.doc_lengths[docs[i] as usize];
                                score_one(idf, tfs[i], len, avg_len)
                            })
                            .fold(0.0, f64::max);
                        list_max = list_max.max(max_impact);
                        blocks.push(Block {
                            last_doc: docs[end - 1],
                            max_impact,
                        });
                    }
                    (
                        term,
                        FrozenList {
                            docs,
                            tfs,
                            blocks,
                            idf,
                            max_impact: list_max,
                        },
                    )
                })
                .collect();
            Frozen { lists, block_size }
        })
    }

    fn avg_doc_len(&self) -> f64 {
        avg_doc_len(self.doc_lengths.len(), self.total_length)
    }

    fn idf(&self, df: usize) -> f64 {
        idf(self.num_docs(), df)
    }
}

/// Mean document length of `num_docs` documents holding `total_length`
/// tokens, floored at 1 (and 1 for an empty corpus).
fn avg_doc_len(num_docs: usize, total_length: u64) -> f64 {
    if num_docs == 0 {
        return 1.0;
    }
    (total_length as f64 / num_docs as f64).max(1.0)
}

/// Non-negative BM25 idf: `ln(1 + (N - df + 0.5)/(df + 0.5))`.
fn idf(num_docs: usize, df: usize) -> f64 {
    let n = num_docs as f64;
    let df = df as f64;
    (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
}

/// One `(term, doc)` BM25 contribution under explicit corpus
/// statistics: `num_docs` documents of `total_length` tokens, `df` of
/// them containing the term, this one `tf` times in `doc_len` tokens.
/// The expression [`InvertedIndex::bm25`] evaluates per term, for
/// callers that keep those statistics outside an index (the engine's
/// delta text) and must score bit-identically to one.
pub fn bm25_term_score(
    num_docs: usize,
    total_length: u64,
    df: usize,
    tf: u32,
    doc_len: u32,
) -> f64 {
    score_one(
        idf(num_docs, df),
        tf,
        doc_len,
        avg_doc_len(num_docs, total_length),
    )
}

/// Drains a top-k heap into the canonical hit order: score descending,
/// doc id ascending on ties.
fn sorted_hits(heap: BinaryHeap<HeapEntry>) -> Vec<SearchHit> {
    let mut hits: Vec<SearchHit> = heap
        .into_iter()
        .map(|e| SearchHit {
            doc: e.doc,
            score: e.score,
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.0.cmp(&b.doc.0)));
    hits
}

/// Min-heap entry ordered by score ascending (so `pop` evicts the worst).
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    score: f64,
    doc: DocId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse score so the heap's max is the *worst* candidate; break
        // ties by doc id descending so the smallest id survives eviction.
        other
            .score
            .total_cmp(&self.score)
            .then(self.doc.0.cmp(&other.doc.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> (Vocab, InvertedIndex) {
        let mut vocab = Vocab::new();
        let mut index = InvertedIndex::new();
        for text in [
            "the room was very clean and the bed was soft",   // 0
            "dirty room with stained carpet",                 // 1
            "clean clean clean everything spotless",          // 2
            "the breakfast was great and the staff friendly", // 3
        ] {
            index.add_document(text, &mut vocab);
        }
        (vocab, index)
    }

    /// Asserts WAND and exhaustive answers are bit-identical: same
    /// docs, same score bits, same order.
    fn assert_paths_agree(index: &InvertedIndex, terms: &[WordId], k: usize) {
        let wand = index.search_terms(terms, k);
        let exhaustive = index.search_terms_exhaustive(terms, k);
        assert_eq!(wand.len(), exhaustive.len(), "k={k} terms={terms:?}");
        for (w, e) in wand.iter().zip(&exhaustive) {
            assert_eq!(w.doc, e.doc, "k={k}");
            assert_eq!(w.score.to_bits(), e.score.to_bits(), "doc {:?}", w.doc);
        }
    }

    /// A larger synthetic corpus with a deterministic, skewed term
    /// distribution (LCG) so block skipping actually fires.
    fn skewed(num_docs: usize, block_size: usize) -> (Vocab, InvertedIndex, Vec<WordId>) {
        let mut vocab = Vocab::new();
        let mut index = InvertedIndex::new();
        index.set_block_size(block_size);
        let mut state = 0x2545_f491u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..num_docs {
            let mut text = String::new();
            // "clean" with skewed repetition; "room" common; fillers.
            for _ in 0..(next() % 4) {
                text.push_str("clean ");
            }
            if next() % 2 == 0 {
                text.push_str("room ");
            }
            for f in 0..(next() % 6) {
                text.push_str(["lobby ", "stay ", "bed ", "desk ", "pool ", "bar "][f]);
            }
            text.push_str("hotel");
            index.add_document(&text, &mut vocab);
        }
        let terms = vec![vocab.get("clean").unwrap(), vocab.get("room").unwrap()];
        (vocab, index, terms)
    }

    #[test]
    fn search_ranks_higher_tf_first() {
        let (vocab, index) = build();
        let hits = index.search("clean", 10, &vocab);
        assert_eq!(hits[0].doc, DocId(2), "doc 2 repeats 'clean' three times");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn scores_are_nonnegative_and_sorted() {
        let (vocab, index) = build();
        let hits = index.search("clean room carpet", 10, &vocab);
        assert!(hits.iter().all(|h| h.score >= 0.0));
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn unmatched_query_returns_empty() {
        let (vocab, index) = build();
        assert!(index.search("zebra", 5, &vocab).is_empty());
        assert!(index.search("", 5, &vocab).is_empty());
    }

    #[test]
    fn k_limits_results() {
        let (vocab, index) = build();
        let hits = index.search("room clean", 1, &vocab);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn bm25_matches_search_scoring() {
        let (vocab, index) = build();
        let terms: Vec<WordId> = ["clean", "room"]
            .iter()
            .filter_map(|t| vocab.get(t))
            .collect();
        let hits = index.search_terms(&terms, 10);
        for hit in hits {
            let direct = index.bm25(hit.doc, &terms);
            assert!((direct - hit.score).abs() < 1e-9);
        }
    }

    #[test]
    fn doc_freq_counts_documents() {
        let (vocab, index) = build();
        assert_eq!(index.doc_freq(vocab.get("clean").unwrap()), 2);
        assert_eq!(index.doc_freq(vocab.get("breakfast").unwrap()), 1);
        assert_eq!(index.num_docs(), 4);
    }

    #[test]
    fn rare_terms_outscore_common_terms() {
        let mut vocab = Vocab::new();
        let mut index = InvertedIndex::new();
        // "common" in every doc, "rare" in one.
        for i in 0..10 {
            let text = if i == 0 {
                "common rare".to_string()
            } else {
                "common filler".to_string()
            };
            index.add_document(&text, &mut vocab);
        }
        let rare_hits = index.search("rare", 1, &vocab);
        let common_hits = index.search("common", 1, &vocab);
        assert!(rare_hits[0].score > common_hits[0].score);
    }

    #[test]
    fn bm25_term_binary_search_stays_exact_on_a_10k_doc_list() {
        let mut vocab = Vocab::new();
        let mut index = InvertedIndex::new();
        for i in 0..10_000usize {
            // Every doc contains "common" with varying tf and length.
            let mut text = "common".to_string();
            for _ in 0..(i % 5) {
                text.push_str(" common");
            }
            for _ in 0..(i % 7) {
                text.push_str(" filler");
            }
            index.add_document(&text, &mut vocab);
        }
        let term = vocab.get("common").unwrap();
        let postings = index.term_postings(term);
        assert_eq!(postings.len(), 10_000);
        assert!(postings.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        let avg_len = index.avg_doc_len();
        let idf = index.idf(postings.len());
        for i in (0..10_000).step_by(97) {
            let doc = DocId(i as u32);
            // Linear reference: the pre-PR lookup.
            let (_, tf) = postings.iter().find(|(d, _)| *d == doc).copied().unwrap();
            let reference = score_one(idf, tf, index.doc_len(doc), avg_len);
            let got = index.bm25(doc, &[term]);
            assert_eq!(got.to_bits(), reference.to_bits(), "doc {i}");
        }
        // Absent docs score zero for absent terms.
        let rare = vocab.intern("neverseen");
        assert_eq!(index.bm25(DocId(3), &[rare]), 0.0);
    }

    #[test]
    fn wand_matches_exhaustive_on_the_fixture() {
        let (vocab, mut index) = build();
        index.set_block_size(2);
        let terms: Vec<WordId> = ["clean", "room", "carpet", "staff"]
            .iter()
            .filter_map(|t| vocab.get(t))
            .collect();
        for k in [1, 2, 3, 4, 10] {
            assert_paths_agree(&index, &terms, k);
        }
    }

    #[test]
    fn wand_matches_exhaustive_on_a_skewed_corpus() {
        let (_, index, terms) = skewed(3000, 32);
        for k in [1, 5, 10, 100, 5000] {
            assert_paths_agree(&index, &terms, k);
        }
    }

    #[test]
    fn wand_skips_blocks_on_a_skewed_corpus() {
        let (_, index, terms) = skewed(3000, 32);
        let before = index.retrieval_stats();
        let hits = index.search_terms(&terms, 10);
        assert_eq!(hits.len(), 10);
        let after = index.retrieval_stats();
        assert_eq!(after.wand_queries, before.wand_queries + 1);
        assert!(
            after.blocks_skipped > before.blocks_skipped,
            "top-10 over 3000 skewed docs must skip blocks: {after:?}"
        );
        // …and skipping them changed nothing.
        assert_paths_agree(&index, &terms, 10);
    }

    #[test]
    fn empty_index_returns_no_hits_on_both_paths() {
        let mut vocab = Vocab::new();
        let index = InvertedIndex::new();
        let term = vocab.intern("anything");
        assert!(index.search_terms(&[term], 5).is_empty());
        assert!(index.search_terms_exhaustive(&[term], 5).is_empty());
    }

    #[test]
    fn single_doc_blocks_stay_equivalent() {
        let (vocab, mut index) = build();
        index.set_block_size(1);
        let terms: Vec<WordId> = ["clean", "room"]
            .iter()
            .filter_map(|t| vocab.get(t))
            .collect();
        for k in [1, 2, 3, 10] {
            assert_paths_agree(&index, &terms, k);
        }
        let blocks = index.term_blocks(terms[0]);
        assert_eq!(blocks.len(), index.doc_freq(terms[0]), "one doc per block");
    }

    #[test]
    fn block_boundary_exactly_at_k_stays_equivalent() {
        let (_, index, terms) = skewed(256, 64);
        // k equal to the block size and to multiples of it: the heap
        // fills exactly at a block boundary.
        for k in [64, 128, 256] {
            assert_paths_agree(&index, &terms, k);
        }
    }

    #[test]
    fn duplicate_terms_score_like_the_exhaustive_path() {
        let (vocab, mut index) = build();
        index.set_block_size(2);
        let clean = vocab.get("clean").unwrap();
        let room = vocab.get("room").unwrap();
        for terms in [vec![clean, clean], vec![clean, room, clean, clean]] {
            assert_paths_agree(&index, &terms, 10);
        }
    }

    #[test]
    fn k_larger_than_corpus_returns_every_match() {
        let (vocab, index) = build();
        let terms: Vec<WordId> = ["clean", "room"]
            .iter()
            .filter_map(|t| vocab.get(t))
            .collect();
        let hits = index.search_terms(&terms, 50);
        assert_eq!(hits.len(), 3, "three docs mention clean or room");
        assert_paths_agree(&index, &terms, 50);
    }

    #[test]
    fn all_equal_scores_keep_smallest_doc_ids() {
        let mut vocab = Vocab::new();
        let mut index = InvertedIndex::new();
        index.set_block_size(4);
        for _ in 0..20 {
            index.add_document("spotless lobby carpet", &mut vocab);
        }
        let term = vocab.get("spotless").unwrap();
        let hits = index.search_terms(&[term], 5);
        let ids: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_paths_agree(&index, &[term], 5);
    }

    #[test]
    fn stored_block_bounds_are_true_upper_bounds() {
        let (_, index, terms) = skewed(1000, 16);
        for &term in &terms {
            let blocks = index.term_blocks(term);
            assert!(!blocks.is_empty());
            for (first, last, bound) in blocks {
                for &(doc, _) in index.term_postings(term) {
                    if doc >= first && doc <= last {
                        let score = index.bm25(doc, &[term]);
                        assert!(
                            score <= bound,
                            "doc {doc:?} scores {score} above its block bound {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_adds_and_searches_stay_bit_identical() {
        // Grow a corpus while searching between appends: every append
        // drops the freeze, so every search rebuilds it over the new
        // statistics and must stay bit-identical to the exhaustive
        // scorer over the same state.
        let mut vocab = Vocab::new();
        let mut index = InvertedIndex::new();
        index.set_block_size(4);
        let phrases = [
            "clean room and soft bed",
            "dirty carpet dirty walls",
            "clean clean spotless lobby",
            "room with a view of the pool",
            "clean bed clean desk clean room",
            "noisy bar downstairs",
            "spotless room clean staff",
            "carpet bed desk pool bar room",
        ];
        for round in 0..6 {
            for (i, p) in phrases.iter().enumerate() {
                index.add_document(p, &mut vocab);
                if (round + i) % 3 == 0 {
                    let terms: Vec<WordId> = ["clean", "room", "carpet"]
                        .iter()
                        .filter_map(|t| vocab.get(t))
                        .collect();
                    for k in [1, 3, 10] {
                        assert_paths_agree(&index, &terms, k);
                    }
                }
            }
        }
    }

    #[test]
    fn appends_that_introduce_new_terms_extend_the_freeze() {
        let (mut vocab, mut index) = build();
        index.freeze();
        // The add drops the freeze; the search rebuilds it with the new
        // term's list in it.
        index.add_document("entirely novel wording here", &mut vocab);
        let novel = vocab.get("novel").unwrap();
        let hits = index.search_terms(&[novel], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, DocId(4));
        assert_paths_agree(&index, &[novel], 5);
    }
}
