//! Inverted index with Okapi BM25 ranking and term-at-a-time top-k.
//!
//! Documents are added once (the build phase). Every score is a sum of
//! `(term, doc)` contributions through one expression over a
//! per-document length factor, built once after the last add. The top-k
//! [`InvertedIndex::search_terms`] adds each query term's postings into
//! a dense score array in query-term order, duplicates included, then
//! selects its k best by (score desc, doc asc). A document's sum is
//! therefore the one the point [`InvertedIndex::bm25`] computes, and the
//! oracle [`InvertedIndex::search_terms_exhaustive`], which scores every
//! matching document that way and fully sorts, returns
//! **bit-identical** hits — same documents, same `f64` score bits, same
//! tie order.

use opine_text::{tokenize, Vocab, WordId};
use std::cmp::Ordering;
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
/// BM25 length-normalization strength (`b`).
pub const BM25_B: f64 = 0.75;

/// A scored retrieval result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matching document.
    pub doc: DocId,
    /// Its BM25 score (≥ 0).
    pub score: f64,
}

/// The length half of a BM25 denominator, `K1·(1 − b + b·len/avg)`:
/// one value per document for a fixed corpus.
#[inline]
fn len_factor(doc_len: u32, avg_len: f64) -> f64 {
    BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len as f64 / avg_len)
}

/// One `(term, doc)` BM25 contribution. Every scoring path funnels
/// through this one expression, which is what makes their answers
/// bit-identical. It is > 0 for every posting (`idf > 0`, `tf ≥ 1`).
#[inline]
fn score_one(idf: f64, tf: u32, len_factor: f64) -> f64 {
    let tf = tf as f64;
    idf * tf * (BM25_K1 + 1.0) / (tf + len_factor)
}

/// The canonical hit order: score descending, doc id ascending on ties.
fn hit_order(a: &SearchHit, b: &SearchHit) -> Ordering {
    b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc))
}

/// An in-memory inverted index over tokenized documents.
///
/// Documents are added once; the index keeps postings (sorted by
/// document id) with term frequencies, document lengths and document
/// frequencies for BM25. The per-document length factor every score
/// reads is built on first use (or by [`Self::freeze`]); adding a
/// document drops it, since the mean length moved.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    postings: HashMap<WordId, Vec<(DocId, u32)>>,
    doc_lengths: Vec<u32>,
    total_length: u64,
    /// [`len_factor`] per document under the current mean length.
    len_factors: OnceLock<Vec<f64>>,
    /// Top-k searches answered (the `wand_queries` counter of `/stats`).
    wand_queries: AtomicU64,
}

impl InvertedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document, interning its [`tokenize`]d text into `vocab`:
    /// [`Self::add_terms`] of its token ids.
    pub fn add_document(&mut self, text: &str, vocab: &mut Vocab) -> DocId {
        let terms: Vec<WordId> = tokenize(text).iter().map(|t| vocab.intern(t)).collect();
        self.add_terms(&terms)
    }

    /// Adds a document given its interned tokens, in text order.
    ///
    /// Returns the new document's id. The per-document length factors
    /// are dropped: the mean length moved under every one of them, so
    /// the next score (or [`Self::freeze`]) rebuilds them.
    pub fn add_terms(&mut self, terms: &[WordId]) -> DocId {
        let doc = DocId(self.doc_lengths.len() as u32);
        let mut tf: HashMap<WordId, u32> = HashMap::new();
        for &term in terms {
            *tf.entry(term).or_insert(0) += 1;
        }
        for (word, count) in tf {
            // Documents arrive in ascending id order, so each posting
            // list stays sorted by doc id without ever re-sorting.
            self.postings.entry(word).or_default().push((doc, count));
        }
        self.doc_lengths.push(terms.len() as u32);
        self.total_length += terms.len() as u64;
        self.len_factors.take();
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

    /// Tokens over all documents.
    pub fn total_len(&self) -> u64 {
        self.total_length
    }

    /// Top-k searches answered since construction.
    pub fn wand_queries(&self) -> u64 {
        self.wand_queries.load(Relaxed)
    }

    /// Builds the per-document length factors eagerly (they are
    /// otherwise built on the first score), so a serving path never
    /// pays for them inside a query.
    pub fn freeze(&self) {
        let _ = self.len_factors();
    }

    /// The `(doc, tf)` postings of `term`, sorted by document id
    /// (empty for unseen terms).
    pub fn term_postings(&self, term: WordId) -> &[(DocId, u32)] {
        self.postings.get(&term).map_or(&[], Vec::as_slice)
    }

    /// BM25 score of `doc` for the (tokenized, interned) query terms.
    pub fn bm25(&self, doc: DocId, query_terms: &[WordId]) -> f64 {
        query_terms
            .iter()
            .map(|&term| self.bm25_term(doc, term))
            .sum()
    }

    fn bm25_term(&self, doc: DocId, term: WordId) -> f64 {
        let postings = self.term_postings(term);
        // Postings are sorted by doc id (documents are appended in id
        // order), so the per-(doc, term) lookup is a binary search.
        let Ok(i) = postings.binary_search_by_key(&doc, |&(d, _)| d) else {
            return 0.0;
        };
        let idf = self.idf(postings.len());
        score_one(idf, postings[i].1, self.len_factors()[doc.index()])
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

    /// The retrieval oracle: every document that contains a query term,
    /// scored by the point [`Self::bm25`] and fully sorted by (score
    /// desc, doc asc). [`Self::search_terms`] must equal it bit for bit.
    pub fn search_terms_exhaustive(&self, terms: &[WordId], k: usize) -> Vec<SearchHit> {
        let mut docs: Vec<DocId> = terms
            .iter()
            .flat_map(|&term| self.term_postings(term))
            .map(|&(doc, _)| doc)
            .collect();
        docs.sort_unstable();
        docs.dedup();
        let mut hits: Vec<SearchHit> = docs
            .into_iter()
            .map(|doc| SearchHit {
                doc,
                score: self.bm25(doc, terms),
            })
            .collect();
        hits.sort_by(hit_order);
        hits.truncate(k);
        hits
    }

    /// Top-`k` documents for pre-interned query terms, term-at-a-time:
    /// each term's contributions are added into a dense score array in
    /// query-term order (duplicates included), the touched documents are
    /// cut to the k best by (score desc, doc asc) with a selection, and
    /// only those are sorted.
    pub fn search_terms(&self, terms: &[WordId], k: usize) -> Vec<SearchHit> {
        if k == 0 || terms.is_empty() || self.doc_lengths.is_empty() {
            return Vec::new();
        }
        self.wand_queries.fetch_add(1, Relaxed);
        let span = opine_trace::span("wand_retrieval");
        let mut scores = vec![0.0f64; self.num_docs()];
        let mut touched: Vec<DocId> = Vec::new();
        let mut scored = 0;
        let factors = self.len_factors();
        for &term in terms {
            // Armed only under fault injection.
            opine_faults::fire_panic("mid_wand");
            let postings = self.term_postings(term);
            let idf = self.idf(postings.len());
            scored += postings.len();
            for &(doc, tf) in postings {
                opine_faults::checkpoint();
                let score = &mut scores[doc.index()];
                // A contribution is > 0, so 0.0 means untouched.
                if *score == 0.0 {
                    touched.push(doc);
                }
                *score += score_one(idf, tf, factors[doc.index()]);
            }
        }
        span.count("postings", scored as u64);
        let mut hits: Vec<SearchHit> = touched
            .into_iter()
            .map(|doc| SearchHit {
                doc,
                score: scores[doc.index()],
            })
            .collect();
        if hits.len() > k {
            hits.select_nth_unstable_by(k - 1, hit_order);
            hits.truncate(k);
        }
        hits.sort_unstable_by(hit_order);
        hits
    }

    /// The per-document length factors, built on first use.
    fn len_factors(&self) -> &[f64] {
        self.len_factors.get_or_init(|| {
            let avg_len = self.avg_doc_len();
            self.doc_lengths
                .iter()
                .map(|&len| len_factor(len, avg_len))
                .collect()
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
/// callers that derive those statistics outside an index (the engine
/// sums review postings per entity) and must score bit-identically to
/// one.
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
        len_factor(doc_len, avg_doc_len(num_docs, total_length)),
    )
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

    /// Asserts the top-k search and the oracle are bit-identical: same
    /// docs, same score bits, same order.
    fn assert_paths_agree(index: &InvertedIndex, terms: &[WordId], k: usize) {
        let fast = index.search_terms(terms, k);
        let oracle = index.search_terms_exhaustive(terms, k);
        assert_eq!(fast.len(), oracle.len(), "k={k} terms={terms:?}");
        for (f, o) in fast.iter().zip(&oracle) {
            assert_eq!(f.doc, o.doc, "k={k}");
            assert_eq!(f.score.to_bits(), o.score.to_bits(), "doc {:?}", f.doc);
        }
    }

    /// A larger synthetic corpus with a deterministic, skewed term
    /// distribution (LCG): many near-ties and many touched documents.
    fn skewed(num_docs: usize) -> (Vocab, InvertedIndex, Vec<WordId>) {
        let mut vocab = Vocab::new();
        let mut index = InvertedIndex::new();
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
            // Linear reference: a scan for the posting.
            let (_, tf) = postings.iter().find(|(d, _)| *d == doc).copied().unwrap();
            let reference = score_one(idf, tf, len_factor(index.doc_len(doc), avg_len));
            let got = index.bm25(doc, &[term]);
            assert_eq!(got.to_bits(), reference.to_bits(), "doc {i}");
        }
        // Absent docs score zero for absent terms.
        let rare = vocab.intern("neverseen");
        assert_eq!(index.bm25(DocId(3), &[rare]), 0.0);
    }

    #[test]
    fn wand_matches_exhaustive_on_the_fixture() {
        let (vocab, index) = build();
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
        let (_, index, terms) = skewed(3000);
        for k in [1, 5, 10, 100, 5000] {
            assert_paths_agree(&index, &terms, k);
        }
    }

    #[test]
    fn single_doc_blocks_stay_equivalent() {
        let (vocab, index) = build();
        let terms: Vec<WordId> = ["clean", "room"]
            .iter()
            .filter_map(|t| vocab.get(t))
            .collect();
        for k in [1, 2, 3, 10] {
            assert_paths_agree(&index, &terms, k);
        }
        // One posting per matching document.
        assert_eq!(
            index.term_postings(terms[0]).len(),
            index.doc_freq(terms[0])
        );
    }

    #[test]
    fn block_boundary_exactly_at_k_stays_equivalent() {
        let (_, index, terms) = skewed(256);
        // k at a quarter, half and all of the corpus: the selection cuts
        // at, inside and past a run of ties.
        for k in [64, 128, 256] {
            assert_paths_agree(&index, &terms, k);
        }
    }

    #[test]
    fn each_search_counts_once_and_k_zero_not_at_all() {
        let (_, index, terms) = skewed(200);
        assert_eq!(index.wand_queries(), 0);
        index.search_terms(&terms, 10);
        index.search_terms(&terms, 0);
        index.search_terms(&[], 10);
        assert_eq!(index.wand_queries(), 1);
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
    fn duplicate_terms_score_like_the_exhaustive_path() {
        let (vocab, index) = build();
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
    fn interleaved_adds_and_searches_stay_bit_identical() {
        // Grow a corpus while searching between appends: every append
        // drops the length factors, so every search rebuilds them over
        // the new statistics and must stay bit-identical to the oracle
        // over the same state.
        let mut vocab = Vocab::new();
        let mut index = InvertedIndex::new();
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
        // The add drops the length factors; the search rebuilds them
        // with the new document in them.
        index.add_document("entirely novel wording here", &mut vocab);
        let novel = vocab.get("novel").unwrap();
        let hits = index.search_terms(&[novel], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, DocId(4));
        assert_paths_agree(&index, &[novel], 5);
    }
}
