//! Block-Max-WAND equivalence harness.
//!
//! The skipping retrieval path must return **bit-identical** answers to
//! the exhaustive posting traversal it replaced — same documents, same
//! `f64` score bits, same tie order — over random corpora and queries
//! (including duplicate terms, empty queries, out-of-vocabulary terms,
//! `k` larger than the corpus, and all-equal-score ties), and the
//! per-block max-impact bounds must truly dominate every member
//! document's score. On top of the index-level properties, a cold-path
//! regression asserts the skipping path actually fires inside the
//! interpretation pipeline (`wand_queries` / `blocks_skipped` via
//! `cache_report`) and that, on the interpreter's own review index at
//! its own retrieval depth, WAND and the exhaustive scorer return the
//! same hits — so interpretations, and the answers built on them, match
//! the reference end to end.

use opinedb::core::interpret::InterpreterConfig;
use opinedb::core::{build, BuildConfig, OpineDb};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::embed::Word2VecConfig;
use opinedb::ir::{InvertedIndex, SearchHit};
use opinedb::text::Vocab;
use proptest::prelude::*;

/// Builds an index over synthetic documents. Word id `w` renders as the
/// token `w{w}`; every id in `0..vocab_size + 3` is interned, so ids at
/// the top of the range act as in-vocabulary terms with empty posting
/// lists (the OOV case `search_terms` must tolerate).
fn build_index(
    docs: &[Vec<u8>],
    vocab_size: u8,
    block_size: usize,
) -> (Vocab, InvertedIndex, Vec<opinedb::text::WordId>) {
    let mut vocab = Vocab::new();
    let ids: Vec<_> = (0..vocab_size as usize + 3)
        .map(|w| vocab.intern(&format!("w{w}")))
        .collect();
    let mut index = InvertedIndex::new();
    index.set_block_size(block_size);
    for doc in docs {
        let text = doc
            .iter()
            .map(|&w| format!("w{w}"))
            .collect::<Vec<_>>()
            .join(" ");
        index.add_document(&text, &mut vocab);
    }
    (vocab, index, ids)
}

/// Asserts bit-identical hits: same docs, same score bits, same order.
fn assert_bit_identical(
    wand: &[SearchHit],
    exhaustive: &[SearchHit],
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        wand.len() == exhaustive.len(),
        "{}: lengths differ ({} vs {})",
        context,
        wand.len(),
        exhaustive.len()
    );
    for (i, (w, e)) in wand.iter().zip(exhaustive).enumerate() {
        prop_assert!(
            w.doc == e.doc,
            "{}: doc at rank {} differs ({:?} vs {:?})",
            context,
            i,
            w.doc,
            e.doc
        );
        prop_assert!(
            w.score.to_bits() == e.score.to_bits(),
            "{}: score bits at rank {} differ ({} vs {})",
            context,
            i,
            w.score,
            e.score
        );
    }
    Ok(())
}

proptest! {
    /// Random corpora + random queries (duplicates and OOV terms
    /// included), random k (0 up to past the corpus size), random
    /// block sizes down to single-posting blocks: WAND ≡ exhaustive.
    #[test]
    fn wand_is_bit_identical_to_exhaustive(
        docs in prop::collection::vec(prop::collection::vec(0u8..12, 0..10), 0..48),
        query in prop::collection::vec(0usize..15, 0..6),
        k in 0usize..60,
        block_size in 1usize..9,
    ) {
        let (_, index, ids) = build_index(&docs, 12, block_size);
        let terms: Vec<_> = query.iter().map(|&q| ids[q]).collect();
        let wand = index.search_terms(&terms, k);
        let exhaustive = index.search_terms_exhaustive(&terms, k);
        assert_bit_identical(
            &wand,
            &exhaustive,
            &format!("docs={} terms={:?} k={k} block={block_size}", docs.len(), query),
        )?;
        if k == 0 || terms.is_empty() {
            prop_assert!(wand.is_empty());
        }
    }

    /// A tiny vocabulary forces massive score ties; the tie order
    /// (ascending doc id) must survive skipping exactly.
    #[test]
    fn tied_scores_keep_exhaustive_order(
        num_docs in 1usize..64,
        k in 0usize..80,
        block_size in 1usize..6,
    ) {
        // Every document is identical, so every score is identical.
        let docs: Vec<Vec<u8>> = (0..num_docs).map(|_| vec![0, 1, 1]).collect();
        let (_, index, ids) = build_index(&docs, 2, block_size);
        let terms = [ids[0], ids[1]];
        let wand = index.search_terms(&terms, k);
        let exhaustive = index.search_terms_exhaustive(&terms, k);
        assert_bit_identical(&wand, &exhaustive, &format!("n={num_docs} k={k}"))?;
        // Ties resolve to the smallest doc ids, in ascending order.
        let expect: Vec<u32> = (0..num_docs.min(k) as u32).collect();
        let got: Vec<u32> = wand.iter().map(|h| h.doc.0).collect();
        prop_assert_eq!(got, expect);
    }

    /// Duplicate query terms double (triple, …) a term's contribution;
    /// the skipping path must accumulate them in the same order.
    #[test]
    fn duplicate_terms_stay_equivalent(
        docs in prop::collection::vec(prop::collection::vec(0u8..6, 1..8), 1..40),
        term in 0usize..6,
        copies in 2usize..5,
        k in 1usize..50,
    ) {
        let (_, index, ids) = build_index(&docs, 6, 4);
        let terms: Vec<_> = std::iter::repeat_n(ids[term], copies).collect();
        let wand = index.search_terms(&terms, k);
        let exhaustive = index.search_terms_exhaustive(&terms, k);
        assert_bit_identical(&wand, &exhaustive, &format!("copies={copies} k={k}"))?;
    }

    /// Interleaved add/search: a document added to an already-frozen
    /// index drops the freeze, so every search between appends runs
    /// over blocks rebuilt for the new corpus statistics and stays
    /// bit-identical to the exhaustive scorer over the same state.
    #[test]
    fn interleaved_adds_and_searches_stay_bit_identical(
        initial in prop::collection::vec(prop::collection::vec(0u8..10, 1..8), 1..24),
        appended in prop::collection::vec(prop::collection::vec(0u8..10, 0..8), 1..24),
        query in prop::collection::vec(0usize..12, 1..5),
        k in 1usize..40,
        block_size in 1usize..6,
    ) {
        let (mut vocab, mut index, ids) = build_index(&initial, 10, block_size);
        index.freeze();
        let terms: Vec<_> = query.iter().map(|&q| ids[q]).collect();
        for doc in &appended {
            let text = doc
                .iter()
                .map(|&w| format!("w{w}"))
                .collect::<Vec<_>>()
                .join(" ");
            index.add_document(&text, &mut vocab);
            let wand = index.search_terms(&terms, k);
            let exhaustive = index.search_terms_exhaustive(&terms, k);
            assert_bit_identical(
                &wand,
                &exhaustive,
                &format!(
                    "base={} appended_len={} k={k} block={block_size}",
                    initial.len(),
                    doc.len()
                ),
            )?;
        }
    }

    /// No block's stored max-impact bound is ever exceeded by a member
    /// document's real score (the invariant every skip relies on).
    #[test]
    fn block_bounds_dominate_member_scores(
        docs in prop::collection::vec(prop::collection::vec(0u8..8, 1..10), 1..60),
        block_size in 1usize..7,
    ) {
        let (_, index, ids) = build_index(&docs, 8, block_size);
        for &term in &ids {
            let blocks = index.term_blocks(term);
            let postings = index.term_postings(term);
            for (first, last, bound) in blocks {
                for &(doc, _) in postings {
                    if doc >= first && doc <= last {
                        let score = index.bm25(doc, &[term]);
                        prop_assert!(
                            score <= bound,
                            "doc {:?} scores {} above its block bound {}",
                            doc, score, bound
                        );
                    }
                }
            }
        }
    }
}

/// A database whose interpreter must fall past stage 1 for every
/// predicate (unreachable word2vec threshold) and retrieves a small
/// top-k, so the cold interpretation path exercises WAND skipping on a
/// review-heavy corpus.
fn pipeline_db() -> OpineDb {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 24,
            mean_reviews: 40,
            seed: 31,
        },
    );
    build(
        &corpus,
        &BuildConfig {
            w2v: Word2VecConfig {
                dim: 24,
                epochs: 1,
                ..Default::default()
            },
            membership_tuples: 300,
            interpreter: InterpreterConfig {
                // Stage 1 can never trigger (cosine ≤ 1), so every cold
                // interpretation runs the co-occurrence retrieval.
                theta1: 1.01,
                top_k_reviews: 5,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[test]
fn cold_interpretation_fires_the_skipping_path() {
    let db = pipeline_db();
    let before = db.cache_report();
    assert_eq!(before.wand_queries, 0);
    let out = db
        .query("select * from hotels where \"very clean comfortable room\" limit 8")
        .expect("query runs");
    assert!(!out.result.rows.is_empty());
    let after = db.cache_report();
    assert!(
        after.wand_queries > 0,
        "cold interpretation must route retrieval through WAND: {after:?}"
    );
    assert!(
        after.blocks_skipped > 0,
        "the block-max bounds must actually skip blocks on a \
         review-heavy corpus: {after:?}"
    );
}

const PIPELINE_PREDICATES: [&str; 6] = [
    "very clean comfortable room",
    "friendly helpful staff",
    "clean rooms",
    "quiet comfortable room",
    "spotless bathroom",
    "quiet room great location",
];

/// WAND ≡ exhaustive for `predicate` on the interpreter's real review
/// index with its real `top_k_reviews * 4`.
fn assert_interpreter_retrieval_matches(db: &OpineDb, predicate: &str) {
    let index = db.interpreter().review_index();
    let k = db.interpreter().config().top_k_reviews * 4;
    let terms: Vec<_> = opinedb::text::tokenize(predicate)
        .iter()
        .filter_map(|t| db.vocab().get(t))
        .collect();
    let wand = index.search_terms(&terms, k);
    let exhaustive = index.search_terms_exhaustive(&terms, k);
    assert!(!wand.is_empty(), "{predicate:?} retrieves reviews");
    assert_bit_identical(&wand, &exhaustive, predicate).expect("bit-identical retrieval");
}

#[test]
fn wand_toggle_answers_match_end_to_end() {
    let db = pipeline_db();
    for predicate in PIPELINE_PREDICATES {
        assert_interpreter_retrieval_matches(&db, predicate);
    }
    // With identical retrieval under every interpretation, the answers
    // equal the reference's: same rows, same order, bit-equal scores.
    for sql in [
        "select * from hotels where \"very clean comfortable room\" limit 10",
        "select * from hotels where \"friendly helpful staff\" and \"clean rooms\" limit 6",
        "select * from hotels where price_pn < 200 and \"quiet comfortable room\" limit 12",
    ] {
        let fast = db.query(sql).expect("query");
        let reference = db.reference().query(sql).expect("reference query");
        assert_eq!(fast.interpretations, reference.interpretations, "{sql}");
        assert_eq!(fast.result.rows.len(), reference.result.rows.len(), "{sql}");
        for ((fr, fs), (rr, rs)) in fast.result.rows.iter().zip(&reference.result.rows) {
            assert_eq!(fr, rr, "{sql}");
            assert_eq!(fs.to_bits(), rs.to_bits(), "{sql}");
        }
    }
}

#[test]
fn interpretations_match_with_wand_on_and_off() {
    let db = pipeline_db();
    // The co-occurrence stage is a function of the retrieved hits, so
    // bit-identical retrieval produces identical interpretations.
    for predicate in PIPELINE_PREDICATES {
        assert_interpreter_retrieval_matches(&db, predicate);
        let cold = db.interpret(predicate);
        db.clear_caches();
        assert_eq!(cold, db.interpret(predicate), "{predicate:?}");
    }
}
