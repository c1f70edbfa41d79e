//! Retrieval equivalence harness.
//!
//! The term-at-a-time top-k search must return **bit-identical**
//! answers to the oracle, which scores every matching document with the
//! point BM25 and fully sorts — same documents, same `f64` score bits,
//! same tie order — over random corpora and queries (including
//! duplicate terms, empty queries, out-of-vocabulary terms, `k` larger
//! than the corpus, all-equal-score ties, and documents appended
//! between searches). On top of the index-level properties, a cold-path
//! regression asserts retrieval actually fires inside the
//! interpretation pipeline (`wand_queries` via `cache_report`), a
//! differential over cold-bank-shaped predicates holds the interpreter's
//! own review index to the oracle at its own retrieval depth, and the
//! interpretations and answers built on that retrieval match the
//! reference end to end.

use opinedb::core::interpret::InterpreterConfig;
use opinedb::core::{build, BuildConfig, OpineDb};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::workload::hotel_workload;
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
) -> (Vocab, InvertedIndex, Vec<opinedb::text::WordId>) {
    let mut vocab = Vocab::new();
    let ids: Vec<_> = (0..vocab_size as usize + 3)
        .map(|w| vocab.intern(&format!("w{w}")))
        .collect();
    let mut index = InvertedIndex::new();
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
    hits: &[SearchHit],
    oracle: &[SearchHit],
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        hits.len() == oracle.len(),
        "{}: lengths differ ({} vs {})",
        context,
        hits.len(),
        oracle.len()
    );
    for (i, (h, o)) in hits.iter().zip(oracle).enumerate() {
        prop_assert!(
            h.doc == o.doc,
            "{}: doc at rank {} differs ({:?} vs {:?})",
            context,
            i,
            h.doc,
            o.doc
        );
        prop_assert!(
            h.score.to_bits() == o.score.to_bits(),
            "{}: score bits at rank {} differ ({} vs {})",
            context,
            i,
            h.score,
            o.score
        );
    }
    Ok(())
}

proptest! {
    /// Random corpora + random queries (duplicates and OOV terms
    /// included), random k (0 up to past the corpus size): the search
    /// ≡ the oracle.
    #[test]
    fn wand_is_bit_identical_to_exhaustive(
        docs in prop::collection::vec(prop::collection::vec(0u8..12, 0..10), 0..48),
        query in prop::collection::vec(0usize..15, 0..6),
        k in 0usize..60,
    ) {
        let (_, index, ids) = build_index(&docs, 12);
        let terms: Vec<_> = query.iter().map(|&q| ids[q]).collect();
        let hits = index.search_terms(&terms, k);
        let oracle = index.search_terms_exhaustive(&terms, k);
        assert_bit_identical(
            &hits,
            &oracle,
            &format!("docs={} terms={:?} k={k}", docs.len(), query),
        )?;
        if k == 0 || terms.is_empty() {
            prop_assert!(hits.is_empty());
        }
    }

    /// A tiny vocabulary forces massive score ties; the tie order
    /// (ascending doc id) must survive the selection exactly.
    #[test]
    fn tied_scores_keep_exhaustive_order(
        num_docs in 1usize..64,
        k in 0usize..80,
    ) {
        // Every document is identical, so every score is identical.
        let docs: Vec<Vec<u8>> = (0..num_docs).map(|_| vec![0, 1, 1]).collect();
        let (_, index, ids) = build_index(&docs, 2);
        let terms = [ids[0], ids[1]];
        let hits = index.search_terms(&terms, k);
        let oracle = index.search_terms_exhaustive(&terms, k);
        assert_bit_identical(&hits, &oracle, &format!("n={num_docs} k={k}"))?;
        // Ties resolve to the smallest doc ids, in ascending order.
        let expect: Vec<u32> = (0..num_docs.min(k) as u32).collect();
        let got: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        prop_assert_eq!(got, expect);
    }

    /// Duplicate query terms double (triple, …) a term's contribution;
    /// the search must accumulate them in the same order.
    #[test]
    fn duplicate_terms_stay_equivalent(
        docs in prop::collection::vec(prop::collection::vec(0u8..6, 1..8), 1..40),
        term in 0usize..6,
        copies in 2usize..5,
        k in 1usize..50,
    ) {
        let (_, index, ids) = build_index(&docs, 6);
        let terms: Vec<_> = std::iter::repeat_n(ids[term], copies).collect();
        let hits = index.search_terms(&terms, k);
        let oracle = index.search_terms_exhaustive(&terms, k);
        assert_bit_identical(&hits, &oracle, &format!("copies={copies} k={k}"))?;
    }

    /// Interleaved add/search: a document added to an already-frozen
    /// index drops its length factors, so every search between appends
    /// runs over factors rebuilt for the new corpus statistics and stays
    /// bit-identical to the oracle over the same state.
    #[test]
    fn interleaved_adds_and_searches_stay_bit_identical(
        initial in prop::collection::vec(prop::collection::vec(0u8..10, 1..8), 1..24),
        appended in prop::collection::vec(prop::collection::vec(0u8..10, 0..8), 1..24),
        query in prop::collection::vec(0usize..12, 1..5),
        k in 1usize..40,
    ) {
        let (mut vocab, mut index, ids) = build_index(&initial, 10);
        index.freeze();
        let terms: Vec<_> = query.iter().map(|&q| ids[q]).collect();
        for doc in &appended {
            let text = doc
                .iter()
                .map(|&w| format!("w{w}"))
                .collect::<Vec<_>>()
                .join(" ");
            index.add_document(&text, &mut vocab);
            let hits = index.search_terms(&terms, k);
            let oracle = index.search_terms_exhaustive(&terms, k);
            assert_bit_identical(
                &hits,
                &oracle,
                &format!("base={} appended_len={} k={k}", initial.len(), doc.len()),
            )?;
        }
    }
}

/// A database whose interpreter must fall past stage 1 for every
/// predicate (unreachable word2vec threshold) and retrieves a small
/// top-k, so every cold interpretation retrieves from a review-heavy
/// corpus.
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
    assert_eq!(
        after.wand_queries, 1,
        "one cold predicate retrieves once: {after:?}"
    );
    assert_eq!(after.blocks_skipped, 0, "nothing skips blocks any more");
}

const PIPELINE_PREDICATES: [&str; 6] = [
    "very clean comfortable room",
    "friendly helpful staff",
    "clean rooms",
    "quiet comfortable room",
    "spotless bathroom",
    "quiet room great location",
];

/// The interpreter's query terms for `predicate`: its in-vocabulary
/// tokens, duplicates kept, as `Interpreter::cooccurrence_stage` passes
/// them.
fn query_terms(db: &OpineDb, predicate: &str) -> Vec<opinedb::text::WordId> {
    opinedb::text::tokenize(predicate)
        .iter()
        .filter_map(|t| db.vocab().get(t))
        .collect()
}

/// Search ≡ oracle for `predicate` on the interpreter's real review
/// index with its real `top_k_reviews * 4`.
fn assert_interpreter_retrieval_matches(db: &OpineDb, predicate: &str) {
    let index = db.interpreter().review_index();
    let k = db.interpreter().config().top_k_reviews * 4;
    let terms = query_terms(db, predicate);
    let hits = index.search_terms(&terms, k);
    let oracle = index.search_terms_exhaustive(&terms, k);
    assert!(!hits.is_empty(), "{predicate:?} retrieves reviews");
    assert_bit_identical(&hits, &oracle, predicate).expect("bit-identical retrieval");
}

/// Intensifiers in the style of the benchmark's cold bank, which puts
/// every bank text under each of them.
const INTENSIFIERS: [&str; 24] = [
    "very",
    "really",
    "truly",
    "extremely",
    "quite",
    "pretty",
    "super",
    "so",
    "incredibly",
    "remarkably",
    "exceptionally",
    "absolutely",
    "especially",
    "particularly",
    "fairly",
    "rather",
    "wonderfully",
    "consistently",
    "reliably",
    "notably",
    "seriously",
    "honestly",
    "simply",
    "totally",
];

/// Cold-bank-shaped retrieval on the interpreter's review index: every
/// intensifier × a spread of the 190 bank texts, plus out-of-vocabulary
/// pairs alone and beside a bank text, at k ∈ {0, 1, the interpreter's
/// k, ≥ every touched document}. Docs, score bits and order must equal
/// the oracle's.
#[test]
fn cold_bank_retrieval_matches_the_oracle_at_every_k() {
    let db = pipeline_db();
    let index = db.interpreter().review_index();
    let real_k = db.interpreter().config().top_k_reviews * 4;
    let bank = hotel_workload(&hotel_spec());
    let texts: Vec<&str> = bank.iter().step_by(19).map(|p| p.text.as_str()).collect();
    let mut predicates: Vec<String> = Vec::new();
    for prefix in INTENSIFIERS {
        for text in &texts {
            predicates.push(format!("{prefix} {text}"));
        }
    }
    for (i, text) in texts.iter().enumerate() {
        let nonsense = |tail: char| format!("zq{}{tail}vx", (b'a' + i as u8) as char);
        let pair = format!("{} {}", nonsense('a'), nonsense('b'));
        assert!(
            query_terms(&db, &pair).is_empty(),
            "{pair:?} is out of vocabulary"
        );
        predicates.push(pair);
        predicates.push(format!("{} {text}", nonsense('c')));
    }
    // Predicates whose matches outnumber the interpreter's k, so the
    // selection really cuts.
    let mut cut = 0;
    for predicate in &predicates {
        let terms = query_terms(&db, predicate);
        for k in [0, 1, real_k, index.num_docs()] {
            let hits = index.search_terms(&terms, k);
            let oracle = index.search_terms_exhaustive(&terms, k);
            assert_bit_identical(&hits, &oracle, &format!("{predicate:?} k={k}"))
                .expect("bit-identical retrieval");
            if k == index.num_docs() && hits.len() > real_k {
                cut += 1;
            }
        }
    }
    assert!(
        cut > predicates.len() / 2,
        "only {cut} of {} predicates match more than k = {real_k} reviews",
        predicates.len()
    );
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
