//! Property-based tests over core invariants (proptest).

use opinedb::core::reference::full_scan_topk_dense;
use opinedb::core::topk::threshold_topk;
use opinedb::core::DegreeColumn;
use opinedb::store::parser::parse_select;
use opinedb::store::{FuzzyAlgebra, Residue};
use proptest::prelude::*;

/// `leaf 0 and leaf 1 and leaf 2`: the three-column product conjunction.
fn conjunction() -> Residue {
    Residue::conjunction(3).unwrap()
}

/// The TA kernel over columns whose sorted orders are the production sort.
fn ta(columns: &[DegreeColumn], k: usize) -> Vec<(usize, f64)> {
    let degrees: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
    let orders: Vec<&[u32]> = columns.iter().map(|c| c.sorted_order()).collect();
    threshold_topk(
        &degrees,
        &orders,
        &conjunction(),
        FuzzyAlgebra::Product,
        k,
        |_| true,
    )
}

/// The kernels' reference over the same columns.
fn full_scan(views: &[&[f64]], k: usize) -> Vec<(usize, f64)> {
    full_scan_topk_dense(views, &conjunction(), FuzzyAlgebra::Product, k)
}

proptest! {
    /// The parser never panics, whatever the input.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse_select(&input);
    }

    /// Valid skeleton queries with arbitrary predicate text round-trip.
    #[test]
    fn quoted_predicates_roundtrip(pred in "[a-z ]{1,40}") {
        let sql = format!("select * from t where \"{pred}\"");
        let q = parse_select(&sql).unwrap();
        let w = q.where_clause.unwrap();
        prop_assert_eq!(w.subjective_predicates(), vec![pred.as_str()]);
    }

    /// T-norm laws hold for both algebras on arbitrary degrees.
    #[test]
    fn tnorm_laws(x in 0.0f64..=1.0, y in 0.0f64..=1.0, z in 0.0f64..=1.0) {
        for alg in [FuzzyAlgebra::Product, FuzzyAlgebra::Godel] {
            // Commutativity.
            prop_assert!((alg.and(x, y) - alg.and(y, x)).abs() < 1e-12);
            prop_assert!((alg.or(x, y) - alg.or(y, x)).abs() < 1e-12);
            // Boundary conditions.
            prop_assert!((alg.and(x, 1.0) - x).abs() < 1e-12);
            prop_assert!(alg.and(x, 0.0).abs() < 1e-12);
            prop_assert!((alg.or(x, 0.0) - x).abs() < 1e-12);
            // Monotonicity in the first argument.
            if x <= z {
                prop_assert!(alg.and(x, y) <= alg.and(z, y) + 1e-12);
                prop_assert!(alg.or(x, y) <= alg.or(z, y) + 1e-12);
            }
            // Range.
            prop_assert!((0.0..=1.0).contains(&alg.and(x, y)));
            prop_assert!((0.0..=1.0).contains(&alg.or(x, y)));
            // De Morgan.
            let lhs = alg.not(alg.and(x, y));
            let rhs = alg.or(alg.not(x), alg.not(y));
            prop_assert!((lhs - rhs).abs() < 1e-12);
        }
    }

    /// Fagin's TA returns exactly the full-scan top-k — entities, scores,
    /// and order (the ranking total order is deterministic).
    #[test]
    fn threshold_algorithm_equals_full_scan(
        degrees in prop::collection::vec(
            (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0), 1..40),
        k in 1usize..8,
    ) {
        let columns: Vec<DegreeColumn> = (0..3)
            .map(|dim| DegreeColumn::new(degrees.iter().map(|d| [d.0, d.1, d.2][dim]).collect()))
            .collect();
        let top = ta(&columns, k);
        let views: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
        prop_assert_eq!(&top, &full_scan(&views, k));
        // Result is sorted descending.
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }

    /// The TA kernel and the full-scan reference both reproduce the
    /// naive product-combine sort *exactly*, ties included: degrees are
    /// quantized to force score collisions, and both must break them the
    /// same way (entity id ascending).
    #[test]
    fn ta_entry_points_agree_with_naive_under_ties(
        degrees in prop::collection::vec((0u32..5, 0u32..5, 0u32..5), 1..60),
        k in 1usize..10,
    ) {
        let columns: Vec<DegreeColumn> = (0..3)
            .map(|dim| {
                DegreeColumn::new(
                    degrees.iter().map(|d| f64::from([d.0, d.1, d.2][dim]) / 4.0).collect(),
                )
            })
            .collect();
        let views: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
        // Naive reference: combine every entity, sort by (score desc,
        // entity asc), truncate.
        let mut naive: Vec<(usize, f64)> = (0..degrees.len())
            .map(|e| (e, views.iter().map(|c| c[e]).product()))
            .collect();
        naive.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        naive.truncate(k);

        prop_assert_eq!(&ta(&columns, k), &naive);
        prop_assert_eq!(&full_scan(&views, k), &naive);
    }

    /// BM25 search scores are non-negative and sorted.
    #[test]
    fn bm25_scores_sane(docs in prop::collection::vec("[a-c ]{1,30}", 1..12),
                        query in "[a-c ]{1,10}") {
        let mut vocab = opinedb::text::Vocab::new();
        let mut index = opinedb::ir::InvertedIndex::new();
        for d in &docs {
            index.add_document(d, &mut vocab);
        }
        let hits = index.search(&query, 10, &vocab);
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for h in &hits {
            prop_assert!(h.score >= 0.0);
        }
    }

    /// Tokenization never produces empty tokens and always lowercases.
    #[test]
    fn tokenizer_invariants(text in ".{0,120}") {
        for tok in opinedb::text::tokenize_keep_stops(&text) {
            prop_assert!(!tok.is_empty());
            prop_assert_eq!(tok.clone(), tok.to_lowercase());
        }
    }

    /// Sentiment scores are always within [-1, 1].
    #[test]
    fn sentiment_bounded(text in ".{0,120}") {
        let s = opinedb::sentiment::SentimentAnalyzer::new();
        let v = s.score(&text);
        prop_assert!((-1.0..=1.0).contains(&v));
    }
}
