//! Integration tests for the Subjective SQL dialect through the full stack.

use opinedb::core::{build, BuildConfig};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::embed::Word2VecConfig;
use opinedb::store::FuzzyAlgebra;

fn db() -> opinedb::core::OpineDb {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 18,
            mean_reviews: 12,
            seed: 41,
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
            membership_tuples: 300,
            ..Default::default()
        },
    )
}

#[test]
fn disjunction_scores_at_least_each_disjunct() {
    let db = db();
    let and_out = db
        .query("select * from hotels where \"clean rooms\" and \"friendly staff\" limit 18")
        .unwrap();
    let or_out = db
        .query("select * from hotels where \"clean rooms\" or \"friendly staff\" limit 18")
        .unwrap();
    // Product t-norm: or-score >= and-score for the same entity.
    for (row, and_score) in &and_out.result.rows {
        let key = row[0].as_str().unwrap();
        if let Some((_, or_score)) = or_out
            .result
            .rows
            .iter()
            .find(|(r, _)| r[0].as_str() == Some(key))
        {
            assert!(
                or_score >= and_score,
                "{key}: or={or_score} and={and_score}"
            );
        }
    }
}

#[test]
fn negation_inverts_ranking() {
    let db = db();
    let pos = db
        .query("select * from hotels where \"quiet room\" limit 18")
        .unwrap();
    let neg = db
        .query("select * from hotels where not \"quiet room\" limit 18")
        .unwrap();
    let top_pos = pos.result.rows[0].0[0].as_str().unwrap().to_string();
    let top_neg = neg.result.rows[0].0[0].as_str().unwrap().to_string();
    assert_ne!(top_pos, top_neg, "negation should change the winner");
    // Scores complement: score_neg(e) = 1 - score_pos(e).
    for (row, s) in &pos.result.rows {
        let key = row[0].as_str().unwrap();
        if let Some((_, ns)) = neg
            .result
            .rows
            .iter()
            .find(|(r, _)| r[0].as_str() == Some(key))
        {
            assert!((ns + s - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn projection_and_order_by_work_with_subjective_where() {
    let db = db();
    let out = db
        .query(
            "select hotelname, price_pn from hotels where \"clean rooms\" \
             order by price_pn asc limit 6",
        )
        .unwrap();
    assert_eq!(out.result.columns, vec!["hotelname", "price_pn"]);
    for w in out.result.rows.windows(2) {
        assert!(w[0].0[1].as_f64().unwrap() <= w[1].0[1].as_f64().unwrap());
    }
}

#[test]
fn godel_algebra_scores_with_min() {
    let db = db();
    let product = db
        .query("select * from hotels where \"clean rooms\" and \"clean rooms\" limit 18")
        .unwrap();
    let godel = db
        .query_with_algebra(
            "select * from hotels where \"clean rooms\" and \"clean rooms\" limit 18",
            FuzzyAlgebra::Godel,
        )
        .unwrap();
    // x⊗x = x² under product but x under Gödel, so Gödel scores dominate.
    let g_top = godel.result.rows[0].1;
    let p_top = product.result.rows[0].1;
    assert!(g_top >= p_top);
}

#[test]
fn godel_algebra_answers_joined_statements() {
    let db = db();
    // One predicate: min(1, x) = 1·x, so the two algebras agree to the bit.
    let single = "select * from hotels h join reviews r on h.hotelname = r.entity \
                  where \"clean rooms\" and r.year >= 2015 limit 40";
    let product = db.query(single).unwrap().result.rows;
    let godel = db.query_with_algebra(single, FuzzyAlgebra::Godel).unwrap();
    assert!(!product.is_empty());
    assert_eq!(godel.result.rows, product);

    // Two predicates: every joined row scores the min of its entity's degrees.
    let double = "select * from hotels h join reviews r on h.hotelname = r.entity \
                  where \"clean rooms\" and \"friendly staff\" limit 40";
    let godel = db.query_with_algebra(double, FuzzyAlgebra::Godel).unwrap();
    assert!(!godel.result.rows.is_empty());
    let reference = db.reference();
    for (row, score) in &godel.result.rows {
        let entity = db.entity_id(row[0].as_str().unwrap()).unwrap();
        let expected = reference
            .degree(entity, "clean rooms")
            .min(reference.degree(entity, "friendly staff"));
        assert_eq!(score.to_bits(), expected.to_bits(), "{:?}", row[0]);
    }
}

#[test]
fn explicit_marker_conditions_execute() {
    let db = db();
    let out = db
        .query(
            "select * from hotels h where h.service .= \"exceptional\" \
             and h.bathroom_style .= \"luxurious\" limit 5",
        )
        .unwrap();
    assert!(!out.result.rows.is_empty());
    for (_, s) in &out.result.rows {
        assert!((0.0..=1.0).contains(s));
    }
}

#[test]
fn errors_are_reported_not_panicked() {
    let db = db();
    assert!(db.query("select * from missing_table").is_err());
    assert!(db.query("select nosuch from hotels").is_err());
    assert!(db.query("garbage !!").is_err());
    assert!(db
        .query("select * from hotels h where h.not_an_attribute .= \"x\"")
        .is_err());
    // A bad leaf is an error even when no row reaches it.
    assert!(db
        .query("select * from hotels h where h.price_pn < 0 and h.not_an_attribute .= \"x\"")
        .is_err());
}

/// Regression: `query_with_algebra` scanned the frozen tables only, so a
/// review inserted at serve time was missing from its answers under
/// either algebra while `query` returned it.
#[test]
fn query_with_algebra_sees_live_inserted_rows() {
    let db = db();
    let entity = db.entity_key(2).to_string();
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, year, reviewer_id) VALUES ('{entity}', 2022, 880088)"
    ))
    .unwrap();
    let sql = "select * from reviews where reviewer_id = 880088";
    let expected = db.query(sql).unwrap().result.rows;
    assert_eq!(expected.len(), 1);
    for algebra in [FuzzyAlgebra::Product, FuzzyAlgebra::Godel] {
        let got = db.query_with_algebra(sql, algebra).unwrap().result.rows;
        assert_eq!(got, expected, "{algebra:?}");
    }
}
