//! Review-qualifier equivalence properties through the full stack.
//!
//! Three evaluation routes must agree *bit-for-bit* on every degree:
//!
//! 1. **fold** — `OpineDb::summaries_qualified`, one pass over each
//!    cell's raw occurrences adding the tabulated per-variation
//!    assignment of every occurrence the qualifier accepts;
//! 2. **raw rescan** — `OpineDb::summaries_with_review_filter` over the
//!    qualifier's reference closure (`ReviewQualifier::accepts`), which
//!    resolves every occurrence against the markers from scratch;
//! 3. **trivial qualifier** — `with reviews()` over all reviews, which
//!    must reproduce the unqualified build-time summaries and the
//!    unqualified query answers.
//!
//! Routes 1 and 2 are exercised both at the summary level and through
//! `execute` (the SQL surface), borrowed and materialized.
//!
//! The fold's accumulators are checked per cell
//! (`OpineDb::summary_qualified`); a cached set keeps feature rows, not
//! summaries, and its rows must carry the bits of the rescanned
//! summaries' rows.
//!
//! Under live ingest route 1 splits in two that must still agree with
//! route 2 at every epoch: the **repaired** set (a cached set brought
//! to the new epoch by folding again only the entities that changed,
//! into rows beside its plane) and the **cold** set (every entity
//! folded at the pinned epoch). The column a qualified leaf reads
//! (`OpineDb::degree_column_qualified`, the lane kernel over the set)
//! must equal the reference's answer and the one-entity degree over the
//! rescanned summaries, for a direct, a co-occurrence and a
//! text-fallback predicate.

use opinedb::core::membership::feature_row;
use opinedb::core::{build, BuildConfig, Interpretation, MarkerSummary, OpineDb, QualifiedSet};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::workload::build_workload;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::embed::Word2VecConfig;
use opinedb::store::{execute, parse_select, FuzzyAlgebra, ResultSet, ReviewQualifier, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Whether the row of `(entity, attribute)` in `set` has the bits of
/// `summary`'s.
fn same_row(set: &QualifiedSet, entity: usize, attribute: usize, summary: &MarkerSummary) -> bool {
    let bits = |row: Vec<f64>| row.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    bits(set.feature_row(entity, attribute)) == bits(feature_row(summary))
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn qualified_corpus_and_db() -> (Corpus, OpineDb) {
    corpus_and_db(
        env_usize("OPINE_TEST_ENTITIES", 20),
        env_usize("OPINE_TEST_REVIEWS", 14),
    )
}

fn corpus_and_db(num_entities: usize, mean_reviews: usize) -> (Corpus, OpineDb) {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities,
            mean_reviews,
            seed: 71,
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
    (corpus, db)
}

/// `execute` with the engine at the current pin as the scorer,
/// materialized.
fn run(db: &OpineDb, sql: &str) -> ResultSet {
    execute(
        &parse_select(sql).unwrap(),
        db.catalog(),
        &db.at_pin(),
        FuzzyAlgebra::Product,
        None,
    )
    .unwrap()
    .into_result_set()
}

/// The shared read-only fixture of the tests that insert nothing.
fn fixture() -> &'static (Corpus, OpineDb) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(Corpus, OpineDb)> = OnceLock::new();
    FIXTURE.get_or_init(qualified_corpus_and_db)
}

fn db() -> &'static OpineDb {
    &fixture().1
}

/// Degrees of one predicate for all entities over a summary set: each
/// entity's one-entity degree of the predicate's interpretation, its
/// co-occurrence terms folded under the product algebra.
fn degrees(db: &OpineDb, summaries: &[Vec<MarkerSummary>], predicate: &str) -> Vec<f64> {
    let term = |e: usize, a: usize, phrase: &str| {
        db.attribute_degree_with_summaries(summaries, e, a, phrase)
    };
    let algebra = FuzzyAlgebra::Product;
    (0..db.num_entities())
        .map(|e| match db.interpret(predicate) {
            Interpretation::Direct { attribute, .. } => term(e, attribute, predicate),
            Interpretation::CoOccur { terms, conjunctive } => {
                let degrees = terms
                    .iter()
                    .map(|&(a, m)| term(e, a, &db.marker_set(a).markers[m].phrase));
                match conjunctive {
                    true => degrees.fold(1.0, |acc, d| algebra.and(acc, d)),
                    false => degrees.fold(0.0, |acc, d| algebra.or(acc, d)),
                }
            }
            Interpretation::TextFallback => panic!("{predicate:?} has no summary degree"),
        })
        .collect()
}

/// A direct, a co-occurrence and a text-fallback predicate of the
/// benchmark bank.
fn predicates(db: &OpineDb) -> [String; 3] {
    let bank = build_workload(&hotel_spec(), 190);
    let find = |kind: fn(&Interpretation) -> bool| {
        let found = bank.iter().find(|p| kind(&db.interpret(&p.text)));
        found.expect("the bank exercises every stage").text.clone()
    };
    [
        find(|i| matches!(i, Interpretation::Direct { .. })),
        find(|i| matches!(i, Interpretation::CoOccur { .. })),
        find(|i| matches!(i, Interpretation::TextFallback)),
    ]
}

/// Every entity's score, by entity, of `predicate` under `q` through
/// the reference.
fn reference_scores(db: &OpineDb, predicate: &str, q: &ReviewQualifier) -> Vec<u64> {
    let n = db.num_entities();
    let sql = format!("select * from hotels where \"{predicate}\" with {q} limit {n}");
    let out = db.reference().query(&sql).expect("reference answers");
    let mut scores = vec![None; n];
    for (row, score) in out.result.rows {
        let entity = db.entity_id(row[0].as_str().unwrap()).unwrap();
        scores[entity] = Some(score.to_bits());
    }
    scores
        .into_iter()
        .map(|s| s.expect("every entity ranked"))
        .collect()
}

/// The qualified column of each of [`predicates`] under `q` equals
/// the reference's scores and, for the membership stages, the
/// one-entity degree over `rescan` (the rescan of `q`), bit for bit.
fn assert_columns_agree(
    db: &OpineDb,
    q: &ReviewQualifier,
    rescan: &[Vec<MarkerSummary>],
    label: &str,
) {
    for (stage, predicate) in predicates(db).iter().enumerate() {
        let column = db.degree_column_qualified(predicate, q);
        let bits: Vec<u64> = column.iter().map(|d| d.to_bits()).collect();
        assert_eq!(
            bits,
            reference_scores(db, predicate, q),
            "{label}: {q} column of {predicate:?} vs the reference"
        );
        if stage < 2 {
            let one_entity: Vec<u64> = degrees(db, rescan, predicate)
                .iter()
                .map(|d| d.to_bits())
                .collect();
            assert_eq!(
                bits, one_entity,
                "{label}: {q} column of {predicate:?} vs one entity"
            );
        }
        // The ranking kernel, and the row loop `order by` takes, which
        // binds the same column by position.
        for tail in ["limit 7", "order by price_pn desc limit 7"] {
            let sql = format!("select * from hotels where \"{predicate}\" with {q} {tail}");
            let answer = |out: opinedb::core::QueryOutput| -> Vec<(Vec<Value>, u64)> {
                let rows = out.result.rows.into_iter();
                rows.map(|(row, score)| (row, score.to_bits())).collect()
            };
            assert_eq!(
                answer(db.query(&sql).expect("engine answers")),
                answer(db.reference().query(&sql).expect("reference answers")),
                "{label}: {sql}"
            );
        }
    }
}

proptest! {
    /// Folded and raw-rescanned summaries agree bit-for-bit for
    /// arbitrary qualifiers: either year bound present or absent, and
    /// degree thresholds from 1 to one past the most prolific reviewer's
    /// count (which no review meets: the empty set).
    #[test]
    fn fold_equals_raw_rescan(
        min_year in 2004u32..2021,
        span in 0u32..16,
        use_min_year in prop::sample::select(vec![false, true]),
        use_max_year in prop::sample::select(vec![false, true]),
        count_draw in 0u32..1000,
        use_count in prop::sample::select(vec![false, true]),
    ) {
        let (corpus, db) = fixture();
        let max_count = *corpus.reviewer_counts().values().max().unwrap() as u32;
        let min_count = 1 + count_draw % (max_count + 1);
        let q = ReviewQualifier {
            min_year: use_min_year.then_some(min_year),
            max_year: use_max_year.then_some(min_year + span),
            min_reviewer_count: use_count.then_some(min_count),
        };
        let set = db.summaries_qualified(&q);
        let rebuilt = db.summaries_with_review_filter(|m| {
            q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
        });
        for (e, row) in rebuilt.iter().enumerate() {
            for (a, rebuilt) in row.iter().enumerate() {
                let folded = db.summary_qualified(e, a, &q);
                prop_assert!(folded.same_aggregates(rebuilt), "{q} entity {e} attr {a}");
                prop_assert!(same_row(&set, e, a, rebuilt), "{q} row {e} {a}");
                if use_count && min_count > max_count {
                    prop_assert!(folded.total == 0.0, "{q} accepts no review");
                }
            }
        }
        let d_folded = db.degree_column_qualified("clean rooms", &q);
        let d_rebuilt = degrees(db, &rebuilt, "clean rooms");
        for (a, b) in d_folded.iter().zip(&d_rebuilt) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn trivial_qualifier_is_bit_identical_to_unqualified_execution() {
    let db = db();
    let base = run(db, "select * from hotels where \"clean rooms\" limit 20");
    let qualified = run(
        db,
        "select * from hotels where \"clean rooms\" with reviews() limit 20",
    );
    assert_eq!(base.rows.len(), qualified.rows.len());
    for (a, b) in base.rows.iter().zip(&qualified.rows) {
        assert_eq!(a.0, b.0, "same rows in the same order");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "bit-identical scores");
    }
}

#[test]
fn borrowed_and_materialized_rows_agree_on_qualified_statements() {
    let db = db();
    for sql in [
        "select * from hotels where \"clean rooms\" with reviews(year >= 2012) limit 20",
        "select hotelname from hotels where \"clean rooms\" \
         with reviews(year >= 2008, year <= 2016, reviewer_min_count >= 3) limit 10",
        "select * from hotels where price_pn < 260 and \"clean rooms\" \
         with reviews(reviewer_min_count >= 2) limit 20",
        "select * from hotels where \"clean rooms\" with reviews() limit 20",
    ] {
        let q = parse_select(sql).unwrap();
        let materialized = run(db, sql);
        let engine = db.at_pin();
        let lazy = execute(&q, db.catalog(), &engine, FuzzyAlgebra::Product, None).unwrap();
        assert_eq!(lazy.len(), materialized.rows.len(), "{sql}");
        for (i, (row, score)) in materialized.rows.iter().enumerate() {
            assert_eq!(
                lazy.score(i).to_bits(),
                score.to_bits(),
                "{sql}: bit-identical scores"
            );
            let borrowed: Vec<Value> = lazy.values(i).map(|v| v.to_value()).collect();
            assert_eq!(&borrowed, row, "{sql}");
        }
    }
}

#[test]
fn qualified_execution_matches_rebuild_reference_scores() {
    let db = db();
    let q = ReviewQualifier {
        min_year: Some(2011),
        max_year: None,
        min_reviewer_count: Some(3),
    };
    let before = db.cache_report();
    let out = run(
        db,
        "select * from hotels where \"clean rooms\" \
         with reviews(year >= 2011, reviewer_min_count >= 3) limit 20",
    );
    // The statement rode the fold (or its cached set); the
    // engine is shared with this binary's other tests, so the counters
    // are only known to move.
    let after = db.cache_report();
    assert!(after.filtered_summary_queries > before.filtered_summary_queries);
    let probes =
        |r: &opinedb::core::CacheReport| r.filtered_summaries.hits + r.filtered_summaries.misses;
    assert!(probes(&after) > probes(&before));
    let rebuilt = db.summaries_with_review_filter(|m| {
        q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
    });
    for (row, score) in &out.rows {
        let entity = db.entity_id(row[0].as_str().unwrap()).unwrap();
        let reference = db.attribute_degree_with_summaries(&rebuilt, entity, 0, "clean rooms");
        assert_eq!(
            score.to_bits(),
            reference.to_bits(),
            "entity {entity}: SQL path vs rebuild reference"
        );
    }
}

/// The phrase mass of one entity in a qualified set: the `ln(total +
/// 1)` slot of its feature rows (the next to last), over all
/// attributes. It grows with every cell's total.
fn entity_mass(db: &OpineDb, set: &QualifiedSet, entity: usize) -> f64 {
    let rows = (0..db.attributes.len()).map(|a| set.feature_row(entity, a));
    rows.map(|row| row[row.len() - 2]).sum()
}

/// Total phrase mass of one entity in rescanned summaries, over all
/// attributes.
fn entity_total(db: &OpineDb, summaries: &[Vec<MarkerSummary>], entity: usize) -> f64 {
    (0..db.attributes.len())
        .map(|a| summaries[entity][a].total)
        .sum()
}

/// A repaired set's rows sit beside its plane and override their lane:
/// entities in lane slots 0, 7 and 8 and in the tail past the last full
/// block, after INSERTs and after a merge. Past one repaired entity in
/// eight the next probe folds the set cold. Every column equals the
/// reference and the one-entity route at each step.
#[test]
fn repaired_rows_override_every_lane_position_until_the_set_folds_cold() {
    // Five full lane blocks and a tail of five: a set folds cold past
    // 45 / 8 = 5 repaired entities.
    let (corpus, db) = corpus_and_db(45, 8);
    db.set_merge_threshold(usize::MAX);
    let n = db.num_entities();
    assert_eq!(n, 45);
    let q = ReviewQualifier {
        min_year: Some(2010),
        max_year: None,
        min_reviewer_count: Some(2),
    };
    let check = |label: &str, repaired: usize| {
        let set = db.summaries_qualified(&q);
        assert_eq!(set.repaired_entities(), repaired, "{label}");
        let rescan = db.summaries_with_review_filter(|m| {
            q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
        });
        for (e, row) in rescan.iter().enumerate() {
            for (a, reference) in row.iter().enumerate() {
                assert!(same_row(&set, e, a, reference), "{label}: row {e} {a}");
            }
        }
        assert_columns_agree(&db, &q, &rescan, label);
        set
    };
    // Two reviews by one new reviewer per entity: the bound accepts
    // both, and only that entity re-qualifies.
    let [direct, _, fallback] = predicates(&db);
    let insert = |entities: &[usize], reviewer: usize| {
        let rows: Vec<String> = entities
            .iter()
            .flat_map(|&e| {
                let key = db.entity_key(e).to_string();
                let phrase = db.opinion_domain(e % 3).variations()[e % 4].phrase.clone();
                let id = reviewer + e;
                [
                    format!("('{key}', 'so {phrase} and {fallback}', 2015, {id})"),
                    format!("('{key}', '{direct}', 2016, {id})"),
                ]
            })
            .collect();
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES {}",
            rows.join(", ")
        ))
        .unwrap();
    };
    let cold = check("cold", 0);
    // The gauge: a cold set is its plane and its lengths; a repaired
    // one adds its per-entity index (one `Option<Arc<[f64]>>` each) and
    // the rows it wrote.
    let report = db.cache_report();
    assert_eq!(report.filtered_summary_sets, 1);
    assert_eq!(
        report.qualified_set_bytes,
        report.feature_plane_bytes + 4 * n
    );
    // A cold fold sums the text lengths without the entity → review
    // index; the first repair builds it (a `u32` offset per entity and
    // one more, a `u32` per base review).
    assert_eq!(report.ingest_index_bytes, 0);
    let mass_before = entity_mass(&db, &cold, 44);
    insert(&[0, 7, 8, 44], 800_000);
    let repaired = check("slots 0, 7, 8 and the tail", 4);
    assert!(
        entity_mass(&db, &repaired, 44) > mass_before,
        "the tail entity moved"
    );
    let row_bytes: usize = (0..db.attributes.len())
        .map(|a| 8 * repaired.feature_row(0, a).len())
        .sum();
    let report = db.cache_report();
    assert_eq!(
        report.qualified_set_bytes,
        report.feature_plane_bytes + 4 * n + 16 * n + 4 * row_bytes
    );
    assert_eq!(
        report.ingest_index_bytes,
        4 * (n + 1) + 4 * corpus.reviews.len()
    );
    insert(&[7], 810_000);
    check("an overridden entity again", 4);
    assert_eq!(db.cache_report().qualified_refolds, 0);
    insert(&[20, 33], 820_000);
    check("past the refold threshold", 0);
    assert_eq!(db.cache_report().qualified_refolds, 1);
    db.merge_delta().unwrap();
    check("merged", 0);
    insert(&[43], 830_000);
    check("after the merge", 1);
    let report = db.cache_report();
    assert!(report.qualified_set_bytes > report.feature_plane_bytes);
}

/// The two engine routes to a qualified set at one epoch.
const ROUTES: [&str; 2] = ["repaired", "cold"];

/// Repaired set == cold set == raw rescan for every qualifier, by
/// every accumulator of the fold and every bit of a set's rows, and the
/// qualified columns of the cold sets agree ([`assert_columns_agree`]);
/// returns each qualifier's sets in [`ROUTES`] order.
fn assert_routes_agree(
    db: &OpineDb,
    qualifiers: &[ReviewQualifier],
    label: &str,
) -> Vec<[Arc<QualifiedSet>; 2]> {
    // The cached sets are the previous call's cold ones, an epoch or
    // more old: these calls repair them.
    let repaired: Vec<_> = qualifiers
        .iter()
        .map(|q| db.summaries_qualified(q))
        .collect();
    db.clear_filtered_summaries();
    let mut sets = Vec::with_capacity(qualifiers.len());
    for (q, repaired) in qualifiers.iter().zip(repaired) {
        let routes = [repaired, db.summaries_qualified(q)];
        let rescan = db.summaries_with_review_filter(|m| {
            q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
        });
        for (e, row) in rescan.iter().enumerate() {
            for (a, reference) in row.iter().enumerate() {
                let folded = db.summary_qualified(e, a, q);
                assert!(
                    folded.same_aggregates(reference),
                    "{label}: fold of {q}, entity {e} attr {a}: {:?}/{} vs rescan {:?}/{}",
                    folded.counts(),
                    folded.total,
                    reference.counts(),
                    reference.total
                );
                for (route, set) in ROUTES.iter().zip(&routes) {
                    assert!(
                        same_row(set, e, a, reference),
                        "{label}: {route} set of {q}, entity {e} attr {a}: {:?} vs rescan {:?}",
                        set.feature_row(e, a),
                        feature_row(reference)
                    );
                }
            }
            for (route, set) in ROUTES.iter().zip(&routes) {
                assert_eq!(
                    set.text_len(e),
                    routes[1].text_len(e),
                    "{label}: {route} set of {q}, text length of {e}"
                );
            }
        }
        assert_columns_agree(db, q, &rescan, label);
        sets.push(routes);
    }
    sets
}

#[test]
fn repaired_and_cold_sets_equal_the_rescan_across_inserts_and_merges() {
    let (corpus, db) = qualified_corpus_and_db();
    db.set_merge_threshold(usize::MAX);
    let n = db.num_entities();

    // A base reviewer about to return: few reviews, at least one of
    // them with extracted phrases on an entity no insert touches.
    let inserted_into = [0usize, 1, 2, 3];
    let counts = corpus.reviewer_counts();
    let mut candidates: Vec<(usize, usize)> = counts
        .iter()
        .filter(|&(_, &c)| (1..=3).contains(&c))
        .map(|(&r, &c)| (r, c))
        .collect();
    candidates.sort_unstable();
    let (returning, base_count, witness) = candidates
        .into_iter()
        .find_map(|(r, c)| {
            let own = db.summaries_with_review_filter(|m| m.reviewer_id == r);
            let witness =
                (0..n).find(|e| !inserted_into.contains(e) && entity_total(&db, &own, *e) > 0.0)?;
            Some((r, c, witness))
        })
        .expect("a returning reviewer with a witness entity");
    let crossing = ReviewQualifier {
        min_year: None,
        max_year: None,
        min_reviewer_count: Some(base_count as u32 + 1),
    };
    // One further out: only two delta reviews take the reviewer
    // across it, the second of them after a merge.
    let crossing_later = ReviewQualifier {
        min_reviewer_count: Some(base_count as u32 + 2),
        ..crossing
    };
    let qualifiers = [
        ReviewQualifier {
            min_year: Some(2012),
            max_year: None,
            min_reviewer_count: None,
        },
        crossing,
        ReviewQualifier {
            min_year: Some(2008),
            max_year: Some(2020),
            min_reviewer_count: Some(2),
        },
        ReviewQualifier::default(),
        crossing_later,
    ];
    // The witness's phrase mass under `qualifiers[q]`, per route.
    let witness_totals = |sets: &[[Arc<QualifiedSet>; 2]], q: usize| {
        [0, 1].map(|route| entity_mass(&db, &sets[q][route], witness))
    };

    let phrase = |attr: usize, v: usize| db.opinion_domain(attr).variations()[v].phrase.clone();
    let key = |e: usize| db.entity_key(e).to_string();
    let before = assert_routes_agree(&db, &qualifiers, "no delta");
    assert_eq!(db.cache_report().qualified_repairs, 0);

    // New reviewers.
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES \
         ('{}', 'really {} here', 2016, 900001), \
         ('{}', '{} but loud', 2009, 900002)",
        key(0),
        phrase(0, 0),
        key(1),
        phrase(1, 0)
    ))
    .unwrap();
    assert_routes_agree(&db, &qualifiers, "new reviewers");
    let repairs = db.cache_report().qualified_repairs;
    assert!(repairs > 0, "a non-empty delta must repair, not rescan");

    // The base reviewer returns elsewhere: its review of the
    // untouched witness crosses the threshold.
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES ('{}', 'so {}', 2018, {returning})",
        key(2),
        phrase(0, 1),
    ))
    .unwrap();
    let after = assert_routes_agree(&db, &qualifiers, "base reviewer returns");
    for (route, name) in ROUTES.iter().enumerate() {
        assert!(
            witness_totals(&after, 1)[route] > witness_totals(&before, 1)[route],
            "{name} set: reviewer {returning}'s base review of entity {witness} must \
             start to qualify"
        );
    }
    assert_eq!(
        witness_totals(&after, 4),
        witness_totals(&before, 4),
        "one review short of the later threshold"
    );

    // A delta reviewer returns (its first review, of entity 0, now
    // has an author of two); then anonymous rows.
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES \
         ('{}', '{} and {}', 2013, 900001)",
        key(3),
        phrase(0, 0),
        phrase(1, 1)
    ))
    .unwrap();
    // Delta reviews alone carry reviewer 900001 to two reviews: its
    // review of entity 0 starts to count under `reviewer_min_count
    // >= 2`.
    let returned = assert_routes_agree(&db, &qualifiers, "delta reviewer returns");
    for (route, name) in ROUTES.iter().enumerate() {
        assert!(
            entity_mass(&db, &returned[2][route], 0) > entity_mass(&db, &after[2][route], 0),
            "{name} set: entity 0 must gain reviewer 900001's first review"
        );
    }
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, text, year) VALUES \
         ('{}', 'again {}', 2019), ('{}', '{}', 2011)",
        key(0),
        phrase(2, 0),
        key(1),
        phrase(0, 2)
    ))
    .unwrap();
    assert_routes_agree(&db, &qualifiers, "anonymous rows");

    db.merge_delta().unwrap();
    assert_routes_agree(&db, &qualifiers, "merged");

    // And once more past the merge: both returning reviewers again.
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES \
         ('{}', '{}', 2020, {returning}), ('{}', '{}', 2020, 900002), ('{}', '{}', 2020, 900002)",
        key(3),
        phrase(1, 0),
        key(2),
        phrase(0, 0),
        key(0),
        phrase(0, 1)
    ))
    .unwrap();
    // That was the returning reviewer's second delta review: delta
    // reviews alone carry it over the later threshold, and its base
    // review of the witness — an entity no insert touched — starts
    // to count in the repaired set and in the cold one, before the
    // merge and after it.
    let crossed = assert_routes_agree(&db, &qualifiers, "after the merge");
    for (route, name) in ROUTES.iter().enumerate() {
        assert!(
            witness_totals(&crossed, 4)[route] > witness_totals(&after, 4)[route],
            "{name} set: entity {witness} must gain reviewer {returning}'s base review"
        );
    }
    db.merge_delta().unwrap();
    let merged = assert_routes_agree(&db, &qualifiers, "merged again");
    assert_eq!(witness_totals(&merged, 4), witness_totals(&crossed, 4));

    let report = db.cache_report();
    assert!(report.qualified_repairs > repairs);
    assert!(report.qualified_repaired_entities >= report.qualified_repairs);
}
