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
//! Under live ingest route 1 splits in two that must still agree with
//! route 2 at every epoch: the **repaired** set (a cached set brought
//! to the new epoch by folding again only the entities that changed)
//! and the **cold** set (every entity folded at the pinned epoch).

use opinedb::core::{build, BuildConfig, OpineDb};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::embed::Word2VecConfig;
use opinedb::store::{execute, parse_select, FuzzyAlgebra, ResultSet, ReviewQualifier, Value};
use proptest::prelude::*;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn qualified_corpus_and_db() -> (Corpus, OpineDb) {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: env_usize("OPINE_TEST_ENTITIES", 20),
            mean_reviews: env_usize("OPINE_TEST_REVIEWS", 14),
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

/// `execute` with the engine as the scorer, materialized.
fn run(db: &OpineDb, sql: &str) -> ResultSet {
    execute(
        &parse_select(sql).unwrap(),
        db.catalog(),
        db,
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

/// Degrees of one predicate for all entities over a summary set.
fn degrees<R>(db: &OpineDb, summaries: &[R]) -> Vec<f64>
where
    R: std::borrow::Borrow<Vec<opinedb::core::MarkerSummary>>,
{
    (0..db.num_entities())
        .map(|e| db.attribute_degree_with_summaries(summaries, e, 0, "clean rooms"))
        .collect()
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
        let folded = db.summaries_qualified(&q);
        let rebuilt = db.summaries_with_review_filter(|m| {
            q.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
        });
        for e in 0..db.num_entities() {
            for a in 0..db.attributes.len() {
                prop_assert!(
                    folded[e][a].same_aggregates(&rebuilt[e][a]),
                    "{q} entity {e} attr {a}"
                );
                if use_count && min_count > max_count {
                    prop_assert!(folded[e][a].total == 0.0, "{q} accepts no review");
                }
            }
        }
        let d_folded = degrees(db, &folded);
        let d_rebuilt = degrees(db, &rebuilt);
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
        let lazy = execute(&q, db.catalog(), db, FuzzyAlgebra::Product, None).unwrap();
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

/// Total phrase mass of one entity in a summary set, over all attributes.
fn entity_total<R>(db: &OpineDb, summaries: &[R], entity: usize) -> f64
where
    R: std::borrow::Borrow<Vec<opinedb::core::MarkerSummary>>,
{
    (0..db.attributes.len())
        .map(|a| summaries[entity].borrow()[a].total)
        .sum()
}

/// The two engine routes to a qualified set at one epoch.
const ROUTES: [&str; 2] = ["repaired", "cold"];

/// Repaired set == cold set == raw rescan for every qualifier, by
/// every accumulator; returns each qualifier's sets in [`ROUTES`] order.
fn assert_routes_agree(
    db: &OpineDb,
    qualifiers: &[ReviewQualifier],
    label: &str,
) -> Vec<[opinedb::core::QualifiedSummaries; 2]> {
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
        for e in 0..db.num_entities() {
            for a in 0..db.attributes.len() {
                let reference = &rescan[e][a];
                for (route, set) in ROUTES.iter().zip(&routes) {
                    let got = &set[e][a];
                    assert!(
                        got.same_aggregates(reference),
                        "{label}: {route} set of {q}, entity {e} attr {a}: \
                         {:?}/{} vs rescan {:?}/{}",
                        got.counts(),
                        got.total,
                        reference.counts(),
                        reference.total
                    );
                }
            }
        }
        sets.push(routes);
    }
    sets
}

#[test]
fn repaired_and_cold_sets_equal_the_rescan_across_inserts_and_merges() {
    for threads in ["1", "2"] {
        std::env::set_var("OPINE_THREADS", threads);
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
                let witness = (0..n)
                    .find(|e| !inserted_into.contains(e) && entity_total(&db, &own, *e) > 0.0)?;
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
        let witness_totals = |sets: &[[opinedb::core::QualifiedSummaries; 2]], q: usize| {
            [0, 1].map(|route| entity_total(&db, &sets[q][route], witness))
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
        assert_routes_agree(&db, &qualifiers, "delta reviewer returns");
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
    std::env::remove_var("OPINE_THREADS");
}
