//! Every fast path against the one reference evaluator.
//!
//! `OpineDb::reference()` scores row at a time through the unsplit
//! specification functions and touches no cache; the engine answers the
//! same statements through TA ranking, the objective pushdown, degree
//! columns and their per-entity repair, the qualified fold and its repair.
//! Whatever the statement shape and whatever state the caches are in,
//! the two must return the same rows in the same order with bit-equal
//! scores.

use opinedb::core::trace::{with_trace, TraceContext};
use opinedb::core::{build, BuildConfig, CacheReport, Interpretation, OpineDb, QueryOutput};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::workload::build_workload;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::embed::Word2VecConfig;

fn db(num_entities: usize, mean_reviews: usize) -> OpineDb {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities,
            mean_reviews,
            seed: 5,
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
            ..Default::default()
        },
    )
}

/// The first bank predicate the interpreter sends to the text fallback.
fn text_fallback_predicate(db: &OpineDb) -> String {
    build_workload(&hotel_spec(), 190)
        .into_iter()
        .map(|p| p.text)
        .find(|p| db.interpret(p) == Interpretation::TextFallback)
        .expect("the bank exercises the text fallback")
}

/// Pure conjunction → the scorer ranks every entity.
const PURE: &str = "select * from hotels where \"clean rooms\" and \"friendly staff\" limit 10";
/// One predicate under a filter that admits every row.
const ONE_PREDICATE: &str =
    "select * from hotels where price_pn < 100000 and \"clean rooms\" limit 5";
/// Two predicates under a weak filter: too many candidates for the
/// gather rule (`candidates² > k · entities`).
const WEAK_MIXED: &str =
    "select * from hotels where price_pn < 300 and \"clean rooms\" and \"friendly staff\" limit 5";
/// The same filter over an OR of the same two predicates.
const FILTERED_OR: &str = "select * from hotels where price_pn < 300 \
                           and (\"clean rooms\" or \"friendly staff\") limit 5";
/// A residue with a NOT: not monotone, so never sorted access.
const NEGATED: &str = "select * from hotels where \"clean rooms\" and not \"quiet room\" limit 5";

fn with_fallback(fallback: &str) -> String {
    format!("select * from hotels where \"{fallback}\" and \"clean rooms\" limit 8")
}

/// One statement per shape the executor plans differently.
fn statements(db: &OpineDb) -> Vec<String> {
    let fallback = text_fallback_predicate(db);
    [
        // join (objective conjunct + predicate) → scan of the joined
        // rows; first, so that after an insert its bind meets the stale
        // column the warm pass left behind
        "select * from hotels h join reviews r on h.hotelname = r.entity \
         where \"clean rooms\" and r.year >= 2018 limit 20"
            .to_string(),
        // pure conjunction → top-k over the degree columns
        PURE.into(),
        // mixed → objective prefilter + pushdown (gather, then restricted TA)
        "select * from hotels where price_pn < 120 and \"clean rooms\" limit 12".into(),
        ONE_PREDICATE.into(),
        WEAK_MIXED.into(),
        // OR/NOT residue → the ranking kernel over candidates / every
        // entity (a NOT always by scan)
        "select * from hotels where price_pn < 300 and (\"clean rooms\" or not \"quiet room\") \
         limit 15"
            .into(),
        "select * from hotels where \"clean rooms\" or \"friendly staff\" limit 9".into(),
        "select * from hotels h where h.room_cleanliness .= \"very clean\" limit 7".into(),
        with_fallback(&fallback),
        "select * from hotels where \"clean rooms\" \
         with reviews(year >= 2012, reviewer_min_count >= 2) limit 10"
            .into(),
        "select hotelname, price_pn from hotels where \"clean rooms\" \
         order by price_pn asc limit 6"
            .into(),
        "select * from hotels where \"clean rooms\" limit 0".into(),
        // `.=` inside an OR under an objective filter, and an ORDER BY
        // residue → the row loop over candidates
        "select * from hotels h where h.price_pn < 300 and \
         (h.room_cleanliness .= \"very clean\" or \"friendly staff\") limit 10"
            .into(),
        "select * from hotels where price_pn < 300 and \"clean rooms\" \
         order by price_pn desc limit 6"
            .into(),
        // right-nested conjunctions → ranked as parsed, `a·(b·c)`, the
        // order the row loop multiplies in
        "select * from hotels where \"clean rooms\" and (\"friendly staff\" and \"quiet room\") \
         limit 10"
            .into(),
        "select * from hotels where price_pn < 100000 and \"clean rooms\" \
         and (\"friendly staff\" and \"quiet room\") limit 10"
            .into(),
    ]
    .into()
}

fn assert_same(stage: &str, sql: &str, fast: &QueryOutput, reference: &QueryOutput) {
    assert_eq!(
        fast.result.columns, reference.result.columns,
        "{stage}: {sql}"
    );
    assert_eq!(
        fast.interpretations, reference.interpretations,
        "{stage}: {sql}"
    );
    assert_eq!(
        fast.result.rows.len(),
        reference.result.rows.len(),
        "{stage}: {sql}"
    );
    for (i, (f, r)) in fast
        .result
        .rows
        .iter()
        .zip(&reference.result.rows)
        .enumerate()
    {
        assert_eq!(f.0, r.0, "{stage}: row {i} of {sql}");
        assert_eq!(
            f.1.to_bits(),
            r.1.to_bits(),
            "{stage}: score {i} of {sql} ({} vs {})",
            f.1,
            r.1
        );
    }
}

/// `sql` through the engine under a trace: the answer and the `ta_topk`
/// plan notes (one per plan that ran).
fn traced(db: &OpineDb, sql: &str) -> (QueryOutput, Vec<String>) {
    let ctx = TraceContext::new();
    let answer = with_trace(Some(ctx.clone()), || db.query(sql)).expect("engine answers");
    let notes = ctx
        .snapshot()
        .notes
        .into_iter()
        .filter(|n| n.starts_with("ta_topk:"))
        .collect();
    (answer, notes)
}

/// The plan rule, read off the `ta_topk` note: a residue that had to
/// build one of its columns ranks by one scan of its candidates and
/// leaves the sorted orders unbuilt; the same statement over cached
/// columns ranks by sorted access — a conjunction and a filtered OR
/// alike; a lone predicate takes sorted access even when cold; a NOT
/// always scans and never sorts. Same answer as the reference every
/// time.
fn assert_the_plan_follows_the_cache_state(db: &OpineDb) {
    let n = db.num_entities();
    let admitted = db
        .query("select * from hotels where price_pn < 300")
        .expect("objective statement")
        .result
        .rows
        .len();
    assert!(
        admitted < n && admitted * admitted > 5 * n,
        "{admitted} of {n} rows: the filter must be weak enough to miss the gather rule"
    );
    let fallback = with_fallback(&text_fallback_predicate(db));
    for (sql, candidates, k, warm_plan) in [
        (PURE, n, 10, "full TA over degree columns"),
        (
            WEAK_MIXED,
            admitted,
            5,
            "pushdown via restricted sorted access",
        ),
        (
            FILTERED_OR,
            admitted,
            5,
            "pushdown via restricted sorted access",
        ),
        (fallback.as_str(), n, 8, "full TA over degree columns"),
    ] {
        let reference = db.reference().query(sql).expect("reference answers");
        db.clear_caches();
        let (cold, notes) = traced(db, sql);
        assert_same("cold plan", sql, &cold, &reference);
        assert_eq!(
            notes,
            [format!(
                "ta_topk: scan of {candidates} candidates (k={k}) — column built by this statement"
            )],
            "{sql}: one scan, no fall-through to a sort"
        );
        let (warm, notes) = traced(db, sql);
        assert_same("warm plan", sql, &warm, &reference);
        assert_eq!(notes.len(), 1, "{sql}: {notes:?}");
        assert!(notes[0].contains(warm_plan), "{sql}: {notes:?}");
    }
    db.clear_caches();
    let (cold, notes) = traced(db, ONE_PREDICATE);
    let reference = db.reference().query(ONE_PREDICATE).expect("reference");
    assert_same("cold lone predicate", ONE_PREDICATE, &cold, &reference);
    assert_eq!(
        notes,
        [format!(
            "ta_topk: pushdown via restricted sorted access ({n} candidates, k=5)"
        )]
    );

    db.clear_caches();
    let reference = db.reference().query(NEGATED).expect("reference");
    for stage in ["cold NOT", "warm NOT"] {
        let (answer, notes) = traced(db, NEGATED);
        assert_same(stage, NEGATED, &answer, &reference);
        assert_eq!(
            notes,
            [format!(
                "ta_topk: scan of {n} candidates (k=5) — a NOT is not monotone, \
                 so no sorted-access bound holds"
            )],
            "{stage}"
        );
    }
    for predicate in ["clean rooms", "quiet room"] {
        assert!(!db.degree_column(predicate).has_order(), "{predicate}");
    }
}

#[test]
fn fast_paths_equal_the_reference() {
    let db = db(520, 4);
    let statements = statements(&db);
    let check = |stage: &str, cold: bool| {
        for sql in &statements {
            if cold {
                db.clear_caches();
            }
            let fast = db.query(sql).expect("engine answers");
            let reference = db.reference().query(sql).expect("reference answers");
            assert_same(stage, sql, &fast, &reference);
            assert_eq!(
                fast.result.rows.is_empty(),
                sql.ends_with("limit 0"),
                "{sql}"
            );
        }
    };
    check("cold", true);
    assert_the_plan_follows_the_cache_state(&db);
    check("warm", false);

    // Live cells on a spread of entities; a new reviewer whose
    // second review re-qualifies the entity of their first, and a
    // base reviewer whose return re-qualifies an entity no insert
    // touches.
    let returning = (0..)
        .find(|&r| db.reviewer_review_count(r) == 1)
        .expect("a base reviewer with one review");
    for i in 0..24 {
        let entity = db.entity_key(i * 21).to_string();
        let phrase = &db.opinion_domain(i % 3).variations()[i % 5].phrase;
        let reviewer = match i {
            0 | 1 => 990_001,
            2 => returning,
            _ => 990_100 + i,
        };
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES \
             ('{entity}', 'warm welcome and {phrase} and again {phrase}', 2019, {reviewer})"
        ))
        .unwrap();
    }
    // Warm caches from before the inserts: the repair paths.
    check("after inserts", false);
    check("after inserts, cold", true);

    db.merge_delta().unwrap();
    check("after the merge", false);
    check("after the merge, cold", true);

    // The table met the paths it names.
    let report = db.cache_report();
    assert!(report.ta_queries > report.pushdown_queries && report.pushdown_queries > 0);
    assert!(report.filtered_summary_queries > 0 && report.qualified_repairs > 0);
}

/// The cache state a reference query must not move: every engine cache's
/// counters and sizes, and the plan counters. The interpretation memo is
/// shared by design and left out.
fn cache_state(r: &CacheReport) -> impl PartialEq + std::fmt::Debug {
    (
        (r.phrases, r.columns, r.filtered_summaries),
        (r.cached_columns, r.column_bytes, r.filtered_summary_sets),
        (r.ta_queries, r.pushdown_queries, r.filtered_summary_queries),
        (r.qualified_repairs, r.qualified_repaired_entities),
    )
}

#[test]
fn reference_queries_leave_every_cache_untouched() {
    let db = db(16, 16);
    let statements = statements(&db);
    // Half-warm engine: some columns, phrases and one qualified
    // set cached, then an insert that leaves all of them stale.
    for sql in &statements[..10] {
        db.query(sql).unwrap();
    }
    let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
    let entity = db.entity_key(3).to_string();
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, text, year) VALUES ('{entity}', 'so {phrase}', 2020)"
    ))
    .unwrap();

    let before = db.cache_report();
    for sql in &statements {
        db.reference().query(sql).expect("reference answers");
    }
    for sql in &statements[..9] {
        db.reference().scan().query(sql).expect("scan arm answers");
    }
    for e in 0..db.num_entities() {
        db.reference().degree(e, "clean rooms");
        db.reference().scan().degree(e, "friendly staff");
    }
    let after = db.cache_report();
    assert_eq!(cache_state(&before), cache_state(&after));
}
