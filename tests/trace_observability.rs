//! Trace-correctness: the span trees an armed `TraceContext` collects
//! must be *bit-consistent* with the engine's own `CacheReport`
//! counters — same fast-path attribution, same cache traffic, same
//! retrieval totals — over the three flagship query shapes (pushdown
//! mixed, review-qualified, concept retrieval).

use opinedb::core::trace;
use opinedb::core::{build, BuildConfig, InterpreterConfig, OpineDb};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::embed::Word2VecConfig;

fn small_db() -> OpineDb {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 20,
            mean_reviews: 10,
            seed: 33,
        },
    );
    build(
        &corpus,
        &BuildConfig {
            w2v: Word2VecConfig {
                dim: 16,
                epochs: 1,
                ..Default::default()
            },
            membership_tuples: 300,
            ..Default::default()
        },
    )
}

/// Runs one statement under a fresh armed trace and returns the
/// snapshot plus the `CacheReport`s bracketing the execution.
fn traced_query(
    db: &OpineDb,
    sql: &str,
) -> (
    trace::TraceSnapshot,
    opinedb::core::CacheReport,
    opinedb::core::CacheReport,
    usize,
) {
    let before = db.cache_report();
    let ctx = trace::TraceContext::new();
    let out = trace::with_trace(Some(ctx.clone()), || db.query(sql)).expect("query runs");
    let after = db.cache_report();
    (ctx.snapshot(), before, after, out.result.rows.len())
}

#[test]
fn mixed_pushdown_span_tree_matches_cache_report_deltas() {
    let db = small_db();
    let sql = "select * from hotels where price_pn < 200 and \"clean rooms\" limit 10";
    let (snap, before, after, rows) = traced_query(&db, sql);

    // The tree names the prefilter then the TA stage, in pipeline order.
    let names: Vec<&str> = snap.stages.iter().map(|s| s.name).collect();
    let prefilter = names
        .iter()
        .position(|&n| n == "prefilter_bitmap")
        .unwrap_or_else(|| panic!("no prefilter_bitmap in {names:?}"));
    let ta = names
        .iter()
        .position(|&n| n == "ta_topk")
        .unwrap_or_else(|| panic!("no ta_topk in {names:?}"));
    assert!(prefilter < ta, "prefilter must precede TA: {names:?}");

    // The candidate bitmap was non-trivial and bounded by the catalog.
    let candidates = snap
        .stage("prefilter_bitmap")
        .unwrap()
        .counter("candidates");
    assert!(candidates > 0 && candidates <= db.num_entities() as u64);

    // Stage counters agree exactly with the engine's own counters.
    let ta_stage = snap.stage("ta_topk").unwrap();
    assert_eq!(ta_stage.calls, after.ta_queries - before.ta_queries);
    assert_eq!(after.pushdown_queries - before.pushdown_queries, 1);
    assert_eq!(
        ta_stage.counter("cache_misses"),
        after.columns.misses - before.columns.misses,
        "degree-column cache misses attributed to the TA stage must \
         equal the CacheReport delta"
    );
    assert_eq!(
        ta_stage.counter("cache_hits"),
        after.columns.hits - before.columns.hits
    );
    assert_eq!(ta_stage.counter("scored"), rows as u64);

    // The plan notes say the pushdown fired.
    assert!(
        snap.notes.iter().any(|n| n.contains("pushdown")),
        "notes: {:?}",
        snap.notes
    );

    // A second identical run flips the degree-column traffic to hits —
    // and the trace tracks the flip.
    let (snap2, before2, after2, _) = traced_query(&db, sql);
    let ta2 = snap2.stage("ta_topk").unwrap();
    assert_eq!(ta2.counter("cache_misses"), 0);
    assert_eq!(
        ta2.counter("cache_hits"),
        after2.columns.hits - before2.columns.hits
    );
    assert!(ta2.counter("cache_hits") > 0);
}

#[test]
fn review_qualified_query_shows_summary_merge() {
    let db = small_db();
    let sql = "select * from hotels where \"clean rooms\" \
               with reviews(year >= 2012) limit 10";
    let columns = db.cached_degree_columns();
    let (snap, before, after, _) = traced_query(&db, sql);

    // It ranks through the kernel, over a column built for it alone:
    // every entity is scanned, no row is rescored, and the column cache
    // is as it was.
    assert!(snap.stage("ta_topk").is_some(), "{:?}", snap.stages);
    assert!(snap.stage("rescore").is_none(), "the row loop never ran");
    let scan = format!(
        "ta_topk: scan of {} candidates (k=10) — qualified columns are built per statement",
        db.num_entities()
    );
    assert!(snap.notes.contains(&scan), "notes: {:?}", snap.notes);
    assert_eq!(db.cached_degree_columns(), columns);

    let merge = snap
        .stage("summary_merge")
        .unwrap_or_else(|| panic!("no summary_merge stage in {:?}", snap.stages));
    assert!(merge.calls >= 1, "cold qualifier merges summaries");
    assert_eq!(
        merge.counter("cache_misses"),
        after.filtered_summaries.misses - before.filtered_summaries.misses
    );
    assert_eq!(
        after.filtered_summary_queries - before.filtered_summary_queries,
        1
    );
    // The reference's statements are not counted.
    db.reference().query(sql).expect("the reference answers");
    assert_eq!(
        db.cache_report().filtered_summary_queries,
        after.filtered_summary_queries
    );

    // Warm rerun: the merged set is served from the filtered cache and
    // the trace records the hit instead of a merge call.
    let (snap2, before2, after2, _) = traced_query(&db, sql);
    let merge2 = snap2.stage("summary_merge").expect("hit still attributed");
    assert_eq!(merge2.calls, 0, "no re-merge on a warm qualifier");
    assert_eq!(
        merge2.counter("cache_hits"),
        after2.filtered_summaries.hits - before2.filtered_summaries.hits
    );
    assert!(merge2.counter("cache_hits") > 0);

    // After an insert the cached set is found (a hit) and repaired: the
    // span is back, and it names what the repair touched.
    let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, text, year) VALUES ('{}', 'so {phrase}', 2019)",
        db.entity_key(1)
    ))
    .unwrap();
    let (snap3, before3, after3, _) = traced_query(&db, sql);
    let merge3 = snap3
        .stage("summary_merge")
        .expect("repair is a merge call");
    assert_eq!(merge3.calls, 1);
    assert_eq!(merge3.counter("cache_misses"), 0);
    assert_eq!(
        merge3.counter("repairs"),
        after3.qualified_repairs - before3.qualified_repairs
    );
    assert_eq!(
        merge3.counter("repaired_entities"),
        after3.qualified_repaired_entities - before3.qualified_repaired_entities
    );
    assert_eq!(
        (
            merge3.counter("repairs"),
            merge3.counter("repaired_entities")
        ),
        (1, 1)
    );
}

/// The retrieval stage's `postings` counter is exactly the postings a
/// term-at-a-time search scores, and its calls are the `/stats`
/// `wand_queries` delta.
#[test]
fn wand_cold_query_blocks_skipped_matches_stats_delta() {
    // The wand_equivalence fixture shape: stage 1 can never trigger
    // (theta1 > 1), so every cold interpretation runs the co-occurrence
    // retrieval on a review-heavy corpus.
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 24,
            mean_reviews: 40,
            seed: 31,
        },
    );
    let db = build(
        &corpus,
        &BuildConfig {
            w2v: Word2VecConfig {
                dim: 24,
                epochs: 1,
                ..Default::default()
            },
            membership_tuples: 300,
            interpreter: InterpreterConfig {
                theta1: 1.01,
                top_k_reviews: 5,
                ..Default::default()
            },
            ..Default::default()
        },
    );

    let predicate = "very clean comfortable room";
    let sql = format!("select * from hotels where \"{predicate}\" limit 8");
    let (snap, before, after, _) = traced_query(&db, &sql);

    let wand = snap
        .stage("wand_retrieval")
        .unwrap_or_else(|| panic!("no wand_retrieval stage in {:?}", snap.stages));
    assert_eq!(wand.calls, after.wand_queries - before.wand_queries);
    // One cold predicate, one search over its in-vocabulary terms.
    assert_eq!(wand.calls, 1, "cold interpretation retrieves once");
    let index = db.interpreter().review_index();
    let postings: usize = opinedb::text::tokenize(predicate)
        .iter()
        .filter_map(|t| db.vocab().get(t))
        .map(|term| index.doc_freq(term))
        .sum();
    assert!(postings > 0);
    assert_eq!(
        wand.counter("postings"),
        postings as u64,
        "the search scores every posting of every query term once"
    );
}

/// A filtered residue with a `.=` leaf ranks through the kernel. The
/// row loop — here for an `order by` — names in its plan note the reader
/// that ran and how many base rows it walked: by position for the engine
/// over its entity table, by key for the reference (on purpose) — the
/// same statement, the same candidates.
#[test]
fn row_loop_plan_note_names_the_reader_and_the_candidate_count() {
    let db = small_db();
    let clause = "h.price_pn < 200 \
                  and (\"clean rooms\" or h.room_cleanliness .= \"very clean\")";
    let (snap, ..) = traced_query(
        &db,
        &format!("select * from hotels h where {clause} limit 5"),
    );
    assert!(
        snap.notes.iter().any(|n| n.starts_with("ta_topk:")),
        "notes: {:?}",
        snap.notes
    );
    assert!(snap.stage("rescore").is_none(), "the row loop never ran");

    // The scorer ranks in degree order: an ORDER BY scores rows.
    let sql = format!("select * from hotels h where {clause} order by h.price_pn limit 5");
    let (snap, ..) = traced_query(&db, &sql);
    let candidates = snap
        .stage("prefilter_bitmap")
        .unwrap()
        .counter("candidates");
    assert!(candidates > 0);
    assert_eq!(snap.stage("rescore").unwrap().counter("scored"), candidates);
    let by_position =
        format!("plan: ORDER BY sorts by a column → {candidates} candidates by position");
    assert!(snap.notes.contains(&by_position), "notes: {:?}", snap.notes);

    let ctx = trace::TraceContext::new();
    trace::with_trace(Some(ctx.clone()), || db.reference().query(&sql)).expect("query runs");
    let by_key = format!("plan: ORDER BY sorts by a column → {candidates} candidates by key");
    let notes = ctx.snapshot().notes;
    assert!(notes.contains(&by_key), "notes: {notes:?}");
}

/// A qualified statement with no subjective leaf reads no review, so it
/// folds no qualified set, and a scorer that cannot scope its degrees
/// answers it too. Under `order by` a qualified statement takes the row
/// loop, by position over the entity table.
#[test]
fn a_qualified_statement_folds_only_what_it_reads() {
    let db = small_db();
    let sql = "select * from hotels where price_pn < 150 with reviews(year >= 2015)";
    let (snap, before, after, rows) = traced_query(&db, sql);
    assert!(rows > 0);
    assert!(snap.stage("summary_merge").is_none(), "{:?}", snap.stages);
    assert_eq!(
        after.filtered_summaries.misses,
        before.filtered_summaries.misses
    );
    let engine = db.query(sql).expect("engine answers").result.rows;
    let scan = db.reference().scan().query(sql).expect("scan answers");
    assert_eq!(scan.result.rows, engine);
    let select = opinedb::store::parse_select(sql).unwrap();
    let objective = opinedb::store::execute(
        &select,
        db.catalog(),
        &opinedb::store::ObjectiveOnly,
        opinedb::store::FuzzyAlgebra::Product,
        None,
    )
    .expect("ObjectiveOnly answers");
    assert_eq!(objective.into_result_set().rows, engine);

    let sql = "select * from hotels where price_pn < 150 and \"clean rooms\" \
               with reviews(year >= 2015) order by price_pn";
    let (snap, ..) = traced_query(&db, sql);
    let candidates = snap
        .stage("prefilter_bitmap")
        .unwrap()
        .counter("candidates");
    let by_position =
        format!("plan: ORDER BY sorts by a column → {candidates} candidates by position");
    assert!(snap.notes.contains(&by_position), "notes: {:?}", snap.notes);
    assert!(snap.stage("summary_merge").is_some(), "{:?}", snap.stages);
}
