//! The batched membership kernel against the reference, bit for bit.
//!
//! A predicate's degree column is filled by one loop over the frozen
//! feature plane; the reference scores one entity through the unsplit
//! feature functions; the repair path recomputes only the entities an
//! `INSERT` touched, and a text fallback column, which inserted text
//! moves at every entity, is rebuilt whole. All of them must agree to
//! the last bit for every interpretation kind, with live delta cells in
//! play, before and after a delta merge. Lives in
//! its own test binary because it merges deltas (the lib's unit tests
//! arm global merge failpoints).

use opine_core::faults::{with_deadline, Cancelled, Deadline};
use opine_core::trace::{with_trace, TraceContext};
use opine_core::{build, BuildConfig, CacheReport, CacheStats, Interpretation, OpineDb};
use opine_corpus::hotel::hotel_spec;
use opine_corpus::workload::build_workload;
use opine_corpus::{Corpus, CorpusConfig};
use opine_embed::Word2VecConfig;
use std::time::Duration;

/// Above the checkpoint stride (256).
const ENTITIES: usize = 520;

fn db() -> OpineDb {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: ENTITIES,
            mean_reviews: 4,
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

/// One bank predicate per interpreter stage: direct, co-occurrence,
/// text fallback.
fn one_predicate_per_kind(db: &OpineDb) -> [String; 3] {
    let bank: Vec<String> = build_workload(&hotel_spec(), 190)
        .into_iter()
        .map(|p| p.text)
        .collect();
    let first = |want: fn(&Interpretation) -> bool| {
        bank.iter()
            .find(|p| want(&db.interpret(p)))
            .expect("the bank exercises every interpreter stage")
            .clone()
    };
    [
        first(|i| matches!(i, Interpretation::Direct { .. })),
        first(|i| matches!(i, Interpretation::CoOccur { .. })),
        first(|i| matches!(i, Interpretation::TextFallback)),
    ]
}

fn bits(column: &opine_core::DegreeColumn) -> Vec<u64> {
    column.degrees().iter().map(|d| d.to_bits()).collect()
}

/// The reference's point degrees of `predicate` over every entity.
fn reference_bits(db: &OpineDb, predicate: &str) -> Vec<u64> {
    (0..ENTITIES)
        .map(|e| db.reference().degree(e, predicate).to_bits())
        .collect()
}

/// Three paraphrases of one bank text under intensifier prefixes (the
/// way the benchmark's cold bank forms them) that the co-occurrence
/// stage interprets onto the same `(attribute, marker)` terms, and
/// those terms.
fn paraphrases_sharing_terms(db: &OpineDb) -> ([String; 3], Vec<(usize, usize)>) {
    let prefixes = ["very", "really", "truly", "extremely", "quite", "pretty"];
    for base in build_workload(&hotel_spec(), 190) {
        let cooccur: Vec<_> = prefixes
            .iter()
            .filter_map(|prefix| {
                let text = format!("{prefix} {}", base.text);
                match db.interpret(&text) {
                    Interpretation::CoOccur { terms, .. } => Some((terms, text)),
                    _ => None,
                }
            })
            .collect();
        for (terms, _) in &cooccur {
            let texts: Vec<&String> = cooccur
                .iter()
                .filter(|(t, _)| t == terms)
                .map(|(_, text)| text)
                .collect();
            if texts.len() >= 3 {
                return ([0, 1, 2].map(|i| texts[i].clone()), terms.clone());
            }
        }
    }
    panic!("some bank concept keeps its terms under three prefixes");
}

/// The `ta_topk` counters one column probe adds:
/// `(cache_hits, cache_misses, cache_repairs)`, and the plan notes.
fn probe(db: &OpineDb, predicate: &str) -> (Vec<u64>, (u64, u64, u64), Vec<String>) {
    let ctx = TraceContext::new();
    let column = with_trace(Some(ctx.clone()), || bits(&db.degree_column(predicate)));
    let snapshot = ctx.snapshot();
    let ta = snapshot.stage("ta_topk").expect("column probe is counted");
    let counters = (
        ta.counter("cache_hits"),
        ta.counter("cache_misses"),
        ta.counter("cache_repairs"),
    );
    (column, counters, snapshot.notes)
}

/// With every predicate's column cached at an older epoch: each probe
/// must add the `(cache_hits, cache_misses, cache_repairs)` of
/// `paths`, and the column it returns, a cold rebuild and the
/// reference's point path must all hold the same bits.
fn assert_carried_cold_and_point_agree(
    db: &OpineDb,
    predicates: &[String],
    paths: [(u64, u64, u64); 3],
    stage: &str,
) {
    let repaired: Vec<Vec<u64>> = predicates
        .iter()
        .zip(paths)
        .map(|(predicate, path)| {
            let (column, counters, _) = probe(db, predicate);
            assert_eq!(counters, path, "{stage}: {predicate:?}");
            column
        })
        .collect();
    db.clear_degree_columns();
    for (predicate, repaired) in predicates.iter().zip(&repaired) {
        let cold = bits(&db.degree_column(predicate));
        assert_eq!(repaired, &cold, "{stage}: {predicate:?} repaired vs cold");
    }
    for predicate in predicates {
        let column = bits(&db.degree_column(predicate));
        assert_eq!(
            column,
            reference_bits(db, predicate),
            "{stage}: {predicate:?} column vs point"
        );
    }
}

#[test]
fn column_point_and_repaired_column_agree_bit_for_bit() {
    let db = db();
    let predicates = one_predicate_per_kind(&db);
    let frozen: Vec<Vec<u64>> = predicates
        .iter()
        .map(|p| bits(&db.degree_column(p)))
        .collect();

    // Live delta cells on a spread of entities, phrased from the
    // frozen opinion domains so insert-time extraction lands them in
    // marker summaries, and their words in the text fallback's counts.
    for i in 0..24 {
        let entity = db.entity_key(i * 21).to_string();
        let phrase = &db.opinion_domain(i % 3).variations()[i % 5].phrase;
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year) \
             VALUES ('{entity}', 'warm welcome and {phrase} and again {phrase}', 2019)"
        ))
        .unwrap();
    }
    // The membership columns are repaired; the text fallback column,
    // whose corpus statistics the inserted text moved, is rebuilt.
    let (repaired, rebuilt) = ((0, 0, 1), (0, 1, 0));
    assert_carried_cold_and_point_agree(
        &db,
        &predicates,
        [repaired, repaired, rebuilt],
        "live delta",
    );
    let live = bits(&db.degree_column(&predicates[0]));
    assert_ne!(live, frozen[0], "the inserts must reach marker summaries");
    assert_ne!(
        bits(&db.degree_column(&predicates[2])),
        frozen[2],
        "the inserts must reach the text fallback"
    );

    // The merge only seals the overlay: every cached column is carried
    // over as it is.
    db.merge_delta().unwrap();
    let hit = (1, 0, 0);
    assert_carried_cold_and_point_agree(&db, &predicates, [hit; 3], "merged delta");
}

/// The same spread of inserts for two engines: live cells, a merge, then
/// more live cells on top of the merged ones.
fn ingest_spread(db: &OpineDb) {
    let insert = |i: usize, year: u32| {
        let entity = db.entity_key(i * 21).to_string();
        let phrase = &db.opinion_domain(i % 3).variations()[i % 5].phrase;
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year) \
             VALUES ('{entity}', 'warm welcome and {phrase} and again {phrase}', {year})"
        ))
        .unwrap();
    };
    (0..24).for_each(|i| insert(i, 2019));
    db.merge_delta().unwrap();
    (6..18).for_each(|i| insert(i, 2021));
}

#[test]
fn repaired_warm_column_matches_a_fresh_engine() {
    let warm = db();
    let predicates = one_predicate_per_kind(&warm);
    for predicate in &predicates {
        let _ = warm.degree_column(predicate);
    }
    ingest_spread(&warm);
    // Same corpus, same inserts, nothing cached before them.
    let fresh = db();
    ingest_spread(&fresh);

    for predicate in &predicates {
        let repaired: Vec<u64> = (0..ENTITIES)
            .map(|e| warm.degree(e, predicate).to_bits())
            .collect();
        assert_eq!(
            repaired,
            bits(&warm.degree_column(predicate)),
            "{predicate:?}: degree vs slot"
        );
        let reference: Vec<u64> = (0..ENTITIES)
            .map(|e| fresh.degree(e, predicate).to_bits())
            .collect();
        assert_eq!(
            repaired, reference,
            "{predicate:?}: repaired vs fresh engine"
        );
    }
}

/// What a statement does per leaf it does once, however many rows it
/// scores: counted on the caches the leaves go through, not timed.
#[test]
fn a_statement_binds_each_subjective_leaf_once_whatever_its_row_count() {
    let db = db();
    let probes = |sql: &str, cache: fn(&CacheReport) -> CacheStats| {
        db.query(sql).expect("warms");
        let before = cache(&db.cache_report());
        let rows = db.query(sql).expect("answers").result.rows.len();
        let after = cache(&db.cache_report());
        assert!(rows >= 100, "{rows} rows: {sql}");
        (after.hits + after.misses) - (before.hits + before.misses)
    };
    // Two natural-language leaves: two probes of the column cache.
    assert_eq!(
        probes(
            "select * from hotels where price_pn < 100000 \
             and (\"clean rooms\" or \"friendly staff\")",
            |r| r.columns
        ),
        2
    );
    // Two `.=` leaves: two probes of the column cache, which holds
    // their term columns.
    assert_eq!(
        probes(
            "select * from hotels h where h.price_pn < 100000 \
             and (h.room_cleanliness .= \"very clean\" or h.service .= \"exceptional\")",
            |r| r.columns
        ),
        2
    );
    // Two qualified leaves: each interpreted once for the answer's
    // interpretation list and once by its bind.
    assert_eq!(
        probes(
            "select * from hotels where \"clean rooms\" or \"friendly staff\" \
             with reviews(year >= 2012)",
            |r| r.interpretations
        ),
        4
    );
}

/// A cold conjunction pays for its columns once each and for no sorted
/// order: one cache probe per predicate, whatever the plan (under a
/// filter too weak for the gather rule the ranking used to fetch every
/// column a second time), both columns left cached for the next
/// statement, neither sorted until a statement reuses it.
#[test]
fn a_cold_conjunction_probes_each_column_once_and_sorts_none() {
    let db = db();
    let predicates = ["clean rooms", "friendly staff"];
    for filter in ["", "price_pn < 100000 and "] {
        db.clear_degree_columns();
        let sql = format!(
            "select * from hotels where {filter}\"{}\" and \"{}\" limit 5",
            predicates[0], predicates[1]
        );
        let probes = |r: &CacheReport| r.columns.hits + r.columns.misses;
        let before = db.cache_report();
        assert_eq!(db.query(&sql).expect("answers").result.rows.len(), 5);
        let after = db.cache_report();
        assert_eq!(probes(&after) - probes(&before), 2, "{sql}");
        assert_eq!(after.columns.misses - before.columns.misses, 2, "{sql}");
        assert_eq!(db.cached_degree_columns(), 2, "{sql}");
        for predicate in predicates {
            assert!(!db.degree_column(predicate).has_order(), "{sql}");
        }
        // The reuse earns the orders.
        db.query(&sql).expect("answers again");
        for predicate in predicates {
            assert!(db.degree_column(predicate).has_order(), "{sql}");
        }
    }
}

/// A column that earned its sorted order keeps it across a repair: after
/// an INSERT the repaired column is ordered before any statement sorts
/// it, and TA over it answers what the reference answers.
#[test]
fn a_repaired_column_keeps_its_order_and_ranks_like_the_reference() {
    let db = db();
    let predicates = ["clean rooms", "friendly staff"];
    let sql = "select * from hotels where \"clean rooms\" and \"friendly staff\" limit 10";
    db.query(sql).expect("cold: builds and scans");
    db.query(sql).expect("warm: sorts");
    for predicate in predicates {
        assert!(db.degree_column(predicate).has_order(), "{predicate}");
    }
    ingest_spread(&db);
    for predicate in predicates {
        let ctx = TraceContext::new();
        let column = with_trace(Some(ctx.clone()), || db.degree_column(predicate));
        let ta = ctx.snapshot();
        let ta = ta.stage("ta_topk").expect("column probe is counted");
        assert_eq!(ta.counter("cache_repairs"), 1, "{predicate}");
        assert!(column.has_order(), "{predicate}: the repair kept the order");
    }
    let ctx = TraceContext::new();
    let fast = with_trace(Some(ctx.clone()), || db.query(sql)).expect("answers");
    let notes = ctx.snapshot().notes;
    assert!(
        notes.iter().any(|n| n.starts_with("ta_topk: full TA")),
        "{notes:?}"
    );
    let reference = db.reference().query(sql).expect("reference answers");
    assert_eq!(fast.result.rows.len(), reference.result.rows.len());
    for (f, r) in fast.result.rows.iter().zip(&reference.result.rows) {
        assert_eq!(f.0, r.0);
        assert_eq!(f.1.to_bits(), r.1.to_bits());
    }
}

#[test]
fn column_build_unwinds_with_cancelled_mid_loop() {
    let db = db();
    let [direct, cooccur, _] = one_predicate_per_kind(&db);
    for predicate in [direct, cooccur] {
        // The interpretation is memoized above, so the only checkpoints
        // left on the path are the entity loop's own; an expired
        // deadline can only be noticed from inside it.
        let unwound = with_deadline(Some(Deadline::after(Duration::ZERO)), || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                db.degree_column(&predicate)
            }))
        });
        let Err(payload) = unwound else {
            panic!("an expired deadline must cancel the build of {predicate:?}");
        };
        assert!(
            payload.is::<Cancelled>(),
            "unwind payload must be Cancelled"
        );
        assert_eq!(
            db.cached_degree_columns(),
            0,
            "a cancelled build publishes nothing"
        );
        // Without a deadline the same build completes.
        assert_eq!(db.degree_column(&predicate).len(), ENTITIES);
        db.clear_degree_columns();
    }
}

/// The note a co-occurrence build leaves when it folds `n` term columns,
/// `cached` of which it found in the cache.
fn fold_note(predicate: &str, n: usize, cached: usize) -> String {
    format!("ta_topk: column of \"{predicate}\" folded from {n} term columns ({cached} cached)")
}

/// Paraphrases of one concept share their term columns: the second
/// build folds the columns the first one built and misses none of them,
/// and both columns hold the reference's bits.
#[test]
fn paraphrases_of_one_concept_share_their_term_columns() {
    let db = db();
    let ([first, second, _], terms) = paraphrases_sharing_terms(&db);
    let n = terms.len();

    let (first_bits, counts, notes) = probe(&db, &first);
    assert_eq!(
        counts,
        (0, 1 + n as u64, 0),
        "{first:?} builds itself and its terms"
    );
    assert!(notes.contains(&fold_note(&first, n, 0)), "{notes:?}");

    let (second_bits, counts, notes) = probe(&db, &second);
    assert_eq!(
        counts,
        (n as u64, 1, 0),
        "{second:?} finds every term cached"
    );
    assert!(notes.contains(&fold_note(&second, n, n)), "{notes:?}");
    assert_eq!(
        db.cached_degree_columns(),
        2 + n,
        "two predicates and their terms"
    );

    assert_eq!(first_bits, reference_bits(&db, &first), "{first:?}");
    assert_eq!(second_bits, reference_bits(&db, &second), "{second:?}");
}

/// Reviews for the cells of `terms` on a spread of entities, phrased
/// from the frozen opinion domains so they land in marker summaries.
fn insert_into_term_cells(db: &OpineDb, terms: &[(usize, usize)]) {
    for i in 0..24 {
        let entity = db.entity_key(i * 21).to_string();
        let variations = db.opinion_domain(terms[i % terms.len()].0).variations();
        let phrase = &variations[i % variations.len()].phrase;
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year) \
             VALUES ('{entity}', 'the {phrase} part and again {phrase}', 2020)"
        ))
        .unwrap();
    }
}

/// Term columns cached before an INSERT are repaired, not rebuilt, for
/// a paraphrase nobody has typed, and carried over a merge; every
/// column equals the reference and a fresh engine that cached nothing.
#[test]
fn a_new_paraphrase_folds_repaired_term_columns_across_ingest_and_merge() {
    let warm = db();
    let ([first, second, third], terms) = paraphrases_sharing_terms(&warm);
    let n = terms.len() as u64;
    let _ = warm.degree_column(&first);
    insert_into_term_cells(&warm, &terms);
    let fresh = db();
    insert_into_term_cells(&fresh, &terms);

    let check = |stage: &str, predicate: &str, column: &[u64]| {
        assert_eq!(
            column,
            reference_bits(&warm, predicate),
            "{stage}: {predicate:?} vs reference"
        );
        assert_eq!(
            column,
            bits(&fresh.degree_column(predicate)),
            "{stage}: {predicate:?} vs a fresh engine"
        );
    };

    let (column, (hits, misses, repairs), _) = probe(&warm, &second);
    assert_eq!(misses, 1, "live delta: only {second:?} itself misses");
    assert!(
        repairs >= 1,
        "live delta: the inserts touched the term cells"
    );
    assert_eq!(hits + repairs, n, "live delta: every term found cached");
    check("live delta", &second, &column);

    // The merge moves no degree: every term column is carried over as
    // it is, and so is the predicate cached before the merge.
    warm.merge_delta().unwrap();
    fresh.merge_delta().unwrap();
    let (column, counts, _) = probe(&warm, &third);
    assert_eq!(counts, (n, 1, 0), "merged: only {third:?} itself misses");
    check("merged", &third, &column);
    let (column, counts, _) = probe(&warm, &second);
    assert_eq!(counts, (1, 0, 0), "merged: {second:?} is carried over");
    check("merged", &second, &column);
}

/// A deadline that expires while a co-occurrence column is folded
/// unwinds out of the fold and caches no partial predicate column.
#[test]
fn a_fold_cancelled_mid_loop_caches_no_predicate_column() {
    let db = db();
    let ([first, second, _], terms) = paraphrases_sharing_terms(&db);
    let n = terms.len();
    let _ = db.degree_column(&first);
    let cached = db.cached_degree_columns();
    assert_eq!(cached, 1 + n);

    // Both interpretations are memoized and every term column is
    // cached, so the only checkpoints left on the path are the fold's.
    let ctx = TraceContext::new();
    let unwound = with_trace(Some(ctx.clone()), || {
        with_deadline(Some(Deadline::after(Duration::ZERO)), || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.degree_column(&second)))
        })
    });
    let Err(payload) = unwound else {
        panic!("an expired deadline must cancel the fold of {second:?}");
    };
    assert!(
        payload.is::<Cancelled>(),
        "unwind payload must be Cancelled"
    );
    let notes = ctx.snapshot().notes;
    assert!(
        notes.contains(&fold_note(&second, n, n)),
        "the deadline is noticed in the fold, after every term was found: {notes:?}"
    );
    assert_eq!(
        db.cached_degree_columns(),
        cached,
        "a cancelled fold publishes nothing"
    );

    // Without a deadline the same fold completes over the same terms.
    let (column, counts, _) = probe(&db, &second);
    assert_eq!(counts, (n as u64, 1, 0));
    assert_eq!(column, reference_bits(&db, &second));
}

/// Term columns and predicate columns share one cache but not one key
/// space: the `.=` rendering of a cached term, typed as a predicate with
/// or without a leading NUL, is a predicate of its own. Its probe misses
/// and its column is the reference's column of that text.
#[test]
fn predicate_text_never_reads_a_term_column() {
    let db = db();
    let ([first, ..], terms) = paraphrases_sharing_terms(&db);
    let _ = db.degree_column(&first);
    for &(attribute, marker) in &terms {
        let rendering = format!(
            "{} .= \"{}\"",
            db.attributes[attribute],
            db.marker_set(attribute).markers[marker].phrase
        );
        let texts = [
            rendering.clone(),
            format!("\0{rendering}"),
            format!("\0T{rendering}"),
            format!("\0P\0T{rendering}"),
        ];
        for text in texts {
            let before = db.cached_degree_columns();
            let (column, (_, misses, _), _) = probe(&db, &text);
            assert!(misses >= 1, "{text:?} must not hit a term column");
            assert!(
                db.cached_degree_columns() > before,
                "{text:?} is cached as itself"
            );
            assert_eq!(column, reference_bits(&db, &text), "{text:?}");
        }
    }
}
