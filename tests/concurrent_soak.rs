//! Concurrency soak: one shared `OpineDb` hammered by ≥8 threads issuing
//! a mix of warm and cold subjective queries, with a cache-clearing
//! antagonist in the mix. Every concurrent answer must be identical to
//! single-threaded execution — this validates the engine's interior
//! caches (interpretation memo, degree columns, point memo, prepared
//! phrases) under contention, which is exactly what the serving layer
//! relies on. A second soak interleaves the engine with its reference
//! evaluator on the same handle while a writer inserts and merges.

use opinedb::core::{build, BuildConfig, OpineDb, QueryOutput, QueryRef};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::embed::Word2VecConfig;
use opinedb::store::Value;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

const THREADS: usize = 8;
const ITERATIONS: usize = 12;

/// The query mix: every executor path — threshold-algorithm top-k (pure
/// conjunction), batched or-expression, lazy mixed objective+subjective,
/// marker match, projection + order by.
const QUERIES: &[&str] = &[
    "select * from hotels where \"clean rooms\" limit 8",
    "select * from hotels where \"clean rooms\" and \"friendly staff\" limit 8",
    "select * from hotels where \"clean rooms\" or \"quiet at night\" limit 8",
    "select * from hotels where price_pn < 200 and \"clean rooms\" limit 8",
    "select * from hotels h where h.room_cleanliness .= \"very clean\" limit 8",
    "select hotelname, price_pn from hotels where price_pn < 250 order by price_pn asc limit 8",
];

fn soak_db() -> OpineDb {
    let env_usize = |key: &str, default: usize| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: env_usize("OPINE_TEST_ENTITIES", 24),
            mean_reviews: env_usize("OPINE_TEST_REVIEWS", 12),
            seed: 47,
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

fn assert_same(sql: &str, reference: &QueryOutput, got: &QueryOutput) {
    assert_eq!(
        reference.result.columns, got.result.columns,
        "{sql}: columns diverged"
    );
    assert_eq!(
        reference.result.rows.len(),
        got.result.rows.len(),
        "{sql}: row count diverged"
    );
    for (i, ((r_row, r_score), (g_row, g_score))) in reference
        .result
        .rows
        .iter()
        .zip(&got.result.rows)
        .enumerate()
    {
        assert_eq!(r_row, g_row, "{sql}: row {i} diverged");
        assert!(
            (r_score - g_score).abs() < 1e-12,
            "{sql}: row {i} score {r_score} vs {g_score}"
        );
    }
    assert_eq!(
        reference.interpretations.len(),
        got.interpretations.len(),
        "{sql}: interpretations diverged"
    );
}

#[test]
fn eight_threads_of_mixed_queries_match_single_threaded_execution() {
    let db = Arc::new(soak_db());

    // Single-threaded references, computed cold (fresh caches) and again
    // warm: caching must never change an answer even before threads enter.
    let references: Vec<QueryOutput> = QUERIES
        .iter()
        .map(|sql| db.query(sql).expect("reference query"))
        .collect();
    for (sql, reference) in QUERIES.iter().zip(&references) {
        let warm = db.query(sql).expect("warm reference");
        assert_same(sql, reference, &warm);
    }
    db.clear_caches();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = db.clone();
            let references = &references;
            s.spawn(move || {
                for i in 0..ITERATIONS {
                    // Thread-dependent order interleaves warm and cold
                    // predicates across threads.
                    let q = (t * 7 + i) % QUERIES.len();
                    let sql = QUERIES[q];
                    let got = db.query(sql).expect("concurrent query");
                    assert_same(sql, &references[q], &got);
                    // One antagonist thread repeatedly drops every cache
                    // mid-flight, forcing cold rebuilds under contention.
                    if t == 0 && i % 3 == 0 {
                        db.clear_caches();
                    }
                }
            });
        }
    });

    // After the storm: answers still match, caches still coherent.
    for (sql, reference) in QUERIES.iter().zip(&references) {
        let got = db.query(sql).expect("post-soak query");
        assert_same(sql, reference, &got);
    }
}

#[test]
fn concurrent_column_builds_are_consistent() {
    let db = Arc::new(soak_db());
    // All threads race to build the same degree columns from cold.
    let columns: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let db = db.clone();
                s.spawn(move || db.degree_column("clean rooms").degrees().to_vec())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for c in &columns[1..] {
        assert_eq!(&columns[0], c, "racing column builds must agree");
    }
    // And the point path sees the same degrees.
    for (e, column_degree) in columns[0].iter().enumerate() {
        assert!((db.degree(e, "clean rooms") - column_degree).abs() < 1e-12);
    }
}

/// Rows and score bits of a borrowed answer.
fn rows_and_bits(q: &QueryRef<'_>) -> Vec<(Vec<Value>, u64)> {
    q.result
        .iter()
        .map(|(row, score)| (row.map(|v| v.to_value()).collect(), score.to_bits()))
        .collect()
}

#[test]
fn reference_and_fast_queries_agree_at_every_epoch_under_a_live_writer() {
    const READERS: usize = 4;
    const BATCHES: usize = 32;
    let db = Arc::new(soak_db());
    let phrases: Vec<String> = (0..3)
        .map(|a| db.opinion_domain(a).variations()[0].phrase.clone())
        .collect();
    // Every reader iteration hands the writer one token (a rendezvous)
    // and the writer publishes one batch (every eighth time, a merge
    // too) per token: the batches land while the other readers are
    // mid-query, and a reader retrying for an epoch both of its answers
    // share cannot be outrun.
    let (token, tokens) = mpsc::sync_channel::<()>(0);
    let done = AtomicBool::new(false);
    let epochs: BTreeSet<u64> = std::thread::scope(|s| {
        let (db, done, phrases) = (&db, &done, &phrases);
        s.spawn(move || {
            for batch in 0..BATCHES {
                tokens.recv().expect("readers outlive the writer");
                let entity = db.entity_key(batch % db.num_entities());
                let phrase = &phrases[batch % phrases.len()];
                db.insert_sql(&format!(
                    "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES \
                     ('{entity}', 'so {phrase} and {phrase}', 2020, {})",
                    970_000 + batch % 5
                ))
                .expect("insert");
                if batch % 8 == 7 {
                    db.merge_delta().expect("merge");
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let token = token.clone();
                s.spawn(move || {
                    let mut epochs = BTreeSet::new();
                    let mut i = 0;
                    while !done.load(Ordering::SeqCst) {
                        let sql = QUERIES[(t * 7 + i) % QUERIES.len()];
                        i += 1;
                        let (fast, reference) = loop {
                            let fast = db.query_ref(sql).expect("fast query");
                            let reference = db.reference().query_ref(sql).expect("reference");
                            if fast.epoch == reference.epoch {
                                break (fast, reference);
                            }
                        };
                        assert_eq!(
                            rows_and_bits(&fast),
                            rows_and_bits(&reference),
                            "{sql} at epoch {}",
                            fast.epoch
                        );
                        epochs.insert(fast.epoch);
                        // The writer hangs up after its last batch.
                        let _ = token.send(());
                    }
                    epochs
                })
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader"))
            .collect()
    });
    assert_eq!(db.delta_reviews(), BATCHES);
    // A reader's next-but-one comparison starts after the batch its
    // token paid for was published, and some reader paid for at least
    // `BATCHES / READERS` of them.
    assert!(
        epochs.len() >= BATCHES / (2 * READERS),
        "answers were compared across the stream, not at one epoch: {epochs:?}"
    );
}
