//! Concurrent ingest soak: one writer streaming `INSERT` batches while
//! reader threads hammer the same server over TCP. The invariant under
//! test is snapshot isolation at the serving boundary — every response
//! reflects exactly one published epoch:
//!
//! * batches are all-or-nothing: a reader can never observe a torn
//!   batch (a row count that is not a whole number of batches);
//! * per reader, visibility is monotone: a later request pins an epoch
//!   at least as new as an earlier one, so counts never regress;
//! * two responses observing the same epoch's data are byte-identical
//!   (the serialization is a pure function of the pinned generation);
//! * a merge that dies mid-flight (injected `mid_merge` fault) publishes
//!   nothing — the previous epoch keeps serving, byte-identical.

use opine_core::{build, BuildConfig, OpineDb};
use opine_corpus::hotel::hotel_spec;
use opine_corpus::{Corpus, CorpusConfig};
use opine_embed::Word2VecConfig;
use opine_server::{HttpClient, OpineServer, ServerConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the two soak tests: the faults registry is process-global,
/// and the chaos variant must not leak an armed `mid_merge` panic into
/// the clean variant's threshold merges.
fn soak_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_db() -> Arc<OpineDb> {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 16,
            mean_reviews: 12,
            seed: 23,
        },
    );
    Arc::new(build(
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
    ))
}

fn serve(db: Arc<OpineDb>) -> OpineServer {
    OpineServer::bind(
        "127.0.0.1:0",
        db,
        ServerConfig {
            // More blocking workers than the soak's 9 keep-alive
            // connections: a writer parked in the accept queue lets the
            // readers spin through their 10 000-request connection budget
            // and die on the closed socket.
            workers: 12,
            max_in_flight: 64,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port")
}

fn query_body(sql: &str) -> String {
    format!("{{\"sql\": {}}}", opine_server::json::escaped(sql))
}

/// The soak query: counts exactly the soak writer's rows (the marker
/// reviewer band is far above anything the corpus generator assigns).
const SOAK_SELECT: &str = "select * from reviews where reviewer_id >= 900000";
const ROWS_PER_BATCH: usize = 3;

fn batch_sql(db: &OpineDb, batch: usize) -> String {
    let reviewer = 900_000 + batch;
    let rows: Vec<String> = (0..ROWS_PER_BATCH)
        .map(|i| {
            let entity = (batch * ROWS_PER_BATCH + i) % db.num_entities();
            format!(
                "('{}', 'soak batch {batch} row {i}', {}, {reviewer})",
                db.entity_key(entity),
                2000 + batch
            )
        })
        .collect();
    format!(
        "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES {}",
        rows.join(", ")
    )
}

/// Extracts `"row_count":N` from a response body.
fn row_count(body: &str) -> usize {
    let tail = body
        .split("\"row_count\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no row_count in {body}"));
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("row_count digits")
}

/// Runs the writer + readers and returns every reader's observed
/// `(row_count, body)` stream, in per-reader order.
fn run_soak(server: &OpineServer, db: &Arc<OpineDb>, batches: usize) -> Vec<Vec<(usize, String)>> {
    let addr = server.local_addr();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..8)
            .map(|_| {
                let done = &done;
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect reader");
                    let mut seen = Vec::new();
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let resp = client.post("/query", &query_body(SOAK_SELECT)).unwrap();
                        assert_eq!(resp.status, 200, "{}", resp.body);
                        seen.push((row_count(&resp.body), resp.body));
                        // One final sample after the writer stops, so
                        // every reader also observes the final epoch's
                        // prefix ordering at least once.
                        if finished {
                            return seen;
                        }
                    }
                })
            })
            .collect();
        let mut writer_client = HttpClient::connect(addr).expect("connect writer");
        for batch in 0..batches {
            let resp = writer_client
                .post("/insert", &query_body(&batch_sql(db, batch)))
                .unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert!(resp
                .body
                .contains(&format!("\"inserted\":{ROWS_PER_BATCH}")));
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader"))
            .collect()
    })
}

/// Shared postcondition over every reader's stream.
fn assert_snapshot_isolated(observations: &[Vec<(usize, String)>], batches: usize) {
    let mut by_count: HashMap<usize, &String> = HashMap::new();
    let mut observed_final = false;
    for stream in observations {
        let mut last = 0usize;
        for (count, body) in stream {
            assert_eq!(
                count % ROWS_PER_BATCH,
                0,
                "torn batch observable: {count} rows is not a whole number of \
                 {ROWS_PER_BATCH}-row batches"
            );
            assert!(
                *count >= last,
                "visibility regressed within one reader: {count} after {last}"
            );
            last = *count;
            // Same data epoch ⇒ byte-identical serialization, across
            // readers and across the result cache.
            match by_count.get(count) {
                Some(reference) => assert_eq!(
                    &body, reference,
                    "two responses over the same {count}-row epoch diverged"
                ),
                None => {
                    by_count.insert(*count, body);
                }
            }
            observed_final |= *count == batches * ROWS_PER_BATCH;
        }
    }
    assert!(
        observed_final,
        "no reader observed the final epoch (each takes a post-writer sample)"
    );
}

#[test]
fn concurrent_ingest_serves_exactly_one_epoch_per_response() {
    let _guard = soak_lock();
    let db = small_db();
    // Threshold low enough that merges interleave with the soak's
    // inserts and publishes — the merge path must be just as invisible
    // to readers as the insert path.
    db.set_merge_threshold(4);
    let server = serve(db.clone());
    const BATCHES: usize = 12;
    let observations = run_soak(&server, &db, BATCHES);
    assert_snapshot_isolated(&observations, BATCHES);
    assert_eq!(db.delta_reviews(), BATCHES * ROWS_PER_BATCH);
    let report = db.cache_report();
    assert!(report.delta_merges >= 1, "threshold merges ran mid-soak");
    assert_eq!(report.failed_merges, 0);
    server.shutdown();
}

#[test]
fn failed_merges_under_chaos_never_publish_half_built_artifacts() {
    let _guard = soak_lock();
    let db = small_db();
    db.set_merge_threshold(4);
    let server = serve(db.clone());
    // Every merge attempt dies mid-flight; inserts keep publishing.
    opine_core::faults::configure("mid_merge=panic@1.0", 41).expect("valid spec");
    const BATCHES: usize = 8;
    let observations = run_soak(&server, &db, BATCHES);
    opine_core::faults::clear();
    assert_snapshot_isolated(&observations, BATCHES);
    let report = db.cache_report();
    assert_eq!(report.delta_merges, 0, "every merge died at the failpoint");
    assert!(report.failed_merges >= 1);
    // With merges failing, only insert batches publish epochs.
    assert_eq!(db.ingest_epoch() as usize, BATCHES);
    // Disarmed, the deferred merge catches up and the merged data
    // serves the same rows.
    let merged_epoch = db.merge_delta().expect("merge after disarm");
    assert_eq!(merged_epoch as usize, BATCHES + 1);
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let resp = client.post("/query", &query_body(SOAK_SELECT)).unwrap();
    assert_eq!(row_count(&resp.body), BATCHES * ROWS_PER_BATCH);
    server.shutdown();
}
