//! End-to-end serving tests: a real corpus-built `OpineDb` behind
//! `OpineServer` on an ephemeral loopback port, driven over actual TCP.

use opine_core::{build, BuildConfig, OpineDb};
use opine_corpus::hotel::hotel_spec;
use opine_corpus::{Corpus, CorpusConfig};
use opine_embed::Word2VecConfig;
use opine_server::{render_query_body, HttpClient, OpineServer, ServerConfig};
use opine_store::parse_select;
use std::io::{Read, Write};
use std::sync::Arc;

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
            workers: 4,
            // These tests exercise protocol/answer behavior, not
            // admission: keep the budget above the test's concurrency
            // so no request is shed (shedding has its own tests).
            max_in_flight: 64,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port")
}

const RUNNING_EXAMPLE: &str =
    "select * from hotels where price_pn < 150 and \"clean rooms\" limit 5";

fn query_body(sql: &str) -> String {
    format!("{{\"sql\": {}}}", opine_server::json::escaped(sql))
}

#[test]
fn query_endpoint_answers_the_running_example() {
    let db = small_db();
    let server = serve(db.clone());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let resp = client.post("/query", &query_body(RUNNING_EXAMPLE)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("x-opine-cache"), Some("miss"));
    assert!(resp.body.contains("\"columns\":[\"hotels.hotelname\""));
    assert!(resp
        .body
        .contains("\"interpretations\":[{\"predicate\":\"clean rooms\""));

    // The wire bytes must be exactly the library-path serialization.
    let select = parse_select(RUNNING_EXAMPLE).unwrap();
    let reference = render_query_body(&db, &select).unwrap();
    assert_eq!(
        resp.body, reference,
        "server must be byte-identical to the library path"
    );

    // Same statement, different formatting → result-cache hit with the
    // same bytes.
    let resp2 = client
        .post(
            "/query",
            &query_body("SELECT  *  FROM hotels WHERE (price_pn < 150 AND 'clean rooms') LIMIT 5"),
        )
        .unwrap();
    assert_eq!(resp2.status, 200);
    assert_eq!(resp2.header("x-opine-cache"), Some("hit"));
    assert_eq!(resp2.body, reference);
}

#[test]
fn review_qualified_queries_serve_and_count() {
    let db = small_db();
    let server = serve(db.clone());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let qualified = "select * from hotels where \"clean rooms\" \
                     with reviews(year >= 2012, reviewer_min_count >= 2) limit 5";
    let resp = client.post("/query", &query_body(qualified)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"rows\":[{"), "non-empty rows");

    // Wire bytes equal the library-path serialization of the qualified
    // statement.
    let select = parse_select(qualified).unwrap();
    let reference = render_query_body(&db, &select).unwrap();
    assert_eq!(resp.body, reference);

    // The unqualified variant is a *different* result-cache entry.
    let plain = client
        .post(
            "/query",
            &query_body("select * from hotels where \"clean rooms\" limit 5"),
        )
        .unwrap();
    assert_eq!(plain.status, 200);
    assert_eq!(plain.header("x-opine-cache"), Some("miss"));

    // /stats reports the qualified counter and the filtered-summary
    // cache.
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    assert!(
        stats.body.contains("\"filtered_summary_queries\":"),
        "{}",
        stats.body
    );
    assert!(!stats.body.contains("\"filtered_summary_queries\":0"));
    assert!(stats.body.contains("\"filtered_summaries\":{\"hits\":"));
}

#[test]
fn prepared_statements_execute_without_reparsing() {
    let db = small_db();
    let server = serve(db.clone());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let resp = client
        .post(
            "/prepare",
            &format!(
                "{{\"name\": \"cheap-clean\", \"sql\": {}}}",
                opine_server::json::escaped(RUNNING_EXAMPLE)
            ),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"prepared\":\"cheap-clean\""));

    let exec = client
        .post("/execute", "{\"name\": \"cheap-clean\"}")
        .unwrap();
    assert_eq!(exec.status, 200, "{}", exec.body);
    let select = parse_select(RUNNING_EXAMPLE).unwrap();
    assert_eq!(exec.body, render_query_body(&db, &select).unwrap());

    // Ad-hoc /query of the same statement shares the cache entry the
    // prepared execution populated.
    let adhoc = client.post("/query", &query_body(RUNNING_EXAMPLE)).unwrap();
    assert_eq!(adhoc.header("x-opine-cache"), Some("hit"));

    let missing = client.post("/execute", "{\"name\": \"nope\"}").unwrap();
    assert_eq!(missing.status, 404);
}

#[test]
fn stats_reports_caches_and_latencies() {
    let db = small_db();
    let server = serve(db);
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    for _ in 0..3 {
        assert_eq!(
            client
                .post("/query", &query_body(RUNNING_EXAMPLE))
                .unwrap()
                .status,
            200
        );
    }
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let v = opine_server::json::parse(&stats.body).expect("stats payload is valid JSON");
    let workers = v
        .get("server")
        .unwrap()
        .get("workers")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(workers, 4.0);
    let query_requests = v
        .get("endpoints")
        .and_then(|e| e.get("query"))
        .and_then(|q| q.get("requests"))
        .and_then(|r| r.as_f64())
        .unwrap();
    assert!(query_requests >= 3.0);
    let cache_hits = v
        .get("result_cache")
        .and_then(|c| c.get("stats"))
        .and_then(|s| s.get("hits"))
        .and_then(|h| h.as_f64())
        .unwrap();
    assert!(
        cache_hits >= 2.0,
        "2nd and 3rd queries must hit: {}",
        stats.body
    );
    let engine = v.get("engine_caches").expect("engine cache section");
    // The retrieval counter is part of the payload (its value depends on
    // which interpretation stages the queries hit).
    assert!(
        engine
            .get("wand_queries")
            .and_then(|x| x.as_f64())
            .is_some(),
        "missing wand_queries in {}",
        stats.body
    );
    for gone in ["blocks_skipped", "exhaustive_queries"] {
        assert!(engine.get(gone).is_none(), "{gone} in {}", stats.body);
    }
}

#[test]
fn explain_analyze_and_trace_flag_return_span_trees() {
    let server = serve(small_db());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // EXPLAIN ANALYZE: runs the statement and returns the span tree
    // alongside the rows, bypassing the result cache in both directions.
    let explained = client
        .post(
            "/query",
            &query_body(&format!("explain analyze {RUNNING_EXAMPLE}")),
        )
        .unwrap();
    assert_eq!(explained.status, 200, "{}", explained.body);
    assert_eq!(explained.header("x-opine-cache"), Some("bypass"));
    let v = opine_server::json::parse(&explained.body).expect("traced body is valid JSON");
    assert!(
        v.get("rows").is_some(),
        "rows ride along: {}",
        explained.body
    );
    let trace = v.get("trace").expect("span tree present");
    let stages = match trace.get("stages").expect("stages array") {
        opine_server::JsonValue::Array(items) => items,
        other => panic!("expected array, got {other:?}"),
    };
    assert!(!stages.is_empty(), "span tree must be non-empty");
    let names: Vec<&str> = stages
        .iter()
        .map(|s| s.get("stage").and_then(|n| n.as_str()).unwrap())
        .collect();
    for expected in ["parse", "prefilter_bitmap", "ta_topk", "serialize"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
    // The plan notes say which fast path fired.
    assert!(
        explained.body.contains("pushdown"),
        "plan note should name the pushdown path: {}",
        explained.body
    );

    // The same statement via the `"trace": true` field.
    let flagged = client
        .post(
            "/query",
            &format!(
                "{{\"sql\": {}, \"trace\": true}}",
                opine_server::json::escaped(RUNNING_EXAMPLE)
            ),
        )
        .unwrap();
    assert_eq!(flagged.status, 200);
    assert_eq!(flagged.header("x-opine-cache"), Some("bypass"));
    assert!(flagged.body.contains("\"trace\":{\"total_us\":"));

    // Traced executions were never inserted into the result cache, and
    // untraced responses carry no trace object.
    let plain = client.post("/query", &query_body(RUNNING_EXAMPLE)).unwrap();
    assert_eq!(plain.header("x-opine-cache"), Some("miss"));
    assert!(!plain.body.contains("\"trace\""));
}

/// The serve-smoke CI format check, inlined: every exposition line is a
/// comment or `^[a-z_]+(\{[^}]*\})? [0-9.e+-]+$`.
fn prometheus_line_is_valid(line: &str) -> bool {
    if line.starts_with('#') {
        return true;
    }
    let rest = match line.find(|c: char| !(c.is_ascii_lowercase() || c == '_')) {
        Some(0) | None => return false,
        Some(end) => &line[end..],
    };
    let rest = if let Some(stripped) = rest.strip_prefix('{') {
        match stripped.find('}') {
            Some(close) => &stripped[close + 1..],
            None => return false,
        }
    } else {
        rest
    };
    let Some(value) = rest.strip_prefix(' ') else {
        return false;
    };
    !value.is_empty()
        && value
            .bytes()
            .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'+' | b'-'))
}

#[test]
fn metrics_exposition_is_valid_and_cannot_drift_from_stats() {
    let db = small_db();
    let server = serve(db.clone());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    for _ in 0..2 {
        assert_eq!(
            client
                .post("/query", &query_body(RUNNING_EXAMPLE))
                .unwrap()
                .status,
            200
        );
    }

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    for line in metrics.body.lines() {
        assert!(prometheus_line_is_valid(line), "bad line: {line:?}");
    }
    // The mixed running example took the TA fast path.
    assert!(metrics.body.contains("opine_ta_queries_total "));
    assert!(!metrics.body.contains("opine_ta_queries_total 0\n"));
    // Per-stage histograms are fed by the always-armed request traces.
    assert!(metrics
        .body
        .contains("opine_stage_duration_seconds_count{stage=\"ta_topk\"} "));
    assert!(!metrics
        .body
        .contains("opine_stage_duration_seconds_count{stage=\"ta_topk\"} 0\n"));

    // Satellite guarantee: every public CacheReport field appears in
    // BOTH surfaces — they render from the same fields() list.
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    for (name, value) in db.cache_report().fields() {
        assert!(
            stats.body.contains(&format!("\"{name}\":")),
            "/stats is missing {name}"
        );
        let expected = match value {
            opine_core::MetricValue::Cache(_) => format!("cache=\"{name}\""),
            opine_core::MetricValue::Counter(_) => format!("opine_{name}_total "),
            _ => format!("opine_{name} "),
        };
        assert!(
            metrics.body.contains(&expected),
            "/metrics is missing {expected}"
        );
    }

    // Wrong method is routed like the other endpoints.
    assert_eq!(client.post("/metrics", "{}").unwrap().status, 405);
    assert_eq!(
        client.post("/debug/slow_queries", "{}").unwrap().status,
        405
    );
}

#[test]
fn slow_query_log_captures_traces_and_bounds_its_ring() {
    let server = OpineServer::bind(
        "127.0.0.1:0",
        small_db(),
        ServerConfig {
            workers: 2,
            max_in_flight: 64,
            // Every cold query qualifies as "slow".
            slow_query_ms: 1,
            slow_query_capacity: 2,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // A tiny corpus can answer even cold queries in under a
    // millisecond, so make the subjective statements deterministically
    // slow with the delay failpoint ahead of the TA stage.
    opine_core::faults::configure("pre_ta=delay:10@1", 7).unwrap();
    let statements = [
        RUNNING_EXAMPLE,
        "select * from hotels where \"friendly staff\" limit 4",
        "select * from hotels where \"quiet rooms\" limit 3",
    ];
    for sql in statements {
        assert_eq!(client.post("/query", &query_body(sql)).unwrap().status, 200);
    }
    opine_core::faults::clear();

    let resp = client.get("/debug/slow_queries").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = opine_server::json::parse(&resp.body).expect("slow-query payload is valid JSON");
    assert_eq!(v.get("threshold_ms").and_then(|t| t.as_f64()), Some(1.0));
    assert_eq!(v.get("capacity").and_then(|c| c.as_f64()), Some(2.0));
    let entries = match v.get("entries").expect("entries array") {
        opine_server::JsonValue::Array(items) => items,
        other => panic!("expected array, got {other:?}"),
    };
    assert!(
        !entries.is_empty(),
        "cold queries should exceed 1 ms: {}",
        resp.body
    );
    assert!(
        entries.len() <= 2,
        "ring must respect its capacity: {}",
        resp.body
    );
    for entry in entries {
        let sql = entry.get("sql").and_then(|s| s.as_str()).unwrap();
        assert!(sql.contains("hotels"), "normalized SQL recorded: {sql}");
        assert!(
            entry.get("trace").and_then(|t| t.get("stages")).is_some(),
            "each entry carries its span tree"
        );
    }
}

#[test]
fn error_paths_return_json_errors() {
    let server = serve(small_db());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Unknown path and wrong method.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/query").unwrap().status, 405);
    // Non-JSON body, missing field, bad SQL, unknown column.
    assert_eq!(client.post("/query", "not json").unwrap().status, 400);
    assert_eq!(client.post("/query", "{\"nosql\": 1}").unwrap().status, 400);
    assert_eq!(
        client
            .post("/query", "{\"sql\": \"select nothing\"}")
            .unwrap()
            .status,
        400
    );
    let resp = client
        .post(
            "/query",
            &query_body("select * from hotels where nosuch > 5"),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("\"error\""));
    // The connection survives all of the above (keep-alive).
    assert_eq!(client.get("/healthz").unwrap().status, 200);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = serve(small_db());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let responses = client
        .pipeline("POST", "/query", &query_body(RUNNING_EXAMPLE), 8)
        .unwrap();
    assert_eq!(responses.len(), 8);
    assert!(responses.iter().all(|r| r.status == 200));
    // First is the cold miss, the rest replay the cached body.
    assert_eq!(responses[0].header("x-opine-cache"), Some("miss"));
    for r in &responses[1..] {
        assert_eq!(r.header("x-opine-cache"), Some("hit"));
        assert_eq!(r.body, responses[0].body);
    }
}

#[test]
fn concurrent_clients_get_identical_answers() {
    let db = small_db();
    let server = serve(db.clone());
    let addr = server.local_addr();
    let select = parse_select(RUNNING_EXAMPLE).unwrap();
    let reference = render_query_body(&db, &select).unwrap();

    std::thread::scope(|s| {
        for _ in 0..8 {
            let reference = reference.clone();
            s.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for _ in 0..10 {
                    let resp = client.post("/query", &query_body(RUNNING_EXAMPLE)).unwrap();
                    assert_eq!(resp.status, 200);
                    assert_eq!(resp.body, reference);
                }
            });
        }
    });
}

#[test]
fn review_text_with_quotes_survives_the_json_layer() {
    // An entity key with JSON-hostile characters must be escaped on the
    // way out and parse back to the same text.
    use opine_store::{Catalog, Column, ColumnType, Schema, Value};
    let tricky = "Grand \"Hotel\"\nline\ttab \\ slash ☕";
    let mut catalog = Catalog::new();
    catalog
        .create_table(Schema::new(
            "hotels",
            vec![
                Column::new("hotelname", ColumnType::Text),
                Column::new("price_pn", ColumnType::Float),
            ],
            0,
        ))
        .unwrap();
    catalog
        .insert("hotels", vec![Value::text(tricky), Value::Float(99.0)])
        .unwrap();
    let select = parse_select("select * from hotels where price_pn < 100").unwrap();
    let rows = opine_store::execute(
        &select,
        &catalog,
        &opine_store::ObjectiveOnly,
        opine_store::FuzzyAlgebra::Product,
        None,
    )
    .unwrap();
    // Render through the same writer the server uses.
    let mut body = String::from("{\"values\":[");
    for (j, v) in rows.values(0).enumerate() {
        if j > 0 {
            body.push(',');
        }
        match v {
            opine_store::ValueRef::Str(s) => opine_server::json::escape_into(&mut body, s),
            other => body.push_str(&other.to_string()),
        }
    }
    body.push_str("]}");
    let parsed = opine_server::json::parse(&body).expect("escaped body must be valid JSON");
    match parsed.get("values").unwrap() {
        opine_server::JsonValue::Array(items) => {
            assert_eq!(items[0].as_str(), Some(tricky));
        }
        other => panic!("expected array, got {other:?}"),
    }
}

#[test]
fn clear_result_cache_invalidates_served_bodies() {
    let server = serve(small_db());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let body = query_body(RUNNING_EXAMPLE);
    assert_eq!(
        client
            .post("/query", &body)
            .unwrap()
            .header("x-opine-cache"),
        Some("miss")
    );
    assert_eq!(
        client
            .post("/query", &body)
            .unwrap()
            .header("x-opine-cache"),
        Some("hit")
    );
    // After invalidation (e.g. an ablation toggle through server.db()),
    // the next request re-renders.
    server.clear_result_cache();
    assert_eq!(
        client
            .post("/query", &body)
            .unwrap()
            .header("x-opine-cache"),
        Some("miss")
    );
}

#[test]
fn shutdown_is_prompt_with_idle_keepalive_connections() {
    let server = serve(small_db());
    let addr = server.local_addr();
    // Two clients mid-keep-alive-session: the server is blocked reading
    // their next request. Shutdown must drain them, not wait out the
    // 30 s read timeout.
    let mut c1 = HttpClient::connect(addr).unwrap();
    let mut c2 = HttpClient::connect(addr).unwrap();
    assert_eq!(c1.get("/healthz").unwrap().status, 200);
    assert_eq!(c2.get("/healthz").unwrap().status, 200);
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shutdown blocked {:?} on idle keep-alive connections",
        start.elapsed()
    );
}

#[test]
fn oversized_body_gets_413_and_huge_results_still_serve() {
    let server = serve(small_db());
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let big = format!(
        "{{\"sql\": \"{}\"}}",
        "x".repeat(opine_server::DEFAULT_MAX_BODY)
    );
    write!(
        stream,
        "POST /query HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n",
        big.len()
    )
    .unwrap();
    // The server answers 413 off the headers, half-closes, and lingers
    // over the megabyte still in flight instead of resetting the
    // connection: the write completes and the response, then EOF, is
    // there to read.
    stream.write_all(big.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let response = String::from_utf8_lossy(&response);
    assert!(
        response.starts_with("HTTP/1.1 413"),
        "expected 413, got: {response:?}"
    );

    // The same through the client, which gives up on a failed body
    // write before it ever reads: it must get its 413 too.
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let resp = client.post("/query", &big).unwrap();
    assert_eq!(resp.status, 413);
    assert!(resp.body.contains("payload_too_large"), "{}", resp.body);
}

#[test]
fn insert_invalidates_the_result_cache_and_updates_stats() {
    let db = small_db();
    let server = serve(db.clone());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Warm the result cache with a query the upcoming insert answers.
    let sql = "select * from reviews where reviewer_id = 424242";
    let cold = client.post("/query", &query_body(sql)).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-opine-cache"), Some("miss"));
    assert!(cold.body.contains("\"row_count\":0"), "{}", cold.body);
    let warm = client.post("/query", &query_body(sql)).unwrap();
    assert_eq!(warm.header("x-opine-cache"), Some("hit"));

    // Insert a matching review through the write endpoint.
    let entity = db.entity_key(0).to_string();
    let insert = format!(
        "INSERT INTO reviews (entity, text, year, reviewer_id) \
         VALUES ('{entity}', 'spotless and friendly', 2024, 424242)"
    );
    let receipt = client.post("/insert", &query_body(&insert)).unwrap();
    assert_eq!(receipt.status, 200, "{}", receipt.body);
    assert!(receipt.body.contains("\"inserted\":1"), "{}", receipt.body);
    assert!(receipt.body.contains("\"epoch\":1"), "{}", receipt.body);

    // The staleness regression this PR fixes: the same statement must
    // MISS (the epoch moved under the cache key) and see the new row —
    // never replay the cached pre-insert empty answer.
    let fresh = client.post("/query", &query_body(sql)).unwrap();
    assert_eq!(fresh.header("x-opine-cache"), Some("miss"));
    assert!(fresh.body.contains("\"row_count\":1"), "{}", fresh.body);
    assert!(fresh.body.contains("424242"), "{}", fresh.body);

    // /stats surfaces the ingest counters.
    let stats = client.get("/stats").unwrap();
    assert!(stats.body.contains("\"ingest_epoch\":1"), "{}", stats.body);
    assert!(stats.body.contains("\"inserted_reviews\":1"));
    assert!(stats.body.contains("\"delta_reviews\":1"));
}

#[test]
fn insert_serves_through_the_query_endpoint_and_rejections_are_400s() {
    let db = small_db();
    let server = serve(db.clone());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // The unified SQL surface accepts writes too.
    let entity = db.entity_key(1).to_string();
    let resp = client
        .post(
            "/query",
            &query_body(&format!(
                "INSERT INTO reviews (entity, year) VALUES ('{entity}', 2023)"
            )),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"inserted\":1"), "{}", resp.body);

    // Engine-side rejections surface as bad_request, with zero rows
    // applied.
    let bad = client
        .post(
            "/insert",
            &query_body("INSERT INTO hotels (entity) VALUES ('x')"),
        )
        .unwrap();
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.contains("bad_request"), "{}", bad.body);
    let stats = client.get("/stats").unwrap();
    assert!(
        stats.body.contains("\"inserted_reviews\":1"),
        "{}",
        stats.body
    );
}

/// Regression: after any `INSERT`, a conjunction over already-cached
/// degree columns takes the column-repair path, which bumped a trace
/// counter (`cache_repairs`) that was never registered — a panic under
/// the server's always-armed trace, so every such SELECT answered 500.
#[test]
fn conjunctions_keep_serving_after_an_insert_repairs_their_columns() {
    let db = small_db();
    let server = serve(db.clone());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let predicates = ["clean rooms", "friendly staff"];
    let sql = "select * from hotels where \"clean rooms\" and \"friendly staff\" limit 5";
    let cold = client.post("/query", &query_body(sql)).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);

    // New evidence for two of the statement's own top entities, phrased
    // from the frozen opinion domain so it lands in a marker summary.
    let top = db.rank_top_k(&predicates, 2);
    let phrase = db.opinion_domain(0).variations()[0].phrase.clone();
    let insert_for = |rank: usize| {
        format!(
            "INSERT INTO reviews (entity, text, year) VALUES ('{}', '{}', 2024)",
            db.entity_key(top[rank].0),
            [phrase.as_str(); 4].join(" and ")
        )
    };
    let receipt = client.post("/insert", &query_body(&insert_for(0))).unwrap();
    assert_eq!(receipt.status, 200, "{}", receipt.body);

    // The repeat executes (the epoch moved under the result-cache key)
    // against the stale cached columns and must repair them, not die.
    let repaired = client.post("/query", &query_body(sql)).unwrap();
    assert_eq!(repaired.status, 200, "{}", repaired.body);
    assert_eq!(repaired.header("x-opine-cache"), Some("miss"));

    // Repaired columns answer exactly like an engine that never cached
    // anything: a fresh build over the same corpus plus the same insert.
    let fresh = small_db();
    fresh.insert_sql(&insert_for(0)).unwrap();
    let reference = render_query_body(&fresh, &parse_select(sql).unwrap()).unwrap();
    assert_eq!(repaired.body, reference);

    // And the trace names the path: one repair per cached column.
    let receipt = client.post("/insert", &query_body(&insert_for(1))).unwrap();
    assert_eq!(receipt.status, 200, "{}", receipt.body);
    let explained = client
        .post("/query", &query_body(&format!("explain analyze {sql}")))
        .unwrap();
    assert_eq!(explained.status, 200, "{}", explained.body);
    let v = opine_server::json::parse(&explained.body).expect("traced body is valid JSON");
    let stages = match v.get("trace").and_then(|t| t.get("stages")) {
        Some(opine_server::JsonValue::Array(items)) => items,
        other => panic!("expected a stages array, got {other:?}"),
    };
    let repairs = stages
        .iter()
        .find(|s| s.get("stage").and_then(|n| n.as_str()) == Some("ta_topk"))
        .and_then(|s| s.get("counters")?.get("cache_repairs")?.as_f64())
        .unwrap_or(0.0);
    assert!(repairs >= 1.0, "no cache_repairs in {}", explained.body);
}
