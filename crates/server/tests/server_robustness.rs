//! Overload-safety and protocol-robustness tests: admission shedding,
//! request deadlines, oversized-body handling, pipelining budgets,
//! slow readers, the uniform error taxonomy, and a seeded randomized
//! malformed-request sweep. Everything runs against a real server on a
//! loopback socket; nothing here arms the global fault-injection
//! registry (that lives in the dedicated chaos soak, which must not
//! race other tests for the process-global failpoint state).

use opine_core::{build, BuildConfig, OpineDb};
use opine_corpus::hotel::hotel_spec;
use opine_corpus::{Corpus, CorpusConfig};
use opine_embed::Word2VecConfig;
use opine_server::{render_query_body, HttpClient, OpineServer, ServerConfig};
use opine_store::parse_select;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const RUNNING_EXAMPLE: &str =
    "select * from hotels where price_pn < 150 and \"clean rooms\" limit 5";

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

fn serve_with(db: Arc<OpineDb>, config: ServerConfig) -> OpineServer {
    OpineServer::bind("127.0.0.1:0", db, config).expect("bind ephemeral port")
}

fn query_body(sql: &str) -> String {
    format!("{{\"sql\": {}}}", opine_server::json::escaped(sql))
}

/// Asserts a response body is a well-formed taxonomy error with `code`.
fn assert_taxonomy(body: &str, code: &str) {
    let parsed = opine_server::json::parse(body)
        .unwrap_or_else(|e| panic!("error body must be valid JSON ({e}): {body}"));
    let error = parsed.get("error").expect("body must have an error object");
    assert_eq!(
        error.get("code").and_then(|c| c.as_str()),
        Some(code),
        "wrong taxonomy code in {body}"
    );
    assert!(
        error
            .get("message")
            .and_then(|m| m.as_str())
            .is_some_and(|m| !m.is_empty()),
        "taxonomy error must carry a human-readable message: {body}"
    );
}

/// Reads everything until EOF (bounded by the socket read timeout).
fn read_to_eof(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn error_taxonomy_is_uniform_across_failure_classes() {
    let server = serve_with(small_db(), ServerConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let resp = client.post("/query", "this is not json").unwrap();
    assert_eq!(resp.status, 400);
    assert_taxonomy(&resp.body, "bad_request");

    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let resp = client
        .post("/query", "{\"sql\": \"selecty nonsense\"}")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_taxonomy(&resp.body, "bad_request");

    let resp = client.get("/no/such/endpoint").unwrap();
    assert_eq!(resp.status, 404);
    assert_taxonomy(&resp.body, "not_found");

    let resp = client.get("/query").unwrap();
    assert_eq!(resp.status, 405);
    assert_taxonomy(&resp.body, "method_not_allowed");

    let resp = client
        .post("/execute", "{\"name\": \"never-prepared\"}")
        .unwrap();
    assert_eq!(resp.status, 404);
    assert_taxonomy(&resp.body, "not_found");
}

#[test]
fn malformed_json_frames_get_400_not_500() {
    // Regression coverage for the JSON parser's truncation paths: every
    // one of these frames once pointed at an unwrap/slice that could
    // panic mid-parse. A malformed frame must come back as a taxonomy
    // 400 — never a 500 (panic caught at the boundary) and never a
    // silently dropped connection.
    let server = serve_with(small_db(), ServerConfig::default());
    let evil: &[&str] = &[
        "tru",                    // truncated literal
        "nul",                    // truncated literal, shorter than "null"
        "-",                      // sign with no digits
        "1e",                     // exponent with no digits
        "[1,2,",                  // unterminated array
        "{\"sql\":",              // object cut at the value
        "{\"sql\": \"x",          // unterminated string
        "\"\\u00",                // truncated \u escape
        "\"\\",                   // escape at end of input
        "{\"sql\": \"q\" \"t\"}", // garbage between members
    ];
    for body in evil {
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let resp = client
            .post("/query", body)
            .unwrap_or_else(|e| panic!("server dropped frame {body:?}: {e}"));
        assert_eq!(resp.status, 400, "frame {body:?} must parse-fail cleanly");
        assert_taxonomy(&resp.body, "bad_request");
    }
    // Invalid UTF-8 can't travel through the string-typed client; speak
    // raw HTTP. The body bytes are not a valid UTF-8 sequence.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: 4\r\n\r\n\xff\xfe{\"a")
        .unwrap();
    let response = read_to_eof(&mut stream);
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "invalid UTF-8 body must be a 400, got: {response}"
    );
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    assert_taxonomy(body, "bad_request");
}

#[test]
fn oversized_body_gets_413_close_without_draining() {
    let db = small_db();
    let server = serve_with(
        db,
        ServerConfig {
            max_body: 1024,
            ..Default::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Announce a body far past the cap — and never send it. The 413
    // must come back anyway: the server answers off the headers alone
    // instead of draining (or waiting for) gigabytes.
    write!(
        stream,
        "POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: 50000000\r\n\r\n"
    )
    .unwrap();
    let response = read_to_eof(&mut stream);
    assert!(
        response.starts_with("HTTP/1.1 413"),
        "expected 413, got: {response}"
    );
    let lower = response.to_lowercase();
    assert!(
        lower.contains("connection: close"),
        "413 must close the connection: {response}"
    );
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    assert_taxonomy(body, "payload_too_large");
}

#[test]
fn overload_sheds_with_503_retry_after_and_counts_it() {
    let db = small_db();
    let select = parse_select(RUNNING_EXAMPLE).unwrap();
    let reference = render_query_body(&db, &select).unwrap();
    let server = serve_with(
        db,
        ServerConfig {
            workers: 8,
            max_in_flight: 1,
            // Uncached so concurrent requests actually contend for the
            // single execution permit.
            result_cache_capacity: 0,
            ..Default::default()
        },
    );
    let addr = server.local_addr();

    // The test db answers in microseconds — too fast for 8 clients to
    // reliably collide on the one permit. A delay-only failpoint
    // stretches each admitted execution to 30 ms, guaranteeing overlap.
    // Delays never fail a request, so other tests in this binary that
    // happen to run concurrently see added latency at worst.
    opine_core::faults::configure("pre_ta=delay:30@1.0", 7).expect("valid spec");
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            opine_core::faults::clear();
        }
    }
    let _disarm = Disarm;

    let shed_total: u64 = std::thread::scope(|s| {
        (0..8)
            .map(|_| {
                let reference = reference.clone();
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    let mut shed = 0u64;
                    let body = query_body(RUNNING_EXAMPLE);
                    for _ in 0..20 {
                        let resp = match client.post("/query", &body) {
                            Ok(r) => r,
                            Err(_) => {
                                client = HttpClient::connect(addr).unwrap();
                                continue;
                            }
                        };
                        match resp.status {
                            200 => assert_eq!(resp.body, reference),
                            503 => {
                                assert_taxonomy(&resp.body, "shed");
                                assert_eq!(resp.header("retry-after"), Some("1"));
                                shed += 1;
                            }
                            other => panic!("unexpected status {other}: {}", resp.body),
                        }
                    }
                    shed
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    assert!(
        shed_total > 0,
        "8 clients against a 1-permit budget must shed at least once"
    );

    let mut client = HttpClient::connect(addr).unwrap();
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let parsed = opine_server::json::parse(&stats.body).unwrap();
    let shed_stat = parsed
        .get("server")
        .and_then(|s| s.get("shed_requests"))
        .and_then(|v| v.as_f64())
        .expect("/stats must expose server.shed_requests");
    assert!(shed_stat >= shed_total as f64);
}

#[test]
fn expired_deadline_returns_504_timeout() {
    let db = small_db();
    let server = serve_with(
        db,
        ServerConfig {
            // A budget no query can meet: expired by the time execution
            // reaches its first checkpoint.
            request_deadline: Some(Duration::from_nanos(1)),
            result_cache_capacity: 0,
            ..Default::default()
        },
    );
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let joined = "select * from hotels h join reviews r on h.hotelname = r.entity \
                  where \"clean rooms\" limit 5";
    // A filtered OR: the ranking kernel walks the prefilter's
    // candidates, and checkpoints as it goes.
    let filtered_or = "select * from hotels where price_pn < 400 \
                       and (\"clean rooms\" or \"friendly staff\") limit 5";
    for sql in [RUNNING_EXAMPLE, joined, filtered_or] {
        let resp = client.post("/query", &query_body(sql)).unwrap();
        assert_eq!(resp.status, 504, "body: {}", resp.body);
        assert_taxonomy(&resp.body, "timeout");
    }

    let stats = client.get("/stats").unwrap();
    let parsed = opine_server::json::parse(&stats.body).unwrap();
    let timed_out = parsed
        .get("engine_caches")
        .and_then(|s| s.get("timed_out_queries"))
        .and_then(|v| v.as_f64())
        .expect("/stats must expose engine_caches.timed_out_queries");
    assert!(timed_out >= 1.0);

    // The worker survived the cancellation unwind: same connection,
    // deadline-free probes still answer.
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
}

#[test]
fn readiness_reports_ok_and_is_distinct_from_liveness() {
    let server = serve_with(small_db(), ServerConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let ready = client.get("/readyz").unwrap();
    assert_eq!(ready.status, 200);
    let parsed = opine_server::json::parse(&ready.body).unwrap();
    assert!(ready.body.contains("\"ready\":true"), "{}", ready.body);
    assert!(parsed.get("max_in_flight").is_some());
    let live = client.get("/healthz").unwrap();
    assert_eq!(live.status, 200);
}

#[test]
fn pipelining_past_the_connection_budget_gets_429() {
    let db = small_db();
    let server = serve_with(
        db,
        ServerConfig {
            max_requests_per_conn: 2,
            ..Default::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let body = query_body(RUNNING_EXAMPLE);
    let one = format!(
        "POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    // Four pipelined requests against a budget of two, sent in one
    // write so the excess is already buffered server-side when the
    // budget runs out.
    stream.write_all(one.repeat(4).as_bytes()).unwrap();
    let response = read_to_eof(&mut stream);
    let statuses: Vec<&str> = response
        .split("HTTP/1.1 ")
        .skip(1)
        .map(|chunk| chunk.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(
        statuses.first().copied(),
        Some("200"),
        "first budgeted request must succeed: {response}"
    );
    assert_eq!(
        statuses.get(1).copied(),
        Some("200"),
        "second budgeted request must succeed: {response}"
    );
    assert_eq!(
        statuses.get(2).copied(),
        Some("429"),
        "pipelining past the budget must be told so: {response}"
    );
    assert!(response.contains("\"code\":\"too_many_requests\""));
}

#[test]
fn slow_reader_still_gets_byte_identical_response() {
    let db = small_db();
    let select = parse_select(RUNNING_EXAMPLE).unwrap();
    let reference = render_query_body(&db, &select).unwrap();
    let server = serve_with(db, ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = query_body(RUNNING_EXAMPLE);
    write!(
        stream,
        "POST /query HTTP/1.1\r\nhost: x\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    // Read the response one byte at a time with client-side stalls: the
    // response must already be fully buffered server-side (the executor
    // borrow never spans this socket write), so a slow reader changes
    // nothing but elapsed time.
    let mut collected = Vec::new();
    let mut byte = [0u8; 1];
    for i in 0.. {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => collected.push(byte[0]),
            Err(e) => panic!("read {i} failed: {e}"),
        }
        if i < 64 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let response = String::from_utf8_lossy(&collected);
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let served = response.split("\r\n\r\n").nth(1).unwrap_or("");
    assert_eq!(served, reference, "slow reader must see identical bytes");
}

/// Tiny deterministic xorshift64* for the malformed-request sweep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn randomized_malformed_requests_never_wedge_the_server() {
    let db = small_db();
    let select = parse_select(RUNNING_EXAMPLE).unwrap();
    let reference = render_query_body(&db, &select).unwrap();
    // A short server read timeout keeps rounds that leave the server
    // waiting for bytes (truncated requests) from stalling the sweep.
    let server = serve_with(
        db,
        ServerConfig {
            read_timeout: Some(Duration::from_millis(100)),
            ..Default::default()
        },
    );
    let addr = server.local_addr();
    let mut rng = Rng(0x0BAD_5EED_0BAD_5EED);
    let body = query_body(RUNNING_EXAMPLE);
    let valid = format!(
        "POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );

    for round in 0..120 {
        let mut stream = TcpStream::connect(addr).expect("fresh connection must still accept");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let garbage: Vec<u8> = match rng.below(6) {
            // Truncated request line / headers: a random prefix of a
            // valid request, then disconnect.
            0 => valid.as_bytes()[..rng.below(valid.len())].to_vec(),
            // Pure binary noise.
            1 => (0..rng.below(512)).map(|_| rng.next() as u8).collect(),
            // Garbage headers on a real request line.
            2 => format!(
                "POST /query HTTP/1.1\r\n{}: {}\r\ncontent-length: pony\r\n\r\n",
                "\u{7f}x\u{1}y", "\r z"
            )
            .into_bytes(),
            // Mid-body disconnect: honest headers, partial body.
            3 => format!(
                "POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{}",
                body.len(),
                &body[..rng.below(body.len())]
            )
            .into_bytes(),
            // Interleaved pipelining: one valid request, then noise.
            4 => {
                let mut bytes = valid.clone().into_bytes();
                bytes.extend((0..rng.below(64)).map(|_| rng.next() as u8));
                bytes
            }
            // Absurd numbers where sizes go.
            _ => b"POST /query HTTP/1.1\r\ncontent-length: 99999999999999999999\r\n\r\n".to_vec(),
        };
        let _ = stream.write_all(&garbage);
        if rng.below(2) == 0 {
            // Half the rounds hang up immediately (mid-anything
            // disconnect); the rest wait for whatever comes back.
            drop(stream);
            continue;
        }
        let response = read_to_eof(&mut stream);
        // Whatever came back, it is either silence (the server hung up
        // on garbage / is awaiting more bytes until its read timeout)
        // or well-formed HTTP; never a hang past the client timeout,
        // never a worker death (the end-of-test probe catches those).
        if !response.is_empty() {
            assert!(
                response.starts_with("HTTP/1.1 "),
                "round {round}: non-HTTP bytes from server: {response:?}"
            );
        }
    }

    // The server took 120 rounds of abuse: a fresh, well-formed request
    // must still be answered byte-identically.
    let mut client = HttpClient::connect(addr).expect("server must still accept");
    let resp = client.post("/query", &body).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, reference);
}
