//! Chaos soak: the serving stack under active fault injection.
//!
//! Failpoints inside the engine (`pre_ta`, `mid_wand`, `summary_merge`)
//! and at the response boundary (`response_write`) inject delays and
//! panics while ≥8 concurrent clients hammer the full query mix. The
//! contract under fire:
//!
//! * every 200 body is byte-identical to fault-free reference execution
//!   (an injected fault may fail a request, never corrupt an answer);
//! * every failure is a well-formed taxonomy error (`internal`, `shed`,
//!   or `timeout`) or a clean connection close — nothing in between;
//! * no worker dies and no shared state is poisoned: with the faults
//!   cleared, the same server answers the whole mix correctly again.
//!
//! This test owns the process-global failpoint registry; it lives in
//! its own integration-test binary so nothing else races it.

use opinedb::core::{build, faults, BuildConfig};
use opinedb::server::{render_query_body, HttpClient, OpineServer, ServerConfig};
use opinedb::store::parse_select;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const SOAK_WINDOW: Duration = Duration::from_secs(2);
/// Keep soaking (in `SOAK_WINDOW` slices) until both fault counters are
/// provably nonzero, up to this cap.
const MAX_SOAK: Duration = Duration::from_secs(20);

const QUERIES: &[&str] = &[
    "select * from hotels where \"clean rooms\" limit 8",
    "select * from hotels where \"clean rooms\" and \"friendly staff\" limit 8",
    "select * from hotels where price_pn < 200 and \"clean rooms\" limit 8",
    "select * from hotels where \"clean rooms\" or \"quiet at night\" limit 8",
    "select hotelname, price_pn from hotels where price_pn < 250 order by price_pn asc limit 8",
];

fn query_body(sql: &str) -> String {
    format!("{{\"sql\": {}}}", opinedb::server::json::escaped(sql))
}

/// Panics unless `body` is `{"error":{"code":<allowed>,"message":…}}`.
fn assert_taxonomy_failure(status: u16, body: &str) {
    let parsed = opinedb::server::json::parse(body)
        .unwrap_or_else(|e| panic!("status {status} body must be valid JSON ({e}): {body}"));
    let error = parsed
        .get("error")
        .unwrap_or_else(|| panic!("status {status} body must be a taxonomy error: {body}"));
    let code = error
        .get("code")
        .and_then(|c| c.as_str())
        .unwrap_or_else(|| panic!("taxonomy error without a code: {body}"));
    let allowed: &[(&str, u16)] = &[("internal", 500), ("shed", 503), ("timeout", 504)];
    assert!(
        allowed.contains(&(code, status)),
        "unexpected failure class under chaos: {status} {body}"
    );
}

fn stat(stats_body: &str, section: &str, field: &str) -> f64 {
    opinedb::server::json::parse(stats_body)
        .unwrap_or_else(|e| panic!("/stats must stay valid JSON under chaos ({e})"))
        .get(section)
        .and_then(|s| s.get(field))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("/stats missing {section}.{field}: {stats_body}"))
}

#[test]
fn serving_survives_fault_injection_and_recovers() {
    // Injected panics are the *expected* signal here and they'd each
    // print a "thread panicked" line; silence just those, keep the
    // default hook for real failures (assertion panics included).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        if payload.downcast_ref::<faults::InjectedPanic>().is_none()
            && payload.downcast_ref::<faults::Cancelled>().is_none()
        {
            default_hook(info);
        }
    }));

    let corpus = opinedb::corpus::Corpus::generate(
        opinedb::corpus::hotel::hotel_spec(),
        &opinedb::corpus::CorpusConfig {
            num_entities: 24,
            mean_reviews: 12,
            seed: 47,
        },
    );
    let db = Arc::new(build(
        &corpus,
        &BuildConfig {
            w2v: opinedb::embed::Word2VecConfig {
                dim: 24,
                epochs: 2,
                ..Default::default()
            },
            membership_tuples: 400,
            ..Default::default()
        },
    ));

    // Fault-free reference bodies, computed through the library path
    // before any failpoint is armed.
    let references: HashMap<&str, String> = QUERIES
        .iter()
        .map(|&sql| {
            let select = parse_select(sql).expect("valid SQL");
            (sql, render_query_body(&db, &select).expect("reference"))
        })
        .collect();

    let server = OpineServer::bind(
        "127.0.0.1:0",
        db.clone(),
        ServerConfig {
            workers: CLIENTS,
            max_in_flight: CLIENTS,
            // Uncached: a result-cache hit would bypass the engine and
            // its failpoints, soaking nothing.
            result_cache_capacity: 0,
            request_deadline: Some(Duration::from_secs(5)),
            ..Default::default()
        },
    )
    .expect("bind chaos server");
    let addr = server.local_addr();

    // Arm the failpoints: engine-site panics and delays plus
    // response-boundary errors (which `fire_panic` escalates to the
    // per-request catch). Probabilities are deliberately low at
    // `mid_wand` — it fires per query term of every retrieval.
    faults::configure(
        "pre_ta=panic@0.05,mid_wand=delay:2@0.01,summary_merge=error@0.04,response_write=error@0.02",
        0xC4A0_5EED,
    )
    .expect("valid chaos spec");

    let soak_started = Instant::now();
    let mut served_total = 0u64;
    let mut failed_total = 0u64;
    loop {
        let (served, failed) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let references = &references;
                    s.spawn(move || {
                        let mut client = HttpClient::connect(addr).expect("connect");
                        let mut served = 0u64;
                        let mut failed = 0u64;
                        let deadline = Instant::now() + SOAK_WINDOW;
                        let mut i = c;
                        while Instant::now() < deadline {
                            let sql = QUERIES[i % QUERIES.len()];
                            i += 1;
                            match client.post("/query", &query_body(sql)) {
                                Ok(resp) if resp.status == 200 => {
                                    assert_eq!(
                                        resp.body, references[sql],
                                        "chaos must never corrupt an answer ({sql})"
                                    );
                                    served += 1;
                                }
                                Ok(resp) => {
                                    assert_taxonomy_failure(resp.status, &resp.body);
                                    failed += 1;
                                    // Panic responses close the
                                    // connection; reconnect eagerly.
                                    if resp.status == 500 {
                                        client = HttpClient::connect(addr).expect("reconnect");
                                    }
                                }
                                Err(_) => {
                                    // Clean close (injected write error
                                    // or keep-alive budget): reconnect.
                                    client = HttpClient::connect(addr)
                                        .expect("server must keep accepting under fault injection");
                                }
                            }
                        }
                        (served, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0u64, 0u64), |(s_acc, f_acc), (s, f)| {
                    (s_acc + s, f_acc + f)
                })
        });
        served_total += served;
        failed_total += failed;

        let mut probe = HttpClient::connect(addr).expect("stats probe");
        let stats = probe.get("/stats").expect("stats under chaos");
        assert_eq!(stats.status, 200);
        let panics = stat(&stats.body, "server", "caught_panics");
        let injected = stat(&stats.body, "engine_caches", "faults_injected");
        if panics > 0.0 && injected > 0.0 {
            break;
        }
        assert!(
            soak_started.elapsed() < MAX_SOAK,
            "soaked {:?} without observing both caught_panics ({panics}) and \
             faults_injected ({injected}) — failpoints are not firing",
            soak_started.elapsed()
        );
    }
    assert!(served_total > 0, "chaos must not fail every request");
    assert!(
        failed_total > 0,
        "the armed failpoints must actually fail some requests \
         ({served_total} served); otherwise this soak proves nothing"
    );

    // Disarm and verify full recovery on the same server: no dead
    // workers, no poisoned lock, no stale partial state.
    faults::clear();
    let mut client = HttpClient::connect(addr).expect("post-chaos connect");
    for (sql, reference) in &references {
        let resp = client
            .post("/query", &query_body(sql))
            .expect("post-chaos request");
        assert_eq!(resp.status, 200, "post-chaos {sql}: {}", resp.body);
        assert_eq!(
            &resp.body, reference,
            "post-chaos answers must match fault-free execution ({sql})"
        );
    }
    let health = client.get("/healthz").expect("liveness");
    assert_eq!(health.status, 200);
    let ready = client.get("/readyz").expect("readiness");
    assert_eq!(ready.status, 200, "{}", ready.body);
}
