//! The query service: router, handlers, result cache, server lifecycle.
//!
//! ```text
//! POST /query    {"sql": "select …"}          → ranked rows as JSON
//!                {"sql": "…", "trace": true}  → rows + per-stage span tree
//!                {"sql": "explain analyze …"} → rows + per-stage span tree
//! POST /prepare  {"name": "n", "sql": "…"}    → parse-once registration
//! POST /execute  {"name": "n"}                → run a prepared statement
//! POST /insert   {"sql": "insert into …"}     → live ingest, returns receipt
//! GET  /stats                                 → caches, latencies, counters
//! GET  /metrics                               → Prometheus text exposition
//! GET  /debug/slow_queries                    → ring of recent slow traces
//! GET  /healthz                               → liveness probe
//! ```
//!
//! Every `/query` and `/execute` request runs under an armed
//! [`opine_trace::TraceContext`]: the engine's stage spans feed the
//! registry's per-stage histograms and the slow-query ring on every
//! request, and are returned to the client as JSON when explicitly
//! asked for (`EXPLAIN ANALYZE` or `"trace": true`). Explicitly traced
//! responses bypass the result cache — a cached body would replay the
//! original execution's timings forever.
//!
//! Every worker thread shares one [`OpineDb`] behind an `Arc`; the
//! engine's interior caches are `Sync` (statically asserted in
//! `opine-core`), so queries from different connections warm the same
//! interpretation memo and degree columns. On top of that sits a bounded
//! query-*result* cache keyed on `(data epoch, normalized SQL)`: two
//! textual variants of the same statement share one rendered response
//! body, a warm hit costs a hash lookup plus a socket write, and every
//! published `INSERT` batch moves the epoch so later probes can never
//! replay a pre-insert answer (stale entries age out of the bounded
//! cache instead of being swept).

use crate::http::{self, HttpError, Request, DEFAULT_MAX_BODY};
use crate::json::{self, JsonValue};
use crate::metrics::{Endpoint, Metrics};
use crate::pool::AcceptPool;
use crate::prepared::PreparedRegistry;
use crate::prometheus::{self, Exposition};
use opine_core::cache::BoundedCache;
use opine_core::{MetricValue, OpineDb, OpineError};
use opine_store::{parse_insert, parse_statement, InsertStmt, Select, Statement, ValueRef};
use opine_trace::{TraceContext, TraceSnapshot};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufReader, BufWriter, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`OpineServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Accept-loop worker threads.
    pub workers: usize,
    /// Request-body cap in bytes (maps to 413 beyond it).
    pub max_body: usize,
    /// Result-cache entries (0 disables the cache).
    pub result_cache_capacity: usize,
    /// Prepared-statement registry capacity.
    pub prepared_capacity: usize,
    /// Keep-alive budget: requests served per connection before closing.
    pub max_requests_per_conn: usize,
    /// Socket read timeout — bounds how long an idle keep-alive
    /// connection can pin a worker.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout — bounds how long a slow-reading client can
    /// pin a worker mid-response (slow-loris defense).
    pub write_timeout: Option<Duration>,
    /// Admission budget: execution requests (`/query`, `/prepare`,
    /// `/execute`) running at once. Arrivals beyond it are shed with a
    /// 503 + `Retry-After` instead of queueing behind a full pool.
    /// Cheap endpoints (`/stats`, `/healthz`, `/readyz`) are never shed.
    pub max_in_flight: usize,
    /// Wall-clock budget per query execution; exceeding it cancels the
    /// scan at the next checkpoint and answers 504. `None` disables.
    pub request_deadline: Option<Duration>,
    /// Queries whose traced wall-clock meets this many milliseconds are
    /// recorded in the slow-query ring (`GET /debug/slow_queries`).
    /// 0 disables the log.
    pub slow_query_ms: u64,
    /// Entries retained in the slow-query ring (oldest evicted first).
    pub slow_query_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        // Blocking I/O: more workers than cores still helps, because a
        // worker stalled on a slow client isn't burning a core.
        let workers = (opine_core::par::available_workers() * 2).clamp(2, 16);
        ServerConfig {
            workers,
            max_body: DEFAULT_MAX_BODY,
            result_cache_capacity: 1024,
            prepared_capacity: 256,
            max_requests_per_conn: 10_000,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            // Leave headroom: workers not holding an execution permit
            // still answer probes and write 503s promptly.
            max_in_flight: (workers / 2).max(1),
            request_deadline: Some(Duration::from_secs(10)),
            slow_query_ms: 100,
            slow_query_capacity: 32,
        }
    }
}

impl ServerConfig {
    /// Defaults overridden by environment knobs: `OPINE_WORKERS`,
    /// `OPINE_MAX_IN_FLIGHT`, `OPINE_REQUEST_TIMEOUT_MS` (0 disables),
    /// `OPINE_READ_TIMEOUT_MS` (0 disables), `OPINE_WRITE_TIMEOUT_MS`
    /// (0 disables), `OPINE_RESULT_CACHE`, `OPINE_SLOW_QUERY_MS`
    /// (0 disables the slow-query log), `OPINE_SLOW_QUERY_CAPACITY`.
    pub fn from_env() -> ServerConfig {
        fn parsed(name: &str) -> Option<u64> {
            std::env::var(name).ok()?.parse().ok()
        }
        let mut config = ServerConfig::default();
        if let Some(n) = parsed("OPINE_WORKERS") {
            config.workers = (n as usize).max(1);
            config.max_in_flight = (config.workers / 2).max(1);
        }
        if let Some(n) = parsed("OPINE_MAX_IN_FLIGHT") {
            config.max_in_flight = (n as usize).max(1);
        }
        if let Some(n) = parsed("OPINE_RESULT_CACHE") {
            config.result_cache_capacity = n as usize;
        }
        let timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
        if let Some(ms) = parsed("OPINE_REQUEST_TIMEOUT_MS") {
            config.request_deadline = timeout(ms);
        }
        if let Some(ms) = parsed("OPINE_READ_TIMEOUT_MS") {
            config.read_timeout = timeout(ms);
        }
        if let Some(ms) = parsed("OPINE_WRITE_TIMEOUT_MS") {
            config.write_timeout = timeout(ms);
        }
        if let Some(ms) = parsed("OPINE_SLOW_QUERY_MS") {
            config.slow_query_ms = ms;
        }
        if let Some(n) = parsed("OPINE_SLOW_QUERY_CAPACITY") {
            config.slow_query_capacity = (n as usize).max(1);
        }
        config
    }
}

/// Shared per-server state.
struct ServerState {
    db: Arc<OpineDb>,
    metrics: Metrics,
    prepared: PreparedRegistry,
    /// normalized SQL → rendered response body.
    results: BoundedCache<Arc<String>>,
    config: ServerConfig,
    workers: usize,
    /// Execution requests currently holding an admission permit.
    in_flight: AtomicUsize,
    /// Requests refused with 503 because the admission budget was full.
    shed_requests: AtomicU64,
    /// Handler panics caught at the request boundary (worker survived).
    caught_panics: AtomicU64,
    /// Ring of the most recent queries whose traced wall-clock met
    /// `config.slow_query_ms`. Locked only when a query is actually
    /// slow (or `/debug/slow_queries` renders), never on the fast path.
    slow_queries: Mutex<VecDeque<SlowQuery>>,
    /// Set during shutdown so keep-alive loops stop taking requests.
    stopping: AtomicBool,
    /// Live connections by id — shutdown closes these sockets so workers
    /// blocked reading an idle keep-alive connection unblock immediately
    /// instead of running out their read timeout.
    live: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// Deregisters a connection from [`ServerState::live`] on scope exit.
struct ConnGuard<'a> {
    state: &'a ServerState,
    id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.state.live.lock().remove(&self.id);
    }
}

/// The serving subsystem: a thread-pooled HTTP/1.1 + JSON query service
/// over a shared [`OpineDb`].
pub struct OpineServer {
    pool: AcceptPool,
    state: Arc<ServerState>,
}

impl OpineServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `db` with `config.workers` threads.
    pub fn bind(
        addr: impl ToSocketAddrs,
        db: Arc<OpineDb>,
        config: ServerConfig,
    ) -> io::Result<OpineServer> {
        let listener = TcpListener::bind(addr)?;
        let workers = config.workers.max(1);
        let state = Arc::new(ServerState {
            db,
            metrics: Metrics::default(),
            prepared: PreparedRegistry::new(config.prepared_capacity),
            results: BoundedCache::new(config.result_cache_capacity.max(1)),
            config,
            workers,
            in_flight: AtomicUsize::new(0),
            shed_requests: AtomicU64::new(0),
            caught_panics: AtomicU64::new(0),
            slow_queries: Mutex::new(VecDeque::new()),
            stopping: AtomicBool::new(false),
            live: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let conn_state = state.clone();
        let pool = AcceptPool::spawn(listener, workers, move |stream| {
            handle_connection(stream, &conn_state);
        })?;
        Ok(OpineServer { pool, state })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.pool.local_addr()
    }

    /// `http://host:port` for the bound address.
    pub fn url(&self) -> String {
        format!("http://{}", self.local_addr())
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The shared database handle.
    ///
    /// Data changes through this handle (`insert_sql`, `merge_delta`)
    /// bump the epoch the result cache is keyed by, so served bodies
    /// never go stale; nothing reachable through it changes *how* a
    /// statement is scored.
    pub fn db(&self) -> &Arc<OpineDb> {
        &self.state.db
    }

    /// Hit/miss counters of the query-result cache.
    pub fn result_cache_stats(&self) -> opine_core::CacheStats {
        self.state.results.stats()
    }

    /// Drops every cached response body (pair with result-changing
    /// operations on [`Self::db`]).
    pub fn clear_result_cache(&self) {
        self.state.results.clear();
    }

    /// Stops accepting, closes live connections, and joins the workers.
    /// Also runs on `Drop`.
    pub fn shutdown(self) {
        // Drop runs the actual teardown.
    }
}

impl Drop for OpineServer {
    fn drop(&mut self) {
        // Flag first so keep-alive loops stop taking new requests, then
        // shut down the *read* side of every live socket: workers blocked
        // reading an idle keep-alive connection see EOF at once instead
        // of waiting out the read timeout, while a response already being
        // written for an in-flight request still reaches the client.
        // sync: pairs with the Acquire loads in handle_connection and
        // handle_ready. Release suffices (downgraded from SeqCst): a
        // connection that registers after our `live` sweep acquired the
        // same mutex we are about to take, and that release/acquire
        // edge already publishes this store to its stopping check.
        self.state.stopping.store(true, Ordering::Release);
        for stream in self.state.live.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        self.pool.shutdown();
    }
}

/// One entry of the slow-query ring.
struct SlowQuery {
    /// Normalized SQL of the statement (the result-cache key).
    sql: String,
    endpoint: Endpoint,
    status: u16,
    trace: TraceSnapshot,
}

/// One routed response.
struct Routed {
    endpoint: Endpoint,
    status: u16,
    body: Arc<String>,
    /// Response content type (`/metrics` is text, everything else JSON).
    content_type: &'static str,
    /// `X-Opine-Cache` value for `/query`-family responses.
    cache: Option<&'static str>,
    /// `Retry-After` seconds for shed (503) responses.
    retry_after: Option<&'static str>,
}

impl Routed {
    fn new(endpoint: Endpoint, status: u16, body: String) -> Routed {
        Routed {
            endpoint,
            status,
            body: Arc::new(body),
            content_type: "application/json",
            cache: None,
            retry_after: None,
        }
    }
}

/// The full error taxonomy: every non-2xx status this service can emit,
/// paired with the machine-readable `code` clients branch on. The
/// `taxonomy_exhaustiveness` lint holds this table and the emission
/// sites in both directions: a new error status must be registered
/// here, and a registered code must still have an emitter.
pub const ERROR_TAXONOMY: &[(u16, &str)] = &[
    (400, "bad_request"),
    (404, "not_found"),
    (405, "method_not_allowed"),
    (413, "payload_too_large"),
    (429, "too_many_requests"),
    (500, "internal"),
    (503, "shed"),
    (504, "timeout"),
];

/// Machine-readable error code for each failure class the service can
/// answer with. Every non-2xx body is `{"error":{"code","message"}}` —
/// clients branch on `code`, humans read `message`.
fn error_body(code: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"code\":{},\"message\":{}}}}}",
        json::escaped(code),
        json::escaped(message)
    )
}

/// RAII admission permit: slot taken on acquire, released on drop.
struct Permit<'a> {
    state: &'a ServerState,
}

impl<'a> Permit<'a> {
    /// Takes one execution slot unless the budget is full.
    fn try_acquire(state: &'a ServerState) -> Option<Permit<'a>> {
        let limit = state.config.max_in_flight.max(1);
        // sync: optimistic snapshot only; the CAS below re-validates it,
        // so a stale read costs one retry, never an over-admission.
        let mut current = state.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= limit {
                return None;
            }
            // sync: pairs with the AcqRel fetch_sub in Drop. The permit
            // word is self-contained admission state; AcqRel keeps each
            // acquire ordered against the release it reuses the slot of
            // (model-checked: permit-cas-budget in opine-lint).
            match state.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Permit { state }),
                Err(seen) => current = seen,
            }
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // sync: pairs with the AcqRel compare_exchange in try_acquire;
        // frees the slot this permit held.
        self.state.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Whether this request executes queries and must hold an admission
/// permit. Probes and stats stay admissible under full load so
/// operators can observe an overloaded server.
fn needs_permit(req: &Request) -> bool {
    req.method == "POST"
        && matches!(
            req.path.as_str(),
            "/query" | "/prepare" | "/execute" | "/insert"
        )
}

/// Endpoint attribution for responses produced outside `route` (shed
/// 503s, caught panics).
fn endpoint_of(req: &Request) -> Endpoint {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => Endpoint::Query,
        ("POST", "/prepare") => Endpoint::Prepare,
        ("POST", "/execute") => Endpoint::Execute,
        ("POST", "/insert") => Endpoint::Insert,
        ("GET", "/stats") => Endpoint::Stats,
        ("GET", "/healthz") => Endpoint::Health,
        ("GET", "/readyz") => Endpoint::Ready,
        ("GET", "/metrics") => Endpoint::PromMetrics,
        ("GET", "/debug/slow_queries") => Endpoint::SlowQueries,
        _ => Endpoint::Other,
    }
}

/// Admission control + panic isolation around `route`.
///
/// Execution endpoints must win an in-flight permit or are shed with a
/// 503 before any work happens. The routed handler runs under
/// `catch_unwind`, so a panic (a bug, or an injected fault) costs that
/// request a 500 — never the worker thread, and never the shared state:
/// the engine's locks are unpoisonable `parking_lot` shims and its
/// caches publish only fully-computed values.
fn handle_request(state: &ServerState, req: &Request) -> Routed {
    let _permit = if needs_permit(req) {
        match Permit::try_acquire(state) {
            Some(permit) => Some(permit),
            None => {
                state.shed_requests.fetch_add(1, Ordering::Relaxed);
                let mut shed = Routed::new(
                    endpoint_of(req),
                    503,
                    error_body(
                        "shed",
                        &format!(
                            "server at capacity ({} requests in flight); retry shortly",
                            state.config.max_in_flight
                        ),
                    ),
                );
                shed.retry_after = Some("1");
                return shed;
            }
        }
    } else {
        None
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let routed = route(state, req);
        // Failpoint at the response boundary: the body is built but not
        // yet on the wire. Inside the catch so the error/panic actions
        // surface as a taxonomy 500, not a dead worker.
        opine_faults::fire_panic("response_write");
        routed
    }));
    match outcome {
        Ok(routed) => routed,
        Err(payload) => {
            state.caught_panics.fetch_add(1, Ordering::Relaxed);
            let message = if let Some(fault) = payload.downcast_ref::<opine_faults::InjectedPanic>()
            {
                format!("internal error: {fault}")
            } else if let Some(m) = payload.downcast_ref::<&str>() {
                format!("internal error: {m}")
            } else if let Some(m) = payload.downcast_ref::<String>() {
                format!("internal error: {m}")
            } else {
                "internal error".to_string()
            };
            Routed::new(endpoint_of(req), 500, error_body("internal", &message))
        }
    }
}

/// Serves one connection: a keep-alive loop of read → route → respond.
fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) {
    state.metrics.record_connection();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(state.config.read_timeout);
    let _ = stream.set_write_timeout(state.config.write_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Register for shutdown draining (the guard deregisters on exit).
    // Register before the stopping check so a concurrent shutdown either
    // sees this connection in `live` or is seen by the check below.
    let id = state.next_conn_id.fetch_add(1, Ordering::Relaxed);
    let Ok(shutdown_handle) = stream.try_clone() else {
        return;
    };
    state.live.lock().insert(id, shutdown_handle);
    let _guard = ConnGuard { state, id };
    // sync: pairs with the Release store in Drop; the `live` mutex above
    // orders registration against the shutdown sweep, so either the
    // sweep closed this socket or this load observes `stopping`.
    if state.stopping.load(Ordering::Acquire) {
        return;
    }
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    let budget = state.config.max_requests_per_conn.max(1);
    for served in 0..budget {
        // sync: pairs with the Release store in Drop; a missed flag here
        // is caught by the read-side shutdown (EOF) on the next read.
        if state.stopping.load(Ordering::Acquire) {
            return;
        }
        match http::read_request(&mut reader, state.config.max_body) {
            Ok(req) => {
                let started = Instant::now();
                let routed = handle_request(state, &req);
                state.metrics.record(
                    routed.endpoint,
                    routed.status == 200,
                    started.elapsed().as_micros() as u64,
                );
                let mut extra: Vec<(&str, &str)> = Vec::new();
                if let Some(cache) = routed.cache {
                    extra.push(("x-opine-cache", cache));
                }
                if let Some(secs) = routed.retry_after {
                    extra.push(("retry-after", secs));
                }
                // On the last budgeted request, advertise the close so
                // well-behaved clients reconnect instead of hitting a
                // broken pipe. A caught panic (500) also closes: the
                // request boundary is known-good, the connection's
                // parser state after an arbitrary unwind is not.
                let keep_alive = req.keep_alive && served + 1 < budget && routed.status != 500;
                if http::write_response(
                    &mut writer,
                    routed.status,
                    routed.content_type,
                    routed.body.as_bytes(),
                    keep_alive,
                    &extra,
                )
                .is_err()
                {
                    return;
                }
                if !keep_alive {
                    // A client that pipelined past the per-connection
                    // budget has bytes already buffered that will never
                    // be served; tell it explicitly (429) instead of
                    // silently closing on them. Buffer-only check — no
                    // blocking read for well-behaved clients.
                    if served + 1 >= budget && !reader.buffer().is_empty() {
                        state.metrics.record(Endpoint::Other, false, 0);
                        let _ = http::write_response(
                            &mut writer,
                            429,
                            "application/json",
                            error_body(
                                "too_many_requests",
                                &format!(
                                    "connection budget of {budget} requests exhausted; reconnect"
                                ),
                            )
                            .as_bytes(),
                            false,
                            &[],
                        );
                    }
                    return;
                }
            }
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
            Err(HttpError::BadRequest(m)) => {
                state.metrics.record(Endpoint::Other, false, 0);
                let _ = http::write_response(
                    &mut writer,
                    400,
                    "application/json",
                    error_body("bad_request", &format!("bad request: {m}")).as_bytes(),
                    false,
                    &[],
                );
                return;
            }
            Err(HttpError::PayloadTooLarge(n)) => {
                // The declared length is never read — an abusive client
                // cannot make a worker read gigabytes — but closing on
                // a body still in flight resets the connection, and a
                // client that is still writing never sees its 413. So
                // the 413 goes out with `Connection: close`, then the
                // close lingers briefly (see `linger_close`).
                state.metrics.record(Endpoint::Other, false, 0);
                let _ = http::write_response(
                    &mut writer,
                    413,
                    "application/json",
                    error_body(
                        "payload_too_large",
                        &format!(
                            "body of {n} bytes exceeds the {}-byte limit",
                            state.config.max_body
                        ),
                    )
                    .as_bytes(),
                    false,
                    &[],
                );
                linger_close(writer.get_ref(), &mut reader);
                return;
            }
        }
    }
}

/// Most unread request bytes a refusing close discards before giving
/// up: twice the default body cap, so a request modestly over the cap
/// (an oversized `INSERT` batch) is absorbed whole and its sender reads
/// the refusal, while a body of any declared size costs the worker at
/// most this much reading.
const LINGER_MAX_BYTES: usize = 2 * DEFAULT_MAX_BODY;

/// Longest a refusing close waits on the client — far below the
/// connection's read timeout.
const LINGER_MAX_WAIT: Duration = Duration::from_millis(250);

/// Closes a connection whose request was refused unread: half-closes
/// the write side (the client sees the response, then EOF) and discards
/// what the client is still sending until it stops, [`LINGER_MAX_BYTES`]
/// were discarded, or [`LINGER_MAX_WAIT`] passed. Dropping the socket
/// with unread bytes queued would reset the connection and could take
/// the response down with it.
fn linger_close(stream: &TcpStream, reader: &mut impl Read) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER_MAX_WAIT;
    let mut scratch = [0u8; 16 * 1024];
    let mut discarded = 0;
    while discarded < LINGER_MAX_BYTES {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            return;
        };
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(n) => discarded += n,
        }
    }
}

fn route(state: &ServerState, req: &Request) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => handle_query(state, req),
        ("POST", "/prepare") => handle_prepare(state, req),
        ("POST", "/execute") => handle_execute(state, req),
        ("POST", "/insert") => handle_insert(state, req),
        ("GET", "/stats") => Routed::new(Endpoint::Stats, 200, render_stats(state)),
        // Liveness: answers 200 whenever a worker can still serve — the
        // probe for "is the process alive", deliberately load-blind.
        ("GET", "/healthz") => Routed::new(
            Endpoint::Health,
            200,
            format!("{{\"ok\":true,\"entities\":{}}}", state.db.num_entities()),
        ),
        // Readiness: answers 503 while shedding or stopping, so load
        // balancers steer new traffic away without killing the process.
        ("GET", "/readyz") => handle_ready(state),
        ("GET", "/metrics") => {
            let mut routed = Routed::new(Endpoint::PromMetrics, 200, render_prometheus(state));
            routed.content_type = prometheus::CONTENT_TYPE;
            routed
        }
        ("GET", "/debug/slow_queries") => {
            Routed::new(Endpoint::SlowQueries, 200, render_slow_queries(state))
        }
        (
            _,
            "/query"
            | "/prepare"
            | "/execute"
            | "/insert"
            | "/stats"
            | "/healthz"
            | "/readyz"
            | "/metrics"
            | "/debug/slow_queries",
        ) => Routed::new(
            Endpoint::Other,
            405,
            error_body(
                "method_not_allowed",
                &format!("method {} not allowed on {}", req.method, req.path),
            ),
        ),
        _ => Routed::new(
            Endpoint::Other,
            404,
            error_body("not_found", &format!("no such endpoint {}", req.path)),
        ),
    }
}

/// `GET /readyz`: readiness, distinct from liveness. Not-ready states —
/// draining for shutdown, or the admission budget saturated — answer
/// 503 with the reason, while `/healthz` keeps reporting the process
/// alive.
fn handle_ready(state: &ServerState) -> Routed {
    // sync: point-in-time gauge read for readiness; staleness only
    // flips one probe's answer, never admission itself.
    let in_flight = state.in_flight.load(Ordering::Relaxed);
    let limit = state.config.max_in_flight.max(1);
    // sync: pairs with the Release store in Drop; monitoring read.
    let stopping = state.stopping.load(Ordering::Acquire);
    let (status, ready, reason) = if stopping {
        (503, false, "stopping")
    } else if in_flight >= limit {
        (503, false, "shedding")
    } else {
        (200, true, "ok")
    };
    Routed::new(
        Endpoint::Ready,
        status,
        format!(
            "{{\"ready\":{ready},\"reason\":\"{reason}\",\"in_flight\":{in_flight},\
             \"max_in_flight\":{limit},\"shed_requests\":{}}}",
            state.shed_requests.load(Ordering::Relaxed)
        ),
    )
}

/// Parses the request body as a JSON object, mapping failures to 400s.
fn parse_body(endpoint: Endpoint, req: &Request) -> Result<JsonValue, Routed> {
    let text = req
        .body_str()
        .map_err(|e| Routed::new(endpoint, 400, error_body("bad_request", &e.to_string())))?;
    json::parse(text)
        .map_err(|e| Routed::new(endpoint, 400, error_body("bad_request", &e.to_string())))
}

/// A required string field of the body object.
fn string_field<'b>(
    endpoint: Endpoint,
    body: &'b JsonValue,
    field: &str,
) -> Result<&'b str, Routed> {
    body.get(field).and_then(JsonValue::as_str).ok_or_else(|| {
        Routed::new(
            endpoint,
            400,
            error_body(
                "bad_request",
                &format!("body must be a JSON object with a string {field:?} field"),
            ),
        )
    })
}

fn handle_query(state: &ServerState, req: &Request) -> Routed {
    let body = match parse_body(Endpoint::Query, req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let sql = match string_field(Endpoint::Query, &body, "sql") {
        Ok(s) => s,
        Err(r) => return r,
    };
    let want_trace = body
        .get("trace")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    // Arm a trace context for the whole request so the parse below and
    // every engine stage land in one tree.
    let trace = TraceContext::new();
    opine_trace::with_trace(Some(trace.clone()), || {
        let statement = {
            let _parse = opine_trace::span("parse");
            match parse_statement(sql) {
                Ok(s) => s,
                Err(e) => {
                    return Routed::new(
                        Endpoint::Query,
                        400,
                        error_body("bad_request", &e.to_string()),
                    )
                }
            }
        };
        let explicit = want_trace || matches!(statement, Statement::ExplainAnalyze(_));
        match &statement {
            Statement::Select(select) | Statement::ExplainAnalyze(select) => run_select(
                state,
                Endpoint::Query,
                select,
                &select.normalized(),
                &trace,
                explicit,
            ),
            // `INSERT` through the unified SQL surface: the same
            // execution as `POST /insert`, attributed to `/query`.
            Statement::Insert(stmt) => {
                let routed = insert_response(state, Endpoint::Query, stmt);
                state.metrics.record_stages(&trace.snapshot());
                routed
            }
        }
    })
}

/// `POST /insert`: parses the body's `INSERT INTO reviews …` statement
/// and applies it through the engine's live-ingest path. No execution
/// deadline is armed — the work is bounded by the batch the client
/// sent, and publication is all-or-nothing regardless, so cancelling a
/// half-validated batch buys nothing.
fn handle_insert(state: &ServerState, req: &Request) -> Routed {
    let body = match parse_body(Endpoint::Insert, req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let sql = match string_field(Endpoint::Insert, &body, "sql") {
        Ok(s) => s,
        Err(r) => return r,
    };
    let trace = TraceContext::new();
    opine_trace::with_trace(Some(trace.clone()), || {
        let stmt = {
            let _parse = opine_trace::span("parse");
            match parse_insert(sql) {
                Ok(s) => s,
                Err(e) => {
                    return Routed::new(
                        Endpoint::Insert,
                        400,
                        error_body("bad_request", &e.to_string()),
                    )
                }
            }
        };
        let routed = insert_response(state, Endpoint::Insert, &stmt);
        // The ingest (and a triggered delta_merge) span feeds the same
        // per-stage histograms the read path fills.
        state.metrics.record_stages(&trace.snapshot());
        routed
    })
}

/// Executes a parsed `INSERT` and renders the receipt: the rows applied,
/// the epoch their batch published, the delta's size, and whether the
/// statement tipped the delta over the merge threshold.
fn insert_response(state: &ServerState, endpoint: Endpoint, stmt: &InsertStmt) -> Routed {
    match state.db.execute_insert(stmt) {
        Ok(receipt) => Routed::new(
            endpoint,
            200,
            format!(
                "{{\"inserted\":{},\"epoch\":{},\"delta_reviews\":{},\"merged\":{}}}",
                receipt.inserted, receipt.epoch, receipt.delta_reviews, receipt.merged
            ),
        ),
        Err(e) => Routed::new(endpoint, 400, error_body("bad_request", &e.to_string())),
    }
}

fn handle_prepare(state: &ServerState, req: &Request) -> Routed {
    let body = match parse_body(Endpoint::Prepare, req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let (name, sql) = match (
        string_field(Endpoint::Prepare, &body, "name"),
        string_field(Endpoint::Prepare, &body, "sql"),
    ) {
        (Ok(n), Ok(s)) => (n, s),
        (Err(r), _) | (_, Err(r)) => return r,
    };
    match state.prepared.prepare(name, sql) {
        Ok(p) => Routed::new(
            Endpoint::Prepare,
            200,
            format!(
                "{{\"prepared\":{},\"normalized\":{}}}",
                json::escaped(&p.name),
                json::escaped(&p.normalized)
            ),
        ),
        Err(e) => Routed::new(
            Endpoint::Prepare,
            400,
            error_body("bad_request", &e.to_string()),
        ),
    }
}

fn handle_execute(state: &ServerState, req: &Request) -> Routed {
    let body = match parse_body(Endpoint::Execute, req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let name = match string_field(Endpoint::Execute, &body, "name") {
        Ok(n) => n,
        Err(r) => return r,
    };
    let Some(prepared) = state.prepared.get(name) else {
        return Routed::new(
            Endpoint::Execute,
            404,
            error_body(
                "not_found",
                &format!("no prepared statement named {name:?}"),
            ),
        );
    };
    let want_trace = body
        .get("trace")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let trace = TraceContext::new();
    opine_trace::with_trace(Some(trace.clone()), || {
        run_select(
            state,
            Endpoint::Execute,
            &prepared.select,
            &prepared.normalized,
            &trace,
            want_trace,
        )
    })
}

/// Executes a parsed statement through the result cache.
///
/// `explicit` marks a request that asked to see its trace
/// (`EXPLAIN ANALYZE` or `"trace": true`): the span tree is appended to
/// the response body, and the result cache is bypassed in both
/// directions — a cached body would replay the original execution's
/// timings, and inserting a traced body would leak one request's spans
/// into every later hit.
fn run_select(
    state: &ServerState,
    endpoint: Endpoint,
    select: &Select,
    key: &str,
    trace: &TraceContext,
    explicit: bool,
) -> Routed {
    let caching = state.config.result_cache_capacity > 0 && !explicit;
    // Cache entries are keyed by (data epoch, normalized SQL): every
    // published `INSERT` batch bumps the epoch, so a post-insert probe
    // can never replay a pre-insert body. (`\u{1}` cannot appear in
    // normalized SQL, so the composite key is unambiguous.) Entries
    // stranded under old epochs age out of the bounded FIFO cache.
    let cache_key = format!("{}\u{1}{}", state.db.ingest_epoch(), key);
    let routed = 'routed: {
        if caching {
            if let Some(hit) = state.results.get(&cache_key) {
                break 'routed Routed {
                    endpoint,
                    status: 200,
                    body: hit,
                    content_type: "application/json",
                    cache: Some("hit"),
                    retry_after: None,
                };
            }
        }
        let deadline = state
            .config
            .request_deadline
            .map(opine_faults::Deadline::after);
        match render_query_body_deadline(&state.db, select, deadline) {
            Ok(body) => {
                let body = if explicit {
                    let mut body = body;
                    append_trace(&mut body, &trace.snapshot());
                    Arc::new(body)
                } else {
                    let body = Arc::new(body);
                    if caching {
                        state.results.insert(&cache_key, body.clone());
                    }
                    body
                };
                Routed {
                    endpoint,
                    status: 200,
                    body,
                    content_type: "application/json",
                    cache: Some(if explicit {
                        "bypass"
                    } else if caching {
                        "miss"
                    } else {
                        "off"
                    }),
                    retry_after: None,
                }
            }
            Err(OpineError::QueryTimeout) => Routed::new(
                endpoint,
                504,
                error_body(
                    "timeout",
                    &format!(
                        "query exceeded the {:?} execution deadline",
                        state.config.request_deadline.unwrap_or_default()
                    ),
                ),
            ),
            Err(e) => Routed::new(endpoint, 400, error_body("bad_request", &e.to_string())),
        }
    };
    // One final snapshot feeds the per-stage global histograms and,
    // past the threshold, the slow-query ring. Fast requests never take
    // the ring's lock.
    let snapshot = trace.snapshot();
    state.metrics.record_stages(&snapshot);
    let threshold_ms = state.config.slow_query_ms;
    if threshold_ms > 0 && snapshot.total_us >= threshold_ms.saturating_mul(1000) {
        let mut ring = state.slow_queries.lock();
        while ring.len() >= state.config.slow_query_capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(SlowQuery {
            sql: key.to_string(),
            endpoint,
            status: routed.status,
            trace: snapshot,
        });
    }
    routed
}

/// Appends `,"trace":{…}` inside a rendered response body (which always
/// ends in `}`), producing the traced variant of the response.
fn append_trace(body: &mut String, snapshot: &TraceSnapshot) {
    debug_assert!(body.ends_with('}'));
    body.pop();
    body.push_str(",\"trace\":");
    render_trace_json(body, snapshot);
    body.push('}');
}

/// Renders one trace snapshot as JSON: total wall-clock, the active
/// stages in pipeline order with their counters, and the engine's
/// plan-choice notes (which fast path fired, and why or why not).
fn render_trace_json(out: &mut String, snapshot: &TraceSnapshot) {
    out.push_str("{\"total_us\":");
    out.push_str(&snapshot.total_us.to_string());
    out.push_str(",\"stages\":[");
    for (i, stage) in snapshot.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"stage\":");
        json::escape_into(out, stage.name);
        out.push_str(&format!(
            ",\"calls\":{},\"elapsed_us\":{},\"counters\":{{",
            stage.calls, stage.elapsed_us
        ));
        for (j, (name, value)) in stage.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push_str("}}");
    }
    out.push_str("],\"notes\":[");
    for (i, note) in snapshot.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(out, note);
    }
    out.push_str("]}");
}

/// Renders the `/debug/slow_queries` payload: the ring's entries,
/// oldest first, each with its normalized SQL and full span tree.
fn render_slow_queries(state: &ServerState) -> String {
    let ring = state.slow_queries.lock();
    // lint:allow(taxonomy_exhaustiveness, reason = "512 here is a capacity estimate per ring entry, not an HTTP status")
    let mut out = String::with_capacity(256 + 512 * ring.len());
    out.push_str(&format!(
        "{{\"threshold_ms\":{},\"capacity\":{},\"count\":{},\"entries\":[",
        state.config.slow_query_ms,
        state.config.slow_query_capacity,
        ring.len()
    ));
    for (i, entry) in ring.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"sql\":");
        json::escape_into(&mut out, &entry.sql);
        out.push_str(&format!(
            ",\"endpoint\":\"{}\",\"status\":{},\"total_us\":{},\"trace\":",
            entry.endpoint.name(),
            entry.status,
            entry.trace.total_us
        ));
        render_trace_json(&mut out, &entry.trace);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Appends one cell value as JSON. Takes the executor's borrowed
/// [`ValueRef`] view — scalars come straight out of the columnar
/// storage, text is borrowed, nothing is cloned.
fn push_value(out: &mut String, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => out.push_str("null"),
        ValueRef::Int(i) => {
            let _ = write!(out, "{i}");
        }
        ValueRef::Float(x) => json::push_f64(out, x),
        ValueRef::Str(s) => json::escape_into(out, s),
        ValueRef::Bool(b) => out.push_str(if b { "true" } else { "false" }),
    }
}

/// Renders a statement's answer as the `/query` response body.
///
/// Public because it *is* the library-path reference serialization: the
/// throughput bench asserts the bytes a client reads off the socket are
/// identical to what this produces directly against the engine. Rows are
/// streamed out of the executor's borrowing path ([`OpineDb::
/// query_select_ref`]) — no row `Vec<Value>` is cloned along the way.
pub fn render_query_body(db: &OpineDb, select: &Select) -> Result<String, OpineError> {
    let q = db.query_select_ref(select)?;
    Ok(render_body(&q))
}

/// [`render_query_body`] under a cancellation deadline: the scan aborts
/// at the engine's next checkpoint once the budget is spent and comes
/// back as [`OpineError::QueryTimeout`]. The response body is fully
/// buffered here, *then* written to the socket by the caller — the
/// executor's borrow of the store never spans a client-paced write.
pub fn render_query_body_deadline(
    db: &OpineDb,
    select: &Select,
    deadline: Option<opine_faults::Deadline>,
) -> Result<String, OpineError> {
    let q = db.query_select_ref_deadline(select, deadline)?;
    Ok(render_body(&q))
}

fn render_body(q: &opine_core::QueryRef<'_>) -> String {
    let span = opine_trace::span("serialize");
    span.count("rows", q.result.len() as u64);
    let mut out = String::with_capacity(256 + 64 * q.result.len());
    out.push_str("{\"columns\":[");
    for (i, col) in q.result.columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(&mut out, col);
    }
    let _ = write!(out, "],\"row_count\":{},\"rows\":[", q.result.len());
    for i in 0..q.result.len() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"values\":[");
        for (j, value) in q.result.values(i).enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_value(&mut out, value);
        }
        out.push_str("],\"score\":");
        json::push_f64(&mut out, q.result.score(i));
        out.push('}');
    }
    out.push_str("],\"interpretations\":[");
    for (i, (predicate, interp)) in q.interpretations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"predicate\":");
        json::escape_into(&mut out, predicate);
        out.push_str(",\"interpretation\":");
        json::escape_fmt_into(&mut out, format_args!("{interp:?}"));
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn push_cache_stats(out: &mut String, stats: opine_core::CacheStats) {
    out.push_str(&format!(
        "{{\"hits\":{},\"misses\":{},\"hit_rate\":",
        stats.hits, stats.misses
    ));
    json::push_f64(out, stats.hit_rate());
    out.push('}');
}

/// Renders the `/stats` payload: engine cache counters, the result
/// cache, prepared statements, and per-endpoint latency histograms.
fn render_stats(state: &ServerState) -> String {
    let report = state.db.cache_report();
    let mut out = String::with_capacity(2048);

    out.push_str("{\"server\":{\"workers\":");
    out.push_str(&state.workers.to_string());
    out.push_str(",\"uptime_seconds\":");
    json::push_f64(&mut out, state.metrics.uptime_seconds());
    out.push_str(",\"connections\":");
    out.push_str(&state.metrics.connections().to_string());
    out.push_str(",\"max_in_flight\":");
    out.push_str(&state.config.max_in_flight.to_string());
    out.push_str(",\"in_flight\":");
    // sync: point-in-time gauge read for observability only.
    out.push_str(&state.in_flight.load(Ordering::Relaxed).to_string());
    out.push_str(",\"shed_requests\":");
    out.push_str(&state.shed_requests.load(Ordering::Relaxed).to_string());
    out.push_str(",\"caught_panics\":");
    out.push_str(&state.caught_panics.load(Ordering::Relaxed).to_string());
    out.push_str(",\"entities\":");
    out.push_str(&state.db.num_entities().to_string());
    out.push_str(",\"entity_table\":");
    json::escape_into(&mut out, state.db.entity_table());
    // The engine section renders from CacheReport::fields() — the same
    // list the Prometheus exposition walks — so `/stats` and `/metrics`
    // cannot drift apart.
    out.push_str("},\"engine_caches\":{");
    for (i, (name, value)) in report.fields().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        match value {
            MetricValue::Counter(n) | MetricValue::Gauge(n) => out.push_str(&n.to_string()),
            MetricValue::Cache(stats) => push_cache_stats(&mut out, stats),
        }
    }
    out.push_str("},\"result_cache\":{\"enabled\":");
    out.push_str(if state.config.result_cache_capacity > 0 {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"entries\":");
    out.push_str(&state.results.len().to_string());
    out.push_str(",\"capacity\":");
    out.push_str(&state.config.result_cache_capacity.to_string());
    out.push_str(",\"stats\":");
    push_cache_stats(&mut out, state.results.stats());
    out.push_str("},\"prepared\":{\"count\":");
    out.push_str(&state.prepared.len().to_string());
    out.push_str("},\"endpoints\":{");
    for (i, snap) in state.metrics.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"requests\":{},\"errors\":{},\"latency_us\":{{\"count\":{},\"mean\":",
            snap.endpoint.name(),
            snap.requests,
            snap.errors,
            snap.latency.count
        ));
        json::push_f64(&mut out, snap.latency.mean_us());
        out.push_str(&format!(
            ",\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}}}",
            snap.latency.max_us,
            snap.latency.quantile_us(0.50),
            snap.latency.quantile_us(0.95),
            snap.latency.quantile_us(0.99)
        ));
    }
    out.push_str("}}");
    out
}

/// Renders the `GET /metrics` body: every `/stats` counter in
/// Prometheus text-exposition format, plus the per-stage query-path
/// histograms. Both surfaces read the same [`Metrics`] registry and the
/// same [`opine_core::CacheReport::fields`] list.
fn render_prometheus(state: &ServerState) -> String {
    let mut exp = Exposition::new();

    exp.family(
        "opine_uptime_seconds",
        "gauge",
        "Seconds since the server started.",
    );
    exp.sample_f64("opine_uptime_seconds", &[], state.metrics.uptime_seconds());
    exp.family(
        "opine_connections_total",
        "counter",
        "Accepted TCP connections.",
    );
    exp.sample("opine_connections_total", &[], state.metrics.connections());
    exp.family("opine_workers", "gauge", "Accept-pool worker threads.");
    exp.sample("opine_workers", &[], state.workers as u64);
    exp.family(
        "opine_in_flight",
        "gauge",
        "Execution requests currently admitted.",
    );
    exp.sample(
        "opine_in_flight",
        &[],
        // sync: point-in-time gauge read for observability only.
        state.in_flight.load(Ordering::Relaxed) as u64,
    );
    exp.family(
        "opine_max_in_flight",
        "gauge",
        "Admission budget for execution requests.",
    );
    exp.sample(
        "opine_max_in_flight",
        &[],
        state.config.max_in_flight as u64,
    );
    exp.family(
        "opine_shed_requests_total",
        "counter",
        "Requests shed with 503 at admission.",
    );
    exp.sample(
        "opine_shed_requests_total",
        &[],
        state.shed_requests.load(Ordering::Relaxed),
    );
    exp.family(
        "opine_caught_panics_total",
        "counter",
        "Handler panics caught at the request boundary.",
    );
    exp.sample(
        "opine_caught_panics_total",
        &[],
        state.caught_panics.load(Ordering::Relaxed),
    );
    exp.family("opine_entities", "gauge", "Entities in the catalog.");
    exp.sample("opine_entities", &[], state.db.num_entities() as u64);

    let snaps = state.metrics.snapshot();
    exp.family(
        "opine_requests_total",
        "counter",
        "Requests handled per endpoint.",
    );
    for s in &snaps {
        exp.sample(
            "opine_requests_total",
            &[("endpoint", s.endpoint.name())],
            s.requests,
        );
    }
    exp.family(
        "opine_request_errors_total",
        "counter",
        "Non-2xx responses per endpoint.",
    );
    for s in &snaps {
        exp.sample(
            "opine_request_errors_total",
            &[("endpoint", s.endpoint.name())],
            s.errors,
        );
    }
    exp.family(
        "opine_request_duration_seconds",
        "histogram",
        "Request latency per endpoint.",
    );
    for s in &snaps {
        exp.histogram(
            "opine_request_duration_seconds",
            &[("endpoint", s.endpoint.name())],
            &s.latency,
        );
    }

    exp.family(
        "opine_stage_duration_seconds",
        "histogram",
        "Per-request latency of each query-path stage.",
    );
    for (name, snap) in state.metrics.stage_snapshot() {
        exp.histogram("opine_stage_duration_seconds", &[("stage", name)], &snap);
    }

    let report = state.db.cache_report();
    let fields: Vec<_> = report.fields().collect();
    exp.family("opine_cache_hits_total", "counter", "Engine cache hits.");
    for (name, value) in &fields {
        if let MetricValue::Cache(stats) = value {
            exp.sample("opine_cache_hits_total", &[("cache", name)], stats.hits);
        }
    }
    exp.family(
        "opine_cache_misses_total",
        "counter",
        "Engine cache misses.",
    );
    for (name, value) in &fields {
        if let MetricValue::Cache(stats) = value {
            exp.sample("opine_cache_misses_total", &[("cache", name)], stats.misses);
        }
    }
    for (name, value) in &fields {
        match value {
            MetricValue::Counter(n) => {
                let metric = format!("opine_{name}_total");
                exp.family(&metric, "counter", "Engine counter (see /stats).");
                exp.sample(&metric, &[], *n);
            }
            MetricValue::Gauge(n) => {
                let metric = format!("opine_{name}");
                exp.family(&metric, "gauge", "Engine gauge (see /stats).");
                exp.sample(&metric, &[], *n);
            }
            MetricValue::Cache(_) => {}
        }
    }

    let rc = state.results.stats();
    exp.family(
        "opine_result_cache_hits_total",
        "counter",
        "Result-cache hits.",
    );
    exp.sample("opine_result_cache_hits_total", &[], rc.hits);
    exp.family(
        "opine_result_cache_misses_total",
        "counter",
        "Result-cache misses.",
    );
    exp.sample("opine_result_cache_misses_total", &[], rc.misses);
    exp.family(
        "opine_result_cache_entries",
        "gauge",
        "Rendered bodies currently cached.",
    );
    exp.sample(
        "opine_result_cache_entries",
        &[],
        state.results.len() as u64,
    );
    exp.family(
        "opine_result_cache_capacity",
        "gauge",
        "Result-cache capacity (0 = disabled).",
    );
    exp.sample(
        "opine_result_cache_capacity",
        &[],
        state.config.result_cache_capacity as u64,
    );
    exp.family(
        "opine_prepared_statements",
        "gauge",
        "Prepared statements registered.",
    );
    exp.sample(
        "opine_prepared_statements",
        &[],
        state.prepared.len() as u64,
    );
    exp.family(
        "opine_slow_queries_logged",
        "gauge",
        "Entries currently in the slow-query ring.",
    );
    exp.sample(
        "opine_slow_queries_logged",
        &[],
        state.slow_queries.lock().len() as u64,
    );
    exp.finish()
}
