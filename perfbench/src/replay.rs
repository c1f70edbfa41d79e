//! The traced run: a single-threaded, in-process replay of a request
//! prefix, with bench-owned spans around every call the server makes
//! into a layer, in the order the server makes them.
//!
//! Spans wrap public functions only. Work that the server does inside
//! one call (interpretation, degree-column builds, qualified summary
//! merges all happen inside `render_query_body`) is *pre-touched* by
//! the replay in its own span first, so each piece of work lands in its
//! own span exactly once and the later call finds it cached. Engine
//! stages below the public surface are read from the existing
//! `opine_trace` stage aggregates and attached as children.
//!
//! A layer's self time is its span minus its children; a request's
//! self times plus what nothing explains sum to its replay total.

use crate::metrics::PER_LAYER;
use crate::setup::{server_config, Instance};
use crate::workload::{InsertBatch, Statement, Stream, ROWS_PER_BATCH};
use opine_core::cache::BoundedCache;
use opine_core::{Interpretation, OpineDb};
use opine_server::{http, json, render_query_body, DEFAULT_MAX_BODY};
use opine_store::{parse_insert, parse_statement, Statement as Sql};
use opine_trace::{TraceContext, TraceSnapshot};
use std::collections::BTreeMap;
use std::io::{self, Cursor};
use std::sync::Arc;
use std::time::Instant;

/// Reviews between `merge_delta` calls in the ingest replay: the
/// engine's default merge threshold, applied by hand so that insert and
/// merge are timed apart.
const MERGE_EVERY_REVIEWS: usize = 64;
/// SELECTs replayed after each insert batch on `ingest_mixed`.
const SELECTS_PER_BATCH: usize = 10;

/// Engine stage → the layer metric it is reported under.
const STAGE_LAYERS: [(&str, &str); 8] = [
    ("plan", "store.exec.plan"),
    ("prefilter_bitmap", "store.exec.prefilter_bitmap"),
    ("ta_topk", "core.topk.ta"),
    ("wand_retrieval", "ir.index.wand"),
    ("summary_merge", "core.summary.merge"),
    ("rescore", "store.exec.rescore"),
    ("materialize", "store.exec.materialize"),
    ("serialize", "server.service.serialize"),
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// The request it belongs to.
    pub request: u32,
    /// Index of the span that caused it.
    pub parent: Option<u32>,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// True for an engine stage aggregate: the duration is the stage's
    /// summed elapsed time inside the parent, and `start_ns` is the
    /// parent's.
    pub aggregate: bool,
}

/// The in-memory span store.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    request: u32,
    stack: Vec<u32>,
    /// Every span, in start order; written out when the run ends.
    pub spans: Vec<Span>,
}

impl Recorder {
    fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the open span.
    /// Returns the span's index beside `f`'s result.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, u32) {
        if !self.enabled {
            return (f(self), 0);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            aggregate: false,
        });
        self.stack.push(id);
        let result = f(self);
        self.stack.pop();
        let span = &mut self.spans[id as usize];
        span.dur_ns = self.origin.elapsed().as_nanos() as u64 - span.start_ns;
        (result, id)
    }

    /// Attaches the engine stages that ran between two snapshots of the
    /// request's trace context as children of span `parent`.
    fn attach_stages(&mut self, parent: u32, before: &TraceSnapshot, after: &TraceSnapshot) {
        if !self.enabled {
            return;
        }
        for (stage, layer) in STAGE_LAYERS {
            let elapsed = |s: &TraceSnapshot| s.stage(stage).map_or(0, |s| s.elapsed_us);
            let dur_us = elapsed(after) - elapsed(before);
            if dur_us > 0 {
                self.spans.push(Span {
                    name: layer,
                    request: self.request,
                    parent: Some(parent),
                    start_ns: self.spans[parent as usize].start_ns,
                    dur_ns: dur_us * 1_000,
                    aggregate: true,
                });
            }
        }
    }
}

/// One replayed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// SELECT request `i` of the stream; `after_insert` marks the first
    /// read behind an insert.
    Select { request: usize, after_insert: bool },
    /// INSERT batch `b`.
    Insert(usize),
}

/// Per-request totals and counters the spans do not carry.
#[derive(Default)]
struct Tally {
    /// Replay total of every SELECT, ns.
    select_ns: Vec<u64>,
    /// Replay total of the first SELECT behind each insert, ns.
    first_read_ns: Vec<u64>,
    /// Engine-stage counters summed over the replay.
    counters: BTreeMap<(&'static str, &'static str), u64>,
    /// Interpretations by stage: direct, co-occurrence, fallback.
    interpretations: [u64; 3],
    /// SELECTs that executed (missed the emulated result cache).
    executed: u64,
}

/// What the replay measured, by per-layer metric name.
pub struct Replayed {
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Median replay total of a SELECT, µs (the base of
    /// `server.service.residual_us`).
    pub select_p50_us: f64,
    /// The spans, for the trace file.
    pub spans: Vec<Span>,
}

/// The bytes a client would put on the wire for `body`.
fn wire(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn bad(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// What every POST starts with: the request read off the wire, its JSON
/// body parsed, the `sql` field taken.
fn read_sql(rec: &mut Recorder, wire: &[u8]) -> io::Result<String> {
    let (request, _) = rec.span("server.http.read_request", |_| {
        http::read_request(&mut Cursor::new(wire), DEFAULT_MAX_BODY)
    });
    let request = request.map_err(bad)?;
    let (body, _) = rec.span("server.json.parse", |_| {
        request
            .body_str()
            .map_err(bad)
            .and_then(|text| json::parse(text).map_err(bad))
    });
    body?
        .get("sql")
        .and_then(json::JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad("request body without sql"))
}

/// Mirrors the server's connection loop → `handle_query` → `run_select`
/// for one SELECT, span by span.
fn replay_select(
    rec: &mut Recorder,
    db: &OpineDb,
    results: &BoundedCache<Arc<String>>,
    statement: &Statement,
    tally: &mut Tally,
) -> io::Result<u64> {
    let wire = wire("/query", &statement.body);
    let mut out = Vec::with_capacity(4096);
    let trace = rec.enabled.then(TraceContext::new);
    let start = Instant::now();
    let (result, _) = rec.span("request", |rec| -> io::Result<()> {
        opine_trace::with_trace(trace.clone(), || {
            let sql = read_sql(rec, &wire)?;
            let (parsed, _) = rec.span("store.parser.parse", |_| parse_statement(&sql));
            let Sql::Select(select) = parsed.map_err(bad)? else {
                return Err(bad("replayed statement is not a SELECT"));
            };
            let (key, _) = rec.span("store.ast.normalize", |_| select.normalized());
            let (hit, _) = rec.span("server.service.result_cache", |_| {
                let key = format!("{}\u{1}{key}", db.ingest_epoch());
                (results.get(&key), key)
            });
            let (hit, cache_key) = hit;
            let body = match hit {
                Some(body) => body,
                None => {
                    tally.executed += 1;
                    let snapshot =
                        |t: &Option<TraceContext>| t.as_ref().map(TraceContext::snapshot);
                    let predicates: Vec<&str> = select
                        .where_clause
                        .as_ref()
                        .map(|w| w.subjective_predicates())
                        .unwrap_or_default();
                    for predicate in &predicates {
                        let before = snapshot(&trace);
                        let (interpretation, id) =
                            rec.span("core.interpret", |_| db.interpret(predicate));
                        if let (Some(before), Some(after)) = (before, snapshot(&trace)) {
                            rec.attach_stages(id, &before, &after);
                        }
                        tally.interpretations[match interpretation {
                            Interpretation::Direct { .. } => 0,
                            Interpretation::CoOccur { .. } => 1,
                            Interpretation::TextFallback => 2,
                        }] += 1;
                    }
                    // Pure-subjective unqualified statements only: those
                    // need every predicate's whole column whatever the
                    // planner does. What a filtered or a qualified
                    // statement needs is the planner's choice, which a
                    // pre-touch would pre-empt.
                    let pure = select
                        .where_clause
                        .as_ref()
                        .is_some_and(|w| w.is_purely_subjective());
                    if pure && select.review_qualifier.is_none() {
                        for predicate in &predicates {
                            rec.span("core.db.degree_column", |_| db.degree_column(predicate));
                        }
                    }
                    if let Some(qualifier) = &select.review_qualifier {
                        let before = snapshot(&trace);
                        let (_, id) = rec.span("core.summary.qualified", |_| {
                            db.summaries_qualified(qualifier)
                        });
                        if let (Some(before), Some(after)) = (before, snapshot(&trace)) {
                            rec.attach_stages(id, &before, &after);
                        }
                    }
                    let before = snapshot(&trace);
                    let (rendered, id) =
                        rec.span("server.service.render", |_| render_query_body(db, &select));
                    let after = snapshot(&trace);
                    if let (Some(before), Some(after)) = (before, &after) {
                        rec.attach_stages(id, &before, after);
                    }
                    if let Some(after) = after {
                        for stage in &after.stages {
                            for (counter, n) in &stage.counters {
                                *tally.counters.entry((stage.name, counter)).or_default() += n;
                            }
                        }
                    }
                    let body = Arc::new(rendered.map_err(bad)?);
                    rec.span("server.service.result_cache", |_| {
                        results.insert(&cache_key, body.clone())
                    });
                    body
                }
            };
            rec.span("server.http.write_response", |_| {
                http::write_response(
                    &mut out,
                    200,
                    "application/json",
                    body.as_bytes(),
                    true,
                    &[("x-opine-cache", "miss")],
                )
            })
            .0
        })
    });
    result?;
    Ok(start.elapsed().as_nanos() as u64)
}

/// Mirrors `handle_insert` for one batch; `merge` makes it follow the
/// insert with the merge the threshold would have triggered.
fn replay_insert(
    rec: &mut Recorder,
    db: &OpineDb,
    batch: &InsertBatch,
    merge: bool,
) -> io::Result<()> {
    let wire = wire("/insert", &batch.body);
    let mut out = Vec::with_capacity(256);
    let (result, _) = rec.span("request", |rec| -> io::Result<()> {
        let sql = read_sql(rec, &wire)?;
        let (statement, _) = rec.span("core.ingest.parse_insert", |_| parse_insert(&sql));
        let statement = statement.map_err(bad)?;
        let (receipt, _) = rec.span("core.ingest.insert", |_| db.execute_insert(&statement));
        let receipt = receipt.map_err(bad)?;
        if merge {
            rec.span("core.ingest.merge", |_| db.merge_delta())
                .0
                .map_err(bad)?;
        }
        let receipt = format!(
            "{{\"inserted\":{},\"epoch\":{},\"delta_reviews\":{},\"merged\":{merge}}}",
            receipt.inserted, receipt.epoch, receipt.delta_reviews
        );
        rec.span("server.http.write_response", |_| {
            http::write_response(
                &mut out,
                200,
                "application/json",
                receipt.as_bytes(),
                true,
                &[],
            )
        })
        .0
    });
    result
}

/// The operations of one pass, starting at stream position `from`.
fn plan(selects: usize, batches: usize, from: usize) -> Vec<Op> {
    if batches == 0 {
        return (from..from + selects)
            .map(|request| Op::Select {
                request,
                after_insert: false,
            })
            .collect();
    }
    let mut ops = Vec::with_capacity(batches * (SELECTS_PER_BATCH + 1));
    for b in 0..batches {
        ops.push(Op::Insert(b));
        for s in 0..SELECTS_PER_BATCH {
            ops.push(Op::Select {
                request: from + b * SELECTS_PER_BATCH + s,
                after_insert: s == 0,
            });
        }
    }
    ops
}

fn run_pass(
    rec: &mut Recorder,
    db: &OpineDb,
    results: &BoundedCache<Arc<String>>,
    stream: &Stream,
    batches: &[InsertBatch],
    ops: &[Op],
) -> io::Result<Tally> {
    let mut tally = Tally::default();
    let mut unsealed = 0;
    for (i, op) in ops.iter().enumerate() {
        rec.request = i as u32;
        match *op {
            Op::Select {
                request,
                after_insert,
            } => {
                let ns = replay_select(rec, db, results, stream.request(request), &mut tally)?;
                if after_insert {
                    tally.first_read_ns.push(ns);
                } else {
                    tally.select_ns.push(ns);
                }
            }
            Op::Insert(b) => {
                unsealed += ROWS_PER_BATCH;
                let merge = unsealed >= MERGE_EVERY_REVIEWS;
                if merge {
                    unsealed = 0;
                }
                replay_insert(rec, db, &batches[b], merge)?;
            }
        }
    }
    Ok(tally)
}

/// Replays `selects` requests of `stream` (and, when `batches` is not
/// empty, one insert batch before every ten of them) against a freshly
/// set-up `instance`, traced; then the following requests bare, to
/// price the tracing itself.
pub fn replay(
    instance: &Instance,
    stream: &Stream,
    batches: &[InsertBatch],
    selects: usize,
) -> io::Result<Replayed> {
    let db = &*instance.db;
    // Same capacity, key and eviction as the server's own result cache
    // (it is the same type), warmed with the same requests set-up sent.
    let results: BoundedCache<Arc<String>> =
        BoundedCache::new(server_config().result_cache_capacity);
    if !batches.is_empty() {
        db.set_merge_threshold(usize::MAX);
    }
    let tail = stream.order.len().saturating_sub(stream.warmup);
    let mut off = Recorder::new(false);
    run_pass(
        &mut off,
        db,
        &results,
        stream,
        &[],
        &plan(stream.warmup, 0, tail),
    )?;

    let traced_ops = plan(selects, batches.len(), 0);
    let selects = traced_ops
        .iter()
        .filter(|op| matches!(op, Op::Select { .. }))
        .count();
    let before = db.cache_report();
    let mut rec = Recorder::new(true);
    let mut tally = run_pass(&mut rec, db, &results, stream, batches, &traced_ops)?;
    let after = db.cache_report();
    // A quarter as many bare requests price the tracing well enough.
    let bare = run_pass(
        &mut off,
        db,
        &results,
        stream,
        &[],
        &plan(selects / 4, 0, selects),
    )?;

    // Self time per layer and what no span explains, summed over the
    // replay.
    let mut child_ns = vec![0u64; rec.spans.len()];
    for span in &rec.spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.dur_ns;
        }
    }
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut calls: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut last_fifth_insert_ns = Vec::new();
    for (span, children) in rec.spans.iter().zip(&child_ns) {
        // Stage aggregates are truncated to whole µs per engine span,
        // so children can overshoot a short parent by rounding alone.
        *self_ns.entry(span.name).or_default() += span.dur_ns.saturating_sub(*children);
        *calls.entry(span.name).or_default() += 1;
        if span.name == "core.ingest.insert" {
            last_fifth_insert_ns.push(span.dur_ns);
        }
    }
    let keep = (last_fifth_insert_ns.len() / 5).max(1);
    let last_fifth_insert_ns =
        &last_fifth_insert_ns[last_fifth_insert_ns.len().saturating_sub(keep)..];

    let per = |name: &str, denominator: u64| -> f64 {
        if denominator == 0 {
            0.0
        } else {
            self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / denominator as f64
        }
    };
    let count = |name: &str| calls.get(name).copied().unwrap_or(0);
    let requests = traced_ops.len() as u64;
    let counter = |stage, name| tally.counters.get(&(stage, name)).copied().unwrap_or(0);
    let mean_us = |ns: &[u64]| {
        if ns.is_empty() {
            0.0
        } else {
            ns.iter().sum::<u64>() as f64 / 1e3 / ns.len() as f64
        }
    };
    let interpreted = tally.interpretations.iter().sum::<u64>().max(1) as f64;
    let executed = tally.executed.max(1) as f64;
    let rows = counter("serialize", "rows").max(1) as f64;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Layer self times, mean µs per replayed request: these add up.
    // A `us/req` metric is named after the span it reads; what the
    // root span does not pass on to a child is what nothing explains.
    for metric in PER_LAYER.iter().filter(|metric| metric.unit == "us/req") {
        let layer = match metric.name {
            "trace.unexplained_us" => "request",
            name => name
                .strip_suffix("_us")
                .or_else(|| name.strip_suffix(".us"))
                .unwrap_or(name),
        };
        m.insert(metric.name, per(layer, requests));
    }
    // The write path, per batch and per merge rather than per request.
    m.insert(
        "core.ingest.parse_insert_us",
        per(
            "core.ingest.parse_insert",
            count("core.ingest.parse_insert"),
        ),
    );
    m.insert(
        "core.ingest.insert_us",
        per("core.ingest.insert", count("core.ingest.insert")),
    );
    m.insert(
        "core.ingest.insert_us_last_fifth",
        mean_us(last_fifth_insert_ns),
    );
    m.insert(
        "core.ingest.merge_us",
        per("core.ingest.merge", count("core.ingest.merge")),
    );
    m.insert(
        "core.ingest.first_read_after_insert_us",
        mean_us(&tally.first_read_ns),
    );
    // Counts, from the engine's own counters over the traced pass.
    // Single-threaded on a fresh instance: these repeat exactly for a
    // seed. (Cache hit shares are taken from the HTTP window instead:
    // the pre-touch adds probes of its own, all of them hits.)
    for (i, name) in [
        "core.interpret.share_direct",
        "core.interpret.share_cooccur",
        "core.interpret.share_fallback",
    ]
    .into_iter()
    .enumerate()
    {
        m.insert(name, tally.interpretations[i] as f64 / interpreted);
    }
    m.insert(
        "ir.index.wand_queries",
        (after.wand_queries - before.wand_queries) as f64,
    );
    m.insert(
        "ir.index.blocks_skipped",
        (after.blocks_skipped - before.blocks_skipped) as f64,
    );
    m.insert("core.db.column_bytes", after.column_bytes as f64);
    m.insert(
        "core.db.ta_queries",
        (after.ta_queries - before.ta_queries) as f64,
    );
    m.insert(
        "core.db.pushdown_queries",
        (after.pushdown_queries - before.pushdown_queries) as f64,
    );
    m.insert(
        "core.topk.heap_pops",
        counter("ta_topk", "heap_pops") as f64 / executed,
    );
    m.insert(
        "core.topk.candidates",
        counter("prefilter_bitmap", "candidates") as f64 / executed,
    );
    m.insert(
        "store.exec.rows_scored_per_result",
        (counter("ta_topk", "heap_pops") + counter("rescore", "scored")) as f64 / rows,
    );

    let total_ns: u64 = rec
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.dur_ns)
        .sum();
    m.insert(
        "trace.replay_total_us",
        total_ns as f64 / 1e3 / requests as f64,
    );
    // Tracing overhead: the same mirror without spans or a trace
    // context, on the requests that follow. First reads behind an
    // insert have no bare counterpart and are left out of both sides.
    let traced_mean = mean_us(&tally.select_ns);
    let bare_mean = mean_us(&bare.select_ns);
    m.insert(
        "trace.overhead_share",
        if bare_mean > 0.0 {
            (traced_mean - bare_mean) / bare_mean
        } else {
            0.0
        },
    );

    tally.select_ns.sort_unstable();
    let select_p50_us = tally
        .select_ns
        .get(tally.select_ns.len() / 2)
        .map_or(0.0, |&ns| ns as f64 / 1e3);
    Ok(Replayed {
        metrics: m,
        select_p50_us,
        spans: rec.spans,
    })
}

/// Writes the spans as one JSON document.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        file,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
    )?;
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            file.write_all(b",")?;
        }
        write!(
            file,
            "\n{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start\":{},\"dur\":{},\"aggregate\":{}}}",
            span.name,
            span.request,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.start_ns,
            span.dur_ns,
            span.aggregate
        )?;
    }
    file.write_all(b"\n]}\n")?;
    file.flush()
}
