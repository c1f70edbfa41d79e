//! One run of one workload: set-up, the HTTP window, the checks, and —
//! for a traced run — the in-process replay.

use crate::drive::{drive, Observed, Plan};
use crate::metrics::{END_TO_END, INGEST_END_TO_END, PER_LAYER};
use crate::replay::{replay, write_trace};
use crate::setup::{rss_high_water_mb, setup, Instance};
use crate::stats::{mean, median};
use crate::workload::{insert_batches, InsertBatch, Scale, Stream, Workload};
use opine_core::{CacheStats, OpineDb};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// Distinct statements `sat_at_10` is taken over: the stream's first
/// 512, or 200 where each costs two cold interpretations.
fn sat_statements(workload: Workload) -> usize {
    match workload {
        Workload::InterpretCold => 200,
        _ => 512,
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the corpus and of the request stream.
    pub seed: u64,
    /// Length of the measured HTTP window.
    pub window: Duration,
    /// Per-layer run (true) or end-to-end run (false).
    pub traced: bool,
    /// `--smoke`: the small scale, and every response checked.
    pub smoke: bool,
    /// Where the trace file goes.
    pub trace_dir: PathBuf,
}

impl RunConfig {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Requests sent in the measured window.
    pub attempted: u64,
    /// Of those, the ones that failed or were answered wrongly.
    pub failed: u64,
    /// Metric name → value: the end-to-end metrics of an end-to-end
    /// run (plus the ingest-only ones on `ingest_mixed`), the per-layer
    /// metrics of a traced run.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind `p50_us`/`p99_us`.
    pub samples: usize,
    /// Identity of the request stream.
    pub stream_hash: u64,
}

/// Mean share of the top-10 that the corpus's latent state says satisfy
/// the statement (its predicates' gold rules, AND-ed or OR-ed as the
/// statement has them, and the objective filter),
/// over the stream's first distinct statements that have ground truth.
/// Computed in-process before any load; a pure function of the seed.
fn sat_at_10(db: &OpineDb, stream: &Stream) -> io::Result<f64> {
    let mut shares = Vec::new();
    for statement in stream
        .statements
        .iter()
        .take(sat_statements(stream.workload))
    {
        let Some(gold) = statement.gold.iter().copied().collect::<Option<Vec<u16>>>() else {
            continue;
        };
        let output = db
            .query(&statement.sql)
            .map_err(|e| io::Error::other(format!("{}: {e}", statement.sql)))?;
        let top: Vec<usize> = output
            .result
            .rows
            .iter()
            .take(10)
            .filter_map(|(row, _)| row[0].as_str().and_then(|key| db.entity_id(key)))
            .collect();
        if top.is_empty() {
            continue;
        }
        let satisfied = top
            .iter()
            .filter(|&&e| {
                let entity = &stream.entities[e];
                let holds = |&g: &u16| stream.bank[g as usize].satisfied_by(entity, &stream.spec);
                statement.filter.accepts(entity)
                    && if statement.disjunctive {
                        gold.iter().any(holds)
                    } else {
                        gold.iter().all(holds)
                    }
            })
            .count();
        shares.push(satisfied as f64 / top.len() as f64);
    }
    Ok(mean(&shares))
}

fn end_to_end_metrics(observed: &Observed, setup_s: f64, sat: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", setup_s);
    m.insert("qps", observed.qps);
    m.insert("p50_us", observed.p50_us);
    m.insert("p99_us", observed.p99_us);
    m.insert("rss_mb", rss_high_water_mb());
    m.insert("sat_at_10", sat);
    m
}

fn ingest_metrics(observed: &Observed, m: &mut BTreeMap<&'static str, f64>) {
    let ingest = observed.ingest.clone().unwrap_or_default();
    m.insert("insert_p50_us", ingest.insert_p50_us);
    m.insert("insert_p95_us", ingest.insert_p95_us);
    m.insert("insert_drift", ingest.insert_drift);
    m.insert("read_slowdown", ingest.read_slowdown);
    m.insert("qualified_p50_us", ingest.qualified_p50_us);
    m.insert("qualified_slowdown", ingest.qualified_slowdown);
    m.insert("writer_late_ms", ingest.writer_late_ms);
}

/// Runs `config` once.
pub fn run_once(config: &RunConfig) -> io::Result<RunResult> {
    let scale = config.scale();
    let stream = Stream::generate(config.workload, config.seed, &scale);
    let plan = Plan {
        window: config.window,
        check_all: config.smoke,
        writer_batches_per_s: scale.writer_batches_per_s,
    };
    // The writer's schedule for the HTTP window, and the prefix of it
    // the traced replay inserts by hand.
    let (http_batches, replay_batches) = match (config.workload.ingests(), config.traced) {
        (false, _) => (0, 0),
        (true, false) => (plan.batches(), 0),
        (true, true) => (plan.batches(), scale.replay_batches),
    };
    let batches = insert_batches(
        config.seed,
        &scale,
        &stream.entities,
        http_batches.max(replay_batches),
    );

    if config.traced {
        return traced_run(
            config,
            &scale,
            &stream,
            &batches[..http_batches],
            &batches[..replay_batches],
            &plan,
        );
    }

    // Set-up several times, so that `setup_s` is a median; the first
    // instance answers `sat_at_10` (in-process work that would warm the
    // measured one), the last is measured. Each is torn down before the
    // next is built, so `rss_mb` is one database, not three.
    let mut setup_s = Vec::with_capacity(scale.setups);
    let mut sat = 0.0;
    let mut instance: Option<Instance> = None;
    for i in 0..scale.setups {
        drop(instance.take());
        let fresh = setup(&scale, config.seed, &stream)?;
        setup_s.push(fresh.times.total_s());
        if i == 0 {
            sat = sat_at_10(&fresh.db, &stream)?;
        }
        instance = Some(fresh);
    }
    let mut instance = instance.expect("at least one set-up");
    let observed = drive(&mut instance, &stream, &batches, &plan)?;
    let mut metrics = end_to_end_metrics(&observed, median(&setup_s), sat);
    if config.workload.ingests() {
        ingest_metrics(&observed, &mut metrics);
    }
    Ok(RunResult {
        attempted: observed.attempted,
        failed: observed.failed,
        metrics,
        samples: observed.samples,
        stream_hash: stream.hash(),
    })
}

/// The per-layer run: an HTTP window for what only sockets show, then
/// the replay on a second, untouched instance.
fn traced_run(
    config: &RunConfig,
    scale: &Scale,
    stream: &Stream,
    http_batches: &[InsertBatch],
    replay_batches: &[InsertBatch],
    plan: &Plan,
) -> io::Result<RunResult> {
    let mut served = setup(scale, config.seed, stream)?;
    let times = served.times;
    let cache_before = served.server.result_cache_stats();
    let engine_before = served.db.cache_report();
    let observed = drive(&mut served, stream, http_batches, plan)?;
    let cache_after = served.server.result_cache_stats();
    let engine_after = served.db.cache_report();
    drop(served);

    let fresh = setup(scale, config.seed, stream)?;
    let selects = if config.workload == Workload::InterpretCold {
        scale.replay_cold_requests
    } else {
        scale.replay_requests
    };
    let replayed = replay(&fresh, stream, replay_batches, selects)?;
    drop(fresh);
    write_trace(
        &config.trace_dir.join(format!(
            "{}-{}.trace.json",
            config.workload.name(),
            config.seed
        )),
        config.workload.name(),
        config.seed,
        &replayed.spans,
    )?;

    let mut metrics = replayed.metrics;
    // Cache hit shares and the merge counters come from the HTTP
    // window: what the caches did under the real, concurrent load.
    let share = |after: CacheStats, before: CacheStats| {
        let hits = after.hits - before.hits;
        let probes = hits + after.misses - before.misses;
        if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        }
    };
    for (name, after, before) in [
        (
            "server.service.result_cache_hit_share",
            cache_after,
            cache_before,
        ),
        (
            "core.interpret.cache_hit_share",
            engine_after.interpretations,
            engine_before.interpretations,
        ),
        (
            "core.db.column_cache_hit_share",
            engine_after.columns,
            engine_before.columns,
        ),
        (
            "core.db.point_cache_hit_share",
            engine_after.points,
            engine_before.points,
        ),
        (
            "core.db.phrase_cache_hit_share",
            engine_after.phrases,
            engine_before.phrases,
        ),
        (
            "core.summary.filtered_cache_hit_share",
            engine_after.filtered_summaries,
            engine_before.filtered_summaries,
        ),
    ] {
        metrics.insert(name, share(after, before));
    }
    metrics.insert(
        "core.ingest.merges",
        (engine_after.delta_merges - engine_before.delta_merges) as f64,
    );
    metrics.insert(
        "core.ingest.failed_merges",
        (engine_after.failed_merges - engine_before.failed_merges) as f64,
    );
    metrics.insert(
        "core.ingest.delta_reviews",
        engine_after.delta_reviews as f64,
    );
    metrics.insert("server.service.shed", observed.shed as f64);
    // What the replay cannot see: sockets, admission, scheduling.
    metrics.insert(
        "server.service.residual_us",
        observed.p50_us - replayed.select_p50_us,
    );
    metrics.insert("server.http.tail_quantile", observed.tail.0);
    metrics.insert("server.http.tail_us", observed.tail.1);
    metrics.insert("corpus.generate_s", times.generate_s);
    metrics.insert("core.builder.build_s", times.build_s);
    metrics.insert(
        "core.builder.reviews_per_s",
        times.reviews as f64 / times.build_s,
    );
    metrics.insert("server.bind_s", times.bind_s);
    metrics.insert("bench.warmup_s", times.warmup_s);
    metrics.insert("process.rss_after_build_mb", times.rss_after_build_mb);
    metrics.insert("trace.spans", replayed.spans.len() as f64);
    ingest_metrics(&observed, &mut metrics);
    Ok(RunResult {
        attempted: observed.attempted,
        failed: observed.failed,
        metrics,
        samples: observed.samples,
        stream_hash: stream.hash(),
    })
}

/// What makes each workload the workload it claims to be, checked on a
/// traced run's metrics: the layer it stresses is stressed, the layer it
/// bypasses is bypassed. Returns one line per broken expectation — a
/// later change to a cache size or a plan rule can quietly turn a
/// workload into a different one, and its numbers then mean something
/// else.
pub fn broken_expectations(
    workload: Workload,
    metrics: &BTreeMap<&'static str, f64>,
) -> Vec<String> {
    /// (metric, does the value hold, what was expected).
    type Expectation = (&'static str, fn(f64) -> bool, &'static str);
    let expectations: &[Expectation] = match workload {
        Workload::ServeHot => &[(
            "server.service.result_cache_hit_share",
            |v| v >= 0.99,
            ">= 0.99: the statements fit the result cache",
        )],
        Workload::RankWarm => &[
            (
                "server.service.result_cache_hit_share",
                |v| v <= 0.02,
                "<= 0.02: every request executes",
            ),
            (
                "core.db.column_cache_hit_share",
                |v| v >= 0.99,
                ">= 0.99: every predicate's column is cached",
            ),
            (
                "ir.index.wand_queries",
                |v| v == 0.0,
                "0: nothing is interpreted",
            ),
        ],
        Workload::InterpretCold => &[
            (
                "core.db.column_cache_hit_share",
                |v| v <= 0.01,
                "<= 0.01: every column is built",
            ),
            (
                // Each cold predicate is interpreted twice by the engine
                // (once for the response, once inside the column build);
                // the second probe hits.
                "core.interpret.cache_hit_share",
                |v| v <= 0.51,
                "<= 0.51: every predicate is interpreted",
            ),
            (
                "core.interpret.share_direct",
                |v| v > 0.0,
                "> 0: stage 1 fires",
            ),
            (
                "core.interpret.share_cooccur",
                |v| v > 0.0,
                "> 0: stage 2 fires",
            ),
            (
                "core.interpret.share_fallback",
                |v| v > 0.0,
                "> 0: stage 3 fires",
            ),
        ],
        Workload::IngestMixed => &[
            (
                "core.ingest.merges",
                |v| v >= 10.0,
                ">= 10: merges run in the window",
            ),
            ("core.ingest.failed_merges", |v| v == 0.0, "0"),
            (
                "core.db.ta_queries",
                |v| v == 0.0,
                "0: the reader avoids the TA shapes",
            ),
        ],
    };
    expectations
        .iter()
        .filter(|(name, holds, _)| !holds(metrics[name]))
        .map(|(name, _, want)| {
            format!(
                "{}: {name} = {}, expected {want}",
                workload.name(),
                metrics[name]
            )
        })
        .collect()
}

/// The names a run of this kind must report, exactly once each.
pub fn declared(workload: Workload, traced: bool) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    if traced {
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(INGEST_END_TO_END.iter().map(|m| m.name));
    } else {
        names.extend(END_TO_END.iter().map(|m| m.name));
        if workload.ingests() {
            names.extend(INGEST_END_TO_END.iter().map(|m| m.name));
        }
    }
    names
}
