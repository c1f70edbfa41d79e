//! Thread-ambient per-query tracing.
//!
//! A [`TraceContext`] is an aggregation sink for one query: per-stage
//! elapsed time, call counts, stage-native counters, and free-form notes
//! ("which fast path fired and why"). The context is *ambient* — installed
//! in a thread-local by [`with_trace`], exactly like the request deadline
//! in `opine-faults` — so the executor and engine can enrich it from any
//! depth without threading a handle through every signature.
//!
//! Design constraints, in order:
//!
//! 1. **Disarmed cost is one relaxed atomic load per instrumentation
//!    site.** A global [`ARMED`] counter tracks how many contexts are
//!    currently installed anywhere in the process; when it is zero,
//!    [`span`], [`count`], and [`note`] return before touching the
//!    thread-local, taking a timestamp, or building a string.
//! 2. **Aggregation is lock-free.** All per-stage cells are relaxed
//!    atomics, so scoped scoring workers that re-install a clone of the
//!    coordinator's context (see `opine_core::par::par_map`) merge their
//!    increments into one tree without double-counting and without a
//!    serialization point.
//! 3. **Zero dependencies.** `std` only, consistent with the rest of the
//!    workspace.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The query-path stages, in pipeline order. Spans are aggregated per
/// stage (not per dynamic call), so this table is the whole tree shape.
pub const STAGES: [&str; 11] = [
    "parse",
    "plan",
    "prefilter_bitmap",
    "ta_topk",
    "wand_retrieval",
    "summary_merge",
    "rescore",
    "materialize",
    "serialize",
    "ingest",
    "delta_merge",
];

/// Stage-native counter names. Each stage may bump any of these; the
/// snapshot only reports non-zero cells.
pub const COUNTERS: [&str; 10] = [
    "candidates",
    "heap_pops",
    "blocks_skipped",
    "cache_hits",
    "cache_misses",
    "cache_repairs",
    "repairs",
    "repaired_entities",
    "rows",
    "scored",
];

const NUM_STAGES: usize = STAGES.len();
const NUM_COUNTERS: usize = COUNTERS.len();

fn stage_index(stage: &str) -> usize {
    STAGES
        .iter()
        .position(|&s| s == stage)
        .unwrap_or_else(|| panic!("unknown trace stage {stage:?}"))
}

fn counter_index(counter: &str) -> usize {
    COUNTERS
        .iter()
        .position(|&c| c == counter)
        .unwrap_or_else(|| panic!("unknown trace counter {counter:?}"))
}

#[derive(Default)]
struct StageAgg {
    calls: AtomicU64,
    /// Nanoseconds: a span is often under a microsecond, and rounding
    /// each one down would lose half a microsecond per call.
    elapsed_ns: AtomicU64,
    counters: [AtomicU64; NUM_COUNTERS],
}

struct TraceInner {
    started: Instant,
    stages: [StageAgg; NUM_STAGES],
    notes: Mutex<Vec<String>>,
}

/// A per-query trace sink. `Clone` is an `Arc` bump: clones installed on
/// worker threads aggregate into the same tree.
#[derive(Clone)]
pub struct TraceContext {
    inner: Arc<TraceInner>,
}

impl std::fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceContext").finish_non_exhaustive()
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceContext {
    /// A fresh, empty context; the query clock starts now.
    pub fn new() -> Self {
        TraceContext {
            inner: Arc::new(TraceInner {
                started: Instant::now(),
                stages: Default::default(),
                notes: Mutex::new(Vec::new()),
            }),
        }
    }

    fn record_span(&self, stage: usize, elapsed_ns: u64) {
        let agg = &self.inner.stages[stage];
        agg.calls.fetch_add(1, Ordering::Relaxed);
        agg.elapsed_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
    }

    fn add(&self, stage: usize, counter: usize, n: u64) {
        self.inner.stages[stage].counters[counter].fetch_add(n, Ordering::Relaxed);
    }

    fn push_note(&self, note: String) {
        self.inner
            .notes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(note);
    }

    /// An owned point-in-time copy: stages in canonical pipeline order,
    /// idle stages (no calls, no time, no counters) omitted.
    pub fn snapshot(&self) -> TraceSnapshot {
        let total_us = self.inner.started.elapsed().as_micros() as u64;
        let stages = STAGES
            .iter()
            .enumerate()
            .filter_map(|(i, &name)| {
                let agg = &self.inner.stages[i];
                let calls = agg.calls.load(Ordering::Relaxed);
                let elapsed_us = agg.elapsed_ns.load(Ordering::Relaxed) / 1_000;
                let counters: Vec<(&'static str, u64)> = COUNTERS
                    .iter()
                    .enumerate()
                    .filter_map(|(j, &cname)| {
                        let v = agg.counters[j].load(Ordering::Relaxed);
                        (v != 0).then_some((cname, v))
                    })
                    .collect();
                (calls != 0 || elapsed_us != 0 || !counters.is_empty()).then_some(StageSnapshot {
                    name,
                    calls,
                    elapsed_us,
                    counters,
                })
            })
            .collect();
        let notes = self
            .inner
            .notes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        TraceSnapshot {
            total_us,
            stages,
            notes,
        }
    }
}

/// One stage's aggregate in a [`TraceSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage name from [`STAGES`].
    pub name: &'static str,
    /// How many spans closed on this stage.
    pub calls: u64,
    /// Total time inside those spans, µs: the stage's nanoseconds
    /// rounded down once, at the snapshot.
    pub elapsed_us: u64,
    /// Non-zero stage-native counters, in [`COUNTERS`] order.
    pub counters: Vec<(&'static str, u64)>,
}

impl StageSnapshot {
    /// A named counter's value (0 when the stage never bumped it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// An owned copy of one query's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Wall time since the context was created, µs.
    pub total_us: u64,
    /// Active stages, in canonical pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// Free-form notes (fast-path decisions, decline reasons).
    pub notes: Vec<String>,
}

impl TraceSnapshot {
    /// The snapshot of a named stage, if it was active.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.name == name)
    }
}

/// How many trace contexts are installed ambient anywhere in the process.
/// The disarmed fast path is a single relaxed load of this cell.
static ARMED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static AMBIENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// Restores the previous ambient context (and the [`ARMED`] count) when
/// the installing scope exits, by panic or by return.
struct AmbientGuard {
    previous: Option<TraceContext>,
    armed: bool,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|slot| slot.set(self.previous.take()));
        if self.armed {
            // sync: approximate arm gate; the authoritative context is
            // thread-local, so cross-thread ordering carries no data.
            ARMED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Runs `f` with `trace` installed as this thread's ambient context
/// (`None` masks any outer context). The previous context is restored on
/// exit, including panic unwinds.
pub fn with_trace<R>(trace: Option<TraceContext>, f: impl FnOnce() -> R) -> R {
    let armed = trace.is_some();
    if armed {
        // sync: approximate arm gate (see current_trace); the context
        // itself travels through the thread-local slot, not this counter.
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
    let previous = AMBIENT.with(|slot| slot.replace(trace));
    let _guard = AmbientGuard { previous, armed };
    f()
}

/// The ambient context, if one is installed on this thread. Costs one
/// relaxed load when nothing is armed process-wide.
pub fn current_trace() -> Option<TraceContext> {
    // sync: approximate arm gate; a stale zero only short-circuits a
    // thread that installed no context of its own, which reads None
    // from its thread-local slot anyway.
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    AMBIENT.with(|slot| {
        let trace = slot.take();
        slot.set(trace.clone());
        trace
    })
}

/// A stage span: created by [`span`], records elapsed time and one call
/// on the ambient context when dropped. Inert when tracing is disarmed.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard {
    live: Option<(TraceContext, usize, Instant)>,
}

impl SpanGuard {
    /// True when the span is recording — callers can skip computing
    /// counter values (e.g. a bitmap popcount) that only feed [`Self::count`].
    pub fn active(&self) -> bool {
        self.live.is_some()
    }

    /// Bumps a stage-native counter on this span's stage. No-op when the
    /// span is inert.
    pub fn count(&self, counter: &'static str, n: u64) {
        if let Some((ctx, stage, _)) = &self.live {
            ctx.add(*stage, counter_index(counter), n);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((ctx, stage, start)) = self.live.take() {
            ctx.record_span(stage, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Opens a span on `stage` (a name from [`STAGES`]), bound to the
/// enclosing scope via RAII. One relaxed load when disarmed.
#[inline]
pub fn span(stage: &'static str) -> SpanGuard {
    // sync: approximate arm gate (see current_trace).
    if ARMED.load(Ordering::Relaxed) == 0 {
        return SpanGuard { live: None };
    }
    span_slow(stage)
}

#[cold]
fn span_slow(stage: &'static str) -> SpanGuard {
    let live = current_trace().map(|ctx| (ctx, stage_index(stage), Instant::now()));
    SpanGuard { live }
}

/// Adds `n` to `counter` under `stage` on the ambient context, without
/// opening a span. One relaxed load when disarmed.
#[inline]
pub fn count(stage: &'static str, counter: &'static str, n: u64) {
    // sync: approximate arm gate (see current_trace).
    if ARMED.load(Ordering::Relaxed) == 0 {
        return;
    }
    count_slow(stage, counter, n);
}

#[cold]
fn count_slow(stage: &'static str, counter: &'static str, n: u64) {
    if let Some(ctx) = current_trace() {
        ctx.add(stage_index(stage), counter_index(counter), n);
    }
}

/// Appends a note (a fast-path decision, a decline reason) to the
/// ambient context. The closure runs only when a context is armed on
/// this thread, so callers can format freely.
#[inline]
pub fn note(f: impl FnOnce() -> String) {
    // sync: approximate arm gate (see current_trace).
    if ARMED.load(Ordering::Relaxed) == 0 {
        return;
    }
    if let Some(ctx) = current_trace() {
        ctx.push_note(f());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn disarmed_sites_do_nothing() {
        assert!(current_trace().is_none());
        let built = AtomicUsize::new(0);
        {
            let s = span("parse");
            s.count("rows", 3);
            count("plan", "candidates", 5);
            note(|| {
                built.fetch_add(1, Ordering::Relaxed);
                "never".into()
            });
        }
        assert_eq!(
            built.load(Ordering::Relaxed),
            0,
            "note closure must not run"
        );
    }

    #[test]
    fn span_records_calls_time_and_counters() {
        let ctx = TraceContext::new();
        with_trace(Some(ctx.clone()), || {
            {
                let s = span("ta_topk");
                s.count("heap_pops", 7);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _s = span("ta_topk");
            }
            count("prefilter_bitmap", "candidates", 12);
            note(|| "gather".into());
        });
        let snap = ctx.snapshot();
        let ta = snap.stage("ta_topk").expect("ta_topk active");
        assert_eq!(ta.calls, 2);
        assert!(ta.elapsed_us >= 1000, "slept ≥2ms, got {}µs", ta.elapsed_us);
        assert_eq!(ta.counter("heap_pops"), 7);
        let pre = snap.stage("prefilter_bitmap").expect("counter-only stage");
        assert_eq!(pre.calls, 0);
        assert_eq!(pre.counter("candidates"), 12);
        assert!(snap.stage("wand_retrieval").is_none(), "idle stage omitted");
        assert_eq!(snap.notes, vec!["gather".to_string()]);
        assert!(snap.total_us >= ta.elapsed_us);
    }

    #[test]
    fn sub_microsecond_spans_add_up_instead_of_rounding_to_zero() {
        let ctx = TraceContext::new();
        for _ in 0..4 {
            ctx.record_span(stage_index("plan"), 900);
        }
        let plan = ctx.snapshot().stages[0].clone();
        assert_eq!((plan.name, plan.calls, plan.elapsed_us), ("plan", 4, 3));
    }

    #[test]
    fn stages_snapshot_in_pipeline_order() {
        let ctx = TraceContext::new();
        with_trace(Some(ctx.clone()), || {
            drop(span("serialize"));
            drop(span("parse"));
            drop(span("ta_topk"));
        });
        let names: Vec<&str> = ctx.snapshot().stages.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["parse", "ta_topk", "serialize"]);
    }

    #[test]
    fn worker_clones_merge_without_double_counting() {
        let ctx = TraceContext::new();
        with_trace(Some(ctx.clone()), || {
            let ambient = current_trace();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let ambient = ambient.clone();
                    scope.spawn(move || {
                        with_trace(ambient, || {
                            for _ in 0..100 {
                                count("rescore", "scored", 1);
                            }
                            drop(span("rescore"));
                        });
                    });
                }
            });
        });
        let snap = ctx.snapshot();
        let rescore = snap.stage("rescore").unwrap();
        assert_eq!(rescore.counter("scored"), 400);
        assert_eq!(rescore.calls, 4);
    }

    #[test]
    fn ambient_is_scoped_nested_and_panic_safe() {
        let outer = TraceContext::new();
        let inner = TraceContext::new();
        with_trace(Some(outer.clone()), || {
            count("parse", "rows", 1);
            with_trace(Some(inner.clone()), || count("parse", "rows", 10));
            // `None` masks the outer context.
            with_trace(None, || {
                assert!(current_trace().is_none());
                count("parse", "rows", 100);
            });
            let unwound = std::panic::catch_unwind(|| {
                with_trace(Some(TraceContext::new()), || panic!("boom"))
            });
            assert!(unwound.is_err());
            // The outer context is back after every nested scope.
            count("parse", "rows", 2);
        });
        assert!(current_trace().is_none());
        assert_eq!(outer.snapshot().stage("parse").unwrap().counter("rows"), 3);
        assert_eq!(inner.snapshot().stage("parse").unwrap().counter("rows"), 10);
    }

    #[test]
    #[should_panic(expected = "unknown trace stage")]
    fn unknown_stage_names_are_rejected() {
        let _ctx = TraceContext::new();
        with_trace(Some(_ctx.clone()), || drop(span("no_such_stage")));
    }
}
