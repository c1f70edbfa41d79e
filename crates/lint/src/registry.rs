//! Project-specific knowledge the rules consult: which atomics are
//! registered monotonic counters, where the hot data-proportional loops
//! live, which modules serve requests, and how metric names map to the
//! fields that back them.

/// Atomics that are pure monotonic counters or saturating gauges:
/// `Relaxed` `fetch_add`/`fetch_max`/`load` on these needs no
/// justification, because no other memory is published through them —
/// readers only ever see a possibly-stale count.
pub const MONOTONIC_COUNTERS: &[&str] = &[
    // core::cache::BoundedCache
    "hits",
    "misses",
    // core::db::Db query-class counters
    "ta_queries",
    "pushdown_queries",
    "qualified_queries",
    "timed_out_queries",
    // ir::index WAND counters
    "wand_queries",
    "exhaustive_queries",
    "blocks_skipped",
    // faults crate injection counter
    "INJECTED",
    // core::db repair counters (a stale cached artifact brought to a
    // newer pin by recomputing only what changed since its stamp)
    "qualified_repairs",
    "qualified_repaired_entities",
    // core::ingest counters (writer-side bumps, reader-side report)
    "inserted_reviews",
    "delta_merges",
    "failed_merges",
    "delta_rows_copied",
    // server::service counters
    "shed_requests",
    "caught_panics",
    "next_conn_id",
    // server::metrics histogram cells (monotone per-cell; torn snapshots
    // are handled explicitly by HistogramSnapshot::quantile_us)
    "buckets",
    "count",
    "sum_us",
    "max_us",
    "requests",
    "errors",
    "connections",
    // trace::StageAgg accumulation cells
    "calls",
    "elapsed_ns",
    "counters",
];

/// Atomic methods that are read-only or pure accumulation: safe under
/// `Relaxed` when the receiver is a registered monotonic counter.
pub const COUNTER_METHODS: &[&str] = &["fetch_add", "fetch_max", "load"];

/// Metric name → field identifier, where they differ. Counter-parity
/// resolves a `fields()` metric name to the identifier its increments
/// use before searching for bump sites.
pub const COUNTER_ALIASES: &[(&str, &str)] = &[
    ("filtered_summary_queries", "qualified_queries"),
    ("faults_injected", "INJECTED"),
];

/// Files whose loops are data-proportional (per-document / per-block /
/// per-posting work): top-k pivoting, WAND block skipping, summary
/// merging, the qualified fold and the reference's rescan,
/// degree-column builds and repairs, the executor's row loop and hash
/// joins, and the parallel worker shim. Loops of consequence
/// here must hit `Deadline::checkpoint()`.
pub const HOT_LOOP_FILES: &[&str] = &[
    "crates/store/src/exec.rs",
    "crates/core/src/topk.rs",
    "crates/core/src/summary.rs",
    "crates/core/src/column.rs",
    "crates/core/src/db.rs",
    "crates/core/src/ingest.rs",
    "crates/core/src/qualified.rs",
    "crates/core/src/reference.rs",
    "crates/core/src/par.rs",
    "crates/ir/src/index.rs",
];

/// Loop bodies spanning fewer lines than this are assumed
/// O(small-constant) setup work and exempt from checkpoint-coverage.
pub const CHECKPOINT_MIN_BODY_LINES: u32 = 5;

/// Server modules on the request path: a panic here is a 500 (or a
/// ragged connection) for a customer, so unwrap/expect/panic!/indexing
/// must be annotated or removed.
pub const SERVE_PATH_PREFIX: &str = "crates/server/src/";

/// Panicking macros flagged by no-panic-in-serve. `debug_assert*` is
/// exempt: compiled out of release builds.
pub const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Where the JSON error taxonomy lives and which file may emit statuses.
pub const TAXONOMY_FILE_SUFFIX: &str = "server/src/service.rs";
pub const TAXONOMY_CONST: &str = "ERROR_TAXONOMY";

/// The metrics-definition sites counter-parity parses.
pub const FIELDS_FILE_SUFFIX: &str = "core/src/db.rs";
pub const STAGES_FILE_SUFFIX: &str = "trace/src/lib.rs";
pub const SERVICE_FILE_SUFFIX: &str = "server/src/service.rs";

/// Lock-acquiring method names (parking_lot shim + std Mutex): a `let`
/// guard bound from one of these must not outlive a call into another.
pub const LOCK_METHODS: &[&str] = &["lock", "read", "write"];
