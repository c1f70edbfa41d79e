//! **OpineDB core** — the paper's primary contribution.
//!
//! A subjective database models attributes like `room_cleanliness` as
//! aggregates over phrases mined from reviews:
//!
//! * [`domain`] — linguistic domains: the set of phrases describing an
//!   attribute, with counts, sentiment, and embeddings;
//! * [`summary`] — markers and marker summaries: designer-chosen landmarks
//!   and the per-entity histograms over them, grown incrementally by one
//!   tabulated contribution per linguistic variation (Sec. 2, Sec. 4.2.2);
//!   their provenance is computed from the raw occurrences
//!   ([`OpineDb::provenance`]);
//! * [`membership`] — learned membership functions translating a marker
//!   summary + query phrase into a degree of truth (Sec. 3.3), run on
//!   lanes of entities with each lane's operations those of the
//!   one-entity path, in the same order;
//! * [`interpret`] — the three-stage predicate interpreter: word2vec →
//!   co-occurrence → text-retrieval fallback (Sec. 3.2, Fig. 5);
//! * [`builder`] — the construction pipeline from a raw review corpus
//!   (Sec. 4): extraction, attribute classification, marker discovery,
//!   summary aggregation;
//! * [`db`] — [`OpineDb`]: the end-to-end engine executing Subjective SQL
//!   with fuzzy combination (Sec. 3.1);
//! * [`column`] — degree columns and the batched membership kernel that
//!   fills them eight entities per pass from a frozen, column-major
//!   feature plane (one `f64` column per feature-row slot per
//!   attribute), bit for bit the one-entity degrees;
//! * [`ingest`] — live ingest: the copy-on-write delta segment behind
//!   snapshot-isolated `INSERT` at serve time;
//! * [`qualified`] — review-qualified sets (`with reviews(…)`): one fold
//!   over the raw occurrences per cell, written into a feature plane of
//!   their own, cached, and repaired per entity into rows beside it;
//! * [`reference`] — the slow, cache-free evaluator every fast path is
//!   checked against and every ablation runs on;
//! * [`topk`] — Fagin's Threshold Algorithm for fuzzy top-k (an extension
//!   the paper cites as the standard technique \[15\]).

pub mod builder;
pub mod cache;
pub mod column;
pub mod db;
/// Deadlines, cooperative cancellation, and fault-injection failpoints
/// (re-exported from the workspace's bottom-layer `opine-faults` crate
/// so `ir`/`store`/`server` share the same ambient tokens).
pub use opine_faults as faults;
/// Per-query stage spans, counters, and notes (re-exported from the
/// workspace's `opine-trace` crate so every layer enriches the same
/// thread-ambient context).
pub use opine_trace as trace;
pub mod domain;
pub mod ingest;
pub mod interpret;
pub mod membership;
pub mod qualified;
pub mod reference;
pub mod snapshot;
pub mod summary;
pub mod topk;

pub use builder::{build, BuildConfig, ExtractionMode};
pub use cache::{BoundedCache, CacheStats};
pub use db::{
    AtPin, CacheReport, DegreeColumn, MetricValue, OpineDb, OpineError, PreparedPhrase,
    QueryOutput, QueryRef,
};
pub use domain::LinguisticDomain;
pub use ingest::IngestReceipt;
pub use interpret::{Interpretation, Interpreter, InterpreterConfig};
pub use membership::MembershipModel;
pub use qualified::QualifiedSet;
pub use reference::Reference;
pub use snapshot::{Snapshot, SnapshotCell};
pub use summary::{AssignMode, Marker, MarkerSet, MarkerSummary, SummaryKind};
