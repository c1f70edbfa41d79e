//! Information-retrieval substrate for OpineDB.
//!
//! Stands in for Elasticsearch in the original system. Provides:
//!
//! * [`InvertedIndex`] — document index with Okapi BM25 top-k retrieval
//!   (doc-ordered posting lists scored term-at-a-time into a dense
//!   array, with the exhaustive point-scoring oracle beside it), used by
//!   the co-occurrence interpretation method (Eq. (3)) and by the
//!   text-retrieval fallback (Sec. 3.2);
//! * [`expansion`] — embedding-based query expansion, used to strengthen
//!   the GZ12 opinion-based entity-ranking baseline (Sec. 5.3).

pub mod expansion;
pub mod index;

pub use expansion::expand_query;
pub use index::{bm25_term_score, DocId, InvertedIndex, SearchHit, BM25_B, BM25_K1};
