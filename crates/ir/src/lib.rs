//! Information-retrieval substrate for OpineDB.
//!
//! Stands in for Elasticsearch in the original system. Provides:
//!
//! * [`InvertedIndex`] — document index with Okapi BM25 top-k retrieval
//!   (doc-ordered posting lists partitioned into blocks carrying
//!   max-impact bounds, driven by Block-Max WAND, with the exhaustive
//!   scorer kept as the test reference), used by the co-occurrence
//!   interpretation method (Eq. (3)) and by the text-retrieval
//!   fallback (Sec. 3.2);
//! * [`expansion`] — embedding-based query expansion, used to strengthen
//!   the GZ12 opinion-based entity-ranking baseline (Sec. 5.3).

pub mod expansion;
pub mod index;

pub use expansion::expand_query;
pub use index::{
    bm25_term_score, DocId, InvertedIndex, RetrievalStats, SearchHit, BM25_B, BM25_K1,
    DEFAULT_BLOCK_SIZE,
};
