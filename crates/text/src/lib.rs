//! Text processing substrate for OpineDB.
//!
//! Provides the low-level machinery every other crate builds on:
//!
//! * [`tokenize`] / [`split_sentences`] — normalising tokenizer and sentence
//!   splitter tuned for review text (keeps negations, drops punctuation);
//! * [`Vocab`] — string interning so phrases can be compared as `u32` ids;
//! * [`IdfModel`] — document-frequency statistics and inverse document
//!   frequency as used by Eq. (1) of the paper and by BM25;
//! * [`ngrams`] — n-gram extraction used to mine candidate phrases;
//! * [`stopwords`] — the stopword list shared by retrieval and embedding.

pub mod idf;
pub mod ngram;
pub mod stopwords;
pub mod token;
pub mod vocab;

pub use idf::IdfModel;
pub use ngram::{bigrams, ngrams};
pub use stopwords::is_stopword;
pub use token::{is_content_token, split_sentences, tokenize, tokenize_keep_stops};
pub use vocab::{Vocab, WordId};
