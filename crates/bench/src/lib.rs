//! Shared fixtures for the paper-reproduction benchmark harness.
//!
//! Every bench in `benches/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the per-experiment index) by printing the
//! reproduced rows during setup and then measuring the core operation with
//! Criterion.

use opine_core::{build, BuildConfig, OpineDb, OpineError, QueryOutput};
use opine_corpus::hotel::hotel_spec;
use opine_corpus::restaurant::restaurant_spec;
use opine_corpus::{Corpus, CorpusConfig};
use opine_embed::Word2VecConfig;
use opine_eval::EvalQuery;

/// Benchmark-scale hotel corpus (seeded, deterministic).
///
/// Review volume matters for Table 7: the marker/no-marker speedup is a
/// function of extracted phrases per entity, so entities carry dozens of
/// reviews (the paper's hotels average ~345).
pub fn hotel_corpus() -> Corpus {
    Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 100,
            mean_reviews: 48,
            seed: 42,
        },
    )
}

/// Benchmark-scale restaurant corpus.
pub fn restaurant_corpus() -> Corpus {
    Corpus::generate(
        restaurant_spec(),
        &CorpusConfig {
            num_entities: 90,
            mean_reviews: 40,
            seed: 43,
        },
    )
}

/// The build configuration used across benches.
pub fn bench_build_config() -> BuildConfig {
    BuildConfig {
        w2v: Word2VecConfig {
            dim: 48,
            epochs: 2,
            ..Default::default()
        },
        membership_tuples: 1000,
        ..Default::default()
    }
}

/// Builds the OpineDB instance for a corpus at bench scale.
pub fn build_db(corpus: &Corpus) -> OpineDb {
    build(corpus, &bench_build_config())
}

/// Ranks entities for an eval query through the full Subjective SQL path,
/// returning dense entity ids in rank order.
pub fn opine_rank(db: &OpineDb, query: &EvalQuery, k: usize) -> Vec<usize> {
    opine_rank_with(db, query, k, |sql| db.query(sql))
}

/// [`opine_rank`] with the statement run by `evaluate` — the engine, or
/// an arm of its reference evaluator.
pub fn opine_rank_with(
    db: &OpineDb,
    query: &EvalQuery,
    k: usize,
    evaluate: impl Fn(&str) -> Result<QueryOutput, OpineError>,
) -> Vec<usize> {
    let sql = query.to_sql(db.entity_table(), k);
    match evaluate(&sql) {
        Ok(out) => out
            .result
            .rows
            .iter()
            .filter_map(|(row, _)| row[0].as_str().and_then(|key| db.entity_id(key)))
            .collect(),
        Err(_) => Vec::new(),
    }
}

/// Prints a horizontal rule with a title, marking a reproduced artefact.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
