//! The baseline systems of Table 5 (Sec. 5.3 of the paper).
//!
//! * **GZ12 (IR-based)** — the opinion-based entity ranking of Ganesan &
//!   Zhai: each entity is one concatenated review document ranked by BM25,
//!   strengthened with embedding query expansion and per-predicate score
//!   summation, as the paper did to "make the baseline more competitive".
//! * **ByPrice / ByRating** — what a user gets from sorting on
//!   booking.com/yelp.
//! * **k-attribute oracle** — a power user who may pick the best one or
//!   two scraped attribute scores (8 for hotels, more for restaurants) and
//!   rank by their sum; "among all the combinations of attributes, we pick
//!   the one that maximizes sat(Q, E)".

use crate::quality::sat_score;
use crate::workload::EvalQuery;
use opine_corpus::Corpus;
use opine_embed::{Word2Vec, Word2VecConfig};
use opine_ir::{expand_query, InvertedIndex};
use opine_text::{tokenize, Vocab};

/// Rank by ascending price (filter-restricted).
pub fn rank_by_price(query: &EvalQuery, corpus: &Corpus) -> Vec<usize> {
    let mut ids: Vec<usize> = corpus
        .entities
        .iter()
        .filter(|e| query.filter.accepts(e))
        .map(|e| e.id)
        .collect();
    ids.sort_by(|&a, &b| {
        corpus.entities[a]
            .price
            .total_cmp(&corpus.entities[b].price)
    });
    ids
}

/// Rank by descending published rating (filter-restricted).
pub fn rank_by_rating(query: &EvalQuery, corpus: &Corpus) -> Vec<usize> {
    let mut ids: Vec<usize> = corpus
        .entities
        .iter()
        .filter(|e| query.filter.accepts(e))
        .map(|e| e.id)
        .collect();
    ids.sort_by(|&a, &b| {
        corpus.entities[b]
            .rating
            .total_cmp(&corpus.entities[a].rating)
    });
    ids
}

/// The oracle attribute-based ranker.
#[derive(Debug, Clone)]
pub struct KAttributeOracle {
    /// Indices of the scraped attributes available to the user.
    available: Vec<usize>,
    /// How many attributes the user may combine (1 or 2 in the paper).
    pub k: usize,
}

impl KAttributeOracle {
    /// Oracle over the scraped attribute subset of a domain.
    ///
    /// Hotels expose 8 per-aspect scores (mirroring booking.com's Location,
    /// Cleanliness, Staff, Comfort, Facilities, Value, Breakfast, Wifi);
    /// restaurants expose all their aspect scores (yelp's richer filters).
    pub fn new(corpus: &Corpus, k: usize) -> Self {
        let available = if corpus.spec.name == "hotel" {
            vec![7, 0, 6, 3, 9, 10, 5, 8]
        } else {
            (0..corpus.spec.aspects.len()).collect()
        };
        Self { available, k }
    }

    /// Ranks by the sum of the chosen attribute scores, trying every
    /// combination of `k` available attributes and keeping the one with
    /// the best sat score (the paper's oracle selection).
    pub fn rank(&self, query: &EvalQuery, corpus: &Corpus, eval_k: usize) -> Vec<usize> {
        let candidates: Vec<usize> = corpus
            .entities
            .iter()
            .filter(|e| query.filter.accepts(e))
            .map(|e| e.id)
            .collect();
        let combos = self.combinations();
        let mut best: Option<(f64, Vec<usize>)> = None;
        for combo in combos {
            let mut ids = candidates.clone();
            ids.sort_by(|&a, &b| {
                let score = |e: usize| -> f64 {
                    combo
                        .iter()
                        .map(|&attr| corpus.entities[e].aspect_ratings[attr])
                        .sum()
                };
                score(b).total_cmp(&score(a))
            });
            let s = sat_score(query, &ids, corpus, eval_k);
            if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                best = Some((s, ids));
            }
        }
        best.map(|(_, ids)| ids).unwrap_or(candidates)
    }

    fn combinations(&self) -> Vec<Vec<usize>> {
        match self.k {
            1 => self.available.iter().map(|&a| vec![a]).collect(),
            2 => {
                let mut out = Vec::new();
                for (i, &a) in self.available.iter().enumerate() {
                    for &b in &self.available[i + 1..] {
                        out.push(vec![a, b]);
                    }
                }
                out
            }
            k => {
                // Fall back to singles for unsupported k, padded to length k.
                self.available.iter().map(|&a| vec![a; k.max(1)]).collect()
            }
        }
    }
}

/// The GZ12 IR baseline: BM25 over concatenated entity documents with
/// embedding query expansion.
pub struct IrBaseline {
    index: InvertedIndex,
    vocab: Vocab,
    w2v: Word2Vec,
    /// Neighbours added per query term.
    pub expansions: usize,
    /// Minimum cosine for an expansion term.
    pub min_similarity: f32,
}

impl IrBaseline {
    /// Indexes one document per entity and trains a small word2vec model
    /// for query expansion.
    pub fn build(corpus: &Corpus, seed: u64) -> Self {
        let mut vocab = Vocab::new();
        let mut index = InvertedIndex::new();
        let mut sentences = Vec::new();
        for entity in &corpus.entities {
            let doc = corpus.entity_document(entity.id);
            for sentence in opine_text::split_sentences(&doc) {
                let toks = tokenize(sentence);
                sentences.push(vocab.intern_all(&toks));
            }
            index.add_document(&doc, &mut vocab);
        }
        let w2v = Word2Vec::train(
            &sentences,
            vocab.len(),
            &Word2VecConfig {
                dim: 32,
                epochs: 2,
                seed,
                ..Default::default()
            },
        );
        Self {
            index,
            vocab,
            w2v,
            expansions: 2,
            min_similarity: 0.4,
        }
    }

    /// Ranks entities for a query: per-predicate BM25 with expansion,
    /// summed across predicates (the best multi-predicate combiner of the
    /// strengthened baseline).
    pub fn rank(&self, query: &EvalQuery, corpus: &Corpus) -> Vec<usize> {
        let mut scores: Vec<(usize, f64)> = corpus
            .entities
            .iter()
            .filter(|e| query.filter.accepts(e))
            .map(|e| (e.id, 0.0))
            .collect();
        for p in &query.predicates {
            let terms = expand_query(
                &p.text,
                &self.w2v,
                &self.vocab,
                self.expansions,
                self.min_similarity,
            );
            for (id, score) in scores.iter_mut() {
                *score += self.index.bm25(opine_ir::DocId(*id as u32), &terms);
            }
        }
        scores.sort_by(|a, b| b.1.total_cmp(&a.1));
        scores.into_iter().map(|(id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_queries, ObjectiveFilter};
    use opine_corpus::hotel::hotel_spec;
    use opine_corpus::workload::hotel_workload;
    use opine_corpus::{Corpus, CorpusConfig};

    fn setup() -> (Corpus, Vec<EvalQuery>) {
        let corpus = Corpus::generate(
            hotel_spec(),
            &CorpusConfig {
                num_entities: 24,
                mean_reviews: 10,
                seed: 21,
            },
        );
        let bank = hotel_workload(&corpus.spec);
        let queries = generate_queries(&bank, 8, 2, ObjectiveFilter::None, 23);
        (corpus, queries)
    }

    #[test]
    fn price_ranking_is_ascending() {
        let (corpus, queries) = setup();
        let ranked = rank_by_price(&queries[0], &corpus);
        for w in ranked.windows(2) {
            assert!(corpus.entities[w[0]].price <= corpus.entities[w[1]].price);
        }
    }

    #[test]
    fn rating_ranking_is_descending() {
        let (corpus, queries) = setup();
        let ranked = rank_by_rating(&queries[0], &corpus);
        for w in ranked.windows(2) {
            assert!(corpus.entities[w[0]].rating >= corpus.entities[w[1]].rating);
        }
    }

    #[test]
    fn filters_restrict_candidates() {
        let (corpus, _) = setup();
        let bank = hotel_workload(&corpus.spec);
        let q = &generate_queries(&bank, 1, 2, ObjectiveFilter::Amsterdam, 3)[0];
        for e in rank_by_price(q, &corpus) {
            assert_eq!(corpus.entities[e].city, "Amsterdam");
        }
    }

    #[test]
    fn two_attributes_beat_one_attribute() {
        let (corpus, queries) = setup();
        let one = KAttributeOracle::new(&corpus, 1);
        let two = KAttributeOracle::new(&corpus, 2);
        let q1 =
            crate::quality::workload_quality(&queries, &corpus, 10, |q| one.rank(q, &corpus, 10));
        let q2 =
            crate::quality::workload_quality(&queries, &corpus, 10, |q| two.rank(q, &corpus, 10));
        assert!(q2 >= q1, "2-attr {q2} should be >= 1-attr {q1}");
    }

    #[test]
    fn ir_baseline_beats_price_sort() {
        let (corpus, queries) = setup();
        let ir = IrBaseline::build(&corpus, 7);
        let q_ir = crate::quality::workload_quality(&queries, &corpus, 10, |q| ir.rank(q, &corpus));
        let q_price =
            crate::quality::workload_quality(&queries, &corpus, 10, |q| rank_by_price(q, &corpus));
        assert!(
            q_ir > q_price,
            "IR ({q_ir}) should beat ByPrice ({q_price})"
        );
    }
}
