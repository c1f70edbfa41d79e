//! The subjective query interpreter (Sec. 3.2, Fig. 5 of the paper).
//!
//! Three stages, each falling back to the next when confidence is low:
//!
//! 1. **word2vec** — find the linguistic variation most similar to the
//!    query predicate; interpret onto that variation's attribute when the
//!    similarity reaches `theta1`;
//! 2. **co-occurrence** — retrieve the top-k positive reviews containing
//!    the predicate (ranked by `BM25(d, q) · senti(d)`, Eq. 3) and pick the
//!    attributes whose extractions co-occur most, scored by
//!    `freq_k(A) · idf(A)`;
//! 3. **text retrieval** — give up on the schema and fall back to BM25
//!    over concatenated entity documents with a sigmoid link.

use crate::cache::{BoundedCache, CacheStats};
use crate::domain::LinguisticDomain;
use crate::summary::MarkerSet;
use opine_embed::PhraseEmbedder;
use opine_ir::InvertedIndex;
use opine_text::Vocab;

/// Interpreter thresholds and fan-outs.
#[derive(Debug, Clone)]
pub struct InterpreterConfig {
    /// Minimum w2v similarity for a direct interpretation (paper: 0.5).
    pub theta1: f32,
    /// Minimum co-occurrence score `freq·idf` for the second stage.
    pub theta2: f64,
    /// Top-k reviews examined by the co-occurrence method.
    pub top_k_reviews: usize,
    /// Number of attributes a co-occurrence interpretation may name
    /// (paper's example uses 2: service ⊕ style).
    pub top_n_attributes: usize,
    /// Fraction of relevant top-k reviews that must mention *all* chosen
    /// attributes for the interpretation to become conjunctive (⊗).
    pub conjunction_threshold: f64,
    /// Capacity of the predicate → interpretation memo. The three-stage
    /// cascade (word2vec scan → BM25 retrieval + co-occurrence scoring →
    /// text fallback) is by far the most expensive per-predicate step, so
    /// distinct predicates are interpreted once and replayed from here.
    pub cache_capacity: usize,
}

impl Default for InterpreterConfig {
    fn default() -> Self {
        Self {
            // Sec. 3.2 quotes 0.5 as the stage-1 threshold, but the Table 8
            // combined method "with the fallback similarity threshold set
            // to 0.8" is what the evaluation ships; 0.8 also routes concept
            // predicates ("romantic getaway") to the co-occurrence stage.
            theta1: 0.8,
            theta2: 1.0,
            top_k_reviews: 40,
            top_n_attributes: 2,
            conjunction_threshold: 0.6,
            cache_capacity: 1024,
        }
    }
}

/// The result of interpreting one query predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Interpretation {
    /// Stage 1: the predicate maps to a single attribute; the degree of
    /// truth is computed from that attribute's summary against the
    /// original query phrase.
    Direct {
        /// Attribute index.
        attribute: usize,
        /// Similarity to the best-matching linguistic variation.
        similarity: f32,
    },
    /// Stage 2: a combination of `(attribute, marker)` conditions.
    CoOccur {
        /// The `A.m` terms.
        terms: Vec<(usize, usize)>,
        /// `⊗` when true, `⊕` when false.
        conjunctive: bool,
    },
    /// Stage 3: fall back to text retrieval over entity documents.
    TextFallback,
}

/// Per-review extraction digest used by the co-occurrence stage: which
/// `(attribute, marker)` pairs were extracted from each review.
pub type ReviewDigest = Vec<Vec<(usize, usize)>>;

/// The subjective query interpreter.
#[derive(Debug)]
pub struct Interpreter {
    config: InterpreterConfig,
    domains: Vec<LinguisticDomain>,
    marker_sets: Vec<MarkerSet>,
    review_index: InvertedIndex,
    review_sentiments: Vec<f64>,
    review_digest: ReviewDigest,
    /// Number of reviews containing at least one extraction of attribute A.
    attr_review_df: Vec<u32>,
    /// Bounded predicate → interpretation memo (see
    /// [`InterpreterConfig::cache_capacity`]).
    cache: BoundedCache<Interpretation>,
}

impl Interpreter {
    /// Assembles an interpreter over prepared per-attribute domains, the
    /// review inverted index, per-review sentiment, and the extraction
    /// digest (aligned with the review index's doc ids).
    pub fn new(
        config: InterpreterConfig,
        domains: Vec<LinguisticDomain>,
        marker_sets: Vec<MarkerSet>,
        review_index: InvertedIndex,
        review_sentiments: Vec<f64>,
        review_digest: ReviewDigest,
    ) -> Self {
        let num_attrs = domains.len();
        let mut attr_review_df = vec![0u32; num_attrs];
        for digest in &review_digest {
            let mut seen = vec![false; num_attrs];
            for &(a, _) in digest {
                if !seen[a] {
                    seen[a] = true;
                    attr_review_df[a] += 1;
                }
            }
        }
        let cache = BoundedCache::new(config.cache_capacity);
        // Freeze the block-max retrieval structure now, not inside the
        // first cold interpretation.
        review_index.freeze();
        Self {
            config,
            domains,
            marker_sets,
            review_index,
            review_sentiments,
            review_digest,
            attr_review_df,
            cache,
        }
    }

    /// The marker sets, indexed by attribute.
    pub fn marker_sets(&self) -> &[MarkerSet] {
        &self.marker_sets
    }

    /// The linguistic domains, indexed by attribute.
    pub fn domains(&self) -> &[LinguisticDomain] {
        &self.domains
    }

    /// The configured thresholds.
    pub fn config(&self) -> &InterpreterConfig {
        &self.config
    }

    /// The review inverted index the co-occurrence stage retrieves
    /// from — exposed so the engine can aggregate its retrieval
    /// counters and tests can run its exhaustive reference scorer.
    pub fn review_index(&self) -> &InvertedIndex {
        &self.review_index
    }

    /// Interprets `predicate` with the full three-stage fallback.
    pub fn interpret(
        &self,
        predicate: &str,
        embedder: &PhraseEmbedder,
        vocab: &Vocab,
    ) -> Interpretation {
        if let Some(direct) = self.word2vec_stage(predicate, embedder, vocab) {
            return direct;
        }
        if let Some(cooccur) = self.cooccurrence_stage(predicate, vocab) {
            return cooccur;
        }
        Interpretation::TextFallback
    }

    /// Interprets `predicate`, replaying from the bounded memo when the
    /// predicate has been interpreted before. Thread-safe; the cascade
    /// runs outside the cache lock.
    pub fn interpret_cached(
        &self,
        predicate: &str,
        embedder: &PhraseEmbedder,
        vocab: &Vocab,
    ) -> Interpretation {
        self.cache
            .get_or_insert_with(predicate, || self.interpret(predicate, embedder, vocab))
    }

    /// Hit/miss counters of the interpretation memo.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops all memoized interpretations (counters survive).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Stage 1 only (for the Table 8 ablation).
    pub fn word2vec_stage(
        &self,
        predicate: &str,
        embedder: &PhraseEmbedder,
        vocab: &Vocab,
    ) -> Option<Interpretation> {
        let mut rep = embedder.rep(predicate, vocab);
        opine_embed::normalize(&mut rep);
        let mut best: Option<(usize, f32)> = None;
        for (attr, domain) in self.domains.iter().enumerate() {
            if let Some((_, sim)) = domain.best_match(&rep) {
                if best.is_none_or(|(_, b)| sim > b) {
                    best = Some((attr, sim));
                }
            }
        }
        let (attribute, similarity) = best?;
        if similarity < self.config.theta1 {
            return None;
        }
        Some(Interpretation::Direct {
            attribute,
            similarity,
        })
    }

    /// Stage 2 only (for the Table 8 ablation).
    pub fn cooccurrence_stage(&self, predicate: &str, vocab: &Vocab) -> Option<Interpretation> {
        // Retrieve candidate reviews by BM25 and rescore with sentiment
        // (Eq. 3), keeping positive reviews only.
        let raw_hits = self
            .review_index
            .search(predicate, self.config.top_k_reviews * 4, vocab);
        let mut scored: Vec<(usize, f64)> = raw_hits
            .iter()
            .filter_map(|h| {
                let senti = self.review_sentiments[h.doc.index()];
                (senti > 0.0).then_some((h.doc.index(), h.score * senti))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(self.config.top_k_reviews);
        if scored.is_empty() {
            return None;
        }

        // freq_k(A) and the per-(A, marker) frequencies in the top-k set.
        let num_attrs = self.domains.len();
        let mut freq = vec![0u32; num_attrs];
        let mut marker_freq: Vec<std::collections::HashMap<usize, u32>> =
            vec![Default::default(); num_attrs];
        for &(doc, _) in &scored {
            for &(a, m) in &self.review_digest[doc] {
                freq[a] += 1;
                *marker_freq[a].entry(m).or_insert(0) += 1;
            }
        }

        let n_reviews = self.review_index.num_docs() as f64;
        let mut attr_scores: Vec<(usize, f64)> = (0..num_attrs)
            .filter(|&a| freq[a] > 0)
            .map(|a| {
                let idf = (n_reviews / (1.0 + self.attr_review_df[a] as f64))
                    .ln()
                    .max(0.0);
                (a, freq[a] as f64 * idf)
            })
            .collect();
        attr_scores.sort_by(|a, b| b.1.total_cmp(&a.1));
        attr_scores.truncate(self.config.top_n_attributes);
        if attr_scores
            .first()
            .is_none_or(|(_, s)| *s < self.config.theta2)
        {
            return None;
        }

        let terms: Vec<(usize, usize)> = attr_scores
            .iter()
            .map(|&(a, _)| {
                // Tie-break by smallest marker index: `HashMap`
                // iteration order is arbitrary, and a count-only max
                // made tied markers resolve differently run to run.
                let marker = marker_freq[a]
                    .iter()
                    .max_by_key(|(&m, &c)| (c, std::cmp::Reverse(m)))
                    .map(|(&m, _)| m)
                    .unwrap_or(0);
                (a, marker)
            })
            .collect();

        // ⊕ vs ⊗: conjunctive when the chosen attributes are usually
        // mentioned together in the relevant reviews.
        let conjunctive = if terms.len() < 2 {
            false
        } else {
            let mut any = 0usize;
            let mut all = 0usize;
            for &(doc, _) in &scored {
                let digest = &self.review_digest[doc];
                let has: Vec<bool> = terms
                    .iter()
                    .map(|&(a, _)| digest.iter().any(|&(da, _)| da == a))
                    .collect();
                if has.iter().any(|&h| h) {
                    any += 1;
                }
                if has.iter().all(|&h| h) {
                    all += 1;
                }
            }
            any > 0 && (all as f64 / any as f64) >= self.config.conjunction_threshold
        };

        Some(Interpretation::CoOccur { terms, conjunctive })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SummaryKind;
    use opine_embed::{Word2Vec, Word2VecConfig};
    use opine_text::IdfModel;

    /// Two attributes (cleanliness, service); reviews mention "romantic
    /// getaway" together with positive service phrases.
    fn fixture() -> (Vocab, PhraseEmbedder, Interpreter) {
        let mut vocab = Vocab::new();
        let review_texts = [
            "the room was very clean and fresh",
            "spotless room lovely stay",
            "a romantic getaway with exceptional service",
            "romantic getaway exceptional service wonderful",
            "the service was exceptional",
            "the room was dirty and bad",
        ];
        let mut review_index = InvertedIndex::new();
        let mut interned = Vec::new();
        for _ in 0..20 {
            for t in &review_texts {
                let toks = opine_text::tokenize(t);
                interned.push(toks.iter().map(|w| vocab.intern(w)).collect::<Vec<_>>());
            }
        }
        for t in &review_texts {
            review_index.add_document(t, &mut vocab);
        }
        let mut idf = IdfModel::new(&vocab);
        for s in &interned {
            idf.add_document(s);
        }
        let w2v = Word2Vec::train(
            &interned,
            vocab.len(),
            &Word2VecConfig {
                dim: 16,
                epochs: 6,
                seed: 3,
                ..Default::default()
            },
        );
        let embedder = PhraseEmbedder::new(w2v, idf);

        let mut clean_domain = LinguisticDomain::new();
        for (p, s) in [("very clean", 0.9), ("spotless", 0.95), ("dirty", -0.7)] {
            clean_domain.observe(p, s, &embedder, &vocab);
        }
        let mut service_domain = LinguisticDomain::new();
        for (p, s) in [("exceptional", 0.95), ("bad", -0.6)] {
            service_domain.observe(p, s, &embedder, &vocab);
        }
        let clean_set =
            MarkerSet::discover("room_cleanliness", &clean_domain, SummaryKind::Linear, 3, 1);
        let service_set =
            MarkerSet::discover("service", &service_domain, SummaryKind::Linear, 2, 1);

        // Digest: review 0,1 mention cleanliness; 2,3,4 service; 5 cleanliness.
        let ex_marker = |set: &MarkerSet, phrase: &str| set.marker_index(phrase).unwrap_or(0);
        let digest: ReviewDigest = vec![
            vec![(0, ex_marker(&clean_set, "very clean"))],
            vec![(0, ex_marker(&clean_set, "spotless"))],
            vec![(1, ex_marker(&service_set, "exceptional"))],
            vec![(1, ex_marker(&service_set, "exceptional"))],
            vec![(1, ex_marker(&service_set, "exceptional"))],
            vec![(0, ex_marker(&clean_set, "dirty"))],
        ];
        let sentiments = vec![0.7, 0.8, 0.8, 0.85, 0.9, -0.6];

        let interp = Interpreter::new(
            InterpreterConfig {
                theta2: 0.1,
                ..Default::default()
            },
            vec![clean_domain, service_domain],
            vec![clean_set, service_set],
            review_index,
            sentiments,
            digest,
        );
        (vocab, embedder, interp)
    }

    #[test]
    fn word2vec_stage_handles_direct_predicates() {
        let (vocab, embedder, interp) = fixture();
        match interp.interpret("very clean room", &embedder, &vocab) {
            Interpretation::Direct {
                attribute,
                similarity,
            } => {
                assert_eq!(attribute, 0);
                assert!(similarity >= 0.5);
            }
            other => panic!("expected Direct, got {other:?}"),
        }
    }

    #[test]
    fn cooccurrence_stage_maps_romantic_getaway_to_service() {
        let (vocab, _, interp) = fixture();
        let result = interp.cooccurrence_stage("romantic getaway", &vocab);
        match result {
            Some(Interpretation::CoOccur { terms, .. }) => {
                assert!(
                    terms.iter().any(|&(a, _)| a == 1),
                    "service attribute expected in {terms:?}"
                );
            }
            other => panic!("expected CoOccur, got {other:?}"),
        }
    }

    #[test]
    fn unknown_predicate_falls_back_to_text() {
        let (vocab, embedder, interp) = fixture();
        let result = interp.interpret("zebra enclosure paddock", &embedder, &vocab);
        assert_eq!(result, Interpretation::TextFallback);
    }

    #[test]
    fn stage1_prefers_lexically_close_predicates() {
        let (vocab, embedder, interp) = fixture();
        // Co-occurrence-trained embeddings legitimately pull "romantic
        // getaway" toward "exceptional" (they share review contexts), so
        // the robust property is *relative*: the direct predicate must
        // match its variation more strongly than the concept phrase
        // matches anything.
        let direct = interp
            .word2vec_stage("very clean room", &embedder, &vocab)
            .expect("direct predicate must interpret");
        let Interpretation::Direct {
            similarity: s_direct,
            ..
        } = direct
        else {
            panic!("expected Direct");
        };
        let concept_sim = match interp.word2vec_stage("romantic getaway", &embedder, &vocab) {
            Some(Interpretation::Direct { similarity, .. }) => similarity,
            _ => -1.0,
        };
        assert!(
            s_direct > concept_sim,
            "direct {s_direct} should beat concept {concept_sim}"
        );
    }
}
