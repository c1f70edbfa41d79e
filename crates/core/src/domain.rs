//! Linguistic domains: the phrase sets underlying subjective attributes.

use opine_embed::PhraseEmbedder;
use opine_text::Vocab;
use std::collections::HashMap;

/// One linguistic variation and its corpus statistics.
#[derive(Debug, Clone)]
pub struct Variation {
    /// The opinion phrase, e.g. "very clean".
    pub phrase: String,
    /// Number of extracted occurrences across the corpus.
    pub count: u32,
    /// Average sentiment of the phrase in context.
    pub sentiment: f64,
    /// IDF-weighted phrase embedding (Eq. 1), unit-normalized.
    pub rep: Vec<f32>,
    /// `norm(rep)` as `opine_embed::cosine` would compute it (1 up to
    /// rounding, 0 for an out-of-vocabulary phrase), taken once so that
    /// [`LinguisticDomain::best_match`] costs one dot product per
    /// variation.
    norm: f32,
}

/// The linguistic domain of one subjective attribute: "a set of short
/// linguistic phrases that describe a particular aspect of an object"
/// (Sec. 2). Bootstrapped from extraction rather than enumerated.
#[derive(Debug, Clone, Default)]
pub struct LinguisticDomain {
    variations: Vec<Variation>,
    index: HashMap<String, usize>,
}

impl LinguisticDomain {
    /// Empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `phrase` with the given sentiment,
    /// creating the variation on first sight.
    ///
    /// The embedding is computed once on creation (phrases are stable) and
    /// the sentiment is maintained as a running mean.
    pub fn observe(
        &mut self,
        phrase: &str,
        sentiment: f64,
        embedder: &PhraseEmbedder,
        vocab: &Vocab,
    ) {
        if let Some(&i) = self.index.get(phrase) {
            let v = &mut self.variations[i];
            v.sentiment = (v.sentiment * v.count as f64 + sentiment) / (v.count as f64 + 1.0);
            v.count += 1;
            return;
        }
        let mut rep = embedder.rep(phrase, vocab);
        opine_embed::normalize(&mut rep);
        self.insert(phrase, sentiment, rep);
    }

    /// Appends a first-seen variation with its representation.
    fn insert(&mut self, phrase: &str, sentiment: f64, rep: Vec<f32>) {
        self.index.insert(phrase.to_string(), self.variations.len());
        self.variations.push(Variation {
            phrase: phrase.to_string(),
            count: 1,
            sentiment,
            norm: opine_embed::norm(&rep),
            rep,
        });
    }

    /// All variations, in first-seen order.
    pub fn variations(&self) -> &[Variation] {
        &self.variations
    }

    /// Lookup of a variation by exact phrase.
    pub fn get(&self, phrase: &str) -> Option<&Variation> {
        self.index_of(phrase).map(|i| &self.variations[i])
    }

    /// Position of a variation in [`Self::variations`], by exact phrase.
    pub fn index_of(&self, phrase: &str) -> Option<usize> {
        self.index.get(phrase).copied()
    }

    /// Number of distinct variations.
    pub fn len(&self) -> usize {
        self.variations.len()
    }

    /// True when no variation has been observed.
    pub fn is_empty(&self) -> bool {
        self.variations.is_empty()
    }

    /// Total occurrences across all variations.
    pub fn total_count(&self) -> u64 {
        self.variations.iter().map(|v| v.count as u64).sum()
    }

    /// The variation most similar to a query representation, with its
    /// cosine similarity: `opine_embed::cosine(query_rep, &v.rep)` bit
    /// for bit, with both norms taken outside the loop.
    pub fn best_match(&self, query_rep: &[f32]) -> Option<(&Variation, f32)> {
        let query_norm = opine_embed::norm(query_rep);
        self.variations
            .iter()
            .map(|v| {
                let cosine = if query_norm == 0.0 || v.norm == 0.0 {
                    0.0
                } else {
                    (opine_embed::dot(query_rep, &v.rep) / (query_norm * v.norm)).clamp(-1.0, 1.0)
                };
                (v, cosine)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opine_embed::{Word2Vec, Word2VecConfig};
    use opine_text::{IdfModel, WordId};

    fn embedder() -> (Vocab, PhraseEmbedder) {
        let mut vocab = Vocab::new();
        let sentences = [
            vec!["room", "clean", "nice"],
            vec!["room", "spotless", "nice"],
            vec!["room", "dirty", "bad"],
        ];
        let interned: Vec<Vec<WordId>> = (0..30)
            .flat_map(|_| sentences.iter())
            .map(|s| s.iter().map(|w| vocab.intern(w)).collect())
            .collect();
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
                seed: 2,
                ..Default::default()
            },
        );
        (vocab, PhraseEmbedder::new(w2v, idf))
    }

    #[test]
    fn observe_counts_and_averages() {
        let (vocab, e) = embedder();
        let mut d = LinguisticDomain::new();
        d.observe("clean", 0.8, &e, &vocab);
        d.observe("clean", 0.6, &e, &vocab);
        d.observe("dirty", -0.7, &e, &vocab);
        assert_eq!(d.len(), 2);
        assert_eq!(d.total_count(), 3);
        let clean = d.get("clean").unwrap();
        assert_eq!(clean.count, 2);
        assert!((clean.sentiment - 0.7).abs() < 1e-9);
    }

    #[test]
    fn best_match_finds_similar_variation() {
        let (vocab, e) = embedder();
        let mut d = LinguisticDomain::new();
        d.observe("clean", 0.8, &e, &vocab);
        d.observe("dirty", -0.7, &e, &vocab);
        let mut q = e.rep("spotless", &vocab);
        opine_embed::normalize(&mut q);
        let (best, sim) = d.best_match(&q).unwrap();
        assert_eq!(best.phrase, "clean");
        assert!(sim > -1.0);
    }

    #[test]
    fn best_match_equals_max_by_cosine_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        const DIM: usize = 12;
        let mut random_rep = |unit: bool| -> Vec<f32> {
            let scale = if unit { 1.0 } else { rng.gen::<f32>() * 40.0 };
            let mut rep: Vec<f32> = (0..DIM).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
            opine_embed::normalize(&mut rep);
            rep.iter_mut().for_each(|x| *x *= scale);
            rep
        };
        for round in 0..50 {
            let mut d = LinguisticDomain::new();
            for i in 0..40 {
                let rep = match i {
                    // An out-of-vocabulary phrase embeds to all zeros.
                    7 => vec![0.0; DIM],
                    // A duplicate representation: ties resolve alike.
                    8 => d.variations()[3].rep.clone(),
                    _ => random_rep(i % 3 != 0),
                };
                d.insert(&format!("v{i}"), 0.0, rep);
            }
            let query = if round == 0 {
                vec![0.0; DIM]
            } else {
                random_rep(round % 2 == 0)
            };
            let (expected, expected_sim) = d
                .variations()
                .iter()
                .map(|v| (v, opine_embed::cosine(&query, &v.rep)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let (best, sim) = d.best_match(&query).unwrap();
            assert_eq!(best.phrase, expected.phrase, "round {round}");
            assert_eq!(sim.to_bits(), expected_sim.to_bits(), "round {round}");
        }
    }

    #[test]
    fn empty_domain_has_no_match() {
        let d = LinguisticDomain::new();
        assert!(d.best_match(&[1.0, 0.0]).is_none());
        assert!(d.is_empty());
    }
}
