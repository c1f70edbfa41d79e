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
    /// for bit, with both norms taken outside the loop, and the last of
    /// equal maxima under `f32::total_cmp` (`Iterator::max_by`'s rule).
    /// The dot products run eight variations at a time, each summed in
    /// `opine_embed::dot`'s order.
    pub fn best_match<'a>(&'a self, query_rep: &[f32]) -> Option<(&'a Variation, f32)> {
        let query_norm = opine_embed::norm(query_rep);
        let mut best: Option<(&'a Variation, f32)> = None;
        let mut offer = |v: &'a Variation, dot: f32| {
            let cosine = if query_norm == 0.0 || v.norm == 0.0 {
                0.0
            } else {
                (dot / (query_norm * v.norm)).clamp(-1.0, 1.0)
            };
            if best.is_none_or(|(_, b)| cosine.total_cmp(&b).is_ge()) {
                best = Some((v, cosine));
            }
        };
        let mut blocks = self.variations.chunks_exact(LANES);
        for block in &mut blocks {
            let dots = lane_dots::<LANES>(query_rep, std::array::from_fn(|l| &block[l].rep[..]));
            for (v, dot) in block.iter().zip(dots) {
                offer(v, dot);
            }
        }
        for v in blocks.remainder() {
            offer(v, opine_embed::dot(query_rep, &v.rep));
        }
        best
    }
}

/// Variations per pass of [`LinguisticDomain::best_match`].
const LANES: usize = 8;

/// `opine_embed::dot(query, reps[l])` for every lane, as `L` independent
/// chains: each folds `query[d] * rep[d]` in `d` order from `-0.0`,
/// where `Sum` for `f32` starts. Every rep has the query's length, as
/// `dot` requires.
fn lane_dots<const L: usize>(query: &[f32], reps: [&[f32]; L]) -> [f32; L] {
    let dim = query.len();
    debug_assert!(reps.iter().all(|rep| rep.len() == dim));
    let reps = reps.map(|rep| &rep[..dim]);
    let mut sums = [-0.0f32; L];
    for d in 0..dim {
        for (sum, rep) in sums.iter_mut().zip(&reps) {
            *sum += query[d] * rep[d];
        }
    }
    sums
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

    /// `best_match` keeps `max_by`'s tie rule — the last of equal
    /// maxima wins — over 0, 1, 7, 8, 9 and 17 variations (nothing, a
    /// tail alone, one block, a block and a tail, two blocks and a tail),
    /// with duplicate representations, a zero-norm variation and a zero
    /// query.
    #[test]
    fn best_match_returns_the_last_of_equal_maxima() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(39);
        const DIM: usize = 10;
        let mut random_rep = || -> Vec<f32> {
            let mut rep: Vec<f32> = (0..DIM).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
            opine_embed::normalize(&mut rep);
            rep
        };
        let shared = random_rep();
        for n in [0usize, 1, 7, 8, 9, 17] {
            let mut d = LinguisticDomain::new();
            for i in 0..n {
                let rep = match i {
                    // Every fourth variation shares one representation.
                    _ if i % 4 == 0 => shared.clone(),
                    // An out-of-vocabulary phrase embeds to all zeros.
                    5 => vec![0.0; DIM],
                    _ => random_rep(),
                };
                d.insert(&format!("v{i}"), 0.0, rep);
            }
            let last_shared = n.checked_sub(1).map(|last| format!("v{}", last / 4 * 4));
            let last = n.checked_sub(1).map(|last| format!("v{last}"));
            for (q, query) in [vec![0.0; DIM], shared.clone(), random_rep()]
                .iter()
                .enumerate()
            {
                let got = d.best_match(query);
                let expected = d
                    .variations()
                    .iter()
                    .map(|v| (v, opine_embed::cosine(query, &v.rep)))
                    .max_by(|a, b| a.1.total_cmp(&b.1));
                let bits =
                    |m: Option<(&Variation, f32)>| m.map(|(v, s)| (v.phrase.clone(), s.to_bits()));
                assert_eq!(bits(got), bits(expected), "n={n} query {q}");
                let winner = got.map(|(v, _)| v.phrase.clone());
                match q {
                    // Every cosine is 0: the last variation wins.
                    0 => assert_eq!(winner, last, "n={n}"),
                    // The shared representation ties at the top.
                    1 => assert_eq!(winner, last_shared, "n={n}"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn empty_domain_has_no_match() {
        let d = LinguisticDomain::new();
        assert!(d.best_match(&[1.0, 0.0]).is_none());
        assert!(d.is_empty());
    }
}
