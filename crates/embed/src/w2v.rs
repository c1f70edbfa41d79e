//! Skip-gram word2vec with negative sampling, trained from scratch.
//!
//! Deterministic given the seed in [`Word2VecConfig`]. This replaces the
//! Gensim dependency of the original system; the algorithm follows Mikolov
//! et al. (2013) with the standard unigram^0.75 negative-sampling table and
//! linearly decaying learning rate.
//!
//! As in the reference implementation, the input and output vectors are
//! two flat row-major matrices (`syn0` and `syn1neg`, one row of `dim`
//! floats per word), and a positive pair's center gradient is one buffer
//! reused across pairs, so training allocates nothing per pair. Every
//! float operation and its order is that of a per-row layout: the
//! trained vectors are bit-identical to it.

use crate::vector::{add_scaled, dot};
use opine_text::{Vocab, WordId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters for [`Word2Vec::train`].
#[derive(Debug, Clone)]
pub struct Word2VecConfig {
    /// Embedding dimensionality (the paper uses a few hundred; 48 is plenty
    /// for our vocabulary sizes and keeps training fast).
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to 1e-4.
    pub learning_rate: f32,
    /// Minimum corpus frequency for a word to receive a trained vector.
    pub min_count: u32,
    /// RNG seed: training is fully deterministic for a given seed.
    pub seed: u64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Self {
            dim: 48,
            window: 4,
            negative: 5,
            epochs: 3,
            learning_rate: 0.025,
            min_count: 2,
            seed: 42,
        }
    }
}

/// A trained word-embedding table.
#[derive(Debug, Clone)]
pub struct Word2Vec {
    dim: usize,
    /// One row of `dim` floats per word id, row-major.
    vectors: Vec<f32>,
    counts: Vec<u32>,
}

impl Word2Vec {
    /// Trains embeddings on interned sentences.
    ///
    /// `vocab_len` must cover every id in `sentences`. Words below
    /// `min_count` keep their (small random) initial vectors, so every word
    /// id has *some* vector, mirroring Gensim's behaviour of simply not
    /// updating rare words when `min_count` filters them.
    pub fn train(sentences: &[Vec<WordId>], vocab_len: usize, config: &Word2VecConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dim = config.dim;
        let row = |word: usize| word * dim..(word + 1) * dim;

        let mut counts = vec![0u32; vocab_len];
        for s in sentences {
            for &w in s {
                counts[w.index()] += 1;
            }
        }

        // Input vectors: small random init. Output (context) vectors: zeros.
        let mut input: Vec<f32> = (0..vocab_len * dim)
            .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
            .collect();
        let mut output = vec![0.0f32; vocab_len * dim];

        let neg_table = build_negative_table(&counts);
        if neg_table.is_empty() {
            return Self {
                dim,
                vectors: input,
                counts,
            };
        }

        let total_pairs: usize =
            sentences.iter().map(|s| s.len()).sum::<usize>().max(1) * config.epochs;
        let mut seen = 0usize;
        let mut grad_center = vec![0.0f32; dim];

        for _epoch in 0..config.epochs {
            for sentence in sentences {
                for (pos, &center) in sentence.iter().enumerate() {
                    seen += 1;
                    if counts[center.index()] < config.min_count {
                        continue;
                    }
                    let progress = seen as f32 / total_pairs as f32;
                    let lr = (config.learning_rate * (1.0 - progress)).max(1e-4);
                    let lo = pos.saturating_sub(config.window);
                    let hi = (pos + config.window + 1).min(sentence.len());
                    let center = center.index();
                    for (ctx_pos, &context) in sentence.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos || counts[context.index()] < config.min_count {
                            continue;
                        }
                        let context = context.index();
                        grad_center.fill(0.0);
                        // The positive sample plus `negative` draws from
                        // the noise distribution. Only output rows change
                        // here, so the center row is read in place.
                        let center_vec = &input[row(center)];
                        for sample in 0..=config.negative {
                            let (target, label) = if sample == 0 {
                                (context, 1.0f32)
                            } else {
                                let t = neg_table[rng.gen_range(0..neg_table.len())] as usize;
                                if t == context {
                                    continue;
                                }
                                (t, 0.0)
                            };
                            let target_vec = &mut output[row(target)];
                            let score = sigmoid(dot(center_vec, target_vec));
                            let g = (label - score) * lr;
                            add_scaled(&mut grad_center, target_vec, g);
                            add_scaled(target_vec, center_vec, g);
                        }
                        add_scaled(&mut input[row(center)], &grad_center, 1.0);
                    }
                }
            }
        }

        // Words below min_count were never updated and still hold their
        // random initialization; zero them so they contribute nothing to
        // IDF-weighted phrase sums (unseen words otherwise get *maximum*
        // IDF weight attached to pure noise).
        for (idx, &count) in counts.iter().enumerate() {
            if count < config.min_count {
                input[row(idx)].fill(0.0);
            }
        }

        // Mean-center the trained vectors (the "all-but-the-top"
        // post-processing). Small-corpus SGNS spaces are anisotropic — all
        // vectors share a dominant direction, pushing every cosine toward
        // 1 and making similarity thresholds meaningless. Removing the
        // common mean restores contrast.
        let trained: Vec<usize> = (0..vocab_len)
            .filter(|&i| counts[i] >= config.min_count)
            .collect();
        if trained.len() > 1 {
            let mut mean = vec![0.0f32; dim];
            for &i in &trained {
                for (m, x) in mean.iter_mut().zip(&input[row(i)]) {
                    *m += x;
                }
            }
            for m in mean.iter_mut() {
                *m /= trained.len() as f32;
            }
            for &i in &trained {
                for (x, m) in input[row(i)].iter_mut().zip(&mean) {
                    *x -= m;
                }
            }
        }

        Self {
            dim,
            vectors: input,
            counts,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The vector for `id`; every interned word has one.
    pub fn vector(&self, id: WordId) -> &[f32] {
        &self.vectors[id.index() * self.dim..(id.index() + 1) * self.dim]
    }

    /// Corpus frequency observed during training.
    pub fn count(&self, id: WordId) -> u32 {
        self.counts.get(id.index()).copied().unwrap_or(0)
    }

    /// Number of word vectors (== vocab length at training time).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The `k` most similar words to `id` by cosine, excluding `id` itself.
    pub fn most_similar(&self, id: WordId, k: usize, vocab: &Vocab) -> Vec<(WordId, f32)> {
        let target = self.vector(id);
        let mut scored: Vec<(WordId, f32)> = vocab
            .iter()
            .filter(|(other, _)| *other != id && self.count(*other) > 0)
            .map(|(other, _)| (other, crate::vector::cosine(target, self.vector(other))))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(k);
        scored
    }
}

/// Unigram^0.75 sampling table (word indices, repeated by weight).
fn build_negative_table(counts: &[u32]) -> Vec<u32> {
    const TABLE_SIZE: usize = 1 << 16;
    let total: f64 = counts.iter().map(|&c| (c as f64).powf(0.75)).sum();
    if total == 0.0 {
        return Vec::new();
    }
    let mut table = Vec::with_capacity(TABLE_SIZE);
    for (idx, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let slots = ((c as f64).powf(0.75) / total * TABLE_SIZE as f64).ceil() as usize;
        table.extend(std::iter::repeat_n(idx as u32, slots.max(1)));
    }
    table
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use opine_text::Vocab;

    /// Builds a tiny corpus where "clean"/"spotless" share contexts and
    /// "dirty" appears in different ones.
    fn tiny_corpus() -> (Vocab, Vec<Vec<WordId>>) {
        let mut vocab = Vocab::new();
        let sentences = [
            vec!["room", "clean", "nice"],
            vec!["room", "spotless", "nice"],
            vec!["room", "clean", "tidy"],
            vec!["room", "spotless", "tidy"],
            vec!["street", "dirty", "loud"],
            vec!["street", "dirty", "noisy"],
        ];
        let interned: Vec<Vec<WordId>> = (0..20)
            .flat_map(|_| sentences.iter())
            .map(|s| s.iter().map(|w| vocab.intern(w)).collect())
            .collect();
        (vocab, interned)
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let (vocab, sents) = tiny_corpus();
        let cfg = Word2VecConfig {
            epochs: 1,
            ..Default::default()
        };
        let a = Word2Vec::train(&sents, vocab.len(), &cfg);
        let b = Word2Vec::train(&sents, vocab.len(), &cfg);
        for (id, _) in vocab.iter() {
            assert_eq!(a.vector(id), b.vector(id));
        }
    }

    #[test]
    fn shared_context_words_are_more_similar_than_disjoint_ones() {
        let (mut vocab, sents) = tiny_corpus();
        let cfg = Word2VecConfig {
            dim: 24,
            epochs: 8,
            seed: 7,
            ..Default::default()
        };
        let w2v = Word2Vec::train(&sents, vocab.len(), &cfg);
        let clean = vocab.intern("clean");
        let spotless = vocab.intern("spotless");
        let dirty = vocab.intern("dirty");
        let sim_syn = crate::vector::cosine(w2v.vector(clean), w2v.vector(spotless));
        let sim_ant = crate::vector::cosine(w2v.vector(clean), w2v.vector(dirty));
        assert!(
            sim_syn > sim_ant,
            "clean~spotless ({sim_syn}) should beat clean~dirty ({sim_ant})"
        );
    }

    #[test]
    fn most_similar_excludes_self_and_respects_k() {
        let (vocab, sents) = tiny_corpus();
        let w2v = Word2Vec::train(&sents, vocab.len(), &Word2VecConfig::default());
        let clean = vocab.get("clean").unwrap();
        let sims = w2v.most_similar(clean, 3, &vocab);
        assert_eq!(sims.len(), 3);
        assert!(sims.iter().all(|(id, _)| *id != clean));
    }

    #[test]
    fn empty_corpus_yields_table_without_panic() {
        let w2v = Word2Vec::train(&[], 0, &Word2VecConfig::default());
        assert!(w2v.is_empty());
    }

    #[test]
    fn a_zero_dimensional_table_still_has_a_vector_per_word() {
        let (vocab, sents) = tiny_corpus();
        let cfg = Word2VecConfig {
            dim: 0,
            epochs: 1,
            ..Default::default()
        };
        let w2v = Word2Vec::train(&sents, vocab.len(), &cfg);
        assert_eq!(w2v.len(), vocab.len());
        assert!(vocab.iter().all(|(id, _)| w2v.vector(id).is_empty()));
    }

    #[test]
    fn counts_reflect_corpus() {
        let (vocab, sents) = tiny_corpus();
        let w2v = Word2Vec::train(&sents, vocab.len(), &Word2VecConfig::default());
        // "room" appears in 4 of 6 sentence templates, repeated 20 times.
        assert_eq!(w2v.count(vocab.get("room").unwrap()), 80);
    }
}
