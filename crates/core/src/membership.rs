//! Learned membership functions (Sec. 3.3 of the paper).
//!
//! A membership function maps a marker summary plus a query phrase to a
//! degree of truth in `[0, 1]`. OpineDB trains a logistic regression on
//! labelled `(summary, phrase, y)` tuples and uses its probability output
//! directly as the degree of truth.
//!
//! Two feature families implement the Table 7 comparison:
//! [`marker_features`] uses only the precomputed per-marker aggregates
//! (fast — the paper's 3.3–6.6× speedup), while [`scan_features`] recomputes
//! statistics from every extracted phrase at query time (the no-marker
//! baseline).
//!
//! The marker family factors into a **query half** (`marker_sims`: the
//! query↔marker cosines, which do not depend on the entity) and an
//! **entity half** (`write_feature_row`: fractions, sentiment means and
//! totals, which do not depend on the query), joined by
//! `lane_features`. [`marker_features`] is exactly that composition, so
//! the batched column kernel (`crate::column`), which hoists the query
//! half out of the entity loop and reads the entity half from a
//! prebuilt plane, cannot drift from it.
//!
//! The join and the logistic run on **lanes**: `lane_features` and
//! `MembershipModel::degrees` take `L` entities at once, slot `c` of
//! every entity's row as one `[f64; L]`, and run per lane exactly the
//! operations of the one-entity path, in the same order; a summary's
//! features are the join over one lane. The column kernel reads eight
//! lanes straight out of the plane's column-major columns, so eight
//! dependency chains overlap and every degree keeps its bits.

use crate::summary::{MarkerSet, MarkerSummary};
use opine_embed::cosine;
use opine_ml::{LogRegConfig, LogisticRegression};

/// Number of features both families produce.
pub const FEATURE_DIM: usize = 9;

/// The query half of the marker features for one `(marker set, query
/// phrase)` pair.
#[derive(Debug, Clone)]
pub(crate) struct MarkerSims {
    /// `max(cos(query, marker_i), 0)` per marker, widened to `f64` —
    /// the weights of the `support` sum.
    support_weights: Vec<f64>,
    /// The most similar marker (the first one on ties).
    pub(crate) best: usize,
    /// Its similarity, floored at −1 (the value when no marker exists).
    best_sim: f64,
}

/// Computes the query↔marker similarities of `query_rep` once: each is
/// `opine_embed::cosine(query_rep, &marker.rep)` bit for bit, with the
/// query's norm taken once and each marker's stored when it was built.
pub(crate) fn marker_sims(markers: &MarkerSet, query_rep: &[f32]) -> MarkerSims {
    let query_norm = opine_embed::norm(query_rep);
    let mut best = (0usize, f32::NEG_INFINITY);
    let support_weights = markers
        .markers
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let sim = m.similarity(query_rep, query_norm);
            if sim > best.1 {
                best = (i, sim);
            }
            sim.max(0.0) as f64
        })
        .collect();
    MarkerSims {
        support_weights,
        best: best.0,
        best_sim: best.1.max(-1.0) as f64,
    }
}

/// Length of the entity-half row of a summary over `k` markers: `k`
/// fractions, `k` sentiment means, then `Σ fraction·mean`,
/// `ln(total + 1)` and the unmatched fraction.
pub(crate) const fn feature_row_len(k: usize) -> usize {
    2 * k + 3
}

/// Writes the entity half of the marker features — everything
/// [`marker_features`] derives from `summary` alone — into `row`
/// (`feature_row_len(k)` slots, `k` the marker-set size).
pub(crate) fn write_feature_row(summary: &MarkerSummary, k: usize, row: &mut [f64]) {
    debug_assert_eq!(row.len(), feature_row_len(k));
    let mut avg_sent = 0.0;
    for i in 0..k {
        let frac = summary.fraction(i);
        let mean = summary.sentiment_mean(i);
        row[i] = frac;
        row[k + i] = mean;
        avg_sent += frac * mean;
    }
    row[2 * k] = avg_sent;
    row[2 * k + 1] = (summary.total + 1.0).ln();
    row[2 * k + 2] = summary.unmatched_fraction();
}

/// The feature vectors of `L` entities, one lane each: `slot(c)` holds
/// slot `c` of their entity-half rows. Per lane this is the one-entity
/// join: `support` sums from `0.0` in marker order, and every other
/// feature is a load or the one product, so a lane's features do not
/// depend on `L`.
#[inline]
pub(crate) fn lane_features<'a, const L: usize>(
    slot: impl Fn(usize) -> &'a [f64; L],
    sims: &MarkerSims,
    query_sentiment: f64,
) -> [[f64; L]; FEATURE_DIM] {
    let k = sims.support_weights.len();
    let mut support = [0.0; L];
    for (i, &weight) in sims.support_weights.iter().enumerate() {
        let fracs = slot(i);
        for (sum, frac) in support.iter_mut().zip(fracs) {
            *sum += frac * weight;
        }
    }
    let (best_frac, best_sent) = if k == 0 {
        ([0.0; L], [0.0; L])
    } else {
        (*slot(sims.best), *slot(k + sims.best))
    };
    let avg_sent = *slot(2 * k);
    [
        support,
        avg_sent,
        best_frac,
        [sims.best_sim; L],
        best_sent,
        *slot(2 * k + 1),
        *slot(2 * k + 2),
        [query_sentiment; L],
        avg_sent.map(|a| a * query_sentiment),
    ]
}

/// The entity half of a summary's marker features as one row, in
/// [`write_feature_row`]'s layout: what a feature plane holds for the
/// summary's cell.
pub fn feature_row(summary: &MarkerSummary) -> Vec<f64> {
    let k = summary.markers();
    let mut row = vec![0.0; feature_row_len(k)];
    write_feature_row(summary, k, &mut row);
    row
}

/// The feature vector of one written entity-half row: the join with
/// `sims` over one lane.
pub(crate) fn row_features(
    row: &[f64],
    sims: &MarkerSims,
    query_sentiment: f64,
) -> [f64; FEATURE_DIM] {
    lane_features(|c| std::array::from_ref(&row[c]), sims, query_sentiment).map(|[x]| x)
}

/// The feature vector of a summary that has no prebuilt row (the
/// reference below, delta cells): writes the entity half on the spot —
/// on the stack for every marker set up to 16 markers — and joins it
/// through [`row_features`].
pub(crate) fn summary_features(
    summary: &MarkerSummary,
    sims: &MarkerSims,
    query_sentiment: f64,
) -> [f64; FEATURE_DIM] {
    const STACK_ROW: usize = feature_row_len(16);
    let k = sims.support_weights.len();
    let len = feature_row_len(k);
    let mut stack = [0.0; STACK_ROW];
    let mut heap;
    let row = if len <= STACK_ROW {
        &mut stack[..len]
    } else {
        heap = vec![0.0; len];
        &mut heap[..]
    };
    write_feature_row(summary, k, row);
    row_features(row, sims, query_sentiment)
}

/// Features computed from the marker summary only: the slow reference
/// (trainer, Table 7 bench, tests) that recomputes both halves per call.
pub fn marker_features(
    summary: &MarkerSummary,
    markers: &MarkerSet,
    query_rep: &[f32],
    query_sentiment: f64,
) -> Vec<f64> {
    summary_features(summary, &marker_sims(markers, query_rep), query_sentiment).to_vec()
}

/// Features recomputed from all raw extracted phrases (no markers).
///
/// `phrases` is the entity's full extraction list for the attribute as
/// `(rep, sentiment)` pairs; this is deliberately O(#phrases) per query.
pub fn scan_features(
    phrases: &[(&[f32], f64)],
    query_rep: &[f32],
    query_sentiment: f64,
) -> Vec<f64> {
    if phrases.is_empty() {
        return vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, query_sentiment, 0.0];
    }
    let n = phrases.len() as f64;
    let mut support = 0.0;
    let mut similar = 0.0;
    let mut similar_sent = 0.0;
    let mut avg_sent = 0.0;
    let mut best_sim = f32::NEG_INFINITY;
    for (rep, sent) in phrases {
        let sim = cosine(query_rep, rep);
        support += sim.max(0.0) as f64;
        avg_sent += sent;
        if sim > 0.5 {
            similar += 1.0;
            similar_sent += sent;
        }
        if sim > best_sim {
            best_sim = sim;
        }
    }
    support /= n;
    avg_sent /= n;
    let similar_frac = similar / n;
    let similar_sent = if similar > 0.0 {
        similar_sent / similar
    } else {
        0.0
    };
    vec![
        support,
        avg_sent,
        similar_frac,
        best_sim as f64,
        similar_sent,
        (n + 1.0).ln(),
        0.0,
        query_sentiment,
        avg_sent * query_sentiment,
    ]
}

/// A trained membership function.
#[derive(Debug, Clone)]
pub struct MembershipModel {
    model: LogisticRegression,
}

impl MembershipModel {
    /// Trains from `(features, label)` tuples produced by either feature
    /// family.
    pub fn train(tuples: &[(Vec<f64>, bool)], config: &LogRegConfig) -> Self {
        Self {
            model: LogisticRegression::train(tuples, config),
        }
    }

    /// The degree of truth for a feature vector.
    pub fn degree(&self, features: &[f64]) -> f64 {
        self.model.predict_proba(features)
    }

    /// [`Self::degree`] of `L` feature vectors, one lane each. Per lane
    /// the weighted sum folds in weight order from `-0.0` (where `Sum`
    /// for `f64` starts, which `predict_proba` uses), the bias is added
    /// after, and the sigmoid is `predict_proba`'s: the bits of the
    /// one-vector call.
    #[inline]
    pub(crate) fn degrees<const L: usize>(&self, features: &[[f64; L]; FEATURE_DIM]) -> [f64; L] {
        let mut sums = [-0.0; L];
        for (&weight, lanes) in self.model.weights().iter().zip(features) {
            for (sum, x) in sums.iter_mut().zip(lanes) {
                *sum += weight * x;
            }
        }
        let bias = self.model.bias();
        sums.map(|sum| crate::column::sigmoid(bias + sum))
    }

    /// Classification accuracy at the 0.5 threshold (the LR-accuracy rows
    /// of Table 7).
    pub fn accuracy(&self, tuples: &[(Vec<f64>, bool)]) -> f64 {
        self.model.accuracy(tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::LinguisticDomain;
    use crate::summary::{AssignMode, PhraseContribution, SummaryKind};
    use opine_embed::{PhraseEmbedder, Word2Vec, Word2VecConfig};
    use opine_text::{IdfModel, Vocab, WordId};

    fn fixture() -> (Vocab, PhraseEmbedder, MarkerSet) {
        let mut vocab = Vocab::new();
        let sentences = [
            vec!["room", "clean", "fresh"],
            vec!["room", "spotless", "fresh"],
            vec!["room", "dirty", "bad"],
            vec!["room", "filthy", "bad"],
        ];
        let interned: Vec<Vec<WordId>> = (0..40)
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
                epochs: 8,
                seed: 12,
                ..Default::default()
            },
        );
        let embedder = PhraseEmbedder::new(w2v, idf);
        let mut domain = LinguisticDomain::new();
        for (p, s) in [
            ("clean", 0.7),
            ("spotless", 0.9),
            ("dirty", -0.7),
            ("filthy", -0.9),
        ] {
            domain.observe(p, s, &embedder, &vocab);
        }
        let set = MarkerSet::discover("room_cleanliness", &domain, SummaryKind::Linear, 4, 1);
        (vocab, embedder, set)
    }

    fn summary_from(
        phrases: &[(&str, f64)],
        set: &MarkerSet,
        embedder: &PhraseEmbedder,
        vocab: &Vocab,
    ) -> MarkerSummary {
        let mut s = MarkerSummary::empty(set.markers.len());
        for (p, sent) in phrases {
            let mut rep = embedder.rep(p, vocab);
            opine_embed::normalize(&mut rep);
            s.add(&PhraseContribution::compute(
                &rep,
                *sent,
                set,
                AssignMode::Best,
                -1.0,
            ));
        }
        s
    }

    #[test]
    fn feature_vectors_have_fixed_dim() {
        let (vocab, embedder, set) = fixture();
        let s = summary_from(&[("clean", 0.7)], &set, &embedder, &vocab);
        let q = embedder.rep("clean", &vocab);
        assert_eq!(marker_features(&s, &set, &q, 0.7).len(), FEATURE_DIM);
        assert_eq!(scan_features(&[], &q, 0.7).len(), FEATURE_DIM);
    }

    #[test]
    fn trained_membership_separates_clean_from_dirty_summaries() {
        let (vocab, embedder, set) = fixture();
        let clean = summary_from(
            &[("clean", 0.7), ("spotless", 0.9), ("clean", 0.7)],
            &set,
            &embedder,
            &vocab,
        );
        let dirty = summary_from(
            &[("dirty", -0.7), ("filthy", -0.9), ("dirty", -0.7)],
            &set,
            &embedder,
            &vocab,
        );
        let q = embedder.rep("clean", &vocab);
        let tuples = vec![
            (marker_features(&clean, &set, &q, 0.7), true),
            (marker_features(&dirty, &set, &q, 0.7), false),
        ];
        // Duplicate for a trainable set.
        let train: Vec<_> = (0..30).flat_map(|_| tuples.clone()).collect();
        let m = MembershipModel::train(&train, &LogRegConfig::default());
        let d_clean = m.degree(&marker_features(&clean, &set, &q, 0.7));
        let d_dirty = m.degree(&marker_features(&dirty, &set, &q, 0.7));
        assert!(
            d_clean > 0.6 && d_dirty < 0.4,
            "clean={d_clean} dirty={d_dirty}"
        );
    }

    #[test]
    fn scan_features_reflect_similarity() {
        let (vocab, embedder, _) = fixture();
        let clean_rep = {
            let mut r = embedder.rep("clean", &vocab);
            opine_embed::normalize(&mut r);
            r
        };
        let q = embedder.rep("clean", &vocab);
        let feats = scan_features(&[(&clean_rep, 0.7)], &q, 0.7);
        assert!(feats[0] > 0.5, "support should be high: {}", feats[0]);
        assert!(feats[3] > 0.9, "best sim should be ~1: {}", feats[3]);
    }

    #[test]
    fn empty_phrase_list_is_neutral() {
        let (vocab, embedder, _) = fixture();
        let q = embedder.rep("clean", &vocab);
        let feats = scan_features(&[], &q, 0.7);
        assert_eq!(feats[0], 0.0);
        assert_eq!(feats[5], 0.0);
    }
}
