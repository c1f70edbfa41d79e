//! Markers and marker summaries (Sec. 2 and Sec. 4.2 of the paper).
//!
//! A marker summary is "a view that aggregates the phrases from the
//! reviews onto the markers": per entity and attribute, a histogram over
//! the markers plus precomputed features — per-marker mass and mean
//! sentiment — that the membership functions consume.
//!
//! ## Deterministic, mergeable aggregation
//!
//! Summaries accumulate in **fixed-point `i64`** (scale `2^32`), not
//! floating point. Integer addition is exact, associative, and
//! commutative, so [`MarkerSummary::merge`] of any partition of the
//! phrases — in any order — is *bit-identical* to a from-scratch build
//! over the same phrases. That is the property live ingest and the
//! review-qualified query path rely on: a delta cell's summary merges
//! into the build-time one, and a qualified summary folds whichever
//! occurrences a qualifier accepts in whatever order they are stored,
//! with answers guaranteed identical to the reference's rescan.
//!
//! ## One resolution, tabulated
//!
//! What an occurrence adds to a summary is its variation's
//! `Assignment` — which markers take its mass, or none — scaled by its
//! sentiment. The assignment is the expensive half (one cosine per
//! marker) and a pure function of the variation, so the engine
//! tabulates it once per `(attribute, variation)` at assembly and every
//! engine-side aggregation (`MarkerSummary::add_assigned`) is table
//! lookups and integer adds. [`PhraseContribution::compute`] is the
//! untabulated definition the builder and the reference go through.

use crate::domain::LinguisticDomain;
use opine_embed::cosine;
use opine_ml::{KMeans, KMeansConfig};

/// Whether a marker set forms a linear scale or unordered categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryKind {
    /// `[very_clean, average, dirty, very_dirty]`-style scales.
    Linear,
    /// `[old, standard, modern, luxurious]`-style category sets.
    Categorical,
}

/// How a phrase's mass is distributed over markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignMode {
    /// The paper's current implementation: all mass to the best marker.
    #[default]
    Best,
    /// The paper's model (future work there, implemented here): mass split
    /// proportionally over the two nearest markers for linear summaries.
    Proportional,
}

/// One marker: a designated linguistic variation.
#[derive(Debug, Clone)]
pub struct Marker {
    /// The marker phrase, e.g. "very clean".
    pub phrase: String,
    /// Unit-normalized embedding of the phrase.
    pub rep: Vec<f32>,
    /// Sentiment of the marker phrase.
    pub sentiment: f64,
}

/// The marker set (record type) of one subjective attribute.
#[derive(Debug, Clone)]
pub struct MarkerSet {
    /// Attribute name.
    pub attribute: String,
    /// Linear or categorical.
    pub kind: SummaryKind,
    /// The markers, in scale order for linear sets.
    pub markers: Vec<Marker>,
}

impl MarkerSet {
    /// Auto-generates markers from a linguistic domain (Sec. 4.2.1).
    ///
    /// Linear domains: variations are sorted by sentiment and split into
    /// `k` equal buckets; the center variation of each bucket becomes the
    /// marker. Categorical domains: k-means over phrase embeddings; the
    /// medoid variation of each cluster becomes the marker.
    pub fn discover(
        attribute: &str,
        domain: &LinguisticDomain,
        kind: SummaryKind,
        k: usize,
        seed: u64,
    ) -> Self {
        let variations = domain.variations();
        let k = k.clamp(1, variations.len().max(1));
        let markers = if variations.is_empty() {
            Vec::new()
        } else {
            match kind {
                SummaryKind::Linear => {
                    let mut order: Vec<usize> = (0..variations.len()).collect();
                    order.sort_by(|&a, &b| {
                        variations[a].sentiment.total_cmp(&variations[b].sentiment)
                    });
                    let bucket = (variations.len() as f64 / k as f64).max(1.0);
                    (0..k)
                        .map(|i| {
                            let center = ((i as f64 + 0.5) * bucket) as usize;
                            let v = &variations[order[center.min(order.len() - 1)]];
                            Marker {
                                phrase: v.phrase.clone(),
                                rep: v.rep.clone(),
                                sentiment: v.sentiment,
                            }
                        })
                        .collect()
                }
                SummaryKind::Categorical => {
                    let points: Vec<Vec<f32>> = variations.iter().map(|v| v.rep.clone()).collect();
                    let km = KMeans::fit(
                        &points,
                        &KMeansConfig {
                            k,
                            max_iters: 40,
                            seed,
                        },
                    );
                    km.medoid_indices(&points)
                        .into_iter()
                        .map(|i| Marker {
                            phrase: variations[i].phrase.clone(),
                            rep: variations[i].rep.clone(),
                            sentiment: variations[i].sentiment,
                        })
                        .collect()
                }
            }
        };
        Self {
            attribute: attribute.to_string(),
            kind,
            markers,
        }
    }

    /// Index of the marker whose phrase equals `phrase`, if any.
    pub fn marker_index(&self, phrase: &str) -> Option<usize> {
        self.markers.iter().position(|m| m.phrase == phrase)
    }

    /// `(marker index, cosine)` of a phrase representation against every
    /// marker, in marker order.
    fn similarities(&self, rep: &[f32]) -> Vec<(usize, f32)> {
        self.markers
            .iter()
            .enumerate()
            .map(|(i, m)| (i, cosine(rep, &m.rep)))
            .collect()
    }

    /// `(marker index, weight)` assignments for a phrase representation.
    pub fn assign(&self, rep: &[f32], mode: AssignMode) -> Vec<(usize, f64)> {
        self.assign_from(self.similarities(rep), mode)
    }

    /// [`Self::assign`] over already-computed [`Self::similarities`].
    fn assign_from(&self, mut sims: Vec<(usize, f32)>, mode: AssignMode) -> Vec<(usize, f64)> {
        if sims.is_empty() {
            return Vec::new();
        }
        sims.sort_by(|a, b| b.1.total_cmp(&a.1));
        match mode {
            AssignMode::Best => vec![(sims[0].0, 1.0)],
            AssignMode::Proportional => {
                if sims.len() == 1 || self.kind == SummaryKind::Categorical {
                    return vec![(sims[0].0, 1.0)];
                }
                // Split over the two nearest, proportional to shifted sims.
                let (i1, s1) = sims[0];
                let (i2, s2) = sims[1];
                let w1 = (s1 + 1.0) as f64;
                let w2 = (s2 + 1.0) as f64;
                let total = (w1 + w2).max(1e-9);
                vec![(i1, w1 / total), (i2, w2 / total)]
            }
        }
    }
}

/// One provenance record: where an aggregated phrase came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Source review id.
    pub review_id: usize,
    /// The extracted phrase.
    pub phrase: String,
}

/// Fixed-point scale of the summary accumulators: weights and weighted
/// sentiments are quantized to multiples of `2^-32` before accumulation,
/// so sums are exact `i64` arithmetic (order-independent, mergeable).
const FP_SCALE: f64 = (1u64 << 32) as f64;

#[inline]
fn quantize(x: f64) -> i64 {
    (x * FP_SCALE).round() as i64
}

#[inline]
fn dequantize(q: i64) -> f64 {
    q as f64 / FP_SCALE
}

/// The sentiment-free half of a phrase's effect on a summary: which
/// markers take its mass, or that none does. A pure function of the
/// phrase representation, the marker set, the assignment mode and the
/// unmatched threshold — all frozen at build — so the engine keeps one
/// per `(attribute, variation)` instead of recomputing the marker
/// cosines per occurrence.
#[derive(Debug, Clone)]
pub(crate) struct Assignment {
    unmatched: bool,
    /// `(marker, weight, quantized weight)`; empty when unmatched.
    slots: Vec<(usize, f64, i64)>,
}

impl Assignment {
    /// Resolves a phrase representation against a marker set (Sec. 4.2.2
    /// aggregation step). `min_similarity` is the threshold below which
    /// the phrase counts as unmatched rather than being forced onto a
    /// marker.
    pub(crate) fn compute(
        rep: &[f32],
        markers: &MarkerSet,
        mode: AssignMode,
        min_similarity: f32,
    ) -> Self {
        // One pass of marker cosines feeds both the assignment and the
        // unmatched verdict.
        let sims = markers.similarities(rep);
        let best_sim = sims
            .iter()
            .map(|&(_, sim)| sim)
            .fold(f32::NEG_INFINITY, f32::max);
        let assignments = markers.assign_from(sims, mode);
        let unmatched = assignments.is_empty() || best_sim < min_similarity;
        let slots = if unmatched {
            Vec::new()
        } else {
            assignments
                .into_iter()
                .map(|(idx, weight)| (idx, weight, quantize(weight)))
                .collect()
        };
        Assignment { unmatched, slots }
    }

    /// This assignment for one occurrence of sentiment `sentiment`:
    /// `(marker, quantized weight, quantized sentiment·weight)` per slot
    /// — the one place an occurrence's accumulator increments are
    /// computed.
    fn scaled(&self, sentiment: f64) -> impl Iterator<Item = (usize, i64, i64)> + '_ {
        self.slots
            .iter()
            .map(move |&(idx, weight, weight_q)| (idx, weight_q, quantize(sentiment * weight)))
    }
}

/// One phrase's fully-resolved effect on a summary: its `Assignment`
/// scaled by its sentiment, plus where it came from. This is the
/// untabulated route — the marker cosines are computed here, per call —
/// that the builder's summaries and the reference's rescan take; the
/// engine folds the same increments from its per-variation table
/// (`MarkerSummary::add_assigned`), so the two agree by construction.
#[derive(Debug, Clone)]
pub struct PhraseContribution<'p> {
    phrase: &'p str,
    review_id: usize,
    unmatched: bool,
    /// `(marker, quantized weight, quantized sentiment·weight)`.
    assignments: Vec<(usize, i64, i64)>,
}

impl<'p> PhraseContribution<'p> {
    /// `Assignment::compute` for the phrase, scaled by its sentiment.
    pub fn compute(
        phrase: &'p str,
        rep: &[f32],
        sentiment: f64,
        markers: &MarkerSet,
        mode: AssignMode,
        min_similarity: f32,
        review_id: usize,
    ) -> Self {
        let assignment = Assignment::compute(rep, markers, mode, min_similarity);
        PhraseContribution {
            phrase,
            review_id,
            unmatched: assignment.unmatched,
            assignments: assignment.scaled(sentiment).collect(),
        }
    }
}

/// A per-entity marker-summary instance.
///
/// Per-marker mass and weighted sentiment accumulate in fixed-point
/// `i64` (see the module docs); [`Self::merge`] of disjoint summaries is
/// therefore bit-identical to aggregating all their phrases into one
/// summary, in any order.
#[derive(Debug, Clone)]
pub struct MarkerSummary {
    /// Quantized phrase mass per marker.
    counts_q: Vec<i64>,
    /// Quantized `Σ sentiment·weight` per marker.
    senti_q: Vec<i64>,
    /// Total phrase count (matched + unmatched). Whole phrases only, so
    /// the `f64` is exact.
    pub total: f64,
    /// Count of phrases whose best marker similarity fell below the
    /// unmatched threshold.
    pub unmatched: f64,
    /// Provenance of every phrase aggregated through [`Self::add_phrase`]
    /// (empty for delta-cell and review-qualified summaries, which fold
    /// occurrences whose phrases the build-time summaries already name).
    pub provenance: Vec<Provenance>,
}

impl MarkerSummary {
    /// Empty summary for a marker set with `k` markers.
    pub fn empty(k: usize) -> Self {
        Self {
            counts_q: vec![0; k],
            senti_q: vec![0; k],
            total: 0.0,
            unmatched: 0.0,
            provenance: Vec::new(),
        }
    }

    /// Incrementally aggregates one extracted phrase (Sec. 4.2.2: "the
    /// marker summaries can be incrementally computed").
    #[allow(clippy::too_many_arguments)]
    pub fn add_phrase(
        &mut self,
        phrase: &str,
        rep: &[f32],
        sentiment: f64,
        markers: &MarkerSet,
        mode: AssignMode,
        min_similarity: f32,
        review_id: usize,
    ) {
        let contribution = PhraseContribution::compute(
            phrase,
            rep,
            sentiment,
            markers,
            mode,
            min_similarity,
            review_id,
        );
        self.apply(&contribution, true);
    }

    /// Applies one precomputed phrase contribution. With
    /// `track_provenance` false the phrase text is not recorded.
    pub fn apply(&mut self, contribution: &PhraseContribution<'_>, track_provenance: bool) {
        if track_provenance {
            self.provenance.push(Provenance {
                review_id: contribution.review_id,
                phrase: contribution.phrase.to_string(),
            });
        }
        self.accumulate(
            contribution.unmatched,
            contribution.assignments.iter().copied(),
        );
    }

    /// Folds in one occurrence of a phrase whose assignment is already
    /// known — [`Self::apply`] of the contribution
    /// [`PhraseContribution::compute`] would resolve for it, provenance
    /// off, without the marker cosines.
    #[inline]
    pub(crate) fn add_assigned(&mut self, assignment: &Assignment, sentiment: f64) {
        self.accumulate(assignment.unmatched, assignment.scaled(sentiment));
    }

    /// Counts one phrase and adds its `(marker, weight, sentiment·weight)`
    /// increments.
    #[inline]
    fn accumulate(&mut self, unmatched: bool, slots: impl Iterator<Item = (usize, i64, i64)>) {
        self.total += 1.0;
        if unmatched {
            self.unmatched += 1.0;
            return;
        }
        for (idx, weight_q, senti_q) in slots {
            self.counts_q[idx] += weight_q;
            self.senti_q[idx] += senti_q;
        }
    }

    /// Merges another summary over the same marker set into this one.
    ///
    /// Associative and commutative at the bit level: integer
    /// accumulators add exactly, so merging any partition of a phrase
    /// multiset reproduces the from-scratch build of the union
    /// bit-for-bit (provenance concatenates in merge order).
    pub fn merge(&mut self, other: &MarkerSummary) {
        self.merge_aggregates(other);
        if !other.provenance.is_empty() {
            self.provenance.extend(other.provenance.iter().cloned());
        }
    }

    /// [`Self::merge`] of the numeric aggregates alone — what degrees are
    /// scored from; `other`'s provenance is not carried over.
    pub fn merge_aggregates(&mut self, other: &MarkerSummary) {
        debug_assert_eq!(self.counts_q.len(), other.counts_q.len());
        for (a, b) in self.counts_q.iter_mut().zip(&other.counts_q) {
            *a += b;
        }
        for (a, b) in self.senti_q.iter_mut().zip(&other.senti_q) {
            *a += b;
        }
        self.total += other.total;
        self.unmatched += other.unmatched;
    }

    /// Number of markers this summary aggregates over.
    pub fn num_markers(&self) -> usize {
        self.counts_q.len()
    }

    /// Phrase mass on marker `i`.
    pub fn count(&self, i: usize) -> f64 {
        dequantize(self.counts_q[i])
    }

    /// Phrase mass per marker.
    pub fn counts(&self) -> Vec<f64> {
        self.counts_q.iter().map(|&q| dequantize(q)).collect()
    }

    /// Mean sentiment of the phrases assigned to marker `i` (0 when the
    /// marker holds no mass).
    pub fn sentiment_mean(&self, i: usize) -> f64 {
        if self.counts_q[i] == 0 {
            0.0
        } else {
            self.senti_q[i] as f64 / self.counts_q[i] as f64
        }
    }

    /// Fraction of matched mass on marker `i` (zero when empty).
    pub(crate) fn fraction(&self, i: usize) -> f64 {
        self.count(i) / (self.total - self.unmatched).max(1e-12)
    }

    /// Fraction of matched mass on each marker (zeros when empty).
    pub fn fractions(&self) -> Vec<f64> {
        (0..self.counts_q.len()).map(|i| self.fraction(i)).collect()
    }

    /// Fraction of phrases that matched no marker.
    pub fn unmatched_fraction(&self) -> f64 {
        if self.total <= 0.0 {
            0.0
        } else {
            self.unmatched / self.total
        }
    }

    /// Total matched mass across markers.
    pub fn matched_mass(&self) -> f64 {
        dequantize(self.counts_q.iter().sum())
    }

    /// Exact equality of the numeric aggregate state (mass, sentiment
    /// accumulators, totals) — the "bit-identical" comparison the
    /// fold/rescan equivalence tests use. Provenance is excluded: only
    /// [`Self::add_phrase`] records it.
    pub fn same_aggregates(&self, other: &MarkerSummary) -> bool {
        self.counts_q == other.counts_q
            && self.senti_q == other.senti_q
            && self.total.to_bits() == other.total.to_bits()
            && self.unmatched.to_bits() == other.unmatched.to_bits()
    }

    /// Approximate heap bytes of the numeric accumulators (provenance
    /// excluded) — sizing information for the delta's memory report.
    pub fn accumulator_bytes(&self) -> usize {
        (self.counts_q.len() + self.senti_q.len()) * std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::LinguisticDomain;
    use opine_embed::{PhraseEmbedder, Word2Vec, Word2VecConfig};
    use opine_text::{IdfModel, Vocab, WordId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture() -> (Vocab, PhraseEmbedder, LinguisticDomain) {
        let mut vocab = Vocab::new();
        let sentences = [
            vec!["room", "very", "clean", "fresh"],
            vec!["room", "clean", "fresh"],
            vec!["room", "average", "fine"],
            vec!["room", "dirty", "bad"],
            vec!["room", "very", "dirty", "bad"],
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
                seed: 6,
                ..Default::default()
            },
        );
        let embedder = PhraseEmbedder::new(w2v, idf);
        let mut domain = LinguisticDomain::new();
        for (p, s) in [
            ("very clean", 0.9),
            ("clean", 0.65),
            ("average", 0.0),
            ("dirty", -0.7),
            ("very dirty", -0.9),
        ] {
            domain.observe(p, s, &embedder, &vocab);
        }
        (vocab, embedder, domain)
    }

    #[test]
    fn linear_markers_are_sentiment_ordered() {
        let (_, _, domain) = fixture();
        let set = MarkerSet::discover("room_cleanliness", &domain, SummaryKind::Linear, 4, 1);
        assert_eq!(set.markers.len(), 4);
        // Buckets are in ascending sentiment order by construction.
        for w in set.markers.windows(2) {
            assert!(w[0].sentiment <= w[1].sentiment);
        }
    }

    #[test]
    fn categorical_markers_are_domain_members() {
        let (_, _, domain) = fixture();
        let set = MarkerSet::discover("style", &domain, SummaryKind::Categorical, 3, 1);
        assert_eq!(set.markers.len(), 3);
        for m in &set.markers {
            assert!(domain.get(&m.phrase).is_some());
        }
    }

    #[test]
    fn discover_with_k_larger_than_domain_clamps() {
        let (_, _, domain) = fixture();
        let set = MarkerSet::discover("a", &domain, SummaryKind::Linear, 50, 1);
        assert!(set.markers.len() <= domain.len());
    }

    #[test]
    fn best_assignment_has_unit_mass() {
        let (vocab, embedder, domain) = fixture();
        let set = MarkerSet::discover("a", &domain, SummaryKind::Linear, 3, 1);
        let mut rep = embedder.rep("clean", &vocab);
        opine_embed::normalize(&mut rep);
        let a = set.assign(&rep, AssignMode::Best);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].1, 1.0);
    }

    #[test]
    fn proportional_assignment_conserves_mass() {
        let (vocab, embedder, domain) = fixture();
        let set = MarkerSet::discover("a", &domain, SummaryKind::Linear, 3, 1);
        let mut rep = embedder.rep("clean", &vocab);
        opine_embed::normalize(&mut rep);
        let a = set.assign(&rep, AssignMode::Proportional);
        assert_eq!(a.len(), 2);
        let mass: f64 = a.iter().map(|(_, w)| w).sum();
        assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_aggregation_tracks_counts_and_provenance() {
        let (vocab, embedder, domain) = fixture();
        let set = MarkerSet::discover("a", &domain, SummaryKind::Linear, 3, 1);
        let mut s = MarkerSummary::empty(set.markers.len());
        for (i, phrase) in ["very clean", "clean", "dirty"].iter().enumerate() {
            let mut rep = embedder.rep(phrase, &vocab);
            opine_embed::normalize(&mut rep);
            s.add_phrase(phrase, &rep, 0.5, &set, AssignMode::Best, -1.0, i);
        }
        assert_eq!(s.total, 3.0);
        assert_eq!(s.matched_mass(), 3.0);
        assert_eq!(s.provenance.len(), 3);
        assert_eq!(s.provenance[0].phrase, "very clean");
        let fracs = s.fractions();
        assert!((fracs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dissimilar_phrase_goes_to_unmatched() {
        let (vocab, embedder, domain) = fixture();
        let set = MarkerSet::discover("a", &domain, SummaryKind::Linear, 3, 1);
        let mut s = MarkerSummary::empty(set.markers.len());
        // A zero rep has cosine 0 with everything; threshold 0.5 rejects it.
        let rep = embedder.rep("qqqq zzzz", &vocab);
        s.add_phrase("qqqq zzzz", &rep, 0.0, &set, AssignMode::Best, 0.5, 0);
        assert_eq!(s.unmatched, 1.0);
        assert_eq!(s.matched_mass(), 0.0);
        assert!((s.unmatched_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_has_zero_fractions() {
        let s = MarkerSummary::empty(4);
        assert_eq!(s.fractions(), vec![0.0; 4]);
        assert_eq!(s.unmatched_fraction(), 0.0);
    }

    /// Builds a summary over the fixture phrases through add_phrase.
    fn build_summary(
        phrases: &[(&str, f64)],
        set: &MarkerSet,
        embedder: &PhraseEmbedder,
        vocab: &Vocab,
        id_base: usize,
    ) -> MarkerSummary {
        let mut s = MarkerSummary::empty(set.markers.len());
        for (i, (p, sent)) in phrases.iter().enumerate() {
            let mut rep = embedder.rep(p, vocab);
            opine_embed::normalize(&mut rep);
            s.add_phrase(
                p,
                &rep,
                *sent,
                set,
                AssignMode::Proportional,
                0.0,
                id_base + i,
            );
        }
        s
    }

    #[test]
    fn merge_of_partition_is_bit_identical_to_from_scratch() {
        let (vocab, embedder, domain) = fixture();
        let set = MarkerSet::discover("a", &domain, SummaryKind::Linear, 3, 1);
        let phrases = [
            ("very clean", 0.9),
            ("clean", 0.65),
            ("average", 0.0),
            ("dirty", -0.7),
            ("very dirty", -0.9),
            ("clean", 0.65),
        ];
        let whole = build_summary(&phrases, &set, &embedder, &vocab, 0);
        let part_a = build_summary(&phrases[..2], &set, &embedder, &vocab, 0);
        let part_b = build_summary(&phrases[2..4], &set, &embedder, &vocab, 2);
        let part_c = build_summary(&phrases[4..], &set, &embedder, &vocab, 4);
        // Merge in an order different from the build order: fixed-point
        // accumulation is exactly commutative.
        let mut merged = MarkerSummary::empty(set.markers.len());
        merged.merge(&part_c);
        merged.merge(&part_a);
        merged.merge(&part_b);
        assert!(merged.same_aggregates(&whole));
        assert_eq!(merged.provenance.len(), whole.provenance.len());
        for i in 0..merged.num_markers() {
            assert_eq!(merged.count(i).to_bits(), whole.count(i).to_bits());
            assert_eq!(
                merged.sentiment_mean(i).to_bits(),
                whole.sentiment_mean(i).to_bits()
            );
        }
    }

    #[test]
    fn apply_without_provenance_keeps_aggregates() {
        let (vocab, embedder, domain) = fixture();
        let set = MarkerSet::discover("a", &domain, SummaryKind::Linear, 3, 1);
        let mut rep = embedder.rep("clean", &vocab);
        opine_embed::normalize(&mut rep);
        let c = PhraseContribution::compute("clean", &rep, 0.65, &set, AssignMode::Best, 0.0, 7);
        let mut with = MarkerSummary::empty(set.markers.len());
        with.apply(&c, true);
        let mut without = MarkerSummary::empty(set.markers.len());
        without.apply(&c, false);
        assert!(with.same_aggregates(&without));
        assert_eq!(with.provenance.len(), 1);
        assert!(without.provenance.is_empty());
    }

    /// `PhraseContribution::compute` as it was before the assignment
    /// was split from the sentiment, kept verbatim as the frozen
    /// specification of every accumulator increment's bits.
    fn unsplit_contribution(
        rep: &[f32],
        sentiment: f64,
        markers: &MarkerSet,
        mode: AssignMode,
        min_similarity: f32,
    ) -> (bool, Vec<(usize, i64, i64)>) {
        let sims = markers.similarities(rep);
        let best_sim = sims
            .iter()
            .map(|&(_, sim)| sim)
            .fold(f32::NEG_INFINITY, f32::max);
        let assignments = markers.assign_from(sims, mode);
        let unmatched = assignments.is_empty() || best_sim < min_similarity;
        let assignments = if unmatched {
            Vec::new()
        } else {
            assignments
                .into_iter()
                .map(|(idx, weight)| (idx, quantize(weight), quantize(sentiment * weight)))
                .collect()
        };
        (unmatched, assignments)
    }

    #[test]
    fn tabulated_assignment_times_sentiment_equals_compute_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(20);
        let random_rep = |rng: &mut StdRng| -> Vec<f32> {
            let mut rep: Vec<f32> = (0..8).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
            opine_embed::normalize(&mut rep);
            rep
        };
        let (mut matched, mut unmatched) = (0, 0);
        for case in 0..400 {
            let kind = [SummaryKind::Linear, SummaryKind::Categorical][case % 2];
            let mode = [AssignMode::Best, AssignMode::Proportional][case / 2 % 2];
            // k = 1 every fifth case: Proportional has no second marker.
            let k = if case % 5 == 0 { 1 } else { 2 + case % 4 };
            let set = MarkerSet {
                attribute: "a".into(),
                kind,
                markers: (0..k)
                    .map(|i| Marker {
                        phrase: format!("m{i}"),
                        rep: random_rep(&mut rng),
                        sentiment: 0.0,
                    })
                    .collect(),
            };
            let rep = random_rep(&mut rng);
            let best_sim = set
                .similarities(&rep)
                .iter()
                .map(|&(_, sim)| sim)
                .fold(f32::NEG_INFINITY, f32::max);
            // Thresholds just under, at and just over the best
            // similarity, and the two that can never / always reject.
            for min_similarity in [-1.0, best_sim - 1e-3, best_sim, best_sim + 1e-3, 1.01] {
                let assignment = Assignment::compute(&rep, &set, mode, min_similarity);
                for sentiment in [0.0, 1.0, -1.0, rng.gen::<f64>() * 2.0 - 1.0] {
                    let expected =
                        unsplit_contribution(&rep, sentiment, &set, mode, min_similarity);
                    let computed = PhraseContribution::compute(
                        "p",
                        &rep,
                        sentiment,
                        &set,
                        mode,
                        min_similarity,
                        case,
                    );
                    assert_eq!((computed.unmatched, computed.assignments.clone()), expected);
                    let tabulated: Vec<_> = assignment.scaled(sentiment).collect();
                    assert_eq!((assignment.unmatched, tabulated), expected);
                    // …and the two fold the same summary.
                    let mut applied = MarkerSummary::empty(k);
                    applied.apply(&computed, false);
                    let mut folded = MarkerSummary::empty(k);
                    folded.add_assigned(&assignment, sentiment);
                    assert!(applied.same_aggregates(&folded));
                    if expected.0 {
                        unmatched += 1;
                    } else {
                        matched += 1;
                    }
                }
            }
        }
        assert!(matched > 400 && unmatched > 400, "{matched} / {unmatched}");
    }

    #[test]
    fn merge_empty_is_identity() {
        let (vocab, embedder, domain) = fixture();
        let set = MarkerSet::discover("a", &domain, SummaryKind::Linear, 3, 1);
        let built = build_summary(&[("clean", 0.65)], &set, &embedder, &vocab, 0);
        let mut merged = built.clone();
        merged.merge(&MarkerSummary::empty(set.markers.len()));
        assert!(merged.same_aggregates(&built));
    }
}
