//! Markers and marker summaries (Sec. 2 and Sec. 4.2 of the paper).
//!
//! A marker summary is "a view that aggregates the phrases from the
//! reviews onto the markers": per entity and attribute, a histogram over
//! the markers plus precomputed features — per-marker mass and mean
//! sentiment — that the membership functions consume.
//!
//! ## Deterministic aggregation
//!
//! Summaries accumulate in **fixed-point `i64`** (scale `2^32`), not
//! floating point. Integer addition is exact, associative, and
//! commutative, so adding the same phrases in any order is
//! *bit-identical* to a from-scratch build over them. That is the
//! property live ingest and the review-qualified query path rely on: a
//! delta cell's summary grows from its build-time fold by one add per
//! inserted occurrence, and a qualified summary folds whichever
//! occurrences a qualifier accepts in whatever order they are stored,
//! with answers guaranteed identical to the reference's rescan.
//!
//! ## One resolution, tabulated
//!
//! What an occurrence adds to a summary is its variation's
//! [`PhraseContribution`]: which markers take its mass, or none, scaled
//! by the variation's sentiment. It costs one cosine per marker and is a
//! pure function of the variation, so the builder tabulates it once per
//! `(attribute, variation)` and every summary — build-time, delta cell,
//! review-qualified fold — grows by [`MarkerSummary::add`] of table
//! entries: lookups and integer adds. The reference's rescan computes
//! each occurrence's contribution from scratch and never reads the table.

use crate::domain::LinguisticDomain;
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
    /// Unit-normalized embedding of the phrase; not changed once the
    /// marker is built, which takes its norm.
    pub rep: Vec<f32>,
    /// Sentiment of the marker phrase.
    pub sentiment: f64,
    /// `norm(rep)` as `opine_embed::cosine` would compute it, taken
    /// once when the marker is built, so a query's similarity to every
    /// marker costs one dot product each.
    pub(crate) norm: f32,
}

impl Marker {
    /// A marker over `rep`, its norm taken here.
    pub fn new(phrase: String, rep: Vec<f32>, sentiment: f64) -> Self {
        Marker {
            phrase,
            norm: opine_embed::norm(&rep),
            rep,
            sentiment,
        }
    }

    /// `opine_embed::cosine(rep, &self.rep)` bit for bit, given
    /// `rep_norm = opine_embed::norm(rep)`: 0 when either vector is
    /// zero, else the dot over the product of the norms, clamped.
    #[inline]
    pub(crate) fn similarity(&self, rep: &[f32], rep_norm: f32) -> f32 {
        if rep_norm == 0.0 || self.norm == 0.0 {
            0.0
        } else {
            (opine_embed::dot(rep, &self.rep) / (rep_norm * self.norm)).clamp(-1.0, 1.0)
        }
    }
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
                            Marker::new(v.phrase.clone(), v.rep.clone(), v.sentiment)
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
                        .map(|i| {
                            let v = &variations[i];
                            Marker::new(v.phrase.clone(), v.rep.clone(), v.sentiment)
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
    /// marker, in marker order: the phrase's norm taken once, each
    /// marker's stored.
    fn similarities(&self, rep: &[f32]) -> Vec<(usize, f32)> {
        let norm = opine_embed::norm(rep);
        self.markers
            .iter()
            .enumerate()
            .map(|(i, m)| (i, m.similarity(rep, norm)))
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

/// One occurrence's fully-resolved effect on a summary: which markers
/// take its mass and its sentiment-weighted mass, or that none does. A
/// pure function of the phrase's representation and sentiment, the
/// marker set, the assignment mode and the unmatched threshold — for a
/// linguistic variation all frozen at build — so the engine keeps one
/// per `(attribute, variation)` ([`Self::tabulate`]) and every summary
/// grows by [`MarkerSummary::add`] of a table entry. The reference's
/// rescan calls [`Self::compute`] per occurrence instead.
#[derive(Debug, Clone)]
pub struct PhraseContribution {
    unmatched: bool,
    /// `(marker, quantized weight, quantized sentiment·weight)`; empty
    /// when unmatched.
    slots: Vec<(usize, i64, i64)>,
}

impl PhraseContribution {
    /// Resolves a phrase against a marker set (Sec. 4.2.2 aggregation
    /// step) and scales its mass by `sentiment`. `min_similarity` is the
    /// threshold below which the phrase counts as unmatched rather than
    /// being forced onto a marker.
    pub fn compute(
        rep: &[f32],
        sentiment: f64,
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
                .map(|(idx, weight)| (idx, quantize(weight), quantize(sentiment * weight)))
                .collect()
        };
        PhraseContribution { unmatched, slots }
    }

    /// `[attribute][variation]`: the contribution of one occurrence of
    /// each variation of each domain, at the variation's sentiment.
    pub(crate) fn tabulate(
        domains: &[LinguisticDomain],
        marker_sets: &[MarkerSet],
        mode: AssignMode,
        min_similarity: f32,
    ) -> Vec<Vec<Self>> {
        domains
            .iter()
            .zip(marker_sets)
            .map(|(domain, markers)| {
                domain
                    .variations()
                    .iter()
                    .map(|v| Self::compute(&v.rep, v.sentiment, markers, mode, min_similarity))
                    .collect()
            })
            .collect()
    }
}

/// `[attribute][variation]`: the marker each variation of each domain
/// is nearest to ([`AssignMode::Best`]), 0 for an attribute without
/// markers. A review's digest records it per occurrence.
pub(crate) fn nearest_markers(
    domains: &[LinguisticDomain],
    marker_sets: &[MarkerSet],
) -> Vec<Vec<usize>> {
    domains
        .iter()
        .zip(marker_sets)
        .map(|(domain, markers)| {
            domain
                .variations()
                .iter()
                .map(|v| {
                    markers
                        .assign(&v.rep, AssignMode::Best)
                        .first()
                        .map_or(0, |&(m, _)| m)
                })
                .collect()
        })
        .collect()
}

/// A per-entity marker-summary instance.
///
/// Per-marker mass and weighted sentiment accumulate in fixed-point
/// `i64` (see the module docs), so aggregating the same phrases in any
/// order gives the same bits.
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
}

impl MarkerSummary {
    /// Empty summary for a marker set with `k` markers.
    pub fn empty(k: usize) -> Self {
        Self {
            counts_q: vec![0; k],
            senti_q: vec![0; k],
            total: 0.0,
            unmatched: 0.0,
        }
    }

    /// Incrementally aggregates one occurrence (Sec. 4.2.2: "the marker
    /// summaries can be incrementally computed"): counts it and adds its
    /// `(marker, weight, sentiment·weight)` increments.
    #[inline]
    pub fn add(&mut self, contribution: &PhraseContribution) {
        self.total += 1.0;
        if contribution.unmatched {
            self.unmatched += 1.0;
            return;
        }
        for &(idx, weight_q, senti_q) in &contribution.slots {
            self.counts_q[idx] += weight_q;
            self.senti_q[idx] += senti_q;
        }
    }

    /// Number of markers the summary spreads its mass over.
    pub fn markers(&self) -> usize {
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

    /// Exact equality of the aggregate state (mass, sentiment
    /// accumulators, totals) — the "bit-identical" comparison the
    /// fold/rescan equivalence tests use.
    pub fn same_aggregates(&self, other: &MarkerSummary) -> bool {
        self.counts_q == other.counts_q
            && self.senti_q == other.senti_q
            && self.total.to_bits() == other.total.to_bits()
            && self.unmatched.to_bits() == other.unmatched.to_bits()
    }

    /// Heap bytes of the accumulators — sizing information for the
    /// delta's memory report.
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

    /// `similarities` takes the phrase's norm once and each marker's
    /// stored one: its bits are `cosine`'s, for reps of any length, a
    /// zero phrase and a zero marker included.
    #[test]
    fn similarities_equal_cosine_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(40);
        let rep = |rng: &mut StdRng| -> Vec<f32> {
            let scale = rng.gen::<f32>() * 4.0;
            (0..12)
                .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
                .collect()
        };
        let mut markers: Vec<Marker> = (0..9)
            .map(|i| Marker::new(format!("m{i}"), rep(&mut rng), 0.0))
            .collect();
        markers.insert(4, Marker::new("zero".into(), vec![0.0; 12], 0.0));
        let set = MarkerSet {
            attribute: "a".into(),
            kind: SummaryKind::Linear,
            markers,
        };
        let mut phrases: Vec<Vec<f32>> = (0..200).map(|_| rep(&mut rng)).collect();
        phrases.push(vec![0.0; 12]);
        phrases.push(set.markers[0].rep.clone());
        for phrase in &phrases {
            let sims = set.similarities(phrase);
            assert_eq!(sims.len(), set.markers.len());
            for (&(i, sim), marker) in sims.iter().zip(&set.markers) {
                let expected = opine_embed::cosine(phrase, &marker.rep);
                assert_eq!(
                    sim.to_bits(),
                    expected.to_bits(),
                    "marker {i} of {phrase:?}"
                );
            }
        }
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
    fn summary_aggregation_tracks_counts() {
        let (vocab, embedder, domain) = fixture();
        let set = MarkerSet::discover("a", &domain, SummaryKind::Linear, 3, 1);
        let mut s = MarkerSummary::empty(set.markers.len());
        for phrase in ["very clean", "clean", "dirty"] {
            let mut rep = embedder.rep(phrase, &vocab);
            opine_embed::normalize(&mut rep);
            s.add(&PhraseContribution::compute(
                &rep,
                0.5,
                &set,
                AssignMode::Best,
                -1.0,
            ));
        }
        assert_eq!(s.total, 3.0);
        assert_eq!(s.matched_mass(), 3.0);
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
        s.add(&PhraseContribution::compute(
            &rep,
            0.0,
            &set,
            AssignMode::Best,
            0.5,
        ));
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

    /// `PhraseContribution::compute` as it was before the assignment
    /// was ever split from the sentiment, kept verbatim as the frozen
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
                    .map(|i| Marker::new(format!("m{i}"), random_rep(&mut rng), 0.0))
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
                for sentiment in [0.0, 1.0, -1.0, rng.gen::<f64>() * 2.0 - 1.0] {
                    let expected =
                        unsplit_contribution(&rep, sentiment, &set, mode, min_similarity);
                    let computed =
                        PhraseContribution::compute(&rep, sentiment, &set, mode, min_similarity);
                    assert_eq!((computed.unmatched, computed.slots.clone()), expected);
                    // …and `add` folds exactly those increments.
                    let mut folded = MarkerSummary::empty(k);
                    folded.add(&computed);
                    let mut spec = MarkerSummary::empty(k);
                    spec.total = 1.0;
                    if expected.0 {
                        spec.unmatched = 1.0;
                    }
                    for &(idx, weight_q, senti_q) in &expected.1 {
                        spec.counts_q[idx] += weight_q;
                        spec.senti_q[idx] += senti_q;
                    }
                    assert!(folded.same_aggregates(&spec));
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
}
