//! The `senti(·)` scorer: lexicon lookup with negation and intensifiers.

use crate::lexicon::Lexicon;
use opine_text::token::{is_intensifier, is_negation};
use opine_text::tokenize_keep_stops;

/// Lexicon-based sentiment analyzer.
///
/// Scores are the average polarity of opinion-bearing tokens after applying
/// negation flips ("not clean" → negative) and intensifier boosts ("very
/// clean" → more positive), squashed to `[-1, 1]`. This mirrors what the
/// paper gets from NLTK's analyzer: a polarity per review used in Eq. (3)
/// and for marker generation.
#[derive(Debug, Clone)]
pub struct SentimentAnalyzer {
    lexicon: Lexicon,
    /// Multiplier applied by an intensifier to the following opinion word.
    intensifier_boost: f64,
    /// How many following tokens a negation affects.
    negation_window: usize,
}

impl SentimentAnalyzer {
    /// Analyzer over the built-in seed lexicon.
    pub fn new() -> Self {
        Self::with_lexicon(Lexicon::seed())
    }

    /// Analyzer over a custom (possibly expanded) lexicon.
    pub fn with_lexicon(lexicon: Lexicon) -> Self {
        Self {
            lexicon,
            intensifier_boost: 1.35,
            negation_window: 3,
        }
    }

    /// The underlying lexicon.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Scores a phrase, sentence, or whole document in `[-1, 1]`.
    ///
    /// Returns 0.0 for text with no opinion-bearing words.
    pub fn score(&self, text: &str) -> f64 {
        self.score_tokens(&tokenize_keep_stops(text))
    }

    /// [`Self::score`] over text already split by
    /// [`tokenize_keep_stops`], for callers that tokenize once for
    /// several uses.
    pub fn score_tokens(&self, tokens: &[String]) -> f64 {
        let mut total = 0.0;
        let mut hits = 0usize;
        let mut negate_until: Option<usize> = None;
        let mut boost = 1.0f64;

        for (i, token) in tokens.iter().enumerate() {
            if is_negation(token) {
                negate_until = Some(i + self.negation_window);
                boost = 1.0;
                continue;
            }
            if is_intensifier(token) {
                boost *= self.intensifier_boost;
                continue;
            }
            if let Some(mut s) = self.lexicon.score(token) {
                if let Some(until) = negate_until {
                    if i <= until {
                        // Negation flips and dampens: "not clean" is bad but
                        // weaker than "dirty".
                        s *= -0.75;
                    }
                }
                total += (s * boost).clamp(-1.0, 1.0);
                hits += 1;
                boost = 1.0;
            } else if !token.chars().all(|c| c.is_ascii_punctuation()) {
                // A plain content word interrupts intensifier chains.
                boost = 1.0;
            }
        }

        if hits == 0 {
            0.0
        } else {
            (total / hits as f64).clamp(-1.0, 1.0)
        }
    }

    /// Convenience: true when `score(text) > 0`.
    pub fn is_positive(&self, text: &str) -> bool {
        self.score(text) > 0.0
    }
}

impl Default for SentimentAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opine_text::split_sentences;
    use proptest::prelude::*;

    const PIECES: &[&str] = &[
        "the", "not", "Not", "never", "very", "too", "clean", "dirty", "Rude", "friendly", "room",
        "wasn't", "spotless", "É", "İ", "ß", "42", "'", "-", ".", "!", "?", ";", "\n", " ", " ",
        "  ",
    ];

    proptest! {
        /// The text entry and the token entry agree bit for bit, also
        /// when the tokens are collected sentence by sentence, as the
        /// build's one pass over each review does.
        #[test]
        fn score_equals_score_tokens(
            pieces in prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..40),
            noise in "[-' .!?;\nab0ZÉİß]{0,16}",
        ) {
            let s = SentimentAnalyzer::new();
            let text = pieces.concat() + &noise;
            let by_sentence: Vec<String> = split_sentences(&text)
                .into_iter()
                .flat_map(tokenize_keep_stops)
                .collect();
            let score = s.score(&text).to_bits();
            prop_assert_eq!(score, s.score_tokens(&tokenize_keep_stops(&text)).to_bits());
            prop_assert_eq!(score, s.score_tokens(&by_sentence).to_bits());
        }
    }

    #[test]
    fn positive_and_negative_words_score_correctly() {
        let s = SentimentAnalyzer::new();
        assert!(s.score("the room was clean") > 0.3);
        assert!(s.score("the room was filthy") < -0.5);
    }

    #[test]
    fn negation_flips_polarity() {
        let s = SentimentAnalyzer::new();
        assert!(s.score("the room was not clean") < 0.0);
        assert!(s.score("the staff was not rude") > 0.0);
    }

    #[test]
    fn intensifier_boosts_magnitude() {
        let s = SentimentAnalyzer::new();
        assert!(s.score("very clean room") > s.score("clean room"));
        assert!(s.score("very dirty room") < s.score("dirty room"));
    }

    #[test]
    fn negation_window_is_bounded() {
        let s = SentimentAnalyzer::new();
        // Negation 5 tokens before "clean" should no longer flip it.
        let far = s.score("not the hotel we found around here was clean");
        assert!(far > 0.0, "got {far}");
    }

    #[test]
    fn neutral_text_scores_zero() {
        let s = SentimentAnalyzer::new();
        assert_eq!(s.score("the hotel on the corner"), 0.0);
        assert_eq!(s.score(""), 0.0);
    }

    #[test]
    fn mixed_review_lands_between_extremes() {
        let s = SentimentAnalyzer::new();
        let mixed = s.score("clean room but rude staff");
        assert!(mixed > s.score("rude staff"));
        assert!(mixed < s.score("clean room"));
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let s = SentimentAnalyzer::new();
        for text in [
            "very very extremely spotless immaculate perfect",
            "filthy disgusting terrible awful horrible",
            "not not clean",
        ] {
            let v = s.score(text);
            assert!((-1.0..=1.0).contains(&v), "{text} → {v}");
        }
    }

    #[test]
    fn is_positive_matches_score_sign() {
        let s = SentimentAnalyzer::new();
        assert!(s.is_positive("wonderful breakfast"));
        assert!(!s.is_positive("horrible breakfast"));
    }
}
