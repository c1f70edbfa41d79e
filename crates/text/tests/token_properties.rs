//! The tokenizer invariants a one-pass build rests on: a text's tokens
//! are its sentences' tokens in order, and [`tokenize`] is
//! [`tokenize_keep_stops`] filtered by [`is_content_token`].
//!
//! Texts are drawn from word pieces (stopwords, negations, intensifiers,
//! contractions, upper case, digits, non-ASCII letters whose lower case
//! is longer than they are) and from the separators that decide token
//! boundaries: `'`, `-`, the sentence terminators `.!?;\n` and spaces.

use opine_text::{is_content_token, split_sentences, tokenize, tokenize_keep_stops};
use proptest::prelude::*;

const PIECES: &[&str] = &[
    "the",
    "The",
    "not",
    "NOT",
    "very",
    "so",
    "clean",
    "dirty",
    "room",
    "wasn't",
    "don't",
    "well",
    "decorated",
    "Café",
    "ÉLITE",
    "İstanbul",
    "Straße",
    "x",
    "É",
    "İ",
    "ß",
    "42",
    "7",
    "'",
    "'",
    "-",
    "-",
    ".",
    "!",
    "?",
    ";",
    "\n",
    " ",
    " ",
    " ",
    "  ",
];

/// Concatenates `f` over the sentences of `text`.
fn by_sentence(text: &str, f: fn(&str) -> Vec<String>) -> Vec<String> {
    split_sentences(text).into_iter().flat_map(f).collect()
}

proptest! {
    #[test]
    fn tokenize_is_the_concatenation_over_sentences(
        pieces in prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..48),
        noise in "[-' .!?;\nab0ZÉİß]{0,24}",
    ) {
        let text = pieces.concat() + &noise;
        prop_assert_eq!(tokenize(&text), by_sentence(&text, tokenize));
        prop_assert_eq!(
            tokenize_keep_stops(&text),
            by_sentence(&text, tokenize_keep_stops)
        );
    }

    #[test]
    fn tokenize_keeps_exactly_the_content_tokens(
        pieces in prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..48),
        noise in "[-' .!?;\nab0ZÉİß]{0,24}",
    ) {
        let text = noise + &pieces.concat();
        let filtered: Vec<String> = tokenize_keep_stops(&text)
            .into_iter()
            .filter(|t| is_content_token(t))
            .collect();
        prop_assert_eq!(tokenize(&text), filtered);
    }
}
