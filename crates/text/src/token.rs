//! Tokenization and sentence splitting for review text.

use crate::stopwords::is_stopword;

/// Splits `text` into lowercase word tokens.
///
/// Alphanumeric runs become tokens; apostrophes inside words are kept so
/// "wasn't" stays one token; everything else is a separator. Only
/// [`is_content_token`]s are kept: [`tokenize_keep_stops`] filtered by it.
pub fn tokenize(text: &str) -> Vec<String> {
    raw_tokens(text)
        .into_iter()
        .filter(|t| is_content_token(t))
        .collect()
}

/// True for the tokens [`tokenize`] keeps: every non-stopword, and the
/// negation words ("not", "no", "never", "nothing") and intensifiers
/// among the stopwords, which carry sentiment-critical signal in review
/// text.
pub fn is_content_token(token: &str) -> bool {
    !is_stopword(token) || is_negation(token) || is_intensifier(token)
}

/// Splits `text` into lowercase word tokens keeping stopwords.
///
/// Used where positional structure matters (sequence tagging, pairing).
pub fn tokenize_keep_stops(text: &str) -> Vec<String> {
    raw_tokens(text)
}

fn raw_tokens(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if ch == '\'' && !current.is_empty() {
            // keep word-internal apostrophes ("wasn't"), trim later if trailing
            current.push(ch);
        } else if ch == '-' && !current.is_empty() {
            // hyphenated compounds like "well-decorated" stay joined
            current.push('-');
        } else if !current.is_empty() {
            push_token(&mut tokens, &mut current);
        }
    }
    if !current.is_empty() {
        push_token(&mut tokens, &mut current);
    }
    tokens
}

fn push_token(tokens: &mut Vec<String>, current: &mut String) {
    while current.ends_with('\'') || current.ends_with('-') {
        current.pop();
    }
    if !current.is_empty() {
        tokens.push(std::mem::take(current));
    } else {
        current.clear();
    }
}

/// True for tokens that invert sentiment polarity.
pub fn is_negation(token: &str) -> bool {
    matches!(
        token,
        "not" | "no" | "never" | "nothing" | "hardly" | "isn't" | "wasn't" | "don't" | "didn't"
    )
}

/// True for tokens that strengthen or weaken an opinion.
pub fn is_intensifier(token: &str) -> bool {
    matches!(
        token,
        "very"
            | "really"
            | "extremely"
            | "super"
            | "quite"
            | "pretty"
            | "too"
            | "so"
            | "incredibly"
            | "spotlessly"
            | "somewhat"
            | "slightly"
            | "truly"
            | "definitely"
            | "genuinely"
            | "meticulously"
            | "absolutely"
            | "fairly"
    )
}

/// Splits review text into sentences on `.`, `!`, `?`, `;` and newlines.
///
/// Empty fragments are dropped; the terminators themselves are not returned.
/// Neither the terminators nor the trimmed whitespace are token
/// characters, so the tokens of `text` (by [`tokenize`] or
/// [`tokenize_keep_stops`]) are its sentences' tokens, concatenated in
/// order.
pub fn split_sentences(text: &str) -> Vec<&str> {
    text.split(['.', '!', '?', ';', '\n'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(tokenize("The Room was CLEAN"), vec!["room", "clean"]);
    }

    #[test]
    fn tokenize_keeps_negations_and_intensifiers() {
        assert_eq!(
            tokenize("the room was not very clean"),
            vec!["room", "not", "very", "clean"]
        );
    }

    #[test]
    fn tokenize_handles_punctuation() {
        assert_eq!(
            tokenize("clean, well-decorated... and spotless!"),
            vec!["clean", "well-decorated", "spotless"]
        );
    }

    #[test]
    fn tokenize_keeps_word_internal_apostrophe() {
        let toks = tokenize_keep_stops("it wasn't great");
        assert_eq!(toks, vec!["it", "wasn't", "great"]);
    }

    #[test]
    fn tokenize_strips_trailing_apostrophe() {
        assert_eq!(tokenize_keep_stops("rooms' floor"), vec!["rooms", "floor"]);
    }

    #[test]
    fn tokenize_empty_and_symbol_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ...").is_empty());
    }

    #[test]
    fn sentences_split_on_terminators() {
        let s = split_sentences("Great bed. Noisy street! Would return?");
        assert_eq!(s, vec!["Great bed", "Noisy street", "Would return"]);
    }

    #[test]
    fn sentences_skip_empty_fragments() {
        assert_eq!(split_sentences("a..b.."), vec!["a", "b"]);
        assert!(split_sentences("...").is_empty());
    }

    #[test]
    fn keep_stops_retains_articles() {
        assert_eq!(
            tokenize_keep_stops("the bed was soft"),
            vec!["the", "bed", "was", "soft"]
        );
    }

    #[test]
    fn unicode_tokens_are_lowercased() {
        assert_eq!(tokenize_keep_stops("Café ÉLITE"), vec!["café", "élite"]);
    }
}
