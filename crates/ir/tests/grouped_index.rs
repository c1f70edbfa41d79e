//! [`InvertedIndex::grouped`] against the index of the concatenated
//! documents it stands for.
//!
//! Random documents (some empty) go to groups by a random map: group ids
//! out of order, several documents per group, and at least one group
//! with no document. The grouped index must equal an index of each
//! group's documents joined by spaces in document lengths, posting
//! lists, dense BM25 bits and top-k hits.

use opine_ir::{DocId, InvertedIndex};
use opine_text::{Vocab, WordId};
use proptest::prelude::*;

const WORDS: &[&str] = &[
    "clean", "room", "dirty", "carpet", "staff", "friendly", "pool", "bar", "the", "not",
];

proptest! {
    #[test]
    fn grouped_equals_the_concatenated_index(
        docs in prop::collection::vec(
            prop::collection::vec(prop::sample::select(WORDS.to_vec()), 0..12),
            0..40,
        ),
        groups in prop::collection::vec(0usize..9, 40),
        query in prop::collection::vec(prop::sample::select(WORDS.to_vec()), 1..5),
    ) {
        // One more group than the map can name: it stays empty.
        let num_groups = 10;
        let group_of = &groups[..docs.len()];
        let texts: Vec<String> = docs.iter().map(|words| words.join(" ")).collect();

        let mut vocab = Vocab::new();
        let mut by_doc = InvertedIndex::new();
        for text in &texts {
            by_doc.add_document(text, &mut vocab);
        }
        let grouped = by_doc.grouped(group_of, num_groups);

        let mut concatenated = InvertedIndex::new();
        for group in 0..num_groups {
            let members: Vec<&str> = texts
                .iter()
                .zip(group_of)
                .filter(|&(_, &g)| g == group)
                .map(|(text, _)| text.as_str())
                .collect();
            concatenated.add_document(&members.join(" "), &mut vocab);
        }

        prop_assert_eq!(grouped.num_docs(), num_groups);
        for group in 0..num_groups {
            let doc = DocId(group as u32);
            prop_assert_eq!(grouped.doc_len(doc), concatenated.doc_len(doc));
        }
        let terms: Vec<WordId> = vocab.iter().map(|(id, _)| id).collect();
        for &term in &terms {
            prop_assert_eq!(grouped.term_postings(term), concatenated.term_postings(term));
        }
        let query: Vec<WordId> = query.iter().filter_map(|w| vocab.get(w)).collect();
        let bits = |scores: Vec<f64>| scores.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(grouped.bm25_dense(&query)),
            bits(concatenated.bm25_dense(&query))
        );
        for k in [1, 3, num_groups] {
            let hits = |index: &InvertedIndex| {
                index
                    .search_terms(&query, k)
                    .into_iter()
                    .map(|h| (h.doc, h.score.to_bits()))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(hits(&grouped), hits(&concatenated));
        }
    }
}
