//! Property-based tests for the tokenizer crate.

use lmql_tokenizer::{pretokenize, Bpe, BpeTrainer, TokenId, TokenSet, TokenTrie, Vocabulary};
use proptest::prelude::*;

fn ascii_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![proptest::char::range(' ', '~'), Just('\n'),],
        0..200,
    )
    .prop_map(|v| v.into_iter().collect())
}

proptest! {
    /// Pretokenisation chunks always concatenate back to the input.
    #[test]
    fn pretokenize_is_partition(text in ascii_text()) {
        prop_assert_eq!(pretokenize(&text).concat(), text);
    }

    /// Char-level encoding round-trips any ASCII text.
    #[test]
    fn char_level_roundtrip(text in ascii_text()) {
        let bpe = Bpe::char_level("");
        prop_assert_eq!(bpe.decode(&bpe.encode(&text)), text);
    }

    /// Trained BPE round-trips any ASCII text (alphabet covers ASCII).
    #[test]
    fn bpe_roundtrip(text in ascii_text()) {
        let bpe = BpeTrainer::new()
            .merges(40)
            .train("the quick brown fox jumps over the lazy dog. the end.");
        prop_assert_eq!(bpe.decode(&bpe.encode(&text)), text);
    }

    /// Token-set algebra: De Morgan over random id sets.
    #[test]
    fn token_set_de_morgan(ids_a in proptest::collection::btree_set(0u32..256, 0..40),
                           ids_b in proptest::collection::btree_set(0u32..256, 0..40)) {
        let a = TokenSet::from_ids(256, ids_a.iter().map(|&i| TokenId(i)));
        let b = TokenSet::from_ids(256, ids_b.iter().map(|&i| TokenId(i)));
        let lhs = a.union(&b).complement();
        let rhs = a.complement().intersection(&b.complement());
        prop_assert_eq!(lhs, rhs);
    }

    /// Tail-word exactness for universes not divisible by 64: `full(len)`
    /// has exactly `len` tokens, and complement/union/intersection never
    /// set a bit at position `>= len`.
    #[test]
    fn token_set_tail_word_is_exact(len in 1usize..300,
                                    ids_a in proptest::collection::btree_set(0u32..300, 0..40),
                                    ids_b in proptest::collection::btree_set(0u32..300, 0..40)) {
        let clip = |ids: &std::collections::BTreeSet<u32>| {
            TokenSet::from_ids(len, ids.iter().filter(|&&i| (i as usize) < len).map(|&i| TokenId(i)))
        };
        let a = clip(&ids_a);
        let b = clip(&ids_b);
        let full = TokenSet::full(len);
        prop_assert_eq!(full.count(), len);
        for s in [a.complement(), a.union(&b), a.intersection(&b), a.union(&full), b.complement()] {
            let extra = s.words().len() * 64 - len;
            if extra > 0 {
                prop_assert_eq!(s.words().last().unwrap() & !(!0u64 >> extra), 0,
                                "a bit >= len={} is set", len);
            }
            prop_assert!(s.iter().all(|t| t.index() < len));
            prop_assert!(s.count() <= len);
        }
        prop_assert_eq!(a.complement().count(), len - a.count());
        // In-place ops agree with their allocating counterparts.
        let mut c = a.clone();
        c.complement_in_place();
        prop_assert_eq!(&c, &a.complement());
        c.fill_from(&a);
        c.subtract_with(&b);
        prop_assert_eq!(c, a.intersection(&b.complement()));
    }

    /// Trie queries agree with a naive scan over the vocabulary.
    #[test]
    fn trie_matches_naive(tokens in proptest::collection::btree_set("[a-c]{1,4}", 1..25),
                          query in "[a-c]{0,6}") {
        let vocab = Vocabulary::from_tokens(tokens.iter().cloned());
        let trie = TokenTrie::new(&vocab);

        let mut naive_prefixes: Vec<_> = vocab
            .regular_tokens()
            .filter(|(_, s)| !s.is_empty() && query.starts_with(s))
            .map(|(id, _)| id)
            .collect();
        naive_prefixes.sort();
        let mut got = trie.prefixes_of(&query);
        got.sort();
        prop_assert_eq!(got, naive_prefixes);

        let mut naive_ext: Vec<_> = vocab
            .regular_tokens()
            .filter(|(_, s)| s.starts_with(query.as_str()))
            .map(|(id, _)| id)
            .collect();
        naive_ext.sort();
        let mut got = trie.tokens_with_prefix(&query);
        got.sort();
        prop_assert_eq!(got, naive_ext);
    }

    /// `aligned_with` is exactly the union of prefixes and extensions.
    #[test]
    fn aligned_with_is_union(tokens in proptest::collection::btree_set("[a-c]{1,4}", 1..25),
                             query in "[a-c]{1,6}") {
        let vocab = Vocabulary::from_tokens(tokens.iter().cloned());
        let trie = TokenTrie::new(&vocab);
        let aligned = trie.aligned_with(&query, true);
        let expected = TokenSet::from_ids(
            vocab.len(),
            vocab
                .regular_tokens()
                .filter(|(_, s)| query.starts_with(s) || s.starts_with(query.as_str()))
                .map(|(id, _)| id),
        );
        prop_assert_eq!(aligned, expected);
    }
}
