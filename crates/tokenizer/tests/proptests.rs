//! Property-based tests for the tokenizer crate.

use lmql_tokenizer::{
    pretokenize, Bpe, BpeTrainer, TokenContext, TokenId, TokenSet, TokenTrie, Vocabulary,
};
use proptest::prelude::*;

fn ascii_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![proptest::char::range(' ', '~'), Just('\n'),],
        0..200,
    )
    .prop_map(|v| v.into_iter().collect())
}

/// Text made of the runs pretokenisation splits on: words, digit runs,
/// punctuation runs, runs of spaces, newlines, other whitespace, and
/// characters outside the ASCII alphabet (alphanumeric or not), which
/// encode as `?`.
fn chunky_text() -> impl Strategy<Value = String> {
    let run = prop_oneof![
        "[a-z]{1,6}",
        "[A-Z][a-z]{0,3}",
        "[0-9]{1,4}",
        "[.,!?<>=*]{1,3}",
        "[ ]{1,3}",
        Just("\n".to_owned()),
        Just("\t".to_owned()),
        proptest::char::range('\u{e0}', '\u{ff}').prop_map(String::from),
        Just("\u{2713}".to_owned()),
    ];
    proptest::collection::vec(run, 0..30).prop_map(|runs| runs.concat())
}

/// A tokenizer whose merges span words, spaces, digits and punctuation.
fn chunky_bpe() -> Bpe {
    BpeTrainer::new().merges(150).train(
        "The cat sat on the mat.  The cat sat!! 1234 12 34\n\nthe end... \
         <<3*4=12>> the mat, the hat;   spaces   and\ttabs the the",
    )
}

/// `text` cut into deltas at the given char positions (any order,
/// repeats allowed, so empty deltas occur too).
fn deltas<'a>(text: &'a str, cuts: &[usize]) -> Vec<&'a str> {
    let bounds: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    let mut at: Vec<usize> = cuts.iter().map(|c| bounds[c % bounds.len()]).collect();
    at.push(0);
    at.push(text.len());
    at.sort_unstable();
    at.windows(2).map(|w| &text[w[0]..w[1]]).collect()
}

/// Checks a context fed `pieces` against a full encode after every
/// append, with a token pushed (and dropped again) in between.
fn assert_incremental(bpe: &Bpe, pieces: &[&str]) {
    let mut context = TokenContext::new();
    let mut text = String::new();
    for piece in pieces {
        context.append(bpe, piece);
        text.push_str(piece);
        let full = bpe.encode(&text);
        assert_eq!(context.tokens(), full, "after {pieces:?} up to {text:?}");
        assert_eq!(context.encoded_len(), full.len());
        assert_eq!(context.text_len(), text.len());
        context.push(bpe.vocab().eos());
        assert_eq!(context.tokens().len(), full.len() + 1);
    }
    context.truncate_pushed();
    assert_eq!(context.tokens(), bpe.encode(&text));
}

/// Splits inside a chunk, deltas that are a lone trailing space, and
/// deltas that close the open chunk from its own first character.
#[test]
fn incremental_context_at_chunk_seams() {
    for bpe in [chunky_bpe(), Bpe::char_level("")] {
        for pieces in [
            &["The c", "at s", "at on", " the m", "at."][..],
            &["the", " "],
            &["the", " ", "cat"],
            &["the", " ", " ", "cat", " ", "\n", " the"],
            &["12", "34", " ", "!", "!", "."],
            &["the mat", ".", "..", " \u{e9}t\u{e9}", " "],
            &["", "", "a", ""],
            &[" ", " ", " "],
            &["\u{2713}", "\u{2713}x", "\t", "\t "],
        ] {
            assert_incremental(&bpe, pieces);
        }
    }
}

proptest! {
    /// The incremental context equals a full encode of the concatenation
    /// after every delta, however the text is cut.
    #[test]
    fn incremental_context_matches_full_encode(
        text in chunky_text(),
        cuts in proptest::collection::vec(0usize..1000, 0..10),
    ) {
        let mut pieces = deltas(&text, &cuts);
        pieces.push(" ");
        pieces.push("x");
        for bpe in [chunky_bpe(), Bpe::char_level("")] {
            assert_incremental(&bpe, &pieces);
        }
    }

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
