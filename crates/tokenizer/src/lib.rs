//! A from-scratch subword tokenizer for the LMQL reproduction.
//!
//! Language models operate on subword tokens, and LMQL's constraint-to-mask
//! translation ("Subtokenization", §5.2 of the paper) requires scanning a
//! real subword vocabulary for all tokens that are *prefixes of* or
//! *continuations of* a target string, because most vocabularies admit more
//! than one factorisation of a string into tokens.
//!
//! This crate provides:
//!
//! - [`Vocabulary`] — an id ↔ string table with special-token support,
//! - [`TokenSet`] — a bitset over the vocabulary used for decoding masks,
//! - [`TokenTrie`] — a prefix trie over the vocabulary answering the two
//!   queries mask generation needs (`tokens_with_prefix`, `prefixes_of`),
//! - [`Bpe`] — a byte-pair-encoding trainer/encoder/decoder
//!   ([`BpeTrainer`]) operating on character sequences with GPT-2 style
//!   leading-space pretokenisation ([`pretokenize`]),
//! - [`TokenContext`] — the encoding of a growing text, re-encoding only
//!   its last pretokenisation chunk on each append.
//!
//! # Example
//!
//! ```
//! use lmql_tokenizer::{BpeTrainer, Bpe};
//!
//! let corpus = "she sells seashells by the seashore. she sells seashells.";
//! let bpe: Bpe = BpeTrainer::new().merges(40).train(corpus);
//! let ids = bpe.encode("she sells seashells");
//! assert_eq!(bpe.decode(&ids), "she sells seashells");
//! ```

mod bpe;
mod context;
mod pretokenize;
mod token_set;
mod trie;
mod vocab;

pub use bpe::{fingerprint_tokens, Bpe, BpeTrainer};
pub use context::TokenContext;
pub use pretokenize::{chunks, pretokenize, Chunks};
pub use token_set::TokenSet;
pub use trie::TokenTrie;
pub use vocab::{TokenId, Vocabulary};
