//! Incremental encoding of a growing text.

use crate::{chunks, Bpe, TokenId};

/// The token encoding of a text that only grows, kept up to date as the
/// text is appended to: after any sequence of [`append`](Self::append)s,
/// [`tokens`](Self::tokens) equals [`Bpe::encode`] of their concatenation.
///
/// Exact by construction. BPE never merges across a pretokenisation
/// chunk, and [`chunks`] decides where a chunk ends from its own
/// characters plus at most one character of lookahead. So appending text
/// can change only the text's last chunk (the *open* one): every earlier
/// chunk is already followed by the character that ended it. The context
/// keeps the ids of every closed chunk and the open chunk's text, and an
/// append re-encodes from the open chunk onward, so each byte is encoded
/// about once however many appends the text takes.
///
/// Tokens that are not an encoding of text (a hole's generated tokens,
/// Alg. 2's `uv`) can be [`push`](Self::push)ed past the encoding and
/// dropped again with [`truncate_pushed`](Self::truncate_pushed) or the
/// next append.
///
/// # Example
///
/// ```
/// use lmql_tokenizer::{BpeTrainer, TokenContext};
///
/// let bpe = BpeTrainer::new().merges(40).train("the cat sat on the mat");
/// let mut context = TokenContext::new();
/// for delta in ["the c", "at s", "at on", " the mat"] {
///     context.append(&bpe, delta);
/// }
/// assert_eq!(context.tokens(), bpe.encode("the cat sat on the mat"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TokenContext {
    /// The text's encoding, then any pushed tokens.
    ids: Vec<TokenId>,
    /// `ids[..closed]` encodes every chunk of the text but the open one.
    closed: usize,
    /// `ids[..encoded]` encodes the whole text.
    encoded: usize,
    /// The open chunk's text (empty for an empty text).
    open: String,
    /// Bytes appended so far.
    text_len: usize,
}

impl TokenContext {
    /// The context of the empty text.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `delta` to the text, re-encoding from the open chunk on.
    /// Drops any pushed tokens first.
    pub fn append(&mut self, bpe: &Bpe, delta: &str) {
        self.text_len += delta.len();
        self.open.push_str(delta);
        self.ids.truncate(self.closed);
        let mut rest = chunks(&self.open).peekable();
        let mut closed_bytes = 0;
        while let Some(chunk) = rest.next() {
            if rest.peek().is_none() {
                self.closed = self.ids.len();
            } else {
                closed_bytes += chunk.len();
            }
            bpe.encode_chunk_into(chunk, &mut self.ids);
        }
        self.open.drain(..closed_bytes);
        self.encoded = self.ids.len();
    }

    /// The text's encoding followed by any pushed tokens: the context a
    /// model scores.
    pub fn tokens(&self) -> &[TokenId] {
        &self.ids
    }

    /// Number of tokens the text encodes to (pushed tokens not counted).
    pub fn encoded_len(&self) -> usize {
        self.encoded
    }

    /// Number of bytes appended so far.
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Pushes a token past the text's encoding.
    pub fn push(&mut self, token: TokenId) {
        self.ids.push(token);
    }

    /// Drops every pushed token, leaving the text's encoding.
    pub fn truncate_pushed(&mut self) {
        self.ids.truncate(self.encoded);
    }
}
