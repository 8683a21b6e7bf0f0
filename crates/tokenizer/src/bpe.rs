//! Byte-pair-encoding training, encoding and decoding.
//!
//! The trainer learns a merge table from a corpus; the encoder applies the
//! merges greedily by rank (GPT-2 style). Merges never cross
//! [`pretokenize`](crate::pretokenize) chunk boundaries, so decoded text is
//! byte-identical to the input for covered characters.

use crate::{chunks, pretokenize, TokenId, Vocabulary};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// Character every out-of-alphabet character is replaced with on encode.
const UNKNOWN_CHAR: char = '?';

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(hash: u64, id: TokenId) -> u64 {
    id.0.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a hash over the first `max_tokens` ids of an already-tokenized
/// context — the same key [`Bpe::prefix_fingerprint`] derives from text,
/// so text-routed queries and token-routed scoring requests with the
/// same prompt prefix land on the same shard. Zero allocation.
pub fn fingerprint_tokens(ids: &[TokenId], max_tokens: usize) -> u64 {
    ids.iter()
        .take(max_tokens)
        .fold(FNV_OFFSET, |h, &id| fnv_fold(h, id))
}

/// Configures and runs BPE training.
///
/// # Example
///
/// ```
/// use lmql_tokenizer::BpeTrainer;
///
/// let bpe = BpeTrainer::new().merges(50).train("low lower lowest low low");
/// let ids = bpe.encode("lower");
/// assert_eq!(bpe.decode(&ids), "lower");
/// ```
#[derive(Debug, Clone)]
pub struct BpeTrainer {
    merges: usize,
    min_pair_count: u64,
}

impl Default for BpeTrainer {
    fn default() -> Self {
        BpeTrainer {
            merges: 1000,
            min_pair_count: 2,
        }
    }
}

impl BpeTrainer {
    /// A trainer with default settings (1000 merges, pairs must occur twice).
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum number of merge rules to learn.
    pub fn merges(mut self, merges: usize) -> Self {
        self.merges = merges;
        self
    }

    /// Minimum weighted occurrence count for a pair to be merged.
    pub fn min_pair_count(mut self, n: u64) -> Self {
        self.min_pair_count = n.max(1);
        self
    }

    /// Trains a [`Bpe`] tokenizer on `corpus`.
    ///
    /// The base alphabet is printable ASCII plus `\n` plus every character
    /// occurring in the corpus, so any corpus text round-trips exactly.
    pub fn train(&self, corpus: &str) -> Bpe {
        // Word (chunk) frequency table.
        let mut word_counts: HashMap<&str, u64> = HashMap::new();
        for chunk in pretokenize(corpus) {
            *word_counts.entry(chunk).or_insert(0) += 1;
        }

        // Base alphabet.
        let mut alphabet: Vec<char> = (' '..='~').collect();
        alphabet.push('\n');
        for c in corpus.chars() {
            if !alphabet.contains(&c) {
                alphabet.push(c);
            }
        }

        // Each distinct word as a symbol sequence, plus its count.
        let mut words: Vec<(Vec<String>, u64)> = word_counts
            .into_iter()
            .map(|(w, c)| (w.chars().map(String::from).collect(), c))
            .collect();
        // Deterministic order regardless of hash-map iteration.
        words.sort_by(|a, b| a.0.cmp(&b.0));

        let mut merges: Vec<(String, String)> = Vec::new();
        for _ in 0..self.merges {
            // Count adjacent symbol pairs, weighted by word frequency.
            let mut pair_counts: HashMap<(&str, &str), u64> = HashMap::new();
            for (syms, count) in &words {
                for pair in syms.windows(2) {
                    *pair_counts
                        .entry((pair[0].as_str(), pair[1].as_str()))
                        .or_insert(0) += count;
                }
            }
            // Best pair: max count, ties broken lexicographically for
            // deterministic training.
            let best = pair_counts
                .into_iter()
                .filter(|&(_, c)| c >= self.min_pair_count)
                .map(|((a, b), c)| (c, a.to_owned(), b.to_owned()))
                .max_by(|x, y| {
                    x.0.cmp(&y.0).then_with(|| {
                        (y.1.as_str(), y.2.as_str()).cmp(&(x.1.as_str(), x.2.as_str()))
                    })
                });
            let Some((_, a, b)) = best else { break };

            // Apply the merge to every word.
            for (syms, _) in &mut words {
                apply_merge(syms, &a, &b);
            }
            merges.push((a, b));
        }

        Bpe::from_parts(alphabet, merges)
    }
}

fn apply_merge(syms: &mut Vec<String>, a: &str, b: &str) {
    let mut i = 0;
    while i + 1 < syms.len() {
        if syms[i] == a && syms[i + 1] == b {
            let merged = format!("{a}{b}");
            syms[i] = merged;
            syms.remove(i + 1);
        } else {
            i += 1;
        }
    }
}

/// A trained byte-pair-encoding tokenizer.
///
/// Holds the [`Vocabulary`] (base characters + merge products + EOS) and the
/// merge table. Encoding is cached per pretokenisation chunk.
///
/// `Bpe` is `Send + Sync`; share it between threads via `Arc`.
#[derive(Debug)]
pub struct Bpe {
    vocab: Vocabulary,
    /// The merge table over token ids: a pair's rank (lower merges first)
    /// and the token it merges into.
    merges: HashMap<(TokenId, TokenId), (usize, TokenId)>,
    /// Per-chunk encode cache (chunk → token ids).
    cache: Mutex<HashMap<String, Vec<TokenId>>>,
}

impl Bpe {
    fn from_parts(alphabet: Vec<char>, merges: Vec<(String, String)>) -> Self {
        let mut token_strs: Vec<String> = alphabet.iter().map(|&c| String::from(c)).collect();
        let mut seen: HashMap<String, ()> = token_strs.iter().map(|s| (s.clone(), ())).collect();
        for (a, b) in &merges {
            let merged = format!("{a}{b}");
            if seen.insert(merged.clone(), ()).is_none() {
                token_strs.push(merged);
            }
        }
        let vocab = Vocabulary::from_tokens(token_strs);
        // A repeated pair keeps its last rank.
        let id = |piece: &str| {
            vocab
                .id_of(piece)
                .expect("every merge piece and product is in the vocabulary")
        };
        let merges = merges
            .iter()
            .enumerate()
            .map(|(rank, (a, b))| ((id(a), id(b)), (rank, id(&format!("{a}{b}")))))
            .collect();
        Bpe {
            vocab,
            merges,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Serialises the tokenizer (alphabet + ordered merge table) to a
    /// line-oriented text format, so a trained tokenizer can be persisted
    /// and reloaded with [`Bpe::from_text`] without retraining.
    ///
    /// Characters are written as hex code points (`.`-joined within a
    /// merge piece), keeping the format safe for any alphabet.
    pub fn to_text(&self) -> String {
        let mut out = String::from("lmql-bpe-v1\n");
        // Alphabet in vocabulary-id order, so reloaded token ids match.
        let alphabet: Vec<char> = self
            .vocab
            .regular_tokens()
            .filter_map(|(_, s)| {
                let mut it = s.chars();
                match (it.next(), it.next()) {
                    (Some(c), None) => Some(c),
                    _ => None,
                }
            })
            .collect();
        out.push_str("alphabet");
        for c in alphabet {
            out.push_str(&format!(" {:x}", c as u32));
        }
        out.push('\n');

        let mut merges: Vec<(usize, TokenId, TokenId)> = self
            .merges
            .iter()
            .map(|(&(a, b), &(rank, _))| (rank, a, b))
            .collect();
        merges.sort_unstable();
        let piece = |s: &str| -> String {
            s.chars()
                .map(|c| format!("{:x}", c as u32))
                .collect::<Vec<_>>()
                .join(".")
        };
        for (_, a, b) in merges {
            out.push_str(&format!(
                "merge {} {}\n",
                piece(self.vocab.token_str(a)),
                piece(self.vocab.token_str(b))
            ));
        }
        out
    }

    /// Reconstructs a tokenizer from [`Bpe::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for unrecognised headers or
    /// malformed lines.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some("lmql-bpe-v1") {
            return Err("missing lmql-bpe-v1 header".to_owned());
        }
        let parse_char = |hex: &str| -> Result<char, String> {
            u32::from_str_radix(hex, 16)
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| format!("invalid code point {hex:?}"))
        };
        let parse_piece =
            |p: &str| -> Result<String, String> { p.split('.').map(parse_char).collect() };

        let alphabet_line = lines.next().ok_or("missing alphabet line")?;
        let mut parts = alphabet_line.split_whitespace();
        if parts.next() != Some("alphabet") {
            return Err("expected `alphabet` line".to_owned());
        }
        let alphabet: Vec<char> = parts.map(parse_char).collect::<Result<_, _>>()?;

        let mut merges = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if parts.next() != Some("merge") {
                return Err(format!("expected `merge` line, got {line:?}"));
            }
            let a = parse_piece(parts.next().ok_or("merge missing first piece")?)?;
            let b = parse_piece(parts.next().ok_or("merge missing second piece")?)?;
            merges.push((a, b));
        }
        // A merge piece must be a token: an alphabet character or the
        // product of some merge.
        let tokens: HashSet<String> = alphabet
            .iter()
            .map(|&c| String::from(c))
            .chain(merges.iter().map(|(a, b)| format!("{a}{b}")))
            .collect();
        if let Some(piece) = merges
            .iter()
            .flat_map(|(a, b)| [a, b])
            .find(|piece| !tokens.contains(*piece))
        {
            return Err(format!("merge piece {piece:?} is not a token"));
        }
        Ok(Bpe::from_parts(alphabet, merges))
    }

    /// Builds a character-level tokenizer (no merges) over the given
    /// alphabet plus printable ASCII. Useful for tests that need exact
    /// control over the vocabulary.
    pub fn char_level(extra: &str) -> Self {
        let mut alphabet: Vec<char> = (' '..='~').collect();
        alphabet.push('\n');
        for c in extra.chars() {
            if !alphabet.contains(&c) {
                alphabet.push(c);
            }
        }
        Bpe::from_parts(alphabet, Vec::new())
    }

    /// The tokenizer's vocabulary (including EOS).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Encodes text into token ids. Characters outside the alphabet are
    /// replaced by `'?'`.
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut out = Vec::new();
        self.encode_into(text, &mut out);
        out
    }

    /// [`encode`](Self::encode), appending to `out` instead of returning
    /// a fresh `Vec`.
    pub fn encode_into(&self, text: &str, out: &mut Vec<TokenId>) {
        for chunk in chunks(text) {
            self.encode_chunk_into(chunk, out);
        }
    }

    /// Appends one pretokenisation chunk's ids to `out`, through the
    /// shared encode cache.
    pub(crate) fn encode_chunk_into(&self, chunk: &str, out: &mut Vec<TokenId>) {
        if let Some(ids) = self.cache.lock().expect("bpe cache poisoned").get(chunk) {
            out.extend_from_slice(ids);
            return;
        }
        let ids = self.encode_chunk(chunk);
        out.extend_from_slice(&ids);
        self.cache
            .lock()
            .expect("bpe cache poisoned")
            .insert(chunk.to_owned(), ids);
    }

    /// Applies the merges to one chunk: repeatedly merge every occurrence,
    /// left to right, of the adjacent pair with the lowest rank (the
    /// leftmost such pair names it).
    fn encode_chunk(&self, chunk: &str) -> Vec<TokenId> {
        let id = |c: char| self.vocab.id_of(c.encode_utf8(&mut [0; 4]));
        let mut syms: Vec<TokenId> = chunk
            .chars()
            .map(|c| {
                id(c).unwrap_or_else(|| {
                    id(UNKNOWN_CHAR).expect("an uncovered character needs `?` in the alphabet")
                })
            })
            .collect();
        while let Some((_, i)) = syms
            .windows(2)
            .enumerate()
            .filter_map(|(i, w)| self.merges.get(&(w[0], w[1])).map(|&(rank, _)| (rank, i)))
            .min()
        {
            let (a, b) = (syms[i], syms[i + 1]);
            let merged = self.merges[&(a, b)].1;
            let (mut read, mut write) = (0, 0);
            while read < syms.len() {
                if read + 1 < syms.len() && syms[read] == a && syms[read + 1] == b {
                    syms[write] = merged;
                    read += 2;
                } else {
                    syms[write] = syms[read];
                    read += 1;
                }
                write += 1;
            }
            syms.truncate(write);
        }
        syms
    }

    /// FNV-1a hash over the first `max_tokens` token ids of `text`'s
    /// encoding — the routing key for prefix-affinity sharding.
    ///
    /// Equivalent to hashing `encode(text)` truncated to `max_tokens`,
    /// but derived without materialising a token `Vec`: chunks stream
    /// through [`chunks`](crate::chunks) (no per-call chunk list) and
    /// their ids are folded straight out of the shared encode cache. On
    /// the steady-state path — every chunk already cached, which is
    /// exactly the shared-prefix traffic affinity routing exists for —
    /// this performs **zero allocations**, pinned by the workspace
    /// `alloc_budget` tests. Only a chunk's first-ever sighting pays the
    /// encode (and caches it for `encode` to reuse, and vice versa).
    pub fn prefix_fingerprint(&self, text: &str, max_tokens: usize) -> u64 {
        let mut hash = FNV_OFFSET;
        if max_tokens == 0 {
            return hash;
        }
        let mut taken = 0usize;
        for chunk in chunks(text) {
            let cache = self.cache.lock().expect("bpe cache poisoned");
            if let Some(ids) = cache.get(chunk) {
                for &id in ids {
                    hash = fnv_fold(hash, id);
                    taken += 1;
                    if taken == max_tokens {
                        return hash;
                    }
                }
            } else {
                drop(cache);
                let ids = self.encode_chunk(chunk);
                for &id in &ids {
                    hash = fnv_fold(hash, id);
                    taken += 1;
                    if taken == max_tokens {
                        break;
                    }
                }
                self.cache
                    .lock()
                    .expect("bpe cache poisoned")
                    .insert(chunk.to_owned(), ids);
                if taken == max_tokens {
                    return hash;
                }
            }
        }
        hash
    }

    /// Decodes token ids back to text (special tokens are skipped).
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range for this tokenizer's vocabulary.
    pub fn decode(&self, ids: &[TokenId]) -> String {
        self.vocab.decode(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: &str = "the cat sat on the mat. the cat sat on the hat. \
                          the bat sat on the cat. a cat and a bat and a hat.";

    #[test]
    fn roundtrip_on_corpus_text() {
        let bpe = BpeTrainer::new().merges(60).train(CORPUS);
        for text in [CORPUS, "the cat", "a hat.", " on the mat"] {
            assert_eq!(bpe.decode(&bpe.encode(text)), text);
        }
    }

    #[test]
    fn merges_compress() {
        let bpe = BpeTrainer::new().merges(60).train(CORPUS);
        let char_count = "the cat sat on the mat".chars().count();
        let tok_count = bpe.encode("the cat sat on the mat").len();
        assert!(
            tok_count < char_count,
            "expected compression: {tok_count} tokens vs {char_count} chars"
        );
    }

    #[test]
    fn common_words_become_single_tokens() {
        let bpe = BpeTrainer::new()
            .merges(200)
            .min_pair_count(2)
            .train(CORPUS);
        // "the" (with leading space) occurs many times; it should merge
        // into few tokens, usually one.
        let ids = bpe.encode(" the");
        assert!(ids.len() <= 2, "' the' encoded as {} tokens", ids.len());
    }

    #[test]
    fn unknown_chars_replaced() {
        let bpe = BpeTrainer::new().merges(10).train("plain ascii only");
        let decoded = bpe.decode(&bpe.encode("héllo"));
        assert_eq!(decoded, "h?llo");
    }

    #[test]
    fn char_level_has_no_merges() {
        let bpe = Bpe::char_level("");
        let ids = bpe.encode("abc");
        assert_eq!(ids.len(), 3);
        assert_eq!(bpe.decode(&ids), "abc");
    }

    #[test]
    fn training_is_deterministic() {
        let a = BpeTrainer::new().merges(50).train(CORPUS);
        let b = BpeTrainer::new().merges(50).train(CORPUS);
        assert_eq!(a.encode(CORPUS), b.encode(CORPUS));
        assert_eq!(a.vocab().len(), b.vocab().len());
    }

    /// The fingerprint is a pure function of the first `max_tokens` ids
    /// of the encoding: texts sharing that token prefix collide (that is
    /// the affinity-routing contract), texts differing within it do not.
    #[test]
    fn prefix_fingerprint_tracks_token_prefix() {
        let bpe = BpeTrainer::new().merges(60).train(CORPUS);
        let a = "the cat sat on the mat. first tail";
        let b = "the cat sat on the mat. second ending";
        let shared = bpe
            .encode(a)
            .iter()
            .zip(bpe.encode(b).iter())
            .take_while(|(x, y)| x == y)
            .count();
        assert!(shared >= 4, "test premise: prompts share a token prefix");
        assert_eq!(
            bpe.prefix_fingerprint(a, shared),
            bpe.prefix_fingerprint(b, shared),
            "same first {shared} tokens, same key"
        );
        assert_ne!(
            bpe.prefix_fingerprint("the cat sat", 8),
            bpe.prefix_fingerprint("a bat and", 8),
            "different prefixes get different keys"
        );
        // Stable across repeated calls (cold cache vs. warm cache).
        assert_eq!(bpe.prefix_fingerprint(a, 6), bpe.prefix_fingerprint(a, 6));
        // A text shorter than the budget hashes all of its tokens.
        let full = bpe.encode("the cat").len();
        assert_eq!(
            bpe.prefix_fingerprint("the cat", full),
            bpe.prefix_fingerprint("the cat", full + 100)
        );
        // Text-derived and token-derived keys agree, so scoring requests
        // carrying raw token contexts shard with their source queries.
        assert_eq!(
            bpe.prefix_fingerprint(a, 7),
            fingerprint_tokens(&bpe.encode(a), 7)
        );
    }

    #[test]
    fn chunk_iterator_matches_pretokenize() {
        for text in [
            "She sells, yes\n twice",
            "  double  spaces ",
            "line\nbreaks\n\nhere",
            "punct, and. more! <<3*4=12>>",
            "",
            " ",
            "\n",
            "a",
            "trailing space ",
        ] {
            let streamed: Vec<&str> = crate::chunks(text).collect();
            assert_eq!(streamed, crate::pretokenize(text), "case {text:?}");
        }
    }

    #[test]
    fn text_roundtrip_preserves_encoding() {
        let bpe = BpeTrainer::new().merges(80).train(CORPUS);
        let text = bpe.to_text();
        let reloaded = Bpe::from_text(&text).unwrap();
        for sample in [
            CORPUS,
            "the cat sat",
            "a hat. the bat",
            "unseen words zebra",
        ] {
            assert_eq!(bpe.encode(sample), reloaded.encode(sample), "{sample:?}");
        }
        assert_eq!(bpe.vocab().len(), reloaded.vocab().len());
        // The format is stable under a second roundtrip.
        assert_eq!(text, reloaded.to_text());
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Bpe::from_text("not a tokenizer").is_err());
        assert!(Bpe::from_text("lmql-bpe-v1\nwrong 61\n").is_err());
        assert!(Bpe::from_text("lmql-bpe-v1\nalphabet 61\nmerge zz 61\n").is_err());
        assert!(Bpe::from_text("lmql-bpe-v1\nalphabet 61\nmerge 61\n").is_err());
        assert!(Bpe::from_text("lmql-bpe-v1\nalphabet 61\nmerge 61.61 61\n").is_err());
    }

    /// The merge loop as it stood over string symbols: every pair lookup
    /// cloned both strings, and the winning rank was turned back into its
    /// pair by a scan of the whole table.
    fn encode_chunk_reference(
        merge_rank: &HashMap<(String, String), usize>,
        vocab: &Vocabulary,
        chunk: &str,
    ) -> Vec<TokenId> {
        let mut syms: Vec<String> = chunk
            .chars()
            .map(|c| {
                if vocab.id_of(&String::from(c)).is_some() {
                    String::from(c)
                } else {
                    String::from(UNKNOWN_CHAR)
                }
            })
            .collect();
        loop {
            let mut best: Option<(usize, usize)> = None;
            for i in 0..syms.len().saturating_sub(1) {
                if let Some(&rank) = merge_rank.get(&(syms[i].clone(), syms[i + 1].clone())) {
                    if best.is_none_or(|(r, _)| rank < r) {
                        best = Some((rank, i));
                    }
                }
            }
            let Some((rank, _)) = best else { break };
            let (a, b) = merge_rank
                .iter()
                .find(|&(_, &r)| r == rank)
                .map(|(p, _)| p.clone())
                .unwrap();
            apply_merge(&mut syms, &a, &b);
        }
        syms.iter().map(|s| vocab.id_of(s).unwrap()).collect()
    }

    /// The id-keyed merge loop encodes every chunk exactly as the string
    /// loop did: trained tables, and hand-written ones with overlapping
    /// pairs and a repeated pair.
    #[test]
    fn merge_loop_matches_string_reference() {
        let pieces = |merges: &[(&str, &str)]| -> Vec<(String, String)> {
            merges
                .iter()
                .map(|&(a, b)| (a.to_owned(), b.to_owned()))
                .collect()
        };
        let trained = BpeTrainer::new().merges(200).train(CORPUS);
        let trained_merges: Vec<(String, String)> = trained
            .to_text()
            .lines()
            .filter_map(|l| l.strip_prefix("merge "))
            .map(|l| {
                let piece = |p: &str| -> String {
                    p.split('.')
                        .map(|h| char::from_u32(u32::from_str_radix(h, 16).unwrap()).unwrap())
                        .collect()
                };
                let (a, b) = l.split_once(' ').unwrap();
                (piece(a), piece(b))
            })
            .collect();
        let alphabet: Vec<char> = (' '..='~').chain(['\n']).collect();
        let tables = [
            trained_merges,
            pieces(&[("a", "a"), ("aa", "a"), ("a", "aa"), ("b", "a"), ("a", "b")]),
            pieces(&[("t", "h"), ("th", "e"), ("t", "h"), ("e", " ")]),
            pieces(&[(" ", "a"), (" a", "a"), ("a", "a"), (" aa", "aa")]),
        ];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut texts: Vec<String> = pretokenize(CORPUS).into_iter().map(str::to_owned).collect();
        let letters: Vec<char> = "aabtthe .,\n?\u{e9}".chars().collect();
        for _ in 0..400 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let len = (state % 12) as usize;
            texts.push(
                (0..len)
                    .map(|k| letters[((state >> (8 + 3 * k)) % letters.len() as u64) as usize])
                    .collect(),
            );
        }
        for merges in tables {
            let bpe = Bpe::from_parts(alphabet.clone(), merges.clone());
            let merge_rank: HashMap<(String, String), usize> = merges
                .into_iter()
                .enumerate()
                .map(|(i, p)| (p, i))
                .collect();
            for text in &texts {
                for chunk in pretokenize(text) {
                    assert_eq!(
                        bpe.encode_chunk(chunk),
                        encode_chunk_reference(&merge_rank, bpe.vocab(), chunk),
                        "chunk {chunk:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn multiple_factorizations_exist() {
        // After enough merges the vocabulary contains both "th" and "the"
        // style tokens, i.e. several factorizations of the same string —
        // the property §5.2's subtokenization handling relies on.
        let bpe = BpeTrainer::new().merges(200).train(CORPUS);
        let v = bpe.vocab();
        let multi: usize = v
            .regular_tokens()
            .filter(|(_, s)| s.chars().count() > 1)
            .count();
        assert!(multi > 5, "expected several multi-char tokens, got {multi}");
    }
}
