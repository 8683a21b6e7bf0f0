//! A bitset over a vocabulary, used to represent decoding masks.

use crate::TokenId;
use std::fmt;

/// A set of token ids, stored as a bitset sized to one vocabulary.
///
/// This is the representation of the decoding mask `m ∈ {0,1}^|V|` from the
/// paper's Alg. 2: tokens in the set are *admissible* for the next decoding
/// step, tokens outside it are masked out.
///
/// # Example
///
/// ```
/// use lmql_tokenizer::{TokenSet, TokenId};
///
/// let mut m = TokenSet::empty(8);
/// m.insert(TokenId(1));
/// m.insert(TokenId(3));
/// assert!(m.contains(TokenId(3)));
/// assert_eq!(m.count(), 2);
///
/// let all = TokenSet::full(8);
/// let inter = m.intersection(&all);
/// assert_eq!(inter, m);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TokenSet {
    bits: Vec<u64>,
    len: usize,
}

impl TokenSet {
    /// An empty set over a vocabulary of `len` tokens.
    pub fn empty(len: usize) -> Self {
        TokenSet {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The full set over a vocabulary of `len` tokens.
    pub fn full(len: usize) -> Self {
        let mut s = TokenSet {
            bits: vec![!0u64; len.div_ceil(64)],
            len,
        };
        s.trim();
        s
    }

    /// Builds a set from an iterator of ids.
    ///
    /// # Panics
    ///
    /// Panics if an id is `>= len`.
    pub fn from_ids<I: IntoIterator<Item = TokenId>>(len: usize, ids: I) -> Self {
        let mut s = TokenSet::empty(len);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Number of tokens in the underlying vocabulary (set capacity).
    pub fn universe_len(&self) -> usize {
        self.len
    }

    /// Clears bits beyond `len` so equality and counting stay exact.
    fn trim(&mut self) {
        let extra = self.bits.len() * 64 - self.len;
        if extra > 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= !0u64 >> extra;
            }
        }
    }

    /// Removes every token, keeping the allocation (the zero-alloc
    /// counterpart of [`TokenSet::empty`]).
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Adds every token, keeping the allocation (the zero-alloc
    /// counterpart of [`TokenSet::full`]).
    pub fn fill(&mut self) {
        self.bits.fill(!0u64);
        self.trim();
    }

    /// Overwrites this set with `other`'s contents, keeping the
    /// allocation (the zero-alloc counterpart of `clone_from`-into an
    /// existing buffer).
    ///
    /// # Panics
    ///
    /// Panics if the sets have different universes.
    pub fn fill_from(&mut self, other: &TokenSet) {
        assert_eq!(self.len, other.len, "token set universe mismatch");
        self.bits.copy_from_slice(&other.bits);
    }

    /// Complements the set in place within the vocabulary universe (the
    /// zero-alloc counterpart of [`TokenSet::complement`]).
    pub fn complement_in_place(&mut self) {
        for w in &mut self.bits {
            *w = !*w;
        }
        self.trim();
    }

    /// In-place set difference: removes every token of `other` from
    /// `self` (`a &= !b`), without the intermediate complement
    /// allocation of `intersect_with(&other.complement())`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different universes.
    pub fn subtract_with(&mut self, other: &TokenSet) {
        assert_eq!(self.len, other.len, "token set universe mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !b;
        }
    }

    /// The backing bit words, 64 tokens per word, least-significant bit
    /// first. Bits at positions `>= universe_len()` are always zero.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Adds a token to the set.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn insert(&mut self, id: TokenId) {
        assert!(id.index() < self.len, "token id {id} out of range");
        self.bits[id.index() / 64] |= 1 << (id.index() % 64);
    }

    /// Removes a token from the set.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn remove(&mut self, id: TokenId) {
        assert!(id.index() < self.len, "token id {id} out of range");
        self.bits[id.index() / 64] &= !(1 << (id.index() % 64));
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn contains(&self, id: TokenId) -> bool {
        assert!(id.index() < self.len, "token id {id} out of range");
        self.bits[id.index() / 64] & (1 << (id.index() % 64)) != 0
    }

    /// Number of tokens in the set.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no token is admissible (the "all-masked" stop condition of
    /// Alg. 2, line 4).
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Set intersection.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different universes.
    pub fn intersection(&self, other: &TokenSet) -> TokenSet {
        assert_eq!(self.len, other.len, "token set universe mismatch");
        TokenSet {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Set union.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different universes.
    pub fn union(&self, other: &TokenSet) -> TokenSet {
        assert_eq!(self.len, other.len, "token set universe mismatch");
        TokenSet {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Complement within the vocabulary universe.
    pub fn complement(&self) -> TokenSet {
        let mut s = TokenSet {
            bits: self.bits.iter().map(|w| !w).collect(),
            len: self.len,
        };
        s.trim();
        s
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different universes.
    pub fn intersect_with(&mut self, other: &TokenSet) {
        assert_eq!(self.len, other.len, "token set universe mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different universes.
    pub fn union_with(&mut self, other: &TokenSet) {
        assert_eq!(self.len, other.len, "token set universe mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Iterates over the ids in the set, in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            cur: if self.bits.is_empty() {
                0
            } else {
                self.bits[0]
            },
        }
    }
}

impl fmt::Debug for TokenSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TokenSet({}/{} tokens)", self.count(), self.len)
    }
}

impl<'a> IntoIterator for &'a TokenSet {
    type Item = TokenId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the ids contained in a [`TokenSet`].
pub struct Iter<'a> {
    set: &'a TokenSet,
    word: usize,
    cur: u64,
}

impl Iterator for Iter<'_> {
    type Item = TokenId;

    fn next(&mut self) -> Option<TokenId> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(TokenId((self.word * 64 + bit) as u32));
            }
            self.word += 1;
            if self.word >= self.set.bits.len() {
                return None;
            }
            self.cur = self.set.bits[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_empty() {
        let full = TokenSet::full(70);
        assert_eq!(full.count(), 70);
        assert!(!full.is_empty());
        let empty = TokenSet::empty(70);
        assert_eq!(empty.count(), 0);
        assert!(empty.is_empty());
        assert_eq!(full.complement(), empty);
        assert_eq!(empty.complement(), full);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = TokenSet::empty(130);
        s.insert(TokenId(0));
        s.insert(TokenId(64));
        s.insert(TokenId(129));
        assert!(s.contains(TokenId(64)));
        s.remove(TokenId(64));
        assert!(!s.contains(TokenId(64)));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn set_algebra() {
        let a = TokenSet::from_ids(10, [TokenId(1), TokenId(2), TokenId(3)]);
        let b = TokenSet::from_ids(10, [TokenId(3), TokenId(4)]);
        assert_eq!(a.intersection(&b), TokenSet::from_ids(10, [TokenId(3)]));
        assert_eq!(
            a.union(&b),
            TokenSet::from_ids(10, [TokenId(1), TokenId(2), TokenId(3), TokenId(4)])
        );
    }

    #[test]
    fn iter_in_order() {
        let ids = [TokenId(5), TokenId(63), TokenId(64), TokenId(99)];
        let s = TokenSet::from_ids(100, ids);
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, ids);
    }

    /// Lengths that exercise the tail word: exact multiples of 64,
    /// one-off boundaries, and small sets.
    const TAIL_LENGTHS: &[usize] = &[1, 3, 63, 64, 65, 127, 128, 129, 130, 191];

    fn no_tail_bits(s: &TokenSet) -> bool {
        let extra = s.words().len() * 64 - s.universe_len();
        extra == 0 || s.words().last().unwrap() & !(!0u64 >> extra) == 0
    }

    #[test]
    fn full_tail_word_is_exact() {
        for &len in TAIL_LENGTHS {
            let full = TokenSet::full(len);
            assert_eq!(full.count(), len, "full({len}) has exactly len tokens");
            assert!(no_tail_bits(&full), "full({len}) keeps tail bits clear");
            assert_eq!(full.iter().count(), len);
            assert!(full.iter().all(|t| t.index() < len));
        }
    }

    #[test]
    fn algebra_never_sets_tail_bits() {
        for &len in TAIL_LENGTHS {
            let every_third =
                TokenSet::from_ids(len, (0..len).step_by(3).map(|i| TokenId(i as u32)));
            let full = TokenSet::full(len);
            for s in [
                every_third.complement(),
                every_third.union(&full),
                every_third.intersection(&full),
                full.complement().complement(),
            ] {
                assert!(no_tail_bits(&s), "len {len}: tail bits leaked");
                assert!(s.count() <= len);
                assert!(s.iter().all(|t| t.index() < len));
            }
            assert_eq!(every_third.complement().count(), len - every_third.count());
        }
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        for &len in TAIL_LENGTHS {
            let a = TokenSet::from_ids(len, (0..len).step_by(2).map(|i| TokenId(i as u32)));
            let b = TokenSet::from_ids(len, (0..len).step_by(3).map(|i| TokenId(i as u32)));

            let mut c = TokenSet::empty(len);
            c.fill();
            assert_eq!(c, TokenSet::full(len));
            c.clear();
            assert_eq!(c, TokenSet::empty(len));
            c.fill_from(&a);
            assert_eq!(c, a);
            c.complement_in_place();
            assert_eq!(c, a.complement());
            assert!(no_tail_bits(&c));
            c.fill_from(&a);
            c.subtract_with(&b);
            assert_eq!(c, a.intersection(&b.complement()));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut s = TokenSet::empty(4);
        s.insert(TokenId(4));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let a = TokenSet::empty(4);
        let b = TokenSet::empty(5);
        let _ = a.union(&b);
    }
}
