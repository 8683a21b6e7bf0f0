//! Next-token score vectors and the probability math from §2.1.

use lmql_tokenizer::{TokenId, TokenSet};
use rand::Rng;
use std::sync::Arc;

/// Raw per-token scores `z = f(t_1, …, t_k)` returned by a model.
///
/// Convert to probabilities with [`Logits::softmax`], optionally with a
/// temperature `τ` (`softmax(z/τ)`, §2.1), and apply decoding masks with
/// [`Distribution::masked`].
///
/// The scores are a shared, immutable buffer: a clone is a refcount bump,
/// so a cache and every caller it answers hold one vector between them.
/// [`Logits::set`] and [`Logits::raise`] copy on write, and only when
/// the buffer is shared. A model builds its vector in one allocation by
/// collecting the scores straight into a `Logits` (it implements
/// `FromIterator<f64>`); [`Logits::from_vec`] copies into a new buffer.
///
/// # Example
///
/// ```
/// use lmql_lm::Logits;
/// use lmql_tokenizer::TokenId;
///
/// let logits = Logits::from_vec(vec![0.0, 1.0, 2.0]);
/// let dist = logits.softmax(1.0);
/// assert_eq!(dist.argmax(), TokenId(2));
/// assert!((dist.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Logits {
    scores: Arc<[f64]>,
}

impl FromIterator<f64> for Logits {
    /// Collects the scores into one allocation when the iterator knows
    /// its exact length (a `map` over the vocabulary's ids does).
    fn from_iter<I: IntoIterator<Item = f64>>(scores: I) -> Self {
        Logits {
            scores: scores.into_iter().collect(),
        }
    }
}

impl Logits {
    /// Wraps a raw score vector.
    pub fn from_vec(scores: Vec<f64>) -> Self {
        Logits {
            scores: scores.into(),
        }
    }

    /// A constant score vector of the given length.
    pub fn constant(len: usize, value: f64) -> Self {
        std::iter::repeat_n(value, len).collect()
    }

    /// Number of entries (= vocabulary size).
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` if the vector is empty (never the case for real models).
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The raw score of one token.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn get(&self, id: TokenId) -> f64 {
        self.scores[id.index()]
    }

    /// Sets the raw score of one token.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set(&mut self, id: TokenId, value: f64) {
        Arc::make_mut(&mut self.scores)[id.index()] = value;
    }

    /// Raises the score of `id` to at least `value`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn raise(&mut self, id: TokenId, value: f64) {
        if self.scores[id.index()] < value {
            Arc::make_mut(&mut self.scores)[id.index()] = value;
        }
    }

    /// Read-only access to the raw scores.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// `softmax(z/τ)` over the scores.
    ///
    /// # Panics
    ///
    /// Panics if `temperature <= 0` or the vector is empty.
    pub fn softmax(&self, temperature: f64) -> Distribution {
        let mut out = Distribution::empty();
        self.softmax_into(temperature, &mut out);
        out
    }

    /// [`Logits::softmax`] into a reused buffer: `out` is overwritten
    /// with exactly the same values (identical floating-point operation
    /// order), allocation-free once `out` has the vocabulary's capacity.
    /// The decode loop's steady-state entry point.
    ///
    /// # Panics
    ///
    /// Panics if `temperature <= 0` or the vector is empty.
    pub fn softmax_into(&self, temperature: f64, out: &mut Distribution) {
        assert!(temperature > 0.0, "temperature must be positive");
        assert!(!self.scores.is_empty(), "cannot softmax empty logits");
        let max = self
            .scores
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        out.probs.clear();
        out.probs.reserve(self.scores.len());
        out.probs
            .extend(self.scores.iter().map(|&z| ((z - max) / temperature).exp()));
        let sum: f64 = out.probs.iter().sum();
        for p in &mut out.probs {
            *p /= sum;
        }
    }
}

/// A probability distribution over the vocabulary (entries sum to 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    probs: Vec<f64>,
}

impl Distribution {
    /// An empty distribution, for use as a reusable
    /// [`Logits::softmax_into`] scratch buffer.
    pub fn empty() -> Self {
        Distribution { probs: Vec::new() }
    }

    /// Read-only access to the probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The probability of one token.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn prob(&self, id: TokenId) -> f64 {
        self.probs[id.index()]
    }

    /// `m ⊙ softmax(z)` renormalised by `1/Σᵢ(m ⊙ softmax(z))ᵢ`
    /// (§2.1 "Masked Decoding"). Returns `None` when the mask removes all
    /// probability mass (the `⋀ᵢ mᵢ = 0` early-exit of Alg. 2).
    ///
    /// # Panics
    ///
    /// Panics if the mask universe does not match the distribution length.
    pub fn masked(&self, mask: &TokenSet) -> Option<Distribution> {
        let mut out = self.clone();
        if out.mask_in_place(mask) {
            Some(out)
        } else {
            None
        }
    }

    /// [`Distribution::masked`] without the clone: zeroes the non-mask
    /// entries and renormalises in place, with the identical
    /// floating-point operation order. Returns `false` (leaving the
    /// contents unnormalised garbage) when the mask removes all
    /// probability mass; callers then discard or overwrite the buffer.
    ///
    /// # Panics
    ///
    /// Panics if the mask universe does not match the distribution length.
    pub fn mask_in_place(&mut self, mask: &TokenSet) -> bool {
        assert_eq!(
            mask.universe_len(),
            self.probs.len(),
            "mask universe does not match distribution"
        );
        for (i, p) in self.probs.iter_mut().enumerate() {
            if !mask.contains(TokenId(i as u32)) {
                *p = 0.0;
            }
        }
        let z: f64 = self.probs.iter().sum();
        if z <= 0.0 {
            return false;
        }
        for p in &mut self.probs {
            *p /= z;
        }
        true
    }

    /// The highest-probability token; ties break toward the lowest id so
    /// argmax decoding is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty.
    pub fn argmax(&self) -> TokenId {
        assert!(!self.probs.is_empty(), "empty distribution");
        let mut best = 0usize;
        for (i, &p) in self.probs.iter().enumerate() {
            if p > self.probs[best] {
                best = i;
            }
        }
        TokenId(best as u32)
    }

    /// Samples a token according to the distribution.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> TokenId {
        assert!(!self.probs.is_empty(), "empty distribution");
        let x: f64 = rng.gen::<f64>();
        let mut acc = 0.0;
        for (i, &p) in self.probs.iter().enumerate() {
            acc += p;
            if x < acc {
                return TokenId(i as u32);
            }
        }
        // Floating-point slack: fall back to the last positive entry.
        let last = self
            .probs
            .iter()
            .rposition(|&p| p > 0.0)
            .unwrap_or(self.probs.len() - 1);
        TokenId(last as u32)
    }

    /// The `k` highest-probability tokens with their probabilities, in
    /// decreasing order (ties toward lower ids). Used by beam search.
    pub fn top_k(&self, k: usize) -> Vec<(TokenId, f64)> {
        let mut idx: Vec<usize> = (0..self.probs.len()).collect();
        idx.sort_by(|&a, &b| {
            self.probs[b]
                .partial_cmp(&self.probs[a])
                .expect("probabilities are never NaN")
                .then(a.cmp(&b))
        });
        idx.into_iter()
            .take(k)
            .map(|i| (TokenId(i as u32), self.probs[i]))
            .collect()
    }

    /// Natural-log probability of one token (`-inf` for zero probability).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn log_prob(&self, id: TokenId) -> f64 {
        let p = self.probs[id.index()];
        if p > 0.0 {
            p.ln()
        } else {
            f64::NEG_INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_tokenizer::TokenSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one() {
        let d = Logits::from_vec(vec![1.0, 2.0, 3.0, -1.0]).softmax(1.0);
        assert!((d.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_is_monotone() {
        let d = Logits::from_vec(vec![0.0, 1.0, 2.0]).softmax(1.0);
        assert!(d.prob(TokenId(0)) < d.prob(TokenId(1)));
        assert!(d.prob(TokenId(1)) < d.prob(TokenId(2)));
    }

    #[test]
    fn high_temperature_flattens() {
        let logits = Logits::from_vec(vec![0.0, 4.0]);
        let sharp = logits.softmax(0.5);
        let flat = logits.softmax(4.0);
        assert!(sharp.prob(TokenId(1)) > flat.prob(TokenId(1)));
        assert!(flat.prob(TokenId(0)) > sharp.prob(TokenId(0)));
    }

    #[test]
    fn masked_renormalises() {
        let d = Logits::from_vec(vec![1.0, 1.0, 1.0, 1.0]).softmax(1.0);
        let mask = TokenSet::from_ids(4, [TokenId(1), TokenId(2)]);
        let m = d.masked(&mask).unwrap();
        assert_eq!(m.prob(TokenId(0)), 0.0);
        assert!((m.prob(TokenId(1)) - 0.5).abs() < 1e-12);
        assert!((m.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_masked_is_none() {
        let d = Logits::from_vec(vec![1.0, 2.0]).softmax(1.0);
        assert!(d.masked(&TokenSet::empty(2)).is_none());
    }

    #[test]
    fn argmax_tie_breaks_low() {
        let d = Logits::from_vec(vec![1.0, 1.0]).softmax(1.0);
        assert_eq!(d.argmax(), TokenId(0));
    }

    #[test]
    fn sample_respects_mask() {
        let d = Logits::from_vec(vec![5.0, 5.0, 5.0]).softmax(1.0);
        let mask = TokenSet::from_ids(3, [TokenId(2)]);
        let m = d.masked(&mask).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            assert_eq!(m.sample(&mut rng), TokenId(2));
        }
    }

    #[test]
    fn top_k_ordered() {
        let d = Logits::from_vec(vec![0.0, 3.0, 1.0, 2.0]).softmax(1.0);
        let top: Vec<TokenId> = d.top_k(3).into_iter().map(|(t, _)| t).collect();
        assert_eq!(top, vec![TokenId(1), TokenId(3), TokenId(2)]);
    }

    #[test]
    fn log_prob_matches() {
        let d = Logits::from_vec(vec![0.0, 0.0]).softmax(1.0);
        assert!((d.log_prob(TokenId(0)) - 0.5f64.ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_panics() {
        let _ = Logits::from_vec(vec![1.0]).softmax(0.0);
    }

    #[test]
    fn softmax_into_is_bit_identical_and_reusable() {
        let logits = Logits::from_vec(vec![0.3, -1.7, 2.2, 0.0, 5.5]);
        let mut scratch = Distribution::empty();
        for &temp in &[0.5, 1.0, 2.0] {
            // Dirty the buffer to prove it is fully overwritten.
            scratch.probs = vec![9.0; 2];
            logits.softmax_into(temp, &mut scratch);
            let fresh = logits.softmax(temp);
            assert_eq!(
                scratch
                    .probs()
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<_>>(),
                fresh
                    .probs()
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<_>>(),
                "softmax_into must be bit-identical to softmax at τ={temp}"
            );
        }
    }

    #[test]
    fn mask_in_place_is_bit_identical() {
        let d = Logits::from_vec(vec![1.0, 0.5, 3.0, -2.0]).softmax(1.0);
        let mask = TokenSet::from_ids(4, [TokenId(0), TokenId(2)]);
        let fresh = d.masked(&mask).unwrap();
        let mut inplace = d.clone();
        assert!(inplace.mask_in_place(&mask));
        assert_eq!(
            inplace
                .probs()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>(),
            fresh
                .probs()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn clones_share_one_buffer_until_written() {
        let a: Logits = [1.0, 2.0, 3.0].into_iter().collect();
        let mut b = a.clone();
        assert!(std::ptr::eq(a.scores(), b.scores()), "a clone shares");
        b.raise(TokenId(0), 0.5); // no change: stays shared
        assert!(std::ptr::eq(a.scores(), b.scores()));
        b.set(TokenId(1), 9.0); // copy on write
        assert_eq!(a.scores(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.scores(), &[1.0, 9.0, 3.0]);
        assert_eq!(Logits::constant(2, 4.0), Logits::from_vec(vec![4.0; 2]));
    }

    #[test]
    fn mask_in_place_reports_dead_mask() {
        let mut d = Logits::from_vec(vec![1.0, 2.0]).softmax(1.0);
        assert!(!d.mask_in_place(&TokenSet::empty(2)));
    }
}
