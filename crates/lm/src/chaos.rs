//! Deterministic fault injection: a seeded chaos wrapper for any model.
//!
//! [`ChaosLm`] sits between a consumer and a real [`LanguageModel`] and
//! injects the failure modes a remote backend exhibits — transient
//! errors, latency spikes, truncated replies, and (optionally) a fatal
//! error — according to a [`FaultPlan`]. Every injection decision is a
//! **pure function of the plan's seed and the call ordinal**: replaying
//! the same call sequence with the same seed reproduces the same faults,
//! which is what makes chaos tests assertable rather than flaky.
//!
//! Under concurrency the *assignment* of ordinals to calls follows
//! arrival order, so which context hits which fault can vary — but the
//! fault *pattern* (how many, of which kind, at which ordinals) is fixed,
//! and the retrying scheduler above must absorb all of it either way.

use crate::{FaultKind, LanguageModel, LmError, LmResult, Logits};
use lmql_obs::Counter;
use lmql_tokenizer::{TokenId, Vocabulary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What faults to inject, and how often.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the per-call fault decisions.
    pub seed: u64,
    /// Probability a call returns a transient error.
    pub error_rate: f64,
    /// Probability a call returns a truncated logits vector (half the
    /// vocabulary) — caught by [`validated`](crate::validated).
    pub truncate_rate: f64,
    /// Probability a call stalls for [`latency`](Self::latency) first
    /// (drawn independently of the error faults; a call can both stall
    /// and fail).
    pub latency_rate: f64,
    /// The injected stall.
    pub latency: Duration,
    /// Call ordinals (0-based) that fail transiently regardless of rates
    /// — for pinning "error on the nth call" in regression tests.
    pub error_on_calls: Vec<u64>,
    /// Call ordinals that fail fatally regardless of rates.
    pub fatal_on_calls: Vec<u64>,
}

impl FaultPlan {
    /// A plan injecting transient errors at `error_rate` plus small
    /// latency spikes, seeded for reproducibility — the standard chaos
    /// profile used by tests and `lmql-run --chaos`.
    pub fn transient(seed: u64, error_rate: f64) -> Self {
        FaultPlan {
            seed,
            error_rate,
            truncate_rate: error_rate / 4.0,
            latency_rate: error_rate / 2.0,
            latency: Duration::from_micros(500),
            ..FaultPlan::default()
        }
    }
}

/// What the plan decided for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    TransientError,
    Truncate,
    Fatal,
}

/// Injection counters (shared by clones; readable while a test runs).
#[derive(Debug, Clone, Default)]
pub struct ChaosStats {
    /// Transient errors injected.
    pub errors: Counter,
    /// Truncated replies injected.
    pub truncations: Counter,
    /// Latency spikes injected.
    pub latency_spikes: Counter,
    /// Fatal errors injected.
    pub fatal: Counter,
}

impl ChaosStats {
    /// Total injected faults (excluding pure latency spikes).
    pub fn total_faults(&self) -> u64 {
        self.errors.get() + self.truncations.get() + self.fatal.get()
    }
}

/// A [`LanguageModel`] wrapper that injects faults per a [`FaultPlan`].
///
/// The infallible [`score`](LanguageModel::score) path panics on an
/// injected error (the trait contract has no error channel); serve it
/// behind the scheduler (whose items retry transient faults) to exercise
/// recovery.
#[derive(Debug)]
pub struct ChaosLm<L> {
    inner: L,
    plan: FaultPlan,
    calls: AtomicU64,
    stats: ChaosStats,
}

impl<L: LanguageModel> ChaosLm<L> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: L, plan: FaultPlan) -> Self {
        ChaosLm {
            inner,
            plan,
            calls: AtomicU64::new(0),
            stats: ChaosStats::default(),
        }
    }

    /// Injection counters.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Calls observed so far (each context of a batch counts once).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// The fault decision for call ordinal `n` — pure in `(seed, n)`.
    fn decide(&self, n: u64) -> Fault {
        if self.plan.fatal_on_calls.contains(&n) {
            return Fault::Fatal;
        }
        if self.plan.error_on_calls.contains(&n) {
            return Fault::TransientError;
        }
        let u = unit_draw(self.plan.seed, n, 0);
        if u < self.plan.error_rate {
            Fault::TransientError
        } else if u < self.plan.error_rate + self.plan.truncate_rate {
            Fault::Truncate
        } else {
            Fault::None
        }
    }

    fn maybe_stall(&self, n: u64) {
        if self.plan.latency_rate > 0.0
            && unit_draw(self.plan.seed, n, 1) < self.plan.latency_rate
            && !self.plan.latency.is_zero()
        {
            self.stats.latency_spikes.inc();
            std::thread::sleep(self.plan.latency);
        }
    }

    fn chaotic_score(&self, context: &[TokenId]) -> LmResult<Logits> {
        let n = self.calls.fetch_add(1, Ordering::SeqCst);
        self.maybe_stall(n);
        match self.decide(n) {
            Fault::None => self.inner.try_score(context),
            Fault::TransientError => {
                self.stats.errors.inc();
                Err(LmError::transient(
                    FaultKind::Injected,
                    format!("chaos: injected transient error on call {n}"),
                ))
            }
            Fault::Truncate => {
                self.stats.truncations.inc();
                let full = self.inner.try_score(context)?;
                let keep = full.len() / 2;
                Ok(full.scores()[..keep].iter().copied().collect())
            }
            Fault::Fatal => {
                self.stats.fatal.inc();
                Err(LmError::fatal(format!(
                    "chaos: injected fatal error on call {n}"
                )))
            }
        }
    }
}

/// A uniform draw in `[0, 1)`, pure in `(seed, ordinal, stream)`.
fn unit_draw(seed: u64, ordinal: u64, stream: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(ordinal.wrapping_mul(0x2545_f491_4f6c_dd1d))
        .wrapping_add(stream.wrapping_mul(0xda94_2042_e4dd_58b5));
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl<L: LanguageModel> LanguageModel for ChaosLm<L> {
    fn vocab(&self) -> &Vocabulary {
        self.inner.vocab()
    }

    /// Each context draws its own fault decision (its own ordinal), so a
    /// batch can come back with a mix of successes and failures — exactly
    /// the partial-failure shape the scheduler must survive.
    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        contexts.iter().map(|c| self.chaotic_score(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{call_with_retry, context_token, validated, RetryMetrics, RetryPolicy, UniformLm};
    use lmql_tokenizer::Bpe;
    use std::sync::Arc;

    fn uniform() -> UniformLm {
        UniformLm::new(Arc::new(Bpe::char_level("")))
    }

    fn fault_pattern(plan: &FaultPlan, calls: u64) -> Vec<bool> {
        let lm = ChaosLm::new(uniform(), plan.clone());
        (0..calls).map(|_| lm.try_score(&[]).is_err()).collect()
    }

    #[test]
    fn same_seed_same_faults() {
        let plan = FaultPlan::transient(7, 0.3);
        assert_eq!(fault_pattern(&plan, 200), fault_pattern(&plan, 200));
    }

    #[test]
    fn different_seed_different_faults() {
        let a = fault_pattern(&FaultPlan::transient(1, 0.3), 200);
        let b = fault_pattern(&FaultPlan::transient(2, 0.3), 200);
        assert_ne!(a, b);
    }

    #[test]
    fn error_rate_is_roughly_honoured() {
        let plan = FaultPlan {
            seed: 11,
            error_rate: 0.2,
            ..FaultPlan::default()
        };
        let fails = fault_pattern(&plan, 1000).iter().filter(|f| **f).count();
        assert!(
            (120..=280).contains(&fails),
            "expected ~200 failures of 1000, got {fails}"
        );
    }

    #[test]
    fn error_on_nth_call_is_exact() {
        let plan = FaultPlan {
            error_on_calls: vec![0, 3],
            ..FaultPlan::default()
        };
        let lm = ChaosLm::new(uniform(), plan);
        assert!(lm.try_score(&[]).is_err(), "call 0 injected");
        assert!(lm.try_score(&[]).is_ok());
        assert!(lm.try_score(&[]).is_ok());
        assert!(lm.try_score(&[]).is_err(), "call 3 injected");
        assert!(lm.try_score(&[]).is_ok());
        assert_eq!(lm.stats().errors.get(), 2);
    }

    #[test]
    fn fatal_on_call_is_fatal() {
        let plan = FaultPlan {
            fatal_on_calls: vec![1],
            ..FaultPlan::default()
        };
        let lm = ChaosLm::new(uniform(), plan);
        assert!(lm.try_score(&[]).is_ok());
        let err = lm.try_score(&[]).unwrap_err();
        assert!(matches!(err, LmError::Fatal { .. }));
    }

    #[test]
    fn truncation_shortens_the_reply() {
        let plan = FaultPlan {
            seed: 3,
            truncate_rate: 1.0,
            ..FaultPlan::default()
        };
        let lm = ChaosLm::new(uniform(), plan);
        let out = lm.try_score(&[]).unwrap();
        assert_eq!(out.len(), lm.vocab().len() / 2);
        assert_eq!(lm.stats().truncations.get(), 1);
    }

    #[test]
    fn retry_layer_recovers_chaos_to_clean_scores() {
        let reference = uniform();
        let lm = ChaosLm::new(uniform(), FaultPlan::transient(9, 0.5));
        let policy = RetryPolicy {
            max_retries: 20,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            jitter: 0.0,
            seed: 0,
            deadline: None,
        };
        let metrics = RetryMetrics::default();
        for ctx in [&[][..], &[TokenId(1)][..], &[TokenId(2), TokenId(3)][..]] {
            let recovered = call_with_retry(&policy, &metrics, None, context_token(ctx), || {
                lm.try_score(ctx)
                    .and_then(|l| validated(l, lm.vocab().len()))
            });
            assert_eq!(recovered.unwrap(), reference.score(ctx));
        }
    }
}
