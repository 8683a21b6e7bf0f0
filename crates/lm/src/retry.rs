//! Retry with exponential backoff, deterministic jitter, per-call
//! deadlines, and a circuit breaker.
//!
//! [`RetryPolicy`] is pure configuration plus a pure backoff function:
//! the jitter for attempt `a` of request `r` is a hash of `(seed, r, a)`,
//! so a replay with the same seed produces the same delays — chaos tests
//! stay reproducible while concurrent requests still desynchronise.
//!
//! [`call_with_retry`] drives one fallible call, absorbing transient
//! faults ([`LmError::Transient`]) up to the policy's budget. Fatal errors
//! and expired deadlines pass straight through. An optional
//! [`CircuitBreaker`] sits in front: enough consecutive failures open it,
//! open calls fail fast (shedding pressure off a struggling backend), and
//! a cooldown later a half-open probe decides whether to close it again.

use crate::{FaultKind, LmError, LmResult, Logits};
use lmql_obs::{Counter, Gauge, Registry};
use lmql_tokenizer::TokenId;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How (and how much) to retry transient model failures.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` disables retrying).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_backoff * 2^n`, capped at
    /// [`max_backoff`](Self::max_backoff), plus jitter.
    pub base_backoff: Duration,
    /// Upper bound on the exponential term.
    pub max_backoff: Duration,
    /// Jitter amplitude as a fraction of the backoff: the actual delay is
    /// `backoff * (1 - jitter + jitter * u)` with `u ∈ [0, 1)` drawn
    /// deterministically from the seed. `0.0` disables jitter.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Wall-clock budget of one call across all its attempts and
    /// backoffs. `None` means unbounded.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(200),
            jitter: 0.5,
            seed: 0,
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (and never sleeps).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
            deadline: None,
        }
    }

    /// The delay before retry `attempt` (0-based) of the request
    /// identified by `token`. Pure: same `(seed, token, attempt)` → same
    /// delay.
    pub fn backoff(&self, attempt: u32, token: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        if self.jitter <= 0.0 || exp.is_zero() {
            return exp;
        }
        let h = splitmix64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(token)
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(u64::from(attempt)),
        );
        // 53 uniform bits in [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let scale = (1.0 - self.jitter) + self.jitter * u;
        exp.mul_f64(scale.clamp(0.0, 1.0))
    }
}

/// SplitMix64: a statistically solid 64-bit mixer, used here as a pure
/// hash for jitter (not as a sequential generator).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stable per-request jitter token from the scored context.
pub fn context_token(context: &[TokenId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for t in context {
        h ^= u64::from(t.0);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before allowing a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// The breaker's observable state (also exported as a gauge:
/// closed = 0, half-open = 1, open = 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation.
    Closed,
    /// One probe call is allowed through; its outcome decides.
    HalfOpen,
    /// Failing fast.
    Open,
}

#[derive(Debug)]
enum BreakerInner {
    Closed { consecutive_failures: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// A consecutive-failure circuit breaker. Thread-safe; clones share state.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Arc<Mutex<BreakerInner>>,
    gauge: Gauge,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Arc::new(Mutex::new(BreakerInner::Closed {
                consecutive_failures: 0,
            })),
            gauge: Gauge::new(),
        }
    }

    /// The state gauge (closed = 0, half-open = 1, open = 2); register it
    /// into a [`Registry`] to expose breaker state alongside other
    /// metrics.
    pub fn gauge(&self) -> &Gauge {
        &self.gauge
    }

    /// Whether a call may proceed. An open breaker past its cooldown
    /// transitions to half-open and lets exactly this caller probe.
    pub fn allow(&self) -> bool {
        let mut inner = self.inner.lock().expect("breaker poisoned");
        let allowed = match &*inner {
            BreakerInner::Closed { .. } | BreakerInner::HalfOpen => true,
            BreakerInner::Open { since } => {
                if since.elapsed() >= self.config.cooldown {
                    *inner = BreakerInner::HalfOpen;
                    true
                } else {
                    false
                }
            }
        };
        self.gauge.set(state_of(&inner) as u64);
        allowed
    }

    /// Records a successful call: closes the breaker.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock().expect("breaker poisoned");
        *inner = BreakerInner::Closed {
            consecutive_failures: 0,
        };
        self.gauge.set(BreakerState::Closed as u64);
    }

    /// Records a failed call: counts toward the threshold; a half-open
    /// probe failure reopens immediately.
    pub fn record_failure(&self) {
        let mut inner = self.inner.lock().expect("breaker poisoned");
        *inner = match &*inner {
            BreakerInner::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.config.failure_threshold {
                    BreakerInner::Open {
                        since: Instant::now(),
                    }
                } else {
                    BreakerInner::Closed {
                        consecutive_failures: n,
                    }
                }
            }
            BreakerInner::HalfOpen | BreakerInner::Open { .. } => BreakerInner::Open {
                since: Instant::now(),
            },
        };
        self.gauge.set(state_of(&inner) as u64);
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        state_of(&self.inner.lock().expect("breaker poisoned"))
    }
}

fn state_of(inner: &BreakerInner) -> BreakerState {
    match inner {
        BreakerInner::Closed { .. } => BreakerState::Closed,
        BreakerInner::HalfOpen => BreakerState::HalfOpen,
        BreakerInner::Open { .. } => BreakerState::Open,
    }
}

/// Retry/deadline/breaker counters. Clones share cells; standalone by
/// default, or registered into a [`Registry`] under `<prefix>.*` names.
#[derive(Debug, Clone, Default)]
pub struct RetryMetrics {
    /// Retries performed (attempts beyond the first).
    pub retries: Counter,
    /// Requests abandoned because their deadline expired.
    pub deadline_exceeded: Counter,
    /// Transient faults observed: one per failed attempt.
    pub faults: Counter,
    /// Calls rejected fast by an open breaker.
    pub breaker_rejections: Counter,
}

impl RetryMetrics {
    /// Registers these counters into `registry` as `<prefix>.retries`,
    /// `<prefix>.deadline_exceeded`, `<prefix>.faults` and
    /// `<prefix>.breaker_rejections`.
    ///
    /// # Panics
    ///
    /// Panics if any of the names is already registered.
    pub fn register_into(&self, registry: &Registry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.retries"), self.retries.clone());
        registry.register_counter(
            &format!("{prefix}.deadline_exceeded"),
            self.deadline_exceeded.clone(),
        );
        registry.register_counter(&format!("{prefix}.faults"), self.faults.clone());
        registry.register_counter(
            &format!("{prefix}.breaker_rejections"),
            self.breaker_rejections.clone(),
        );
    }
}

/// The truncated-reply check shared by every retry layer: a reply whose
/// length is not the vocabulary's is a transient (retryable) fault, never
/// valid data.
pub fn validated(logits: Logits, vocab_len: usize) -> LmResult<Logits> {
    if logits.len() == vocab_len {
        Ok(logits)
    } else {
        Err(LmError::transient(
            FaultKind::Truncated,
            format!(
                "reply has {} logits, vocabulary has {vocab_len}",
                logits.len()
            ),
        ))
    }
}

/// Drives one fallible call to completion under a policy: retries
/// transient errors with backoff, enforces the deadline, and consults an
/// optional breaker. The one retry loop behind the scheduler's items and
/// the remote client.
///
/// `token` seeds the jitter stream (use [`context_token`]); `f` is called
/// once per attempt.
pub fn call_with_retry<T>(
    policy: &RetryPolicy,
    metrics: &RetryMetrics,
    breaker: Option<&CircuitBreaker>,
    token: u64,
    mut f: impl FnMut() -> LmResult<T>,
) -> LmResult<T> {
    let start = Instant::now();
    let mut attempt: u32 = 0;
    loop {
        if let Some(b) = breaker {
            if !b.allow() {
                metrics.breaker_rejections.inc();
                return Err(LmError::transient(FaultKind::Busy, "circuit breaker open"));
            }
        }
        match f() {
            Ok(v) => {
                if let Some(b) = breaker {
                    b.record_success();
                }
                return Ok(v);
            }
            Err(e) => {
                if let Some(b) = breaker {
                    b.record_failure();
                }
                if !e.is_transient() {
                    return Err(e);
                }
                metrics.faults.inc();
                if attempt >= policy.max_retries {
                    return Err(e);
                }
                let delay = policy.backoff(attempt, token);
                if let Some(deadline) = policy.deadline {
                    if start.elapsed() + delay >= deadline {
                        metrics.deadline_exceeded.inc();
                        return Err(LmError::DeadlineExceeded { deadline });
                    }
                }
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                metrics.retries.inc();
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LanguageModel, UniformLm};
    use lmql_tokenizer::{Bpe, Vocabulary};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter: 0.0,
            seed: 0,
            deadline: None,
        };
        assert_eq!(p.backoff(0, 7), Duration::from_millis(10));
        assert_eq!(p.backoff(1, 7), Duration::from_millis(20));
        assert_eq!(p.backoff(2, 7), Duration::from_millis(40));
        assert_eq!(p.backoff(5, 7), Duration::from_millis(100), "capped");
        assert_eq!(p.backoff(63, 7), Duration::from_millis(100), "no overflow");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            jitter: 0.5,
            seed: 42,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(1),
            ..RetryPolicy::default()
        };
        let a = p.backoff(0, 1);
        let b = p.backoff(0, 1);
        assert_eq!(a, b, "same (seed, token, attempt) → same delay");
        // jitter 0.5 ⇒ delay ∈ [50ms, 100ms).
        assert!(a >= Duration::from_millis(50) && a < Duration::from_millis(100));
        let c = p.backoff(0, 2);
        let d = RetryPolicy { seed: 43, ..p }.backoff(0, 1);
        // Different token or seed draws a different point (with the fixed
        // constants here, these specific draws differ).
        assert!(a != c || a != d);
    }

    /// Fails with a transient error until `fail_first` calls have
    /// happened, then succeeds.
    #[derive(Debug)]
    struct FlakyLm {
        inner: UniformLm,
        calls: AtomicU64,
        fail_first: u64,
        fatal: bool,
    }

    impl FlakyLm {
        fn new(fail_first: u64, fatal: bool) -> Self {
            FlakyLm {
                inner: UniformLm::new(Arc::new(Bpe::char_level(""))),
                calls: AtomicU64::new(0),
                fail_first,
                fatal,
            }
        }
    }

    impl LanguageModel for FlakyLm {
        fn vocab(&self) -> &Vocabulary {
            self.inner.vocab()
        }
        fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
            let one = |context: &&[TokenId]| {
                if self.calls.fetch_add(1, Ordering::SeqCst) < self.fail_first {
                    if self.fatal {
                        return Err(LmError::fatal("permanently broken"));
                    }
                    return Err(LmError::transient(FaultKind::Injected, "flaky"));
                }
                self.inner.try_score(context)
            };
            contexts.iter().map(one).collect()
        }
    }

    fn fast_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(200),
            jitter: 0.0,
            seed: 0,
            deadline: None,
        }
    }

    /// One context scored through [`call_with_retry`], replies checked by
    /// [`validated`] — the loop the scheduler item and `RemoteLm` run.
    fn score_retried(
        lm: &impl LanguageModel,
        policy: &RetryPolicy,
        metrics: &RetryMetrics,
        breaker: Option<&CircuitBreaker>,
        ctx: &[TokenId],
    ) -> LmResult<Logits> {
        call_with_retry(policy, metrics, breaker, context_token(ctx), || {
            lm.try_score(ctx)
                .and_then(|l| validated(l, lm.vocab().len()))
        })
    }

    #[test]
    fn transient_faults_are_absorbed() {
        let (lm, metrics) = (FlakyLm::new(2, false), RetryMetrics::default());
        let out = score_retried(&lm, &fast_policy(3), &metrics, None, &[TokenId(0)]).unwrap();
        assert_eq!(out.len(), lm.vocab().len());
        assert_eq!(metrics.retries.get(), 2);
        assert_eq!(metrics.faults.get(), 2);
    }

    #[test]
    fn budget_exhaustion_returns_the_error() {
        let (lm, metrics) = (FlakyLm::new(10, false), RetryMetrics::default());
        let err = score_retried(&lm, &fast_policy(2), &metrics, None, &[]).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(metrics.retries.get(), 2, "2 retries = 3 attempts");
        assert_eq!(lm.calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn fatal_errors_pass_through_immediately() {
        let (lm, metrics) = (FlakyLm::new(10, true), RetryMetrics::default());
        let err = score_retried(&lm, &fast_policy(5), &metrics, None, &[]).unwrap_err();
        assert!(matches!(err, LmError::Fatal { .. }));
        assert_eq!(metrics.retries.get(), 0, "fatal is never retried");
    }

    #[test]
    fn deadline_cuts_the_retry_loop() {
        let policy = RetryPolicy {
            max_retries: 100,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(20),
            jitter: 0.0,
            seed: 0,
            deadline: Some(Duration::from_millis(30)),
        };
        let (lm, metrics) = (FlakyLm::new(u64::MAX, false), RetryMetrics::default());
        let start = Instant::now();
        let err = score_retried(&lm, &policy, &metrics, None, &[]).unwrap_err();
        assert!(matches!(err, LmError::DeadlineExceeded { .. }), "{err}");
        assert!(start.elapsed() < Duration::from_millis(300));
        assert_eq!(metrics.deadline_exceeded.get(), 1);
    }

    #[test]
    fn truncated_replies_are_retried() {
        /// Returns a half-length logits vector on the first call.
        #[derive(Debug)]
        struct TruncatingLm {
            inner: UniformLm,
            calls: AtomicU64,
        }
        impl LanguageModel for TruncatingLm {
            fn vocab(&self) -> &Vocabulary {
                self.inner.vocab()
            }
            fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
                if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    let half = Logits::constant(self.inner.vocab().len() / 2, 0.0);
                    return vec![Ok(half); contexts.len()];
                }
                self.inner.try_score_batch(contexts)
            }
        }
        let lm = TruncatingLm {
            inner: UniformLm::new(Arc::new(Bpe::char_level(""))),
            calls: AtomicU64::new(0),
        };
        let metrics = RetryMetrics::default();
        let out = score_retried(&lm, &fast_policy(2), &metrics, None, &[]).unwrap();
        assert_eq!(out.len(), lm.vocab().len());
        assert_eq!(metrics.retries.get(), 1);
    }

    #[test]
    fn breaker_opens_and_recovers() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(10),
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "open breaker rejects");
        assert_eq!(b.gauge().get(), BreakerState::Open as u64);
        std::thread::sleep(Duration::from_millis(15));
        assert!(b.allow(), "cooldown elapsed: half-open probe allowed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.gauge().get(), BreakerState::Closed as u64);
    }

    #[test]
    fn half_open_failure_reopens() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(5),
        });
        b.record_failure();
        std::thread::sleep(Duration::from_millis(8));
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_breaker_fails_fast() {
        let (lm, metrics) = (FlakyLm::new(u64::MAX, false), RetryMetrics::default());
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(60),
        });
        let policy = fast_policy(0);
        // Trips the breaker.
        assert!(score_retried(&lm, &policy, &metrics, Some(&breaker), &[]).is_err());
        let err = score_retried(&lm, &policy, &metrics, Some(&breaker), &[]).unwrap_err();
        assert_eq!(err.fault_kind(), Some(FaultKind::Busy));
        assert_eq!(metrics.breaker_rejections.get(), 1);
        assert_eq!(
            lm.calls.load(Ordering::SeqCst),
            1,
            "rejected before the model"
        );
    }

    #[test]
    fn metrics_register_under_prefix() {
        let registry = Registry::new();
        let metrics = RetryMetrics::default();
        metrics.register_into(&registry, "lm");
        let _ = score_retried(
            &FlakyLm::new(1, false),
            &fast_policy(2),
            &metrics,
            None,
            &[],
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("lm.retries"), Some(1));
        assert_eq!(snap.counter("lm.faults"), Some(1));
        assert_eq!(snap.counter("lm.deadline_exceeded"), Some(0));
        assert_eq!(snap.counter("lm.breaker_rejections"), Some(0));
    }
}
