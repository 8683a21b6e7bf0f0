//! Language-model substrate for the LMQL reproduction.
//!
//! The paper's runtime "does not impose any restrictions on language model
//! `f`, apart from being able to access the resulting distribution over
//! vocabulary tokens" (§4). This crate provides that interface
//! ([`LanguageModel`]) together with:
//!
//! - [`Logits`] / [`Distribution`] — next-token score vectors, softmax with
//!   temperature, masked renormalisation (§2.1 "Masked Decoding"),
//! - [`NGramLm`] — an interpolated n-gram model trained on a corpus; the
//!   stand-in for free-running generative models,
//! - [`ScriptedLm`] — a task-scripted model that follows an intended
//!   completion but *digresses* at chosen points; the stand-in for the
//!   paper's GPT-J/OPT evaluation models (see DESIGN.md §2 for why this
//!   substitution preserves the evaluation's shape),
//! - [`MockLm`] and [`UniformLm`] — deterministic models for unit tests,
//! - [`UsageMeter`] / [`MeteredLm`] — the paper's §6 cost metrics (model
//!   queries, decoder calls, billable tokens),
//! - [`RadixCache`] — the one score cache: a path-compressed radix tree
//!   of shared [`Logits`] with LRU eviction, kept per replica by the
//!   engine's scheduler and per run by [`CachedLm`], which memoises a
//!   model's scores by context so lockstep revisits are not billed,
//! - [`LmError`] / [`call_with_retry`] / [`ChaosLm`] — the fault-tolerant
//!   serving layer: transient-vs-fatal error taxonomy, the one retry loop
//!   (exponential backoff, deterministic jitter, circuit breaking) that
//!   the scheduler and the remote client run, and seeded fault injection
//!   for reproducible chaos tests,
//! - [`corpus`] — the built-in synthetic training corpus and shared
//!   tokenizer/model constructors used by examples and benchmarks,
//! - [`testing`] — the consistency check every model implementation and
//!   wrapper stack is run through.

pub mod corpus;
pub mod testing;

mod cache;
mod cancel;
mod chaos;
mod error;
mod logits;
mod meter;
mod mock;
mod model;
mod ngram;
mod radix;
mod retry;
mod scripted;

pub use cache::CachedLm;
pub use cancel::CancelToken;
pub use chaos::{ChaosLm, ChaosStats, FaultPlan};
pub use error::{FaultKind, LmError, LmResult};
pub use logits::{Distribution, Logits};
pub use meter::{MeteredLm, Usage, UsageMeter};
pub use mock::{MockLm, UniformLm};
pub use model::LanguageModel;
pub use ngram::NGramLm;
pub use radix::{RadixCache, RadixCacheConfig, RadixStats};
pub use retry::{
    call_with_retry, context_token, validated, BreakerConfig, BreakerState, CircuitBreaker,
    RetryMetrics, RetryPolicy,
};
pub use scripted::{
    Branch, Digression, Episode, ScriptedLm, ScriptedLmBuilder, ALIGNED_LOGIT, DIGRESSION_LOGIT,
    SCRIPT_LOGIT,
};
