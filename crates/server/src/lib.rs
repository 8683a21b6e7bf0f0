//! Client–server inference (the paper's Appendix A.2).
//!
//! "LMQL relies on a client-server-architecture. The server is responsible
//! for inference, loading and managing the model. […] The client parses
//! the user-provided LMQL code, constructs the computational graph, and
//! also runs the decoding loop. Only the forward pass of the underlying
//! model is outsourced to the server."
//!
//! This crate implements exactly that split over plain TCP (std only):
//!
//! - [`InferenceServer`] hosts any [`LanguageModel`] and ships its
//!   tokenizer to connecting clients. All connections score through one
//!   shared [`lmql_engine::Scheduler`], so concurrent clients coalesce
//!   into microbatches and share a prefix cache,
//! - [`RemoteLm`] implements [`LanguageModel`] over the wire, so the
//!   `lmql` runtime decodes locally while `score()` round-trips to the
//!   server — the runtime cannot tell the difference. A call with several
//!   contexts ships a whole decoder step as one `BATCH` frame (one round
//!   trip).
//!
//! The wire protocol is line-based with exact-bits float encoding, so a
//! remote run is bit-identical to a local one (tested in
//! `tests/remote.rs`), batched or not.
//!
//! The protocol also supports the *opposite* split: a `STREAM` frame
//! submits a whole query for server-side execution, and the server
//! streams [`lmql::QueryEvent`]s back as `EVENT` lines (terminated by
//! `DONE`, or `RETRY`/`ERR` carrying the taxonomy across the hop).
//! [`RemoteLm::stream_query`] runs one on a dedicated connection and
//! [`RemoteQueryStream::into_result`] reassembles the final result
//! byte-identically to a local run; disconnecting mid-stream cancels
//! the remote query cooperatively, releasing its scheduler slots.
//! Failures on any client path surface as the unified [`ServerError`]
//! taxonomy, which converts into the root [`lmql::Error`].
//!
//! Robustness: idle connections are dropped after
//! [`ServerConfig::read_timeout`], and [`ServerHandle::shutdown`] drains
//! in-flight batches before returning. Beyond that the split is fault
//! tolerant (DESIGN.md §9): transient model failures are answered with a
//! `RETRY` frame (the connection stays synced; fatal ones get `ERR`),
//! the server sheds load with a typed `BUSY` frame once
//! [`ServerConfig::max_connections`] is reached, and [`RemoteLm`]
//! retries under a [`RetryPolicy`] — reconnecting with backoff when the
//! stream dies or desyncs, so a server kill mid-request costs one
//! re-dial, not the query. A deterministic [`FaultHook`] can drop, stall
//! or garble chosen requests to reproduce all of it in tests
//! (`tests/fault_tolerance.rs`).
//!
//! # Example
//!
//! ```
//! use lmql_lm::{Episode, LanguageModel, ScriptedLm};
//! use lmql_server::{InferenceServer, RemoteLm};
//! use lmql_tokenizer::Bpe;
//! use std::sync::Arc;
//!
//! let bpe = Arc::new(Bpe::char_level(""));
//! let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), [Episode::plain("Q:", " A.")]));
//! let server = InferenceServer::spawn(lm, Arc::clone(&bpe)).unwrap();
//!
//! let (remote, remote_bpe) = RemoteLm::connect(server.addr()).unwrap();
//! let ctx = remote_bpe.encode("Q:");
//! let local_ctx = bpe.encode("Q:");
//! assert_eq!(ctx, local_ctx, "tokenizer shipped intact");
//! let next = remote.score(&ctx).softmax(1.0).argmax();
//! // char-level tokenizer: the script " A." starts with a space token
//! assert_eq!(remote_bpe.vocab().token_str(next), " ");
//! server.shutdown();
//! ```

mod client;
mod error;
mod faults;
mod protocol;
mod server;

pub use client::{RemoteClientConfig, RemoteLm, RemoteQueryStream};
pub use error::ServerError;
pub use faults::{FaultAction, FaultHook};
pub use lmql_engine::{BatchPolicy, RadixCacheConfig, RadixStats};
pub use lmql_lm::{BreakerConfig, BreakerState, FaultKind, LanguageModel, LmError, RetryPolicy};
pub use lmql_obs::{MetricsSnapshot, Registry};
pub use server::{InferenceServer, ServerConfig, ServerHandle};
