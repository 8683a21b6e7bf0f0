//! Umbrella crate for the LMQL reproduction.
//!
//! Re-exports every workspace crate so examples, integration tests and
//! quick experiments can use a single dependency, and provides a
//! [`prelude`] with the names almost every program needs. Library users
//! should depend on the individual crates ([`lmql`], [`lmql_lm`],
//! [`lmql_tokenizer`], …) directly.

pub use lmql;
pub use lmql_arena;
pub use lmql_baseline;
pub use lmql_bench;
pub use lmql_datasets;
pub use lmql_engine;
pub use lmql_lm;
pub use lmql_obs;
pub use lmql_retrieval;
pub use lmql_server;
pub use lmql_syntax;
pub use lmql_tokenizer;

/// The names almost every LMQL program uses, one `use` away:
///
/// ```
/// use lmql_repro::prelude::*;
///
/// let runtime = Runtime::new(corpus::standard_ngram(), corpus::standard_bpe());
/// let request = QueryRequest::new(
///     "argmax\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\")\n",
/// )
/// .max_tokens(16);
/// let result = runtime.execute(&request).unwrap();
/// assert!(!result.best().trace.is_empty());
/// ```
pub mod prelude {
    pub use lmql::{
        plan_holes, DecodeOptions, Error, EventSink, FnTool, HolePlan, QueryEvent, QueryRequest,
        QueryResult, QueryRun, ReassembledQuery, Reassembler, Runtime, StreamSink, SubqueryLimits,
        Tool, ToolRegistry, ToolSchema, Value,
    };
    // The paper's §5 mask-generation engine selector.
    pub use lmql::constraints::MaskEngine;
    pub use lmql_engine::{EngineConfig, QueryStream, Router, RouterConfig};
    pub use lmql_lm::{
        corpus, CancelToken, Episode, LanguageModel, NGramLm, RetryPolicy, ScriptedLm,
    };
    pub use lmql_obs::{Registry, Tracer};
    // Retrieval-augmented and long-context workloads (DESIGN.md §16).
    pub use lmql_retrieval::{
        load_plain_text, Bm25Index, ChatSession, ChunkConfig, FactCorpus, NiahCorpus,
        RetentionPolicy, RetrievalTool, SessionTool,
    };
    pub use lmql_server::{InferenceServer, RemoteLm, ServerError};
    pub use lmql_tokenizer::Bpe;
    pub use std::sync::Arc;
}
