//! # LMQL in Rust
//!
//! A from-scratch reproduction of *Prompting Is Programming: A Query
//! Language for Large Language Models* (Beurer-Kellner, Fischer, Vechev;
//! PLDI 2023).
//!
//! LMQL generalises prompting into **Language Model Programming**: a query
//! combines a decoder clause, a Python-like scripted prompt with `[HOLE]`
//! variables and `{recall}` substitutions, a model, declarative `where`
//! constraints, and an optional `distribute` clause. The runtime executes
//! the script (Alg. 1), decoding each hole under the constraints (Alg. 2)
//! with token masks derived from FINAL/FOLLOW partial-evaluation semantics
//! (§5).
//!
//! ## Quick start
//!
//! ```
//! use lmql::Runtime;
//! use lmql_lm::{Episode, ScriptedLm};
//! use lmql_tokenizer::Bpe;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), lmql::Error> {
//! let bpe = Arc::new(Bpe::char_level(""));
//! let lm = Arc::new(ScriptedLm::new(
//!     Arc::clone(&bpe),
//!     [Episode::plain("Q:", " A penguin! Obviously.")],
//! ));
//! let runtime = Runtime::new(lm, bpe);
//!
//! let result = runtime.run(r#"
//! argmax
//!     "Q:[ANSWER]"
//! from "scripted-model"
//! where stops_at(ANSWER, "!") and len(ANSWER) < 40
//! "#)?;
//!
//! assert_eq!(result.best().var_str("ANSWER"), Some(" A penguin!"));
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate layout
//!
//! - [`Runtime`] — parse/compile/execute queries end-to-end,
//! - [`compile_source`] / [`Program`] — the compiled bytecode form,
//! - [`VmState`] — the resumable interpreter (Alg. 1),
//! - [`constraints`] — FINAL semantics (Table 1), FOLLOW maps (Table 2)
//!   and mask generation, in exact and symbolic engines,
//! - [`decode`](crate::DecodeOptions) / scripted beam search — Alg. 2.

pub mod constraints;
pub mod stream;

mod beam;
mod builtins;
mod compile;
mod debug;
mod decode;
mod error;
mod interp;
mod naive;
mod parallel;
mod program;
mod request;
mod runtime;
mod tool;
mod value;

pub use compile::{compile_query, compile_source};
pub use debug::{DebugTrace, HoleTrace, StepTrace, StopReason};
pub use decode::{decode_hole, DecodeOptions, DecodedValue, Pick};
pub use error::{Error, ModelErrorClass, Result};
pub use interp::{ExternalFn, Externals, HoleRecord, HoleRequest, Step, VmState};
pub use naive::{decode_hole_naive, decode_hole_naive_strict, NaiveOptions, NaiveOutcome};
pub use parallel::{plan_holes, HolePlan};
pub use program::{CompiledSegment, Instr, Program, PromptTemplate};
pub use request::QueryRequest;
pub use runtime::{QueryResult, QueryRun, Runtime, SubqueryLimits};
pub use stream::{
    EventSink, QueryEvent, ReassembledQuery, ReassembledRun, ReassembledSubquery, Reassembler,
    StreamSink, WireError,
};
pub use tool::{FnTool, Tool, ToolFunction, ToolRegistry, ToolSchema};
pub use value::Value;
