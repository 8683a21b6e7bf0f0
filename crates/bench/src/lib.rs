//! Experiment harness reproducing every table and figure of the LMQL
//! paper's evaluation (§6) on the simulated substrate.
//!
//! [`report()`] runs every experiment once and fills a [`Report`]; its
//! rendering is the whole result: Table 3 (chain-of-thought on Odd One
//! Out and Date Understanding under two model profiles, plus §6.1's
//! GPT-3.5-style control), Table 4 (lines of code), Table 5 (ReAct and
//! arithmetic), Fig. 12 (the baseline chunk-size sweep against LMQL's
//! flat line) and the three DESIGN.md §16 retrieval scenarios, followed
//! by the exact counters behind every number. The one binary, `run_all`,
//! prints it (`cargo run --release -p lmql-bench --bin run_all [-- --quick]`);
//! `tests/report.rs` pins the `--quick` output byte for byte.
//!
//! Everything here is a count (accuracy, decoder calls, model queries,
//! billable tokens); wall time is measured only by the end-to-end
//! benchmark under `benchmark/`.

pub mod experiments;
pub mod loc;
pub mod report;
pub mod table;

pub use report::{report, Report, Size};

/// The LMQL query sources evaluated by the experiments (also the inputs
/// to the Table 4 LOC counts).
pub mod queries {
    /// Fig. 10: chain-of-thought Odd One Out.
    pub const ODD_ONE_OUT: &str = include_str!("../queries/odd_one_out.lmql");
    /// Chain-of-thought Date Understanding.
    pub const DATE_UNDERSTANDING: &str = include_str!("../queries/date_understanding.lmql");
    /// Fig. 11: interactive ReAct question answering.
    pub const REACT: &str = include_str!("../queries/react.lmql");
    /// Fig. 13: arithmetic reasoning with a calculator tool.
    pub const ARITHMETIC: &str = include_str!("../queries/arithmetic.lmql");
    /// Retrieval-augmented QA over a BM25-indexed corpus (DESIGN.md §16).
    pub const RETRIEVAL_QA: &str = include_str!("../queries/retrieval_qa.lmql");
    /// Iterative needle-in-a-haystack search via the retrieval tool.
    pub const NEEDLE: &str = include_str!("../queries/needle.lmql");
    /// Multi-turn chat with declarative context retention/recall.
    pub const CHAT: &str = include_str!("../queries/chat.lmql");
}
