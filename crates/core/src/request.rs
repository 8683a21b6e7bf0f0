//! The consolidated query entry point.
//!
//! [`QueryRequest`] gathers every per-query knob — decoding options, mask
//! tuning, bindings, tools, stream sink — behind
//! one fluent builder, so a caller configures *a query*, not four layers:
//! unset fields inherit the executing [`Runtime`](crate::Runtime)'s
//! defaults, set fields override them for that call only. It is what
//! every layer takes: `Runtime::execute`, the engine's and router's
//! `serve` / `run_query` / `stream_query` (a bare source string converts
//! into a request with nothing set).

use crate::constraints::{MaskConfig, MaskEngine};
use crate::stream::StreamSink;
use crate::tool::{Tool, ToolRegistry};
use crate::Value;
use std::sync::Arc;

/// One query execution, fully described: source, decoding overrides,
/// mask tuning, bindings and stream sink.
///
/// # Example
///
/// ```
/// use lmql::{QueryRequest, Runtime, Value};
/// use lmql_lm::corpus;
///
/// # fn main() -> Result<(), lmql::Error> {
/// let runtime = Runtime::new(corpus::standard_ngram(), corpus::standard_bpe());
/// let request = QueryRequest::new(
///     "argmax\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"m\"\nwhere stops_at(THING, \"\\n\")\n",
/// )
/// .max_tokens(32)
/// .seed(7)
/// .bind("WHO", Value::Str("me".into()));
/// let result = runtime.execute(&request)?;
/// assert!(!result.best().trace.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QueryRequest {
    source: String,
    temperature: Option<f64>,
    max_tokens_per_hole: Option<usize>,
    seed: Option<u64>,
    engine: Option<MaskEngine>,
    mask: Option<MaskConfig>,
    no_repeat_ngram: Option<usize>,
    speculative: Option<bool>,
    parallel_holes: Option<bool>,
    tracer: Option<lmql_obs::Tracer>,
    sink: Option<StreamSink>,
    bindings: Vec<(String, Value)>,
    tools: ToolRegistry,
}

impl QueryRequest {
    /// A request for `source` with every setting inherited from the
    /// executing runtime.
    pub fn new(source: impl Into<String>) -> Self {
        QueryRequest {
            source: source.into(),
            temperature: None,
            max_tokens_per_hole: None,
            seed: None,
            engine: None,
            mask: None,
            no_repeat_ngram: None,
            speculative: None,
            parallel_holes: None,
            tracer: None,
            sink: None,
            bindings: Vec::new(),
            tools: ToolRegistry::new(),
        }
    }

    /// The LMQL source to execute.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Overrides the softmax temperature `τ`.
    pub fn temperature(mut self, temperature: f64) -> Self {
        self.temperature = Some(temperature);
        self
    }

    /// Overrides the per-hole token budget.
    pub fn max_tokens(mut self, max_tokens_per_hole: usize) -> Self {
        self.max_tokens_per_hole = Some(max_tokens_per_hole);
        self
    }

    /// Overrides the `sample` RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Overrides the mask-generation engine (§5).
    pub fn engine(mut self, engine: MaskEngine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Overrides the mask-generation tuning (memoization, parallel
    /// scans).
    pub fn mask(mut self, mask: MaskConfig) -> Self {
        self.mask = Some(mask);
        self
    }

    /// Overrides HuggingFace-style n-gram blocking (`0` disables).
    pub fn no_repeat_ngram(mut self, n: usize) -> Self {
        self.no_repeat_ngram = Some(n);
        self
    }

    /// Overrides speculative scoring (§4).
    pub fn speculative(mut self, speculative: bool) -> Self {
        self.speculative = Some(speculative);
        self
    }

    /// Overrides program-level hole parallelism (DESIGN.md §14).
    /// Results are byte-identical either way; `false` forces fully
    /// sequential decoding for bisection.
    pub fn parallel_holes(mut self, parallel: bool) -> Self {
        self.parallel_holes = Some(parallel);
        self
    }

    /// Installs a trace recorder for this request.
    pub fn tracer(mut self, tracer: lmql_obs::Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Streams [`QueryEvent`](crate::QueryEvent)s into `sink` while the
    /// request executes.
    pub fn stream(mut self, sink: StreamSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Binds a query argument for this request (overrides a runtime
    /// binding of the same name).
    pub fn bind(mut self, name: impl Into<String>, value: Value) -> Self {
        let name = name.into();
        self.bindings.retain(|(n, _)| *n != name);
        self.bindings.push((name, value));
        self
    }

    /// This request's bindings (override the runtime's, by name).
    pub fn bindings(&self) -> &[(String, Value)] {
        &self.bindings
    }

    /// Registers a [`Tool`] for this request only: its functions are
    /// callable during this execution (subqueries included) without
    /// touching the runtime's registry.
    pub fn tool(mut self, tool: Arc<dyn Tool>) -> Self {
        self.tools.register(tool);
        self
    }

    /// Merges a whole [`ToolRegistry`] into this request (shared call
    /// counters — usage through this request is visible on `registry`).
    pub fn tools(mut self, registry: &ToolRegistry) -> Self {
        self.tools.merge(registry);
        self
    }

    /// The per-request tool registry (empty unless
    /// [`tool`](QueryRequest::tool)/[`tools`](QueryRequest::tools) was
    /// called).
    pub fn tool_registry(&self) -> &ToolRegistry {
        &self.tools
    }

    /// Resolves the effective decode options: `base` (the runtime's
    /// defaults) with this request's overrides applied.
    pub fn apply_to(&self, base: &crate::DecodeOptions) -> crate::DecodeOptions {
        let mut options = base.clone();
        self.apply(&mut options);
        options
    }

    /// [`apply_to`](Self::apply_to) in place.
    pub(crate) fn apply(&self, options: &mut crate::DecodeOptions) {
        if let Some(t) = self.temperature {
            options.temperature = t;
        }
        if let Some(m) = self.max_tokens_per_hole {
            options.max_tokens_per_hole = m;
        }
        if let Some(s) = self.seed {
            options.seed = s;
        }
        if let Some(e) = self.engine {
            options.engine = e;
        }
        if let Some(m) = self.mask {
            options.mask = m;
        }
        if let Some(n) = self.no_repeat_ngram {
            options.no_repeat_ngram = n;
        }
        if let Some(s) = self.speculative {
            options.speculative = s;
        }
        if let Some(p) = self.parallel_holes {
            options.parallel_holes = p;
        }
        if let Some(t) = &self.tracer {
            options.tracer = t.clone();
        }
        if let Some(sink) = &self.sink {
            options.sink = sink.clone();
        }
    }
}

/// A bare source string is a request with every setting inherited.
impl From<&str> for QueryRequest {
    fn from(source: &str) -> Self {
        QueryRequest::new(source)
    }
}

/// (`&String` does not deref-coerce through `impl Into`, and existing
/// callers pass one.)
impl From<&String> for QueryRequest {
    fn from(source: &String) -> Self {
        QueryRequest::new(source)
    }
}

impl From<String> for QueryRequest {
    fn from(source: String) -> Self {
        QueryRequest::new(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecodeOptions;

    #[test]
    fn unset_fields_inherit_base() {
        let base = DecodeOptions {
            temperature: 1.5,
            max_tokens_per_hole: 9,
            ..DecodeOptions::default()
        };
        let req = QueryRequest::new("argmax \"x\" from \"m\"");
        let opts = req.apply_to(&base);
        assert_eq!(opts.temperature, 1.5);
        assert_eq!(opts.max_tokens_per_hole, 9);
    }

    #[test]
    fn set_fields_override_base() {
        let base = DecodeOptions::default();
        let req = QueryRequest::new("q")
            .temperature(0.5)
            .max_tokens(3)
            .seed(42)
            .no_repeat_ngram(2)
            .speculative(true);
        let opts = req.apply_to(&base);
        assert_eq!(opts.temperature, 0.5);
        assert_eq!(opts.max_tokens_per_hole, 3);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.no_repeat_ngram, 2);
        assert!(opts.speculative);
    }

    #[test]
    fn bind_replaces_same_name() {
        let req = QueryRequest::new("q")
            .bind("X", Value::Int(1))
            .bind("X", Value::Int(2));
        assert_eq!(req.bindings(), &[("X".to_owned(), Value::Int(2))]);
    }
}
