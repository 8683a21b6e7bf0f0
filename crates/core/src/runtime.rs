//! The top-level query runner: parse → compile → execute → results.

use crate::beam::run_beam_search;
use crate::constraints::{eval_expr, AutomataCache, CustomOp, CustomOps, MaskMemo, Masker};
use crate::debug::StopReason;
use crate::decode::{decode_hole, sync_context, DecodeOptions, DecodedValue, Pick};
use crate::interp::{Externals, HoleRecord, Step, VmState};
use crate::program::Instr;
use crate::stream::{EventSink, QueryEvent, StreamSink};
use crate::tool::{Tool, ToolRegistry};
use crate::{compile_source, Error, Program, QueryRequest, Result, Value};
use lmql_lm::{CachedLm, LanguageModel, MeteredLm, UsageMeter};
use lmql_tokenizer::{Bpe, TokenContext, TokenId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// One completed execution of a query (one sample / one beam).
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// The full interaction trace (prompt text with hole values filled).
    pub trace: String,
    /// Final variable scope, including all hole variables.
    pub variables: HashMap<String, Value>,
    /// Cumulative log-probability of the decoded tokens.
    pub log_prob: f64,
    /// Where each hole value sits in the trace, in decode order.
    pub hole_records: Vec<HoleRecord>,
}

impl QueryRun {
    /// String value of a variable, if present and a string.
    pub fn var_str(&self, name: &str) -> Option<&str> {
        self.variables.get(name).and_then(Value::as_str)
    }
}

/// The result of running a query: `n` interaction traces (1 for argmax)
/// and, for queries with a `distribute` clause, the measured distribution.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Completed runs, best first.
    pub runs: Vec<QueryRun>,
    /// `distribute` clause output: support values (prompt-rendered) with
    /// their normalised probabilities, in support order.
    pub distribution: Option<Vec<(String, f64)>>,
}

impl QueryResult {
    /// The best run.
    ///
    /// # Panics
    ///
    /// Never panics for results returned by [`Runtime::run`]: there is
    /// always at least one run.
    pub fn best(&self) -> &QueryRun {
        &self.runs[0]
    }

    /// The highest-probability value of the distribution, if one was
    /// computed.
    pub fn top_distribution_value(&self) -> Option<&str> {
        let dist = self.distribution.as_ref()?;
        dist.iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("probabilities are never NaN"))
            .map(|(v, _)| v.as_str())
    }
}

/// Limits on the `subquery(...)` tree a running query may spawn
/// (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubqueryLimits {
    /// Maximum nesting depth: the root query runs at depth 0, and a
    /// query at depth `d` may spawn children only while
    /// `d < max_depth`. `0` disables `subquery(...)` entirely.
    pub max_depth: u32,
    /// Cumulative token budget for the whole subquery tree (every token
    /// decoded by any descendant counts). When it runs out, in-flight
    /// children stop cooperatively at their next token boundary and new
    /// spawns are rejected. `None` means unlimited.
    pub max_tokens: Option<u64>,
}

impl Default for SubqueryLimits {
    fn default() -> Self {
        SubqueryLimits {
            max_depth: 4,
            max_tokens: None,
        }
    }
}

// Child stream paths are allocated from this base upward, so they never
// collide with the parent run's own hypothesis ids (samples and beam
// forks mint small consecutive ids) and so nested subquery sinks can
// recognise an already-globalised path and pass it through unmapped.
use crate::stream::SUBQUERY_PATH_BASE;

/// Executes LMQL queries against a language model.
///
/// A `Runtime` is *the* environment a query runs in — this struct is the
/// only place its parts are listed (DESIGN.md §7 maps each field to its
/// responsibility). Every field is a shared handle or a small value, so
/// [`Clone`] is cheap and a clone shares the model, meter, caches,
/// registry and tool call counters with the original: a request, a
/// subquery child and an engine's per-query runtime are each a clone
/// with a few fields replaced.
///
/// # Example
///
/// ```
/// use lmql::Runtime;
/// use lmql_lm::{Episode, ScriptedLm};
/// use lmql_tokenizer::Bpe;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), lmql::Error> {
/// let bpe = Arc::new(Bpe::char_level(""));
/// let lm = Arc::new(ScriptedLm::new(
///     Arc::clone(&bpe),
///     [lmql_lm::Episode::plain("Say hi:", " hello.")],
/// ));
/// let runtime = Runtime::new(lm, bpe);
/// let result = runtime.run(r#"
/// argmax
///     "Say hi:[GREETING]"
/// from "scripted"
/// where stops_at(GREETING, ".")
/// "#)?;
/// assert_eq!(result.best().var_str("GREETING"), Some(" hello."));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Runtime {
    lm: Arc<dyn LanguageModel>,
    bpe: Arc<Bpe>,
    externals: Externals,
    tools: ToolRegistry,
    custom_ops: CustomOps,
    bindings: Vec<(String, Value)>,
    meter: UsageMeter,
    options: DecodeOptions,
    mask_memo: Option<Arc<MaskMemo>>,
    automata_cache: Option<Arc<AutomataCache>>,
    metrics: Option<lmql_obs::Registry>,
    subqueries: SubqueryLimits,
    /// Set on the runtime a subquery call builds for its child: the
    /// shared tree state (root environment, budget, path allocator) plus
    /// the child's depth. `None` on user-constructed runtimes (the tree
    /// root).
    subquery_ctx: Option<(Arc<SubqueryShared>, u32)>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("options", &self.options)
            .field("bindings", &self.bindings)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// A runtime over a model and its tokenizer.
    ///
    /// # Panics
    ///
    /// Panics if the model's vocabulary size does not match the
    /// tokenizer's (they must be the same vocabulary).
    pub fn new(lm: Arc<dyn LanguageModel>, bpe: Arc<Bpe>) -> Self {
        assert_eq!(
            lm.vocab().len(),
            bpe.vocab().len(),
            "model and tokenizer vocabulary mismatch"
        );
        Runtime {
            lm,
            bpe,
            externals: Externals::new(),
            tools: ToolRegistry::new(),
            custom_ops: CustomOps::new(),
            bindings: Vec::new(),
            meter: UsageMeter::new(),
            options: DecodeOptions::default(),
            mask_memo: None,
            automata_cache: None,
            metrics: None,
            subqueries: SubqueryLimits::default(),
            subquery_ctx: None,
        }
    }

    /// A clone of this runtime scoring through `lm` and metering on a
    /// fresh [`UsageMeter`]; everything else is shared. This is how a
    /// serving layer turns one template environment, built once, into
    /// per-query runtimes (the engine swaps in each query's cancellable
    /// scheduler handle).
    pub fn with_model(&self, lm: Arc<dyn LanguageModel>) -> Self {
        Runtime {
            lm,
            meter: UsageMeter::new(),
            ..self.clone()
        }
    }

    /// Replaces the decoding options.
    pub fn with_options(mut self, options: DecodeOptions) -> Self {
        self.options = options;
        self
    }

    /// Mutable access to the decoding options.
    pub fn options_mut(&mut self) -> &mut DecodeOptions {
        &mut self.options
    }

    /// The usage meter recording §6 metrics for every run.
    pub fn meter(&self) -> &UsageMeter {
        &self.meter
    }

    /// Installs a structured trace recorder. Every subsequent run records
    /// parse/compile, per-hole decode, mask computation, FollowMap
    /// evaluation and batch-dispatch spans into it. The default tracer is
    /// disabled and free.
    pub fn set_tracer(&mut self, tracer: lmql_obs::Tracer) {
        self.options.tracer = tracer;
    }

    /// Installs a shared mask memo (see [`MaskMemo`]). Without one, each
    /// run's masker creates a private memo per
    /// [`MaskConfig`](crate::constraints::MaskConfig); a shared memo
    /// additionally carries mask reuse across runs and across runtimes
    /// that mask over the same tokenizer (the engine does this for its
    /// per-query runtimes).
    pub fn set_mask_memo(&mut self, memo: Arc<MaskMemo>) {
        self.mask_memo = Some(memo);
    }

    /// Installs a shared constraint-automata cache (see
    /// [`AutomataCache`]). Without one, each run's masker lazily creates
    /// a private cache; a shared cache carries compiled automata and
    /// their per-state masks across runs and across runtimes that mask
    /// over the same tokenizer (the engine does this for its per-query
    /// runtimes).
    pub fn set_automata_cache(&mut self, cache: Arc<AutomataCache>) {
        self.automata_cache = Some(cache);
    }

    /// Installs a metrics registry: every subsequent run reports
    /// `mask.cache.hit`, `mask.cache.miss`,
    /// `mask.scan.tokens`, `holes.parallel` and
    /// `engine.subquery.*` counters into it.
    pub fn set_metrics_registry(&mut self, registry: lmql_obs::Registry) {
        self.metrics = Some(registry);
    }

    /// Replaces the limits on `subquery(...)` trees spawned by queries
    /// run on this runtime (DESIGN.md §14).
    pub fn set_subquery_limits(&mut self, limits: SubqueryLimits) {
        self.subqueries = limits;
    }

    /// The installed trace recorder (disabled unless [`Self::set_tracer`]
    /// was called).
    pub fn tracer(&self) -> &lmql_obs::Tracer {
        &self.options.tracer
    }

    /// Registers a first-class [`Tool`]: every function in its schema
    /// becomes callable as `module.func(args…)` (after `import module`
    /// in the query), with per-tool call accounting in
    /// [`Runtime::tools`]. Replaces any tool previously registered under
    /// the same [`Tool::name`].
    pub fn register_tool(&mut self, tool: Arc<dyn Tool>) {
        let single = ToolRegistry::new().with(tool);
        single.install(&mut self.externals);
        self.tools.merge(&single);
    }

    /// Installs a whole [`ToolRegistry`], replacing this runtime's
    /// registry (the engine seeds worker runtimes this way, so replicas
    /// and the parent share call counters). Functions of previously
    /// registered tools remain callable unless shadowed by a same-named
    /// `module.func` in `tools`.
    pub fn set_tools(&mut self, tools: ToolRegistry) {
        tools.install(&mut self.externals);
        self.tools = tools;
    }

    /// The registered tools and their call accounting.
    pub fn tools(&self) -> &ToolRegistry {
        &self.tools
    }

    /// Registers a user-defined constraint operator (Appendix A.1),
    /// callable from `where` clauses as `name(args…)`.
    ///
    /// # Panics
    ///
    /// Panics if the name collides with a built-in function.
    pub fn register_constraint_op(&mut self, name: &str, op: Arc<dyn CustomOp>) {
        self.custom_ops.register(name, op);
    }

    /// Binds a query argument (visible as a variable in the query body,
    /// like `OPTIONS` in the paper's Fig. 10).
    pub fn bind(&mut self, name: &str, value: Value) {
        self.bindings.retain(|(n, _)| n != name);
        self.bindings.push((name.to_owned(), value));
    }

    /// Parses, compiles and runs LMQL source.
    ///
    /// # Errors
    ///
    /// Syntax, compile, evaluation and decoding errors.
    pub fn run(&self, source: &str) -> Result<QueryResult> {
        self.execute(&QueryRequest::new(source))
    }

    /// Like [`Runtime::run`], streaming [`QueryEvent`]s into `sink` as
    /// the query executes (DESIGN.md §11). The returned result is the
    /// same as [`Runtime::run`]'s — the stream is an *additional* view,
    /// and reassembling it reproduces the result byte-identically.
    ///
    /// # Errors
    ///
    /// See [`Runtime::run`]; additionally [`Error::Cancelled`] when the
    /// sink reports cancellation mid-run.
    pub fn run_streamed(&self, source: &str, sink: StreamSink) -> Result<QueryResult> {
        self.execute(&QueryRequest::new(source).stream(sink))
    }

    /// Executes a [`QueryRequest`]: the one entry point, which
    /// [`Runtime::run`] and [`Runtime::run_streamed`] are one-line
    /// callers of. Request settings override this runtime's defaults for
    /// this call only; unset fields inherit them.
    ///
    /// # Errors
    ///
    /// See [`Runtime::run`].
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResult> {
        let scoped = self.scoped_to(request);
        let program = scoped.compile(request.source())?;
        scoped.run_program(&program)
    }

    /// The environment `request` runs in: this runtime with the request's
    /// decode options applied, its bindings laid over the runtime's and
    /// its tools merged in — so all of it is visible to this call only
    /// (subqueries included: the scoped runtime seeds the subquery tree).
    fn scoped_to(&self, request: &QueryRequest) -> Runtime {
        let mut rt = self.clone();
        request.apply(&mut rt.options);
        for (name, value) in request.bindings() {
            rt.bind(name, value.clone());
        }
        let extra = request.tool_registry();
        if !extra.is_empty() {
            extra.install(&mut rt.externals);
            rt.tools.merge(extra);
        }
        rt
    }

    fn compile(&self, source: &str) -> Result<Program> {
        let _span = self.tracer().span("query", "parse_compile");
        compile_source(source)
    }

    /// Runs a pre-compiled program: dispatches on the decoder and, when
    /// the options carry an active stream sink, brackets the run with the
    /// terminal events (`Usage` + `Done` on success, `Error` on failure).
    ///
    /// # Errors
    ///
    /// See [`Runtime::run`].
    pub fn run_program(&self, program: &Program) -> Result<QueryResult> {
        let sink = &self.options.sink;
        let outcome = self.run_program_dispatch(program);
        if let Some(registry) = &self.metrics {
            if !self.tools.is_empty() {
                self.tools.report_metrics(registry);
            }
        }
        if sink.is_active() {
            match &outcome {
                Ok((_, ranking)) => {
                    let u = self.meter.snapshot();
                    sink.emit(QueryEvent::Usage {
                        model_queries: u.model_queries,
                        decoder_calls: u.decoder_calls,
                        billable_tokens: u.billable_tokens,
                    });
                    sink.emit(QueryEvent::Done {
                        ranking: ranking.clone(),
                    });
                }
                Err(e) => sink.emit(QueryEvent::Error {
                    message: e.to_string(),
                }),
            }
        }
        outcome.map(|(result, _)| result)
    }

    /// Runs the decoder, returning the result plus the surviving path
    /// ids best-first (the streaming `Done` ranking; `runs[i]` was
    /// streamed under path `ranking[i]`).
    fn run_program_dispatch(&self, program: &Program) -> Result<(QueryResult, Vec<u32>)> {
        if let Some(w) = &program.where_clause {
            self.validate_where(w)?;
        }
        // Subquery context: the tree-shared state is created at the root
        // (a child runtime carries the root's via `subquery_ctx`) from
        // this request-level runtime — per-request tools and all — so
        // children run like their parent.
        let sub = program_uses_subquery(program).then(|| match &self.subquery_ctx {
            Some((shared, depth)) => (Arc::clone(shared), *depth),
            None => (Arc::new(SubqueryShared::rooted_at(self)), 0),
        });
        let options = &self.options;
        // One score cache per run. Argmax never revisits a context, but
        // lockstep `sample(n)` and beam forks do, and a hit is not billed
        // as a model query; the §6 counts depend on that, so the cache
        // stays even where the engine's radix would answer the revisit
        // (that one bills it). It is a radix tree of shared logits: a
        // decode step adds one node with a one-token edge and a refcount
        // bump, no copy of the context or the scores. Each subquery
        // child run gets its own, exactly like an isolated run.
        let lm = CachedLm::new(MeteredLm::new(Arc::clone(&self.lm), self.meter.clone()));
        let mut masker = self.make_masker();
        let _query_span = options
            .tracer
            .span_lazy("query", || format!("run:{}", program.decoder.name));

        match program.decoder.name.as_str() {
            "argmax" => {
                let run =
                    self.run_single(program, &lm, &mut masker, Pick::argmax(), 0, sub.as_ref())?;
                Ok((run, vec![0]))
            }
            "sample" => {
                let n = program.decoder.int_param("n", 1).max(1) as usize;
                let mut runs: Vec<(u32, QueryRun)> = Vec::with_capacity(n);
                let mut distribution = None;
                for i in 0..n {
                    let r = self.run_single(
                        program,
                        &lm,
                        &mut masker,
                        Pick::sample(options.seed.wrapping_add(i as u64)),
                        i as u32,
                        sub.as_ref(),
                    )?;
                    distribution = distribution.or(r.distribution);
                    runs.extend(r.runs.into_iter().map(|run| (i as u32, run)));
                }
                runs.sort_by(|a, b| {
                    b.1.log_prob
                        .partial_cmp(&a.1.log_prob)
                        .expect("log probs are never NaN")
                });
                let ranking: Vec<u32> = runs.iter().map(|(p, _)| *p).collect();
                let runs: Vec<QueryRun> = runs.into_iter().map(|(_, r)| r).collect();
                Ok((QueryResult { runs, distribution }, ranking))
            }
            "beam" => {
                let n = program.decoder.int_param("n", 1).max(1) as usize;
                let mut opts = options.clone().with_decoder_params(&program.decoder);
                opts.sink = options.sink.with_path(0);
                // Beams share one external registry; subqueries spawned
                // by beam statements report under the run's root path.
                let externals = self.effective_externals(sub.as_ref(), &opts.sink);
                let beams = run_beam_search(
                    &lm,
                    &self.bpe,
                    &mut masker,
                    program,
                    externals.as_ref(),
                    &self.bindings,
                    n,
                    &opts,
                )?;
                let ranking: Vec<u32> = beams.iter().map(|b| b.path).collect();
                let trace_tokens = beams[0].trace_tokens;
                let runs: Vec<QueryRun> = beams
                    .into_iter()
                    .map(|b| QueryRun {
                        trace: b.vm.trace().to_string(),
                        variables: b.vm.scope().clone(),
                        log_prob: b.log_prob,
                        hole_records: b.vm.hole_records().to_vec(),
                    })
                    .collect();
                self.meter.record_decoder_call(trace_tokens as u64);
                Ok((
                    QueryResult {
                        runs,
                        distribution: None,
                    },
                    ranking,
                ))
            }
            other => Err(Error::compile(
                format!("unknown decoder `{other}` (expected argmax, sample or beam)"),
                program.decoder.span,
            )),
        }
    }

    /// Builds a masker configured like this runtime: engine, custom ops,
    /// tracer, mask tuning, plus any shared memo / automata cache /
    /// metrics registry. One per run normally; parallel hole decoding
    /// builds one per member thread (they share the memo and cache
    /// through the installed `Arc`s).
    fn make_masker(&self) -> Masker {
        let options = &self.options;
        let mut masker = Masker::new(options.engine, Arc::clone(&self.bpe) as _)
            .with_custom_ops(self.custom_ops.clone())
            .with_tracer(options.tracer.clone())
            .with_config(options.mask);
        if let Some(memo) = &self.mask_memo {
            masker = masker.with_memo(Arc::clone(memo));
        }
        if let Some(cache) = &self.automata_cache {
            masker = masker.with_automata_cache(Arc::clone(cache));
        }
        if let Some(registry) = &self.metrics {
            masker = masker.with_metrics(registry);
        }
        masker
    }

    /// The externals a run executes against: the user-registered set,
    /// plus — when the program calls `subquery(...)` — the injected
    /// `__runtime.subquery` implementation bound to this run's sink (so
    /// nested events report under the caller's path id).
    fn effective_externals(
        &self,
        sub: Option<&(Arc<SubqueryShared>, u32)>,
        sink: &StreamSink,
    ) -> std::borrow::Cow<'_, Externals> {
        match sub {
            Some((shared, depth)) => {
                let mut externals = self.externals.clone();
                install_subquery(&mut externals, Arc::clone(shared), *depth, sink.clone());
                std::borrow::Cow::Owned(externals)
            }
            None => std::borrow::Cow::Borrowed(&self.externals),
        }
    }

    /// Runs one execution path (argmax or one sample), streamed under
    /// hypothesis id `path` when the options carry an active sink.
    fn run_single<L: LanguageModel + Sync>(
        &self,
        program: &Program,
        lm: &L,
        masker: &mut Masker,
        mut pick: Pick,
        path: u32,
        sub: Option<&(Arc<SubqueryShared>, u32)>,
    ) -> Result<QueryResult> {
        let mut opts = self.options.clone().with_decoder_params(&program.decoder);
        opts.sink = self.options.sink.with_path(path);
        let sink = opts.sink.clone();
        let externals = self.effective_externals(sub, &sink);
        let externals = externals.as_ref();

        // Program-level parallelism (DESIGN.md §14): argmax only (a
        // sample threads one RNG through its holes in order), never under
        // an enabled tracer (span interleaving must stay deterministic),
        // and only when the analyzer finds a multi-hole independent group.
        // Buffered members are joined — their events replayed at their
        // exact sequential position — when the interpreter reaches them.
        let plan =
            if matches!(pick, Pick::Argmax) && opts.parallel_holes && !opts.tracer.is_enabled() {
                crate::parallel::plan_holes(program).filter(|p| p.max_group_len() > 1)
            } else {
                None
            };
        let mut pending: HashMap<String, PendingHole> = HashMap::new();

        let mut vm = VmState::new(self.bindings.iter().cloned());
        let mut log_prob = 0.0;
        let mut distribution: Option<Vec<(String, f64)>> = None;
        // Streaming protocol: trace bytes up to `emitted` have been
        // streamed (template text as PromptChunk, hole values via
        // VariableDone), so each suspension emits exactly the template
        // delta the interpreter appended since the last hole.
        let mut emitted = 0usize;
        // The trace's encoding, grown by each delta as holes are reached.
        let mut context = TokenContext::new();
        // Scratch for materialising rope deltas (prompt chunks, context
        // syncs) and the final trace. Reused across holes; the per-token
        // step loop never touches it.
        let mut trace_buf = String::new();

        loop {
            let step = match vm.run(program, externals) {
                Ok(step) => step,
                // Cancellation wins over whatever error the abort caused
                // (a cancelled subquery surfaces as an external-call
                // error; the canonical result of cancelling is
                // `Error::Cancelled`).
                Err(e) => {
                    if sink.cancelled() {
                        return Err(Error::Cancelled);
                    }
                    return Err(e);
                }
            };
            match step {
                Step::Done => {
                    if sink.is_active() {
                        // prompt_chunk drops empty text, so materialising
                        // only under an active sink keeps the event
                        // stream byte-identical.
                        vm.trace().write_suffix(emitted, &mut trace_buf);
                        sink.prompt_chunk(&trace_buf);
                    }
                    break;
                }
                Step::NeedHole(req) => {
                    if sink.cancelled() {
                        return Err(Error::Cancelled);
                    }
                    if sink.is_active() {
                        vm.trace().write_suffix(emitted, &mut trace_buf);
                        sink.prompt_chunk(&trace_buf);
                    }
                    sink.variable_start(&req.var);
                    let is_distribute = program
                        .distribute
                        .as_ref()
                        .is_some_and(|d| d.var == req.var);
                    if is_distribute {
                        let d = program.distribute.as_ref().expect("checked above");
                        sync_context(&self.bpe, &mut context, vm.trace(), &mut trace_buf);
                        let dist = self.compute_distribution(lm, &context, d, vm.scope(), &opts)?;
                        let best = dist
                            .iter()
                            .max_by(|a, b| {
                                a.1.partial_cmp(&b.1).expect("probabilities are never NaN")
                            })
                            .map(|(v, _)| v.clone())
                            .ok_or_else(|| Error::eval("distribute support is empty", d.span))?;
                        if sink.is_active() {
                            sink.emit(QueryEvent::Distribution {
                                support: dist.clone(),
                            });
                        }
                        sink.variable_done(
                            &req.var,
                            &best,
                            log_prob,
                            StopReason::Distribution,
                            None,
                        );
                        distribution = Some(dist);
                        vm.provide_hole(best);
                        emitted = vm.trace().len();
                    } else {
                        if distribution.is_some() {
                            let d = program.distribute.as_ref().expect("distribution set");
                            return Err(Error::compile(
                                format!(
                                    "distribute variable `{}` must be the last hole of the query",
                                    d.var
                                ),
                                d.span,
                            ));
                        }
                        if !pending.contains_key(&req.var) {
                            if let Some(plan) = &plan {
                                if let Some(members) = plan.parallel_suffix(&req.var) {
                                    self.decode_group(
                                        program,
                                        &vm,
                                        members,
                                        lm,
                                        &opts,
                                        externals,
                                        &mut pending,
                                    );
                                }
                            }
                        }
                        let decoded = match pending.remove(&req.var) {
                            Some(member) => {
                                // Join: replay this member's buffered
                                // events at its sequential position (an
                                // error propagates after them, just as a
                                // live decode would).
                                for event in member.events {
                                    sink.emit(event);
                                }
                                member.result?
                            }
                            None => {
                                sync_context(&self.bpe, &mut context, vm.trace(), &mut trace_buf);
                                decode_hole(
                                    lm,
                                    &self.bpe,
                                    masker,
                                    program.where_clause.as_ref(),
                                    vm.scope(),
                                    &mut context,
                                    &req.var,
                                    &mut pick,
                                    &opts,
                                )?
                            }
                        };
                        log_prob += decoded.log_prob;
                        sink.variable_done(
                            &req.var,
                            &decoded.value,
                            log_prob,
                            decoded.stopped_by,
                            decoded.eos_step,
                        );
                        vm.provide_hole(decoded.value);
                        emitted = vm.trace().len();
                    }
                }
            }
        }

        // LMQL decodes the whole scripted interaction in one decoder run:
        // one decoder call billing the final trace once (§6 metrics; cf.
        // the ReAct case study's single decoder call).
        sync_context(&self.bpe, &mut context, vm.trace(), &mut trace_buf);
        self.meter.record_decoder_call(context.encoded_len() as u64);
        vm.trace().write_into(&mut trace_buf);

        Ok(QueryResult {
            runs: vec![QueryRun {
                trace: trace_buf,
                variables: vm.scope().clone(),
                log_prob,
                hole_records: vm.hole_records().to_vec(),
            }],
            distribution,
        })
    }

    /// Decodes the mutually independent holes `members` (a parallel
    /// group suffix starting at the current suspension) concurrently,
    /// buffering each member's outcome into `pending`.
    ///
    /// Each member's prompt context is gathered by cloning the suspended
    /// VM and resuming it with empty placeholder values: the context is
    /// then exactly the sequential one with unresolved sibling values
    /// omitted (the futures-join semantics of DESIGN.md §14), and its
    /// decode scope drops every group member's name so sibling-value
    /// conjuncts stay *undetermined* — the same state sequential
    /// decoding is in for holes not yet reached. If the speculative
    /// resume does anything unexpected (a statement errors on a
    /// placeholder, the next suspension isn't the expected member), the
    /// group is abandoned and `pending` stays empty — the caller falls
    /// back to plain sequential decoding.
    #[allow(clippy::too_many_arguments)]
    fn decode_group<L: LanguageModel + Sync>(
        &self,
        program: &Program,
        vm: &VmState,
        members: &[String],
        lm: &L,
        opts: &DecodeOptions,
        externals: &Externals,
        pending: &mut HashMap<String, PendingHole>,
    ) {
        // Gather phase: one (trace, scope) job per member, walked off a
        // speculative clone. The analyzer guarantees no external call
        // sits between members, so the resume re-runs only pure
        // statements (on the clone's scope — the real VM re-executes
        // them authoritatively at join time).
        let mut jobs: Vec<(String, String, HashMap<String, Value>)> =
            Vec::with_capacity(members.len());
        let mut clone = vm.clone();
        let mut buf = String::new();
        for (i, var) in members.iter().enumerate() {
            clone.trace().write_into(&mut buf);
            let mut scope = clone.scope().clone();
            for m in members {
                scope.remove(m.as_str());
            }
            jobs.push((var.clone(), buf.clone(), scope));
            if i + 1 < members.len() {
                clone.provide_hole(String::new());
                match clone.run(program, externals) {
                    Ok(Step::NeedHole(next)) if next.var == members[i + 1] => {}
                    _ => return,
                }
            }
        }

        let parent_sink = &opts.sink;
        let outcomes: Vec<(String, PendingHole)> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|(var, trace, job_scope)| {
                    scope.spawn(move || {
                        let buffer = Arc::new(GroupBufferSink {
                            parent: parent_sink.clone(),
                            events: Mutex::new(Vec::new()),
                        });
                        let mut member_opts = opts.clone();
                        if parent_sink.is_active() {
                            member_opts.sink = StreamSink::new(Arc::clone(&buffer) as _)
                                .with_path(parent_sink.path());
                        }
                        let mut masker = self.make_masker();
                        let mut context = TokenContext::new();
                        context.append(&self.bpe, trace);
                        let result = decode_hole(
                            lm,
                            &self.bpe,
                            &mut masker,
                            program.where_clause.as_ref(),
                            job_scope,
                            &mut context,
                            var,
                            &mut Pick::argmax(),
                            &member_opts,
                        );
                        let events = std::mem::take(
                            &mut *buffer.events.lock().expect("event buffer poisoned"),
                        );
                        (var.clone(), PendingHole { result, events })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        pending.extend(outcomes);
        if let Some(registry) = &self.metrics {
            registry.counter("holes.parallel").add(members.len() as u64);
        }
    }

    /// Rejects `where` clauses calling functions that are neither
    /// built-in nor registered custom operators (a misspelled constraint
    /// would otherwise silently evaluate as *undetermined* and prune
    /// nothing), and built-ins called with the wrong number of arguments.
    fn validate_where(&self, expr: &lmql_syntax::ast::Expr) -> Result<()> {
        use lmql_syntax::ast::Expr as E;
        match expr {
            E::Call { func, args, span } => {
                if let E::Name { name, .. } = func.as_ref() {
                    crate::builtins::check_arity(name, args.len(), *span)?;
                    if !crate::builtins::is_builtin(name) && !self.custom_ops.contains(name) {
                        return Err(Error::compile(
                            format!(
                                "unknown constraint function `{name}` (register it with \
                                 Runtime::register_constraint_op)"
                            ),
                            *span,
                        ));
                    }
                }
                args.iter().try_for_each(|a| self.validate_where(a))
            }
            E::BoolOp { operands, .. } => operands.iter().try_for_each(|o| self.validate_where(o)),
            E::Not { operand, .. } | E::Neg { operand, .. } => self.validate_where(operand),
            E::Compare { left, right, .. } | E::BinOp { left, right, .. } => {
                self.validate_where(left)?;
                self.validate_where(right)
            }
            E::List { items, .. } => items.iter().try_for_each(|i| self.validate_where(i)),
            E::Index { obj, index, .. } => {
                self.validate_where(obj)?;
                self.validate_where(index)
            }
            E::Slice { obj, lo, hi, .. } => {
                self.validate_where(obj)?;
                if let Some(lo) = lo {
                    self.validate_where(lo)?;
                }
                if let Some(hi) = hi {
                    self.validate_where(hi)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Scores every support value as a continuation of the trace and
    /// normalises into a distribution (the `distribute` clause, §3).
    fn compute_distribution<L: LanguageModel>(
        &self,
        lm: &L,
        context: &TokenContext,
        d: &lmql_syntax::ast::Distribute,
        scope: &HashMap<String, Value>,
        options: &DecodeOptions,
    ) -> Result<Vec<(String, f64)>> {
        let support = eval_expr(&d.support, scope, &self.externals)?;
        let values: Vec<String> = match support {
            Value::List(items) => items.iter().map(Value::to_prompt_string).collect(),
            other => {
                return Err(Error::eval(
                    format!(
                        "distribute support must be a list, got {}",
                        other.type_name()
                    ),
                    d.span,
                ))
            }
        };
        if values.is_empty() {
            return Err(Error::eval("distribute support is empty", d.span));
        }

        let mut dist_span = options.tracer.span("query", "distribute");
        dist_span.arg("support", values.len() as u64);
        // Each value's context re-encodes only the trace's open chunk
        // with the value appended.
        let continuations: Vec<TokenContext> = values
            .iter()
            .map(|v| {
                let mut continuation = context.clone();
                continuation.append(&self.bpe, v);
                continuation
            })
            .collect();
        let log_probs = self.score_continuations(lm, context, &continuations, options)?;
        drop(dist_span);
        for continuation in &continuations {
            // Each scored value starts its own decoding loop: one decoder
            // call billing prompt + continuation (§6 metrics).
            self.meter
                .record_decoder_call(continuation.encoded_len() as u64);
        }

        // Softmax over the sequence log-probabilities.
        let max = log_probs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = log_probs.iter().map(|lp| (lp - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        Ok(values
            .into_iter()
            .zip(exps)
            .map(|(v, e)| (v, e / z))
            .collect())
    }

    /// Log-probability of each continuation of `context` (its encoding
    /// with a support value appended), scored token by token.
    ///
    /// Unlike hole decoding, every context to score is known before any
    /// scoring happens (the support values are fixed), so all of them —
    /// across all values — go to the model as one batch.
    fn score_continuations<L: LanguageModel>(
        &self,
        lm: &L,
        context: &TokenContext,
        continuations: &[TokenContext],
        options: &DecodeOptions,
    ) -> Result<Vec<f64>> {
        let base = context.tokens();
        // The boundary token may re-tokenise; score from the first
        // divergence between the two encodings.
        let plans: Vec<(&[TokenId], usize)> = continuations
            .iter()
            .map(|continuation| {
                let full = continuation.tokens();
                let common = base.iter().zip(full).take_while(|(a, b)| a == b).count();
                (full, common)
            })
            .collect();
        let contexts: Vec<&[TokenId]> = plans
            .iter()
            .flat_map(|(full, common)| (*common..full.len()).map(move |i| &full[..i]))
            .collect();
        let mut scored = {
            let mut span = options.tracer.span("batch", "dispatch");
            span.arg("contexts", contexts.len() as u64);
            lm.try_score_batch(&contexts).into_iter()
        };
        plans
            .iter()
            .map(|(full, common)| {
                let mut lp = 0.0;
                for &t in &full[*common..] {
                    let logits = scored.next().expect("one score per context")?;
                    lp += logits.softmax(1.0).log_prob(t);
                }
                Ok(lp)
            })
            .collect()
    }
}

/// A parallel group member's buffered outcome, awaiting its join point.
struct PendingHole {
    result: Result<DecodedValue>,
    events: Vec<QueryEvent>,
}

/// The sink a parallel group member of an observed run decodes against:
/// its events are buffered whole (for in-order replay at the join)
/// instead of reaching the stream out of program order, while
/// cancellation still flows through from the real sink so concurrent
/// members stop cooperatively.
struct GroupBufferSink {
    parent: StreamSink,
    events: Mutex<Vec<QueryEvent>>,
}

impl EventSink for GroupBufferSink {
    fn emit(&self, event: QueryEvent) {
        self.events
            .lock()
            .expect("event buffer poisoned")
            .push(event);
    }

    fn cancelled(&self) -> bool {
        self.parent.cancelled()
    }
}

/// Whether the compiled program calls `subquery(...)` anywhere.
fn program_uses_subquery(program: &Program) -> bool {
    program.instrs.iter().any(|i| {
        matches!(i, Instr::CallExternal { module, func, .. }
            if module == "__runtime" && func == "subquery")
    })
}

/// State shared by every query in one `subquery(...)` tree: the root's
/// environment, the tree-wide token budget and the global child-path
/// allocator.
struct SubqueryShared {
    /// The root query's request-level runtime — model, tools (shared
    /// call counters), caches, meter and registry, so usage and tool
    /// accounting roll up the tree — with bindings and sink cleared; each
    /// child is a clone of it with its own nested sink and depth.
    root: Runtime,
    budget: Option<Arc<AtomicI64>>,
    path_alloc: Arc<AtomicU32>,
}

impl SubqueryShared {
    fn rooted_at(root: &Runtime) -> Self {
        let mut root = root.clone();
        root.bindings.clear();
        root.options.sink = StreamSink::none();
        SubqueryShared {
            budget: root
                .subqueries
                .max_tokens
                .map(|n| Arc::new(AtomicI64::new(n.min(i64::MAX as u64) as i64))),
            path_alloc: Arc::new(AtomicU32::new(SUBQUERY_PATH_BASE)),
            root,
        }
    }
}

/// Registers the `__runtime.subquery` external for one execution path:
/// the closure is bound to the path's sink so nested events report under
/// the caller's path id.
fn install_subquery(
    externals: &mut Externals,
    shared: Arc<SubqueryShared>,
    depth: u32,
    sink: StreamSink,
) {
    externals.register("__runtime", "subquery", move |args| {
        run_subquery(&shared, depth, &sink, args)
    });
}

/// The `subquery(source[, var])` implementation: runs `source` as a
/// child query through the same engine stack, returning its best trace
/// (or the named variable's value). Enforces the tree's depth and token
/// budget limits, propagates cancellation down (the child's sink chains
/// `cancelled()` to the parent's), rolls usage up through the shared
/// meter, and nests the child's event stream into the parent's under a
/// freshly allocated child path id.
fn run_subquery(
    shared: &Arc<SubqueryShared>,
    depth: u32,
    parent_sink: &StreamSink,
    args: &[Value],
) -> std::result::Result<Value, String> {
    let source = args
        .first()
        .ok_or("subquery(source[, var]) takes an LMQL source string")?
        .as_str()
        .ok_or("subquery source must be a string")?;
    let want_var = match args.get(1) {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or("subquery variable name must be a string")?
                .to_owned(),
        ),
    };
    if args.len() > 2 {
        return Err("subquery takes at most 2 arguments (source, variable)".into());
    }
    let root = &shared.root;
    if parent_sink.cancelled() {
        counter_inc(&root.metrics, "engine.subquery.cancelled");
        return Err("subquery cancelled: parent query is cancelled".into());
    }
    if depth >= root.subqueries.max_depth {
        counter_inc(&root.metrics, "engine.subquery.depth_rejected");
        return Err(format!(
            "subquery depth limit ({}) exceeded",
            root.subqueries.max_depth
        ));
    }
    if matches!(&shared.budget, Some(b) if b.load(Ordering::Relaxed) <= 0) {
        counter_inc(&root.metrics, "engine.subquery.budget_exhausted");
        return Err("subquery token budget exhausted".into());
    }
    counter_inc(&root.metrics, "engine.subquery.spawned");

    let child_root = shared.path_alloc.fetch_add(1, Ordering::Relaxed);
    parent_sink.emit(QueryEvent::SubqueryStart {
        parent: parent_sink.path(),
        child: child_root,
        depth: depth + 1,
    });
    let child_sink = StreamSink::new(Arc::new(SubquerySink {
        parent: parent_sink.clone(),
        budget: shared.budget.clone(),
        alloc: Arc::clone(&shared.path_alloc),
        map: Mutex::new(HashMap::from([(0u32, child_root)])),
    }));
    let mut child = root.clone();
    child.options.sink = child_sink;
    child.subquery_ctx = Some((Arc::clone(shared), depth + 1));
    let outcome = child
        .compile(source)
        .and_then(|program| child.run_program(&program));
    parent_sink.emit(QueryEvent::SubqueryDone {
        path: child_root,
        ok: outcome.is_ok(),
    });
    match outcome {
        Ok(result) => match want_var {
            None => Ok(Value::Str(result.best().trace.clone())),
            Some(var) => result
                .best()
                .variables
                .get(&var)
                .cloned()
                .ok_or_else(|| format!("subquery completed but has no variable `{var}`")),
        },
        Err(e) => {
            if matches!(&shared.budget, Some(b) if b.load(Ordering::Relaxed) <= 0) {
                counter_inc(&root.metrics, "engine.subquery.budget_exhausted");
                Err(format!("subquery token budget exhausted: {e}"))
            } else if parent_sink.cancelled() {
                counter_inc(&root.metrics, "engine.subquery.cancelled");
                Err(format!("subquery cancelled: {e}"))
            } else {
                counter_inc(&root.metrics, "engine.subquery.failed");
                Err(format!("subquery failed: {e}"))
            }
        }
    }
}

/// The sink a child query streams through: child-internal path ids are
/// remapped onto globally allocated ones (path `0` is the id announced
/// by `SubqueryStart`), token deltas burn the tree budget, terminal
/// bookkeeping events stay internal (the child's `Done` ranking must
/// not clobber the parent's, and usage rolls up through the shared
/// meter), and `cancelled()` chains to the parent so cancelling any
/// ancestor stops the whole tree cooperatively.
struct SubquerySink {
    parent: StreamSink,
    budget: Option<Arc<AtomicI64>>,
    alloc: Arc<AtomicU32>,
    map: Mutex<HashMap<u32, u32>>,
}

impl SubquerySink {
    fn map_path(&self, path: u32) -> u32 {
        if path >= SUBQUERY_PATH_BASE {
            // Already globalised by a deeper subquery sink.
            return path;
        }
        let mut map = self.map.lock().expect("subquery path map poisoned");
        *map.entry(path)
            .or_insert_with(|| self.alloc.fetch_add(1, Ordering::Relaxed))
    }
}

impl EventSink for SubquerySink {
    fn emit(&self, mut event: QueryEvent) {
        if let QueryEvent::TokenDelta { path, .. } = &event {
            // One budget unit per decoded token, counted once: deltas a
            // deeper sink already globalised were counted there.
            if *path < SUBQUERY_PATH_BASE {
                if let Some(budget) = &self.budget {
                    budget.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        if !self.parent.is_active() {
            return;
        }
        match &mut event {
            QueryEvent::PromptChunk { path, .. }
            | QueryEvent::VariableStart { path, .. }
            | QueryEvent::TokenDelta { path, .. }
            | QueryEvent::VariableDone { path, .. }
            | QueryEvent::BeamPrune { path } => *path = self.map_path(*path),
            QueryEvent::BeamFork { parent, child } => {
                *parent = self.map_path(*parent);
                *child = self.map_path(*child);
            }
            // Grandchild roots come from the shared allocator and are
            // already global.
            QueryEvent::SubqueryStart { parent, .. } => *parent = self.map_path(*parent),
            QueryEvent::SubqueryDone { .. } => {}
            QueryEvent::Distribution { .. }
            | QueryEvent::Usage { .. }
            | QueryEvent::Done { .. }
            | QueryEvent::Error { .. } => return,
        }
        self.parent.emit(event);
    }

    fn cancelled(&self) -> bool {
        self.parent.cancelled() || matches!(&self.budget, Some(b) if b.load(Ordering::Relaxed) <= 0)
    }
}

fn counter_inc(metrics: &Option<lmql_obs::Registry>, name: &str) {
    if let Some(registry) = metrics {
        registry.counter(name).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnTool;
    use lmql_lm::{Branch, Episode, ScriptedLm};

    fn runtime(episodes: Vec<Episode>) -> Runtime {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
        Runtime::new(lm, bpe)
    }

    #[test]
    fn argmax_end_to_end() {
        let rt = runtime(vec![Episode::plain("Q: hi\nA:", " hello.")]);
        let result = rt
            .run("argmax\n    \"Q: hi\\nA:[ANSWER]\"\nfrom \"m\"\nwhere stops_at(ANSWER, \".\")\n")
            .unwrap();
        assert_eq!(result.best().var_str("ANSWER"), Some(" hello."));
        assert_eq!(result.best().trace, "Q: hi\nA: hello.");
        let u = rt.meter().snapshot();
        assert_eq!(u.decoder_calls, 1);
        assert!(u.model_queries > 0);
        assert!(u.billable_tokens > 0);
    }

    #[test]
    fn sample_returns_n_runs() {
        let rt = runtime(vec![Episode::plain("P:", " out")]);
        let result = rt.run("sample(n=3)\n    \"P:[X]\"\nfrom \"m\"\n").unwrap();
        assert_eq!(result.runs.len(), 3);
        assert_eq!(rt.meter().snapshot().decoder_calls, 3);
    }

    #[test]
    fn distribute_measures_distribution() {
        let rt = runtime(vec![Episode {
            trigger: "best:".to_owned(),
            script: " alpha".to_owned(),
            digressions: vec![],
            branches: vec![Branch {
                at: 0,
                text: " beta".to_owned(),
                weight: 11.4,
            }],
        }]);
        let result = rt
            .run(
                "argmax\n    \"best:[CHOICE]\"\nfrom \"m\"\ndistribute CHOICE in [\" alpha\", \" beta\", \" gamma\"]\n",
            )
            .unwrap();
        let dist = result.distribution.as_ref().unwrap();
        assert_eq!(dist.len(), 3);
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(result.top_distribution_value(), Some(" alpha"));
        let beta = dist.iter().find(|(v, _)| v == " beta").unwrap().1;
        let gamma = dist.iter().find(|(v, _)| v == " gamma").unwrap().1;
        assert!(beta > gamma, "branch weight gives beta real mass");
        // trace completed with the argmax choice
        assert_eq!(result.best().trace, "best: alpha");
        // decoder calls: 1 for the run + 3 for the scored values
        assert_eq!(rt.meter().snapshot().decoder_calls, 4);
    }

    #[test]
    fn query_arguments_bind() {
        let mut rt = runtime(vec![Episode::plain("items: a, b\npick:", " a")]);
        rt.bind("OPTIONS", Value::Str("a, b".into()));
        let result = rt
            .run("argmax\n    \"items: {OPTIONS}\\npick:[C]\"\nfrom \"m\"\n")
            .unwrap();
        assert!(result.best().trace.starts_with("items: a, b"));
    }

    #[test]
    fn externals_in_query() {
        let mut rt = runtime(vec![Episode::plain("calc:", " 2*3")]);
        rt.register_tool(Arc::new(FnTool::new("calculator", "run", |args| {
            let s = args[0].as_str().ok_or("expected str")?;
            let parts: Vec<&str> = s.trim().split('*').collect();
            let a: i64 = parts[0].parse().map_err(|_| "bad int")?;
            let b: i64 = parts[1].parse().map_err(|_| "bad int")?;
            Ok(Value::Int(a * b))
        })));
        let result = rt
            .run(
                "import calculator\nargmax\n    \"calc:[EXPR]\"\n    r = calculator.run(EXPR)\n    \" = {r}\"\nfrom \"m\"\nwhere stops_at(EXPR, \"3\")\n",
            )
            .unwrap();
        assert_eq!(result.best().trace, "calc: 2*3 = 6");
    }

    /// A built-in called with the wrong number of arguments is the
    /// query's compile error at the call, in `where` and in the body
    /// alike; it never reaches the constraint evaluator.
    #[test]
    fn builtin_with_wrong_arity_is_a_compile_error() {
        let rt = runtime(vec![Episode::plain("Out:", " a b. c")]);
        for form in [
            "len() < 5",
            "words() < 2",
            "sentences() < 1",
            "int()",
            "characters()",
            "stops_at(X)",
            "len(X, X) < 5",
        ] {
            let src = format!("argmax\n    \"Out:[X]\"\nfrom \"m\"\nwhere {form}\n");
            match rt.execute(&QueryRequest::new(src)) {
                Err(Error::Compile { message, span }) => {
                    assert!(message.contains("argument"), "{form}: {message}");
                    assert_eq!(span.start, lmql_syntax::Pos::new(4, 7), "{form}");
                }
                other => panic!("{form}: expected a compile error, got {other:?}"),
            }
        }
        let err = rt
            .run("argmax\n    n = len()\n    \"Out:[X]\"\nfrom \"m\"\n")
            .unwrap_err();
        assert!(matches!(err, Error::Compile { .. }), "{err:?}");
        assert!(err.to_string().contains("len() takes 1"), "{err}");
    }

    #[test]
    fn unknown_decoder_is_error() {
        let rt = runtime(vec![Episode::plain("x", "y")]);
        let err = rt.run("magic\n    \"[X]\"\nfrom \"m\"\n").unwrap_err();
        assert!(err.to_string().contains("unknown decoder"));
    }

    #[test]
    fn distribute_must_be_last_hole() {
        let rt = runtime(vec![Episode::plain("t:", " a b")]);
        let err = rt
            .run("argmax\n    \"t:[D] then [MORE]\"\nfrom \"m\"\ndistribute D in [\" a\"]\n")
            .unwrap_err();
        assert!(err.to_string().contains("last hole"));
    }

    #[test]
    fn tracer_records_hole_and_mask_spans() {
        let mut rt = runtime(vec![Episode::plain("Q: hi\nA:", " hello.")]);
        rt.set_tracer(lmql_obs::Tracer::manual());
        let result = rt
            .run("argmax\n    \"Q: hi\\nA:[ANSWER]\"\nfrom \"m\"\nwhere stops_at(ANSWER, \".\")\n")
            .unwrap();
        assert_eq!(result.best().var_str("ANSWER"), Some(" hello."));
        let events = rt.tracer().events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"parse_compile"));
        assert!(names.contains(&"hole:ANSWER"));
        assert!(names.contains(&"compute_mask"));
        assert!(names.contains(&"follow_eval"));
        assert!(names.contains(&"run:argmax"));
        // Manual clock makes the trace a pure function of the event
        // sequence: a second identical run records identical timings.
        let mut rt2 = runtime(vec![Episode::plain("Q: hi\nA:", " hello.")]);
        rt2.set_tracer(lmql_obs::Tracer::manual());
        rt2.run("argmax\n    \"Q: hi\\nA:[ANSWER]\"\nfrom \"m\"\nwhere stops_at(ANSWER, \".\")\n")
            .unwrap();
        assert_eq!(events, rt2.tracer().events());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let rt = runtime(vec![Episode::plain("P:", " out")]);
        rt.run("argmax\n    \"P:[X]\"\nfrom \"m\"\n").unwrap();
        assert!(!rt.tracer().is_enabled());
        assert!(rt.tracer().events().is_empty());
    }

    #[test]
    fn parallel_holes_match_sequential() {
        let episodes = || {
            vec![
                Episode::plain("A:", " one\n"),
                Episode::plain("B:", " two\n"),
            ]
        };
        let src = "argmax\n    \"A:[X]B:[Y]\"\nfrom \"m\"\nwhere stops_at(X, \"\\n\") and stops_at(Y, \"\\n\")\n";

        let registry = lmql_obs::Registry::new();
        let mut par = runtime(episodes());
        par.set_metrics_registry(registry.clone());
        let par_result = par.run(src).unwrap();

        let mut seq = runtime(episodes());
        seq.options_mut().parallel_holes = false;
        let seq_result = seq.run(src).unwrap();

        assert_eq!(par_result.best().trace, "A: one\nB: two\n");
        assert_eq!(par_result.best().trace, seq_result.best().trace);
        assert_eq!(par_result.best().variables, seq_result.best().variables);
        assert_eq!(par_result.best().log_prob, seq_result.best().log_prob);
        assert_eq!(
            par.meter().snapshot().decoder_calls,
            seq.meter().snapshot().decoder_calls
        );
        assert_eq!(
            registry.snapshot().counter("holes.parallel"),
            Some(2),
            "both independent holes decoded through the parallel group"
        );
    }

    #[test]
    fn subquery_end_to_end() {
        let rt = runtime(vec![
            Episode::plain("Q:", " hi\n"),
            Episode::plain("S:", " ok."),
        ]);
        let registry = lmql_obs::Registry::new();
        let mut rt = rt;
        rt.set_metrics_registry(registry.clone());
        let result = rt
            .run(
                r#"
argmax
    "Q:[A]"
    sub = subquery("argmax\n    \"S:[B]\"\nfrom \"m\"\nwhere stops_at(B, \".\")\n", "B")
    "sub={sub}"
from "m"
where stops_at(A, "\n")
"#,
            )
            .unwrap();
        assert_eq!(result.best().trace, "Q: hi\nsub= ok.");
        assert_eq!(
            registry.snapshot().counter("engine.subquery.spawned"),
            Some(1)
        );
        // Child usage rolls up into the parent's meter: one decoder call
        // for the parent run, one for the child.
        assert_eq!(rt.meter().snapshot().decoder_calls, 2);
    }

    #[test]
    fn subquery_depth_limit_rejects() {
        let mut rt = runtime(vec![Episode::plain("Q:", " hi\n")]);
        rt.set_subquery_limits(SubqueryLimits {
            max_depth: 0,
            max_tokens: None,
        });
        let err = rt
            .run(
                r#"
argmax
    "Q:[A]"
    sub = subquery("argmax\n    \"S:[B]\"\nfrom \"m\"\n")
from "m"
where stops_at(A, "\n")
"#,
            )
            .unwrap_err();
        assert!(err.to_string().contains("depth limit"), "{err}");
    }

    #[test]
    fn loop_with_holes_fig1b_shape() {
        let rt = runtime(vec![Episode::plain(
            "A list of things not to forget when travelling:\n-",
            " keys\n- passport\nThe most important of these is keys.",
        )]);
        let result = rt
            .run(
                r#"
argmax
    "A list of things not to forget when travelling:\n"
    things = []
    for i in range(2):
        "-[THING]"
        things.append(THING)
    "The most important of these is[ITEM]"
from "m"
where stops_at(THING, "\n") and stops_at(ITEM, ".")
"#,
            )
            .unwrap();
        let things = result.best().variables.get("things").unwrap();
        assert_eq!(
            things,
            &Value::List(vec![" keys\n".into(), " passport\n".into()])
        );
        assert_eq!(result.best().var_str("ITEM"), Some(" keys."));
        assert!(result
            .best()
            .trace
            .ends_with("The most important of these is keys."));
    }
}
