//! Output checking: the oracle pass and the pinned digest.
//!
//! The count pass is the correctness sample. Every result that came back
//! over the wire must be byte-identical — trace, hole values, bit-exact
//! log-probability, usage — to [`Runtime::execute`] on the bare model in
//! this process, and for `--seed 1` the digest of the pass must equal the
//! one committed under `benchmark/expected/`. Both cover the fixed-size
//! count pass only, so neither depends on `--seconds`.
//!
//! The [`OracleRunner`] is also level L0 of the traced run (`layers.rs`).

use crate::fixed_cost::CallProbe;
use crate::load::Completed;
use crate::trace::Spans;
use crate::workloads::{Substrate, Workload};
use lmql::constraints::{AutomataCache, MaskMemo};
use lmql::{QueryRequest, QueryResult, ReassembledQuery, Runtime, ToolRegistry};
use lmql_lm::LanguageModel;
use lmql_obs::Registry;
use lmql_tokenizer::Bpe;
use std::sync::Arc;

/// What the oracle pass found.
pub struct OraclePass {
    /// Queries whose wire result differed from the oracle's (or that the
    /// oracle itself could not run).
    pub mismatches: usize,
    /// A description of the first mismatch, for the log.
    pub first_mismatch: Option<String>,
    /// What the runtime reported about masks and automata during the pass.
    pub registry: Registry,
}

fn same(
    direct: &QueryResult,
    usage: (u64, u64, u64),
    wire: &ReassembledQuery,
) -> Result<(), String> {
    if wire.runs.len() != direct.runs.len() {
        return Err(format!(
            "run count {} vs {}",
            wire.runs.len(),
            direct.runs.len()
        ));
    }
    for (got, want) in wire.runs.iter().zip(&direct.runs) {
        if got.trace != want.trace {
            return Err(format!("trace {:?} vs {:?}", got.trace, want.trace));
        }
        let want_holes: Vec<(String, String)> = want
            .hole_records
            .iter()
            .map(|r| (r.var.clone(), r.value.clone()))
            .collect();
        if got.holes != want_holes {
            return Err(format!("holes {:?} vs {:?}", got.holes, want_holes));
        }
        if got.log_prob.to_bits() != want.log_prob.to_bits() {
            return Err(format!("log-prob {} vs {}", got.log_prob, want.log_prob));
        }
    }
    if wire.usage != Some(usage) {
        return Err(format!("usage {:?} vs {usage:?}", wire.usage));
    }
    Ok(())
}

/// Runs queries on the bare model in this process the way the server
/// would: a fresh [`Runtime`] per query, the workload's tools, and — for
/// the pooled workload, whose engines share them across queries — one
/// mask memo and one automata cache.
pub struct OracleRunner {
    model: Arc<dyn LanguageModel>,
    bpe: Arc<Bpe>,
    tools: ToolRegistry,
    shared: Option<(Arc<MaskMemo>, Arc<AutomataCache>)>,
    /// `mask.*`, `automata.*` and `holes.parallel` as the runtime reports
    /// them into a registry the benchmark owns.
    pub registry: Registry,
}

impl OracleRunner {
    /// A runner over `substrate`, its model counted by `lm_probe` (and
    /// timed while `spans` records).
    pub fn new(
        workload: Workload,
        substrate: &Substrate,
        lm_probe: &Arc<CallProbe>,
        spans: &Spans,
    ) -> OracleRunner {
        OracleRunner {
            model: substrate.timed_model(lm_probe, spans),
            bpe: Arc::clone(&substrate.bpe),
            tools: substrate.timed_tools(&Arc::new(CallProbe::default()), spans),
            shared: workload
                .pooled()
                .then(|| (MaskMemo::new(1024), AutomataCache::new())),
            registry: Registry::new(),
        }
    }

    /// Executes `source`; returns the result and the query's usage
    /// (model queries, decoder calls, billable tokens).
    pub fn run(&self, source: &str) -> (lmql::Result<QueryResult>, (u64, u64, u64)) {
        // A fresh runtime per query, as the server builds one: its meter
        // then reads this query's usage alone.
        let mut rt = Runtime::new(Arc::clone(&self.model), Arc::clone(&self.bpe));
        rt.set_metrics_registry(self.registry.clone());
        if !self.tools.is_empty() {
            rt.set_tools(self.tools.clone());
        }
        if let Some((memo, automata)) = &self.shared {
            rt.set_mask_memo(Arc::clone(memo));
            rt.set_automata_cache(Arc::clone(automata));
        }
        let result = rt.execute(&QueryRequest::new(source));
        let u = rt.meter().snapshot();
        (
            result,
            (u.model_queries, u.decoder_calls, u.billable_tokens),
        )
    }
}

/// Runs the count pass's queries through an [`OracleRunner`] and compares
/// each result with what came back over the wire.
pub fn oracle_pass(
    workload: Workload,
    substrate: &Substrate,
    sources: &[String],
    wire: &[Option<Completed>],
) -> OraclePass {
    let runner = OracleRunner::new(
        workload,
        substrate,
        &Arc::new(CallProbe::default()),
        &Spans::new(),
    );
    let mut pass = OraclePass {
        mismatches: 0,
        first_mismatch: None,
        registry: runner.registry.clone(),
    };
    for (i, (source, wire)) in sources.iter().zip(wire).enumerate() {
        let (direct, usage) = runner.run(source);
        let verdict = match (&direct, wire) {
            (Ok(direct), Some(wire)) => same(direct, usage, &wire.result),
            (Err(e), _) => Err(format!("oracle failed: {e}")),
            (_, None) => Err("query failed on the wire".to_owned()),
        };
        if let Err(why) = verdict {
            pass.mismatches += 1;
            pass.first_mismatch
                .get_or_insert_with(|| format!("query {i}: {why}"));
        }
    }
    pass
}

/// FNV-1a over the text of every result of the count pass: traces, hole
/// values and the usage triple. Log-probabilities are left to the oracle
/// comparison (same process, bit-exact), so the committed digest does not
/// depend on the platform's `exp`/`ln`.
pub fn digest(wire: &[Option<Completed>]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for item in wire {
        match item {
            None => eat(b"<failed>"),
            Some(c) => {
                for run in &c.result.runs {
                    eat(run.trace.as_bytes());
                    for (var, value) in &run.holes {
                        eat(var.as_bytes());
                        eat(value.as_bytes());
                    }
                }
                let (q, d, b) = c.result.usage.unwrap_or((0, 0, 0));
                eat(format!("{q}/{d}/{b}").as_bytes());
            }
        }
    }
    format!("{h:016x}")
}

/// The digest committed for `--seed 1` of `workload`.
pub fn expected_digest(workload: Workload) -> &'static str {
    match workload {
        Workload::CotRepeat => include_str!("../expected/cot_repeat.seed1.digest"),
        Workload::ExtractUnique => include_str!("../expected/extract_unique.seed1.digest"),
        Workload::ChatStream => include_str!("../expected/chat_stream.seed1.digest"),
        Workload::ReactTools => include_str!("../expected/react_tools.seed1.digest"),
    }
    .trim()
}
