//! Case study 2 (§6.2): interactive ReAct prompting — the Table 5 upper
//! block and the Fig. 12 chunk-size sweep.

use crate::experiments::Stats;
use crate::queries;
use lmql::{Runtime, Value};
use lmql_baseline::programs::react as baseline_react;
use lmql_baseline::Generator;
use lmql_datasets::tools::WikiTool;
use lmql_datasets::wiki::MiniWiki;
use lmql_datasets::{hotpot, ModelProfile};
use lmql_lm::{corpus, Episode, ScriptedLm, UsageMeter};
use std::sync::Arc;

/// One ReAct comparison row.
#[derive(Debug, Clone)]
pub struct ReactRow {
    /// Baseline chunk size used.
    pub chunk_size: usize,
    /// Standard Decoding metrics.
    pub baseline: Stats,
    /// LMQL metrics.
    pub lmql: Stats,
}

/// Fig. 12: the baseline at each chunk size, and LMQL once (it does not
/// decode chunk-wise).
#[derive(Debug, Clone)]
pub struct Sweep {
    /// `(chunk size, Standard Decoding metrics)`, in sweep order.
    pub baseline: Vec<(usize, Stats)>,
    /// LMQL metrics.
    pub lmql: Stats,
}

/// Runs the ReAct experiment over `n` instances.
pub fn run(profile: &ModelProfile, n: usize, seed: u64, chunk_size: usize) -> ReactRow {
    ReactRow {
        chunk_size,
        baseline: run_baseline(profile, n, seed, chunk_size),
        lmql: run_lmql(profile, n, seed),
    }
}

/// The Fig. 12 sweep: the baseline at several chunk sizes, LMQL once.
pub fn sweep(profile: &ModelProfile, n: usize, seed: u64, chunk_sizes: &[usize]) -> Sweep {
    Sweep {
        baseline: chunk_sizes
            .iter()
            .map(|&c| (c, run_baseline(profile, n, seed, c)))
            .collect(),
        lmql: run_lmql(profile, n, seed),
    }
}

/// The `n` instances, each with the scripted model that answers it.
fn instances(
    profile: &ModelProfile,
    n: usize,
    seed: u64,
) -> Vec<(hotpot::Instance, Arc<ScriptedLm>)> {
    let bpe = corpus::standard_bpe();
    hotpot::generate(n, seed, profile)
        .into_iter()
        .map(|inst| {
            let episode = Episode::plain(format!("{}\n", inst.question), inst.script.clone());
            let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), [episode]));
            (inst, lm)
        })
        .collect()
}

/// Standard Decoding: the chunk-wise line interpreter.
fn run_baseline(profile: &ModelProfile, n: usize, seed: u64, chunk_size: usize) -> Stats {
    let wiki = MiniWiki::standard();
    let mut stats = Stats::default();
    for (inst, lm) in instances(profile, n, seed) {
        let meter = UsageMeter::new();
        let generator = Generator::new(lm, corpus::standard_bpe(), meter.clone());
        let out = baseline_react::run(
            &generator,
            &wiki,
            &baseline_react::ReactTask {
                few_shot: hotpot::FEW_SHOT,
                question: &inst.question,
                chunk_size,
                max_lines: 16,
            },
        );
        let correct = out.answer.as_deref().is_some_and(|a| inst.is_correct(a));
        stats.record(correct, meter.snapshot());
    }
    stats
}

/// LMQL: one decoder run with real lookups from the query body.
fn run_lmql(profile: &ModelProfile, n: usize, seed: u64) -> Stats {
    let wiki = MiniWiki::standard();
    let mut stats = Stats::default();
    for (inst, lm) in instances(profile, n, seed) {
        let mut rt = Runtime::new(lm, corpus::standard_bpe());
        rt.register_tool(Arc::new(WikiTool::new(wiki.clone())));
        rt.bind("FEWSHOT", Value::Str(hotpot::FEW_SHOT.into()));
        rt.bind("QUESTION", Value::Str(inst.question.clone()));
        let result = rt.run(queries::REACT).expect("query runs");
        let answer = result
            .best()
            .var_str("SUBJECT")
            .map(|s| s.trim_end_matches('\'').to_owned());
        let correct = answer.as_deref().is_some_and(|a| inst.is_correct(a));
        stats.record(correct, rt.meter().snapshot());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_datasets::GPT_J_PROFILE;

    #[test]
    fn react_shape_holds() {
        let row = run(&GPT_J_PROFILE, 5, 3, 30);
        // Both sides answer the two-hop questions correctly.
        assert_eq!(row.baseline.accuracy(), 1.0, "{:?}", row.baseline);
        assert_eq!(row.lmql.accuracy(), 1.0, "{:?}", row.lmql);
        // LMQL: a single decoder call (no distribute clause).
        assert!((row.lmql.avg_decoder_calls() - 1.0).abs() < 1e-9);
        // Structural savings.
        assert!(row.lmql.avg_decoder_calls() < row.baseline.avg_decoder_calls() / 3.0);
        assert!(row.lmql.avg_billable_tokens() < row.baseline.avg_billable_tokens() / 2.0);
        assert!(row.lmql.avg_model_queries() < row.baseline.avg_model_queries());
    }
}
