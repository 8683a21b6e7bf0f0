//! The paper's Alg. 3: *naive decoding with constraints* — generate
//! freely, validate only at sequence end, and backtrack on violation.
//!
//! §5 introduces this strawman to motivate eager masking: "navigating the
//! search space of sequences using backtracking is computationally
//! expensive … every token that is generated and later dismissed incurs a
//! significant computational or financial cost." This module implements it
//! faithfully (with a practical branching bound) so tests and benchmarks
//! can measure exactly that cost against [`decode_hole`](crate::decode_hole).

use crate::constraints::{eval_final, CustomOps, EvalCtx};
use crate::{Error, Result, Value};
use lmql_lm::LanguageModel;
use lmql_syntax::ast::Expr;
use lmql_tokenizer::Bpe;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration for the backtracking search.
#[derive(Debug, Clone)]
pub struct NaiveOptions {
    /// Softmax temperature.
    pub temperature: f64,
    /// Maximum value length in tokens (search depth).
    pub max_tokens: usize,
    /// How many highest-probability candidates to try per position before
    /// backtracking further (Alg. 3 tries the whole vocabulary; a bound
    /// keeps worst cases finite without changing the success cases).
    pub branching: usize,
    /// Hard budget on model queries; exceeded ⇒ failure.
    pub max_queries: usize,
}

impl Default for NaiveOptions {
    fn default() -> Self {
        NaiveOptions {
            temperature: 1.0,
            max_tokens: 48,
            branching: 8,
            max_queries: 20_000,
        }
    }
}

/// What the backtracking search produced.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveOutcome {
    /// The first constraint-satisfying value found (highest-probability
    /// first search order), if any.
    pub value: Option<String>,
    /// Model queries spent, including all backtracked branches.
    pub model_queries: usize,
    /// Number of backtracking steps taken.
    pub backtracks: usize,
}

/// Decodes a hole value by generate-then-check with backtracking (Alg. 3).
///
/// # Errors
///
/// Returns [`Error::NoValidContinuation`] only for malformed inputs; an
/// exhausted search or budget yields `Ok` with `value: None` so callers
/// can inspect the cost counters.
#[allow(clippy::too_many_arguments)]
pub fn decode_hole_naive<L: LanguageModel + ?Sized>(
    lm: &L,
    bpe: &Arc<Bpe>,
    where_expr: Option<&Expr>,
    scope: &HashMap<String, Value>,
    trace: &str,
    var: &str,
    options: &NaiveOptions,
) -> Result<NaiveOutcome> {
    let eos = bpe.vocab().eos();
    let custom = CustomOps::new();
    let check = |value: &str| -> bool {
        let Some(expr) = where_expr else { return true };
        let fv = eval_final(
            expr,
            &EvalCtx {
                scope,
                var,
                value,
                var_final: true,
                custom: Some(&custom),
            },
        );
        fv.truthy() != Some(false)
    };
    let stop_phrases: Vec<String> = where_expr
        .map(|e| crate::constraints::collect_stop_phrases(e, var))
        .unwrap_or_default();

    let mut queries = 0usize;
    let mut backtracks = 0usize;
    // DFS stack: the candidate tokens (best first) remaining at each depth.
    let mut value = String::new();
    let mut stack: Vec<Vec<lmql_tokenizer::TokenId>> = Vec::new();
    let mut lengths: Vec<usize> = Vec::new(); // value length before each depth

    loop {
        if queries >= options.max_queries {
            return Ok(NaiveOutcome {
                value: None,
                model_queries: queries,
                backtracks,
            });
        }

        // A stopping phrase ends the hole (check, else backtrack).
        let stopped = stop_phrases.iter().any(|s| value.ends_with(s.as_str()));
        if stopped && check(&value) {
            return Ok(NaiveOutcome {
                value: Some(value),
                model_queries: queries,
                backtracks,
            });
        }

        if !stopped && stack.len() < options.max_tokens {
            // Expand: query the model, order candidates by probability.
            let context = bpe.encode(&format!("{trace}{value}"));
            queries += 1;
            let dist = lm.score(&context).softmax(options.temperature);
            let candidates: Vec<lmql_tokenizer::TokenId> = dist
                .top_k(options.branching)
                .into_iter()
                .filter(|(_, p)| *p > 0.0)
                .map(|(t, _)| t)
                .rev() // pop() takes from the back: best last
                .collect();
            lengths.push(value.len());
            stack.push(candidates);
        }

        // Take the next candidate at the deepest open position. Before
        // applying a sibling candidate, the value is rewound to the
        // frame's base (undoing the previously tried token).
        loop {
            let Some(frame) = stack.last_mut() else {
                return Ok(NaiveOutcome {
                    value: None,
                    model_queries: queries,
                    backtracks,
                });
            };
            let base = *lengths.last().expect("stack and lengths move together");
            match frame.pop() {
                Some(t) if t == eos => {
                    // Sequence ends at this frame's base: validate it.
                    value.truncate(base);
                    if check(&value) {
                        return Ok(NaiveOutcome {
                            value: Some(value),
                            model_queries: queries,
                            backtracks,
                        });
                    }
                    backtracks += 1;
                    // try the next candidate at this depth
                }
                Some(t) => {
                    value.truncate(base);
                    value.push_str(bpe.vocab().token_str(t));
                    break;
                }
                None => {
                    // Exhausted this depth: undo and go up.
                    stack.pop();
                    lengths.pop();
                    value.truncate(base);
                    backtracks += 1;
                }
            }
        }
    }
}

/// Convenience wrapper when the constraint is known to be satisfiable:
/// unwraps the value or reports failure as an error.
#[allow(clippy::too_many_arguments)]
pub fn decode_hole_naive_strict<L: LanguageModel + ?Sized>(
    lm: &L,
    bpe: &Arc<Bpe>,
    where_expr: Option<&Expr>,
    scope: &HashMap<String, Value>,
    trace: &str,
    var: &str,
    options: &NaiveOptions,
) -> Result<(String, NaiveOutcome)> {
    let outcome = decode_hole_naive(lm, bpe, where_expr, scope, trace, var, options)?;
    match &outcome.value {
        Some(v) => Ok((v.clone(), outcome.clone())),
        None => Err(Error::NoValidContinuation {
            var: var.to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{MaskEngine, Masker};
    use crate::decode::{decode_hole, DecodeOptions, Pick};
    use lmql_lm::{Episode, MeteredLm, ScriptedLm, UsageMeter};
    use lmql_syntax::parse_expr;

    fn setup(script: &str) -> (Arc<Bpe>, ScriptedLm) {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = ScriptedLm::new(Arc::clone(&bpe), [Episode::plain("P:", script)]);
        (bpe, lm)
    }

    #[test]
    fn finds_unconstrained_script() {
        let (bpe, lm) = setup(" ok.");
        let e = parse_expr("stops_at(X, \".\")").unwrap();
        let out = decode_hole_naive(
            &lm,
            &bpe,
            Some(&e),
            &HashMap::new(),
            "P:",
            "X",
            &NaiveOptions::default(),
        )
        .unwrap();
        assert_eq!(out.value.as_deref(), Some(" ok."));
        assert_eq!(out.backtracks, 0);
    }

    #[test]
    fn backtracks_to_satisfy_membership() {
        // The model prefers " maybe" but only " no" is admissible; the
        // naive search must wander through thousands of dead branches to
        // find it (Alg. 3 iterates the whole vocabulary per position, so
        // the branching bound is lifted here).
        let (bpe, lm) = setup(" maybe");
        let e = parse_expr("X in [\" no\"]").unwrap();
        let out = decode_hole_naive(
            &lm,
            &bpe,
            Some(&e),
            &HashMap::new(),
            "P:",
            "X",
            &NaiveOptions {
                max_tokens: 4,
                branching: 200,
                max_queries: 500_000,
                ..NaiveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.value.as_deref(), Some(" no"));
        assert!(out.backtracks > 10, "expected backtracking: {out:?}");
        assert!(out.model_queries > 100, "expected many wasted queries");
    }

    #[test]
    fn masked_decoding_is_cheaper_than_naive() {
        // §5's motivating comparison, measured.
        let (bpe, lm) = setup(" maybe");
        let e = parse_expr("X in [\" no\"]").unwrap();
        let scope = HashMap::new();

        let naive = decode_hole_naive(
            &lm,
            &bpe,
            Some(&e),
            &scope,
            "P:",
            "X",
            &NaiveOptions {
                max_tokens: 4,
                branching: 200,
                max_queries: 500_000,
                ..NaiveOptions::default()
            },
        )
        .unwrap();

        let meter = UsageMeter::new();
        let metered = MeteredLm::new(&lm, meter.clone());
        let mut masker = Masker::new(MaskEngine::Symbolic, bpe.clone());
        let mut context = lmql_tokenizer::TokenContext::new();
        context.append(&bpe, "P:");
        let masked = decode_hole(
            &metered,
            &bpe,
            &mut masker,
            Some(&e),
            &scope,
            &mut context,
            "X",
            &mut Pick::argmax(),
            &DecodeOptions::default(),
        )
        .unwrap();

        assert_eq!(masked.value, " no");
        let masked_queries = meter.snapshot().model_queries as usize;
        assert!(
            masked_queries < naive.model_queries,
            "masked {masked_queries} vs naive {}",
            naive.model_queries
        );
    }

    #[test]
    fn budget_exhaustion_reports_cost() {
        let (bpe, lm) = setup(" rambling forever and ever");
        // Unsatisfiable: the value must equal something the model will
        // never produce and nothing stops the search early.
        let e = parse_expr("X == \"zzzzqqqq\"").unwrap();
        let out = decode_hole_naive(
            &lm,
            &bpe,
            Some(&e),
            &HashMap::new(),
            "P:",
            "X",
            &NaiveOptions {
                max_tokens: 4,
                max_queries: 300,
                ..NaiveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.value, None);
        assert!(out.model_queries > 0);
    }
}
