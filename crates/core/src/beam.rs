//! Scripted beam search (§4): beam search jointly over holes *and* query
//! control flow.
//!
//! Each beam owns a full VM snapshot, so different beams may take
//! different control-flow paths (e.g. a ReAct beam that decodes `Act`
//! branches into the lookup arm while a `Tho` beam does not). Discarded
//! beams are pruned and never extended further.

use crate::constraints::Masker;
use crate::debug::StopReason;
use crate::decode::{DecodeOptions, HoleState, StepPlan, StepScratch};
use crate::interp::{Externals, Step, VmState};
use crate::stream::{QueryEvent, StreamSink};
use crate::{Error, Program, Result, Value};
use lmql_lm::LanguageModel;
use lmql_tokenizer::{Bpe, TokenId, TokenSet};
use std::sync::Arc;

/// Safety cap on beam-search iterations (tokens per beam across the whole
/// query).
const MAX_TOTAL_STEPS: usize = 100_000;

#[derive(Debug, Clone)]
struct Beam {
    vm: VmState,
    /// Hole currently being decoded; `None` once the VM has finished.
    hole: Option<(String, HoleState)>,
    /// Cumulative log-probability of all chosen tokens.
    log_prob: f64,
    /// Streaming hypothesis id: stable for this beam's lifetime; forks
    /// mint fresh ids for every clone but the first.
    path: u32,
    /// This step's admissible-token count (taken only under an active
    /// sink) and EOS flag, for the picked token's stream event.
    step: (usize, bool),
}

/// A beam's fate for one search step, decided before any scoring so the
/// step's forward passes can go out as one batch.
#[derive(Debug)]
enum Planned {
    /// Already finished; carried through unchanged.
    Done(Beam),
    /// The shared decode step's plan for a live beam (a dead end is
    /// pruned while planning and never gets here).
    Live(Beam, StepPlan),
}

/// A finished beam: its VM (trace, scope, hole records) and score.
#[derive(Debug, Clone)]
pub(crate) struct FinishedBeam {
    /// The completed execution.
    pub(crate) vm: VmState,
    /// Cumulative log-probability.
    pub(crate) log_prob: f64,
    /// The streaming hypothesis id this beam's events were tagged with.
    pub(crate) path: u32,
}

/// Runs scripted beam search with `n` beams over a compiled program.
///
/// Returns up to `n` finished executions, best first.
///
/// # Errors
///
/// Fails when every beam dies on constraint dead ends, or on evaluation
/// errors inside the query body.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_beam_search<L: LanguageModel + ?Sized>(
    lm: &L,
    bpe: &Arc<Bpe>,
    masker: &mut Masker,
    program: &Program,
    externals: &Externals,
    bindings: &[(String, Value)],
    n: usize,
    options: &DecodeOptions,
) -> Result<Vec<FinishedBeam>> {
    assert!(n >= 1, "beam width must be at least 1");
    if program.distribute.is_some() {
        return Err(Error::compile(
            "distribute clauses are not supported with beam decoding; use argmax or sample",
            lmql_syntax::Span::default(),
        ));
    }

    let tracer = options.tracer.clone();
    let sink = &options.sink;
    let vocab = bpe.vocab();
    let mut init = Beam {
        vm: VmState::new(bindings.iter().cloned()),
        hole: None,
        log_prob: 0.0,
        path: sink.path(),
        step: (0, false),
    };
    advance(&mut init, program, externals, bpe, sink)?;
    let mut beams = vec![init];
    // Fresh hypothesis ids for forked beams, starting past the root.
    let mut next_path: u32 = sink.path() + 1;
    // Per-search scratch, as `decode_hole` keeps per hole: the step's
    // mask and n-gram block, and the renormalised distribution.
    let mut step = StepScratch::new(vocab, options);
    let mut dist = lmql_lm::Distribution::empty();

    for _ in 0..MAX_TOTAL_STEPS {
        if beams.iter().all(|b| b.hole.is_none()) {
            break;
        }
        if sink.cancelled() {
            return Err(Error::Cancelled);
        }
        // Pass 1: compute every live beam's mask and plan its step, so
        // all contexts that need scores this step are known up front
        // (with their masks, in the same order).
        let mut planned: Vec<Planned> = Vec::with_capacity(beams.len());
        let mut masks: Vec<TokenSet> = Vec::new();
        for mut beam in beams.drain(..) {
            let Some((var, hole)) = &beam.hole else {
                planned.push(Planned::Done(beam));
                continue;
            };
            let where_clause = program.where_clause.as_ref();
            let outcome = masker.compute(where_clause, beam.vm.scope(), var, &hole.value);
            let plan = step.plan(masker, &outcome, hole.tokens, &hole.context, options);
            beam.step = (sink.mask_size(&outcome.allowed), outcome.eos_allowed);
            masker.recycle(outcome);
            match plan {
                StepPlan::DeadEnd => {
                    tracer.instant_with("beam", "prune", || {
                        vec![("reason".to_owned(), "dead_end".into())]
                    });
                    sink.emit(QueryEvent::BeamPrune { path: beam.path });
                    continue;
                }
                StepPlan::Score => masks.push(masker.pooled_copy(&step.mask)),
                StepPlan::Stop(_) | StepPlan::Forced(_) => {}
            }
            planned.push(Planned::Live(beam, plan));
        }

        // One batched forward pass covers the whole step — through a
        // batching backend this is a single dispatch instead of one per
        // beam (and bit-identical either way: `try_score_batch` is the model's
        // one scoring primitive).
        let contexts: Vec<&[TokenId]> = planned
            .iter()
            .filter_map(|p| match p {
                Planned::Live(beam, StepPlan::Score) => {
                    beam.hole.as_ref().map(|(_, h)| &h.context[..])
                }
                _ => None,
            })
            .collect();
        let mut scored = {
            let mut span = tracer.span("batch", "dispatch");
            span.arg("contexts", contexts.len() as u64);
            lm.try_score_batch(&contexts).into_iter()
        };
        let mut masks = masks.into_iter();

        // Pass 2: expand in the original beam order.
        let mut candidates: Vec<Beam> = Vec::new();
        for plan in planned {
            match plan {
                Planned::Done(beam) => candidates.push(beam),
                Planned::Live(mut beam, StepPlan::Stop(stop)) => {
                    finish_hole(&mut beam, program, externals, bpe, sink, stop, None)?;
                    candidates.push(beam);
                }
                Planned::Live(_, StepPlan::DeadEnd) => {
                    unreachable!("dead ends are pruned while planning")
                }
                Planned::Live(mut beam, StepPlan::Forced(token)) => {
                    masker.note_fast_forward(1);
                    let (var, hole) = beam.hole.as_mut().expect("active beam has a hole");
                    let path_sink = sink.with_path(beam.path);
                    hole.append(&path_sink, vocab, var, token, 0.0, beam.step);
                    candidates.push(beam);
                }
                Planned::Live(beam, StepPlan::Score) => {
                    let mask = masks.next().expect("one mask per extending beam");
                    let logits = scored.next().expect("one score per extending beam")?;
                    logits.softmax_into(options.temperature, &mut dist);
                    let alive = dist.mask_in_place(&mask);
                    masker.recycle_mask(mask);
                    if !alive {
                        tracer.instant_with("beam", "prune", || {
                            vec![("reason".to_owned(), "numerically_dead".into())]
                        });
                        sink.emit(QueryEvent::BeamPrune { path: beam.path });
                        continue; // numerically dead: prune
                    }
                    let picks: Vec<(TokenId, f64)> = dist
                        .top_k(n)
                        .into_iter()
                        .filter(|(_, p)| *p > 0.0)
                        .collect();
                    // Path identity: the first pick continues the parent's
                    // path, every other pick is a fork with a fresh id.
                    // Forks are announced *before* the parent's token delta
                    // for this step, so a streamed child always inherits
                    // exactly the parent's pre-delta state.
                    let mut ids: Vec<u32> = Vec::with_capacity(picks.len());
                    for j in 0..picks.len() {
                        if j == 0 {
                            ids.push(beam.path);
                        } else {
                            let child = next_path;
                            next_path += 1;
                            ids.push(child);
                            sink.emit(QueryEvent::BeamFork {
                                parent: beam.path,
                                child,
                            });
                        }
                    }
                    for (&(t, p), &id) in picks.iter().zip(&ids) {
                        let mut b = beam.clone();
                        b.path = id;
                        b.log_prob += p.ln();
                        if t == vocab.eos() {
                            let eos_step = sink.is_active().then(|| (b.step.0, p.ln()));
                            finish_hole(
                                &mut b,
                                program,
                                externals,
                                bpe,
                                sink,
                                StopReason::Eos,
                                eos_step,
                            )?;
                        } else {
                            let (var, hole) = b.hole.as_mut().expect("active beam has a hole");
                            hole.append(&sink.with_path(id), vocab, var, t, p.ln(), b.step);
                        }
                        candidates.push(b);
                    }
                    if picks.len() > 1 {
                        let forks = picks.len() as u64;
                        tracer.instant_with("beam", "fork", || {
                            vec![("branches".to_owned(), forks.into())]
                        });
                    }
                }
            }
        }
        if candidates.is_empty() {
            return Err(Error::NoValidContinuation {
                var: "<beam search>".to_owned(),
            });
        }
        candidates.sort_by(|a, b| {
            b.log_prob
                .partial_cmp(&a.log_prob)
                .expect("log probs are never NaN")
        });
        if candidates.len() > n {
            let dropped = (candidates.len() - n) as u64;
            tracer.instant_with("beam", "prune", || {
                vec![
                    ("reason".to_owned(), "beam_width".into()),
                    ("dropped".to_owned(), dropped.into()),
                ]
            });
            for b in &candidates[n..] {
                sink.emit(QueryEvent::BeamPrune { path: b.path });
            }
        }
        candidates.truncate(n);
        beams = candidates;
    }

    let mut finished: Vec<FinishedBeam> = beams
        .into_iter()
        .filter(|b| b.hole.is_none())
        .map(|b| FinishedBeam {
            vm: b.vm,
            log_prob: b.log_prob,
            path: b.path,
        })
        .collect();
    if finished.is_empty() {
        return Err(Error::NoValidContinuation {
            var: "<beam search>".to_owned(),
        });
    }
    finished.sort_by(|a, b| {
        b.log_prob
            .partial_cmp(&a.log_prob)
            .expect("log probs are never NaN")
    });
    Ok(finished)
}

/// Completes the current hole with its accumulated value and runs the VM
/// to the next hole (or completion). Emits the hole's `VariableDone`
/// (score = the beam's cumulative log-prob) before the value lands in the
/// trace, so a streamed hypothesis is always value-complete before its
/// next prompt chunk.
fn finish_hole(
    beam: &mut Beam,
    program: &Program,
    externals: &Externals,
    bpe: &Arc<Bpe>,
    sink: &StreamSink,
    stopped_by: StopReason,
    eos_step: Option<(usize, f64)>,
) -> Result<()> {
    let (var, hole) = beam
        .hole
        .take()
        .expect("finish_hole without an active hole");
    sink.with_path(beam.path)
        .variable_done(&var, &hole.value, beam.log_prob, stopped_by, eos_step);
    beam.vm.provide_hole(hole.value);
    advance(beam, program, externals, bpe, sink)
}

/// Runs the VM until the next hole or completion, re-encoding the token
/// context to cover the template text the VM just emitted. Template text
/// appended by this run streams out as a `PromptChunk` for this beam.
fn advance(
    beam: &mut Beam,
    program: &Program,
    externals: &Externals,
    bpe: &Arc<Bpe>,
    sink: &StreamSink,
) -> Result<()> {
    let before = beam.vm.trace().len();
    let step = beam.vm.run(program, externals)?;
    let path_sink = sink.with_path(beam.path);
    if path_sink.is_active() {
        // prompt_chunk drops empty text, so materialising only when a
        // sink listens leaves the event stream byte-identical.
        path_sink.prompt_chunk(&beam.vm.trace().suffix_string(before));
    }
    match step {
        Step::NeedHole(req) => {
            sink.with_path(beam.path).variable_start(&req.var);
            let context = bpe.encode(&beam.vm.trace().to_string());
            beam.hole = Some((
                req.var,
                HoleState {
                    context,
                    ..HoleState::default()
                },
            ));
        }
        Step::Done => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_source;
    use crate::constraints::MaskEngine;
    use lmql_lm::{Episode, ScriptedLm};

    #[test]
    fn beam_search_completes_simple_query() {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = ScriptedLm::new(Arc::clone(&bpe), [Episode::plain("Say:", " hi there")]);
        let program = compile_source(
            "beam(n=2)\n    \"Say:[OUT]\"\nfrom \"m\"\nwhere stops_at(OUT, \"there\")\n",
        )
        .unwrap();
        let mut masker = Masker::new(MaskEngine::Exact, bpe.clone());
        let beams = run_beam_search(
            &lm,
            &bpe,
            &mut masker,
            &program,
            &Externals::new(),
            &[],
            2,
            &DecodeOptions::default(),
        )
        .unwrap();
        assert!(!beams.is_empty());
        assert_eq!(beams[0].vm.trace(), "Say: hi there");
        // Best beam first.
        for w in beams.windows(2) {
            assert!(w[0].log_prob >= w[1].log_prob);
        }
    }

    #[test]
    fn beams_diverge_across_control_flow() {
        let bpe = Arc::new(Bpe::char_level(""));
        // Two plausible MODE values: script prefers "b" but "a" stays in
        // the beam, and each takes a different branch.
        let lm = ScriptedLm::new(Arc::clone(&bpe), [Episode::plain("M:", "b")]);
        let program = compile_source(
            r#"
beam(n=2)
    "M:[MODE]"
    if MODE == "a":
        " took-a"
    else:
        " took-b"
from "m"
where MODE in ["a", "b"]
"#,
        )
        .unwrap();
        let mut masker = Masker::new(MaskEngine::Exact, bpe.clone());
        let beams = run_beam_search(
            &lm,
            &bpe,
            &mut masker,
            &program,
            &Externals::new(),
            &[],
            2,
            &DecodeOptions::default(),
        )
        .unwrap();
        let traces: Vec<String> = beams.iter().map(|b| b.vm.trace().to_string()).collect();
        assert!(traces[0].contains("took-b"), "script-preferred beam wins");
        assert!(
            traces.iter().any(|t| t.contains("took-a")),
            "the alternative beam survives with its own control flow: {traces:?}"
        );
    }

    #[test]
    fn distribute_with_beam_is_rejected() {
        let bpe = Arc::new(Bpe::char_level(""));
        let lm = ScriptedLm::new(Arc::clone(&bpe), [Episode::plain("x", "y")]);
        let program =
            compile_source("beam(n=2)\n    \"[X]\"\nfrom \"m\"\ndistribute X in [\"a\"]\n")
                .unwrap();
        let mut masker = Masker::new(MaskEngine::Exact, bpe.clone());
        let err = run_beam_search(
            &lm,
            &bpe,
            &mut masker,
            &program,
            &Externals::new(),
            &[],
            2,
            &DecodeOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("distribute"));
    }
}
