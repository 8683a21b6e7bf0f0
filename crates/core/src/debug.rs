//! Decoder introspection — a terminal rendition of the paper's
//! Appendix A.3 visual debugger: per decoding step, the mask size, EOS
//! admissibility and the picked token; per hole, why decoding stopped.
//!
//! The table is a fold over the query's event stream
//! ([`DebugTrace::from_events`]), the way
//! [`Reassembler`](crate::stream::Reassembler) rebuilds results: a
//! [`QueryEvent::TokenDelta`] carries its step's mask size and EOS flag,
//! a [`QueryEvent::VariableDone`] its [`StopReason`] (and the step of a
//! picked EOS, which has no delta). So a local sink, a served query and
//! the `EVENT` lines of a remote one all fold into the same table.

use crate::stream::{QueryEvent, SUBQUERY_PATH_BASE};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One decoding step of one hole (one row of the debugger's decoder
/// graph).
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    /// Admissible regular tokens after masking (before n-gram blocking).
    pub allowed: usize,
    /// Vocabulary size (for "k of N" display).
    pub vocab: usize,
    /// Whether EOS was admissible at this step.
    pub eos_allowed: bool,
    /// The picked token's text, or `None` when EOS was picked.
    pub picked: Option<String>,
    /// The picked token's masked (renormalised) probability.
    pub prob: f64,
}

/// Why a hole's decoding loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The model produced EOS.
    Eos,
    /// A `stops_at` phrase was completed.
    StopPhrase,
    /// Only EOS remained admissible.
    MaskExhausted,
    /// The per-hole token budget ran out.
    Budget,
    /// The hole was resolved by the `distribute` clause instead of
    /// token-by-token decoding.
    Distribution,
}

/// The decode history of one hole.
#[derive(Debug, Clone, PartialEq)]
pub struct HoleTrace {
    /// The hole variable.
    pub var: String,
    /// Final decoded value.
    pub value: String,
    /// Per-token decoding steps (empty for distribution holes).
    pub steps: Vec<StepTrace>,
    /// Why decoding ended.
    pub stopped_by: StopReason,
}

/// The decode history of a whole query run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DebugTrace {
    /// One entry per decoded hole, in the order holes finished.
    pub holes: Vec<HoleTrace>,
}

impl DebugTrace {
    /// Folds a query's event stream into its decode history; `vocab` is
    /// the model's vocabulary size (the "N" of each step's "k of N").
    ///
    /// Every hypothesis contributes its holes as they finish (`sample(n)`
    /// runs one after another; a `beam(n)` fork inherits its parent's
    /// steps so far). Nested `subquery(...)` runs are left out, and after
    /// an [`Error`](QueryEvent::Error) a further event (a served query's
    /// fail-over attempt, which restarts from the first event) starts
    /// the fold over.
    pub fn from_events<'a>(
        events: impl IntoIterator<Item = &'a QueryEvent>,
        vocab: usize,
    ) -> DebugTrace {
        let step = |allowed: usize, eos_allowed, picked, log_prob: f64| StepTrace {
            allowed,
            vocab,
            eos_allowed,
            picked,
            prob: log_prob.exp(),
        };
        let mut trace = DebugTrace::default();
        // The steps of each hypothesis' open hole.
        let mut open: BTreeMap<u32, Vec<StepTrace>> = BTreeMap::new();
        let mut failed = false;
        for event in events {
            if std::mem::take(&mut failed) {
                (trace, open) = Default::default();
            }
            match event {
                _ if event.path().is_some_and(|p| p >= SUBQUERY_PATH_BASE) => {}
                QueryEvent::VariableStart { path, .. } => {
                    open.insert(*path, Vec::new());
                }
                QueryEvent::TokenDelta {
                    path,
                    text,
                    log_prob,
                    allowed,
                    eos_allowed,
                    ..
                } => {
                    let picked = Some(text.clone());
                    let row = step(*allowed, *eos_allowed, picked, *log_prob);
                    open.entry(*path).or_default().push(row);
                }
                QueryEvent::VariableDone {
                    path,
                    var,
                    value,
                    stopped_by,
                    eos_step,
                    ..
                } => {
                    let mut steps = open.remove(path).unwrap_or_default();
                    if let Some((allowed, log_prob)) = eos_step {
                        steps.push(step(*allowed, true, None, *log_prob));
                    }
                    trace.holes.push(HoleTrace {
                        var: var.clone(),
                        value: value.clone(),
                        steps,
                        stopped_by: *stopped_by,
                    });
                }
                QueryEvent::BeamFork { parent, child } => {
                    if let Some(steps) = open.get(parent).cloned() {
                        open.insert(*child, steps);
                    }
                }
                QueryEvent::BeamPrune { path } => {
                    open.remove(path);
                }
                QueryEvent::Error { .. } => failed = true,
                _ => {}
            }
        }
        trace
    }

    /// Renders the trace as indented text, one block per hole:
    ///
    /// ```text
    /// [ANSWER] stopped by stop phrase, value " The capital."
    ///   step  1: mask 412/713  eos=yes  picked " The" (p=0.93)
    ///   …
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for h in &self.holes {
            let reason = match h.stopped_by {
                StopReason::Eos => "end-of-sequence",
                StopReason::StopPhrase => "stop phrase",
                StopReason::MaskExhausted => "mask exhausted (only EOS left)",
                StopReason::Budget => "token budget",
                StopReason::Distribution => "distribute clause",
            };
            let _ = writeln!(out, "[{}] stopped by {reason}, value {:?}", h.var, h.value);
            for (i, s) in h.steps.iter().enumerate() {
                let picked = match &s.picked {
                    Some(t) => format!("{t:?}"),
                    None => "<eos>".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "  step {:>3}: mask {:>4}/{}  eos={}  picked {picked} (p={:.3})",
                    i + 1,
                    s.allowed,
                    s.vocab,
                    if s.eos_allowed { "yes" } else { "no " },
                    s.prob
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(path: u32, text: &str, log_prob: f64) -> QueryEvent {
        QueryEvent::TokenDelta {
            path,
            var: "X".into(),
            text: text.into(),
            log_prob,
            allowed: 10,
            eos_allowed: true,
        }
    }

    fn done(path: u32, value: &str, stopped_by: StopReason) -> QueryEvent {
        QueryEvent::VariableDone {
            path,
            var: "X".into(),
            value: value.into(),
            score: 0.0,
            stopped_by,
            eos_step: (stopped_by == StopReason::Eos).then_some((4, 0.25f64.ln())),
        }
    }

    fn start(path: u32) -> QueryEvent {
        QueryEvent::VariableStart {
            path,
            var: "X".into(),
        }
    }

    #[test]
    fn render_shapes_output() {
        let trace = DebugTrace::from_events(
            &[
                start(0),
                delta(0, "hi.", 0.5f64.ln()),
                done(0, "hi.", StopReason::StopPhrase),
            ],
            100,
        );
        let text = trace.render();
        assert!(text.contains("[X] stopped by stop phrase"));
        assert!(text.contains("mask   10/100"));
        assert!(text.contains("p=0.500"));
    }

    #[test]
    fn eos_pick_is_the_last_row() {
        let trace = DebugTrace::from_events(
            &[start(0), delta(0, "a", 0.0), done(0, "a", StopReason::Eos)],
            9,
        );
        let steps = &trace.holes[0].steps;
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].prob, 1.0, "log-prob 0 renders as exactly 1");
        assert_eq!(
            (steps[1].allowed, steps[1].eos_allowed, &steps[1].picked),
            (4, true, &None)
        );
        assert!(trace.render().contains("picked <eos> (p=0.250)"));
    }

    #[test]
    fn forks_inherit_steps_and_subqueries_and_failed_attempts_drop_out() {
        let trace = DebugTrace::from_events(
            &[
                start(0),
                delta(0, "a", 0.0),
                QueryEvent::BeamFork {
                    parent: 0,
                    child: 1,
                },
                delta(0, "b", 0.0),
                delta(1, "c", 0.0),
                start(SUBQUERY_PATH_BASE),
                done(SUBQUERY_PATH_BASE, "", StopReason::Budget),
                done(0, "ab", StopReason::Budget),
                done(1, "ac", StopReason::Budget),
            ],
            9,
        );
        let values: Vec<_> = trace.holes.iter().map(|h| h.value.as_str()).collect();
        assert_eq!(values, ["ab", "ac"]);
        assert_eq!(trace.holes[1].steps.len(), 2);

        let retried = DebugTrace::from_events(
            &[
                start(0),
                done(0, "lost", StopReason::Budget),
                QueryEvent::Error {
                    message: "replica failed".into(),
                },
                start(0),
                done(0, "kept", StopReason::Budget),
            ],
            9,
        );
        assert_eq!(retried.holes.len(), 1);
        assert_eq!(retried.holes[0].value, "kept");
    }
}
