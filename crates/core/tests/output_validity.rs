//! Output validity over the decoders (§5: constrained decoding).
//!
//! Random multi-hole programs with eager-subset `where` clauses run under
//! `argmax`, `sample(n=2)` and `beam(n=2)`. For every returned run whose
//! holes all ended by EOS or a stop phrase, the whole clause must hold
//! under plain value semantics ([`eval_expr`]) over the run's final
//! scope. A hole that stopped on its token budget or because only EOS
//! remained admissible records why its value may fall short, and a run
//! may fail with `NoValidContinuation` when the mask dead-ends.
//!
//! `int(X)` is left out: as a constraint it means "parses as an integer",
//! as a value it is the parsed integer (see `final_semantics.rs`).

use lmql::constraints::eval_expr;
use lmql::{Error, Externals, QueryEvent, QueryRequest, Runtime, StopReason, StreamSink};
use lmql_lm::{corpus, Episode, ScriptedLm};
use proptest::prelude::*;
use proptest::sample::select;
use std::collections::HashMap;
use std::sync::Arc;

const HOLES: [&str; 3] = ["A", "B", "C"];

/// Eager-subset leaves over one hole, `{v}` standing for its name.
const LEAVES: &[&str] = &[
    "len({v}) < 12",
    "len({v}) > 2",
    "len(words({v})) < 3",
    "stops_at({v}, \".\")",
    "stops_at({v}, \"\\n\")",
    "not \"\\n\" in {v}",
    "not \"e\" in {v}",
    "\"s\" in {v}",
    "{v} in [\" passport\", \" phone\", \" keys\", \" pass\"]",
    "{v} == \" phone\"",
    "{v} not in [\" \", \" the\"]",
];

const DECODERS: &[&str] = &["argmax", "sample(n=2)", "beam(n=2)"];

/// What the model would say for a hole, unconstrained. Scripts the
/// clause rejects send it to aligned tokens, EOS or filler instead.
const SCRIPTS: &[&str] = &[
    " passport",
    " phone.",
    " sun hat\n",
    " keys and socks",
    " e",
    " pass",
    " the",
    " a very long list of things",
];

/// One hole's clause: a leaf, or two leaves joined by `and`/`or`.
fn hole_clause() -> impl Strategy<Value = [&'static str; 3]> {
    (
        select(LEAVES),
        select(&["", " and ", " or "]),
        select(LEAVES),
    )
        .prop_map(|(a, op, b)| [a, op, b])
}

/// A program over two or three holes, each constrained by its own
/// clause, and its whole `where` clause. Hole `i` follows the prompt
/// label `i:`, which the scripted model's episodes trigger on.
fn program_strategy() -> impl Strategy<Value = (String, String)> {
    (
        select(DECODERS),
        2usize..=3,
        proptest::collection::vec(hole_clause(), 3),
    )
        .prop_map(|(decoder, holes, clauses)| {
            let mut src = format!("{decoder}\n    \"A list of things not to forget:\\n\"\n");
            for (i, hole) in HOLES[..holes].iter().enumerate() {
                src.push_str(&format!("    \"{i}:[{hole}]\\n\"\n"));
            }
            let clause = HOLES[..holes]
                .iter()
                .zip(&clauses)
                .map(|(hole, [a, op, b])| {
                    let a = a.replace("{v}", hole);
                    if op.is_empty() {
                        a
                    } else {
                        format!("({a}{op}{})", b.replace("{v}", hole))
                    }
                })
                .collect::<Vec<_>>()
                .join(" and ");
            src.push_str(&format!("from \"m\"\nwhere {clause}\n"));
            (src, clause)
        })
}

/// Folds the event stream into one flag per returned run, best first:
/// whether any of the run's holes stopped on its budget or on an
/// EOS-only mask. Beam forks inherit their parent's flag.
fn excused_runs(events: &[QueryEvent]) -> Vec<bool> {
    let mut excused: HashMap<u32, bool> = HashMap::new();
    let mut ranking = Vec::new();
    for event in events {
        match event {
            QueryEvent::VariableDone {
                path, stopped_by, ..
            } => {
                *excused.entry(*path).or_default() |=
                    matches!(stopped_by, StopReason::Budget | StopReason::MaskExhausted);
            }
            QueryEvent::BeamFork { parent, child } => {
                let inherited = excused.get(parent).copied().unwrap_or_default();
                excused.insert(*child, inherited);
            }
            QueryEvent::Done { ranking: r } => ranking.clone_from(r),
            _ => {}
        }
    }
    ranking
        .iter()
        .map(|path| excused.get(path).copied().unwrap_or_default())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every run that completed without an excuse satisfies its clause.
    #[test]
    fn completed_runs_satisfy_their_where_clause(
        (source, clause) in program_strategy(),
        scripts in proptest::collection::vec(select(SCRIPTS), 3),
        seed in 0u64..1000,
    ) {
        let bpe = corpus::standard_bpe();
        let episodes = scripts
            .iter()
            .enumerate()
            .map(|(i, script)| Episode::plain(format!("{i}:"), *script));
        let rt = Runtime::new(Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes)), bpe);
        let (sink, collector) = StreamSink::collector();
        let request = QueryRequest::new(source.as_str())
            .max_tokens(16)
            .seed(seed)
            .stream(sink);
        let result = match rt.execute(&request) {
            Ok(result) => result,
            Err(Error::NoValidContinuation { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{source}: {e}"))),
        };
        let excused = excused_runs(&collector.events());
        prop_assert_eq!(excused.len(), result.runs.len(), "{}", source);
        let clause = lmql_syntax::parse_expr(&clause).unwrap();
        for (run, excused) in result.runs.iter().zip(excused) {
            if excused {
                continue;
            }
            let holds = eval_expr(&clause, &run.variables, &Externals::new())
                .map_err(|e| TestCaseError::fail(format!("{source}: {e}")))?;
            prop_assert!(
                holds.truthy(),
                "{} produced {:?}, which violates the clause",
                source,
                run.variables
            );
        }
    }
}
