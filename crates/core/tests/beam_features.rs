//! Integration tests for scripted beam search (§4) through the public
//! runtime API.

use lmql::{FnTool, Runtime, Value};
use lmql_lm::{Branch, Episode, ScriptedLm, SCRIPT_LOGIT};
use lmql_tokenizer::Bpe;
use std::sync::Arc;

fn runtime(episodes: Vec<Episode>) -> Runtime {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
    Runtime::new(lm, bpe)
}

#[test]
fn beams_all_satisfy_constraints() {
    let rt = runtime(vec![Episode {
        trigger: "M:".to_owned(),
        script: "abc".to_owned(),
        digressions: vec![],
        branches: vec![Branch {
            at: 0,
            text: "abd".to_owned(),
            weight: SCRIPT_LOGIT - 0.5,
        }],
    }]);
    let result = rt
        .run("beam(n=3)\n    \"M:[X]\"\nfrom \"m\"\nwhere X in [\"abc\", \"abd\", \"zzz\"]\n")
        .unwrap();
    assert!(!result.runs.is_empty());
    assert!(result.runs.len() <= 3);
    for run in &result.runs {
        let v = run.var_str("X").unwrap();
        // Every surviving beam is a member of the allowed set — including
        // the low-probability "zzz" kept alive by beam diversity.
        assert!(
            ["abc", "abd", "zzz"].contains(&v),
            "constraint violated: {v:?}"
        );
    }
    // Best-first ordering with the script continuation winning.
    assert_eq!(result.best().var_str("X"), Some("abc"));
    assert_eq!(result.runs[1].var_str("X"), Some("abd"), "branch is second");
}

#[test]
fn beams_respect_stop_phrases() {
    let rt = runtime(vec![Episode::plain("S:", " one. two. three.")]);
    let result = rt
        .run("beam(n=2)\n    \"S:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n")
        .unwrap();
    // stops_at is a stopping condition, not a requirement: a beam may
    // also end at EOS before any period. But no beam ever runs past the
    // first period, and the best beam follows the script to it.
    for run in &result.runs {
        let v = run.var_str("X").unwrap();
        assert!(v.matches('.').count() <= 1, "ran past the stop: {v:?}");
        if let Some(pos) = v.find('.') {
            assert_eq!(pos, v.len() - 1, "text after the stop phrase: {v:?}");
        }
    }
    assert_eq!(result.best().var_str("X"), Some(" one."));
}

#[test]
fn beam_branches_run_different_externals() {
    // The two beams take different ACTION values, and each action calls
    // the external with a different argument — per-beam control flow with
    // side effects, the §4 scripted-beam-search scenario.
    let rt_builder = || {
        let mut rt = runtime(vec![Episode {
            trigger: "Act:".to_owned(),
            script: " go 'left'\n".to_owned(),
            digressions: vec![],
            branches: vec![Branch {
                at: 0,
                text: " go 'right'\n".to_owned(),
                weight: SCRIPT_LOGIT - 0.3,
            }],
        }]);
        rt.register_tool(Arc::new(FnTool::new("nav", "reward", |args| {
            let side = args[0].as_str().ok_or("expected str")?;
            Ok(Value::Str(format!(
                "reward-for-{}",
                side.trim_matches('\'')
            )))
        })));
        rt
    };
    let rt = rt_builder();
    let result = rt
        .run(
            r#"
import nav
beam(n=2)
    "Act: go '[SIDE]\n"
    r = nav.reward(SIDE[:-1])
    "outcome: {r}\n"
from "m"
where stops_at(SIDE, "'")
"#,
        )
        .unwrap();
    let traces: Vec<&str> = result.runs.iter().map(|r| r.trace.as_str()).collect();
    assert!(
        traces.iter().any(|t| t.contains("reward-for-left")),
        "{traces:?}"
    );
    assert!(
        traces.iter().any(|t| t.contains("reward-for-right")),
        "{traces:?}"
    );
}

#[test]
fn beam_n1_matches_argmax() {
    let query_beam = "beam(n=1)\n    \"P:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
    let query_argmax = "argmax\n    \"P:[X]\"\nfrom \"m\"\nwhere stops_at(X, \".\")\n";
    let rt = runtime(vec![Episode::plain("P:", " same answer. more")]);
    let beam = rt.run(query_beam).unwrap();
    let argmax = rt.run(query_argmax).unwrap();
    assert_eq!(beam.best().trace, argmax.best().trace);
}
