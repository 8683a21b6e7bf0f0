//! Failure-injection tests: the runtime must surface — not mask — errors
//! from constraints, externals and dead-end decodings.

use lmql::{Error, FnTool, Runtime, Value};
use lmql_lm::{Episode, ScriptedLm};
use lmql_tokenizer::Bpe;
use std::sync::Arc;

fn runtime(script: &str) -> Runtime {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(
        Arc::clone(&bpe),
        [Episode::plain("P:", script)],
    ));
    Runtime::new(lm, bpe)
}

#[test]
fn unsatisfiable_constraints_are_reported() {
    let rt = runtime(" anything");
    let err = rt
        .run("argmax\n    \"P:[X]\"\nfrom \"m\"\nwhere X in [\"a\"] and X in [\"b\"]\n")
        .unwrap_err();
    assert!(matches!(err, Error::NoValidContinuation { ref var } if var == "X"));
}

#[test]
fn external_failure_propagates_with_context() {
    let mut rt = runtime(" 1+1=");
    rt.register_tool(Arc::new(FnTool::new("calc", "run", |_args| {
        Err::<Value, String>("arithmetic overflow".into())
    })));
    let err = rt
        .run(
            "import calc\nargmax\n    \"P:[E]\"\n    r = calc.run(E)\nfrom \"m\"\nwhere stops_at(E, \"=\")\n",
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("calc.run"), "{msg}");
    assert!(msg.contains("arithmetic overflow"), "{msg}");
}

#[test]
fn unregistered_external_is_an_error() {
    let rt = runtime(" x");
    let err = rt
        .run("import nope\nargmax\n    r = nope.f(1)\nfrom \"m\"\n")
        .unwrap_err();
    assert!(err.to_string().contains("not registered"), "{err}");
}

#[test]
fn undefined_variable_in_prompt_is_an_error() {
    let rt = runtime(" x");
    let err = rt
        .run("argmax\n    \"value: {missing}\"\nfrom \"m\"\n")
        .unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");
}

#[test]
fn type_errors_carry_spans() {
    let rt = runtime(" x");
    let err = rt
        .run("argmax\n    y = 1 + \"s\"\nfrom \"m\"\n")
        .unwrap_err();
    let Error::Eval { span, .. } = err else {
        panic!("expected eval error, got {err}");
    };
    assert_eq!(span.start.line, 2);
}

#[test]
fn division_and_modulo_by_zero() {
    let rt = runtime(" x");
    for src in ["y = 1 / 0", "y = 1 % 0"] {
        let err = rt
            .run(&format!("argmax\n    {src}\nfrom \"m\"\n"))
            .unwrap_err();
        assert!(err.to_string().contains("zero"), "{src}: {err}");
    }
}

#[test]
fn index_out_of_range_is_an_error() {
    let rt = runtime(" x");
    let err = rt
        .run("argmax\n    xs = [1]\n    y = xs[5]\nfrom \"m\"\n")
        .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn iterating_non_iterable_is_an_error() {
    let rt = runtime(" x");
    let err = rt
        .run("argmax\n    for i in 5:\n        pass\nfrom \"m\"\n")
        .unwrap_err();
    assert!(err.to_string().contains("iterate"), "{err}");
}

#[test]
fn distribute_over_non_list_is_an_error() {
    let rt = runtime(" x");
    let err = rt
        .run("argmax\n    \"P:[X]\"\nfrom \"m\"\ndistribute X in 5\n")
        .unwrap_err();
    assert!(err.to_string().contains("must be a list"), "{err}");
}

#[test]
fn distribute_over_empty_support_is_an_error() {
    let rt = runtime(" x");
    let err = rt
        .run("argmax\n    \"P:[X]\"\nfrom \"m\"\ndistribute X in []\n")
        .unwrap_err();
    assert!(err.to_string().contains("empty"), "{err}");
}

#[test]
fn errors_inside_loops_point_at_the_statement() {
    let rt = runtime(" x");
    let err = rt
        .run("argmax\n    for i in range(3):\n        y = undefined_var\nfrom \"m\"\n")
        .unwrap_err();
    assert!(err.to_string().contains("undefined_var"), "{err}");
    let Error::Eval { span, .. } = err else {
        panic!()
    };
    assert_eq!(span.start.line, 3);
}

#[test]
fn string_iteration_is_supported_not_an_error() {
    // Python iterates strings by character; so do we.
    let rt = runtime(" x");
    let result = rt
        .run("argmax\n    out = []\n    for c in \"abc\":\n        out.append(c)\n    \"{out}\"\nfrom \"m\"\n")
        .unwrap();
    assert_eq!(result.best().trace, "['a', 'b', 'c']");
}
