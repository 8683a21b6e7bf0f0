//! Integration tests for the query language surface: `while` loops and
//! f-string-style expression recalls.

use lmql::{FnTool, Runtime, Value};
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
fn while_loop_counts() {
    let rt = runtime(" x");
    let result = rt
        .run(
            r#"
argmax
    n = 0
    while n < 5:
        n = n + 1
    "n = {n}"
from "m"
"#,
        )
        .unwrap();
    assert_eq!(result.best().trace, "n = 5");
}

#[test]
fn while_with_break_and_continue() {
    let rt = runtime(" x");
    let result = rt
        .run(
            r#"
argmax
    out = []
    n = 0
    while True:
        n = n + 1
        if n == 2:
            continue
        if n > 4:
            break
        out.append(n)
    "{out}"
from "m"
"#,
        )
        .unwrap();
    assert_eq!(result.best().trace, "[1, 3, 4]");
}

#[test]
fn while_nested_in_for_with_breaks() {
    let rt = runtime(" x");
    let result = rt
        .run(
            r#"
argmax
    out = []
    for i in range(3):
        j = 0
        while j < 10:
            j = j + 1
            if j > i:
                break
        out.append(j)
    "{out}"
from "m"
"#,
        )
        .unwrap();
    // i=0: first increment already beats i. i=1: two increments. i=2: three.
    assert_eq!(result.best().trace, "[1, 2, 3]");
}

#[test]
fn while_condition_false_initially() {
    let rt = runtime(" x");
    let result = rt
        .run("argmax\n    while False:\n        \"never\"\n    \"done\"\nfrom \"m\"\n")
        .unwrap();
    assert_eq!(result.best().trace, "done");
}

#[test]
fn while_decoding_until_model_output_condition() {
    // A genuinely LMQL-ish use: keep decoding items until the model says
    // "done".
    let rt = runtime(" alpha\n beta\n done\n");
    let result = rt
        .run(
            r#"
argmax
    "P:"
    items = []
    word = ""
    while word != " done\n":
        "[WORD]"
        word = WORD
        items.append(WORD)
    "count: {len(items)}"
from "m"
where stops_at(WORD, "\n")
"#,
        )
        .unwrap();
    assert!(
        result.best().trace.ends_with("count: 3"),
        "{}",
        result.best().trace
    );
}

#[test]
fn expression_recalls_in_prompts() {
    let rt = runtime(" x");
    let result = rt
        .run(
            r#"
argmax
    xs = ["a", "b", "c"]
    for i in range(2):
        "line {i + 1}: {xs[i]}\n"
    "total {len(xs)} and {xs[1].upper()}"
from "m"
"#,
        )
        .unwrap();
    assert_eq!(result.best().trace, "line 1: a\nline 2: b\ntotal 3 and B");
}

#[test]
fn recall_expression_errors_are_compile_time() {
    let rt = runtime(" x");
    let err = rt
        .run("argmax\n    \"broken {1 +}\"\nfrom \"m\"\n")
        .unwrap_err();
    assert!(err.to_string().contains("invalid expression"), "{err}");
}

#[test]
fn recall_with_external_call() {
    let mut rt = runtime(" x");
    rt.register_tool(Arc::new(FnTool::new("util", "double", |args| {
        Ok(Value::Int(args[0].as_int().ok_or("int expected")? * 2))
    })));
    let result = rt
        .run("import util\nargmax\n    n = 21\n    \"answer: {util.double(n)}\"\nfrom \"m\"\n")
        .unwrap();
    assert_eq!(result.best().trace, "answer: 42");
}
