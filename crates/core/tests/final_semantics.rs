//! Property tests for the paper's Table 1: FINAL semantics (§5.1).
//!
//! [`eval_final`] evaluates a `where` clause on a partially decoded hole
//! value and annotates every result with how it can still change as
//! decoding appends text. Two properties pin those annotations against
//! plain value semantics ([`eval_expr`] on a complete value), for every
//! sub-expression of a random clause over the FINAL annotators:
//!
//! - **`fin` is final**: a `fin` verdict on partial value `v` equals the
//!   concrete value on every bounded extension `v·s` (`s` empty
//!   included). A rule that declares a verdict final too early — which
//!   would stop decoding early or prune a legal token — fails here.
//! - **`inc`/`dec` are monotone**: along every extension an `inc` value
//!   only grows (numbers up, strings and lists by appending) and a `dec`
//!   value only shrinks.
//!
//! `int(X)` is left out: as a constraint it means "parses as an integer"
//! (a boolean), while as a value it is the parsed integer, so the two
//! semantics do not share a value to compare.

use lmql::constraints::{eval_expr, eval_final, EvalCtx, Fin};
use lmql::{Externals, Value};
use lmql_syntax::ast::Expr;
use lmql_syntax::{format_expr, parse_expr};
use proptest::prelude::*;
use std::collections::HashMap;

/// The characters extensions are spelled from: letters, a word break, a
/// sentence break and a digit.
const ALPHABET: &[char] = &['a', 'b', ' ', '.', '1'];

/// Longest extension tried (every string over [`ALPHABET`] up to this
/// length: 156 extensions per value).
const EXTENSION_LEN: usize = 3;

fn extensions() -> Vec<String> {
    let mut all = vec![String::new()];
    let mut frontier = vec![String::new()];
    for _ in 0..EXTENSION_LEN {
        frontier = frontier
            .iter()
            .flat_map(|s| ALPHABET.iter().map(move |c| format!("{s}{c}")))
            .collect();
        all.extend(frontier.iter().cloned());
    }
    all
}

/// A numeric metric of the hole, possibly shifted or negated (negation
/// turns `inc` into `dec`).
fn metric_strategy() -> impl Strategy<Value = String> {
    let base = prop_oneof![
        Just("len(X)".to_owned()),
        Just("len(words(X))".to_owned()),
        Just("len(characters(X))".to_owned()),
        Just("len(sentences(X))".to_owned()),
    ];
    prop_oneof![
        base.clone(),
        (base.clone(), 0i64..3).prop_map(|(m, k)| format!("{m} + {k}")),
        (base.clone(), 0i64..3).prop_map(|(m, k)| format!("{m} - {k}")),
        base.prop_map(|m| format!("-{m}")),
    ]
}

/// One comparison leaf over the FINAL annotators.
fn leaf_strategy() -> impl Strategy<Value = String> {
    let op = proptest::sample::select(&["<", "<=", ">", ">=", "==", "!="]);
    prop_oneof![
        (metric_strategy(), op, -3i64..6).prop_map(|(m, op, k)| format!("{m} {op} {k}")),
        (metric_strategy(), op, -3i64..6).prop_map(|(m, op, k)| format!("{k} {op} {m}")),
        Just("X == \"ab\"".to_owned()),
        Just("X != \"a b\"".to_owned()),
        Just("X in [\"a\", \"ab\", \"a b\", \"1.\"]".to_owned()),
        Just("X not in [\"b\", \"a.\"]".to_owned()),
        Just("\"b\" in X".to_owned()),
        Just("\"a.\" not in X".to_owned()),
        Just("\"a b\" in X".to_owned()),
        Just("stops_at(X, \".\")".to_owned()),
    ]
}

/// A `where` clause: leaves under `not`/`and`/`or`, up to two levels.
fn clause_strategy() -> impl Strategy<Value = String> {
    leaf_strategy().prop_recursive(2, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| format!("not ({e})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) and ({b})")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("({a}) or ({b})")),
        ]
    })
}

/// A partial hole value over the extension alphabet.
fn value_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(ALPHABET), 0..=5)
        .prop_map(|cs| cs.into_iter().collect())
}

/// Every sub-expression of `e`, `e` included.
fn subexprs<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    out.push(e);
    match e {
        Expr::Call { args, .. } | Expr::List { items: args, .. } => {
            args.iter().for_each(|a| subexprs(a, out));
        }
        Expr::BinOp { left, right, .. } | Expr::Compare { left, right, .. } => {
            subexprs(left, out);
            subexprs(right, out);
        }
        Expr::BoolOp { operands, .. } => operands.iter().for_each(|o| subexprs(o, out)),
        Expr::Not { operand, .. } | Expr::Neg { operand, .. } => subexprs(operand, out),
        _ => {}
    }
}

/// Value semantics: `e` on the complete hole value `value`.
fn concrete(e: &Expr, value: &str) -> Option<Value> {
    let scope = HashMap::from([("X".to_owned(), Value::Str(value.to_owned()))]);
    eval_expr(e, &scope, &Externals::new()).ok()
}

/// Whether `later` is `earlier` grown: numbers up, strings by appending,
/// lists by length, booleans from false to true.
fn grew(earlier: &Value, later: &Value) -> bool {
    match (earlier, later) {
        (Value::Int(a), Value::Int(b)) => a <= b,
        (Value::Float(a), Value::Float(b)) => a <= b,
        (Value::Str(a), Value::Str(b)) => b.starts_with(a.as_str()),
        (Value::List(a), Value::List(b)) => a.len() <= b.len(),
        (Value::Bool(a), Value::Bool(b)) => !a || *b,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Table 1: `fin` verdicts are final, `inc`/`dec` values monotone.
    #[test]
    fn final_annotations_hold_on_every_extension(
        clause in clause_strategy(),
        value in value_strategy(),
    ) {
        let expr = parse_expr(&clause).unwrap();
        let mut nodes = Vec::new();
        subexprs(&expr, &mut nodes);
        let extensions = extensions();
        let scope = HashMap::new();
        let ctx = EvalCtx { scope: &scope, var: "X", value: &value, var_final: false, custom: None };
        for node in nodes {
            let shown = format_expr(node);
            let partial = eval_final(node, &ctx);
            let Some(now) = partial.value else { continue };
            for ext in &extensions {
                let full = format!("{value}{ext}");
                let Some(then) = concrete(node, &full) else { continue };
                match partial.fin {
                    Fin::Fin => prop_assert_eq!(
                        &then, &now,
                        "`{}` is fin on {:?} but differs on {:?} (clause {})",
                        shown, value, full, clause
                    ),
                    Fin::Inc => prop_assert!(
                        grew(&now, &then),
                        "`{}` is inc on {:?} = {:?} but {:?} on {:?} (clause {})",
                        shown, value, now, then, full, clause
                    ),
                    Fin::Dec => prop_assert!(
                        grew(&then, &now),
                        "`{}` is dec on {:?} = {:?} but {:?} on {:?} (clause {})",
                        shown, value, now, then, full, clause
                    ),
                    Fin::Var => {}
                }
            }
        }
    }
}
