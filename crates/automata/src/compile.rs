//! Compiler from the eager `where`-clause subset to leaf DFAs.
//!
//! The compiler mirrors the constraint evaluator's structural walk
//! (`BoolOp` / `Not` recursion, everything else a leaf) and maps each
//! leaf to a character-level machine from [`crate::leaf`]. A clause
//! compiles only when *every* leaf does; any unsupported shape — custom
//! operators above all — aborts compilation so the caller falls back to
//! the FollowMap path. Rejection is always safe: the automaton is a pure
//! accelerator, never a semantics change.

use crate::leaf::{CharTrie, Hay, Kmp, LeafDfa};
use crate::{ScopeResolver, Unsupported};
use lmql_syntax::ast::{CmpOp, Expr};

/// Walks the conjunctive/negation skeleton, compiling each leaf.
pub(crate) fn compile_leaves(
    expr: &Expr,
    var: &str,
    scope: &dyn ScopeResolver,
    is_custom_op: &dyn Fn(&str) -> bool,
    out: &mut Vec<LeafDfa>,
) -> Result<(), Unsupported> {
    match expr {
        Expr::BoolOp { operands, .. } => {
            for o in operands {
                compile_leaves(o, var, scope, is_custom_op, out)?;
            }
            Ok(())
        }
        Expr::Not { operand, .. } => compile_leaves(operand, var, scope, is_custom_op, out),
        leaf => {
            out.push(compile_leaf(leaf, var, scope, is_custom_op)?);
            Ok(())
        }
    }
}

fn compile_leaf(
    e: &Expr,
    var: &str,
    scope: &dyn ScopeResolver,
    is_custom_op: &dyn Fn(&str) -> bool,
) -> Result<LeafDfa, Unsupported> {
    // A leaf that never reads the hole evaluates identically for every
    // value: a single-state machine.
    if !reads_hole(e, var, is_custom_op) {
        return Ok(LeafDfa::Const);
    }
    // Custom operators observe the raw hole value, so their presence
    // anywhere in a hole-reading leaf disqualifies it.
    if any_node(e, &|n| is_custom_call(n, is_custom_op)) {
        return Err(Unsupported {
            reason: "custom operator",
        });
    }
    let is_var = |e: &Expr| matches!(e, Expr::Name { name, .. } if name == var);
    match e {
        Expr::Compare {
            op, left, right, ..
        } => {
            let (left, right) = (left.as_ref(), right.as_ref());
            // Length-metric bounds: `len(X) ⋈ n`, `len(words(X)) ⋈ n`,
            // also mirrored (`n ⋈ len(X)`). The bound side must be an
            // integer literal; the saturation cap `bound + 2` merges all
            // counts whose comparison outcome can no longer change.
            let metric_bound = match (len_metric_of(left, var), right) {
                (Some(m), Expr::Int { value, .. }) => Some((m, *value)),
                _ => match (left, len_metric_of(right, var)) {
                    (Expr::Int { value, .. }, Some(m)) => Some((m, *value)),
                    _ => None,
                },
            };
            if let Some((metric, bound)) = metric_bound {
                let cap = (bound.max(0) as u64).saturating_add(2);
                return Ok(match metric {
                    Metric::Chars => LeafDfa::CharLen { cap },
                    Metric::Words => LeafDfa::WordLen { cap },
                });
            }
            match op {
                CmpOp::In | CmpOp::NotIn if is_var(left) => {
                    if let Some(options) = const_str_list(right, var, scope) {
                        let trie = CharTrie::new(&options).ok_or(Unsupported {
                            reason: "option set too large",
                        })?;
                        Ok(LeafDfa::Options(trie))
                    } else if let Expr::Str { value: hay, .. } = right {
                        let hay = Hay::new(hay).ok_or(Unsupported {
                            reason: "haystack too long",
                        })?;
                        Ok(LeafDfa::Substring(hay))
                    } else {
                        Err(Unsupported {
                            reason: "membership target not a literal",
                        })
                    }
                }
                CmpOp::In | CmpOp::NotIn if is_var(right) => match left {
                    // Everything contains the empty needle: constant.
                    Expr::Str { value, .. } if value.is_empty() => Ok(LeafDfa::Const),
                    Expr::Str { value, .. } => Ok(LeafDfa::Needle(Kmp::new(value))),
                    _ => Err(Unsupported {
                        reason: "needle not a string literal",
                    }),
                },
                CmpOp::Eq | CmpOp::Ne => {
                    let other = if is_var(left) {
                        right
                    } else if is_var(right) {
                        left
                    } else {
                        return Err(Unsupported {
                            reason: "comparison too complex",
                        });
                    };
                    let Expr::Str { value, .. } = other else {
                        return Err(Unsupported {
                            reason: "equality target not a string literal",
                        });
                    };
                    let trie = CharTrie::new(&[value.as_str()]).ok_or(Unsupported {
                        reason: "equality target too long",
                    })?;
                    Ok(LeafDfa::Options(trie))
                }
                _ => Err(Unsupported {
                    reason: "comparison too complex",
                }),
            }
        }
        Expr::Call { func, args, .. } => {
            let Expr::Name { name, .. } = func.as_ref() else {
                return Err(Unsupported {
                    reason: "non-name call target",
                });
            };
            match name.as_str() {
                // `stops_at` never fails validation (its FINAL value is
                // always VAR(true)); its operational effect — the stop
                // check and containment masking — keys on the value's
                // suffix overlap with the phrase, i.e. the KMP state.
                // Only a literal second argument ever registers a stop
                // phrase, so every other shape is a constant.
                "stops_at" => match (args.first(), args.get(1), args.len()) {
                    (Some(a0), Some(Expr::Str { value, .. }), 2) if is_var(a0) => {
                        if value.is_empty() {
                            Ok(LeafDfa::Const)
                        } else {
                            Ok(LeafDfa::Stop(Kmp::new(value)))
                        }
                    }
                    _ => Ok(LeafDfa::Const),
                },
                "int" if args.len() == 1 && is_var(&args[0]) => Ok(LeafDfa::IntShape),
                _ => Err(Unsupported {
                    reason: "unsupported function on the hole variable",
                }),
            }
        }
        _ => Err(Unsupported {
            reason: "unsupported leaf shape",
        }),
    }
}

enum Metric {
    Chars,
    Words,
}

/// Matches `len(VAR)`, `len(characters(VAR))`, `len(words(VAR))` —
/// the same shapes the FollowMap length fast path recognises.
fn len_metric_of(e: &Expr, var: &str) -> Option<Metric> {
    let Expr::Call { func, args, .. } = e else {
        return None;
    };
    let Expr::Name { name, .. } = func.as_ref() else {
        return None;
    };
    if name != "len" {
        return None;
    }
    match args.first()? {
        Expr::Name { name, .. } if name == var => Some(Metric::Chars),
        Expr::Call { func, args, .. } => {
            let Expr::Name { name: inner, .. } = func.as_ref() else {
                return None;
            };
            let metric = match inner.as_str() {
                "characters" => Metric::Chars,
                "words" => Metric::Words,
                _ => return None,
            };
            match args.first()? {
                Expr::Name { name, .. } if name == var => Some(metric),
                _ => None,
            }
        }
        _ => None,
    }
}

/// A list of option strings that is constant while the hole decodes:
/// a literal list of string literals, or a scope variable holding a
/// list of strings (previous holes and bindings are fixed).
fn const_str_list(e: &Expr, var: &str, scope: &dyn ScopeResolver) -> Option<Vec<String>> {
    match e {
        Expr::List { items, .. } => items
            .iter()
            .map(|i| match i {
                Expr::Str { value, .. } => Some(value.clone()),
                _ => None,
            })
            .collect(),
        Expr::Name { name, .. } if name != var => scope.str_list(name),
        _ => None,
    }
}

/// `true` if evaluating `e` can observe the value of hole `var`: it
/// names `var` somewhere, or it calls a registered custom operator
/// (custom operators receive the raw hole value through their context,
/// whatever their arguments). An expression that reads no hole
/// evaluates identically for every value of `var` — the automaton
/// compiles it to a constant leaf and the FollowMap engine keeps its
/// current verdict for every token.
pub fn reads_hole(e: &Expr, var: &str, is_custom_op: &dyn Fn(&str) -> bool) -> bool {
    any_node(e, &|n| match n {
        Expr::Name { name, .. } => name == var,
        call => is_custom_call(call, is_custom_op),
    })
}

/// `true` for a call whose target is a registered custom operator.
fn is_custom_call(e: &Expr, is_custom_op: &dyn Fn(&str) -> bool) -> bool {
    matches!(e, Expr::Call { func, .. }
        if matches!(func.as_ref(), Expr::Name { name, .. } if is_custom_op(name)))
}

/// `true` if `pred` holds for `e` or any of its subexpressions.
fn any_node(e: &Expr, pred: &dyn Fn(&Expr) -> bool) -> bool {
    if pred(e) {
        return true;
    }
    let any = |es: &[Expr]| es.iter().any(|x| any_node(x, pred));
    match e {
        Expr::Str { .. }
        | Expr::Int { .. }
        | Expr::Float { .. }
        | Expr::Bool { .. }
        | Expr::None { .. }
        | Expr::Name { .. } => false,
        Expr::List { items, .. } => any(items),
        Expr::Call { func, args, .. } => any_node(func, pred) || any(args),
        Expr::Attribute { obj, .. } => any_node(obj, pred),
        Expr::Index { obj, index, .. } => any_node(obj, pred) || any_node(index, pred),
        Expr::Slice { obj, lo, hi, .. } => {
            any_node(obj, pred)
                || lo.as_ref().is_some_and(|x| any_node(x, pred))
                || hi.as_ref().is_some_and(|x| any_node(x, pred))
        }
        Expr::BinOp { left, right, .. } | Expr::Compare { left, right, .. } => {
            any_node(left, pred) || any_node(right, pred)
        }
        Expr::BoolOp { operands, .. } => any(operands),
        Expr::Not { operand, .. } | Expr::Neg { operand, .. } => any_node(operand, pred),
    }
}
