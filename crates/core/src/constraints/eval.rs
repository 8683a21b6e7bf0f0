//! Partial evaluation of `where` clauses with FINAL semantics (Table 1),
//! plus a strict concrete evaluator for support expressions.

use crate::builtins::{call_builtin, call_method, is_int_string};
use crate::constraints::{Fin, FinalValue};
use crate::interp::Externals;
use crate::{Error, Result, Value};
use lmql_syntax::ast::{BinOp, CmpOp, Expr};
use std::collections::HashMap;

/// The evaluation context of one constraint check: the scope `σ`, the
/// currently decoding hole and its candidate value.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// Variable scope (previous holes and Python variables).
    pub scope: &'a HashMap<String, Value>,
    /// Name of the hole being decoded.
    pub var: &'a str,
    /// Candidate value of the hole (the partial value, possibly extended
    /// by a lookahead token).
    pub value: &'a str,
    /// `true` when evaluating at end-of-sequence: the hole value is
    /// complete, so its annotation is `fin` instead of `inc`.
    pub var_final: bool,
    /// User-defined constraint operators (Appendix A.1), if any.
    pub custom: Option<&'a crate::constraints::CustomOps>,
}

/// Evaluates `expr` under FINAL semantics.
///
/// Never fails validation spuriously: value-level errors on partial data
/// (e.g. an index that is not populated yet) degrade to *undetermined*
/// rather than propagating, which is sound (it only loses pruning power).
pub fn eval_final(expr: &Expr, ctx: &EvalCtx<'_>) -> FinalValue {
    match expr {
        Expr::Str { value, .. } => FinalValue::fin(Value::Str(value.clone())),
        Expr::Int { value, .. } => FinalValue::fin(Value::Int(*value)),
        Expr::Float { value, .. } => FinalValue::fin(Value::Float(*value)),
        Expr::Bool { value, .. } => FinalValue::fin(Value::Bool(*value)),
        Expr::None { .. } => FinalValue::fin(Value::None),
        Expr::Name { name, .. } => {
            if name == ctx.var {
                let v = Value::Str(ctx.value.to_owned());
                if ctx.var_final {
                    FinalValue::fin(v)
                } else {
                    FinalValue::inc(v)
                }
            } else if let Some(v) = ctx.scope.get(name) {
                // Within one decoding step, previous holes and Python
                // variables are fixed (Table 1: previous hole → fin).
                FinalValue::fin(v.clone())
            } else {
                // Future hole (Table 1: future hole → undetermined).
                FinalValue::undetermined()
            }
        }
        Expr::List { items, .. } => {
            let mut vals = Vec::with_capacity(items.len());
            let mut fin = Fin::Fin;
            for item in items {
                let fv = eval_final(item, ctx);
                let Some(v) = fv.value else {
                    return FinalValue::undetermined();
                };
                if !fv.fin.is_final() {
                    fin = Fin::Var;
                }
                vals.push(v);
            }
            FinalValue {
                value: Some(Value::List(vals)),
                fin,
            }
        }
        Expr::Call { func, args, span } => match func.as_ref() {
            Expr::Name { name, .. } => eval_builtin_final(name, args, ctx, *span),
            Expr::Attribute { obj, name, .. } => {
                let o = eval_final(obj, ctx);
                let mut argv = Vec::with_capacity(args.len());
                let mut fin = o.fin;
                for a in args {
                    let fv = eval_final(a, ctx);
                    if !fv.fin.is_final() {
                        fin = Fin::Var;
                    }
                    let Some(v) = fv.value else {
                        return FinalValue::undetermined();
                    };
                    argv.push(v);
                }
                let Some(ov) = o.value else {
                    return FinalValue::undetermined();
                };
                if !o.fin.is_final() {
                    fin = Fin::Var;
                }
                match call_method(&ov, name, &argv, *span) {
                    Ok(v) => FinalValue {
                        value: Some(v),
                        fin,
                    },
                    Err(_) => FinalValue::undetermined(),
                }
            }
            _ => FinalValue::undetermined(),
        },
        Expr::Attribute { .. } => FinalValue::undetermined(),
        Expr::Index { obj, index, span } => {
            let (o, i) = (eval_final(obj, ctx), eval_final(index, ctx));
            match (o.value, i.value) {
                (Some(ov), Some(iv)) => match crate::interp::compare_free_index(&ov, &iv, *span) {
                    Ok(v) => FinalValue {
                        value: Some(v),
                        fin: weakest(o.fin, i.fin),
                    },
                    Err(_) => FinalValue::undetermined(),
                },
                _ => FinalValue::undetermined(),
            }
        }
        Expr::Slice { obj, lo, hi, span } => {
            let o = eval_final(obj, ctx);
            let lo_v = match lo {
                None => None,
                Some(e) => match eval_final(e, ctx).value {
                    Some(v) => Some(v),
                    None => return FinalValue::undetermined(),
                },
            };
            let hi_v = match hi {
                None => None,
                Some(e) => match eval_final(e, ctx).value {
                    Some(v) => Some(v),
                    None => return FinalValue::undetermined(),
                },
            };
            match o.value {
                Some(ov) => match crate::interp::slice_free(&ov, lo_v, hi_v, *span) {
                    Ok(v) => FinalValue {
                        value: Some(v),
                        fin: if o.fin.is_final() { Fin::Fin } else { Fin::Var },
                    },
                    Err(_) => FinalValue::undetermined(),
                },
                None => FinalValue::undetermined(),
            }
        }
        Expr::BinOp {
            op,
            left,
            right,
            span,
        } => {
            let (l, r) = (eval_final(left, ctx), eval_final(right, ctx));
            match (&l.value, &r.value) {
                (Some(lv), Some(rv)) => match crate::interp::binop_values(*op, lv, rv, *span) {
                    Ok(v) => FinalValue {
                        value: Some(v),
                        fin: binop_fin(*op, l.fin, r.fin),
                    },
                    Err(_) => FinalValue::undetermined(),
                },
                _ => FinalValue::undetermined(),
            }
        }
        Expr::Compare {
            op,
            left,
            right,
            span,
        } => {
            let (l, r) = (eval_final(left, ctx), eval_final(right, ctx));
            compare_final(*op, &l, &r, *span)
        }
        Expr::BoolOp { and, operands, .. } => {
            let vals: Vec<FinalValue> = operands.iter().map(|o| eval_final(o, ctx)).collect();
            bool_fold_final(*and, &vals)
        }
        Expr::Not { operand, .. } => {
            let v = eval_final(operand, ctx);
            match v.truthy() {
                Some(b) => FinalValue {
                    value: Some(Value::Bool(!b)),
                    fin: if v.fin.is_final() { Fin::Fin } else { Fin::Var },
                },
                None => FinalValue::undetermined(),
            }
        }
        Expr::Neg { operand, .. } => {
            let v = eval_final(operand, ctx);
            let negated = match &v.value {
                Some(Value::Int(i)) => Some(Value::Int(-i)),
                Some(Value::Float(f)) => Some(Value::Float(-f)),
                _ => None,
            };
            match negated {
                Some(n) => FinalValue {
                    value: Some(n),
                    // Negation flips monotonicity.
                    fin: match v.fin {
                        Fin::Inc => Fin::Dec,
                        Fin::Dec => Fin::Inc,
                        other => other,
                    },
                },
                None => FinalValue::undetermined(),
            }
        }
    }
}

/// FINAL rules for the built-in functions (Table 1, left column).
fn eval_builtin_final(
    name: &str,
    args: &[Expr],
    ctx: &EvalCtx<'_>,
    span: lmql_syntax::Span,
) -> FinalValue {
    match name {
        // Table 1: words/sentences/len propagate the argument's annotation
        // (appending to a string can only add words/sentences/length).
        // `Runtime` rejects other arities at compile time
        // (`builtins::check_arity`); a bare expression evaluated with one
        // is undetermined rather than a panic.
        "words" | "sentences" | "characters" | "len" => {
            let [arg] = args else {
                return FinalValue::undetermined();
            };
            let a = eval_final(arg, ctx);
            let Some(av) = a.value else {
                return FinalValue::undetermined();
            };
            match call_builtin(name, &[av], span) {
                Ok(v) => FinalValue {
                    value: Some(v),
                    fin: a.fin,
                },
                Err(_) => FinalValue::undetermined(),
            }
        }
        // `int(VAR)` as a constraint: "the value parses as an integer".
        // While the value grows: a malformed prefix can never be repaired
        // by appending, so non-prefix-of-integer is FIN(⊥).
        "int" => {
            let [arg] = args else {
                return FinalValue::undetermined();
            };
            let a = eval_final(arg, ctx);
            let Some(av) = a.value else {
                return FinalValue::undetermined();
            };
            let Some(s) = av.as_str() else {
                // Numeric arguments are trivially integers.
                return FinalValue::fin(Value::Bool(matches!(av, Value::Int(_) | Value::Float(_))));
            };
            let ok = is_int_string(s);
            if a.fin.is_final() {
                FinalValue::fin(Value::Bool(ok))
            } else if ok {
                // Currently an integer; appending a digit keeps it one,
                // appending junk breaks it: not final.
                FinalValue::var(Value::Bool(true))
            } else if is_int_prefix(s) {
                FinalValue::var(Value::Bool(false))
            } else {
                FinalValue::fin(Value::Bool(false))
            }
        }
        // Stopping conditions never fail validation; the decoder gives
        // them their operational meaning (§3.1).
        "stops_at" => FinalValue::var(Value::Bool(true)),
        _ => {
            // Custom operators (Appendix A.1) take precedence over the
            // generic builtin path.
            if let Some(op) = ctx.custom.and_then(|c| c.get(name)) {
                let finals: Vec<FinalValue> = args.iter().map(|a| eval_final(a, ctx)).collect();
                let mut argv = Vec::with_capacity(finals.len());
                for fv in &finals {
                    let Some(v) = &fv.value else {
                        return FinalValue::undetermined();
                    };
                    argv.push(v.clone());
                }
                let op_ctx = crate::constraints::OpCtx {
                    var: ctx.var,
                    value: ctx.value,
                    var_final: ctx.var_final,
                };
                return match op.forward(&argv, &op_ctx) {
                    Ok(result) => {
                        let fin = if ctx.var_final {
                            Fin::Fin
                        } else {
                            op.final_hint(&finals, &result, &op_ctx)
                        };
                        FinalValue {
                            value: Some(result),
                            fin,
                        }
                    }
                    Err(_) => FinalValue::undetermined(),
                };
            }
            // Other builtins (str, range) evaluate concretely.
            let mut argv = Vec::with_capacity(args.len());
            let mut fin = Fin::Fin;
            for a in args {
                let fv = eval_final(a, ctx);
                if !fv.fin.is_final() {
                    fin = Fin::Var;
                }
                let Some(v) = fv.value else {
                    return FinalValue::undetermined();
                };
                argv.push(v);
            }
            match call_builtin(name, &argv, span) {
                Ok(v) => FinalValue {
                    value: Some(v),
                    fin,
                },
                Err(_) => FinalValue::undetermined(),
            }
        }
    }
}

/// `true` if `s` could still become an integer by appending characters
/// (a prefix of `-?[0-9]+`).
fn is_int_prefix(s: &str) -> bool {
    let digits = s.strip_prefix('-').unwrap_or(s);
    digits.chars().all(|c| c.is_ascii_digit())
}

fn weakest(a: Fin, b: Fin) -> Fin {
    if a.is_final() && b.is_final() {
        Fin::Fin
    } else {
        Fin::Var
    }
}

/// Monotonicity of arithmetic (Table 1 number rules, conservatively).
fn binop_fin(op: BinOp, l: Fin, r: Fin) -> Fin {
    match op {
        BinOp::Add => {
            if l.is_final() && r.is_final() {
                Fin::Fin
            } else if l.is_nondecreasing() && r.is_nondecreasing() {
                Fin::Inc
            } else if l.is_nonincreasing() && r.is_nonincreasing() {
                Fin::Dec
            } else {
                Fin::Var
            }
        }
        BinOp::Sub => {
            if l.is_final() && r.is_final() {
                Fin::Fin
            } else if l.is_nondecreasing() && r.is_nonincreasing() {
                Fin::Inc
            } else if l.is_nonincreasing() && r.is_nondecreasing() {
                Fin::Dec
            } else {
                Fin::Var
            }
        }
        _ => {
            if l.is_final() && r.is_final() {
                Fin::Fin
            } else {
                Fin::Var
            }
        }
    }
}

/// FINAL rules for comparisons (Table 1, right column).
fn compare_final(op: CmpOp, l: &FinalValue, r: &FinalValue, span: lmql_syntax::Span) -> FinalValue {
    let (Some(lv), Some(rv)) = (&l.value, &r.value) else {
        return FinalValue::undetermined();
    };
    let Ok(b) = crate::interp::compare_values(op, lv, rv, span) else {
        return FinalValue::undetermined();
    };
    let fin = match op {
        // x < y is FIN(⊤) when the gap can only widen, FIN(⊥) when the
        // violation can only widen.
        CmpOp::Lt | CmpOp::Le => {
            let holds_forever = b && l.fin.is_nonincreasing() && r.fin.is_nondecreasing();
            let fails_forever = !b && l.fin.is_nondecreasing() && r.fin.is_nonincreasing();
            if holds_forever || fails_forever {
                Fin::Fin
            } else {
                Fin::Var
            }
        }
        CmpOp::Gt | CmpOp::Ge => {
            let holds_forever = b && l.fin.is_nondecreasing() && r.fin.is_nonincreasing();
            let fails_forever = !b && l.fin.is_nonincreasing() && r.fin.is_nondecreasing();
            if holds_forever || fails_forever {
                Fin::Fin
            } else {
                Fin::Var
            }
        }
        CmpOp::Eq | CmpOp::Ne => {
            let eq_fin = match (lv, rv) {
                // String equality against an append-only string: once the
                // growing side stops being a prefix of the fixed side, it
                // can never become equal again.
                (Value::Str(a), Value::Str(bstr)) => {
                    if l.fin.is_final() && r.fin.is_final() {
                        Fin::Fin
                    } else if l.fin == Fin::Inc && r.fin.is_final() {
                        if bstr.starts_with(a.as_str()) {
                            Fin::Var
                        } else {
                            Fin::Fin // already diverged: never equal
                        }
                    } else if r.fin == Fin::Inc && l.fin.is_final() {
                        if a.starts_with(bstr.as_str()) {
                            Fin::Var
                        } else {
                            Fin::Fin
                        }
                    } else {
                        Fin::Var
                    }
                }
                _ => {
                    if l.fin.is_final() && r.fin.is_final() {
                        Fin::Fin
                    } else {
                        Fin::Var
                    }
                }
            };
            // A FIN verdict on equality is only usable when it cannot be
            // overturned: "equal now but still growing" stays VAR (handled
            // by `starts_with` above returning Var).
            eq_fin
        }
        // Negation preserves finality, so `in` and `not in` share rules.
        // Negation preserves finality, so `in` and `not in` share rules —
        // but `in_fin` reasons about *containment*, so `not in` must pass
        // the un-negated boolean.
        CmpOp::In | CmpOp::NotIn => {
            let contains = if op == CmpOp::NotIn { !b } else { b };
            in_fin(l, r, contains)
        }
    };
    FinalValue {
        value: Some(Value::Bool(b)),
        fin,
    }
}

/// FINAL annotation for `x in s` / `x in l` (Table 1 membership rules),
/// given the current boolean outcome `b` of `x in r`.
fn in_fin(l: &FinalValue, r: &FinalValue, b: bool) -> Fin {
    let (Some(lv), Some(rv)) = (&l.value, &r.value) else {
        return Fin::Var;
    };
    match (lv, rv) {
        // needle in haystack-string
        (Value::Str(needle), Value::Str(_hay)) => {
            if l.fin.is_final() && r.fin == Fin::Inc {
                // Fixed needle, growing haystack: containment persists.
                if b {
                    Fin::Fin
                } else {
                    Fin::Var
                }
            } else if l.fin == Fin::Inc && r.fin.is_final() {
                // Growing needle, fixed haystack: once not contained it
                // can never be contained again (appending only lengthens).
                if b {
                    Fin::Var
                } else {
                    Fin::Fin
                }
            } else if l.fin.is_final() && r.fin.is_final() {
                Fin::Fin
            } else {
                let _ = needle;
                Fin::Var
            }
        }
        // element in list
        (x, Value::List(items)) => {
            if l.fin.is_final() && r.fin.is_final() {
                Fin::Fin
            } else if l.fin == Fin::Inc && r.fin.is_final() {
                // Growing string vs fixed option list (Table 1's `e in l`):
                // FIN(⊥) once no option starts with the current value.
                if let Some(s) = x.as_str() {
                    let any_extension = items
                        .iter()
                        .any(|e| e.as_str().is_some_and(|es| es.starts_with(s)));
                    if b || any_extension {
                        Fin::Var
                    } else {
                        Fin::Fin
                    }
                } else {
                    Fin::Var
                }
            } else if l.fin.is_final() && r.fin == Fin::Inc {
                // Fixed element, growing list: membership persists.
                if b {
                    Fin::Fin
                } else {
                    Fin::Var
                }
            } else {
                Fin::Var
            }
        }
        _ => Fin::Var,
    }
}

/// FINAL rules for `and`/`or` (Table 1 bottom-right): definitive
/// short-circuiting over partial results.
fn bool_fold_final(and: bool, vals: &[FinalValue]) -> FinalValue {
    if and {
        if vals.iter().any(FinalValue::is_definitely_false) {
            return FinalValue::fin(Value::Bool(false));
        }
        if vals.iter().all(FinalValue::is_definitely_true) {
            return FinalValue::fin(Value::Bool(true));
        }
        // Value level: unknowns are tolerated (treated as not-yet-failing).
        let any_false = vals.iter().any(|v| v.truthy() == Some(false));
        FinalValue::var(Value::Bool(!any_false))
    } else {
        if vals.iter().any(FinalValue::is_definitely_true) {
            return FinalValue::fin(Value::Bool(true));
        }
        if vals.iter().all(FinalValue::is_definitely_false) {
            return FinalValue::fin(Value::Bool(false));
        }
        let any_true = vals.iter().any(|v| v.truthy() == Some(true));
        FinalValue::var(Value::Bool(any_true))
    }
}

/// Strict concrete evaluation of an expression against a scope (no hole in
/// flight) — used for `distribute` support expressions and by tests.
///
/// # Errors
///
/// Unlike [`eval_final`], errors propagate.
pub fn eval_expr(
    expr: &Expr,
    scope: &HashMap<String, Value>,
    externals: &Externals,
) -> Result<Value> {
    // Reuse the VM: compile the expression into a tiny program would be
    // overkill; instead evaluate recursively with strict semantics.
    match expr {
        Expr::Str { value, .. } => Ok(Value::Str(value.clone())),
        Expr::Int { value, .. } => Ok(Value::Int(*value)),
        Expr::Float { value, .. } => Ok(Value::Float(*value)),
        Expr::Bool { value, .. } => Ok(Value::Bool(*value)),
        Expr::None { .. } => Ok(Value::None),
        Expr::Name { name, span } => scope
            .get(name)
            .cloned()
            .ok_or_else(|| Error::eval(format!("undefined variable `{name}`"), *span)),
        Expr::List { items, .. } => Ok(Value::List(
            items
                .iter()
                .map(|i| eval_expr(i, scope, externals))
                .collect::<Result<_>>()?,
        )),
        Expr::Call { func, args, span } => {
            let argv: Vec<Value> = args
                .iter()
                .map(|a| eval_expr(a, scope, externals))
                .collect::<Result<_>>()?;
            match func.as_ref() {
                Expr::Name { name, .. } => call_builtin(name, &argv, *span),
                Expr::Attribute { obj, name, .. } => {
                    if let Expr::Name { name: module, .. } = obj.as_ref() {
                        if scope.get(module).is_none() {
                            // Try an external module call first.
                            if let Ok(v) = externals_call(externals, module, name, &argv) {
                                return Ok(v);
                            }
                        }
                    }
                    let o = eval_expr(obj, scope, externals)?;
                    call_method(&o, name, &argv, *span)
                }
                other => Err(Error::eval("invalid call target", other.span())),
            }
        }
        Expr::Attribute { span, .. } => Err(Error::eval("attribute access outside a call", *span)),
        Expr::Index { obj, index, span } => {
            let o = eval_expr(obj, scope, externals)?;
            let i = eval_expr(index, scope, externals)?;
            crate::interp::compare_free_index(&o, &i, *span)
        }
        Expr::Slice { obj, lo, hi, span } => {
            let o = eval_expr(obj, scope, externals)?;
            let lo = lo
                .as_ref()
                .map(|e| eval_expr(e, scope, externals))
                .transpose()?;
            let hi = hi
                .as_ref()
                .map(|e| eval_expr(e, scope, externals))
                .transpose()?;
            crate::interp::slice_free(&o, lo, hi, *span)
        }
        Expr::BinOp {
            op,
            left,
            right,
            span,
        } => {
            let l = eval_expr(left, scope, externals)?;
            let r = eval_expr(right, scope, externals)?;
            crate::interp::binop_values(*op, &l, &r, *span)
        }
        Expr::Compare {
            op,
            left,
            right,
            span,
        } => {
            let l = eval_expr(left, scope, externals)?;
            let r = eval_expr(right, scope, externals)?;
            Ok(Value::Bool(crate::interp::compare_values(
                *op, &l, &r, *span,
            )?))
        }
        Expr::BoolOp { and, operands, .. } => {
            let mut last = Value::Bool(*and);
            for o in operands {
                last = eval_expr(o, scope, externals)?;
                let decided = if *and { !last.truthy() } else { last.truthy() };
                if decided {
                    return Ok(last);
                }
            }
            Ok(last)
        }
        Expr::Not { operand, .. } => {
            Ok(Value::Bool(!eval_expr(operand, scope, externals)?.truthy()))
        }
        Expr::Neg { operand, span } => match eval_expr(operand, scope, externals)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(Error::eval(
                format!("cannot negate {}", other.type_name()),
                *span,
            )),
        },
    }
}

fn externals_call(
    externals: &Externals,
    module: &str,
    func: &str,
    args: &[Value],
) -> Result<Value> {
    externals.call_public(module, func, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_syntax::parse_expr;

    fn ctx<'a>(
        scope: &'a HashMap<String, Value>,
        var: &'a str,
        value: &'a str,
        var_final: bool,
    ) -> EvalCtx<'a> {
        EvalCtx {
            scope,
            var,
            value,
            var_final,
            custom: None,
        }
    }

    fn eval(src: &str, var: &str, value: &str, var_final: bool) -> FinalValue {
        let e = parse_expr(src).unwrap();
        let scope = HashMap::new();
        eval_final(&e, &ctx(&scope, var, value, var_final))
    }

    #[test]
    fn len_upper_bound_goes_fin_false() {
        // len(X) < 3 with X = "abcd": violated and len only grows.
        let fv = eval("len(X) < 3", "X", "abcd", false);
        assert!(fv.is_definitely_false());
        // Still satisfiable while short.
        let fv = eval("len(X) < 3", "X", "ab", false);
        assert_eq!(fv.truthy(), Some(true));
        assert!(!fv.fin.is_final());
    }

    #[test]
    fn len_lower_bound_goes_fin_true() {
        let fv = eval("len(X) > 2", "X", "abcd", false);
        assert!(fv.is_definitely_true());
        let fv = eval("len(X) > 2", "X", "a", false);
        assert_eq!(fv.truthy(), Some(false));
        assert!(!fv.fin.is_final());
    }

    #[test]
    fn words_count_propagates_inc() {
        let fv = eval("len(words(X)) < 3", "X", "one two three four", false);
        assert!(fv.is_definitely_false());
    }

    #[test]
    fn substring_presence_is_sticky() {
        // "q" in X: once present in a growing string, present forever.
        let fv = eval("\"q\" in X", "X", "a q b", false);
        assert!(fv.is_definitely_true());
        // not "q" in X is then FIN(⊥).
        let fv = eval("not \"q\" in X", "X", "a q b", false);
        assert!(fv.is_definitely_false());
        // Absence is not final while growing.
        let fv = eval("\"q\" in X", "X", "ab", false);
        assert_eq!(fv.truthy(), Some(false));
        assert!(!fv.fin.is_final());
    }

    #[test]
    fn list_membership_prunes_on_divergence() {
        let fv = eval("X in [\"Tho\", \"Act\"]", "X", "Th", false);
        assert_eq!(fv.truthy(), Some(false));
        assert!(!fv.fin.is_final(), "still extendable to Tho");
        let fv = eval("X in [\"Tho\", \"Act\"]", "X", "Thx", false);
        assert!(fv.is_definitely_false());
        // Exact match while still growing: true but not final.
        let fv = eval("X in [\"Tho\", \"Act\"]", "X", "Tho", false);
        assert_eq!(fv.truthy(), Some(true));
        assert!(!fv.fin.is_final());
        // At EOS it becomes final.
        let fv = eval("X in [\"Tho\", \"Act\"]", "X", "Tho", true);
        assert!(fv.is_definitely_true());
    }

    #[test]
    fn string_equality_diverges_finally() {
        let fv = eval("X == \"Search\"", "X", "Sea", false);
        assert_eq!(fv.truthy(), Some(false));
        assert!(!fv.fin.is_final());
        let fv = eval("X == \"Search\"", "X", "Sez", false);
        assert!(fv.is_definitely_false());
    }

    #[test]
    fn int_constraint_finality() {
        assert!(!eval("int(X)", "X", "12", false).is_definitely_false());
        assert!(eval("int(X)", "X", "1a", false).is_definitely_false());
        assert!(eval("int(X)", "X", "42", true).is_definitely_true());
        assert!(eval("int(X)", "X", "", true).is_definitely_false());
    }

    #[test]
    fn not_in_operator_finality() {
        // Containment in a growing string is sticky, so once the needle
        // appears, `not in` is definitively false…
        let fv = eval("\"q\" not in X", "X", "a q b", false);
        assert!(fv.is_definitely_false());
        // …but absence is NOT final while the value can still grow.
        let fv = eval("\"q\" not in X", "X", "ab", false);
        assert_eq!(fv.truthy(), Some(true));
        assert!(!fv.fin.is_final(), "premature FIN(true) would be unsound");
    }

    #[test]
    fn conjunction_short_circuits() {
        let fv = eval("len(X) < 2 and \"zz\" in X", "X", "abc", false);
        assert!(fv.is_definitely_false());
    }

    #[test]
    fn disjunction_short_circuits() {
        let fv = eval("len(X) > 1 or \"zz\" in X", "X", "abc", false);
        assert!(fv.is_definitely_true());
    }

    #[test]
    fn future_holes_are_undetermined() {
        let fv = eval("len(FUTURE) < 3", "X", "a", false);
        assert!(fv.is_undetermined());
        // …and conjunction with a definitive false still decides.
        let fv = eval("len(FUTURE) < 3 and len(X) < 1", "X", "ab", false);
        assert!(fv.is_definitely_false());
    }

    #[test]
    fn stops_at_never_fails_validation() {
        let fv = eval("stops_at(X, \".\")", "X", "anything", false);
        assert_eq!(fv.truthy(), Some(true));
        assert!(!fv.fin.is_final());
    }

    #[test]
    fn previous_holes_are_fixed() {
        let mut scope = HashMap::new();
        scope.insert("PREV".to_owned(), Value::Str("done".into()));
        let e = parse_expr("PREV == \"done\"").unwrap();
        let fv = eval_final(&e, &ctx(&scope, "X", "", false));
        assert!(fv.is_definitely_true());
    }

    #[test]
    fn eval_expr_strict() {
        let mut scope = HashMap::new();
        scope.insert("OPTIONS".to_owned(), Value::Str("a, b, c".into()));
        let e = parse_expr("OPTIONS.split(\", \")").unwrap();
        let v = eval_expr(&e, &scope, &Externals::new()).unwrap();
        assert_eq!(v, Value::List(vec!["a".into(), "b".into(), "c".into()]));
        let e = parse_expr("missing_var").unwrap();
        assert!(eval_expr(&e, &scope, &Externals::new()).is_err());
    }
}
