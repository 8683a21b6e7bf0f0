//! Built-in functions (the paper's Fig. 8) and string/list methods.
//!
//! `words`, `sentences`, `len` and `int` also have FINAL/FOLLOW semantics in
//! the constraint engine (`constraints` module); the concrete evaluation
//! here is shared by the VM and by the constraint engine's value level.

use crate::{Error, Result, Value};
use lmql_syntax::Span;

/// Splits a string into words (whitespace-separated), the value-level
/// semantics of the `words` builtin.
pub fn words(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

/// Splits a string into sentences, the value-level semantics of the
/// `sentences` builtin. A sentence ends at `.`, `!` or `?` (kept), with
/// surrounding whitespace trimmed.
pub fn sentences(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        cur.push(c);
        if matches!(c, '.' | '!' | '?') {
            let t = cur.trim();
            if !t.is_empty() {
                out.push(t.to_owned());
            }
            cur.clear();
        }
    }
    let t = cur.trim();
    if !t.is_empty() {
        out.push(t.to_owned());
    }
    out
}

/// `len` over strings (character count) and lists (element count).
pub fn len_of(v: &Value, span: Span) -> Result<i64> {
    match v {
        Value::Str(s) => Ok(s.chars().count() as i64),
        Value::List(l) => Ok(l.len() as i64),
        other => Err(Error::eval(
            format!("len() is not defined for {}", other.type_name()),
            span,
        )),
    }
}

/// `true` if `s` is exactly a (signed) integer literal `-?[0-9]+` — the
/// predicate behind the `int(VAR)` constraint. Strict on purpose (no
/// surrounding whitespace), so the FOLLOW fast path and the FINAL rules
/// agree token-for-token.
pub fn is_int_string(s: &str) -> bool {
    let digits = s.strip_prefix('-').unwrap_or(s);
    !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit())
}

/// The built-in functions (callable in query bodies and `where`
/// clauses), each with its least and greatest argument count (the forms
/// of Tables 1 and 2; `range(n)` and `range(a, b)` as in Python).
pub const BUILTIN_FUNCTIONS: &[(&str, usize, usize)] = &[
    ("words", 1, 1),
    ("sentences", 1, 1),
    ("characters", 1, 1),
    ("len", 1, 1),
    ("int", 1, 1),
    ("str", 1, 1),
    ("range", 1, 2),
    ("stops_at", 2, 2),
];

/// Whether `name` is a built-in function.
pub fn is_builtin(name: &str) -> bool {
    BUILTIN_FUNCTIONS.iter().any(|&(n, ..)| n == name)
}

/// Rejects a call to the built-in `name` with the wrong number of
/// arguments as a compile error at the call's `span` (any other name
/// passes), so evaluation only ever sees the forms of Tables 1 and 2.
///
/// # Errors
///
/// Returns [`Error::Compile`] when `argc` is outside the built-in's
/// arity.
pub fn check_arity(name: &str, argc: usize, span: Span) -> Result<()> {
    match BUILTIN_FUNCTIONS.iter().find(|&&(n, ..)| n == name) {
        Some(&(_, min, max)) if !(min..=max).contains(&argc) => {
            let takes = if min == max {
                format!("{min}")
            } else {
                format!("{min} to {max}")
            };
            Err(Error::compile(
                format!("{name}() takes {takes} argument(s), got {argc}"),
                span,
            ))
        }
        _ => Ok(()),
    }
}

/// Calls a built-in function with concrete arguments (the VM's and the
/// constraint value level's shared implementation).
///
/// `stops_at` always evaluates to `True` at the value level: it is a
/// stopping condition, not a validity predicate (§3.1); its effect is
/// implemented by the decoder.
///
/// # Errors
///
/// Returns an evaluation error for arity or type mismatches.
pub fn call_builtin(name: &str, args: &[Value], span: Span) -> Result<Value> {
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(Error::eval(
                format!("{name}() takes {n} argument(s), got {}", args.len()),
                span,
            ))
        }
    };
    let str_arg = |i: usize| -> Result<&str> {
        args[i].as_str().ok_or_else(|| {
            Error::eval(
                format!("{name}() expects a string, got {}", args[i].type_name()),
                span,
            )
        })
    };

    match name {
        "words" => {
            arity(1)?;
            Ok(Value::List(
                words(str_arg(0)?).into_iter().map(Value::Str).collect(),
            ))
        }
        "sentences" => {
            arity(1)?;
            Ok(Value::List(
                sentences(str_arg(0)?).into_iter().map(Value::Str).collect(),
            ))
        }
        "characters" => {
            // Identity at the value level: `len(characters(s))` counts
            // characters because `len` over strings already does.
            arity(1)?;
            Ok(Value::Str(str_arg(0)?.to_owned()))
        }
        "len" => {
            arity(1)?;
            Ok(Value::Int(len_of(&args[0], span)?))
        }
        "int" => {
            arity(1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(Value::Int(*f as i64)),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| Error::eval(format!("int() cannot parse {s:?}"), span)),
                other => Err(Error::eval(
                    format!("int() is not defined for {}", other.type_name()),
                    span,
                )),
            }
        }
        "str" => {
            arity(1)?;
            Ok(Value::Str(args[0].to_prompt_string()))
        }
        "range" => match args {
            [Value::Int(n)] => Ok(Value::List((0..*n).map(Value::Int).collect())),
            [Value::Int(a), Value::Int(b)] => Ok(Value::List((*a..*b).map(Value::Int).collect())),
            _ => Err(Error::eval("range() expects 1 or 2 integers", span)),
        },
        "stops_at" => {
            arity(2)?;
            Ok(Value::Bool(true))
        }
        _ => Err(Error::eval(format!("unknown function `{name}`"), span)),
    }
}

/// Calls a non-mutating method on a value. Mutating methods (`append`)
/// are handled by the VM, which writes the updated value back to scope.
///
/// # Errors
///
/// Returns an evaluation error for unknown methods or type mismatches.
pub fn call_method(obj: &Value, name: &str, args: &[Value], span: Span) -> Result<Value> {
    let str_arg = |i: usize| -> Result<&str> {
        args.get(i)
            .and_then(Value::as_str)
            .ok_or_else(|| Error::eval(format!(".{name}() expects a string argument"), span))
    };
    match (obj, name) {
        (Value::Str(s), "split") => {
            let parts: Vec<Value> = if args.is_empty() {
                s.split_whitespace().map(Value::from).collect()
            } else {
                s.split(str_arg(0)?).map(Value::from).collect()
            };
            Ok(Value::List(parts))
        }
        (Value::Str(s), "strip") => Ok(Value::Str(s.trim().to_owned())),
        (Value::Str(s), "startswith") => Ok(Value::Bool(s.starts_with(str_arg(0)?))),
        (Value::Str(s), "endswith") => Ok(Value::Bool(s.ends_with(str_arg(0)?))),
        (Value::Str(s), "upper") => Ok(Value::Str(s.to_uppercase())),
        (Value::Str(s), "lower") => Ok(Value::Str(s.to_lowercase())),
        (Value::Str(s), "replace") => Ok(Value::Str(s.replace(str_arg(0)?, str_arg(1)?))),
        (Value::List(l), "index") => {
            let target = args
                .first()
                .ok_or_else(|| Error::eval(".index() expects one argument", span))?;
            l.iter()
                .position(|v| v.py_eq(target))
                .map(|i| Value::Int(i as i64))
                .ok_or_else(|| Error::eval("value not in list", span))
        }
        _ => Err(Error::eval(
            format!("unknown method `{}` on {}", name, obj.type_name()),
            span,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::default()
    }

    #[test]
    fn words_splits_whitespace() {
        assert_eq!(words("a  b\nc"), vec!["a", "b", "c"]);
        assert!(words("").is_empty());
    }

    #[test]
    fn sentences_keep_terminators() {
        assert_eq!(
            sentences("One. Two! Three? Four"),
            vec!["One.", "Two!", "Three?", "Four"]
        );
    }

    #[test]
    fn len_on_strings_and_lists() {
        assert_eq!(len_of(&Value::Str("abc".into()), sp()).unwrap(), 3);
        assert_eq!(len_of(&Value::List(vec![Value::Int(1)]), sp()).unwrap(), 1);
        assert!(len_of(&Value::Int(1), sp()).is_err());
    }

    #[test]
    fn int_string_predicate() {
        assert!(is_int_string("42"));
        assert!(is_int_string("-7"));
        assert!(
            !is_int_string(" -7 "),
            "predicate is strict about whitespace"
        );
        assert!(!is_int_string("4.2"));
        assert!(!is_int_string(""));
        assert!(!is_int_string("x1"));
    }

    #[test]
    fn builtin_range() {
        assert_eq!(
            call_builtin("range", &[Value::Int(3)], sp()).unwrap(),
            Value::List(vec![Value::Int(0), Value::Int(1), Value::Int(2)])
        );
        assert_eq!(
            call_builtin("range", &[Value::Int(2), Value::Int(4)], sp()).unwrap(),
            Value::List(vec![Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn builtin_int_parses() {
        assert_eq!(
            call_builtin("int", &[Value::Str("12".into())], sp()).unwrap(),
            Value::Int(12)
        );
        assert!(call_builtin("int", &[Value::Str("x".into())], sp()).is_err());
    }

    #[test]
    fn stops_at_is_true_at_value_level() {
        let v = call_builtin(
            "stops_at",
            &[Value::Str("a".into()), Value::Str("b".into())],
            sp(),
        )
        .unwrap();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn string_methods() {
        let s = Value::Str("a, b, c".into());
        let parts = call_method(&s, "split", &[Value::Str(", ".into())], sp()).unwrap();
        assert_eq!(parts, Value::List(vec!["a".into(), "b".into(), "c".into()]));
        assert_eq!(
            call_method(&Value::Str(" x ".into()), "strip", &[], sp()).unwrap(),
            Value::Str("x".into())
        );
        assert_eq!(
            call_method(&s, "endswith", &[Value::Str("c".into())], sp()).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn unknown_method_errors() {
        assert!(call_method(&Value::Int(1), "split", &[], sp()).is_err());
    }
}
