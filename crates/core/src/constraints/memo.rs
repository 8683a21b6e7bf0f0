//! Mask memoization: compute each `(where-expr, scope, var, value)` mask
//! exactly once.
//!
//! Mask generation is the dominant non-model cost of constrained
//! decoding: the Exact engine and the FollowMap generic leaf fallback pay
//! one FINAL evaluation per vocabulary entry per step. But the mask is a
//! pure function of its inputs — the constraint expression, the values of
//! the scope variables it references, the hole name and the partial
//! value — so re-steps of the same state (argmax retries, `sample(n)`
//! branches that haven't diverged yet, beams sharing a `(var, value)`
//! prefix, repeated queries through the engine's shared scheduler) can
//! reuse the first computation's [`MaskOutcome`] bit-for-bit.
//!
//! The memo key is a structural fingerprint:
//!
//! - `expr_hash` — a hash of the expression tree *ignoring spans*, so the
//!   same constraint text parsed twice (two queries through one engine)
//!   lands on the same entry;
//! - `scope_hash` — a hash of the values of every `Name` the expression
//!   references (other than the hole variable itself), hashed in
//!   traversal order; unrelated scope variables do not shrink reuse;
//! - the hole `var` and partial `value`, stored verbatim;
//! - tags for the engine, the vocabulary identity, and the custom-operator
//!   registry generation, so entries can never leak across
//!   configurations that would compute different bits.
//!
//! Invalidation is purely structural: there is no mutable state a mask
//! depends on (scan caches are themselves pure functions of the
//! vocabulary), so entries never go stale — they only get evicted by the
//! bounded LRU. Sharing one [`MaskMemo`] across maskers is sound exactly
//! when they mask over the same vocabulary object; the engine shares one
//! memo across its per-query runtimes, which all hold the same tokenizer.

use crate::constraints::mask::{MaskEngine, MaskOutcome};
use crate::Value;
use lmql_syntax::ast::Expr;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// The inputs a mask is a pure function of, fingerprinted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MaskKey {
    /// Engine discriminant (Exact vs Symbolic masks differ).
    pub engine: u8,
    /// Identity of the vocabulary object masked over.
    pub vocab: (usize, usize),
    /// Custom-operator registry generation (see `CustomOps::generation`).
    pub ops: u64,
    /// Structural hash of the `where` expression, spans ignored.
    pub expr: u64,
    /// Hash of the referenced scope variables' values.
    pub scope: u64,
    /// Hole variable name.
    pub var: String,
    /// Partial hole value.
    pub value: String,
}

impl MaskKey {
    pub(crate) fn new(
        engine: MaskEngine,
        vocab: (usize, usize),
        ops_generation: u64,
        expr: &Expr,
        scope: &HashMap<String, Value>,
        var: &str,
        value: &str,
    ) -> Self {
        let (expr_hash, scope_hash) = fingerprint_expr(expr, scope, var);
        MaskKey {
            engine: match engine {
                MaskEngine::Exact => 0,
                MaskEngine::Symbolic => 1,
            },
            vocab,
            ops: ops_generation,
            expr: expr_hash,
            scope: scope_hash,
            var: var.to_owned(),
            value: value.to_owned(),
        }
    }
}

/// Hashes the expression structurally (spans ignored) and, in the same
/// walk, hashes the current value of every scope variable it references.
/// Returns `(expr_hash, scope_hash)`.
///
/// Both walks are deterministic (AST traversal order), so equal
/// `(expr, scope|free-vars, var)` inputs always produce equal hashes.
pub(crate) fn fingerprint_expr(
    expr: &Expr,
    scope: &HashMap<String, Value>,
    var: &str,
) -> (u64, u64) {
    let mut eh = DefaultHasher::new();
    let mut sh = DefaultHasher::new();
    walk(expr, scope, var, &mut eh, &mut sh);
    (eh.finish(), sh.finish())
}

fn hash_value<H: Hasher>(v: &Value, h: &mut H) {
    match v {
        Value::None => 0u8.hash(h),
        Value::Bool(b) => {
            1u8.hash(h);
            b.hash(h);
        }
        Value::Int(i) => {
            2u8.hash(h);
            i.hash(h);
        }
        Value::Float(f) => {
            3u8.hash(h);
            f.to_bits().hash(h);
        }
        Value::Str(s) => {
            4u8.hash(h);
            s.hash(h);
        }
        Value::List(items) => {
            5u8.hash(h);
            items.len().hash(h);
            for it in items {
                hash_value(it, h);
            }
        }
    }
}

fn walk<H: Hasher>(expr: &Expr, scope: &HashMap<String, Value>, var: &str, eh: &mut H, sh: &mut H) {
    match expr {
        Expr::Str { value, .. } => {
            0u8.hash(eh);
            value.hash(eh);
        }
        Expr::Int { value, .. } => {
            1u8.hash(eh);
            value.hash(eh);
        }
        Expr::Float { value, .. } => {
            2u8.hash(eh);
            value.to_bits().hash(eh);
        }
        Expr::Bool { value, .. } => {
            3u8.hash(eh);
            value.hash(eh);
        }
        Expr::None { .. } => 4u8.hash(eh),
        Expr::Name { name, .. } => {
            5u8.hash(eh);
            name.hash(eh);
            // Scope dependency: the mask depends on this name's current
            // value (absent names — builtins, the hole itself — hash as
            // a constant tag, which is consistent across lookups).
            if name != var {
                name.hash(sh);
                match scope.get(name) {
                    Some(v) => {
                        1u8.hash(sh);
                        hash_value(v, sh);
                    }
                    None => 0u8.hash(sh),
                }
            }
        }
        Expr::List { items, .. } => {
            6u8.hash(eh);
            items.len().hash(eh);
            for it in items {
                walk(it, scope, var, eh, sh);
            }
        }
        Expr::Call { func, args, .. } => {
            7u8.hash(eh);
            walk(func, scope, var, eh, sh);
            args.len().hash(eh);
            for a in args {
                walk(a, scope, var, eh, sh);
            }
        }
        Expr::Attribute { obj, name, .. } => {
            8u8.hash(eh);
            walk(obj, scope, var, eh, sh);
            name.hash(eh);
        }
        Expr::Index { obj, index, .. } => {
            9u8.hash(eh);
            walk(obj, scope, var, eh, sh);
            walk(index, scope, var, eh, sh);
        }
        Expr::Slice { obj, lo, hi, .. } => {
            10u8.hash(eh);
            walk(obj, scope, var, eh, sh);
            lo.is_some().hash(eh);
            if let Some(lo) = lo {
                walk(lo, scope, var, eh, sh);
            }
            hi.is_some().hash(eh);
            if let Some(hi) = hi {
                walk(hi, scope, var, eh, sh);
            }
        }
        Expr::BinOp {
            op, left, right, ..
        } => {
            11u8.hash(eh);
            (*op as u8).hash(eh);
            walk(left, scope, var, eh, sh);
            walk(right, scope, var, eh, sh);
        }
        Expr::Compare {
            op, left, right, ..
        } => {
            12u8.hash(eh);
            (*op as u8).hash(eh);
            walk(left, scope, var, eh, sh);
            walk(right, scope, var, eh, sh);
        }
        Expr::BoolOp { and, operands, .. } => {
            13u8.hash(eh);
            and.hash(eh);
            operands.len().hash(eh);
            for o in operands {
                walk(o, scope, var, eh, sh);
            }
        }
        Expr::Not { operand, .. } => {
            14u8.hash(eh);
            walk(operand, scope, var, eh, sh);
        }
        Expr::Neg { operand, .. } => {
            15u8.hash(eh);
            walk(operand, scope, var, eh, sh);
        }
    }
}

/// A bounded, LRU-evicting memo of [`MaskOutcome`]s, shareable across
/// maskers (and threads) via `Arc`.
///
/// The engine installs one shared memo into every per-query runtime, so
/// concurrent queries over the same constraints reuse each other's masks;
/// a standalone [`Runtime`](crate::Runtime) owns a private one spanning
/// its runs (all `sample(n)` branches, every re-run of a compiled
/// program).
#[derive(Debug)]
pub struct MaskMemo {
    inner: Mutex<MemoInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct MemoInner {
    entries: HashMap<MaskKey, (MaskOutcome, u64)>,
    tick: u64,
}

impl MaskMemo {
    /// A memo holding at most `capacity` outcomes (minimum 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(MaskMemo {
            inner: Mutex::new(MemoInner::default()),
            capacity: capacity.max(1),
        })
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("mask memo poisoned").entries.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn get(&self, key: &MaskKey) -> Option<MaskOutcome> {
        let mut inner = self.inner.lock().expect("mask memo poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let (outcome, last_used) = inner.entries.get_mut(key)?;
        *last_used = tick;
        Some(outcome.clone())
    }

    pub(crate) fn insert(&self, key: MaskKey, outcome: MaskOutcome) {
        let mut inner = self.inner.lock().expect("mask memo poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if inner.entries.len() >= self.capacity && !inner.entries.contains_key(&key) {
            // Evict the least-recently-used entry. O(capacity) scan, but
            // eviction is rare and the capacity small; the scan is
            // trivial next to one O(|V|) mask computation.
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
            }
        }
        inner.entries.insert(key, (outcome, tick));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_syntax::parse_expr;
    use lmql_tokenizer::TokenSet;

    fn outcome(n: usize) -> MaskOutcome {
        MaskOutcome {
            allowed: TokenSet::full(n),
            eos_allowed: true,
            must_stop: false,
        }
    }

    fn key(expr: &Expr, scope: &HashMap<String, Value>, value: &str) -> MaskKey {
        MaskKey::new(
            MaskEngine::Symbolic,
            (0xABC, 10),
            0,
            expr,
            scope,
            "X",
            value,
        )
    }

    #[test]
    fn span_differences_do_not_split_entries() {
        let a = parse_expr("len(X) < 4 and \"b\" in X").unwrap();
        let b = parse_expr("  len(X)  <  4  and  \"b\"  in  X").unwrap();
        let scope = HashMap::new();
        assert_eq!(key(&a, &scope, "v"), key(&b, &scope, "v"));
    }

    #[test]
    fn referenced_scope_values_split_entries() {
        let e = parse_expr("X in options").unwrap();
        let mut scope = HashMap::new();
        scope.insert("options".to_owned(), Value::List(vec!["a".into()]));
        let k1 = key(&e, &scope, "");
        scope.insert("options".to_owned(), Value::List(vec!["b".into()]));
        let k2 = key(&e, &scope, "");
        assert_ne!(k1, k2, "changing a referenced list must miss");
        // An unreferenced variable changing does not split.
        scope.insert("unrelated".to_owned(), Value::Int(7));
        assert_eq!(k2, key(&e, &scope, ""));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let memo = MaskMemo::new(2);
        let e = parse_expr("len(X) < 4").unwrap();
        let scope = HashMap::new();
        let (k1, k2, k3) = (
            key(&e, &scope, "a"),
            key(&e, &scope, "b"),
            key(&e, &scope, "c"),
        );
        memo.insert(k1.clone(), outcome(4));
        memo.insert(k2.clone(), outcome(4));
        assert!(memo.get(&k1).is_some()); // refresh k1: k2 becomes LRU
        memo.insert(k3.clone(), outcome(4));
        assert_eq!(memo.len(), 2);
        assert!(memo.get(&k1).is_some());
        assert!(memo.get(&k2).is_none(), "LRU entry evicted");
        assert!(memo.get(&k3).is_some());
    }
}
