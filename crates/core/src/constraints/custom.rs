//! User-defined constraint operators (the paper's Appendix A.1):
//! "Users can easily extend LMQL with custom operators, by implementing a
//! simple class interface with forward, final and follow functions."
//!
//! A [`CustomOp`] participates in all three evaluation levels:
//!
//! - **forward** — concrete value-level evaluation,
//! - **final** — the FINAL annotation of the result (Table 1 style),
//! - **follow** — an optional token-set fast path for mask generation;
//!   when absent, the engines fall back to sound per-token evaluation of
//!   the operator (no pruning is lost, only speed).

use crate::constraints::{Fin, FinalValue};
use crate::Value;
use lmql_tokenizer::{TokenSet, TokenTrie, Vocabulary};
use std::collections::HashMap;
use std::sync::Arc;

/// The decoding situation a custom operator is evaluated in.
#[derive(Debug, Clone, Copy)]
pub struct OpCtx<'a> {
    /// Name of the hole currently being decoded.
    pub var: &'a str,
    /// The hole's (candidate) value.
    pub value: &'a str,
    /// `true` when the value is complete (EOS admissibility check).
    pub var_final: bool,
}

/// What a custom operator's FOLLOW fast path can see.
pub struct FollowView<'a> {
    /// The current (partial) value of the hole the operator constrains.
    pub value: &'a str,
    /// The model vocabulary.
    pub vocab: &'a Vocabulary,
    /// Prefix trie over the vocabulary.
    pub trie: &'a TokenTrie,
}

impl std::fmt::Debug for FollowView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FollowView")
            .field("value", &self.value)
            .finish_non_exhaustive()
    }
}

/// A user-defined constraint operator, callable from `where` clauses as
/// `name(args…)`.
///
/// # Example
///
/// ```
/// use lmql::constraints::{CustomOp, Fin, FinalValue, OpCtx};
/// use lmql::Value;
///
/// /// `uppercase(VAR)`: the value must be entirely uppercase.
/// struct Uppercase;
///
/// impl CustomOp for Uppercase {
///     fn forward(&self, args: &[Value], _ctx: &OpCtx<'_>) -> Result<Value, String> {
///         let s = args[0].as_str().ok_or("uppercase() expects a string")?;
///         Ok(Value::Bool(!s.chars().any(|c| c.is_lowercase())))
///     }
///
///     fn final_hint(&self, args: &[FinalValue], result: &Value, _ctx: &OpCtx<'_>) -> Fin {
///         // A lowercase character can never be removed from an
///         // append-only string: a violation is final.
///         match (args[0].fin, result) {
///             (Fin::Inc, Value::Bool(false)) => Fin::Fin,
///             (Fin::Fin, _) => Fin::Fin,
///             _ => Fin::Var,
///         }
///     }
/// }
/// ```
pub trait CustomOp: Send + Sync {
    /// Concrete evaluation with fully known arguments.
    ///
    /// # Errors
    ///
    /// During partial evaluation, errors degrade to *undetermined*
    /// (tolerated); in strict contexts they surface to the caller.
    fn forward(&self, args: &[Value], ctx: &OpCtx<'_>) -> Result<Value, String>;

    /// The FINAL annotation of `result` given the arguments' annotations.
    /// The default, `var`, is always sound (the value may still change),
    /// it just enables no pruning.
    fn final_hint(&self, args: &[FinalValue], result: &Value, ctx: &OpCtx<'_>) -> Fin {
        let _ = (args, result, ctx);
        Fin::Var
    }

    /// Optional FOLLOW fast path for calls of the shape
    /// `name(CURRENT_VAR)`: the set of next tokens that keep the
    /// constraint satisfiable. Return `None` (the default) to fall back
    /// to per-token FINAL evaluation.
    fn follow_allowed(&self, view: &FollowView<'_>) -> Option<TokenSet> {
        let _ = view;
        None
    }
}

/// A registry of custom operators, shared by a runtime and its maskers.
#[derive(Clone, Default)]
pub struct CustomOps {
    ops: HashMap<String, Arc<dyn CustomOp>>,
    /// Mask-memo tag: `0` for every empty registry (all empty registries
    /// are interchangeable), a process-unique value after any `register`.
    /// Clones keep the tag — two registries with equal generations hold
    /// identical operators, so memoized masks can be shared across them.
    generation: u64,
}

impl std::fmt::Debug for CustomOps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.ops.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("CustomOps").field("ops", &names).finish()
    }
}

impl CustomOps {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an operator under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name collides with a built-in function.
    pub fn register(&mut self, name: &str, op: Arc<dyn CustomOp>) {
        assert!(
            !crate::builtins::is_builtin(name),
            "`{name}` is a built-in function and cannot be overridden"
        );
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        self.generation = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.ops.insert(name.to_owned(), op);
    }

    /// The registry's mask-memo generation tag (see the field docs).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks up an operator.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn CustomOp>> {
        self.ops.get(name)
    }

    /// `true` if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.ops.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysTrue;
    impl CustomOp for AlwaysTrue {
        fn forward(&self, _args: &[Value], _ctx: &OpCtx<'_>) -> Result<Value, String> {
            Ok(Value::Bool(true))
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut ops = CustomOps::new();
        ops.register("always", Arc::new(AlwaysTrue));
        assert!(ops.contains("always"));
        assert!(!ops.contains("never"));
    }

    #[test]
    #[should_panic(expected = "built-in function")]
    fn builtin_collision_panics() {
        let mut ops = CustomOps::new();
        ops.register("words", Arc::new(AlwaysTrue));
    }
}
