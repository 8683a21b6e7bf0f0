//! Compiled constraint automata (SGLang-style compressed FSMs) for
//! LMQL `where` clauses.
//!
//! The FollowMap masker recomputes a vocabulary scan on every decode
//! step because the hole value grows every step. This crate removes the
//! per-step scan for the *eager* constraint subset: the clause is
//! compiled once per `(query, hole, scope, vocabulary)` into a product
//! of small character-level DFAs (the private `leaf` module) whose
//! joint state provably determines the constraint evaluator's entire
//! mask outcome. Per-step masking then becomes: advance the DFAs over
//! the value's characters and look the state up in a mask store. The
//! first visit to a state pays one FollowMap computation (performed by
//! the caller — the automaton never re-implements mask semantics, so
//! its masks are bit-identical to the fallback path *by construction*);
//! every later visit is a hash lookup. Interning collapses equivalent
//! states to one shared [`StateMask`].
//!
//! When a state's mask admits exactly one token and forbids EOS, the
//! decoder can *fast-forward*: append the forced token without querying
//! the language model (see `decode.rs` / `beam.rs` in the core crate).
//!
//! Compilation is best-effort: any unsupported leaf — custom operators,
//! non-literal needles, oversized option sets — yields
//! [`Unsupported`] and the caller keeps using the FollowMap path.

mod compile;
mod leaf;

pub use compile::reads_hole;

use lmql_syntax::ast::Expr;
use lmql_tokenizer::TokenSet;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Resolves scope variables the constraint references (previous hole
/// values and bindings — constant for the duration of one hole decode).
pub trait ScopeResolver {
    /// The variable's value as a list of strings, if it is one.
    fn str_list(&self, name: &str) -> Option<Vec<String>>;
}

/// Why a clause did not compile. Never an error condition — the caller
/// falls back to the FollowMap path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported {
    /// Human-readable reason, for metrics and tracing.
    pub reason: &'static str,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constraint does not compile: {}", self.reason)
    }
}

/// The mask outcome cached for one automaton state: which tokens keep
/// the constraint satisfiable, whether EOS is admissible, and whether a
/// stop phrase fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateMask {
    /// Tokens that may be appended.
    pub allowed: TokenSet,
    /// Whether the hole may end here.
    pub eos_allowed: bool,
    /// Whether a stop condition fired on the current value.
    pub must_stop: bool,
}

/// A compiled constraint clause: the leaf DFAs plus the per-state mask
/// store filled in lazily by the caller.
///
/// Thread-safe: the engine shares one automaton across worker runtimes,
/// so states discovered by one query warm all others.
pub struct Automaton {
    leaves: Vec<leaf::LeafDfa>,
    store: Mutex<MaskStore>,
}

#[derive(Default)]
struct MaskStore {
    /// Product state → interned mask.
    by_state: HashMap<Box<[u64]>, Arc<StateMask>>,
    /// Distinct masks, for interning: linear scan is fine because
    /// distinct masks are few (states collapse heavily).
    interned: Vec<Arc<StateMask>>,
}

/// Compiles the clause for hole variable `var`, or reports why it
/// cannot be compiled. `is_custom_op` must return `true` for every
/// registered custom operator name — custom operators observe the raw
/// value and always disqualify a leaf.
pub fn compile(
    expr: &Expr,
    var: &str,
    scope: &dyn ScopeResolver,
    is_custom_op: &dyn Fn(&str) -> bool,
) -> Result<Automaton, Unsupported> {
    let mut leaves = Vec::new();
    compile::compile_leaves(expr, var, scope, is_custom_op, &mut leaves)?;
    Ok(Automaton {
        leaves,
        store: Mutex::new(MaskStore::default()),
    })
}

impl Automaton {
    /// Computes the product state of `value`, writing one code per leaf
    /// into `key` (reused to keep the hot path allocation-free).
    pub fn state_of(&self, value: &str, key: &mut Vec<u64>) {
        key.clear();
        key.extend(self.leaves.iter().map(leaf::LeafDfa::start));
        for c in value.chars() {
            for (leaf, s) in self.leaves.iter().zip(key.iter_mut()) {
                *s = leaf.advance(*s, c);
            }
        }
    }

    /// The mask cached for a state, if this state was visited before.
    pub fn cached(&self, key: &[u64]) -> Option<Arc<StateMask>> {
        self.store.lock().unwrap().by_state.get(key).cloned()
    }

    /// Caches the mask computed for a state, interning equal masks.
    /// Returns the shared mask and whether the state was new.
    pub fn insert(&self, key: &[u64], mask: StateMask) -> (Arc<StateMask>, bool) {
        let mut store = self.store.lock().unwrap();
        if let Some(existing) = store.by_state.get(key) {
            return (Arc::clone(existing), false);
        }
        let shared = match store.interned.iter().find(|m| ***m == mask) {
            Some(m) => Arc::clone(m),
            None => {
                let m = Arc::new(mask);
                store.interned.push(Arc::clone(&m));
                m
            }
        };
        store
            .by_state
            .insert(key.to_vec().into_boxed_slice(), Arc::clone(&shared));
        (shared, true)
    }

    /// Number of leaf machines in the product.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of distinct states visited so far.
    pub fn state_count(&self) -> usize {
        self.store.lock().unwrap().by_state.len()
    }

    /// Number of distinct masks shared between those states.
    pub fn distinct_masks(&self) -> usize {
        self.store.lock().unwrap().interned.len()
    }
}

impl fmt::Debug for Automaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Automaton")
            .field("leaves", &self.leaves.len())
            .field("states", &self.state_count())
            .field("masks", &self.distinct_masks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_syntax::parse_expr;

    struct NoScope;
    impl ScopeResolver for NoScope {
        fn str_list(&self, _: &str) -> Option<Vec<String>> {
            None
        }
    }

    struct ListScope(&'static str, Vec<String>);
    impl ScopeResolver for ListScope {
        fn str_list(&self, name: &str) -> Option<Vec<String>> {
            (name == self.0).then(|| self.1.clone())
        }
    }

    fn compile_str(src: &str, var: &str) -> Result<Automaton, Unsupported> {
        let e = parse_expr(src).unwrap();
        compile(&e, var, &NoScope, &|_| false)
    }

    #[test]
    fn bench_constraint_compiles() {
        let aut = compile_str(
            "not \"\\n\" in X and stops_at(X, \".\") and len(words(X)) < 40",
            "X",
        )
        .unwrap();
        assert_eq!(aut.leaf_count(), 3);
        // The advancing workload's values all land in one state: no
        // newline seen, no partial ".", six words ending mid-word.
        let mut a = Vec::new();
        let mut b = Vec::new();
        aut.state_of("some reasoning text so far 1", &mut a);
        aut.state_of("some reasoning text so far 12345", &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn custom_ops_are_rejected() {
        let e = parse_expr("len(X) < 5 and my_op(X)").unwrap();
        let err = compile(&e, "X", &NoScope, &|n| n == "my_op").unwrap_err();
        assert_eq!(err.reason, "custom operator");
        // …even when the operator's arguments don't mention the hole:
        // custom operators receive the raw value through their context.
        let e = parse_expr("my_op(42)").unwrap();
        assert!(compile(&e, "X", &NoScope, &|n| n == "my_op").is_err());
    }

    #[test]
    fn scope_option_lists_resolve() {
        let e = parse_expr("X in options").unwrap();
        let scope = ListScope("options", vec!["ab".into(), "abc".into()]);
        let aut = compile(&e, "X", &scope, &|_| false).unwrap();
        let (mut ab, mut abx) = (Vec::new(), Vec::new());
        aut.state_of("ab", &mut ab);
        aut.state_of("abx", &mut abx);
        assert_ne!(ab, abx);
        // Unresolvable scope names do not compile.
        assert!(compile(&e, "X", &NoScope, &|_| false).is_err());
    }

    #[test]
    fn unsupported_leaves_reject_the_whole_clause() {
        for src in [
            "len(X) + 1 < 5",    // arithmetic on the metric
            "X",                 // bare truthiness
            "upper(X) == \"A\"", // value transformation
            "X in Y",            // unresolvable membership target
        ] {
            assert!(compile_str(src, "X").is_err(), "{src}");
        }
        // …but clauses that never read the variable are constants.
        assert!(compile_str("len(OTHER) < 5 and True", "X").is_ok());
    }

    #[test]
    fn masks_intern_across_states() {
        let aut = compile_str("stops_at(X, \"ab\")", "X").unwrap();
        let mut k1 = Vec::new();
        let mut k2 = Vec::new();
        aut.state_of("x", &mut k1);
        aut.state_of("xa", &mut k2);
        assert_ne!(k1, k2);
        let mask = StateMask {
            allowed: TokenSet::empty(4),
            eos_allowed: true,
            must_stop: false,
        };
        let (m1, new1) = aut.insert(&k1, mask.clone());
        let (m2, new2) = aut.insert(&k2, mask);
        assert!(new1 && new2);
        assert_eq!(aut.state_count(), 2);
        assert_eq!(aut.distinct_masks(), 1);
        assert!(Arc::ptr_eq(&m1, &m2));
        assert!(aut.cached(&k1).is_some());
        let mut k3 = Vec::new();
        aut.state_of("xab", &mut k3);
        assert_eq!(aut.cached(&k3), None);
    }
}
