//! Cross-query cache of compiled constraint automata.
//!
//! Compilation (see the `lmql-automata` crate) is cheap but not free,
//! and — more importantly — the per-state mask store inside each
//! [`Automaton`] is the thing worth sharing: every state discovered by
//! one run warms all later runs of the same `(engine, vocabulary,
//! custom-op generation, expression, referenced scope values, hole)`
//! combination. The engine installs one [`AutomataCache`] into every
//! worker runtime, mirroring how [`MaskMemo`](super::MaskMemo) is
//! shared; a standalone [`Runtime`](crate::Runtime) lazily creates a
//! private one.
//!
//! Clauses that do not compile are cached too (as `None`), so the
//! fallback path pays the rejection walk once per clause, not once per
//! decode step.
//!
//! The cache is a bounded LRU ([`AutomataCache::CAPACITY`] entries,
//! rejections included): a server that shares it across every query it
//! ever serves must not retain an automaton per distinct clause for the
//! life of the process. An evicted clause simply recompiles — masks are
//! a pure function of the key, so the bits cannot change.

use crate::constraints::memo::fingerprint_expr;
use crate::Value;
use lmql_automata::{Automaton, ScopeResolver};
use lmql_syntax::ast::Expr;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Identity of a compiled automaton: everything its transition structure
/// and per-state masks are a pure function of. Fully `Copy`, so the
/// per-step lookup allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AutomatonKey {
    /// Engine discriminant — per-state masks are engine-computed, and
    /// Exact/Symbolic masks legitimately differ.
    pub engine: u8,
    /// Identity of the vocabulary object masked over.
    pub vocab: (usize, usize),
    /// Custom-operator registry generation: registering an op can turn a
    /// previously compilable clause into a rejected one.
    pub ops: u64,
    /// Structural hash of the `where` expression, spans ignored.
    pub expr: u64,
    /// Hash of the referenced scope variables' values.
    pub scope: u64,
    /// Hash of the hole variable name.
    pub var: u64,
}

impl AutomatonKey {
    pub(crate) fn new(
        engine: crate::constraints::MaskEngine,
        vocab: (usize, usize),
        ops_generation: u64,
        expr: &Expr,
        scope: &HashMap<String, Value>,
        var: &str,
    ) -> Self {
        let (expr_hash, scope_hash) = fingerprint_expr(expr, scope, var);
        let mut vh = DefaultHasher::new();
        var.hash(&mut vh);
        AutomatonKey {
            engine: match engine {
                crate::constraints::MaskEngine::Exact => 0,
                crate::constraints::MaskEngine::Symbolic => 1,
            },
            vocab,
            ops: ops_generation,
            expr: expr_hash,
            scope: scope_hash,
            var: vh.finish(),
        }
    }
}

/// Shareable, LRU-bounded cache of compiled automata (and of compile
/// rejections).
#[derive(Default)]
pub struct AutomataCache {
    inner: Mutex<CacheInner>,
}

#[derive(Default)]
struct CacheInner {
    /// Compiled automaton (`None`: known not to compile) and the tick of
    /// its last use.
    entries: HashMap<AutomatonKey, (Option<Arc<Automaton>>, u64)>,
    tick: u64,
}

impl AutomataCache {
    /// Entries kept before the least-recently-used one is evicted — the
    /// same bound as the engine's shared [`MaskMemo`](super::MaskMemo).
    pub const CAPACITY: usize = 1024;

    /// An empty cache, ready to share across runtimes via `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::new(AutomataCache::default())
    }

    /// Number of cached entries (compiled and rejected clauses both).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("automata cache poisoned")
            .entries
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, compiling via `build` on first sight. `None`
    /// means the clause is known not to compile. Compilation runs under
    /// the lock: it is microseconds, and holding the lock means
    /// concurrent runtimes never duplicate work.
    pub(crate) fn get_or_compile(
        &self,
        key: AutomatonKey,
        build: impl FnOnce() -> Option<Automaton>,
    ) -> Option<Arc<Automaton>> {
        let mut inner = self.inner.lock().expect("automata cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((slot, last_used)) = inner.entries.get_mut(&key) {
            *last_used = tick;
            return slot.clone();
        }
        if inner.entries.len() >= Self::CAPACITY {
            // Evict the least-recently-used entry. O(capacity) scan, as
            // in `MaskMemo`: a miss already pays a compilation.
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            {
                inner.entries.remove(&victim);
            }
        }
        let slot = build().map(Arc::new);
        inner.entries.insert(key, (slot.clone(), tick));
        slot
    }
}

impl std::fmt::Debug for AutomataCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutomataCache")
            .field("entries", &self.len())
            .finish()
    }
}

/// [`ScopeResolver`] over the runtime scope: previous holes and
/// bindings are fixed while the current hole decodes, so their values
/// are compile-time constants for the automaton.
pub(crate) struct ScopeValues<'a>(pub &'a HashMap<String, Value>);

impl ScopeResolver for ScopeValues<'_> {
    fn str_list(&self, name: &str) -> Option<Vec<String>> {
        match self.0.get(name)? {
            Value::List(items) => items
                .iter()
                .map(|v| v.as_str().map(str::to_owned))
                .collect(),
            _ => None,
        }
    }
}
