//! FOLLOW semantics (the paper's Table 2): symbolic computation of token
//! masks via FollowMaps.
//!
//! For the currently decoding hole `v` with partial value `u`, a FollowMap
//! approximates, per candidate next token `t`, the future value of a
//! constraint expression under `v ← u·t`. We represent the actionable part
//! of a FollowMap as two token sets per (sub)expression:
//!
//! - `definitely_false` — tokens for which the expression becomes `FIN(⊥)`,
//! - `definitely_true`  — tokens for which it becomes `FIN(⊤)`,
//!
//! and compose them case-wise through `and`/`or`/`not` exactly as the
//! recursive `Follow[·]` operator of §5.2 composes FollowMaps. A
//! subexpression (leaf or `and`/`or`/`not` subtree) that cannot observe
//! the hole — it names no `v` and calls no custom operator, see
//! [`lmql_automata::reads_hole`] — cannot change under `v ← u·t`, so its
//! FollowMap is its current verdict and no token is scanned for it. Leaf
//! expressions over `v` with a known shape (membership in a constant
//! list, substring constraints, string equality, length bounds, `int(…)`,
//! custom operators with a follow fast path) resolve to token sets
//! through the vocabulary prefix trie ("Subtokenization", §5.2). Only the
//! remaining leaves over `v` — `len(X) + 1 < 5`, `upper(X) == "A"`, a
//! bare `X`, custom operators without a fast path and the like — fall
//! back to per-token FINAL evaluation *of that leaf only*, counted by the
//! `mask.scan.tokens` metric.
//!
//! Soundness (Theorem 5.1): a token lands in `definitely_false` only if
//! FINAL evaluation under `v ← u·t` yields `FIN(⊥)`, so no token admitting
//! a legal continuation is ever masked. Property tests in
//! `tests/mask_soundness.rs` check this against brute force.

use crate::constraints::eval::{eval_final, EvalCtx};
use crate::Value;
use lmql_syntax::ast::{CmpOp, Expr};
use lmql_tokenizer::{TokenId, TokenSet, TokenTrie, Vocabulary};
use std::collections::HashMap;

/// The actionable projection of a FollowMap: which tokens force a
/// definitive verdict.
#[derive(Debug, Clone)]
pub(crate) struct FollowSets {
    /// Tokens making the expression `FIN(⊥)`.
    pub definitely_false: TokenSet,
    /// Tokens making the expression `FIN(⊤)`.
    pub definitely_true: TokenSet,
}

impl FollowSets {
    fn neutral(pool: &mut SetPool) -> Self {
        FollowSets {
            definitely_false: pool.take_empty(),
            definitely_true: pool.take_empty(),
        }
    }

    fn constant(pool: &mut SetPool, truth: bool) -> Self {
        let full = pool.take_full();
        let empty = pool.take_empty();
        if truth {
            FollowSets {
                definitely_false: empty,
                definitely_true: full,
            }
        } else {
            FollowSets {
                definitely_false: full,
                definitely_true: empty,
            }
        }
    }
}

/// A recycling pool of [`TokenSet`] scratch buffers over one vocabulary:
/// a typed wrapper over the generic bounded [`lmql_arena::Pool`].
///
/// FollowMap composition builds and discards several vocabulary-sized
/// bitsets per expression node per decoding step; the pool turns those
/// `empty()`/`full()` allocations into `clear()`/`fill()` reuses of
/// buffers retired by earlier steps.
#[derive(Debug)]
pub(crate) struct SetPool {
    len: usize,
    free: lmql_arena::Pool<TokenSet>,
}

impl SetPool {
    pub(crate) fn new(len: usize) -> Self {
        // The cap bounds memory at `DEFAULT_CAP · |V| / 8` bytes per
        // masker.
        SetPool {
            len,
            free: lmql_arena::Pool::new(),
        }
    }

    /// An empty set over the pool's vocabulary, reusing a retired buffer
    /// when one is available.
    pub(crate) fn take_empty(&mut self) -> TokenSet {
        match self.free.take() {
            Some(mut s) => {
                s.clear();
                s
            }
            None => TokenSet::empty(self.len),
        }
    }

    /// A full set over the pool's vocabulary.
    pub(crate) fn take_full(&mut self) -> TokenSet {
        let mut s = self.take_empty();
        s.fill();
        s
    }

    /// A copy of `other`, reusing a retired buffer when available.
    pub(crate) fn take_copy(&mut self, other: &TokenSet) -> TokenSet {
        let mut s = self.take_empty();
        s.fill_from(other);
        s
    }

    /// Retires a buffer for reuse. Sets over a different universe are
    /// dropped (they cannot be reused here).
    pub(crate) fn put(&mut self, s: TokenSet) {
        if s.universe_len() == self.len {
            self.free.put(s);
        }
    }

    /// Retires both sets of a [`FollowSets`].
    pub(crate) fn put_sets(&mut self, fs: FollowSets) {
        self.put(fs.definitely_false);
        self.put(fs.definitely_true);
    }
}

/// Calls `visit` with every regular token and its candidate value
/// `value·token`, built with a rolling truncate-then-push (no per-token
/// `String`). Returns the number of candidates visited, for the
/// `mask.scan.tokens` metric.
pub(crate) fn scan_vocab(
    vocab: &Vocabulary,
    value: &str,
    mut visit: impl FnMut(TokenId, &str),
) -> u64 {
    let mut candidate = String::with_capacity(value.len() + 24);
    candidate.push_str(value);
    let base = candidate.len();
    let mut scanned = 0;
    for (id, token) in vocab.regular_tokens() {
        candidate.truncate(base);
        candidate.push_str(token);
        visit(id, &candidate);
        scanned += 1;
    }
    scanned
}

/// Reusable vocabulary-scan caches; needle scans are O(|V|·|token|) and
/// identical across decoding steps, so they are computed once per query.
#[derive(Debug, Default)]
pub(crate) struct ScanCache {
    /// needle → tokens whose text contains the needle.
    contains: HashMap<String, TokenSet>,
    /// needle → tokens whose text contains the needle *not* as a suffix.
    contains_beyond: HashMap<String, TokenSet>,
    /// Tokens consisting only of ASCII digits.
    digit_only: Option<TokenSet>,
    /// Tokens that are an optional `-` followed by digits only.
    int_start: Option<TokenSet>,
    /// Per-token `(word_count, starts_with_non_whitespace)`.
    word_stats: Option<Vec<(u32, bool)>>,
    /// Per-token character count.
    char_lens: Option<Vec<u32>>,
}

impl ScanCache {
    pub(crate) fn tokens_containing(&mut self, vocab: &Vocabulary, needle: &str) -> &TokenSet {
        // Hit path allocates nothing (`entry` would clone the needle).
        if !self.contains.contains_key(needle) {
            let set = TokenSet::from_ids(
                vocab.len(),
                vocab
                    .regular_tokens()
                    .filter(|(_, s)| s.contains(needle))
                    .map(|(id, _)| id),
            );
            self.contains.insert(needle.to_owned(), set);
        }
        &self.contains[needle]
    }

    pub(crate) fn tokens_containing_beyond(
        &mut self,
        vocab: &Vocabulary,
        needle: &str,
    ) -> &TokenSet {
        if !self.contains_beyond.contains_key(needle) {
            let set = TokenSet::from_ids(
                vocab.len(),
                vocab
                    .regular_tokens()
                    .filter(|(_, s)| s.contains(needle) && !s.ends_with(needle))
                    .map(|(id, _)| id),
            );
            self.contains_beyond.insert(needle.to_owned(), set);
        }
        &self.contains_beyond[needle]
    }

    pub(crate) fn digit_only(&mut self, vocab: &Vocabulary) -> &TokenSet {
        self.digit_only.get_or_insert_with(|| {
            TokenSet::from_ids(
                vocab.len(),
                vocab
                    .regular_tokens()
                    .filter(|(_, s)| !s.is_empty() && s.chars().all(|c| c.is_ascii_digit()))
                    .map(|(id, _)| id),
            )
        })
    }

    pub(crate) fn word_stats(&mut self, vocab: &Vocabulary) -> &[(u32, bool)] {
        self.word_stats.get_or_insert_with(|| {
            vocab
                .ids()
                .map(|id| {
                    if vocab.is_special(id) {
                        return (0, false);
                    }
                    let s = vocab.token_str(id);
                    let count = s.split_whitespace().count() as u32;
                    let starts_nonws = s.chars().next().is_some_and(|c| !c.is_whitespace());
                    (count, starts_nonws)
                })
                .collect()
        })
    }

    pub(crate) fn char_lens(&mut self, vocab: &Vocabulary) -> &[u32] {
        self.char_lens.get_or_insert_with(|| {
            vocab
                .ids()
                .map(|id| {
                    if vocab.is_special(id) {
                        0
                    } else {
                        vocab.token_str(id).chars().count() as u32
                    }
                })
                .collect()
        })
    }

    pub(crate) fn int_start(&mut self, vocab: &Vocabulary) -> &TokenSet {
        self.int_start.get_or_insert_with(|| {
            TokenSet::from_ids(
                vocab.len(),
                vocab
                    .regular_tokens()
                    .filter(|(_, s)| {
                        let d = s.strip_prefix('-').unwrap_or(s);
                        !s.is_empty() && d.chars().all(|c| c.is_ascii_digit())
                    })
                    .map(|(id, _)| id),
            )
        })
    }
}

/// Everything a FOLLOW computation needs.
pub(crate) struct FollowCtx<'a> {
    pub scope: &'a HashMap<String, Value>,
    pub var: &'a str,
    pub value: &'a str,
    pub vocab: &'a Vocabulary,
    pub trie: &'a TokenTrie,
    pub cache: &'a mut ScanCache,
    pub custom: Option<&'a crate::constraints::CustomOps>,
    /// Scratch-set pool shared with the masker.
    pub pool: &'a mut SetPool,
    /// Accumulates candidates classified by per-token leaf scans (metric
    /// output).
    pub scanned: u64,
}

impl FollowCtx<'_> {
    fn eval_ctx(&self) -> EvalCtx<'_> {
        EvalCtx {
            scope: self.scope,
            var: self.var,
            value: self.value,
            var_final: false,
            custom: self.custom,
        }
    }
}

/// Computes the FOLLOW sets of `expr` (the recursive `Follow[·]` operator).
pub(crate) fn follow_sets(expr: &Expr, ctx: &mut FollowCtx<'_>) -> FollowSets {
    // Case-wise short-circuit: if the expression already has a definitive
    // verdict on the current value, every token inherits it.
    let now = eval_final(expr, &ctx.eval_ctx());
    if now.is_definitely_true() {
        return FollowSets::constant(ctx.pool, true);
    }
    if now.is_definitely_false() {
        return FollowSets::constant(ctx.pool, false);
    }
    // A subtree that cannot observe the hole evaluates to `now` under
    // every `v ← u·t`, and `now` is undetermined: no token decides it.
    let custom = ctx.custom;
    if !lmql_automata::reads_hole(expr, ctx.var, &|name| {
        custom.is_some_and(|c| c.contains(name))
    }) {
        return FollowSets::neutral(ctx.pool);
    }

    match expr {
        Expr::BoolOp { and, operands, .. } => {
            // a∧b is FIN(⊥) if any conjunct is; FIN(⊤) if all are (dual
            // for ∨). Fold incrementally, retiring each part to the pool.
            let (mut df, mut dt) = if *and {
                (ctx.pool.take_empty(), ctx.pool.take_full())
            } else {
                (ctx.pool.take_full(), ctx.pool.take_empty())
            };
            for o in operands {
                let p = follow_sets(o, ctx);
                if *and {
                    df.union_with(&p.definitely_false);
                    dt.intersect_with(&p.definitely_true);
                } else {
                    df.intersect_with(&p.definitely_false);
                    dt.union_with(&p.definitely_true);
                }
                ctx.pool.put_sets(p);
            }
            FollowSets {
                definitely_false: df,
                definitely_true: dt,
            }
        }
        Expr::Not { operand, .. } => {
            let inner = follow_sets(operand, ctx);
            FollowSets {
                definitely_false: inner.definitely_true,
                definitely_true: inner.definitely_false,
            }
        }
        other => leaf_follow_sets(other, ctx),
    }
}

/// FOLLOW sets of a non-boolean-composed expression: fast paths from
/// Table 2 where the shape is recognised, per-token FINAL evaluation of
/// the leaf otherwise.
fn leaf_follow_sets(expr: &Expr, ctx: &mut FollowCtx<'_>) -> FollowSets {
    if let Some(fs) = fast_path(expr, ctx) {
        return fs;
    }
    // Generic fallback: evaluate this leaf for every candidate token.
    // Sound and complete for one-token lookahead, just not O(1).
    let mut df = ctx.pool.take_empty();
    let mut dt = ctx.pool.take_empty();
    let (scope, var, custom) = (ctx.scope, ctx.var, ctx.custom);
    ctx.scanned += scan_vocab(ctx.vocab, ctx.value, |id, candidate| {
        let fv = eval_final(
            expr,
            &EvalCtx {
                scope,
                var,
                value: candidate,
                var_final: false,
                custom,
            },
        );
        if fv.is_definitely_false() {
            df.insert(id);
        } else if fv.is_definitely_true() {
            dt.insert(id);
        }
    });
    FollowSets {
        definitely_false: df,
        definitely_true: dt,
    }
}

/// Table 2 fast paths. Returns `None` when the expression shape is not
/// recognised.
fn fast_path(expr: &Expr, ctx: &mut FollowCtx<'_>) -> Option<FollowSets> {
    match expr {
        // stops_at never constrains validity (its FOLLOW value is ⊤-ish).
        Expr::Call { func, .. } if matches!(func.as_ref(), Expr::Name { name, .. } if name == "stops_at") => {
            Some(FollowSets::neutral(ctx.pool))
        }
        // Custom operator with a follow fast path, called on the current
        // hole variable (Appendix A.1).
        Expr::Call { func, args, .. }
            if matches!(
                (func.as_ref(), ctx.custom),
                (Expr::Name { name, .. }, Some(c)) if c.contains(name)
            ) && matches!(args.first(), Some(Expr::Name { name, .. }) if name == ctx.var) =>
        {
            let Expr::Name { name, .. } = func.as_ref() else {
                unreachable!("matched above");
            };
            let op = ctx.custom.and_then(|c| c.get(name)).expect("matched above");
            let view = crate::constraints::FollowView {
                value: ctx.value,
                vocab: ctx.vocab,
                trie: ctx.trie,
            };
            let mut df = op.follow_allowed(&view)?;
            df.complement_in_place();
            Some(FollowSets {
                definitely_false: df,
                definitely_true: ctx.pool.take_empty(),
            })
        }
        // int(VAR): only integer-shaped tokens keep the constraint alive.
        Expr::Call { func, args, .. }
            if matches!(func.as_ref(), Expr::Name { name, .. } if name == "int")
                && matches!(args.first(), Some(Expr::Name { name, .. }) if name == ctx.var) =>
        {
            let allowed = if ctx.value.trim().is_empty() {
                ctx.cache.int_start(ctx.vocab)
            } else {
                ctx.cache.digit_only(ctx.vocab)
            };
            let mut df = ctx.pool.take_copy(allowed);
            df.complement_in_place();
            Some(FollowSets {
                definitely_false: df,
                definitely_true: ctx.pool.take_empty(),
            })
        }
        Expr::Compare {
            op, left, right, ..
        } => compare_fast_path(*op, left, right, ctx),
        _ => None,
    }
}

/// A recognised length metric over the current hole variable.
enum LenMetric {
    Chars,
    Words,
}

/// Matches `len(VAR)`, `len(characters(VAR))` or `len(words(VAR))` over
/// the current hole variable.
fn len_metric_of(e: &Expr, var: &str) -> Option<LenMetric> {
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
        Expr::Name { name, .. } if name == var => Some(LenMetric::Chars),
        Expr::Call { func, args, .. } => {
            let Expr::Name { name: inner, .. } = func.as_ref() else {
                return None;
            };
            let metric = match inner.as_str() {
                "characters" => LenMetric::Chars,
                "words" => LenMetric::Words,
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

fn compare_fast_path(
    op: CmpOp,
    left: &Expr,
    right: &Expr,
    ctx: &mut FollowCtx<'_>,
) -> Option<FollowSets> {
    let is_cur_var = |e: &Expr| matches!(e, Expr::Name { name, .. } if name == ctx.var);

    // Length-bound fast path (`len(words(X)) < 40` and friends): the
    // metric is monotone, so per-token deltas decide definitively.
    {
        let (metric, bound, op_norm) = if let (Some(m), Expr::Int { value, .. }) =
            (len_metric_of(left, ctx.var), right)
        {
            (Some(m), *value, op)
        } else if let (Expr::Int { value, .. }, Some(m)) = (left, len_metric_of(right, ctx.var)) {
            // Mirror `N op metric` to `metric op' N`.
            let mirrored = match op {
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
                other => other,
            };
            (Some(m), *value, mirrored)
        } else {
            (None, 0, op)
        };
        if let Some(metric) = metric {
            if matches!(op_norm, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
                return Some(len_bound_sets(metric, op_norm, bound, ctx));
            }
        }
    }

    let const_str = |e: &Expr| -> Option<String> {
        match e {
            Expr::Str { value, .. } => Some(value.clone()),
            _ => None,
        }
    };
    let const_str_list = |e: &Expr| -> Option<Vec<String>> {
        match e {
            Expr::List { items, .. } => items.iter().map(const_str).collect(),
            // A scope variable holding a list of strings is constant for
            // the duration of this hole decode.
            Expr::Name { name, .. } if name != ctx.var => match ctx.scope.get(name) {
                Some(Value::List(items)) => items
                    .iter()
                    .map(|v| v.as_str().map(str::to_owned))
                    .collect(),
                _ => None,
            },
            _ => None,
        }
    };

    match op {
        // VAR in ["opt1", "opt2", …]  (Table 2: `x in l`)
        CmpOp::In if is_cur_var(left) => {
            if let Some(options) = const_str_list(right) {
                let mut allowed = ctx.pool.take_empty();
                for opt in &options {
                    if let Some(rem) = opt.strip_prefix(ctx.value) {
                        if !rem.is_empty() {
                            allowed.union_with(&ctx.trie.aligned_with(rem, false));
                        }
                    }
                }
                allowed.complement_in_place();
                return Some(FollowSets {
                    definitely_false: allowed,
                    definitely_true: ctx.pool.take_empty(),
                });
            }
            // VAR in "haystack": v·t must remain a substring.
            if let Some(hay) = const_str(right) {
                let mut allowed = ctx.pool.take_empty();
                if ctx.value.is_empty() {
                    for (start, _) in hay.char_indices() {
                        for t in ctx.trie.prefixes_of(&hay[start..]) {
                            allowed.insert(t);
                        }
                    }
                } else {
                    let mut from = 0;
                    while let Some(pos) = hay[from..].find(ctx.value) {
                        let end = from + pos + ctx.value.len();
                        for t in ctx.trie.prefixes_of(&hay[end..]) {
                            allowed.insert(t);
                        }
                        from += pos + 1;
                    }
                }
                allowed.complement_in_place();
                return Some(FollowSets {
                    definitely_false: allowed,
                    definitely_true: ctx.pool.take_empty(),
                });
            }
            None
        }
        // "needle" in VAR (Table 2: `x in s` for constant x): presence is
        // sticky for an append-only string, so tokens completing the
        // needle are FIN(⊤); absence is never final.
        CmpOp::In if is_cur_var(right) => {
            let needle = const_str(left)?;
            let mut dt = ctx
                .pool
                .take_copy(ctx.cache.tokens_containing(ctx.vocab, &needle));
            // Cross-boundary completions: the value ends with a proper
            // prefix of the needle and the token starts with the rest.
            for (k, _) in needle.char_indices().skip(1) {
                if ctx.value.ends_with(&needle[..k]) {
                    for t in ctx.trie.tokens_with_prefix(&needle[k..]) {
                        dt.insert(t);
                    }
                }
            }
            Some(FollowSets {
                definitely_false: ctx.pool.take_empty(),
                definitely_true: dt,
            })
        }
        // VAR == "const" (Table 2 string comparison): alignment with the
        // remaining characters.
        CmpOp::Eq => {
            let (var_side, const_side) = if is_cur_var(left) {
                (left, right)
            } else if is_cur_var(right) {
                (right, left)
            } else {
                return None;
            };
            let _ = var_side;
            let target = const_str(const_side)?;
            let rem = target.strip_prefix(ctx.value)?;
            let mut df = if rem.is_empty() {
                ctx.pool.take_empty()
            } else {
                ctx.trie.aligned_with(rem, false)
            };
            df.complement_in_place();
            Some(FollowSets {
                definitely_false: df,
                definitely_true: ctx.pool.take_empty(),
            })
        }
        _ => None,
    }
}

/// FOLLOW sets for `metric(VAR) op bound` where the metric is monotone
/// non-decreasing under token appends.
fn len_bound_sets(metric: LenMetric, op: CmpOp, bound: i64, ctx: &mut FollowCtx<'_>) -> FollowSets {
    let mut df = ctx.pool.take_empty();
    let mut dt = ctx.pool.take_empty();
    let vocab = ctx.vocab;
    match metric {
        LenMetric::Chars => {
            let current = ctx.value.chars().count() as i64;
            for (i, &dl) in ctx.cache.char_lens(vocab).iter().enumerate() {
                let id = TokenId(i as u32);
                if vocab.is_special(id) {
                    continue;
                }
                classify_len(current + dl as i64, op, bound, id, &mut df, &mut dt);
            }
        }
        LenMetric::Words => {
            let current = ctx.value.split_whitespace().count() as i64;
            let ends_nonws = ctx.value.chars().last().is_some_and(|c| !c.is_whitespace());
            for (i, &(count_t, starts_nonws)) in ctx.cache.word_stats(vocab).iter().enumerate() {
                let id = TokenId(i as u32);
                if vocab.is_special(id) {
                    continue;
                }
                // words(v·t) = words(v) + words(t) − 1 iff the boundary
                // words merge (both sides non-whitespace and non-empty).
                let merge = ends_nonws && starts_nonws && current > 0 && count_t > 0;
                let new = current + count_t as i64 - i64::from(merge);
                classify_len(new, op, bound, id, &mut df, &mut dt);
            }
        }
    }
    FollowSets {
        definitely_false: df,
        definitely_true: dt,
    }
}

/// For a monotone non-decreasing metric: an upper bound that fails now
/// fails forever (`df`); a lower bound that holds now holds forever
/// (`dt`).
fn classify_len(
    new: i64,
    op: CmpOp,
    bound: i64,
    id: lmql_tokenizer::TokenId,
    df: &mut TokenSet,
    dt: &mut TokenSet,
) {
    match op {
        CmpOp::Lt if new >= bound => df.insert(id),
        CmpOp::Le if new > bound => df.insert(id),
        CmpOp::Gt if new > bound => dt.insert(id),
        CmpOp::Ge if new >= bound => dt.insert(id),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_syntax::parse_expr;
    use lmql_tokenizer::Vocabulary;

    fn setup(tokens: &[&str]) -> (Vocabulary, TokenTrie) {
        let vocab = Vocabulary::from_tokens(tokens.iter().copied());
        let trie = TokenTrie::new(&vocab);
        (vocab, trie)
    }

    fn sets(expr: &str, tokens: &[&str], var: &str, value: &str) -> (Vec<String>, Vec<String>) {
        let (vocab, trie) = setup(tokens);
        let e = parse_expr(expr).unwrap();
        let scope = HashMap::new();
        let mut cache = ScanCache::default();
        let mut pool = SetPool::new(vocab.len());
        let mut ctx = FollowCtx {
            scope: &scope,
            var,
            value,
            vocab: &vocab,
            trie: &trie,
            cache: &mut cache,
            custom: None,
            pool: &mut pool,
            scanned: 0,
        };
        let fs = follow_sets(&e, &mut ctx);
        let name = |s: &TokenSet| -> Vec<String> {
            s.iter()
                .filter(|t| !vocab.is_special(*t))
                .map(|t| vocab.token_str(t).to_owned())
                .collect()
        };
        (name(&fs.definitely_false), name(&fs.definitely_true))
    }

    #[test]
    fn in_list_masks_non_aligned() {
        let (df, _) = sets(
            "X in [\"Tho\", \"Act\"]",
            &["T", "Th", "Tho", "A", "Act", "x", "Thx"],
            "X",
            "",
        );
        // "x" and "Thx" do not align with any option.
        assert!(df.contains(&"x".to_owned()));
        assert!(df.contains(&"Thx".to_owned()));
        assert!(!df.contains(&"Tho".to_owned()));
        assert!(!df.contains(&"T".to_owned()));
    }

    #[test]
    fn needle_completion_is_definitely_true() {
        let (_, dt) = sets("\"ab\" in X", &["a", "b", "ab", "xabx", "zz"], "X", "");
        assert!(dt.contains(&"ab".to_owned()));
        assert!(dt.contains(&"xabx".to_owned()));
        assert!(!dt.contains(&"a".to_owned()));
        // Cross-boundary: value ends with "a", token "b" completes.
        let (_, dt) = sets("\"ab\" in X", &["a", "b", "ab", "zz"], "X", "xa");
        assert!(dt.contains(&"b".to_owned()));
    }

    #[test]
    fn negated_needle_masks_completions() {
        let (df, _) = sets("not \"\\n\" in X", &["a", "\n", "b\nc", "ok"], "X", "text");
        assert!(df.contains(&"\n".to_owned()));
        assert!(df.contains(&"b\nc".to_owned()));
        assert!(!df.contains(&"ok".to_owned()));
    }

    #[test]
    fn int_constraint_allows_digits_only() {
        let (df, _) = sets("int(X)", &["1", "23", "-", "-4", "a", "1a"], "X", "4");
        assert!(df.contains(&"a".to_owned()));
        assert!(df.contains(&"1a".to_owned()));
        assert!(df.contains(&"-".to_owned()), "minus not allowed mid-number");
        assert!(!df.contains(&"23".to_owned()));
    }

    #[test]
    fn equality_aligns_with_remaining() {
        let (df, _) = sets(
            "X == \"Search\"",
            &["S", "Se", "Search", "x", "Searchx"],
            "X",
            "",
        );
        assert!(!df.contains(&"S".to_owned()));
        assert!(!df.contains(&"Search".to_owned()));
        assert!(df.contains(&"x".to_owned()));
        assert!(
            df.contains(&"Searchx".to_owned()),
            "overshoot can never equal the target"
        );
    }

    #[test]
    fn conjunction_unions_false_sets() {
        let (df, _) = sets(
            "X in [\"ab\"] and not \"b\" in X",
            &["a", "b", "ab", "z"],
            "X",
            "",
        );
        // "z" violates membership; "b" and "ab" violate the not-contains.
        assert!(df.contains(&"z".to_owned()));
        assert!(df.contains(&"b".to_owned()));
        assert!(df.contains(&"ab".to_owned()));
        assert!(!df.contains(&"a".to_owned()));
    }

    #[test]
    fn fallback_len_bound_exact() {
        let (df, _) = sets("len(X) <= 2", &["a", "ab", "abc"], "X", "a");
        assert!(!df.contains(&"a".to_owned())); // len 2 ok
        assert!(df.contains(&"ab".to_owned())); // len 3 violates, final
        assert!(df.contains(&"abc".to_owned()));
    }

    #[test]
    fn scope_list_variable_supported() {
        let (vocab, trie) = setup(&["a", "b", "ab", "z"]);
        let e = parse_expr("X in options").unwrap();
        let mut scope = HashMap::new();
        scope.insert(
            "options".to_owned(),
            Value::List(vec!["ab".into(), "b".into()]),
        );
        let mut cache = ScanCache::default();
        let mut pool = SetPool::new(vocab.len());
        let mut ctx = FollowCtx {
            scope: &scope,
            var: "X",
            value: "",
            vocab: &vocab,
            trie: &trie,
            cache: &mut cache,
            custom: None,
            pool: &mut pool,
            scanned: 0,
        };
        let fs = follow_sets(&e, &mut ctx);
        let df: Vec<&str> = fs
            .definitely_false
            .iter()
            .filter(|t| !vocab.is_special(*t))
            .map(|t| vocab.token_str(t))
            .collect();
        assert!(df.contains(&"z"));
        assert!(!df.contains(&"a"));
        assert!(!df.contains(&"ab"));
    }
}
