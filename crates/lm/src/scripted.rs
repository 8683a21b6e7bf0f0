//! A task-scripted language model with controllable digressions.
//!
//! This is the reproduction's stand-in for the paper's evaluation models
//! (GPT-J-6B, OPT-30B, gpt2-xl). The paper's results do not depend on model
//! quality in the abstract — they depend on two concrete behaviours:
//!
//! 1. the model produces an *intended* multi-step completion for each task
//!    instance (the chain-of-thought, the ReAct action sequence, …), and
//! 2. it sometimes **digresses**: runs on past the desired stopping point or
//!    emits off-pattern text (the paper's Fig. 4b; §6.1 traces accuracy
//!    differences to exactly this).
//!
//! [`ScriptedLm`] reproduces both, deterministically. Each [`Episode`]
//! couples a *trigger* (the prompt suffix that starts generation) with a
//! *script* (the intended completion). [`Digression`]s mark points where the
//! unconstrained model prefers to wander off — optionally derailing the rest
//! of the script — while [`Branch`]es assign softer probability to
//! alternative continuations (used by `distribute` demos).
//!
//! Under unconstrained decoding the model takes every digression. Under
//! LMQL's token masking the digression tokens are masked out, so the model
//! stays on script — which is precisely the mechanism the paper describes.

use crate::{LanguageModel, LmResult, Logits};
use lmql_tokenizer::{Bpe, TokenId, TokenTrie, Vocabulary};
use std::sync::Arc;

/// Logit for the first token of a digression at its insertion point.
pub const DIGRESSION_LOGIT: f64 = 14.0;
/// Logit for the next on-script token. [`Branch::weight`] values compare
/// against this level.
pub const SCRIPT_LOGIT: f64 = 12.0;
/// Logit for alternative (non-canonical) tokenisations of the target text.
pub const ALIGNED_LOGIT: f64 = 10.0;
/// Base logit for all other tokens.
const BASE_LOGIT: f64 = 0.0;
/// Logit for EOS when the script does not end here: above the base level
/// (a trained model prefers stopping over emitting arbitrary tokens when
/// its preferred continuation is masked away) but far below any scripted
/// continuation.
const EOS_FALLBACK_LOGIT: f64 = BASE_LOGIT + 2.0;
/// How many characters of the target continuation to consider when
/// collecting aligned prefix tokens.
const PREFIX_WINDOW: usize = 48;

/// A point where the unconstrained model wanders off-script.
#[derive(Debug, Clone)]
pub struct Digression {
    /// Character offset into the script at which the digression starts.
    pub at: usize,
    /// The off-script text the model prefers to emit at that point.
    pub text: String,
    /// If set, the digression derails the task: after `text`, the rest of
    /// the script is replaced by this alternative (e.g. reasoning that
    /// reaches a wrong answer). If `None`, the model returns to the script
    /// where it left off.
    pub replace_remainder: Option<String>,
}

/// An alternative continuation with its own logit level, used to shape the
/// probability a `distribute` clause measures over answer options.
#[derive(Debug, Clone)]
pub struct Branch {
    /// Character offset into the script at which the branch departs.
    pub at: usize,
    /// The alternative continuation (replaces the script remainder).
    pub text: String,
    /// Logit assigned to tokens along the branch. Compare against the
    /// on-script logit of 12.0: a weight of 11.4 yields roughly a 65/35
    /// split against the script continuation.
    pub weight: f64,
}

/// One scripted generation region: what the model says after `trigger`.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Generation starts after the last occurrence of this string in the
    /// prompt.
    pub trigger: String,
    /// The intended completion (followed by EOS).
    pub script: String,
    /// Points where the unconstrained model digresses.
    pub digressions: Vec<Digression>,
    /// Softer alternative continuations.
    pub branches: Vec<Branch>,
}

impl Episode {
    /// An episode with no digressions or branches.
    pub fn plain(trigger: impl Into<String>, script: impl Into<String>) -> Self {
        Episode {
            trigger: trigger.into(),
            script: script.into(),
            digressions: Vec::new(),
            branches: Vec::new(),
        }
    }
}

/// One concrete expansion of an episode's script: digressions taken or not,
/// or a branch taken.
#[derive(Debug, Clone)]
struct Variant {
    /// Full expansion text (what the model would emit before EOS).
    text: String,
    /// `(start, logit)` regions: from char `start` on, new tokens get this
    /// logit until the next region starts.
    regions: Vec<(usize, f64)>,
}

impl Variant {
    fn logit_at(&self, offset: usize) -> f64 {
        let mut logit = SCRIPT_LOGIT;
        for &(start, l) in &self.regions {
            if offset >= start {
                logit = l;
            } else {
                break;
            }
        }
        logit
    }
}

/// Builder for [`ScriptedLm`].
#[derive(Debug)]
pub struct ScriptedLmBuilder {
    bpe: Arc<Bpe>,
    episodes: Vec<Episode>,
    ramble: String,
}

impl ScriptedLmBuilder {
    /// Starts a builder over the given tokenizer.
    pub fn new(bpe: Arc<Bpe>) -> Self {
        ScriptedLmBuilder {
            bpe,
            episodes: Vec::new(),
            ramble: " and so on".to_owned(),
        }
    }

    /// Adds an episode.
    pub fn episode(mut self, e: Episode) -> Self {
        self.episodes.push(e);
        self
    }

    /// Adds several episodes.
    pub fn episodes<I: IntoIterator<Item = Episode>>(mut self, es: I) -> Self {
        self.episodes.extend(es);
        self
    }

    /// Sets the filler phrase emitted when generation deviates from every
    /// known script (the model "rambles"; it never emits EOS in this mode).
    pub fn ramble(mut self, phrase: impl Into<String>) -> Self {
        self.ramble = phrase.into();
        self
    }

    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if an episode has an empty trigger, a digression/branch
    /// offset beyond its script length, or the ramble phrase is empty.
    pub fn build(self) -> ScriptedLm {
        assert!(!self.ramble.is_empty(), "ramble phrase must be non-empty");
        for e in &self.episodes {
            assert!(!e.trigger.is_empty(), "episode trigger must be non-empty");
            for d in &e.digressions {
                assert!(
                    d.at <= e.script.len(),
                    "digression offset {} beyond script length {}",
                    d.at,
                    e.script.len()
                );
                assert!(
                    e.script.is_char_boundary(d.at),
                    "digression offset {} not on a char boundary",
                    d.at
                );
            }
            for b in &e.branches {
                assert!(
                    b.at <= e.script.len() && e.script.is_char_boundary(b.at),
                    "branch offset {} invalid for script",
                    b.at
                );
            }
        }
        let trie = TokenTrie::new(self.bpe.vocab());
        let compiled = self
            .episodes
            .iter()
            .map(|e| CompiledEpisode {
                trigger: e.trigger.clone(),
                variants: expand_variants(e),
            })
            .collect();
        ScriptedLm {
            bpe: self.bpe,
            trie,
            episodes: compiled,
            ramble: self.ramble,
        }
    }
}

#[derive(Debug)]
struct CompiledEpisode {
    trigger: String,
    variants: Vec<Variant>,
}

/// Enumerates the expansions of an episode: every subset of digressions
/// (taken in script order; a remainder-replacing digression truncates the
/// rest), plus one variant per branch.
fn expand_variants(e: &Episode) -> Vec<Variant> {
    let mut digs = e.digressions.clone();
    digs.sort_by_key(|d| d.at);
    let n = digs.len();
    let mut variants = Vec::new();

    for takes in 0..(1u32 << n) {
        let mut text = String::new();
        let mut regions: Vec<(usize, f64)> = Vec::new();
        let mut script_pos = 0usize;
        let mut derailed = false;
        for (i, d) in digs.iter().enumerate() {
            if takes & (1 << i) == 0 {
                continue;
            }
            if derailed {
                // A remainder-replacing digression already consumed the
                // script; later digressions can't fire. Skip this subset —
                // an equivalent one without the dead digressions exists.
                text.clear();
                break;
            }
            text.push_str(&e.script[script_pos..d.at]);
            regions.push((text.len(), DIGRESSION_LOGIT));
            text.push_str(&d.text);
            regions.push((text.len(), SCRIPT_LOGIT));
            script_pos = d.at;
            if let Some(repl) = &d.replace_remainder {
                text.push_str(repl);
                derailed = true;
            }
        }
        if takes != 0 && text.is_empty() {
            continue; // skipped dead subset
        }
        if !derailed {
            text.push_str(&e.script[script_pos..]);
        }
        variants.push(Variant { text, regions });
    }

    for b in &e.branches {
        let mut text = e.script[..b.at].to_owned();
        let regions = vec![(text.len(), b.weight)];
        text.push_str(&b.text);
        variants.push(Variant { text, regions });
    }

    variants
}

/// The scripted model. See the module docs for the behavioural contract.
///
/// # Example
///
/// ```
/// use lmql_lm::{Episode, LanguageModel, ScriptedLmBuilder};
/// use lmql_tokenizer::Bpe;
/// use std::sync::Arc;
///
/// let bpe = Arc::new(Bpe::char_level(""));
/// let lm = ScriptedLmBuilder::new(Arc::clone(&bpe))
///     .episode(Episode::plain("Q: 1+1=", "2"))
///     .build();
/// let ctx = bpe.encode("Q: 1+1=");
/// let next = lm.score(&ctx).softmax(1.0).argmax();
/// assert_eq!(bpe.vocab().token_str(next), "2");
/// ```
#[derive(Debug)]
pub struct ScriptedLm {
    bpe: Arc<Bpe>,
    trie: TokenTrie,
    episodes: Vec<CompiledEpisode>,
    ramble: String,
}

impl ScriptedLm {
    /// Convenience constructor: a model with the given episodes and default
    /// settings.
    pub fn new<I: IntoIterator<Item = Episode>>(bpe: Arc<Bpe>, episodes: I) -> Self {
        ScriptedLmBuilder::new(bpe).episodes(episodes).build()
    }

    /// The `(remaining_target, logit)` continuations for the current
    /// context text, or an empty list when nothing matches (ramble mode).
    fn targets(&self, text: &str) -> Vec<(String, f64)> {
        // Find the episode whose trigger occurs last in the text.
        let mut best: Option<(usize, &CompiledEpisode)> = None;
        for e in &self.episodes {
            if let Some(pos) = text.rfind(&e.trigger) {
                let end = pos + e.trigger.len();
                if best.is_none_or(|(b, _)| end > b) {
                    best = Some((end, e));
                }
            }
        }
        let Some((gen_start, episode)) = best else {
            return Vec::new();
        };
        let gen = &text[gen_start..];

        let mut targets = Vec::new();
        for v in &episode.variants {
            if let Some(remaining) = v.text.strip_prefix(gen) {
                let logit = v.logit_at(gen.len());
                targets.push((remaining.to_owned(), logit));
            }
        }
        targets
    }

    /// The deterministic filler continuation for off-script contexts.
    fn ramble_target(&self, text: &str) -> String {
        // Longest proper prefix of the ramble phrase that is a suffix of
        // the current text, so mid-phrase contexts continue the phrase.
        let phrase = &self.ramble;
        for k in (1..phrase.len()).rev() {
            if !phrase.is_char_boundary(k) {
                continue;
            }
            if text.ends_with(&phrase[..k]) {
                return phrase[k..].to_owned();
            }
        }
        phrase.clone()
    }

    /// Raises logits for the target continuation `r` at level `logit`:
    /// the canonical first token gets `logit`, alternative aligned prefix
    /// tokens get [`ALIGNED_LOGIT`] (capped below `logit`).
    fn raise_for_target(&self, logits: &mut Logits, r: &str, logit: f64) {
        if r.is_empty() {
            logits.raise(self.bpe.vocab().eos(), logit);
            return;
        }
        let window_end = r
            .char_indices()
            .take(PREFIX_WINDOW)
            .last()
            .map(|(i, c)| i + c.len_utf8())
            .unwrap_or(r.len());
        for t in self.trie.prefixes_of(&r[..window_end]) {
            logits.raise(t, ALIGNED_LOGIT.min(logit - 1.0));
        }
        // The canonical first token only depends on the first
        // pretokenisation chunk (merges never cross chunk boundaries), so
        // encoding the whole remaining script would be wasted work.
        if let Some(first_chunk) = lmql_tokenizer::pretokenize(r).first() {
            if let Some(&first) = self.bpe.encode(first_chunk).first() {
                logits.raise(first, logit);
            }
        }
    }
}

impl LanguageModel for ScriptedLm {
    fn vocab(&self) -> &Vocabulary {
        self.bpe.vocab()
    }

    fn try_score_batch(&self, contexts: &[&[TokenId]]) -> Vec<LmResult<Logits>> {
        let score = |context: &[TokenId]| {
            let text = self.bpe.decode(context);
            let mut logits = Logits::constant(self.bpe.vocab().len(), BASE_LOGIT);
            logits.set(self.bpe.vocab().eos(), EOS_FALLBACK_LOGIT);

            let targets = self.targets(&text);
            if targets.is_empty() {
                let r = self.ramble_target(&text);
                self.raise_for_target(&mut logits, &r, SCRIPT_LOGIT);
                return logits;
            }
            for (r, logit) in &targets {
                self.raise_for_target(&mut logits, r, *logit);
            }
            logits
        };
        contexts.iter().map(|c| Ok(score(c))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bpe() -> Arc<Bpe> {
        Arc::new(Bpe::char_level(""))
    }

    fn greedy_complete(lm: &ScriptedLm, prompt: &str, max_tokens: usize) -> String {
        let mut ctx = lm_encode(lm, prompt);
        let mut out = String::new();
        for _ in 0..max_tokens {
            let next = lm.score(&ctx).softmax(1.0).argmax();
            if next == lm.vocab().eos() {
                break;
            }
            out.push_str(lm.vocab().token_str(next));
            ctx.push(next);
        }
        out
    }

    fn lm_encode(lm: &ScriptedLm, text: &str) -> Vec<TokenId> {
        lm.bpe.encode(text)
    }

    #[test]
    fn plain_episode_followed_exactly() {
        let lm = ScriptedLm::new(bpe(), [Episode::plain("Q: hi\nA:", " hello there")]);
        assert_eq!(greedy_complete(&lm, "Q: hi\nA:", 50), " hello there");
    }

    #[test]
    fn digression_taken_when_unconstrained() {
        let lm = ScriptedLm::new(
            bpe(),
            [Episode {
                trigger: "A:".to_owned(),
                script: " yes. done".to_owned(),
                digressions: vec![Digression {
                    at: 5,
                    text: " well, maybe, who knows,".to_owned(),
                    replace_remainder: None,
                }],
                branches: vec![],
            }],
        );
        let out = greedy_complete(&lm, "A:", 80);
        assert_eq!(out, " yes. well, maybe, who knows, done");
    }

    #[test]
    fn digression_with_derail_replaces_remainder() {
        let lm = ScriptedLm::new(
            bpe(),
            [Episode {
                trigger: "A:".to_owned(),
                script: " good answer".to_owned(),
                digressions: vec![Digression {
                    at: 5,
                    text: " hmm".to_owned(),
                    replace_remainder: Some(" bad answer".to_owned()),
                }],
                branches: vec![],
            }],
        );
        let out = greedy_complete(&lm, "A:", 80);
        assert_eq!(out, " good hmm bad answer");
    }

    #[test]
    fn constrained_context_stays_on_script() {
        // Simulate masking by feeding the on-script continuation as context:
        // the model must keep following the script even though its greedy
        // preference at offset 5 was the digression.
        let lm = ScriptedLm::new(
            bpe(),
            [Episode {
                trigger: "A:".to_owned(),
                script: " yes. done".to_owned(),
                digressions: vec![Digression {
                    at: 5,
                    text: "\nblah".to_owned(),
                    replace_remainder: None,
                }],
                branches: vec![],
            }],
        );
        // Context already past the digression point, on script.
        let ctx = lm_encode(&lm, "A: yes. d");
        let next = lm.score(&ctx).softmax(1.0).argmax();
        assert_eq!(lm.vocab().token_str(next), "o");
    }

    #[test]
    fn branch_probability_is_soft() {
        let lm = ScriptedLm::new(
            bpe(),
            [Episode {
                trigger: "pick:".to_owned(),
                script: " alpha".to_owned(),
                digressions: vec![],
                branches: vec![Branch {
                    at: 0,
                    text: " beta".to_owned(),
                    weight: SCRIPT_LOGIT - 0.6,
                }],
            }],
        );
        let ctx = lm_encode(&lm, "pick:");
        let dist = lm.score(&ctx).softmax(1.0);
        // Both continuations start with " "; after it, "a" vs "b".
        let ctx2 = lm_encode(&lm, "pick: ");
        let dist2 = lm.score(&ctx2).softmax(1.0);
        let a = lm.vocab().id_of("a").unwrap();
        let b = lm.vocab().id_of("b").unwrap();
        assert!(dist2.prob(a) > dist2.prob(b));
        assert!(dist2.prob(b) > 0.1, "branch must keep real mass");
        drop(dist);
    }

    #[test]
    fn off_script_rambles_without_eos() {
        let lm = ScriptedLm::new(bpe(), [Episode::plain("XYZ:", " s")]);
        let out = greedy_complete(&lm, "totally unrelated", 30);
        assert!(out.starts_with(" and so on and so on"));
    }

    #[test]
    fn latest_trigger_wins() {
        let lm = ScriptedLm::new(
            bpe(),
            [
                Episode::plain("Q:", " first"),
                Episode::plain("R:", " second"),
            ],
        );
        assert_eq!(greedy_complete(&lm, "Q: something R:", 30), " second");
    }

    #[test]
    fn eos_only_at_script_end() {
        let lm = ScriptedLm::new(bpe(), [Episode::plain("go:", " ab")]);
        let ctx = lm_encode(&lm, "go: ab");
        let next = lm.score(&ctx).softmax(1.0).argmax();
        assert_eq!(next, lm.vocab().eos());
    }

    #[test]
    #[should_panic(expected = "digression offset")]
    fn bad_digression_offset_panics() {
        let _ = ScriptedLm::new(
            bpe(),
            [Episode {
                trigger: "t".to_owned(),
                script: "ab".to_owned(),
                digressions: vec![Digression {
                    at: 99,
                    text: "x".to_owned(),
                    replace_remainder: None,
                }],
                branches: vec![],
            }],
        );
    }
}

#[cfg(test)]
mod variant_tests {
    use super::*;

    fn bpe() -> Arc<Bpe> {
        Arc::new(Bpe::char_level(""))
    }

    #[test]
    fn two_digressions_expand_all_subsets() {
        // Two non-derailing digressions → 4 variants (take neither, either,
        // or both), and greedy decoding takes both.
        let lm = ScriptedLm::new(
            bpe(),
            [Episode {
                trigger: "T:".to_owned(),
                script: "abcd".to_owned(),
                digressions: vec![
                    Digression {
                        at: 1,
                        text: "X".to_owned(),
                        replace_remainder: None,
                    },
                    Digression {
                        at: 3,
                        text: "Y".to_owned(),
                        replace_remainder: None,
                    },
                ],
                branches: vec![],
            }],
        );
        let mut ctx = lm.bpe.encode("T:");
        let mut out = String::new();
        for _ in 0..10 {
            let t = lm.score(&ctx).softmax(1.0).argmax();
            if t == lm.vocab().eos() {
                break;
            }
            out.push_str(lm.vocab().token_str(t));
            ctx.push(t);
        }
        assert_eq!(out, "aXbcYd");

        // Contexts that skipped either digression still align.
        for (prefix, next) in [
            ("T:ab", "c"),
            ("T:aXbc", "Y"),
            ("T:abcY", "d"),
            ("T:abcd", ""),
        ] {
            let ctx = lm.bpe.encode(prefix);
            let t = lm.score(&ctx).softmax(1.0).argmax();
            let got = if t == lm.vocab().eos() {
                ""
            } else {
                lm.vocab().token_str(t)
            };
            assert_eq!(got, next, "after {prefix:?}");
        }
    }

    #[test]
    fn derailing_digression_truncates_later_ones() {
        let lm = ScriptedLm::new(
            bpe(),
            [Episode {
                trigger: "T:".to_owned(),
                script: "abcd".to_owned(),
                digressions: vec![
                    Digression {
                        at: 1,
                        text: "X".to_owned(),
                        replace_remainder: Some("Z".to_owned()),
                    },
                    Digression {
                        at: 3,
                        text: "Y".to_owned(),
                        replace_remainder: None,
                    },
                ],
                branches: vec![],
            }],
        );
        let mut ctx = lm.bpe.encode("T:");
        let mut out = String::new();
        for _ in 0..10 {
            let t = lm.score(&ctx).softmax(1.0).argmax();
            if t == lm.vocab().eos() {
                break;
            }
            out.push_str(lm.vocab().token_str(t));
            ctx.push(t);
        }
        assert_eq!(out, "aXZ", "derailment replaces the remainder");
    }
}
