//! Validation and constrained decoding (§5 of the paper): FINAL semantics,
//! FOLLOW maps and token-mask generation.

mod automata_cache;
mod custom;
mod eval;
mod final_sem;
mod follow;
mod mask;
mod memo;

pub use automata_cache::AutomataCache;
pub use custom::{CustomOp, CustomOps, FollowView, OpCtx};
pub use eval::{eval_expr, eval_final, EvalCtx};
pub use final_sem::{Fin, FinalValue};
pub use mask::{
    collect_stop_phrases, MaskConfig, MaskEngine, MaskMetrics, MaskOutcome, Masker, VocabSource,
};
pub use memo::MaskMemo;
