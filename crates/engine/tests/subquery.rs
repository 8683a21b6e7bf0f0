//! Engine-level `subquery(...)` trees: depth/budget admission, usage
//! roll-up, cancellation down the tree (under injected latency), and the
//! dispatch-round win from program-level hole parallelism.
//!
//! Everything here must be deterministic: admission decisions are pure
//! functions of the configured [`SubqueryLimits`], cancellation tests
//! gate on observed [`QueryEvent::SubqueryStart`] events rather than
//! sleeps, and the dispatch-round pin compares two fully scripted runs.

use lmql::{QueryEvent, QueryRequest, SubqueryLimits};
use lmql_engine::{BatchPolicy, EngineConfig, Router, RouterConfig, RouterObs};
use lmql_lm::{ChaosLm, Episode, FaultPlan, LanguageModel, ScriptedLm};
use lmql_obs::{Registry, Tracer};
use lmql_tokenizer::Bpe;
use std::sync::Arc;
use std::time::Duration;

/// Renders `s` as an LMQL string literal (for nesting query sources
/// inside `subquery("...")` calls).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

const CHILD_SRC: &str = "argmax\n    \"S:[B]\"\nfrom \"m\"\nwhere stops_at(B, \".\")\n";

/// A parent that decodes one hole, spawns [`CHILD_SRC`], and splices the
/// child's `B` binding back into its own prompt.
fn parent_src() -> String {
    format!(
        "argmax\n    \"Q:[A]\"\n    sub = subquery({}, \"B\")\n    \"sub={{sub}}\"\nfrom \"m\"\nwhere stops_at(A, \"\\n\")\n",
        quote(CHILD_SRC)
    )
}

fn scripted(episodes: Vec<Episode>) -> (Arc<ScriptedLm>, Arc<Bpe>) {
    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
    (lm, bpe)
}

/// A one-replica router over `lm`, reporting into `registry`.
fn router(
    lm: Arc<dyn LanguageModel>,
    bpe: Arc<Bpe>,
    engine: EngineConfig,
    registry: &Registry,
) -> Router {
    Router::new_with_obs(
        lm,
        bpe,
        RouterConfig {
            engine,
            ..RouterConfig::default()
        },
        RouterObs {
            tracer: Tracer::disabled(),
            registry: Some(registry.clone()),
        },
    )
}

fn engine_with(episodes: Vec<Episode>, limits: SubqueryLimits, registry: &Registry) -> Router {
    let (lm, bpe) = scripted(episodes);
    let config = EngineConfig {
        subquery: limits,
        ..EngineConfig::default()
    };
    router(lm, bpe, config, registry)
}

fn basic_episodes() -> Vec<Episode> {
    vec![Episode::plain("Q:", " hi\n"), Episode::plain("S:", " ok.")]
}

#[test]
fn depth_limit_rejects_spawn_and_counts_it() {
    let registry = Registry::new();
    let engine = engine_with(
        basic_episodes(),
        SubqueryLimits {
            max_depth: 0,
            max_tokens: None,
        },
        &registry,
    );
    let err = engine.run_query(parent_src()).unwrap_err();
    assert!(err.to_string().contains("depth limit"), "{err}");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("engine.subquery.depth_rejected"), Some(1));
    assert_eq!(snap.counter("engine.subquery.spawned"), None);
}

#[test]
fn budget_exhaustion_mid_child_fails_the_spawn_deterministically() {
    // The child wants ~14 tokens (char-level); a 3-token tree budget
    // runs dry mid-decode, so the child stops cooperatively at a token
    // boundary and the parent sees a budget error — not a hang, not a
    // generic failure.
    let registry = Registry::new();
    let engine = engine_with(
        vec![
            Episode::plain("Q:", " hi\n"),
            Episode::plain("S:", " all thirteen."),
        ],
        SubqueryLimits {
            max_depth: 4,
            max_tokens: Some(3),
        },
        &registry,
    );
    let err = engine.run_query(parent_src()).unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("engine.subquery.spawned"), Some(1));
    assert_eq!(snap.counter("engine.subquery.budget_exhausted"), Some(1));
    assert_eq!(snap.counter("engine.subquery.cancelled"), None);
}

#[test]
fn usage_rolls_up_exactly_to_the_sum_of_isolated_runs() {
    // Composed: parent spawns the child. Inlined: the same parent with
    // the child's answer assigned directly (identical trace, no spawn).
    // Isolated child: CHILD_SRC alone. The tree's meter must equal
    // inlined + isolated, token for token.
    let inlined_src = "argmax\n    \"Q:[A]\"\n    sub = \" ok.\"\n    \"sub={sub}\"\nfrom \"m\"\nwhere stops_at(A, \"\\n\")\n";

    let registry = Registry::new();
    let composed_engine = engine_with(basic_episodes(), SubqueryLimits::default(), &registry);
    let composed = composed_engine.run_query(parent_src()).unwrap();
    assert_eq!(composed.best().trace, "Q: hi\nsub= ok.");
    let composed_usage = composed_engine.stats().usage;

    let inlined_engine = engine_with(
        basic_episodes(),
        SubqueryLimits::default(),
        &Registry::new(),
    );
    let inlined = inlined_engine.run_query(inlined_src).unwrap();
    assert_eq!(inlined.best().trace, composed.best().trace);
    let inlined_usage = inlined_engine.stats().usage;

    let child_engine = engine_with(
        basic_episodes(),
        SubqueryLimits::default(),
        &Registry::new(),
    );
    child_engine.run_query(CHILD_SRC).unwrap();
    let child_usage = child_engine.stats().usage;

    assert_eq!(
        composed_usage.decoder_calls,
        inlined_usage.decoder_calls + child_usage.decoder_calls,
        "decoder calls roll up"
    );
    assert_eq!(
        composed_usage.billable_tokens,
        inlined_usage.billable_tokens + child_usage.billable_tokens,
        "billable tokens roll up"
    );
    assert_eq!(
        registry.snapshot().counter("engine.subquery.spawned"),
        Some(1)
    );
}

#[test]
fn parent_cancellation_kills_the_whole_tree_under_latency_injection() {
    // A three-level tree — root spawns a child, the child spawns a
    // grandchild whose script is long enough (plus a 2ms injected stall
    // per model call) that it cannot finish before we cancel. The
    // cancel is issued only after the grandchild's SubqueryStart is
    // observed, so both descendants are provably in flight.
    let long_tail = format!("{}!", " x".repeat(150));
    let grand_src = "argmax\n    \"G:[C]\"\nfrom \"m\"\nwhere stops_at(C, \"!\")\n";
    let child_src = format!(
        "argmax\n    \"S:[B]\"\n    sub2 = subquery({})\n    \"x{{sub2}}\"\nfrom \"m\"\nwhere stops_at(B, \".\")\n",
        quote(grand_src)
    );
    let root_src = format!(
        "argmax\n    \"Q:[A]\"\n    sub = subquery({})\n    \"y{{sub}}\"\nfrom \"m\"\nwhere stops_at(A, \"\\n\")\n",
        quote(&child_src)
    );

    let bpe = Arc::new(Bpe::char_level(""));
    let lm = Arc::new(ScriptedLm::new(
        Arc::clone(&bpe),
        vec![
            Episode::plain("Q:", " hi\n"),
            Episode::plain("S:", " ok."),
            Episode::plain("G:", &long_tail),
        ],
    ));
    let chaos = Arc::new(ChaosLm::new(
        lm,
        FaultPlan {
            seed: 5,
            latency_rate: 1.0,
            latency: Duration::from_millis(2),
            ..FaultPlan::default()
        },
    ));
    let stats = chaos.stats().clone();
    let registry = Registry::new();
    let engine = router(chaos, bpe, EngineConfig::default(), &registry);

    let stream = engine.stream_query(&root_src);
    let mut starts = 0;
    while let Some(event) = stream.next_event() {
        if matches!(event, QueryEvent::SubqueryStart { .. }) {
            starts += 1;
            if starts == 2 {
                break;
            }
        }
    }
    assert_eq!(starts, 2, "child and grandchild both started");
    stream.cancel();
    let err = stream.wait().unwrap_err();
    assert!(
        err.to_string().to_lowercase().contains("cancel"),
        "tree dies by cancellation, got: {err}"
    );
    assert!(
        stats.latency_spikes.get() > 0,
        "the latency plan must actually fire"
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counter("engine.subquery.spawned"), Some(2));
    let cancelled = snap.counter("engine.subquery.cancelled").unwrap_or(0);
    assert!(cancelled >= 1, "descendants counted as cancelled");
    assert_eq!(snap.counter("engine.subquery.budget_exhausted"), None);
}

#[test]
fn parallel_holes_halve_scheduler_dispatch_rounds() {
    // Four independent holes with equal-length scripts. Sequentially,
    // every token-level score call is its own microbatch (nothing else
    // is pending); with the hole group decoding concurrently the
    // scheduler coalesces the four lanes, so dispatch rounds must drop
    // by at least 2x (the pinned floor — the ideal is ~4x).
    //
    // The scheduler fires the moment anything is queued, so lanes share a
    // dispatch when they queue while the model is busy (or come back
    // within its short hold). Every model call here takes 3 ms — far
    // longer than a lane's trip back with its next token — so the lanes a
    // dispatch left out are all queued by the time it is answered: any
    // two consecutive dispatches cover all four lanes, which is the 2x
    // floor whatever the thread timing.
    let episodes = vec![
        Episode::plain("L0:", " aaaa\n"),
        Episode::plain("L1:", " bbbb\n"),
        Episode::plain("L2:", " cccc\n"),
        Episode::plain("L3:", " dddd\n"),
    ];
    let src = "argmax\n    \"L0:[H0]L1:[H1]L2:[H2]L3:[H3]\"\nfrom \"m\"\nwhere stops_at(H0, \"\\n\") and stops_at(H1, \"\\n\") and stops_at(H2, \"\\n\") and stops_at(H3, \"\\n\")\n";
    let config = EngineConfig {
        policy: BatchPolicy {
            max_batch: 4,
            ..BatchPolicy::default()
        },
        ..EngineConfig::default()
    };
    let run = |parallel: bool| -> (String, u64, u64) {
        let (lm, bpe) = scripted(episodes.clone());
        let lm = Arc::new(ChaosLm::new(
            lm,
            FaultPlan {
                latency_rate: 1.0,
                latency: Duration::from_millis(3),
                ..FaultPlan::default()
            },
        ));
        let registry = Registry::new();
        let engine = router(lm, bpe, config.clone(), &registry);
        let result = engine
            .run_query(QueryRequest::new(src).parallel_holes(parallel))
            .unwrap();
        let snap = registry.snapshot();
        (
            result.best().trace.clone(),
            snap.counter("engine.batch.dispatches").unwrap_or(0),
            snap.counter("holes.parallel").unwrap_or(0),
        )
    };

    let (par_trace, par_dispatches, par_group) = run(true);
    let (seq_trace, seq_dispatches, seq_group) = run(false);
    assert_eq!(par_trace, seq_trace, "byte-identical results");
    assert_eq!(par_group, 4, "all four holes decoded through the group");
    assert_eq!(seq_group, 0);
    assert!(par_dispatches > 0 && seq_dispatches > 0);
    assert!(
        par_dispatches * 2 <= seq_dispatches,
        "parallel must at least halve dispatch rounds: {par_dispatches} vs {seq_dispatches}"
    );
}
