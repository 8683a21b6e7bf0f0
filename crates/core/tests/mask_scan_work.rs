//! Exact mask work counts: `mask.scan.tokens` counts the candidates a
//! per-token vocabulary scan classified. A `where` clause shaped like the
//! benchmark's seven-hole extraction query only holds leaves the
//! FollowMap engine resolves symbolically — leaves over the decoding hole
//! have Table 2 fast paths, and leaves over the other holes cannot change
//! with the next token — so the default configuration scans nothing.

use lmql::constraints::{MaskConfig, MaskEngine};
use lmql::{QueryRequest, Runtime};
use lmql_lm::{Episode, ScriptedLm};
use lmql_tokenizer::Bpe;
use std::sync::Arc;

const HOLES: [(&str, &str, &str); 7] = [
    ("Category", "CAT", " billing-0a1f"),
    ("Priority", "PRI", " urgent-77c2"),
    ("Region", "REG", " west-19d0"),
    ("Count", "NUM", "42"),
    ("Code", "CODE", " zq-81"),
    ("Owner", "OWNER", " Ada Lovelace."),
    ("Note", "NOTE", " ships on Monday\n"),
];

const QUERY: &str = concat!(
    "argmax(max_length=24)\n",
    "    \"Record 5e11a0c2: crate of spare valves for the harbour pump\\n\"\n",
    "    \"Category:[CAT]\\n\"\n",
    "    \"Priority:[PRI]\\n\"\n",
    "    \"Region:[REG]\\n\"\n",
    "    \"Count:[NUM]\\n\"\n",
    "    \"Code:[CODE]\\n\"\n",
    "    \"Owner:[OWNER]\\n\"\n",
    "    \"Note:[NOTE]\\n\"\n",
    "from \"scripted\"\n",
    "where CAT in [\" ops-3b07\", \" billing-0a1f\", \" legal-c4e2\", \" field-9d13\"] ",
    "and PRI in [\" low-5a10\", \" normal-e2f4\", \" urgent-77c2\"] ",
    "and REG in [\" north-0b3c\", \" south-44aa\", \" east-d901\", \" west-19d0\"] ",
    "and int(NUM) and len(NUM) < 5 and len(CODE) < 9 ",
    "and stops_at(OWNER, \".\") and len(OWNER) < 16 ",
    "and stops_at(NOTE, \"\\n\") and len(NOTE) < 24\n",
);

/// Runs the query on a fresh runtime with `engine` and `mask`, checks
/// every hole decoded its scripted value, and returns `mask.scan.tokens`.
fn scanned_tokens(engine: MaskEngine, mask: MaskConfig) -> u64 {
    let bpe = Arc::new(Bpe::char_level(""));
    let episodes = HOLES
        .iter()
        .map(|(label, _, value)| Episode::plain(format!("{label}:"), *value));
    let lm = Arc::new(ScriptedLm::new(Arc::clone(&bpe), episodes));
    let registry = lmql_obs::Registry::new();
    let mut rt = Runtime::new(lm, bpe);
    rt.set_metrics_registry(registry.clone());
    let result = rt
        .execute(&QueryRequest::new(QUERY).engine(engine).mask(mask))
        .expect("query runs");
    for (_, hole, value) in HOLES {
        assert_eq!(result.best().var_str(hole), Some(value), "hole {hole}");
    }
    registry.snapshot().counter("mask.scan.tokens").unwrap_or(0)
}

#[test]
fn default_masks_scan_no_token_on_an_extraction_query() {
    assert_eq!(
        scanned_tokens(MaskEngine::default(), MaskConfig::default()),
        0
    );
    // Without automata every step is a first visit: still no scan.
    assert_eq!(
        scanned_tokens(MaskEngine::Symbolic, MaskConfig::reference()),
        0
    );
}

#[test]
fn exact_engine_scans_are_counted() {
    // The reference engine classifies every regular token on every step.
    assert!(scanned_tokens(MaskEngine::Exact, MaskConfig::reference()) > 0);
}
