//! The four workloads: what the program is sent, and the stack it is
//! sent to.
//!
//! The program receives only generated query text. Every query is a pure
//! function of `(workload, seed, index)` — [`query`] — so a seed names one
//! exact input sequence and two runs with it send byte-identical text.
//!
//! A seed changes *content* (names, numbers, option tags, which question
//! is popular, the order queries arrive in), never *shape*: the number of
//! holes, the share of repeated queries and the multiset of popularity
//! ranks in the count pass are fixed, so the count metrics move by
//! fractions of a percent between seeds and a regression stands out.

use crate::fixed_cost::{mix, CallProbe, FixedCostLm, FixedWork, TimedLm, TimedTool};
use crate::spec;
use crate::trace::Spans;
use lmql::{Tool, ToolRegistry};
use lmql_datasets::tools::WikiTool;
use lmql_datasets::wiki::{MiniWiki, COMPANIES, PEOPLE};
use lmql_lm::{corpus, Episode, LanguageModel, NGramLm, ScriptedLm};
use lmql_server::{InferenceServer, RemoteLm, ServerConfig, ServerHandle};
use lmql_tokenizer::{Bpe, BpeTrainer};
use std::fmt::Write as _;
use std::sync::Arc;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Few-shot chain-of-thought on the n-gram model through a 2-replica
    /// pool; three in four questions repeat.
    CotRepeat,
    /// Seven constrained holes, everything unique, zero-cost model.
    ExtractUnique,
    /// Four dependent turns of sixteen unconstrained tokens, fixed-work
    /// model.
    ChatStream,
    /// ReAct with the wiki tool on the scripted model; four in five
    /// queries repeat.
    ReactTools,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CotRepeat,
        Workload::ExtractUnique,
        Workload::ChatStream,
        Workload::ReactTools,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CotRepeat => "cot_repeat",
            Workload::ExtractUnique => "extract_unique",
            Workload::ChatStream => "chat_stream",
            Workload::ReactTools => "react_tools",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Queries in the count pass (see [`spec`]).
    pub fn count_pass_queries(self) -> usize {
        match self {
            Workload::CotRepeat => spec::COUNT_PASS_COT_REPEAT,
            Workload::ExtractUnique => spec::COUNT_PASS_EXTRACT_UNIQUE,
            Workload::ChatStream => spec::COUNT_PASS_CHAT_STREAM,
            Workload::ReactTools => spec::COUNT_PASS_REACT_TOOLS,
        }
    }

    /// Arrival rate of the open-loop paced phase, queries per second.
    pub fn paced_rate_qps(self) -> f64 {
        match self {
            Workload::CotRepeat => spec::PACED_QPS_COT_REPEAT,
            Workload::ExtractUnique => spec::PACED_QPS_EXTRACT_UNIQUE,
            Workload::ChatStream => spec::PACED_QPS_CHAT_STREAM,
            Workload::ReactTools => spec::PACED_QPS_REACT_TOOLS,
        }
    }

    /// Whether the server runs the 2-replica pool (`Router`) instead of
    /// the single shared scheduler.
    pub fn pooled(self) -> bool {
        self == Workload::CotRepeat
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// A small deterministic generator: SplitMix64 over a key built from the
/// workload, the seed and the query index.
#[derive(Debug, Clone)]
struct Gen(u64);

impl Gen {
    fn new(workload: Workload, seed: u64, index: u64, stream: u64) -> Self {
        Gen(mix(mix(mix(workload.tag() ^ mix(seed)) ^ index) ^ stream))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T: ?Sized>(&mut self, items: &[&'a T]) -> &'a T {
        items[self.below(items.len())]
    }

    /// A uniform value in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(workload: Workload, seed: u64, n: usize, stream: u64) -> Vec<usize> {
    let mut g = Gen::new(workload, seed, 0, stream);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, g.below(i + 1));
    }
    p
}

/// Escapes `text` for an LMQL string literal. Generated text never holds
/// `[`, `]`, `{` or `}` (hole and recall syntax inside prompt strings).
fn lit(text: &str) -> String {
    debug_assert!(!text.contains(['[', ']', '{', '}']));
    let mut out = String::with_capacity(text.len() + 8);
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

const WORDS: &[&str] = &[
    "amber", "basil", "cedar", "delta", "ember", "fjord", "grove", "harbor", "island", "jasper",
    "kernel", "lantern", "meadow", "nectar", "orchard", "pebble", "quartz", "river", "saddle",
    "timber", "umber", "valley", "willow", "yarrow", "zephyr", "anchor", "beacon", "canyon",
    "dune", "estuary", "forest", "glacier",
];

fn words(g: &mut Gen, n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(g.pick(WORDS));
    }
    out
}

/// The query the program is sent: a pure function of its arguments.
pub fn query(workload: Workload, seed: u64, index: u64) -> String {
    match workload {
        Workload::CotRepeat => cot_repeat(seed, index),
        Workload::ExtractUnique => extract_unique(seed, index),
        Workload::ChatStream => chat_stream(seed, index),
        Workload::ReactTools => react_tools(seed, index),
    }
}

// ---------------------------------------------------------------------------
// cot_repeat
// ---------------------------------------------------------------------------

/// Few-shot subjects. Each has its own two demonstrations, so the leading
/// prompt literal — the router's affinity key — takes eight values and the
/// pool's two replicas both get traffic. The wording follows the n-gram
/// model's training corpus, so the model reasons for a dozen tokens or so
/// instead of ending the answer at once.
const COT_SUBJECTS: [(&str, &str); 8] = [
    ("Nina", "Paul"),
    ("Ada", "Boris"),
    ("Chen", "Dana"),
    ("Emil", "Farah"),
    ("Gus", "Hana"),
    ("Ines", "Jonas"),
    ("Kofi", "Lucia"),
    ("Milan", "Nora"),
];
const COT_NAMES: [&str; 8] = [
    "Noah", "Maya", "Omar", "Lena", "Ravi", "Sofia", "Tariq", "Wendy",
];
/// Hot questions: every subject with every name.
const COT_HOT: usize = COT_SUBJECTS.len() * COT_NAMES.len();

fn cot_question(who: &str, a: usize, b: usize) -> String {
    format!(
        "Q: {who} is a painter. {who} sold {a} large paintings and {b} small paintings. \
         How much is the sales for large paintings?\n"
    )
}

fn cot_fewshot(subject: usize) -> String {
    let (first, second) = COT_SUBJECTS[subject];
    let (a, b, c, d) = (2 + subject, 3 + subject % 3, 4 + subject % 5, 10);
    format!(
        "{}A: He sold {a} large paintings and {b} small paintings. \
         {a} large paintings x ${c}0 = << {a}*{c}0= {ac} >> {ac}. So the answer is {ac}.\n\n\
         {}A: He sold {b} large paintings and {a} small paintings. \
         {b} large paintings x ${d}0 = << {b}*{d}0= {bd} >> {bd}. So the answer is {bd}.\n\n",
        cot_question(first, a, b),
        cot_question(second, b, a),
        ac = a * c * 10,
        bd = b * d * 10,
    )
}

/// The popularity-rank multiset of the count pass's repeated queries:
/// every hot question once, the rest dealt by Zipf(1.0) weight (largest
/// remainder). Fixed for all seeds; a seed decides which question holds
/// which rank and the order of arrival.
fn cot_rank_multiset(slots: usize) -> Vec<usize> {
    assert!(
        slots >= COT_HOT,
        "count pass too small to touch every hot question"
    );
    let harmonic: f64 = (1..=COT_HOT).map(|r| 1.0 / r as f64).sum();
    let extra = (slots - COT_HOT) as f64;
    let shares: Vec<f64> = (1..=COT_HOT)
        .map(|r| extra / (r as f64 * harmonic))
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| 1 + s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..COT_HOT).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor())
            .total_cmp(&(shares[a] - shares[a].floor()))
            .then(a.cmp(&b))
    });
    let missing = slots - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().cycle().take(missing) {
        counts[r] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
        .collect()
}

/// Zipf(1.0) rank in `0..COT_HOT` for a uniform `u`.
fn zipf_rank(u: f64) -> usize {
    let harmonic: f64 = (1..=COT_HOT).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    for r in 1..=COT_HOT {
        acc += 1.0 / (r as f64 * harmonic);
        if u < acc {
            return r - 1;
        }
    }
    COT_HOT - 1
}

fn cot_repeat(seed: u64, index: u64) -> String {
    let w = Workload::CotRepeat;
    let mut g = Gen::new(w, seed, index, 0);
    // One query in four is a question never asked before.
    let fresh = index % 4 == 3;
    let (subject, who, a, b) = if fresh {
        let who = format!("Visitor {}", 10_000 + g.below(90_000));
        (
            g.below(COT_SUBJECTS.len()),
            who,
            2 + g.below(8),
            2 + g.below(8),
        )
    } else {
        let count_n = w.count_pass_queries() as u64;
        let rank = if index < count_n {
            let slots = (count_n - count_n / 4) as usize;
            let slot = (index - index / 4) as usize;
            cot_rank_multiset(slots)[permutation(w, seed, slots, 1)[slot]]
        } else {
            zipf_rank(g.unit())
        };
        let question = permutation(w, seed, COT_HOT, 2)[rank];
        let mut q = Gen::new(w, seed, question as u64, 3);
        (
            question / COT_NAMES.len(),
            COT_NAMES[question % COT_NAMES.len()].to_owned(),
            2 + q.below(8),
            2 + q.below(8),
        )
    };
    let mut src = String::from("argmax(max_length=32)\n");
    let _ = writeln!(src, "    \"{}\"", lit(&cot_fewshot(subject)));
    let _ = writeln!(src, "    \"{}\"", lit(&cot_question(&who, a, b)));
    // One hole: the model writes its reasoning and the closing "So the
    // answer is …" itself, token after token, each step a radix lookup.
    let _ = writeln!(
        src,
        "    \"A: He sold {a} large paintings and {b} small paintings. {a} large paintings x[REASONING]\""
    );
    src.push_str("from \"ngram\"\n");
    src.push_str("where stops_at(REASONING, \"\\n\") and len(REASONING) < 160\n");
    src
}

// ---------------------------------------------------------------------------
// extract_unique
// ---------------------------------------------------------------------------

fn extract_unique(seed: u64, index: u64) -> String {
    let mut g = Gen::new(Workload::ExtractUnique, seed, index, 0);
    let uid = g.next() & 0xffff_ffff;
    let record = words(&mut g, 12);
    let mut options = |stems: &[&str]| -> String {
        let tagged: Vec<String> = stems
            .iter()
            .map(|s| format!("\" {s}-{:04x}\"", g.next() & 0xffff))
            .collect();
        tagged.join(", ")
    };
    let cats = options(&["ops", "billing", "legal", "field"]);
    let pris = options(&["low", "normal", "urgent"]);
    let regs = options(&["north", "south", "east", "west"]);
    let mut src = String::from("argmax(max_length=12)\n");
    let _ = writeln!(src, "    \"Record {uid:08x}: {}\\n\"", lit(&record));
    for (label, hole) in [
        ("Category", "CAT"),
        ("Priority", "PRI"),
        ("Region", "REG"),
        ("Count", "NUM"),
        ("Code", "CODE"),
        ("Owner", "OWNER"),
        ("Note", "NOTE"),
    ] {
        let _ = writeln!(src, "    \"{label}:[{hole}]\\n\"");
    }
    src.push_str("from \"fixed\"\n");
    let _ = writeln!(
        src,
        "where CAT in [{cats}] and PRI in [{pris}] and REG in [{regs}] and \
         int(NUM) and len(NUM) < 5 and len(CODE) < 9 and \
         stops_at(OWNER, \".\") and len(OWNER) < 16 and \
         stops_at(NOTE, \"\\n\") and len(NOTE) < 24"
    );
    src
}

// ---------------------------------------------------------------------------
// chat_stream
// ---------------------------------------------------------------------------

fn chat_stream(seed: u64, index: u64) -> String {
    let mut g = Gen::new(Workload::ChatStream, seed, index, 0);
    let sid = g.next() & 0xffff_ffff;
    let turns: Vec<String> = (0..spec::CHAT_TURNS)
        .map(|_| format!("\"{}\"", lit(&words(&mut g, 8))))
        .collect();
    let mut src = format!("argmax(max_length={})\n", spec::CHAT_TOKENS_PER_TURN);
    let _ = writeln!(src, "    \"system: session {sid:08x}. Answer briefly.\\n\"");
    // A loop keeps the turns dependent: each reply is decoded in the
    // context of every earlier one.
    let _ = writeln!(src, "    for turn in [{}]:", turns.join(", "));
    src.push_str("        \"user: {turn}\\n\"\n");
    src.push_str("        \"assistant:[REPLY]\\n\"\n");
    src.push_str("from \"fixed\"\n");
    src
}

// ---------------------------------------------------------------------------
// react_tools
// ---------------------------------------------------------------------------

/// Three ReAct demonstrations (Fig. 11 flavour) about entities that are
/// not in the wiki: they are prompt text, never executed.
const REACT_FEWSHOT: &str = "\
Q: Where is the company that Jordan Lee works at headquartered?\n\
Tho: I need to search Jordan Lee and find the company they work at.\n\
Act: Search 'Jordan Lee'\n\
Obs: Jordan Lee is a biologist who works at Coral Systems.\n\
Tho: Jordan Lee works at Coral Systems. I need to search Coral Systems.\n\
Act: Search 'Coral Systems'\n\
Obs: Coral Systems is a company that makes reef sensors. Coral Systems is headquartered in Havana.\n\
Tho: Coral Systems is headquartered in Havana.\n\
Act: Finish 'Havana'\n\n\
Q: Where is the company that Priya Nair works at headquartered?\n\
Tho: I need to search Priya Nair and find the company they work at.\n\
Act: Search 'Priya Nair'\n\
Obs: Priya Nair is a botanist who works at Fern Analytics.\n\
Tho: Priya Nair works at Fern Analytics. I need to search Fern Analytics.\n\
Act: Search 'Fern Analytics'\n\
Obs: Fern Analytics is a company that makes soil probes. Fern Analytics is headquartered in Kigali.\n\
Tho: Fern Analytics is headquartered in Kigali.\n\
Act: Finish 'Kigali'\n\n\
Q: Where is the company that Sam Whitfield works at headquartered?\n\
Tho: I need to search Sam Whitfield and find the company they work at.\n\
Act: Search 'Sam Whitfield'\n\
Obs: Sam Whitfield is a glazier who works at Prism Glassworks.\n\
Tho: Sam Whitfield works at Prism Glassworks. I need to search Prism Glassworks.\n\
Act: Search 'Prism Glassworks'\n\
Obs: Prism Glassworks is a company that makes skylights. Prism Glassworks is headquartered in Tallinn.\n\
Tho: Prism Glassworks is headquartered in Tallinn.\n\
Act: Finish 'Tallinn'\n\n";

fn react_question(person: &str) -> String {
    format!("Q: Where is the company that {person} works at headquartered?")
}

/// What the scripted model says after each question: the full
/// Tho/Act/Obs transcript, with Obs text exactly as the wiki returns it.
fn react_episodes() -> Vec<Episode> {
    let wiki = MiniWiki::standard();
    PEOPLE
        .iter()
        .map(|(person, _, company)| {
            let (_, _, city) = COMPANIES
                .iter()
                .find(|(c, _, _)| c == company)
                .expect("people reference known companies");
            let (obs1, obs2) = (wiki.search(person), wiki.search(company));
            Episode::plain(
                format!("{}\n", react_question(person)),
                format!(
                    "Tho: I need to search {person} and find the company they work at.\n\
                     Act: Search '{person}'\n\
                     Obs: {obs1}\n\
                     Tho: {person} works at {company}. I need to search {company}.\n\
                     Act: Search '{company}'\n\
                     Obs: {obs2}\n\
                     Tho: {company} is headquartered in {city}.\n\
                     Act: Finish '{city}'\n"
                ),
            )
        })
        .collect()
}

fn react_tools(seed: u64, index: u64) -> String {
    let w = Workload::ReactTools;
    let mut g = Gen::new(w, seed, index, 0);
    // One query in five opens with a case line nobody has sent before, so
    // none of its contexts is in the radix cache.
    let fresh = index % 5 == 4;
    // In the count pass every person is asked about equally often, among
    // the repeated and among the fresh queries alike (transcripts differ
    // in length); a seed only shuffles the order. Later, people are drawn
    // at random.
    let count_n = w.count_pass_queries() as u64;
    let person = if index < count_n {
        let (slots, slot, stream) = if fresh {
            (count_n / 5, index / 5, 1)
        } else {
            (count_n - count_n / 5, index - index / 5, 2)
        };
        permutation(w, seed, slots as usize, stream)[slot as usize] % PEOPLE.len()
    } else {
        g.below(PEOPLE.len())
    };
    let person = PEOPLE[person].0;
    let mut src = String::from("import wikipedia_utils\nargmax\n");
    if fresh {
        let _ = writeln!(src, "    \"Case {:08x}.\\n\"", g.next() & 0xffff_ffff);
    }
    let _ = writeln!(src, "    \"{}\"", lit(REACT_FEWSHOT));
    let _ = writeln!(src, "    \"{}\\n\"", lit(&react_question(person)));
    src.push_str(
        "    for i in range(10):\n\
         \x20       \"[MODE]:\"\n\
         \x20       if MODE == \"Tho\":\n\
         \x20           \"[THOUGHT]\"\n\
         \x20       elif MODE == \"Act\":\n\
         \x20           \" [ACTION] '[SUBJECT]\\n\"\n\
         \x20           if ACTION == \"Search\":\n\
         \x20               result = wikipedia_utils.search(SUBJECT[:-1])\n\
         \x20               \"Obs: {result}\\n\"\n\
         \x20           else:\n\
         \x20               break\n\
         from \"scripted\"\n\
         where\n\
         \x20   MODE in [\"Tho\", \"Act\"] and stops_at(THOUGHT, \"\\n\") and\n\
         \x20   ACTION in [\"Search\", \"Finish\"] and stops_at(SUBJECT, \"'\")\n",
    );
    src
}

// ---------------------------------------------------------------------------
// The stack a workload runs on
// ---------------------------------------------------------------------------

/// The model, tokenizer and tools of one workload, without the measuring
/// wrappers: what the oracle runs on.
pub struct Substrate {
    /// The tokenizer (trained afresh: part of set-up).
    pub bpe: Arc<Bpe>,
    /// The bare model.
    pub model: Arc<dyn LanguageModel>,
    /// The workload's tools, unwrapped.
    pub tools: Vec<Arc<dyn Tool>>,
}

impl Substrate {
    /// Builds the tokenizer, the model and the tools of `workload`.
    pub fn build(workload: Workload) -> Substrate {
        let text = corpus::builtin_corpus();
        // The same tokenizer as `corpus::standard_bpe()`, but trained here
        // rather than fetched from that function's process-wide cache, so
        // every set-up in a run pays for it.
        let bpe = Arc::new(
            BpeTrainer::new()
                .merges(1200)
                .min_pair_count(3)
                .train(&text),
        );
        let model: Arc<dyn LanguageModel> = match workload {
            Workload::CotRepeat => Arc::new(NGramLm::train(Arc::clone(&bpe), &text, 4)),
            Workload::ExtractUnique => {
                Arc::new(FixedCostLm::new(Arc::clone(&bpe), FixedWork::ZERO))
            }
            Workload::ChatStream => Arc::new(FixedCostLm::new(
                Arc::clone(&bpe),
                FixedWork {
                    per_batch_ops: spec::FIXED_WORK_PER_BATCH_OPS,
                    per_item_ops: spec::FIXED_WORK_PER_ITEM_OPS,
                },
            )),
            Workload::ReactTools => Arc::new(ScriptedLm::new(Arc::clone(&bpe), react_episodes())),
        };
        let tools: Vec<Arc<dyn Tool>> = match workload {
            Workload::ReactTools => vec![Arc::new(WikiTool::standard())],
            _ => Vec::new(),
        };
        Substrate { bpe, model, tools }
    }

    /// The tools as a registry, each wrapped in a [`TimedTool`].
    pub fn timed_tools(&self, probe: &Arc<CallProbe>, spans: &Spans) -> ToolRegistry {
        let mut registry = ToolRegistry::new();
        for tool in &self.tools {
            registry.register(Arc::new(TimedTool::new(
                Arc::clone(tool),
                Arc::clone(probe),
                spans.clone(),
            )));
        }
        registry
    }

    /// The model wrapped in a [`TimedLm`].
    pub fn timed_model(&self, probe: &Arc<CallProbe>, spans: &Spans) -> Arc<dyn LanguageModel> {
        Arc::new(TimedLm::new(
            Arc::clone(&self.model),
            Arc::clone(probe),
            spans.clone(),
        ))
    }
}

/// A served workload: the substrate, the wrappers' probes, the running
/// server and the first client connection.
pub struct Stack {
    /// What the server hosts, unwrapped.
    pub substrate: Substrate,
    /// Counts contexts reaching the hosted model.
    pub lm_probe: Arc<CallProbe>,
    /// Counts tool invocations.
    pub tool_probe: Arc<CallProbe>,
    /// The running server.
    pub server: ServerHandle,
    /// The client every query is sent through (`stream_query` dials a
    /// fresh connection per query, as the client library does).
    pub client: RemoteLm,
}

/// The server configuration of `workload`: the library defaults, plus the
/// 2-replica pool on `cot_repeat` and the workload's tools.
pub fn server_config(workload: Workload, tools: ToolRegistry) -> ServerConfig {
    ServerConfig {
        replicas: if workload.pooled() {
            spec::POOL_REPLICAS
        } else {
            1
        },
        tools,
        ..ServerConfig::default()
    }
}

impl Stack {
    /// Set-up, start to finish: tokenizer, model, tools, server spawn and
    /// the first connection (which fetches and parses the tokenizer).
    pub fn start(workload: Workload, spans: &Spans) -> std::io::Result<Stack> {
        let substrate = Substrate::build(workload);
        let lm_probe = Arc::new(CallProbe::default());
        let tool_probe = Arc::new(CallProbe::default());
        let server = InferenceServer::spawn_with(
            substrate.timed_model(&lm_probe, spans),
            Arc::clone(&substrate.bpe),
            server_config(workload, substrate.timed_tools(&tool_probe, spans)),
        )?;
        let (client, _client_bpe) = RemoteLm::connect(server.addr())?;
        Ok(Stack {
            substrate,
            lm_probe,
            tool_probe,
            server,
            client,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a: Vec<String> = (0..40).map(|i| query(w, 7, i)).collect();
            let b: Vec<String> = (0..40).map(|i| query(w, 7, i)).collect();
            let c: Vec<String> = (0..40).map(|i| query(w, 8, i)).collect();
            assert_eq!(a, b, "{}: same seed must give the same queries", w.name());
            assert_ne!(a, c, "{}: another seed must give other queries", w.name());
        }
    }

    #[test]
    fn every_query_compiles() {
        for w in Workload::ALL {
            for i in [0, 3, 4, 9, 1_000_003, 2_000_004] {
                let src = query(w, 1, i);
                lmql::compile_source(&src)
                    .unwrap_or_else(|e| panic!("{} #{i}: {e}\n{src}", w.name()));
            }
        }
    }

    #[test]
    fn cot_count_pass_touches_every_hot_question_once_per_rank_count() {
        let n = Workload::CotRepeat.count_pass_queries();
        let slots = n - n / 4;
        let multiset = cot_rank_multiset(slots);
        assert_eq!(multiset.len(), slots);
        for rank in 0..COT_HOT {
            assert!(multiset.contains(&rank), "rank {rank} missing");
        }
        // The multiset of distinct hot queries is the same for every seed.
        for seed in [1, 2, 3] {
            let mut hot: Vec<String> = (0..n as u64)
                .filter(|i| i % 4 != 3)
                .map(|i| query(Workload::CotRepeat, seed, i))
                .collect();
            hot.sort();
            hot.dedup();
            assert_eq!(hot.len(), COT_HOT, "seed {seed}");
        }
    }

    #[test]
    fn unique_workloads_never_repeat_a_query() {
        for w in [Workload::ExtractUnique, Workload::ChatStream] {
            let mut all: Vec<String> = (0..500).map(|i| query(w, 3, i)).collect();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), 500, "{}", w.name());
        }
    }

    #[test]
    fn react_repeats_four_in_five() {
        let all: Vec<String> = (0..200)
            .map(|i| query(Workload::ReactTools, 5, i))
            .collect();
        let fresh = all.iter().filter(|q| q.contains("Case ")).count();
        assert_eq!(fresh, 40);
        let mut hot: Vec<&String> = all.iter().filter(|q| !q.contains("Case ")).collect();
        hot.sort();
        hot.dedup();
        assert!(hot.len() <= PEOPLE.len());
    }
}
