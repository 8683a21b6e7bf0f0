//! The §6 report at `--quick` size, pinned two ways: its rendering must
//! equal the committed golden file byte for byte, and its rows must show
//! the paper's shape claims (who wins, and on which metric).

use lmql_bench::experiments::Stats;
use lmql_bench::{report, Report, Size};
use std::sync::OnceLock;

/// Exactly `run_all --quick`'s stdout.
const GOLDEN: &str = include_str!("golden/run_all_quick.txt");
const GOLDEN_PATH: &str = "crates/bench/tests/golden/run_all_quick.txt";

/// One `report(Size::Quick)`, shared by every test here.
fn quick() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| report(Size::Quick))
}

/// The first line where `got` differs from `expected`, 1-based, with
/// both sides (`<end of output>` past the shorter one).
fn first_difference(expected: &str, got: &str) -> Option<(usize, String, String)> {
    let mut want = expected.split_inclusive('\n');
    let mut have = got.split_inclusive('\n');
    for line in 1.. {
        match (want.next(), have.next()) {
            (None, None) => return None,
            (w, h) if w == h => {}
            (w, h) => {
                let show =
                    |l: Option<&str>| l.map_or("<end of output>".to_owned(), |l| format!("{l:?}"));
                return Some((line, show(w), show(h)));
            }
        }
    }
    unreachable!()
}

#[test]
fn run_all_quick_matches_golden() {
    let got = quick().to_string();
    if let Some((line, expected, got)) = first_difference(GOLDEN, &got) {
        panic!(
            "run_all --quick differs from {GOLDEN_PATH} at line {line}\n  \
             expected: {expected}\n  \
             got:      {got}\n\
             If the change is intended, regenerate the golden file from the workspace root:\n  \
             cargo run --release -p lmql-bench --bin run_all -- --quick > {GOLDEN_PATH}"
        );
    }
}

#[test]
fn first_difference_names_the_line() {
    assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
    assert_eq!(
        first_difference("a\nb\nc\n", "a\nx\nc\n"),
        Some((2, "\"b\\n\"".to_owned(), "\"x\\n\"".to_owned()))
    );
    assert_eq!(
        first_difference("a\n", "a\nmore\n"),
        Some((2, "<end of output>".to_owned(), "\"more\\n\"".to_owned()))
    );
    assert_eq!(
        first_difference("a\n", "a"),
        Some((1, "\"a\\n\"".to_owned(), "\"a\"".to_owned()))
    );
}

/// LMQL needs fewer decoder calls, model queries and billable tokens.
fn assert_costs_reduced(what: &str, baseline: &Stats, lmql: &Stats) {
    assert!(
        lmql.avg_decoder_calls() < baseline.avg_decoder_calls(),
        "{what}: decoder calls {lmql:?} vs {baseline:?}"
    );
    assert!(
        lmql.avg_model_queries() < baseline.avg_model_queries(),
        "{what}: model queries {lmql:?} vs {baseline:?}"
    );
    assert!(
        lmql.avg_billable_tokens() < baseline.avg_billable_tokens(),
        "{what}: billable tokens {lmql:?} vs {baseline:?}"
    );
}

fn assert_all_correct(what: &str, stats: &Stats) {
    assert!(stats.n > 0, "{what}: no instances");
    assert_eq!(stats.correct, stats.n, "{what}: {stats:?}");
}

/// Table 3 and the GPT-3.5 control (§6.1): LMQL's accuracy is at least
/// the baseline's on every task and profile, at lower cost.
#[test]
fn table3_lmql_keeps_accuracy_at_lower_cost() {
    let r = quick();
    assert_eq!(r.table3.len(), 4);
    assert_eq!(r.control.len(), 2);
    for row in r.table3.iter().chain(&r.control) {
        let what = format!("{} / {}", row.profile.name, row.task.label());
        assert_eq!(row.baseline.n, 20, "{what}");
        assert_eq!(row.lmql.n, 20, "{what}");
        assert!(
            row.lmql.accuracy() >= row.baseline.accuracy(),
            "{what}: accuracy {:?} vs {:?}",
            row.lmql,
            row.baseline
        );
        assert_costs_reduced(&what, &row.baseline, &row.lmql);
    }
}

/// Table 4: every LMQL query is less than half its baseline program.
#[test]
fn table4_queries_are_shorter() {
    for row in &quick().table4 {
        assert!(
            2 * row.lmql < row.baseline,
            "{}: {} vs {} LOC",
            row.task,
            row.lmql,
            row.baseline
        );
    }
}

/// Table 5: both sides answer every instance; LMQL runs each interactive
/// flow as one decoder call and bills well under half the tokens.
#[test]
fn table5_one_decoder_call_per_flow() {
    let r = quick();
    for (what, baseline, lmql) in [
        ("ReAct", &r.react.baseline, &r.react.lmql),
        ("arithmetic", &r.arith.baseline, &r.arith.lmql),
    ] {
        assert_all_correct(&format!("{what} standard"), baseline);
        assert_all_correct(&format!("{what} LMQL"), lmql);
        assert_eq!(lmql.avg_decoder_calls(), 1.0, "{what}");
        assert!(
            lmql.avg_billable_tokens() < baseline.avg_billable_tokens() / 2.0,
            "{what}: {lmql:?} vs {baseline:?}"
        );
        assert_costs_reduced(what, baseline, lmql);
    }
    assert!(r.react.lmql.avg_decoder_calls() < r.react.baseline.avg_decoder_calls() / 3.0);
    assert!(r.arith.baseline.avg_decoder_calls() >= 3.0);
}

/// Fig. 12: decoder calls fall as chunks grow, model queries rise,
/// billable tokens bottom out at a mid-size chunk, and LMQL sits below
/// every point on all three.
#[test]
fn fig12_billable_minimum_is_mid_sweep() {
    let r = quick();
    let rows = &r.fig12.baseline;
    let chunks: Vec<usize> = rows.iter().map(|(chunk, _)| *chunk).collect();
    assert_eq!(chunks, lmql_bench::report::FIG12_CHUNKS);
    for pair in rows.windows(2) {
        let (a, b) = (&pair[0].1, &pair[1].1);
        assert!(b.avg_decoder_calls() <= a.avg_decoder_calls(), "{chunks:?}");
        assert!(b.avg_model_queries() > a.avg_model_queries(), "{chunks:?}");
    }
    let cheapest = rows
        .iter()
        .min_by(|a, b| {
            a.1.avg_billable_tokens()
                .total_cmp(&b.1.avg_billable_tokens())
        })
        .unwrap();
    assert_eq!(cheapest.0, 40);
    for (chunk, baseline) in rows {
        assert_costs_reduced(&format!("chunk {chunk}"), baseline, &r.fig12.lmql);
    }
}

/// The retrieval scenarios (DESIGN.md §16): equal, perfect accuracy, and
/// LMQL bills less by retrieving only what the query needs.
#[test]
fn retrieval_bills_less_at_equal_accuracy() {
    let r = quick();
    let names: Vec<&str> = r.retrieval.iter().map(|row| row.name).collect();
    assert_eq!(names, ["retrieval_qa", "needle", "chat"]);
    for row in &r.retrieval {
        assert_all_correct(&format!("{} standard", row.name), &row.baseline);
        assert_all_correct(&format!("{} LMQL", row.name), &row.lmql);
        assert!(
            row.lmql.avg_billable_tokens() < row.baseline.avg_billable_tokens(),
            "{}: {:?} vs {:?}",
            row.name,
            row.lmql,
            row.baseline
        );
    }
    let qa = &r.retrieval[0];
    // One decoder run over an evidence-only prompt: under half the bill.
    assert_eq!(qa.lmql.avg_decoder_calls(), 1.0);
    assert!(qa.lmql.avg_billable_tokens() < qa.baseline.avg_billable_tokens() / 2.0);
    // A search and a spans call per instance.
    assert!(qa.tool_calls >= 2 * qa.lmql.n as u64, "{}", qa.tool_calls);
}
