//! Runs every table and figure reproduction in sequence, then the three
//! retrieval scenarios (the source of the numbers recorded in
//! EXPERIMENTS.md). Accepts `--quick` for a
//! smaller instance count and `--metrics` for a combined registry dump
//! after all experiments.

use lmql_baseline::programs::{ARITH_SOURCE, COT_SOURCE, REACT_SOURCE};
use lmql_bench::experiments::cot::{self, Task};
use lmql_bench::experiments::{arith_exp, react_exp, retrieval_exp};
use lmql_bench::loc::{functional_loc, Language};
use lmql_bench::queries;
use lmql_bench::table::{print_metric_block, print_metrics_registry};
use lmql_datasets::{GPT_35_PROFILE, GPT_J_PROFILE, OPT_30B_PROFILE};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let metrics = std::env::args().any(|a| a == "--metrics");
    let (n_cot, n_tool, n_fig, n_retrieval) = if quick {
        (20, 8, 5, 4)
    } else {
        (84, 25, 10, 8)
    };
    let mut arms = Vec::new();

    println!("================ Table 3 ================\n");
    for profile in [GPT_J_PROFILE, OPT_30B_PROFILE] {
        println!("=== model profile: {} ===", profile.name);
        for (task, seed) in [(Task::OddOneOut, 42), (Task::DateUnderstanding, 43)] {
            let row = cot::run(task, &profile, n_cot, seed, 30);
            print_metric_block(task.label(), &row.baseline, &row.lmql, true);
            println!();
            let tag = format!("{}.{}", profile.name, task.label());
            arms.push((format!("{tag}.standard"), row.baseline));
            arms.push((format!("{tag}.lmql"), row.lmql));
        }
    }
    println!("=== GPT-3.5-style control (§6.1) ===");
    for (task, seed) in [(Task::OddOneOut, 42), (Task::DateUnderstanding, 43)] {
        let row = cot::run(task, &GPT_35_PROFILE, n_cot, seed, 30);
        println!(
            "{}: accuracy standard {:.2}% vs LMQL {:.2}%",
            task.label(),
            row.baseline.accuracy() * 100.0,
            row.lmql.accuracy() * 100.0
        );
    }

    println!("\n================ Table 4 ================\n");
    for (task, baseline_src, query_src) in [
        ("Odd One Out", COT_SOURCE, queries::ODD_ONE_OUT),
        (
            "Date Understanding",
            COT_SOURCE,
            queries::DATE_UNDERSTANDING,
        ),
        ("Arithmetic Reasoning", ARITH_SOURCE, queries::ARITHMETIC),
        ("ReAct", REACT_SOURCE, queries::REACT),
    ] {
        println!(
            "{:<22} baseline {:>3} LOC   LMQL {:>3} LOC",
            task,
            functional_loc(baseline_src, Language::Rust),
            functional_loc(query_src, Language::Lmql)
        );
    }

    println!("\n================ Table 5 ================\n");
    let react = react_exp::run(&GPT_J_PROFILE, n_tool, 3, 30);
    print_metric_block("ReAct (Case Study 2)", &react.baseline, &react.lmql, false);
    println!();
    let arith = arith_exp::run(&GPT_J_PROFILE, n_tool, 9, 30);
    print_metric_block(
        "Arithmetic Evaluation (Case Study 3)",
        &arith.baseline,
        &arith.lmql,
        false,
    );

    println!("\n================ Fig. 12 ================\n");
    println!(
        "{:>10} {:>15} {:>15} {:>17}",
        "chunk", "decoder calls", "model queries", "billable tokens"
    );
    let rows = react_exp::sweep(&GPT_J_PROFILE, n_fig, 3, &[10, 20, 30, 40, 50, 60, 70]);
    for row in &rows {
        println!(
            "{:>10} {:>15.2} {:>15.2} {:>17.2}",
            row.chunk_size,
            row.baseline.avg_decoder_calls(),
            row.baseline.avg_model_queries(),
            row.baseline.avg_billable_tokens()
        );
    }
    let lmql = &rows[0].lmql;
    println!(
        "{:>10} {:>15.2} {:>15.2} {:>17.2}",
        "LMQL",
        lmql.avg_decoder_calls(),
        lmql.avg_model_queries(),
        lmql.avg_billable_tokens()
    );

    println!("\n================ Retrieval (DESIGN.md §16) ================\n");
    let scenarios = retrieval_exp::run_all(n_retrieval, 17, 32);
    for row in &scenarios {
        print_metric_block(row.name, &row.baseline, &row.lmql, true);
        println!(
            "  {:<18} {:>32.2}x ({} tool calls, {} context tokens)\n",
            "Billable Savings",
            row.baseline.avg_billable_tokens() / row.lmql.avg_billable_tokens().max(1.0),
            row.tool_calls,
            row.context_tokens
        );
    }

    if metrics {
        arms.push(("react.standard".to_owned(), react.baseline));
        arms.push(("react.lmql".to_owned(), react.lmql));
        arms.push(("arithmetic.standard".to_owned(), arith.baseline));
        arms.push(("arithmetic.lmql".to_owned(), arith.lmql));
        for row in &rows {
            arms.push((format!("chunk_{}.standard", row.chunk_size), row.baseline));
        }
        arms.push(("fig12.lmql".to_owned(), *lmql));
        for row in &scenarios {
            arms.push((format!("{}.standard", row.name), row.baseline));
            arms.push((format!("{}.lmql", row.name), row.lmql));
        }
        println!();
        print_metrics_registry(&arms);
    }
}
