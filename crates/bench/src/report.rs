//! The one generator of the paper's §6 results: [`report`] runs every
//! experiment once and fills a [`Report`], whose `Display` renders
//! Tables 3–5, Fig. 12 and the DESIGN.md §16 retrieval block, then the
//! counter block every printed number is computed from. `run_all`
//! prints it; a tier-1 test pins the [`Size::Quick`] rendering byte for
//! byte and checks the paper's shape claims on the same rows.

use crate::experiments::arith_exp::{self, ArithRow};
use crate::experiments::cot::{self, CotRow, Task};
use crate::experiments::react_exp::{self, ReactRow, Sweep};
use crate::experiments::retrieval_exp::{self, ScenarioRow};
use crate::experiments::Stats;
use crate::loc::{functional_loc, Language};
use crate::queries;
use crate::table::{metric_block, metric_slug};
use lmql_baseline::programs::{ARITH_SOURCE, COT_SOURCE, REACT_SOURCE};
use lmql_datasets::{ModelProfile, GPT_35_PROFILE, GPT_J_PROFILE, OPT_30B_PROFILE};
use lmql_obs::Registry;
use std::fmt;

/// How many instances each experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// 20 CoT / 8 tool / 5 sweep / 4 retrieval instances (`run_all
    /// --quick`, the size the golden test pins).
    Quick,
    /// 84 / 25 / 10 / 8 instances (`run_all`, EXPERIMENTS.md's size).
    Full,
}

impl Size {
    /// `(cot, tool, sweep, retrieval)` instance counts.
    fn counts(self) -> (usize, usize, usize, usize) {
        match self {
            Size::Quick => (20, 8, 5, 4),
            Size::Full => (84, 25, 10, 8),
        }
    }
}

/// Table 3's tasks with their dataset seeds.
const COT_TASKS: [(Task, u64); 2] = [(Task::OddOneOut, 42), (Task::DateUnderstanding, 43)];

/// Fig. 12's baseline chunk sizes.
pub const FIG12_CHUNKS: [usize; 7] = [10, 20, 30, 40, 50, 60, 70];

/// One Table 4 row: functional lines of code per side.
#[derive(Debug, Clone)]
pub struct LocRow {
    /// Task label.
    pub task: &'static str,
    /// The hand-written baseline program.
    pub baseline: usize,
    /// The LMQL query.
    pub lmql: usize,
}

/// Every §6 result, one row per experiment arm.
#[derive(Debug, Clone)]
pub struct Report {
    /// Table 3: each task under `gpt-j-6b-sim`, then under `opt-30b-sim`.
    pub table3: Vec<CotRow>,
    /// §6.1's GPT-3.5-style control: each task under `gpt-3.5-sim`.
    pub control: Vec<CotRow>,
    /// Table 4.
    pub table4: Vec<LocRow>,
    /// Table 5, ReAct (Case Study 2).
    pub react: ReactRow,
    /// Table 5, arithmetic evaluation (Case Study 3).
    pub arith: ArithRow,
    /// Fig. 12: the ReAct baseline at each of [`FIG12_CHUNKS`], and LMQL.
    pub fig12: Sweep,
    /// The three retrieval scenarios (DESIGN.md §16).
    pub retrieval: Vec<ScenarioRow>,
}

/// Runs every experiment once at `size`.
pub fn report(size: Size) -> Report {
    let (n_cot, n_tool, n_fig, n_retrieval) = size.counts();
    let cot_rows = |profiles: &[ModelProfile]| -> Vec<CotRow> {
        profiles
            .iter()
            .flat_map(|profile| {
                COT_TASKS.map(|(task, seed)| cot::run(task, profile, n_cot, seed, 30))
            })
            .collect()
    };
    Report {
        table3: cot_rows(&[GPT_J_PROFILE, OPT_30B_PROFILE]),
        control: cot_rows(&[GPT_35_PROFILE]),
        table4: [
            ("Odd One Out", COT_SOURCE, queries::ODD_ONE_OUT),
            (
                "Date Understanding",
                COT_SOURCE,
                queries::DATE_UNDERSTANDING,
            ),
            ("Arithmetic Reasoning", ARITH_SOURCE, queries::ARITHMETIC),
            ("ReAct", REACT_SOURCE, queries::REACT),
        ]
        .into_iter()
        .map(|(task, baseline_src, query_src)| LocRow {
            task,
            baseline: functional_loc(baseline_src, Language::Rust),
            lmql: functional_loc(query_src, Language::Lmql),
        })
        .collect(),
        react: react_exp::run(&GPT_J_PROFILE, n_tool, 3, 30),
        arith: arith_exp::run(&GPT_J_PROFILE, n_tool, 9, 30),
        fig12: react_exp::sweep(&GPT_J_PROFILE, n_fig, 3, &FIG12_CHUNKS),
        retrieval: retrieval_exp::run_all(n_retrieval, 17, 32),
    }
}

impl Report {
    /// The exact counters behind every printed number, as
    /// `bench.<arm>.<counter>`.
    fn registry(&self) -> Registry {
        let registry = Registry::new();
        let mut arms: Vec<(String, &Stats)> = Vec::new();
        for row in self.table3.iter().chain(&self.control) {
            let tag = format!("{}.{}", row.profile.name, row.task.label());
            arms.push((format!("{tag}.standard"), &row.baseline));
            arms.push((format!("{tag}.lmql"), &row.lmql));
        }
        arms.push(("react.standard".to_owned(), &self.react.baseline));
        arms.push(("react.lmql".to_owned(), &self.react.lmql));
        arms.push(("arithmetic.standard".to_owned(), &self.arith.baseline));
        arms.push(("arithmetic.lmql".to_owned(), &self.arith.lmql));
        for (chunk_size, baseline) in &self.fig12.baseline {
            arms.push((format!("chunk_{chunk_size}.standard"), baseline));
        }
        arms.push(("fig12.lmql".to_owned(), &self.fig12.lmql));
        for row in &self.retrieval {
            arms.push((format!("{}.standard", row.name), &row.baseline));
            arms.push((format!("{}.lmql", row.name), &row.lmql));
            registry
                .counter(&format!("bench.{}.tool_calls", row.name))
                .add(row.tool_calls);
            registry
                .counter(&format!("bench.{}.context_tokens", row.name))
                .add(row.context_tokens as u64);
        }
        for (label, stats) in arms {
            let slug = metric_slug(&label);
            let u = stats.usage;
            let counters: [(&str, u64); 9] = [
                ("instances", stats.n as u64),
                ("correct", stats.correct as u64),
                ("model_queries", u.model_queries),
                ("decoder_calls", u.decoder_calls),
                ("billable_tokens", u.billable_tokens),
                ("batch_dispatches", u.batch_dispatches),
                ("batched_queries", u.batched_queries),
                ("cache_hits", u.cache_hits),
                ("cache_misses", u.cache_misses),
            ];
            for (name, value) in counters {
                registry.counter(&format!("bench.{slug}.{name}")).add(value);
            }
        }
        for row in &self.table4 {
            let slug = metric_slug(row.task);
            registry
                .counter(&format!("bench.{slug}.loc_baseline"))
                .add(row.baseline as u64);
            registry
                .counter(&format!("bench.{slug}.loc_lmql"))
                .add(row.lmql as u64);
        }
        registry
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "================ Table 3 ================\n")?;
        let mut profile = "";
        for row in &self.table3 {
            if row.profile.name != profile {
                profile = row.profile.name;
                writeln!(f, "=== model profile: {profile} ===")?;
            }
            metric_block(f, row.task.label(), &row.baseline, &row.lmql, true)?;
            writeln!(f)?;
        }
        writeln!(f, "=== GPT-3.5-style control (§6.1) ===")?;
        for row in &self.control {
            writeln!(
                f,
                "{}: accuracy standard {:.2}% vs LMQL {:.2}%",
                row.task.label(),
                row.baseline.accuracy() * 100.0,
                row.lmql.accuracy() * 100.0
            )?;
        }

        writeln!(f, "\n================ Table 4 ================\n")?;
        for row in &self.table4 {
            writeln!(
                f,
                "{:<22} baseline {:>3} LOC   LMQL {:>3} LOC",
                row.task, row.baseline, row.lmql
            )?;
        }

        writeln!(f, "\n================ Table 5 ================\n")?;
        let (react, arith) = (&self.react, &self.arith);
        metric_block(
            f,
            "ReAct (Case Study 2)",
            &react.baseline,
            &react.lmql,
            false,
        )?;
        writeln!(f)?;
        metric_block(
            f,
            "Arithmetic Evaluation (Case Study 3)",
            &arith.baseline,
            &arith.lmql,
            false,
        )?;

        writeln!(f, "\n================ Fig. 12 ================\n")?;
        writeln!(
            f,
            "{:>10} {:>15} {:>15} {:>17}",
            "chunk", "decoder calls", "model queries", "billable tokens"
        )?;
        let lines = self
            .fig12
            .baseline
            .iter()
            .map(|(chunk_size, baseline)| (chunk_size.to_string(), baseline))
            .chain([("LMQL".to_owned(), &self.fig12.lmql)]);
        for (label, stats) in lines {
            writeln!(
                f,
                "{:>10} {:>15.2} {:>15.2} {:>17.2}",
                label,
                stats.avg_decoder_calls(),
                stats.avg_model_queries(),
                stats.avg_billable_tokens()
            )?;
        }

        writeln!(
            f,
            "\n================ Retrieval (DESIGN.md §16) ================\n"
        )?;
        for row in &self.retrieval {
            metric_block(f, row.name, &row.baseline, &row.lmql, true)?;
            writeln!(
                f,
                "  {:<18} {:>32.2}x ({} tool calls, {} context tokens)\n",
                "Billable Savings",
                row.baseline.avg_billable_tokens() / row.lmql.avg_billable_tokens().max(1.0),
                row.tool_calls,
                row.context_tokens
            )?;
        }

        writeln!(f, "\n--- metrics ---")?;
        f.write_str(&self.registry().snapshot().render_text())
    }
}
