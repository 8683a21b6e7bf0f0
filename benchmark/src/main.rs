//! `bench-e2e`: one workload, one seed, through the whole stack.
//!
//! ```text
//! bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes to standard error and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` in this directory.

mod fixed_cost;
mod layers;
mod load;
mod proc;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: bench-e2e --workload <cot_repeat|extract_unique|chat_stream|react_tools> \
--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>] [--show <queries>] [--samples <csv>] | --manifest | --digest --workload <name> --seed <n>";

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", report::manifest(spec::RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores < spec::MIN_CORES {
        eprintln!(
            "bench-e2e: {cores} core(s) available, {} needed: the server's dispatcher and a \
             client must be able to run at the same time",
            spec::MIN_CORES
        );
        return ExitCode::from(2);
    }
    let parsed = (|| {
        let workload = Workload::from_name(value(&args, "--workload")?)?;
        let seed: u64 = value(&args, "--seed")?.parse().ok()?;
        let digest_only = args.iter().any(|a| a == "--digest");
        let seconds: f64 = if digest_only {
            0.0
        } else {
            value(&args, "--seconds")?.parse().ok()?
        };
        let trace = match value(&args, "--trace") {
            Some("1") => true,
            Some("0") | None => false,
            Some(_) => return None,
        };
        (0.0..=3600.0).contains(&seconds).then_some((
            run::Config {
                workload,
                seed,
                seconds,
                trace,
                trace_dir: value(&args, "--trace-dir").map(PathBuf::from),
                show: value(&args, "--show")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
                samples: value(&args, "--samples").map(PathBuf::from),
            },
            digest_only,
        ))
    })();
    let Some((config, digest_only)) = parsed else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    eprintln!(
        "bench-e2e: {} seed {} for {} s, trace {}, {cores} cores",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    let report = match run::run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    if digest_only {
        println!("{}", report.digest);
        return ExitCode::SUCCESS;
    }
    let table = if config.trace {
        report::per_layer_table()
    } else {
        report::end_to_end_table()
    };
    for (name, unit) in &table {
        eprintln!(
            "{name:<40} {:>16.6} {unit}",
            report.metrics.get(name).unwrap_or(0.0)
        );
    }
    println!(
        "{}",
        report::result_line(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics,
            &table
        )
    );
    ExitCode::SUCCESS
}
