//! Prints the paper's §6 results: Tables 3–5, Fig. 12 and the DESIGN.md
//! §16 retrieval block, then the counter block behind every number (see
//! [`lmql_bench::report()`]). `--quick` runs the smaller instance counts
//! the tier-1 golden test pins.
//!
//! Usage: `cargo run --release -p lmql-bench --bin run_all [-- --quick]`

use lmql_bench::{report, Size};

fn main() {
    let mut size = Size::Full;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => size = Size::Quick,
            other => {
                eprintln!("run_all: unknown argument `{other}` (the only flag is --quick)");
                std::process::exit(2);
            }
        }
    }
    print!("{}", report(size));
}
