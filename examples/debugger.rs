//! The paper's Appendix A.3 "visual debugger", terminal edition: stream
//! a query's events and fold them into the decoder graph — for every
//! token, the mask size, EOS admissibility and the pick.
//!
//! ```sh
//! cargo run --example debugger
//! ```

use lmql::DebugTrace;
use lmql_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bpe = corpus::standard_bpe();
    let lm = Arc::new(ScriptedLm::new(
        Arc::clone(&bpe),
        [Episode::plain(
            "Mode:",
            " Search then more text that never appears",
        )],
    ));
    let runtime = Runtime::new(lm, Arc::clone(&bpe));

    let (sink, events) = StreamSink::collector();
    let result = runtime.run_streamed(
        r#"
argmax
    "Mode:[MODE] selected."
from "scripted-demo"
where MODE in [" Search", " Finish"]
"#,
        sink,
    )?;
    let trace = DebugTrace::from_events(&events.events(), bpe.vocab().len());

    println!("trace: {:?}\n", result.best().trace);
    println!("— decoder graph —");
    print!("{}", trace.render());

    // The in-list constraint narrows the mask sharply at every step.
    let hole = &trace.holes[0];
    assert!(!hole.steps.is_empty());
    assert!(hole.steps.iter().all(|s| s.allowed < 20));
    Ok(())
}
