//! Every constant that shapes a run, with the measurement that chose it.
//!
//! Measurements were taken on the box this benchmark was written on: 2
//! cores, shared with other tenants, at the seed commit (`51559fb`).

/// Slices each timed phase is cut into.
pub const SLICES: usize = 8;

/// Share of `--seconds` given to the one-client closed loop (latency).
pub const LATENCY_SHARE: f64 = 0.4;
/// Share of `--seconds` given to the two-client closed loop (throughput).
pub const THROUGHPUT_SHARE: f64 = 0.4;
/// Share of `--seconds` given to the open-loop paced phase.
pub const PACED_SHARE: f64 = 0.2;

/// Clients in the throughput phase. Also the most client threads and
/// connections the benchmark ever uses at once.
pub const THROUGHPUT_CLIENTS: usize = 2;

/// Cores the benchmark refuses to run below: the server's dispatcher and
/// one client must be able to run at the same time.
pub const MIN_CORES: usize = 2;

/// Timed set-ups per run, dealt evenly over the allowed CPUs; `setup_s`
/// is their median. One set-up takes 55–80 ms, so ten cost under a second.
pub const SETUPS_PER_RUN: usize = 10;

/// Replicas behind the router on `cot_repeat`.
pub const POOL_REPLICAS: usize = 2;

/// Per-read budget of a streamed query. A query that stalls this long
/// counts as failed.
pub const QUERY_TIMEOUT_S: u64 = 20;

// Count-pass sizes: a fixed number of queries, so every count metric is
// independent of `--seconds` and of machine speed. The server is cold, so
// a query costs more than in the timed phases; sized to 1.5–2.5 s.
/// `cot_repeat`: 72 repeated (every one of the 64 hot questions at least
/// once) + 24 new; ≈24 ms for a question's first sighting, ≈5 ms after
/// (measured 2.2 s).
pub const COUNT_PASS_COT_REPEAT: usize = 96;
/// `extract_unique`: ≈27 ms each (measured 1.7 s).
pub const COUNT_PASS_EXTRACT_UNIQUE: usize = 64;
/// `chat_stream`: ≈40 ms each (measured 2.0 s).
pub const COUNT_PASS_CHAT_STREAM: usize = 48;
/// `react_tools`: 64 repeated + 16 new, every person equally often;
/// ≈45 ms for a first sighting, ≈12 ms after (measured 2.1 s).
pub const COUNT_PASS_REACT_TOOLS: usize = 80;

// Paced rates: fixed absolute arrival rates, about half the one-client
// closed-loop rate at the seed commit (in brackets). PR 12 derived the
// rate from each run's own saturation throughput, which made the paced
// latencies a function of that run's noise.
/// `cot_repeat` paced arrivals per second (one client: ≈125/s).
pub const PACED_QPS_COT_REPEAT: f64 = 60.0;
/// `extract_unique` paced arrivals per second (one client: ≈36/s).
pub const PACED_QPS_EXTRACT_UNIQUE: f64 = 18.0;
/// `chat_stream` paced arrivals per second (one client: ≈25/s).
pub const PACED_QPS_CHAT_STREAM: f64 = 12.0;
/// `react_tools` paced arrivals per second (one client: ≈52/s).
pub const PACED_QPS_REACT_TOOLS: f64 = 25.0;

/// Turns per `chat_stream` query.
pub const CHAT_TURNS: usize = 4;
/// Tokens per `chat_stream` turn (the decoder's `max_length`).
pub const CHAT_TOKENS_PER_TURN: usize = 16;

// The fixed-work model of `chat_stream`: a constant number of dependent
// integer-mixer rounds per forward pass — not a sleep and not a
// clock-calibrated spin, so the work is the same on every machine and a
// faster core simply finishes it sooner.
// 33 000 rounds for a batch of one measured 132–136 µs per call here
// (`lm.score_us_p50`), against 250 µs for the n-gram model's pass.
/// Mixer rounds per batch.
pub const FIXED_WORK_PER_BATCH_OPS: u64 = 30_000;
/// Additional mixer rounds per context in the batch.
pub const FIXED_WORK_PER_ITEM_OPS: u64 = 3_000;

/// Queries whose inputs the direct per-function timings replay.
pub const DIRECT_SAMPLE_QUERIES: usize = 24;

/// `run_seconds` in `BENCHMARK.json`: the `--seconds` the driver passes.
/// A run takes `--seconds` + 3.9 s here (set-ups, count pass, oracle);
/// the driver's 92 runs and two 30-second builds then need ≈2 750 of its
/// 3 420 seconds. ISSUE 13 proposed 30, which leaves no margin for the
/// traced runs or a slower box.
pub const RUN_SECONDS: u64 = 25;
