//! The load generator: one streamed query timed at the client, and the
//! three ways of issuing them (sequential pass, closed loop, open loop).
//!
//! A query is sent with [`RemoteLm::stream_query`] — one dial per query,
//! as the client library does — its events are reassembled as
//! `RemoteQueryStream::into_result` would, and it is timed from the send
//! (closed loop) or from the moment it was due (open loop). A `BUSY`,
//! `RETRY` or `ERR` frame, a wire error or a stall past the read timeout
//! is a failed query in every phase.

use crate::spec;
use crate::trace::Spans;
use crate::workloads::{query, Workload};
use lmql::{QueryEvent, ReassembledQuery, Reassembler};
use lmql_server::RemoteLm;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What the client saw of one query.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Seconds from the phase start to the query's completion.
    pub at: f64,
    /// Seconds the generator sent this query after it was due (open loop;
    /// 0 in a closed loop).
    pub late_s: f64,
    /// Dial + `STREAM` frame write, seconds.
    pub dial_write_s: f64,
    /// Time zero (send, or due time in the open loop) → first event.
    pub first_event_s: f64,
    /// Time zero → first `TokenDelta`.
    pub ttft_s: f64,
    /// First `TokenDelta` → last `TokenDelta`.
    pub token_span_s: f64,
    /// `TokenDelta` events received.
    pub tokens: u64,
    /// Events received.
    pub events: u64,
    /// Time zero → terminal frame.
    pub latency_s: f64,
    /// Whether the query completed with a result.
    pub ok: bool,
}

/// A completed query with everything the count pass checks and counts.
#[derive(Debug, Clone)]
pub struct Completed {
    /// Client-side timings.
    pub sample: Sample,
    /// Every event, in arrival order.
    pub events: Vec<QueryEvent>,
    /// The reassembled result.
    pub result: ReassembledQuery,
}

/// Sends `source` and consumes its stream. `zero` is the instant the
/// query's clock starts; `phase_start` anchors `Sample::at`. With `keep`,
/// the events are returned as well.
fn run_query(
    client: &RemoteLm,
    source: &str,
    zero: Instant,
    phase_start: Instant,
    keep: bool,
) -> (Sample, Option<(Vec<QueryEvent>, ReassembledQuery)>) {
    let sent = Instant::now();
    let since = |t: Instant| t.duration_since(zero).as_secs_f64();
    let mut sample = Sample {
        at: 0.0,
        late_s: since(sent),
        dial_write_s: 0.0,
        first_event_s: 0.0,
        ttft_s: 0.0,
        token_span_s: 0.0,
        tokens: 0,
        events: 0,
        latency_s: 0.0,
        ok: false,
    };
    let mut kept = Vec::new();
    let mut reassembler = Reassembler::new();
    let mut first_token: Option<Instant> = None;
    let mut last_token = sent;
    let mut clean = true;
    match client.stream_query(source, Duration::from_secs(spec::QUERY_TIMEOUT_S)) {
        Err(_) => clean = false,
        Ok(stream) => {
            sample.dial_write_s = sent.elapsed().as_secs_f64();
            for item in stream {
                let now = Instant::now();
                let Ok(event) = item else {
                    clean = false;
                    break;
                };
                if sample.events == 0 {
                    sample.first_event_s = since(now);
                }
                sample.events += 1;
                if matches!(event, QueryEvent::TokenDelta { .. }) {
                    sample.tokens += 1;
                    first_token.get_or_insert(now);
                    last_token = now;
                }
                if reassembler.apply(&event).is_err() {
                    clean = false;
                    break;
                }
                if keep {
                    kept.push(event);
                }
            }
        }
    }
    let done = Instant::now();
    let result = reassembler.finish();
    sample.latency_s = since(done);
    sample.at = done.duration_since(phase_start).as_secs_f64();
    if let Some(first) = first_token {
        sample.ttft_s = since(first);
        sample.token_span_s = last_token.duration_since(first).as_secs_f64();
    }
    sample.ok = clean && result.error.is_none() && !result.runs.is_empty();
    let kept = (keep && sample.ok).then_some((kept, result));
    (sample, kept)
}

/// Sends one query now and consumes its stream.
pub fn one_query(client: &RemoteLm, source: &str) -> Sample {
    let now = Instant::now();
    run_query(client, source, now, now, false).0
}

/// Attempted and failed queries of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Queries sent.
    pub attempted: u64,
    /// Queries that did not complete with a result.
    pub failed: u64,
}

impl Tally {
    fn of(samples: &[Sample]) -> Tally {
        Tally {
            attempted: samples.len() as u64,
            failed: samples.iter().filter(|s| !s.ok).count() as u64,
        }
    }

    /// The sum of two tallies.
    pub fn plus(self, other: Tally) -> Tally {
        Tally {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
        }
    }
}

/// A timed phase's samples with its length and tally.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase length in seconds (samples completing later are kept but
    /// fall outside every slice).
    pub secs: f64,
    /// Every query sent in the phase.
    pub samples: Vec<Sample>,
    /// Attempted and failed.
    pub tally: Tally,
}

/// Index ranges, so that no two phases ever send the same fresh query.
const LATENCY_BASE: u64 = 1_000_000;
const THROUGHPUT_BASE: u64 = 2_000_000;
const CLIENT_STRIDE: u64 = 500_000;
const PACED_BASE: u64 = 4_000_000;

/// A sequential pass over `sources`: one client, each query sent when the
/// previous one completed. The count pass, and — with `spans`
/// recording — level L2 of the traced run. Returns every sample and, for
/// the queries that completed, what came back.
pub fn sequential_pass(
    client: &RemoteLm,
    sources: &[String],
    spans: &Spans,
    root: &'static str,
) -> (Vec<Sample>, Vec<Option<Completed>>) {
    let start = Instant::now();
    let mut samples = Vec::with_capacity(sources.len());
    let mut completed = Vec::with_capacity(sources.len());
    for (i, source) in sources.iter().enumerate() {
        let guard = spans.begin_query(root, i as u32);
        let zero = guard.start();
        let (sample, kept) = run_query(client, source, zero, start, true);
        spans.record_until(
            "client.dial_write",
            zero,
            zero + Duration::from_secs_f64(sample.dial_write_s),
            1,
        );
        spans.record_until(
            "client.first_event",
            zero,
            zero + Duration::from_secs_f64(sample.first_event_s),
            1,
        );
        guard.finish();
        completed.push(kept.map(|(events, result)| Completed {
            sample: sample.clone(),
            events,
            result,
        }));
        samples.push(sample);
    }
    (samples, completed)
}

/// A closed loop of `clients` callers for `secs` seconds: each sends its
/// next query the moment the previous one completed.
///
/// That moment beats against the server's accept loop, which polls every
/// 5 ms: when a query takes close to a multiple of the period, every query
/// of a run waits about the same slice of it for its connection. It is
/// why `cot_repeat`'s repeated questions all take one poll period, and why
/// two runs of `chat_stream` (40 ms a query) can differ by a millisecond
/// in time to first token. A seeded think time of 0–10 ms before each send
/// was tried: it steadied `chat_stream` (time to first token 5.6 % between
/// seeds instead of 10–15 %) and unsteadied `cot_repeat`, whose 5 ms
/// queries then start from an idle machine (latency 7.1 % instead of
/// 1–4 %), so the loop stays as simple as it is.
pub fn closed_loop(
    client: &RemoteLm,
    workload: Workload,
    seed: u64,
    clients: usize,
    secs: f64,
) -> Phase {
    assert!((1..=spec::THROUGHPUT_CLIENTS).contains(&clients));
    let base = if clients == 1 {
        LATENCY_BASE
    } else {
        THROUGHPUT_BASE
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        let source = query(workload, seed, base + c * CLIENT_STRIDE + i);
                        mine.push(run_query(client, &source, Instant::now(), start, false).0);
                        i += 1;
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        secs,
        tally: Tally::of(&samples),
        samples,
    }
}

/// An open loop at `rate` arrivals per second for `secs` seconds, evenly
/// spaced. Two sender threads take arrivals in order; a query is timed
/// from the moment it was due, so a stall shows up in the latency of the
/// queries behind it, and how late each was actually sent is kept.
pub fn paced(client: &RemoteLm, workload: Workload, seed: u64, rate: f64, secs: f64) -> Phase {
    let arrivals = (rate * secs).floor() as u64;
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec::THROUGHPUT_CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= arrivals {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(k as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let source = query(workload, seed, PACED_BASE + k);
                        mine.push(run_query(client, &source, due, start, false).0);
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        secs,
        tally: Tally::of(&samples),
        samples,
    }
}
