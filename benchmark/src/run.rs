//! One run: set-up, count pass, oracle, the three timed phases and — when
//! tracing — the per-layer passes, turned into named metrics.

use crate::layers::{self, Shape};
use crate::load::{closed_loop, paced, sequential_pass, Completed, Phase, Sample, Tally};
use crate::proc;
use crate::report::Metrics;
use crate::spec;
use crate::stats::{
    mean, median, per_slice, percentile, rate_per_slice, slice_of, tail, Better, SliceSummary,
};
use crate::trace::{self, Spans};
use crate::verify;
use crate::workloads::{query, Stack, Workload};
use lmql::QueryEvent;
use lmql_obs::MetricsSnapshot;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The traffic mix.
    pub workload: Workload,
    /// Names the exact input sequence.
    pub seed: u64,
    /// Sum of the three timed phases, seconds.
    pub seconds: f64,
    /// Whether to run the per-layer passes and report per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace (`None`: nowhere).
    pub trace_dir: Option<PathBuf>,
    /// How many count-pass queries to print, source and result, to
    /// standard error.
    pub show: usize,
    /// Where to write every timed sample as CSV (`None`: nowhere).
    pub samples: Option<PathBuf>,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Queries sent, all phases.
    pub attempted: u64,
    /// Queries that failed, all phases.
    pub failed: u64,
    /// End-to-end metrics (and per-layer metrics when tracing).
    pub metrics: Metrics,
    /// Digest of the count pass.
    pub digest: String,
    /// Human-readable notes for standard error.
    pub notes: Vec<String>,
}

fn ok_values(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().filter(|s| s.ok).map(f).collect()
}

fn ok_at(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<(f64, f64)> {
    samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.at, f(s)))
        .collect()
}

/// Mean gap between output tokens per slice: Σ(last − first token time)
/// over Σ(tokens − 1), over the slice's queries with at least two tokens.
fn itl_per_slice(phase: &Phase) -> SliceSummary {
    let mut span = [0.0f64; spec::SLICES];
    let mut gaps = [0u64; spec::SLICES];
    for s in phase.samples.iter().filter(|s| s.ok && s.tokens >= 2) {
        if let Some(i) = slice_of(s.at, phase.secs, spec::SLICES) {
            span[i] += s.token_span_s;
            gaps[i] += s.tokens - 1;
        }
    }
    SliceSummary {
        values: span
            .iter()
            .zip(&gaps)
            .filter(|(_, &g)| g > 0)
            .map(|(s, &g)| s / g as f64)
            .collect(),
    }
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counter(name).unwrap_or(0) as f64
}

fn wire_bytes(events: &[QueryEvent]) -> usize {
    // "EVENT " + payload + "\n" per event, then "DONE\n".
    events.iter().map(|e| 7 + e.to_wire().len()).sum::<usize>() + 5
}

/// Every sample of the timed phases, one CSV row each.
fn samples_csv(phases: &[(&str, &Phase)]) -> String {
    let mut csv = String::from(
        "phase,at_s,ok,late_ms,dial_write_ms,first_event_ms,ttft_ms,token_span_ms,tokens,latency_ms\n",
    );
    for (name, phase) in phases {
        for s in &phase.samples {
            csv.push_str(&format!(
                "{name},{:.6},{},{:.4},{:.4},{:.4},{:.4},{:.4},{},{:.4}\n",
                s.at,
                u8::from(s.ok),
                s.late_s * 1e3,
                s.dial_write_s * 1e3,
                s.first_event_s * 1e3,
                s.ttft_s * 1e3,
                s.token_span_s * 1e3,
                s.tokens,
                s.latency_s * 1e3
            ));
        }
    }
    csv
}

/// Samples the process's thread count while `f` runs.
fn with_thread_peak<T>(enabled: bool, f: impl FnOnce() -> T) -> (T, u64) {
    if !enabled {
        return (f(), 0);
    }
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(proc::threads_now());
    let out = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                peak.fetch_max(proc::threads_now(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let out = f();
        stop.store(true, Ordering::Release);
        out
    });
    (out, peak.load(Ordering::Relaxed))
}

/// Starts and stops the workload's stack [`spec::SETUPS_PER_RUN`] times on
/// a helper thread and returns how long each start took.
///
/// Set-up is one thread's memory-bound work (tokenizer training is 97 % of
/// it), and on a shared 2-core box the same set-up takes 56 ms or 75 ms
/// depending on where and when the thread runs; a thread that stays put
/// saw one or the other for a whole run, and run medians spread over
/// 54–77 ms. The helper pins itself to each allowed CPU in turn, so every
/// core gets an equal share of the samples (run medians 71–80 ms, six in
/// eight within 75–80). The serving stack is started afterwards by the
/// caller, un-pinned: a pinned thread's children would inherit the mask.
fn timed_setups(workload: Workload, spans: &Spans) -> std::io::Result<Vec<f64>> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let cpus = proc::allowed_cpus();
                let mut secs = Vec::with_capacity(spec::SETUPS_PER_RUN);
                for i in 0..spec::SETUPS_PER_RUN {
                    if !cpus.is_empty() {
                        proc::pin_to(&[cpus[i % cpus.len()]]);
                    }
                    let start = Instant::now();
                    let stack = Stack::start(workload, spans)?;
                    secs.push(start.elapsed().as_secs_f64());
                    stack.client.quit();
                    stack.server.shutdown();
                }
                Ok(secs)
            })
            .join()
            .expect("set-up thread panicked")
    })
}

/// Runs `config` and reports.
///
/// # Errors
///
/// Socket errors from starting a server or connecting to it.
pub fn run(config: &Config) -> std::io::Result<Report> {
    let workload = config.workload;
    let seed = config.seed;
    let spans = Spans::new();
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // 1. Set-up, several times, then once more for the stack that serves.
    let setups = timed_setups(workload, &spans)?;
    m.set("setup_s", median(&setups));
    let stack = Stack::start(workload, &spans)?;

    // 2. Count pass: warm-up, every count metric, the correctness sample.
    let n = workload.count_pass_queries();
    let sources: Vec<String> = (0..n as u64).map(|i| query(workload, seed, i)).collect();
    let before_lm = stack.lm_probe.read();
    let before_tool = stack.tool_probe.read();
    let before_cache = stack.server.cache_stats();
    let count_start = Instant::now();
    let (count_samples, wire) = sequential_pass(&stack.client, &sources, &spans, "L2.query");
    let count_pass_s = count_start.elapsed().as_secs_f64();
    let after_lm = stack.lm_probe.read();
    let after_tool = stack.tool_probe.read();
    let after_cache = stack.server.cache_stats();
    let count_tally = Tally {
        attempted: n as u64,
        failed: count_samples.iter().filter(|s| !s.ok).count() as u64,
    };
    let per_query = |total: f64| total / n as f64;
    let done: Vec<&Completed> = wire.iter().flatten().collect();
    let usage_sum = |f: fn((u64, u64, u64)) -> u64| -> f64 {
        done.iter()
            .map(|c| f(c.result.usage.unwrap_or((0, 0, 0))) as f64)
            .sum()
    };
    let contexts = (after_lm.1 - before_lm.1) as f64;
    let calls = (after_lm.0 - before_lm.0) as f64;
    m.set("model_queries_per_query", per_query(contexts));
    m.set("billable_tokens_per_query", per_query(usage_sum(|u| u.2)));

    for (i, (source, c)) in sources.iter().zip(&wire).enumerate().take(config.show) {
        notes.push(format!(
            "--- query {i} ---\n{source}--- result {i} ---\n{}",
            c.as_ref().map_or("<failed>".to_owned(), |c| format!(
                "{}\nusage (model queries, decoder calls, billable tokens) = {:?}",
                c.result.runs.first().map_or("", |r| r.trace.as_str()),
                c.result.usage
            )),
        ));
    }

    // 3. Oracle.
    let oracle_start = Instant::now();
    let oracle = verify::oracle_pass(workload, &stack.substrate, &sources, &wire);
    let oracle_s = oracle_start.elapsed().as_secs_f64();
    // Read after the oracle pass: a handler bumps `server.requests` after
    // its client has already seen `DONE`.
    let after_server = stack.server.metrics_snapshot();
    let digest = verify::digest(&wire);
    let mut correct = oracle.mismatches == 0 && count_tally.failed == 0;
    if let Some(why) = &oracle.first_mismatch {
        notes.push(format!(
            "oracle: {} of {n} results differ; first: {why}",
            oracle.mismatches
        ));
    }
    if seed == 1 && digest != verify::expected_digest(workload) {
        correct = false;
        notes.push(format!(
            "digest {digest} differs from the committed {} for --seed 1",
            verify::expected_digest(workload)
        ));
    }

    // 4. The timed phases.
    let lm_before_lat = stack.lm_probe.read();
    let cache_before_lat = stack.server.cache_stats();
    let latency = closed_loop(
        &stack.client,
        workload,
        seed,
        1,
        config.seconds * spec::LATENCY_SHARE,
    );
    let lm_after_lat = stack.lm_probe.read();
    let cache_after_lat = stack.server.cache_stats();
    let cpu_before = proc::usage();
    let lm_before_tp = stack.lm_probe.read();
    let (throughput, threads_peak) = with_thread_peak(config.trace, || {
        closed_loop(
            &stack.client,
            workload,
            seed,
            spec::THROUGHPUT_CLIENTS,
            config.seconds * spec::THROUGHPUT_SHARE,
        )
    });
    let lm_after_tp = stack.lm_probe.read();
    let cpu_after = proc::usage();
    let paced_phase = paced(
        &stack.client,
        workload,
        seed,
        workload.paced_rate_qps(),
        config.seconds * spec::PACED_SHARE,
    );

    let latency_slices = per_slice(
        &ok_at(&latency.samples, |s| s.latency_s * 1e3),
        latency.secs,
        spec::SLICES,
        median,
    );
    let itl_slices = itl_per_slice(&latency);
    let rate_slices = rate_per_slice(
        &ok_values(&throughput.samples, |s| s.at),
        throughput.secs,
        spec::SLICES,
    );
    // A median over the whole phase already ignores disturbed samples;
    // the two mean-like metrics are protected by the slices (`stats.rs`).
    m.set(
        "latency_p50_ms",
        median(&ok_values(&latency.samples, |s| s.latency_s * 1e3)),
    );
    m.set(
        "ttft_p50_ms",
        median(&ok_values(&latency.samples, |s| s.ttft_s * 1e3)),
    );
    m.set("itl_mean_ms", itl_slices.quiet(Better::Lower) * 1e3);
    m.set("throughput_qps", rate_slices.quiet(Better::Higher));

    if let Some(path) = &config.samples {
        let phases = [
            ("latency", &latency),
            ("throughput", &throughput),
            ("paced", &paced_phase),
        ];
        if let Err(e) = std::fs::write(path, samples_csv(&phases)) {
            notes.push(format!("could not write {}: {e}", path.display()));
        }
    }
    let list = |values: &[f64], scale: f64| -> String {
        let cells: Vec<String> = values.iter().map(|v| format!("{:.4}", v * scale)).collect();
        cells.join(" ")
    };
    let quartiles = |values: &[f64]| -> String {
        let q = |p| percentile(values, p).unwrap_or(0.0);
        format!(
            "{:.4} / {:.4} / {:.4} (n = {})",
            q(25.0),
            q(50.0),
            q(75.0),
            values.len()
        )
    };
    notes.push(format!(
        "set-ups, s: {}\nlatency ms, quartiles: {}\nttft ms, quartiles: {}\n\
         slice medians, latency ms: {}\nslice means, itl ms: {}\nslice rates, 1/s: {}",
        list(&setups, 1.0),
        quartiles(&ok_values(&latency.samples, |s| s.latency_s * 1e3)),
        quartiles(&ok_values(&latency.samples, |s| s.ttft_s * 1e3)),
        list(&latency_slices.values, 1.0),
        list(&itl_slices.values, 1e3),
        list(&rate_slices.values, 1.0),
    ));

    let tally = count_tally
        .plus(latency.tally)
        .plus(throughput.tally)
        .plus(paced_phase.tally);
    notes.push(format!(
        "{} seed {seed}: count pass {n} queries in {count_pass_s:.2} s ({} failed), oracle {oracle_s:.2} s, \
         latency phase {}/{} ok, throughput phase {}/{} ok, paced phase {}/{} ok",
        workload.name(),
        count_tally.failed,
        latency.tally.attempted - latency.tally.failed,
        latency.tally.attempted,
        throughput.tally.attempted - throughput.tally.failed,
        throughput.tally.attempted,
        paced_phase.tally.attempted - paced_phase.tally.failed,
        paced_phase.tally.attempted,
    ));

    if config.trace {
        let end_server = stack.server.metrics_snapshot();
        let end_cache = stack.server.cache_stats();

        // client
        let lat = ok_values(&latency.samples, |s| s.latency_s * 1e3);
        let (tail_pct, lat_tail) = tail(&lat);
        m.set("client.samples_latency", lat.len() as f64);
        m.set(
            "client.samples_throughput",
            ok_values(&throughput.samples, |s| s.at)
                .iter()
                .filter(|&&at| at < throughput.secs)
                .count() as f64,
        );
        m.set("client.latency_tail_ms", lat_tail);
        m.set(
            "client.ttft_tail_ms",
            percentile(&ok_values(&latency.samples, |s| s.ttft_s * 1e3), tail_pct).unwrap_or(0.0),
        );
        m.set("client.tail_pct", tail_pct);
        m.set(
            "client.latency_slice_quiet_ms",
            latency_slices.quiet(Better::Lower),
        );
        m.set(
            "client.latency_slice_worst_ms",
            latency_slices.worst(Better::Lower),
        );
        m.set("client.throughput_slice_median_qps", rate_slices.median());
        m.set(
            "client.throughput_slice_min_qps",
            rate_slices.worst(Better::Higher),
        );
        let paced_lat = ok_values(&paced_phase.samples, |s| s.latency_s * 1e3);
        let (paced_pct, paced_tail) = tail(&paced_lat);
        m.set("client.paced_rate_qps", workload.paced_rate_qps());
        m.set("client.paced_latency_p50_ms", median(&paced_lat));
        m.set("client.paced_latency_tail_ms", paced_tail);
        m.set(
            "client.paced_lateness_tail_ms",
            percentile(
                &paced_phase
                    .samples
                    .iter()
                    .map(|s| s.late_s * 1e3)
                    .collect::<Vec<_>>(),
                paced_pct,
            )
            .unwrap_or(0.0),
        );
        m.set(
            "client.dial_write_us_p50",
            median(&ok_values(&latency.samples, |s| s.dial_write_s * 1e6)),
        );
        m.set("bench.slice_spread", latency_slices.spread(Better::Lower));
        m.set("bench.count_pass_s", count_pass_s);
        m.set("bench.oracle_verify_s", oracle_s);

        // Counts from the count pass.
        let events: f64 = done.iter().map(|c| c.events.len() as f64).sum();
        let deltas: f64 = done.iter().map(|c| c.sample.tokens as f64).sum();
        let holes: f64 = done
            .iter()
            .map(|c| c.result.runs.iter().map(|r| r.holes.len()).sum::<usize>() as f64)
            .sum();
        // A scheduler request either hits the radix cache or reaches the
        // model (the cache's own miss counter sees a miss twice: on the
        // fast path and again at dispatch).
        let hits = (after_cache.hits - before_cache.hits) as f64;
        let lookups = hits + contexts;
        m.set("stream.events_per_query", per_query(events));
        m.set(
            "stream.wire_bytes_per_query",
            per_query(done.iter().map(|c| wire_bytes(&c.events) as f64).sum()),
        );
        m.set(
            "server.requests",
            // The server is fresh: the tokenizer hand-shake plus the pass.
            counter(&after_server, "server.requests"),
        );
        m.set("server.shed", counter(&end_server, "server.shed"));
        m.set(
            "server.request_latency_us_mean",
            end_server
                .histogram("server.request_latency_us")
                .map_or(0.0, |h| h.mean()),
        );
        m.set(
            "server.first_event_ms_p50",
            median(&ok_values(&latency.samples, |s| s.first_event_s * 1e3)),
        );
        m.set("router.shed", counter(&end_server, "router.shed"));
        m.set(
            "router.failovers",
            counter(&end_server, "engine.replica.failover"),
        );
        let replica_queries: Vec<f64> = (0..spec::POOL_REPLICAS)
            .map(|i| counter(&end_server, &format!("router.replica.{i}.queries")))
            .collect();
        m.set(
            "router.replica_imbalance",
            if workload.pooled() && mean(&replica_queries) > 0.0 {
                replica_queries.iter().copied().fold(0.0, f64::max) / mean(&replica_queries)
            } else {
                0.0
            },
        );
        m.set("sched.dispatches_per_query", per_query(calls));
        m.set(
            "sched.singleflight_merges_per_query",
            per_query(counter(&after_server, "engine.singleflight.merges")),
        );
        let tp_calls = (lm_after_tp.0 - lm_before_tp.0) as f64;
        m.set(
            "sched.batch_size_mean",
            if tp_calls > 0.0 {
                (lm_after_tp.1 - lm_before_tp.1) as f64 / tp_calls
            } else {
                0.0
            },
        );
        // Steady state (the latency phase): the count pass starts cold.
        let lat_hits = (cache_after_lat.hits - cache_before_lat.hits) as f64;
        let lat_lookups = lat_hits + (lm_after_lat.1 - lm_before_lat.1) as f64;
        m.set(
            "radix.hit_rate",
            if lat_lookups > 0.0 {
                lat_hits / lat_lookups
            } else {
                0.0
            },
        );
        m.set(
            "radix.evictions_per_query",
            end_cache.evictions as f64 / tally.attempted.max(1) as f64,
        );
        m.set("radix.entries", end_cache.entries as f64);
        m.set("radix.bytes_mb", end_cache.bytes as f64 / (1 << 20) as f64);
        m.set("lm.forward_per_query", per_query(contexts));
        m.set(
            "lm.batch_size_mean",
            if calls > 0.0 { contexts / calls } else { 0.0 },
        );
        m.set("runtime.holes_per_query", per_query(holes));
        m.set(
            "runtime.decoder_calls_per_query",
            per_query(usage_sum(|u| u.1)),
        );
        m.set(
            "syntax.source_bytes",
            per_query(sources.iter().map(|s| s.len() as f64).sum()),
        );
        let mask_steps = per_query(deltas + holes);
        m.set("mask.steps_per_query", mask_steps);
        m.set(
            "tool.calls_per_query",
            per_query((after_tool.0 - before_tool.0) as f64),
        );

        // The process, over the throughput phase.
        let tp_done = throughput.tally.attempted.max(1) as f64;
        let cpu = (cpu_after.user_s - cpu_before.user_s) + (cpu_after.sys_s - cpu_before.sys_s);
        m.set("proc.cpu_ms_per_query", cpu * 1e3 / tp_done);
        m.set(
            "proc.sys_share",
            if cpu > 0.0 {
                (cpu_after.sys_s - cpu_before.sys_s) / cpu
            } else {
                0.0
            },
        );
        m.set(
            "proc.ctx_switches_per_query",
            (cpu_after.ctx_switches - cpu_before.ctx_switches) as f64 / tp_done,
        );
        m.set("proc.threads_peak", threads_peak as f64);

        // What the runtime itself reported at L0.
        let l0_reg = oracle.registry.snapshot();
        let memo_hits = counter(&l0_reg, "mask.cache.hit");
        let memo_lookups = memo_hits + counter(&l0_reg, "mask.cache.miss");
        m.set(
            "mask.memo_hit_rate",
            if memo_lookups > 0.0 {
                memo_hits / memo_lookups
            } else {
                0.0
            },
        );
        m.set(
            "mask.parallel_chunks_per_query",
            per_query(counter(&l0_reg, "mask.scan.parallel_chunks")),
        );
        m.set(
            "automata.hit_rate",
            if mask_steps > 0.0 {
                (per_query(counter(&l0_reg, "automata.hit")) / mask_steps).min(1.0)
            } else {
                0.0
            },
        );
        m.set(
            "automata.fast_forwarded_per_query",
            per_query(counter(&l0_reg, "automata.fast_forwarded_tokens")),
        );
        m.set(
            "automata.compile_us_mean",
            l0_reg
                .histogram("automata.compile_us")
                .map_or(0.0, |h| h.mean()),
        );
        m.set(
            "automata.states",
            l0_reg.gauge("automata.states").unwrap_or(0) as f64,
        );

        // 5. The levels, interleaved on cold stacks, and the direct
        // timings.
        let levels = layers::interleaved_levels(workload, &sources, &stack.substrate, &spans)?;
        spans.set_recording(true);
        let direct = layers::direct_timings(workload, &sources, &stack.substrate, &wire, &spans);
        let direct_spans = spans.take();
        spans.set_recording(false);
        let (l0, l1, l2) = (&levels.l0, &levels.l1, &levels.l2);

        let us = |v: f64| v * 1e6;
        m.set("syntax.parse_us_per_query", us(mean(&direct.parse)));
        m.set("compile.us_per_query", us(mean(&direct.compile)));
        m.set(
            "runtime.parallel_groups_per_query",
            mean(&direct.parallel_groups),
        );
        m.set(
            "tokenizer.fingerprint_us_p50",
            us(median(&direct.fingerprint)),
        );
        m.set("tokenizer.encode_us_per_query", us(mean(&direct.encode)));
        m.set(
            "tokenizer.encode_tokens_per_query",
            mean(&direct.encode_tokens),
        );
        m.set("mask.us_per_step_default", us(mean(&direct.mask_default)));
        m.set(
            "mask.us_per_step_reference",
            us(mean(&direct.mask_reference)),
        );
        m.set(
            "lm.softmax_pick_us_per_step",
            us(mean(&direct.softmax_pick)),
        );
        m.set("stream.encode_us_per_event", us(mean(&direct.to_wire)));
        m.set("stream.decode_us_per_event", us(mean(&direct.from_wire)));
        m.set(
            "stream.write_flush_us_per_event",
            us(mean(&direct.write_flush)),
        );
        m.set(
            "stream.reassemble_us_per_query",
            us(mean(&direct.reassemble)),
        );
        m.set("radix.get_us_p50", us(median(&direct.radix_get)));
        m.set("radix.insert_us_p50", us(median(&direct.radix_insert)));
        m.set(
            "sched.roundtrip_us_p50",
            us(median(&direct.sched_roundtrip)),
        );
        let wait_us = levels.wait_us_mean.unwrap_or(direct.sched_wait_us_mean);
        m.set("sched.wait_us_mean", wait_us);
        m.set("router.route_us_p50", us(median(&levels.route_secs)));
        m.set("router.self_ms_per_query", mean(&levels.route_secs) * 1e3);
        m.set("router.affinity_hit_rate", levels.affinity_hit_rate);

        m.set("lm.busy_ms_per_query", mean(&l2.lm_secs) * 1e3);
        m.set("lm.score_us_p50", us(median(&l2.lm_calls)));
        m.set("tool.busy_us_per_query", us(mean(&l2.tool_secs)));
        m.set("runtime.execute_ms_p50", median(&l0.query_secs) * 1e3);
        let shape = Shape {
            events: per_query(events),
            mask_steps,
            misses: per_query(contexts),
            requests: per_query(lookups),
        };
        let attribution = layers::attribute(&levels, &direct, wait_us, shape);
        let runtime_children = attribution.mask
            + attribution.tokenizer
            + attribution.frontend
            + mean(&direct.softmax_pick) * per_query(l0.lm_items as f64);
        let (out0, out1, out2) = (l0.outside(), l1.outside(), l2.outside());
        m.set(
            "runtime.self_ms_per_query",
            (median(&out0) - runtime_children) * 1e3,
        );
        m.set(
            "engine.self_ms_per_query",
            layers::paired_median(&out1, &out0) * 1e3,
        );
        m.set(
            "server.self_ms_per_query",
            layers::paired_median(&out2, &out1) * 1e3,
        );
        m.set("trace.share_lm", attribution.share(attribution.lm));
        m.set("trace.share_mask", attribution.share(attribution.mask));
        m.set(
            "trace.share_sched_wait",
            attribution.share(attribution.sched_wait),
        );
        m.set("trace.share_stream", attribution.share(attribution.stream));
        m.set(
            "trace.share_tokenizer_tool",
            attribution.share(attribution.tokenizer + attribution.tool),
        );
        m.set("trace.unattributed_share", attribution.unattributed_share());
        let untraced_p50 = median(&levels.l2_untraced);
        m.set(
            "trace.overhead_share",
            if untraced_p50 > 0.0 {
                layers::paired_median(&l2.query_secs, &levels.l2_untraced) / untraced_p50
            } else {
                0.0
            },
        );
        notes.push(format!(
            "levels, median ms per query (outside model and tools): L0 {:.3} ({:.3}), L1 {:.3} ({:.3}), \
             L2 {:.3} ({:.3}), L2 untraced {:.3}; attributed of L2's mean {:.3}: lm {:.3} tool {:.3} mask {:.3} \
             sched-wait {:.3} stream {:.3} tokenizer {:.3} parse+compile {:.3} softmax+pick {:.3} radix {:.3} \
             connect {:.3}",
            median(&l0.query_secs) * 1e3,
            median(&out0) * 1e3,
            median(&l1.query_secs) * 1e3,
            median(&out1) * 1e3,
            median(&l2.query_secs) * 1e3,
            median(&out2) * 1e3,
            untraced_p50 * 1e3,
            attribution.whole * 1e3,
            attribution.lm * 1e3,
            attribution.tool * 1e3,
            attribution.mask * 1e3,
            attribution.sched_wait * 1e3,
            attribution.stream * 1e3,
            attribution.tokenizer * 1e3,
            attribution.frontend * 1e3,
            attribution.pick * 1e3,
            attribution.radix * 1e3,
            attribution.connect * 1e3,
        ));

        if let Some(dir) = &config.trace_dir {
            let mut all = levels.spans.clone();
            all.extend(direct_spans);
            let path = dir.join(format!("{}.trace.json", workload.name()));
            match std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, trace::to_chrome_json(&all)))
            {
                Ok(()) => notes.push(format!("{} spans written to {}", all.len(), path.display())),
                Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
            }
        }
        // Peak memory last: it covers the traced passes too.
        m.set("proc.peak_rss_mb", proc::usage().peak_rss_mb);
    }

    stack.client.quit();
    stack.server.shutdown();
    Ok(Report {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        digest,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn smoke(workload: Workload, trace: bool) -> Report {
        run(&Config {
            workload,
            // Seed 1 also checks the committed digest.
            seed: 1,
            seconds: 2.0,
            trace,
            trace_dir: None,
            show: 0,
            samples: None,
        })
        .expect("the run starts its servers")
    }

    fn sorted(mut names: Vec<&'static str>) -> Vec<&'static str> {
        names.sort_unstable();
        names
    }

    #[test]
    fn two_second_run_of_every_workload_is_correct_and_emits_the_end_to_end_names() {
        for workload in Workload::ALL {
            let report = smoke(workload, false);
            assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
            assert_eq!(report.failed, 0, "{}", workload.name());
            assert!(report.attempted as usize > workload.count_pass_queries());
            assert_eq!(
                sorted(report.metrics.names()),
                sorted(END_TO_END.iter().map(|m| m.0).collect()),
                "{}",
                workload.name()
            );
            for (name, ..) in END_TO_END {
                assert!(
                    report.metrics.get(name).unwrap() > 0.0,
                    "{} {name} must never be 0",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn traced_run_of_every_workload_emits_every_name_and_nothing_else() {
        let all: Vec<&'static str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for workload in Workload::ALL {
            let report = smoke(workload, true);
            assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
            assert_eq!(
                sorted(report.metrics.names()),
                sorted(all.clone()),
                "{}",
                workload.name()
            );
        }
    }
}
