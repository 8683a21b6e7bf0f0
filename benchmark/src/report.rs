//! Metric names, units and directions — the single table `BENCHMARK.json`
//! is generated from — and the JSON the run prints.

use crate::stats::Better::{self, Higher, Lower};
use crate::workloads::Workload;

/// An end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may get worse before it is a regression.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// The end-to-end metrics, every one emitted by every workload.
///
/// The timing bounds are what a 2-core shared box allows: unchanged code
/// moves by 4–13 % between seeds (interquartile, `BASELINE.md`), so a
/// tighter bound would reject unchanged code. The two count metrics
/// repeat exactly for one seed; their bound covers the spread *between*
/// seeds (0 on three workloads, under 2 % on `extract_unique`).
pub const END_TO_END: &[EndToEnd] = &[
    ("setup_s", "s", Lower, 0.25),
    ("throughput_qps", "1/s", Higher, 0.25),
    ("latency_p50_ms", "ms", Lower, 0.25),
    ("ttft_p50_ms", "ms", Lower, 0.25),
    ("itl_mean_ms", "ms", Lower, 0.25),
    ("model_queries_per_query", "count", Lower, 0.05),
    ("billable_tokens_per_query", "count", Lower, 0.05),
];

/// A per-layer metric: name, unit and direction.
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer metrics, every one emitted by every workload's traced
/// run (a layer the workload bypasses reports 0).
pub const PER_LAYER: &[PerLayer] = &[
    // client (the load generator): explains the end-to-end numbers.
    ("client.samples_latency", "count", Higher),
    ("client.samples_throughput", "count", Higher),
    ("client.latency_tail_ms", "ms", Lower),
    ("client.ttft_tail_ms", "ms", Lower),
    ("client.tail_pct", "%", Higher),
    ("client.latency_slice_quiet_ms", "ms", Lower),
    ("client.latency_slice_worst_ms", "ms", Lower),
    ("client.throughput_slice_median_qps", "1/s", Higher),
    ("client.throughput_slice_min_qps", "1/s", Higher),
    ("client.paced_rate_qps", "1/s", Higher),
    ("client.paced_latency_p50_ms", "ms", Lower),
    ("client.paced_latency_tail_ms", "ms", Lower),
    ("client.paced_lateness_tail_ms", "ms", Lower),
    ("client.dial_write_us_p50", "us", Lower),
    // server.rs, protocol.rs, client.rs
    ("server.self_ms_per_query", "ms", Lower),
    ("server.first_event_ms_p50", "ms", Lower),
    ("server.request_latency_us_mean", "us", Lower),
    ("server.requests", "count", Lower),
    ("server.shed", "count", Lower),
    // core/stream.rs
    ("stream.events_per_query", "count", Lower),
    ("stream.wire_bytes_per_query", "count", Lower),
    ("stream.encode_us_per_event", "us", Lower),
    ("stream.decode_us_per_event", "us", Lower),
    ("stream.write_flush_us_per_event", "us", Lower),
    ("stream.reassemble_us_per_query", "us", Lower),
    // engine/router.rs
    ("router.self_ms_per_query", "ms", Lower),
    ("router.route_us_p50", "us", Lower),
    ("router.affinity_hit_rate", "ratio", Higher),
    ("router.replica_imbalance", "ratio", Lower),
    ("router.shed", "count", Lower),
    ("router.failovers", "count", Lower),
    // engine/run.rs
    ("engine.self_ms_per_query", "ms", Lower),
    // engine/sched.rs
    ("sched.roundtrip_us_p50", "us", Lower),
    ("sched.wait_us_mean", "us", Lower),
    ("sched.batch_size_mean", "count", Higher),
    ("sched.dispatches_per_query", "count", Lower),
    ("sched.singleflight_merges_per_query", "count", Higher),
    // engine/radix.rs
    ("radix.hit_rate", "ratio", Higher),
    ("radix.get_us_p50", "us", Lower),
    ("radix.insert_us_p50", "us", Lower),
    ("radix.evictions_per_query", "count", Lower),
    ("radix.entries", "count", Lower),
    ("radix.bytes_mb", "MiB", Lower),
    // lm: model, logits, meter
    ("lm.forward_per_query", "count", Lower),
    ("lm.busy_ms_per_query", "ms", Lower),
    ("lm.batch_size_mean", "count", Higher),
    ("lm.score_us_p50", "us", Lower),
    ("lm.softmax_pick_us_per_step", "us", Lower),
    // core: runtime, interp, decode, parallel
    ("runtime.execute_ms_p50", "ms", Lower),
    ("runtime.self_ms_per_query", "ms", Lower),
    ("runtime.holes_per_query", "count", Lower),
    ("runtime.decoder_calls_per_query", "count", Lower),
    ("runtime.parallel_groups_per_query", "count", Higher),
    // syntax, core/compile.rs
    ("syntax.parse_us_per_query", "us", Lower),
    ("syntax.source_bytes", "count", Lower),
    ("compile.us_per_query", "us", Lower),
    // core/constraints
    ("mask.steps_per_query", "count", Lower),
    ("mask.us_per_step_default", "us", Lower),
    ("mask.us_per_step_reference", "us", Lower),
    ("mask.memo_hit_rate", "ratio", Higher),
    ("mask.parallel_chunks_per_query", "count", Lower),
    // automata
    ("automata.hit_rate", "ratio", Higher),
    ("automata.fast_forwarded_per_query", "count", Higher),
    ("automata.compile_us_mean", "us", Lower),
    ("automata.states", "count", Lower),
    // tokenizer
    ("tokenizer.encode_us_per_query", "us", Lower),
    ("tokenizer.encode_tokens_per_query", "count", Lower),
    ("tokenizer.fingerprint_us_p50", "us", Lower),
    // core/tool.rs
    ("tool.calls_per_query", "count", Lower),
    ("tool.busy_us_per_query", "us", Lower),
    // the process
    ("proc.cpu_ms_per_query", "ms", Lower),
    ("proc.peak_rss_mb", "MiB", Lower),
    ("proc.sys_share", "ratio", Lower),
    ("proc.ctx_switches_per_query", "count", Lower),
    ("proc.threads_peak", "count", Lower),
    // the trace itself, and the benchmark
    ("trace.share_lm", "ratio", Lower),
    ("trace.share_mask", "ratio", Lower),
    ("trace.share_sched_wait", "ratio", Lower),
    ("trace.share_stream", "ratio", Lower),
    ("trace.share_tokenizer_tool", "ratio", Lower),
    ("trace.unattributed_share", "ratio", Lower),
    ("trace.overhead_share", "ratio", Lower),
    ("bench.count_pass_s", "s", Lower),
    ("bench.oracle_verify_s", "s", Lower),
    ("bench.slice_spread", "ratio", Lower),
];

/// Why each workload is in the benchmark (one line each; also printed
/// into `BENCHMARK.json`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::CotRepeat => {
            "few-shot CoT on the n-gram model via the 2-replica pool; 3 in 4 questions repeat, so radix reads, routing and the model's full-vocabulary pass carry the time"
        }
        Workload::ExtractUnique => {
            "7 constrained holes, all text unique, zero-cost model: masks, automata compile, parse/compile, hole parallelism and radix writes do the work and the model none"
        }
        Workload::ChatStream => {
            "4 dependent turns x 16 free tokens on a fixed-work model: 64 sequential steps, so per-token costs dominate (scheduler wait, event encode and flush, wire) and 2 clients form batches"
        }
        Workload::ReactTools => {
            "ReAct with the wiki tool on the scripted model, 4 in 5 queries repeat: interpreter control flow, tool calls, re-encoding a growing trace; masks are small sets that hit the automata cache"
        }
    }
}

/// Named metric values collected by a run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value). A non-finite value is
    /// stored as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        // `+ 0.0` turns a negative zero into zero.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Every name set so far.
    #[cfg(test)]
    pub fn names(&self) -> Vec<&'static str> {
        self.values.iter().map(|(n, _)| *n).collect()
    }
}

fn bound_str(better: Better) -> &'static str {
    match better {
        Lower => "lower",
        Higher => "higher",
    }
}

/// The run's last line of standard output. `table` is the metric table of
/// the mode (name and unit per entry); a metric the run did not set is
/// reported as 0, so the key set is always the table's.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    table: &[(&'static str, &'static str)],
) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                metrics.get(name).unwrap_or(0.0)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `(name, unit)` of the end-to-end metrics.
pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect()
}

/// `(name, unit)` of the per-layer metrics.
pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
}

/// The contents of `BENCHMARK.json`, generated from the tables above.
pub fn manifest(run_seconds: u64) -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(*w)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
                bound_str(*better)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                bound_str(*better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in Workload::ALL {
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Lower));
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(crate::spec::RUN_SECONDS));
    }

    #[test]
    fn result_line_has_exactly_the_table_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("latency_p50_ms", f64::NAN);
        let line = result_line(true, 10, 0, &m, &end_to_end_table());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
