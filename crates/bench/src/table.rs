//! Row formatting shared by the experiment binaries.

use crate::experiments::Stats;
use lmql_lm::Usage;

/// GPT-3 davinci pricing the paper uses for cost estimates: $0.02 per 1k
/// billable tokens, i.e. 2¢/1k.
pub const CENTS_PER_1K_TOKENS: f64 = 2.0;

/// Percentage change from `baseline` to `lmql` (negative = reduction).
pub fn delta_pct(baseline: f64, lmql: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (lmql - baseline) / baseline * 100.0
    }
}

/// Prints the paper's per-task metric block (Table 3 / Table 5 layout):
/// accuracy (if measured), decoder calls, model queries, billable tokens,
/// estimated cost savings per query.
pub fn print_metric_block(label: &str, baseline: &Stats, lmql: &Stats, with_accuracy: bool) {
    println!("{label}");
    println!(
        "  {:<18} {:>12} {:>12} {:>9}",
        "", "Standard", "LMQL", "delta"
    );
    if with_accuracy {
        println!(
            "  {:<18} {:>11.2}% {:>11.2}% {:>8.2}%",
            "Accuracy",
            baseline.accuracy() * 100.0,
            lmql.accuracy() * 100.0,
            (lmql.accuracy() - baseline.accuracy()) * 100.0
        );
    }
    let rows: [(&str, f64, f64); 3] = [
        (
            "Decoder Calls",
            baseline.avg_decoder_calls(),
            lmql.avg_decoder_calls(),
        ),
        (
            "Model Queries",
            baseline.avg_model_queries(),
            lmql.avg_model_queries(),
        ),
        (
            "Billable Tokens",
            baseline.avg_billable_tokens(),
            lmql.avg_billable_tokens(),
        ),
    ];
    for (name, b, l) in rows {
        println!(
            "  {:<18} {:>12.2} {:>12.2} {:>8.2}%",
            name,
            b,
            l,
            delta_pct(b, l)
        );
    }
    // Engine statistics appear once runs are routed through the batching
    // scheduler; sequential runs leave them at zero and skip the rows.
    if baseline.usage.batch_dispatches + lmql.usage.batch_dispatches > 0 {
        println!(
            "  {:<18} {:>12.2} {:>12.2} {:>8.2}%",
            "Dispatches",
            baseline.avg_dispatches(),
            lmql.avg_dispatches(),
            delta_pct(baseline.avg_dispatches(), lmql.avg_dispatches())
        );
        println!(
            "  {:<18} {:>12.2} {:>12.2}",
            "Mean Batch Size",
            mean_batch_size(&baseline.usage),
            mean_batch_size(&lmql.usage)
        );
    }
    if baseline.usage.cache_hits
        + baseline.usage.cache_misses
        + lmql.usage.cache_hits
        + lmql.usage.cache_misses
        > 0
    {
        println!(
            "  {:<18} {:>11.2}% {:>11.2}%",
            "Cache Hit Rate",
            baseline.usage.cache_hit_rate() * 100.0,
            lmql.usage.cache_hit_rate() * 100.0
        );
    }
    let saved_cents = (baseline.avg_billable_tokens() - lmql.avg_billable_tokens()) / 1000.0
        * CENTS_PER_1K_TOKENS;
    println!(
        "  {:<18} {saved_cents:>32.2} cents/query",
        "Est. Cost Savings"
    );
}

/// The "Mean Batch Size" cell for one side: contexts per batched
/// dispatch. A side that queried the model without ever batching scored
/// one context per call, so its mean is 1, not the 0 of
/// [`Usage::mean_batch_size`].
fn mean_batch_size(usage: &Usage) -> f64 {
    if usage.batch_dispatches == 0 && usage.model_queries > 0 {
        1.0
    } else {
        usage.mean_batch_size()
    }
}

/// Lowercases a human row label into a metric-name segment
/// (`Odd One Out` → `odd_one_out`).
pub fn metric_slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_owned()
}

/// Dumps each experiment arm's aggregated usage through the metrics
/// registry's text exposition — the `--metrics` flag of the experiment
/// binaries. This is a separate block after the tables, so the table
/// columns themselves stay byte-identical with or without the flag.
pub fn print_metrics_registry(arms: &[(String, Stats)]) {
    let registry = lmql_obs::Registry::new();
    for (label, stats) in arms {
        let slug = metric_slug(label);
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
    println!("--- metrics ---");
    print!("{}", registry.snapshot().render_text());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_slug_flattens_labels() {
        assert_eq!(metric_slug("Odd One Out"), "odd_one_out");
        assert_eq!(metric_slug("ReAct (Case Study 2)"), "react_case_study_2");
        assert_eq!(metric_slug("gpt-j-6b.lmql"), "gpt_j_6b_lmql");
    }

    #[test]
    fn unbatched_side_has_batches_of_one() {
        let standard = Usage {
            model_queries: 12,
            ..Usage::default()
        };
        assert_eq!(mean_batch_size(&standard), 1.0);
        let batched = Usage {
            model_queries: 12,
            batch_dispatches: 3,
            batched_queries: 12,
            ..Usage::default()
        };
        assert_eq!(mean_batch_size(&batched), 4.0);
        assert_eq!(mean_batch_size(&Usage::default()), 0.0, "no queries at all");
    }

    #[test]
    fn delta_pct_signs() {
        assert!((delta_pct(100.0, 75.0) + 25.0).abs() < 1e-9);
        assert!((delta_pct(100.0, 120.0) - 20.0).abs() < 1e-9);
        assert_eq!(delta_pct(0.0, 5.0), 0.0);
    }
}
