//! Percentile, slice and quiet-quartile maths.
//!
//! A run's p50 metrics are medians over all of a phase's samples: a median
//! already ignores the samples a disturbance stretched, and it uses every
//! sample (time to first token is the accept loop's poll wait, uniform
//! over 0–5 ms, so its median needs all the samples it can get).
//!
//! The two mean-like metrics — completions per second and the mean gap
//! between tokens — would be dragged by a disturbance. Every timed phase
//! is therefore cut into [`SLICES`](crate::spec::SLICES) equal slices, the
//! metric is computed once per slice, and the run reports the *quiet
//! quartile* over the slices: the 75th percentile of the slice values for
//! a higher-is-better metric, the 25th for a lower-is-better one.
//! Neighbours on a shared machine only ever take cycles away, so the quiet
//! side of the slice distribution repeats where the whole-phase value
//! does not (ISSUE 13 measured 12 % against 6 % on throughput; ten seeds
//! here gave 5.9 % against 4.4 % on `cot_repeat`, 16 % against 6.6 % on
//! `react_tools`).
//!
//! ISSUE 13 asked for the quiet quartile of *slice medians* for the p50
//! metrics as well. Ten seeds per workload could not tell that estimator
//! from the plain median (`BASELINE.md`: latency 1.1 / 12 / 1.8 / 5.2 %
//! between seeds against 0.9 / 9.6 / 1.5 / 4.6 %; time to first token
//! 5.7 / 9.1 / 8.4 / 8.8 % against 4.9 / 8.7 / 10 / 4.3 %), because what
//! moves these numbers here is not bursts inside a run but the whole run
//! landing in a slower or faster minute, which no statistic of one run can
//! undo. The simpler estimator stays. The quiet slice, the worst slice and
//! their ratio are still reported, per layer (`client.latency_slice_*`,
//! `bench.slice_spread`), so a change that makes the program bursty shows.

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latencies).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

/// The `p`-th percentile (`0.0..=100.0`) of `values` with linear
/// interpolation between closest ranks; `None` when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values`, 0 when empty (an empty phase also reports a
/// failed run, so the 0 never stands as a measurement).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// The arithmetic mean of `values`, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile that still has at least ten samples beyond it
/// (choosing-metrics §1), as `(percentile, value)`. With fewer than
/// twenty samples the median is the only supported percentile.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 20 {
        return (50.0, median(values));
    }
    let p = 100.0 * (n - 10) as f64 / n as f64;
    // Report a round percentile: the highest of the usual ladder that the
    // sample supports.
    let p = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&step| step <= p)
        .unwrap_or(50.0);
    (p, percentile(values, p).unwrap_or(0.0))
}

/// The slice a sample taken `at` seconds into a phase of `phase` seconds
/// belongs to, out of `slices`; `None` when it falls outside the phase.
pub fn slice_of(at: f64, phase: f64, slices: usize) -> Option<usize> {
    if !(0.0..phase).contains(&at) || slices == 0 {
        return None;
    }
    Some(((at / phase * slices as f64) as usize).min(slices - 1))
}

/// Per-slice summary of one metric over one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceSummary {
    /// The slice values that could be computed (an empty slice has none).
    pub values: Vec<f64>,
}

impl SliceSummary {
    /// The quiet quartile: 25th percentile for lower-is-better, 75th for
    /// higher-is-better. 0 when no slice produced a value.
    pub fn quiet(&self, better: Better) -> f64 {
        let p = match better {
            Better::Lower => 25.0,
            Better::Higher => 75.0,
        };
        percentile(&self.values, p).unwrap_or(0.0)
    }

    /// The median slice.
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// The worst slice: the largest value for lower-is-better, the
    /// smallest for higher-is-better. 0 when no slice produced a value.
    pub fn worst(&self, better: Better) -> f64 {
        let it = self.values.iter().copied();
        match better {
            Better::Lower => it.reduce(f64::max),
            Better::Higher => it.reduce(f64::min),
        }
        .unwrap_or(0.0)
    }

    /// Worst slice over quiet slice, as a ratio ≥ 1 (1 when undefined):
    /// how bursty the phase was.
    pub fn spread(&self, better: Better) -> f64 {
        let quiet = self.quiet(better);
        let worst = self.worst(better);
        if quiet <= 0.0 || worst <= 0.0 {
            return 1.0;
        }
        match better {
            Better::Lower => worst / quiet,
            Better::Higher => quiet / worst,
        }
    }
}

/// Groups `(at, value)` samples into `slices` slices of a `phase`-second
/// phase and reduces each non-empty slice with `reduce`.
pub fn per_slice(
    samples: &[(f64, f64)],
    phase: f64,
    slices: usize,
    reduce: impl Fn(&[f64]) -> f64,
) -> SliceSummary {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(at, value) in samples {
        if let Some(i) = slice_of(at, phase, slices) {
            buckets[i].push(value);
        }
    }
    SliceSummary {
        values: buckets
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| reduce(b))
            .collect(),
    }
}

/// Completions per second in each slice (every slice counts, an empty one
/// as 0 — a stalled slice is a slow slice, not a missing one).
pub fn rate_per_slice(completed_at: &[f64], phase: f64, slices: usize) -> SliceSummary {
    let mut counts = vec![0usize; slices];
    for &at in completed_at {
        if let Some(i) = slice_of(at, phase, slices) {
            counts[i] += 1;
        }
    }
    let slice_len = phase / slices.max(1) as f64;
    SliceSummary {
        values: counts.iter().map(|&c| c as f64 / slice_len).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&v, 25.0), Some(1.75));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&few).0, 50.0);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&hundred).0, 90.0);
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, v) = tail(&thousand);
        assert_eq!(p, 99.0);
        assert!((v - 989.01).abs() < 1e-9, "{v}");
        let many: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert_eq!(tail(&many).0, 99.9);
    }

    #[test]
    fn samples_land_in_their_slice() {
        assert_eq!(slice_of(0.0, 8.0, 8), Some(0));
        assert_eq!(slice_of(0.999, 8.0, 8), Some(0));
        assert_eq!(slice_of(1.0, 8.0, 8), Some(1));
        assert_eq!(slice_of(7.999, 8.0, 8), Some(7));
        assert_eq!(slice_of(8.0, 8.0, 8), None);
        assert_eq!(slice_of(-0.1, 8.0, 8), None);
        assert_eq!(slice_of(1.0, 8.0, 0), None);
    }

    #[test]
    fn quiet_quartile_takes_the_good_side() {
        // Eight slice medians, two of them disturbed.
        let samples: Vec<(f64, f64)> = [10.0, 10.2, 10.1, 19.0, 10.3, 10.0, 14.0, 10.1]
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 + 0.5, v))
            .collect();
        let s = per_slice(&samples, 8.0, 8, median);
        assert_eq!(s.values.len(), 8);
        assert!((s.quiet(Better::Lower) - 10.075).abs() < 1e-9);
        assert_eq!(s.worst(Better::Lower), 19.0);
        assert!((s.median() - 10.15).abs() < 1e-9);
        assert!(s.spread(Better::Lower) > 1.8);

        let rates = SliceSummary {
            values: vec![100.0, 98.0, 60.0, 101.0, 99.0, 100.0, 80.0, 102.0],
        };
        assert!((rates.quiet(Better::Higher) - 100.25).abs() < 1e-9);
        assert_eq!(rates.worst(Better::Higher), 60.0);
    }

    #[test]
    fn empty_and_one_slice_cases() {
        let none = per_slice(&[], 8.0, 8, median);
        assert!(none.values.is_empty());
        assert_eq!(none.quiet(Better::Lower), 0.0);
        assert_eq!(none.spread(Better::Lower), 1.0);

        let one = per_slice(&[(0.1, 5.0), (0.2, 7.0)], 8.0, 1, median);
        assert_eq!(one.values, vec![6.0]);
        assert_eq!(one.quiet(Better::Lower), 6.0);
        assert_eq!(one.quiet(Better::Higher), 6.0);
        assert_eq!(one.spread(Better::Lower), 1.0);

        // Samples in one slice only: the other slices have no value.
        let sparse = per_slice(&[(0.5, 3.0)], 8.0, 8, median);
        assert_eq!(sparse.values, vec![3.0]);
    }

    #[test]
    fn rates_count_empty_slices_as_zero() {
        let r = rate_per_slice(&[0.1, 0.2, 0.3, 1.5, 9.0], 2.0, 2);
        assert_eq!(r.values, vec![3.0, 1.0]);
        let stalled = rate_per_slice(&[0.1], 4.0, 4);
        assert_eq!(stalled.values, vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(stalled.worst(Better::Higher), 0.0);
        assert_eq!(stalled.spread(Better::Higher), 1.0);
    }
}
