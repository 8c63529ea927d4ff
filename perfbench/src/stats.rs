//! Latency summaries under the benchmark's percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, always together
//! with the sample count. Percentiles use the nearest-rank definition: the
//! `q`-quantile of `n` sorted samples is the sample at rank `ceil(q * n)`.

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank index of the `pct` percentile (to a tenth of a percent)
/// in `n` sorted samples; integer arithmetic, so p99 of 1000 samples is
/// exactly rank 990.
fn rank_index(n: usize, pct: f64) -> usize {
    let per_mille = (pct * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

/// The `pct` percentile of already sorted samples (`None` when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank_index(sorted.len(), pct)])
}

/// How many of `n` samples lie strictly beyond the `pct` percentile rank.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, pct)
    }
}

/// The highest of p99.9, p99, p90 and p50 that has at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` when even the median does
/// not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&pct| samples_beyond(n, pct) >= TAIL_SAMPLES)
}

/// One timing's summary: count, median, p99, the supported tail and max.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile with enough samples beyond it (see
    /// [`tail_percentile`]); `0.0` when there are too few samples.
    pub tail_pct: f64,
    pub tail: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize unsorted samples (`None` when there are none).
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 50.0)?;
        let tail_pct = tail_percentile(sorted.len()).unwrap_or(0.0);
        Some(Self {
            count: sorted.len(),
            p50,
            p99: percentile(&sorted, 99.0)?,
            tail_pct,
            tail: percentile(&sorted, tail_pct.max(50.0))?,
            max: *sorted.last()?,
        })
    }

    /// True when the p99 has at least [`TAIL_SAMPLES`] samples beyond it.
    pub fn p99_supported(&self) -> bool {
        samples_beyond(self.count, 99.0) >= TAIL_SAMPLES
    }

    /// The same summary with every value multiplied by `factor` (unit
    /// conversion).
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            p50: self.p50 * factor,
            p99: self.p99 * factor,
            tail: self.tail * factor,
            max: self.max * factor,
            ..self
        }
    }
}

/// Median of unsorted samples (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p50)
}

/// Rate of events at `offsets` (seconds from a window's start) in a window
/// of `span` seconds: the median over `slices` equal slices of the events
/// each holds, per second. Events outside the window do not count.
pub fn sliced_rate(offsets: &[f64], span: f64, slices: usize) -> f64 {
    let width = span / slices as f64;
    let mut counts = vec![0usize; slices];
    for &t in offsets.iter().filter(|t| (0.0..span).contains(*t)) {
        counts[((t / width) as usize).min(slices - 1)] += 1;
    }
    let rates: Vec<f64> = counts.into_iter().map(|n| n as f64 / width).collect();
    median(&rates).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn small_counts_fall_back_to_lower_percentiles() {
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!((s.count, s.p50, s.p99, s.max), (1000, 500.0, 990.0, 1000.0));
        assert_eq!((s.tail_pct, s.tail), (99.0, 990.0));
        assert!(s.p99_supported());
        assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let mut shuffled = samples.clone();
        shuffled.reverse();
        assert_eq!(Summary::of(&shuffled), Some(s));
    }

    #[test]
    fn sliced_rate_is_the_median_slice() {
        // 100 events a second for ten seconds, spread evenly.
        let even: Vec<f64> = (0..1000).map(|i| f64::from(i) / 100.0 + 0.005).collect();
        assert_eq!(sliced_rate(&even, 10.0, 10), 100.0);
        // A stall that empties two slices leaves the median where it was;
        // events past the window do not count.
        let stalled: Vec<f64> =
            even.iter().copied().filter(|t| !(2.0..4.0).contains(t)).chain([10.0, 12.0]).collect();
        assert_eq!(sliced_rate(&stalled, 10.0, 10), 100.0);
        assert_eq!(sliced_rate(&[], 10.0, 10), 0.0);
    }
}
