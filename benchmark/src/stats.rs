//! Order statistics the metrics are built from: the median, and the
//! tail percentile rule of the choosing-metrics guide (the highest
//! percentile that still has at least ten samples beyond it).

/// Median of `values` (mean of the two middle values when the count is
/// even). Panics on an empty slice: a metric with no samples is a bug
/// in the workload, not a number to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=1`) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // the epsilon keeps a product like 0.9 * 100 from rounding up a rank
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, highest first, each with
/// the per-mille share of samples beyond it (integers, so the
/// ten-beyond test is exact).
const LADDER: [(f64, usize); 5] = [(0.999, 1), (0.99, 10), (0.95, 50), (0.90, 100), (0.75, 250)];

/// The highest ladder percentile that leaves at least ten of `n`
/// samples beyond it; the median when even p75 would not.
pub fn tail_rank(n: usize) -> f64 {
    LADDER
        .into_iter()
        .find(|&(_, beyond)| n * beyond / 1000 >= 10)
        .map_or(0.5, |(p, _)| p)
}

/// Median and tail of one batch of latency samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// The median.
    pub p50: f64,
    /// The value at [`Latency::tail_p`].
    pub tail: f64,
    /// Which percentile `tail` is (from [`tail_rank`], or forced).
    pub tail_p: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarise `samples`; `force_p` pins the tail percentile (so every
/// repetition of a workload reports the same one), otherwise the
/// ten-beyond rule picks it.
pub fn latency(samples: &[f64], force_p: Option<f64>) -> Latency {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_p = force_p.unwrap_or_else(|| tail_rank(sorted.len()));
    Latency {
        p50: percentile_sorted(&sorted, 0.5),
        tail: percentile_sorted(&sorted, tail_p),
        tail_p,
        n: sorted.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2 000 samples: p99 leaves 20 beyond, p99.9 only 2
        assert_eq!(tail_rank(2_000), 0.99);
        assert_eq!(tail_rank(10_000), 0.999);
        // 125 choke instants: p95 leaves 6, p90 leaves 12
        assert_eq!(tail_rank(125), 0.90);
        assert_eq!(tail_rank(40), 0.75);
        assert_eq!(tail_rank(39), 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100.0);
        let l = latency(&sorted, None);
        assert_eq!((l.p50, l.tail, l.tail_p, l.n), (50.0, 90.0, 0.90, 100));
        assert_eq!(latency(&sorted, Some(0.95)).tail, 95.0);
    }
}
