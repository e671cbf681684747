//! Time-bucketed series accumulation.
//!
//! Figures 1–3 of the paper plot group averages per day over a one-week
//! simulation. [`BucketSeries`] accumulates `(time, value)` samples into
//! fixed-width time buckets and yields the per-bucket mean, which is
//! exactly how those curves are produced.

use crate::stats::Running;

/// Accumulates samples into fixed-width time buckets.
#[derive(Debug, Clone)]
pub struct BucketSeries {
    bucket_width: f64,
    buckets: Vec<Running>,
}

impl BucketSeries {
    /// Create a series covering `[0, horizon)` with buckets of
    /// `bucket_width` (same unit as the sample times, typically days).
    pub fn new(horizon: f64, bucket_width: f64) -> Self {
        assert!(bucket_width > 0.0 && horizon > 0.0);
        let n = (horizon / bucket_width).ceil() as usize;
        BucketSeries {
            bucket_width,
            buckets: vec![Running::new(); n.max(1)],
        }
    }

    /// Add a sample at time `t`; samples beyond the horizon clamp into
    /// the last bucket, negative times into the first.
    pub fn push(&mut self, t: f64, value: f64) {
        let idx = ((t / self.bucket_width).floor() as i64).clamp(0, self.buckets.len() as i64 - 1)
            as usize;
        self.buckets[idx].push(value);
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True iff there are no buckets (never; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Per-bucket `(bucket_center_time, mean)` for non-empty buckets.
    pub fn means(&self) -> Vec<(f64, f64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, r)| r.count() > 0)
            .map(|(i, r)| ((i as f64 + 0.5) * self.bucket_width, r.mean()))
            .collect()
    }

    /// Per-bucket sample counts (including empty buckets).
    pub fn counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|r| r.count()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_time() {
        let mut s = BucketSeries::new(7.0, 1.0);
        assert_eq!(s.len(), 7);
        s.push(0.2, 10.0);
        s.push(0.8, 20.0);
        s.push(6.5, 5.0);
        let means = s.means();
        assert_eq!(means.len(), 2);
        assert_eq!(means[0], (0.5, 15.0));
        assert_eq!(means[1], (6.5, 5.0));
    }

    #[test]
    fn clamps_out_of_range() {
        let mut s = BucketSeries::new(2.0, 1.0);
        s.push(-1.0, 1.0);
        s.push(99.0, 3.0);
        assert_eq!(s.counts(), vec![1, 1]);
    }

    #[test]
    fn fractional_width() {
        let mut s = BucketSeries::new(1.0, 0.25);
        assert_eq!(s.len(), 4);
        s.push(0.3, 2.0);
        assert_eq!(s.counts(), vec![0, 1, 0, 0]);
    }
}
