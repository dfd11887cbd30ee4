//! Time-bucketed metric series.
//!
//! Figures 13(a)–(d) plot requests/second, queue depth and latency against
//! wall-clock minutes. [`TimeSeries`] accumulates samples into fixed-width
//! buckets and reports per-bucket means and rates.

use crate::time::{SimDuration, SimTime};

/// A metric accumulated into fixed-width time buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket: SimDuration,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series covering `[0, horizon)` with buckets of width `bucket`.
    ///
    /// # Panics
    /// Panics if the bucket width is zero or larger than the horizon.
    pub fn new(bucket: SimDuration, horizon: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be non-zero");
        assert!(horizon >= bucket, "horizon must cover at least one bucket");
        let n = horizon.as_nanos().div_ceil(bucket.as_nanos()) as usize;
        TimeSeries {
            bucket,
            sums: vec![0.0; n],
            counts: vec![0; n],
        }
    }

    /// Records `value` at time `at`. Samples past the horizon are clamped into
    /// the final bucket so late completions are not silently dropped.
    ///
    /// # Panics
    /// Panics if `value` is not finite.
    pub fn record(&mut self, at: SimTime, value: f64) {
        assert!(value.is_finite(), "series values must be finite");
        let idx = ((at.as_nanos() / self.bucket.as_nanos()) as usize).min(self.sums.len() - 1);
        self.sums[idx] += value;
        self.counts[idx] += 1;
    }

    /// Records an occurrence (count of one) at time `at`.
    pub fn record_event(&mut self, at: SimTime) {
        self.record(at, 1.0);
    }

    /// Merges `other` into `self` bucket-wise: sums and counts add.
    ///
    /// Merging partitioned series recorded against the same clock is exact
    /// for counts and rates; per-bucket means recompute from the merged
    /// sums, so they equal the means a single combined series would have
    /// reported (up to floating-point addition order).
    ///
    /// # Panics
    /// Panics unless both series share the same bucket width and bucket
    /// count (i.e. the same horizon): only series recorded against the
    /// same clock merge.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bucket, other.bucket,
            "cannot merge series with different bucket widths"
        );
        assert_eq!(
            self.sums.len(),
            other.sums.len(),
            "cannot merge series with different horizons (bucket counts)"
        );
        for (ours, theirs) in self.sums.iter_mut().zip(&other.sums) {
            *ours += theirs;
        }
        for (ours, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *ours += theirs;
        }
    }

    /// Per-bucket mean of recorded values; `None` for empty buckets.
    fn means(&self) -> Vec<Option<f64>> {
        self.sums
            .iter()
            .zip(&self.counts)
            .map(|(&sum, &count)| {
                if count == 0 {
                    None
                } else {
                    Some(sum / count as f64)
                }
            })
            .collect()
    }

    /// Per-bucket mean with empty buckets filled by the previous non-empty
    /// bucket (or 0.0 at the start). This is what gets plotted.
    pub fn means_filled(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.sums.len());
        let mut last = 0.0;
        for mean in self.means() {
            if let Some(m) = mean {
                last = m;
            }
            out.push(last);
        }
        out
    }

    /// Per-bucket event rate in events per second.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let w = self.bucket.as_secs_f64();
        self.counts.iter().map(|&c| c as f64 / w).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn buckets_cover_horizon() {
        let ts = TimeSeries::new(SimDuration::from_secs(60), SimDuration::from_secs(20 * 60));
        assert_eq!((ts.sums.len(), ts.counts.len()), (20, 20));
    }

    #[test]
    fn records_land_in_correct_bucket() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(10));
        ts.record(secs(0), 2.0);
        ts.record(secs(3), 4.0);
        ts.record(secs(3), 6.0);
        assert_eq!(ts.counts[0], 1);
        assert_eq!(ts.counts[3], 2);
        assert_eq!(ts.means()[3], Some(5.0));
        assert_eq!(ts.means()[1], None);
    }

    #[test]
    fn late_samples_clamp_to_last_bucket() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(5));
        ts.record(secs(100), 1.0);
        assert_eq!(ts.counts[4], 1);
    }

    #[test]
    fn rates_convert_counts() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(2), SimDuration::from_secs(4));
        for _ in 0..10 {
            ts.record_event(secs(1));
        }
        assert_eq!(ts.rates_per_sec()[0], 5.0);
    }

    #[test]
    fn filled_means_carry_forward() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(4));
        ts.record(secs(0), 2.0);
        ts.record(secs(3), 8.0);
        assert_eq!(ts.means_filled(), vec![2.0, 2.0, 2.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bucket_rejected() {
        let _ = TimeSeries::new(SimDuration::ZERO, SimDuration::from_secs(1));
    }

    #[test]
    fn merge_adds_sums_and_counts() {
        let mut a = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(4));
        let mut b = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(4));
        a.record(secs(0), 2.0);
        a.record(secs(2), 10.0);
        b.record(secs(0), 4.0);
        b.record(secs(0), 6.0);
        b.record(secs(3), 1.0);
        a.merge(&b);
        assert_eq!(a.counts, [3, 0, 1, 1]);
        assert_eq!(a.sums, [12.0, 0.0, 10.0, 1.0]);
        assert_eq!(a.means()[0], Some(4.0));
        assert_eq!(a.means()[1], None);
    }

    #[test]
    fn merge_matches_a_single_combined_series() {
        // Partition one stream of events across two series and merge; the
        // result must match recording everything into one series.
        let make = || TimeSeries::new(SimDuration::from_secs(2), SimDuration::from_secs(10));
        let (mut whole, mut left, mut right) = (make(), make(), make());
        for i in 0..40u64 {
            let at = secs(i % 10);
            let value = (i % 7) as f64;
            whole.record(at, value);
            if i % 2 == 0 {
                left.record(at, value);
            } else {
                right.record(at, value);
            }
        }
        left.merge(&right);
        assert_eq!(left.counts, whole.counts);
        assert_eq!(left.rates_per_sec(), whole.rates_per_sec());
    }

    #[test]
    #[should_panic(expected = "cannot merge series with different bucket widths")]
    fn merge_rejects_mismatched_buckets() {
        let mut a = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(4));
        let b = TimeSeries::new(SimDuration::from_secs(2), SimDuration::from_secs(4));
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "cannot merge series with different horizons")]
    fn merge_rejects_mismatched_horizons() {
        let mut a = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(4));
        let b = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(6));
        a.merge(&b);
    }
}
