//! Percentile summaries, quantile sketches and empirical CDFs.
//!
//! The paper reports p95 latencies for all end-to-end results, p50/p99 for the
//! tail-latency study, and full CDFs of S3 read latency (Figure 3). This module
//! provides the corresponding reductions over sample sets.

use std::fmt;

/// Summary statistics over a set of samples.
///
/// ```
/// use dscs_simcore::stats::Summary;
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
}

impl Summary {
    /// Builds a summary from raw samples (NaNs are rejected).
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarise an empty sample set");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "samples must be finite"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values always compare"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Summary { sorted, mean }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Value at quantile `q` in `[0, 1]`, with linear interpolation between
    /// order statistics.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let frac = pos - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile — the statistic the paper uses for all end-to-end latencies.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Builds the empirical CDF of the samples.
    pub fn cdf(&self) -> Cdf {
        Cdf::from_sorted(self.sorted.clone())
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} p50={:.4} p95={:.4} p99={:.4} max={:.4}",
            self.count(),
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99(),
            self.max()
        )
    }
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from unsorted samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Self {
        Summary::from_samples(samples).cdf()
    }

    fn from_sorted(sorted: Vec<f64>) -> Self {
        Cdf { sorted }
    }

    /// Fraction of samples `<= x`.
    pub fn probability_at(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Evaluates the CDF on `points` equally spaced values between the sample
    /// min and max, returning `(value, probability)` pairs — the series plotted
    /// in Figure 3.
    ///
    /// # Panics
    /// Panics if `points < 2`.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two curve points");
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        (0..points)
            .map(|i| {
                // The final point is exactly the sample maximum so the curve
                // always ends at probability 1.0 despite rounding.
                let x = if i + 1 == points {
                    hi
                } else {
                    lo + (hi - lo) * i as f64 / (points - 1) as f64
                };
                (x, self.probability_at(x))
            })
            .collect()
    }

    /// Number of underlying samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }
}

/// Relative accuracy of [`QuantileSketch`]: quantile answers are within 1%
/// of the exact order statistic (see [`QuantileSketch::quantile`]).
pub const SKETCH_RELATIVE_ACCURACY: f64 = 0.01;

/// Log-bucket growth factor `(1 + α) / (1 - α)` for α = 1%.
const SKETCH_GAMMA: f64 = (1.0 + SKETCH_RELATIVE_ACCURACY) / (1.0 - SKETCH_RELATIVE_ACCURACY);

/// Lowest bucket index: values at or below `γ^MIN` (≈ 1e-9, sub-nanosecond
/// latencies in seconds) collapse into the first bucket.
const SKETCH_MIN_INDEX: i32 = -1036;

/// Highest bucket index: values above `γ^MAX` (≈ 1e9) clamp into the last
/// bucket. The α error bound holds for samples inside `[γ^MIN, γ^MAX]`.
const SKETCH_MAX_INDEX: i32 = 1036;

/// Number of log buckets the sketch carries (fixed, so merges never
/// re-bucket): ~2k `u64` counters, ≈16 KiB per sketch.
const SKETCH_BUCKETS: usize = (SKETCH_MAX_INDEX - SKETCH_MIN_INDEX + 1) as usize;

/// A mergeable streaming percentile sketch: a fixed-layout logarithmic
/// histogram (DDSketch-style) over non-negative samples.
///
/// Where [`Summary`] buffers every sample (`Vec<f64>`, unbounded memory),
/// the sketch holds a fixed ~16 KiB of bucket counters regardless of sample
/// count, so million-invocation simulations summarise latency in constant
/// space. The price is bounded approximation: [`QuantileSketch::quantile`]
/// returns a value within [`SKETCH_RELATIVE_ACCURACY`] (1%) of the exact
/// order statistic. Count, sum (hence mean), min and max are tracked
/// exactly.
///
/// Sketches over disjoint sample sets merge losslessly: bucket counts add,
/// so `sketch(a ∪ b)` and `merge(sketch(a), sketch(b))` agree exactly on
/// every quantile (and on count/min/max; the mean can differ only by
/// floating-point summation order).
///
/// ```
/// use dscs_simcore::stats::QuantileSketch;
/// let mut s = QuantileSketch::new();
/// for i in 1..=1000 {
///     s.record(i as f64);
/// }
/// assert_eq!(s.count(), 1000);
/// let p99 = s.p99();
/// assert!((p99 - 990.0).abs() <= 990.0 * 0.01 + 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Bucket `slot` counts samples with `ceil(log_γ v) == slot + MIN_INDEX`.
    counts: Vec<u64>,
    /// Samples that were exactly zero (no logarithm to bucket by).
    zeros: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            counts: vec![0; SKETCH_BUCKETS],
            zeros: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a sketch from raw samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains negative or non-finite
    /// values — the same contract as [`Summary::from_samples`] (plus
    /// non-negativity: the sketch buckets by logarithm).
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarise an empty sample set");
        let mut sketch = QuantileSketch::new();
        for &v in samples {
            sketch.record(v);
        }
        sketch
    }

    /// Records one sample.
    ///
    /// # Panics
    /// Panics if the sample is negative or not finite.
    pub fn record(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "sketch samples must be non-negative and finite"
        );
        if value == 0.0 {
            self.zeros += 1;
        } else {
            let index = (value.ln() / SKETCH_GAMMA.ln()).ceil() as i32;
            let slot = index.clamp(SKETCH_MIN_INDEX, SKETCH_MAX_INDEX) - SKETCH_MIN_INDEX;
            self.counts[slot as usize] += 1;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another sketch into this one: afterwards this sketch
    /// summarises the union of both sample sets. Bucket layouts are fixed at
    /// compile time, so any two sketches merge; quantiles of the merged
    /// sketch equal quantiles of a sketch fed both streams directly.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean — exact (tracked as a running sum), not sketched.
    ///
    /// # Panics
    /// Panics if the sketch is empty.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "cannot summarise an empty sketch");
        self.sum / self.count as f64
    }

    /// Smallest recorded sample — exact.
    ///
    /// # Panics
    /// Panics if the sketch is empty.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "cannot summarise an empty sketch");
        self.min
    }

    /// Largest recorded sample — exact.
    ///
    /// # Panics
    /// Panics if the sketch is empty.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "cannot summarise an empty sketch");
        self.max
    }

    /// Sum of all recorded samples — exact.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Value at quantile `q` in `[0, 1]`: the representative of the bucket
    /// holding the order statistic of rank `⌈q·n⌉`, clamped into
    /// `[min, max]`. For samples within `[1e-9, 1e9]` the answer is within
    /// [`SKETCH_RELATIVE_ACCURACY`] (relative) of that exact order
    /// statistic. The boundary quantiles are exact: `q = 0.0` returns the
    /// tracked minimum and `q = 1.0` the tracked maximum, matching the
    /// rank convention's first and last order statistics.
    ///
    /// # Panics
    /// Panics if the sketch is empty or `q` is outside `[0, 1]` (which
    /// includes NaN; a debug assertion names non-finite `q` explicitly).
    pub fn quantile(&self, q: f64) -> f64 {
        debug_assert!(q.is_finite(), "quantile must be finite, got {q}");
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        assert!(self.count > 0, "cannot summarise an empty sketch");
        // The rank formula degenerates at both ends: ⌈q·n⌉ is rank 0 for
        // q = 0 (there is no zeroth order statistic), and at q = 1 the
        // bucket walk below would return a bucket representative that can
        // sit strictly below the true maximum. Both extremes are tracked
        // exactly, so answer them exactly.
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // q > 0 makes ⌈q·n⌉ >= 1 without any clamping.
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = self.zeros;
        if seen >= target {
            return 0.0;
        }
        for (slot, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                let index = slot as i32 + SKETCH_MIN_INDEX;
                // Representative 2γ^i / (γ + 1): at most α relative error
                // from any value in the bucket's range (γ^(i-1), γ^i].
                let rep = 2.0 * (f64::from(index) * SKETCH_GAMMA.ln()).exp() / (SKETCH_GAMMA + 1.0);
                return rep.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile — the statistic the paper uses for end-to-end
    /// latencies.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

impl fmt::Display for QuantileSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "n=0 (empty sketch)");
        }
        write!(
            f,
            "n={} mean={:.4} p50~{:.4} p95~{:.4} p99~{:.4} max={:.4}",
            self.count(),
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99(),
            self.max()
        )
    }
}

/// A wall-clock measurement carried alongside deterministic simulation
/// results.
///
/// Throughput numbers (`events_per_sec`, elapsed wall seconds) are real
/// measurements: they legitimately differ between two otherwise bit-identical
/// runs. Wrapping them in `Measured` makes that explicit in the type system —
/// `Measured` compares equal to any other `Measured`, so reports that derive
/// `PartialEq` stay bit-comparable on every modelled field while still
/// carrying their measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured(pub f64);

impl Measured {
    /// The measured value.
    pub fn get(&self) -> f64 {
        self.0
    }
}

impl PartialEq for Measured {
    /// Measurements never participate in result comparison: two runs of the
    /// same deterministic simulation are "equal" regardless of how long the
    /// hardware took.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl From<f64> for Measured {
    fn from(value: f64) -> Self {
        Measured(value)
    }
}

impl fmt::Display for Measured {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

/// Computes the geometric mean of strictly positive values — used for the
/// cross-benchmark averages the paper reports ("on average 3.6x speedup").
///
/// # Panics
/// Panics if `values` is empty or contains non-positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(
        !values.is_empty(),
        "geometric mean of an empty set is undefined"
    );
    assert!(
        values.iter().all(|&v| v > 0.0 && v.is_finite()),
        "values must be positive and finite"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Computes the arithmetic mean.
///
/// # Panics
/// Panics if `values` is empty.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty set is undefined");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_quantiles_interpolate() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.p50(), 3.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!((s.quantile(0.1) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn summary_mean() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::from_samples(&[3.5]);
        assert_eq!(s.p50(), 3.5);
        assert_eq!(s.p99(), 3.5);
        assert_eq!(s.min(), s.max());
    }

    #[test]
    fn cdf_probabilities_monotone() {
        let cdf = Cdf::from_samples(&[1.0, 2.0, 2.0, 3.0, 10.0]);
        assert_eq!(cdf.probability_at(0.5), 0.0);
        assert_eq!(cdf.probability_at(2.0), 0.6);
        assert_eq!(cdf.probability_at(10.0), 1.0);
        let curve = cdf.curve(10);
        assert_eq!(curve.len(), 10);
        assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(curve.last().expect("non-empty").1, 1.0);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        let g = geometric_mean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
        assert!((arithmetic_mean(&[2.0, 8.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_panics() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_samples_rejected() {
        let _ = Summary::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn sketch_tracks_exact_count_sum_min_max() {
        let samples = [0.004, 0.120, 0.0, 3.5, 0.004];
        let sketch = QuantileSketch::from_samples(&samples);
        assert_eq!(sketch.count(), 5);
        assert_eq!(sketch.min(), 0.0);
        assert_eq!(sketch.max(), 3.5);
        let exact: f64 = samples.iter().sum();
        assert_eq!(sketch.sum().to_bits(), exact.to_bits());
        assert!((sketch.mean() - exact / 5.0).abs() < 1e-15);
    }

    #[test]
    fn sketch_quantiles_stay_within_the_relative_bound() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.001).collect();
        let sketch = QuantileSketch::from_samples(&samples);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let got = sketch.quantile(q);
            assert!(
                (got - exact).abs() <= exact * SKETCH_RELATIVE_ACCURACY + 1e-12,
                "q={q}: sketch {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn sketch_merge_equals_recording_the_union() {
        let a: Vec<f64> = (1..=500).map(|i| i as f64 * 0.002).collect();
        let b: Vec<f64> = (1..=300).map(|i| (i * i) as f64 * 1e-5).collect();
        let mut merged = QuantileSketch::from_samples(&a);
        merged.merge(&QuantileSketch::from_samples(&b));
        let union: Vec<f64> = a.iter().chain(&b).copied().collect();
        let direct = QuantileSketch::from_samples(&union);
        assert_eq!(merged.count(), direct.count());
        assert_eq!(merged.min().to_bits(), direct.min().to_bits());
        assert_eq!(merged.max().to_bits(), direct.max().to_bits());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                merged.quantile(q).to_bits(),
                direct.quantile(q).to_bits(),
                "q={q}: merged sketch must answer exactly like the union sketch"
            );
        }
    }

    #[test]
    fn sketch_handles_zeros_and_extremes() {
        let mut sketch = QuantileSketch::new();
        assert!(sketch.is_empty());
        for _ in 0..10 {
            sketch.record(0.0);
        }
        sketch.record(1e-12); // below the lowest bucket: clamps, stays >= min
        sketch.record(1e12); // above the highest bucket: clamps, stays <= max
        assert_eq!(sketch.quantile(0.5), 0.0);
        assert!(sketch.quantile(1.0) <= 1e12);
        assert_eq!(sketch.max(), 1e12);
        assert_eq!(sketch.min(), 0.0);
    }

    /// Satellite regression test: the rank formula ⌈q·n⌉ degenerates at the
    /// boundaries (rank 0 at q = 0; a bucket representative strictly below
    /// the maximum at q = 1), so both boundary quantiles answer the exactly
    /// tracked extremes — and keep doing so across a merge, which combines
    /// min/max exactly.
    #[test]
    fn sketch_boundary_quantiles_are_the_exact_extremes() {
        let samples: Vec<f64> = (1..=257).map(|i| i as f64 * 0.013).collect();
        let sketch = QuantileSketch::from_samples(&samples);
        assert_eq!(sketch.quantile(0.0).to_bits(), sketch.min().to_bits());
        assert_eq!(sketch.quantile(1.0).to_bits(), sketch.max().to_bits());
        let mut merged = sketch.clone();
        merged.merge(&QuantileSketch::from_samples(&[1e4, 1e-6]));
        assert_eq!(merged.quantile(0.0), 1e-6);
        assert_eq!(merged.quantile(1.0), 1e4);
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn sketch_rejects_out_of_range_quantiles() {
        let _ = QuantileSketch::from_samples(&[1.0]).quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn sketch_rejects_non_finite_quantiles() {
        let _ = QuantileSketch::from_samples(&[1.0]).quantile(f64::NAN);
    }

    #[test]
    fn single_sample_sketch_answers_that_sample() {
        let sketch = QuantileSketch::from_samples(&[0.0375]);
        for q in [0.0, 0.5, 1.0] {
            let got = sketch.quantile(q);
            assert!(
                (got - 0.0375).abs() <= 0.0375 * SKETCH_RELATIVE_ACCURACY,
                "q={q}: {got}"
            );
        }
        // min/max clamping pins the answer to the exact sample.
        assert_eq!(sketch.quantile(0.5), 0.0375);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sketch_from_samples_panics() {
        let _ = QuantileSketch::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sketch_quantile_panics() {
        let _ = QuantileSketch::new().quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn sketch_rejects_nan() {
        let mut sketch = QuantileSketch::new();
        sketch.record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn sketch_rejects_negative_samples() {
        let mut sketch = QuantileSketch::new();
        sketch.record(-1.0);
    }

    #[test]
    fn measured_values_never_break_equality() {
        assert_eq!(Measured(1.0), Measured(2.0));
        assert_eq!(Measured(f64::NAN), Measured(0.0));
        assert_eq!(Measured(3.25).get(), 3.25);
        assert_eq!(Measured::from(2.5).get(), 2.5);
    }
}
