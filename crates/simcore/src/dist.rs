//! Latency and arrival distributions.
//!
//! The paper's end-to-end measurements are dominated by remote-storage access
//! times with a heavy tail (the p99 read latency is ~2.1x the median, Figure 3)
//! and by bursty Poisson request arrivals (Figure 13a). This module provides
//! the distributions used to model both.

use crate::rng::DeterministicRng;
use crate::time::SimDuration;

/// Quantile of the standard normal at p = 0.99 (used to calibrate lognormal tails).
const Z_99: f64 = 2.326_347_874_040_841;

/// Lognormal distribution parameterised directly by observable latency
/// statistics (median and a tail percentile), which is how the paper reports
/// its storage measurements.
///
/// ```
/// use dscs_simcore::dist::LogNormalDist;
/// // Median 28 ms, p99 59 ms — roughly AWS S3 small-object reads.
/// let d = LogNormalDist::from_median_p99(0.028, 0.059);
/// assert!((d.median() - 0.028).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalDist {
    /// Mean of the underlying normal (log-space).
    mu: f64,
    /// Standard deviation of the underlying normal (log-space).
    sigma: f64,
}

impl LogNormalDist {
    /// Creates a lognormal from log-space parameters.
    ///
    /// # Panics
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "invalid lognormal parameters"
        );
        LogNormalDist { mu, sigma }
    }

    /// Calibrates the distribution so that the median and 99th percentile match
    /// the given values.
    ///
    /// # Panics
    /// Panics unless `0 < median <= p99`.
    pub fn from_median_p99(median: f64, p99: f64) -> Self {
        assert!(median > 0.0 && p99 >= median, "need 0 < median <= p99");
        let mu = median.ln();
        let sigma = (p99.ln() - mu) / Z_99;
        LogNormalDist { mu, sigma }
    }

    /// The distribution median.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// The value at quantile `q` in `(0, 1)`, from the closed-form inverse CDF.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        (self.mu + self.sigma * inverse_normal_cdf(q)).exp()
    }

    /// Returns a copy with the tail spread scaled by `factor` (1.0 = unchanged,
    /// 0.0 = deterministic). Used by the tail-latency sensitivity study.
    pub fn with_tail_scaled(&self, factor: f64) -> LogNormalDist {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "tail factor must be non-negative"
        );
        LogNormalDist {
            mu: self.mu,
            sigma: self.sigma * factor,
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut DeterministicRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
}

/// A Poisson arrival process with a (piecewise-constant) rate, producing
/// arrival timestamps. The at-scale evaluation (Figure 13a) uses a bursty trace
/// built from segments of different rates.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonArrivals {
    /// Arrival rate in events per second.
    rate_per_sec: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson process with the given arrival rate (events/second).
    ///
    /// # Panics
    /// Panics if the rate is not strictly positive.
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "rate must be positive and finite"
        );
        PoissonArrivals { rate_per_sec }
    }

    /// Samples the next inter-arrival gap: an exponential draw with mean
    /// `1 / rate` by inverse-CDF sampling, where `1 - u` keeps `ln` away
    /// from zero.
    fn next_gap(&self, rng: &mut DeterministicRng) -> SimDuration {
        let mean = 1.0 / self.rate_per_sec;
        let u = 1.0 - rng.next_f64();
        SimDuration::from_secs_f64(-mean * u.ln())
    }

    /// Generates arrival timestamps over `[0, horizon)`.
    pub fn arrivals_until(
        &self,
        horizon: SimDuration,
        rng: &mut DeterministicRng,
    ) -> Vec<SimDuration> {
        let mut out = Vec::new();
        let mut t = SimDuration::ZERO;
        loop {
            t += self.next_gap(rng);
            if t >= horizon {
                break;
            }
            out.push(t);
        }
        out
    }
}

/// A Zipf-distributed index sampler over `0..n`.
///
/// Rank `k` (0-based) is drawn with probability proportional to
/// `1 / (k + 1)^s`. Azure-functions-style workloads are heavily skewed — a few
/// functions receive most invocations while a long tail is called rarely — and
/// this sampler provides that popularity skew for the synthetic workload
/// generator. `s = 0` degenerates to the uniform distribution.
///
/// # The guide table
///
/// A draw is an inverse-CDF lookup: the first rank whose cumulative
/// probability reaches `u`. Over a large CDF a plain binary search touches
/// a cache line per step, so samplers over more than 4096 ranks (32 KiB of
/// CDF) also keep a guide table with `G + 1` entries, `G` a power of two:
/// `guide[j]` is the first rank whose CDF reaches `j / G`. A draw
/// `u ∈ [0, 1)` then searches only between `guide[⌊u·G⌋]` and
/// `guide[⌊u·G⌋ + 1]`, which the skew keeps to a handful of ranks.
///
/// The guided draw is exact, not approximate. Scaling by a power of two is
/// exact in floating point, so `j = ⌊u·G⌋` satisfies `j / G ≤ u < (j + 1) / G`
/// with both bounds computed without rounding. The answer, the first rank
/// whose CDF reaches `u`, therefore reaches `j / G` (so it is at least
/// `guide[j]`), and the rank `guide[j + 1]` reaches `(j + 1) / G > u` (so the
/// answer is at most `guide[j + 1]`). Searching that window with the same
/// predicate returns the same rank as the full search. NaN and values
/// outside `[0, 1)` take the full search. Small CDFs, which fit in the
/// nearest caches, skip the guide: there it only adds work.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfIndex {
    /// Cumulative probabilities, one per rank; the last entry is 1.0.
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF reaches `j / G`, for `j` in
    /// `0..=G`; empty when the sampler has too few ranks to need it.
    guide: Vec<u32>,
}

/// Rank count above which a [`ZipfIndex`] keeps a guide table: 32 KiB of
/// CDF, the size of a typical L1 data cache.
const GUIDED_RANKS: usize = 4096;

impl ZipfIndex {
    /// Creates a sampler over `n` ranks with skew exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative or not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "skew must be non-negative and finite"
        );
        let weights: Vec<f64> = (0..n).map(|k| (k as f64 + 1.0).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Guard against floating-point shortfall at the top.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let guide = guide_table(&cdf);
        ZipfIndex { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler has no ranks (never true for a constructed sampler).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The probability mass of rank `k`.
    pub fn probability(&self, k: usize) -> f64 {
        let hi = self.cdf[k];
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        hi - lo
    }

    /// Draws one rank in `0..len()`.
    pub fn sample(&self, rng: &mut DeterministicRng) -> usize {
        self.rank_of(rng.next_f64())
    }

    /// The rank whose CDF interval contains `u` (the inverse-CDF transform).
    /// Callers that derive `u` from a hash instead of an RNG stream get Zipf
    /// draws without perturbing the stream — trace generators use this to
    /// stamp per-request object identities while keeping arrival sequences
    /// bit-compatible.
    ///
    /// Values outside `[0, 1)` clamp to the first/last rank.
    pub fn rank_of(&self, u: f64) -> usize {
        if self.guide.len() > 1 && (0.0..1.0).contains(&u) {
            // See the type docs: the answer lies in [guide[j], guide[j + 1]].
            let buckets = self.guide.len() - 1;
            let j = (u * buckets as f64) as usize;
            let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
            return lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        }
        self.full_search(u)
    }

    /// Binary search for the first cumulative probability `>= u` over the
    /// whole CDF, clamped to the last rank.
    fn full_search(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The guide table of `cdf` (see [`ZipfIndex`]): `G + 1` entries with `G`
/// the power of two at or above a quarter of the rank count, or none for
/// CDFs of at most [`GUIDED_RANKS`] ranks.
fn guide_table(cdf: &[f64]) -> Vec<u32> {
    if cdf.len() <= GUIDED_RANKS || u32::try_from(cdf.len()).is_err() {
        return Vec::new();
    }
    let buckets = cdf.len().div_ceil(4).next_power_of_two();
    // One merge pass: the targets j / G ascend, and so does the CDF below
    // its last entry (1.0, which every target reaches), so the first rank
    // reaching each target only moves right.
    let mut rank = 0;
    (0..=buckets)
        .map(|j| {
            let target = j as f64 / buckets as f64;
            while cdf[rank] < target {
                rank += 1;
            }
            rank as u32
        })
        .collect()
}

/// Inverse CDF of the standard normal distribution (Acklam's rational
/// approximation, max relative error ~1.15e-9). Sufficient for calibrating
/// latency quantiles.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn samples(d: &LogNormalDist, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = DeterministicRng::seeded(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn lognormal_median_and_p99_calibration() {
        let d = LogNormalDist::from_median_p99(0.028, 0.059);
        let s = samples(&d, 100_000, 3);
        let summary = Summary::from_samples(&s);
        assert!(
            (summary.p50() - 0.028).abs() / 0.028 < 0.05,
            "p50 {}",
            summary.p50()
        );
        assert!(
            (summary.p99() - 0.059).abs() / 0.059 < 0.10,
            "p99 {}",
            summary.p99()
        );
    }

    #[test]
    fn lognormal_quantile_is_monotone() {
        let d = LogNormalDist::from_median_p99(0.01, 0.02);
        assert!(d.quantile(0.5) < d.quantile(0.9));
        assert!(d.quantile(0.9) < d.quantile(0.99));
        assert!((d.quantile(0.5) - 0.01).abs() < 1e-9);
        assert!((d.quantile(0.99) - 0.02).abs() < 1e-9);
    }

    #[test]
    fn tail_scaling_reduces_spread() {
        let d = LogNormalDist::from_median_p99(0.01, 0.03);
        let tight = d.with_tail_scaled(0.0);
        assert!((tight.quantile(0.99) - tight.quantile(0.5)).abs() < 1e-12);
    }

    #[test]
    fn poisson_count_matches_rate() {
        let p = PoissonArrivals::new(100.0);
        let mut rng = DeterministicRng::seeded(5);
        let total: usize = (0..200)
            .map(|_| p.arrivals_until(SimDuration::from_secs(1), &mut rng).len())
            .sum();
        let mean = total as f64 / 200.0;
        assert!((mean - 100.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn poisson_arrival_times_sorted_and_bounded() {
        let p = PoissonArrivals::new(50.0);
        let mut rng = DeterministicRng::seeded(6);
        let arrivals = p.arrivals_until(SimDuration::from_secs(2), &mut rng);
        assert!(!arrivals.is_empty());
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|&t| t < SimDuration::from_secs(2)));
    }

    #[test]
    fn inverse_normal_cdf_known_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.99) - Z_99).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_poisson_rejected() {
        let _ = PoissonArrivals::new(0.0);
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let zipf = ZipfIndex::new(16, 1.2);
        let mut rng = DeterministicRng::seeded(9);
        let mut counts = [0u64; 16];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[8] * 4, "counts {counts:?}");
        assert!(counts[0] > counts[15] * 8, "counts {counts:?}");
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let zipf = ZipfIndex::new(4, 0.0);
        for k in 0..4 {
            assert!((zipf.probability(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let zipf = ZipfIndex::new(100, 0.9);
        let total: f64 = (0..100).map(|k| zipf.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_zipf_rejected() {
        let _ = ZipfIndex::new(0, 1.0);
    }

    /// The guided draw returns exactly the full search's rank: on random
    /// draws, on every CDF entry and the floats either side of it (where
    /// an off-by-one bucket or window would show), and on the values
    /// outside `[0, 1)` that must take the full search.
    #[test]
    fn guided_rank_of_equals_the_full_search() {
        let specials = [
            0.0,
            -0.0,
            -1e-300,
            -0.5,
            1.0,
            1.0 - f64::EPSILON / 2.0,
            1.0 + f64::EPSILON,
            7.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // 8192 uniform ranks put CDF entries exactly on guide targets j / G.
        for n in [1, 2, 32, 4097, 8192, 100_000] {
            for s in [0.0, 0.7, 1.0, 1.1] {
                let zipf = ZipfIndex::new(n, s);
                assert_eq!(zipf.guide.is_empty(), n <= GUIDED_RANKS, "n {n}");
                let agree = |u: f64| {
                    assert_eq!(
                        zipf.rank_of(u),
                        zipf.full_search(u),
                        "n {n}, s {s}, u {u:e}"
                    );
                };
                specials.into_iter().for_each(agree);
                for &c in &zipf.cdf {
                    [c.next_down(), c, c.next_up()].into_iter().for_each(agree);
                }
                let mut rng = DeterministicRng::seeded(n as u64 ^ s.to_bits());
                (0..20_000).for_each(|_| agree(rng.next_f64()));
            }
        }
    }
}
