//! Deterministic random number generation.
//!
//! Every stochastic component of the simulation (storage tail latency, request
//! arrivals, trace generation) draws from a [`DeterministicRng`] so that a run
//! is exactly reproducible from its seed. This mirrors the paper's methodology
//! of replaying a fixed 20-minute trace and fixed 10 000-request load.

/// A seedable, deterministic random number generator.
///
/// Implements xoshiro256++ (seeded through SplitMix64) directly, behind a
/// small API, so downstream crates do not need an external `rand` dependency
/// and so the generator can be swapped out without touching call sites.
///
/// ```
/// use dscs_simcore::rng::DeterministicRng;
/// let mut a = DeterministicRng::seeded(42);
/// let mut b = DeterministicRng::seeded(42);
/// assert_eq!(a.next_f64(), b.next_f64());
/// ```
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    state: [u64; 4],
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        // Expand the seed with SplitMix64, the seeding scheme the xoshiro
        // authors recommend; it guarantees a non-zero state for any seed.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DeterministicRng {
            state: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Derives an independent child generator; useful to give each simulated
    /// node or benchmark its own stream without correlation.
    pub fn fork(&mut self, salt: u64) -> DeterministicRng {
        let child_seed = self
            .next_u64()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt);
        DeterministicRng::seeded(child_seed)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform range must be non-empty");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn next_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick an index from an empty range");
        // Rejection sampling over the largest multiple of `n` that fits in
        // u64, so every index is exactly equally likely.
        let n = n as u64;
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// Raw 64-bit value (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// A standard-normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.next_f64() < p
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_index(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::seeded(1);
        let mut b = DeterministicRng::seeded(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::seeded(1);
        let mut b = DeterministicRng::seeded(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = DeterministicRng::seeded(3);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = DeterministicRng::seeded(4);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn bernoulli_frequency_matches_probability() {
        let mut rng = DeterministicRng::seeded(5);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.3)).count();
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = DeterministicRng::seeded(6);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn choose_returns_member() {
        let mut rng = DeterministicRng::seeded(7);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.choose(&items)));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_uniform_range_panics() {
        DeterministicRng::seeded(8).uniform(1.0, 1.0);
    }
}
