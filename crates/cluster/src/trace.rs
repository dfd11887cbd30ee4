//! Request-trace generation.
//!
//! The at-scale evaluation (Figure 13a) drives the cluster with a synthetic,
//! bursty trace: request rates that step between levels over a 20-minute
//! window, with Poisson arrivals inside each segment and the application of
//! each request sampled uniformly from the benchmark suite — the same recipe as
//! the prior work the paper follows. [`RateProfile`] implements the
//! [`Workload`] trait, so the same simulation also runs Azure-style traces
//! (see [`crate::workload`]).

use dscs_core::benchmarks::Benchmark;
use dscs_simcore::dist::PoissonArrivals;
use dscs_simcore::quantity::Bytes;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::time::{SimDuration, SimTime};

use crate::workload::{ObjectCatalog, Workload, WorkloadError};

/// One request in the trace. A request is identified by its position in the
/// trace, which is what [`ObjectCatalog::object_for`] hashes and what every
/// per-request table of the simulator is indexed by.
///
/// Traces of 10⁷ requests are held in memory whole, so the layout is kept
/// to 16 bytes: the object is a byte and its size a base-2 exponent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    /// Arrival time.
    pub arrival: SimTime,
    /// The application invoked.
    pub benchmark: Benchmark,
    /// Identifier of the serverless function invoked. Keepalive policies track
    /// warm containers per function; for the bursty Figure-13 trace this is
    /// the benchmark's index, while Azure-style workloads spread many
    /// functions over the same eight applications.
    pub function: u32,
    /// The object, one of the function's 32 ([`ObjectCatalog::object_for`]),
    /// this invocation reads. Locality-aware placement dispatches on where
    /// this object's replicas live.
    pub object: u8,
    /// Base-2 exponent of that object's size ([`ObjectCatalog::size_of`],
    /// 256 KiB to 8 MiB, exponents 18–23): the payload a non-local rack must
    /// fetch across the datacenter fabric. Exponents stay below 32, so every
    /// object is under 4 GiB; [`crate::workload::WorkloadSpec::realize`]
    /// rejects an inline trace that breaks this.
    pub object_size_log2: u8,
}

const _: () = assert!(std::mem::size_of::<TraceRequest>() == 16);

impl TraceRequest {
    /// Size of the object this request reads: `2^object_size_log2` bytes.
    pub fn object_bytes(&self) -> Bytes {
        Bytes::new(1 << self.object_size_log2)
    }
}

/// A piecewise-constant arrival-rate profile.
#[derive(Debug, Clone, PartialEq)]
pub struct RateProfile {
    /// `(segment duration, requests per second)` pairs.
    pub segments: Vec<(SimDuration, f64)>,
}

impl RateProfile {
    /// The bursty 20-minute profile used by Figure 13a.
    ///
    /// The paper's trace steps between roughly 200 and 800 requests/second
    /// against measured EC2 service times of a few seconds per request. Our
    /// simulated service times are faster in absolute terms, so the rates here
    /// are scaled up to preserve the paper's load-to-capacity ratios — the
    /// baseline CPU cluster is pushed past saturation during the bursts while
    /// the DSCS cluster stays within capacity, which is what Figures 13b–13d
    /// show.
    pub fn paper_bursty() -> Self {
        let minute = SimDuration::from_secs(60);
        RateProfile {
            segments: vec![
                (minute * 3, 750.0),
                (minute * 2, 1350.0),
                (minute * 2, 2100.0),
                (minute * 2, 2450.0),
                (minute * 2, 1800.0),
                (minute * 3, 1150.0),
                (minute * 2, 2250.0),
                (minute * 2, 1500.0),
                (minute * 2, 850.0),
            ],
        }
    }

    /// A horizontally compressed copy (same rate steps over `1/factor` of the
    /// time), used by quick runs.
    pub fn compressed(&self, factor: f64) -> Self {
        assert!(factor >= 1.0 && factor.is_finite(), "factor must be >= 1");
        RateProfile {
            segments: self
                .segments
                .iter()
                .map(|&(d, r)| (SimDuration::from_secs_f64(d.as_secs_f64() / factor), r))
                .collect(),
        }
    }

    /// Total trace duration.
    pub fn horizon(&self) -> SimDuration {
        self.segments.iter().map(|(d, _)| *d).sum()
    }

    /// Generates the request trace.
    ///
    /// # Panics
    /// Panics if the profile fails [`RateProfile::validate`] (empty segment
    /// list, non-finite/negative rate or zero-length segment). Use
    /// [`Workload::generate`] for the non-panicking variant.
    pub fn generate(&self, rng: &mut DeterministicRng) -> Vec<TraceRequest> {
        match Workload::generate(self, rng) {
            Ok(trace) => trace,
            Err(WorkloadError::EmptyProfile) => panic!("profile needs at least one segment"),
            Err(err) => panic!("invalid rate profile: {err}"),
        }
    }
}

impl Workload for RateProfile {
    fn name(&self) -> &'static str {
        "bursty"
    }

    fn horizon(&self) -> SimDuration {
        RateProfile::horizon(self)
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        if self.segments.is_empty() {
            return Err(WorkloadError::EmptyProfile);
        }
        for (segment, &(duration, rate)) in self.segments.iter().enumerate() {
            if !rate.is_finite() || rate < 0.0 {
                return Err(WorkloadError::InvalidRate { segment, rate });
            }
            if duration.is_zero() {
                return Err(WorkloadError::ZeroDuration { segment });
            }
        }
        Ok(())
    }

    fn generate(&self, rng: &mut DeterministicRng) -> Result<Vec<TraceRequest>, WorkloadError> {
        self.validate()?;
        let catalog = ObjectCatalog::default();
        let mut requests = Vec::new();
        let mut offset = SimDuration::ZERO;
        for &(duration, rate) in &self.segments {
            // A zero-rate segment contributes silence, not arrivals.
            let arrivals = if rate > 0.0 {
                PoissonArrivals::new(rate).arrivals_until(duration, rng)
            } else {
                Vec::new()
            };
            for t in arrivals {
                let function = rng.next_index(Benchmark::ALL.len()) as u32;
                requests.push(catalog.request(
                    requests.len() as u64,
                    SimTime::ZERO + offset + t,
                    Benchmark::ALL[function as usize],
                    function,
                ));
            }
            offset += duration;
        }
        Ok(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_lasts_twenty_minutes() {
        assert_eq!(
            RateProfile::paper_bursty().horizon(),
            SimDuration::from_secs(20 * 60)
        );
    }

    #[test]
    fn generated_trace_is_sorted_and_plausible() {
        let profile = RateProfile::paper_bursty();
        let mut rng = DeterministicRng::seeded(11);
        let trace = profile.generate(&mut rng);
        assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Average rate ~ 1560 rps over 1200 s -> roughly 1.9M requests.
        assert!(
            trace.len() > 1_500_000 && trace.len() < 2_300_000,
            "trace len {}",
            trace.len()
        );
        assert!(trace
            .iter()
            .all(|r| r.arrival < SimTime::ZERO + RateProfile::horizon(&profile)));
    }

    #[test]
    fn all_benchmarks_appear_in_the_trace() {
        let profile = RateProfile {
            segments: vec![(SimDuration::from_secs(10), 200.0)],
        };
        let mut rng = DeterministicRng::seeded(12);
        let trace = profile.generate(&mut rng);
        for b in Benchmark::ALL {
            assert!(trace.iter().any(|r| r.benchmark == b), "{b} missing");
        }
    }

    #[test]
    fn trace_is_deterministic_for_a_seed() {
        let profile = RateProfile {
            segments: vec![(SimDuration::from_secs(5), 100.0)],
        };
        let a = profile.generate(&mut DeterministicRng::seeded(13));
        let b = profile.generate(&mut DeterministicRng::seeded(13));
        assert_eq!(a, b);
    }

    #[test]
    fn function_ids_track_benchmarks() {
        let profile = RateProfile {
            segments: vec![(SimDuration::from_secs(5), 100.0)],
        };
        let trace = profile.generate(&mut DeterministicRng::seeded(14));
        assert!(trace
            .iter()
            .all(|r| Benchmark::ALL[r.function as usize] == r.benchmark));
    }

    #[test]
    fn empty_profile_yields_typed_error() {
        let profile = RateProfile { segments: vec![] };
        assert_eq!(profile.validate(), Err(WorkloadError::EmptyProfile));
    }

    #[test]
    fn bad_rates_yield_typed_errors() {
        let profile = RateProfile {
            segments: vec![
                (SimDuration::from_secs(1), 10.0),
                (SimDuration::from_secs(1), f64::NAN),
            ],
        };
        assert!(matches!(
            profile.validate(),
            Err(WorkloadError::InvalidRate { segment: 1, rate }) if rate.is_nan()
        ));

        let profile = RateProfile {
            segments: vec![(SimDuration::from_secs(1), -3.0)],
        };
        assert_eq!(
            profile.validate(),
            Err(WorkloadError::InvalidRate {
                segment: 0,
                rate: -3.0
            })
        );

        let profile = RateProfile {
            segments: vec![(SimDuration::ZERO, 10.0)],
        };
        assert_eq!(
            profile.validate(),
            Err(WorkloadError::ZeroDuration { segment: 0 })
        );
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn panicking_generate_keeps_its_contract() {
        let profile = RateProfile { segments: vec![] };
        let _ = profile.generate(&mut DeterministicRng::seeded(1));
    }

    #[test]
    fn zero_rate_segments_produce_silence_not_errors() {
        let profile = RateProfile {
            segments: vec![
                (SimDuration::from_secs(1), 0.0),
                (SimDuration::from_secs(1), 50.0),
            ],
        };
        assert_eq!(profile.validate(), Ok(()));
        let trace = profile.generate(&mut DeterministicRng::seeded(15));
        assert!(!trace.is_empty());
        assert!(trace
            .iter()
            .all(|r| r.arrival >= SimTime::ZERO + SimDuration::from_secs(1)));
    }

    #[test]
    fn compression_shrinks_the_horizon() {
        let profile = RateProfile::paper_bursty();
        let quick = profile.compressed(4.0);
        assert_eq!(RateProfile::horizon(&quick), SimDuration::from_secs(5 * 60));
    }
}
