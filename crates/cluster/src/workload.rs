//! Workload abstraction and the Azure-style synthetic generator.
//!
//! The at-scale evaluation originally replayed a single hard-coded 20-minute
//! bursty profile (Figure 13a). Production serverless platforms see far more
//! varied traffic: the Azure Functions traces behind *Serverless in the Wild*
//! show per-function popularity that is heavily skewed (a few functions get
//! most invocations), inter-arrival times that are Poisson-like per function,
//! and aggregate rates that follow diurnal cycles punctuated by bursts. This
//! module provides a common [`Workload`] trait over trace generators, and
//! [`AzureWorkload`], a synthetic generator reproducing those three properties,
//! alongside the original [`RateProfile`] trace.

//!
//! Every request additionally names the *object* it reads — serverless
//! functions are storage-triggered in the paper's model, so the trace carries
//! data identities, not just function identities. [`ObjectPopulation`]
//! describes each function's object working set (Zipf-skewed popularity over
//! a bounded set of objects, mirroring the skew of function popularity
//! itself) and [`ObjectCatalog`] stamps deterministic object ids and sizes
//! onto requests. Object assignment is hash-based, not RNG-stream-based, so
//! adding data identities leaves arrival sequences bit-compatible with
//! earlier trace versions.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dscs_core::benchmarks::Benchmark;
use dscs_simcore::dist::{PoissonArrivals, ZipfIndex};
use dscs_simcore::quantity::Bytes;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::time::{SimDuration, SimTime};

use crate::at_scale::SweepScale;
use crate::ingest::{IngestError, TraceFileWorkload};
use crate::trace::{RateProfile, TraceRequest};

/// Errors produced by workload validation and generation.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A rate profile has no segments.
    EmptyProfile,
    /// A rate is negative, NaN or infinite.
    InvalidRate {
        /// Index of the offending segment (or 0 for scalar-rate workloads).
        segment: usize,
        /// The offending rate value.
        rate: f64,
    },
    /// A segment (or the whole workload) has zero duration.
    ZeroDuration {
        /// Index of the offending segment (or 0 for scalar-horizon workloads).
        segment: usize,
    },
    /// A named scalar parameter is out of its documented range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::EmptyProfile => write!(f, "rate profile has no segments"),
            WorkloadError::InvalidRate { segment, rate } => {
                write!(f, "segment {segment} has invalid rate {rate}")
            }
            WorkloadError::ZeroDuration { segment } => {
                write!(f, "segment {segment} has zero duration")
            }
            WorkloadError::InvalidParameter { name, value } => {
                write!(f, "parameter {name} = {value} is out of range")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The per-function object working set a workload's requests read from.
///
/// Each function owns `objects_per_function` distinct objects; a request
/// reads one of them, drawn Zipf(`skew`) so a function's hot objects dominate
/// its traffic the same way hot functions dominate the cluster's. Object
/// sizes are deterministic per (function, object): `base_size` scaled by a
/// hashed number of doublings, spanning the serverless payload range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectPopulation {
    /// Distinct objects per function (>= 1).
    pub objects_per_function: u32,
    /// Zipf skew over a function's objects (0 = uniform).
    pub skew: f64,
    /// Smallest object size.
    pub base_size: Bytes,
    /// Object sizes span `base_size` to `base_size << size_doublings`.
    pub size_doublings: u32,
}

impl Default for ObjectPopulation {
    fn default() -> Self {
        ObjectPopulation {
            objects_per_function: 32,
            skew: 1.1,
            // 256 KiB .. 8 MiB: the image/audio/text payload range of the
            // benchmark suite (AWS caps serverless payloads at ~20 MB).
            base_size: Bytes::from_kib(256),
            size_doublings: 5,
        }
    }
}

impl ObjectPopulation {
    /// Checks the population parameters, returning the first violation found.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.objects_per_function == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "objects_per_function",
                value: 0.0,
            });
        }
        if !self.skew.is_finite() || self.skew < 0.0 {
            return Err(WorkloadError::InvalidParameter {
                name: "object_skew",
                value: self.skew,
            });
        }
        if self.base_size == Bytes::ZERO {
            return Err(WorkloadError::InvalidParameter {
                name: "base_size",
                value: 0.0,
            });
        }
        // The largest object is base_size << size_doublings, and requests
        // store sizes as u32 byte counts, so it must fit a u32.
        let largest_base = u64::from(u32::MAX)
            .checked_shr(self.size_doublings)
            .unwrap_or(0);
        if self.base_size.as_u64() > largest_base {
            return Err(WorkloadError::InvalidParameter {
                name: "size_doublings",
                value: f64::from(self.size_doublings),
            });
        }
        Ok(())
    }
}

/// SplitMix64 finalizer, used as a stateless hash so object assignment never
/// consumes from the trace generator's RNG stream.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salt separating object-identity hashing from size hashing.
const OBJECT_SALT: u64 = 0x0B1E_C7ED_5EED_0001;
const SIZE_SALT: u64 = 0x0B1E_C7ED_5EED_0002;

/// Deterministic object assignment derived from an [`ObjectPopulation`]:
/// maps (function, trace position) to the object the request reads and
/// (function, object) to that object's size.
#[derive(Debug, Clone)]
pub struct ObjectCatalog {
    population: ObjectPopulation,
    zipf: ZipfIndex,
}

impl ObjectCatalog {
    /// Builds the catalog.
    ///
    /// # Panics
    /// Panics if the population fails [`ObjectPopulation::validate`].
    pub fn new(population: ObjectPopulation) -> Self {
        population
            .validate()
            .unwrap_or_else(|err| panic!("invalid object population: {err}"));
        ObjectCatalog {
            population,
            zipf: ZipfIndex::new(population.objects_per_function as usize, population.skew),
        }
    }

    /// The population this catalog realises.
    pub fn population(&self) -> ObjectPopulation {
        self.population
    }

    /// The object a request of `function` at trace position `position`
    /// reads: a Zipf draw over the function's objects, derived by hashing
    /// rather than sampling so the caller's RNG stream is untouched.
    pub fn object_for(&self, function: u32, position: u64) -> u32 {
        let h = mix64(mix64(OBJECT_SALT ^ u64::from(function)).wrapping_add(position));
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.zipf.rank_of(u) as u32
    }

    /// The deterministic size of `(function, object)`.
    pub fn size_of(&self, function: u32, object: u32) -> Bytes {
        let h = mix64(SIZE_SALT ^ (u64::from(function) << 32) ^ u64::from(object));
        let doublings = h % u64::from(self.population.size_doublings + 1);
        Bytes::new(self.population.base_size.as_u64() << doublings)
    }

    /// The request at trace position `position`: `function` invoked at
    /// `arrival`, reading the object [`ObjectCatalog::object_for`] assigns
    /// that position, with the object's [`ObjectCatalog::size_of`].
    pub(crate) fn request(
        &self,
        position: u64,
        arrival: SimTime,
        benchmark: Benchmark,
        function: u32,
    ) -> TraceRequest {
        let object = self.object_for(function, position);
        let object_bytes = u32::try_from(self.size_of(function, object).as_u64())
            .expect("ObjectPopulation::validate caps object sizes at u32::MAX bytes");
        TraceRequest {
            arrival,
            benchmark,
            function,
            object,
            object_bytes,
        }
    }
}

/// A request-trace generator.
///
/// Implementations must be deterministic: the same seed (via the caller's
/// [`DeterministicRng`]) must produce the identical trace, so at-scale runs
/// are byte-for-byte reproducible.
pub trait Workload {
    /// Short machine-readable name used in reports (`"bursty"`, `"azure"`, ...).
    fn name(&self) -> &'static str;

    /// Total duration the generated trace covers.
    fn horizon(&self) -> SimDuration;

    /// The object working set the workload's requests read from. The default
    /// is the suite-wide [`ObjectPopulation::default`].
    fn objects(&self) -> ObjectPopulation {
        ObjectPopulation::default()
    }

    /// Checks the workload parameters, returning the first violation found.
    fn validate(&self) -> Result<(), WorkloadError>;

    /// Generates the request trace, validating parameters first.
    fn generate(&self, rng: &mut DeterministicRng) -> Result<Vec<TraceRequest>, WorkloadError>;
}

/// Azure-functions-style synthetic workload.
///
/// `functions` distinct serverless functions share the cluster. Popularity
/// follows a Zipf law with exponent `popularity_skew`; each function is bound
/// round-robin to one of the eight benchmark applications (which determines
/// its service time and container image). The aggregate arrival rate is
/// `base_rps` modulated by a sinusoidal diurnal cycle and by random burst
/// episodes; arrivals inside each modulation step are Poisson.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AzureWorkload {
    /// Number of distinct functions (>= 1).
    pub functions: u32,
    /// Zipf popularity exponent (0 = uniform; ~1 matches the Azure traces).
    pub popularity_skew: f64,
    /// Mean aggregate request rate in requests/second.
    pub base_rps: f64,
    /// Trace duration.
    pub horizon: SimDuration,
    /// Peak-to-mean amplitude of the diurnal cycle, in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal cycle.
    pub diurnal_period: SimDuration,
    /// Rate multiplier during a burst episode (>= 1).
    pub burst_factor: f64,
    /// Fraction of modulation steps that are burst episodes, in `[0, 1]`.
    pub burst_fraction: f64,
    /// Width of one rate-modulation step (arrivals are Poisson within a step).
    pub step: SimDuration,
}

impl Default for AzureWorkload {
    fn default() -> Self {
        AzureWorkload {
            functions: 64,
            popularity_skew: 1.0,
            base_rps: 1200.0,
            horizon: SimDuration::from_secs(20 * 60),
            diurnal_amplitude: 0.4,
            diurnal_period: SimDuration::from_secs(10 * 60),
            burst_factor: 2.0,
            burst_fraction: 0.1,
            step: SimDuration::from_secs(10),
        }
    }
}

impl AzureWorkload {
    /// A short, light configuration for quick runs and CI smoke tests.
    pub fn quick() -> Self {
        AzureWorkload {
            functions: 24,
            base_rps: 600.0,
            horizon: SimDuration::from_secs(120),
            diurnal_period: SimDuration::from_secs(60),
            ..AzureWorkload::default()
        }
    }

    /// The benchmark application function `f` is bound to (round-robin).
    pub fn benchmark_of(function: u32) -> Benchmark {
        Benchmark::ALL[function as usize % Benchmark::ALL.len()]
    }

    /// The instantaneous rate multiplier at `t` (diurnal component only).
    fn diurnal(&self, t: SimDuration) -> f64 {
        let phase = t.as_secs_f64() / self.diurnal_period.as_secs_f64();
        1.0 + self.diurnal_amplitude * (std::f64::consts::TAU * phase).sin()
    }
}

impl Workload for AzureWorkload {
    fn name(&self) -> &'static str {
        "azure"
    }

    fn horizon(&self) -> SimDuration {
        self.horizon
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        if self.functions == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "functions",
                value: 0.0,
            });
        }
        if !self.popularity_skew.is_finite() || self.popularity_skew < 0.0 {
            return Err(WorkloadError::InvalidParameter {
                name: "popularity_skew",
                value: self.popularity_skew,
            });
        }
        if !self.base_rps.is_finite() || self.base_rps <= 0.0 {
            return Err(WorkloadError::InvalidRate {
                segment: 0,
                rate: self.base_rps,
            });
        }
        if self.horizon.is_zero() {
            return Err(WorkloadError::ZeroDuration { segment: 0 });
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(WorkloadError::InvalidParameter {
                name: "diurnal_amplitude",
                value: self.diurnal_amplitude,
            });
        }
        if self.diurnal_period.is_zero() {
            return Err(WorkloadError::InvalidParameter {
                name: "diurnal_period",
                value: 0.0,
            });
        }
        if !self.burst_factor.is_finite() || self.burst_factor < 1.0 {
            return Err(WorkloadError::InvalidParameter {
                name: "burst_factor",
                value: self.burst_factor,
            });
        }
        if !(0.0..=1.0).contains(&self.burst_fraction) {
            return Err(WorkloadError::InvalidParameter {
                name: "burst_fraction",
                value: self.burst_fraction,
            });
        }
        if self.step.is_zero() || self.step > self.horizon {
            return Err(WorkloadError::InvalidParameter {
                name: "step",
                value: self.step.as_secs_f64(),
            });
        }
        Ok(())
    }

    fn generate(&self, rng: &mut DeterministicRng) -> Result<Vec<TraceRequest>, WorkloadError> {
        self.validate()?;
        let zipf = ZipfIndex::new(self.functions as usize, self.popularity_skew);
        let catalog = ObjectCatalog::new(self.objects());
        let mut requests = Vec::new();
        let mut offset = SimDuration::ZERO;
        while offset < self.horizon {
            let step = self.step.min(self.horizon - offset);
            let burst = if rng.bernoulli(self.burst_fraction) {
                self.burst_factor
            } else {
                1.0
            };
            let rate = self.base_rps * self.diurnal(offset) * burst;
            let arrivals = PoissonArrivals::new(rate).arrivals_until(step, rng);
            for t in arrivals {
                let function = zipf.sample(rng) as u32;
                requests.push(catalog.request(
                    requests.len() as u64,
                    SimTime::ZERO + offset + t,
                    AzureWorkload::benchmark_of(function),
                    function,
                ));
            }
            offset += step;
        }
        Ok(requests)
    }
}

/// The RNG stream a [`WorkloadSpec::Bursty`] trace is generated from: fork 1
/// of a master seeded with the spec's seed (matching the sweep's historical
/// stream assignment; fork 2 is the azure stream).
pub fn bursty_generation_rng(seed: u64) -> DeterministicRng {
    DeterministicRng::seeded(seed).fork(1)
}

/// The RNG stream a [`WorkloadSpec::Azure`] trace is generated from: fork 2
/// of a master seeded with the spec's seed. The `generate-trace` CLI buckets
/// exactly this stream into CSV, so a trace file generated at seed `s`
/// carries the same invocations the sweep's `azure` workload offers at
/// seed `s`.
pub fn azure_generation_rng(seed: u64) -> DeterministicRng {
    DeterministicRng::seeded(seed).fork(2)
}

/// Salt seeding the within-minute jitter stream trace-file expansion draws
/// from (forked by day, so every day of a file jitters independently).
const TRACE_JITTER_SALT: u64 = 0x7F11_E000_5EED_0001;

/// Errors produced while validating or realizing a [`WorkloadSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpecError {
    /// A CLI spec string named a workload kind that does not exist.
    UnknownKind {
        /// The unrecognised spec string.
        kind: String,
    },
    /// A `trace:<path>@<day>` spec carried a day that is not a positive
    /// integer.
    InvalidDay {
        /// The offending day text.
        value: String,
    },
    /// Reading or parsing a trace file failed.
    Ingest(IngestError),
    /// The underlying workload rejected its parameters or failed to expand.
    Workload(WorkloadError),
    /// An inline spec carried an empty trace.
    EmptyInline,
}

impl fmt::Display for WorkloadSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpecError::UnknownKind { kind } => write!(
                f,
                "unknown workload spec '{kind}' (expected azure, bursty or trace:<path>[@<day>])"
            ),
            WorkloadSpecError::InvalidDay { value } => {
                write!(f, "'{value}' is not a valid trace day (expected 1..=14)")
            }
            WorkloadSpecError::Ingest(err) => write!(f, "{err}"),
            WorkloadSpecError::Workload(err) => write!(f, "{err}"),
            WorkloadSpecError::EmptyInline => write!(f, "inline workload carries no requests"),
        }
    }
}

impl std::error::Error for WorkloadSpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadSpecError::Ingest(err) => Some(err),
            WorkloadSpecError::Workload(err) => Some(err),
            _ => None,
        }
    }
}

impl From<IngestError> for WorkloadSpecError {
    fn from(err: IngestError) -> Self {
        WorkloadSpecError::Ingest(err)
    }
}

impl From<WorkloadError> for WorkloadSpecError {
    fn from(err: WorkloadError) -> Self {
        WorkloadSpecError::Workload(err)
    }
}

/// A workload, realized: the generated trace plus the labels reports carry.
#[derive(Debug, Clone, PartialEq)]
pub struct RealizedWorkload {
    /// Workload name (`"bursty"`, `"azure"`, `"trace"`, ...).
    pub name: String,
    /// Where the trace came from: `"synthetic"` for the generators,
    /// `"trace-file:<file>"` for ingested files. Sweep-cell identity (and
    /// the perf gate's cell key) includes this, so a trace-file cell is
    /// never diffed against a synthetic one.
    pub source: String,
    /// The request trace, shared across every cell that replays it.
    pub trace: Arc<Vec<TraceRequest>>,
    /// Trace horizon in seconds.
    pub horizon_s: f64,
}

/// A declarative workload selection: *what* to replay, not a pre-generated
/// trace. Specs are data — they name their own scale and seed — so a
/// [`crate::at_scale::SweepSpec`] can put workload source on an axis, the
/// CLI can parse one from `--workload azure|bursty|trace:<path>[@<day>]`,
/// and [`crate::experiment::ExperimentBuilder::workload_spec`] can realize
/// one directly into an experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's bursty [`RateProfile`] at a sweep scale.
    Bursty {
        /// Experiment size (governs trace compression).
        scale: SweepScale,
        /// Master seed the generation stream forks from.
        seed: u64,
    },
    /// The synthetic [`AzureWorkload`] at a sweep scale.
    Azure {
        /// Experiment size (governs the workload configuration).
        scale: SweepScale,
        /// Master seed the generation stream forks from.
        seed: u64,
    },
    /// An Azure-schema invocation trace file, ingested via
    /// [`TraceFileWorkload`].
    TraceFile {
        /// Path to the CSV file.
        path: String,
        /// 1-based day window within the file (a dataset day spans 1440
        /// minute columns).
        day: u32,
    },
    /// A pre-generated trace supplied in memory, with caller-chosen labels.
    Inline {
        /// Workload name for reports.
        name: String,
        /// Source label for reports and cell identity (see
        /// [`RealizedWorkload::source`]).
        source: String,
        /// Trace horizon in seconds.
        horizon_s: f64,
        /// The request trace.
        trace: Arc<Vec<TraceRequest>>,
    },
}

impl WorkloadSpec {
    /// The bursty profile a given sweep scale replays.
    pub fn bursty_at(scale: SweepScale) -> RateProfile {
        match scale {
            SweepScale::Smoke => RateProfile::paper_bursty().compressed(100.0),
            SweepScale::Quick => RateProfile::paper_bursty().compressed(16.0),
            SweepScale::Full => RateProfile::paper_bursty(),
            // Six back-to-back repetitions of the paper's 20-minute profile:
            // two simulated hours at the paper's rates, ~10⁷ arrivals.
            SweepScale::Large => {
                let day = RateProfile::paper_bursty();
                RateProfile {
                    segments: day
                        .segments
                        .iter()
                        .cloned()
                        .cycle()
                        .take(day.segments.len() * 6)
                        .collect(),
                }
            }
        }
    }

    /// The synthetic azure configuration a given sweep scale replays.
    pub fn azure_at(scale: SweepScale) -> AzureWorkload {
        match scale {
            SweepScale::Smoke => AzureWorkload {
                functions: 16,
                base_rps: 200.0,
                horizon: SimDuration::from_secs(20),
                diurnal_period: SimDuration::from_secs(10),
                step: SimDuration::from_secs(2),
                ..AzureWorkload::default()
            },
            SweepScale::Quick => AzureWorkload::quick(),
            SweepScale::Full => AzureWorkload::default(),
            // The 10⁷-invocation scale the rack-parallel engine exists for:
            // 10⁵ functions over two simulated days with a true diurnal
            // period (~60 rps × 48 h ≈ 1.0 × 10⁷ invocations).
            SweepScale::Large => AzureWorkload {
                functions: 100_000,
                base_rps: 60.0,
                horizon: SimDuration::from_secs(48 * 3600),
                diurnal_period: SimDuration::from_secs(24 * 3600),
                step: SimDuration::from_secs(60),
                ..AzureWorkload::default()
            },
        }
    }

    /// Parses a CLI workload spec: `azure`, `bursty`, or
    /// `trace:<path>[@<day>]`. Synthetic kinds adopt the given sweep scale
    /// and seed; `day` defaults to 1.
    pub fn parse(text: &str, scale: SweepScale, seed: u64) -> Result<Self, WorkloadSpecError> {
        match text {
            "azure" => Ok(WorkloadSpec::Azure { scale, seed }),
            "bursty" => Ok(WorkloadSpec::Bursty { scale, seed }),
            _ => {
                let Some(rest) = text.strip_prefix("trace:") else {
                    return Err(WorkloadSpecError::UnknownKind { kind: text.into() });
                };
                let (path, day) = match rest.rsplit_once('@') {
                    Some((path, day_text)) => {
                        let day = day_text.parse::<u32>().ok().filter(|&d| d > 0).ok_or(
                            WorkloadSpecError::InvalidDay {
                                value: day_text.into(),
                            },
                        )?;
                        (path, day)
                    }
                    None => (rest, 1),
                };
                if path.is_empty() {
                    return Err(WorkloadSpecError::UnknownKind { kind: text.into() });
                }
                Ok(WorkloadSpec::TraceFile {
                    path: path.into(),
                    day,
                })
            }
        }
    }

    /// Realizes the spec into a trace plus report labels. Generation is a
    /// pure function of the spec: synthetic kinds draw their dedicated
    /// streams ([`bursty_generation_rng`], [`azure_generation_rng`]) from
    /// their own seed; trace files expand with a day-forked jitter stream,
    /// so the same file and day always reproduce the same arrivals.
    pub fn realize(&self) -> Result<RealizedWorkload, WorkloadSpecError> {
        match self {
            WorkloadSpec::Bursty { scale, seed } => {
                let profile = Self::bursty_at(*scale);
                let trace = Workload::generate(&profile, &mut bursty_generation_rng(*seed))?;
                Ok(RealizedWorkload {
                    name: Workload::name(&profile).into(),
                    source: "synthetic".into(),
                    horizon_s: Workload::horizon(&profile).as_secs_f64(),
                    trace: Arc::new(trace),
                })
            }
            WorkloadSpec::Azure { scale, seed } => {
                let workload = Self::azure_at(*scale);
                let trace = workload.generate(&mut azure_generation_rng(*seed))?;
                Ok(RealizedWorkload {
                    name: workload.name().into(),
                    source: "synthetic".into(),
                    horizon_s: workload.horizon().as_secs_f64(),
                    trace: Arc::new(trace),
                })
            }
            WorkloadSpec::TraceFile { path, day } => {
                let workload = TraceFileWorkload::from_csv_path(path, *day)?;
                let mut jitter = DeterministicRng::seeded(TRACE_JITTER_SALT).fork(u64::from(*day));
                let trace = workload.generate(&mut jitter)?;
                Ok(RealizedWorkload {
                    name: workload.name().into(),
                    source: format!("trace-file:{}", workload.source),
                    horizon_s: workload.horizon().as_secs_f64(),
                    trace: Arc::new(trace),
                })
            }
            WorkloadSpec::Inline {
                name,
                source,
                horizon_s,
                trace,
            } => {
                if trace.is_empty() {
                    return Err(WorkloadSpecError::EmptyInline);
                }
                Ok(RealizedWorkload {
                    name: name.clone(),
                    source: source.clone(),
                    horizon_s: *horizon_s,
                    trace: trace.clone(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workload_validates() {
        assert_eq!(AzureWorkload::default().validate(), Ok(()));
        assert_eq!(AzureWorkload::quick().validate(), Ok(()));
    }

    #[test]
    fn invalid_parameters_are_rejected_with_typed_errors() {
        let mut w = AzureWorkload::quick();
        w.base_rps = f64::NAN;
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::InvalidRate { rate, .. }) if rate.is_nan()
        ));

        let mut w = AzureWorkload::quick();
        w.base_rps = -5.0;
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::InvalidRate { .. })
        ));

        let mut w = AzureWorkload::quick();
        w.functions = 0;
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::InvalidParameter {
                name: "functions",
                ..
            })
        ));

        let mut w = AzureWorkload::quick();
        w.horizon = SimDuration::ZERO;
        assert_eq!(
            w.validate(),
            Err(WorkloadError::ZeroDuration { segment: 0 })
        );

        let mut w = AzureWorkload::quick();
        w.burst_factor = 0.5;
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::InvalidParameter {
                name: "burst_factor",
                ..
            })
        ));

        let mut w = AzureWorkload::quick();
        w.diurnal_amplitude = 1.0;
        assert!(w.validate().is_err(), "amplitude 1.0 allows zero rates");
    }

    #[test]
    fn generation_fails_fast_on_invalid_parameters() {
        let mut w = AzureWorkload::quick();
        w.base_rps = f64::INFINITY;
        let err = w
            .generate(&mut DeterministicRng::seeded(1))
            .expect_err("must reject");
        assert!(matches!(err, WorkloadError::InvalidRate { .. }));
    }

    #[test]
    fn trace_is_sorted_bounded_and_plausible() {
        let w = AzureWorkload::quick();
        let trace = w.generate(&mut DeterministicRng::seeded(2)).expect("valid");
        assert!(trace.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        assert!(trace
            .iter()
            .all(|r| r.arrival < SimTime::ZERO + w.horizon()));
        // ~600 rps over 120 s, modulated: within a broad band.
        let expected = w.base_rps * w.horizon.as_secs_f64();
        let n = trace.len() as f64;
        assert!(n > expected * 0.5 && n < expected * 2.0, "len {n}");
        // Function ids map consistently to benchmarks.
        assert!(trace
            .iter()
            .all(|r| r.benchmark == AzureWorkload::benchmark_of(r.function)));
    }

    #[test]
    fn popularity_is_skewed() {
        let w = AzureWorkload::quick();
        let trace = w.generate(&mut DeterministicRng::seeded(3)).expect("valid");
        let count = |f: u32| trace.iter().filter(|r| r.function == f).count();
        let hottest = count(0);
        let coldest = count(w.functions - 1);
        assert!(
            hottest > 4 * coldest.max(1),
            "hottest {hottest} vs coldest {coldest}"
        );
    }

    #[test]
    fn object_population_rejects_overflowing_sizes() {
        assert_eq!(ObjectPopulation::default().validate(), Ok(()));
        let oversized = ObjectPopulation {
            size_doublings: 64,
            ..ObjectPopulation::default()
        };
        assert!(matches!(
            oversized.validate(),
            Err(WorkloadError::InvalidParameter {
                name: "size_doublings",
                ..
            })
        ));
        // Requests store sizes as u32 byte counts: the largest object,
        // base_size << size_doublings, must fit one.
        let population = |base_size, size_doublings| ObjectPopulation {
            base_size,
            size_doublings,
            ..ObjectPopulation::default()
        };
        for (base, doublings) in [
            // Shift in range but the product overflows u64.
            (Bytes::from_gib(1 << 30), 4),
            // 256 KiB << 14 is 4 GiB, one byte more than u32::MAX.
            (Bytes::from_kib(256), 14),
            (Bytes::from_gib(4), 0),
        ] {
            assert!(
                matches!(
                    population(base, doublings).validate(),
                    Err(WorkloadError::InvalidParameter {
                        name: "size_doublings",
                        ..
                    })
                ),
                "{base} << {doublings}"
            );
        }
        // 256 KiB << 13 is 2 GiB.
        assert_eq!(population(Bytes::from_kib(256), 13).validate(), Ok(()));
        let zero_objects = ObjectPopulation {
            objects_per_function: 0,
            ..ObjectPopulation::default()
        };
        assert!(zero_objects.validate().is_err());
    }

    #[test]
    fn object_catalog_is_deterministic_and_in_range() {
        let population = ObjectPopulation::default();
        let catalog = ObjectCatalog::new(population);
        let largest = Bytes::new(population.base_size.as_u64() << population.size_doublings);
        for id in 0..2000u64 {
            let object = catalog.object_for(3, id);
            assert!(object < population.objects_per_function);
            assert_eq!(object, catalog.object_for(3, id), "pure function of id");
            let size = catalog.size_of(3, object);
            assert!(size >= population.base_size && size <= largest, "{size}");
        }
        // Zipf skew: the hottest object dominates a uniform share.
        let hot = (0..4000u64)
            .filter(|&id| catalog.object_for(7, id) == 0)
            .count();
        assert!(
            hot > 4000 / population.objects_per_function as usize * 4,
            "hot object drew {hot} of 4000"
        );
    }

    /// Every generator stamps each request with the object
    /// [`ObjectCatalog::object_for`] assigns its final trace position, and
    /// that object's size. For a trace file that is the position after the
    /// expansion sorts by arrival.
    #[test]
    fn objects_follow_the_final_trace_position() {
        let bursty = RateProfile {
            segments: vec![(SimDuration::from_secs(5), 200.0)],
        };
        let azure = AzureWorkload::quick();
        let file = TraceFileWorkload::from_workload(&azure, &mut DeterministicRng::seeded(1), "q")
            .expect("valid");
        let traces = [
            Workload::generate(&bursty, &mut DeterministicRng::seeded(2)),
            azure.generate(&mut DeterministicRng::seeded(3)),
            file.generate(&mut DeterministicRng::seeded(4)),
        ];
        let catalog = ObjectCatalog::new(ObjectPopulation::default());
        for trace in traces {
            let trace = trace.expect("valid");
            assert!(!trace.is_empty());
            for (position, r) in trace.iter().enumerate() {
                assert_eq!(r.object, catalog.object_for(r.function, position as u64));
                assert_eq!(
                    u64::from(r.object_bytes),
                    catalog.size_of(r.function, r.object).as_u64()
                );
            }
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let w = AzureWorkload::quick();
        let a = w.generate(&mut DeterministicRng::seeded(4)).expect("valid");
        let b = w.generate(&mut DeterministicRng::seeded(4)).expect("valid");
        assert_eq!(a, b);
        let c = w.generate(&mut DeterministicRng::seeded(5)).expect("valid");
        assert_ne!(a.len(), c.len());
    }
}
