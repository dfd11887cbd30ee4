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
//! data identities, not just function identities. Every function owns the
//! same fixed object working set: 32 objects under a Zipf(1.1) popularity,
//! mirroring the skew of function popularity itself, each 256 KiB to 8 MiB
//! in size. The [`ObjectCatalog`] stamps deterministic object ids and sizes
//! onto requests. Object assignment is hash-based, not RNG-stream-based, so
//! adding data identities leaves arrival sequences bit-compatible with
//! earlier trace versions.

use std::fmt;
use std::sync::Arc;

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
    /// The trace holds more requests than the host would allocate memory
    /// for.
    TraceTooLarge {
        /// The requests the trace holds.
        requests: u64,
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
            WorkloadError::TraceTooLarge { requests } => write!(
                f,
                "a trace of {requests} requests does not fit in memory ({} bytes each)",
                std::mem::size_of::<TraceRequest>()
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Distinct objects each function owns; a request reads one of them.
pub(crate) const OBJECTS_PER_FUNCTION: u8 = 32;

/// Object-size exponents a request can carry
/// ([`TraceRequest::object_size_log2`]): `0..32`, so every object is under
/// 4 GiB.
pub(crate) const OBJECT_SIZE_EXPONENTS: u8 = 32;

/// Zipf skew over a function's objects, so a function's hot objects dominate
/// its traffic the same way hot functions dominate the cluster's.
const OBJECT_SKEW: f64 = 1.1;

/// Base-2 exponent of the smallest object size (256 KiB). Sizes are
/// deterministic per (function, object): this base scaled by a hashed
/// number of doublings.
const OBJECT_BASE_SIZE_LOG2: u8 = 18;

/// Object sizes span `OBJECT_SIZE_DOUBLINGS` doublings above the base: 256
/// KiB to 8 MiB, the image/audio/text payload range of the benchmark suite
/// (AWS caps serverless payloads at ~20 MB).
const OBJECT_SIZE_DOUBLINGS: u8 = 5;

// Requests store object sizes as exponents below OBJECT_SIZE_EXPONENTS, so
// the largest must be one.
const _: () = assert!(OBJECT_BASE_SIZE_LOG2 + OBJECT_SIZE_DOUBLINGS < OBJECT_SIZE_EXPONENTS);

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

/// Deterministic object assignment over the fixed per-function working set:
/// maps (function, trace position) to the object the request reads and
/// (function, object) to that object's size.
#[derive(Debug, Clone)]
pub struct ObjectCatalog {
    zipf: ZipfIndex,
}

impl Default for ObjectCatalog {
    fn default() -> Self {
        ObjectCatalog {
            zipf: ZipfIndex::new(usize::from(OBJECTS_PER_FUNCTION), OBJECT_SKEW),
        }
    }
}

impl ObjectCatalog {
    /// The object a request of `function` at trace position `position`
    /// reads: a Zipf draw over the function's objects, derived by hashing
    /// rather than sampling so the caller's RNG stream is untouched.
    pub fn object_for(&self, function: u32, position: u64) -> u8 {
        let h = mix64(mix64(OBJECT_SALT ^ u64::from(function)).wrapping_add(position));
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.zipf.rank_of(u) as u8
    }

    /// The deterministic size of `(function, object)`.
    pub fn size_of(&self, function: u32, object: u8) -> Bytes {
        Bytes::new(1 << self.size_log2_of(function, object))
    }

    /// The base-2 exponent of [`ObjectCatalog::size_of`].
    fn size_log2_of(&self, function: u32, object: u8) -> u8 {
        let h = mix64(SIZE_SALT ^ (u64::from(function) << 32) ^ u64::from(object));
        OBJECT_BASE_SIZE_LOG2 + (h % u64::from(OBJECT_SIZE_DOUBLINGS + 1)) as u8
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
        TraceRequest {
            arrival,
            benchmark,
            function,
            object,
            object_size_log2: self.size_log2_of(function, object),
        }
    }
}

/// Makes a synthetic trace meet the slot contract of
/// [`TraceRequest::function`]. Generators name a function by id, a
/// benchmark index or a popularity rank, which is a valid slot whenever the
/// trace has more requests than its highest id. A shorter trace has its ids
/// renumbered to dense ascending ranks. Benchmarks, objects and sizes were
/// stamped from the id and stay, and the renumbering keeps id order, which
/// is the order every per-function sum follows, so no outcome moves.
pub(crate) fn fit_slots(trace: &mut [TraceRequest]) {
    if trace.iter().all(|r| (r.function as usize) < trace.len()) {
        return;
    }
    let mut ids: Vec<u32> = trace.iter().map(|r| r.function).collect();
    ids.sort_unstable();
    ids.dedup();
    for request in trace {
        request.function = ids.binary_search(&request.function).expect("listed") as u32;
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

    /// Checks the workload parameters, returning the first violation found.
    fn validate(&self) -> Result<(), WorkloadError>;

    /// Generates the request trace, validating parameters first.
    fn generate(&self, rng: &mut DeterministicRng) -> Result<Vec<TraceRequest>, WorkloadError>;
}

/// Zipf exponent of [`AzureWorkload`]'s function popularity (~1 matches the
/// Azure traces).
const POPULARITY_SKEW: f64 = 1.0;
/// Peak-to-mean amplitude of [`AzureWorkload`]'s diurnal cycle.
const DIURNAL_AMPLITUDE: f64 = 0.4;
/// Rate multiplier during one of [`AzureWorkload`]'s burst episodes.
const BURST_FACTOR: f64 = 2.0;
/// Fraction of [`AzureWorkload`]'s modulation steps that are burst episodes.
const BURST_FRACTION: f64 = 0.1;

/// Azure-functions-style synthetic workload.
///
/// `functions` distinct serverless functions share the cluster. Popularity
/// follows a Zipf law with exponent 1; each function is bound round-robin to
/// one of the eight benchmark applications (which determines its service
/// time and container image). The aggregate arrival rate is `base_rps`
/// modulated by a sinusoidal diurnal cycle of amplitude 0.4 and by random
/// burst episodes (a tenth of the modulation steps, at twice the rate);
/// arrivals inside each modulation step are Poisson.
#[derive(Debug, Clone, PartialEq)]
pub struct AzureWorkload {
    /// Number of distinct functions (>= 1).
    pub functions: u32,
    /// Mean aggregate request rate in requests/second.
    pub base_rps: f64,
    /// Trace duration.
    pub horizon: SimDuration,
    /// Period of the diurnal cycle.
    pub diurnal_period: SimDuration,
    /// Width of one rate-modulation step (arrivals are Poisson within a step).
    pub step: SimDuration,
}

impl Default for AzureWorkload {
    fn default() -> Self {
        AzureWorkload {
            functions: 64,
            base_rps: 1200.0,
            horizon: SimDuration::from_secs(20 * 60),
            diurnal_period: SimDuration::from_secs(10 * 60),
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

    /// The trace [`Workload::generate`] returns before [`fit_slots`]: each
    /// request names its function by popularity rank, below `functions`,
    /// which is what [`crate::ingest::TraceFileWorkload::from_workload`]
    /// buckets by.
    pub(crate) fn generate_ranked(
        &self,
        rng: &mut DeterministicRng,
    ) -> Result<Vec<TraceRequest>, WorkloadError> {
        self.validate()?;
        let zipf = ZipfIndex::new(self.functions as usize, POPULARITY_SKEW);
        let catalog = ObjectCatalog::default();
        let mut requests = Vec::new();
        let mut offset = SimDuration::ZERO;
        while offset < self.horizon {
            let step = self.step.min(self.horizon - offset);
            let burst = if rng.bernoulli(BURST_FRACTION) {
                BURST_FACTOR
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

    /// The instantaneous rate multiplier at `t` (diurnal component only).
    fn diurnal(&self, t: SimDuration) -> f64 {
        let phase = t.as_secs_f64() / self.diurnal_period.as_secs_f64();
        1.0 + DIURNAL_AMPLITUDE * (std::f64::consts::TAU * phase).sin()
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
        if !self.base_rps.is_finite() || self.base_rps <= 0.0 {
            return Err(WorkloadError::InvalidRate {
                segment: 0,
                rate: self.base_rps,
            });
        }
        if self.horizon.is_zero() {
            return Err(WorkloadError::ZeroDuration { segment: 0 });
        }
        if self.diurnal_period.is_zero() {
            return Err(WorkloadError::InvalidParameter {
                name: "diurnal_period",
                value: 0.0,
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
        let mut trace = self.generate_ranked(rng)?;
        fit_slots(&mut trace);
        Ok(trace)
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
    /// An inline spec's trace is not sorted by arrival time.
    UnsortedInline {
        /// Trace position of the first request that arrives before the one
        /// ahead of it.
        position: usize,
    },
    /// An inline spec's horizon is negative, infinite or NaN.
    InvalidHorizon {
        /// The offending horizon, in seconds.
        horizon_s: f64,
    },
    /// An inline spec's request names a function slot at or above the
    /// trace's request count ([`TraceRequest::function`]).
    FunctionOutOfRange {
        /// Trace position of the first such request.
        position: usize,
        /// The slot it names.
        function: u32,
    },
    /// An inline spec's request reads an object outside its function's 32
    /// ([`TraceRequest::object`]).
    ObjectOutOfRange {
        /// Trace position of the first such request.
        position: usize,
        /// The object it reads.
        object: u8,
    },
    /// An inline spec's request reads an object whose size exponent is 32
    /// or more, 4 GiB or larger ([`TraceRequest::object_size_log2`]).
    ObjectSizeOutOfRange {
        /// Trace position of the first such request.
        position: usize,
        /// The size exponent it carries.
        log2: u8,
    },
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
            WorkloadSpecError::UnsortedInline { position } => write!(
                f,
                "inline workload is not sorted by arrival: request {position} arrives before \
                 the one ahead of it"
            ),
            WorkloadSpecError::InvalidHorizon { horizon_s } => write!(
                f,
                "inline workload horizon {horizon_s} s must be finite and non-negative"
            ),
            WorkloadSpecError::FunctionOutOfRange { position, function } => write!(
                f,
                "inline workload request {position} names function {function}; function \
                 slots must be below the trace's request count"
            ),
            WorkloadSpecError::ObjectOutOfRange { position, object } => write!(
                f,
                "inline workload request {position} reads object {object}, outside its \
                 function's {OBJECTS_PER_FUNCTION}"
            ),
            WorkloadSpecError::ObjectSizeOutOfRange { position, log2 } => write!(
                f,
                "inline workload request {position} reads an object of 2^{log2} bytes; size \
                 exponents must be below {OBJECT_SIZE_EXPONENTS}"
            ),
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
    /// `"trace-file:<file>"` for ingested files. Sweep-cell identity
    /// includes this, so cross-validation never pairs the cells of two
    /// workloads that share a name.
    pub source: String,
    /// The request trace, shared across every cell that replays it.
    pub trace: Arc<Vec<TraceRequest>>,
    /// Trace horizon in seconds.
    pub horizon_s: f64,
}

/// A declarative workload selection: *what* to replay, not a pre-generated
/// trace. Specs are data — they name their own scale and seed — so a
/// [`crate::at_scale::SweepSpec`] can put workload source on an axis and
/// the CLI can parse one from `--workload azure|bursty|trace:<path>[@<day>]`.
/// A single experiment takes the realized trace:
/// `builder.trace(spec.realize()?.trace)`.
#[derive(Debug, Clone, PartialEq)]
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
    /// [`WorkloadSpec::realize`] checks that the trace is non-empty, sorted
    /// by arrival and within the function-slot, object and size ranges, and
    /// that the horizon is finite and non-negative.
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
    /// so the same file and day always reproduce the same arrivals. Every
    /// kind but `Inline` yields a sorted trace of in-range objects and sizes
    /// by construction, and at every sweep scale its function slots are
    /// below its length ([`TraceRequest::function`]); an inline one is
    /// checked for all four, in one pass over its trace.
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
                if !(horizon_s.is_finite() && *horizon_s >= 0.0) {
                    return Err(WorkloadSpecError::InvalidHorizon {
                        horizon_s: *horizon_s,
                    });
                }
                let mut ahead = SimTime::ZERO;
                for (position, request) in trace.iter().enumerate() {
                    if request.arrival < ahead {
                        return Err(WorkloadSpecError::UnsortedInline { position });
                    }
                    if request.function as usize >= trace.len() {
                        return Err(WorkloadSpecError::FunctionOutOfRange {
                            position,
                            function: request.function,
                        });
                    }
                    if request.object >= OBJECTS_PER_FUNCTION {
                        return Err(WorkloadSpecError::ObjectOutOfRange {
                            position,
                            object: request.object,
                        });
                    }
                    if request.object_size_log2 >= OBJECT_SIZE_EXPONENTS {
                        return Err(WorkloadSpecError::ObjectSizeOutOfRange {
                            position,
                            log2: request.object_size_log2,
                        });
                    }
                    ahead = request.arrival;
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
    fn object_catalog_is_deterministic_and_in_range() {
        let catalog = ObjectCatalog::default();
        let smallest = Bytes::new(1 << OBJECT_BASE_SIZE_LOG2);
        let largest = Bytes::new(1 << (OBJECT_BASE_SIZE_LOG2 + OBJECT_SIZE_DOUBLINGS));
        for id in 0..2000u64 {
            let object = catalog.object_for(3, id);
            assert!(object < OBJECTS_PER_FUNCTION);
            assert_eq!(object, catalog.object_for(3, id), "pure function of id");
            let size = catalog.size_of(3, object);
            assert!(size >= smallest && size <= largest, "{size}");
        }
        // Zipf skew: the hottest object dominates a uniform share.
        let hot = (0..4000u64)
            .filter(|&id| catalog.object_for(7, id) == 0)
            .count();
        assert!(
            hot > 4000 / OBJECTS_PER_FUNCTION as usize * 4,
            "hot object drew {hot} of 4000"
        );
    }

    /// Every generator stamps each request with the object
    /// [`ObjectCatalog::object_for`] assigns its final trace position, and
    /// that object's size. For a trace file (an in-memory one and the
    /// checked-in sample) that is the position after the expansion sorts by
    /// arrival, and the function is the 32-bit id behind the request's slot.
    #[test]
    fn objects_follow_the_final_trace_position() {
        let bursty = RateProfile {
            segments: vec![(SimDuration::from_secs(5), 200.0)],
        };
        let azure = AzureWorkload::quick();
        let file = TraceFileWorkload::from_workload(&azure, &mut DeterministicRng::seeded(1), "q")
            .expect("valid");
        let sample_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../data/azure_trace_sample.csv"
        );
        let sample_file = TraceFileWorkload::from_csv_path(sample_path, 1)
            .expect("the sample trace is checked in");
        let sample = WorkloadSpec::TraceFile {
            path: sample_path.into(),
            day: 1,
        }
        .realize()
        .expect("the sample trace is checked in");
        // A synthetic request's slot is its function id; a trace file's maps
        // to its id through the file's slot table.
        let traces = [
            (
                Workload::generate(&bursty, &mut DeterministicRng::seeded(2)),
                None,
            ),
            (azure.generate(&mut DeterministicRng::seeded(3)), None),
            (
                file.generate(&mut DeterministicRng::seeded(4)),
                Some(file.slot_ids()),
            ),
            (Ok(sample.trace.to_vec()), Some(sample_file.slot_ids())),
        ];
        let catalog = ObjectCatalog::default();
        for (trace, slot_ids) in traces {
            let trace = trace.expect("valid");
            assert!(!trace.is_empty());
            for (position, r) in trace.iter().enumerate() {
                let id = slot_ids
                    .as_ref()
                    .map_or(r.function, |ids| ids[r.function as usize]);
                assert_eq!(r.object, catalog.object_for(id, position as u64));
                assert_eq!(r.object_bytes(), catalog.size_of(id, r.object));
            }
        }
    }

    /// A synthetic trace shorter than its highest function id is renumbered
    /// to dense ascending ranks and keeps everything its ids stamped, so a
    /// run with and without a data layer and the offline bound take it.
    #[test]
    fn short_synthetic_traces_are_renumbered_into_range() {
        use dscs_platforms::PlatformKind;

        use crate::data::DataLayer;
        use crate::experiment::Experiment;
        use crate::optimal::optimal_coldstart_seconds;
        use crate::policy::LoadBalancer;
        use crate::sim::{ClusterConfig, ClusterSim};

        let bursty = RateProfile {
            segments: vec![(SimDuration::from_secs(1), 2.0)],
        };
        let azure = AzureWorkload {
            functions: 64,
            base_rps: 1.0,
            horizon: SimDuration::from_secs(10),
            ..AzureWorkload::quick()
        };
        let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let mut renumbered = 0;
        for seed in 0..8 {
            let rng = || DeterministicRng::seeded(seed);
            let bursty_trace = Workload::generate(&bursty, &mut rng()).expect("valid");
            // Each trace with the ids it was generated with: a bursty
            // request's id is its benchmark's index.
            let bursty_ids: Vec<TraceRequest> = bursty_trace
                .iter()
                .map(|r| TraceRequest {
                    function: r.benchmark as u32,
                    ..*r
                })
                .collect();
            let azure_trace = azure.generate(&mut rng()).expect("valid");
            let azure_ids = azure.generate_ranked(&mut rng()).expect("valid");
            for (trace, ids) in [(bursty_trace, bursty_ids), (azure_trace, azure_ids)] {
                if trace.is_empty() {
                    continue;
                }
                if ids.iter().any(|r| r.function as usize >= ids.len()) {
                    renumbered += 1;
                }
                assert!(trace.iter().all(|r| (r.function as usize) < trace.len()));
                // Only the slots moved, and they kept the ids' order.
                for (a, b) in trace.iter().zip(&ids) {
                    let unslotted = |r: &TraceRequest| TraceRequest { function: 0, ..*r };
                    assert_eq!(unslotted(a), unslotted(b));
                    for (c, d) in trace.iter().zip(&ids) {
                        assert_eq!(a.function.cmp(&c.function), b.function.cmp(&d.function));
                    }
                }
                let data = DataLayer::for_trace(&trace, 2, seed);
                assert!(optimal_coldstart_seconds(&trace, &sim) > 0.0);
                let bare = Experiment::builder(PlatformKind::DscsDsa)
                    .trace(trace.clone())
                    .racks(2)
                    .build()
                    .expect("valid")
                    .run();
                let placed = Experiment::builder(PlatformKind::DscsDsa)
                    .trace(trace.clone())
                    .racks(2)
                    .balancer(LoadBalancer::locality_default())
                    .data_layer(data)
                    .build()
                    .expect("valid")
                    .run();
                for outcome in [bare, placed] {
                    let report = outcome.report;
                    assert_eq!(report.completed + report.rejected, trace.len() as u64);
                }
            }
        }
        assert!(renumbered > 0, "no trace needed renumbering");
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
