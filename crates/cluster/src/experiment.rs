//! The typed entry point to cluster runs: [`Experiment`], built by
//! [`ExperimentBuilder`], executed into an [`Outcome`].
//!
//! * [`Experiment`] — a validated run specification: the platform under
//!   test, the request trace, the rack count, the front-end balancer, the
//!   full scheduler/keepalive/scaling configuration, an optional
//!   data-placement layer and the seed. An `Experiment` can only be obtained
//!   through [`ExperimentBuilder::build`], which returns `Result<Experiment,
//!   ConfigError>`: every precondition of a run but two is a typed, testable
//!   [`ConfigError`] variant.
//! * [`Outcome`] — the named-field result of one run: the aggregate
//!   [`ClusterReport`], the per-rack [`RackSummary`] list, the engine that
//!   ran it and the offline cold-start bound.
//!
//! Each input has one setter: a spec's trace is
//! [`crate::workload::WorkloadSpec::realize`]'s, and a data layer comes from
//! [`DataLayer::for_trace`]. Two preconditions are per request, and `build`
//! does not return them, since a sweep would pay a pass over the trace per
//! cell:
//!
//! * arrival order: the engine asserts it as it takes each arrival
//!   ("arrivals in trace order invariant broken");
//! * function slots below the trace's request count
//!   ([`TraceRequest::function`]): the engine asserts it as it takes each
//!   arrival, and so do [`DataLayer::for_trace`] and the offline bound's
//!   walk ("function < requests invariant broken").
//!
//! `realize` rejects an inline trace that breaks either with a typed error.
//!
//! # Example
//!
//! ```
//! use dscs_cluster::experiment::Experiment;
//! use dscs_cluster::policy::LoadBalancer;
//! use dscs_cluster::trace::RateProfile;
//! use dscs_platforms::spec::PlatformKind;
//! use dscs_simcore::rng::DeterministicRng;
//! use dscs_simcore::time::SimDuration;
//!
//! let profile = RateProfile { segments: vec![(SimDuration::from_secs(5), 60.0)] };
//! let outcome = Experiment::builder(PlatformKind::DscsDsa)
//!     .trace(profile.generate(&mut DeterministicRng::seeded(1)))
//!     .racks(2)
//!     .balancer(LoadBalancer::LeastLoaded)
//!     .seed(7)
//!     .build()
//!     .expect("valid experiment")
//!     .run();
//! assert_eq!(
//!     outcome.report.completed + outcome.report.rejected,
//!     outcome.racks.iter().map(|r| r.completed + r.rejected).sum::<u64>()
//! );
//! ```

use std::fmt;
use std::sync::Arc;

use dscs_platforms::spec::PlatformKind;
use dscs_simcore::time::{SimDuration, SimTime};

use crate::coldpath::{ColdStartPath, IpcTransport};
use crate::data::DataLayer;
use crate::policy::{KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy};
use crate::sim::{
    ClusterConfig, ClusterReport, ClusterSim, EngineSelection, RackStreams, RackSummary,
};
use crate::trace::TraceRequest;
use crate::workload::{WorkloadError, WorkloadSpecError};

/// A violated precondition of a cluster run or sweep.
///
/// [`ExperimentBuilder::build`] and [`crate::at_scale::SweepSpec::check`]
/// return the first one they find, so a spec that could not be simulated
/// never reaches the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The experiment has no trace (none supplied, or the supplied trace is
    /// empty): there is nothing to simulate.
    EmptyTrace,
    /// The trace's last request arrives later than
    /// [`ClusterSim::MAX_TRACE_SPAN`] after the simulation starts.
    TraceTooLong {
        /// When the trace's last request arrives, after the start.
        last_arrival: SimDuration,
        /// The latest arrival a run takes.
        max: SimDuration,
    },
    /// The experiment shards over zero racks.
    ZeroRacks,
    /// A run or sweep shards over more racks than it can: any run over
    /// more than [`ClusterSim::MAX_RACKS`] (its event loop names a rack in
    /// 22 bits), or a sweep over more than the [`DataLayer::MAX_RACKS`] a
    /// data layer spans (every sweep places its workloads' data).
    TooManyRacks {
        /// The requested rack count.
        racks: u32,
        /// The most racks allowed.
        max: u32,
    },
    /// The attached data layer was built for a different rack count than the
    /// experiment shards over.
    DataLayerRackMismatch {
        /// Racks the data layer was built for.
        layer_racks: u32,
        /// Racks the experiment shards over.
        racks: u32,
    },
    /// The attached data layer was built for a trace with a different number
    /// of requests: its per-request placement tables are positional, so a
    /// layer only serves the trace it was built from.
    DataLayerTraceMismatch {
        /// Requests in the trace the data layer was built for.
        layer_requests: usize,
        /// Requests in the experiment's trace.
        requests: usize,
    },
    /// A pool with `max_instances == 0`, under any scaling policy: no
    /// instance could ever start work, so admitted requests would wait in the
    /// queue forever.
    ZeroMaxInstances,
    /// An elastic scaling policy with `min_instances == 0`: the rack could
    /// never start work.
    ZeroMinInstances,
    /// `min_instances` exceeds `max_instances`.
    MinAboveMax {
        /// The configured minimum.
        min: u32,
        /// The configured maximum.
        max: u32,
    },
    /// A sweep axis with no values to sweep.
    EmptySweepAxis {
        /// The axis name (`"platforms"`, `"schedulers"`, ...).
        axis: &'static str,
    },
    /// A workload failed its own validation: a [`WorkloadError`] converted
    /// with `?` where a trace is generated by hand. (Specs on a sweep's
    /// workload axis report theirs as [`ConfigError::WorkloadSpec`].)
    Workload(WorkloadError),
    /// A declarative spec on a sweep's workload axis failed to realize — an
    /// unknown kind, an unreadable or malformed trace file, an invalid
    /// underlying workload, or a malformed inline trace.
    WorkloadSpec(WorkloadSpecError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyTrace => write!(f, "experiment trace must not be empty"),
            ConfigError::TraceTooLong { last_arrival, max } => write!(
                f,
                "the trace's last request arrives at {last_arrival}, past the {max} a run spans"
            ),
            ConfigError::ZeroRacks => write!(f, "experiment needs at least one rack"),
            ConfigError::TooManyRacks { racks, max } => {
                write!(f, "{racks} racks exceed the limit of {max}")
            }
            ConfigError::DataLayerRackMismatch { layer_racks, racks } => write!(
                f,
                "data layer covers {layer_racks} rack(s) but the experiment shards over {racks}"
            ),
            ConfigError::DataLayerTraceMismatch {
                layer_requests,
                requests,
            } => write!(
                f,
                "data layer was built for a trace of {layer_requests} request(s) \
                 but the experiment replays {requests}"
            ),
            ConfigError::ZeroMaxInstances => {
                write!(f, "racks need max_instances of at least one")
            }
            ConfigError::ZeroMinInstances => {
                write!(f, "elastic racks need min_instances of at least one")
            }
            ConfigError::MinAboveMax { min, max } => {
                write!(f, "min_instances {min} must not exceed max_instances {max}")
            }
            ConfigError::EmptySweepAxis { axis } => {
                write!(f, "sweep axis {axis} has no values to sweep")
            }
            ConfigError::Workload(err) => write!(f, "workload validation failed: {err}"),
            ConfigError::WorkloadSpec(err) => write!(f, "workload spec rejected: {err}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Workload(err) => Some(err),
            ConfigError::WorkloadSpec(err) => Some(err),
            _ => None,
        }
    }
}

impl From<WorkloadError> for ConfigError {
    fn from(err: WorkloadError) -> Self {
        ConfigError::Workload(err)
    }
}

impl From<WorkloadSpecError> for ConfigError {
    fn from(err: WorkloadSpecError) -> Self {
        ConfigError::WorkloadSpec(err)
    }
}

/// The run validator behind [`ExperimentBuilder::build`]: every
/// precondition of a run as a typed error, checked in a fixed order — the
/// trace and its span, the rack count, the data layer, then
/// [`ClusterConfig::check`].
fn validate_run(
    trace: &[TraceRequest],
    racks: u32,
    config: &ClusterConfig,
    data: Option<&DataLayer>,
) -> Result<(), ConfigError> {
    let Some(last) = trace.last() else {
        return Err(ConfigError::EmptyTrace);
    };
    let last_arrival = last.arrival - SimTime::ZERO;
    if last_arrival > ClusterSim::MAX_TRACE_SPAN {
        return Err(ConfigError::TraceTooLong {
            last_arrival,
            max: ClusterSim::MAX_TRACE_SPAN,
        });
    }
    if racks == 0 {
        return Err(ConfigError::ZeroRacks);
    }
    if racks > ClusterSim::MAX_RACKS {
        return Err(ConfigError::TooManyRacks {
            racks,
            max: ClusterSim::MAX_RACKS,
        });
    }
    if let Some(data) = data {
        if data.rack_count() != racks {
            return Err(ConfigError::DataLayerRackMismatch {
                layer_racks: data.rack_count(),
                racks,
            });
        }
        if data.request_count() != trace.len() {
            return Err(ConfigError::DataLayerTraceMismatch {
                layer_requests: data.request_count(),
                requests: trace.len(),
            });
        }
    }
    config.check()
}

/// A validated cluster run: platform, trace, racks, balancer, policies,
/// optional data layer, seed. Obtained through
/// [`Experiment::builder`]; the constructor is private so every `Experiment`
/// in existence has passed the consolidated validator.
///
/// The trace and data layer are held behind [`Arc`]s, so cloning an
/// experiment (or building many variants over one trace, as the sweep does)
/// never copies the request list.
#[derive(Debug, Clone)]
pub struct Experiment {
    platform: PlatformKind,
    trace: Arc<Vec<TraceRequest>>,
    racks: u32,
    balancer: LoadBalancer,
    config: ClusterConfig,
    data: Option<Arc<DataLayer>>,
    seed: u64,
    rack_jobs: usize,
    optimal_bound: Option<f64>,
    /// The jitter streams a sweep shares among its cells, all built from
    /// this seed and rack count; `None` for a standalone run, which forks
    /// its own.
    pub(crate) rack_streams: Option<Arc<RackStreams>>,
}

impl Experiment {
    /// Starts a builder for a run on `platform`, with a single rack, the
    /// round-robin balancer, [`ClusterConfig::default`] policies, no data
    /// layer, seed 0 and one rack worker.
    pub fn builder(platform: PlatformKind) -> ExperimentBuilder {
        ExperimentBuilder {
            platform,
            trace: None,
            racks: 1,
            balancer: LoadBalancer::RoundRobin,
            config: ClusterConfig::default(),
            data: None,
            seed: 0,
            rack_jobs: 1,
            optimal_bound: None,
        }
    }

    /// Runs the experiment, evaluating the end-to-end model for the platform
    /// first. For many runs on one platform (policy sweeps), precompute a
    /// [`ClusterSim`] once and use [`Experiment::run_on`] instead.
    pub fn run(&self) -> Outcome {
        let sim = ClusterSim::new(self.platform, self.config);
        self.outcome(&sim)
    }

    /// Runs the experiment on a prebuilt simulator for the same platform,
    /// reusing its precomputed service times and cold-start costs. The
    /// simulator is reconfigured to this experiment's [`ClusterConfig`].
    ///
    /// # Panics
    /// Panics if `base` models a different platform — that is a programming
    /// error in the caller, not a configuration the builder could reject.
    pub fn run_on(&self, base: &ClusterSim) -> Outcome {
        assert_eq!(
            base.platform(),
            self.platform,
            "experiment platform must match the prebuilt simulator"
        );
        let sim = base.reconfigured(self.config);
        self.outcome(&sim)
    }

    fn outcome(&self, sim: &ClusterSim) -> Outcome {
        let own;
        let streams = match &self.rack_streams {
            Some(shared) => shared.as_ref(),
            None => {
                own = RackStreams::new(self.seed, self.racks);
                &own
            }
        };
        assert!(
            streams.serve(self.seed, self.racks),
            "shared jitter streams serve the run's seed and racks invariant broken"
        );
        let (report, racks, engine) = sim.run_validated(
            &self.trace,
            streams,
            self.balancer,
            self.data.as_deref(),
            self.rack_jobs,
        );
        // The bound is a pure function of (trace, platform): a sweep attaches
        // one precomputed value to every cell sharing the Arc'd trace;
        // standalone runs compute it here, from the data layer's first
        // request per function when one is attached, else in one pass over
        // the trace.
        let optimal_coldstart_s = self.optimal_bound.unwrap_or_else(|| match &self.data {
            Some(data) => crate::optimal::optimal_coldstart_seconds_from_first_requests(
                &self.trace,
                data.first_requests(),
                sim,
            ),
            None => crate::optimal::optimal_coldstart_seconds(&self.trace, sim),
        });
        Outcome {
            report,
            racks,
            engine,
            optimal_coldstart_s,
        }
    }
}

/// Fluent builder for [`Experiment`]; see [`Experiment::builder`] for the
/// defaults. Every precondition of a run surfaces from
/// [`ExperimentBuilder::build`] as a [`ConfigError`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    platform: PlatformKind,
    trace: Option<Arc<Vec<TraceRequest>>>,
    racks: u32,
    balancer: LoadBalancer,
    config: ClusterConfig,
    data: Option<Arc<DataLayer>>,
    seed: u64,
    rack_jobs: usize,
    optimal_bound: Option<f64>,
}

impl ExperimentBuilder {
    /// The request trace to replay, sorted by arrival time. Accepts a
    /// `Vec<TraceRequest>` or an `Arc<Vec<TraceRequest>>` (shared, e.g.
    /// across sweep cells); a declarative spec's is
    /// `spec.realize()?.trace`.
    pub fn trace(mut self, trace: impl Into<Arc<Vec<TraceRequest>>>) -> Self {
        self.trace = Some(trace.into());
        self
    }

    /// Number of racks the front end shards over.
    pub fn racks(mut self, racks: u32) -> Self {
        self.racks = racks;
        self
    }

    /// The front-end load balancer.
    pub fn balancer(mut self, balancer: LoadBalancer) -> Self {
        self.balancer = balancer;
        self
    }

    /// Queue discipline used when an instance frees up.
    pub fn scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// Container keepalive policy deciding when invocations run cold.
    pub fn keepalive(mut self, keepalive: KeepalivePolicy) -> Self {
        self.config.keepalive = keepalive;
        self
    }

    /// How each rack's instance pool grows and shrinks.
    pub fn scaling(mut self, scaling: ScalingPolicy) -> Self {
        self.config.scaling = scaling;
        self
    }

    /// Which modality cold starts pay (fresh spawn, flash reload or
    /// snapshot restore).
    pub fn cold_path(mut self, cold_path: ColdStartPath) -> Self {
        self.config.cold_path = cold_path;
        self
    }

    /// The gateway→runtime IPC transport charged on every started
    /// invocation.
    pub fn ipc(mut self, ipc: IpcTransport) -> Self {
        self.config.ipc = ipc;
        self
    }

    /// The elastic instance bounds `[min, max]` (a fixed-cap rack always runs
    /// `max`).
    pub fn instances(mut self, min: u32, max: u32) -> Self {
        self.config.min_instances = min;
        self.config.max_instances = max;
        self
    }

    /// Scheduler queue depth per rack (requests beyond it are rejected).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Attaches a data-placement layer; dispatch becomes data-aware and
    /// non-local starts pay the modelled cross-rack fetch. Accepts a
    /// `DataLayer` or an `Arc<DataLayer>` (shared across sweep cells). The
    /// layer must have been built for this experiment's trace and rack count
    /// (`DataLayer::for_trace(&trace, racks, seed)`).
    pub fn data_layer(mut self, data: impl Into<Arc<DataLayer>>) -> Self {
        self.data = Some(data.into());
        self
    }

    /// Master seed for the run: each rack's service-time jitter stream is
    /// forked from it, in rack order. The streams depend only on the seed
    /// and the rack count, so a sweep, whose cells all share both, shares
    /// them too: its cells read each rack's leading draws from one memo
    /// ([`crate::at_scale::SweepSpec::run`]). Every draw is the value the
    /// rack's own generator yields at that position, so sharing moves no
    /// byte of any report.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for the partitioned per-rack engine: 0 = one per
    /// available core, 1 (the default) = run every rack lane inline, N =
    /// up to N threads (capped at the rack count). Applies only when the
    /// balancer decouples the racks ([`LoadBalancer::RoundRobin`]); coupled
    /// balancers run the sequential engine regardless and report why
    /// ([`EngineSelection::Sequential`]). Results are byte-identical across
    /// every value — the knob trades wall-clock only, so it is *not* part of
    /// the experiment's identity.
    pub fn rack_jobs(mut self, rack_jobs: usize) -> Self {
        self.rack_jobs = rack_jobs;
        self
    }

    /// Attaches a precomputed offline-optimal cold-start bound
    /// ([`crate::optimal::optimal_coldstart_seconds`]) so the run's
    /// [`Outcome`] reuses it instead of recomputing — the bound depends only
    /// on the trace and platform, so a sweep computes it once per
    /// (workload, platform) pair and hands it to every policy cell.
    pub fn optimal_coldstart(mut self, bound_s: f64) -> Self {
        self.optimal_bound = Some(bound_s);
        self
    }

    /// Validates the whole specification and returns the run-ready
    /// [`Experiment`], or the first [`ConfigError`] found (in check order:
    /// trace, its last arrival, racks, data layer racks, data layer trace,
    /// instance bounds). Arrival order and function slots are not checked
    /// here; see the [module docs](crate::experiment).
    pub fn build(self) -> Result<Experiment, ConfigError> {
        let trace = self.trace.unwrap_or_default();
        validate_run(&trace, self.racks, &self.config, self.data.as_deref())?;
        Ok(Experiment {
            platform: self.platform,
            trace,
            racks: self.racks,
            balancer: self.balancer,
            config: self.config,
            data: self.data,
            seed: self.seed,
            rack_jobs: self.rack_jobs,
            optimal_bound: self.optimal_bound,
            rack_streams: None,
        })
    }
}

/// The named-field result of one [`Experiment::run`]: the aggregate report,
/// the per-rack summaries, the engine that ran them and the offline bound.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Outcome {
    /// The aggregate cluster report (all racks).
    pub report: ClusterReport,
    /// Per-rack summaries, indexed by rack.
    pub racks: Vec<RackSummary>,
    /// Which engine executed the run: the partitioned per-rack engine (with
    /// its worker count) or the whole-cluster sequential loop (with the
    /// reason the run could not be partitioned). Deterministic — a function
    /// of the balancer and `rack_jobs`, never of timing.
    pub engine: EngineSelection,
    /// The offline-optimal lower bound on aggregate cold-start seconds for
    /// this run's trace and platform ([`crate::optimal`]); the policy's
    /// regret is `report.coldstart_s - bound`. Precomputed via
    /// [`ExperimentBuilder::optimal_coldstart`] or computed by the run.
    pub optimal_coldstart_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RateProfile;
    use dscs_simcore::rng::DeterministicRng;
    use dscs_simcore::time::SimDuration;

    fn short_trace(seed: u64) -> Vec<TraceRequest> {
        let profile = RateProfile {
            segments: vec![(SimDuration::from_secs(5), 80.0)],
        };
        profile.generate(&mut DeterministicRng::seeded(seed))
    }

    #[test]
    fn builder_runs_and_accounts_for_every_request() {
        let trace = short_trace(1);
        let requests = trace.len() as u64;
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .racks(2)
            .balancer(LoadBalancer::LeastLoaded)
            .seed(3)
            .build()
            .expect("valid experiment")
            .run();
        assert_eq!(outcome.report.completed + outcome.report.rejected, requests);
        assert_eq!(outcome.racks.len(), 2);
    }

    #[test]
    fn empty_trace_is_a_typed_error() {
        let err = Experiment::builder(PlatformKind::DscsDsa)
            .build()
            .expect_err("no trace");
        assert_eq!(err, ConfigError::EmptyTrace);
        let err = Experiment::builder(PlatformKind::DscsDsa)
            .trace(Vec::new())
            .build()
            .expect_err("empty trace");
        assert_eq!(err, ConfigError::EmptyTrace);
    }

    #[test]
    fn zero_racks_is_a_typed_error() {
        let err = Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(2))
            .racks(0)
            .build()
            .expect_err("zero racks");
        assert_eq!(err, ConfigError::ZeroRacks);
        // Without a data layer, the rack count is bounded only by the event
        // loop's `ClusterSim::MAX_RACKS`, far above a data layer's.
        assert!(Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(2))
            .racks(DataLayer::MAX_RACKS + 1)
            .build()
            .is_ok());
    }

    #[test]
    fn data_layer_rack_mismatch_is_a_typed_error() {
        let trace = short_trace(3);
        let data = DataLayer::for_trace(&trace, 3, 7);
        let err = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .racks(2)
            .data_layer(data)
            .build()
            .expect_err("mismatched layer");
        assert_eq!(
            err,
            ConfigError::DataLayerRackMismatch {
                layer_racks: 3,
                racks: 2
            }
        );
    }

    #[test]
    fn elastic_bound_violations_are_typed_errors() {
        let zero_min = Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(5))
            .scaling(ScalingPolicy::Reactive)
            .instances(0, 100)
            .build()
            .expect_err("zero min");
        assert_eq!(zero_min, ConfigError::ZeroMinInstances);
        let inverted = Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(5))
            .scaling(ScalingPolicy::Predictive)
            .instances(64, 8)
            .build()
            .expect_err("min above max");
        assert_eq!(inverted, ConfigError::MinAboveMax { min: 64, max: 8 });
    }

    #[test]
    fn outcomes_carry_the_optimal_coldstart_bound() {
        let trace = short_trace(12);
        let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let computed = crate::optimal::optimal_coldstart_seconds(&trace, &base);
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .seed(4)
            .build()
            .expect("valid")
            .run_on(&base);
        assert_eq!(outcome.optimal_coldstart_s, computed);
        assert!(
            computed > 0.0 && computed <= outcome.report.coldstart_s,
            "bound {computed} must floor the measured {}",
            outcome.report.coldstart_s
        );
        // A precomputed bound is passed through untouched.
        let attached = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .optimal_coldstart(computed)
            .build()
            .expect("valid")
            .run_on(&base);
        assert_eq!(attached.optimal_coldstart_s, computed);
    }

    #[test]
    fn run_on_reuses_a_prebuilt_simulator() {
        let trace = short_trace(6);
        let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let experiment = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .seed(9)
            .build()
            .expect("valid");
        let a = experiment.run_on(&base);
        let b = experiment.run();
        assert_eq!(a, b, "prebuilt and fresh simulators agree bit-for-bit");
    }

    #[test]
    #[should_panic(expected = "must match the prebuilt simulator")]
    fn run_on_rejects_a_mismatched_platform() {
        let base = ClusterSim::new(PlatformKind::BaselineCpu, ClusterConfig::default());
        let experiment = Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(7))
            .build()
            .expect("valid");
        let _ = experiment.run_on(&base);
    }

    #[test]
    fn config_error_display_is_informative() {
        let errors: Vec<ConfigError> = vec![
            ConfigError::EmptyTrace,
            ConfigError::TraceTooLong {
                last_arrival: ClusterSim::MAX_TRACE_SPAN + SimDuration::from_secs(1),
                max: ClusterSim::MAX_TRACE_SPAN,
            },
            ConfigError::ZeroRacks,
            ConfigError::TooManyRacks {
                racks: 256,
                max: 255,
            },
            ConfigError::DataLayerRackMismatch {
                layer_racks: 4,
                racks: 2,
            },
            ConfigError::DataLayerTraceMismatch {
                layer_requests: 10,
                requests: 12,
            },
            ConfigError::ZeroMaxInstances,
            ConfigError::ZeroMinInstances,
            ConfigError::MinAboveMax { min: 9, max: 3 },
            ConfigError::EmptySweepAxis { axis: "platforms" },
            ConfigError::WorkloadSpec(WorkloadSpecError::UnknownKind {
                kind: "tide".into(),
            }),
        ];
        for err in errors {
            assert!(!err.to_string().is_empty());
        }
    }
}
