//! # dscs-cluster
//!
//! At-scale datacenter simulation for the DSCS-Serverless evaluation: racks of
//! up to 200 function instances behind bounded scheduler queues, driven by
//! pluggable workloads, scheduler policies, keepalive policies and a
//! multi-rack front-end load balancer.
//!
//! The one entry point to cluster runs is [`experiment::ExperimentBuilder`]:
//! a fluent, validating builder that produces an [`experiment::Experiment`]
//! (or a typed [`experiment::ConfigError`]) and runs it into an
//! [`experiment::Outcome`]. Sweeps over whole policy grids are declared with
//! [`at_scale::SweepSpec`].
//!
//! * [`trace`] — the bursty Figure-13a request trace ([`RateProfile`]).
//! * [`workload`] — the [`Workload`] trait, the Azure-functions-style
//!   synthetic generator ([`AzureWorkload`]: Zipf popularity skew, diurnal
//!   cycles, burst episodes), the [`ObjectCatalog`] that stamps each request
//!   with the object it reads, and the declarative [`WorkloadSpec`]
//!   selection surface (`Azure`/`Bursty`/`TraceFile`/`Inline`) the sweep and
//!   the CLI realize workloads through.
//! * [`ingest`] — trace-file ingestion: a streaming parser for the Azure
//!   Functions 2019 invocations-per-function CSV schema behind
//!   [`TraceFileWorkload`], plus the bucketing emitter the `generate-trace`
//!   CLI uses to close the generate → parse → simulate round trip.
//! * [`policy`] — scheduler policies (FCFS, shortest-job-first, per-benchmark
//!   fair), keepalive policies (none, fixed window, hybrid histogram with an
//!   optional prewarm head percentile), instance-pool scaling policies
//!   (fixed cap, reactive, predictive) and front-end load balancers
//!   (round-robin, least-loaded, data-locality-aware with spill).
//! * [`coldpath`] — the cold-start path and IPC transport axes:
//!   [`ColdStartPath`] (fresh spawn / flash reload / snapshot restore) picks
//!   which modality cold starts pay, and [`IpcTransport`] (shm / socket /
//!   http) charges a per-request marshalling + syscall latency on every
//!   started invocation.
//! * [`data`] — the data-placement layer: a rack-aware
//!   `dscs-storage` object store pre-populated with every object a trace
//!   reads, plus the cross-rack fetch costs (latency *and* joules) charged
//!   to non-local dispatch.
//! * [`experiment`] — [`Experiment`], [`ExperimentBuilder`], [`Outcome`] and
//!   [`ConfigError`]: the typed run specification every entry point builds
//!   on.
//! * [`optimal`] — the offline-optimal lower bound on aggregate cold-start
//!   cost for a fixed trace (the per-gap segment bound), behind the sweep's
//!   per-cell `regret_pct` column.
//! * [`sim`] — the discrete-event cluster simulation: cold starts priced by
//!   `dscs-faas`'s container-lifecycle model, elastic per-rack instance pools
//!   with modelled provisioning delay, multi-rack sharding, and the reported
//!   series (queued functions over time, wall-clock latency over time).
//! * [`at_scale`] — the declarative policy sweep ([`SweepSpec`]) behind
//!   `reproduce at-scale`, whose quick-grid report (`BENCH_cluster.json`) CI
//!   pins by the sha256 of its modelled bytes.
//!
//! # Example
//!
//! ```
//! use dscs_cluster::data::DataLayer;
//! use dscs_cluster::experiment::Experiment;
//! use dscs_cluster::policy::{KeepalivePolicy, LoadBalancer};
//! use dscs_cluster::trace::RateProfile;
//! use dscs_platforms::PlatformKind;
//! use dscs_simcore::rng::DeterministicRng;
//! use dscs_simcore::time::SimDuration;
//!
//! // A short, light trace keeps the doc test fast.
//! let profile = RateProfile { segments: vec![(SimDuration::from_secs(10), 40.0)] };
//! let trace = profile.generate(&mut DeterministicRng::seeded(1));
//! // A rack-aware object placement for this trace over two racks.
//! let data = DataLayer::for_trace(&trace, 2, 9);
//! let outcome = Experiment::builder(PlatformKind::DscsDsa)
//!     .trace(trace.clone())
//!     .racks(2)
//!     .balancer(LoadBalancer::LeastLoaded)
//!     .keepalive(KeepalivePolicy::prewarm_default())
//!     .data_layer(data)
//!     .seed(2)
//!     .build()
//!     .expect("a well-formed experiment")
//!     .run();
//! assert_eq!(outcome.report.completed as usize, trace.len());
//! assert_eq!(outcome.racks.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod at_scale;
pub mod coldpath;
pub mod data;
pub mod experiment;
pub mod ingest;
pub mod optimal;
pub mod policy;
pub mod sim;
pub mod trace;
pub mod workload;

pub use at_scale::{
    AtScaleOptions, AtScaleReport, CrossValidation, SweepCell, SweepScale, SweepSpec,
};
pub use coldpath::{ColdStartPath, IpcTransport};
pub use data::DataLayer;
pub use experiment::{ConfigError, Experiment, ExperimentBuilder, Outcome};
pub use ingest::{IngestError, TraceFileWorkload};
pub use optimal::{optimal_coldstart_seconds, optimal_coldstart_seconds_with, regret_pct};
pub use policy::{
    KeepalivePolicy, KeepaliveState, KeepaliveStats, LoadBalancer, ScalingPolicy, SchedulerPolicy,
};
pub use sim::{ClusterConfig, ClusterReport, ClusterSim, EngineSelection, RackSummary};
pub use trace::{RateProfile, TraceRequest};
pub use workload::{
    AzureWorkload, ObjectCatalog, RealizedWorkload, Workload, WorkloadError, WorkloadSpec,
    WorkloadSpecError,
};
