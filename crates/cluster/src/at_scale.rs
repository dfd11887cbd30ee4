//! The at-scale policy sweep: scheduler × keepalive × scaling × balancer ×
//! cold-start path × IPC transport × platform × workload, declared as a
//! [`SweepSpec`].
//!
//! Where Figure 13 fixes one policy point (FCFS, fixed keepalive, fixed
//! 200-instance racks, local data), this experiment sweeps a whole policy
//! grid over multiple workloads and multi-rack configurations, and emits a
//! machine-readable JSON report (schema `dscs-at-scale-v8`). The grid is
//! *declarative*: a [`SweepSpec`] lists the values to sweep per axis, and
//! [`SweepSpec::run`] iterates the cartesian product generically, building
//! one [`crate::experiment::Experiment`] per cell. The workload axis is a
//! list of [`WorkloadSpec`]s, so ingested Azure trace files and the
//! synthetic generators ride the same axis: every cell carries its
//! workload's source label, and the report closes with a `cross_validation`
//! section comparing each synthetic workload against each trace file cell
//! for cell.
//!
//! Each cell reports:
//! * its counters and latencies, including the engine-work counter
//!   (`events`);
//! * the data layer's view: every cell runs against a [`DataLayer`] built
//!   for its workload's trace, so dispatch is data-aware, and the cell
//!   carries its locality hit rate, the cross-rack bytes moved, the fetch
//!   latency charged and the joules those moves cost;
//! * its aggregate cold-start seconds next to the offline-optimal lower
//!   bound on them ([`crate::optimal`], computed once per workload ×
//!   platform × cold-start-path triple and shared by every policy cell) and
//!   the derived `regret_pct`;
//! * its [`ColdStartPath`] (fresh spawn / flash reload / snapshot restore)
//!   and [`IpcTransport`] (shm / socket / http), with the seconds each
//!   charged (`restore_s`, `ipc_overhead_s`); the bound is priced under the
//!   cell's own path.
//!
//! Cells are independent, so [`SweepSpec::run`] fans them out across the
//! [`dscs_simcore::par`] worker pool ([`SweepSpec::jobs`]; `0` means one
//! worker per available core, `1` runs every cell on the caller's thread).
//! The report always assembles in grid order, so the rendered JSON is
//! byte-identical whatever the worker count; only the
//! [`AtScaleReport::to_json_with_throughput`] variant adds the measured
//! `wall_s` and `events_per_sec` and the worker counts. Fixed-seed runs are byte-for-byte
//! reproducible, so CI pins the modelled bytes of the quick sweep's report
//! (`BENCH_cluster.json`): the sha256 of the report with its measured keys
//! stripped.
//!
//! [`AtScaleOptions`] names only the scale, seed and rack count of the
//! default grid; axes and worker counts are set on the [`SweepSpec`].

use std::sync::Arc;

use dscs_platforms::spec::PlatformKind;
use dscs_simcore::json::JsonValue;
use dscs_simcore::par;
use dscs_simcore::stats::Measured;

use crate::coldpath::{ColdStartPath, IpcTransport};
use crate::data::DataLayer;
use crate::experiment::{ConfigError, Experiment};
use crate::policy::{KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy};
use crate::sim::{ClusterConfig, ClusterSim, RackStreams};
use crate::workload::{RealizedWorkload, WorkloadSpec};

/// How much of the full-size experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepScale {
    /// Tiny traces for unit tests (seconds of simulated time).
    Smoke,
    /// Shortened traces for CI smoke runs (a couple of simulated minutes).
    Quick,
    /// The full 20-minute traces.
    Full,
    /// The 10⁷-invocation scale: ~10⁵ functions over a multi-day horizon.
    /// Sized for the rack-parallel engine; run it with a restricted grid
    /// (see `reproduce at-scale --scale large`), not the full cartesian
    /// product.
    Large,
}

impl SweepScale {
    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SweepScale::Smoke => "smoke",
            SweepScale::Quick => "quick",
            SweepScale::Full => "full",
            SweepScale::Large => "large",
        }
    }
}

/// The size, seed and rack count of one at-scale sweep: the shorthand that
/// expands into the whole default grid ([`SweepSpec::default_grid`]) at that
/// scale. Restrict an axis or set the worker counts on the expanded
/// [`SweepSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtScaleOptions {
    /// Experiment size.
    pub scale: SweepScale,
    /// Master seed; trace generation and service jitter derive from it.
    pub seed: u64,
    /// Number of racks the front end shards over.
    pub racks: u32,
}

impl AtScaleOptions {
    /// The CI quick configuration: two racks, seed 42.
    pub fn quick() -> Self {
        AtScaleOptions {
            scale: SweepScale::Quick,
            seed: 42,
            racks: 2,
        }
    }

    /// The full-size configuration: four racks (800 instances).
    pub fn full() -> Self {
        AtScaleOptions {
            racks: 4,
            scale: SweepScale::Full,
            ..AtScaleOptions::quick()
        }
    }

    /// A minimal configuration for unit tests.
    pub fn smoke() -> Self {
        AtScaleOptions {
            scale: SweepScale::Smoke,
            ..AtScaleOptions::quick()
        }
    }
}

/// A declarative sweep grid: the values to sweep, one list per axis, plus
/// the scale, seed and rack count every cell shares. [`SweepSpec::run`]
/// iterates the cartesian product in a fixed order (workload, platform,
/// scheduler, keepalive, scaling, balancer, cold-start path, IPC
/// transport), so reports are deterministic.
///
/// Adding a policy axis to the sweep is one enum (the policy itself) and one
/// list here — the iteration, cell identity and JSON rendering follow from
/// the spec instead of being hard-coded per axis.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Experiment size (governs the workload traces generated).
    pub scale: SweepScale,
    /// Master seed; placement and service jitter derive from it. Workload
    /// trace generation derives from the per-spec seeds on the
    /// [`SweepSpec::workloads`] axis (which [`SweepSpec::default_workloads`]
    /// and [`From<AtScaleOptions>`] keep in sync with this one).
    pub seed: u64,
    /// Number of racks the front end shards over.
    pub racks: u32,
    /// Workloads to replay, as declarative [`WorkloadSpec`]s — synthetic
    /// generators and ingested trace files ride the same axis, so a sweep
    /// can cross-validate them cell for cell.
    pub workloads: Vec<WorkloadSpec>,
    /// Platforms to compare.
    pub platforms: Vec<PlatformKind>,
    /// Scheduler policies to sweep.
    pub schedulers: Vec<SchedulerPolicy>,
    /// Keepalive policies to sweep.
    pub keepalives: Vec<KeepalivePolicy>,
    /// Instance-pool scaling policies to sweep.
    pub scalings: Vec<ScalingPolicy>,
    /// Front-end load balancers to sweep.
    pub balancers: Vec<LoadBalancer>,
    /// Cold-start paths to sweep. The default grid keeps the single
    /// historical value ([`ColdStartPath::FlashReload`]), so legacy sweeps
    /// reproduce byte for byte.
    pub cold_paths: Vec<ColdStartPath>,
    /// IPC transports to sweep. The default grid keeps the single
    /// historical value ([`IpcTransport::SharedMem`]).
    pub ipcs: Vec<IpcTransport>,
    /// Worker threads cells fan out over: `0` means one per available core
    /// ([`par::resolve_workers`]), `1` runs every cell on the caller's
    /// thread. Results are collected in grid order, so the rendered report
    /// is byte-identical for every worker count.
    pub jobs: usize,
    /// Rack worker threads *inside* each cell, the second level of
    /// parallelism: round-robin cells shard their racks over this many
    /// threads ([`crate::experiment::ExperimentBuilder::rack_jobs`]). `1`
    /// (the default) keeps each cell single-threaded, `0` splits the core
    /// budget left over by [`SweepSpec::jobs`] so the two levels compose
    /// without oversubscribing, `N` pins the count (capped at the rack
    /// count). Cells with a coupled balancer fall back to the sequential
    /// engine. The rendered report is byte-identical for every value.
    pub rack_jobs: usize,
}

impl SweepSpec {
    /// The whole default grid at `scale`: both Figure-13 platforms, every
    /// scheduler, every keepalive default, every scaling default, every
    /// balancer, two racks, seed 42.
    pub fn default_grid(scale: SweepScale) -> Self {
        SweepSpec {
            scale,
            seed: 42,
            racks: 2,
            workloads: Self::default_workloads(scale, 42),
            platforms: SWEEP_PLATFORMS.to_vec(),
            schedulers: SchedulerPolicy::ALL.to_vec(),
            keepalives: KeepalivePolicy::ALL.to_vec(),
            scalings: ScalingPolicy::ALL.to_vec(),
            balancers: LoadBalancer::ALL.to_vec(),
            cold_paths: vec![ColdStartPath::default()],
            ipcs: vec![IpcTransport::default()],
            jobs: 0,
            rack_jobs: 1,
        }
    }

    /// The historical workload pair — the paper's bursty profile and the
    /// synthetic azure generator — at `scale`, both generating from `seed`.
    pub fn default_workloads(scale: SweepScale, seed: u64) -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Bursty { scale, seed },
            WorkloadSpec::Azure { scale, seed },
        ]
    }

    /// The worker count [`SweepSpec::run`] will actually use: `jobs`, with
    /// `0` resolved to the number of available cores.
    pub fn effective_jobs(&self) -> usize {
        par::resolve_workers(self.jobs)
    }

    /// The per-cell rack worker count [`SweepSpec::run`] passes to every
    /// experiment, given that `cell_jobs` sweep workers run concurrently:
    /// `rack_jobs` as written, with `0` resolved to the cores left over per
    /// sweep worker (at least one). The two parallelism levels share one
    /// worker budget — `jobs = 0, rack_jobs = 0` on an 8-core host with a
    /// 4-cell grid gives 4 sweep workers × 2 rack workers, not 8 × 8.
    pub fn effective_rack_jobs(&self, cell_jobs: usize) -> usize {
        if self.rack_jobs == 0 {
            (par::resolve_workers(0) / cell_jobs.max(1)).max(1)
        } else {
            self.rack_jobs
        }
    }

    /// The balancer axis label the report and the CLI header print: the one
    /// balancer's name, "all" for the full axis, or the joined names of a
    /// subset.
    pub fn balancer_label(&self) -> String {
        match self.balancers.as_slice() {
            [only] => only.name().to_string(),
            list if list.len() == LoadBalancer::ALL.len()
                && LoadBalancer::ALL.iter().all(|b| list.contains(b)) =>
            {
                "all".to_string()
            }
            list => list
                .iter()
                .map(LoadBalancer::name)
                .collect::<Vec<_>>()
                .join("+"),
        }
    }

    /// Checks the spec: a sweep needs at least one rack, at most the
    /// [`DataLayer::MAX_RACKS`] its data layers span, and at least one value
    /// on every axis.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.racks == 0 {
            return Err(ConfigError::ZeroRacks);
        }
        if self.racks > DataLayer::MAX_RACKS {
            return Err(ConfigError::TooManyRacks {
                racks: self.racks,
                max: DataLayer::MAX_RACKS,
            });
        }
        let axes: [(&'static str, bool); 8] = [
            ("workloads", self.workloads.is_empty()),
            ("platforms", self.platforms.is_empty()),
            ("schedulers", self.schedulers.is_empty()),
            ("keepalives", self.keepalives.is_empty()),
            ("scalings", self.scalings.is_empty()),
            ("balancers", self.balancers.is_empty()),
            ("cold_paths", self.cold_paths.is_empty()),
            ("ipcs", self.ipcs.is_empty()),
        ];
        for (axis, empty) in axes {
            if empty {
                return Err(ConfigError::EmptySweepAxis { axis });
            }
        }
        Ok(())
    }

    /// Runs the sweep: one [`Experiment`] per cell of the cartesian product,
    /// against a per-workload [`DataLayer`] so every cell pays real
    /// data-movement costs.
    ///
    /// With [`SweepSpec::jobs`] other than `1`, independent cells fan out
    /// across a pool of `std::thread` workers; results land in per-cell
    /// slots and are assembled in grid order, so the report (and its JSON)
    /// is byte-identical to the sequential run.
    pub fn run(&self) -> Result<AtScaleReport, ConfigError> {
        self.check()?;
        let wall_clock = std::time::Instant::now();
        // Realize the declarative workload axis: each spec generates (or
        // ingests) its trace from its own seed, so the axis can mix
        // synthetic generators and trace files freely.
        let workloads: Vec<RealizedWorkload> = self
            .workloads
            .iter()
            .map(WorkloadSpec::realize)
            .collect::<Result<_, _>>()?;
        // The end-to-end model evaluation behind ClusterSim::new depends only
        // on the platform; policy cells reuse it via Experiment::run_on.
        let base_sims: Vec<ClusterSim> = self
            .platforms
            .iter()
            .map(|&p| ClusterSim::new(p, ClusterConfig::default()))
            .collect();
        // Placement depends only on the trace and rack count; all policy
        // cells of one workload dispatch against the same layout.
        let data_layers: Vec<Arc<DataLayer>> = workloads
            .iter()
            .map(|w| {
                Arc::new(DataLayer::for_trace(
                    &w.trace,
                    self.racks,
                    self.seed ^ 0xDA7A,
                ))
            })
            .collect();
        // The offline-optimal cold-start bound depends only on the trace,
        // the platform's cold-start pricing and the cold-start *path* that
        // prices repeat colds — never on the rest of the policy point — so
        // compute it once per (workload, platform, cold_path) triple and
        // share it across every cell, mirroring how base_sims memoizes
        // model evaluation. Each path's bound comes from a sim reconfigured
        // to that path, so regret is always measured against the cell's own
        // modality pricing. The bound is summed over the first request of
        // each function, which the data layer recorded while placing, so
        // no bound walks the trace.
        let optimal_bounds: Vec<Vec<Vec<f64>>> = workloads
            .iter()
            .zip(&data_layers)
            .map(|(w, data)| {
                base_sims
                    .iter()
                    .map(|sim| {
                        self.cold_paths
                            .iter()
                            .map(|&cold_path| {
                                let priced = sim.reconfigured(ClusterConfig {
                                    cold_path,
                                    ..ClusterConfig::default()
                                });
                                crate::optimal::optimal_coldstart_seconds_from_first_requests(
                                    &w.trace,
                                    data.first_requests(),
                                    &priced,
                                )
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // Enumerate the cartesian product up front, in grid order. Cell
        // identity lives here; workers only index into it.
        let mut points = Vec::new();
        for workload in 0..workloads.len() {
            for platform in 0..self.platforms.len() {
                for &scheduler in &self.schedulers {
                    for &keepalive in &self.keepalives {
                        for &scaling in &self.scalings {
                            for &balancer in &self.balancers {
                                for cold_path in 0..self.cold_paths.len() {
                                    for &ipc in &self.ipcs {
                                        points.push(CellPoint {
                                            workload,
                                            platform,
                                            scheduler,
                                            keepalive,
                                            scaling,
                                            balancer,
                                            cold_path,
                                            ipc,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let jobs = self.effective_jobs().min(points.len()).max(1);
        // The second parallelism level: racks inside each round-robin cell.
        // Resolved against the sweep worker count so the two levels split
        // one core budget (the outcome is byte-identical regardless).
        let rack_jobs = self.effective_rack_jobs(jobs);
        // Every cell runs with this seed over the same racks, so every cell
        // replays the same per-rack jitter streams: share one memo of their
        // leading draws instead of computing them again in each cell.
        let cell_seed = self.seed ^ 0x5EED;
        let rack_streams = Arc::new(RackStreams::new(cell_seed, self.racks));
        let run_cell = |point: &CellPoint| -> Result<SweepCell, ConfigError> {
            let workload = &workloads[point.workload];
            let cold_path = self.cold_paths[point.cold_path];
            let bound = optimal_bounds[point.workload][point.platform][point.cold_path];
            let mut experiment = Experiment::builder(self.platforms[point.platform])
                .trace(workload.trace.clone())
                .racks(self.racks)
                .balancer(point.balancer)
                .scheduler(point.scheduler)
                .keepalive(point.keepalive)
                .scaling(point.scaling)
                .cold_path(cold_path)
                .ipc(point.ipc)
                .data_layer(data_layers[point.workload].clone())
                .seed(cell_seed)
                .optimal_coldstart(bound)
                .rack_jobs(rack_jobs)
                .build()?;
            experiment.rack_streams = Some(Arc::clone(&rack_streams));
            let outcome = experiment.run_on(&base_sims[point.platform]);
            let report = &outcome.report;
            Ok(SweepCell {
                workload: workload.name.clone(),
                workload_source: workload.source.clone(),
                platform: self.platforms[point.platform],
                scheduler: point.scheduler,
                keepalive: point.keepalive,
                scaling: point.scaling,
                balancer: point.balancer,
                cold_path,
                ipc: point.ipc,
                requests: workload.trace.len() as u64,
                completed: report.completed,
                rejected: report.rejected,
                cold_starts: report.cold_starts,
                coldstart_s: report.coldstart_s,
                optimal_coldstart_s: bound,
                regret_pct: crate::optimal::regret_pct(report.coldstart_s, bound),
                restore_s: report.restore_s,
                ipc_overhead_s: report.ipc_overhead_s,
                prewarm_hits: report.prewarm_hits,
                prewarm_hit_rate: report.prewarm_hit_rate(),
                wasted_warm_s: report.wasted_warm_seconds,
                scale_ups: report.scale_ups,
                scale_downs: report.scale_downs,
                scaling_lag_s: report.scaling_lag_s,
                peak_instances: report.peak_instances,
                locality_hit_rate: report.locality_hit_rate(),
                cross_rack_bytes: report.cross_rack_bytes,
                fetch_latency_s: report.fetch_latency_s,
                fetch_energy_j: report.fetch_energy_j,
                mean_latency_ms: report.mean_latency_ms(),
                p99_latency_ms: report.p99_latency_ms(),
                peak_queue: report.peak_queue(),
                makespan_s: report.makespan.as_secs_f64(),
                events: report.events,
                wall_s: report.wall_s,
                rack_completed: outcome.racks.iter().map(|r| r.completed).collect(),
            })
        };
        // Cells come back in grid order whichever worker ran them, so the
        // first error is the one a sequential sweep would report.
        let cells = par::map_ordered(points.len(), jobs, |i| run_cell(&points[i]))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AtScaleReport {
            spec: self.clone(),
            workloads: workloads
                .iter()
                .map(|w| WorkloadSummary {
                    name: w.name.clone(),
                    source: w.source.clone(),
                    requests: w.trace.len() as u64,
                    horizon_s: w.horizon_s,
                })
                .collect(),
            cells,
            wall_s: Measured(wall_clock.elapsed().as_secs_f64()),
        })
    }
}

/// Grid coordinates of one sweep cell: indices into the spec's workload and
/// platform lists plus the policy point. Enumerated in grid order before any
/// worker starts.
struct CellPoint {
    workload: usize,
    platform: usize,
    scheduler: SchedulerPolicy,
    keepalive: KeepalivePolicy,
    scaling: ScalingPolicy,
    balancer: LoadBalancer,
    /// Index into the spec's `cold_paths` list (the per-path optimal-bound
    /// memo is indexed the same way).
    cold_path: usize,
    ipc: IpcTransport,
}

impl From<AtScaleOptions> for SweepSpec {
    fn from(options: AtScaleOptions) -> Self {
        SweepSpec {
            seed: options.seed,
            racks: options.racks,
            workloads: SweepSpec::default_workloads(options.scale, options.seed),
            ..SweepSpec::default_grid(options.scale)
        }
    }
}

/// One cell of the sweep: a (workload, platform, scheduler, keepalive,
/// scaling, balancer, cold-start path, IPC transport) point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Workload name (`"bursty"`, `"azure"`, `"trace"`).
    pub workload: String,
    /// Where the workload's trace came from (`"synthetic"`,
    /// `"trace-file:<file>"`). Part of cell identity:
    /// [`AtScaleReport::cross_validation`] matches cells on it, so cells of
    /// two workloads that share a name (two trace files, say) never pair up.
    pub workload_source: String,
    /// Platform under test.
    pub platform: PlatformKind,
    /// Scheduler policy.
    pub scheduler: SchedulerPolicy,
    /// Keepalive policy.
    pub keepalive: KeepalivePolicy,
    /// Instance-pool scaling policy.
    pub scaling: ScalingPolicy,
    /// Front-end load balancer.
    pub balancer: LoadBalancer,
    /// Cold-start path: which modality this cell's cold starts paid.
    pub cold_path: ColdStartPath,
    /// IPC transport charged on every started invocation.
    pub ipc: IpcTransport,
    /// Requests offered by the trace.
    pub requests: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected on queue overflow.
    pub rejected: u64,
    /// Requests that paid a cold start.
    pub cold_starts: u64,
    /// Aggregate cold-start seconds this cell's requests paid.
    pub coldstart_s: f64,
    /// Offline-optimal lower bound on `coldstart_s` for this cell's trace,
    /// platform and cold-start path (see [`crate::optimal`]). Identical for
    /// every policy cell of one (workload, platform, cold_path) triple, so
    /// regret is always measured against the cell's own modality pricing.
    pub optimal_coldstart_s: f64,
    /// Policy regret: how far `coldstart_s` sits above the offline bound,
    /// as a fraction of the bound (`0.0` when the bound is zero).
    pub regret_pct: f64,
    /// Seconds of `coldstart_s` paid as snapshot-restore penalties (zero
    /// unless `cold_path` is `"snapshot"`).
    pub restore_s: f64,
    /// Seconds of per-request IPC marshalling + syscall latency charged
    /// across every started invocation (zero under the default `"shm"`
    /// transport).
    pub ipc_overhead_s: f64,
    /// Invocations that found a proactively prewarmed instance.
    pub prewarm_hits: u64,
    /// Fraction of completed requests that found a prewarmed instance.
    pub prewarm_hit_rate: f64,
    /// Idle warm-seconds the keepalive policy held without a reuse.
    pub wasted_warm_s: f64,
    /// Scale-up decisions taken across all racks.
    pub scale_ups: u64,
    /// Scale-down decisions taken across all racks.
    pub scale_downs: u64,
    /// Seconds spent waiting on instance provisioning across all racks.
    pub scaling_lag_s: f64,
    /// Largest provisioned instance count any rack reached.
    pub peak_instances: u32,
    /// Fraction of started requests that ran on a rack holding a replica of
    /// their object.
    pub locality_hit_rate: f64,
    /// Bytes moved across racks by remote object fetches.
    pub cross_rack_bytes: u64,
    /// Total cross-rack fetch latency charged onto invocations (seconds).
    pub fetch_latency_s: f64,
    /// Joules spent moving those bytes across racks (fabric + remote-drive
    /// PCIe), the energy cost of non-local dispatch.
    pub fetch_energy_j: f64,
    /// Mean wall-clock latency (ms).
    pub mean_latency_ms: f64,
    /// p99 wall-clock latency (ms).
    pub p99_latency_ms: f64,
    /// Peak queued requests (per-bucket mean maximum, all racks).
    pub peak_queue: f64,
    /// Simulated makespan in seconds.
    pub makespan_s: f64,
    /// Discrete events the simulator processed for this cell — the
    /// deterministic engine-work measure behind `events_per_sec`.
    pub events: u64,
    /// Host wall-clock seconds this cell's simulation took. A measurement:
    /// excluded from cell equality and from the deterministic JSON (see
    /// [`AtScaleReport::to_json_with_throughput`]).
    pub wall_s: Measured,
    /// Requests completed per rack.
    pub rack_completed: Vec<u64>,
}

impl SweepCell {
    /// Simulator throughput for this cell: events per host wall-clock
    /// second. A measurement; zero if the cell took no measurable time.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s.get() > 0.0 {
            self.events as f64 / self.wall_s.get()
        } else {
            0.0
        }
    }
}

/// Description of one workload used by the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Workload name.
    pub name: String,
    /// Where the trace came from (`"synthetic"`, `"trace-file:<file>"`).
    pub source: String,
    /// Number of requests in the generated trace.
    pub requests: u64,
    /// Trace horizon in seconds.
    pub horizon_s: f64,
}

/// One synthetic-vs-trace comparison: how far a trace-file workload's
/// measured behaviour sits from a synthetic generator's, aggregated over
/// every policy cell the two share. This is the cross-validation signal the
/// ingestion subsystem exists for — a simulator earns trust by reproducing
/// measured traces, not just parametric ones.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidation {
    /// The synthetic workload's name.
    pub synthetic: String,
    /// The trace workload's source label (`"trace-file:<file>"`).
    pub trace: String,
    /// Matched policy cells the aggregates cover.
    pub cells: u64,
    /// Offered-rate delta, percent of the synthetic rate
    /// (requests-per-second, from the workload summaries).
    pub rate_delta_pct: f64,
    /// Mean-latency delta, percent of the synthetic mean (cell averages).
    pub mean_delta_pct: f64,
    /// p99-latency delta, percent of the synthetic p99 (cell averages).
    pub p99_delta_pct: f64,
    /// Locality-hit-rate delta, absolute (cell averages; both sides place
    /// data with the same seed).
    pub locality_delta: f64,
    /// Policy-regret delta, absolute difference of the averaged per-cell
    /// `regret_pct` values (trace minus synthetic). Regret is already a
    /// ratio, so the delta is reported absolutely rather than re-normalized.
    pub regret_delta: f64,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct AtScaleReport {
    /// The declarative grid the sweep ran.
    pub spec: SweepSpec,
    /// The workloads replayed.
    pub workloads: Vec<WorkloadSummary>,
    /// Every sweep cell, in deterministic order (workload, platform,
    /// scheduler, keepalive, scaling, balancer) — regardless of how many
    /// workers ran the sweep.
    pub cells: Vec<SweepCell>,
    /// Host wall-clock seconds the whole sweep took (trace generation,
    /// placement and all cells). A measurement: excluded from report
    /// equality and the deterministic JSON.
    pub wall_s: Measured,
}

impl AtScaleReport {
    /// Total discrete events the simulator processed across every cell — the
    /// deterministic engine-work measure for the whole sweep.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Cross-validates every synthetic workload against every trace-file
    /// workload the sweep replayed: rate, mean/p99 latency and locality
    /// deltas aggregated over the policy cells the pair shares. Empty when
    /// the sweep ran only synthetic (or only trace) workloads.
    pub fn cross_validation(&self) -> Vec<CrossValidation> {
        let mut out = Vec::new();
        let average = |cells: &[&SweepCell], f: fn(&SweepCell) -> f64| -> f64 {
            cells.iter().map(|c| f(c)).sum::<f64>() / cells.len() as f64
        };
        for synthetic in &self.workloads {
            if synthetic.source != "synthetic" {
                continue;
            }
            for trace in &self.workloads {
                if !trace.source.starts_with("trace-file:") {
                    continue;
                }
                let pairs: Vec<(&SweepCell, &SweepCell)> = self
                    .cells
                    .iter()
                    .filter(|c| {
                        c.workload == synthetic.name && c.workload_source == synthetic.source
                    })
                    .filter_map(|s| {
                        self.cells
                            .iter()
                            .find(|t| {
                                t.workload == trace.name
                                    && t.workload_source == trace.source
                                    && t.platform == s.platform
                                    && t.scheduler == s.scheduler
                                    && t.keepalive == s.keepalive
                                    && t.scaling == s.scaling
                                    && t.balancer == s.balancer
                                    && t.cold_path == s.cold_path
                                    && t.ipc == s.ipc
                            })
                            .map(|t| (s, t))
                    })
                    .collect();
                if pairs.is_empty() {
                    continue;
                }
                let (syn_cells, trace_cells): (Vec<&SweepCell>, Vec<&SweepCell>) =
                    pairs.into_iter().unzip();
                let pct = |synthetic: f64, trace: f64| {
                    if synthetic != 0.0 {
                        (trace - synthetic) / synthetic * 100.0
                    } else {
                        0.0
                    }
                };
                let rate = |w: &WorkloadSummary| {
                    if w.horizon_s > 0.0 {
                        w.requests as f64 / w.horizon_s
                    } else {
                        0.0
                    }
                };
                out.push(CrossValidation {
                    synthetic: synthetic.name.clone(),
                    trace: trace.source.clone(),
                    cells: syn_cells.len() as u64,
                    rate_delta_pct: pct(rate(synthetic), rate(trace)),
                    mean_delta_pct: pct(
                        average(&syn_cells, |c| c.mean_latency_ms),
                        average(&trace_cells, |c| c.mean_latency_ms),
                    ),
                    p99_delta_pct: pct(
                        average(&syn_cells, |c| c.p99_latency_ms),
                        average(&trace_cells, |c| c.p99_latency_ms),
                    ),
                    locality_delta: average(&trace_cells, |c| c.locality_hit_rate)
                        - average(&syn_cells, |c| c.locality_hit_rate),
                    regret_delta: average(&trace_cells, |c| c.regret_pct)
                        - average(&syn_cells, |c| c.regret_pct),
                });
            }
        }
        out
    }

    /// Aggregate simulator throughput: total events over the sweep's wall
    /// clock. With a parallel run this measures the *engine's* delivered
    /// throughput, parallel speedup included. A measurement; zero if the
    /// sweep took no measurable time.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s.get() > 0.0 {
            self.total_events() as f64 / self.wall_s.get()
        } else {
            0.0
        }
    }

    /// Renders the report as compact, byte-for-byte reproducible JSON:
    /// modelled results and deterministic work counters only, identical for
    /// every worker count and across repeated runs.
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Renders [`AtScaleReport::to_json`] plus the measured throughput
    /// fields: per-cell and aggregate `wall_s` / `events_per_sec`. These are
    /// host measurements and differ run to run — this is the variant
    /// `reproduce at-scale` writes, so a run reports its own engine speed;
    /// byte-comparisons must strip the measured keys or use
    /// [`AtScaleReport::to_json`].
    pub fn to_json_with_throughput(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, with_throughput: bool) -> String {
        let mut root = JsonValue::object();
        root.push("schema", "dscs-at-scale-v8");
        root.push("scale", self.spec.scale.name());
        root.push("seed", self.spec.seed);
        root.push("racks", self.spec.racks);
        root.push("balancer", self.spec.balancer_label());
        root.push("total_events", self.total_events());
        if with_throughput {
            root.push("wall_s", self.wall_s.get());
            root.push("events_per_sec", self.events_per_sec());
            // The worker knobs ride in the measured section: they change
            // wall_s but never the modelled results, so — like the
            // throughput they explain — they stay out of cell identity and
            // the deterministic JSON.
            root.push("jobs", self.spec.jobs as u64);
            root.push("rack_jobs", self.spec.rack_jobs as u64);
        }
        root.push(
            "workloads",
            JsonValue::Array(
                self.workloads
                    .iter()
                    .map(|w| {
                        let mut obj = JsonValue::object();
                        obj.push("name", w.name.as_str());
                        obj.push("source", w.source.as_str());
                        obj.push("requests", w.requests);
                        obj.push("horizon_s", w.horizon_s);
                        obj
                    })
                    .collect(),
            ),
        );
        root.push(
            "cross_validation",
            JsonValue::Array(
                self.cross_validation()
                    .iter()
                    .map(|v| {
                        let mut obj = JsonValue::object();
                        obj.push("synthetic", v.synthetic.as_str());
                        obj.push("trace", v.trace.as_str());
                        obj.push("cells", v.cells);
                        obj.push("rate_delta_pct", v.rate_delta_pct);
                        obj.push("mean_delta_pct", v.mean_delta_pct);
                        obj.push("p99_delta_pct", v.p99_delta_pct);
                        obj.push("locality_delta", v.locality_delta);
                        obj.push("regret_delta", v.regret_delta);
                        obj
                    })
                    .collect(),
            ),
        );
        root.push(
            "cells",
            JsonValue::Array(
                self.cells
                    .iter()
                    .map(|c| {
                        let mut obj = JsonValue::object();
                        obj.push("workload", c.workload.as_str());
                        obj.push("workload_source", c.workload_source.as_str());
                        obj.push("platform", c.platform.name());
                        obj.push("scheduler", c.scheduler.name());
                        obj.push("keepalive", c.keepalive.name());
                        obj.push("scaling", c.scaling.name());
                        obj.push("balancer", c.balancer.name());
                        obj.push("cold_path", c.cold_path.name());
                        obj.push("ipc", c.ipc.name());
                        obj.push("requests", c.requests);
                        obj.push("completed", c.completed);
                        obj.push("rejected", c.rejected);
                        obj.push("cold_starts", c.cold_starts);
                        obj.push("coldstart_s", c.coldstart_s);
                        obj.push("optimal_coldstart_s", c.optimal_coldstart_s);
                        obj.push("regret_pct", c.regret_pct);
                        obj.push("restore_s", c.restore_s);
                        obj.push("ipc_overhead_s", c.ipc_overhead_s);
                        obj.push("prewarm_hits", c.prewarm_hits);
                        obj.push("prewarm_hit_rate", c.prewarm_hit_rate);
                        obj.push("wasted_warm_s", c.wasted_warm_s);
                        obj.push("scale_ups", c.scale_ups);
                        obj.push("scale_downs", c.scale_downs);
                        obj.push("scaling_lag_s", c.scaling_lag_s);
                        obj.push("peak_instances", c.peak_instances);
                        obj.push("locality_hit_rate", c.locality_hit_rate);
                        obj.push("cross_rack_bytes", c.cross_rack_bytes);
                        obj.push("fetch_latency_s", c.fetch_latency_s);
                        obj.push("fetch_energy_j", c.fetch_energy_j);
                        obj.push("mean_latency_ms", c.mean_latency_ms);
                        obj.push("p99_latency_ms", c.p99_latency_ms);
                        obj.push("peak_queue", c.peak_queue);
                        obj.push("makespan_s", c.makespan_s);
                        obj.push("events", c.events);
                        if with_throughput {
                            obj.push("wall_s", c.wall_s.get());
                            obj.push("events_per_sec", c.events_per_sec());
                        }
                        obj.push("rack_completed", c.rack_completed.clone());
                        obj
                    })
                    .collect(),
            ),
        );
        root.render()
    }
}

/// The platforms the sweep compares (the Figure 13 pair).
pub const SWEEP_PLATFORMS: [PlatformKind; 2] = [PlatformKind::BaselineCpu, PlatformKind::DscsDsa];

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn smoke_sweep() -> SweepSpec {
        SweepSpec::from(AtScaleOptions::smoke())
    }

    /// One shared smoke sweep: the grid is 432 cells, so tests that only
    /// *read* the report reuse a single run (the reproducibility test still
    /// performs its own two independent runs).
    fn smoke_report() -> &'static AtScaleReport {
        static REPORT: OnceLock<AtScaleReport> = OnceLock::new();
        REPORT.get_or_init(|| smoke_sweep().run().expect("valid spec"))
    }

    #[test]
    fn smoke_sweep_covers_the_whole_grid() {
        let report = smoke_report();
        // 2 workloads x 2 platforms x 3 schedulers x 4 keepalive policies
        // x 3 scaling policies x 3 balancers x 1 cold path x 1 transport
        // (the modality axes default to single values, so the legacy grid
        // size is unchanged).
        assert_eq!(report.cells.len(), 2 * 2 * 3 * 4 * 3 * 3);
        assert_eq!(report.workloads.len(), 2);
        for cell in &report.cells {
            assert_eq!(cell.completed + cell.rejected, cell.requests);
            assert!(cell.mean_latency_ms > 0.0);
            assert_eq!(cell.rack_completed.len(), 2);
            assert!(cell.peak_instances <= 200);
            assert!((0.0..=1.0).contains(&cell.locality_hit_rate));
            assert!(cell.fetch_latency_s >= 0.0);
            assert!(cell.fetch_energy_j >= 0.0);
            assert!(cell.coldstart_s >= 0.0 && cell.coldstart_s.is_finite());
            assert!(cell.optimal_coldstart_s > 0.0 && cell.optimal_coldstart_s.is_finite());
            // Exact in real arithmetic; one part in 1e9 absorbs
            // summation-order ulp noise between the two accumulations.
            assert!(
                cell.coldstart_s >= cell.optimal_coldstart_s * (1.0 - 1e-9),
                "the offline bound must floor every policy: {} vs {}",
                cell.coldstart_s,
                cell.optimal_coldstart_s
            );
            assert!(cell.regret_pct >= 0.0 && cell.regret_pct.is_finite());
            assert_eq!(cell.cold_path, ColdStartPath::FlashReload);
            assert_eq!(cell.ipc, IpcTransport::SharedMem);
            assert_eq!(cell.restore_s, 0.0, "flash path never restores");
            assert_eq!(cell.ipc_overhead_s, 0.0, "shm transport is free");
            if cell.cross_rack_bytes > 0 {
                assert!(cell.fetch_energy_j > 0.0, "moved bytes must cost joules");
            }
            if matches!(cell.scaling, ScalingPolicy::Fixed) {
                assert_eq!(cell.scale_ups, 0, "fixed racks never scale");
                assert_eq!(cell.scaling_lag_s, 0.0);
            }
        }
    }

    #[test]
    fn sweep_json_is_reproducible_and_parsable_in_shape() {
        let a = smoke_sweep().run().expect("valid spec").to_json();
        let b = smoke_sweep().run().expect("valid spec").to_json();
        assert_eq!(a, b, "fixed seed must reproduce byte-for-byte");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"schema\":\"dscs-at-scale-v8\""));
        assert!(a.contains("\"coldstart_s\""));
        assert!(a.contains("\"optimal_coldstart_s\""));
        assert!(a.contains("\"regret_pct\""));
        assert!(a.contains("\"cold_path\":\"flash\""));
        assert!(a.contains("\"ipc\":\"shm\""));
        assert!(a.contains("\"restore_s\""));
        assert!(a.contains("\"ipc_overhead_s\""));
        assert!(a.contains("\"total_events\""));
        assert!(a.contains("\"events\""));
        assert!(
            !a.contains("\"events_per_sec\"") && !a.contains("\"wall_s\""),
            "measured throughput must stay out of the deterministic JSON"
        );
        assert!(a.contains("\"workload\":\"azure\""));
        assert!(a.contains("\"workload_source\":\"synthetic\""));
        assert!(
            a.contains("\"cross_validation\":[]"),
            "an all-synthetic sweep carries an empty cross-validation section"
        );
        assert!(a.contains("\"keepalive\":\"hybrid-histogram\""));
        assert!(a.contains("\"keepalive\":\"hybrid-prewarm\""));
        assert!(a.contains("\"scaling\":\"reactive\""));
        assert!(a.contains("\"scaling\":\"predictive\""));
        assert!(a.contains("\"balancer\":\"locality\""));
        assert!(a.contains("\"locality_hit_rate\""));
        assert!(a.contains("\"cross_rack_bytes\""));
        assert!(a.contains("\"fetch_energy_j\""));
        let parsed = JsonValue::parse(&a).expect("report JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some("dscs-at-scale-v8")
        );
    }

    /// The throughput JSON variant is the deterministic report plus the
    /// measured keys, per cell and in aggregate.
    #[test]
    fn throughput_json_adds_measured_fields_on_top_of_the_deterministic_report() {
        let report = smoke_report();
        let json = report.to_json_with_throughput();
        let parsed = JsonValue::parse(&json).expect("throughput JSON parses");
        assert!(parsed.get("wall_s").is_some());
        assert!(parsed.get("events_per_sec").is_some());
        assert_eq!(
            parsed.get("total_events").and_then(JsonValue::as_f64),
            Some(report.total_events() as f64)
        );
        assert!(report.total_events() > 0);
        assert!(report.events_per_sec() > 0.0);
        for cell in &report.cells {
            assert!(cell.events > 0);
        }
        // Stripping nothing but the measured keys recovers the deterministic
        // report's information; cheap proxy: the deterministic JSON carries
        // no measured keys and both parse to the same cell count.
        let deterministic = report.to_json();
        assert!(!deterministic.contains("\"events_per_sec\""));
        assert!(json.len() > deterministic.len());
    }

    /// In-crate spot check of the tentpole guarantee (the full matrix lives
    /// in `tests/parallel_equivalence.rs`): a pooled run renders exactly the
    /// bytes the sequential run does.
    #[test]
    fn parallel_sweep_matches_sequential_bytes() {
        let spec = SweepSpec {
            platforms: vec![PlatformKind::DscsDsa],
            schedulers: vec![SchedulerPolicy::Fcfs],
            keepalives: vec![KeepalivePolicy::FixedWindow],
            jobs: 1,
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        let sequential = spec.run().expect("valid spec").to_json();
        let parallel = SweepSpec { jobs: 3, ..spec }
            .run()
            .expect("valid spec")
            .to_json();
        assert_eq!(sequential, parallel);
    }

    /// In-crate spot check of the second parallelism level: sharding each
    /// round-robin cell's racks over threads renders exactly the bytes the
    /// rack-sequential sweep does, and the knob never leaks into the
    /// deterministic JSON (it rides in the measured section instead).
    #[test]
    fn rack_parallel_sweep_matches_rack_sequential_bytes() {
        let spec = SweepSpec {
            platforms: vec![PlatformKind::DscsDsa],
            schedulers: vec![SchedulerPolicy::Fcfs],
            keepalives: vec![KeepalivePolicy::FixedWindow],
            jobs: 1,
            rack_jobs: 1,
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        let sequential = spec.run().expect("valid spec").to_json();
        for rack_jobs in [2, 0] {
            let report = SweepSpec {
                rack_jobs,
                ..spec.clone()
            }
            .run()
            .expect("valid spec");
            assert_eq!(sequential, report.to_json(), "rack_jobs={rack_jobs}");
            assert!(!report.to_json().contains("\"rack_jobs\""));
            assert!(report.to_json_with_throughput().contains("\"rack_jobs\""));
        }
    }

    /// The two worker levels split one core budget: `rack_jobs = 0` resolves
    /// to the cores left over per sweep worker, never below one.
    #[test]
    fn rack_jobs_zero_splits_the_core_budget_with_the_sweep_workers() {
        let spec = SweepSpec {
            rack_jobs: 0,
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        let cores = par::resolve_workers(0);
        assert_eq!(spec.effective_rack_jobs(1), cores);
        assert_eq!(spec.effective_rack_jobs(cores), 1);
        assert_eq!(spec.effective_rack_jobs(cores * 4), 1, "never below one");
        let pinned = SweepSpec {
            rack_jobs: 3,
            ..spec
        };
        assert_eq!(pinned.effective_rack_jobs(cores), 3, "non-zero is literal");
    }

    // The locality-beats-round-robin acceptance comparison lives at the
    // integration level (tests/at_scale.rs), backed by the byte-for-byte
    // golden fixture, and is re-checked by CI's report validation — no
    // in-crate twin needed.

    #[test]
    fn dscs_outperforms_the_baseline_across_the_grid() {
        let report = smoke_report();
        for workload in ["bursty", "azure"] {
            let total = |platform| -> f64 {
                report
                    .cells
                    .iter()
                    .filter(|c| c.workload == workload && c.platform == platform)
                    .map(|c| c.mean_latency_ms)
                    .sum()
            };
            let base = total(PlatformKind::BaselineCpu);
            let dscs = total(PlatformKind::DscsDsa);
            assert!(dscs < base, "{workload}: dscs {dscs} vs baseline {base}");
        }
    }

    #[test]
    fn sweep_spec_expands_options_and_validates_axes() {
        let spec = SweepSpec::from(AtScaleOptions::quick());
        assert_eq!(spec.balancers.len(), LoadBalancer::ALL.len());
        assert_eq!(spec.check(), Ok(()));
        assert_eq!(spec.cold_paths, vec![ColdStartPath::FlashReload]);
        assert_eq!(spec.ipcs, vec![IpcTransport::SharedMem]);
        assert_eq!((spec.jobs, spec.rack_jobs), (0, 1));

        let empty_axis = SweepSpec {
            schedulers: Vec::new(),
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        assert_eq!(
            empty_axis.check(),
            Err(ConfigError::EmptySweepAxis { axis: "schedulers" })
        );
        let empty_paths = SweepSpec {
            cold_paths: Vec::new(),
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        assert_eq!(
            empty_paths.check(),
            Err(ConfigError::EmptySweepAxis { axis: "cold_paths" })
        );
        assert!(empty_axis.run().is_err());
        let zero_racks = SweepSpec {
            racks: 0,
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        assert_eq!(zero_racks.check(), Err(ConfigError::ZeroRacks));
        // A data layer stores each home rack in a byte: 255 racks is the
        // most a sweep places over.
        let racks = |racks| SweepSpec {
            racks,
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        assert_eq!(racks(255).check(), Ok(()));
        assert_eq!(
            racks(256).check(),
            Err(ConfigError::TooManyRacks {
                racks: 256,
                max: 255
            })
        );
    }

    #[test]
    fn workloads_are_a_declarative_axis_with_cross_validation() {
        let empty = SweepSpec {
            workloads: Vec::new(),
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        assert_eq!(
            empty.check(),
            Err(ConfigError::EmptySweepAxis { axis: "workloads" })
        );

        // A two-cell grid over a synthetic workload and the same trace
        // relabeled as a trace file: cross-validation pairs them, and since
        // the traces are identical the deltas collapse to zero.
        let azure = WorkloadSpec::Azure {
            scale: SweepScale::Smoke,
            seed: 42,
        };
        let realized = azure.realize().expect("valid spec");
        let relabeled = WorkloadSpec::Inline {
            name: "trace".into(),
            source: "trace-file:self.csv".into(),
            horizon_s: realized.horizon_s,
            trace: realized.trace.clone(),
        };
        let spec = SweepSpec {
            workloads: vec![azure, relabeled],
            platforms: vec![PlatformKind::DscsDsa],
            schedulers: vec![SchedulerPolicy::Fcfs],
            keepalives: vec![KeepalivePolicy::FixedWindow],
            scalings: vec![ScalingPolicy::Fixed],
            balancers: vec![LoadBalancer::LocalityAware],
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        let report = spec.run().expect("valid spec");
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.workloads[1].source, "trace-file:self.csv");
        let validation = report.cross_validation();
        assert_eq!(validation.len(), 1);
        let v = &validation[0];
        assert_eq!(
            (v.synthetic.as_str(), v.trace.as_str(), v.cells),
            ("azure", "trace-file:self.csv", 1)
        );
        assert_eq!(v.rate_delta_pct, 0.0);
        assert_eq!(v.mean_delta_pct, 0.0);
        assert_eq!(v.p99_delta_pct, 0.0);
        assert_eq!(v.locality_delta, 0.0);
        assert_eq!(v.regret_delta, 0.0);
        let json = report.to_json();
        assert!(json.contains("\"workload_source\":\"trace-file:self.csv\""));
        assert!(json.contains("\"cross_validation\":[{\"synthetic\":\"azure\""));
    }

    /// The report's balancer label reflects the swept list: one name, "all"
    /// only for the full axis, and the joined names for a genuine subset.
    #[test]
    fn balancer_label_distinguishes_subsets_from_the_full_axis() {
        let spec = SweepSpec {
            platforms: vec![PlatformKind::DscsDsa],
            schedulers: vec![SchedulerPolicy::Fcfs],
            keepalives: vec![KeepalivePolicy::FixedWindow],
            scalings: vec![ScalingPolicy::Fixed],
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        let label = |balancers: Vec<LoadBalancer>| {
            SweepSpec {
                balancers,
                ..spec.clone()
            }
            .run()
            .expect("valid spec")
            .to_json()
        };
        assert!(label(vec![LoadBalancer::RoundRobin]).contains("\"balancer\":\"round-robin\""));
        assert!(label(LoadBalancer::ALL.to_vec()).contains("\"balancer\":\"all\""));
        assert!(
            label(vec![LoadBalancer::RoundRobin, LoadBalancer::LeastLoaded])
                .contains("\"balancer\":\"round-robin+least-loaded\"")
        );
    }

    /// A restricted spec sweeps exactly its listed values: the declarative
    /// grid is what runs, not a hard-coded axis set.
    #[test]
    fn restricted_sweep_spec_runs_only_its_lists() {
        let spec = SweepSpec {
            platforms: vec![PlatformKind::DscsDsa],
            schedulers: vec![SchedulerPolicy::Fcfs],
            keepalives: vec![KeepalivePolicy::FixedWindow],
            scalings: vec![ScalingPolicy::Fixed, ScalingPolicy::Reactive],
            balancers: vec![LoadBalancer::LocalityAware],
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        let report = spec.run().expect("valid spec");
        // 2 workloads x 1 platform x 1 scheduler x 1 keepalive x 2 scalings
        // x 1 balancer.
        assert_eq!(report.cells.len(), 4);
        assert!(report
            .cells
            .iter()
            .all(|c| c.platform == PlatformKind::DscsDsa
                && c.balancer.name() == "locality"
                && c.scheduler.name() == "fcfs"));
        assert_eq!(report.spec, spec);
    }

    /// Every cell's bound, which the sweep sums over its data layer's first
    /// request per function, equals the public wrapper's on the cell's
    /// trace, priced under the cell's platform and cold-start path — for
    /// dense synthetic ids and for hashed trace-file ids alike.
    #[test]
    fn every_cells_bound_equals_the_public_wrapper() {
        use crate::workload::{azure_generation_rng, AzureWorkload, Workload};
        let hashed = crate::ingest::TraceFileWorkload::from_workload(
            &AzureWorkload {
                horizon: dscs_simcore::time::SimDuration::from_secs(120),
                ..crate::ingest::sample_workload()
            },
            &mut azure_generation_rng(3),
            "hashed",
        )
        .and_then(|file| file.generate(&mut azure_generation_rng(3)))
        .expect("valid workload");
        let spec = SweepSpec {
            workloads: vec![
                WorkloadSpec::Azure {
                    scale: SweepScale::Smoke,
                    seed: 42,
                },
                WorkloadSpec::Inline {
                    name: "hashed".into(),
                    source: "trace-file:hashed".into(),
                    horizon_s: 120.0,
                    trace: Arc::new(hashed),
                },
            ],
            platforms: vec![PlatformKind::BaselineCpu, PlatformKind::DscsDsa],
            schedulers: vec![SchedulerPolicy::Fcfs],
            keepalives: vec![KeepalivePolicy::NoKeepalive],
            scalings: vec![ScalingPolicy::Fixed],
            balancers: vec![LoadBalancer::RoundRobin],
            cold_paths: ColdStartPath::ALL.to_vec(),
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        let workloads: Vec<RealizedWorkload> = spec
            .workloads
            .iter()
            .map(|w| w.realize().expect("valid workload"))
            .collect();
        let bases: Vec<ClusterSim> = spec
            .platforms
            .iter()
            .map(|&p| ClusterSim::new(p, ClusterConfig::default()))
            .collect();
        let report = spec.run().expect("valid spec");
        assert_eq!(report.cells.len(), 2 * 2 * ColdStartPath::ALL.len());
        for cell in &report.cells {
            let workload = workloads
                .iter()
                .find(|w| w.name == cell.workload)
                .expect("every cell replays a workload of the spec");
            let base = bases
                .iter()
                .find(|b| b.platform() == cell.platform)
                .expect("every cell runs a platform of the spec");
            let priced = base.reconfigured(ClusterConfig {
                cold_path: cell.cold_path,
                ..ClusterConfig::default()
            });
            let bound = crate::optimal::optimal_coldstart_seconds(&workload.trace, &priced);
            assert_eq!(
                cell.optimal_coldstart_s.to_bits(),
                bound.to_bits(),
                "{} / {:?} / {}",
                cell.workload,
                cell.platform,
                cell.cold_path.name()
            );
        }
    }

    /// The modality axes sweep like any other: a 3-path × 3-transport grid
    /// produces one cell per combination, each cell's optimal bound is
    /// priced under its own cold-start path (so regret stays well-defined),
    /// and the new cost columns light up exactly where their modality runs.
    #[test]
    fn cold_path_and_ipc_sweep_as_first_class_axes() {
        let spec = SweepSpec {
            workloads: vec![WorkloadSpec::Azure {
                scale: SweepScale::Smoke,
                seed: 42,
            }],
            platforms: vec![PlatformKind::DscsDsa],
            schedulers: vec![SchedulerPolicy::Fcfs],
            keepalives: vec![KeepalivePolicy::NoKeepalive],
            scalings: vec![ScalingPolicy::Fixed],
            balancers: vec![LoadBalancer::RoundRobin],
            cold_paths: ColdStartPath::ALL.to_vec(),
            ipcs: IpcTransport::ALL.to_vec(),
            ..SweepSpec::default_grid(SweepScale::Smoke)
        };
        let report = spec.run().expect("valid spec");
        assert_eq!(report.cells.len(), 9);
        let at = |path: ColdStartPath, ipc: IpcTransport| {
            report
                .cells
                .iter()
                .find(|c| c.cold_path == path && c.ipc == ipc)
                .expect("grid covers every (path, ipc) combination")
        };
        for cell in &report.cells {
            // The offline bound must floor every cell under its own pricing.
            assert!(
                cell.coldstart_s >= cell.optimal_coldstart_s * (1.0 - 1e-9),
                "{}/{}: {} vs bound {}",
                cell.cold_path.name(),
                cell.ipc.name(),
                cell.coldstart_s,
                cell.optimal_coldstart_s
            );
            // Modality costs light up only where their modality runs.
            assert_eq!(
                cell.restore_s > 0.0,
                cell.cold_path == ColdStartPath::SnapshotRestore && cell.cold_starts > 1,
                "restore seconds iff snapshot repeat colds"
            );
            assert_eq!(
                cell.ipc_overhead_s > 0.0,
                cell.ipc != IpcTransport::SharedMem
            );
        }
        // The no-keepalive smoke run pays plenty of repeat colds, so the
        // modality orderings are visible end to end: snapshot restore beats
        // flash reload beats fresh spawn on aggregate cold-start seconds,
        // and pricier transports charge more IPC seconds.
        let (snapshot, flash, fresh) = (
            at(ColdStartPath::SnapshotRestore, IpcTransport::SharedMem),
            at(ColdStartPath::FlashReload, IpcTransport::SharedMem),
            at(ColdStartPath::FreshSpawn, IpcTransport::SharedMem),
        );
        assert!(snapshot.coldstart_s < flash.coldstart_s);
        assert!(flash.coldstart_s < fresh.coldstart_s);
        // At the zero warm-memory price the sweep bounds with, hindsight
        // keeps every container warm and pays only the per-function first
        // cold starts — which cost the full registry spawn under every
        // path — so the bound is path-invariant and the cheaper modality
        // shows up purely as lower regret. (The path-aware repeat pricing
        // is exercised by `optimal_coldstart_seconds_with`; see
        // `crate::optimal`.)
        assert_eq!(snapshot.optimal_coldstart_s, fresh.optimal_coldstart_s);
        assert!(snapshot.regret_pct < fresh.regret_pct);
        let http = at(ColdStartPath::FlashReload, IpcTransport::Http);
        let socket = at(ColdStartPath::FlashReload, IpcTransport::UnixSocket);
        assert!(http.ipc_overhead_s > socket.ipc_overhead_s);
        assert!(http.mean_latency_ms >= flash.mean_latency_ms);
        let json = report.to_json();
        assert!(json.contains("\"cold_path\":\"snapshot\""));
        assert!(json.contains("\"ipc\":\"http\""));
    }
}
