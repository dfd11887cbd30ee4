//! The benchmark's workloads and the two ways it runs one: the real sweep
//! (`SweepSpec::run`, untraced), and a replay that repeats `SweepSpec::run`
//! step by step through the same public calls, timing each call as a span.
//!
//! The replay is a hand copy of the sweep's orchestration: the seed salts, the
//! bound memo, the grid loop and the cell literal. It assembles its own
//! `AtScaleReport`, whose digest must equal the real sweep's. That pins the
//! outputs, not the timed code path: if `SweepSpec::run` changes how it orders
//! or schedules its work, the digest still matches while the replay keeps
//! timing the old sequence. Spans inside the program replace the replay.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dscs_cluster::at_scale::{
    AtScaleOptions, AtScaleReport, SweepCell, SweepScale, SweepSpec, WorkloadSummary,
};
use dscs_cluster::data::DataLayer;
use dscs_cluster::experiment::{ConfigError, Experiment};
use dscs_cluster::optimal::{optimal_coldstart_seconds, regret_pct};
use dscs_cluster::policy::{KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy};
use dscs_cluster::sim::{ClusterConfig, ClusterReport, ClusterSim};
use dscs_cluster::trace::TraceRequest;
use dscs_cluster::workload::{
    azure_generation_rng, AzureWorkload, RealizedWorkload, Workload as _, WorkloadSpec,
};
use dscs_simcore::stats::Measured;
use dscs_simcore::SimDuration;

use crate::spans::Tracer;
use crate::stats::fnv1a64;

/// `SweepSpec::run` places data with `seed ^ PLACEMENT_SALT` and runs every
/// cell with `seed ^ CELL_SALT`; the replay must use the same streams.
const PLACEMENT_SALT: u64 = 0xDA7A;
const CELL_SALT: u64 = 0x5EED;

/// Simulated hours of the large azure preset the `azure100k-*` workloads
/// replay: a sixteenth of its 48, so that one sweep takes seconds and a
/// short run repeats it several times.
const AZURE100K_HOURS: u64 = 3;

const MIB: f64 = 1024.0 * 1024.0;

/// One benchmark workload: a closed batch of one sweep, run with one sweep
/// worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The whole policy grid on the smoke-size traces: 432 small cells, so
    /// the engine loop and per-cell overhead dominate, set-up is negligible
    /// and every policy branch runs.
    GridSmoke,
    /// 10⁵ azure functions on round-robin: set-up is a large share, and the
    /// cells run the rack-parallel lane engine over a working set far larger
    /// than the CPU caches.
    Azure100kRr,
    /// The same trace behind the locality balancer: the sequential coupled
    /// engine with a replica lookup on every dispatch; no lane work at all.
    Azure100kLocality,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GridSmoke,
        Workload::Azure100kRr,
        Workload::Azure100kLocality,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GridSmoke => "grid-smoke",
            Workload::Azure100kRr => "azure100k-rr",
            Workload::Azure100kLocality => "azure100k-locality",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scale the benchmark runs the workload at.
    pub fn scale(self) -> SweepScale {
        match self {
            Workload::GridSmoke => SweepScale::Smoke,
            Workload::Azure100kRr | Workload::Azure100kLocality => SweepScale::Large,
        }
    }

    /// Cells one sweep runs. The grid depends on neither scale nor seed.
    pub fn cells(self) -> usize {
        let spec = self
            .spec_at(SweepScale::Smoke, 0)
            .expect("the smoke-size workloads generate");
        expected_cells(&spec)
    }

    /// The workload's sweep at `scale`, seeded from `seed`. The azure
    /// workloads generate their trace here, so this call is part of the
    /// sweep's set-up. Worker counts stay within two threads, and never
    /// above the host's core count.
    pub fn spec_at(self, scale: SweepScale, seed: u64) -> Result<SweepSpec, ConfigError> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let options = AtScaleOptions {
            scale,
            seed,
            ..AtScaleOptions::quick()
        };
        let balancer = match self {
            Workload::GridSmoke => {
                return Ok(SweepSpec {
                    jobs: 1,
                    rack_jobs: 1,
                    ..SweepSpec::from(options)
                })
            }
            Workload::Azure100kRr => LoadBalancer::RoundRobin,
            Workload::Azure100kLocality => LoadBalancer::locality_default(),
        };
        let azure = azure_at(scale);
        let trace = azure.generate(&mut azure_generation_rng(seed))?;
        // The restricted grid of `reproduce at-scale --scale large`.
        Ok(SweepSpec {
            workloads: vec![WorkloadSpec::Inline {
                name: azure.name().into(),
                source: "synthetic".into(),
                horizon_s: azure.horizon().as_secs_f64(),
                trace: Arc::new(trace),
            }],
            schedulers: vec![SchedulerPolicy::Fcfs],
            keepalives: vec![KeepalivePolicy::hybrid_default()],
            scalings: vec![ScalingPolicy::reactive_default()],
            balancers: vec![balancer],
            jobs: 1,
            rack_jobs: cores.min(2),
            ..SweepSpec::from(AtScaleOptions {
                racks: 4,
                ..options
            })
        })
    }
}

/// The azure generator the `azure100k-*` workloads replay at `scale`: at
/// `Large`, the large preset (10⁵ functions, a 24-hour diurnal cycle)
/// shortened to its first [`AZURE100K_HOURS`] hours.
fn azure_at(scale: SweepScale) -> AzureWorkload {
    let preset = WorkloadSpec::azure_at(scale);
    match scale {
        SweepScale::Large => AzureWorkload {
            horizon: SimDuration::from_secs(AZURE100K_HOURS * 3600),
            ..preset
        },
        _ => preset,
    }
}

/// Cells the sweep runs: the size of its cartesian product.
pub fn expected_cells(spec: &SweepSpec) -> usize {
    spec.workloads.len()
        * spec.platforms.len()
        * spec.schedulers.len()
        * spec.keepalives.len()
        * spec.scalings.len()
        * spec.balancers.len()
        * spec.cold_paths.len()
        * spec.ipcs.len()
}

/// Whether one cell keeps the invariants every sweep result must hold: every
/// request accounted for, racks summing to the cell, the offline bound a
/// floor, and every number finite and non-negative.
fn cell_ok(cell: &SweepCell) -> bool {
    let numbers = [
        cell.coldstart_s,
        cell.optimal_coldstart_s,
        cell.regret_pct,
        cell.restore_s,
        cell.ipc_overhead_s,
        cell.prewarm_hit_rate,
        cell.wasted_warm_s,
        cell.scaling_lag_s,
        cell.locality_hit_rate,
        cell.fetch_latency_s,
        cell.fetch_energy_j,
        cell.mean_latency_ms,
        cell.p99_latency_ms,
        cell.peak_queue,
        cell.makespan_s,
        cell.wall_s.get(),
    ];
    cell.completed + cell.rejected == cell.requests
        && cell.rack_completed.iter().sum::<u64>() == cell.completed
        && cell.coldstart_s >= cell.optimal_coldstart_s * (1.0 - 1e-9)
        && numbers.iter().all(|x| x.is_finite() && *x >= 0.0)
}

/// What one sweep produced, as the parent process needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// FNV-1a-64 of the report's deterministic JSON.
    pub digest: u64,
    /// Cells missing or breaking an invariant.
    pub failed: usize,
    /// Simulated events over all cells.
    pub events: u64,
    /// Seconds spent outside the cells' engine runs until the report was
    /// complete: building the spec (trace generation included) plus the
    /// report's own wall time less the cells'.
    pub setup_s: f64,
}

impl SweepRun {
    fn of(spec: &SweepSpec, spec_s: f64, report: &AtScaleReport, json: &str) -> SweepRun {
        let expected = expected_cells(spec);
        let broken = report.cells.iter().filter(|c| !cell_ok(c)).count();
        let cells_s: f64 = report.cells.iter().map(|c| c.wall_s.get()).sum();
        SweepRun {
            digest: fnv1a64(json.as_bytes()),
            failed: (broken + expected.saturating_sub(report.cells.len())).min(expected),
            events: report.total_events(),
            setup_s: spec_s + report.wall_s.get() - cells_s,
        }
    }
}

/// Runs the sweep the way the program does and checks its output.
pub fn run_sweep(
    workload: Workload,
    scale: SweepScale,
    seed: u64,
) -> Result<SweepRun, ConfigError> {
    let started = Instant::now();
    let spec = workload.spec_at(scale, seed)?;
    let spec_s = started.elapsed().as_secs_f64();
    let report = spec.run()?;
    Ok(SweepRun::of(&spec, spec_s, &report, &report.to_json()))
}

/// The replay's result: the same summary as [`run_sweep`] plus the per-layer
/// counters, by metric name.
pub struct Replay {
    pub run: SweepRun,
    pub counters: BTreeMap<&'static str, f64>,
}

/// Repeats `SweepSpec::run` for the workload's sequential (`jobs = 1`) sweep
/// call by call, timing each layer: workload realisation (trace generation
/// included), model evaluation, placement, the offline bounds, each cell's
/// build and engine run, the frees that follow the sweep, and the JSON
/// render.
pub fn replay(
    workload: Workload,
    scale: SweepScale,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Replay, ConfigError> {
    let started = Instant::now();
    let spec = tracer.span("workload.realize", None, || workload.spec_at(scale, seed))?;
    let spec_s = started.elapsed().as_secs_f64();
    spec.check()?;
    assert_eq!(
        spec.effective_jobs(),
        1,
        "the replay mirrors the sequential sweep"
    );
    let wall_clock = Instant::now();
    let workloads = spec
        .workloads
        .iter()
        .map(|w| tracer.span("workload.realize", None, || w.realize()))
        .collect::<Result<Vec<RealizedWorkload>, _>>()?;
    let base_sims: Vec<ClusterSim> = spec
        .platforms
        .iter()
        .map(|&p| {
            tracer.span("sim.model", None, || {
                ClusterSim::new(p, ClusterConfig::default())
            })
        })
        .collect();
    let data_layers: Vec<Arc<DataLayer>> = workloads
        .iter()
        .map(|w| {
            tracer.span("data.place", None, || {
                Arc::new(DataLayer::for_trace(
                    &w.trace,
                    spec.racks,
                    spec.seed ^ PLACEMENT_SALT,
                ))
            })
        })
        .collect();
    let mut bounds = BTreeMap::new();
    for (w, workload) in workloads.iter().enumerate() {
        for (p, sim) in base_sims.iter().enumerate() {
            for (c, &cold_path) in spec.cold_paths.iter().enumerate() {
                let bound = tracer.span("optimal.bound", None, || {
                    let priced = sim.reconfigured(ClusterConfig {
                        cold_path,
                        ..ClusterConfig::default()
                    });
                    optimal_coldstart_seconds(&workload.trace, &priced)
                });
                bounds.insert((w, p, c), bound);
            }
        }
    }

    let mut points = Vec::new();
    for w in 0..workloads.len() {
        for p in 0..spec.platforms.len() {
            for &scheduler in &spec.schedulers {
                for &keepalive in &spec.keepalives {
                    for &scaling in &spec.scalings {
                        for &balancer in &spec.balancers {
                            for c in 0..spec.cold_paths.len() {
                                for &ipc in &spec.ipcs {
                                    points.push((
                                        w, p, scheduler, keepalive, scaling, balancer, c, ipc,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let rack_jobs = spec.effective_rack_jobs(1);
    let mut tally = Tally::default();
    let mut cells = Vec::with_capacity(points.len());
    for (id, &(w, p, scheduler, keepalive, scaling, balancer, c, ipc)) in points.iter().enumerate()
    {
        let cell_span = tracer.enter("at_scale.cell", Some(id));
        let workload = &workloads[w];
        let cold_path = spec.cold_paths[c];
        let bound = bounds[&(w, p, c)];
        let experiment = tracer.span("experiment.build", Some(id), || {
            Experiment::builder(spec.platforms[p])
                .trace(workload.trace.clone())
                .racks(spec.racks)
                .balancer(balancer)
                .scheduler(scheduler)
                .keepalive(keepalive)
                .scaling(scaling)
                .cold_path(cold_path)
                .ipc(ipc)
                .data_layer(data_layers[w].clone())
                .seed(spec.seed ^ CELL_SALT)
                .optimal_coldstart(bound)
                .rack_jobs(rack_jobs)
                .build()
        })?;
        let engine_span = tracer.enter("sim.engine", Some(id));
        let outcome = experiment.run_on(&base_sims[p]);
        tracer.exit(engine_span);
        let lanes = outcome.engine.is_rack_parallel();
        tracer.rename(engine_span, if lanes { "sim.lanes" } else { "sim.coupled" });
        let report = &outcome.report;
        tally.add(report, lanes);
        cells.push(SweepCell {
            workload: workload.name.clone(),
            workload_source: workload.source.clone(),
            platform: spec.platforms[p],
            scheduler,
            keepalive,
            scaling,
            balancer,
            cold_path,
            ipc,
            requests: workload.trace.len() as u64,
            completed: report.completed,
            rejected: report.rejected,
            cold_starts: report.cold_starts,
            coldstart_s: report.coldstart_s,
            optimal_coldstart_s: bound,
            regret_pct: regret_pct(report.coldstart_s, bound),
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
        });
        drop((experiment, outcome));
        tracer.exit(cell_span);
    }
    let report = AtScaleReport {
        spec: spec.clone(),
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
    };

    let requests: usize = workloads.iter().map(|w| w.trace.len()).sum();
    let objects: usize = data_layers.iter().map(|d| d.object_count()).sum();
    // SweepSpec::run frees its locals in reverse order of declaration: the
    // data layers before the traces.
    tracer.span("data.drop", None, || drop(data_layers));
    tracer.span("workload.drop", None, || drop(workloads));
    let json = tracer.span("at_scale.render", None, || report.to_json());
    let run = tracer.span("bench.check", None, || {
        SweepRun::of(&spec, spec_s, &report, &json)
    });

    let mut counters = tally.counters(&report);
    counters.insert("workload.requests", requests as f64);
    counters.insert(
        "workload.trace_mib",
        (requests * std::mem::size_of::<TraceRequest>()) as f64 / MIB,
    );
    counters.insert("data.objects", objects as f64);
    counters.insert("optimal.bounds", bounds.len() as f64);
    counters.insert("at_scale.json_kib", json.len() as f64 / 1024.0);
    // An inline workload's trace is shared by the spec and the report, so it
    // is freed with them, as it is after `SweepSpec::run` returns.
    tracer.span("workload.drop", None, || drop((report, spec)));
    Ok(Replay { run, counters })
}

/// The modelled counters summed over a replay's cells. A change that claims
/// only speed must leave every one of them identical.
#[derive(Default)]
struct Tally {
    lanes_events: u64,
    coupled_events: u64,
    completed: u64,
    rejected: u64,
    cold_starts: u64,
    prewarm_hits: u64,
    scale_ups: u64,
    wasted_warm_s: f64,
    locality_hits: u64,
    remote_fetches: u64,
    cross_rack_bytes: u64,
}

impl Tally {
    fn add(&mut self, report: &ClusterReport, lanes: bool) {
        if lanes {
            self.lanes_events += report.events;
        } else {
            self.coupled_events += report.events;
        }
        self.completed += report.completed;
        self.rejected += report.rejected;
        self.cold_starts += report.cold_starts;
        self.prewarm_hits += report.prewarm_hits;
        self.scale_ups += report.scale_ups;
        self.wasted_warm_s += report.wasted_warm_seconds;
        self.locality_hits += report.locality_hits;
        self.remote_fetches += report.remote_fetches;
        self.cross_rack_bytes += report.cross_rack_bytes;
    }

    fn counters(&self, report: &AtScaleReport) -> BTreeMap<&'static str, f64> {
        let starts = self.locality_hits + self.remote_fetches;
        let regret: f64 = report.cells.iter().map(|c| c.regret_pct).sum();
        BTreeMap::from([
            ("sim.lanes_events", self.lanes_events as f64),
            ("sim.coupled_events", self.coupled_events as f64),
            ("sim.completed", self.completed as f64),
            ("sim.rejected", self.rejected as f64),
            ("sim.cold_starts", self.cold_starts as f64),
            ("policy.prewarm_hits", self.prewarm_hits as f64),
            ("policy.scale_ups", self.scale_ups as f64),
            ("policy.wasted_warm_s", self.wasted_warm_s),
            (
                "data.locality_hit_rate",
                if starts == 0 {
                    0.0
                } else {
                    self.locality_hits as f64 / starts as f64
                },
            ),
            ("data.cross_rack_mib", self.cross_rack_bytes as f64 / MIB),
            (
                "optimal.regret_pct_mean",
                regret / report.cells.len().max(1) as f64,
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke size gives the same report bytes through the
    /// real sweep and through the traced replay, with no failed cell.
    #[test]
    fn replay_reproduces_the_sweep_digest_on_every_workload() {
        for workload in Workload::ALL {
            let real = run_sweep(workload, SweepScale::Smoke, 42).expect("valid spec");
            let mut tracer = Tracer::new();
            let root = tracer.enter("replay", None);
            let replayed =
                replay(workload, SweepScale::Smoke, 42, &mut tracer).expect("valid spec");
            tracer.exit(root);
            let spans = tracer.into_spans();
            assert_eq!(real.digest, replayed.run.digest, "{}", workload.name());
            assert_eq!(real.events, replayed.run.events);
            assert_eq!((real.failed, replayed.run.failed), (0, 0));
            assert!(real.setup_s > 0.0 && replayed.run.setup_s > 0.0);
            assert_eq!(
                spans.iter().filter(|s| s.name == "at_scale.cell").count(),
                workload.cells()
            );
            let engine_events =
                replayed.counters["sim.lanes_events"] + replayed.counters["sim.coupled_events"];
            assert_eq!(engine_events, real.events as f64);
        }
    }

    #[test]
    fn workloads_select_the_engine_their_names_promise() {
        let rr = Workload::Azure100kRr
            .spec_at(SweepScale::Smoke, 7)
            .expect("generates");
        let locality = Workload::Azure100kLocality
            .spec_at(SweepScale::Smoke, 7)
            .expect("generates");
        assert_eq!((rr.seed, rr.racks, rr.jobs), (7, 4, 1));
        assert_eq!(rr.balancers, vec![LoadBalancer::RoundRobin]);
        assert_eq!(locality.balancers, vec![LoadBalancer::locality_default()]);
        assert_eq!(rr.workloads, locality.workloads, "one trace, two balancers");
        assert_eq!(
            Workload::Azure100kRr.cells() + Workload::Azure100kLocality.cells(),
            4
        );
        let grid = Workload::GridSmoke
            .spec_at(SweepScale::Smoke, 7)
            .expect("declarative");
        assert_eq!(Workload::GridSmoke.cells(), 432);
        assert_eq!((grid.seed, grid.jobs, grid.rack_jobs), (7, 1, 1));
        assert_eq!(
            Workload::from_name("azure100k-rr"),
            Some(Workload::Azure100kRr)
        );
        assert_eq!(Workload::from_name("large"), None);
    }

    #[test]
    fn azure100k_is_the_large_preset_over_fewer_hours() {
        let preset = WorkloadSpec::azure_at(SweepScale::Large);
        let short = azure_at(SweepScale::Large);
        assert_eq!(
            short.horizon,
            SimDuration::from_secs(AZURE100K_HOURS * 3600)
        );
        assert_eq!(
            AzureWorkload {
                horizon: preset.horizon,
                ..short
            },
            preset
        );
        assert_eq!(
            azure_at(SweepScale::Smoke),
            WorkloadSpec::azure_at(SweepScale::Smoke)
        );
    }
}
