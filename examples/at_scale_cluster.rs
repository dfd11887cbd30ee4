//! At-scale comparison (Figure 13 and beyond): replay a bursty request trace
//! and an Azure-style synthetic workload against clusters of baseline CPU
//! nodes and of DSCS-Serverless drives, under different scheduler, keepalive
//! and autoscaling policies, sharded over multiple racks.
//!
//! Every run is declared through `ExperimentBuilder` — the typed entry point
//! to cluster runs. Shortened traces keep the example fast; `reproduce
//! at-scale` runs the full declarative `SweepSpec` policy grid and writes a
//! machine-readable JSON report.
//!
//! Run with: `cargo run --release --example at_scale_cluster`

// Examples document the supported API surface: using a deprecated cluster
// entry point here is a build error, not a warning.
#![deny(deprecated)]

use std::sync::Arc;

use dscs_serverless::cluster::at_scale::{SweepScale, SweepSpec};
use dscs_serverless::cluster::data::DataLayer;
use dscs_serverless::cluster::experiment::Experiment;
use dscs_serverless::cluster::policy::SchedulerPolicy;
use dscs_serverless::cluster::policy::{KeepalivePolicy, LoadBalancer, ScalingPolicy};
use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
use dscs_serverless::cluster::trace::RateProfile;
use dscs_serverless::cluster::workload::{AzureWorkload, Workload};
use dscs_serverless::platforms::PlatformKind;
use dscs_serverless::simcore::rng::DeterministicRng;
use dscs_serverless::simcore::time::SimDuration;

fn main() {
    // Part 1 — the paper's Figure 13: a five-minute slice of the bursty
    // profile on a single 200-instance rack, FCFS, fixed keepalive.
    let profile = RateProfile {
        segments: vec![
            (SimDuration::from_secs(60), 900.0),
            (SimDuration::from_secs(60), 1600.0),
            (SimDuration::from_secs(60), 2400.0),
            (SimDuration::from_secs(60), 1500.0),
            (SimDuration::from_secs(60), 900.0),
        ],
    };
    let trace = Arc::new(profile.generate(&mut DeterministicRng::seeded(7)));
    println!(
        "bursty trace: {} requests over {}",
        trace.len(),
        profile.horizon()
    );

    for platform in [PlatformKind::BaselineCpu, PlatformKind::DscsDsa] {
        let report = Experiment::builder(platform)
            .trace(trace.clone())
            .seed(11)
            .build()
            .expect("the Figure-13 replay is a valid experiment")
            .run()
            .report;
        println!("\n{}:", platform.name());
        println!(
            "  completed {} / rejected {} / cold starts {}",
            report.completed, report.rejected, report.cold_starts
        );
        println!(
            "  mean wall-clock latency {:.1} ms, makespan {}",
            report.mean_latency_ms(),
            report.makespan
        );
        println!(
            "  queued functions per minute : {:?}",
            report.queued.iter().map(|x| x.round()).collect::<Vec<_>>()
        );
        println!(
            "  latency per minute (ms)     : {:?}",
            report
                .latency_ms
                .iter()
                .map(|x| x.round())
                .collect::<Vec<_>>()
        );
    }

    // Part 2 — the workload subsystem: an Azure-style trace (Zipf function
    // popularity, diurnal rate, bursts) sharded over four racks behind a
    // least-loaded balancer, with keepalive policies compared head to head.
    // `ClusterSim::new` evaluates the end-to-end model once per platform;
    // `run_on` reuses it across the policy variants.
    let azure = AzureWorkload::quick();
    let azure_trace = Arc::new(
        azure
            .generate(&mut DeterministicRng::seeded(13))
            .expect("built-in workload is valid"),
    );
    println!(
        "\nazure trace: {} requests over {} across {} functions",
        azure_trace.len(),
        azure.horizon(),
        azure.functions
    );

    let dscs = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    for keepalive in KeepalivePolicy::all_default() {
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(azure_trace.clone())
            .racks(4)
            .balancer(LoadBalancer::LeastLoaded)
            .keepalive(keepalive)
            .seed(17)
            .build()
            .expect("valid experiment")
            .run_on(&dscs);
        println!("\nDSCS x 4 racks, {}:", keepalive.name());
        println!(
            "  cold starts {} / mean {:.1} ms / p99 {:.1} ms",
            outcome.report.cold_starts,
            outcome.report.mean_latency_ms(),
            outcome.report.p99_latency_ms()
        );
        println!(
            "  prewarm hits {} ({:.1}%) / warm-seconds held {:.0} (wasted {:.0})",
            outcome.report.prewarm_hits,
            outcome.report.prewarm_hit_rate() * 100.0,
            outcome.report.warm_seconds,
            outcome.report.wasted_warm_seconds
        );
        println!(
            "  per-rack completed: {:?}",
            outcome
                .racks
                .iter()
                .map(|r| r.completed)
                .collect::<Vec<_>>()
        );
    }

    // Part 3 — autoscaling: the same Azure trace on elastic DSCS racks. A
    // fixed cap holds 200 instances per rack for the whole run; the reactive
    // and predictive policies grow from 8 on demand, paying provisioning lag
    // on bursts but releasing the pool when traffic fades.
    println!("\nautoscaling on the azure trace (DSCS x 4 racks, prewarm keepalive):");
    for scaling in ScalingPolicy::all_default() {
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(azure_trace.clone())
            .racks(4)
            .balancer(LoadBalancer::LeastLoaded)
            .keepalive(KeepalivePolicy::prewarm_default())
            .scaling(scaling)
            .seed(17)
            .build()
            .expect("valid experiment")
            .run_on(&dscs);
        let report = &outcome.report;
        println!("\n  {}:", scaling.name());
        println!(
            "    instances/rack: peak {} low {} / scale-ups {} downs {} / lag {:.1} s",
            report.peak_instances,
            outcome
                .racks
                .iter()
                .map(|r| r.low_instances)
                .min()
                .unwrap_or(0),
            report.scale_ups,
            report.scale_downs,
            report.scaling_lag_s
        );
        println!(
            "    cold starts {} / prewarm hits {:.1}% / mean {:.1} ms / p99 {:.1} ms",
            report.cold_starts,
            report.prewarm_hit_rate() * 100.0,
            report.mean_latency_ms(),
            report.p99_latency_ms()
        );
    }

    // Part 4 — data locality: the same Azure trace with the object store
    // coupled into dispatch. Each request reads a stored object whose
    // replicas live in one rack; a rack without a replica pays the modelled
    // cross-rack fetch in both seconds and joules. The locality-aware
    // balancer follows the data and spills to least-loaded only under queue
    // pressure.
    println!("\ndata locality on the azure trace (DSCS x 4 racks, fixed keepalive):");
    let data = Arc::new(DataLayer::for_trace(&azure_trace, 4, 23));
    println!(
        "  {} distinct objects placed over {} racks ({} storage nodes)",
        data.object_count(),
        data.rack_count(),
        data.node_count()
    );
    for balancer in LoadBalancer::ALL {
        let report = Experiment::builder(PlatformKind::DscsDsa)
            .trace(azure_trace.clone())
            .racks(4)
            .balancer(balancer)
            .data_layer(data.clone())
            .seed(17)
            .build()
            .expect("valid experiment")
            .run_on(&dscs)
            .report;
        println!(
            "  {:<12} locality {:>5.1}% / {:>7.1} MiB cross-rack / fetch {:>6.1} s, {:>7.1} J / mean {:.1} ms",
            balancer.name(),
            report.locality_hit_rate() * 100.0,
            report.cross_rack_bytes as f64 / (1024.0 * 1024.0),
            report.fetch_latency_s,
            report.fetch_energy_j,
            report.mean_latency_ms()
        );
    }

    // Part 5 — the parallel sweep engine: a small policy grid fanned across
    // every available core. Parallelism is a pure wall-clock optimisation —
    // the report (and its JSON) is byte-identical to a `jobs: 1` run, so the
    // worker count is a free knob (`reproduce at-scale --jobs N`).
    let grid = SweepSpec {
        platforms: vec![PlatformKind::BaselineCpu, PlatformKind::DscsDsa],
        schedulers: vec![SchedulerPolicy::Fcfs],
        keepalives: vec![KeepalivePolicy::paper_default()],
        scalings: vec![ScalingPolicy::Fixed],
        balancers: vec![LoadBalancer::locality_default()],
        jobs: 0, // 0 = one worker per available core
        ..SweepSpec::default_grid(SweepScale::Smoke)
    };
    let workers = grid.effective_jobs();
    let report = grid.run().expect("the demo grid is a valid sweep spec");
    println!(
        "\nparallel sweep: {} cells on {} worker{} in {:.2} s wall",
        report.cells.len(),
        workers,
        if workers == 1 { "" } else { "s" },
        report.wall_s.get()
    );
    println!(
        "  engine throughput: {} events at {:.0} events/s",
        report.total_events(),
        report.events_per_sec()
    );
    for cell in &report.cells {
        println!(
            "  {:<12} {:<8} mean {:>6.1} ms / p99 {:>7.1} ms / {:>7} events",
            cell.workload, cell.platform, cell.mean_latency_ms, cell.p99_latency_ms, cell.events
        );
    }
}
