//! Determinism regression tests: the at-scale simulation is a pure function
//! of its seed. Two runs with the same [`DeterministicRng`] seed must produce
//! bit-identical latency series; different seeds must not. All runs go
//! through the typed `Experiment` builder — the one entry point to cluster
//! runs.

use std::sync::Arc;

use dscs_serverless::cluster::experiment::Experiment;
use dscs_serverless::cluster::trace::RateProfile;
use dscs_serverless::platforms::spec::PlatformKind;
use dscs_serverless::simcore::rng::DeterministicRng;
use dscs_serverless::simcore::time::SimDuration;

fn one_minute_trace(seed: u64) -> Vec<dscs_serverless::cluster::trace::TraceRequest> {
    let profile = RateProfile {
        segments: vec![
            (SimDuration::from_secs(30), 900.0),
            (SimDuration::from_secs(30), 1500.0),
        ],
    };
    profile.generate(&mut DeterministicRng::seeded(seed))
}

#[test]
fn same_seed_produces_bit_identical_latency_series() {
    let trace = Arc::new(one_minute_trace(11));
    for platform in [PlatformKind::BaselineCpu, PlatformKind::DscsDsa] {
        let run = || {
            Experiment::builder(platform)
                .trace(trace.clone())
                .seed(77)
                .build()
                .expect("valid experiment")
                .run()
                .report
        };
        let a = run();
        let b = run();
        // Exact f64 equality on every bucketed series — any nondeterminism
        // (iteration order, uncached RNG draws) shows up here immediately.
        assert_eq!(a.latency_ms, b.latency_ms, "{platform:?} latency series");
        assert_eq!(a.queued, b.queued, "{platform:?} queue series");
        assert_eq!(a.offered_rps, b.offered_rps, "{platform:?} offered load");
        assert_eq!(a.completed, b.completed, "{platform:?} completed");
        assert_eq!(a.rejected, b.rejected, "{platform:?} rejected");
        let (sa, sb) = (
            a.latency_summary.expect("ran"),
            b.latency_summary.expect("ran"),
        );
        assert_eq!(sa.p50().to_bits(), sb.p50().to_bits(), "{platform:?} p50");
        assert_eq!(sa.p99().to_bits(), sb.p99().to_bits(), "{platform:?} p99");
    }
}

#[test]
fn different_seeds_produce_different_latency_series() {
    let trace = Arc::new(one_minute_trace(11));
    let run = |seed| {
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .seed(seed)
            .build()
            .expect("valid experiment")
            .run()
            .report
    };
    let a = run(77);
    let b = run(78);
    assert_ne!(
        a.latency_ms, b.latency_ms,
        "independent seeds must perturb the service-time jitter"
    );
}

#[test]
fn same_seed_produces_bit_identical_multi_rack_runs() {
    use dscs_serverless::cluster::policy::{LoadBalancer, SchedulerPolicy};
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};

    let trace = Arc::new(one_minute_trace(11));
    let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    for balancer in LoadBalancer::ALL {
        let run = || {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .scheduler(SchedulerPolicy::ShortestJobFirst)
                .racks(4)
                .balancer(balancer)
                .seed(33)
                .build()
                .expect("valid experiment")
                .run_on(&sim)
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.report.latency_ms, b.report.latency_ms,
            "{balancer:?} latency series"
        );
        assert_eq!(
            a.report.cold_starts, b.report.cold_starts,
            "{balancer:?} cold starts"
        );
        assert_eq!(a.racks, b.racks, "{balancer:?} per-rack summaries");
        assert_eq!(a.report.completed + a.report.rejected, trace.len() as u64);
    }
}

#[test]
fn same_seed_produces_bit_identical_autoscaled_runs() {
    use dscs_serverless::cluster::policy::{KeepalivePolicy, LoadBalancer, ScalingPolicy};

    let trace = Arc::new(one_minute_trace(11));
    for scaling in [ScalingPolicy::Reactive, ScalingPolicy::Predictive] {
        let run = || {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .scaling(scaling)
                .keepalive(KeepalivePolicy::HybridPrewarm)
                .racks(3)
                .balancer(LoadBalancer::LeastLoaded)
                .seed(55)
                .build()
                .expect("valid experiment")
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report, "{scaling:?} aggregate report");
        assert_eq!(a.racks, b.racks, "{scaling:?} per-rack summaries");
        assert_eq!(
            a.report.scaling_lag_s.to_bits(),
            b.report.scaling_lag_s.to_bits(),
            "{scaling:?} lag"
        );
        assert_eq!(
            a.report.warm_seconds.to_bits(),
            b.report.warm_seconds.to_bits(),
            "{scaling:?} warm-seconds accumulate in a fixed order"
        );
    }
}

/// Sharded runs under the data-locality-aware balancer — replica-rack
/// dispatch, spill decisions and cross-rack fetch charges (latency and
/// joules) included — are bit-identical across repeated runs.
#[test]
fn same_seed_produces_bit_identical_locality_aware_runs() {
    use dscs_serverless::cluster::data::DataLayer;
    use dscs_serverless::cluster::policy::LoadBalancer;
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};

    let trace = Arc::new(one_minute_trace(11));
    let racks = 3;
    let data = Arc::new(DataLayer::for_trace(&trace, racks, 61));
    let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    let run = |data: Arc<DataLayer>| {
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .racks(racks)
            .balancer(LoadBalancer::LocalityAware)
            .data_layer(data)
            .seed(33)
            .build()
            .expect("valid experiment")
            .run_on(&sim)
    };
    let a = run(data.clone());
    let b = run(data.clone());
    assert_eq!(a.report, b.report, "aggregate report");
    assert_eq!(a.racks, b.racks, "per-rack summaries");
    assert_eq!(
        a.report.fetch_latency_s.to_bits(),
        b.report.fetch_latency_s.to_bits(),
        "fetch charges accumulate in a fixed order"
    );
    assert_eq!(
        a.report.fetch_energy_j.to_bits(),
        b.report.fetch_energy_j.to_bits(),
        "fetch energy accumulates in a fixed order"
    );
    // A freshly rebuilt data layer must not perturb the run either.
    let rebuilt = Arc::new(DataLayer::for_trace(&trace, racks, 61));
    let c = run(rebuilt);
    assert_eq!(a.report, c.report, "placement is a pure function of seed");
}

/// The full sweep — which now includes the scaling axes, the prewarm
/// keepalive, the balancer axis with its locality fields and the v4 fetch
/// energy — renders byte-identical JSON across two runs with the same seed.
#[test]
fn at_scale_report_json_is_byte_identical_across_runs() {
    use dscs_serverless::cluster::at_scale::{AtScaleOptions, SweepSpec};

    let sweep = || {
        SweepSpec::from(AtScaleOptions::smoke())
            .run()
            .expect("valid spec")
            .to_json()
    };
    let a = sweep();
    let b = sweep();
    assert_eq!(a, b);
    assert!(a.contains("\"scaling\":\"reactive\""));
    assert!(a.contains("\"scaling\":\"predictive\""));
    assert!(a.contains("\"balancer\":\"locality\""));
    assert!(a.contains("\"locality_hit_rate\""));
    assert!(a.contains("\"fetch_energy_j\""));
}

#[test]
fn same_seed_produces_bit_identical_traces() {
    let t1 = one_minute_trace(42);
    let t2 = one_minute_trace(42);
    assert_eq!(t1.len(), t2.len());
    for (a, b) in t1.iter().zip(&t2) {
        assert_eq!(a.arrival.as_nanos(), b.arrival.as_nanos());
    }
    let t3 = one_minute_trace(43);
    assert_ne!(
        t1.len(),
        t3.len(),
        "different trace seeds should differ in arrivals"
    );
}

#[test]
fn the_offline_optimal_bound_is_bit_identical_across_calls_and_sims() {
    use dscs_serverless::cluster::optimal::optimal_coldstart_seconds;
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};

    let trace = one_minute_trace(11);
    for platform in [PlatformKind::BaselineCpu, PlatformKind::DscsDsa] {
        // Two independently constructed simulators price cold starts from the
        // same platform model, so the bound — a pure function of (trace,
        // pricing) — must agree to the last bit across calls and instances.
        let sim_a = ClusterSim::new(platform, ClusterConfig::default());
        let sim_b = ClusterSim::new(platform, ClusterConfig::default());
        let first = optimal_coldstart_seconds(&trace, &sim_a);
        assert!(first > 0.0 && first.is_finite(), "{platform:?} bound");
        for bound in [
            optimal_coldstart_seconds(&trace, &sim_a),
            optimal_coldstart_seconds(&trace, &sim_b),
        ] {
            assert_eq!(
                first.to_bits(),
                bound.to_bits(),
                "{platform:?} bound must be bit-identical"
            );
        }
    }
}
