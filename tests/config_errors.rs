//! Satellite suite for the experiment-builder API redesign: every input
//! that used to panic inside `run_sharded_with_data` /
//! `ScalingPolicy::validate` now yields the matching typed [`ConfigError`]
//! from `ExperimentBuilder::build`, and the deprecated shims still panic
//! with their historical messages (so legacy callers see no behaviour
//! change). The workload-spec redesign extends the matrix: rejected
//! [`WorkloadSpec`]s fold into `ConfigError::WorkloadSpec` with their typed
//! source preserved, and the deprecated `workload(&W, rng)` shim stays
//! bit-identical to `workload_spec`.
//!
//! [`WorkloadSpec`]: dscs_serverless::cluster::workload::WorkloadSpec

use dscs_serverless::cluster::data::DataLayer;
use dscs_serverless::cluster::experiment::{ConfigError, Experiment};
use dscs_serverless::cluster::policy::{KeepalivePolicy, LoadBalancer, ScalingPolicy};
use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
use dscs_serverless::cluster::trace::{RateProfile, TraceRequest};
use dscs_serverless::platforms::PlatformKind;
use dscs_serverless::simcore::rng::DeterministicRng;
use dscs_serverless::simcore::time::SimDuration;

fn short_trace(seed: u64) -> Vec<TraceRequest> {
    let profile = RateProfile {
        segments: vec![(SimDuration::from_secs(4), 60.0)],
    };
    profile.generate(&mut DeterministicRng::seeded(seed))
}

/// Every formerly-panicking input class maps to its own `ConfigError`
/// variant, and the builder reports the *first* violation in the historical
/// check order.
#[test]
fn every_formerly_panicking_input_yields_the_matching_typed_error() {
    // 1. Empty trace (and the no-trace-at-all case).
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(Vec::new())
            .build()
            .expect_err("empty trace"),
        ConfigError::EmptyTrace
    );
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .build()
            .expect_err("missing trace"),
        ConfigError::EmptyTrace
    );

    // 2. Zero racks.
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(1))
            .racks(0)
            .build()
            .expect_err("zero racks"),
        ConfigError::ZeroRacks
    );

    // 3. Data layer built for a different rack count.
    let trace = short_trace(2);
    let data = DataLayer::for_trace(&trace, 4, 9);
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .racks(2)
            .data_layer(data)
            .build()
            .expect_err("mismatched data layer"),
        ConfigError::DataLayerRackMismatch {
            layer_racks: 4,
            racks: 2
        }
    );

    // 4. Data layer built for a different trace: its per-request tables
    // are positional, so a request-count mismatch is rejected.
    let data = DataLayer::for_trace(&short_trace(2), 2, 9);
    let other = short_trace(11);
    assert_ne!(other.len(), data.request_count(), "the traces must differ");
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(other.clone())
            .racks(2)
            .data_layer(data)
            .build()
            .expect_err("data layer for another trace"),
        ConfigError::DataLayerTraceMismatch {
            layer_requests: short_trace(2).len(),
            requests: other.len(),
        }
    );

    // 5. Elastic pool with zero min_instances.
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(3))
            .scaling(ScalingPolicy::reactive_default())
            .instances(0, 200)
            .build()
            .expect_err("zero min"),
        ConfigError::ZeroMinInstances
    );

    // 6. min_instances above max_instances.
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(4))
            .scaling(ScalingPolicy::predictive_default())
            .instances(128, 16)
            .build()
            .expect_err("min above max"),
        ConfigError::MinAboveMax { min: 128, max: 16 }
    );

    // 7. Hybrid-histogram keepalive with a degenerate geometry or head:
    // formerly accepted by the builder and then a panic in
    // `KeepaliveState::new` at run time.
    let hybrid = |range, bin, head| KeepalivePolicy::HybridHistogram { range, bin, head };
    let s = SimDuration::from_secs;
    for (policy, expected) in [
        (
            hybrid(s(600), SimDuration::ZERO, 0.0),
            ConfigError::ZeroHistogramBin,
        ),
        (
            hybrid(s(5), s(10), 0.05),
            ConfigError::HistogramRangeBelowBin {
                range: s(5),
                bin: s(10),
            },
        ),
        (
            hybrid(s(600), s(10), -0.05),
            ConfigError::PrewarmHeadOutOfRange { head: -0.05 },
        ),
    ] {
        let err = Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(13))
            .keepalive(policy)
            .build()
            .expect_err("bad hybrid keepalive");
        assert_eq!(err, expected, "{policy:?}");
        assert!(!err.to_string().is_empty());
    }
}

/// The scaling-parameter violations the old `ScalingPolicy::validate`
/// asserted also surface as typed errors, both from `check()` and through
/// the builder.
#[test]
fn scaling_parameter_violations_are_typed_errors() {
    let zero_reactive = ScalingPolicy::Reactive {
        scale_up_queue: 8,
        scale_down_queue: 2,
        step: 4,
        interval: SimDuration::ZERO,
    };
    assert_eq!(
        zero_reactive.check().expect_err("zero interval"),
        ConfigError::ZeroScalingInterval { policy: "reactive" }
    );
    let zero_predictive = ScalingPolicy::Predictive {
        interval: SimDuration::ZERO,
        headroom: 1.5,
    };
    assert_eq!(
        zero_predictive.check().expect_err("zero interval"),
        ConfigError::ZeroScalingInterval {
            policy: "predictive"
        }
    );
    let zero_step = ScalingPolicy::Reactive {
        scale_up_queue: 8,
        scale_down_queue: 2,
        step: 0,
        interval: SimDuration::from_secs(5),
    };
    assert_eq!(
        zero_step.check().expect_err("zero step"),
        ConfigError::ZeroReactiveStep
    );
    let overlapping = ScalingPolicy::Reactive {
        scale_up_queue: 4,
        scale_down_queue: 4,
        step: 4,
        interval: SimDuration::from_secs(5),
    };
    assert_eq!(
        overlapping.check().expect_err("overlap"),
        ConfigError::OverlappingReactiveThresholds {
            scale_up_queue: 4,
            scale_down_queue: 4
        }
    );
    for headroom in [0.99, f64::NAN, f64::INFINITY] {
        let policy = ScalingPolicy::Predictive {
            interval: SimDuration::from_secs(5),
            headroom,
        };
        assert!(matches!(
            policy.check().expect_err("bad headroom"),
            ConfigError::InvalidPredictiveHeadroom { .. }
        ));
        // The same violation through the builder (scaling checked before the
        // elastic bounds).
        let err = Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(5))
            .scaling(policy)
            .build()
            .expect_err("builder relays the scaling error");
        assert!(matches!(err, ConfigError::InvalidPredictiveHeadroom { .. }));
    }
}

/// `ConfigError` is a real `std::error::Error`: displayable, and the
/// workload variant exposes its source. (The `workload` shim is deprecated
/// in favour of `workload_spec`, but its error path stays covered.)
#[test]
#[allow(deprecated)]
fn config_errors_display_and_expose_sources() {
    use dscs_serverless::cluster::workload::AzureWorkload;
    use std::error::Error;

    let bad = AzureWorkload {
        base_rps: f64::NAN,
        ..AzureWorkload::default()
    };
    let err = Experiment::builder(PlatformKind::DscsDsa)
        .workload(&bad, &mut DeterministicRng::seeded(1))
        .build()
        .expect_err("invalid workload");
    assert!(matches!(err, ConfigError::Workload(_)));
    assert!(err.source().is_some(), "workload errors carry their source");
    assert!(!err.to_string().is_empty());
    assert!(
        ConfigError::ZeroRacks.source().is_none(),
        "leaf errors have no source"
    );
}

/// Every way a declarative `WorkloadSpec` can be rejected maps to its own
/// typed `WorkloadSpecError`, and the build-time ones fold into
/// `ConfigError::WorkloadSpec` with the source chain intact.
#[test]
fn rejected_workload_specs_fold_into_config_errors() {
    use dscs_serverless::cluster::at_scale::SweepScale;
    use dscs_serverless::cluster::ingest::IngestError;
    use dscs_serverless::cluster::workload::{WorkloadSpec, WorkloadSpecError};
    use std::error::Error;
    use std::sync::Arc;

    // Parse-time rejections: unknown kind, malformed day.
    assert_eq!(
        WorkloadSpec::parse("tide", SweepScale::Smoke, 1).expect_err("unknown kind"),
        WorkloadSpecError::UnknownKind {
            kind: "tide".into()
        }
    );
    assert_eq!(
        WorkloadSpec::parse("trace:f.csv@zero", SweepScale::Smoke, 1).expect_err("bad day"),
        WorkloadSpecError::InvalidDay {
            value: "zero".into()
        }
    );

    // Build-time rejection: a missing trace file surfaces as a typed ingest
    // error wrapped in `ConfigError::WorkloadSpec`, source chain intact.
    let missing = WorkloadSpec::TraceFile {
        path: "/nonexistent/trace.csv".into(),
        day: 1,
    };
    let err = Experiment::builder(PlatformKind::DscsDsa)
        .workload_spec(&missing)
        .build()
        .expect_err("missing trace file");
    assert!(matches!(
        err,
        ConfigError::WorkloadSpec(WorkloadSpecError::Ingest(IngestError::Io { .. }))
    ));
    assert!(err.source().is_some(), "spec errors chain their source");
    assert!(err.to_string().contains("workload spec rejected"));

    // An inline spec with no requests is its own variant.
    let empty = WorkloadSpec::Inline {
        name: "empty".into(),
        source: "synthetic".into(),
        horizon_s: 1.0,
        trace: Arc::new(Vec::new()),
    };
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .workload_spec(&empty)
            .build()
            .expect_err("empty inline trace"),
        ConfigError::WorkloadSpec(WorkloadSpecError::EmptyInline)
    );
}

/// Pinned shim equivalence (the PR-5 pattern): the deprecated
/// `workload(&W, rng)` entry point fed the sweep's azure generation stream
/// builds a bit-identical experiment to the declarative
/// `workload_spec(WorkloadSpec::Azure { .. })`.
#[test]
#[allow(deprecated)]
fn deprecated_workload_shim_and_workload_spec_agree() {
    use dscs_serverless::cluster::at_scale::SweepScale;
    use dscs_serverless::cluster::workload::{azure_generation_rng, WorkloadSpec};

    let seed = 29;
    let via_shim = Experiment::builder(PlatformKind::DscsDsa)
        .workload(
            &WorkloadSpec::azure_at(SweepScale::Smoke),
            &mut azure_generation_rng(seed),
        )
        .build()
        .expect("the smoke azure workload is valid");
    let via_spec = Experiment::builder(PlatformKind::DscsDsa)
        .workload_spec(&WorkloadSpec::Azure {
            scale: SweepScale::Smoke,
            seed,
        })
        .build()
        .expect("the declarative spec realizes");
    assert_eq!(via_shim.trace(), via_spec.trace(), "bit-identical traces");
}

// --- Deprecated-shim behaviour: the old messages, verbatim. -----------------

#[test]
#[should_panic(expected = "trace must not be empty")]
#[allow(deprecated)]
fn deprecated_run_sharded_still_panics_on_an_empty_trace() {
    let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    let _ = sim.run_sharded(&[], 1, 1, LoadBalancer::RoundRobin);
}

#[test]
#[should_panic(expected = "need at least one rack")]
#[allow(deprecated)]
fn deprecated_run_sharded_still_panics_on_zero_racks() {
    let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    let _ = sim.run_sharded(&short_trace(6), 1, 0, LoadBalancer::RoundRobin);
}

#[test]
#[should_panic(expected = "data layer must cover exactly the sharded racks")]
#[allow(deprecated)]
fn deprecated_run_sharded_with_data_still_panics_on_a_rack_mismatch() {
    let trace = short_trace(7);
    let data = DataLayer::for_trace(&trace, 3, 1);
    let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    let _ = sim.run_sharded_with_data(&trace, 1, 2, LoadBalancer::RoundRobin, Some(&data));
}

#[test]
#[should_panic(expected = "data layer must place exactly the run's trace")]
#[allow(deprecated)]
fn deprecated_run_sharded_with_data_still_panics_on_a_trace_mismatch() {
    let data = DataLayer::for_trace(&short_trace(7), 2, 1);
    let other = short_trace(12);
    assert_ne!(other.len(), data.request_count(), "the traces must differ");
    let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    let _ = sim.run_sharded_with_data(&other, 1, 2, LoadBalancer::RoundRobin, Some(&data));
}

#[test]
#[should_panic(expected = "elastic racks need at least one instance")]
#[allow(deprecated)]
fn deprecated_run_sharded_still_panics_on_a_zero_min_elastic_pool() {
    let config = ClusterConfig {
        scaling: ScalingPolicy::reactive_default(),
        min_instances: 0,
        ..ClusterConfig::default()
    };
    let sim = ClusterSim::new(PlatformKind::DscsDsa, config);
    let _ = sim.run_sharded(&short_trace(8), 1, 1, LoadBalancer::RoundRobin);
}

#[test]
#[should_panic(expected = "min_instances must not exceed max_instances")]
#[allow(deprecated)]
fn deprecated_run_sharded_still_panics_when_min_exceeds_max() {
    let config = ClusterConfig {
        scaling: ScalingPolicy::predictive_default(),
        min_instances: 300,
        max_instances: 200,
        ..ClusterConfig::default()
    };
    let sim = ClusterSim::new(PlatformKind::DscsDsa, config);
    let _ = sim.run_sharded(&short_trace(9), 1, 1, LoadBalancer::RoundRobin);
}

#[test]
#[should_panic(expected = "hybrid-histogram range must cover one bin")]
#[allow(deprecated)]
fn deprecated_run_sharded_still_panics_on_a_range_below_one_bin() {
    let config = ClusterConfig {
        keepalive: KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(5),
            bin: SimDuration::from_secs(10),
            head: 0.0,
        },
        ..ClusterConfig::default()
    };
    let sim = ClusterSim::new(PlatformKind::DscsDsa, config);
    let _ = sim.run_sharded(&short_trace(14), 1, 1, LoadBalancer::RoundRobin);
}

#[test]
#[should_panic(expected = "reactive interval must be non-zero")]
#[allow(deprecated)]
fn deprecated_scaling_validate_still_panics_with_the_old_message() {
    ScalingPolicy::Reactive {
        scale_up_queue: 8,
        scale_down_queue: 2,
        step: 4,
        interval: SimDuration::ZERO,
    }
    .validate();
}

/// A valid configuration behaves identically through the deprecated shim and
/// the builder — the shim really is a thin delegation.
#[test]
#[allow(deprecated)]
fn deprecated_shim_and_builder_agree_on_valid_runs() {
    let trace = short_trace(10);
    let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    let (report, racks) = sim.run_sharded(&trace, 5, 2, LoadBalancer::LeastLoaded);
    let outcome = Experiment::builder(PlatformKind::DscsDsa)
        .trace(trace)
        .racks(2)
        .balancer(LoadBalancer::LeastLoaded)
        .seed(5)
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(report, outcome.report, "bit-identical aggregate reports");
    assert_eq!(racks, outcome.racks, "bit-identical per-rack summaries");
}
