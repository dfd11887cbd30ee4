//! The typed-error matrix of the experiment builder: every input a run
//! cannot simulate yields the matching [`ConfigError`] from
//! `ExperimentBuilder::build`, and [`WorkloadSpec`]s a sweep rejects fold
//! into `ConfigError::WorkloadSpec` with their typed source preserved.
//!
//! [`WorkloadSpec`]: dscs_serverless::cluster::workload::WorkloadSpec

use dscs_serverless::cluster::data::DataLayer;
use dscs_serverless::cluster::experiment::{ConfigError, Experiment};
use dscs_serverless::cluster::policy::ScalingPolicy;
use dscs_serverless::cluster::sim::ClusterSim;
use dscs_serverless::cluster::trace::{RateProfile, TraceRequest};
use dscs_serverless::platforms::spec::PlatformKind;
use dscs_serverless::simcore::rng::DeterministicRng;
use dscs_serverless::simcore::time::SimDuration;

fn short_trace(seed: u64) -> Vec<TraceRequest> {
    let profile = RateProfile {
        segments: vec![(SimDuration::from_secs(4), 60.0)],
    };
    profile.generate(&mut DeterministicRng::seeded(seed))
}

/// Every input class a run cannot simulate maps to its own `ConfigError`
/// variant, and the builder reports the *first* violation in check order.
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
            .scaling(ScalingPolicy::Reactive)
            .instances(0, 200)
            .build()
            .expect_err("zero min"),
        ConfigError::ZeroMinInstances
    );

    // 6. A pool of zero instances, under every scaling policy: the queue
    // would fill and never drain, so its requests would vanish from the
    // report (neither completed nor rejected).
    let requests = short_trace(15);
    for scaling in ScalingPolicy::ALL {
        for min in [0, 4] {
            assert_eq!(
                Experiment::builder(PlatformKind::DscsDsa)
                    .trace(requests.clone())
                    .scaling(scaling)
                    .instances(min, 0)
                    .queue_depth(10)
                    .build()
                    .expect_err("zero max"),
                ConfigError::ZeroMaxInstances,
                "{scaling:?}, min {min}"
            );
        }
    }

    // 7. min_instances above max_instances.
    assert_eq!(
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(4))
            .scaling(ScalingPolicy::Predictive)
            .instances(128, 16)
            .build()
            .expect_err("min above max"),
        ConfigError::MinAboveMax { min: 128, max: 16 }
    );
}

/// `ConfigError` is a real `std::error::Error`: displayable, and the
/// workload variant — what `?` makes of a hand-generated trace's
/// `WorkloadError` — exposes its source.
#[test]
fn config_errors_display_and_expose_sources() {
    use dscs_serverless::cluster::workload::{AzureWorkload, Workload};
    use std::error::Error;

    let bad = AzureWorkload {
        base_rps: f64::NAN,
        ..AzureWorkload::default()
    };
    let err = ConfigError::from(
        bad.generate(&mut DeterministicRng::seeded(1))
            .expect_err("invalid workload"),
    );
    assert!(matches!(err, ConfigError::Workload(_)));
    assert!(err.source().is_some(), "workload errors carry their source");
    assert!(err.to_string().contains("workload validation failed"));
    assert!(
        ConfigError::ZeroRacks.source().is_none(),
        "leaf errors have no source"
    );
}

/// The event loop names a rack in 22 bits of each pending event's key, so a
/// run over one rack more than `ClusterSim::MAX_RACKS` is a typed error at
/// `build`, and a run over exactly that many builds.
#[test]
fn rack_counts_beyond_the_event_key_are_typed_errors() {
    let build = |racks| {
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(short_trace(12))
            .racks(racks)
            .build()
    };
    let max = ClusterSim::MAX_RACKS;
    assert_eq!(max, 1 << 22);
    assert_eq!(
        build(max + 1).expect_err("one rack beyond the key"),
        ConfigError::TooManyRacks {
            racks: max + 1,
            max
        }
    );
    assert_eq!(
        ConfigError::TooManyRacks {
            racks: max + 1,
            max
        }
        .to_string(),
        "4194305 racks exceed the limit of 4194304"
    );
    assert!(build(max).is_ok(), "the bound itself builds");
}

/// Every way a declarative `WorkloadSpec` can be rejected maps to its own
/// typed `WorkloadSpecError`, and the ones a sweep meets when it realizes
/// its workload axis fold into `ConfigError::WorkloadSpec` with the source
/// chain intact.
#[test]
fn rejected_declarative_workloads_fold_into_config_errors() {
    use dscs_serverless::cluster::at_scale::{SweepScale, SweepSpec};
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

    // Run-time rejection: a sweep over a missing trace file surfaces a
    // typed ingest error wrapped in `ConfigError::WorkloadSpec`, source
    // chain intact.
    let rejected = |workload: WorkloadSpec| {
        SweepSpec {
            workloads: vec![workload],
            ..SweepSpec::default_grid(SweepScale::Smoke)
        }
        .run()
        .expect_err("rejected workload")
    };
    let err = rejected(WorkloadSpec::TraceFile {
        path: "/nonexistent/trace.csv".into(),
        day: 1,
    });
    assert!(matches!(
        err,
        ConfigError::WorkloadSpec(WorkloadSpecError::Ingest(IngestError::Io { .. }))
    ));
    assert!(err.source().is_some(), "spec errors chain their source");
    assert!(err.to_string().contains("workload spec rejected"));

    // Inline specs: no requests, a horizon that is not a finite
    // non-negative number of seconds, and a trace out of arrival order are
    // each their own variant.
    let inline = |horizon_s: f64, trace: Vec<TraceRequest>| WorkloadSpec::Inline {
        name: "inline".into(),
        source: "synthetic".into(),
        horizon_s,
        trace: Arc::new(trace),
    };
    assert_eq!(
        rejected(inline(1.0, Vec::new())),
        ConfigError::WorkloadSpec(WorkloadSpecError::EmptyInline)
    );
    for horizon_s in [f64::NAN, f64::INFINITY, -1.0] {
        let err = inline(horizon_s, short_trace(1))
            .realize()
            .expect_err("invalid horizon");
        assert!(
            matches!(err, WorkloadSpecError::InvalidHorizon { horizon_s: h }
                if h.to_bits() == horizon_s.to_bits()),
            "{horizon_s}: {err:?}"
        );
    }
    let mut swapped = short_trace(1);
    assert!(swapped[6].arrival < swapped[7].arrival);
    swapped.swap(6, 7);
    assert_eq!(
        rejected(inline(4.0, swapped)),
        ConfigError::WorkloadSpec(WorkloadSpecError::UnsortedInline { position: 7 })
    );
}

/// An inline trace whose request reads an object outside its function's
/// 32 is rejected when the spec is realized, before any data layer is
/// built over it, and a sweep reports it as a typed spec error.
#[test]
fn inline_objects_outside_their_functions_32_are_typed_errors() {
    use dscs_serverless::cluster::at_scale::{SweepScale, SweepSpec};
    use dscs_serverless::cluster::workload::{WorkloadSpec, WorkloadSpecError};
    use std::sync::Arc;

    let mut trace = short_trace(1);
    trace[3].object = 32;
    let spec = WorkloadSpec::Inline {
        name: "inline".into(),
        source: "synthetic".into(),
        horizon_s: 4.0,
        trace: Arc::new(trace),
    };
    let expected = WorkloadSpecError::ObjectOutOfRange {
        position: 3,
        object: 32,
    };
    assert_eq!(spec.realize().expect_err("object 32"), expected);
    assert!(expected.to_string().contains("object 32"), "{expected}");
    let sweep = SweepSpec {
        workloads: vec![spec],
        ..SweepSpec::default_grid(SweepScale::Smoke)
    };
    assert_eq!(
        sweep.run().expect_err("rejected workload"),
        ConfigError::WorkloadSpec(expected)
    );
}

/// An inline trace whose request names a function slot at the trace's
/// length is rejected when the spec is realized, before the engine, a data
/// layer or the offline bound indexes a per-function table by it; the
/// earliest offending request wins, and a sweep reports it as a typed spec
/// error.
#[test]
fn inline_function_slots_at_the_trace_length_are_typed_errors() {
    use dscs_serverless::cluster::at_scale::{SweepScale, SweepSpec};
    use dscs_serverless::cluster::workload::{WorkloadSpec, WorkloadSpecError};
    use std::sync::Arc;

    let mut trace = short_trace(1);
    let len = trace.len() as u32;
    trace[3].function = len;
    // A later, larger slot does not mask the first.
    trace[5].function = u32::MAX;
    let spec = WorkloadSpec::Inline {
        name: "inline".into(),
        source: "synthetic".into(),
        horizon_s: 4.0,
        trace: Arc::new(trace),
    };
    let expected = WorkloadSpecError::FunctionOutOfRange {
        position: 3,
        function: len,
    };
    assert_eq!(spec.realize().expect_err("slot == len"), expected);
    let message = expected.to_string();
    assert!(
        message.contains("request 3") && message.contains(&format!("function {len}")),
        "{message}"
    );
    let sweep = SweepSpec {
        workloads: vec![spec],
        ..SweepSpec::default_grid(SweepScale::Smoke)
    };
    assert_eq!(
        sweep.run().expect_err("rejected workload"),
        ConfigError::WorkloadSpec(expected)
    );
}

/// An inline trace whose request carries an object size exponent of 32 or
/// more, a size the data layer's fetch table does not price, is rejected
/// when the spec is realized, and a sweep reports it as a typed spec error.
#[test]
fn inline_object_sizes_of_4_gib_or_more_are_typed_errors() {
    use dscs_serverless::cluster::at_scale::{SweepScale, SweepSpec};
    use dscs_serverless::cluster::workload::{WorkloadSpec, WorkloadSpecError};
    use std::sync::Arc;

    let mut trace = short_trace(1);
    trace[3].object_size_log2 = 32;
    // A later request that wraps the shift does not mask the first.
    trace[5].object_size_log2 = 64;
    let spec = WorkloadSpec::Inline {
        name: "inline".into(),
        source: "synthetic".into(),
        horizon_s: 4.0,
        trace: Arc::new(trace),
    };
    let expected = WorkloadSpecError::ObjectSizeOutOfRange {
        position: 3,
        log2: 32,
    };
    assert_eq!(spec.realize().expect_err("exponent 32"), expected);
    assert!(expected.to_string().contains("2^32 bytes"), "{expected}");
    let sweep = SweepSpec {
        workloads: vec![spec],
        ..SweepSpec::default_grid(SweepScale::Smoke)
    };
    assert_eq!(
        sweep.run().expect_err("rejected workload"),
        ConfigError::WorkloadSpec(expected)
    );
}

/// A declarative `WorkloadSpec::Azure { scale, seed }` realizes exactly the
/// trace its generator draws from the sweep's azure generation stream for
/// that seed.
#[test]
fn azure_spec_realizes_its_generation_stream() {
    use dscs_serverless::cluster::at_scale::SweepScale;
    use dscs_serverless::cluster::workload::{azure_generation_rng, Workload, WorkloadSpec};

    let seed = 29;
    let generated = WorkloadSpec::azure_at(SweepScale::Smoke)
        .generate(&mut azure_generation_rng(seed))
        .expect("the smoke azure workload is valid");
    let via_spec = WorkloadSpec::Azure {
        scale: SweepScale::Smoke,
        seed,
    }
    .realize()
    .expect("the declarative spec realizes");
    assert_eq!(generated, *via_spec.trace, "bit-identical traces");
}
