//! Round-trip suite for trace-file ingestion: the checked-in Azure-schema
//! sample is pinned byte-for-byte against regeneration from the synthetic
//! generator, parsing it back yields the identical in-memory workload, and a
//! sweep fed the file through `WorkloadSpec::TraceFile` writes byte-identical
//! JSON to one fed the same requests inline. CLI spec strings
//! (`azure`, `bursty`, `trace:<path>[@<day>]`) parse to the expected specs.

use std::sync::Arc;

use dscs_serverless::cluster::at_scale::{SweepScale, SweepSpec};
use dscs_serverless::cluster::ingest::{sample_workload, TraceFileWorkload};
use dscs_serverless::cluster::policy::{
    KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy,
};
use dscs_serverless::cluster::workload::{azure_generation_rng, Workload, WorkloadSpec};
use dscs_serverless::platforms::spec::PlatformKind;
use dscs_serverless::simcore::rng::DeterministicRng;

const SAMPLE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/data/azure_trace_sample.csv");

/// The checked-in sample is exactly `generate-trace --seed 42`:
/// regenerating from the synthetic workload reproduces the file bytes, and
/// parsing the file back yields the identical in-memory workload — so
/// generate → parse → generate-again is a fixed point.
#[test]
fn checked_in_sample_is_a_generate_parse_fixed_point() {
    let on_disk = std::fs::read_to_string(SAMPLE_PATH).expect("the sample trace is checked in");
    let regenerated = TraceFileWorkload::from_workload(
        &sample_workload(),
        &mut azure_generation_rng(42),
        "azure_trace_sample.csv",
    )
    .expect("the sample workload is valid");
    assert_eq!(
        regenerated.to_csv(),
        on_disk,
        "data/azure_trace_sample.csv drifted from `generate-trace --seed 42`; \
         regenerate it with the CLI"
    );

    let parsed = TraceFileWorkload::from_csv_path(SAMPLE_PATH, 1).expect("the sample trace parses");
    assert_eq!(parsed, regenerated, "parse inverts generation exactly");
    assert_eq!(parsed.to_csv(), on_disk, "re-emission is byte-identical");

    // Expanding either copy with the same RNG stream yields bit-equal traces.
    let a = parsed
        .generate(&mut DeterministicRng::seeded(9))
        .expect("valid");
    let b = regenerated
        .generate(&mut DeterministicRng::seeded(9))
        .expect("valid");
    assert_eq!(
        a, b,
        "expansion is a pure function of the file and the seed"
    );
    assert_eq!(a.len() as u64, parsed.invocations());
}

/// A sweep that ingests the sample through `WorkloadSpec::TraceFile` writes
/// byte-identical JSON to one handed the realized requests inline — the
/// file-backed path adds nothing nondeterministic.
#[test]
fn trace_file_and_inline_sweeps_write_identical_json() {
    let file_spec = WorkloadSpec::TraceFile {
        path: SAMPLE_PATH.into(),
        day: 1,
    };
    let realized = file_spec.realize().expect("the sample trace realizes");
    let inline_spec = WorkloadSpec::Inline {
        name: realized.name.clone(),
        source: realized.source.clone(),
        horizon_s: realized.horizon_s,
        trace: Arc::clone(&realized.trace),
    };

    let grid = |workload: WorkloadSpec| SweepSpec {
        platforms: vec![PlatformKind::DscsDsa],
        schedulers: vec![SchedulerPolicy::Fcfs],
        keepalives: vec![KeepalivePolicy::FixedWindow],
        scalings: vec![ScalingPolicy::Fixed],
        balancers: vec![LoadBalancer::RoundRobin],
        workloads: vec![workload],
        jobs: 1,
        ..SweepSpec::default_grid(SweepScale::Smoke)
    };
    let from_file = grid(file_spec).run().expect("valid sweep").to_json();
    let from_inline = grid(inline_spec).run().expect("valid sweep").to_json();
    assert_eq!(from_file, from_inline, "byte-identical sweep reports");
    assert!(from_file.contains("\"workload_source\":\"trace-file:azure_trace_sample.csv\""));
}

/// The CLI `--workload` grammar round-trips into the declarative specs.
#[test]
fn cli_workload_strings_parse_to_declarative_specs() {
    let scale = SweepScale::Quick;
    assert_eq!(
        WorkloadSpec::parse("azure", scale, 7),
        Ok(WorkloadSpec::Azure { scale, seed: 7 })
    );
    assert_eq!(
        WorkloadSpec::parse("bursty", scale, 7),
        Ok(WorkloadSpec::Bursty { scale, seed: 7 })
    );
    assert_eq!(
        WorkloadSpec::parse("trace:data/azure_trace_sample.csv", scale, 7),
        Ok(WorkloadSpec::TraceFile {
            path: "data/azure_trace_sample.csv".into(),
            day: 1
        })
    );
    assert_eq!(
        WorkloadSpec::parse("trace:d.csv@3", scale, 7),
        Ok(WorkloadSpec::TraceFile {
            path: "d.csv".into(),
            day: 3
        })
    );
}
