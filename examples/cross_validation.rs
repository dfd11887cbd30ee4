//! Cross-validation of the trace-file ingestion path: run the same workload
//! twice through one sweep — once as the synthetic `AzureWorkload` requests
//! it was generated from (inline), once re-ingested from the checked-in
//! Azure-Functions-2019-schema CSV the `generate-trace` CLI bucketed it
//! into — and report how much the per-minute bucketing (counts + seeded
//! within-minute jitter) shifts arrival rate, latency and locality. The
//! deltas land in the report's `cross_validation` section (schema v6).
//!
//! Run with: `cargo run --release --example cross_validation`

// Examples document the supported API surface: using a deprecated cluster
// entry point here is a build error, not a warning.
#![deny(deprecated)]

use std::sync::Arc;

use dscs_serverless::cluster::at_scale::{SweepScale, SweepSpec};
use dscs_serverless::cluster::ingest::sample_workload;
use dscs_serverless::cluster::policy::{
    KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy,
};
use dscs_serverless::cluster::workload::{azure_generation_rng, Workload, WorkloadSpec};
use dscs_serverless::platforms::PlatformKind;

fn main() {
    // The synthetic side: exactly the trace `generate-trace --seed 42`
    // bucketed into data/azure_trace_sample.csv, replayed inline.
    let synthetic = sample_workload();
    let requests = synthetic
        .generate(&mut azure_generation_rng(42))
        .expect("the sample workload is valid");
    println!(
        "synthetic: {} requests over {} across {} functions",
        requests.len(),
        synthetic.horizon(),
        synthetic.functions
    );
    let inline = WorkloadSpec::Inline {
        name: "azure".into(),
        source: "synthetic".into(),
        horizon_s: synthetic.horizon().as_secs_f64(),
        trace: Arc::new(requests),
    };

    // The trace-file side: the same workload, round-tripped through the
    // Azure-schema CSV (per-minute counts, seeded within-minute jitter).
    let trace_file = WorkloadSpec::TraceFile {
        path: concat!(env!("CARGO_MANIFEST_DIR"), "/data/azure_trace_sample.csv").into(),
        day: 1,
    };

    // One restricted grid with both workloads on the declarative axis; the
    // cross-validation pairing matches cells on every policy coordinate.
    let grid = SweepSpec {
        platforms: vec![PlatformKind::DscsDsa],
        schedulers: vec![SchedulerPolicy::Fcfs],
        keepalives: vec![KeepalivePolicy::paper_default()],
        scalings: vec![ScalingPolicy::Fixed],
        balancers: vec![LoadBalancer::locality_default()],
        workloads: vec![inline, trace_file],
        ..SweepSpec::default_grid(SweepScale::Smoke)
    };
    let report = grid.run().expect("the cross-validation grid is valid");

    for w in &report.workloads {
        println!(
            "workload {:<8} {:>7} requests over {:>7.1} s  [{}]",
            w.name, w.requests, w.horizon_s, w.source
        );
    }
    for c in &report.cells {
        println!(
            "  {:<22} completed {:>6} / cold {:>4} / local {:>6.2}% / mean {:>7.1} ms / p99 {:>7.1} ms",
            c.workload_source,
            c.completed,
            c.cold_starts,
            c.locality_hit_rate * 100.0,
            c.mean_latency_ms,
            c.p99_latency_ms
        );
    }

    println!("\ncross-validation (bucketing information loss):");
    for v in report.cross_validation() {
        println!(
            "  {} vs {} over {} matched cell{}:",
            v.synthetic,
            v.trace,
            v.cells,
            if v.cells == 1 { "" } else { "s" }
        );
        println!("    arrival rate delta {:+.2}%", v.rate_delta_pct);
        println!("    mean latency delta {:+.2}%", v.mean_delta_pct);
        println!("    p99 latency delta  {:+.2}%", v.p99_delta_pct);
        println!("    locality delta     {:+.4}", v.locality_delta);
    }
}
