//! Integration tests for the at-scale workload subsystem: the policy sweep,
//! multi-rack sharding, autoscaling and prewarming, data-locality-aware
//! dispatch, and the machine-readable report CI uploads.

use std::sync::{Arc, OnceLock};

use dscs_serverless::cluster::at_scale::{AtScaleOptions, AtScaleReport, SweepCell, SweepSpec};
use dscs_serverless::cluster::experiment::Experiment;
use dscs_serverless::cluster::policy::{
    KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy,
};
use dscs_serverless::cluster::workload::{AzureWorkload, Workload, WorkloadError, WorkloadSpec};
use dscs_serverless::platforms::spec::PlatformKind;
use dscs_serverless::simcore::rng::DeterministicRng;

/// The pinned smoke-sweep report (file name kept from the PR 4 capture that
/// first pinned it; now schema v8: on top of the v7 regret fields, every
/// cell carries its `cold_path` / `ipc` modality identity plus the
/// `restore_s` / `ipc_overhead_s` charges — at the single-valued default
/// axes they render the historical values, so the v7 fields are unchanged
/// bytes). Today's sweep must reproduce it byte-for-byte;
/// regenerate deliberately with `UPDATE_GOLDEN=1 cargo test --test at_scale`.
const PR4_GOLDEN_SMOKE: &str = include_str!("golden/at_scale_smoke_pr4.json");

/// One shared smoke sweep (432 cells) for the tests that only read it.
fn smoke_report() -> &'static AtScaleReport {
    static REPORT: OnceLock<AtScaleReport> = OnceLock::new();
    REPORT.get_or_init(|| sweep(AtScaleOptions::smoke()))
}

/// The whole default grid the options expand into.
fn sweep(options: AtScaleOptions) -> AtScaleReport {
    SweepSpec::from(options).run().expect("valid options")
}

/// The FCFS cell of `report` at one policy point, matched by report names.
fn fcfs_cell<'a>(
    report: &'a AtScaleReport,
    workload: &str,
    platform: PlatformKind,
    keepalive: &str,
    scaling: &str,
    balancer: &str,
) -> &'a SweepCell {
    report
        .cells
        .iter()
        .find(|c| {
            c.workload == workload
                && c.platform == platform
                && c.scheduler == SchedulerPolicy::Fcfs
                && c.keepalive.name() == keepalive
                && c.scaling.name() == scaling
                && c.balancer.name() == balancer
        })
        .expect("cell swept")
}

#[test]
fn fixed_seed_sweep_report_is_byte_for_byte_reproducible() {
    let options = AtScaleOptions::smoke();
    let a = sweep(options).to_json();
    let b = smoke_report().to_json();
    assert_eq!(a, b);
    // A different seed changes the report.
    let c = sweep(AtScaleOptions {
        seed: options.seed + 1,
        ..options
    })
    .to_json();
    assert_ne!(a, c);
}

#[test]
fn sweep_covers_both_platforms_all_policies_and_both_workloads() {
    let report = smoke_report();
    for platform in [PlatformKind::BaselineCpu, PlatformKind::DscsDsa] {
        for workload in ["bursty", "azure"] {
            let cells = report
                .cells
                .iter()
                .filter(|c| c.workload == workload && c.platform == platform);
            assert_eq!(
                cells.count(),
                SchedulerPolicy::ALL.len()
                    * KeepalivePolicy::ALL.len()
                    * ScalingPolicy::ALL.len()
                    * LoadBalancer::ALL.len(),
                "{workload}/{platform:?}"
            );
        }
    }
}

/// Golden regression test: the whole schema-v7 smoke report is pinned
/// byte-for-byte against the regenerated fixture. Any drift in trace
/// generation, placement, dispatch, charging or JSON rendering — including
/// through the new `Experiment` path every cell now runs on — shows up here
/// immediately.
#[test]
fn smoke_sweep_matches_the_pr4_golden_report() {
    assert_matches_golden(
        &smoke_report().to_json(),
        PR4_GOLDEN_SMOKE,
        "at_scale_smoke_pr4.json",
    );
}

/// The pinned smoke policy grid over the checked-in Azure-schema trace file
/// (`--workload trace:data/azure_trace_sample.csv`). Unlike the synthetic
/// workloads, whose function slots are their generators' own ids, a trace
/// file's slots rank 32-bit hashes of the owner/app/function names, so this
/// fixture pins every slot-ordered computation: the hybrid keepalive's
/// end-of-run warm ledger and the predictive autoscaler's summed
/// arrival-rate estimate.
const TRACE_GOLDEN_SMOKE: &str = include_str!("golden/at_scale_smoke_trace_sample.json");

#[test]
fn trace_file_smoke_sweep_matches_its_golden_report() {
    let spec = SweepSpec {
        workloads: vec![WorkloadSpec::TraceFile {
            path: concat!(env!("CARGO_MANIFEST_DIR"), "/data/azure_trace_sample.csv").into(),
            day: 1,
        }],
        ..SweepSpec::from(AtScaleOptions::smoke())
    };
    let json = spec.run().expect("the sample trace is valid").to_json();
    assert_matches_golden(
        &json,
        TRACE_GOLDEN_SMOKE,
        "at_scale_smoke_trace_sample.json",
    );
}

/// Compares a report with its golden fixture byte for byte, pointing at the
/// first divergence; with `UPDATE_GOLDEN` set it rewrites the fixture instead.
fn assert_matches_golden(json: &str, golden: &str, fixture: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{fixture}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, json).expect("write golden fixture");
        return;
    }
    if json != golden {
        let diverges_at = json
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| json.len().min(golden.len()));
        let start = diverges_at.saturating_sub(120);
        panic!(
            "report drifted from the golden fixture {fixture} at byte {diverges_at}:\n\
             current:  ...{}\n\
             golden:   ...{}\n\
             (regenerate deliberately with UPDATE_GOLDEN=1 cargo test --test at_scale)",
            &json[start..(diverges_at + 120).min(json.len())],
            &golden[start..(diverges_at + 120).min(golden.len())],
        );
    }
}

/// Removes one measured run starting at `from`: `,"wall_s":...,
/// "events_per_sec":...`, plus — at the root only — the worker knobs
/// recorded with them (`,"jobs":...,"rack_jobs":...`). Returns the index
/// just past the removed span.
fn strip_measured_run(json: &mut String, from: usize) -> usize {
    let eps_key = "\"events_per_sec\":";
    let eps = json[from..].find(eps_key).expect("keys always paired") + from;
    let value_start = eps + eps_key.len();
    let value_len = json[value_start..]
        .find([',', '}'])
        .expect("JSON continues after the value");
    json.replace_range(from..value_start + value_len, "");
    for knob in ["\"jobs\":", "\"rack_jobs\":"] {
        if json[from..].starts_with(',') && json[from + 1..].starts_with(knob) {
            let value_start = from + 1 + knob.len();
            let value_len = json[value_start..]
                .find([',', '}'])
                .expect("JSON continues after the value");
            json.replace_range(from..value_start + value_len, "");
        }
    }
    from
}

/// The throughput rendering is the deterministic golden report plus *only*
/// the measured keys: stripping every `wall_s`/`events_per_sec` pair (and
/// the root's `jobs`/`rack_jobs` worker knobs, which ride in the measured
/// section so they never enter cell identity) from
/// `to_json_with_throughput()` must recover the golden bytes exactly, and
/// the measured keys must appear once per cell plus once at the root.
#[test]
fn throughput_report_strips_back_to_the_golden_bytes() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // the fixture is being rewritten; nothing to compare against
    }
    let report = smoke_report();
    let mut json = report.to_json_with_throughput();
    let mut runs = 0;
    while let Some(at) = json.find(",\"wall_s\":") {
        strip_measured_run(&mut json, at);
        runs += 1;
    }
    assert_eq!(
        runs,
        report.cells.len() + 1,
        "one measured pair per cell plus the aggregate"
    );
    assert_eq!(
        json, PR4_GOLDEN_SMOKE,
        "throughput report must add nothing beyond the measured keys"
    );
}

/// Schema-v8 regression: every cell of the default smoke report is tagged
/// with the historical modality identity (`flash` cold path over `shm`
/// IPC), carries the per-modality charge fields, and — at those defaults —
/// charges nothing, so pre-v8 numbers are untouched.
#[test]
fn smoke_report_carries_the_v8_modality_fields_at_their_defaults() {
    let report = smoke_report();
    let json = report.to_json();
    assert!(json.contains("\"schema\":\"dscs-at-scale-v8\""));
    let cells = report.cells.len();
    assert_eq!(json.matches("\"cold_path\":\"flash\"").count(), cells);
    assert_eq!(json.matches("\"ipc\":\"shm\"").count(), cells);
    assert_eq!(json.matches("\"restore_s\":").count(), cells);
    assert_eq!(json.matches("\"ipc_overhead_s\":").count(), cells);
    for cell in &report.cells {
        assert_eq!(cell.restore_s, 0.0, "flash cells never restore snapshots");
        assert_eq!(cell.ipc_overhead_s, 0.0, "shared-memory IPC is free");
    }
}

/// Golden integration test for prewarming: on the bursty Azure workload the
/// hybrid histogram's prewarm window finds warm instances (non-zero hit
/// rate), and never pays more cold starts than the same seed without
/// prewarming.
#[test]
fn prewarming_hits_without_extra_cold_starts_on_azure() {
    let report = smoke_report();
    for platform in [PlatformKind::BaselineCpu, PlatformKind::DscsDsa] {
        for scaling in ["fixed", "reactive", "predictive"] {
            let prewarm = fcfs_cell(
                report,
                "azure",
                platform,
                "hybrid-prewarm",
                scaling,
                "round-robin",
            );
            let baseline = fcfs_cell(
                report,
                "azure",
                platform,
                "hybrid-histogram",
                scaling,
                "round-robin",
            );
            assert!(
                prewarm.prewarm_hit_rate > 0.0,
                "{platform:?}/{scaling}: prewarm hit rate must be non-zero"
            );
            assert!(prewarm.prewarm_hits > 0);
            assert_eq!(baseline.prewarm_hits, 0);
            assert!(
                prewarm.cold_starts <= baseline.cold_starts,
                "{platform:?}/{scaling}: prewarm {} vs baseline {} cold starts",
                prewarm.cold_starts,
                baseline.cold_starts
            );
        }
    }
}

/// Elastic cells expose the scaling-lag metrics the Figure-17-style
/// comparison needs: on the Azure workload the reactive and predictive racks
/// scale up from `min_instances`, pay provisioning lag, and stay within
/// bounds.
#[test]
fn elastic_azure_cells_report_scaling_lag() {
    let report = smoke_report();
    for scaling in ["reactive", "predictive"] {
        let cell = fcfs_cell(
            report,
            "azure",
            PlatformKind::BaselineCpu,
            "hybrid-prewarm",
            scaling,
            "round-robin",
        );
        assert!(cell.scale_ups > 0, "{scaling}: must scale up");
        assert!(cell.scaling_lag_s > 0.0, "{scaling}: lag metric populated");
        assert!(cell.peak_instances > 8 && cell.peak_instances <= 200);
    }
}

/// Acceptance criterion of the data-locality refactor, pinned at the
/// integration level: on the Azure workload the locality-aware balancer
/// achieves a strictly higher locality hit rate, moves fewer bytes across
/// racks, and lands a lower mean latency than round-robin — deterministically,
/// since the whole report is golden-pinned.
#[test]
fn locality_aware_balancing_beats_round_robin_on_azure_cells() {
    let report = smoke_report();
    for platform in [PlatformKind::BaselineCpu, PlatformKind::DscsDsa] {
        let cell =
            |balancer| fcfs_cell(report, "azure", platform, "fixed-window", "fixed", balancer);
        let rr = cell("round-robin");
        let local = cell("locality");
        assert!(
            local.locality_hit_rate > rr.locality_hit_rate,
            "{platform:?}: locality hit rate {} must beat round-robin {}",
            local.locality_hit_rate,
            rr.locality_hit_rate
        );
        assert!(
            local.cross_rack_bytes < rr.cross_rack_bytes,
            "{platform:?}: locality must move fewer bytes"
        );
        assert!(
            local.mean_latency_ms < rr.mean_latency_ms,
            "{platform:?}: locality mean {} ms must beat round-robin {} ms",
            local.mean_latency_ms,
            rr.mean_latency_ms
        );
        assert!(local.fetch_latency_s <= rr.fetch_latency_s);
        assert!(
            local.fetch_energy_j <= rr.fetch_energy_j,
            "{platform:?}: locality {} J must not exceed round-robin {} J",
            local.fetch_energy_j,
            rr.fetch_energy_j
        );
    }
}

#[test]
fn multi_rack_run_is_deterministic_across_balancers() {
    let azure = AzureWorkload {
        functions: 12,
        base_rps: 250.0,
        horizon: dscs_serverless::simcore::time::SimDuration::from_secs(30),
        ..AzureWorkload::default()
    };
    let trace = Arc::new(
        azure
            .generate(&mut DeterministicRng::seeded(5))
            .expect("valid"),
    );
    for balancer in LoadBalancer::ALL {
        let run = || {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .racks(3)
                .balancer(balancer)
                .seed(9)
                .build()
                .expect("valid experiment")
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report, "{balancer:?} aggregate");
        assert_eq!(a.racks, b.racks, "{balancer:?} racks");
        assert_eq!(a.report.completed + a.report.rejected, trace.len() as u64);
    }
}

#[test]
fn keepalive_policies_order_cold_start_counts() {
    // Sparse arrivals so invocations rarely overlap: no-keepalive runs cold
    // almost every time, the fixed window almost never (trace << window).
    let azure = AzureWorkload {
        functions: 8,
        base_rps: 4.0,
        horizon: dscs_serverless::simcore::time::SimDuration::from_secs(60),
        ..AzureWorkload::default()
    };
    let trace = Arc::new(
        azure
            .generate(&mut DeterministicRng::seeded(6))
            .expect("valid"),
    );
    let run = |keepalive| {
        Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .keepalive(keepalive)
            .seed(3)
            .build()
            .expect("valid experiment")
            .run()
            .report
    };
    let none = run(KeepalivePolicy::NoKeepalive);
    let fixed = run(KeepalivePolicy::FixedWindow);
    let hybrid = run(KeepalivePolicy::HybridHistogram);
    assert!(
        none.cold_starts > fixed.cold_starts,
        "none {} vs fixed {}",
        none.cold_starts,
        fixed.cold_starts
    );
    assert!(
        hybrid.cold_starts <= none.cold_starts,
        "hybrid {} vs none {}",
        hybrid.cold_starts,
        none.cold_starts
    );
    assert!(none.mean_latency_ms() > fixed.mean_latency_ms());
}

#[test]
fn workload_validation_errors_are_typed_and_displayable() {
    let bad = AzureWorkload {
        base_rps: -1.0,
        ..AzureWorkload::default()
    };
    let err = bad
        .generate(&mut DeterministicRng::seeded(1))
        .expect_err("negative rate must be rejected");
    assert!(matches!(err, WorkloadError::InvalidRate { .. }));
    assert!(err.to_string().contains("invalid rate"));
}
