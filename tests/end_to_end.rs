//! Integration tests spanning the whole workspace: the headline claims of the
//! paper, and the cross-crate flows (deployment config → registry → data
//! placement → scheduling → end-to-end evaluation → at-scale simulation).

use dscs_serverless::cluster::experiment::Experiment;
use dscs_serverless::cluster::trace::RateProfile;
use dscs_serverless::compiler::codegen::{compile, CompileOptions};
use dscs_serverless::core::benchmarks::Benchmark;
use dscs_serverless::core::endtoend::{EvalOptions, SystemModel};
use dscs_serverless::core::experiments;
use dscs_serverless::dsa::config::DsaConfig;
use dscs_serverless::dsa::executor::{Executor, OverlapPolicy};
use dscs_serverless::dse::explore::{evaluate_config, DRIVE_POWER_BUDGET_WATTS};
use dscs_serverless::faas::config::parse_deployment;
use dscs_serverless::faas::registry::FunctionRegistry;
use dscs_serverless::faas::scheduler::{
    NodeCapability, NodeId, PendingRequest, Placement, Scheduler,
};
use dscs_serverless::nn::zoo::{Model, ModelKind};
use dscs_serverless::platforms::spec::PlatformKind;
use dscs_serverless::simcore::rng::DeterministicRng;
use dscs_serverless::simcore::stats::geometric_mean;
use dscs_serverless::simcore::time::SimDuration;
use dscs_serverless::storage::object_store::ObjectStore;

fn geomean_speedup(platform: PlatformKind, baseline: PlatformKind) -> f64 {
    let sys = SystemModel::new();
    let ratios: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| sys.speedup_over(b, platform, baseline, EvalOptions::default()))
        .collect();
    geometric_mean(&ratios)
}

fn geomean_energy_reduction(platform: PlatformKind, baseline: PlatformKind) -> f64 {
    let sys = SystemModel::new();
    let ratios: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| {
            let base = sys
                .evaluate(b, baseline, EvalOptions::default())
                .total_energy()
                .as_f64();
            let this = sys
                .evaluate(b, platform, EvalOptions::default())
                .total_energy()
                .as_f64();
            base / this
        })
        .collect();
    geometric_mean(&ratios)
}

#[test]
fn headline_dscs_beats_the_cpu_baseline() {
    // Paper: 3.6x speedup, 3.5x energy reduction over the CPU baseline.
    let speedup = geomean_speedup(PlatformKind::DscsDsa, PlatformKind::BaselineCpu);
    let energy = geomean_energy_reduction(PlatformKind::DscsDsa, PlatformKind::BaselineCpu);
    assert!((2.0..6.0).contains(&speedup), "speedup {speedup}");
    assert!((2.0..7.0).contains(&energy), "energy reduction {energy}");
}

#[test]
fn headline_dscs_beats_the_gpu_with_remote_storage() {
    // Paper: 2.7x speedup and 4.2x energy reduction vs. the RTX 2080 Ti.
    let speedup = geomean_speedup(PlatformKind::DscsDsa, PlatformKind::RemoteGpu);
    let energy = geomean_energy_reduction(PlatformKind::DscsDsa, PlatformKind::RemoteGpu);
    assert!(speedup > 1.5, "speedup over GPU {speedup}");
    assert!(energy > 2.0, "energy reduction over GPU {energy}");
}

#[test]
fn headline_dscs_beats_conventional_computational_storage() {
    // Paper: 3.7x over NS-ARM and 1.7x over NS-FPGA end to end.
    let over_arm = geomean_speedup(PlatformKind::DscsDsa, PlatformKind::NsArm);
    let over_fpga = geomean_speedup(PlatformKind::DscsDsa, PlatformKind::NsFpga);
    assert!(over_arm > 2.0, "speedup over NS-ARM {over_arm}");
    assert!(
        (1.05..3.0).contains(&over_fpga),
        "speedup over NS-FPGA {over_fpga}"
    );
    assert!(over_arm > over_fpga, "the ARM cores should trail the FPGA");
}

#[test]
fn amdahls_law_caps_compute_only_acceleration_on_the_baseline() {
    // Figure 4's argument: with remote storage, even an infinitely fast
    // accelerator cannot beat ~1.5-2.5x because communication dominates.
    let sys = SystemModel::new();
    let fractions: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| {
            let report = sys.evaluate(b, PlatformKind::BaselineCpu, EvalOptions::default());
            let compute = report.latency.compute.as_secs_f64();
            let total = report.total_latency().as_secs_f64();
            compute / total
        })
        .collect();
    let mean_compute_share = fractions.iter().sum::<f64>() / fractions.len() as f64;
    let max_speedup = 1.0 / (1.0 - mean_compute_share);
    assert!(max_speedup < 2.5, "max compute-only speedup {max_speedup}");
}

#[test]
fn full_stack_flow_from_yaml_to_placement_to_latency() {
    // Deployment config -> registry -> object placement -> scheduling -> latency.
    let yaml = "app: ppe-detection\nfunctions:\n  - name: pre\n    role: preprocess\n    acceleratable: true\n  - name: infer\n    role: inference\n    acceleratable: true\n    image_mb: 300\n  - name: notify\n    role: notification\n";
    let pipeline = parse_deployment(yaml).expect("valid yaml");
    let acceleratable: Vec<bool> = pipeline.functions.iter().map(|f| f.acceleratable).collect();
    assert_eq!(acceleratable, [true, true, false]);
    let mut registry = FunctionRegistry::new();
    registry.deploy(pipeline).expect("deploy");
    assert_eq!(registry.app_names(), ["ppe-detection"]);

    let mut store = ObjectStore::with_node_counts(4, 2);
    let mut rng = DeterministicRng::seeded(3);
    store
        .put(
            "images/worker.jpg",
            Benchmark::PpeDetection.spec().input_size,
            true,
            &mut rng,
        )
        .expect("stored");
    let dscs_node = store
        .dscs_replica("images/worker.jpg")
        .expect("exists")
        .expect("on a DSCS drive");

    let mut scheduler = Scheduler::new(
        vec![
            (NodeId(0), NodeCapability::Compute),
            (NodeId(4), NodeCapability::DscsStorage),
            (NodeId(5), NodeCapability::DscsStorage),
        ],
        100,
    );
    scheduler
        .submit(PendingRequest {
            id: 1,
            app: "ppe-detection".to_string(),
            acceleratable: true,
            data_node: Some(NodeId(4 + (dscs_node.0 % 2))),
        })
        .expect("submitted");
    let placed = scheduler.dispatch();
    assert!(
        matches!(placed[0].1, Placement::InStorage(_)),
        "acceleratable request lands on the DSCS drive"
    );

    let sys = SystemModel::new();
    let report = sys.evaluate(
        Benchmark::PpeDetection,
        PlatformKind::DscsDsa,
        EvalOptions::default(),
    );
    assert!(
        report.total_latency().as_millis_f64() < 150.0,
        "DSCS end-to-end {:?}",
        report.total_latency()
    );
}

#[test]
fn dsa_compile_and_execute_for_every_benchmark_model() {
    let config = DsaConfig::paper_optimal();
    for benchmark in Benchmark::ALL {
        let kind = benchmark.spec().model;
        let model = Model::build(kind);
        assert!(model.graph().total_flops() > 0, "{kind} has zero FLOPs");
        let program = compile(model.graph(), &config, CompileOptions::default());
        let report = Executor::new(config).run(&program);
        assert!(report.latency().as_millis_f64() > 0.0, "{kind}");
        let watts = report.total_energy().as_f64() / report.latency().as_secs_f64();
        assert!(
            watts < DRIVE_POWER_BUDGET_WATTS,
            "{kind} draws {watts} W inside the drive"
        );
        // Double buffering hides DMA behind compute, so it never loses to
        // running them back to back, and on ResNet-50 it wins outright.
        let overlapped = report.total_cycles;
        let sequential = Executor::with_policy(config, OverlapPolicy::Sequential)
            .run(&program)
            .total_cycles;
        assert!(
            overlapped <= sequential,
            "{kind}: double-buffered {overlapped} > sequential {sequential} cycles"
        );
        if kind == ModelKind::ResNet50 {
            assert!(
                overlapped < sequential,
                "{kind}: {overlapped} cycles, no gain"
            );
        }
    }
}

#[test]
fn chosen_dsa_configuration_fits_the_drive_power_budget() {
    let point = evaluate_config(
        DsaConfig::paper_optimal(),
        &[ModelKind::ResNet50, ModelKind::BertBase],
    );
    assert!(
        point.power_watts < DRIVE_POWER_BUDGET_WATTS,
        "provisioned power {}",
        point.power_watts
    );
    assert!(
        point.throughput_ips > 50.0,
        "throughput {}",
        point.throughput_ips
    );
}

#[test]
fn at_scale_simulation_preserves_the_figure_13_shape() {
    let profile = RateProfile {
        segments: vec![
            (SimDuration::from_secs(30), 1200.0),
            (SimDuration::from_secs(30), 2200.0),
            (SimDuration::from_secs(30), 1200.0),
        ],
    };
    let trace = std::sync::Arc::new(profile.generate(&mut DeterministicRng::seeded(21)));
    let run = |platform| {
        Experiment::builder(platform)
            .trace(trace.clone())
            .seed(22)
            .build()
            .expect("valid experiment")
            .run()
            .report
    };
    let baseline = run(PlatformKind::BaselineCpu);
    let dscs = run(PlatformKind::DscsDsa);
    assert!(
        baseline.peak_queue() > dscs.peak_queue(),
        "baseline queues more"
    );
    assert!(
        baseline.mean_latency_ms() > dscs.mean_latency_ms(),
        "baseline is slower at scale"
    );
    assert_eq!(dscs.completed + dscs.rejected, trace.len() as u64);
}

#[test]
fn experiment_runners_cover_every_table_and_figure_in_scope() {
    assert_eq!(experiments::table1_benchmarks().len(), 8);
    assert_eq!(experiments::table2_platforms().len(), 7);
    assert_eq!(experiments::fig3_s3_read_cdf(500, 1).len(), 8);
    assert_eq!(experiments::fig4_runtime_breakdown_baseline().len(), 8);
    assert_eq!(experiments::fig9_speedup().cells.len(), 48);
    assert_eq!(experiments::fig10_runtime_breakdown().len(), 56);
    assert_eq!(experiments::fig11_energy_reduction().cells.len(), 48);
    assert_eq!(experiments::fig14_batch_sensitivity().len(), 32);
    assert_eq!(experiments::fig15_tail_sensitivity().len(), 24);
    assert_eq!(experiments::fig16_function_count_sensitivity().len(), 32);
    assert_eq!(experiments::fig17_cold_start_sensitivity().len(), 16);
}
