//! Criterion benches: one target per paper table/figure.
//!
//! Each bench measures the end-to-end cost of regenerating the corresponding
//! experiment's data series, so regressions in any layer of the stack (cycle
//! model, compiler, storage models, end-to-end model, cluster simulation) show
//! up against the experiment they affect. Sample counts are kept small because
//! individual iterations are full experiments, not micro-operations.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dscs_cluster::experiment::Experiment;
use dscs_cluster::trace::RateProfile;
use dscs_core::benchmarks::Benchmark;
use dscs_core::endtoend::{EvalOptions, SystemModel};
use dscs_core::experiments as exp;
use dscs_dsa::config::TechnologyNode;
use dscs_dse::cost::CostParameters;
use dscs_dse::explore::{area_performance_frontier, power_performance_frontier, sweep};
use dscs_dse::space::enumerate_small;
use dscs_platforms::PlatformKind;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::stats::geometric_mean;
use dscs_simcore::time::SimDuration;

fn bench_tables(c: &mut Criterion) {
    c.bench_function("table1_suite", |b| {
        b.iter(|| black_box(exp::table1_benchmarks()))
    });
    c.bench_function("table2_platforms", |b| {
        b.iter(|| black_box(exp::table2_platforms()))
    });
}

fn bench_fig03(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig03_s3_read_cdf");
    group.sample_size(10);
    group.bench_function("cdf_1k_reads_per_benchmark", |b| {
        b.iter(|| black_box(exp::fig3_s3_read_cdf(1_000, 42)))
    });
    group.finish();
}

fn bench_fig04(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig04_breakdown_baseline");
    group.sample_size(10);
    group.bench_function("all_benchmarks", |b| {
        b.iter(|| black_box(exp::fig4_runtime_breakdown_baseline()))
    });
    group.finish();
}

fn bench_fig07_08(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig07_08_dse_pareto");
    group.sample_size(10);
    let space = enumerate_small(TechnologyNode::Nm45);
    group.bench_function("sweep_and_frontiers", |b| {
        b.iter(|| {
            let points = sweep(black_box(&space), &[dscs_nn::zoo::ModelKind::ResNet50]);
            let power = power_performance_frontier(&points);
            let area = area_performance_frontier(&points);
            black_box((power, area))
        })
    });
    group.finish();
}

fn bench_fig09(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_speedup");
    group.sample_size(10);
    group.bench_function("all_platforms_all_benchmarks", |b| {
        b.iter(|| black_box(exp::fig9_speedup()))
    });
    group.finish();
}

fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_breakdown_platforms");
    group.sample_size(10);
    group.bench_function("all_platforms_all_benchmarks", |b| {
        b.iter(|| black_box(exp::fig10_runtime_breakdown()))
    });
    group.finish();
}

fn bench_fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_energy");
    group.sample_size(10);
    group.bench_function("all_platforms_all_benchmarks", |b| {
        b.iter(|| black_box(exp::fig11_energy_reduction()))
    });
    group.finish();
}

fn bench_fig12(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_cost");
    group.sample_size(10);
    group.bench_function("cost_efficiency_all_platforms", |b| {
        b.iter(|| {
            let params = CostParameters::default();
            let system = SystemModel::new();
            let values: Vec<f64> = PlatformKind::ALL
                .iter()
                .map(|&platform| {
                    let spec = platform.spec();
                    let throughputs: Vec<f64> = Benchmark::ALL
                        .iter()
                        .map(|&bench| {
                            system
                                .evaluate(bench, platform, EvalOptions::default())
                                .throughput_rps()
                        })
                        .collect();
                    params.cost_efficiency(
                        geometric_mean(&throughputs),
                        spec.active_power,
                        spec.capex,
                    )
                })
                .collect();
            black_box(values)
        })
    });
    group.finish();
}

fn bench_fig13(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_at_scale");
    group.sample_size(10);
    // A one-minute slice of the bursty trace keeps one iteration around a
    // hundred thousand simulated requests.
    let profile = RateProfile {
        segments: vec![(SimDuration::from_secs(60), 1500.0)],
    };
    let trace = std::sync::Arc::new(profile.generate(&mut DeterministicRng::seeded(5)));
    let replay = |platform| {
        // One iteration covers the whole run: model evaluation, event loop,
        // report aggregation.
        Experiment::builder(platform)
            .trace(trace.clone())
            .seed(7)
            .build()
            .expect("valid experiment")
            .run()
            .report
    };
    group.bench_function("baseline_one_minute", |b| {
        b.iter(|| black_box(replay(PlatformKind::BaselineCpu)))
    });
    group.bench_function("dscs_one_minute", |b| {
        b.iter(|| black_box(replay(PlatformKind::DscsDsa)))
    });
    group.finish();
}

fn bench_fig14_17(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_17_sensitivity");
    group.sample_size(10);
    group.bench_function("fig14_batch", |b| {
        b.iter(|| black_box(exp::fig14_batch_sensitivity()))
    });
    group.bench_function("fig15_tail", |b| {
        b.iter(|| black_box(exp::fig15_tail_sensitivity()))
    });
    group.bench_function("fig16_chaining", |b| {
        b.iter(|| black_box(exp::fig16_function_count_sensitivity()))
    });
    group.bench_function("fig17_coldstart", |b| {
        b.iter(|| black_box(exp::fig17_cold_start_sensitivity()))
    });
    group.finish();
}

criterion_group!(
    figures,
    bench_tables,
    bench_fig03,
    bench_fig04,
    bench_fig07_08,
    bench_fig09,
    bench_fig10,
    bench_fig11,
    bench_fig12,
    bench_fig13,
    bench_fig14_17
);
criterion_main!(figures);
