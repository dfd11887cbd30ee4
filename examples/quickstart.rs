//! Quickstart: evaluate one serverless application end to end on the baseline
//! CPU (with remote storage) and on DSCS-Serverless, and print the latency
//! breakdown and speedup.
//!
//! Run with: `cargo run --example quickstart`

use dscs_serverless::core::benchmarks::Benchmark;
use dscs_serverless::core::endtoend::{EvalOptions, LatencyBreakdown, SystemModel};
use dscs_serverless::platforms::spec::PlatformKind;

fn print_breakdown(label: &str, b: &LatencyBreakdown) {
    println!("{label}");
    println!("  remote read     : {:>10}", b.remote_read);
    println!("  remote write    : {:>10}", b.remote_write);
    println!("  local / P2P I/O : {:>10}", b.local_io);
    println!("  device copy     : {:>10}", b.device_copy);
    println!("  compute         : {:>10}", b.compute);
    println!("  notification    : {:>10}", b.notification);
    println!("  system stack    : {:>10}", b.system_stack);
    println!(
        "  total           : {:>10}  (communication share {:.0}%)",
        b.total(),
        b.communication_fraction() * 100.0
    );
}

fn main() {
    let system = SystemModel::new();
    let benchmark = Benchmark::PpeDetection;
    let options = EvalOptions::default();

    println!("benchmark: {benchmark} ({})", benchmark.spec().description);

    let baseline = system.evaluate(benchmark, PlatformKind::BaselineCpu, options);
    let dscs = system.evaluate(benchmark, PlatformKind::DscsDsa, options);

    print_breakdown("\nBaseline (CPU) with remote storage:", &baseline.latency);
    print_breakdown("\nDSCS-Serverless (in-storage DSA):", &dscs.latency);

    let speedup = baseline.total_latency().as_secs_f64() / dscs.total_latency().as_secs_f64();
    let energy = baseline.total_energy().as_f64() / dscs.total_energy().as_f64();
    println!("\nDSCS-Serverless speedup over the baseline : {speedup:.2}x");
    println!("DSCS-Serverless energy reduction           : {energy:.2}x");
}
