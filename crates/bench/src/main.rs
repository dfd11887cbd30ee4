//! `reproduce` — regenerates every table and figure of the DSCS-Serverless
//! paper from the simulation models and prints the series as aligned text
//! rows.
//!
//! Usage:
//!
//! ```text
//! reproduce [experiment] [--full]
//!
//! experiment: all (default), table1, table2, fig3, fig4, fig7, fig8, fig9,
//!             fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17
//! --full:     run the full-size sweeps (complete 650+-point DSE, full
//!             20-minute at-scale trace) instead of the quick versions.
//!
//! reproduce at-scale [--scale smoke|quick|full|large|large-smoke|large-quick]
//!                    [--seed N] [--racks N] [--jobs N] [--rack-jobs N]
//!                    [--balancer round-robin|least-loaded|locality]
//!                    [--cold-path fresh|flash|snapshot]...
//!                    [--ipc shm|socket|http]...
//!                    [--workload azure|bursty|trace:<path>[@<day>]]...
//!                    [--out PATH]
//!
//! Sweeps scheduler x keepalive x scaling x balancer x platform over the
//! bursty Figure-13 trace and an Azure-style synthetic workload, sharded
//! over multiple racks against a rack-aware object-store placement (cells
//! report locality hit rates, cross-rack bytes and the joules those moves
//! cost), and writes a machine-readable JSON report (default:
//! BENCH_cluster.json) that also carries the measured simulator throughput
//! (`events_per_sec`, per cell and in aggregate). The grid is a declarative
//! `SweepSpec` the options expand into. --balancer restricts the sweep to
//! one balancer; the default sweeps all three. --workload (repeatable)
//! replaces the default workload axis with declarative specs — mixing a
//! synthetic generator and an ingested Azure-schema trace file puts both on
//! one axis and adds a cross-validation section to the report. --jobs fans
//! the independent cells across N worker threads (0 or omitted: one per
//! available core; 1: sequential) — the modelled report bytes are identical
//! either way. --rack-jobs adds a second parallelism level *inside* each
//! round-robin cell: the cell's racks are sharded over N threads (0: split
//! the core budget left over by --jobs; 1, the default: inline). Cells with
//! a coupled balancer (least-loaded, locality) fall back to the sequential
//! engine. Rack workers never change the report bytes either. --cold-path
//! (repeatable) sweeps the cold-start modality axis — `fresh` always pays
//! the registry spawn, `flash` (the default) reloads evicted images from the
//! drive's flash, `snapshot` restores repeat colds from a CRIU-style
//! process snapshot — and --ipc (repeatable) sweeps the gateway→runtime
//! transport charged on every started invocation (`shm`, the free default;
//! `socket`; `http`). When the sweep covers both the flash and snapshot
//! paths, the table closes with a prewarm-vs-restore crossover headline
//! comparing the best cell of each. --scale (at most once) picks the sweep
//! size by name and with it the rack count: `smoke` and `quick` shard over
//! 2 racks, and `full` (the default) and the large names over 4; --racks
//! and --seed override the scale's values. `large` is the 10⁷-invocation
//! preset (10⁵ functions over two simulated days) on a restricted
//! single-point policy grid sized for the rack-parallel engine;
//! `large-smoke` and `large-quick` run that same restricted grid at
//! smoke/quick scale so CI can exercise the preset cheaply and measure
//! single-cell rack-parallel speedup.
//! The table's `regret %` column shows each cell's cold-start
//! regret against the offline-optimal bound, priced under the cell's own
//! cold-start path; the JSON carries the regret fields too, plus the v8
//! per-cell `cold_path`, `ipc`, `restore_s` and `ipc_overhead_s` columns.
//!
//! reproduce generate-trace [--scale smoke|quick|full|large] [--seed N]
//!                          [--out PATH]
//! reproduce generate-trace --from CSV [--day N] [--out PATH]
//!
//! Emits an Azure-Functions-2019-schema invocations-per-function CSV. The
//! first form buckets a synthetic `AzureWorkload` trace: by default the
//! configuration of the checked-in ~200-function
//! `data/azure_trace_sample.csv`, which `--seed 42` regenerates; with
//! `--scale`, the sweep's azure workload, from exactly the RNG stream the
//! sweep generates with, so the file round-trips the synthetic run. The
//! second form ingests an existing trace file and re-emits it — CI uses both
//! forms to pin generate → parse → re-emit byte-equality. Each form rejects
//! the other's options.
//! ```

use std::env;
use std::io::{self, Write};

use dscs_cluster::at_scale::{AtScaleOptions, SweepScale, SweepSpec};
use dscs_cluster::coldpath::{ColdStartPath, IpcTransport};
use dscs_cluster::experiment::Experiment;
use dscs_cluster::ingest::{sample_workload, TraceFileWorkload};
use dscs_cluster::policy::{KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy};
use dscs_cluster::trace::RateProfile;
use dscs_cluster::workload::{azure_generation_rng, WorkloadSpec};
use dscs_core::benchmarks::Benchmark;
use dscs_core::endtoend::{EvalOptions, SystemModel};
use dscs_core::experiments as exp;
use dscs_dsa::config::TechnologyNode;
use dscs_dse::cost::cost_efficiency;
use dscs_dse::explore::{
    area_performance_frontier, frontier_fit, power_performance_frontier, select_optimal, sweep,
    DRIVE_POWER_BUDGET_WATTS,
};
use dscs_dse::space::{enumerate, enumerate_small};
use dscs_platforms::spec::PlatformKind;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::stats::geometric_mean;

// Everything `reproduce` prints goes through `emit`: the two macros below
// shadow std's `print!` and `println!` in this file, so no write can
// bypass it.

/// Writes to stdout. A reader that closes the pipe early
/// (`reproduce table1 | head -2`) ends the program quietly with status 0;
/// any other write error exits 1 with a message.
fn emit(args: std::fmt::Arguments<'_>) {
    if let Err(err) = io::stdout().write_fmt(args) {
        if err.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {err}");
        std::process::exit(1);
    }
}

/// std's `print!`, written through [`emit`].
macro_rules! print {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// std's `println!`, written through [`emit`].
macro_rules! println {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// One CLI experiment entry: the names that select it, and its runner (the
/// bool carries the `--full` flag).
type ExperimentEntry = (&'static [&'static str], fn(bool));

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    // Only the first argument names a subcommand, so an option's value (an
    // `--out` path, say) can never be mistaken for one.
    match args.first().map(String::as_str) {
        Some("at-scale") => at_scale(&args[1..]),
        Some("generate-trace") => generate_trace(&args[1..]),
        _ => run_experiments(&args),
    }
}

/// `reproduce [experiment] [--full]`: runs one paper table or figure, or all
/// of them.
fn run_experiments(args: &[String]) {
    let usage = "usage: reproduce [experiment] [--full] | reproduce at-scale [options] \
                 | reproduce generate-trace [options]";
    let mut full = false;
    let mut which: Option<&str> = None;
    for arg in args {
        match (arg.as_str(), which) {
            ("--full", _) => full = true,
            (option, _) if option.starts_with('-') => {
                eprintln!("unknown option '{option}'");
                eprintln!("{usage}");
                std::process::exit(2);
            }
            (name, None) => which = Some(name),
            (extra, Some(first)) => {
                eprintln!("a second experiment '{extra}' after '{first}'; name at most one");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
    let which = which.unwrap_or("all");

    // One entry per experiment: accepted names (fig7/fig8 share a runner) and
    // the handler. Name validation derives from this table, so adding an
    // experiment here is the only change needed.
    let experiments: [ExperimentEntry; 14] = [
        (&["table1"], |_| table1()),
        (&["table2"], |_| table2()),
        (&["fig3"], |_| fig3()),
        (&["fig4"], |_| fig4()),
        (&["fig7", "fig8"], fig7_and_8),
        (&["fig9"], |_| fig9()),
        (&["fig10"], |_| fig10()),
        (&["fig11"], |_| fig11()),
        (&["fig12"], |_| fig12()),
        (&["fig13"], fig13),
        (&["fig14"], |_| fig14()),
        (&["fig15"], |_| fig15()),
        (&["fig16"], |_| fig16()),
        (&["fig17"], |_| fig17()),
    ];

    let known =
        |name: &str| name == "all" || experiments.iter().any(|(names, _)| names.contains(&name));
    if !known(which) {
        let mut names: Vec<&str> = vec!["all"];
        names.extend(experiments.iter().flat_map(|(n, _)| n.iter().copied()));
        eprintln!(
            "unknown experiment '{which}'; expected one of: {}; or, as the first \
             argument, the subcommand at-scale or generate-trace",
            names.join(", ")
        );
        std::process::exit(2);
    }

    for (names, runner) in &experiments {
        if which == "all" || names.contains(&which) {
            runner(full);
        }
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn table1() {
    header("Table 1: benchmark suite");
    println!(
        "{:<26} {:<18} {:>14} {:>12} {:>12}  description",
        "benchmark", "model", "parameters", "input B", "output B"
    );
    for row in exp::table1_benchmarks() {
        println!(
            "{:<26} {:<18} {:>14} {:>12} {:>12}  {}",
            row.benchmark.name(),
            row.model,
            row.parameters,
            row.input_bytes,
            row.output_bytes,
            row.description
        );
    }
}

fn table2() {
    header("Table 2: evaluated platforms");
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>14} {:>10}",
        "platform", "peak TOPS", "mem GB/s", "power W", "location", "CAPEX $"
    );
    for row in exp::table2_platforms() {
        println!(
            "{:<18} {:>10.1} {:>12.1} {:>10.1} {:>14} {:>10.0}",
            row.platform.name(),
            row.peak_tops,
            row.memory_gbps,
            row.power_watts,
            row.location,
            row.capex_usd
        );
    }
}

fn fig3() {
    header("Figure 3: CDF of remote-storage (S3-style) read latency per benchmark");
    let series = exp::fig3_s3_read_cdf(10_000, 42);
    println!(
        "{:<26} {:>12} {:>12} {:>10}",
        "benchmark", "p50 (ms)", "p99 (ms)", "p99/p50"
    );
    for s in &series {
        println!(
            "{:<26} {:>12.2} {:>12.2} {:>10.2}",
            s.benchmark.name(),
            s.p50 * 1e3,
            s.p99 * 1e3,
            s.p99 / s.p50
        );
    }
}

fn print_breakdowns(rows: &[exp::BreakdownRow]) {
    println!(
        "{:<18} {:<26} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "platform", "benchmark", "rd %", "wr %", "io %", "comp %", "notif %", "stack %", "total ms"
    );
    for row in rows {
        let n = row.normalized();
        println!(
            "{:<18} {:<26} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9.1}",
            row.platform.name(),
            row.benchmark.name(),
            n[0].1 * 100.0,
            n[1].1 * 100.0,
            n[2].1 * 100.0,
            n[3].1 * 100.0,
            n[4].1 * 100.0,
            n[5].1 * 100.0,
            row.breakdown.total().as_millis_f64()
        );
    }
}

fn fig4() {
    header("Figure 4: runtime breakdown on the baseline CPU with remote storage");
    let rows = exp::fig4_runtime_breakdown_baseline();
    print_breakdowns(&rows);
    let avg_comm: f64 = rows
        .iter()
        .map(|r| r.breakdown.communication_fraction())
        .sum::<f64>()
        / rows.len() as f64;
    println!(
        "average communication share: {:.1}% (paper: >55%)",
        avg_comm * 100.0
    );
}

fn fig7_and_8(full: bool) {
    header("Figures 7 & 8: DSA design-space Pareto frontiers at 45 nm");
    let space = if full {
        enumerate(TechnologyNode::Nm45)
    } else {
        enumerate_small(TechnologyNode::Nm45)
    };
    println!(
        "design points evaluated: {} ({})",
        space.len(),
        if full {
            "full sweep"
        } else {
            "quick sweep; use --full for the complete sweep"
        }
    );
    let points = sweep(&space, &dscs_dse::explore::default_evaluation_models());

    let power_frontier = power_performance_frontier(&points);
    println!("\nFigure 7 (power-performance frontier, <= {DRIVE_POWER_BUDGET_WATTS} W):");
    println!(
        "{:<26} {:>16} {:>12}",
        "config", "throughput ips", "power W"
    );
    for p in &power_frontier {
        println!(
            "{:<26} {:>16.1} {:>12.2}",
            p.config.label(),
            p.throughput_ips,
            p.power_watts
        );
    }
    if power_frontier.len() >= 2 {
        println!(
            "P(c) fit: {}",
            frontier_fit(&power_frontier, |p| p.power_watts)
        );
    }

    let area_frontier = area_performance_frontier(&points);
    println!("\nFigure 8 (area-performance frontier):");
    println!(
        "{:<26} {:>16} {:>12}",
        "config", "throughput ips", "area mm2"
    );
    for p in &area_frontier {
        println!(
            "{:<26} {:>16.1} {:>12.1}",
            p.config.label(),
            p.throughput_ips,
            p.area_mm2
        );
    }
    if area_frontier.len() >= 2 {
        println!("A(c) fit: {}", frontier_fit(&area_frontier, |p| p.area_mm2));
    }

    if let Some(best) = select_optimal(&points) {
        println!(
            "\nselected configuration: {} (paper selects Dim128-4MB-DDR5)",
            best.config.label()
        );
    }
}

fn print_ratio_matrix(matrix: &exp::RatioMatrix, what: &str) {
    print!("{:<26}", "benchmark");
    let platforms: Vec<PlatformKind> = matrix.means.iter().map(|(p, _)| *p).collect();
    for p in &platforms {
        print!(" {:>16}", p.name());
    }
    println!();
    for b in Benchmark::ALL {
        print!("{:<26}", b.name());
        for p in &platforms {
            print!(" {:>16.2}", matrix.cell(b, *p).unwrap_or(f64::NAN));
        }
        println!();
    }
    print!("{:<26}", format!("geomean {what}"));
    for (_, mean) in &matrix.means {
        print!(" {mean:>16.2}");
    }
    println!();
}

fn fig9() {
    header("Figure 9: end-to-end speedup over the baseline CPU");
    print_ratio_matrix(&exp::fig9_speedup(), "speedup");
}

fn fig10() {
    header("Figure 10: runtime breakdown across platforms");
    print_breakdowns(&exp::fig10_runtime_breakdown());
}

fn fig11() {
    header("Figure 11: system energy reduction over the baseline CPU");
    print_ratio_matrix(&exp::fig11_energy_reduction(), "energy reduction");
}

fn fig12() {
    header("Figure 12: cost efficiency normalized to the baseline CPU");
    let system = SystemModel::new();
    // Every deployment also pays for its share of the surrounding
    // infrastructure (server chassis, networking, storage capacity) and that
    // infrastructure's power draw, as in the paper's CAPEX/OPEX accounting.
    let infra_capex = dscs_simcore::quantity::Dollars::new(3_500.0);
    let infra_power = dscs_simcore::quantity::Watts::new(120.0);
    let efficiency = |platform: PlatformKind| {
        let spec = platform.spec();
        let throughputs: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|&b| {
                system
                    .evaluate(b, platform, EvalOptions::default())
                    .throughput_rps()
            })
            .collect();
        let throughput = geometric_mean(&throughputs);
        cost_efficiency(
            throughput,
            spec.active_power + infra_power,
            spec.capex + infra_capex,
        )
    };
    let base = efficiency(PlatformKind::BaselineCpu);
    println!("{:<18} {:>22}", "platform", "normalized cost eff.");
    for p in PlatformKind::ALL {
        println!("{:<18} {:>22.2}", p.name(), efficiency(p) / base);
    }
}

fn fig13(full: bool) {
    header("Figure 13: at-scale trace (200 instances, FCFS, 10k queue)");
    let profile = if full {
        RateProfile::paper_bursty()
    } else {
        // One-quarter-length trace with the same rate steps for quick runs.
        RateProfile::paper_bursty().compressed(4.0)
    };
    let trace = std::sync::Arc::new(profile.generate(&mut DeterministicRng::seeded(99)));
    println!("trace: {} requests over {}", trace.len(), profile.horizon());
    for platform in [PlatformKind::BaselineCpu, PlatformKind::DscsDsa] {
        let report = Experiment::builder(platform)
            .trace(trace.clone())
            .seed(7)
            .build()
            .expect("the Figure-13 replay is a valid experiment")
            .run()
            .report;
        println!("\n{}:", platform.name());
        println!(
            "  completed {} rejected {}",
            report.completed, report.rejected
        );
        println!(
            "  mean wall-clock latency: {:.1} ms",
            report.mean_latency_ms()
        );
        println!("  peak queued functions:   {:.0}", report.peak_queue());
        println!(
            "  per-minute offered rps:  {:?}",
            round_vec(&report.offered_rps)
        );
        println!("  per-minute queued:       {:?}", round_vec(&report.queued));
        println!(
            "  per-minute latency (ms): {:?}",
            round_vec(&report.latency_ms)
        );
    }
}

fn round_vec(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 10.0).round() / 10.0).collect()
}

fn sensitivity(points: &[exp::SensitivityPoint], label: &str) {
    let mut params: Vec<f64> = points.iter().map(|p| p.parameter).collect();
    params.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    params.dedup();
    println!("{:<12} {:>18}", label, "geomean speedup");
    for param in params {
        let values: Vec<f64> = points
            .iter()
            .filter(|p| p.parameter == param)
            .map(|p| p.speedup)
            .collect();
        println!("{:<12} {:>18.2}", param, geometric_mean(&values));
    }
}

fn fig14() {
    header("Figure 14: batch-size sensitivity (DSCS vs baseline, same batch)");
    sensitivity(&exp::fig14_batch_sensitivity(), "batch");
}

fn fig15() {
    header("Figure 15: storage-access tail-latency sensitivity");
    sensitivity(&exp::fig15_tail_sensitivity(), "quantile");
}

fn fig16() {
    header("Figure 16: sensitivity to the number of accelerated functions");
    sensitivity(&exp::fig16_function_count_sensitivity(), "+functions");
}

fn fig17() {
    header("Figure 17: cold vs warm containers");
    sensitivity(&exp::fig17_cold_start_sensitivity(), "cold=1");
}

/// `reproduce at-scale [--scale NAME] [--seed N] [--racks N] [--jobs N]
/// [--rack-jobs N] [--balancer NAME] [--out PATH]`: the scheduler x
/// keepalive x platform x workload policy sweep, fanned across worker
/// threads (and, per round-robin cell, across rack worker threads) and
/// written as a machine-readable JSON report with measured engine
/// throughput.
fn at_scale(args: &[String]) {
    let usage = "usage: reproduce at-scale \
                 [--scale smoke|quick|full|large|large-smoke|large-quick] \
                 [--seed N] [--racks N] [--jobs N] [--rack-jobs N] \
                 [--balancer round-robin|least-loaded|locality] \
                 [--cold-path fresh|flash|snapshot]... [--ipc shm|socket|http]... \
                 [--workload azure|bursty|trace:<path>[@<day>]]... [--out PATH]";
    // The scale picks the size and the rack count; --seed and --racks
    // override them wherever they sit.
    let mut preset: Option<(AtScaleOptions, bool)> = None;
    let mut seed: Option<u64> = None;
    let mut racks: Option<u32> = None;
    let mut out_path = String::from("BENCH_cluster.json");
    let mut workload_args: Vec<String> = Vec::new();
    let mut cold_path_args: Vec<ColdStartPath> = Vec::new();
    let mut ipc_args: Vec<IpcTransport> = Vec::new();
    let mut balancer: Option<LoadBalancer> = None;
    let mut jobs: Option<usize> = None;
    let mut rack_jobs: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| {
            iter.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--scale" => {
                let name = value_of("--scale");
                // The bool marks the large preset, which restricts the
                // policy grid to one point (the sweep below is sized for a
                // full cartesian product, not 10⁷-invocation traces) and
                // moves the worker budget inside the cell. `large-smoke`
                // lets CI exercise that grid without the 10⁷ trace, and
                // `large-quick` is the single-cell rack-parallel speedup
                // measurement CI prints.
                let large = |scale| AtScaleOptions {
                    scale,
                    ..AtScaleOptions::full()
                };
                let named = match name.as_str() {
                    "smoke" => (AtScaleOptions::smoke(), false),
                    "quick" => (AtScaleOptions::quick(), false),
                    "full" => (AtScaleOptions::full(), false),
                    "large" => (large(SweepScale::Large), true),
                    "large-smoke" => (large(SweepScale::Smoke), true),
                    "large-quick" => (large(SweepScale::Quick), true),
                    _ => {
                        eprintln!(
                            "--scale must be smoke, quick, full, large, \
                             large-smoke or large-quick"
                        );
                        std::process::exit(2);
                    }
                };
                if preset.replace(named).is_some() {
                    eprintln!("--scale given twice; name one scale");
                    eprintln!("{usage}");
                    std::process::exit(2);
                }
            }
            "--jobs" => {
                jobs = Some(value_of("--jobs").parse().unwrap_or_else(|_| {
                    eprintln!("--jobs must be a non-negative integer (0 = all cores)");
                    std::process::exit(2);
                }));
            }
            "--rack-jobs" => {
                rack_jobs = Some(value_of("--rack-jobs").parse().unwrap_or_else(|_| {
                    eprintln!(
                        "--rack-jobs must be a non-negative integer \
                         (0 = split the core budget, 1 = inline)"
                    );
                    std::process::exit(2);
                }));
            }
            "--seed" => {
                seed = Some(value_of("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed must be an integer");
                    std::process::exit(2);
                }));
            }
            "--racks" => {
                racks = match value_of("--racks").parse() {
                    Ok(0) | Err(_) => {
                        eprintln!("--racks must be a positive integer");
                        std::process::exit(2);
                    }
                    Ok(n) => Some(n),
                };
            }
            "--out" => out_path = value_of("--out"),
            "--workload" => workload_args.push(value_of("--workload")),
            "--cold-path" => {
                let name = value_of("--cold-path");
                cold_path_args.push(ColdStartPath::from_name(&name).unwrap_or_else(|| {
                    eprintln!(
                        "--cold-path must be one of: {}",
                        ColdStartPath::ALL.map(|p| p.name()).join(", ")
                    );
                    std::process::exit(2);
                }));
            }
            "--ipc" => {
                let name = value_of("--ipc");
                ipc_args.push(IpcTransport::from_name(&name).unwrap_or_else(|| {
                    eprintln!(
                        "--ipc must be one of: {}",
                        IpcTransport::ALL.map(|t| t.name()).join(", ")
                    );
                    std::process::exit(2);
                }));
            }
            "--balancer" => {
                let name = value_of("--balancer");
                balancer = Some(
                    LoadBalancer::ALL
                        .into_iter()
                        .find(|b| b.name() == name)
                        .unwrap_or_else(|| {
                            eprintln!(
                                "--balancer must be one of: {}",
                                LoadBalancer::ALL.map(|b| b.name()).join(", ")
                            );
                            std::process::exit(2);
                        }),
                );
            }
            other => {
                eprintln!("unknown at-scale option '{other}'");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }

    // The full-size sweep is the default.
    let (mut options, large_preset) = preset.unwrap_or((AtScaleOptions::full(), false));
    options.seed = seed.unwrap_or(options.seed);
    options.racks = racks.unwrap_or(options.racks);
    let mut spec = SweepSpec::from(options);
    if large_preset {
        // One policy point over the azure workload: the preset exists to
        // exercise the single-cell rack-parallel engine at scale, not to
        // multiply a 10⁷-invocation trace by a 100-cell policy grid.
        spec.workloads = vec![WorkloadSpec::Azure {
            scale: options.scale,
            seed: options.seed,
        }];
        spec.schedulers = vec![SchedulerPolicy::Fcfs];
        spec.keepalives = vec![KeepalivePolicy::HybridHistogram];
        spec.scalings = vec![ScalingPolicy::Reactive];
        spec.balancers = vec![LoadBalancer::RoundRobin];
        // With so few cells the parallelism belongs inside each cell: one
        // sweep worker, rack workers across the whole core budget.
        spec.jobs = 1;
        spec.rack_jobs = 0;
    }
    // Flags given on the command line override the defaults and the preset.
    if let Some(balancer) = balancer {
        spec.balancers = vec![balancer];
    }
    if let Some(jobs) = jobs {
        spec.jobs = jobs;
    }
    if let Some(rack_jobs) = rack_jobs {
        spec.rack_jobs = rack_jobs;
    }
    // The repeatable modality flags replace the default single-valued axes
    // (first occurrence wins on duplicates, so the grid never double-counts
    // a cell).
    if !cold_path_args.is_empty() {
        spec.cold_paths.clear();
        for path in cold_path_args {
            if !spec.cold_paths.contains(&path) {
                spec.cold_paths.push(path);
            }
        }
    }
    if !ipc_args.is_empty() {
        spec.ipcs.clear();
        for ipc in ipc_args {
            if !spec.ipcs.contains(&ipc) {
                spec.ipcs.push(ipc);
            }
        }
    }
    if !workload_args.is_empty() {
        spec.workloads = workload_args
            .iter()
            .map(|text| {
                WorkloadSpec::parse(text, options.scale, options.seed).unwrap_or_else(|err| {
                    eprintln!("--workload {text}: {err}");
                    std::process::exit(2);
                })
            })
            .collect();
    }
    let jobs = spec.effective_jobs();
    let rack_jobs = spec.effective_rack_jobs(jobs);
    header(&format!(
        "At-scale policy sweep ({}{}, {} racks, {} balancer, seed {}, \
         {} worker{} x {} rack worker{})",
        options.scale.name(),
        if large_preset { ", large preset" } else { "" },
        options.racks,
        spec.balancer_label(),
        options.seed,
        jobs,
        if jobs == 1 { "" } else { "s" },
        rack_jobs,
        if rack_jobs == 1 { "" } else { "s" }
    ));
    if options.scale == SweepScale::Full {
        println!("running the full 20-minute traces; pass --scale quick for a fast run");
    }
    if options.scale == SweepScale::Large {
        println!("running the 10⁷-invocation large preset; this takes a while");
    }
    let report = spec.run().unwrap_or_else(|err| {
        eprintln!("at-scale sweep rejected: {err}");
        std::process::exit(1);
    });
    for w in &report.workloads {
        println!(
            "workload {:<8} {:>9} requests over {:>7.1} s  [{}]",
            w.name, w.requests, w.horizon_s, w.source
        );
    }
    println!(
        "\n{:<8} {:<18} {:<6} {:<16} {:<10} {:<12} {:<8} {:<6} {:>9} {:>8} {:>9} {:>10} \
         {:>9} {:>10} {:>9} {:>7} {:>10} {:>10}",
        "workload",
        "platform",
        "sched",
        "keepalive",
        "scaling",
        "balancer",
        "path",
        "ipc",
        "completed",
        "cold",
        "regret %",
        "prewarm %",
        "local %",
        "xrack MiB",
        "fetch J",
        "peak",
        "mean ms",
        "p99 ms"
    );
    for c in &report.cells {
        println!(
            "{:<8} {:<18} {:<6} {:<16} {:<10} {:<12} {:<8} {:<6} {:>9} {:>8} {:>9.1} {:>10.2} \
             {:>9.2} {:>10.1} {:>9.1} {:>7} {:>10.1} {:>10.1}",
            c.workload,
            c.platform.name(),
            c.scheduler.name(),
            c.keepalive.name(),
            c.scaling.name(),
            c.balancer.name(),
            c.cold_path.name(),
            c.ipc.name(),
            c.completed,
            c.cold_starts,
            c.regret_pct * 100.0,
            c.prewarm_hit_rate * 100.0,
            c.locality_hit_rate * 100.0,
            c.cross_rack_bytes as f64 / (1024.0 * 1024.0),
            c.fetch_energy_j,
            c.peak_instances,
            c.mean_latency_ms,
            c.p99_latency_ms
        );
    }
    // The headline comparison the snapshot modality exists to answer: does
    // proactive prewarming on the classic flash path still beat fast
    // restore, or has restore crossed over? Shown whenever the sweep covers
    // both paths, comparing each path's cheapest cell on aggregate
    // cold-start seconds.
    let best_under = |path: ColdStartPath| {
        report
            .cells
            .iter()
            .filter(|c| c.cold_path == path)
            .min_by(|a, b| a.coldstart_s.total_cmp(&b.coldstart_s))
    };
    if let (Some(prewarm), Some(restore)) = (
        best_under(ColdStartPath::FlashReload),
        best_under(ColdStartPath::SnapshotRestore),
    ) {
        let winner = if restore.coldstart_s < prewarm.coldstart_s {
            "snapshot restore wins"
        } else {
            "prewarming wins"
        };
        println!(
            "\nprewarm vs restore crossover: best flash cell {:.2} s cold-start \
             ({}/{}) vs best snapshot cell {:.2} s ({} restore) — {}",
            prewarm.coldstart_s,
            prewarm.keepalive.name(),
            prewarm.scaling.name(),
            restore.coldstart_s,
            format_args!("{:.2} s", restore.restore_s),
            winner
        );
    }
    let validation = report.cross_validation();
    if !validation.is_empty() {
        println!("\ncross-validation (synthetic vs trace-file, matched cells):");
        for v in &validation {
            println!(
                "  {} vs {}: rate {:+.1}%  mean {:+.1}%  p99 {:+.1}%  locality {:+.3}  \
                 regret {:+.3}  ({} cell{})",
                v.synthetic,
                v.trace,
                v.rate_delta_pct,
                v.mean_delta_pct,
                v.p99_delta_pct,
                v.locality_delta,
                v.regret_delta,
                v.cells,
                if v.cells == 1 { "" } else { "s" }
            );
        }
    }
    println!(
        "\nengine: {} events in {:.2} s wall ({:.0} events/s across {} worker{})",
        report.total_events(),
        report.wall_s.get(),
        report.events_per_sec(),
        jobs,
        if jobs == 1 { "" } else { "s" }
    );
    // Ship the throughput-annotated variant: CI's rack-parallel speedup step
    // reads the measured events_per_sec; byte-for-byte comparisons strip
    // those keys or use to_json().
    let json = report.to_json_with_throughput();
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {} cells to {out_path}", report.cells.len()),
        Err(err) => {
            eprintln!("failed to write {out_path}: {err}");
            std::process::exit(1);
        }
    }
}

/// `reproduce generate-trace [--scale smoke|quick|full|large] [--seed N]
/// [--out PATH]` or `reproduce generate-trace --from CSV [--day N] [--out
/// PATH]`: emit an Azure-Functions-2019-schema invocation CSV. The first form
/// buckets a synthetic `AzureWorkload` trace (the checked-in sample's
/// ~200-function configuration unless `--scale` names a sweep's); the second
/// ingests an existing trace file and re-emits it, which CI uses to pin the
/// generate → parse → re-emit byte round trip.
fn generate_trace(args: &[String]) {
    let usage = "usage: reproduce generate-trace [--scale smoke|quick|full|large] [--seed N] \
                 [--out PATH] | --from CSV [--day N] [--out PATH]";
    let mut scale: Option<SweepScale> = None;
    let mut seed: Option<u64> = None;
    let mut out_path = String::from("azure_trace.csv");
    let mut from: Option<String> = None;
    let mut day: Option<u32> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| {
            iter.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--scale" => {
                let name = value_of("--scale");
                scale = Some(match name.as_str() {
                    "smoke" => SweepScale::Smoke,
                    "quick" => SweepScale::Quick,
                    "full" => SweepScale::Full,
                    "large" => SweepScale::Large,
                    _ => {
                        eprintln!("--scale must be smoke, quick, full or large");
                        std::process::exit(2);
                    }
                });
            }
            "--seed" => {
                seed = Some(value_of("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed must be an integer");
                    std::process::exit(2);
                }));
            }
            "--out" => out_path = value_of("--out"),
            "--from" => from = Some(value_of("--from")),
            "--day" => {
                let parsed = value_of("--day").parse().unwrap_or(0);
                if parsed == 0 {
                    eprintln!("--day must be a positive integer");
                    std::process::exit(2);
                }
                day = Some(parsed);
            }
            other => {
                eprintln!("unknown generate-trace option '{other}'");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
    // Each form takes only its own options.
    let conflict = if from.is_some() {
        [("--scale", scale.is_some()), ("--seed", seed.is_some())]
            .into_iter()
            .find(|&(_, given)| given)
            .map(|(flag, _)| format!("--from does not take {flag}"))
    } else if day.is_some() {
        Some("--day needs --from".to_string())
    } else {
        None
    };
    if let Some(conflict) = conflict {
        eprintln!("{conflict}");
        eprintln!("{usage}");
        std::process::exit(2);
    }
    let seed = seed.unwrap_or(42);

    header("Generate Azure-schema invocation trace");
    let trace_file = if let Some(path) = &from {
        match TraceFileWorkload::from_csv_path(path, day.unwrap_or(1)) {
            Ok(parsed) => {
                println!(
                    "ingested {path}: {} functions x {} minute columns, {} invocations",
                    parsed.functions.len(),
                    parsed.minutes,
                    parsed.invocations()
                );
                parsed
            }
            Err(err) => {
                eprintln!("failed to ingest {path}: {err}");
                std::process::exit(1);
            }
        }
    } else {
        let workload = match scale {
            Some(scale) => WorkloadSpec::azure_at(scale),
            None => sample_workload(),
        };
        // Bucket from exactly the RNG stream the at-scale sweep generates the
        // azure workload with, so the emitted file round-trips the run.
        let mut rng = azure_generation_rng(seed);
        match TraceFileWorkload::from_workload(&workload, &mut rng, out_path.clone()) {
            Ok(bucketed) => {
                println!(
                    "generated {} functions x {} minute columns, {} invocations (seed {seed})",
                    bucketed.functions.len(),
                    bucketed.minutes,
                    bucketed.invocations()
                );
                bucketed
            }
            Err(err) => {
                eprintln!("the workload rejected generation: {err}");
                std::process::exit(1);
            }
        }
    };
    match std::fs::write(&out_path, trace_file.to_csv()) {
        Ok(()) => println!("wrote {out_path}"),
        Err(err) => {
            eprintln!("failed to write {out_path}: {err}");
            std::process::exit(1);
        }
    }
}
