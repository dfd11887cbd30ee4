//! The repository benchmark: host time of the at-scale sweep on three fixed
//! workloads, end to end and layer by layer.
//!
//! Each workload is a closed batch of one `SweepSpec::run` with one sweep
//! worker, seeded from `--seed`. Every sweep runs in a fresh child process
//! (this executable, re-run with `--child`), so wall time, set-up time and
//! peak RSS belong to that sweep alone. A run repeats the sweep while one
//! more still fits in `--seconds` (always at least once) and reports medians.
//! With `--trace 1` every repetition also replays the sweep call by call in a
//! second child, timing each layer as a span. Simulated statistics are
//! deterministic, so they serve as correctness checks, never as metrics; the
//! model has no real-hardware reference here, so no accuracy error is
//! reported.
//!
//! Run from the repository root with:
//! `cargo run --release --manifest-path benchmark/Cargo.toml --
//! [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]`
//!
//! It prints one `workload metric value unit` line per metric, writes
//! `target/benchmark/results.json` (and `trace-<workload>.json` when
//! traced), and ends with one JSON line: `correct`, `attempted` and `failed`
//! cells, and the metrics `BENCHMARK.json` lists. It exits non-zero when any
//! cell failed.

#![deny(deprecated)]

mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dscs_simcore::json::JsonValue;

use spans::{attributed_s, self_times, Span, Tracer};
use stats::{peak_rss_kib, percentile, tail_percentile, Summary};
use sweep::{Replay, SweepRun, Workload};

const USAGE: &str = "usage: benchmark [--workload grid-smoke|azure100k-rr|azure100k-locality]... \
                     [--seed N] [--seconds S] [--trace 0|1]";

const OUT_DIR: &str = "target/benchmark";

/// The benchmark's definition. Its `end_to_end` and `per_layer` lists name
/// the metrics the last line reports; every other metric is printed and
/// written to `results.json` only.
const BENCHMARK_JSON: &str = include_str!("../BENCHMARK.json");

/// The metric names `BENCHMARK.json` lists under `section`.
fn listed_metrics(section: &str) -> Vec<String> {
    let definition = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    definition
        .get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|metric| Some(metric.get("name")?.as_str()?.to_string()))
        .collect()
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Set in a child process: the workload it runs, and whether as a replay.
    child: Option<(Workload, bool)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 0.0,
        traced: false,
        child: None,
    };
    let mut replay = false;
    let mut child = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        let workload =
            |name: String| Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"));
        match arg.as_str() {
            "--workload" => parsed.workloads.push(workload(value("--workload")?)?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a non-negative integer".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds must be a non-negative number")?;
            }
            "--trace" => {
                parsed.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            // Internal: how the benchmark re-runs itself for one sweep.
            "--child" => child = Some(workload(value("--child")?)?),
            "--replay" => replay = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::ALL.to_vec();
    }
    parsed.child = child.map(|w| (w, replay));
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some((workload, replay)) => run_child(workload, args.seed, replay),
        None => run_parent(&args),
    }
}

// ---------------------------------------------------------------- child ---

fn run_json(run: &SweepRun) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("digest", format!("{:016x}", run.digest));
    obj.push("failed", run.failed);
    obj.push("events", run.events);
    obj.push("setup_s", run.setup_s);
    obj
}

fn run_from_json(value: &JsonValue) -> Option<SweepRun> {
    Some(SweepRun {
        digest: u64::from_str_radix(value.get("digest")?.as_str()?, 16).ok()?,
        failed: value.get("failed")?.as_u64()? as usize,
        events: value.get("events")?.as_u64()?,
        setup_s: value.get("setup_s")?.as_f64()?,
    })
}

/// One sweep in this process, reported to the parent as one JSON line. The
/// report is freed before peak RSS is read, so the child's whole life is
/// measured.
fn run_child(workload: Workload, seed: u64, replay: bool) -> ExitCode {
    let scale = workload.scale();
    let line = if replay {
        let mut tracer = Tracer::new();
        let root = tracer.enter("replay", None);
        let result = sweep::replay(workload, scale, seed, &mut tracer);
        let Replay { run, counters } = match result {
            Ok(replayed) => replayed,
            Err(err) => {
                eprintln!("{}: sweep rejected: {err}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        tracer.exit(root);
        let mut line = run_json(&run);
        let mut values = JsonValue::object();
        for (name, value) in counters {
            values.push(name, value);
        }
        line.push("counters", values);
        line.push(
            "spans",
            JsonValue::Array(tracer.into_spans().iter().map(Span::to_json).collect()),
        );
        line
    } else {
        let mut line = match sweep::run_sweep(workload, scale, seed) {
            Ok(run) => run_json(&run),
            Err(err) => {
                eprintln!("{}: sweep rejected: {err}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        if let Some(kib) = peak_rss_kib() {
            line.push("peak_rss_kib", kib);
        }
        line
    };
    println!("{}", line.render());
    ExitCode::SUCCESS
}

// --------------------------------------------------------------- parent ---

/// Runs one child for `workload` and returns its wall time, from spawn to
/// exit, with the JSON line it printed.
fn spawn_child(workload: Workload, seed: u64, replay: bool) -> (f64, Result<JsonValue, String>) {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            return (
                0.0,
                Err(format!("cannot locate the benchmark executable: {err}")),
            )
        }
    };
    let mut command = Command::new(exe);
    command
        .args(["--child", workload.name(), "--seed", &seed.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if replay {
        command.arg("--replay");
    }
    let started = Instant::now();
    let output = command.output();
    let wall_s = started.elapsed().as_secs_f64();
    let parsed = match output {
        Err(err) => Err(format!("could not run the child: {err}")),
        Ok(out) if !out.status.success() => Err(format!("child {}", out.status)),
        Ok(out) => String::from_utf8_lossy(&out.stdout)
            .lines()
            .last()
            .ok_or_else(|| "child printed nothing".to_string())
            .and_then(|line| JsonValue::parse(line).map_err(|e| format!("child output: {e}"))),
    };
    (wall_s, parsed)
}

/// A reported metric: the summary of its samples over a run, and its unit.
struct Metric {
    name: String,
    unit: &'static str,
    summary: Summary,
}

/// Each metric's samples over a run, by name.
#[derive(Default)]
struct Samples(BTreeMap<String, (&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0
            .entry(name.into())
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    fn median(&self, name: &str) -> Option<f64> {
        Some(Summary::of(&self.0.get(name)?.1)?.median)
    }

    fn metrics(&self) -> Vec<Metric> {
        self.0
            .iter()
            .filter_map(|(name, (unit, values))| {
                Some(Metric {
                    name: name.clone(),
                    unit,
                    summary: Summary::of(values)?,
                })
            })
            .collect()
    }
}

struct Measurement {
    workload: Workload,
    sweeps: usize,
    replays: usize,
    attempted: usize,
    failed: usize,
    digest: Option<u64>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// Sweeps `workload` in fresh children, each followed by a replay when
/// `traced`, until one more round would pass `seconds` (at least once).
fn measure(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Measurement {
    let cells = workload.cells();
    let mut m = Measurement {
        workload,
        sweeps: 0,
        replays: 0,
        attempted: 0,
        failed: 0,
        digest: None,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    let mut end_to_end = Samples::default();
    let mut layers = Samples::default();
    let mut replay_wall = Vec::new();
    let mut last_spans = None;
    let started = Instant::now();
    let mut slowest_s: f64 = 0.0;
    loop {
        let round = Instant::now();
        m.sweeps += 1;
        m.attempted += cells;
        match sweep_sample(spawn_child(workload, seed, false), &mut m.digest) {
            Ok((run, wall_s, peak_kib)) => {
                m.failed += run.failed;
                sweep_metrics(&run, wall_s, peak_kib, &mut end_to_end);
            }
            Err(message) => {
                eprintln!("{}: {message}", workload.name());
                m.failed += cells;
            }
        }
        if traced {
            m.replays += 1;
            m.attempted += cells;
            let (wall_s, output) = spawn_child(workload, seed, true);
            match replay_sample(output, m.digest, wall_s, &mut layers) {
                Ok(spans) => {
                    replay_wall.push(wall_s);
                    last_spans = Some((wall_s, spans));
                }
                Err(message) => {
                    eprintln!("{}: replay: {message}", workload.name());
                    m.failed += cells;
                }
            }
        }
        slowest_s = slowest_s.max(round.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + slowest_s > seconds {
            break;
        }
    }
    if let (Some(traced_s), Some(untraced_s)) = (
        Summary::of(&replay_wall).map(|s| s.median),
        end_to_end.median("wall_s"),
    ) {
        layers.push(
            "trace.overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
        );
    }
    if let Some((wall_s, spans)) = last_spans {
        if let Err(message) = write_trace(workload, seed, wall_s, &spans) {
            eprintln!("{message}");
            m.failed += cells;
        }
    }
    end_to_end.push(
        "failed_frac",
        m.failed as f64 / m.attempted as f64,
        "fraction",
    );
    m.end_to_end = end_to_end.metrics();
    m.per_layer = layers.metrics();
    m
}

/// One untraced sweep's outcome, with its wall time and peak RSS in KiB.
/// Fails when the child failed or its report digest differs from the run's
/// first.
fn sweep_sample(
    (wall_s, output): (f64, Result<JsonValue, String>),
    digest: &mut Option<u64>,
) -> Result<(SweepRun, f64, Option<f64>), String> {
    let line = output?;
    let run = run_from_json(&line).ok_or("malformed child output")?;
    if *digest.get_or_insert(run.digest) != run.digest {
        return Err("repeated sweep changed its report digest".into());
    }
    let peak_kib = line.get("peak_rss_kib").and_then(JsonValue::as_f64);
    Ok((run, wall_s, peak_kib))
}

/// Adds one sweep's end-to-end metrics to `end_to_end`: its child's wall
/// time from spawn to exit, events per second of that time, set-up time and
/// peak RSS.
fn sweep_metrics(run: &SweepRun, wall_s: f64, peak_kib: Option<f64>, end_to_end: &mut Samples) {
    end_to_end.push("wall_s", wall_s, "s");
    end_to_end.push("events_per_s", run.events as f64 / wall_s, "1/s");
    end_to_end.push("setup_s", run.setup_s, "s");
    if let Some(kib) = peak_kib {
        end_to_end.push("peak_rss_mib", kib / 1024.0, "MiB");
    }
}

/// Adds one replay's per-layer metrics to `layers` and returns its spans.
/// Fails unless the replay's report digest equals the untraced sweep's and
/// every cell passed.
fn replay_sample(
    output: Result<JsonValue, String>,
    digest: Option<u64>,
    wall_s: f64,
    layers: &mut Samples,
) -> Result<Vec<Span>, String> {
    let line = output?;
    let run = run_from_json(&line).ok_or("malformed replay output")?;
    if Some(run.digest) != digest {
        return Err(format!(
            "report digest {:016x} differs from the untraced sweep's",
            run.digest
        ));
    }
    if run.failed > 0 {
        return Err(format!("{} replayed cells failed their checks", run.failed));
    }
    let spans: Vec<Span> = line
        .get("spans")
        .and_then(JsonValue::as_array)
        .ok_or("replay printed no spans")?
        .iter()
        .map(Span::from_json)
        .collect::<Option<_>>()
        .ok_or("malformed span")?;
    let counters = line.get("counters").ok_or("replay printed no counters")?;
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    layer_metrics(&spans, &counter, wall_s, layers);
    Ok(spans)
}

/// Adds the per-layer metrics of one replay to `layers`: each layer's self
/// time, counts and rates, the modelled counters, and the share of the
/// child's `wall_s` the spans name.
fn layer_metrics(spans: &[Span], counter: &dyn Fn(&str) -> f64, wall_s: f64, layers: &mut Samples) {
    let own = self_times(spans);
    let self_s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let rate = |events: f64, seconds: f64| if seconds > 0.0 { events / seconds } else { 0.0 };
    let mut add = |name: &str, value: f64, unit: &'static str| layers.push(name, value, unit);
    add("workload.realize_s", self_s("workload.realize"), "s");
    add("workload.requests", counter("workload.requests"), "count");
    add("workload.trace_mib", counter("workload.trace_mib"), "MiB");
    add("workload.drop_s", self_s("workload.drop"), "s");
    add("data.place_s", self_s("data.place"), "s");
    add("data.objects", counter("data.objects"), "count");
    add("data.drop_s", self_s("data.drop"), "s");
    add("optimal.bound_s", self_s("optimal.bound"), "s");
    add("optimal.bounds", counter("optimal.bounds"), "count");
    add("sim.model_s", self_s("sim.model"), "s");
    add("experiment.build_s", self_s("experiment.build"), "s");
    for engine in ["sim.lanes", "sim.coupled"] {
        let events = counter(&format!("{engine}_events"));
        add(&format!("{engine}_s"), self_s(engine), "s");
        add(&format!("{engine}_events"), events, "count");
        add(
            &format!("{engine}_events_per_s"),
            rate(events, self_s(engine)),
            "1/s",
        );
    }
    let engine_s = self_s("sim.lanes") + self_s("sim.coupled");
    let engine_events = counter("sim.lanes_events") + counter("sim.coupled_events");
    add("sim.engine_s", engine_s, "s");
    add(
        "sim.engine_events_per_s",
        rate(engine_events, engine_s),
        "1/s",
    );
    let mut cell_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sim.lanes" || s.name == "sim.coupled")
        .map(|s| s.duration_s() * 1e3)
        .collect();
    cell_ms.sort_by(f64::total_cmp);
    if let Some(&max) = cell_ms.last() {
        add("sim.cell_ms_p50", percentile(&cell_ms, 50), "ms");
        match tail_percentile(cell_ms.len()) {
            Some(p) => add(&format!("sim.cell_ms_p{p}"), percentile(&cell_ms, p), "ms"),
            None => {
                add("sim.cell_ms_max", max, "ms");
                add("sim.cell_n", cell_ms.len() as f64, "count");
            }
        }
    }
    add("at_scale.cell_s", self_s("at_scale.cell"), "s");
    add("at_scale.render_s", self_s("at_scale.render"), "s");
    add("at_scale.json_kib", counter("at_scale.json_kib"), "KiB");
    for (name, unit) in [
        ("sim.completed", "count"),
        ("sim.rejected", "count"),
        ("sim.cold_starts", "count"),
        ("policy.prewarm_hits", "count"),
        ("policy.scale_ups", "count"),
        ("policy.wasted_warm_s", "s"),
        ("data.locality_hit_rate", "fraction"),
        ("data.cross_rack_mib", "MiB"),
        ("optimal.regret_pct_mean", "%"),
    ] {
        add(name, counter(name), unit);
    }
    add(
        "trace.attributed_frac",
        attributed_s(spans) / wall_s,
        "fraction",
    );
}

/// Writes one replay's spans to `target/benchmark/trace-<workload>.json`.
fn write_trace(workload: Workload, seed: u64, wall_s: f64, spans: &[Span]) -> Result<(), String> {
    let mut trace = JsonValue::object();
    trace.push("workload", workload.name());
    trace.push("seed", seed);
    trace.push("child_wall_s", wall_s);
    trace.push(
        "spans",
        JsonValue::Array(spans.iter().map(Span::to_json).collect()),
    );
    write_out(&format!("trace-{}.json", workload.name()), &trace.render())
}

fn write_out(file: &str, contents: &str) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(file);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|err| format!("cannot write {}: {err}", path.display()))
}

fn metric_json(metric: &Metric) -> JsonValue {
    let s = metric.summary;
    let mut obj = JsonValue::object();
    obj.push("median", s.median);
    obj.push("min", s.min);
    obj.push("max", s.max);
    if let Some((q1, q3)) = s.quartiles {
        obj.push("q1", q1);
        obj.push("q3", q3);
    }
    obj.push("n", s.n);
    obj.push("unit", metric.unit);
    obj
}

/// `target/benchmark/results.json`, in the aetherless results layout: one
/// result per workload and kind of metric, with `system_info`.
fn results_json(measurements: &[Measurement], seed: u64) -> String {
    let mut system = JsonValue::object();
    system.push(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    system.push("os", std::env::consts::OS);
    system.push("arch", std::env::consts::ARCH);
    let mut results = Vec::new();
    for m in measurements {
        for (kind, metrics, iterations) in [
            ("end-to-end", &m.end_to_end, m.sweeps),
            ("per-layer", &m.per_layer, m.replays),
        ] {
            if metrics.is_empty() {
                continue;
            }
            let mut values = JsonValue::object();
            for metric in metrics {
                values.push(metric.name.as_str(), metric_json(metric));
            }
            let mut metadata = JsonValue::object();
            metadata.push("seed", seed);
            metadata.push("cells_attempted", m.attempted);
            metadata.push("cells_failed", m.failed);
            if let Some(digest) = m.digest {
                metadata.push("report_digest", format!("{digest:016x}"));
            }
            let mut result = JsonValue::object();
            result.push("name", format!("{}/{kind}", m.workload.name()));
            result.push("category", m.workload.name());
            result.push("iterations", iterations);
            result.push("metrics", values);
            result.push("metadata", metadata);
            results.push(result);
        }
    }
    let mut root = JsonValue::object();
    root.push("benchmark_suite", "dscs-serverless-benchmark");
    root.push("version", env!("CARGO_PKG_VERSION"));
    root.push("system_info", system);
    root.push("results", JsonValue::Array(results));
    root.render()
}

fn run_parent(args: &Args) -> ExitCode {
    let mut measurements = Vec::new();
    for &workload in &args.workloads {
        let m = measure(workload, args.seed, args.seconds, args.traced);
        println!(
            "# {}: seed {}, {} sweep(s), {} replay(s), report digest {}",
            workload.name(),
            args.seed,
            m.sweeps,
            m.replays,
            m.digest.map_or("none".to_string(), |d| format!("{d:016x}"))
        );
        for metric in m.end_to_end.iter().chain(&m.per_layer) {
            println!(
                "{} {} {} {}",
                workload.name(),
                metric.name,
                metric.summary.median,
                metric.unit
            );
        }
        measurements.push(m);
    }
    let failed: usize = measurements.iter().map(|m| m.failed).sum();
    let written = write_out("results.json", &results_json(&measurements, args.seed))
        .map_err(|message| eprintln!("{message}"))
        .is_ok();
    let correct = failed == 0 && written;

    // The last line: the metrics BENCHMARK.json lists, per-layer on a traced
    // run and end-to-end otherwise. Keys carry the workload name when more
    // than one ran.
    let reported = listed_metrics(if args.traced {
        "per_layer"
    } else {
        "end_to_end"
    });
    let mut metrics = JsonValue::object();
    for m in &measurements {
        let all = m.end_to_end.iter().chain(&m.per_layer);
        for metric in all.filter(|metric| reported.contains(&metric.name)) {
            let mut value = JsonValue::object();
            value.push("value", metric.summary.median);
            value.push("unit", metric.unit);
            let key = if measurements.len() == 1 {
                metric.name.clone()
            } else {
                format!("{}/{}", m.workload.name(), metric.name)
            };
            metrics.push(key, value);
        }
    }
    let mut last = JsonValue::object();
    last.push("correct", correct);
    last.push(
        "attempted",
        measurements.iter().map(|m| m.attempted).sum::<usize>(),
    );
    last.push("failed", failed);
    last.push("metrics", metrics);
    println!("{}", last.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscs_cluster::at_scale::SweepScale;

    /// Every metric `BENCHMARK.json` lists is one the benchmark produces on
    /// every workload, with the unit the file gives it.
    #[test]
    fn benchmark_json_lists_only_metrics_the_benchmark_produces() {
        let definition = JsonValue::parse(BENCHMARK_JSON).expect("valid JSON");
        let units = |section: &str| -> Vec<(String, String)> {
            definition
                .get(section)
                .and_then(JsonValue::as_array)
                .expect("section present")
                .iter()
                .map(|m| {
                    let field = |key| m.get(key).and_then(JsonValue::as_str).expect("string");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let produces = |samples: &Samples, (name, unit): &(String, String)| {
            samples.0.get(name).is_some_and(|(u, _)| u == unit)
        };
        let mut end_to_end = Samples::default();
        let run = SweepRun {
            digest: 0,
            failed: 0,
            events: 1,
            setup_s: 1.0,
        };
        sweep_metrics(&run, 1.0, Some(1024.0), &mut end_to_end);
        for metric in units("end_to_end") {
            assert!(produces(&end_to_end, &metric), "{metric:?}");
        }
        for workload in Workload::ALL {
            let mut tracer = Tracer::new();
            let root = tracer.enter("replay", None);
            let replayed =
                sweep::replay(workload, SweepScale::Smoke, 42, &mut tracer).expect("valid spec");
            tracer.exit(root);
            let spans = tracer.into_spans();
            let counter = |name: &str| replayed.counters.get(name).copied().unwrap_or(0.0);
            let mut layers = Samples::default();
            layer_metrics(&spans, &counter, spans[root].duration_s(), &mut layers);
            // Derived after the run, from the traced and untraced wall times.
            layers.push("trace.overhead_pct", 0.0, "%");
            for metric in units("per_layer") {
                assert!(
                    produces(&layers, &metric),
                    "{}: {metric:?}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn arguments_take_the_trace_flag_and_reject_the_rest() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        let args = parse(&[
            "--workload",
            "grid-smoke",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(args.workloads, vec![Workload::GridSmoke]);
        assert_eq!((args.seed, args.seconds, args.traced), (7, 10.0, true));
        assert!(args.child.is_none());
        assert_eq!(
            parse(&[]).expect("defaults").workloads,
            Workload::ALL.to_vec()
        );
        assert!(parse(&["--verbose"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--workload", "large"]).is_err());
    }
}
