//! Experiment runners: one function per paper table/figure in this crate's
//! scope.
//!
//! Each runner returns plain data (rows or points) for the `reproduce` binary
//! to print. The rest of the figures are computed elsewhere: the design-space
//! exploration (Figures 7 and 8) in `dscs-dse`, Figure 12's cost efficiency by
//! the `reproduce` binary from this crate's [`SystemModel`] and `dscs-dse`'s
//! cost model, and the at-scale trace (Figure 13) and policy sweep (the
//! `reproduce at-scale` subcommand) in `dscs-cluster`, which sits above this
//! crate in the dependency graph.

use dscs_platforms::spec::PlatformKind;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::stats::{geometric_mean, Summary};

use crate::benchmarks::Benchmark;
use crate::endtoend::{EvalOptions, LatencyBreakdown, SystemModel};

/// One benchmark's S3-style read-latency distribution for Figure 3, as the
/// median and tail the `reproduce` binary prints.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfSeries {
    /// The benchmark whose input object is read.
    pub benchmark: Benchmark,
    /// Median read latency.
    pub p50: f64,
    /// 99th percentile read latency.
    pub p99: f64,
}

/// Figure 3: the remote-storage read-latency distribution of each benchmark's
/// input object, from `samples` simulated reads each.
pub fn fig3_s3_read_cdf(samples: usize, seed: u64) -> Vec<CdfSeries> {
    assert!(samples >= 100, "need a meaningful number of samples");
    let sys = SystemModel::new();
    let mut rng = DeterministicRng::seeded(seed);
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let size = benchmark.spec().input_size;
            let mut child = rng.fork(benchmark as u64);
            let latencies: Vec<f64> = (0..samples)
                .map(|_| {
                    let net = sys.network().sample_access_latency(size, &mut child);
                    let drive = sys.drive().as_ssd().host_read_latency(size);
                    (net + drive).as_secs_f64()
                })
                .collect();
            let summary = Summary::from_samples(&latencies);
            CdfSeries {
                benchmark,
                p50: summary.p50(),
                p99: summary.p99(),
            }
        })
        .collect()
}

/// One row of a runtime-breakdown figure (Figures 4 and 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownRow {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Platform.
    pub platform: PlatformKind,
    /// The absolute breakdown.
    pub breakdown: LatencyBreakdown,
}

impl BreakdownRow {
    /// The breakdown as fractions of the total (what the stacked bars show).
    pub fn normalized(&self) -> [(&'static str, f64); 7] {
        let total = self.breakdown.total().as_secs_f64();
        let f = |d: dscs_simcore::time::SimDuration| {
            if total == 0.0 {
                0.0
            } else {
                d.as_secs_f64() / total
            }
        };
        [
            ("remote_read", f(self.breakdown.remote_read)),
            ("remote_write", f(self.breakdown.remote_write)),
            (
                "local_io",
                f(self.breakdown.local_io) + f(self.breakdown.device_copy),
            ),
            ("compute", f(self.breakdown.compute)),
            ("notification", f(self.breakdown.notification)),
            ("system_stack", f(self.breakdown.system_stack)),
            ("cold_start", f(self.breakdown.cold_start)),
        ]
    }
}

/// The runtime breakdown of every benchmark on each of `platforms`,
/// platform-major.
fn breakdown_rows(platforms: &[PlatformKind]) -> Vec<BreakdownRow> {
    let sys = SystemModel::new();
    let mut rows = Vec::new();
    for &platform in platforms {
        for &benchmark in &Benchmark::ALL {
            rows.push(BreakdownRow {
                benchmark,
                platform,
                breakdown: sys
                    .evaluate(benchmark, platform, EvalOptions::default())
                    .latency,
            });
        }
    }
    rows
}

/// Figure 4: runtime breakdown of every benchmark on the baseline CPU with
/// remote storage.
pub fn fig4_runtime_breakdown_baseline() -> Vec<BreakdownRow> {
    breakdown_rows(&[PlatformKind::BaselineCpu])
}

/// One speedup cell of Figure 9 / 11 style figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioCell {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Platform being compared against the baseline CPU.
    pub platform: PlatformKind,
    /// Ratio (speedup or energy reduction) relative to the baseline CPU.
    pub ratio: f64,
}

/// A full platform-vs-benchmark ratio matrix plus per-platform geometric means.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioMatrix {
    /// Every (benchmark, platform) cell.
    pub cells: Vec<RatioCell>,
    /// Per-platform geometric-mean ratio across benchmarks.
    pub means: Vec<(PlatformKind, f64)>,
}

impl RatioMatrix {
    /// The ratio for one (benchmark, platform) pair.
    pub fn cell(&self, benchmark: Benchmark, platform: PlatformKind) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.platform == platform)
            .map(|c| c.ratio)
    }

    fn build(mut ratio: impl FnMut(Benchmark, PlatformKind) -> f64) -> Self {
        let platforms: Vec<PlatformKind> = PlatformKind::ALL
            .iter()
            .copied()
            .filter(|&p| p != PlatformKind::BaselineCpu)
            .collect();
        let mut cells = Vec::new();
        let mut means = Vec::new();
        for &platform in &platforms {
            let mut values = Vec::new();
            for &benchmark in &Benchmark::ALL {
                let r = ratio(benchmark, platform);
                values.push(r);
                cells.push(RatioCell {
                    benchmark,
                    platform,
                    ratio: r,
                });
            }
            means.push((platform, geometric_mean(&values)));
        }
        RatioMatrix { cells, means }
    }
}

/// Figure 9: end-to-end speedup of every platform over the baseline CPU.
pub fn fig9_speedup() -> RatioMatrix {
    let sys = SystemModel::new();
    RatioMatrix::build(|benchmark, platform| {
        sys.speedup_over(
            benchmark,
            platform,
            PlatformKind::BaselineCpu,
            EvalOptions::default(),
        )
    })
}

/// Figure 10: runtime breakdown of every benchmark on every platform.
pub fn fig10_runtime_breakdown() -> Vec<BreakdownRow> {
    breakdown_rows(&PlatformKind::ALL)
}

/// Figure 11: end-to-end system-energy reduction of every platform over the
/// baseline CPU.
pub fn fig11_energy_reduction() -> RatioMatrix {
    let sys = SystemModel::new();
    RatioMatrix::build(|benchmark, platform| {
        let base = sys
            .evaluate(benchmark, PlatformKind::BaselineCpu, EvalOptions::default())
            .total_energy();
        let this = sys
            .evaluate(benchmark, platform, EvalOptions::default())
            .total_energy();
        base.as_f64() / this.as_f64()
    })
}

/// One point of a sensitivity sweep: a parameter value and the DSCS-over-baseline speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityPoint {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// The swept parameter value (batch size, quantile, extra functions, ...).
    pub parameter: f64,
    /// DSCS-Serverless speedup over the baseline CPU at that parameter.
    pub speedup: f64,
}

/// The speedup of DSCS over the baseline CPU for every benchmark at each
/// `(parameter, options)` pair of a sweep, parameter-major.
fn sensitivity(sweep: impl IntoIterator<Item = (f64, EvalOptions)>) -> Vec<SensitivityPoint> {
    let sys = SystemModel::new();
    let mut points = Vec::new();
    for (parameter, options) in sweep {
        for &benchmark in &Benchmark::ALL {
            points.push(SensitivityPoint {
                benchmark,
                parameter,
                speedup: sys.speedup_over(
                    benchmark,
                    PlatformKind::DscsDsa,
                    PlatformKind::BaselineCpu,
                    options,
                ),
            });
        }
    }
    points
}

/// Figure 14: batch-size sensitivity. Speedup of DSCS over the baseline CPU at
/// batch sizes 1..=64 (both systems use the same batch).
pub fn fig14_batch_sensitivity() -> Vec<SensitivityPoint> {
    sensitivity([1u64, 4, 16, 64].map(|batch| {
        let options = EvalOptions {
            batch,
            ..EvalOptions::default()
        };
        (batch as f64, options)
    }))
}

/// Figure 15: tail-latency sensitivity. Speedup of DSCS over the baseline at
/// the 50th, 95th and 99th percentile of the storage/network distribution.
pub fn fig15_tail_sensitivity() -> Vec<SensitivityPoint> {
    sensitivity([0.50, 0.95, 0.99].map(|quantile| {
        let options = EvalOptions {
            quantile,
            ..EvalOptions::default()
        };
        (quantile, options)
    }))
}

/// Figure 16: sensitivity to the number of accelerated functions (0 to 3 extra
/// duplicated inference functions).
pub fn fig16_function_count_sensitivity() -> Vec<SensitivityPoint> {
    sensitivity((0..=3usize).map(|extra| {
        let options = EvalOptions {
            extra_inference_functions: extra,
            ..EvalOptions::default()
        };
        (extra as f64, options)
    }))
}

/// Figure 17: cold vs warm containers. Per-benchmark speedup of DSCS over the
/// baseline for warm (parameter 0.0) and cold (parameter 1.0) invocations.
pub fn fig17_cold_start_sensitivity() -> Vec<SensitivityPoint> {
    sensitivity([(0.0, false), (1.0, true)].map(|(parameter, cold_start)| {
        let options = EvalOptions {
            cold_start,
            ..EvalOptions::default()
        };
        (parameter, options)
    }))
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Description.
    pub description: String,
    /// Model name.
    pub model: String,
    /// Parameter count.
    pub parameters: u64,
    /// Input object size in bytes.
    pub input_bytes: u64,
    /// Output object size in bytes.
    pub output_bytes: u64,
}

/// Table 1: the benchmark suite.
pub fn table1_benchmarks() -> Vec<Table1Row> {
    Benchmark::ALL
        .iter()
        .map(|&b| {
            let spec = b.spec();
            Table1Row {
                benchmark: b,
                description: spec.description.to_string(),
                model: spec.model.to_string(),
                parameters: spec.parameter_count(),
                input_bytes: spec.input_size.as_u64(),
                output_bytes: spec.result_size.as_u64(),
            }
        })
        .collect()
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Platform.
    pub platform: PlatformKind,
    /// Peak int8 TOPS.
    pub peak_tops: f64,
    /// Memory bandwidth in GB/s.
    pub memory_gbps: f64,
    /// Active power in watts.
    pub power_watts: f64,
    /// Where the platform sits.
    pub location: String,
    /// Platform CAPEX in dollars.
    pub capex_usd: f64,
}

/// Table 2: the evaluated platforms.
pub fn table2_platforms() -> Vec<Table2Row> {
    PlatformKind::ALL
        .iter()
        .map(|&p| {
            let s = p.spec();
            Table2Row {
                platform: p,
                peak_tops: s.peak_int8_tops,
                memory_gbps: s.memory_bandwidth.as_gbps(),
                power_watts: s.active_power.as_f64(),
                location: format!("{:?}", s.location),
                capex_usd: s.capex.as_f64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dscs_mean(m: &RatioMatrix) -> f64 {
        let dscs = m.means.iter().find(|(p, _)| *p == PlatformKind::DscsDsa);
        dscs.expect("DSCS has a mean").1
    }

    #[test]
    fn fig3_produces_one_series_per_benchmark_with_heavier_tails() {
        let series = fig3_s3_read_cdf(2_000, 7);
        assert_eq!(series.len(), 8);
        for s in &series {
            assert!(s.p99 > s.p50, "{}", s.benchmark);
        }
    }

    #[test]
    fn fig4_shows_majority_communication_on_average() {
        let rows = fig4_runtime_breakdown_baseline();
        let avg: f64 = rows
            .iter()
            .map(|r| r.breakdown.communication_fraction())
            .sum::<f64>()
            / rows.len() as f64;
        assert!(avg > 0.5, "average communication share {avg}");
    }

    #[test]
    fn fig9_matrix_is_complete_and_dscs_leads() {
        let m = fig9_speedup();
        assert_eq!(m.cells.len(), 8 * 6);
        let dscs = dscs_mean(&m);
        for (p, mean) in &m.means {
            assert!(dscs >= *mean, "DSCS {dscs} vs {p} {mean}");
        }
    }

    #[test]
    fn fig10_covers_every_platform() {
        let rows = fig10_runtime_breakdown();
        assert_eq!(rows.len(), 7 * 8);
        // Normalized fractions sum to ~1.
        for row in rows.iter().take(10) {
            let total: f64 = row.normalized().iter().map(|(_, f)| f).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig11_energy_reductions_positive() {
        let m = fig11_energy_reduction();
        let dscs = dscs_mean(&m);
        assert!(dscs > 1.5, "DSCS energy reduction {dscs}");
    }

    #[test]
    fn fig14_batch_speedup_grows() {
        let points = fig14_batch_sensitivity();
        let mean_at = |batch: f64| {
            let v: Vec<f64> = points
                .iter()
                .filter(|p| p.parameter == batch)
                .map(|p| p.speedup)
                .collect();
            geometric_mean(&v)
        };
        assert!(mean_at(64.0) > mean_at(1.0) * 1.5);
    }

    #[test]
    fn fig15_tail_speedup_grows_with_quantile() {
        let points = fig15_tail_sensitivity();
        let mean_at = |q: f64| {
            let v: Vec<f64> = points
                .iter()
                .filter(|p| p.parameter == q)
                .map(|p| p.speedup)
                .collect();
            geometric_mean(&v)
        };
        assert!(mean_at(0.99) > mean_at(0.50));
    }

    #[test]
    fn fig16_more_functions_more_speedup() {
        let points = fig16_function_count_sensitivity();
        let mean_at = |e: f64| {
            let v: Vec<f64> = points
                .iter()
                .filter(|p| p.parameter == e)
                .map(|p| p.speedup)
                .collect();
            geometric_mean(&v)
        };
        assert!(mean_at(3.0) > mean_at(0.0));
    }

    #[test]
    fn fig17_cold_speedup_below_warm_but_above_one() {
        let points = fig17_cold_start_sensitivity();
        let mean_at = |c: f64| {
            let v: Vec<f64> = points
                .iter()
                .filter(|p| p.parameter == c)
                .map(|p| p.speedup)
                .collect();
            geometric_mean(&v)
        };
        let warm = mean_at(0.0);
        let cold = mean_at(1.0);
        assert!(cold < warm);
        assert!(cold > 1.0);
    }

    #[test]
    fn tables_have_expected_shapes() {
        assert_eq!(table1_benchmarks().len(), 8);
        assert_eq!(table2_platforms().len(), 7);
    }
}
