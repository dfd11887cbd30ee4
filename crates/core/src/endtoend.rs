//! End-to-end application model.
//!
//! Reproduces the paper's measurement methodology in simulation: each benchmark
//! is a chain of three serverless functions exchanging data through
//! disaggregated storage, executed on one of the evaluated platforms. The model
//! charges every component the paper's runtime breakdowns identify — remote
//! storage reads/writes (network + RPC + storage-node I/O), PCIe staging copies
//! for discrete accelerators, P2P transfers inside the DSCS-Drive, compute on
//! the chosen platform, the serverless system stack (OpenFaaS/Kubernetes
//! routing and launch), the notification function that always runs on a host
//! CPU, and (optionally) cold-start costs — and the corresponding energies.

use dscs_faas::coldstart::{cold_start_latency, ImageSource};
use dscs_nn::graph::Graph;
use dscs_platforms::{device_copy_latency, ComputeEngine, PlatformKind, PlatformLocation};
use dscs_simcore::quantity::{Bytes, Joules, Watts};
use dscs_simcore::time::SimDuration;
use dscs_storage::drive::DscsDrive;
use dscs_storage::network::NetworkModel;

use crate::benchmarks::Benchmark;

/// Options controlling one end-to-end evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// Batch size (number of requests served by one invocation).
    pub batch: u64,
    /// Latency quantile of the storage/network distribution to evaluate at
    /// (the paper reports p95 end-to-end latencies).
    pub quantile: f64,
    /// Whether the invocation hits a cold container.
    pub cold_start: bool,
    /// Extra duplicated inference functions appended to the chain (Figure 16).
    pub extra_inference_functions: usize,
    /// Scale factor on the storage/network latency tail (1.0 = calibrated).
    pub tail_scale: f64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            batch: 1,
            quantile: 0.95,
            cold_start: false,
            extra_inference_functions: 0,
            tail_scale: 1.0,
        }
    }
}

/// Latency broken down by system component (the categories of Figures 4 and 10).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Reads from remote disaggregated storage (network RPC + storage node I/O).
    pub remote_read: SimDuration,
    /// Writes to remote disaggregated storage.
    pub remote_write: SimDuration,
    /// Data movement local to the storage node (host path or P2P path).
    pub local_io: SimDuration,
    /// PCIe staging copies onto a discrete accelerator card.
    pub device_copy: SimDuration,
    /// Compute of the pre-processing and inference functions.
    pub compute: SimDuration,
    /// The notification function (remote result read + CPU work).
    pub notification: SimDuration,
    /// Serverless framework overhead (gateway, Kubernetes routing, launches)
    /// plus accelerator driver dispatch.
    pub system_stack: SimDuration,
    /// Cold-start cost (zero for warm invocations).
    pub cold_start: SimDuration,
}

impl LatencyBreakdown {
    /// Total end-to-end latency.
    pub fn total(&self) -> SimDuration {
        self.remote_read
            + self.remote_write
            + self.local_io
            + self.device_copy
            + self.compute
            + self.notification
            + self.system_stack
            + self.cold_start
    }

    /// Total time spent on communication/data movement (the portion the paper
    /// reports as >55 % on average for the baseline).
    pub fn communication(&self) -> SimDuration {
        self.remote_read + self.remote_write + self.local_io + self.device_copy
    }

    /// Fraction of the end-to-end latency spent on communication.
    pub fn communication_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.communication().as_secs_f64() / total
    }
}

/// Energy broken down by source.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Compute-device energy (functions 1 and 2, plus duplicates).
    pub compute: Joules,
    /// Data-movement energy (network, drive, PCIe).
    pub data_movement: Joules,
    /// Host-CPU energy during data movement, the system stack and function 3.
    pub host: Joules,
}

impl EnergyBreakdown {
    /// Total energy per invocation.
    pub fn total(&self) -> Joules {
        self.compute + self.data_movement + self.host
    }
}

/// Result of one end-to-end evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndReport {
    /// The benchmark evaluated.
    pub benchmark: Benchmark,
    /// The platform evaluated.
    pub platform: PlatformKind,
    /// Options used.
    pub options: EvalOptions,
    /// Latency breakdown.
    pub latency: LatencyBreakdown,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl EndToEndReport {
    /// Total end-to-end latency.
    pub fn total_latency(&self) -> SimDuration {
        self.latency.total()
    }

    /// Total energy per invocation.
    pub fn total_energy(&self) -> Joules {
        self.energy.total()
    }

    /// Requests served per second by one function instance at this latency.
    pub fn throughput_rps(&self) -> f64 {
        self.options.batch as f64 / self.total_latency().as_secs_f64()
    }
}

/// The system model: the pieces shared by every platform evaluation.
#[derive(Debug, Clone)]
pub struct SystemModel {
    engine: ComputeEngine,
    network: NetworkModel,
    drive: DscsDrive,
    /// Per-function serverless framework overhead (gateway + Kubernetes + runtime).
    framework_overhead: SimDuration,
    /// Host-CPU power drawn while moving data / running the stack and function 3.
    host_active_power: Watts,
}

impl Default for SystemModel {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemModel {
    /// Creates the default system model: the paper's disaggregated datacenter
    /// with SmartSSD-class drives and the calibrated network.
    pub fn new() -> Self {
        SystemModel {
            engine: ComputeEngine::new(),
            network: NetworkModel::default(),
            drive: DscsDrive::smartssd_class(),
            framework_overhead: SimDuration::from_millis(7),
            host_active_power: Watts::new(60.0),
        }
    }

    /// The network model in use.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The drive model in use.
    pub fn drive(&self) -> &DscsDrive {
        &self.drive
    }

    /// Evaluates one benchmark on one platform.
    pub fn evaluate(
        &self,
        benchmark: Benchmark,
        platform: PlatformKind,
        options: EvalOptions,
    ) -> EndToEndReport {
        assert!(options.batch > 0, "batch must be positive");
        assert!(
            options.quantile > 0.0 && options.quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        let spec = benchmark.spec();
        let pspec = platform.spec();
        let network = self.network.with_tail_scale(options.tail_scale);

        // Data volumes for one (possibly batched) invocation.
        let input = spec.input_size * options.batch;
        let inter = spec.intermediate_size * options.batch;
        let result = spec.result_size * options.batch;

        // Workloads.
        let pre_graph = spec.preprocess_spec().graph(options.batch);
        let model = spec.model(options.batch);
        let inference_runs = 1 + options.extra_inference_functions as u64;
        let function_count = 3 + options.extra_inference_functions as u64;

        let mut latency = LatencyBreakdown::default();
        let mut energy = EnergyBreakdown::default();

        // --- Compute (functions 1 and 2 + duplicates) ----------------------
        let pre = self.run_graph(platform, &pre_graph, options.batch);
        let inf = self.run_graph(platform, model.graph(), options.batch);
        latency.compute = pre.0 + inf.0 * inference_runs;
        energy.compute = pre.1 + inf.1 * inference_runs as f64;

        // --- Data movement ---------------------------------------------------
        match pspec.location {
            PlatformLocation::RemoteCompute => {
                // Function 1 reads the raw input and writes the intermediate;
                // every inference function reads the intermediate and the last
                // one writes the result (duplicates write the intermediate).
                let reads = [input]
                    .into_iter()
                    .chain(std::iter::repeat_n(inter, inference_runs as usize));
                let writes = std::iter::repeat_n(inter, inference_runs as usize).chain([result]);
                for size in reads {
                    latency.remote_read += self.remote_access(&network, size, options.quantile);
                    energy.data_movement += Joules::new(network.transfer_energy_joules(size));
                    energy.data_movement +=
                        Joules::new(self.drive.as_ssd().access_energy_joules(size));
                }
                for size in writes {
                    latency.remote_write += self.remote_access(&network, size, options.quantile);
                    energy.data_movement += Joules::new(network.transfer_energy_joules(size));
                    energy.data_movement +=
                        Joules::new(self.drive.as_ssd().access_energy_joules(size));
                }
                if pspec.device_copy_required {
                    // Stage inputs/outputs of both functions across PCIe.
                    for size in [input, inter, inter, result] {
                        latency.device_copy += device_copy_latency(size);
                    }
                }
            }
            PlatformLocation::NearStorage => {
                // Data stays on the storage node but crosses the host CPU and
                // the drive's host PCIe link for every function boundary.
                let ssd = self.drive.as_ssd();
                for size in [input, inter, inter] {
                    latency.local_io += ssd.host_read_latency(size);
                    energy.data_movement += Joules::new(ssd.access_energy_joules(size));
                }
                for size in [inter, inter, result] {
                    latency.local_io += ssd.host_write_latency(size);
                    energy.data_movement += Joules::new(ssd.access_energy_joules(size));
                }
                // Duplicated inference functions re-read and re-write the intermediate.
                if options.extra_inference_functions > 0 {
                    let extra = options.extra_inference_functions as u64;
                    latency.local_io +=
                        (ssd.host_read_latency(inter) + ssd.host_write_latency(inter)) * extra;
                    energy.data_movement +=
                        Joules::new(2.0 * ssd.access_energy_joules(inter) * extra as f64);
                }
            }
            PlatformLocation::InStorage => {
                // The P2P path: flash <-> DSA staging DRAM, no host stack.
                for size in [input, inter, inter] {
                    latency.local_io += self.drive.p2p_read_latency(size);
                    energy.data_movement += Joules::new(self.drive.p2p_energy_joules(size));
                }
                for size in [inter, inter, result] {
                    latency.local_io += self.drive.p2p_write_latency(size);
                    energy.data_movement += Joules::new(self.drive.p2p_energy_joules(size));
                }
                if options.extra_inference_functions > 0 {
                    let extra = options.extra_inference_functions as u64;
                    latency.local_io += (self.drive.p2p_read_latency(inter)
                        + self.drive.p2p_write_latency(inter))
                        * extra;
                    energy.data_movement +=
                        Joules::new(2.0 * self.drive.p2p_energy_joules(inter) * extra as f64);
                }
            }
        }

        // --- Function 3: notification on a host CPU --------------------------
        // It reads the result from persistent storage over the network (as in
        // the traditional system) and performs a small amount of CPU work.
        let notify_read = self.remote_access(&network, result, options.quantile);
        let notify_cpu = SimDuration::from_secs_f64(
            spec.postprocess_spec().notification_ops as f64
                / PlatformKind::BaselineCpu.spec().effective_ops_per_sec(1),
        );
        latency.notification = notify_read + notify_cpu;
        energy.data_movement += Joules::new(network.transfer_energy_joules(result));

        // --- System stack ----------------------------------------------------
        latency.system_stack = self.framework_overhead * function_count;

        // --- Cold start ------------------------------------------------------
        if options.cold_start {
            let image = spec.pipeline().functions[1].image_size;
            let mut cold = cold_start_latency(image, ImageSource::RemoteRegistry);
            // Loading the model weights into the accelerator's memory.
            cold += pspec.memory_bandwidth.transfer_time(model.weight_bytes());
            latency.cold_start = cold;
        }

        // --- Host energy -----------------------------------------------------
        let host_busy = latency.remote_read
            + latency.remote_write
            + latency.local_io
            + latency.device_copy
            + latency.notification
            + latency.system_stack
            + latency.cold_start;
        energy.host = self.host_active_power.over(host_busy);

        EndToEndReport {
            benchmark,
            platform,
            options,
            latency,
            energy,
        }
    }

    /// Speedup of `platform` over `baseline` for one benchmark under `options`.
    pub fn speedup_over(
        &self,
        benchmark: Benchmark,
        platform: PlatformKind,
        baseline: PlatformKind,
        options: EvalOptions,
    ) -> f64 {
        let p = self
            .evaluate(benchmark, platform, options)
            .total_latency()
            .as_secs_f64();
        let b = self
            .evaluate(benchmark, baseline, options)
            .total_latency()
            .as_secs_f64();
        b / p
    }

    fn run_graph(
        &self,
        platform: PlatformKind,
        graph: &Graph,
        batch: u64,
    ) -> (SimDuration, Joules) {
        let result = self.engine.execute(platform, graph, batch);
        (result.latency, result.energy)
    }

    fn remote_access(&self, network: &NetworkModel, size: Bytes, quantile: f64) -> SimDuration {
        // Network/RPC path plus the storage node's own drive access.
        network.access_latency_at_quantile(size, quantile)
            + self.drive.as_ssd().host_read_latency(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscs_simcore::stats::geometric_mean;

    fn system() -> SystemModel {
        SystemModel::new()
    }

    fn speedups(platform: PlatformKind) -> Vec<f64> {
        let sys = system();
        Benchmark::ALL
            .iter()
            .map(|&b| {
                sys.speedup_over(
                    b,
                    platform,
                    PlatformKind::BaselineCpu,
                    EvalOptions::default(),
                )
            })
            .collect()
    }

    #[test]
    fn baseline_is_communication_dominated() {
        let sys = system();
        let fractions: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|&b| {
                sys.evaluate(b, PlatformKind::BaselineCpu, EvalOptions::default())
                    .latency
                    .communication_fraction()
            })
            .collect();
        let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
        assert!(avg > 0.50, "average communication fraction {avg}");
    }

    #[test]
    fn dscs_speedup_over_baseline_matches_paper_range() {
        let mean = geometric_mean(&speedups(PlatformKind::DscsDsa));
        // Paper: 3.6x average end-to-end speedup over the CPU baseline.
        assert!((2.2..5.5).contains(&mean), "DSCS speedup {mean}");
    }

    #[test]
    fn dscs_outperforms_every_other_platform_on_average() {
        let dscs = geometric_mean(&speedups(PlatformKind::DscsDsa));
        for platform in [
            PlatformKind::RemoteGpu,
            PlatformKind::RemoteFpga,
            PlatformKind::NsArm,
            PlatformKind::NsMobileGpu,
            PlatformKind::NsFpga,
        ] {
            let other = geometric_mean(&speedups(platform));
            assert!(dscs > other, "DSCS {dscs} should beat {platform} {other}");
        }
    }

    #[test]
    fn gpu_with_remote_storage_gains_little() {
        // The paper's core claim: Amdahl's law caps the benefit of a 250 W GPU
        // behind remote storage well below the raw compute speedup.
        let gpu = geometric_mean(&speedups(PlatformKind::RemoteGpu));
        assert!(gpu < 2.0, "GPU end-to-end speedup {gpu}");
        assert!(gpu > 0.9, "GPU should not lose badly to the CPU: {gpu}");
    }

    #[test]
    fn ns_arm_is_roughly_baseline_class() {
        let arm = geometric_mean(&speedups(PlatformKind::NsArm));
        assert!((0.3..1.4).contains(&arm), "NS-ARM speedup {arm}");
    }

    #[test]
    fn dscs_beats_ns_fpga_by_more_than_the_fpga_beats_arm() {
        let sys = system();
        let dscs_over_fpga = geometric_mean(
            &Benchmark::ALL
                .iter()
                .map(|&b| {
                    sys.speedup_over(
                        b,
                        PlatformKind::DscsDsa,
                        PlatformKind::NsFpga,
                        EvalOptions::default(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        assert!(
            (1.1..3.0).contains(&dscs_over_fpga),
            "DSCS over NS-FPGA {dscs_over_fpga}"
        );
    }

    #[test]
    fn credit_risk_shows_least_dscs_speedup_among_benchmarks() {
        let sys = system();
        let speedup = |b: Benchmark| {
            sys.speedup_over(
                b,
                PlatformKind::DscsDsa,
                PlatformKind::BaselineCpu,
                EvalOptions::default(),
            )
        };
        let credit = speedup(Benchmark::CreditRiskAssessment);
        let max_other = Benchmark::ALL
            .iter()
            .filter(|&&b| b != Benchmark::CreditRiskAssessment)
            .map(|&b| speedup(b))
            .fold(f64::MIN, f64::max);
        assert!(credit < max_other, "credit {credit} vs best {max_other}");
    }

    #[test]
    fn dscs_energy_reduction_over_baseline() {
        let sys = system();
        let ratios: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|&b| {
                let base = sys
                    .evaluate(b, PlatformKind::BaselineCpu, EvalOptions::default())
                    .total_energy();
                let dscs = sys
                    .evaluate(b, PlatformKind::DscsDsa, EvalOptions::default())
                    .total_energy();
                base.as_f64() / dscs.as_f64()
            })
            .collect();
        let mean = geometric_mean(&ratios);
        // Paper: 3.5x average system-energy reduction.
        assert!((2.0..6.5).contains(&mean), "energy reduction {mean}");
    }

    #[test]
    fn gpu_consumes_more_energy_than_dscs() {
        let sys = system();
        for &b in &[Benchmark::PpeDetection, Benchmark::RemoteSensing] {
            let gpu = sys
                .evaluate(b, PlatformKind::RemoteGpu, EvalOptions::default())
                .total_energy();
            let dscs = sys
                .evaluate(b, PlatformKind::DscsDsa, EvalOptions::default())
                .total_energy();
            assert!(
                gpu.as_f64() > 1.5 * dscs.as_f64(),
                "{b}: gpu {gpu} vs dscs {dscs}"
            );
        }
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let sys = system();
        let report = sys.evaluate(
            Benchmark::PpeDetection,
            PlatformKind::RemoteGpu,
            EvalOptions::default(),
        );
        let b = report.latency;
        let sum = b.remote_read
            + b.remote_write
            + b.local_io
            + b.device_copy
            + b.compute
            + b.notification
            + b.system_stack
            + b.cold_start;
        assert_eq!(sum, report.total_latency());
    }

    #[test]
    fn in_storage_platforms_have_no_remote_reads_for_accelerated_functions() {
        let sys = system();
        let report = sys.evaluate(
            Benchmark::RemoteSensing,
            PlatformKind::DscsDsa,
            EvalOptions::default(),
        );
        assert_eq!(report.latency.remote_read, SimDuration::ZERO);
        assert_eq!(report.latency.remote_write, SimDuration::ZERO);
        assert!(report.latency.local_io > SimDuration::ZERO);
        // Function 3 still pays the network.
        assert!(report.latency.notification.as_millis_f64() > 5.0);
    }

    #[test]
    fn cold_start_reduces_but_does_not_erase_the_speedup() {
        let sys = system();
        let warm = EvalOptions::default();
        let cold = EvalOptions {
            cold_start: true,
            ..EvalOptions::default()
        };
        let warm_speedups: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|&b| sys.speedup_over(b, PlatformKind::DscsDsa, PlatformKind::BaselineCpu, warm))
            .collect();
        let cold_speedups: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|&b| sys.speedup_over(b, PlatformKind::DscsDsa, PlatformKind::BaselineCpu, cold))
            .collect();
        let warm_mean = geometric_mean(&warm_speedups);
        let cold_mean = geometric_mean(&cold_speedups);
        assert!(cold_mean < warm_mean, "cold {cold_mean} < warm {warm_mean}");
        assert!(cold_mean > 1.0, "cold start still wins: {cold_mean}");
    }

    #[test]
    fn batch_64_amplifies_the_dscs_advantage() {
        let sys = system();
        let b1 = EvalOptions::default();
        let b64 = EvalOptions {
            batch: 64,
            ..EvalOptions::default()
        };
        let s1 = geometric_mean(
            &Benchmark::ALL
                .iter()
                .map(|&b| sys.speedup_over(b, PlatformKind::DscsDsa, PlatformKind::BaselineCpu, b1))
                .collect::<Vec<_>>(),
        );
        let s64 = geometric_mean(
            &Benchmark::ALL
                .iter()
                .map(|&b| {
                    sys.speedup_over(b, PlatformKind::DscsDsa, PlatformKind::BaselineCpu, b64)
                })
                .collect::<Vec<_>>(),
        );
        assert!(s64 > 1.5 * s1, "batch-64 speedup {s64} vs batch-1 {s1}");
    }

    #[test]
    fn extra_accelerated_functions_increase_the_speedup() {
        let sys = system();
        let base = EvalOptions::default();
        let plus3 = EvalOptions {
            extra_inference_functions: 3,
            ..EvalOptions::default()
        };
        let s0 = geometric_mean(
            &Benchmark::ALL
                .iter()
                .map(|&b| {
                    sys.speedup_over(b, PlatformKind::DscsDsa, PlatformKind::BaselineCpu, base)
                })
                .collect::<Vec<_>>(),
        );
        let s3 = geometric_mean(
            &Benchmark::ALL
                .iter()
                .map(|&b| {
                    sys.speedup_over(b, PlatformKind::DscsDsa, PlatformKind::BaselineCpu, plus3)
                })
                .collect::<Vec<_>>(),
        );
        assert!(s3 > s0, "+3 functions {s3} vs base {s0}");
    }

    #[test]
    fn higher_quantiles_favour_dscs_more() {
        let sys = system();
        let p50 = EvalOptions {
            quantile: 0.50,
            ..EvalOptions::default()
        };
        let p99 = EvalOptions {
            quantile: 0.99,
            ..EvalOptions::default()
        };
        let s50 = geometric_mean(
            &Benchmark::ALL
                .iter()
                .map(|&b| {
                    sys.speedup_over(b, PlatformKind::DscsDsa, PlatformKind::BaselineCpu, p50)
                })
                .collect::<Vec<_>>(),
        );
        let s99 = geometric_mean(
            &Benchmark::ALL
                .iter()
                .map(|&b| {
                    sys.speedup_over(b, PlatformKind::DscsDsa, PlatformKind::BaselineCpu, p99)
                })
                .collect::<Vec<_>>(),
        );
        assert!(
            s99 > s50,
            "p99 speedup {s99} should exceed p50 speedup {s50}"
        );
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn invalid_quantile_rejected() {
        let sys = system();
        let _ = sys.evaluate(
            Benchmark::PpeDetection,
            PlatformKind::BaselineCpu,
            EvalOptions {
                quantile: 1.5,
                ..EvalOptions::default()
            },
        );
    }
}
