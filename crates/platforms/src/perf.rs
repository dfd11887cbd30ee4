//! Platform performance and energy models.
//!
//! The paper uses measured latencies for the commercial platforms and a
//! validated cycle-accurate simulator for the DSA ASIC. We mirror that split:
//!
//! * Roofline-style analytical models (peak throughput derated by a batch-size
//!   dependent efficiency, bounded by memory bandwidth) for the CPU, GPU,
//!   FPGA, ARM and mobile-GPU platforms.
//! * The `dscs-dsa` cycle simulator, driven through the `dscs-compiler`, for
//!   the in-storage DSA.
//!
//! Both paths produce an [`InferenceResult`] with latency and energy so the
//! end-to-end model can treat every platform uniformly.

use dscs_compiler::codegen::{compile, CompileOptions};
use dscs_dsa::config::DsaConfig;
use dscs_dsa::executor::Executor;
use dscs_nn::graph::Graph;
use dscs_simcore::quantity::{Bytes, Joules};
use dscs_simcore::time::SimDuration;

use crate::spec::{PlatformKind, PlatformSpec};

/// Latency and energy of executing one graph on one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceResult {
    /// Wall-clock compute latency (including launch/driver overhead but not
    /// any data movement outside the device).
    pub latency: SimDuration,
    /// Energy consumed by the compute device over that latency.
    pub energy: Joules,
}

/// Evaluates graphs on compute platforms.
#[derive(Debug, Clone)]
pub struct ComputeEngine {
    dsa_config: DsaConfig,
}

impl Default for ComputeEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ComputeEngine {
    /// Creates an engine using the paper's optimal DSA configuration for the
    /// `DscsDsa` platform.
    pub fn new() -> Self {
        ComputeEngine {
            dsa_config: DsaConfig::paper_optimal(),
        }
    }

    /// Latency and energy of executing `graph` (built at `batch`) on `kind`.
    pub fn execute(&self, kind: PlatformKind, graph: &Graph, batch: u64) -> InferenceResult {
        match kind {
            PlatformKind::DscsDsa => self.execute_on_dsa(graph),
            _ => Self::execute_roofline(&kind.spec(), graph, batch),
        }
    }

    fn execute_on_dsa(&self, graph: &Graph) -> InferenceResult {
        let program = compile(graph, &self.dsa_config, CompileOptions::default());
        let report = Executor::new(self.dsa_config).run(&program);
        let spec = PlatformKind::DscsDsa.spec();
        InferenceResult {
            latency: spec.launch_overhead + report.latency(),
            energy: report.total_energy() + spec.idle_power.over(spec.launch_overhead),
        }
    }

    fn execute_roofline(spec: &PlatformSpec, graph: &Graph, batch: u64) -> InferenceResult {
        let compute_time = graph.total_flops() as f64 / spec.effective_ops_per_sec(batch);
        // Memory traffic: weights once plus activation traffic; cached/fused
        // reuse is already part of the efficiency derate, so charge the raw
        // footprint against the device bandwidth.
        let traffic = graph.total_weight_bytes() + activation_traffic(graph);
        let memory_time = spec.memory_bandwidth.transfer_time(traffic).as_secs_f64();
        let body = SimDuration::from_secs_f64(compute_time.max(memory_time));
        let latency = spec.launch_overhead + body;
        InferenceResult {
            latency,
            energy: spec.active_power.over(latency),
        }
    }
}

/// Activation traffic that actually reaches device memory: operator outputs
/// (inputs are the previous outputs and are counted once).
fn activation_traffic(graph: &Graph) -> Bytes {
    graph.nodes().iter().map(|n| n.op.output_bytes()).sum()
}

/// Fixed per-copy latency of the x16 Gen3 PCIe link a discrete GPU or FPGA
/// card sits behind.
const DEVICE_COPY_SETUP: SimDuration = SimDuration::from_micros(10);
/// Effective bytes per second of that link.
const DEVICE_COPY_BYTES_PER_SEC: f64 = 14.2e9;

/// PCIe copy latency for platforms that require staging inputs on a discrete
/// card before compute (GPU / FPGA). Exposed here so the end-to-end model can
/// charge it only for the platforms whose spec sets `device_copy_required`.
pub fn device_copy_latency(payload: Bytes) -> SimDuration {
    if payload.as_u64() == 0 {
        return SimDuration::ZERO;
    }
    DEVICE_COPY_SETUP + SimDuration::from_secs_f64(payload.as_f64() / DEVICE_COPY_BYTES_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscs_nn::zoo::{Model, ModelKind};

    fn latency_ms(kind: PlatformKind, model: ModelKind) -> f64 {
        let engine = ComputeEngine::new();
        let m = Model::build(model);
        engine.execute(kind, m.graph(), 1).latency.as_millis_f64()
    }

    #[test]
    fn resnet_latencies_are_in_realistic_ranges() {
        let cpu = latency_ms(PlatformKind::BaselineCpu, ModelKind::ResNet50);
        let gpu = latency_ms(PlatformKind::RemoteGpu, ModelKind::ResNet50);
        let arm = latency_ms(PlatformKind::NsArm, ModelKind::ResNet50);
        let dsa = latency_ms(PlatformKind::DscsDsa, ModelKind::ResNet50);
        assert!((15.0..120.0).contains(&cpu), "cpu {cpu} ms");
        assert!((2.0..15.0).contains(&gpu), "gpu {gpu} ms");
        assert!((120.0..1500.0).contains(&arm), "arm {arm} ms");
        assert!((0.5..15.0).contains(&dsa), "dsa {dsa} ms");
    }

    #[test]
    fn compute_only_ordering_matches_the_paper() {
        // On raw compute the specialised dense-matrix engines (GPU tensor cores
        // at low occupancy, the DSA) are the fastest; the FPGA-class designs
        // and general-purpose processors follow; the quad-core ARM is slowest.
        let gpu = latency_ms(PlatformKind::RemoteGpu, ModelKind::ResNet50);
        let dsa = latency_ms(PlatformKind::DscsDsa, ModelKind::ResNet50);
        let ns_fpga = latency_ms(PlatformKind::NsFpga, ModelKind::ResNet50);
        let cpu = latency_ms(PlatformKind::BaselineCpu, ModelKind::ResNet50);
        let mobile = latency_ms(PlatformKind::NsMobileGpu, ModelKind::ResNet50);
        let arm = latency_ms(PlatformKind::NsArm, ModelKind::ResNet50);
        assert!(
            gpu < cpu && dsa < cpu,
            "accelerators beat the CPU: gpu {gpu}, dsa {dsa}, cpu {cpu}"
        );
        assert!(
            dsa < ns_fpga,
            "ASIC DSA beats its FPGA implementation: {dsa} vs {ns_fpga}"
        );
        assert!(
            ns_fpga < mobile,
            "DSA on FPGA beats the mobile GPU: {ns_fpga} vs {mobile}"
        );
        assert!(
            arm > cpu && arm > mobile,
            "the quad-core ARM is the slowest: {arm}"
        );
    }

    #[test]
    fn dsa_energy_is_orders_of_magnitude_below_gpu() {
        let engine = ComputeEngine::new();
        let m = Model::build(ModelKind::ResNet50);
        let gpu = engine
            .execute(PlatformKind::RemoteGpu, m.graph(), 1)
            .energy
            .as_f64();
        let dsa = engine
            .execute(PlatformKind::DscsDsa, m.graph(), 1)
            .energy
            .as_f64();
        assert!(gpu > 20.0 * dsa, "gpu {gpu} J vs dsa {dsa} J");
    }

    #[test]
    fn batching_improves_per_item_latency_on_gpu() {
        let engine = ComputeEngine::new();
        let b1 = Model::build_with_batch(ModelKind::BertBase, 1);
        let b16 = Model::build_with_batch(ModelKind::BertBase, 16);
        let l1 = engine
            .execute(PlatformKind::RemoteGpu, b1.graph(), 1)
            .latency
            .as_secs_f64();
        let l16 = engine
            .execute(PlatformKind::RemoteGpu, b16.graph(), 16)
            .latency
            .as_secs_f64()
            / 16.0;
        assert!(l16 < l1);
    }

    #[test]
    fn tiny_models_are_overhead_dominated() {
        let engine = ComputeEngine::new();
        let m = Model::build(ModelKind::LogisticRegression);
        let r = engine.execute(PlatformKind::DscsDsa, m.graph(), 1);
        // Latency should be close to the launch overhead, not the compute.
        assert!(r.latency < SimDuration::from_micros(2_000));
    }

    #[test]
    fn device_copy_latency_scales_with_payload() {
        let small = device_copy_latency(Bytes::from_kib(64));
        let large = device_copy_latency(Bytes::from_mib(64));
        assert!(large > small * 10u64);
        assert_eq!(device_copy_latency(Bytes::ZERO), SimDuration::ZERO);
    }
}
