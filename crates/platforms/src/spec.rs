//! Platform specifications (Table 2).
//!
//! The paper evaluates three classes of platform:
//!
//! * **Traditional** platforms on a compute node reached over the network from
//!   remote storage: the baseline Xeon CPU, an NVIDIA RTX 2080 Ti GPU and a
//!   Xilinx Alveo U280 FPGA.
//! * **Conventional near-storage** platforms placed next to the flash: a
//!   quad-core ARM Cortex-A57 (`NS-ARM`), an NVIDIA Jetson TX2 mobile GPU
//!   (`NS-Mobile-GPU`) and the Samsung SmartSSD FPGA (`NS-FPGA`).
//! * **DSCS-Serverless**: the in-storage DSA ASIC inside the DSCS-Drive.
//!
//! The numbers below are the public specifications of the commercial parts
//! (peak throughput, memory bandwidth, TDP, street price); serverless batch-1
//! efficiency derates are what a roofline model needs to land the measured
//! single-request inference latencies of these devices.

use std::fmt;

use dscs_simcore::quantity::{Bandwidth, Dollars, Watts};
use dscs_simcore::time::SimDuration;

/// Where a platform sits relative to the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformLocation {
    /// On a compute node; inputs/outputs cross the network to remote storage.
    RemoteCompute,
    /// On the storage node, next to the drive (data crosses the host CPU and
    /// PCIe but not the network).
    NearStorage,
    /// Inside the storage drive, reached over the P2P path (DSCS-Serverless).
    InStorage,
}

/// The compute platforms evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// Baseline: Intel Xeon Platinum 8275CL (EC2 c5.4xlarge), remote storage.
    BaselineCpu,
    /// NVIDIA RTX 2080 Ti on a compute node, remote storage.
    RemoteGpu,
    /// Xilinx Alveo U280 on a compute node, remote storage.
    RemoteFpga,
    /// Quad-core ARM Cortex-A57 inside the storage node.
    NsArm,
    /// NVIDIA Jetson TX2 (256-core Pascal) near the storage.
    NsMobileGpu,
    /// Samsung SmartSSD FPGA (KU15P-class) inside the drive.
    NsFpga,
    /// The DSCS-Serverless in-storage DSA ASIC.
    DscsDsa,
}

impl PlatformKind {
    /// All platforms in the paper's presentation order.
    pub const ALL: [PlatformKind; 7] = [
        PlatformKind::BaselineCpu,
        PlatformKind::RemoteGpu,
        PlatformKind::RemoteFpga,
        PlatformKind::NsArm,
        PlatformKind::NsMobileGpu,
        PlatformKind::NsFpga,
        PlatformKind::DscsDsa,
    ];

    /// Display name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            PlatformKind::BaselineCpu => "Baseline (CPU)",
            PlatformKind::RemoteGpu => "GPU",
            PlatformKind::RemoteFpga => "FPGA",
            PlatformKind::NsArm => "NS-ARM",
            PlatformKind::NsMobileGpu => "NS-Mobile-GPU",
            PlatformKind::NsFpga => "NS-FPGA",
            PlatformKind::DscsDsa => "DSCS-Serverless",
        }
    }

    /// The specification of this platform.
    pub fn spec(&self) -> PlatformSpec {
        match self {
            PlatformKind::BaselineCpu => PlatformSpec {
                kind: *self,
                location: PlatformLocation::RemoteCompute,
                peak_int8_tops: 1.4, // 16 vCPU with VNNI-class vector units
                memory_bandwidth: Bandwidth::from_gbps(90.0),
                batch1_efficiency: 0.22,
                // CPUs gain little from batching: they are already reasonably
                // utilised at batch 1, unlike wide accelerators.
                max_efficiency: 0.30,
                active_power: Watts::new(120.0),
                idle_power: Watts::new(45.0),
                launch_overhead: SimDuration::from_micros(300),
                device_copy_required: false,
                capex: Dollars::new(5_500.0),
            },
            PlatformKind::RemoteGpu => PlatformSpec {
                kind: *self,
                location: PlatformLocation::RemoteCompute,
                peak_int8_tops: 107.0, // Turing INT8 tensor cores
                memory_bandwidth: Bandwidth::from_gbps(616.0),
                batch1_efficiency: 0.018,
                max_efficiency: 0.45,
                active_power: Watts::new(250.0),
                idle_power: Watts::new(55.0),
                launch_overhead: SimDuration::from_micros(900),
                device_copy_required: true,
                capex: Dollars::new(1_200.0) + Dollars::new(5_500.0), // card + host server share
            },
            PlatformKind::RemoteFpga => PlatformSpec {
                kind: *self,
                location: PlatformLocation::RemoteCompute,
                peak_int8_tops: 12.0, // DSA bitstream on U280 at ~300 MHz
                memory_bandwidth: Bandwidth::from_gbps(460.0),
                batch1_efficiency: 0.25,
                max_efficiency: 0.60,
                active_power: Watts::new(225.0),
                idle_power: Watts::new(60.0),
                launch_overhead: SimDuration::from_micros(2_500), // XRT driver
                device_copy_required: true,
                capex: Dollars::new(7_500.0) + Dollars::new(5_500.0),
            },
            PlatformKind::NsArm => PlatformSpec {
                kind: *self,
                location: PlatformLocation::NearStorage,
                peak_int8_tops: 0.115, // 4x A57 @ 2 GHz with NEON
                memory_bandwidth: Bandwidth::from_gbps(25.6),
                batch1_efficiency: 0.35,
                max_efficiency: 0.45,
                active_power: Watts::new(7.0),
                idle_power: Watts::new(1.5),
                launch_overhead: SimDuration::from_micros(200),
                device_copy_required: false,
                capex: Dollars::new(450.0),
            },
            PlatformKind::NsMobileGpu => PlatformSpec {
                kind: *self,
                location: PlatformLocation::NearStorage,
                peak_int8_tops: 2.6, // TX2 Pascal, fp16/int8 packed
                memory_bandwidth: Bandwidth::from_gbps(59.7),
                batch1_efficiency: 0.11,
                max_efficiency: 0.45,
                active_power: Watts::new(15.0),
                idle_power: Watts::new(3.0),
                launch_overhead: SimDuration::from_micros(700),
                device_copy_required: false, // unified memory
                capex: Dollars::new(600.0),
            },
            PlatformKind::NsFpga => PlatformSpec {
                kind: *self,
                location: PlatformLocation::InStorage,
                peak_int8_tops: 6.5, // DSA bitstream on the SmartSSD KU15P at ~250 MHz
                memory_bandwidth: Bandwidth::from_gbps(19.2),
                batch1_efficiency: 0.30,
                max_efficiency: 0.60,
                active_power: Watts::new(20.0),
                idle_power: Watts::new(8.0),
                launch_overhead: SimDuration::from_micros(1_800),
                device_copy_required: false,
                capex: Dollars::new(800.0),
            },
            PlatformKind::DscsDsa => PlatformSpec {
                kind: *self,
                location: PlatformLocation::InStorage,
                peak_int8_tops: 32.8, // 128x128 PEs at 1 GHz
                memory_bandwidth: Bandwidth::from_gbps(38.0),
                batch1_efficiency: 0.32,
                max_efficiency: 0.75,
                active_power: Watts::new(4.2),
                idle_power: Watts::new(1.0),
                launch_overhead: SimDuration::from_micros(145), // P2P driver + OpenCL dispatch
                device_copy_required: false,
                capex: Dollars::new(620.0), // drive + DSA die (ASIC-Clouds estimate)
            },
        }
    }
}

impl fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The specification of one compute platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformSpec {
    /// Which platform this is.
    pub kind: PlatformKind,
    /// Where the platform sits relative to the data.
    pub location: PlatformLocation,
    /// Peak int8 throughput in tera-operations per second.
    pub peak_int8_tops: f64,
    /// Device memory bandwidth.
    pub memory_bandwidth: Bandwidth,
    /// Fraction of peak achieved at batch size 1 on these latency-critical
    /// models (kernel launch gaps, low occupancy, skinny GEMMs).
    pub batch1_efficiency: f64,
    /// Fraction of peak achievable with large batches.
    pub max_efficiency: f64,
    /// Power while running inference.
    pub active_power: Watts,
    /// Idle power.
    pub idle_power: Watts,
    /// Fixed overhead to launch one inference (runtime, driver, kernel launch).
    pub launch_overhead: SimDuration,
    /// Whether inputs must be copied to a discrete device over PCIe before
    /// compute can start (the `cudaMemcpy` the paper calls out).
    pub device_copy_required: bool,
    /// Street price of the platform (CAPEX component).
    pub capex: Dollars,
}

impl PlatformSpec {
    /// Efficiency (fraction of peak) at a given batch size: saturating growth
    /// from the batch-1 value towards the maximum.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn efficiency(&self, batch: u64) -> f64 {
        assert!(batch > 0, "batch must be positive");
        let b = batch as f64;
        // Half-saturation at batch 8: typical for inference servers.
        let gain = (b - 1.0) / (b - 1.0 + 8.0);
        self.batch1_efficiency + (self.max_efficiency - self.batch1_efficiency) * gain
    }

    /// Effective int8 operations per second at a given batch size.
    pub fn effective_ops_per_sec(&self, batch: u64) -> f64 {
        self.peak_int8_tops * 1e12 * self.efficiency(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_platforms_have_specs() {
        for kind in PlatformKind::ALL {
            let spec = kind.spec();
            assert!(spec.peak_int8_tops > 0.0, "{kind}");
            assert!(
                spec.active_power.as_f64() > spec.idle_power.as_f64(),
                "{kind}"
            );
            assert!(spec.batch1_efficiency <= spec.max_efficiency, "{kind}");
        }
    }

    #[test]
    fn dsa_fits_storage_power_budget_gpu_does_not() {
        assert!(PlatformKind::DscsDsa.spec().active_power.as_f64() < 25.0);
        assert!(PlatformKind::RemoteGpu.spec().active_power.as_f64() > 25.0);
    }

    #[test]
    fn gpu_has_highest_peak_dsa_highest_among_storage_class() {
        let gpu = PlatformKind::RemoteGpu.spec().peak_int8_tops;
        for kind in PlatformKind::ALL {
            assert!(kind.spec().peak_int8_tops <= gpu);
        }
        let dsa = PlatformKind::DscsDsa.spec().peak_int8_tops;
        for kind in [
            PlatformKind::NsArm,
            PlatformKind::NsMobileGpu,
            PlatformKind::NsFpga,
        ] {
            assert!(kind.spec().peak_int8_tops < dsa);
        }
    }

    #[test]
    fn efficiency_grows_with_batch_and_saturates() {
        let spec = PlatformKind::RemoteGpu.spec();
        let e1 = spec.efficiency(1);
        let e8 = spec.efficiency(8);
        let e64 = spec.efficiency(64);
        assert!(e1 < e8 && e8 < e64);
        assert!(e64 <= spec.max_efficiency);
        assert!((e1 - spec.batch1_efficiency).abs() < 1e-12);
    }

    #[test]
    fn locations_partition_platforms() {
        use PlatformLocation::*;
        assert_eq!(PlatformKind::BaselineCpu.spec().location, RemoteCompute);
        assert_eq!(PlatformKind::NsArm.spec().location, NearStorage);
        assert_eq!(PlatformKind::DscsDsa.spec().location, InStorage);
        assert_eq!(PlatformKind::NsFpga.spec().location, InStorage);
    }

    #[test]
    fn only_discrete_cards_need_device_copies() {
        assert!(PlatformKind::RemoteGpu.spec().device_copy_required);
        assert!(PlatformKind::RemoteFpga.spec().device_copy_required);
        assert!(!PlatformKind::DscsDsa.spec().device_copy_required);
        assert!(!PlatformKind::BaselineCpu.spec().device_copy_required);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_efficiency_panics() {
        let _ = PlatformKind::BaselineCpu.spec().efficiency(0);
    }
}
