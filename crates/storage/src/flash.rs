//! NAND flash array model.
//!
//! The DSCS-Drive's flash array is organised as multiple channels of NAND dies
//! behind an SSD controller (Figure 5b). Reads pay a per-page sensing latency
//! and then stream at the aggregate channel bandwidth; writes pay program
//! latency. The model matches datacenter NVMe-class drives (~3-7 GB/s
//! sequential, ~60-90 us random-read latency).

use dscs_simcore::quantity::{Bandwidth, Bytes};
use dscs_simcore::time::SimDuration;

/// Configuration of the flash array inside one drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashConfig {
    /// Number of independent flash channels.
    pub channels: u32,
    /// Per-channel sustained bandwidth.
    pub channel_bandwidth: Bandwidth,
    /// Page size.
    pub page_size: Bytes,
    /// Page read (sensing + transfer setup) latency.
    pub read_latency: SimDuration,
    /// Page program latency.
    pub program_latency: SimDuration,
    /// Idle power of the flash array and controller.
    pub idle_power_watts: f64,
    /// Energy per byte read or written, in picojoules.
    pub energy_pj_per_byte: f64,
}

impl FlashConfig {
    /// A datacenter NVMe-class drive similar to the SmartSSD's 4 TB array:
    /// 8 channels x 800 MB/s, 16 KiB pages, ~70 us read latency.
    pub fn datacenter_nvme() -> Self {
        FlashConfig {
            channels: 8,
            channel_bandwidth: Bandwidth::from_mbps(800.0),
            page_size: Bytes::from_kib(16),
            read_latency: SimDuration::from_micros(70),
            program_latency: SimDuration::from_micros(500),
            idle_power_watts: 2.5,
            energy_pj_per_byte: 45.0,
        }
    }

    /// Aggregate sequential bandwidth across all channels.
    pub fn aggregate_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(
            self.channel_bandwidth.bytes_per_sec() * f64::from(self.channels),
        )
    }
}

/// The flash array: answers read/write latency and energy queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashArray {
    config: FlashConfig,
}

impl FlashArray {
    /// Creates a flash array from its configuration.
    pub fn new(config: FlashConfig) -> Self {
        FlashArray { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Latency to read `size` bytes: one page-read latency (the first page
    /// sensing overlaps subsequent transfers) plus streaming at the aggregate
    /// bandwidth.
    pub fn read_latency(&self, size: Bytes) -> SimDuration {
        if size.as_u64() == 0 {
            return SimDuration::ZERO;
        }
        self.config.read_latency + self.config.aggregate_bandwidth().transfer_time(size)
    }

    /// Latency to write `size` bytes.
    pub fn write_latency(&self, size: Bytes) -> SimDuration {
        if size.as_u64() == 0 {
            return SimDuration::ZERO;
        }
        self.config.program_latency + self.config.aggregate_bandwidth().transfer_time(size)
    }

    /// Energy to move `size` bytes through the flash interface.
    pub fn access_energy_joules(&self, size: Bytes) -> f64 {
        size.as_f64() * self.config.energy_pj_per_byte * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_bandwidth_sums_channels() {
        let cfg = FlashConfig::datacenter_nvme();
        assert!((cfg.aggregate_bandwidth().as_gbps() - 6.4).abs() < 1e-9);
    }

    #[test]
    fn small_reads_dominated_by_latency() {
        let flash = FlashArray::new(FlashConfig::datacenter_nvme());
        let small = flash.read_latency(Bytes::from_kib(4));
        assert!(small.as_micros_f64() >= 70.0);
        assert!(small.as_micros_f64() < 80.0);
    }

    #[test]
    fn large_reads_dominated_by_bandwidth() {
        let flash = FlashArray::new(FlashConfig::datacenter_nvme());
        let large = flash.read_latency(Bytes::from_mib(64));
        // 64 MiB at 6.4 GB/s ~ 10.5 ms.
        assert!(large.as_millis_f64() > 9.0 && large.as_millis_f64() < 13.0);
    }

    #[test]
    fn writes_slower_than_reads() {
        let flash = FlashArray::new(FlashConfig::datacenter_nvme());
        let size = Bytes::from_mib(1);
        assert!(flash.write_latency(size) > flash.read_latency(size));
    }

    #[test]
    fn zero_size_is_free() {
        let flash = FlashArray::new(FlashConfig::datacenter_nvme());
        assert_eq!(flash.read_latency(Bytes::ZERO), SimDuration::ZERO);
        assert_eq!(flash.write_latency(Bytes::ZERO), SimDuration::ZERO);
        assert_eq!(flash.access_energy_joules(Bytes::ZERO), 0.0);
    }

    #[test]
    fn energy_scales_linearly() {
        let flash = FlashArray::new(FlashConfig::datacenter_nvme());
        let e1 = flash.access_energy_joules(Bytes::from_mib(1));
        let e4 = flash.access_energy_joules(Bytes::from_mib(4));
        assert!((e4 / e1 - 4.0).abs() < 1e-9);
    }
}
