//! PCIe link model.
//!
//! Three PCIe paths matter in the system: host CPU <-> storage drive, host CPU
//! <-> discrete accelerator (the `cudaMemcpy`-style copy the paper calls out),
//! and the dedicated peer-to-peer path between the flash controller and the DSA
//! inside the DSCS-Drive. Each is a bandwidth-limited transfer plus a fixed
//! per-transaction latency; energy uses the per-bit cost reported for modern
//! SerDes links (the paper cites Zeppelin's numbers).

use dscs_simcore::quantity::{Bandwidth, Bytes};
use dscs_simcore::time::SimDuration;

/// PCIe generation (per-lane bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcieGeneration {
    /// PCIe 3.0: ~0.985 GB/s per lane.
    Gen3,
    /// PCIe 4.0: ~1.969 GB/s per lane.
    Gen4,
}

impl PcieGeneration {
    /// Usable bandwidth per lane (after encoding overhead).
    pub fn lane_bandwidth(self) -> Bandwidth {
        match self {
            PcieGeneration::Gen3 => Bandwidth::from_gbps(0.985),
            PcieGeneration::Gen4 => Bandwidth::from_gbps(1.969),
        }
    }
}

/// A PCIe link with a fixed lane count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLink {
    generation: PcieGeneration,
    lanes: u32,
    /// Fixed per-transaction latency (doorbell, DMA descriptor, completion).
    transaction_latency: SimDuration,
    /// Link efficiency after protocol (TLP) overhead.
    efficiency: f64,
}

impl PcieLink {
    /// Creates a link.
    ///
    /// # Panics
    /// Panics if `lanes` is zero or `efficiency` is outside `(0, 1]`.
    pub fn new(
        generation: PcieGeneration,
        lanes: u32,
        transaction_latency: SimDuration,
        efficiency: f64,
    ) -> Self {
        assert!(lanes > 0, "PCIe link needs at least one lane");
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        PcieLink {
            generation,
            lanes,
            transaction_latency,
            efficiency,
        }
    }

    /// The x4 Gen3 link of a datacenter NVMe drive.
    pub fn nvme_drive() -> Self {
        Self::new(PcieGeneration::Gen3, 4, SimDuration::from_micros(10), 0.90)
    }

    /// The x16 Gen3 link of a discrete GPU/FPGA accelerator card.
    pub fn accelerator_card() -> Self {
        Self::new(PcieGeneration::Gen3, 16, SimDuration::from_micros(10), 0.90)
    }

    /// The internal peer-to-peer path between the flash controller and the DSA
    /// inside the DSCS-Drive (a short x4 Gen3 connection with lower
    /// per-transaction cost because no host round trip is involved).
    pub fn p2p_internal() -> Self {
        Self::new(PcieGeneration::Gen3, 4, SimDuration::from_micros(3), 0.95)
    }

    /// Effective bandwidth of the link.
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(
            self.generation.lane_bandwidth().bytes_per_sec()
                * f64::from(self.lanes)
                * self.efficiency,
        )
    }

    /// Latency to move `size` bytes across the link.
    pub fn transfer_latency(&self, size: Bytes) -> SimDuration {
        if size.as_u64() == 0 {
            return SimDuration::ZERO;
        }
        self.transaction_latency + self.bandwidth().transfer_time(size)
    }

    /// Energy to move `size` bytes, using ~6 pJ/bit of SerDes + PHY energy.
    pub fn transfer_energy_joules(&self, size: Bytes) -> f64 {
        const PJ_PER_BIT: f64 = 6.0;
        size.as_f64() * 8.0 * PJ_PER_BIT * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_scaling() {
        let x4 = PcieLink::nvme_drive();
        let x16 = PcieLink::accelerator_card();
        assert!(
            (x16.bandwidth().bytes_per_sec() / x4.bandwidth().bytes_per_sec() - 4.0).abs() < 1e-9
        );
    }

    #[test]
    fn gen4_doubles_gen3() {
        let g3 = PcieLink::new(PcieGeneration::Gen3, 4, SimDuration::ZERO, 1.0);
        let g4 = PcieLink::new(PcieGeneration::Gen4, 4, SimDuration::ZERO, 1.0);
        let ratio = g4.bandwidth().bytes_per_sec() / g3.bandwidth().bytes_per_sec();
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn small_transfers_pay_transaction_latency() {
        let link = PcieLink::nvme_drive();
        let t = link.transfer_latency(Bytes::from_kib(4));
        assert!(t.as_micros_f64() >= 10.0);
        assert!(t.as_micros_f64() < 13.0);
    }

    #[test]
    fn p2p_has_lower_fixed_cost_than_host_path() {
        let p2p = PcieLink::p2p_internal();
        let host = PcieLink::nvme_drive();
        let size = Bytes::from_kib(64);
        assert!(p2p.transfer_latency(size) < host.transfer_latency(size));
    }

    #[test]
    fn energy_scales_with_bytes() {
        let link = PcieLink::nvme_drive();
        let e = link.transfer_energy_joules(Bytes::from_mib(1));
        // 1 MiB * 8 bits * 6 pJ ~ 50 uJ.
        assert!(e > 4e-5 && e < 6e-5, "energy {e}");
    }

    #[test]
    fn zero_transfer_free() {
        let link = PcieLink::accelerator_card();
        assert_eq!(link.transfer_latency(Bytes::ZERO), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = PcieLink::new(PcieGeneration::Gen3, 0, SimDuration::ZERO, 0.9);
    }
}
