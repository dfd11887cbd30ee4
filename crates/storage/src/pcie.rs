//! PCIe link model.
//!
//! Two PCIe paths inside the storage node matter: host CPU <-> storage drive,
//! and the dedicated peer-to-peer path between the flash controller and the
//! DSA inside the DSCS-Drive. Both are x4 Gen3 links: a bandwidth-limited
//! transfer plus a fixed per-transaction latency; energy uses the per-bit
//! cost reported for modern SerDes links (the paper cites Zeppelin's
//! numbers).

use dscs_simcore::quantity::{Bandwidth, Bytes};
use dscs_simcore::time::SimDuration;

/// Usable PCIe 3.0 bandwidth per lane, after encoding overhead.
const GEN3_LANE_BANDWIDTH: Bandwidth = Bandwidth::from_gbps(0.985);
/// Lanes of every link in the model.
const LANES: u32 = 4;

/// A x4 PCIe Gen3 link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLink {
    /// Fixed per-transaction latency (doorbell, DMA descriptor, completion).
    transaction_latency: SimDuration,
    /// Link efficiency after protocol (TLP) overhead.
    efficiency: f64,
}

impl PcieLink {
    /// The x4 Gen3 link of a datacenter NVMe drive.
    pub fn nvme_drive() -> Self {
        PcieLink {
            transaction_latency: SimDuration::from_micros(10),
            efficiency: 0.90,
        }
    }

    /// The internal peer-to-peer path between the flash controller and the DSA
    /// inside the DSCS-Drive (a short x4 Gen3 connection with lower
    /// per-transaction cost because no host round trip is involved).
    pub fn p2p_internal() -> Self {
        PcieLink {
            transaction_latency: SimDuration::from_micros(3),
            efficiency: 0.95,
        }
    }

    /// Effective bandwidth of the link.
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(
            GEN3_LANE_BANDWIDTH.bytes_per_sec() * f64::from(LANES) * self.efficiency,
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
        let link = PcieLink::nvme_drive();
        assert_eq!(link.transfer_latency(Bytes::ZERO), SimDuration::ZERO);
    }
}
