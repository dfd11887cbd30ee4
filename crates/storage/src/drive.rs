//! Storage-drive composition: conventional SSDs and the DSCS-Drive.
//!
//! A conventional drive is a flash array behind a host PCIe link. The
//! DSCS-Drive (Figure 5b) additionally contains a DRAM staging buffer, a DMA
//! engine and the DSA, with a dedicated peer-to-peer path between the flash
//! controller and the accelerator so data never crosses the host CPU's memory
//! or software stack.

use dscs_simcore::quantity::Bytes;
use dscs_simcore::time::SimDuration;

use crate::flash;
use crate::pcie::PcieLink;

/// Host-software cost on the storage node of a conventional (non-P2P)
/// access, which crosses the kernel block stack: system-call plus
/// block-layer overhead per I/O.
const SYSCALL: SimDuration = SimDuration::from_micros(18);
/// Object-service (key lookup, request handling) overhead per host-path
/// request.
const OBJECT_SERVICE: SimDuration = SimDuration::from_micros(120);
/// The one driver call (an `ioctl`) that initiates a P2P transfer inside the
/// DSCS-Drive; no per-byte host work follows it.
const P2P_SETUP: SimDuration = SimDuration::from_micros(25);

/// A conventional NVMe drive: flash behind a host PCIe link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdDrive {
    host_link: PcieLink,
}

impl SsdDrive {
    /// Creates a drive with datacenter-NVMe characteristics.
    pub fn datacenter_nvme() -> Self {
        SsdDrive {
            host_link: PcieLink::nvme_drive(),
        }
    }

    /// Latency for the storage node's CPU to read `size` bytes from this drive
    /// into host memory (kernel I/O path + flash + PCIe).
    pub fn host_read_latency(&self, size: Bytes) -> SimDuration {
        if size.as_u64() == 0 {
            return SimDuration::ZERO;
        }
        SYSCALL + OBJECT_SERVICE + flash::read_latency(size) + self.host_link.transfer_latency(size)
    }

    /// Latency for the storage node's CPU to write `size` bytes.
    pub fn host_write_latency(&self, size: Bytes) -> SimDuration {
        if size.as_u64() == 0 {
            return SimDuration::ZERO;
        }
        SYSCALL
            + OBJECT_SERVICE
            + flash::write_latency(size)
            + self.host_link.transfer_latency(size)
    }

    /// Energy of one host-path access.
    pub fn access_energy_joules(&self, size: Bytes) -> f64 {
        flash::access_energy_joules(size) + self.host_link.transfer_energy_joules(size)
    }
}

/// The DSCS-Drive: a conventional drive plus an internal P2P path to the DSA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DscsDrive {
    base: SsdDrive,
    p2p_link: PcieLink,
}

impl DscsDrive {
    /// Creates a DSCS-Drive with SmartSSD-class characteristics.
    pub fn smartssd_class() -> Self {
        DscsDrive {
            base: SsdDrive::datacenter_nvme(),
            p2p_link: PcieLink::p2p_internal(),
        }
    }

    /// The conventional-drive view (the DSCS-Drive still serves normal storage
    /// traffic through the host path).
    pub fn as_ssd(&self) -> &SsdDrive {
        &self.base
    }

    /// Latency to move `size` bytes from the flash array into the DSA's DRAM
    /// staging buffer over the internal P2P path, bypassing the host stack.
    /// One driver call initiates the transfer; flash read and P2P transfer are
    /// pipelined, so the slower of the two dominates.
    pub fn p2p_read_latency(&self, size: Bytes) -> SimDuration {
        if size.as_u64() == 0 {
            return SimDuration::ZERO;
        }
        let flash = flash::read_latency(size);
        let link = self.p2p_link.transfer_latency(size);
        P2P_SETUP + flash.max(link)
    }

    /// Latency to write `size` bytes of results from the DSA's staging buffer
    /// back to the flash array over the P2P path.
    pub fn p2p_write_latency(&self, size: Bytes) -> SimDuration {
        if size.as_u64() == 0 {
            return SimDuration::ZERO;
        }
        let flash = flash::write_latency(size);
        let link = self.p2p_link.transfer_latency(size);
        P2P_SETUP + flash.max(link)
    }

    /// Energy of one P2P access (flash + internal link only; no host CPU work).
    pub fn p2p_energy_joules(&self, size: Bytes) -> f64 {
        flash::access_energy_joules(size) + self.p2p_link.transfer_energy_joules(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_read_beats_host_read() {
        let drive = DscsDrive::smartssd_class();
        for size in [Bytes::from_kib(64), Bytes::from_mib(1), Bytes::from_mib(16)] {
            assert!(
                drive.p2p_read_latency(size) < drive.as_ssd().host_read_latency(size),
                "P2P should beat the host path at {size}"
            );
        }
    }

    #[test]
    fn p2p_pipeline_hides_faster_stage() {
        let drive = DscsDrive::smartssd_class();
        let size = Bytes::from_mib(8);
        let flash_only = flash::read_latency(size);
        let p2p = drive.p2p_read_latency(size);
        // The P2P path should cost roughly the slower stage plus setup, not the
        // sum of both stages.
        assert!(p2p < flash_only + PcieLink::p2p_internal().transfer_latency(size));
    }

    #[test]
    fn host_path_includes_software_overheads() {
        let drive = SsdDrive::datacenter_nvme();
        let small = drive.host_read_latency(Bytes::from_kib(4));
        // flash (~70us) + syscall (18us) + object service (120us) + PCIe (~10us).
        assert!(small.as_micros_f64() > 200.0, "latency {small}");
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let drive = DscsDrive::smartssd_class();
        let size = Bytes::from_mib(2);
        assert!(drive.p2p_write_latency(size) > drive.p2p_read_latency(size));
    }

    #[test]
    fn p2p_energy_below_host_energy() {
        let drive = DscsDrive::smartssd_class();
        let size = Bytes::from_mib(4);
        assert!(drive.p2p_energy_joules(size) <= drive.as_ssd().access_energy_joules(size));
    }

    #[test]
    fn zero_size_accesses_are_free() {
        let drive = DscsDrive::smartssd_class();
        assert_eq!(drive.p2p_read_latency(Bytes::ZERO), SimDuration::ZERO);
        assert_eq!(
            drive.as_ssd().host_write_latency(Bytes::ZERO),
            SimDuration::ZERO
        );
    }
}
