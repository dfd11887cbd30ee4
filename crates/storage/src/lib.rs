//! # dscs-storage
//!
//! Storage substrate for the DSCS-Serverless reproduction: every component of
//! the disaggregated-storage data path that the paper's end-to-end latencies
//! depend on.
//!
//! * [`flash`] — the NAND flash array inside a drive (channels, page latency,
//!   aggregate bandwidth, access energy).
//! * [`pcie`] — PCIe links: host↔drive and the dedicated peer-to-peer path
//!   inside the DSCS-Drive.
//! * [`drive`] — drive compositions: conventional NVMe SSD (host software path)
//!   and the DSCS-Drive (P2P path from flash to the in-storage DSA).
//! * [`network`] — the datacenter network / RPC model with heavy-tailed base
//!   latency and protobuf (de)serialization costs, calibrated to the paper's
//!   S3 read measurements (Figure 3).
//! * [`object_store`] — an S3-style replicated object store with DSCS-aware
//!   data placement (Section 5.2).
//! * [`snapshot`] — the CRIU-style process-snapshot restore path (setup +
//!   restore stream + page-fault warmup tail), the third cold-start
//!   modality next to registry spawn and flash reload.
//!
//! # Example: remote read vs. in-storage P2P read
//!
//! ```
//! use dscs_simcore::quantity::Bytes;
//! use dscs_storage::drive::DscsDrive;
//! use dscs_storage::network::NetworkModel;
//!
//! let size = Bytes::from_mib(2);
//! let remote = NetworkModel::default();
//! let drive = DscsDrive::smartssd_class();
//!
//! let remote_read = remote.access_latency_at_quantile(size, 0.5)
//!     + drive.as_ssd().host_read_latency(size);
//! let p2p_read = drive.p2p_read_latency(size);
//! assert!(p2p_read < remote_read); // the paper's core observation
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod flash;
pub mod network;
pub mod object_store;
pub mod pcie;
pub mod snapshot;

#[cfg(test)]
mod tests {
    use dscs_simcore::quantity::Bytes;

    use crate::drive::DscsDrive;
    use crate::network::NetworkModel;

    #[test]
    fn remote_access_dwarfs_in_storage_access() {
        // The observation that motivates the whole paper: for serverless-sized
        // payloads the remote-storage round trip is orders of magnitude slower
        // than touching the data inside the drive.
        let size = Bytes::from_mib(1);
        let remote = NetworkModel::default();
        let drive = DscsDrive::smartssd_class();
        let remote_read =
            remote.access_latency_at_quantile(size, 0.5) + drive.as_ssd().host_read_latency(size);
        let p2p_read = drive.p2p_read_latency(size);
        assert!(remote_read.as_secs_f64() > 10.0 * p2p_read.as_secs_f64());
    }
}
