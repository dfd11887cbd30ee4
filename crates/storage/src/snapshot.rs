//! Process-snapshot restore model (CRIU-style cold-start path).
//!
//! A snapshot restore skips the pull-unpack-boot container lifecycle: the
//! checkpointed process image is read back from local storage, the process
//! tree is rebuilt, and execution resumes where the checkpoint left off.
//! Three costs dominate, and the model prices each:
//!
//! 1. a fixed **restore setup** latency (parsing the image manifest and
//!    rebuilding the process tree — tens of milliseconds for CRIU),
//! 2. **streaming the snapshot pages** back from local storage at the
//!    restore bandwidth, and
//! 3. a **page-fault warmup tail**: lazily-restored pages faulted back in
//!    after resume, served at a far lower effective bandwidth than the
//!    sequential stream. The tail is modelled as a fixed fraction of the
//!    snapshot re-faulted on demand, so it grows monotonically with
//!    snapshot size.
//!
//! Calibration targets published CRIU restore measurements: tens-of-MiB
//! process images restore in the low hundreds of milliseconds, an order of
//! magnitude under a registry container spawn but never free.

use dscs_simcore::quantity::{Bandwidth, Bytes};
use dscs_simcore::time::SimDuration;

/// Configuration of the snapshot-restore path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotConfig {
    /// Sequential bandwidth for streaming snapshot pages from local storage.
    pub restore_bandwidth: Bandwidth,
    /// Fixed restore setup: image manifest parse + process-tree rebuild.
    pub restore_setup: SimDuration,
    /// Fraction of the snapshot faulted back in lazily after resume,
    /// in `[0, 1]`.
    pub warmup_fault_fraction: f64,
    /// Effective bandwidth of the demand-fault path (random 4 KiB faults,
    /// far below the sequential restore stream).
    pub fault_bandwidth: Bandwidth,
}

impl SnapshotConfig {
    /// CRIU restoring from a local NVMe drive: 2 GB/s sequential restore
    /// stream, 45 ms process-tree rebuild, 15% of pages demand-faulted at an
    /// effective 400 MB/s.
    pub fn criu_local_nvme() -> Self {
        SnapshotConfig {
            restore_bandwidth: Bandwidth::from_gbps(2.0),
            restore_setup: SimDuration::from_millis(45),
            warmup_fault_fraction: 0.15,
            fault_bandwidth: Bandwidth::from_mbps(400.0),
        }
    }
}

/// The snapshot-restore cost model: answers restore-latency queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotStore {
    config: SnapshotConfig,
}

impl SnapshotStore {
    /// Creates a snapshot store from its configuration.
    pub fn new(config: SnapshotConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.warmup_fault_fraction),
            "warmup fault fraction must be in [0, 1]"
        );
        SnapshotStore { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SnapshotConfig {
        &self.config
    }

    /// Time-to-ready for restoring a snapshot of `size` bytes: fixed setup,
    /// plus streaming the pages at the restore bandwidth, plus the
    /// page-fault warmup tail. Monotone in `size`; a zero-size snapshot is
    /// free.
    pub fn restore_latency(&self, size: Bytes) -> SimDuration {
        if size.as_u64() == 0 {
            return SimDuration::ZERO;
        }
        let faulted = size.scale(self.config.warmup_fault_fraction);
        self.config.restore_setup
            + self.config.restore_bandwidth.transfer_time(size)
            + self.config.fault_bandwidth.transfer_time(faulted)
    }

    /// The warmup-tail component alone: the post-resume demand faults for a
    /// snapshot of `size` bytes.
    pub fn warmup_tail(&self, size: Bytes) -> SimDuration {
        self.config
            .fault_bandwidth
            .transfer_time(size.scale(self.config.warmup_fault_fraction))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tens_of_mib_restore_in_low_hundreds_of_millis() {
        let store = SnapshotStore::new(SnapshotConfig::criu_local_nvme());
        let latency = store.restore_latency(Bytes::from_mib(128));
        // 45 ms setup + ~67 ms stream + ~50 ms fault tail ~ 160 ms.
        assert!(
            (0.1..0.5).contains(&latency.as_secs_f64()),
            "latency {latency}"
        );
    }

    #[test]
    fn restore_latency_is_monotone_in_snapshot_size() {
        let store = SnapshotStore::new(SnapshotConfig::criu_local_nvme());
        let mut previous = SimDuration::ZERO;
        for mib in [1, 4, 16, 64, 256, 1024] {
            let latency = store.restore_latency(Bytes::from_mib(mib));
            assert!(latency > previous, "{mib} MiB must cost more");
            previous = latency;
        }
    }

    #[test]
    fn zero_size_is_free() {
        let store = SnapshotStore::new(SnapshotConfig::criu_local_nvme());
        assert_eq!(store.restore_latency(Bytes::ZERO), SimDuration::ZERO);
        assert_eq!(store.warmup_tail(Bytes::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn warmup_tail_is_part_of_the_restore() {
        let store = SnapshotStore::new(SnapshotConfig::criu_local_nvme());
        let size = Bytes::from_mib(64);
        let tail = store.warmup_tail(size);
        assert!(tail > SimDuration::ZERO);
        assert!(store.restore_latency(size) > tail);
    }

    #[test]
    fn no_lazy_pages_means_no_tail() {
        let eager = SnapshotStore::new(SnapshotConfig {
            warmup_fault_fraction: 0.0,
            ..SnapshotConfig::criu_local_nvme()
        });
        assert_eq!(eager.warmup_tail(Bytes::from_mib(64)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "warmup fault fraction")]
    fn out_of_range_fault_fraction_rejected() {
        let _ = SnapshotStore::new(SnapshotConfig {
            warmup_fault_fraction: 1.5,
            ..SnapshotConfig::criu_local_nvme()
        });
    }
}
