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
//! The constants describe CRIU restoring from a local NVMe drive: a 2 GB/s
//! sequential restore stream, a 45 ms process-tree rebuild, and 15% of pages
//! demand-faulted at an effective 400 MB/s. They target published CRIU
//! restore measurements: tens-of-MiB process images restore in the low
//! hundreds of milliseconds, an order of magnitude under a registry
//! container spawn but never free.

use dscs_simcore::quantity::{Bandwidth, Bytes};
use dscs_simcore::time::SimDuration;

/// Sequential bandwidth for streaming snapshot pages from local storage.
const RESTORE_BANDWIDTH: Bandwidth = Bandwidth::from_gbps(2.0);
/// Fixed restore setup: image manifest parse + process-tree rebuild.
const RESTORE_SETUP: SimDuration = SimDuration::from_millis(45);
/// Fraction of the snapshot faulted back in lazily after resume.
const WARMUP_FAULT_FRACTION: f64 = 0.15;
/// Effective bandwidth of the demand-fault path (random 4 KiB faults, far
/// below the sequential restore stream).
const FAULT_BANDWIDTH: Bandwidth = Bandwidth::from_mbps(400.0);

/// Time-to-ready for restoring a snapshot of `size` bytes: fixed setup, plus
/// streaming the pages at the restore bandwidth, plus the page-fault warmup
/// tail. Monotone in `size`; a zero-size snapshot is free.
pub fn restore_latency(size: Bytes) -> SimDuration {
    if size.as_u64() == 0 {
        return SimDuration::ZERO;
    }
    let faulted = size.scale(WARMUP_FAULT_FRACTION);
    RESTORE_SETUP + RESTORE_BANDWIDTH.transfer_time(size) + FAULT_BANDWIDTH.transfer_time(faulted)
}

/// The warmup-tail component alone: the post-resume demand faults for a
/// snapshot of `size` bytes.
pub fn warmup_tail(size: Bytes) -> SimDuration {
    FAULT_BANDWIDTH.transfer_time(size.scale(WARMUP_FAULT_FRACTION))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tens_of_mib_restore_in_low_hundreds_of_millis() {
        let latency = restore_latency(Bytes::from_mib(128));
        // 45 ms setup + ~67 ms stream + ~50 ms fault tail ~ 160 ms.
        assert!(
            (0.1..0.5).contains(&latency.as_secs_f64()),
            "latency {latency}"
        );
    }

    #[test]
    fn restore_latency_is_monotone_in_snapshot_size() {
        let mut previous = SimDuration::ZERO;
        for mib in [1, 4, 16, 64, 256, 1024] {
            let latency = restore_latency(Bytes::from_mib(mib));
            assert!(latency > previous, "{mib} MiB must cost more");
            previous = latency;
        }
    }

    #[test]
    fn zero_size_is_free() {
        assert_eq!(restore_latency(Bytes::ZERO), SimDuration::ZERO);
        assert_eq!(warmup_tail(Bytes::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn warmup_tail_is_part_of_the_restore() {
        let size = Bytes::from_mib(64);
        let tail = warmup_tail(size);
        assert!(tail > SimDuration::ZERO);
        assert!(restore_latency(size) > tail);
    }
}
