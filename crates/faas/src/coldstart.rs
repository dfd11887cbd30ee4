//! Cold-start and container-lifecycle model.
//!
//! A function experiences a cold start when its container image must be pulled
//! from a remote registry, unpacked and health-checked before the first
//! request can run (Section 5.3). DSCS-Serverless incurs the same cold start,
//! plus loading the model weights into the DSA's memory — but it can also
//! offload an evicted function's image to the drive's flash over the P2P path
//! and reload it from there instead of the remote registry on the next
//! invocation.
//!
//! A third modality sits beside those two: CRIU-style **snapshot restore**,
//! where a checkpointed warm process is resumed from local storage instead
//! of being spawned at all — no image unpack, no runtime boot, just the
//! restore stream and its page-fault warmup tail (priced by
//! [`dscs_storage::snapshot`]).

use dscs_simcore::quantity::{Bandwidth, Bytes};
use dscs_simcore::time::SimDuration;
use dscs_storage::snapshot;

/// Where a container image is fetched from on a cold start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageSource {
    /// Remote container registry over the datacenter network.
    RemoteRegistry,
    /// The drive's own flash array over the P2P path (DSCS-Serverless's cached
    /// image path).
    LocalFlash,
    /// A CRIU-style process snapshot restored from local storage: skips the
    /// unpack and runtime-boot phases entirely, paying the restore stream
    /// plus its page-fault warmup tail instead.
    SnapshotRestore,
}

/// Bandwidth to the remote registry.
const REGISTRY_BANDWIDTH: Bandwidth = Bandwidth::from_mbps(250.0);
/// Bandwidth from local flash over the P2P path.
const FLASH_BANDWIDTH: Bandwidth = Bandwidth::from_gbps(3.0);
/// Image unpack/decompression throughput.
const UNPACK_BANDWIDTH: Bandwidth = Bandwidth::from_mbps(400.0);
/// Runtime initialisation + health check time.
const STARTUP_CHECK: SimDuration = SimDuration::from_millis(350);

/// Cold-start latency for an image of `image_size` fetched from `source`.
///
/// For [`ImageSource::SnapshotRestore`], `image_size` is read as the
/// snapshot size (the checkpointed resident set, approximated by the
/// unpacked image) and the unpack + startup-check phases are skipped: the
/// restored process is already initialised, so the whole cost is
/// [`snapshot::restore_latency`].
pub fn cold_start_latency(image_size: Bytes, source: ImageSource) -> SimDuration {
    let fetch_bw = match source {
        ImageSource::RemoteRegistry => REGISTRY_BANDWIDTH,
        ImageSource::LocalFlash => FLASH_BANDWIDTH,
        ImageSource::SnapshotRestore => return snapshot::restore_latency(image_size),
    };
    fetch_bw.transfer_time(image_size) + UNPACK_BANDWIDTH.transfer_time(image_size) + STARTUP_CHECK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_cost_scales_with_image_size() {
        let small = cold_start_latency(Bytes::from_mib(60), ImageSource::RemoteRegistry);
        let large = cold_start_latency(Bytes::from_mib(600), ImageSource::RemoteRegistry);
        assert!(large > small * 5u64);
    }

    #[test]
    fn local_flash_cold_start_is_faster_than_registry() {
        let size = Bytes::from_mib(400);
        let remote = cold_start_latency(size, ImageSource::RemoteRegistry);
        let local = cold_start_latency(size, ImageSource::LocalFlash);
        assert!(local < remote);
    }

    #[test]
    fn typical_cold_start_is_seconds_scale() {
        let latency = cold_start_latency(Bytes::from_mib(400), ImageSource::RemoteRegistry);
        assert!(
            (1.0..10.0).contains(&latency.as_secs_f64()),
            "latency {latency}"
        );
    }

    #[test]
    fn snapshot_restore_undercuts_both_image_paths() {
        let size = Bytes::from_mib(400);
        let restore = cold_start_latency(size, ImageSource::SnapshotRestore);
        assert!(restore < cold_start_latency(size, ImageSource::LocalFlash));
        assert!(restore < cold_start_latency(size, ImageSource::RemoteRegistry));
        assert_eq!(restore, snapshot::restore_latency(size));
    }

    #[test]
    fn snapshot_restore_scales_with_snapshot_size() {
        let restore = |size| cold_start_latency(size, ImageSource::SnapshotRestore);
        assert!(restore(Bytes::from_mib(512)) > restore(Bytes::from_mib(32)));
        assert_eq!(restore(Bytes::ZERO), SimDuration::ZERO);
    }
}
