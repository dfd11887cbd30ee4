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
use dscs_storage::snapshot::{SnapshotConfig, SnapshotStore};

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

/// Cold-start model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdStartModel {
    /// Bandwidth to the remote registry.
    pub registry_bandwidth: Bandwidth,
    /// Bandwidth from local flash over the P2P path.
    pub flash_bandwidth: Bandwidth,
    /// Image unpack/decompression throughput.
    pub unpack_bandwidth: Bandwidth,
    /// Runtime initialisation + health check time.
    pub startup_check: SimDuration,
    /// Pricing of the snapshot-restore path (restore bandwidth, fixed setup
    /// and the page-fault warmup tail).
    pub snapshot: SnapshotConfig,
}

impl Default for ColdStartModel {
    fn default() -> Self {
        ColdStartModel {
            registry_bandwidth: Bandwidth::from_mbps(250.0),
            flash_bandwidth: Bandwidth::from_gbps(3.0),
            unpack_bandwidth: Bandwidth::from_mbps(400.0),
            startup_check: SimDuration::from_millis(350),
            snapshot: SnapshotConfig::criu_local_nvme(),
        }
    }
}

impl ColdStartModel {
    /// Cold-start latency for an image of `image_size` fetched from `source`.
    ///
    /// For [`ImageSource::SnapshotRestore`], `image_size` is read as the
    /// snapshot size (the checkpointed resident set, approximated by the
    /// unpacked image) and the unpack + startup-check phases are skipped:
    /// the restored process is already initialised, so the whole cost is
    /// [`ColdStartModel::snapshot_restore_latency`].
    pub fn cold_start_latency(&self, image_size: Bytes, source: ImageSource) -> SimDuration {
        let fetch_bw = match source {
            ImageSource::RemoteRegistry => self.registry_bandwidth,
            ImageSource::LocalFlash => self.flash_bandwidth,
            ImageSource::SnapshotRestore => return self.snapshot_restore_latency(image_size),
        };
        fetch_bw.transfer_time(image_size)
            + self.unpack_bandwidth.transfer_time(image_size)
            + self.startup_check
    }

    /// Time-to-ready for restoring a `snapshot_size` process snapshot:
    /// fixed setup + restore stream + page-fault warmup tail (see
    /// [`dscs_storage::snapshot::SnapshotStore::restore_latency`]).
    pub fn snapshot_restore_latency(&self, snapshot_size: Bytes) -> SimDuration {
        SnapshotStore::new(self.snapshot).restore_latency(snapshot_size)
    }

    /// Additional latency to load `weight_bytes` of model weights into the
    /// accelerator's memory (charged on the first invocation after a cold
    /// start for platforms with device memory).
    pub fn weight_load_latency(
        &self,
        weight_bytes: Bytes,
        device_bandwidth: Bandwidth,
    ) -> SimDuration {
        device_bandwidth.transfer_time(weight_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_cost_scales_with_image_size() {
        let m = ColdStartModel::default();
        let small = m.cold_start_latency(Bytes::from_mib(60), ImageSource::RemoteRegistry);
        let large = m.cold_start_latency(Bytes::from_mib(600), ImageSource::RemoteRegistry);
        assert!(large > small * 5u64);
    }

    #[test]
    fn local_flash_cold_start_is_faster_than_registry() {
        let m = ColdStartModel::default();
        let size = Bytes::from_mib(400);
        let remote = m.cold_start_latency(size, ImageSource::RemoteRegistry);
        let local = m.cold_start_latency(size, ImageSource::LocalFlash);
        assert!(local < remote);
    }

    #[test]
    fn typical_cold_start_is_seconds_scale() {
        let m = ColdStartModel::default();
        let latency = m.cold_start_latency(Bytes::from_mib(400), ImageSource::RemoteRegistry);
        assert!(
            (1.0..10.0).contains(&latency.as_secs_f64()),
            "latency {latency}"
        );
    }

    #[test]
    fn snapshot_restore_undercuts_both_image_paths() {
        let m = ColdStartModel::default();
        let size = Bytes::from_mib(400);
        let restore = m.cold_start_latency(size, ImageSource::SnapshotRestore);
        assert!(restore < m.cold_start_latency(size, ImageSource::LocalFlash));
        assert!(restore < m.cold_start_latency(size, ImageSource::RemoteRegistry));
        assert_eq!(restore, m.snapshot_restore_latency(size));
    }

    #[test]
    fn snapshot_restore_scales_with_snapshot_size() {
        let m = ColdStartModel::default();
        let small = m.snapshot_restore_latency(Bytes::from_mib(32));
        let large = m.snapshot_restore_latency(Bytes::from_mib(512));
        assert!(large > small);
        assert_eq!(m.snapshot_restore_latency(Bytes::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn weight_load_uses_device_bandwidth() {
        let m = ColdStartModel::default();
        let t = m.weight_load_latency(Bytes::from_mib(380), Bandwidth::from_gbps(38.0));
        assert!(t.as_millis_f64() > 5.0 && t.as_millis_f64() < 30.0, "t {t}");
    }
}
