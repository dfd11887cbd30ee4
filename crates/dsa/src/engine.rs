//! Cycle models of the DSA's execution engines.
//!
//! * [`MpuModel`] — the systolic-array Matrix Processing Unit. A GEMM tile of
//!   size `m x k x n` is executed as a weight-stationary pass: weights for an
//!   `rows x cols` sub-tile are pre-loaded, activations stream through the
//!   array one row per cycle, and partial sums cascade down the columns. The
//!   cycle cost is the streaming depth plus pipeline fill/drain, repeated for
//!   every sub-tile of the larger tile.
//! * [`VpuModel`] — the SIMD Vector Processing Unit: `lanes` operations per
//!   cycle plus a small issue overhead per tile.
//! * [`DmaModel`] — the DMA engine between drive DRAM and the scratchpad:
//!   bandwidth-limited transfer plus a fixed setup cost.

use crate::config::DsaConfig;

/// Fixed DMA setup cost per transfer (descriptor fetch, address translation).
const DMA_SETUP_CYCLES: u64 = 60;
/// Per-tile issue/drain overhead of the VPU.
const VPU_ISSUE_CYCLES: u64 = 8;

/// Systolic-array cycle model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpuModel {
    rows: u64,
    cols: u64,
}

impl MpuModel {
    /// Builds the MPU model from a configuration.
    pub fn new(config: &DsaConfig) -> Self {
        MpuModel {
            rows: config.array_rows,
            cols: config.array_cols,
        }
    }

    /// Cycles to execute a GEMM tile of `m x k x n`.
    ///
    /// The tile is decomposed into ceil(k/rows) x ceil(n/cols) weight
    /// sub-tiles. For each sub-tile the array streams `m` activation rows, and
    /// pays a fill/drain latency of `rows + cols` cycles, plus the weight
    /// pre-load of `rows` cycles (overlapped with the previous sub-tile's drain
    /// in steady state, so charged at half).
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn gemm_cycles(&self, m: u64, k: u64, n: u64) -> u64 {
        assert!(
            m > 0 && k > 0 && n > 0,
            "GEMM tile dimensions must be positive"
        );
        let k_tiles = k.div_ceil(self.rows);
        let n_tiles = n.div_ceil(self.cols);
        let fill_drain = self.rows + self.cols;
        let preload = self.rows / 2;
        k_tiles * n_tiles * (m + fill_drain + preload)
    }
}

/// SIMD vector-unit cycle model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VpuModel {
    lanes: u64,
}

impl VpuModel {
    /// Builds the VPU model from a configuration.
    pub fn new(config: &DsaConfig) -> Self {
        VpuModel {
            lanes: config.vpu_lanes(),
        }
    }

    /// Cycles to execute `elements` values with `ops_per_element` operations each.
    ///
    /// # Panics
    /// Panics if `elements` is zero.
    pub fn vector_cycles(&self, elements: u64, ops_per_element: u64) -> u64 {
        assert!(elements > 0, "vector tile must have elements");
        let total_ops = elements * ops_per_element.max(1);
        total_ops.div_ceil(self.lanes) + VPU_ISSUE_CYCLES
    }
}

/// DMA engine cycle model (drive DRAM <-> scratchpad).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaModel {
    bytes_per_cycle: f64,
}

impl DmaModel {
    /// Builds the DMA model from a configuration.
    pub fn new(config: &DsaConfig) -> Self {
        DmaModel {
            bytes_per_cycle: config.bytes_per_cycle(),
        }
    }

    /// Cycles to transfer `bytes` between DRAM and the scratchpad.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        (bytes as f64 / self.bytes_per_cycle).ceil() as u64 + DMA_SETUP_CYCLES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DsaConfig, MemoryKind, TechnologyNode};
    use dscs_simcore::quantity::Bytes;

    fn cfg(dim: u64) -> DsaConfig {
        DsaConfig::square(
            dim,
            Bytes::from_mib(4).as_u64(),
            MemoryKind::Ddr5,
            TechnologyNode::Nm45,
        )
    }

    #[test]
    fn native_tile_costs_stream_plus_fill() {
        let mpu = MpuModel::new(&cfg(128));
        // One 128x128 weight sub-tile, 128 activation rows.
        let cycles = mpu.gemm_cycles(128, 128, 128);
        assert_eq!(cycles, 128 + 256 + 64);
    }

    #[test]
    fn large_tiles_decompose_into_subtiles() {
        let mpu = MpuModel::new(&cfg(128));
        let one = mpu.gemm_cycles(128, 128, 128);
        let four = mpu.gemm_cycles(128, 256, 256);
        assert_eq!(four, 4 * one);
    }

    #[test]
    fn batch_one_favours_moderate_arrays() {
        // A skinny batch-1 GEMM (m=1) should not run faster on a 1024-wide
        // array than the fill/drain cost allows — this is the effect that makes
        // Dim128 the paper's optimum.
        let gemm = |dim: u64| MpuModel::new(&cfg(dim)).gemm_cycles(1, 4096, 4096);
        let c128 = gemm(128);
        let c1024 = gemm(1024);
        // The 1024 array uses 64x fewer sub-tiles but pays 8x the fill/drain,
        // so its advantage collapses to well under the 64x PE ratio.
        let speedup = c128 as f64 / c1024 as f64;
        assert!(speedup < 16.0, "speedup {speedup}");
    }

    #[test]
    fn vpu_cycles_scale_with_lanes() {
        let narrow = VpuModel::new(&cfg(32));
        let wide = VpuModel::new(&cfg(128));
        let e = 1 << 20;
        assert!(narrow.vector_cycles(e, 1) > wide.vector_cycles(e, 1));
    }

    #[test]
    fn vpu_charges_issue_overhead() {
        let vpu = VpuModel::new(&cfg(128));
        assert_eq!(vpu.vector_cycles(1, 1), 1 + 8);
    }

    #[test]
    fn dma_is_bandwidth_limited() {
        let dma = DmaModel::new(&cfg(128));
        let cycles = dma.transfer_cycles(38_000);
        // DDR5 at 1 GHz moves 38 bytes/cycle -> 1000 cycles + setup.
        assert_eq!(cycles, 1000 + 60);
        assert_eq!(dma.transfer_cycles(0), 0);
    }

    #[test]
    fn hbm_dma_is_faster_than_ddr4() {
        let hbm = DmaModel::new(&DsaConfig::square(
            128,
            Bytes::from_mib(4).as_u64(),
            MemoryKind::Hbm2,
            TechnologyNode::Nm45,
        ));
        let ddr4 = DmaModel::new(&DsaConfig::square(
            128,
            Bytes::from_mib(4).as_u64(),
            MemoryKind::Ddr4,
            TechnologyNode::Nm45,
        ));
        let bytes = 1 << 22;
        assert!(hbm.transfer_cycles(bytes) * 10 < ddr4.transfer_cycles(bytes));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_gemm_dim_panics() {
        MpuModel::new(&cfg(128)).gemm_cycles(0, 1, 1);
    }
}
