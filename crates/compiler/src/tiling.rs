//! Tile-size selection.
//!
//! The compiler performs "DSA design configuration specific optimizations such
//! as padding and tiling to maximize the DSA's utilization" (Section 5.1). For
//! a GEMM of size `m x k x n` and a given configuration, the tile sizes must
//! satisfy the scratchpad capacity constraint with double buffering:
//!
//! ```text
//! 2 * (tile_m*tile_k + tile_k*tile_n + tile_m*tile_n*4) <= buffer_bytes
//! ```
//!
//! (int8 operands, 32-bit accumulators for the output tile) while being as
//! large as possible so that DMA transfers amortise and the array stays busy.
//! Tiles are padded up to multiples of the array dimensions, which is where the
//! utilisation loss of oversized arrays at batch 1 comes from.

use dscs_dsa::config::DsaConfig;

/// A tiling decision for one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Tile size along the output-row (m) dimension.
    pub tile_m: u64,
    /// Tile size along the reduction (k) dimension.
    pub tile_k: u64,
    /// Tile size along the output-column (n) dimension.
    pub tile_n: u64,
}

impl Tiling {
    /// Scratchpad bytes one double-buffered tile set occupies.
    pub fn buffer_bytes(&self) -> u64 {
        2 * (self.tile_m * self.tile_k + self.tile_k * self.tile_n + self.tile_m * self.tile_n * 4)
    }

    /// Number of tiles needed to cover a full `m x k x n` GEMM.
    pub fn tile_count(&self, m: u64, k: u64, n: u64) -> u64 {
        m.div_ceil(self.tile_m) * k.div_ceil(self.tile_k) * n.div_ceil(self.tile_n)
    }
}

/// Selects a tiling for an `m x k x n` GEMM on `config`.
///
/// The reduction and column tiles start at the array dimensions (padded up) and
/// grow by doubling while the double-buffered working set fits; the row tile
/// then takes whatever capacity remains. This mirrors the paper's observation
/// that the compiler picks tiles small enough for memory transfers to overlap
/// the previous tile's compute.
///
/// # Panics
/// Panics if any GEMM dimension is zero or if the configuration cannot hold
/// even a minimum tile (which [`DsaConfig::validate`] rules out).
pub fn select_tiling(config: &DsaConfig, m: u64, k: u64, n: u64) -> Tiling {
    assert!(m > 0 && k > 0 && n > 0, "GEMM dimensions must be positive");
    let budget = config.buffer_bytes;

    // Pad the problem to the array's native granularity.
    let pad = |x: u64, to: u64| x.div_ceil(to) * to;
    let padded_k = pad(k, config.array_rows);
    let padded_n = pad(n, config.array_cols);

    let mut tile_k = config.array_rows.min(padded_k);
    let mut tile_n = config.array_cols.min(padded_n);
    let mut tile_m = m.clamp(1, config.array_rows);

    let fits = |tm: u64, tk: u64, tn: u64| 2 * (tm * tk + tk * tn + tm * tn * 4) <= budget;
    assert!(
        fits(1, tile_k, tile_n) || fits(1, config.array_rows, config.array_cols),
        "configuration cannot hold a minimum tile"
    );

    // Grow the reduction dimension first (weight reuse), then columns, then rows.
    loop {
        let next = (tile_k * 2).min(padded_k);
        if next != tile_k && fits(tile_m, next, tile_n) {
            tile_k = next;
        } else {
            break;
        }
    }
    loop {
        let next = (tile_n * 2).min(padded_n);
        if next != tile_n && fits(tile_m, tile_k, next) {
            tile_n = next;
        } else {
            break;
        }
    }
    loop {
        let next = (tile_m * 2).min(m);
        if next != tile_m && fits(next, tile_k, tile_n) {
            tile_m = next;
        } else {
            break;
        }
    }

    Tiling {
        tile_m,
        tile_k,
        tile_n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscs_dsa::config::{DsaConfig, MemoryKind, TechnologyNode};
    use dscs_simcore::quantity::Bytes;

    #[test]
    fn tiles_fit_in_buffer() {
        let cfg = DsaConfig::paper_optimal();
        let t = select_tiling(&cfg, 3136, 576, 64);
        assert!(t.buffer_bytes() <= cfg.buffer_bytes);
        assert!(t.tile_m >= 1 && t.tile_k >= 1 && t.tile_n >= 1);
    }

    #[test]
    fn small_gemm_uses_single_tile() {
        let cfg = DsaConfig::paper_optimal();
        let t = select_tiling(&cfg, 1, 64, 2);
        assert_eq!(t.tile_count(1, 64, 2), 1);
    }

    #[test]
    fn huge_gemm_needs_many_tiles() {
        let cfg = DsaConfig::paper_optimal();
        let t = select_tiling(&cfg, 32, 768, 50_257);
        assert!(t.tile_count(32, 768, 50_257) > 1);
        assert!(t.buffer_bytes() <= cfg.buffer_bytes);
    }

    #[test]
    fn bigger_buffer_means_bigger_tiles() {
        let small = DsaConfig::square(
            128,
            Bytes::from_kib(512).as_u64(),
            MemoryKind::Ddr5,
            TechnologyNode::Nm45,
        );
        let large = DsaConfig::square(
            128,
            Bytes::from_mib(16).as_u64(),
            MemoryKind::Ddr5,
            TechnologyNode::Nm45,
        );
        let m = 4096;
        let k = 4096;
        let n = 4096;
        let t_small = select_tiling(&small, m, k, n);
        let t_large = select_tiling(&large, m, k, n);
        assert!(t_large.tile_count(m, k, n) < t_small.tile_count(m, k, n));
    }

    #[test]
    fn reduction_dimension_grows_first() {
        let cfg = DsaConfig::paper_optimal();
        let t = select_tiling(&cfg, 1, 4096, 4096);
        assert!(t.tile_k >= t.tile_n || t.tile_n == cfg.array_cols);
    }

    #[test]
    fn tiling_padded_to_array_granularity() {
        let cfg = DsaConfig::paper_optimal();
        let t = select_tiling(&cfg, 1, 100, 10);
        // k padded to 128, n padded to 128 (capped by padded problem size).
        assert_eq!(t.tile_k % cfg.array_rows, 0);
        assert_eq!(t.tile_n % cfg.array_cols, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = select_tiling(&DsaConfig::paper_optimal(), 0, 1, 1);
    }
}
