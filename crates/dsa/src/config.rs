//! DSA configuration points.
//!
//! The design-space exploration in the paper scales a TPUv1-like baseline from
//! 4x4 to 1024x1024 processing elements, buffers up to 32 MiB, and three memory
//! technologies (DDR4, DDR5, HBM2). A configuration also fixes the clock (the
//! synthesized design closes timing at 1 GHz) and the technology node.

use std::fmt;

use dscs_simcore::quantity::{Bandwidth, Bytes, Frequency};

use crate::scaling::ScalingFactors;

/// Off-chip memory technology available to the DSA inside the drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// DDR4: 19.2 GB/s.
    Ddr4,
    /// DDR5: 38 GB/s.
    Ddr5,
    /// HBM2: 460 GB/s.
    Hbm2,
}

impl MemoryKind {
    /// All memory kinds in the search space.
    pub const ALL: [MemoryKind; 3] = [MemoryKind::Ddr4, MemoryKind::Ddr5, MemoryKind::Hbm2];

    /// Peak bandwidth of the memory technology.
    pub fn bandwidth(self) -> Bandwidth {
        match self {
            MemoryKind::Ddr4 => Bandwidth::from_gbps(19.2),
            MemoryKind::Ddr5 => Bandwidth::from_gbps(38.0),
            MemoryKind::Hbm2 => Bandwidth::from_gbps(460.0),
        }
    }

    /// Access energy per byte in picojoules (DRAM interface + device).
    pub fn energy_pj_per_byte(self) -> f64 {
        match self {
            MemoryKind::Ddr4 => 20.0,
            MemoryKind::Ddr5 => 15.0,
            MemoryKind::Hbm2 => 7.0,
        }
    }

    /// Interface + device static power contribution in watts.
    pub fn static_power_watts(self) -> f64 {
        match self {
            MemoryKind::Ddr4 => 0.35,
            MemoryKind::Ddr5 => 0.45,
            MemoryKind::Hbm2 => 1.80,
        }
    }
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryKind::Ddr4 => "DDR4",
            MemoryKind::Ddr5 => "DDR5",
            MemoryKind::Hbm2 => "HBM2",
        };
        f.write_str(s)
    }
}

/// Silicon technology node of the DSA implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechnologyNode {
    /// FreePDK 45 nm — the node used for synthesis and the DSE figures.
    Nm45,
    /// 14 nm — the SmartSSD-class node used for the end-to-end results.
    Nm14,
}

impl TechnologyNode {
    /// The scaling factors relative to the 45 nm baseline.
    pub fn scaling(self) -> ScalingFactors {
        match self {
            TechnologyNode::Nm45 => ScalingFactors::identity(),
            TechnologyNode::Nm14 => ScalingFactors::nm45_to_nm14(),
        }
    }
}

impl fmt::Display for TechnologyNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TechnologyNode::Nm45 => "45nm",
            TechnologyNode::Nm14 => "14nm",
        };
        f.write_str(s)
    }
}

/// One DSA design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DsaConfig {
    /// Systolic-array rows (number of PE rows in the MPU).
    pub array_rows: u64,
    /// Systolic-array columns.
    pub array_cols: u64,
    /// Total on-chip scratchpad capacity shared by input, weight and output
    /// buffers (bytes).
    pub buffer_bytes: u64,
    /// Off-chip memory technology.
    pub memory: MemoryKind,
    /// Clock frequency in megahertz.
    pub clock_mhz: u64,
    /// Technology node.
    pub node: TechnologyNode,
}

impl DsaConfig {
    /// The design point the paper's DSE selects: a 128x128 systolic array with
    /// a 4 MiB scratchpad and DDR5 memory, clocked at 1 GHz, built at 14 nm for
    /// deployment inside the SmartSSD-class drive.
    pub fn paper_optimal() -> Self {
        DsaConfig {
            array_rows: 128,
            array_cols: 128,
            buffer_bytes: Bytes::from_mib(4).as_u64(),
            memory: MemoryKind::Ddr5,
            clock_mhz: 1000,
            node: TechnologyNode::Nm14,
        }
    }

    /// The same design point evaluated at the 45 nm synthesis node.
    #[cfg(test)]
    pub(crate) fn paper_optimal_45nm() -> Self {
        DsaConfig {
            node: TechnologyNode::Nm45,
            ..Self::paper_optimal()
        }
    }

    /// Creates a square-array configuration, scaling the buffer with the array
    /// as the paper's search space does (but capped at 32 MiB).
    ///
    /// # Panics
    /// Panics if `dim` is zero.
    pub fn square(dim: u64, buffer_bytes: u64, memory: MemoryKind, node: TechnologyNode) -> Self {
        assert!(dim > 0, "array dimension must be positive");
        DsaConfig {
            array_rows: dim,
            array_cols: dim,
            buffer_bytes,
            memory,
            clock_mhz: 1000,
            node,
        }
    }

    /// Number of processing elements.
    pub fn pe_count(&self) -> u64 {
        self.array_rows * self.array_cols
    }

    /// Clock frequency.
    pub fn frequency(&self) -> Frequency {
        Frequency::from_mhz(self.clock_mhz as f64)
    }

    /// Off-chip memory bandwidth.
    pub fn memory_bandwidth(&self) -> Bandwidth {
        self.memory.bandwidth()
    }

    /// Peak int8 throughput in operations per second (two ops per MAC per cycle).
    pub fn peak_ops_per_sec(&self) -> f64 {
        2.0 * self.pe_count() as f64 * self.frequency().as_hz()
    }

    /// Bytes of off-chip traffic the memory can deliver per clock cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.memory_bandwidth().bytes_per_sec() / self.frequency().as_hz()
    }

    /// Number of SIMD lanes in the VPU. The VPU is sized to drain two MPU
    /// output columns per cycle so element-wise epilogues (bias, batch-norm,
    /// activation) never throttle the systolic array at large batch sizes.
    pub fn vpu_lanes(&self) -> u64 {
        2 * self.array_cols
    }

    /// A short identifier such as `Dim128-4MB-DDR5`, matching the labelling
    /// used in the paper's DSE figures.
    pub fn label(&self) -> String {
        format!(
            "Dim{}-{}MB-{}",
            self.array_rows,
            self.buffer_bytes / (1024 * 1024),
            self.memory
        )
    }

    /// Checks internal consistency (non-zero sizes, buffer can hold at least
    /// one double-buffered tile of each operand).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.array_rows == 0 || self.array_cols == 0 {
            return Err(ConfigError::ZeroDimension);
        }
        if self.clock_mhz == 0 {
            return Err(ConfigError::ZeroClock);
        }
        // Minimum: double-buffered weight + input + output tiles of the array's
        // native size in int8.
        let min_tile = self.array_rows * self.array_cols;
        if self.buffer_bytes < 6 * min_tile {
            return Err(ConfigError::BufferTooSmall {
                required: 6 * min_tile,
                available: self.buffer_bytes,
            });
        }
        Ok(())
    }
}

impl fmt::Display for DsaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @{}MHz {}", self.label(), self.clock_mhz, self.node)
    }
}

/// Errors reported by [`DsaConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Array rows or columns are zero.
    ZeroDimension,
    /// Clock frequency is zero.
    ZeroClock,
    /// The scratchpad cannot hold a double-buffered minimum tile set.
    BufferTooSmall {
        /// Minimum bytes required.
        required: u64,
        /// Bytes available.
        available: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroDimension => write!(f, "array dimensions must be non-zero"),
            ConfigError::ZeroClock => write!(f, "clock frequency must be non-zero"),
            ConfigError::BufferTooSmall {
                required,
                available,
            } => {
                write!(
                    f,
                    "buffer too small: need {required} bytes, have {available}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_optimal_matches_section_4() {
        let c = DsaConfig::paper_optimal();
        assert_eq!(c.array_rows, 128);
        assert_eq!(c.array_cols, 128);
        assert_eq!(c.buffer_bytes, 4 * 1024 * 1024);
        assert_eq!(c.memory, MemoryKind::Ddr5);
        assert_eq!(c.label(), "Dim128-4MB-DDR5");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn peak_throughput_scales_with_pe_count() {
        let small = DsaConfig::square(
            16,
            Bytes::from_kib(256).as_u64(),
            MemoryKind::Ddr4,
            TechnologyNode::Nm45,
        );
        let big = DsaConfig::square(
            128,
            Bytes::from_mib(4).as_u64(),
            MemoryKind::Ddr4,
            TechnologyNode::Nm45,
        );
        assert!((big.peak_ops_per_sec() / small.peak_ops_per_sec() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bandwidths_match_table() {
        assert!((MemoryKind::Ddr4.bandwidth().as_gbps() - 19.2).abs() < 1e-9);
        assert!((MemoryKind::Ddr5.bandwidth().as_gbps() - 38.0).abs() < 1e-9);
        assert!((MemoryKind::Hbm2.bandwidth().as_gbps() - 460.0).abs() < 1e-9);
    }

    #[test]
    fn hbm_costs_more_static_power_but_less_energy_per_byte() {
        assert!(MemoryKind::Hbm2.static_power_watts() > MemoryKind::Ddr4.static_power_watts());
        assert!(MemoryKind::Hbm2.energy_pj_per_byte() < MemoryKind::Ddr4.energy_pj_per_byte());
    }

    #[test]
    fn tiny_buffer_rejected() {
        let c = DsaConfig::square(1024, 1024, MemoryKind::Ddr4, TechnologyNode::Nm45);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BufferTooSmall { .. })
        ));
    }

    #[test]
    fn bytes_per_cycle_relates_bandwidth_and_clock() {
        let c = DsaConfig::paper_optimal();
        assert!((c.bytes_per_cycle() - 38.0).abs() < 1e-9);
    }

    #[test]
    fn display_labels_are_informative() {
        let c = DsaConfig::paper_optimal_45nm();
        let s = format!("{c}");
        assert!(s.contains("Dim128-4MB-DDR5"));
        assert!(s.contains("45nm"));
    }
}
