//! Component-level power, energy and area models.
//!
//! The paper obtains logic power from Synopsys Design Compiler synthesis at
//! 45 nm and SRAM energy from CACTI-P, then scales to 14 nm. We use published
//! per-operation energy coefficients for the same structures at 45 nm and apply
//! the same scaling. The absolute values land the paper's chosen configuration
//! (128x128, 4 MiB, DDR5) at roughly 4 W of accelerator power at 14 nm and a
//! few tens of watts at 45 nm, matching the DSE figures' range.

use dscs_simcore::quantity::{AreaMm2, Joules, Watts};

use crate::config::DsaConfig;

/// Energy per int8 MAC at 45 nm, in picojoules (MAC + local register movement).
const MAC_ENERGY_PJ_45NM: f64 = 0.9;
/// Energy per VPU (fp16-class) lane operation at 45 nm, in picojoules.
const VECTOR_OP_ENERGY_PJ_45NM: f64 = 1.6;
/// Energy per byte of scratchpad SRAM access at 45 nm, in picojoules.
const SRAM_ENERGY_PJ_PER_BYTE_45NM: f64 = 1.2;
/// Leakage power per PE at 45 nm, in microwatts.
const PE_LEAKAGE_UW_45NM: f64 = 18.0;
/// Leakage power per KiB of SRAM at 45 nm, in microwatts.
const SRAM_LEAKAGE_UW_PER_KIB_45NM: f64 = 9.0;
/// Area per PE at 45 nm in square micrometres (8-bit MAC + registers).
const PE_AREA_UM2_45NM: f64 = 2_800.0;
/// Area per KiB of SRAM at 45 nm in square micrometres.
const SRAM_AREA_UM2_PER_KIB_45NM: f64 = 5_500.0;
/// Fixed controller / DMA / NoC area at 45 nm in mm².
const UNCORE_AREA_MM2_45NM: f64 = 4.0;
/// Fixed controller / DMA / NoC leakage at 45 nm in watts.
const UNCORE_LEAKAGE_W_45NM: f64 = 0.25;

/// Energy consumed by one program execution, broken down by component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// MAC-array switching energy.
    pub mpu: Joules,
    /// Vector-unit switching energy.
    pub vpu: Joules,
    /// Scratchpad SRAM access energy.
    pub sram: Joules,
    /// Drive-DRAM access energy (DMA traffic).
    pub dram: Joules,
    /// Leakage energy over the execution interval.
    pub leakage: Joules,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> Joules {
        self.mpu + self.vpu + self.sram + self.dram + self.leakage
    }
}

/// Power/energy model for one DSA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    config: DsaConfig,
}

impl PowerModel {
    /// Builds the power model for a configuration.
    pub fn new(config: DsaConfig) -> Self {
        PowerModel { config }
    }

    /// Switching energy for `mac_ops` MAC-array operations (ops = 2 x MACs).
    pub fn mpu_energy(&self, ops: u64) -> Joules {
        let scale = self.config.node.scaling().dynamic_energy;
        Joules::new(ops as f64 / 2.0 * MAC_ENERGY_PJ_45NM * 1e-12 * scale)
    }

    /// Switching energy for `ops` vector-unit operations.
    pub fn vpu_energy(&self, ops: u64) -> Joules {
        let scale = self.config.node.scaling().dynamic_energy;
        Joules::new(ops as f64 * VECTOR_OP_ENERGY_PJ_45NM * 1e-12 * scale)
    }

    /// Energy for `bytes` of scratchpad traffic.
    pub fn sram_energy(&self, bytes: u64) -> Joules {
        let scale = self.config.node.scaling().dynamic_energy;
        Joules::new(bytes as f64 * SRAM_ENERGY_PJ_PER_BYTE_45NM * 1e-12 * scale)
    }

    /// Energy for `bytes` of drive-DRAM traffic (DMA loads/stores).
    pub fn dram_energy(&self, bytes: u64) -> Joules {
        // DRAM energy does not scale with the logic node.
        Joules::new(bytes as f64 * self.config.memory.energy_pj_per_byte() * 1e-12)
    }

    /// Total leakage (static) power of the accelerator.
    pub fn leakage_power(&self) -> Watts {
        let scaling = self.config.node.scaling().leakage_power;
        let pe = self.config.pe_count() as f64 * PE_LEAKAGE_UW_45NM * 1e-6;
        let sram_kib = self.config.buffer_bytes as f64 / 1024.0;
        let sram = sram_kib * SRAM_LEAKAGE_UW_PER_KIB_45NM * 1e-6;
        Watts::new(
            (pe + sram + UNCORE_LEAKAGE_W_45NM) * scaling + self.config.memory.static_power_watts(),
        )
    }

    /// Average power when `energy` is dissipated over `seconds`.
    ///
    /// # Panics
    /// Panics if `seconds` is not strictly positive.
    pub fn average_power(&self, energy: Joules, seconds: f64) -> Watts {
        assert!(seconds > 0.0, "interval must be positive");
        Watts::new(energy.as_f64() / seconds)
    }
}

/// Area model for one DSA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    config: DsaConfig,
}

impl AreaModel {
    /// Builds the area model for a configuration.
    pub fn new(config: DsaConfig) -> Self {
        AreaModel { config }
    }

    /// MAC-array area.
    pub fn mpu_area(&self) -> AreaMm2 {
        let scale = self.config.node.scaling().area;
        AreaMm2::new(self.config.pe_count() as f64 * PE_AREA_UM2_45NM * 1e-6 * scale)
    }

    /// Scratchpad area.
    pub fn sram_area(&self) -> AreaMm2 {
        let scale = self.config.node.scaling().area;
        let kib = self.config.buffer_bytes as f64 / 1024.0;
        AreaMm2::new(kib * SRAM_AREA_UM2_PER_KIB_45NM * 1e-6 * scale)
    }

    /// Vector unit plus uncore (controllers, DMA, NoC) area.
    pub fn uncore_area(&self) -> AreaMm2 {
        let scale = self.config.node.scaling().area;
        // The VPU is one row of vector engines; charge it like one array row
        // of PEs at double width plus the fixed uncore.
        let vpu = 2.0 * self.config.vpu_lanes() as f64 * PE_AREA_UM2_45NM * 1e-6;
        AreaMm2::new((vpu + UNCORE_AREA_MM2_45NM) * scale)
    }

    /// Total die area of the DSA.
    pub fn total(&self) -> AreaMm2 {
        self.mpu_area() + self.sram_area() + self.uncore_area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DsaConfig, MemoryKind, TechnologyNode};
    use dscs_simcore::quantity::Bytes;

    #[test]
    fn paper_config_leakage_within_drive_budget() {
        let p = PowerModel::new(DsaConfig::paper_optimal());
        let leak = p.leakage_power().as_f64();
        assert!(leak < 3.0, "leakage {leak} W");
    }

    #[test]
    fn peak_dynamic_power_at_45nm_is_tens_of_watts() {
        let cfg = DsaConfig::paper_optimal_45nm();
        let p = PowerModel::new(cfg);
        // One second of fully-utilised MACs.
        let ops = cfg.peak_ops_per_sec() as u64;
        let dynamic = p.mpu_energy(ops).as_f64();
        assert!(
            (5.0..60.0).contains(&dynamic),
            "dynamic {dynamic} W at 45nm"
        );
    }

    #[test]
    fn scaling_to_14nm_cuts_dynamic_energy() {
        let ops = 1_000_000_000;
        let e45 = PowerModel::new(DsaConfig::paper_optimal_45nm()).mpu_energy(ops);
        let e14 = PowerModel::new(DsaConfig::paper_optimal()).mpu_energy(ops);
        let ratio = e14.as_f64() / e45.as_f64();
        assert!((0.1..0.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dram_energy_ignores_logic_node() {
        let bytes = 1 << 20;
        let e45 = PowerModel::new(DsaConfig::paper_optimal_45nm()).dram_energy(bytes);
        let e14 = PowerModel::new(DsaConfig::paper_optimal()).dram_energy(bytes);
        assert_eq!(e45, e14);
    }

    #[test]
    fn energy_breakdown_totals() {
        let b = EnergyBreakdown {
            mpu: Joules::new(1.0),
            vpu: Joules::new(2.0),
            sram: Joules::new(3.0),
            dram: Joules::new(4.0),
            leakage: Joules::new(5.0),
        };
        assert!((b.total().as_f64() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn area_grows_with_array_and_buffer() {
        let small = AreaModel::new(DsaConfig::square(
            32,
            Bytes::from_mib(1).as_u64(),
            MemoryKind::Ddr4,
            TechnologyNode::Nm45,
        ));
        let big = AreaModel::new(DsaConfig::square(
            1024,
            Bytes::from_mib(32).as_u64(),
            MemoryKind::Ddr4,
            TechnologyNode::Nm45,
        ));
        assert!(big.total().as_f64() > 50.0 * small.total().as_f64());
    }

    #[test]
    fn paper_area_range_matches_figure_8_scale() {
        // Figure 8 spans up to ~8000 mm^2 at 45 nm for the 1024x1024/32MB point;
        // the selected 128x128/4MB point sits well under 200 mm^2.
        let big = AreaModel::new(DsaConfig::square(
            1024,
            Bytes::from_mib(32).as_u64(),
            MemoryKind::Hbm2,
            TechnologyNode::Nm45,
        ));
        assert!(big.total().as_f64() > 1_000.0);
        let chosen = AreaModel::new(DsaConfig::paper_optimal_45nm());
        assert!(
            chosen.total().as_f64() < 400.0,
            "chosen {} mm2",
            chosen.total()
        );
    }

    #[test]
    fn average_power_divides_energy_by_time() {
        let p = PowerModel::new(DsaConfig::paper_optimal());
        let w = p.average_power(Joules::new(2.0), 4.0);
        assert!((w.as_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_power_panics() {
        let p = PowerModel::new(DsaConfig::paper_optimal());
        let _ = p.average_power(Joules::new(1.0), 0.0);
    }
}
