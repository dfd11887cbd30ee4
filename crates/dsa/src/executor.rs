//! Program execution: the cycle-level simulator.
//!
//! The executor walks a compiled [`Program`] and models the double-buffered
//! overlap the real DSA (and the paper's compiler) relies on: while tile *i*
//! computes on the MPU/VPU, the DMA engine prefetches tile *i + 1*. A `Sync`
//! instruction (emitted by the compiler at fusion-group boundaries) forces the
//! outstanding compute and memory streams to drain before continuing.
//!
//! The paper validates its cycle-accurate simulator against the SmartSSD FPGA
//! prototype to within 10 %; this model reproduces the same first-order
//! behaviour — per-tile `max(compute, memory)` with fill/drain overheads — and
//! is the basis of every DSA performance number downstream.

use dscs_simcore::quantity::Joules;
use dscs_simcore::time::SimDuration;

use crate::config::DsaConfig;
use crate::engine::{DmaModel, MpuModel, VpuModel};
use crate::isa::{Instruction, Program};
use crate::power::{EnergyBreakdown, PowerModel};

/// Result of executing one program on one DSA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionReport {
    /// Total cycles from first instruction issue to last completion.
    pub total_cycles: u64,
    /// Cycles in which the MPU or VPU was computing.
    pub compute_cycles: u64,
    /// Cycles of DMA activity (may overlap compute).
    pub memory_cycles: u64,
    /// Cycles the compute units spent stalled waiting for memory.
    pub stall_cycles: u64,
    /// Total arithmetic operations executed.
    pub total_ops: u64,
    /// Total DMA bytes moved.
    pub dma_bytes: u64,
    /// Energy breakdown for the execution.
    pub energy: EnergyBreakdown,
    /// Clock frequency in MHz used to convert cycles to time.
    clock_mhz: u64,
}

impl ExecutionReport {
    /// Wall-clock execution latency.
    pub fn latency(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.total_cycles as f64 / (self.clock_mhz as f64 * 1e6))
    }

    /// Total energy consumed.
    pub fn total_energy(&self) -> Joules {
        self.energy.total()
    }

    /// Average power over the execution.
    pub fn average_power_watts(&self) -> f64 {
        let secs = self.latency().as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.total_energy().as_f64() / secs
    }

    /// Fraction of cycles where compute was stalled on memory.
    pub fn stall_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.stall_cycles as f64 / self.total_cycles as f64
    }

    /// Achieved operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.latency().as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.total_ops as f64 / secs
    }
}

/// Execution policy for the memory/compute overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapPolicy {
    /// Double-buffered: DMA for the next tile overlaps the current compute
    /// (the DSA's normal mode and the compiler's assumption).
    DoubleBuffered,
    /// No overlap: every transfer completes before compute starts. Used by the
    /// ablation bench to quantify the value of double buffering.
    Sequential,
}

/// Executes programs against one DSA configuration.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    config: DsaConfig,
    mpu: MpuModel,
    vpu: VpuModel,
    dma: DmaModel,
    power: PowerModel,
    policy: OverlapPolicy,
}

impl Executor {
    /// Creates an executor with double-buffered overlap (the default).
    pub fn new(config: DsaConfig) -> Self {
        Self::with_policy(config, OverlapPolicy::DoubleBuffered)
    }

    /// Creates an executor with an explicit overlap policy.
    pub fn with_policy(config: DsaConfig, policy: OverlapPolicy) -> Self {
        Executor {
            config,
            mpu: MpuModel::new(&config),
            vpu: VpuModel::new(&config),
            dma: DmaModel::new(&config),
            power: PowerModel::new(config),
            policy,
        }
    }

    /// The configuration this executor models.
    pub fn config(&self) -> &DsaConfig {
        &self.config
    }

    /// Executes `program` and returns the cycle/energy report.
    pub fn run(&self, program: &Program) -> ExecutionReport {
        // Two virtual timelines: when the DMA engine frees up, and when the
        // compute units free up. Double buffering lets a load begin as soon as
        // the DMA engine is free; compute for that tile must wait for both its
        // load and the previous compute.
        let mut dma_free: u64 = 0;
        let mut compute_free: u64 = 0;
        let mut compute_cycles: u64 = 0;
        let mut memory_cycles: u64 = 0;
        let mut stall_cycles: u64 = 0;
        let mut mpu_ops: u64 = 0;
        let mut vpu_ops: u64 = 0;
        let mut pending_load_done: u64 = 0;

        for instr in program.instructions() {
            match *instr {
                Instruction::LoadTile { bytes } => {
                    let cycles = self.dma.transfer_cycles(bytes);
                    memory_cycles += cycles;
                    let start = match self.policy {
                        OverlapPolicy::DoubleBuffered => dma_free,
                        OverlapPolicy::Sequential => dma_free.max(compute_free),
                    };
                    dma_free = start + cycles;
                    pending_load_done = pending_load_done.max(dma_free);
                }
                Instruction::StoreTile { bytes } => {
                    let cycles = self.dma.transfer_cycles(bytes);
                    memory_cycles += cycles;
                    // A store can only begin once the producing compute finished.
                    let start = match self.policy {
                        OverlapPolicy::DoubleBuffered => dma_free.max(compute_free),
                        OverlapPolicy::Sequential => dma_free.max(compute_free),
                    };
                    dma_free = start + cycles;
                }
                Instruction::GemmTile { m, k, n } => {
                    let cycles = self.mpu.gemm_cycles(m, k, n);
                    compute_cycles += cycles;
                    mpu_ops += instr.ops();
                    let ready = compute_free.max(pending_load_done);
                    stall_cycles += ready.saturating_sub(compute_free);
                    compute_free = ready + cycles;
                }
                Instruction::VectorTile {
                    elements,
                    ops_per_element,
                } => {
                    let cycles = self.vpu.vector_cycles(elements, ops_per_element);
                    compute_cycles += cycles;
                    vpu_ops += instr.ops();
                    let ready = compute_free.max(pending_load_done);
                    stall_cycles += ready.saturating_sub(compute_free);
                    compute_free = ready + cycles;
                }
                Instruction::Sync => {
                    let drained = compute_free.max(dma_free);
                    compute_free = drained;
                    dma_free = drained;
                    pending_load_done = pending_load_done.max(drained);
                }
            }
        }

        let total_cycles = compute_free.max(dma_free);
        let dma_bytes = program.total_dma_bytes().as_u64();
        let total_ops = mpu_ops + vpu_ops;
        // SRAM sees every DMA byte once plus one read + one write per computed
        // value's operand traffic; approximate operand traffic as ops / 4 bytes
        // (int8 weight + activation reuse in the array).
        let sram_bytes = dma_bytes + total_ops / 4;
        let seconds = total_cycles as f64 / (self.config.clock_mhz as f64 * 1e6);
        let energy = EnergyBreakdown {
            mpu: self.power.mpu_energy(mpu_ops),
            vpu: self.power.vpu_energy(vpu_ops),
            sram: self.power.sram_energy(sram_bytes),
            dram: self.power.dram_energy(dma_bytes),
            leakage: self
                .power
                .leakage_power()
                .over(SimDuration::from_secs_f64(seconds)),
        };

        ExecutionReport {
            total_cycles,
            compute_cycles,
            memory_cycles,
            stall_cycles,
            total_ops,
            dma_bytes,
            energy,
            clock_mhz: self.config.clock_mhz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instruction;

    fn tiled_program(tiles: usize, load_bytes: u64, m: u64, k: u64, n: u64) -> Program {
        let mut p = Program::new("tiles");
        for _ in 0..tiles {
            p.push(Instruction::load_tile(load_bytes));
            p.push(Instruction::gemm_tile(m, k, n));
        }
        p.push(Instruction::store_tile(load_bytes / 4));
        p
    }

    #[test]
    fn empty_program_is_free() {
        let report = Executor::new(DsaConfig::paper_optimal()).run(&Program::new("empty"));
        assert_eq!(report.total_cycles, 0);
        assert_eq!(report.total_ops, 0);
        assert_eq!(report.average_power_watts(), 0.0);
    }

    #[test]
    fn compute_bound_program_hides_memory() {
        // Small loads, big GEMMs: total should be close to compute time.
        let p = tiled_program(16, 4 * 1024, 256, 512, 512);
        let report = Executor::new(DsaConfig::paper_optimal()).run(&p);
        assert!(report.total_cycles < report.compute_cycles + report.memory_cycles);
        assert!(
            report.stall_fraction() < 0.2,
            "stalls {}",
            report.stall_fraction()
        );
    }

    #[test]
    fn memory_bound_program_stalls() {
        // Huge loads, tiny GEMMs on slow DDR4.
        let cfg = DsaConfig {
            memory: crate::config::MemoryKind::Ddr4,
            ..DsaConfig::paper_optimal()
        };
        let p = tiled_program(16, 4 * 1024 * 1024, 8, 128, 128);
        let report = Executor::new(cfg).run(&p);
        assert!(
            report.stall_fraction() > 0.5,
            "stalls {}",
            report.stall_fraction()
        );
    }

    #[test]
    fn double_buffering_beats_sequential() {
        let p = tiled_program(32, 512 * 1024, 128, 512, 512);
        let cfg = DsaConfig::paper_optimal();
        let overlapped = Executor::with_policy(cfg, OverlapPolicy::DoubleBuffered).run(&p);
        let sequential = Executor::with_policy(cfg, OverlapPolicy::Sequential).run(&p);
        assert!(sequential.total_cycles > overlapped.total_cycles);
    }

    #[test]
    fn sync_serialises_streams() {
        let mut with_sync = Program::new("sync");
        with_sync.push(Instruction::load_tile(1 << 20));
        with_sync.push(Instruction::Sync);
        with_sync.push(Instruction::gemm_tile(128, 128, 128));
        let mut without_sync = Program::new("nosync");
        without_sync.push(Instruction::load_tile(1 << 20));
        without_sync.push(Instruction::gemm_tile(128, 128, 128));
        let cfg = DsaConfig::paper_optimal();
        let a = Executor::new(cfg).run(&with_sync);
        let b = Executor::new(cfg).run(&without_sync);
        // With this simple two-instruction program both serialise identically,
        // but the sync must never make things faster.
        assert!(a.total_cycles >= b.total_cycles);
    }

    #[test]
    fn latency_respects_clock() {
        let mut p = Program::new("t");
        p.push(Instruction::gemm_tile(128, 128, 128));
        let report = Executor::new(DsaConfig::paper_optimal()).run(&p);
        let expected = report.total_cycles as f64 / 1e9;
        assert!((report.latency().as_secs_f64() - expected).abs() < 1e-12);
    }

    #[test]
    fn energy_scales_with_work() {
        let small = tiled_program(2, 64 * 1024, 128, 256, 256);
        let large = tiled_program(16, 64 * 1024, 128, 256, 256);
        let ex = Executor::new(DsaConfig::paper_optimal());
        let e_small = ex.run(&small).total_energy().as_f64();
        let e_large = ex.run(&large).total_energy().as_f64();
        assert!(e_large > 4.0 * e_small);
    }

    #[test]
    fn paper_config_power_is_storage_class() {
        // A sustained, fairly compute-dense workload on the 14 nm paper config
        // should land in single-digit watts (the paper reports 4.2 W for the
        // DSA), far below the 25 W drive budget.
        let p = tiled_program(64, 256 * 1024, 256, 1024, 1024);
        let report = Executor::new(DsaConfig::paper_optimal()).run(&p);
        let watts = report.average_power_watts();
        assert!((1.0..15.0).contains(&watts), "power {watts} W");
    }

    #[test]
    fn ops_accounting_matches_program() {
        let p = tiled_program(4, 1024, 64, 64, 64);
        let report = Executor::new(DsaConfig::paper_optimal()).run(&p);
        assert_eq!(report.total_ops, p.total_ops());
        assert_eq!(report.dma_bytes, p.total_dma_bytes().as_u64());
    }
}
