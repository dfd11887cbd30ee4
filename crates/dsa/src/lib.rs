//! # dscs-dsa
//!
//! Cycle, power and area models of the in-storage **Domain-Specific
//! Accelerator (DSA)** described in Section 4 of the DSCS-Serverless paper.
//!
//! The DSA couples a systolic-array **Matrix Processing Unit (MPU)** with a
//! SIMD **Vector Processing Unit (VPU)** through shared multi-bank scratchpad
//! buffers, and talks to the drive's DRAM through a DMA engine. The accelerator
//! executes tiled programs: tiles of weights/activations are streamed into the
//! on-chip buffers while the previous tile computes (double buffering), so the
//! effective latency of a layer is `max(compute, memory)` per tile plus
//! pipeline fill/drain.
//!
//! The crate is organised as:
//!
//! * [`config`] — accelerator configuration points (array dimensions, buffer
//!   capacity, memory technology, clock, technology node) including the
//!   paper's chosen 128x128 / 4 MiB / DDR5 design.
//! * [`isa`] — the tile-level instruction set the compiler targets.
//! * [`engine`] — MPU, VPU and DMA cycle models.
//! * [`executor`] — executes a compiled [`isa::Program`] against a
//!   configuration and reports cycles, stalls and energy.
//! * [`power`] — component-level energy/power/area models at 45 nm
//!   (Synopsys-DC-plus-CACTI-style coefficients).
//! * [`scaling`] — DeepScaleTool-style technology scaling from 45 nm to the
//!   SmartSSD-class 14 nm node.
//!
//! # Example
//!
//! ```
//! use dscs_dsa::config::DsaConfig;
//! use dscs_dsa::isa::{Instruction, Program};
//! use dscs_dsa::executor::Executor;
//!
//! let config = DsaConfig::paper_optimal();
//! let mut program = Program::default();
//! program.push(Instruction::load_tile(256 * 1024));
//! program.push(Instruction::gemm_tile(128, 128, 128));
//! program.push(Instruction::store_tile(64 * 1024));
//! let report = Executor::new(config).run(&program);
//! assert!(report.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod executor;
pub mod isa;
pub mod power;
pub mod scaling;
