//! # dscs-compiler
//!
//! The compilation stack that lowers ML model graphs (from `dscs-nn`) onto DSA
//! configurations (from `dscs-dsa`), mirroring Section 5.1 of the paper:
//!
//! 1. **Operator fusion** ([`fusion`]) groups each GEMM-class operator with its
//!    chain of vector-class consumers so intermediate activations stay in the
//!    shared on-chip buffers.
//! 2. **Padding & tiling** ([`tiling`]) picks configuration-specific tile sizes
//!    that fill the double-buffered scratchpad while matching the systolic
//!    array's granularity.
//! 3. **Code generation** ([`codegen`]) emits the tile-level instruction stream
//!    (`LoadTile`/`GemmTile`/`VectorTile`/`StoreTile`/`Sync`) that the DSA
//!    executor runs.
//!
//! # Example
//!
//! ```
//! use dscs_compiler::codegen::{compile, CompileOptions};
//! use dscs_dsa::config::DsaConfig;
//! use dscs_dsa::executor::Executor;
//! use dscs_nn::zoo::{Model, ModelKind};
//!
//! let model = Model::build(ModelKind::ResNet50);
//! let config = DsaConfig::paper_optimal();
//! let program = compile(model.graph(), &config, CompileOptions::default());
//! let report = Executor::new(config).run(&program);
//! assert!(report.latency().as_millis_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod fusion;
pub mod tiling;
