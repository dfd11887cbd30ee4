//! # dscs-platforms
//!
//! Compute-platform models for the DSCS-Serverless evaluation (Table 2).
//!
//! * [`spec`] — published specifications and serverless batch-1 efficiency
//!   derates for the seven evaluated platforms: the baseline Xeon CPU, RTX 2080
//!   Ti GPU and Alveo U280 FPGA on compute nodes, the near-storage ARM,
//!   Jetson TX2 and SmartSSD FPGA, and the in-storage DSA.
//! * [`perf`] — a uniform latency/energy interface: roofline-style analytical
//!   models for the commercial platforms and the `dscs-dsa` cycle simulator for
//!   the DSA ASIC.
//!
//! # Example
//!
//! ```
//! use dscs_nn::zoo::{Model, ModelKind};
//! use dscs_platforms::perf::ComputeEngine;
//! use dscs_platforms::spec::PlatformKind;
//!
//! let engine = ComputeEngine::new();
//! let model = Model::build(ModelKind::ResNet50);
//! let gpu = engine.execute(PlatformKind::RemoteGpu, model.graph(), 1);
//! let dsa = engine.execute(PlatformKind::DscsDsa, model.graph(), 1);
//! // The GPU wins on raw compute; the DSA wins on energy.
//! assert!(gpu.latency < dsa.latency * 10u64);
//! assert!(dsa.energy < gpu.energy);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;
pub mod spec;
