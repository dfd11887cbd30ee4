//! # dscs-serverless
//!
//! A full-system, simulation-based reproduction of **"In-Storage
//! Domain-Specific Acceleration for Serverless Computing"** (ASPLOS 2024):
//! the DSCS-Serverless execution model, the in-storage domain-specific
//! accelerator it relies on, and every substrate needed to regenerate the
//! paper's evaluation.
//!
//! This umbrella crate re-exports the workspace's crates under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`simcore`] | `dscs-simcore` | simulated time, quantities, distributions, statistics, JSON/CSV codecs, the worker pool |
//! | [`nn`] | `dscs-nn` | ML operator IR and the eight-benchmark model zoo |
//! | [`dsa`] | `dscs-dsa` | the in-storage accelerator's cycle, power and area models |
//! | [`compiler`] | `dscs-compiler` | fusion, tiling and code generation onto the DSA |
//! | [`storage`] | `dscs-storage` | flash, PCIe, P2P, network/RPC and object-store models |
//! | [`platforms`] | `dscs-platforms` | CPU / GPU / FPGA / ARM / mobile-GPU / NS-FPGA / DSA platform models |
//! | [`faas`] | `dscs-faas` | serverless functions, deployment configs, registry, scheduler, cold starts |
//! | [`cluster`] | `dscs-cluster` | the 200-instance at-scale datacenter simulation |
//! | [`dse`] | `dscs-dse` | design-space exploration and the CAPEX/OPEX cost model |
//! | [`core`] | `dscs-core` | the end-to-end DSCS-Serverless execution model and experiment runners |
//!
//! # Quickstart
//!
//! ```
//! use dscs_serverless::core::benchmarks::Benchmark;
//! use dscs_serverless::core::endtoend::{EvalOptions, SystemModel};
//! use dscs_serverless::platforms::spec::PlatformKind;
//!
//! let system = SystemModel::new();
//! let baseline = system.evaluate(Benchmark::RemoteSensing, PlatformKind::BaselineCpu, EvalOptions::default());
//! let dscs = system.evaluate(Benchmark::RemoteSensing, PlatformKind::DscsDsa, EvalOptions::default());
//! let speedup = baseline.total_latency().as_secs_f64() / dscs.total_latency().as_secs_f64();
//! assert!(speedup > 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dscs_cluster as cluster;
pub use dscs_compiler as compiler;
pub use dscs_core as core;
pub use dscs_dsa as dsa;
pub use dscs_dse as dse;
pub use dscs_faas as faas;
pub use dscs_nn as nn;
pub use dscs_platforms as platforms;
pub use dscs_simcore as simcore;
pub use dscs_storage as storage;
