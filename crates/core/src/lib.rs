//! # dscs-core
//!
//! The DSCS-Serverless execution model — the paper's primary contribution —
//! tied together as an end-to-end system model.
//!
//! * [`benchmarks`] — the eight-application benchmark suite of Table 1, each a
//!   three-function serverless pipeline with calibrated input/output sizes and
//!   a structural model of its network.
//! * [`endtoend`] — the end-to-end latency/energy model: one invocation of a
//!   benchmark on any evaluated platform, broken down into remote storage
//!   access, local/P2P I/O, device staging copies, compute, the notification
//!   function, the serverless system stack and cold starts.
//! * [`experiments`] — one runner per table/figure in this crate's scope
//!   (Figures 3, 4, 9, 10, 11, 14, 15, 16, 17 and Tables 1, 2), returning plain
//!   data for the benchmark harness.
//!
//! # Quickstart
//!
//! ```
//! use dscs_core::benchmarks::Benchmark;
//! use dscs_core::endtoend::{EvalOptions, SystemModel};
//! use dscs_platforms::spec::PlatformKind;
//!
//! let system = SystemModel::new();
//! let report = system.evaluate(Benchmark::PpeDetection, PlatformKind::DscsDsa, EvalOptions::default());
//! let baseline = system.evaluate(Benchmark::PpeDetection, PlatformKind::BaselineCpu, EvalOptions::default());
//! assert!(report.total_latency() < baseline.total_latency());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod endtoend;
pub mod experiments;
