//! # dscs-dse
//!
//! Design-space exploration and cost modelling for the DSCS-Serverless DSA.
//!
//! * [`space`] — enumerates the accelerator design space the paper sweeps
//!   (array dimension 4–1024, buffers up to 32 MiB, DDR4/DDR5/HBM2).
//! * [`explore`] — evaluates design points on the cycle simulator, extracts the
//!   power–performance and area–performance Pareto frontiers under the 25 W
//!   drive power budget (Figures 7 and 8), fits the frontier polynomials and
//!   selects the optimal configuration (the paper's Dim128-4MB-DDR5).
//! * [`cost`] — the CAPEX/OPEX cost-efficiency model used by Figure 12,
//!   including an ASIC-Clouds-style die-cost estimate.
//!
//! # Example
//!
//! ```
//! use dscs_dse::explore::{evaluate_config, DRIVE_POWER_BUDGET_WATTS};
//! use dscs_dsa::config::DsaConfig;
//! use dscs_nn::zoo::ModelKind;
//!
//! let point = evaluate_config(DsaConfig::paper_optimal(), &[ModelKind::ResNet50]);
//! assert!(point.power_watts < DRIVE_POWER_BUDGET_WATTS);
//! assert!(point.throughput_ips > 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod explore;
pub mod space;

pub use explore::{
    area_performance_frontier, evaluate_config, frontier_fit, power_performance_frontier,
    select_optimal, sweep, DesignPoint, DRIVE_POWER_BUDGET_WATTS,
};
pub use space::{enumerate, enumerate_small, ARRAY_DIMS, BUFFER_CAP};
