//! # dscs-simcore
//!
//! Simulation core primitives shared by every crate in the DSCS-Serverless
//! workspace.
//!
//! The crate provides the vocabulary types and numeric tools that the rest of
//! the system is built on:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`], [`SimDuration`]).
//! * [`quantity`] — physical quantities with newtype safety ([`Bytes`], [`Watts`],
//!   [`Joules`], [`Bandwidth`], [`AreaMm2`], [`Dollars`], [`Frequency`]).
//! * [`rng`] — deterministic, seedable random number generation helpers.
//! * [`dist`] — latency/arrival distributions (lognormal with calibrated tails,
//!   Poisson, Zipf) used to model remote storage, network RPCs, request
//!   arrivals and object popularity.
//! * [`stats`] — percentile summaries, quantile sketches and empirical CDFs
//!   used to report p50/p95/p99 latencies and figure series.
//! * [`pareto`] — Pareto-frontier extraction for the design-space exploration.
//! * [`fit`] — least-squares polynomial fitting (the paper reports cubic fits of
//!   its power/area frontiers).
//! * [`series`] — time-bucketed means and rates for "metric over wall-clock
//!   time" figures.
//! * [`json`] — a minimal deterministic JSON emitter for machine-readable
//!   reports and a depth-capped parser to read them back.
//! * [`csv`] — a minimal CSV record tokenizer/renderer for ingesting the
//!   Azure Functions invocation-trace files (and emitting compatible ones).
//! * [`par`] — the one worker pool: ordered fan-out over scoped threads.
//!
//! # Example
//!
//! ```
//! use dscs_simcore::prelude::*;
//!
//! // Model a remote-storage read with a heavy tail: median 28 ms, p99 ~2.1x median.
//! let dist = LogNormalDist::from_median_p99(0.028, 0.059);
//! let mut rng = DeterministicRng::seeded(7);
//! let samples: Vec<f64> = (0..10_000).map(|_| dist.sample(&mut rng)).collect();
//! let summary = Summary::from_samples(&samples);
//! assert!(summary.p99() > summary.p50());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod dist;
pub mod fit;
pub mod json;
pub mod par;
pub mod pareto;
pub mod quantity;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use dist::{LogNormalDist, PoissonArrivals, ZipfIndex};
pub use fit::{polyfit, Polynomial};
pub use json::JsonValue;
pub use pareto::{pareto_frontier, ParetoPoint};
pub use quantity::{AreaMm2, Bandwidth, Bytes, Dollars, Frequency, Joules, Watts};
pub use rng::DeterministicRng;
pub use series::TimeSeries;
pub use stats::{Cdf, Summary};
pub use time::{SimDuration, SimTime};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::dist::{LogNormalDist, PoissonArrivals};
    pub use crate::fit::{polyfit, Polynomial};
    pub use crate::pareto::{pareto_frontier, ParetoPoint};
    pub use crate::quantity::{AreaMm2, Bandwidth, Bytes, Dollars, Frequency, Joules, Watts};
    pub use crate::rng::DeterministicRng;
    pub use crate::series::TimeSeries;
    pub use crate::stats::{Cdf, Summary};
    pub use crate::time::{SimDuration, SimTime};
}
