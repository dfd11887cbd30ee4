//! # dscs-simcore
//!
//! Simulation core primitives shared by every crate in the DSCS-Serverless
//! workspace.
//!
//! The crate provides the vocabulary types and numeric tools that the rest of
//! the system is built on:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`time::SimTime`],
//!   [`time::SimDuration`]).
//! * [`quantity`] — physical quantities with newtype safety
//!   ([`quantity::Bytes`], [`quantity::Watts`], [`quantity::Joules`],
//!   [`quantity::Bandwidth`], [`quantity::AreaMm2`], [`quantity::Dollars`],
//!   [`quantity::Frequency`]).
//! * [`rng`] — deterministic, seedable random number generation helpers.
//! * [`dist`] — latency/arrival distributions (lognormal with calibrated tails,
//!   Poisson, Zipf) used to model remote storage, network RPCs, request
//!   arrivals and object popularity.
//! * [`stats`] — percentile summaries and quantile sketches used to report
//!   p50/p95/p99 latencies.
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
//! use dscs_simcore::dist::LogNormalDist;
//! use dscs_simcore::rng::DeterministicRng;
//! use dscs_simcore::stats::Summary;
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

// `benchmark/sweep.rs` imports `dscs_simcore::SimDuration`, and that file
// changes only with the benchmark, so this one item keeps a root path until
// such a change switches the import to `dscs_simcore::time::SimDuration`.
pub use time::SimDuration;
