//! # srlb-metrics — measurement toolkit for the SRLB experiments
//!
//! Every quantity reported in the paper's evaluation section is computed by
//! this crate:
//!
//! * [`Summary`] — mean, arbitrary percentiles and the
//!   deciles 1–9 used in Figure 7,
//! * [`Cdf`] — empirical CDFs of response times (Figures 3, 5 and 8),
//! * [`jain_fairness`] — the fairness index of per-server loads used in
//!   Figure 4,
//! * [`Ewma`] — the exponential window moving average filter (with the
//!   paper's `alpha = 1 - exp(-dt)` parameterisation) used to smooth the
//!   instantaneous server loads of Figure 4,
//! * [`TimeBinner`] — the 10-minute binning of the Wikipedia replay
//!   (Figures 6 and 7),
//! * [`DisruptionCollector`] — per-phase disruption statistics (broken /
//!   rerouted connections, fairness) for dynamic-cluster scenario runs,
//! * [`OccupancyGauge`] / [`EvictionBreakdown`] — occupancy and per-cause
//!   eviction accounting for the bounded flow-state tables,
//! * [`ResponseTimeCollector`] — the per-query sample store from which all
//!   of the above are derived.
//!
//! Values are plain `f64`s in caller-chosen units (the SRLB experiments use
//! milliseconds for response times and busy-thread counts for loads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod cdf;
pub mod collector;
mod disruption;
pub mod ewma;
pub mod fairness;
pub mod occupancy;
pub mod summary;
mod timebin;

pub use cdf::Cdf;
pub use collector::{RequestClass, RequestOutcome, RequestRecord, ResponseTimeCollector};
pub use disruption::{DisruptionCollector, PhaseStats};
pub use ewma::Ewma;
pub use fairness::jain_fairness;
pub use occupancy::{EvictionBreakdown, EvictionCause, OccupancyGauge};
pub use summary::Summary;
pub use timebin::{BinStats, TimeBinner};
