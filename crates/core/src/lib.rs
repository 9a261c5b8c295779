//! # srlb-core — the SRLB load balancer and experiment driver
//!
//! This crate implements the paper's primary contribution on top of the
//! workspace's substrates:
//!
//! * [`dispatch`] — candidate-server selection policies for Service Hunting:
//!   uniform random k-choices (the paper uses two random candidates, after
//!   Mitzenmacher's power-of-two-choices result), plus consistent-hashing and
//!   Maglev-style selection as related-work baselines,
//! * [`flow_state`] — the per-flow stickiness table the load balancer learns
//!   from acceptance SYN-ACKs: sharded, optionally capacity-bounded with
//!   per-cause eviction accounting, and with incremental (O(expired)) idle
//!   expiry,
//! * [`lb_node`] — the load balancer simulation node: SRH insertion on new
//!   flows, flow learning, and steering of established flows,
//! * [`client`] — the open-loop traffic generator / measurement client,
//! * [`spec`] — the **one experiment description**: a serde-round-trippable
//!   [`ExperimentSpec`] = `workload × cluster × topology × scenario ×
//!   policy`, with canned constructors for the paper's evaluations and the
//!   dynamic-cluster schedules,
//! * [`runner`] — the one [`Runner`] every experiment goes through: it
//!   streams the workload on demand and advances the simulation in
//!   segments around the scheduled control events (a static cluster is the
//!   degenerate single-segment case), returning the one [`RunOutcome`],
//! * [`calibration`] — the λ₀ (maximum sustainable rate) bootstrap.
//!
//! A new experiment is a spec; a new summary of a run is a method on
//! [`RunOutcome`] (or a report type in `srlb-bench`).
//!
//! ## Example
//!
//! ```
//! use srlb_core::spec::{ExperimentSpec, PolicyKind};
//! use srlb_core::runner::Runner;
//!
//! let spec = ExperimentSpec::poisson_paper(0.6, PolicyKind::Static { threshold: 4 })
//!     .with_queries(300)
//!     .with_seed(1);
//! let outcome = Runner::new(spec).expect("spec is valid").run();
//! assert!(outcome.collector.completed_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibration;
pub mod client;
pub mod dispatch;
pub mod flow_state;
pub mod id_window;
pub mod lb_node;
pub mod runner;
pub mod spec;

pub use client::ClientNode;
pub use dispatch::{CandidateList, Dispatcher, DispatcherConfig, MAX_CANDIDATES};
pub use flow_state::{FlowState, FlowStateConfig, FlowStateStats};
pub use id_window::IdWindow;
pub use lb_node::{LbStats, LoadBalancerNode};
pub use runner::{RunOutcome, Runner, ShardPlanning};
pub use spec::{
    CapacityOverride, ClusterSpec, ExperimentSpec, FlowTableSpec, PolicyKind, ScenarioEvent,
    TimedEvent, WorkloadSpec,
};

/// Errors produced by experiment configuration and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// An experiment configuration was invalid.
    InvalidConfig(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}
