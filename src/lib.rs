//! # SRLB — the power of choices in load balancing with Segment Routing
//!
//! This crate is the facade of the SRLB workspace, a from-scratch Rust
//! reproduction of *SRLB: The Power of Choices in Load Balancing with Segment
//! Routing* (Desmouceaux et al., IEEE ICDCS 2017).
//!
//! SRLB is a Layer-4 load balancer that remains application-protocol
//! agnostic while making application-state-aware dispatching decisions.  The
//! mechanism is **Service Hunting**: new connections are sent through a chain
//! of candidate servers encoded in an IPv6 Segment Routing header; each
//! candidate locally decides to accept or pass on the connection based on its
//! own real-time load (busy worker threads).
//!
//! The workspace is organised in focused crates, all re-exported here:
//!
//! * [`net`] — IPv6 / SRv6 / TCP packet model ([`srlb_net`]),
//! * [`sim`] — deterministic discrete-event network simulator ([`srlb_sim`]),
//! * [`metrics`] — CDFs, deciles, Jain fairness, EWMA, time bins
//!   ([`srlb_metrics`]),
//! * [`workload`] — Poisson and Wikipedia-like workload generators
//!   ([`srlb_workload`]),
//! * [`server`] — backend server model: worker pool, backlog, scoreboard,
//!   acceptance policies, SR-aware virtual router ([`srlb_server`]),
//! * [`core`] — the load balancer itself (dispatchers, flow state, the LB
//!   and client nodes) and the one experiment API: an
//!   [`ExperimentSpec`](srlb_core::ExperimentSpec) describes a run —
//!   paper figure point, dynamic-cluster schedule (server churn, LB
//!   failover, ECMP reshuffle) or fault-injection case alike —, the
//!   [`Runner`](srlb_core::Runner) executes it, and a
//!   [`RunOutcome`](srlb_core::RunOutcome) is what comes back
//!   ([`srlb_core`]).
//!
//! ## Quickstart
//!
//! ```
//! use srlb::core::spec::{ExperimentSpec, PolicyKind};
//! use srlb::core::Runner;
//!
//! // A small Poisson experiment: 12 servers, SR4 policy, load factor 0.7.
//! let spec = ExperimentSpec::poisson_paper(0.7, PolicyKind::Static { threshold: 4 })
//!     .with_queries(500)
//!     .with_seed(7);
//! let outcome = Runner::new(spec).expect("spec is valid").run();
//! assert!(outcome.collector.completed_count() > 0);
//! println!("mean response time: {:.3} s", outcome.mean_response_seconds());
//! ```

pub use srlb_core as core;
pub use srlb_metrics as metrics;
pub use srlb_net as net;
pub use srlb_server as server;
pub use srlb_sim as sim;
pub use srlb_workload as workload;

/// The crate version of the facade, useful for experiment provenance records.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
