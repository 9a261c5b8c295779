//! Trace serialisation: saving and replaying generated workloads.
//!
//! The paper's traffic generator replays a MediaWiki access trace "with
//! millisecond granularity"; this module provides the equivalent
//! record/replay facility for synthetic traces so that the exact same trace
//! can be replayed against different load-balancing policies (as the paper
//! does when comparing RR and SR4 on the same 24-hour trace).

use serde::{Deserialize, Serialize};

use crate::request::{is_well_formed, Request};

/// A serialisable workload trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Trace {
    /// Free-form description of how the trace was generated.
    pub description: String,
    /// Seed used to generate the trace (for provenance).
    pub seed: u64,
    /// The requests, sorted by arrival time.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Wraps a request list into a trace.
    ///
    /// # Panics
    ///
    /// Panics if the requests are not sorted by arrival time with strictly
    /// increasing ids (all generators in this crate produce well-formed
    /// traces; hand-built traces must uphold the same invariant).
    pub fn new(description: impl Into<String>, seed: u64, requests: Vec<Request>) -> Self {
        assert!(
            is_well_formed(&requests),
            "trace requests must be sorted by arrival with increasing ids"
        );
        Trace {
            description: description.into(),
            seed,
            requests,
        }
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` if the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Duration of the trace in seconds (arrival of the last request).
    pub fn duration_seconds(&self) -> f64 {
        self.requests
            .last()
            .map(|r| r.arrival_seconds())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::PoissonWorkload;
    use crate::service::ServiceTime;
    use srlb_metrics::RequestClass;

    #[test]
    fn wraps_generated_poisson_trace() {
        let requests =
            PoissonWorkload::new(100.0, 200, ServiceTime::Constant { ms: 1.0 }).generate(7);
        let trace = Trace::new("poisson test", 7, requests);
        assert_eq!(trace.len(), 200);
        assert!(!trace.is_empty());
        assert!(trace.duration_seconds() > 0.0);
    }

    #[test]
    fn empty_trace_statistics() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.duration_seconds(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_requests_are_rejected() {
        use srlb_sim::{SimDuration, SimTime};
        let r1 = Request::new(
            0,
            SimTime::from_secs_f64(2.0),
            RequestClass::Synthetic,
            SimDuration::from_millis(1),
        );
        let r2 = Request::new(
            1,
            SimTime::from_secs_f64(1.0),
            RequestClass::Synthetic,
            SimDuration::from_millis(1),
        );
        Trace::new("bad", 0, vec![r1, r2]);
    }
}
