//! The unit of work generated by a workload: one HTTP query.

use serde::{Deserialize, Serialize};
use srlb_metrics::RequestClass;
use srlb_sim::{SimDuration, SimTime};

/// One query to be injected into the load balancer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Unique, monotonically increasing id within a trace.
    pub id: u64,
    /// Arrival time (when the client opens the connection).
    pub arrival: SimTime,
    /// Class of the request (synthetic, static page or wiki page).
    pub class: RequestClass,
    /// CPU service demand of the request on a backend worker thread.
    pub service: SimDuration,
}

impl Request {
    /// Creates a request.
    pub fn new(id: u64, arrival: SimTime, class: RequestClass, service: SimDuration) -> Self {
        Request {
            id,
            arrival,
            class,
            service,
        }
    }

    /// Arrival time in seconds since the start of the trace.
    pub(crate) fn arrival_seconds(&self) -> f64 {
        self.arrival.as_secs_f64()
    }
}

/// Checks that a slice of requests is sorted by arrival time with unique,
/// increasing ids — the invariant all generators in this crate guarantee.
pub fn is_well_formed(requests: &[Request]) -> bool {
    requests
        .windows(2)
        .all(|w| w[0].arrival <= w[1].arrival && w[0].id < w[1].id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, t_ms: u64) -> Request {
        Request::new(
            id,
            SimTime::from_nanos(t_ms * 1_000_000),
            RequestClass::Synthetic,
            SimDuration::from_millis(100),
        )
    }

    #[test]
    fn accessors_convert_units() {
        let r = req(1, 1500);
        assert!((r.arrival_seconds() - 1.5).abs() < 1e-12);
        assert!((r.service.as_millis_f64() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn well_formedness_detects_ordering_violations() {
        assert!(is_well_formed(&[]));
        assert!(is_well_formed(&[req(0, 10)]));
        assert!(is_well_formed(&[req(0, 10), req(1, 10), req(2, 20)]));
        assert!(!is_well_formed(&[req(0, 20), req(1, 10)]));
        assert!(!is_well_formed(&[req(1, 10), req(1, 20)]));
    }

    #[test]
    fn serde_roundtrip() {
        let r = req(7, 42);
        let json = serde_json::to_string(&r).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
