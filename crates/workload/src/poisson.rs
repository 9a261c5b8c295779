//! The Poisson workload of the paper's Section V.

use rand::Rng;
use serde::{Deserialize, Serialize};
use srlb_metrics::RequestClass;

use crate::request::Request;
use crate::service::ServiceTime;

/// A Poisson stream of queries with independent, identically distributed
/// service demands.
///
/// The paper injects 20 000 queries at 24 different normalised rates
/// `ρ = λ/λ₀`, with exponential service times of mean 100 ms.
///
/// # Example
///
/// ```
/// use srlb_workload::PoissonWorkload;
///
/// let requests = PoissonWorkload::paper(0.5, 100.0).with_queries(100).generate(7);
/// assert_eq!(requests.len(), 100);
/// assert!(srlb_workload::request::is_well_formed(&requests));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoissonWorkload {
    /// Query arrival rate in queries per second.
    pub rate_per_second: f64,
    /// Number of queries to generate.
    pub queries: usize,
    /// Service-time distribution.
    pub service: ServiceTime,
    /// Class tag attached to generated requests.
    pub class: RequestClass,
}

impl PoissonWorkload {
    /// Creates a workload with an explicit arrival rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_second` is not strictly positive and finite.
    pub fn new(rate_per_second: f64, queries: usize, service: ServiceTime) -> Self {
        assert!(
            rate_per_second.is_finite() && rate_per_second > 0.0,
            "arrival rate must be positive"
        );
        PoissonWorkload {
            rate_per_second,
            queries,
            service,
            class: RequestClass::Synthetic,
        }
    }

    /// The paper's configuration: normalised rate `rho` against a maximum
    /// sustainable rate `lambda0` (queries per second), 20 000 queries,
    /// exponential service with a 100 ms mean.
    ///
    /// # Panics
    ///
    /// Panics if `rho` or `lambda0` are not strictly positive and finite.
    pub fn paper(rho: f64, lambda0: f64) -> Self {
        assert!(rho.is_finite() && rho > 0.0, "rho must be positive");
        assert!(
            lambda0.is_finite() && lambda0 > 0.0,
            "lambda0 must be positive"
        );
        PoissonWorkload {
            rate_per_second: rho * lambda0,
            queries: 20_000,
            service: ServiceTime::paper_poisson(),
            class: RequestClass::Synthetic,
        }
    }

    /// Overrides the number of queries (builder style).
    pub fn with_queries(mut self, queries: usize) -> Self {
        self.queries = queries;
        self
    }

    /// Overrides the service-time distribution (builder style).
    pub fn with_service(mut self, service: ServiceTime) -> Self {
        self.service = service;
        self
    }

    /// Generates the request trace deterministically from `seed`.
    ///
    /// Compatibility shim: drains [`PoissonWorkload::stream`], so the eager
    /// and streaming paths cannot diverge.
    pub fn generate(&self, seed: u64) -> Vec<Request> {
        crate::stream::collect(&mut self.stream(seed))
    }
}

/// Draws a Poisson-distributed count with the given mean (used by the
/// Wikipedia generator for per-interval arrival counts).
pub(crate) fn poisson_count<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    // Knuth's algorithm is fine for the small per-interval means we use.
    if mean < 30.0 {
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
    // Normal approximation for larger means.
    let normal: f64 = {
        // Box-Muller from two uniforms.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    (mean + mean.sqrt() * normal).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::is_well_formed;
    use srlb_sim::SimRng;

    #[test]
    fn generates_requested_number_of_queries() {
        let w = PoissonWorkload::paper(0.88, 120.0).with_queries(5_000);
        let trace = w.generate(1);
        assert_eq!(trace.len(), 5_000);
        assert!(is_well_formed(&trace));
    }

    #[test]
    fn empirical_rate_matches_configuration() {
        let w = PoissonWorkload::new(200.0, 20_000, ServiceTime::Constant { ms: 1.0 });
        let trace = w.generate(3);
        let duration = trace.last().unwrap().arrival_seconds();
        let rate = trace.len() as f64 / duration;
        assert!(
            (rate - 200.0).abs() / 200.0 < 0.05,
            "empirical rate {rate} too far from 200"
        );
    }

    #[test]
    fn service_times_follow_configured_distribution() {
        let w = PoissonWorkload::paper(0.5, 100.0).with_queries(20_000);
        let trace = w.generate(5);
        let mean_ms: f64 = trace.iter().map(|r| r.service_ms()).sum::<f64>() / trace.len() as f64;
        assert!((mean_ms - 100.0).abs() < 5.0, "mean service {mean_ms}");
    }

    #[test]
    fn generation_is_deterministic() {
        let w = PoissonWorkload::paper(0.7, 100.0).with_queries(500);
        assert_eq!(w.generate(11), w.generate(11));
        assert_ne!(w.generate(11), w.generate(12));
    }

    #[test]
    fn builder_overrides() {
        let w = PoissonWorkload::paper(0.5, 100.0)
            .with_queries(10)
            .with_service(ServiceTime::Constant { ms: 2.0 });
        let trace = w.generate(1);
        assert_eq!(trace.len(), 10);
        assert!(trace.iter().all(|r| (r.service_ms() - 2.0).abs() < 1e-9));
    }

    #[test]
    fn poisson_count_mean_is_close() {
        let mut rng = SimRng::new(1);
        for mean in [0.5, 3.0, 10.0, 50.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| poisson_count(&mut rng, mean)).sum();
            let empirical = total as f64 / n as f64;
            assert!(
                (empirical - mean).abs() / mean < 0.1,
                "mean {mean}: empirical {empirical}"
            );
        }
        assert_eq!(poisson_count(&mut rng, 0.0), 0);
        assert_eq!(poisson_count(&mut rng, -1.0), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        PoissonWorkload::new(0.0, 1, ServiceTime::Constant { ms: 1.0 });
    }

    #[test]
    #[should_panic(expected = "rho must be positive")]
    fn invalid_rho_panics() {
        PoissonWorkload::paper(0.0, 100.0);
    }
}
