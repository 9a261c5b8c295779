//! λ₀ bootstrap: finding the maximum sustainable request rate.
//!
//! The paper's first experimental step identifies λ₀, "the max rate
//! sustainable by the 12-servers swarm, i.e. the smallest value of λ for
//! which some TCP connections were dropped", and then expresses every
//! Poisson experiment in terms of the normalised rate ρ = λ/λ₀.  This module
//! provides both the analytic capacity of the simulated cluster and an
//! empirical bisection search equivalent to the paper's bootstrap.

use crate::runner::Runner;
use crate::spec::{ClusterSpec, ExperimentSpec, PolicyKind, WorkloadSpec};
use crate::CoreError;

/// Analytic CPU capacity of the cluster in queries per second:
/// `servers × cores / mean_service_seconds`.
///
/// Requests are CPU-bound (the paper's Poisson workload is a PHP busy loop),
/// so the capacity is set by the cores, not by the 32 worker threads that
/// share them.  With the paper's parameters (12 two-core VMs, 100 ms mean
/// CPU demand) this is 240 queries/s.  It is an upper bound on λ₀: the real
/// sustainable rate is slightly lower because of queueing variance.
///
/// # Panics
///
/// Panics if `mean_service_ms` is not strictly positive and finite.
pub fn analytic_lambda0(servers: usize, cores: usize, mean_service_ms: f64) -> f64 {
    assert!(
        mean_service_ms.is_finite() && mean_service_ms > 0.0,
        "mean service time must be positive"
    );
    (servers * cores) as f64 / (mean_service_ms / 1e3)
}

/// Configuration of the empirical λ₀ search.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationConfig {
    /// Number of servers.
    pub servers: usize,
    /// Worker threads per server.
    pub workers: usize,
    /// CPU cores per server.
    pub cores: usize,
    /// TCP backlog per server.
    pub backlog: usize,
    /// Mean service time in milliseconds.
    pub mean_service_ms: f64,
    /// Queries injected per probe run (more gives a sharper estimate).
    pub probe_queries: usize,
    /// Number of bisection iterations.
    pub iterations: usize,
    /// Fraction of reset connections above which a rate counts as
    /// unsustainable (0 reproduces the paper's "some connections dropped").
    pub reset_tolerance: f64,
    /// Random seed.
    pub seed: u64,
}

/// Result of the empirical λ₀ search.
#[derive(Debug, Clone, PartialEq)]
// srlb-lint: allow(unused-pub) -- reached through srlb_core::calibration::calibrate_lambda0
pub struct CalibrationResult {
    /// The estimated maximum sustainable rate, in queries per second.
    pub lambda0: f64,
    /// The analytic upper bound used to initialise the search.
    pub analytic_upper_bound: f64,
    /// `(rate, reset_fraction)` pairs of every probe run, in search order.
    pub probes: Vec<(f64, f64)>,
}

/// Runs the bisection search for λ₀ using the RR policy (as the paper's
/// bootstrap does, before any Service Hunting policy is engaged).
///
/// The search brackets λ₀ between 0 and the analytic capacity, probing the
/// midpoint with a short Poisson run and narrowing towards the largest rate
/// whose reset fraction stays within `reset_tolerance`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the underlying experiment
/// configuration is invalid.
pub fn calibrate_lambda0(config: &CalibrationConfig) -> Result<CalibrationResult, CoreError> {
    let upper = analytic_lambda0(config.servers, config.cores, config.mean_service_ms);
    let mut lo = 0.0f64;
    let mut hi = upper;
    let mut probes = Vec::with_capacity(config.iterations);

    for i in 0..config.iterations {
        let rate = (lo + hi) / 2.0;
        // The paper's static testbed shape, at an explicit arrival rate.
        let mut probe = ExperimentSpec::poisson_paper(1.0, PolicyKind::RoundRobin)
            .with_name("lambda0-probe")
            .with_seed(config.seed.wrapping_add(i as u64));
        probe.workload = WorkloadSpec::PoissonRate {
            rate_qps: rate,
            queries: config.probe_queries,
            mean_service_ms: config.mean_service_ms,
        };
        probe.cluster = ClusterSpec {
            initial_servers: config.servers,
            max_servers: config.servers,
            workers: config.workers,
            cores: config.cores,
            backlog: config.backlog,
            ..ClusterSpec::paper()
        };
        let reset_fraction = Runner::new(probe)?.run().reset_fraction();
        probes.push((rate, reset_fraction));
        if reset_fraction > config.reset_tolerance {
            hi = rate;
        } else {
            lo = rate;
        }
    }

    Ok(CalibrationResult {
        lambda0: lo,
        analytic_upper_bound: upper,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_capacity_matches_paper_parameters() {
        assert!((analytic_lambda0(12, 2, 100.0) - 240.0).abs() < 1e-9);
        assert!((analytic_lambda0(1, 1, 1000.0) - 1.0).abs() < 1e-9);
        assert!((analytic_lambda0(4, 4, 20.0) - 800.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_service_time_panics() {
        analytic_lambda0(1, 1, 0.0);
    }

    #[test]
    fn calibration_finds_a_rate_below_the_analytic_bound() {
        // A small cluster so the probe runs stay fast.
        let config = CalibrationConfig {
            servers: 3,
            workers: 4,
            cores: 2,
            backlog: 8,
            mean_service_ms: 20.0,
            probe_queries: 600,
            iterations: 5,
            reset_tolerance: 0.0,
            seed: 3,
        };
        let result = calibrate_lambda0(&config).unwrap();
        let upper = analytic_lambda0(3, 2, 20.0);
        assert_eq!(result.analytic_upper_bound, upper);
        assert!(result.lambda0 > 0.0);
        assert!(result.lambda0 <= upper);
        assert_eq!(result.probes.len(), 5);
        // The probes at rates above the returned lambda0 + tolerance saw
        // resets; the search is therefore meaningful.
        assert!(result.probes.iter().any(|&(_, resets)| resets > 0.0));
    }
}
