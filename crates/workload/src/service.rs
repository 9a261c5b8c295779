//! Service-time distributions for generated requests.

use rand::Rng;
use rand_distr::{Distribution, Exp, LogNormal};
use serde::{Deserialize, Serialize};
use srlb_sim::SimDuration;

/// A distribution of per-request CPU service demand.
///
/// The Poisson experiments of the paper use `Exponential { mean_ms: 100.0 }`
/// (a PHP busy loop with exponentially distributed duration); the synthetic
/// Wikipedia workload uses a log-normal for wiki pages (heavy-tailed database
/// and rendering work) and a small constant for static pages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceTime {
    /// A fixed service time.
    Constant {
        /// Service time in milliseconds.
        ms: f64,
    },
    /// Exponentially distributed service time.
    Exponential {
        /// Mean service time in milliseconds.
        mean_ms: f64,
    },
    /// Log-normally distributed service time (heavy tail).
    LogNormal {
        /// Median service time in milliseconds (`exp(mu)`).
        median_ms: f64,
        /// Shape parameter sigma of the underlying normal.
        sigma: f64,
    },
    /// Uniformly distributed service time.
    Uniform {
        /// Lower bound in milliseconds.
        min_ms: f64,
        /// Upper bound in milliseconds.
        max_ms: f64,
    },
}

impl ServiceTime {
    /// The paper's Poisson-workload service time: exponential with a 100 ms
    /// mean.
    pub(crate) fn paper_poisson() -> Self {
        ServiceTime::Exponential { mean_ms: 100.0 }
    }

    /// Mean of the distribution in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        match *self {
            ServiceTime::Constant { ms } => ms,
            ServiceTime::Exponential { mean_ms } => mean_ms,
            ServiceTime::LogNormal { median_ms, sigma } => median_ms * (sigma * sigma / 2.0).exp(),
            ServiceTime::Uniform { min_ms, max_ms } => (min_ms + max_ms) / 2.0,
        }
    }

    /// Draws one service time.
    ///
    /// # Panics
    ///
    /// Panics if the distribution parameters are invalid (non-positive mean,
    /// `min > max`, …); generators validate their configuration up front.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let ms = match *self {
            ServiceTime::Constant { ms } => ms,
            ServiceTime::Exponential { mean_ms } => {
                assert!(mean_ms > 0.0, "exponential mean must be positive");
                let exp = Exp::new(1.0 / mean_ms).expect("valid exponential rate");
                exp.sample(rng)
            }
            ServiceTime::LogNormal { median_ms, sigma } => {
                assert!(
                    median_ms > 0.0 && sigma >= 0.0,
                    "log-normal parameters must be positive"
                );
                let dist = LogNormal::new(median_ms.ln(), sigma).expect("valid log-normal");
                dist.sample(rng)
            }
            ServiceTime::Uniform { min_ms, max_ms } => {
                assert!(
                    min_ms <= max_ms && min_ms >= 0.0,
                    "uniform bounds must satisfy 0 <= min <= max"
                );
                if min_ms == max_ms {
                    min_ms
                } else {
                    rng.gen_range(min_ms..max_ms)
                }
            }
        };
        SimDuration::from_secs_f64((ms.max(0.0)) / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlb_sim::SimRng;

    fn sample_mean(dist: ServiceTime, n: usize) -> f64 {
        let mut rng = SimRng::new(42);
        (0..n)
            .map(|_| dist.sample(&mut rng).as_millis_f64())
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = SimRng::new(1);
        let d = ServiceTime::Constant { ms: 5.0 };
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), SimDuration::from_millis(5));
        }
        assert_eq!(d.mean_ms(), 5.0);
    }

    #[test]
    fn exponential_matches_mean() {
        let d = ServiceTime::paper_poisson();
        assert_eq!(d.mean_ms(), 100.0);
        let m = sample_mean(d, 20_000);
        assert!((m - 100.0).abs() < 5.0, "empirical mean {m}");
    }

    #[test]
    fn lognormal_mean_formula() {
        let d = ServiceTime::LogNormal {
            median_ms: 100.0,
            sigma: 0.5,
        };
        let expected = 100.0 * (0.125f64).exp();
        assert!((d.mean_ms() - expected).abs() < 1e-9);
        let m = sample_mean(d, 50_000);
        assert!((m - expected).abs() / expected < 0.05, "empirical mean {m}");
    }

    #[test]
    fn uniform_bounds_are_respected() {
        let d = ServiceTime::Uniform {
            min_ms: 2.0,
            max_ms: 4.0,
        };
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let v = d.sample(&mut rng).as_millis_f64();
            assert!((2.0..=4.0).contains(&v));
        }
        assert_eq!(d.mean_ms(), 3.0);
        let degenerate = ServiceTime::Uniform {
            min_ms: 7.0,
            max_ms: 7.0,
        };
        assert_eq!(degenerate.sample(&mut rng), SimDuration::from_millis(7));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = ServiceTime::paper_poisson();
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_exponential_panics() {
        let mut rng = SimRng::new(1);
        ServiceTime::Exponential { mean_ms: 0.0 }.sample(&mut rng);
    }

    #[test]
    fn serde_roundtrip() {
        let d = ServiceTime::LogNormal {
            median_ms: 80.0,
            sigma: 0.7,
        };
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(serde_json::from_str::<ServiceTime>(&json).unwrap(), d);
    }
}
