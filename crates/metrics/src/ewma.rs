//! Exponential window moving average with time-aware smoothing.
//!
//! The paper smooths the instantaneous per-server loads of Figure 4 with an
//! EWMA whose parameter is `alpha = 1 - exp(-dt)` where `dt` is the interval
//! in seconds between successive data points; this module implements exactly
//! that filter.

use serde::{Deserialize, Serialize};

/// An exponential window moving average filter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    value: Option<f64>,
    last_time: Option<f64>,
}

impl Ewma {
    /// Creates a filter with the paper's parameterisation
    /// (`alpha = 1 - exp(-dt)`, i.e. a time constant of one second).
    pub fn new() -> Self {
        Ewma {
            value: None,
            last_time: None,
        }
    }

    /// Current smoothed value, or `None` before the first observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Feeds an observation taken at `time_seconds`; returns the new
    /// smoothed value.
    ///
    /// The first observation initialises the filter.  Observations at
    /// non-increasing times are treated as `dt = 0` (no decay).
    pub fn observe(&mut self, time_seconds: f64, sample: f64) -> f64 {
        let new_value = match (self.value, self.last_time) {
            (Some(prev), Some(last)) => {
                let dt = (time_seconds - last).max(0.0);
                let alpha = 1.0 - (-dt).exp();
                prev + alpha * (sample - prev)
            }
            _ => sample,
        };
        self.value = Some(new_value);
        self.last_time = Some(time_seconds);
        new_value
    }

    /// Resets the filter to its initial, empty state.
    pub fn reset(&mut self) {
        self.value = None;
        self.last_time = None;
    }
}

impl Default for Ewma {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_initialises() {
        let mut e = Ewma::new();
        assert_eq!(e.value(), None);
        assert_eq!(e.observe(0.0, 5.0), 5.0);
        assert_eq!(e.value(), Some(5.0));
    }

    #[test]
    fn converges_towards_constant_input() {
        let mut e = Ewma::new();
        e.observe(0.0, 0.0);
        let mut v = 0.0;
        for i in 1..100 {
            v = e.observe(i as f64 * 0.1, 10.0);
        }
        assert!(v > 9.9, "should converge to 10, got {v}");
        assert!(v <= 10.0);
    }

    #[test]
    fn larger_dt_moves_faster() {
        let mut slow = Ewma::new();
        slow.observe(0.0, 0.0);
        let after_small_dt = slow.observe(0.1, 10.0);

        let mut fast = Ewma::new();
        fast.observe(0.0, 0.0);
        let after_large_dt = fast.observe(2.0, 10.0);

        assert!(after_large_dt > after_small_dt);
    }

    #[test]
    fn zero_or_negative_dt_keeps_previous_value() {
        let mut e = Ewma::new();
        e.observe(1.0, 4.0);
        let v = e.observe(1.0, 100.0);
        assert_eq!(v, 4.0);
        let v = e.observe(0.5, 100.0);
        assert_eq!(v, 4.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut e = Ewma::new();
        e.observe(0.0, 3.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.observe(5.0, 7.0), 7.0);
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(Ewma::default(), Ewma::new());
    }
}
