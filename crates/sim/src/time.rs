//! Simulated time.
//!
//! Time is represented as an integer number of nanoseconds since the start of
//! the simulation, so that the event queue ordering is exact (no floating
//! point drift) and results are bit-for-bit reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from raw nanoseconds.
    pub fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Builds a time from seconds (fractional seconds allowed).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "time must be non-negative");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since simulation start, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`; saturates at zero if `earlier` is
    /// in the future.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of a duration.
    pub fn checked_sub(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_sub(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw nanoseconds.
    pub fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Builds a duration from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Builds a duration from milliseconds.
    pub fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be non-negative"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Builds a duration from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// Raw nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns true if the duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Saturates at `u64::MAX` nanoseconds rather than wrapping.  Saturating,
/// not checked: a hostile spec (an absurd horizon, delay or rate) must not
/// panic a run, and an instant pinned at the end of time is never reached.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

/// Saturating, like `SimTime + SimDuration`.
impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// Saturates at `u64::MAX` nanoseconds rather than wrapping, for the same
/// reason as `SimTime + SimDuration`: a hostile spec must not panic a run.
impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

/// Saturating, like `SimDuration + SimDuration`.
impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// Saturating, like `SimDuration + SimDuration`.
impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis(100).as_millis_f64(), 100.0);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(SimTime::from_secs_f64(2.0).as_nanos(), 2_000_000_000);
        assert!((SimTime::from_nanos(1_500_000).as_millis_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sums_and_products_saturate_at_u64_max() {
        let end = SimTime::from_nanos(u64::MAX);
        let max = SimDuration::from_nanos(u64::MAX);
        let one = SimDuration::from_nanos(1);
        assert_eq!(end + one, end);
        assert_eq!(SimTime::from_nanos(u64::MAX - 1) + max, end);
        let mut t = end;
        t += max;
        assert_eq!(t, end);
        assert_eq!(max + one, max);
        let mut d = max;
        d += one;
        assert_eq!(d, max);
        assert_eq!(max * 2, max);
        assert_eq!(SimDuration::from_secs(1) * u64::MAX, max);
        assert_eq!(SimDuration::from_nanos(3) * 5, SimDuration::from_nanos(15));
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        assert_eq!(t.as_nanos(), 10_000_000);
        let mut t2 = t;
        t2 += SimDuration::from_millis(5);
        assert_eq!((t2 - t).as_millis_f64(), 5.0);
        assert_eq!(t2.duration_since(t), SimDuration::from_millis(5));
        // saturating in the other direction
        assert_eq!(t.duration_since(t2), SimDuration::ZERO);
        assert_eq!(
            t2.checked_sub(SimDuration::from_millis(15)),
            Some(SimTime::ZERO)
        );
        assert_eq!(t.checked_sub(SimDuration::from_millis(15)), None);
        assert_eq!(
            SimDuration::from_millis(4) * 3,
            SimDuration::from_millis(12)
        );
        assert_eq!(
            SimDuration::from_millis(12) / 4,
            SimDuration::from_millis(3)
        );
        let mut d = SimDuration::from_millis(1);
        d += SimDuration::from_millis(2);
        assert_eq!(d, SimDuration::from_millis(3));
        assert_eq!(d - SimDuration::from_millis(1), SimDuration::from_millis(2));
        assert_eq!(
            SimDuration::from_millis(1).saturating_sub(SimDuration::from_millis(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert!(SimDuration::from_nanos(1) < SimDuration::from_nanos(2));
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_nanos(1).is_zero());
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7.000us");
        assert_eq!(SimDuration::from_nanos(9).to_string(), "9ns");
        assert!(SimTime::from_secs_f64(1.25).to_string().contains("1.25"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
