//! Time-binned statistics.
//!
//! The Wikipedia replay of the paper reports query rate, median response
//! time (Figure 6) and response-time deciles (Figure 7) in 10-minute bins
//! over a 24-hour trace; [`TimeBinner`] implements that aggregation.

use serde::{Deserialize, Serialize};

use crate::summary::Summary;

/// Aggregated statistics of one time bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// srlb-lint: allow(unused-pub) -- reached through srlb_metrics::TimeBinner::stats
pub struct BinStats {
    /// Start of the bin, in seconds since the start of the measurement.
    pub start_seconds: f64,
    /// Width of the bin in seconds.
    pub width_seconds: f64,
    /// Number of samples in the bin.
    pub count: usize,
    /// Samples per second over the bin (the "query rate" of Figure 6).
    pub rate_per_second: f64,
    /// Mean of the samples.
    pub mean: f64,
    /// Median of the samples (`None` for an empty bin).
    pub median: Option<f64>,
    /// Deciles 1–9 of the samples (`None` for an empty bin).
    pub deciles: Option<[f64; 9]>,
}

/// Bins `(timestamp, value)` samples into fixed-width time bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeBinner {
    width_seconds: f64,
    bins: Vec<Vec<f64>>,
}

impl TimeBinner {
    /// Creates a binner with the given bin width in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `width_seconds` is not strictly positive and finite.
    pub fn new(width_seconds: f64) -> Self {
        assert!(
            width_seconds.is_finite() && width_seconds > 0.0,
            "bin width must be positive"
        );
        TimeBinner {
            width_seconds,
            bins: Vec::new(),
        }
    }

    /// The paper's 10-minute bins.
    pub fn ten_minutes() -> Self {
        Self::new(600.0)
    }

    /// Records a sample taken at `time_seconds`.
    ///
    /// Samples with negative or non-finite timestamps or non-finite values
    /// are ignored.
    pub fn record(&mut self, time_seconds: f64, value: f64) {
        if !time_seconds.is_finite() || time_seconds < 0.0 || !value.is_finite() {
            return;
        }
        let index = (time_seconds / self.width_seconds) as usize;
        if index >= self.bins.len() {
            self.bins.resize_with(index + 1, Vec::new);
        }
        self.bins[index].push(value);
    }

    /// Number of bins (including empty ones up to the latest sample).
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Aggregated statistics per bin, in time order.
    pub fn stats(&self) -> Vec<BinStats> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, samples)| {
                let summary = Summary::from_samples(samples.iter().copied());
                BinStats {
                    start_seconds: i as f64 * self.width_seconds,
                    width_seconds: self.width_seconds,
                    count: samples.len(),
                    rate_per_second: samples.len() as f64 / self.width_seconds,
                    mean: summary.mean(),
                    median: summary.median(),
                    deciles: summary.deciles(),
                }
            })
            .collect()
    }

    /// Total number of recorded samples.
    pub fn total_count(&self) -> usize {
        self.bins.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_by_timestamp() {
        let mut b = TimeBinner::new(10.0);
        b.record(0.0, 1.0);
        b.record(9.9, 2.0);
        b.record(10.0, 3.0);
        b.record(35.0, 4.0);
        assert_eq!(b.bin_count(), 4);
        let stats = b.stats();
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[1].count, 1);
        assert_eq!(stats[2].count, 0);
        assert_eq!(stats[3].count, 1);
        assert_eq!(b.total_count(), 4);
    }

    #[test]
    fn rate_is_count_over_width() {
        let mut b = TimeBinner::new(2.0);
        for i in 0..10 {
            b.record(0.1 * i as f64, 1.0);
        }
        let stats = b.stats();
        assert_eq!(stats[0].count, 10);
        assert!((stats[0].rate_per_second - 5.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_deciles_per_bin() {
        let mut b = TimeBinner::new(60.0);
        for i in 1..=100 {
            b.record(30.0, i as f64);
        }
        let stats = b.stats();
        assert_eq!(stats[0].median, Some(50.0));
        let deciles = stats[0].deciles.unwrap();
        assert_eq!(deciles[0], 10.0);
        assert_eq!(deciles[8], 90.0);
        assert!((stats[0].mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_bins_have_no_median() {
        let mut b = TimeBinner::new(1.0);
        b.record(5.5, 2.0);
        let stats = b.stats();
        assert_eq!(stats[2].count, 0);
        assert_eq!(stats[2].median, None);
        assert_eq!(stats[2].deciles, None);
        assert_eq!(stats[2].rate_per_second, 0.0);
    }

    #[test]
    fn invalid_samples_are_ignored() {
        let mut b = TimeBinner::new(1.0);
        b.record(-1.0, 2.0);
        b.record(f64::NAN, 2.0);
        b.record(1.0, f64::INFINITY);
        assert_eq!(b.total_count(), 0);
        assert_eq!(b.bin_count(), 0);
    }

    #[test]
    fn ten_minute_constructor() {
        assert_eq!(TimeBinner::ten_minutes(), TimeBinner::new(600.0));
    }

    #[test]
    fn bin_starts_are_multiples_of_width() {
        let mut b = TimeBinner::new(600.0);
        b.record(86_399.0, 1.0); // last second of a 24-hour day
        let stats = b.stats();
        assert_eq!(stats.len(), 144);
        assert_eq!(stats[143].start_seconds, 143.0 * 600.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        TimeBinner::new(0.0);
    }
}
