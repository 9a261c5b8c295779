//! Summary statistics: mean, percentiles and deciles.

use serde::{Deserialize, Serialize};

/// Summary statistics over a set of `f64` samples.
///
/// Percentiles are computed with the nearest-rank method over a sorted copy
/// of the samples, which matches how the paper reports medians, quartiles and
/// deciles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    sorted: Vec<f64>,
    sum: f64,
}

impl Summary {
    /// Builds a summary from an iterator of samples.
    ///
    /// Non-finite samples are ignored.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let sum = sorted.iter().sum();
        Summary { sorted, sum }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean, or 0.0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum / self.sorted.len() as f64
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Percentile in `[0, 100]` using the nearest-rank method, or `None` if
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or not finite.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(
            p.is_finite() && (0.0..=100.0).contains(&p),
            "percentile must be within [0, 100]"
        );
        if self.sorted.is_empty() {
            return None;
        }
        if p == 0.0 {
            return self.min();
        }
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let index = rank.clamp(1, n) - 1;
        Some(self.sorted[index])
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The deciles 1 through 9 (10th, 20th, … 90th percentiles), as plotted
    /// in the paper's Figure 7.  Returns `None` if empty.
    pub fn deciles(&self) -> Option<[f64; 9]> {
        if self.sorted.is_empty() {
            return None;
        }
        let mut out = [0.0; 9];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self
                .percentile((i as f64 + 1.0) * 10.0)
                .expect("non-empty summary has percentiles");
        }
        Some(out)
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Summary::from_samples(iter)
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        let mut combined = std::mem::take(&mut self.sorted);
        combined.extend(iter.into_iter().filter(|x| x.is_finite()));
        *self = Summary::from_samples(combined);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_well_behaved() {
        let s = Summary::from_samples(std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.median(), None);
        assert_eq!(s.deciles(), None);
    }

    #[test]
    fn mean_of_known_set() {
        let s = Summary::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = Summary::from_samples((1..=100).map(|x| x as f64));
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(1.0), Some(1.0));
        assert_eq!(s.median(), Some(50.0));
    }

    #[test]
    fn deciles_are_monotonic() {
        let s = Summary::from_samples((0..1000).map(|x| (x as f64).sqrt()));
        let d = s.deciles().unwrap();
        for w in d.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(d[4], s.median().unwrap());
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples([42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.median(), Some(42.0));
        assert_eq!(s.deciles(), Some([42.0; 9]));
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let s = Summary::from_samples([1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.count(), 3);
        s.extend([4.0, 5.0]);
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.samples(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "percentile must be within")]
    fn out_of_range_percentile_panics() {
        Summary::from_samples([1.0]).percentile(101.0);
    }
}
