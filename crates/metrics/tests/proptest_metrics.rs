//! Property-based tests over the metric primitives.

use proptest::prelude::*;
use srlb_metrics::{jain_fairness, Cdf, Ewma, Summary, TimeBinner};

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..1.0e6f64, 1..200)
}

proptest! {
    #[test]
    fn summary_mean_is_within_min_max(samples in finite_samples()) {
        let s = Summary::from_samples(samples.iter().copied());
        let mean = s.mean();
        prop_assert!(mean >= s.min().unwrap() - 1e-9);
        prop_assert!(mean <= s.max().unwrap() + 1e-9);
    }

    #[test]
    fn summary_percentiles_are_monotone(samples in finite_samples()) {
        let s = Summary::from_samples(samples.iter().copied());
        let mut prev = s.min().unwrap();
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p).unwrap();
            prop_assert!(v >= prev - 1e-9);
            prev = v;
        }
    }

    #[test]
    fn summary_deciles_are_sorted_samples(samples in finite_samples()) {
        let s = Summary::from_samples(samples.iter().copied());
        if let Some(deciles) = s.deciles() {
            for d in deciles {
                prop_assert!(samples.iter().any(|&x| (x - d).abs() < 1e-9));
            }
        }
    }

    #[test]
    fn cdf_fraction_below_max_is_one(samples in finite_samples()) {
        let cdf = Cdf::from_samples(samples.iter().copied());
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((cdf.fraction_below(max) - 1.0).abs() < 1e-12);
        prop_assert_eq!(cdf.count(), samples.len());
    }

    #[test]
    fn cdf_quantile_is_a_sample(samples in finite_samples(), q in 0.0..=1.0f64) {
        let cdf = Cdf::from_samples(samples.iter().copied());
        let v = cdf.quantile(q).unwrap();
        prop_assert!(samples.iter().any(|&x| (x - v).abs() < 1e-9));
    }

    #[test]
    fn fairness_is_bounded(loads in prop::collection::vec(0.0..1.0e3f64, 1..64)) {
        let f = jain_fairness(&loads);
        prop_assert!(f <= 1.0 + 1e-9);
        prop_assert!(f >= 1.0 / loads.len() as f64 - 1e-9);
    }

    #[test]
    fn ewma_stays_within_observed_range(
        samples in prop::collection::vec(0.0..100.0f64, 1..100),
    ) {
        let mut ewma = Ewma::new();
        let lo = samples.iter().cloned().fold(f64::MAX, f64::min);
        let hi = samples.iter().cloned().fold(f64::MIN, f64::max);
        for (i, s) in samples.iter().enumerate() {
            let v = ewma.observe(i as f64 * 0.5, *s);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn timebinner_conserves_sample_count(
        samples in prop::collection::vec((0.0..86_400.0f64, 0.0..1.0e3f64), 0..300),
    ) {
        let mut b = TimeBinner::ten_minutes();
        for &(t, v) in &samples {
            b.record(t, v);
        }
        prop_assert_eq!(b.total_count(), samples.len());
        let from_stats: usize = b.stats().iter().map(|s| s.count).sum();
        prop_assert_eq!(from_stats, samples.len());
    }
}
