//! Median, quartile and regression-bound arithmetic of the harness.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the rule the acceptance
//! driver applies to this benchmark's own output.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, shares of success).
    Higher,
    /// Smaller values are better (times, memory).
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile.  A single sample is its own quartiles
/// (Python raises there; the harness prints them next to the sample count).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let len = v.len();
    if len == 1 {
        return [v[0]; 3];
    }
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The share of `first` by which `second` is worse (negative when it is
/// better).  Exactly equal values give exactly `0.0`.
pub fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    if first == second {
        return 0.0;
    }
    let delta = match better {
        Better::Higher => first - second,
        Better::Lower => second - first,
    };
    delta / first.abs()
}

/// Whether `second` stays within `bound` of `first`.
pub fn within_bound(better: Better, bound: f64, first: f64, second: f64) -> bool {
    worse_by(better, first, second) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), [10.0, 20.0, 40.0]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert_eq!(worse_by(Better::Higher, 100.0, 90.0), 0.1);
        assert_eq!(worse_by(Better::Higher, 100.0, 110.0), -0.1);
        assert_eq!(worse_by(Better::Lower, 2.0, 2.5), 0.25);
        assert_eq!(worse_by(Better::Lower, 2.0, 1.5), -0.25);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
    }

    #[test]
    fn bound_check_accepts_the_edge_and_improvements() {
        assert!(within_bound(Better::Higher, 0.1, 100.0, 90.0));
        assert!(!within_bound(Better::Higher, 0.05, 100.0, 90.0));
        assert!(within_bound(Better::Lower, 0.05, 1.0, 0.5));
        assert!(within_bound(Better::Lower, 0.0, 1.0, 1.0));
        assert!(!within_bound(Better::Lower, 0.0, 1.0, 1.0 + f64::EPSILON));
    }
}
