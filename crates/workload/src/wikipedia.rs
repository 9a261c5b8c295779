//! Synthetic Wikipedia-replay workload (substitute for the paper's trace).
//!
//! The paper replays 24 hours of real Wikipedia access traces (10% of all
//! 2007 Wikipedia traffic, English wiki only) against full MediaWiki
//! replicas.  Neither the trace archive nor the MediaWiki/MySQL/memcached
//! stack is available in this environment, so this module generates a
//! synthetic trace that preserves the three properties the published result
//! depends on:
//!
//! 1. **Diurnal rate shape** — the wiki-page request rate follows the curve
//!    of the paper's Figure 6: a trough of roughly 55 pages/s around
//!    08:00 UTC and a peak of roughly 115 pages/s around 20:00 UTC,
//! 2. **Request mix** — a majority of cheap static-asset requests
//!    (~1 ms) interleaved with CPU-intensive wiki-page requests,
//! 3. **Heavy-tailed page cost** — wiki pages trigger database/render work
//!    modelled as a log-normal service time.
//!
//! The generator is deterministic given a seed and produces a time-ordered
//! [`Request`] list spanning the configured duration.

use serde::{Deserialize, Serialize};

use crate::request::Request;
use crate::service::ServiceTime;

/// A 24-hour diurnal rate profile (requests per second as a function of the
/// time of day).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalProfile {
    /// Minimum (off-peak) rate, in requests per second.
    pub trough_rate: f64,
    /// Maximum (peak) rate, in requests per second.
    pub peak_rate: f64,
    /// Hour of day (0–24) at which the trough occurs.
    pub trough_hour: f64,
}

impl DiurnalProfile {
    /// The profile matching the wiki-page rate curve of the paper's
    /// Figure 6: ~55 pages/s at 08:00 UTC, ~115 pages/s at the evening peak.
    pub(crate) fn paper_figure6() -> Self {
        DiurnalProfile {
            trough_rate: 55.0,
            peak_rate: 115.0,
            trough_hour: 8.0,
        }
    }

    /// Request rate (per second) at `hour` of the day (0–24, wraps around).
    ///
    /// The curve is a raised cosine with its minimum at `trough_hour` and its
    /// maximum 12 hours later, which closely matches the published shape.
    pub(crate) fn rate_at_hour(&self, hour: f64) -> f64 {
        let phase = (hour - self.trough_hour) / 24.0 * std::f64::consts::TAU;
        let normalized = (1.0 - phase.cos()) / 2.0; // 0 at trough, 1 at peak
        self.trough_rate + (self.peak_rate - self.trough_rate) * normalized
    }

    /// Request rate at `t` seconds since midnight.
    pub fn rate_at_seconds(&self, t: f64) -> f64 {
        self.rate_at_hour((t / 3600.0) % 24.0)
    }

    /// Peak rate of the profile.
    pub fn peak(&self) -> f64 {
        self.peak_rate
    }
}

impl Default for DiurnalProfile {
    fn default() -> Self {
        Self::paper_figure6()
    }
}

/// Generator of the synthetic Wikipedia replay trace.
///
/// # Example
///
/// ```
/// use srlb_workload::WikipediaWorkload;
///
/// // A 1-hour slice at 50% of peak load, as in the paper's replay.
/// let workload = WikipediaWorkload::paper().with_duration_hours(1.0);
/// let trace = workload.generate(7);
/// assert!(!trace.is_empty());
/// assert!(srlb_workload::request::is_well_formed(&trace));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WikipediaWorkload {
    /// Diurnal wiki-page rate profile.
    pub profile: DiurnalProfile,
    /// Global scaling factor applied to the profile (the paper replays the
    /// trace at 50% of the peak achievable load).
    pub load_fraction: f64,
    /// Number of static-asset requests generated per wiki-page request.
    pub static_per_wiki: f64,
    /// Service-time distribution of wiki pages.
    pub wiki_service: ServiceTime,
    /// Service-time distribution of static pages.
    pub static_service: ServiceTime,
    /// Trace duration in hours (the paper uses 24).
    pub duration_hours: f64,
    /// Width in seconds of the piecewise-constant rate intervals used by the
    /// generator.
    pub interval_seconds: f64,
}

impl WikipediaWorkload {
    /// The configuration used to reproduce the paper's Figures 6–8:
    /// 24 hours, Figure 6 rate profile at 50% load, 1.5 static requests per
    /// wiki page, 1 ms static pages, and a heavy-tailed log-normal wiki-page
    /// cost (median 250 ms, mean ≈ 320 ms).
    ///
    /// The wiki-page cost is calibrated so that the replayed evening peak
    /// (≈ 57 pages/s after the 50% scaling) drives the 12 × 2-core cluster to
    /// roughly 75–80% CPU utilisation — the paper's bootstrap picked the 50%
    /// replay fraction precisely so that the testbed was close to, but not
    /// beyond, its sustainable rate at peak ("reasonable response times,
    /// smaller than one second").
    pub fn paper() -> Self {
        WikipediaWorkload {
            profile: DiurnalProfile::paper_figure6(),
            load_fraction: 0.5,
            static_per_wiki: 1.5,
            wiki_service: ServiceTime::LogNormal {
                median_ms: 250.0,
                sigma: 0.7,
            },
            static_service: ServiceTime::Constant { ms: 1.0 },
            duration_hours: 24.0,
            interval_seconds: 10.0,
        }
    }

    /// Overrides the trace duration (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `hours` is not strictly positive and finite.
    pub fn with_duration_hours(mut self, hours: f64) -> Self {
        assert!(
            hours.is_finite() && hours > 0.0,
            "duration must be positive"
        );
        self.duration_hours = hours;
        self
    }

    /// Overrides the load fraction (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, +inf)`.
    pub fn with_load_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && fraction > 0.0,
            "load fraction must be positive"
        );
        self.load_fraction = fraction;
        self
    }

    /// Overrides the static-to-wiki request ratio (builder style).
    pub fn with_static_per_wiki(mut self, ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio >= 0.0,
            "ratio must be non-negative"
        );
        self.static_per_wiki = ratio;
        self
    }

    /// Generates the trace deterministically from `seed`.
    ///
    /// Wiki-page arrivals follow a non-homogeneous Poisson process with the
    /// diurnal rate; static requests are attached around each interval with
    /// the configured ratio.
    ///
    /// Compatibility shim: drains [`WikipediaWorkload::stream`], so the
    /// eager and streaming paths cannot diverge.
    pub fn generate(&self, seed: u64) -> Vec<Request> {
        crate::stream::collect(&mut self.stream(seed))
    }
}

impl Default for WikipediaWorkload {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::is_well_formed;
    use srlb_metrics::RequestClass;

    #[test]
    fn profile_matches_figure6_anchor_points() {
        let p = DiurnalProfile::paper_figure6();
        assert!((p.rate_at_hour(8.0) - 55.0).abs() < 1e-9);
        assert!((p.rate_at_hour(20.0) - 115.0).abs() < 1e-9);
        // midway points are between trough and peak
        let mid = p.rate_at_hour(14.0);
        assert!(mid > 55.0 && mid < 115.0);
        // wraps around midnight
        assert!((p.rate_at_hour(0.0) - p.rate_at_hour(24.0)).abs() < 1e-9);
        assert_eq!(p.peak(), 115.0);
    }

    #[test]
    fn rate_at_seconds_matches_hours() {
        let p = DiurnalProfile::paper_figure6();
        assert!((p.rate_at_seconds(8.0 * 3600.0) - p.rate_at_hour(8.0)).abs() < 1e-9);
        assert!((p.rate_at_seconds(30.0 * 3600.0) - p.rate_at_hour(6.0)).abs() < 1e-9);
    }

    #[test]
    fn generated_trace_is_well_formed_and_sorted() {
        let w = WikipediaWorkload::paper().with_duration_hours(0.5);
        let trace = w.generate(3);
        assert!(is_well_formed(&trace));
        assert!(!trace.is_empty());
        assert!(trace.iter().all(|r| r.arrival_seconds() <= 1800.0));
    }

    #[test]
    fn trace_contains_both_classes_in_expected_ratio() {
        let w = WikipediaWorkload::paper().with_duration_hours(1.0);
        let trace = w.generate(9);
        let wiki = trace
            .iter()
            .filter(|r| r.class == RequestClass::WikiPage)
            .count();
        let stat = trace
            .iter()
            .filter(|r| r.class == RequestClass::Static)
            .count();
        assert!(wiki > 0 && stat > 0);
        let ratio = stat as f64 / wiki as f64;
        assert!(
            (ratio - 1.5).abs() < 0.15,
            "static/wiki ratio {ratio} too far from 1.5"
        );
    }

    #[test]
    fn wiki_rate_tracks_the_diurnal_profile() {
        let w = WikipediaWorkload::paper().with_duration_hours(24.0);
        let trace = w.generate(4);
        // Count wiki pages in the hour around the trough and around the peak.
        let count_in = |from_h: f64, to_h: f64| {
            trace
                .iter()
                .filter(|r| r.class == RequestClass::WikiPage)
                .filter(|r| {
                    let h = r.arrival_seconds() / 3600.0;
                    h >= from_h && h < to_h
                })
                .count() as f64
        };
        let trough = count_in(7.5, 8.5);
        let peak = count_in(19.5, 20.5);
        let ratio = peak / trough;
        // Expected ratio 115/55 ≈ 2.09.
        assert!(
            (1.6..=2.7).contains(&ratio),
            "peak/trough ratio {ratio} outside expected band"
        );
        // Absolute rates: 50% of 55/s over 3600 s ≈ 99 000 /h at the trough.
        assert!((trough - 0.5 * 55.0 * 3600.0).abs() / (0.5 * 55.0 * 3600.0) < 0.1);
    }

    #[test]
    fn service_times_differ_by_class() {
        let w = WikipediaWorkload::paper().with_duration_hours(0.25);
        let trace = w.generate(5);
        let wiki_mean: f64 = {
            let v: Vec<f64> = trace
                .iter()
                .filter(|r| r.class == RequestClass::WikiPage)
                .map(|r| r.service.as_millis_f64())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let static_max = trace
            .iter()
            .filter(|r| r.class == RequestClass::Static)
            .map(|r| r.service.as_millis_f64())
            .fold(0.0f64, f64::max);
        assert!(wiki_mean > 50.0, "wiki mean {wiki_mean}");
        assert!(static_max <= 1.0 + 1e-9, "static max {static_max}");
    }

    #[test]
    fn generation_is_deterministic() {
        let w = WikipediaWorkload::paper().with_duration_hours(0.1);
        assert_eq!(w.generate(1), w.generate(1));
        assert_ne!(w.generate(1), w.generate(2));
    }

    #[test]
    fn load_fraction_scales_volume() {
        let low = WikipediaWorkload::paper()
            .with_duration_hours(0.5)
            .with_load_fraction(0.25)
            .generate(1)
            .len() as f64;
        let high = WikipediaWorkload::paper()
            .with_duration_hours(0.5)
            .with_load_fraction(0.5)
            .generate(1)
            .len() as f64;
        let ratio = high / low;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_duration_panics() {
        WikipediaWorkload::paper().with_duration_hours(0.0);
    }
}
