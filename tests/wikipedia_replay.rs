//! Integration tests: the synthetic Wikipedia replay (paper Section VI).

use srlb::core::spec::{ExperimentSpec, PolicyKind};
use srlb::core::{RunOutcome, Runner};
use srlb::metrics::RequestClass;

fn run(policy: PolicyKind, hours: f64, seed: u64) -> RunOutcome {
    let spec = ExperimentSpec::wikipedia_paper(policy)
        .with_hours(hours)
        .with_seed(seed);
    Runner::new(spec).expect("spec is valid").run()
}

#[test]
fn replay_contains_both_request_classes_with_expected_costs() {
    let result = run(PolicyKind::Static { threshold: 4 }, 0.02, 5);
    let wiki = result
        .collector
        .response_times_ms(Some(RequestClass::WikiPage));
    let statics = result
        .collector
        .response_times_ms(Some(RequestClass::Static));
    assert!(!wiki.is_empty());
    assert!(!statics.is_empty());
    // Static pages are served in about a millisecond (plus a few network
    // hops); wiki pages are orders of magnitude more expensive.
    let static_median = {
        let mut v = statics.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let wiki_median = {
        let mut v = wiki.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    assert!(static_median < 5.0, "static median {static_median} ms");
    assert!(wiki_median > 30.0, "wiki median {wiki_median} ms");
}

#[test]
fn every_request_is_accounted_for() {
    let result = run(PolicyKind::RoundRobin, 0.02, 7);
    assert!(!result.collector.is_empty());
    // At 50% of peak nothing should be reset and only requests still in
    // flight at the very end of the trace may be unfinished.
    assert_eq!(result.collector.reset_count(), 0);
    let unfinished = result.unfinished();
    assert!(unfinished < 20, "unfinished {unfinished}");
    assert_eq!(
        result.collector.completed_count() as u64 + unfinished,
        result.collector.len() as u64
    );
    let served: u64 = result.per_server_completed().iter().sum();
    assert_eq!(served as usize, result.collector.completed_count());
}

#[test]
fn sr4_improves_the_wiki_page_tail_over_rr() {
    // Figure 8: the median and third quartile of wiki-page load times drop
    // when SR4 replaces RR.  A 0.1-hour slice around the diurnal peak is
    // enough to see the effect.
    let hours = 0.1;
    let rr = run(PolicyKind::RoundRobin, hours, 21);
    let sr4 = run(PolicyKind::Static { threshold: 4 }, hours, 21);
    let rr_cdf = rr.cdf_seconds(Some(RequestClass::WikiPage));
    let sr4_cdf = sr4.cdf_seconds(Some(RequestClass::WikiPage));
    assert!(
        sr4_cdf.third_quartile().unwrap() <= rr_cdf.third_quartile().unwrap(),
        "SR4 Q3 {:.3}s should not exceed RR Q3 {:.3}s",
        sr4_cdf.third_quartile().unwrap(),
        rr_cdf.third_quartile().unwrap()
    );
    assert!(
        sr4_cdf.median().unwrap() <= rr_cdf.median().unwrap() * 1.05,
        "SR4 median {:.3}s should not exceed RR median {:.3}s",
        sr4_cdf.median().unwrap(),
        rr_cdf.median().unwrap()
    );
}

#[test]
fn static_pages_are_unaffected_by_the_policy() {
    // Section VI-C: static page response times were found to be equivalent
    // regardless of whether SR4 or RR was used.
    let hours = 0.05;
    let rr = run(PolicyKind::RoundRobin, hours, 31);
    let sr4 = run(PolicyKind::Static { threshold: 4 }, hours, 31);
    let rr_median = rr.cdf_seconds(Some(RequestClass::Static)).median().unwrap();
    let sr4_median = sr4
        .cdf_seconds(Some(RequestClass::Static))
        .median()
        .unwrap();
    assert!(
        (rr_median - sr4_median).abs() < 0.01,
        "static medians should be equivalent: RR {rr_median:.4}s vs SR4 {sr4_median:.4}s"
    );
}

#[test]
fn request_rate_is_binnable_into_the_paper_series() {
    let result = run(PolicyKind::RoundRobin, 0.05, 41);
    let bins = result
        .collector
        .arrival_rate_bins(30.0, Some(RequestClass::WikiPage));
    assert!(bins.bin_count() >= 5);
    // At 50% of the Figure 6 trough the wiki-page rate should be around
    // 27 pages/s at the start of the day (the trace starts at 00:00 UTC,
    // where the profile sits between trough and peak).
    let stats = bins.stats();
    assert!(stats.iter().all(|b| b.rate_per_second < 70.0));
    assert!(stats.iter().any(|b| b.rate_per_second > 10.0));
}
