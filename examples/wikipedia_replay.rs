//! Wikipedia replay (a reduced version of the paper's Figures 6 and 8).
//!
//! Replays a slice of the synthetic diurnal Wikipedia trace at 50% of peak
//! load against the RR baseline and SR4, then prints the per-bin medians and
//! the whole-run distribution of wiki-page load times.
//!
//! ```text
//! cargo run --release --example wikipedia_replay [hours]
//! ```

use srlb::core::spec::{ExperimentSpec, PolicyKind};
use srlb::core::Runner;
use srlb::metrics::RequestClass;

fn main() {
    let hours: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let bin_seconds = 600.0_f64.min(hours * 3600.0 / 6.0);
    let seed = 11;

    println!("Wikipedia replay: {hours} h slice at 50% of peak, 12 servers, RR vs SR4");

    for policy in [PolicyKind::RoundRobin, PolicyKind::Static { threshold: 4 }] {
        let spec = ExperimentSpec::wikipedia_paper(policy)
            .with_hours(hours)
            .with_seed(seed);
        let result = Runner::new(spec).expect("spec is valid").run();

        let wiki_cdf = result.cdf_seconds(Some(RequestClass::WikiPage));
        let static_cdf = result.cdf_seconds(Some(RequestClass::Static));
        println!(
            "\n== {} — {} requests ({} wiki pages), {} resets",
            result.label,
            result.collector.len(),
            wiki_cdf.count(),
            result.collector.reset_count()
        );
        println!(
            "   wiki pages:   median {:.3} s   Q3 {:.3} s   p95 {:.3} s",
            wiki_cdf.median().unwrap_or(0.0),
            wiki_cdf.third_quartile().unwrap_or(0.0),
            wiki_cdf.quantile(0.95).unwrap_or(0.0),
        );
        println!(
            "   static pages: median {:.4} s (served in about a millisecond, as in the paper)",
            static_cdf.median().unwrap_or(0.0),
        );

        println!("   per-bin wiki-page rate and median load time:");
        let bins = result
            .collector
            .binned(bin_seconds, Some(RequestClass::WikiPage));
        let rates = result
            .collector
            .arrival_rate_bins(bin_seconds, Some(RequestClass::WikiPage));
        for (stat, rate) in bins.stats().iter().zip(rates.stats()) {
            println!(
                "     t = {:>6.0} s   {:>6.1} pages/s   median {:>6.3} s",
                stat.start_seconds,
                rate.rate_per_second,
                stat.median.unwrap_or(0.0) / 1e3
            );
        }
    }

    println!();
    println!("Paper's Figures 6–8 shape: RR and SR4 are equivalent off-peak, and SR4's");
    println!("median and tail grow much less than RR's as the request rate rises.");
}
