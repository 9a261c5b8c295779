//! Quickstart: compare the paper's RR baseline against SRLB's SR4 policy on
//! a Poisson workload at high load (ρ = 0.88), as in Figure 2/3.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use srlb::core::spec::{ExperimentSpec, PolicyKind};
use srlb::core::Runner;

fn main() {
    let rho = 0.88;
    let queries = 20_000;
    let seed = 42;

    println!("SRLB quickstart — Poisson workload, 12 servers x 32 workers, rho = {rho}");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "policy", "mean (s)", "median(s)", "p90 (s)", "p99 (s)", "resets"
    );

    for policy in [
        PolicyKind::RoundRobin,
        PolicyKind::Static { threshold: 4 },
        PolicyKind::Dynamic,
    ] {
        let spec = ExperimentSpec::poisson_paper(rho, policy)
            .with_queries(queries)
            .with_seed(seed);
        let outcome = Runner::new(spec).expect("spec is valid").run();
        let summary = outcome.collector.summary(None);
        println!(
            "{:<8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8}",
            outcome.label,
            summary.mean() / 1e3,
            summary.median().unwrap_or(0.0) / 1e3,
            summary.percentile(90.0).unwrap_or(0.0) / 1e3,
            summary.percentile(99.0).unwrap_or(0.0) / 1e3,
            outcome.collector.reset_count(),
        );
    }

    println!();
    println!("Expected shape (paper, Figure 2): SR4 and SRdyn yield substantially lower");
    println!("and less dispersed response times than RR at this load.");
}
