//! Oracles: the simulator against queueing theory, not against its own
//! last run.
//!
//! Each oracle states its tolerance up front and prints the error it passed
//! with (`cargo test --test oracles -- --nocapture`).  Specs are small and
//! seeds fixed, so every oracle is deterministic and finishes in seconds in
//! a debug build.

use srlb::core::spec::{ClusterSpec, ExperimentSpec, PolicyKind, WorkloadSpec};
use srlb::core::Runner;
use srlb::workload::wikipedia::DiurnalProfile;
use srlb::workload::WikipediaWorkload;

/// Requests per run.
const QUERIES: usize = 200_000;

/// The largest relative error of the mean response time any cell may show.
/// A run's mean is an estimate from `QUERIES` correlated samples: over six
/// seeds per cell its error had a standard deviation of about 1 % at ρ = 0.5
/// and 2.2 % at ρ = 0.8, so 6 % is near three deviations at the higher load.
/// The network's microsecond hops add well under 0.1 %.  FIFO in place of
/// processor sharing misses the wiki-mix cells by 50 % and 80 %.
const TOLERANCE: f64 = 0.06;

/// One server with one core and workers and backlog enough that no request
/// waits for a thread or is refused, fronted by `RR` (k = 1): an M/G/1 queue
/// whose discipline is whatever `cpu.rs` implements.
fn single_server(workload: WorkloadSpec, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin).with_seed(seed);
    spec.workload = workload;
    spec.cluster = ClusterSpec {
        initial_servers: 1,
        max_servers: 1,
        workers: 1_024,
        cores: 1,
        backlog: 1_024,
        ..ClusterSpec::paper()
    };
    spec
}

/// Runs `spec` and checks its mean response time against the M/G/1-PS
/// value `E[S] / (1 − ρ)`, which holds for any service distribution.
fn check_ps_mean(label: &str, spec: ExperimentSpec, mean_service_s: f64, rho: f64) {
    let outcome = Runner::new(spec).expect("valid spec").run();
    assert_eq!(
        outcome.reset_fraction(),
        0.0,
        "{label}: no request is refused"
    );
    let expected = mean_service_s / (1.0 - rho);
    let measured = outcome.mean_response_seconds();
    let error = (measured - expected) / expected;
    println!(
        "M/G/1-PS {label} rho={rho}: mean response {measured:.4} s, E[S]/(1-rho) = {expected:.4} s, \
         error {:+.2} % (tolerance {:.0} %)",
        error * 100.0,
        TOLERANCE * 100.0
    );
    assert!(
        error.abs() <= TOLERANCE,
        "{label} at rho={rho}: mean response {measured} s is {:+.2} % from E[S]/(1-rho) = {expected} s",
        error * 100.0
    );
}

/// M/G/1-PS insensitivity with exponential service: the paper's Poisson
/// workload (100 ms mean) on one core.
#[test]
fn processor_sharing_mean_response_matches_theory_for_exponential_service() {
    let mean_service_ms = 100.0;
    for (rho, seed) in [(0.5, 11), (0.8, 12)] {
        let workload = WorkloadSpec::PoissonRate {
            rate_qps: rho * 1e3 / mean_service_ms,
            queries: QUERIES,
            mean_service_ms,
        };
        check_ps_mean(
            "exponential",
            single_server(workload, seed),
            mean_service_ms / 1e3,
            rho,
        );
    }
}

/// M/G/1-PS insensitivity with the Wikipedia replay's service mix: 1.5
/// static pages (1 ms) per log-normal wiki page, whose squared coefficient
/// of variation is about 3.  A flat rate profile makes the arrivals a
/// homogeneous Poisson process.  FIFO would miss this mean by `ρ·(1 + SCV)
/// / 2` relative to PS (Pollaczek–Khinchine), so only processor sharing
/// passes.
#[test]
fn processor_sharing_mean_response_matches_theory_for_the_wiki_mix() {
    let paper = WikipediaWorkload::paper();
    let per_wiki_ms =
        paper.wiki_service.mean_ms() + paper.static_per_wiki * paper.static_service.mean_ms();
    let mean_service_ms = per_wiki_ms / (1.0 + paper.static_per_wiki);
    for (rho, seed) in [(0.5, 21), (0.8, 22)] {
        let wiki_rate = rho * 1e3 / per_wiki_ms;
        let total_rate = wiki_rate * (1.0 + paper.static_per_wiki);
        let workload = WikipediaWorkload {
            profile: DiurnalProfile {
                trough_rate: wiki_rate,
                peak_rate: wiki_rate,
                trough_hour: 0.0,
            },
            load_fraction: 1.0,
            duration_hours: QUERIES as f64 / total_rate / 3600.0,
            ..paper.clone()
        };
        let requests = workload.generate(seed);
        check_ps_mean(
            "wiki mix",
            single_server(WorkloadSpec::Trace { requests }, seed),
            mean_service_ms / 1e3,
            rho,
        );
    }
}
