//! Oracles: the simulator against queueing theory, not against its own
//! last run.
//!
//! Each oracle states its tolerance up front and prints the error it passed
//! with (`cargo test --test oracles -- --nocapture`).  Specs are small and
//! seeds fixed, so every oracle is deterministic and finishes in seconds in
//! a debug build.

use srlb::core::calibration::analytic_lambda0;
use srlb::core::spec::{ClusterSpec, ExperimentSpec, PolicyKind, WorkloadSpec};
use srlb::core::Runner;
use srlb::workload::wikipedia::DiurnalProfile;
use srlb::workload::WikipediaWorkload;

/// Requests per run.
const QUERIES: usize = 200_000;

/// The largest relative error of the mean response time any cell may show.
/// A run's mean is an estimate from `QUERIES` correlated samples: over six
/// seeds per cell its error had a standard deviation of about 1 % at ρ = 0.5
/// and 2.2 % at ρ = 0.8, so 6 % is near three deviations at the higher load;
/// the two-core cells deviated by 0.4 % and 1.3 % over ten seeds.  The
/// network's microsecond hops add well under 0.1 %.  FIFO in place of
/// processor sharing misses the wiki-mix cells by 50 % and 80 %; a CPU that
/// lets one job run on both cores misses the two-core cell at ρ = 0.5 by
/// 24 %.
const TOLERANCE: f64 = 0.06;

/// One server with `cores` cores and workers and backlog enough that no
/// request waits for a thread or is refused, fronted by `RR` (k = 1): an
/// M/G/c queue whose discipline is whatever `cpu.rs` implements.
fn single_server(workload: WorkloadSpec, cores: usize, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin).with_seed(seed);
    spec.workload = workload;
    spec.cluster = ClusterSpec {
        initial_servers: 1,
        max_servers: 1,
        workers: 1_024,
        cores,
        backlog: 1_024,
        ..ClusterSpec::paper()
    };
    spec
}

/// Runs `spec` and checks its mean response time against `expected`
/// seconds, the value of `formula` in queueing model `model`.
fn check_mean(
    model: &str,
    formula: &str,
    label: &str,
    spec: ExperimentSpec,
    expected: f64,
    rho: f64,
) {
    let outcome = Runner::new(spec).expect("valid spec").run();
    assert_eq!(
        outcome.reset_fraction(),
        0.0,
        "{label}: no request is refused"
    );
    let measured = outcome.mean_response_seconds();
    let error = (measured - expected) / expected;
    println!(
        "{model} {label} rho={rho}: mean response {measured:.4} s, {formula} = {expected:.4} s, \
         error {:+.2} % (tolerance {:.0} %)",
        error * 100.0,
        TOLERANCE * 100.0
    );
    assert!(
        error.abs() <= TOLERANCE,
        "{model} {label} at rho={rho}: mean response {measured} s is {:+.2} % from {formula} = {expected} s",
        error * 100.0
    );
}

/// Checks `spec`'s mean response time against the M/G/1-PS value
/// `E[S] / (1 − ρ)`, which holds for any service distribution.
fn check_ps_mean(label: &str, spec: ExperimentSpec, mean_service_s: f64, rho: f64) {
    let expected = mean_service_s / (1.0 - rho);
    check_mean("M/G/1-PS", "E[S]/(1-rho)", label, spec, expected, rho);
}

/// Erlang's C formula: the probability that an arrival to an M/M/c queue
/// with offered load `a = λ/μ` (below `c`) finds every server busy.
fn erlang_c(c: usize, a: f64) -> f64 {
    let mut term = 1.0; // a^k / k!
    let mut below_c = 0.0;
    for k in 0..c {
        below_c += term;
        term *= a / (k + 1) as f64;
    }
    let all_busy = term * c as f64 / (c as f64 - a);
    all_busy / (below_c + all_busy)
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
            single_server(workload, 1, seed),
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
            single_server(WorkloadSpec::Trace { requests }, 1, seed),
            mean_service_ms / 1e3,
            rho,
        );
    }
}

/// M/M/c: two cores with exponential service.  Processor sharing over `c`
/// cores gives each of `n` jobs `min(1, c/n)` of a core, so the number in
/// system is the same birth–death chain as M/M/c (death rate `min(n, c)·μ`)
/// and, by Little's law, so is the mean response time: `E[T] = 1/μ +
/// C(c, a)/(cμ − λ)` with Erlang's C.  A CPU that used only one of its
/// cores would sit at ρ = 1.0 and 1.6, which no tolerance admits.
#[test]
fn two_core_mean_response_matches_erlang_c_for_exponential_service() {
    let cores = 2;
    let mean_service_ms = 100.0;
    let mu = 1e3 / mean_service_ms;
    for (rho, seed) in [(0.5, 31), (0.8, 32)] {
        let lambda = rho * analytic_lambda0(1, cores, mean_service_ms);
        let workload = WorkloadSpec::PoissonRate {
            rate_qps: lambda,
            queries: QUERIES,
            mean_service_ms,
        };
        let expected = 1.0 / mu + erlang_c(cores, lambda / mu) / (cores as f64 * mu - lambda);
        check_mean(
            "M/M/2",
            "1/mu + C(c,a)/(c*mu - lambda)",
            "exponential",
            single_server(workload, cores, seed),
            expected,
            rho,
        );
    }
}
