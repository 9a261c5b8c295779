//! Integration tests: flow stickiness and cross-crate accounting
//! consistency — every connection is owned by exactly one server, the flow
//! table learns exactly one entry per connection, and the Service Hunting
//! accounting balances.

use srlb::core::spec::{ExperimentSpec, PolicyKind, WorkloadSpec};
use srlb::core::{DispatcherConfig, RunOutcome, Runner};
use srlb::server::PolicyConfig;

fn run(spec: ExperimentSpec) -> RunOutcome {
    Runner::new(spec).expect("spec is valid").run()
}

/// Sum of one per-server counter over the cluster.
fn total(outcome: &RunOutcome, field: impl Fn(&srlb::server::ServerStats) -> u64) -> u64 {
    outcome.server_stats.iter().map(field).sum()
}

/// The paper's testbed under `dispatcher` / `acceptance`, driven by 2 000
/// Poisson queries at `rate_qps` with the paper's exp(100 ms) service time.
fn paper_testbed_at_rate(
    dispatcher: DispatcherConfig,
    acceptance: PolicyConfig,
    rate_qps: f64,
    seed: u64,
) -> ExperimentSpec {
    let policy = PolicyKind::Explicit {
        dispatcher,
        acceptance,
    };
    let mut spec = ExperimentSpec::poisson_paper(1.0, policy).with_seed(seed);
    spec.workload = WorkloadSpec::PoissonRate {
        rate_qps,
        queries: 2_000,
        mean_service_ms: 100.0,
    };
    spec
}

#[test]
fn hunting_accounting_balances() {
    let result = run(
        ExperimentSpec::poisson_paper(0.9, PolicyKind::Static { threshold: 2 })
            .with_queries(3_000)
            .with_seed(5),
    );
    let sent = result.collector.len() as u64;
    let accepted = total(&result, |s| s.accepted_by_policy);
    let forced = total(&result, |s| s.forced_accepts);
    let passed = total(&result, |s| s.passed_on);

    // Every connection was accepted exactly once, either by the policy at a
    // non-final candidate or by force at the final one.
    assert_eq!(accepted + forced, sent);
    // With two candidates, every pass-on leads to exactly one forced accept.
    assert_eq!(passed, forced);
    // The load balancer learned one flow per connection and steered exactly
    // one request packet per completed or reset connection.
    assert_eq!(result.lb_stats.flows_learned, sent);
    assert_eq!(result.lb_stats.steered, sent);
    assert_eq!(result.lb_stats.missing_flow, 0);
}

#[test]
fn served_and_queued_requests_match_client_outcomes() {
    let result = run(
        ExperimentSpec::poisson_paper(0.95, PolicyKind::Static { threshold: 4 })
            .with_queries(3_000)
            .with_seed(9),
    );
    let served_immediately = total(&result, |s| s.served_immediately);
    let queued = total(&result, |s| s.queued);
    let resets = total(&result, |s| s.resets);
    let completed = total(&result, |s| s.completed);

    assert_eq!(
        served_immediately + queued + resets,
        result.collector.len() as u64
    );
    assert_eq!(completed as usize, result.collector.completed_count());
    assert_eq!(resets as usize, result.collector.reset_count());
}

#[test]
fn consistent_hash_dispatcher_keeps_connections_sticky() {
    // The flow table guarantees stickiness regardless of the dispatcher; a
    // consistent-hashing front end must behave identically in that respect.
    let result = run(paper_testbed_at_rate(
        DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 },
        PolicyConfig::Static { threshold: 4 },
        150.0,
        17,
    ));
    assert_eq!(result.lb_stats.missing_flow, 0);
    assert_eq!(result.lb_stats.flows_learned, 2_000);
    assert_eq!(
        result.collector.completed_count() + result.collector.reset_count(),
        2_000
    );
}

#[test]
fn maglev_dispatcher_also_works_end_to_end() {
    let result = run(paper_testbed_at_rate(
        DispatcherConfig::Maglev {
            table_size: 2039,
            k: 2,
        },
        PolicyConfig::paper_dynamic(),
        180.0,
        23,
    ));
    assert_eq!(result.lb_stats.missing_flow, 0);
    assert!(result.collector.completed_count() > 1_900);
}

#[test]
fn acceptance_ratio_of_srdyn_hovers_around_one_half() {
    // Section III-B: SRdyn aims to keep the first-candidate acceptance ratio
    // near 1/2 so that both choices stay useful.
    let result = run(ExperimentSpec::poisson_paper(0.85, PolicyKind::Dynamic)
        .with_queries(6_000)
        .with_seed(29));
    let ratios: Vec<f64> = result
        .acceptance_ratios
        .iter()
        .copied()
        .filter(|r| *r > 0.0)
        .collect();
    assert!(!ratios.is_empty());
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        (0.25..=0.75).contains(&mean_ratio),
        "mean acceptance ratio {mean_ratio:.2} should hover around 1/2"
    );
}
