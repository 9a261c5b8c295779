//! Integration tests: end-to-end Poisson experiments across all crates,
//! checking the qualitative results the paper reports (Section V).

use srlb::core::dispatch::DispatcherConfig;
use srlb::core::spec::{ExperimentSpec, PolicyKind, WorkloadSpec};
use srlb::core::{RunOutcome, Runner};

fn run(rho: f64, policy: PolicyKind, queries: usize, seed: u64) -> RunOutcome {
    let spec = ExperimentSpec::poisson_paper(rho, policy)
        .with_queries(queries)
        .with_seed(seed);
    Runner::new(spec).expect("spec is valid").run()
}

/// Mean completed response time in milliseconds.
fn mean_ms(outcome: &RunOutcome) -> f64 {
    outcome.collector.summary(None).mean()
}

#[test]
fn every_request_is_accounted_for() {
    let result = run(0.7, PolicyKind::Static { threshold: 4 }, 2_000, 3);
    assert_eq!(result.collector.len(), 2_000);
    // Under rho = 0.7 with the paper's backlog nothing should be reset.
    assert_eq!(result.collector.reset_count(), 0);
    assert_eq!(result.collector.completed_count(), 2_000);
    assert_eq!(result.unfinished(), 0);
    // The load balancer learned exactly one flow per connection.
    assert_eq!(result.lb_stats.new_flows, 2_000);
    assert_eq!(result.lb_stats.flows_learned, 2_000);
    // Each completed request was served by exactly one server.
    assert_eq!(result.per_server_completed().iter().sum::<u64>(), 2_000);
}

#[test]
fn sr4_beats_rr_at_high_load() {
    // The paper's headline result (Figure 2): at high load the SR4 policy
    // yields substantially lower mean response times than random assignment.
    let queries = 4_000;
    let rr = run(0.88, PolicyKind::RoundRobin, queries, 11);
    let sr4 = run(0.88, PolicyKind::Static { threshold: 4 }, queries, 11);
    assert!(
        mean_ms(&sr4) < 0.75 * mean_ms(&rr),
        "SR4 mean {:.1} ms should be well below RR mean {:.1} ms",
        mean_ms(&sr4),
        mean_ms(&rr)
    );
    // The tail also shrinks (Figure 3).
    let rr_p90 = rr.collector.summary(None).percentile(90.0).unwrap();
    let sr4_p90 = sr4.collector.summary(None).percentile(90.0).unwrap();
    assert!(sr4_p90 < rr_p90);
}

#[test]
fn srdyn_tracks_the_best_static_policy() {
    // Figure 2: SRdyn offers results close to the best static policy, so
    // manual tuning is not needed.
    let queries = 4_000;
    let rr = run(0.88, PolicyKind::RoundRobin, queries, 13);
    let sr4 = run(0.88, PolicyKind::Static { threshold: 4 }, queries, 13);
    let dynamic = run(0.88, PolicyKind::Dynamic, queries, 13);
    assert!(mean_ms(&dynamic) < mean_ms(&rr));
    assert!(
        mean_ms(&dynamic) < 1.5 * mean_ms(&sr4),
        "SRdyn ({:.1} ms) should be in the neighbourhood of SR4 ({:.1} ms)",
        mean_ms(&dynamic),
        mean_ms(&sr4)
    );
}

#[test]
fn high_thresholds_give_no_benefit_at_light_load() {
    // Figure 5: at rho = 0.61, SR16 yields no improvement over RR while SR4
    // still provides one.
    let queries = 4_000;
    let rr = run(0.61, PolicyKind::RoundRobin, queries, 17);
    let sr16 = run(0.61, PolicyKind::Static { threshold: 16 }, queries, 17);
    let sr4 = run(0.61, PolicyKind::Static { threshold: 4 }, queries, 17);
    let rr_mean = mean_ms(&rr);
    let sr16_mean = mean_ms(&sr16);
    let sr4_mean = mean_ms(&sr4);
    assert!(
        (sr16_mean - rr_mean).abs() / rr_mean < 0.15,
        "SR16 ({sr16_mean:.1} ms) should be close to RR ({rr_mean:.1} ms) at light load"
    );
    assert!(
        sr4_mean < rr_mean,
        "SR4 ({sr4_mean:.1} ms) should still improve on RR ({rr_mean:.1} ms)"
    );
}

#[test]
fn sr4_spreads_load_more_fairly_than_rr() {
    // Figure 4: the Jain fairness index of per-server loads is closer to 1
    // with SR4 than with RR.  We compare the fairness of per-server completed
    // request counts (a time-aggregate proxy for the instantaneous index).
    use srlb::metrics::jain_fairness;
    let queries = 4_000;
    let rr = run(0.88, PolicyKind::RoundRobin, queries, 19);
    let sr4 = run(0.88, PolicyKind::Static { threshold: 4 }, queries, 19);
    let to_f64 = |v: Vec<u64>| v.into_iter().map(|x| x as f64).collect::<Vec<_>>();
    let rr_fair = jain_fairness(&to_f64(rr.per_server_completed()));
    let sr4_fair = jain_fairness(&to_f64(sr4.per_server_completed()));
    assert!(
        sr4_fair >= rr_fair - 1e-6,
        "SR4 fairness {sr4_fair:.4} should not be below RR fairness {rr_fair:.4}"
    );
    assert!(sr4_fair > 0.95);
}

#[test]
fn degenerate_thresholds_reduce_to_random_balancing() {
    // Section III-A: c = 0 and c = n + 1 both reduce to random load
    // balancing, so their response times should be similar to RR's.
    let queries = 2_500;
    let rr = run(0.8, PolicyKind::RoundRobin, queries, 23);
    let never = run(
        0.8,
        PolicyKind::Explicit {
            dispatcher: DispatcherConfig::Random { k: 2 },
            acceptance: srlb::server::PolicyConfig::NeverAccept,
        },
        queries,
        23,
    );
    let always = run(
        0.8,
        PolicyKind::Explicit {
            dispatcher: DispatcherConfig::Random { k: 2 },
            acceptance: srlb::server::PolicyConfig::AlwaysAccept,
        },
        queries,
        23,
    );
    let rr_mean = mean_ms(&rr);
    for (label, result) in [("c=0", &never), ("c=n+1", &always)] {
        let mean = mean_ms(result);
        assert!(
            (mean - rr_mean).abs() / rr_mean < 0.25,
            "{label} mean {mean:.1} ms should be close to RR {rr_mean:.1} ms"
        );
    }
}

#[test]
fn overload_produces_resets_and_bounded_queues() {
    // Push the cluster past saturation: connections must start being reset
    // (tcp_abort_on_overflow) rather than queueing without bound.
    let mut spec = ExperimentSpec::poisson_paper(1.0, PolicyKind::RoundRobin);
    // Two and a half times the 240/s capacity: the aggregate backlog
    // (12 x (32 workers + 128 backlog slots)) fills within a few seconds.
    spec.workload = WorkloadSpec::Poisson {
        rho: 1.0,
        lambda0: Some(600.0),
        queries: 8_000,
        mean_service_ms: 100.0,
    };
    let result = Runner::new(spec).expect("spec is valid").run();
    let (completed, resets) = (
        result.collector.completed_count(),
        result.collector.reset_count(),
    );
    assert!(resets > 0, "overload must trigger resets");
    assert!(completed > 0, "some requests still complete");
    assert_eq!(completed + resets, result.collector.len());
}

#[test]
fn results_are_deterministic_for_a_given_seed() {
    let a = run(0.85, PolicyKind::Static { threshold: 4 }, 1_500, 99);
    let b = run(0.85, PolicyKind::Static { threshold: 4 }, 1_500, 99);
    assert_eq!(mean_ms(&a), mean_ms(&b));
    assert_eq!(a.per_server_completed(), b.per_server_completed());
    let c = run(0.85, PolicyKind::Static { threshold: 4 }, 1_500, 100);
    assert_ne!(mean_ms(&a), mean_ms(&c));
}
