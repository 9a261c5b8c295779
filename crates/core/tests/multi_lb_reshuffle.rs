//! End-to-end tests of the `ecmp_reshuffle` preset: an `lb_count`-instance
//! LB tier behind deterministic resilient ECMP steering, with one instance
//! withdrawn mid-run.  The SRLB resilience claim across LB instances:
//! application-level consistent hashing plus in-band flow-table
//! reconstruction keeps every established connection alive when its flows
//! are re-steered onto peers that have never seen them — while random
//! candidate selection orphans them.

use srlb_core::dispatch::DispatcherConfig;
use srlb_core::spec::ExperimentSpec;
use srlb_core::{RunOutcome, Runner};

const CH: DispatcherConfig = DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 };
const MAGLEV: DispatcherConfig = DispatcherConfig::Maglev {
    table_size: 251,
    k: 2,
};

fn run(spec: ExperimentSpec) -> RunOutcome {
    Runner::new(spec).expect("preset is valid").run()
}

#[test]
fn reshuffle_with_consistent_hash_loses_no_established_connection() {
    for lb_count in [2usize, 4] {
        let outcome = run(ExperimentSpec::ecmp_reshuffle(CH, lb_count, 400).with_seed(7));
        assert_eq!(outcome.per_lb_stats.len(), lb_count);
        assert!(
            outcome.lb_stats.rehunts > 0,
            "re-steered flows must be re-hunted (lb_count {lb_count})"
        );
        assert_eq!(
            outcome.broken_established(),
            0,
            "consistent hashing must survive an ECMP reshuffle (lb_count {lb_count})"
        );
        assert_eq!(outcome.lb_stats.missing_flow, 0);
        // The withdrawn instance (the last) carried flows before the
        // reshuffle; the survivors did the re-hunting.
        assert!(outcome.per_lb_stats[lb_count - 1].new_flows > 0);
        assert_eq!(outcome.per_lb_stats[lb_count - 1].rehunts, 0);
        let survivor_rehunts: u64 = outcome.per_lb_stats[..lb_count - 1]
            .iter()
            .map(|s| s.rehunts)
            .sum();
        assert_eq!(survivor_rehunts, outcome.lb_stats.rehunts);
    }
}

#[test]
fn reshuffle_with_maglev_loses_no_established_connection() {
    let outcome = run(ExperimentSpec::ecmp_reshuffle(MAGLEV, 2, 400).with_seed(7));
    assert!(outcome.lb_stats.rehunts > 0);
    assert_eq!(outcome.broken_established(), 0);
}

#[test]
fn reshuffle_with_random_candidates_orphans_flows() {
    let outcome =
        run(ExperimentSpec::ecmp_reshuffle(DispatcherConfig::Random { k: 2 }, 4, 400).with_seed(7));
    assert!(outcome.lb_stats.rehunts > 0);
    assert!(
        outcome.broken_established() > 0,
        "random candidates cannot reconstruct ownership across instances"
    );
}

#[test]
fn reshuffle_degenerates_to_a_static_run_for_one_lb() {
    let spec = ExperimentSpec::ecmp_reshuffle(CH, 1, 300).with_seed(7);
    assert!(spec.scenario.is_empty(), "no peer to withdraw to");
    let outcome = run(spec);
    assert_eq!(outcome.broken_established(), 0);
    assert_eq!(outcome.lb_stats.rehunts, 0);
    assert_eq!(outcome.per_lb_stats.len(), 1);
    assert_eq!(outcome.per_lb_stats[0], outcome.lb_stats);
}

#[test]
fn reshuffle_is_deterministic() {
    let a = run(ExperimentSpec::ecmp_reshuffle(MAGLEV, 4, 300).with_seed(9));
    let b = run(ExperimentSpec::ecmp_reshuffle(MAGLEV, 4, 300).with_seed(9));
    assert_eq!(a.collector.records(), b.collector.records());
    assert_eq!(a.per_lb_stats, b.per_lb_stats);
    assert_eq!(a.phases, b.phases);
}
