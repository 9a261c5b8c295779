//! End-to-end tests of the dynamic-cluster presets: LB failover with
//! in-band flow-table reconstruction, server churn, scale-out,
//! heterogeneous capacities and multi-VIP clusters, fault injection, plus
//! determinism of the whole pipeline.

use srlb_core::dispatch::DispatcherConfig;
use srlb_core::spec::{CapacityOverride, ExperimentSpec, ScenarioEvent};
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
fn lb_failover_with_consistent_hash_loses_no_established_connection() {
    let outcome = run(ExperimentSpec::lb_failover(CH, 400).with_seed(7));
    assert_eq!(outcome.lb_stats.failovers, 1);
    assert!(outcome.lb_stats.rehunts > 0, "flows were re-hunted");
    assert!(outcome.ownership_adverts() > 0, "owners re-announced");
    assert_eq!(
        outcome.broken_established(),
        0,
        "in-band SYN-ACK reconstruction must lose zero established connections"
    );
    assert_eq!(outcome.unfinished(), 0);
    assert_eq!(
        outcome.collector.completed_count() + outcome.collector.reset_count(),
        400
    );
    let latency = outcome
        .reconstruction_latency_s
        .expect("reconstruction happened");
    assert!(latency >= 0.0 && latency < outcome.duration_seconds);
    // Re-hunts and adverts agree: every re-hunted flow found its owner.
    assert_eq!(outcome.lb_stats.rehunts, outcome.ownership_adverts());
}

#[test]
fn lb_failover_with_maglev_loses_no_established_connection() {
    let outcome = run(ExperimentSpec::lb_failover(MAGLEV, 400).with_seed(7));
    assert_eq!(outcome.broken_established(), 0);
    assert!(outcome.lb_stats.rehunts > 0);
}

#[test]
fn lb_failover_with_random_candidates_breaks_connections() {
    // The contrast case: random candidate lists are not reproducible, so
    // after the flow table is wiped the owner is usually *not* in the
    // re-hunt list and the connection must be reset.
    let outcome =
        run(ExperimentSpec::lb_failover(DispatcherConfig::Random { k: 2 }, 400).with_seed(7));
    assert!(outcome.lb_stats.rehunts > 0);
    assert!(
        outcome.orphaned() > 0,
        "random dispatch cannot reconstruct ownership deterministically"
    );
}

#[test]
fn single_candidate_rehunts_are_still_recognised() {
    // With k = 1 a re-hunt route would be shape-identical to steered
    // traffic were it not for the load-balancer marker segment; this pins
    // that the marker keeps ownership routing working at the degenerate
    // fan-out.
    let ch1 = DispatcherConfig::ConsistentHash { vnodes: 64, k: 1 };
    let outcome = run(ExperimentSpec::lb_failover(ch1, 400).with_seed(7));
    assert!(outcome.lb_stats.rehunts > 0);
    assert_eq!(
        outcome.broken_established(),
        0,
        "k = 1 consistent hashing still finds the owner deterministically"
    );
    assert_eq!(outcome.lb_stats.rehunts, outcome.ownership_adverts());

    // Random k = 1: the single re-hunt candidate is almost never the owner,
    // so those connections are reset rather than silently served elsewhere.
    let outcome =
        run(ExperimentSpec::lb_failover(DispatcherConfig::Random { k: 1 }, 400).with_seed(7));
    assert!(outcome.lb_stats.rehunts > 0);
    assert!(outcome.orphaned() > 0);
}

#[test]
fn recovery_rejects_oversized_fanout() {
    // The single-LB reshuffle is the event-free base cluster of every
    // preset: 8 servers with in-band flow recovery on.
    let wide = DispatcherConfig::ConsistentHash { vnodes: 16, k: 7 };
    let spec = ExperimentSpec::ecmp_reshuffle(wide, 1, 10);
    assert!(spec.cluster.recover_flows);
    let err = Runner::new(spec).unwrap_err();
    assert!(err.to_string().contains("at most"));
}

#[test]
fn rolling_upgrade_disrupts_only_the_removed_server() {
    let outcome = run(ExperimentSpec::rolling_upgrade(CH, 600).with_seed(3));
    assert_eq!(outcome.lb_stats.failovers, 0);
    // Connections established on server 0 when it was removed are broken.
    assert!(
        outcome.broken_established() > 0,
        "an abrupt removal must disrupt the connections it hosted"
    );
    // The cluster as a whole kept serving: the vast majority completed.
    let sent = outcome.collector.len() as u64;
    assert_eq!(sent, 600);
    assert!(outcome.collector.completed_count() as u64 >= sent * 9 / 10);
    // Server 0 served in both incarnations (before removal and after
    // re-add).
    assert!(outcome.server_stats[0].completed > 0);
    // Three phases: start, remove, re-add.
    assert_eq!(outcome.phases.len(), 3);
    assert_eq!(outcome.phases[1].label, "remove-server-0");
}

#[test]
fn scale_out_2x_shifts_load_onto_the_new_servers() {
    let outcome = run(ExperimentSpec::scale_out_2x(CH, 600).with_seed(5));
    // The four late-joining servers all end up serving traffic.
    for i in 4..8 {
        assert!(
            outcome.server_stats[i].completed > 0,
            "server {i} joined mid-run and must serve requests"
        );
    }
    // Scale-out itself breaks nothing: only remappings of *new* flows.
    assert_eq!(outcome.unfinished(), 0);
    assert_eq!(outcome.phases.len(), 5, "start + four add events");
}

#[test]
fn heterogeneous_capacity_and_multi_vip_cluster() {
    let mut spec = ExperimentSpec::ecmp_reshuffle(CH, 1, 400)
        .with_name("hetero_multi_vip")
        .with_seed(11);
    spec.cluster.vips = 2;
    // Server 1 starts tiny and is re-provisioned upwards mid-run.
    spec.cluster.capacity_overrides.push(CapacityOverride {
        server: 1,
        workers: 2,
        cores: 1,
    });
    // Halfway through the send window (400 queries at 96 queries/s).
    let mid = 400.0 / 96.0 * 0.5;
    let spec = spec.at(
        mid,
        ScenarioEvent::SetCapacity {
            server: 1,
            workers: 16,
            cores: 2,
        },
    );
    let outcome = run(spec);
    assert_eq!(outcome.collector.len(), 400);
    // Both VIPs are served through the same cluster and flow table.
    assert_eq!(outcome.lb_stats.new_flows, 400);
    assert!(outcome.collector.completed_count() > 350);
    assert_eq!(outcome.broken_established(), 0);
    assert_eq!(outcome.phases.len(), 2);
    assert!(outcome.phases[1].label.starts_with("set-capacity-1"));
}

#[test]
fn correlated_failures_disrupt_only_the_failed_pair() {
    let outcome = run(ExperimentSpec::correlated_failures(CH, 600).with_seed(3));
    // Both removals fire at the same instant: the two phases collapse onto
    // one boundary (start + two zero-width-separated phases).
    assert_eq!(outcome.phases.len(), 3);
    assert_eq!(outcome.phases[1].label, "remove-server-2");
    assert_eq!(outcome.phases[2].label, "remove-server-5");
    assert_eq!(
        outcome.phases[1].start_seconds,
        outcome.phases[2].start_seconds
    );
    // The failed pair hosted connections, which are broken…
    assert!(outcome.broken_established() > 0);
    // …but the cluster as a whole keeps serving.
    assert_eq!(outcome.collector.len(), 600);
    assert!(outcome.collector.completed_count() as u64 >= 600 * 85 / 100);
    // The dead servers serve nothing after the removal: every completion
    // they report happened in their single (pre-removal) incarnation.
    assert!(outcome.server_stats[2].completed > 0);
    assert!(outcome.server_stats[5].completed > 0);
    for i in [0, 1, 3, 4, 6, 7] {
        assert!(outcome.server_stats[i].completed > 0, "survivor {i} serves");
    }
}

#[test]
fn correlated_failures_with_maglev_complete_most_requests() {
    let outcome = run(ExperimentSpec::correlated_failures(MAGLEV, 600).with_seed(3));
    assert_eq!(outcome.collector.len(), 600);
    assert!(outcome.collector.completed_count() as u64 >= 600 * 85 / 100);
}

#[test]
fn scenario_runs_are_deterministic() {
    let spec = ExperimentSpec::rolling_upgrade(MAGLEV, 300).with_seed(13);
    let a = run(spec.clone());
    let b = run(spec);
    assert_eq!(a.name, "rolling_upgrade");
    assert_eq!(a.collector.records(), b.collector.records());
    assert_eq!(a.phases, b.phases);
    assert_eq!(a.lb_stats, b.lb_stats);
    assert_eq!(a.server_stats, b.server_stats);
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn lossy_lb_failover_completes_everything_through_retransmission() {
    let outcome = run(ExperimentSpec::lossy_lb_failover(CH, 400).with_seed(7));
    assert!(outcome.dropped_injected > 0, "1% loss must drop something");
    assert!(outcome.retransmits > 0, "drops must be retransmitted");
    assert_eq!(outcome.aborted, 0, "1% loss never exhausts the budget");
    assert_eq!(outcome.broken_established(), 0);
    assert_eq!(
        outcome.collector.completed_count() + outcome.collector.reset_count(),
        400,
        "every request resolves despite the lossy fabric"
    );
    assert_eq!(outcome.dropped_queue, 0);
    assert_eq!(outcome.dropped_link_down, 0);
}

#[test]
fn incast_tail_drops_at_the_hot_server_queue() {
    let outcome = run(ExperimentSpec::incast(CH, 400).with_seed(7));
    assert!(
        outcome.dropped_queue > 0,
        "the shallow queue must tail-drop"
    );
    assert_eq!(outcome.dropped_injected, 0);
    assert!(outcome.retransmits > 0);
    assert!(
        outcome.collector.completed_count() > 300,
        "most requests survive the incast, got {}",
        outcome.collector.completed_count()
    );
}

#[test]
fn saturated_uplink_drops_on_ingress_but_recovers() {
    let outcome = run(ExperimentSpec::saturated_uplink(CH, 400).with_seed(7));
    assert!(outcome.dropped_queue > 0, "uplink queue must overflow");
    assert!(outcome.retransmits > 0);
    assert!(outcome.collector.completed_count() > 300);
}

#[test]
fn fault_free_runs_count_no_fault_events() {
    let outcome = run(ExperimentSpec::lb_failover(CH, 200).with_seed(7));
    assert_eq!(outcome.dropped_injected, 0);
    assert_eq!(outcome.dropped_queue, 0);
    assert_eq!(outcome.dropped_link_down, 0);
    assert_eq!(outcome.retransmits, 0);
    assert_eq!(outcome.aborted, 0);
}
