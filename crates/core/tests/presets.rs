//! The schedule presets as data: validity, where their control events
//! land, and serde round trips.

use srlb_core::dispatch::DispatcherConfig;
use srlb_core::spec::{ExperimentSpec, ScenarioEvent};

const CH: DispatcherConfig = DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 };

#[test]
fn presets_validate() {
    for spec in [
        ExperimentSpec::lb_failover(CH, 500),
        ExperimentSpec::rolling_upgrade(CH, 500),
        ExperimentSpec::scale_out_2x(CH, 500),
        ExperimentSpec::correlated_failures(CH, 500),
        ExperimentSpec::ecmp_reshuffle(CH, 2, 500),
        ExperimentSpec::ecmp_reshuffle(CH, 4, 500),
        ExperimentSpec::lossy_lb_failover(CH, 500),
    ] {
        spec.validate().expect("preset is valid");
        assert!(!spec.scenario.is_empty(), "{} has no schedule", spec.name);
    }
    // The fault presets keep the cluster static and disturb the fabric.
    for spec in [
        ExperimentSpec::incast(CH, 500),
        ExperimentSpec::saturated_uplink(CH, 500),
    ] {
        spec.validate().expect("preset is valid");
        assert!(spec.scenario.is_empty());
        assert!(spec.faults.injects_faults());
    }
    // The degenerate single-LB reshuffle is a valid, event-free control.
    let control = ExperimentSpec::ecmp_reshuffle(CH, 1, 500);
    control.validate().expect("control preset is valid");
    assert!(control.scenario.is_empty());
}

#[test]
fn ecmp_reshuffle_withdraws_the_last_instance_at_midpoint() {
    let spec = ExperimentSpec::ecmp_reshuffle(DispatcherConfig::paper_default(), 4, 800);
    assert_eq!(spec.cluster.lb_count, 4);
    assert_eq!(spec.scenario.len(), 1);
    assert_eq!(spec.scenario[0].event, ScenarioEvent::RemoveLb { lb: 3 });
    // Halfway through 800 queries at 96 queries/s.
    assert_eq!(spec.scenario[0].at_seconds, 800.0 / 96.0 * 0.5);
    let json = serde_json::to_string(&spec).unwrap();
    assert!(json.contains("\"lb_count\":4"));
    let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back, spec);
}

#[test]
fn serde_roundtrip_preserves_the_schedule() {
    let maglev = DispatcherConfig::Maglev {
        table_size: 251,
        k: 2,
    };
    let spec = ExperimentSpec::rolling_upgrade(maglev, 300).with_seed(9);
    let json = serde_json::to_string(&spec).unwrap();
    let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back, spec);
    assert_eq!(back.scenario.len(), 2);
}

#[test]
fn correlated_failures_events_are_simultaneous() {
    let spec = ExperimentSpec::correlated_failures(CH, 600);
    assert_eq!(spec.scenario.len(), 2);
    assert_eq!(spec.scenario[0].at_seconds, spec.scenario[1].at_seconds);
}
