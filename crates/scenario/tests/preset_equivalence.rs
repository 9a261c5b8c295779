//! Pins the `ExperimentSpec` preset constructors to the `Scenario` presets
//! they replace, field for field, before this crate is deleted.

use srlb_core::dispatch::DispatcherConfig;
use srlb_core::spec::ExperimentSpec;
use srlb_scenario::Scenario;

/// The three dispatchers of the `figures -- scenarios` sweep.
const DISPATCHERS: [DispatcherConfig; 3] = [
    DispatcherConfig::ConsistentHash { vnodes: 128, k: 2 },
    DispatcherConfig::Maglev {
        table_size: 2039,
        k: 2,
    },
    DispatcherConfig::Random { k: 2 },
];

#[test]
fn spec_presets_equal_the_scenario_presets() {
    type SpecPreset = fn(DispatcherConfig, usize) -> ExperimentSpec;
    type ScenarioPreset = fn(DispatcherConfig, usize) -> Scenario;
    let pairs: [(SpecPreset, ScenarioPreset); 7] = [
        (ExperimentSpec::lb_failover, Scenario::lb_failover),
        (ExperimentSpec::rolling_upgrade, Scenario::rolling_upgrade),
        (ExperimentSpec::scale_out_2x, Scenario::scale_out_2x),
        (
            ExperimentSpec::correlated_failures,
            Scenario::correlated_failures,
        ),
        (
            ExperimentSpec::lossy_lb_failover,
            Scenario::lossy_lb_failover,
        ),
        (ExperimentSpec::incast, Scenario::incast),
        (ExperimentSpec::saturated_uplink, Scenario::saturated_uplink),
    ];
    for d in DISPATCHERS {
        for queries in [300, 800, 1_500, 10_000] {
            for (spec, scenario) in pairs {
                assert_eq!(spec(d, queries), scenario(d, queries).to_spec());
            }
            for lb_count in [1, 2, 4] {
                assert_eq!(
                    ExperimentSpec::ecmp_reshuffle(d, lb_count, queries),
                    Scenario::ecmp_reshuffle(d, lb_count, queries).to_spec()
                );
            }
        }
    }
}
