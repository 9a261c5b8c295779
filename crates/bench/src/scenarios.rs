//! The dynamic-cluster scenario sweep (`figures -- scenarios`).
//!
//! Runs the canned scenario presets (load-balancer failover, rolling
//! upgrade, 2× scale-out) under each candidate-selection policy and writes
//! a machine-readable comparison to `BENCH_scenarios.json` at the workspace
//! root: broken/re-routed connection counts, flow-table reconstruction
//! latency and per-phase disruption statistics, plus standalone dispatcher
//! remapping probes for single-server churn (the quantities the property
//! tests in `crates/core/tests/proptest_churn.rs` bound).
//!
//! The **ECMP-reshuffle sweep** is appended to the same report: every
//! dispatcher crossed with LB tier sizes {1, 2, 4}, withdrawing one tier
//! instance mid-run ([`ExperimentSpec::ecmp_reshuffle`]).  It
//! demonstrates end-to-end that consistent-hash and Maglev candidates keep
//! every established connection alive when flows are re-steered onto LB
//! instances that have never seen them, while random candidates orphan
//! them.
//!
//! Every `(preset, dispatcher)` cell is an independent seeded simulation
//! run through [`parallel_map`], so the output is byte-identical whatever
//! the `--jobs` worker count.

use std::io::Write;
use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use srlb_core::dispatch::DispatcherConfig;
use srlb_core::lb_node::LbStats;
use srlb_core::runner::RunOutcome;
use srlb_core::spec::ExperimentSpec;
use srlb_metrics::PhaseStats;
use srlb_net::{AddressPlan, FlowKey, Protocol, ServerId};

use crate::figures::{Scale, Sweep};
use crate::parallel::parallel_map;
use crate::spec_run::is_zero_u64;

/// Default output file name, written to the workspace root (see
/// [`crate::micro::workspace_root`]).
pub const BENCH_SCENARIOS_FILE: &str = "BENCH_scenarios.json";

/// Queries per scenario run at each scale.
fn scenario_queries(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 10_000,
        Scale::Quick => 1_500,
        Scale::Tiny => 300,
    }
}

/// The candidate-selection policies compared by the sweep.
fn dispatchers() -> Vec<(&'static str, DispatcherConfig)> {
    vec![
        (
            "consistent-hash",
            DispatcherConfig::ConsistentHash { vnodes: 128, k: 2 },
        ),
        (
            "maglev",
            DispatcherConfig::Maglev {
                table_size: 2039,
                k: 2,
            },
        ),
        ("random", DispatcherConfig::Random { k: 2 }),
    ]
}

/// One dispatcher's owner-remapping behaviour under single-server churn,
/// measured over a deterministic probe-flow population (no simulation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemapReport {
    /// Dispatcher label.
    pub dispatcher: String,
    /// `"remove-one"` or `"add-one"`.
    pub op: String,
    /// Probe flows measured.
    pub probes: u64,
    /// Probes whose owner (first candidate) changed.
    pub moved: u64,
    /// `moved / probes`.
    pub moved_fraction: f64,
    /// Moves that were *not required* by the membership change: on removal,
    /// flows whose old owner still exists; on addition, flows that moved to
    /// a server other than the new one.  Zero for ideal consistent hashing.
    pub collateral: u64,
    /// `collateral / probes`.
    pub collateral_fraction: f64,
}

/// Deterministic probe-flow population.
fn probe_flows(n: u32) -> Vec<FlowKey> {
    let plan = AddressPlan::default();
    (0..n)
        .map(|i| {
            FlowKey::new(
                plan.client_addr(i / 50_000),
                plan.vip(0),
                (1024 + (i % 50_000)) as u16,
                80,
                Protocol::Tcp,
            )
        })
        .collect()
}

/// First-candidate owners of every probe flow under `config` over
/// `servers`.
fn owners(config: DispatcherConfig, servers: Vec<Ipv6Addr>, flows: &[FlowKey]) -> Vec<Ipv6Addr> {
    let mut dispatcher = config.build(servers);
    let mut rng = srlb_sim::SimRng::new(1);
    let mut out = srlb_core::dispatch::CandidateList::new();
    flows
        .iter()
        .map(|flow| {
            dispatcher.candidates_into(flow, &mut rng, &mut out);
            out.as_slice()[0]
        })
        .collect()
}

/// Measures owner remapping for one dispatcher config when one server is
/// removed from / added to a 12-server cluster.
fn remap_probe(label: &str, config: DispatcherConfig) -> Vec<RemapReport> {
    let plan = AddressPlan::default();
    let flows = probe_flows(8_192);
    let base: Vec<Ipv6Addr> = plan.server_addrs(12).collect();
    let before = owners(config, base.clone(), &flows);

    let mut reports = Vec::with_capacity(2);

    // Remove a mid-cluster server.
    let removed = plan.server_addr(ServerId(5));
    let shrunk: Vec<Ipv6Addr> = base.iter().copied().filter(|a| *a != removed).collect();
    let after = owners(config, shrunk, &flows);
    let moved = before
        .iter()
        .zip(&after)
        .filter(|(old, new)| old != new)
        .count() as u64;
    let collateral = before
        .iter()
        .zip(&after)
        .filter(|(old, new)| old != new && **old != removed)
        .count() as u64;
    reports.push(RemapReport {
        dispatcher: label.to_string(),
        op: "remove-one".to_string(),
        probes: flows.len() as u64,
        moved,
        moved_fraction: moved as f64 / flows.len() as f64,
        collateral,
        collateral_fraction: collateral as f64 / flows.len() as f64,
    });

    // Add a thirteenth server.
    let added = plan.server_addr(ServerId(12));
    let mut grown = base.clone();
    grown.push(added);
    let after = owners(config, grown, &flows);
    let moved = before
        .iter()
        .zip(&after)
        .filter(|(old, new)| old != new)
        .count() as u64;
    let collateral = before
        .iter()
        .zip(&after)
        .filter(|(old, new)| old != new && **new != added)
        .count() as u64;
    reports.push(RemapReport {
        dispatcher: label.to_string(),
        op: "add-one".to_string(),
        probes: flows.len() as u64,
        moved,
        moved_fraction: moved as f64 / flows.len() as f64,
        collateral,
        collateral_fraction: collateral as f64 / flows.len() as f64,
    });
    reports
}

/// Machine-readable summary of a scenario run (one entry of
/// `BENCH_scenarios.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Dispatcher report name.
    pub dispatcher: String,
    /// Requests sent.
    pub sent: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests whose connection was reset.
    pub resets: u64,
    /// Requests that never finished.
    pub unfinished: u64,
    /// Connections reset because no candidate owned the flow after a
    /// fail-over.
    pub orphaned: u64,
    /// Established connections broken by control events
    /// (`orphaned + unfinished`).
    pub broken_established: u64,
    /// Flow-table misses recovered by re-hunting.
    pub rehunts: u64,
    /// Ownership adverts sent by servers.
    pub ownership_adverts: u64,
    /// Load-balancer fail-overs applied.
    pub failovers: u64,
    /// Flow-table entries learned in-band (SYN-ACKs + adverts).
    pub flows_learned: u64,
    /// Milliseconds from fail-over to the last re-hunt, if any.
    pub reconstruction_ms: Option<f64>,
    /// Simulated duration in seconds.
    pub duration_seconds: f64,
    /// Requests aborted after exhausting the retransmission budget
    /// (fault-injection runs only; omitted when zero).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub aborted: u64,
    /// Total client retransmissions (omitted when zero).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub retransmits: u64,
    /// Messages dropped by injected faults (omitted when zero).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub dropped_injected: u64,
    /// Messages tail-dropped by bounded queues (omitted when zero).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub dropped_queue: u64,
    /// Messages dropped inside link down windows (omitted when zero).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub dropped_link_down: u64,
    /// Per-phase disruption statistics.
    pub phases: Vec<PhaseStats>,
    /// Per-instance load-balancer counters (omitted for single-LB tiers).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub per_lb: Vec<LbStats>,
}

impl ScenarioReport {
    /// Condenses a [`RunOutcome`] into the report.
    pub fn from_outcome(outcome: &RunOutcome) -> Self {
        ScenarioReport {
            name: outcome.name.clone(),
            dispatcher: outcome.dispatcher_name.clone(),
            sent: outcome.collector.len() as u64,
            completed: outcome.collector.completed_count() as u64,
            resets: outcome.collector.reset_count() as u64,
            unfinished: outcome.unfinished(),
            orphaned: outcome.orphaned(),
            broken_established: outcome.broken_established(),
            rehunts: outcome.lb_stats.rehunts,
            ownership_adverts: outcome.ownership_adverts(),
            failovers: outcome.lb_stats.failovers,
            flows_learned: outcome.lb_stats.flows_learned,
            reconstruction_ms: outcome.reconstruction_latency_s.map(|s| s * 1e3),
            duration_seconds: outcome.duration_seconds,
            aborted: outcome.aborted,
            retransmits: outcome.retransmits,
            dropped_injected: outcome.dropped_injected,
            dropped_queue: outcome.dropped_queue,
            dropped_link_down: outcome.dropped_link_down,
            phases: outcome.phases.clone(),
            // Populated only for multi-instance tiers (a single instance
            // adds nothing over the aggregate counters), so the report's
            // "empty" and the JSON's "omitted" coincide and value -> JSON
            // -> value round trips are exact -- and pre-tier report bytes
            // stay stable.
            per_lb: if outcome.per_lb_stats.len() > 1 {
                outcome.per_lb_stats.clone()
            } else {
                Vec::new()
            },
        }
    }
}

/// One cell of the ECMP-reshuffle sweep: an `lb_count`-instance LB tier
/// with the last instance withdrawn mid-run (`lb_count = 1` is the
/// event-free degenerate control).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EcmpReshuffleReport {
    /// Dispatcher label.
    pub dispatcher: String,
    /// Tier size at the start of the run.
    pub lb_count: usize,
    /// The scenario report (per-instance LB counters included for
    /// multi-instance tiers).
    pub report: ScenarioReport,
}

/// The JSON document written to [`BENCH_SCENARIOS_FILE`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenariosDoc {
    /// Schema version of this report.
    pub schema: u32,
    /// Scale label the sweep ran at.
    pub scale: String,
    /// Seed used for every run.
    pub seed: u64,
    /// One report per `(preset, dispatcher)` cell, in grid order.
    pub scenarios: Vec<ScenarioReport>,
    /// Dispatcher remapping probes under single-server churn.
    pub remap: Vec<RemapReport>,
    /// The ECMP-reshuffle sweep: dispatcher × lb_count ∈ {1, 2, 4}
    /// (absent from reports written before the multi-LB refactor).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub ecmp_reshuffle: Vec<EcmpReshuffleReport>,
    /// The fault-injection sweep: the lossy-failover, incast and
    /// saturated-uplink presets crossed with every dispatcher (absent from
    /// reports written before the fault layer existed).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub faults: Vec<ScenarioReport>,
}

/// The LB tier sizes the ECMP-reshuffle sweep crosses each dispatcher
/// with.
pub const ECMP_RESHUFFLE_LB_COUNTS: [usize; 3] = [1, 2, 4];

/// Runs the scenario sweep across `sweep.jobs` workers.
pub fn run_scenarios(sweep: Sweep) -> ScenariosDoc {
    let queries = scenario_queries(sweep.scale);
    let report = |spec: &ExperimentSpec| {
        ScenarioReport::from_outcome(&sweep.run(spec.clone().with_seed(sweep.seed)))
    };

    let mut grid: Vec<ExperimentSpec> = Vec::new();
    for (_, dispatcher) in dispatchers() {
        grid.push(ExperimentSpec::lb_failover(dispatcher, queries));
        grid.push(ExperimentSpec::rolling_upgrade(dispatcher, queries));
        grid.push(ExperimentSpec::scale_out_2x(dispatcher, queries));
    }
    let scenarios = parallel_map(&grid, sweep.jobs, report);
    let remap = dispatchers()
        .into_iter()
        .filter(|(label, _)| *label != "random")
        .flat_map(|(label, config)| remap_probe(label, config))
        .collect();

    // The ECMP-reshuffle sweep: dispatcher × tier size.
    let mut reshuffle_grid: Vec<(&str, usize, ExperimentSpec)> = Vec::new();
    for (label, dispatcher) in dispatchers() {
        for lb_count in ECMP_RESHUFFLE_LB_COUNTS {
            reshuffle_grid.push((
                label,
                lb_count,
                ExperimentSpec::ecmp_reshuffle(dispatcher, lb_count, queries),
            ));
        }
    }
    let ecmp_reshuffle = parallel_map(&reshuffle_grid, sweep.jobs, |(label, lb_count, spec)| {
        EcmpReshuffleReport {
            dispatcher: label.to_string(),
            lb_count: *lb_count,
            report: report(spec),
        }
    });

    // The fault-injection sweep: lossy failover, incast into a hot server,
    // and a saturated client uplink, per dispatcher.
    let mut fault_grid: Vec<ExperimentSpec> = Vec::new();
    for (_, dispatcher) in dispatchers() {
        fault_grid.push(ExperimentSpec::lossy_lb_failover(dispatcher, queries));
        fault_grid.push(ExperimentSpec::incast(dispatcher, queries));
        fault_grid.push(ExperimentSpec::saturated_uplink(dispatcher, queries));
    }
    let faults = parallel_map(&fault_grid, sweep.jobs, report);

    ScenariosDoc {
        schema: 1,
        scale: format!("{:?}", sweep.scale),
        seed: sweep.seed,
        scenarios,
        remap,
        ecmp_reshuffle,
        faults,
    }
}

/// Writes an already-computed sweep report as JSON to `dir`, returning the
/// path written.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_bench_scenarios(dir: &Path, doc: &ScenariosDoc) -> std::io::Result<PathBuf> {
    let json = serde_json::to_string(doc)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let path = dir.join(BENCH_SCENARIOS_FILE);
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{json}")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_hash_remap_probe_has_no_collateral_damage() {
        let reports = remap_probe(
            "consistent-hash",
            DispatcherConfig::ConsistentHash { vnodes: 128, k: 1 },
        );
        for report in &reports {
            assert_eq!(
                report.collateral, 0,
                "consistent hashing moves only the flows it must ({})",
                report.op
            );
            assert!(report.moved > 0, "some flows must remap ({})", report.op);
            // Removing / adding 1 of 12-13 servers should move roughly
            // 1/12th of the flows.
            assert!(report.moved_fraction < 0.25, "{}", report.moved_fraction);
        }
    }

    #[test]
    fn maglev_remap_probe_is_bounded() {
        let reports = remap_probe(
            "maglev",
            DispatcherConfig::Maglev {
                table_size: 2039,
                k: 1,
            },
        );
        for report in &reports {
            assert!(report.moved > 0);
            assert!(
                report.moved_fraction < 0.30,
                "maglev disruption should stay near-minimal, got {}",
                report.moved_fraction
            );
        }
    }

    /// Correlated failures: removing *two* servers at once must keep the
    /// dispatchers' remapping bounds — consistent hashing moves exactly the
    /// flows the dead pair owned (zero collateral), Maglev stays near
    /// minimal (moved ≈ 2/12 plus a small table-reshuffle term).
    #[test]
    fn correlated_two_server_removal_keeps_remap_bounds() {
        let plan = AddressPlan::default();
        let flows = probe_flows(8_192);
        let base: Vec<Ipv6Addr> = plan.server_addrs(12).collect();
        let dead = [plan.server_addr(ServerId(2)), plan.server_addr(ServerId(5))];
        let shrunk: Vec<Ipv6Addr> = base.iter().copied().filter(|a| !dead.contains(a)).collect();

        for (label, config, max_moved, max_collateral) in [
            (
                "consistent-hash",
                DispatcherConfig::ConsistentHash { vnodes: 128, k: 1 },
                0.40,
                0.0,
            ),
            (
                "maglev",
                DispatcherConfig::Maglev {
                    table_size: 2039,
                    k: 1,
                },
                0.40,
                0.05,
            ),
        ] {
            let before = owners(config, base.clone(), &flows);
            let after = owners(config, shrunk.clone(), &flows);
            let moved = before
                .iter()
                .zip(&after)
                .filter(|(old, new)| old != new)
                .count() as f64
                / flows.len() as f64;
            let collateral = before
                .iter()
                .zip(&after)
                .filter(|(old, new)| old != new && !dead.contains(old))
                .count() as f64
                / flows.len() as f64;
            assert!(moved > 0.0, "{label}: some flows must remap");
            assert!(
                moved <= max_moved,
                "{label}: moved fraction {moved} above bound {max_moved}"
            );
            assert!(
                collateral <= max_collateral,
                "{label}: collateral fraction {collateral} above bound {max_collateral}"
            );
        }
    }

    #[test]
    fn tiny_sweep_is_deterministic_across_jobs() {
        let serial = run_scenarios(Sweep::serial(Scale::Tiny, 42));
        let parallel = run_scenarios(Sweep {
            jobs: 4,
            ..Sweep::serial(Scale::Tiny, 42)
        });
        assert_eq!(serial, parallel);
        assert_eq!(serial.scenarios.len(), 9);
        // The acceptance property: deterministic dispatchers lose zero
        // established connections on LB failover.
        for report in &serial.scenarios {
            if report.name == "lb_failover" && !report.dispatcher.starts_with("random") {
                assert_eq!(
                    report.broken_established, 0,
                    "{} must not lose established connections",
                    report.dispatcher
                );
            }
        }
        // The ECMP-reshuffle acceptance property: consistent-hash and
        // Maglev candidates survive re-steering onto LB instances that
        // never saw the flows; random candidates orphan them.
        assert_eq!(serial.ecmp_reshuffle.len(), 9);
        for cell in &serial.ecmp_reshuffle {
            assert_eq!(cell.report.name, "ecmp_reshuffle");
            if cell.lb_count > 1 {
                assert!(
                    cell.report.rehunts > 0,
                    "{} x{} must re-hunt re-steered flows",
                    cell.dispatcher,
                    cell.lb_count
                );
                assert_eq!(cell.report.per_lb.len(), cell.lb_count);
            }
            if cell.dispatcher == "random" {
                if cell.lb_count > 1 {
                    assert!(
                        cell.report.broken_established > 0,
                        "random x{} should orphan re-steered flows",
                        cell.lb_count
                    );
                }
            } else {
                assert_eq!(
                    cell.report.broken_established, 0,
                    "{} x{} must not lose established connections",
                    cell.dispatcher, cell.lb_count
                );
            }
        }
        // The fault-injection acceptance property: under ≥1% injected loss
        // the deterministic dispatchers complete every request through
        // retransmission with zero established-connection remaps, and the
        // per-cause counters actually fire.
        assert_eq!(serial.faults.len(), 9);
        for report in &serial.faults {
            assert!(report.retransmits > 0, "{}: no retransmits", report.name);
            match report.name.as_str() {
                "lossy_lb_failover" => {
                    assert!(report.dropped_injected > 0);
                    assert_eq!(report.dropped_queue, 0);
                    if !report.dispatcher.starts_with("random") {
                        // The tentpole acceptance property: with
                        // deterministic dispatch, retransmission (with
                        // server-side duplicate suppression and response
                        // replay from lingering connection state) recovers
                        // every injected drop — all requests complete, no
                        // aborts, no hangs, no established connection is
                        // broken even by a retransmit crossing the
                        // failover.
                        assert_eq!(report.aborted, 0);
                        assert_eq!(report.unfinished, 0, "nothing may hang");
                        assert_eq!(
                            report.completed, report.sent,
                            "{} must complete every request under loss",
                            report.dispatcher
                        );
                        assert_eq!(
                            report.broken_established, 0,
                            "{} must not break established connections",
                            report.dispatcher
                        );
                    }
                }
                "incast" | "saturated_uplink" => {
                    assert!(report.dropped_queue > 0, "{}: no tail drops", report.name);
                    assert_eq!(report.dropped_injected, 0);
                }
                other => panic!("unexpected fault preset {other}"),
            }
        }
    }

    const CH: DispatcherConfig = DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 };

    fn report_of(spec: ExperimentSpec) -> ScenarioReport {
        ScenarioReport::from_outcome(&Sweep::serial(Scale::Tiny, 0).run(spec))
    }

    #[test]
    fn reports_are_deterministic_and_round_trip() {
        let maglev = DispatcherConfig::Maglev {
            table_size: 251,
            k: 2,
        };
        let spec = ExperimentSpec::rolling_upgrade(maglev, 300).with_seed(13);
        let a = report_of(spec.clone());
        let b = report_of(spec);
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, serde_json::to_string(&b).unwrap());
        assert!(json.contains("\"rolling_upgrade\""));
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn reports_carry_only_the_fault_counters_that_fired() {
        let lossy = report_of(ExperimentSpec::lossy_lb_failover(CH, 400).with_seed(7));
        let json = serde_json::to_string(&lossy).unwrap();
        assert!(json.contains("\"dropped_injected\""));
        assert!(!json.contains("\"dropped_queue\""));
        assert!(!json.contains("\"dropped_link_down\""));
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, lossy);

        let clean = report_of(ExperimentSpec::lb_failover(CH, 200).with_seed(7));
        let json = serde_json::to_string(&clean).unwrap();
        for key in [
            "aborted",
            "retransmits",
            "dropped_injected",
            "dropped_queue",
            "dropped_link_down",
        ] {
            assert!(
                !json.contains(key),
                "fault-free report leaked {key}: {json}"
            );
        }
    }

    #[test]
    fn reports_carry_per_instance_counters_for_multi_lb_tiers_only() {
        // Omitted for the degenerate single-LB case, keeping the pre-tier
        // BENCH_scenarios.json entries byte-stable.
        let tier = report_of(ExperimentSpec::ecmp_reshuffle(CH, 2, 300).with_seed(7));
        assert_eq!(tier.per_lb.len(), 2);
        assert!(serde_json::to_string(&tier).unwrap().contains("\"per_lb\""));
        let single = report_of(ExperimentSpec::ecmp_reshuffle(CH, 1, 300).with_seed(7));
        assert!(!serde_json::to_string(&single)
            .unwrap()
            .contains("\"per_lb\""));
    }
}
