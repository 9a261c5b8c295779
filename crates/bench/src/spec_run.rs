//! `figures -- run <spec.json>`: execute any committed [`ExperimentSpec`].
//!
//! This is the reproducibility entry point of the unified experiment API:
//! *any* experiment — a paper figure point, a dynamic-cluster scenario, or
//! a cross product such as an LB failover during a Wikipedia replay — is a
//! spec file that can be committed, reviewed, and replayed bit-for-bit.
//! Eight canonical specs live in `examples/specs/` at the workspace root
//! (regenerate them with `figures -- write-specs`, round-trip-checked by
//! `crates/bench/tests/spec_roundtrip.rs`).

use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use srlb_core::dispatch::DispatcherConfig;
use srlb_core::runner::{RunOutcome, Runner};
use srlb_core::spec::{ExperimentSpec, PolicyKind, ScenarioEvent, WorkloadSpec};
use srlb_metrics::PhaseStats;
use srlb_server::PolicyConfig;
use srlb_sim::ExecMode;

use crate::figures::Scale;

/// The canonical example specs committed under `examples/specs/`, as
/// `(file_stem, spec)` pairs.
///
/// * `poisson_rho089` — the paper's Poisson testbed at ρ = 0.89 under
///   `SRdyn` (Section V's high-load regime),
/// * `poisson_rho089_48s` — the same experiment on a 48-server cluster
///   (4× the paper's testbed; the cluster axis makes growth a one-line
///   change, with λ₀ re-derived analytically from the larger capacity),
/// * `wikipedia_replay` — the 24-hour Wikipedia replay under `SR4`
///   (Section VI),
/// * `lb_failover_wikipedia` — a scenario × workload cross product: a
///   load-balancer failover (with in-band flow-table reconstruction over
///   consistent-hash candidates) in the middle of a Wikipedia replay
///   slice,
/// * `multi_lb_ecmp` — a four-instance LB tier behind deterministic
///   resilient ECMP steering, with one instance withdrawn mid-run: live
///   flows re-steer onto peers that have never seen them and survive via
///   re-hunt over consistent-hash candidates,
/// * `lossy_poisson` — the Poisson testbed at ρ = 0.89 over a fabric that
///   loses 1% of every link's packets, recovered end to end by the
///   client's retransmission policy (explicit in the spec),
/// * `incast` — incast into one hot server: a 4× slow server 0 behind a
///   shallow bounded LB → server queue, tail drops absorbed by
///   retransmission,
/// * `bounded_flow_table` — the Poisson testbed at ρ = 0.89 through a
///   memory-bounded flow table (256 entries, 30 s idle timeout, 5 s
///   incremental sweep) under the load-aware policy: flows out-living
///   their table entry are evicted under pressure, counted by cause, and
///   candidates are ranked by the load hints servers piggyback on
///   acceptance SYN-ACKs.
pub fn example_specs() -> Vec<(&'static str, ExperimentSpec)> {
    let poisson = ExperimentSpec::poisson_paper(0.89, PolicyKind::Dynamic).with_seed(42);
    let poisson_48 = ExperimentSpec::poisson_paper(0.89, PolicyKind::Dynamic)
        .with_servers(48)
        .with_seed(42)
        .with_name("poisson-rho0.89-SRdyn-48s");
    let wikipedia =
        ExperimentSpec::wikipedia_paper(PolicyKind::Static { threshold: 4 }).with_seed(42);
    let mut failover_wiki = ExperimentSpec::wikipedia_paper(PolicyKind::Explicit {
        dispatcher: DispatcherConfig::ConsistentHash { vnodes: 128, k: 2 },
        acceptance: PolicyConfig::Static { threshold: 4 },
    })
    .with_seed(42)
    .with_hours(0.25)
    .with_name("lb_failover_wikipedia")
    .with_request_delay_ms(200.0)
    // One minute in, the LB fails over to a cold standby: early enough to
    // stay inside even the `--tiny` scaled-down slice.
    .at(60.0, ScenarioEvent::LbFailover);
    failover_wiki.cluster.recover_flows = true;
    let multi_lb = ExperimentSpec::ecmp_reshuffle(
        DispatcherConfig::ConsistentHash { vnodes: 128, k: 2 },
        4,
        800,
    )
    .with_seed(42)
    .with_name("multi_lb_ecmp");
    let lossy_poisson = ExperimentSpec::poisson_paper(0.89, PolicyKind::Dynamic)
        .with_seed(42)
        .with_name("lossy_poisson")
        .with_faults(srlb_core::spec::FaultPlan {
            loss: vec![srlb_core::spec::LossSpec {
                link: srlb_core::spec::FaultLink::default(),
                probability: 0.01,
            }],
            recovery: Some(srlb_net::RetransmitPolicy::default()),
            ..srlb_core::spec::FaultPlan::default()
        });
    let incast =
        ExperimentSpec::incast(DispatcherConfig::ConsistentHash { vnodes: 128, k: 2 }, 800)
            .with_seed(42);
    let bounded_flow_table = ExperimentSpec::poisson_paper(
        0.89,
        PolicyKind::LoadAware {
            pool: 4,
            threshold: 4,
        },
    )
    .with_seed(42)
    .with_name("bounded_flow_table")
    .with_flow_table(srlb_core::spec::FlowTableSpec {
        idle_timeout_s: 30.0,
        capacity: Some(256),
        sweep_interval_s: Some(5.0),
    });
    vec![
        ("poisson_rho089", poisson),
        ("poisson_rho089_48s", poisson_48),
        ("wikipedia_replay", wikipedia),
        ("lb_failover_wikipedia", failover_wiki),
        ("multi_lb_ecmp", multi_lb),
        ("lossy_poisson", lossy_poisson),
        ("incast", incast),
        ("bounded_flow_table", bounded_flow_table),
    ]
}

/// Writes the canonical example specs as JSON files under `dir`, returning
/// the paths written.  The bytes are exactly what
/// `serde_json::to_string(&spec)` produces plus a trailing newline, so
/// `parse → serialize → byte-compare` round-trips.
///
/// # Errors
///
/// Returns any I/O or serialisation error.
pub fn write_example_specs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for (stem, spec) in example_specs() {
        let path = dir.join(format!("{stem}.json"));
        let json = serde_json::to_string(&spec)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{json}")?;
        paths.push(path);
    }
    Ok(paths)
}

/// Loads an [`ExperimentSpec`] from a JSON file.
///
/// # Errors
///
/// Returns an I/O error for unreadable files or a decoding error (mapped to
/// [`std::io::ErrorKind::InvalidData`]) for malformed specs.
pub fn load_spec(path: &Path) -> std::io::Result<ExperimentSpec> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Scales a spec's workload down for smoke runs: `--quick` / `--tiny`
/// shrink Poisson query counts and the Wikipedia slice the same way the
/// figure harness does, leaving every other axis (cluster, topology,
/// scenario, policy, seed) untouched.  [`Scale::Paper`] is the identity.
pub fn scale_spec(mut spec: ExperimentSpec, scale: Scale) -> ExperimentSpec {
    if scale == Scale::Paper {
        return spec;
    }
    match &mut spec.workload {
        WorkloadSpec::Poisson { queries, .. } | WorkloadSpec::PoissonRate { queries, .. } => {
            *queries = (*queries).min(scale.poisson_queries());
        }
        WorkloadSpec::Wikipedia { hours, .. } => {
            *hours = hours.min(scale.wiki_hours());
        }
        WorkloadSpec::Trace { .. } => {}
    }
    spec
}

/// Machine-readable summary of one `figures -- run` execution (written
/// next to the figure CSVs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecRunReport {
    /// Schema version of this report.
    pub schema: u32,
    /// The spec's name.
    pub name: String,
    /// Policy label.
    pub label: String,
    /// Dispatcher report name.
    pub dispatcher: String,
    /// Seed the run used.
    pub seed: u64,
    /// Requests sent.
    pub sent: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests whose connection was reset.
    pub resets: u64,
    /// Mean completed response time in milliseconds (`None` when nothing
    /// completed).
    pub mean_response_ms: Option<f64>,
    /// Median completed response time in milliseconds.
    pub median_response_ms: Option<f64>,
    /// 99th-percentile completed response time in milliseconds.
    pub p99_response_ms: Option<f64>,
    /// Load-balancer fail-overs applied.
    pub failovers: u64,
    /// Flow-table misses recovered by re-hunting.
    pub rehunts: u64,
    /// Flow-table entries learned in-band.
    pub flows_learned: u64,
    /// Flow-table entries expired by the incremental idle sweep (omitted
    /// when zero, so reports from unbounded default-table runs keep their
    /// pre-flow-state bytes).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub flow_expired: u64,
    /// Capacity evictions of already-expired entries (omitted when zero).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub flow_evicted_expired: u64,
    /// Capacity evictions of long-idle entries (omitted when zero).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub flow_evicted_idle: u64,
    /// Capacity evictions of recently-active entries (omitted when zero).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub flow_evicted_active: u64,
    /// Peak flow-table occupancy across LB instances (omitted when zero;
    /// only bounded tables report it).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub flow_peak_occupancy: u64,
    /// Milliseconds from fail-over to the last re-hunt, if any.
    pub reconstruction_ms: Option<f64>,
    /// Simulated duration in seconds.
    pub duration_seconds: f64,
    /// Total simulation events processed.
    pub events_processed: u64,
    /// Requests aborted after exhausting the retransmission budget
    /// (fault-injection runs only; omitted when zero so fault-free report
    /// bytes stay stable).
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
    /// Per-phase disruption statistics (one phase for static runs).
    pub phases: Vec<PhaseStats>,
    /// Shard plan the run executed on, for stdout diagnostics only.
    /// Never serialized: the report JSON is byte-diffed across execution
    /// modes in CI, and the plan legitimately differs between them.
    #[serde(default, skip_serializing_if = "always")]
    pub shard_plan: Option<String>,
}

/// Serde skip predicate for counters that only some runs move (faults,
/// bounded flow tables): reports of runs that never touch them keep the
/// bytes they had before the counter existed.
pub(crate) fn is_zero_u64(n: &u64) -> bool {
    *n == 0
}

/// Serde skip predicate for stdout-only fields that must never reach the
/// byte-diffed report JSON.
fn always<T>(_: &T) -> bool {
    true
}

impl SpecRunReport {
    /// Condenses a [`RunOutcome`] into the report, stamping the seed it ran
    /// with.
    pub fn from_outcome(outcome: &RunOutcome, seed: u64) -> Self {
        let summary = outcome.collector.summary(None);
        SpecRunReport {
            schema: 1,
            name: outcome.name.clone(),
            label: outcome.label.clone(),
            dispatcher: outcome.dispatcher_name.clone(),
            seed,
            sent: outcome.collector.len() as u64,
            completed: outcome.collector.completed_count() as u64,
            resets: outcome.collector.reset_count() as u64,
            mean_response_ms: (!summary.is_empty()).then(|| summary.mean()),
            median_response_ms: summary.median(),
            p99_response_ms: summary.percentile(99.0),
            failovers: outcome.lb_stats.failovers,
            rehunts: outcome.lb_stats.rehunts,
            flows_learned: outcome.lb_stats.flows_learned,
            flow_expired: outcome.lb_stats.flow_expired,
            flow_evicted_expired: outcome.lb_stats.flow_evicted_expired,
            flow_evicted_idle: outcome.lb_stats.flow_evicted_idle,
            flow_evicted_active: outcome.lb_stats.flow_evicted_active,
            flow_peak_occupancy: outcome.lb_stats.flow_peak_occupancy,
            reconstruction_ms: outcome.reconstruction_latency_s.map(|s| s * 1e3),
            duration_seconds: outcome.duration_seconds,
            events_processed: outcome.events_processed,
            aborted: outcome.aborted,
            retransmits: outcome.retransmits,
            dropped_injected: outcome.dropped_injected,
            dropped_queue: outcome.dropped_queue,
            dropped_link_down: outcome.dropped_link_down,
            phases: outcome.phases.clone(),
            shard_plan: outcome.shard_plan.clone(),
        }
    }
}

/// Runs a spec file at the given scale under `exec` and returns the report
/// (which is the same whatever the execution mode).
///
/// # Errors
///
/// Returns an I/O-flavoured error for unreadable/malformed files and an
/// [`std::io::ErrorKind::InvalidInput`] error for specs that fail
/// validation.
pub fn run_spec_file(path: &Path, scale: Scale, exec: ExecMode) -> std::io::Result<SpecRunReport> {
    let spec = scale_spec(load_spec(path)?, scale);
    let seed = spec.seed;
    let runner = Runner::new(spec)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let outcome = runner.with_exec(exec).run();
    Ok(SpecRunReport::from_outcome(&outcome, seed))
}

/// Writes a spec-run report as JSON under `dir` (as
/// `run_<spec name>.json`), returning the path written.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_spec_report(dir: &Path, report: &SpecRunReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let json = serde_json::to_string(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let path = dir.join(format!("run_{}.json", report.name.replace(['/', ' '], "_")));
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{json}")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_specs_validate() {
        for (stem, spec) in example_specs() {
            spec.validate()
                .unwrap_or_else(|e| panic!("spec {stem} invalid: {e}"));
            assert!(!stem.is_empty());
        }
    }

    #[test]
    fn example_specs_serde_roundtrip() {
        for (_, spec) in example_specs() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
            // Canonical form: serialising the parse reproduces the bytes.
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn scale_spec_shrinks_only_the_workload() {
        let (_, wiki) = example_specs()
            .into_iter()
            .find(|(stem, _)| *stem == "lb_failover_wikipedia")
            .unwrap();
        let tiny = scale_spec(wiki.clone(), Scale::Tiny);
        assert_eq!(tiny.scenario, wiki.scenario);
        assert_eq!(tiny.cluster, wiki.cluster);
        assert_eq!(tiny.policy, wiki.policy);
        match tiny.workload {
            WorkloadSpec::Wikipedia { hours, .. } => assert_eq!(hours, Scale::Tiny.wiki_hours()),
            _ => panic!("expected wikipedia workload"),
        }
        assert_eq!(scale_spec(wiki.clone(), Scale::Paper), wiki);
    }

    #[test]
    fn write_load_run_roundtrip() {
        let dir = std::env::temp_dir().join("srlb-spec-run-test");
        let paths = write_example_specs(&dir).unwrap();
        assert_eq!(paths.len(), 8);
        // Byte-level round trip of every written file.
        for path in &paths {
            let text = std::fs::read_to_string(path).unwrap();
            let spec = load_spec(path).unwrap();
            let reserialized = format!("{}\n", serde_json::to_string(&spec).unwrap());
            assert_eq!(reserialized, text, "{} drifted", path.display());
        }
        let run_tiny = |stem: &str| {
            let path = dir.join(format!("{stem}.json"));
            run_spec_file(&path, Scale::Tiny, ExecMode::default()).unwrap()
        };
        // The scenario-driven Wikipedia replay runs end to end at tiny
        // scale, failover included.
        let report = run_tiny("lb_failover_wikipedia");
        assert_eq!(report.name, "lb_failover_wikipedia");
        assert_eq!(report.failovers, 1);
        assert!(report.completed > 0);
        assert_eq!(report.phases.len(), 2);
        // The multi-LB ECMP reshuffle spec runs end to end at tiny scale:
        // the withdrawal lands inside the scaled-down send window, so the
        // re-hunt path across instances is exercised even in CI smoke.
        let report = run_tiny("multi_lb_ecmp");
        assert_eq!(report.name, "multi_lb_ecmp");
        assert_eq!(report.sent, Scale::Tiny.poisson_queries() as u64);
        assert_eq!(report.completed, report.sent, "zero connections lost");
        assert!(report.rehunts > 0, "re-steered flows were re-hunted");
        assert_eq!(report.phases.len(), 2);
        // The lossy Poisson spec runs end to end at tiny scale: losses
        // occur, retransmission recovers them, the per-cause counters
        // surface in the report.
        let report = run_tiny("lossy_poisson");
        assert_eq!(report.name, "lossy_poisson");
        assert!(report.dropped_injected > 0, "1% loss must fire at tiny");
        assert!(report.retransmits > 0);
        assert_eq!(report.completed + report.resets, report.sent);
        // And the incast spec tail-drops at its bounded queue.
        let report = run_tiny("incast");
        assert_eq!(report.name, "incast");
        assert!(report.dropped_queue > 0, "incast queue must overflow");
        assert!(report.retransmits > 0);
        // The bounded flow table evicts under pressure at tiny scale and
        // surfaces the per-cause counters in the report.
        let report = run_tiny("bounded_flow_table");
        assert_eq!(report.name, "bounded_flow_table");
        assert_eq!(report.completed, report.sent);
        assert!(report.flow_peak_occupancy > 0);
        assert!(report.flow_peak_occupancy <= 256);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("flow_peak_occupancy"), "{json}");
        // Default-table runs keep their pre-flow-state report bytes.
        let report = run_tiny("poisson_rho089");
        let json = serde_json::to_string(&report).unwrap();
        assert!(!json.contains("flow_"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_spec_files_are_rejected() {
        let dir = std::env::temp_dir().join("srlb-spec-run-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(load_spec(&path).is_err());
        assert!(load_spec(&dir.join("missing.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
