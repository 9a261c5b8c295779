//! The million-flow macro-benchmark (`figures -- bench-macro`).
//!
//! Two sections, written together as `BENCH_macro.json` at the workspace
//! root (the [`crate::micro`] precedent — commit the baseline, diff the
//! trajectory):
//!
//! * **flow scale** — drives ≥ 1 M distinct flows through four bounded
//!   [`FlowState`] instances (flows split across instances by the cached
//!   stable hash, the same split an ECMP-steered LB tier induces), with
//!   total capacity half the flow count so the eviction path runs at full
//!   pressure.  Reports learn/lookup throughput, per-cause eviction
//!   counts, incremental-expiry volume, and the analytic resident-byte
//!   footprint.
//! * **ablation** — the load-aware candidate policy versus the paper's
//!   power-of-two-choices (`SR4`) and random assignment (`RR`) at
//!   ρ ∈ {0.7, 0.89, 0.95}, mean/p95/p99 response times from full
//!   [`Runner`](srlb_core::Runner) simulations.
//!
//! At `--tiny` scale the flow count shrinks to 4096, the ablation runs the
//! tiny query count, and the wall-clock throughput fields are zeroed — so
//! two tiny runs (e.g. serial vs `--sim-threads 2`) must produce
//! byte-identical JSON, which CI diffs as the subsystem's determinism
//! smoke test.

use std::io::Write;
use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use srlb_core::spec::{ExperimentSpec, PolicyKind};
use srlb_core::{FlowState, FlowStateConfig};
use srlb_net::{AddressPlan, FlowKey, Protocol};
use srlb_sim::{SimDuration, SimTime};

use crate::figures::{Scale, Sweep};

/// Default output file name, written to the workspace root at full scale
/// (see [`crate::micro::workspace_root`]).
pub const BENCH_MACRO_FILE: &str = "BENCH_macro.json";

/// Number of bounded [`FlowState`] instances the flow-scale section
/// spreads flows across (a four-instance LB tier).
const INSTANCES: usize = 4;

/// The ρ values of the ablation grid.
const ABLATION_RHOS: [f64; 3] = [0.7, 0.89, 0.95];

/// Flow-scale section of the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowScaleReport {
    /// Distinct flows learned (primary pass + the two churn passes).
    pub distinct_flows: u64,
    /// Bounded table instances the flows were split across.
    pub instances: u64,
    /// Hard capacity bound per instance.
    pub capacity_per_instance: u64,
    /// Idle timeout used, in nanoseconds of simulated time.
    pub idle_timeout_ns: u64,
    /// Learns per wall-clock second over the primary pass (0 at tiny
    /// scale, where timing is suppressed for byte-stable output).
    pub learns_per_sec: f64,
    /// Lookups per wall-clock second over the lookup pass (0 at tiny
    /// scale).
    pub lookups_per_sec: f64,
    /// Lookup hits (entries that survived eviction and expiry).
    pub lookup_hits: u64,
    /// Lookup misses (evicted or expired on access).
    pub lookup_misses: u64,
    /// Capacity evictions of already-expired entries.
    pub evicted_expired: u64,
    /// Capacity evictions of long-idle entries.
    pub evicted_idle: u64,
    /// Capacity evictions of recently-active entries.
    pub evicted_active: u64,
    /// Entries expired (lazily on access plus the final incremental
    /// sweep).
    pub expired: u64,
    /// Live entries across instances after the churn passes, before the
    /// final sweep.
    pub occupancy_before_sweep: u64,
    /// Peak live entries across instances.
    pub peak_occupancy: u64,
    /// Analytic resident footprint of the tables at peak, in bytes.
    pub resident_bytes: u64,
}

/// One cell of the policy ablation grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationCell {
    /// Policy label (`RR`, `SR4`, `SRla-p4c4`).
    pub policy: String,
    /// Normalised load ρ.
    pub rho: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests completed.
    pub completed: u64,
    /// Mean completed response time in milliseconds.
    pub mean_response_ms: f64,
    /// 95th-percentile completed response time in milliseconds.
    pub p95_response_ms: f64,
    /// 99th-percentile completed response time in milliseconds.
    pub p99_response_ms: f64,
}

/// JSON document written to [`BENCH_MACRO_FILE`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MacroBenchReport {
    /// Schema version of this report.
    pub schema: u32,
    /// The million-flow table-scale section.
    pub flow_scale: FlowScaleReport,
    /// The load-aware vs power-of-choices ablation grid.
    pub ablation: Vec<AblationCell>,
}

/// The `i`-th distinct synthetic flow: a unique `(source address, source
/// port)` pair towards the VIP.
fn flow_key(i: u64, vip: Ipv6Addr) -> FlowKey {
    let src = Ipv6Addr::from(0xfd00_0000_0000_0000_0000_0000_0000_0000u128 | u128::from(i >> 16));
    FlowKey::new(src, vip, (i & 0xffff) as u16, 80, Protocol::Tcp)
}

/// Runs the flow-scale section: `flows` distinct flows through four
/// bounded tables with total capacity `flows / 2`, plus two
/// churn passes that exercise the active- and idle-eviction causes.
/// `timed` gates the wall-clock throughput fields.
pub fn flow_scale(flows: usize, timed: bool) -> FlowScaleReport {
    let plan = AddressPlan::default();
    let vip = plan.vip(0);
    let servers: Vec<Ipv6Addr> = plan.server_addrs(12).collect();
    let capacity = flows / (2 * INSTANCES);
    // Learns advance simulated time by 1 µs each; the timeout is a quarter
    // of the primary pass's span, so entries out-live their timeout well
    // before the table wraps and the learn pass evicts *expired* entries.
    let step = SimDuration::from_micros(1);
    let timeout = SimDuration::from_nanos(flows as u64 * 1_000 / 4);
    let config = || {
        FlowStateConfig::new()
            .with_idle_timeout(timeout)
            .with_capacity(capacity)
    };
    let mut tables: Vec<FlowState> = (0..INSTANCES)
        .map(|_| FlowState::with_config(config()))
        .collect();
    let instance_of = |key: &FlowKey| (key.stable_hash() % INSTANCES as u64) as usize;

    let keys: Vec<FlowKey> = (0..flows as u64).map(|i| flow_key(i, vip)).collect();

    // Primary pass: every key once, time advancing one step per learn.
    let start = Instant::now(); // srlb-lint: allow(ambient-time) -- wall-clock throughput is this bench's measurand, not simulation state
    for (i, key) in keys.iter().enumerate() {
        let now = SimTime::ZERO + step * i as u64;
        tables[instance_of(key)].learn(*key, servers[i % servers.len()], now);
    }
    let learn_elapsed = start.elapsed().as_secs_f64();

    // Lookup pass at the end of the primary pass: survivors hit (and are
    // touched), evicted or expired entries miss.
    let now = SimTime::ZERO + step * flows as u64;
    let mut hits = 0u64;
    let start = Instant::now(); // srlb-lint: allow(ambient-time) -- wall-clock throughput is this bench's measurand, not simulation state
    for key in &keys {
        if tables[instance_of(key)].lookup(key, now).is_some() {
            hits += 1;
        }
    }
    let lookup_elapsed = start.elapsed().as_secs_f64();
    let misses = flows as u64 - hits;

    // Churn passes: fresh keys against a full table whose survivors were
    // all touched at `now`, so victims are recently-active first
    // (idle ≈ 0), then long-idle once time jumps by 3/4 of the timeout.
    let churn = (flows / 16).max(1);
    for i in 0..churn as u64 {
        let key = flow_key(flows as u64 + i, vip);
        tables[instance_of(&key)].learn(key, servers[0], now);
    }
    let later = now + SimDuration::from_nanos(timeout.as_nanos() * 3 / 4);
    for i in 0..churn as u64 {
        let key = flow_key((flows + churn) as u64 + i, vip);
        tables[instance_of(&key)].learn(key, servers[0], later);
    }

    let occupancy_before_sweep: u64 = tables.iter().map(|t| t.len() as u64).sum();

    // Final incremental sweep: everything is idle past the timeout.
    let drained = later + timeout + step;
    for table in &mut tables {
        table.expire_idle(drained);
    }

    let mut report = FlowScaleReport {
        distinct_flows: (flows + 2 * churn) as u64,
        instances: INSTANCES as u64,
        capacity_per_instance: capacity as u64,
        idle_timeout_ns: timeout.as_nanos(),
        learns_per_sec: 0.0,
        lookups_per_sec: 0.0,
        lookup_hits: hits,
        lookup_misses: misses,
        evicted_expired: 0,
        evicted_idle: 0,
        evicted_active: 0,
        expired: 0,
        occupancy_before_sweep,
        peak_occupancy: 0,
        resident_bytes: 0,
    };
    for table in &tables {
        let stats = table.stats();
        report.evicted_expired += stats.evictions.expired;
        report.evicted_idle += stats.evictions.idle;
        report.evicted_active += stats.evictions.active;
        report.expired += stats.expired;
        report.peak_occupancy += stats.peak_occupancy;
        report.resident_bytes += table.resident_bytes();
    }
    if timed {
        report.learns_per_sec = flows as f64 / learn_elapsed;
        report.lookups_per_sec = flows as f64 / lookup_elapsed;
    }
    report
}

/// The ablation policies, in report order.
fn ablation_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::RoundRobin,
        PolicyKind::Static { threshold: 4 },
        PolicyKind::LoadAware {
            pool: 4,
            threshold: 4,
        },
    ]
}

/// Runs the policy ablation grid at the sweep's query count, one cell at a
/// time (`sweep.jobs` is not used).
pub fn ablation(sweep: Sweep) -> Vec<AblationCell> {
    let mut cells = Vec::new();
    for &rho in &ABLATION_RHOS {
        for policy in ablation_policies() {
            let spec = ExperimentSpec::poisson_paper(rho, policy)
                .with_queries(sweep.scale.poisson_queries())
                .with_seed(sweep.seed);
            let outcome = sweep.run(spec);
            let summary = outcome.collector.summary(None);
            cells.push(AblationCell {
                policy: outcome.label,
                rho,
                sent: outcome.collector.len() as u64,
                completed: outcome.collector.completed_count() as u64,
                mean_response_ms: if summary.is_empty() {
                    0.0
                } else {
                    summary.mean()
                },
                p95_response_ms: summary.percentile(95.0).unwrap_or(0.0),
                p99_response_ms: summary.percentile(99.0).unwrap_or(0.0),
            });
        }
    }
    cells
}

/// Number of distinct flows the flow-scale section drives at each scale.
pub fn macro_flows(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 1 << 20,
        Scale::Quick => 1 << 16,
        Scale::Tiny => 1 << 12,
    }
}

/// Runs both sections and assembles the report.  Timing fields are only
/// populated at paper scale, so reduced-scale reports are byte-stable
/// across runs and execution modes.
pub fn run_macro_bench(sweep: Sweep) -> MacroBenchReport {
    MacroBenchReport {
        schema: 1,
        flow_scale: flow_scale(macro_flows(sweep.scale), sweep.scale == Scale::Paper),
        ablation: ablation(sweep),
    }
}

/// Writes the macro-bench report as canonical JSON (one line plus a
/// trailing newline) to `dir`, returning the path written.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_bench_macro(dir: &Path, report: &MacroBenchReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let json = serde_json::to_string(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let path = dir.join(BENCH_MACRO_FILE);
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{json}")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_flow_scale_saturates_and_counts_every_cause() {
        let report = flow_scale(macro_flows(Scale::Tiny), false);
        assert_eq!(report.distinct_flows, 4096 + 2 * 256);
        assert_eq!(report.capacity_per_instance, 512);
        assert_eq!(report.peak_occupancy, 2048, "every instance saturates");
        // Every learned flow either survives, was evicted, or expired.
        assert_eq!(report.lookup_hits + report.lookup_misses, 4096);
        assert!(report.evicted_expired > 0, "learn pass evicts expired LRUs");
        assert!(report.evicted_active > 0, "first churn evicts active LRUs");
        assert!(report.evicted_idle > 0, "second churn evicts idle LRUs");
        assert!(report.expired > 0, "the final sweep expires the rest");
        assert!(report.resident_bytes > 0);
        // Timing suppressed at tiny scale.
        assert_eq!(report.learns_per_sec, 0.0);
        assert_eq!(report.lookups_per_sec, 0.0);
    }

    #[test]
    fn tiny_flow_scale_is_deterministic() {
        let a = flow_scale(macro_flows(Scale::Tiny), false);
        let b = flow_scale(macro_flows(Scale::Tiny), false);
        assert_eq!(a, b);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = run_macro_bench(Sweep::serial(Scale::Tiny, 42));
        assert_eq!(report.ablation.len(), 9, "3 policies x 3 rho values");
        let json = serde_json::to_string(&report).unwrap();
        let back: MacroBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        for cell in &report.ablation {
            assert!(cell.completed > 0, "{} completed nothing", cell.policy);
        }
    }
}
