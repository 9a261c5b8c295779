//! Metric definitions, result stamps and the JSON the benchmark prints.
//!
//! The tables here are the single definition of every metric's name, unit,
//! direction and regression bound; `BENCHMARK.json` repeats them for the
//! driver and `check.sh` verifies the two agree.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::measure::ChildReport;
use crate::stats::{median, quartiles, Better};
use crate::workloads::Workload;

/// An end-to-end metric: something a user of a spec run sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the first median by which a second may be worse.
    pub bound: f64,
    /// Whether the value repeats exactly for a fixed seed (simulated time
    /// and counts), in which case `agree` demands bit-equality.
    pub exact: bool,
    /// The samples one untraced child contributes.
    pub samples: fn(&ChildReport) -> Vec<f64>,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    samples: fn(&ChildReport) -> Vec<f64>,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
        samples,
    }
}

/// The end-to-end metrics, reported for every workload.  Host time unless
/// the name starts with `sim_`.
pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end("setup_s", "s", Better::Lower, 0.25, false, |c| {
        vec![c.setup_s]
    }),
    end_to_end("requests_per_s", "1/s", Better::Higher, 0.12, false, |c| {
        let rate = |wall: &f64| c.completed as f64 / wall;
        c.rep_wall_s.iter().map(rate).collect()
    }),
    end_to_end("peak_rss_mb", "MB", Better::Lower, 0.15, false, |c| {
        vec![c.peak_rss_kb as f64 / 1024.0]
    }),
    end_to_end(
        "completed_share",
        "share",
        Better::Higher,
        0.01,
        true,
        |c| vec![c.completed as f64 / c.sent.max(1) as f64],
    ),
    end_to_end(
        "sim_mean_response_ms",
        "ms",
        Better::Lower,
        0.1,
        true,
        |c| vec![c.sim_mean_response_ms],
    ),
    end_to_end("sim_p99_response_ms", "ms", Better::Lower, 0.2, true, |c| {
        vec![c.sim_p99_response_ms]
    }),
];

/// A per-layer metric: `(name, unit)`.  No bounds — these explain the
/// end-to-end figures, they are not gates; `BENCHMARK.json` holds their
/// direction of improvement.
pub type Layer = (&'static str, &'static str);

/// The per-layer metrics, reported for every workload by a traced run.
pub const PER_LAYER: [Layer; 56] = [
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_s", "1/s"),
    ("sim.events_per_request", "count"),
    ("sim.message_events", "count"),
    ("sim.timer_events", "count"),
    ("sim.dropped_injected", "count"),
    ("sim.engine_self_ns_per_event", "ns"),
    ("sim.engine_self_share", "share"),
    ("sim.engine_loop_ns_per_event", "ns"),
    ("sim.queue_push_pop_ns_d64", "ns"),
    ("sim.queue_push_pop_ns_d65536", "ns"),
    ("sim.topology_latency_ns", "ns"),
    ("sim.ecmp_steer_ns", "ns"),
    ("sim.barrier_round_ns", "ns"),
    ("sim.shard_busy_max_s", "s"),
    ("sim.shard_busy_sum_s", "s"),
    ("sim.shard_sync_share", "share"),
    ("sim.sharded_vs_batched_ratio", "ratio"),
    ("client.busy_share", "share"),
    ("client.busy_ns_per_call", "ns"),
    ("client.calls", "count"),
    ("client.retransmits", "count"),
    ("client.aborted", "count"),
    ("lb_node.busy_share", "share"),
    ("lb_node.busy_ns_per_call", "ns"),
    ("lb_node.calls", "count"),
    ("lb_node.new_flows", "count"),
    ("lb_node.steered", "count"),
    ("lb_node.missing_flow", "count"),
    ("dispatch.candidates_into_ns_12", "ns"),
    ("dispatch.candidates_into_ns_384", "ns"),
    ("flow_state.learn_lookup_ns", "ns"),
    ("flow_state.bounded_learn_evict_ns", "ns"),
    ("flow_state.evicted_active", "count"),
    ("flow_state.peak_occupancy", "count"),
    ("directory.lookup_flow_ns", "ns"),
    ("server_node.busy_share", "share"),
    ("server_node.busy_ns_per_call", "ns"),
    ("server_node.calls", "count"),
    ("server_node.first_accept_ratio", "ratio"),
    ("server_node.passed_on", "count"),
    ("server_node.duplicates_ignored", "count"),
    ("server.worker_claim_release_ns", "ns"),
    ("server.cpu_add_complete_ns", "ns"),
    ("net.packet_build_srh_ns", "ns"),
    ("net.packet_clone_ns", "ns"),
    ("workload.poisson_next_ns", "ns"),
    ("workload.wikipedia_next_ns", "ns"),
    ("metrics.collector_push_ns", "ns"),
    ("metrics.summary_s", "s"),
    ("metrics.bytes_per_request", "B"),
    ("spec.parse_validate_s", "s"),
    ("runner.lowering_s", "s"),
    ("runner.outside_loop_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.instant_pair_ns", "ns"),
];

/// A reported value with its unit, as the driver reads it.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The one line the driver reads: exactly these four keys.
#[derive(Debug, Clone, Serialize)]
pub struct DriverLine {
    /// Whether every output check passed.
    pub correct: bool,
    /// Requests sent in one repetition.
    pub attempted: u64,
    /// Requests of those that did not complete.
    pub failed: u64,
    /// Every end-to-end metric, or every per-layer metric.
    pub metrics: BTreeMap<String, Metric>,
}

/// Where and how a result was measured.
#[derive(Debug, Clone, Serialize)]
pub struct Stamp {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Processors the kernel lists in `/proc/cpuinfo`.
    pub nproc: usize,
    /// Fewer than two cores available: nothing here is a parallel result.
    pub host_single_core: bool,
    /// Workload seed.
    pub seed: u64,
    /// 2 000-request smoke-test sizes.
    pub tiny: bool,
    /// `git rev-parse HEAD` of the working directory, or `unknown`.
    pub git_commit: String,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Stamp {
    /// Reads the host and toolchain facts.
    pub fn gather(seed: u64, tiny: bool) -> Stamp {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let nproc = std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        Stamp {
            available_parallelism,
            nproc,
            host_single_core: available_parallelism < 2,
            seed,
            tiny,
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
        }
    }
}

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Serialize)]
pub struct Distribution {
    /// The reported value: the median of `samples` values.
    pub median: f64,
    /// First and third quartile (Python's `statistics.quantiles`, n = 4).
    pub q1: f64,
    /// See `q1`.
    pub q3: f64,
    /// How many values: too few for any percentile above the median.
    pub samples: usize,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// The metric's regression bound, as a share of the first median.
    pub bound: f64,
}

impl Distribution {
    fn of(values: &[f64], metric: &EndToEnd) -> Distribution {
        let [q1, _, q3] = quartiles(values);
        Distribution {
            median: median(values),
            q1,
            q3,
            samples: values.len(),
            unit: metric.unit.to_string(),
            better: metric.better.as_str().to_string(),
            bound: metric.bound,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadResult {
    /// Why the workload is in the set.
    pub why: String,
    /// Execution mode.
    pub exec_mode: String,
    /// Pool policy.
    pub pool_policy: String,
    /// Shard plan in effect (`null` on one core).
    pub shard_plan: Option<String>,
    /// Whether this result may be read as a parallel one.
    pub parallel: bool,
    /// Timed repetitions behind `requests_per_s`.
    pub repetitions: usize,
    /// Child processes behind `setup_s` and `peak_rss_mb`.
    pub children: usize,
    /// Requests sent per repetition.
    pub attempted: u64,
    /// Of those, not completed.
    pub failed: u64,
    /// Outcome digest shared by every repetition.
    pub digest: String,
    /// End-to-end metrics (untraced repetitions only).
    pub end_to_end: BTreeMap<String, Distribution>,
    /// Per-layer metrics (empty unless a traced run was made).
    pub per_layer: BTreeMap<String, Metric>,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl WorkloadResult {
    /// Folds the untraced children and the traced child of one workload
    /// into its result.
    ///
    /// # Panics
    ///
    /// Panics if there is neither an untraced nor a traced child.
    pub fn new(
        workload: &Workload,
        stamp: &Stamp,
        timed: &[ChildReport],
        traced: Option<&ChildReport>,
    ) -> WorkloadResult {
        let first = timed.first().or(traced).expect("at least one child ran");
        let mut failures: Vec<String> = Vec::new();
        for child in timed.iter().chain(traced) {
            failures.extend(child.failures.iter().cloned());
            if child.digest != first.digest {
                failures.push(format!(
                    "digest differs between children: {} vs {}",
                    child.digest, first.digest
                ));
            }
        }

        let mut end_to_end = BTreeMap::new();
        for metric in END_TO_END.iter().filter(|_| !timed.is_empty()) {
            let values: Vec<f64> = timed.iter().flat_map(metric.samples).collect();
            end_to_end.insert(metric.name.to_string(), Distribution::of(&values, metric));
        }

        let mut per_layer = BTreeMap::new();
        if let Some(traced) = traced {
            for (name, unit) in &PER_LAYER {
                match traced.layers.get(*name) {
                    Some(&value) => {
                        per_layer.insert(
                            name.to_string(),
                            Metric {
                                value,
                                unit: unit.to_string(),
                            },
                        );
                    }
                    None => failures.push(format!("traced run did not report {name}")),
                }
            }
        }

        WorkloadResult {
            why: workload.why.to_string(),
            exec_mode: workload.exec_label(),
            pool_policy: workload.pool_label().to_string(),
            shard_plan: first.shard_plan.clone(),
            parallel: workload.is_sharded() && !stamp.host_single_core,
            repetitions: timed.iter().map(|c| c.rep_wall_s.len()).sum(),
            children: timed.len(),
            attempted: first.sent,
            failed: first.sent - first.completed,
            digest: first.digest.clone(),
            end_to_end,
            per_layer,
            failures,
        }
    }

    /// The line the driver reads for this workload.
    pub fn driver_line(&self, trace: bool) -> DriverLine {
        let metrics = if trace {
            self.per_layer.clone()
        } else {
            self.end_to_end
                .iter()
                .map(|(name, d)| {
                    let metric = Metric {
                        value: d.median,
                        unit: d.unit.clone(),
                    };
                    (name.clone(), metric)
                })
                .collect()
        };
        DriverLine {
            correct: self.failures.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// The JSON summary of a whole invocation.  `claim` stays the last key and
/// stays `null`: the benchmark measures, it claims no gain.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Host, toolchain and seed.
    pub stamp: Stamp,
    /// Results by workload name.
    pub workloads: BTreeMap<String, WorkloadResult>,
    /// Whether every output check of every workload passed.
    pub correct: bool,
    /// Always `null`.
    pub claim: Option<String>,
}

impl Summary {
    /// Wraps the per-workload results.
    pub fn new(stamp: Stamp, workloads: BTreeMap<String, WorkloadResult>) -> Summary {
        let correct = workloads.values().all(|w| w.failures.is_empty());
        Summary {
            stamp,
            workloads,
            correct,
            claim: None,
        }
    }

    /// One line of JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("summary holds only finite numbers")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn child(digest: &str) -> ChildReport {
        ChildReport {
            setup_s: 1.0,
            rep_wall_s: vec![2.0, 4.0, 5.0],
            peak_rss_kb: 2048,
            sent: 1000,
            completed: 1000,
            sim_mean_response_ms: 200.0,
            sim_p99_response_ms: 900.0,
            digest: digest.to_string(),
            ..ChildReport::default()
        }
    }

    fn stamp() -> Stamp {
        Stamp {
            available_parallelism: 2,
            nproc: 2,
            host_single_core: false,
            seed: 1,
            tiny: true,
            git_commit: "unknown".to_string(),
            rustc: "unknown".to_string(),
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(name, _)| *name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for (i, name) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for metric in &END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn a_result_reports_medians_and_the_driver_line_has_every_metric() {
        let children = [child("aa"), child("aa")];
        let result = WorkloadResult::new(&WORKLOADS[0], &stamp(), &children, None);
        assert!(result.failures.is_empty());
        assert_eq!(result.repetitions, 6);
        assert_eq!(result.end_to_end["requests_per_s"].median, 250.0);
        assert_eq!(result.end_to_end["peak_rss_mb"].median, 2.0);
        assert_eq!(result.end_to_end["completed_share"].median, 1.0);
        let line = result.driver_line(false);
        assert!(line.correct);
        assert_eq!((line.attempted, line.failed), (1000, 0));
        assert_eq!(line.metrics.len(), END_TO_END.len());
        assert!(!result.parallel, "a batched workload is never parallel");
    }

    #[test]
    fn differing_digests_and_missing_layers_fail_the_result() {
        let children = [child("aa"), child("bb")];
        let result = WorkloadResult::new(&WORKLOADS[0], &stamp(), &children, None);
        assert_eq!(result.failures.len(), 1);
        assert!(!result.driver_line(false).correct);

        let traced = child("aa");
        let result = WorkloadResult::new(&WORKLOADS[0], &stamp(), &children[..1], Some(&traced));
        assert_eq!(result.failures.len(), PER_LAYER.len());
    }

    #[test]
    fn the_sharded_workload_is_not_parallel_on_one_core() {
        let sharded = crate::workloads::find("rackzone_sharded2").expect("workload exists");
        let mut one_core = stamp();
        assert!(WorkloadResult::new(sharded, &one_core, &[child("aa")], None).parallel);
        one_core.host_single_core = true;
        assert!(!WorkloadResult::new(sharded, &one_core, &[child("aa")], None).parallel);
    }

    #[test]
    fn the_summary_ends_with_a_null_claim() {
        let summary = Summary::new(stamp(), BTreeMap::new());
        assert!(summary.to_json().ends_with("\"claim\":null}"));
    }
}
