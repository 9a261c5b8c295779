//! What one child process measures: the untraced timed repetitions behind
//! the end-to-end metrics, or the traced budget behind the per-layer ones.
//!
//! Every workload runs in a child of its own so that its peak resident set
//! (`VmHWM`) and its lazy initialisation belong to it alone.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use srlb_core::spec::ExperimentSpec;
use srlb_core::{RunOutcome, Runner, ShardPlanning};
use srlb_metrics::{jain_fairness, RequestOutcome};
use srlb_sim::{ExecMode, PoolPolicy};

use crate::lowering::{self, Bare, Lowered, Observed, Span, Timed};
use crate::micro;
use crate::stats::median;
use crate::workloads::Workload;

/// How a child is asked to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// 2 000-request specs, for smoke tests.
    pub tiny: bool,
    /// Host seconds to keep measuring for.
    pub budget: Duration,
    /// Repetitions (or traced rounds) to run even if the budget is spent.
    pub min_reps: usize,
    /// Untraced sharded children: also run the spec under the batched loop
    /// and require the same digest.  One child per measurement does.
    pub check_batched: bool,
}

/// What a child reports back to the parent, as one JSON line.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChildReport {
    /// Child start to the first timed repetition.
    pub setup_s: f64,
    /// Wall time of each timed repetition.
    pub rep_wall_s: Vec<f64>,
    /// `VmHWM` after the last timed repetition.
    pub peak_rss_kb: u64,
    /// Requests the workload generated.
    pub sent: u64,
    /// Requests by outcome.
    pub completed: u64,
    /// Connections reset on backlog overflow.
    pub reset: u64,
    /// Requests given up after the retry budget.
    pub aborted: u64,
    /// Requests outstanding at the end of the run.
    pub unfinished: u64,
    /// Simulated mean response time.
    pub sim_mean_response_ms: f64,
    /// Simulated median response time.
    pub sim_p50_response_ms: f64,
    /// Simulated 99th-percentile response time.
    pub sim_p99_response_ms: f64,
    /// Jain fairness of per-server completed counts.
    pub fairness: f64,
    /// Simulation events of one run.
    pub events_processed: u64,
    /// Outcome digest, in hex.
    pub digest: String,
    /// The shard plan in effect (`None` on one core).
    pub shard_plan: Option<String>,
    /// Per-layer metrics (traced children only).
    pub layers: BTreeMap<String, f64>,
    /// Output checks that failed; empty when the run is correct.
    pub failures: Vec<String>,
}

impl ChildReport {
    /// Records one per-layer metric.
    fn put(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

/// Peak resident set of this process in kB (`VmHWM`), 0 if unreadable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// The user-visible report of one run, computed inside the timed region.
#[derive(Debug, Clone, Copy, PartialEq)]
struct UserReport {
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    fairness: f64,
}

/// What a spec-run user computes from an outcome: mean, p50, p99,
/// per-server counts and their Jain fairness.
fn user_report(outcome: &RunOutcome) -> UserReport {
    let summary = outcome.collector.summary(None);
    let counts = outcome
        .collector
        .per_server_counts(outcome.server_stats.len());
    let loads: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    UserReport {
        mean_ms: summary.mean(),
        p50_ms: summary.median().unwrap_or(0.0),
        p99_ms: summary.percentile(99.0).unwrap_or(0.0),
        fairness: jain_fairness(&loads),
    }
}

/// One run's facts, checked and compared outside the timed region.
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    expected: u64,
    sent: u64,
    completed: u64,
    reset: u64,
    aborted: u64,
    unfinished: u64,
    events_processed: u64,
    digest: u64,
    report: UserReport,
    shard_plan: Option<String>,
}

impl Facts {
    fn gather(spec: &ExperimentSpec, outcome: RunOutcome, report: UserReport) -> (Facts, Observed) {
        let expected = spec.workload.stream(spec.seed, &spec.cluster).remaining() as u64;
        let shard_plan = outcome.shard_plan.clone();
        let observed = Observed::from(outcome);
        let (mut completed, mut reset, mut aborted, mut unfinished) = (0, 0, 0, 0);
        for record in observed.collector.records() {
            match record.outcome {
                RequestOutcome::Completed => completed += 1,
                RequestOutcome::Reset => reset += 1,
                RequestOutcome::Aborted => aborted += 1,
                RequestOutcome::Unfinished => unfinished += 1,
            }
        }
        let facts = Facts {
            expected,
            sent: observed.collector.len() as u64,
            completed,
            reset,
            aborted,
            unfinished,
            events_processed: observed.events_processed,
            digest: observed.digest(),
            report,
            shard_plan,
        };
        (facts, observed)
    }

    /// Request conservation: every generated request has exactly one record.
    fn check_conservation(&self, failures: &mut Vec<String>) {
        let accounted = self.completed + self.reset + self.aborted + self.unfinished;
        if self.sent != self.expected || accounted != self.sent {
            failures.push(format!(
                "conservation: generated {} sent {} = completed {} + reset {} + aborted {} + unfinished {}",
                self.expected, self.sent, self.completed, self.reset, self.aborted, self.unfinished
            ));
        }
    }

    fn fill(&self, report: &mut ChildReport) {
        report.sent = self.sent;
        report.completed = self.completed;
        report.reset = self.reset;
        report.aborted = self.aborted;
        report.unfinished = self.unfinished;
        report.sim_mean_response_ms = self.report.mean_ms;
        report.sim_p50_response_ms = self.report.p50_ms;
        report.sim_p99_response_ms = self.report.p99_ms;
        report.fairness = self.report.fairness;
        report.events_processed = self.events_processed;
        report.digest = format!("{:016x}", self.digest);
        report.shard_plan = self.shard_plan.clone();
    }
}

/// One repetition: `from_str` → seed override → `Runner::new` → `run()` →
/// user report → drop.  The digest and the checks sit between the report
/// and the drop, outside the measured wall time.
fn repetition(workload: &Workload, plan: &Plan) -> Result<(f64, Facts), String> {
    let start = Instant::now();
    let runner = workload.runner(workload.spec(plan.seed, plan.tiny)?)?;
    let outcome = runner.run();
    let report = user_report(&outcome);
    let mut wall = start.elapsed();

    let (facts, observed) = Facts::gather(runner.spec(), outcome, report);

    let start = Instant::now();
    drop(observed);
    drop(runner);
    wall += start.elapsed();
    Ok((wall.as_secs_f64(), facts))
}

/// The rackzone spec under the batched loop: the reference
/// `rackzone_sharded2`'s digest must equal.
fn batched_reference(spec: ExperimentSpec) -> Result<Runner, String> {
    Ok(Runner::new(spec)
        .map_err(|e| e.to_string())?
        .with_exec(ExecMode::Batched)
        .with_pool_policy(PoolPolicy::Never)
        .with_shard_planning(ShardPlanning::TopologyAware))
}

/// Requires a run's digest and event count to equal the reference's.
fn check_same_outcome(
    what: &str,
    (digest, events): (u64, u64),
    reference: &Facts,
    failures: &mut Vec<String>,
) {
    if digest != reference.digest || events != reference.events_processed {
        failures.push(format!(
            "{what}: digest {digest:016x} / {events} events, expected {:016x} / {}",
            reference.digest, reference.events_processed
        ));
    }
}

/// Runs `runner` once, untimed report included; wall time of `run()` alone.
fn gather_run(runner: &Runner) -> (f64, Facts) {
    let (wall, outcome) = timed_call(|| runner.run());
    let user = user_report(&outcome);
    (wall, Facts::gather(runner.spec(), outcome, user).0)
}

fn timed_call<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// The untraced child: a warm-up repetition (set-up), then timed
/// repetitions until the budget is spent.
pub fn timed(
    workload: &Workload,
    plan: &Plan,
    process_start: Instant,
) -> Result<ChildReport, String> {
    let mut report = ChildReport::default();
    let (_, reference) = repetition(workload, plan)?;
    reference.check_conservation(&mut report.failures);
    report.setup_s = process_start.elapsed().as_secs_f64();

    let measure_start = Instant::now();
    while report.rep_wall_s.len() < plan.min_reps || measure_start.elapsed() < plan.budget {
        let (wall, facts) = repetition(workload, plan)?;
        if facts != reference {
            report.failures.push(format!(
                "repetition {} differs from the warm-up: digest {:016x} vs {:016x}",
                report.rep_wall_s.len(),
                facts.digest,
                reference.digest
            ));
        }
        report.rep_wall_s.push(wall);
    }
    report.peak_rss_kb = peak_rss_kb();

    if workload.is_sharded() && reference.shard_plan.is_none() {
        report
            .failures
            .push("the sharded workload ran on a single shard".to_string());
    }
    if workload.is_sharded() && plan.check_batched {
        let (_, batched) = gather_run(&batched_reference(workload.spec(plan.seed, plan.tiny)?)?);
        check_same_outcome(
            "batched reference",
            batched.outcome(),
            &reference,
            &mut report.failures,
        );
    }
    reference.fill(&mut report);
    Ok(report)
}

impl Facts {
    fn outcome(&self) -> (u64, u64) {
        (self.digest, self.events_processed)
    }
}

impl Lowered {
    fn outcome(&self) -> (u64, u64) {
        (self.observed.digest(), self.observed.events_processed)
    }
}

/// The traced budget of one wrapped run.
struct Budget {
    /// Thread-seconds the loop had: wall × shards, less the probe's cost.
    budget_s: f64,
    client_s: f64,
    lb_s: f64,
    server_s: f64,
    engine_s: f64,
}

impl Budget {
    fn of(run: &Lowered, pair_ns: f64, inside_ns: f64) -> Budget {
        let calls = (run.client.calls() + run.lb.calls() + run.server.calls()) as f64;
        // Each probed callback reads `inside_ns` too long and costs the
        // loop `pair_ns` in total.
        let busy = |span: &Span| (span.busy_ns as f64 - span.calls() as f64 * inside_ns) * 1e-9;
        let (client_s, lb_s, server_s) = (busy(&run.client), busy(&run.lb), busy(&run.server));
        let budget_s = run.loop_wall_s * run.shards as f64 - calls * pair_ns * 1e-9;
        Budget {
            budget_s,
            client_s,
            lb_s,
            server_s,
            engine_s: budget_s - client_s - lb_s - server_s,
        }
    }
}

/// The traced child: rounds of {`Runner`, bare lowering, wrapped lowering}
/// until the budget is spent, then the isolated floors.
pub fn traced(workload: &Workload, plan: &Plan) -> Result<ChildReport, String> {
    let mut report = ChildReport::default();

    let parse_validate: Vec<f64> = (0..5)
        .map(|_| {
            timed_call(|| {
                workload
                    .spec(plan.seed, plan.tiny)
                    .and_then(|s| s.validate().map_err(|e| e.to_string()))
            })
        })
        .map(|(s, result)| result.map(|()| s))
        .collect::<Result<_, _>>()?;
    report.put("spec.parse_validate_s", median(&parse_validate));
    let (pair_ns, inside_ns) = micro::instant_pair_ns();
    report.put("trace.instant_pair_ns", pair_ns);

    let spec = workload.spec(plan.seed, plan.tiny)?;
    let runner = workload.runner(spec.clone())?;
    let batched = batched_reference(spec.clone())?;

    let mut reference: Option<Facts> = None;
    let mut runner_walls = Vec::new();
    let mut batched_walls = Vec::new();
    let mut bare_loop_walls = Vec::new();
    let mut lowering_walls = Vec::new();
    let mut timed_runs = Vec::new();
    let measure_start = Instant::now();
    while runner_walls.len() < plan.min_reps || measure_start.elapsed() < plan.budget {
        let (wall, outcome) = timed_call(|| runner.run());
        runner_walls.push(wall);
        let rss_kb = peak_rss_kb();
        let (summary_s, user) = timed_call(|| user_report(&outcome));
        let (facts, _) = Facts::gather(&spec, outcome, user);
        let reference = match &reference {
            Some(reference) => {
                check_same_outcome(
                    "Runner round",
                    facts.outcome(),
                    reference,
                    &mut report.failures,
                );
                reference
            }
            None => {
                report.put(
                    "metrics.bytes_per_request",
                    rss_kb as f64 * 1024.0 / facts.sent.max(1) as f64,
                );
                report.put("metrics.summary_s", summary_s);
                facts.check_conservation(&mut report.failures);
                reference.insert(facts)
            }
        };

        let bare = lowering::run::<Bare>(&spec, workload.exec, workload.pool)?;
        check_same_outcome(
            "bare lowering",
            bare.outcome(),
            reference,
            &mut report.failures,
        );
        bare_loop_walls.push(bare.loop_wall_s);
        lowering_walls.push(bare.lowering_s);
        drop(bare);

        let wrapped = lowering::run::<Timed>(&spec, workload.exec, workload.pool)?;
        check_same_outcome(
            "wrapped lowering",
            wrapped.outcome(),
            reference,
            &mut report.failures,
        );
        let traced_events = wrapped.client.events + wrapped.lb.events + wrapped.server.events;
        let delivered = wrapped.sim.events_processed - wrapped.sim.messages_dropped;
        if traced_events != delivered {
            report.failures.push(format!(
                "traced {traced_events} callbacks for {delivered} delivered events"
            ));
        }
        timed_runs.push(wrapped);

        if workload.is_sharded() {
            let (wall, facts) = gather_run(&batched);
            batched_walls.push(wall);
            check_same_outcome(
                "batched reference",
                facts.outcome(),
                reference,
                &mut report.failures,
            );
        }
    }
    let reference = reference.expect("at least one round ran");
    reference.fill(&mut report);

    // Untraced figures: medians over the rounds.
    let bare_loop_s = median(&bare_loop_walls);
    let events = reference.events_processed as f64;
    report.put("sim.ns_per_event", bare_loop_s * 1e9 / events);
    report.put("sim.events_per_s", events / bare_loop_s);
    report.put(
        "sim.events_per_request",
        events / reference.sent.max(1) as f64,
    );
    report.put("runner.lowering_s", median(&lowering_walls));
    report.put("runner.outside_loop_s", median(&runner_walls) - bare_loop_s);
    report.put(
        "sim.sharded_vs_batched_ratio",
        if batched_walls.is_empty() {
            1.0
        } else {
            median(&batched_walls) / median(&runner_walls)
        },
    );

    // Traced figures: all from the one wrapped run with the median loop
    // wall, so the budget stays internally consistent.
    timed_runs.sort_by(|a, b| a.loop_wall_s.total_cmp(&b.loop_wall_s));
    let run = timed_runs.swap_remove((timed_runs.len() - 1) / 2);
    drop(timed_runs);
    let sim = run.sim;
    report.put(
        "sim.message_events",
        (sim.events_processed - sim.timers_fired) as f64,
    );
    report.put("sim.timer_events", sim.timers_fired as f64);
    report.put("sim.dropped_injected", sim.dropped_injected as f64);
    report.put("trace.overhead_share", run.loop_wall_s / bare_loop_s - 1.0);
    let budget = Budget::of(&run, pair_ns, inside_ns);
    let shares = [
        budget.client_s,
        budget.lb_s,
        budget.server_s,
        budget.engine_s,
    ]
    .map(|s| s / budget.budget_s);
    if shares.iter().any(|&s| !(0.0..=1.0).contains(&s))
        || (shares.iter().sum::<f64>() - 1.0).abs() > 0.01
    {
        report.failures.push(format!(
            "traced budget does not add up: client/lb/server/engine shares {shares:?}"
        ));
    }
    let per_call = |seconds: f64, span: &Span| seconds * 1e9 / span.events.max(1) as f64;
    for (layer, seconds, span) in [
        ("client", budget.client_s, &run.client),
        ("lb_node", budget.lb_s, &run.lb),
        ("server_node", budget.server_s, &run.server),
    ] {
        report.put(&format!("{layer}.busy_share"), seconds / budget.budget_s);
        report.put(
            &format!("{layer}.busy_ns_per_call"),
            per_call(seconds, span),
        );
        report.put(&format!("{layer}.calls"), span.events as f64);
    }
    report.put("sim.engine_self_share", budget.engine_s / budget.budget_s);
    report.put(
        "sim.engine_self_ns_per_event",
        budget.engine_s * 1e9 / events,
    );
    let busiest = run.shard_busy_ns.iter().copied().max().unwrap_or(0) as f64 * 1e-9;
    report.put("sim.shard_busy_max_s", busiest);
    report.put(
        "sim.shard_busy_sum_s",
        run.shard_busy_ns.iter().sum::<u64>() as f64 * 1e-9,
    );
    report.put("sim.shard_sync_share", 1.0 - busiest / run.loop_wall_s);

    // Counts, from the (execution-independent) outcome.
    let observed = &run.observed;
    report.put(
        "client.retransmits",
        observed.collector.retransmit_total() as f64,
    );
    report.put("client.aborted", reference.aborted as f64);
    let lb = observed.lb_stats();
    report.put("lb_node.new_flows", lb.new_flows as f64);
    report.put("lb_node.steered", lb.steered as f64);
    report.put("lb_node.missing_flow", lb.missing_flow as f64);
    report.put("flow_state.evicted_active", lb.flow_evicted_active as f64);
    report.put("flow_state.peak_occupancy", lb.flow_peak_occupancy as f64);
    let servers = observed.server_totals();
    let consulted = servers.accepted_by_policy + servers.passed_on;
    report.put(
        "server_node.first_accept_ratio",
        servers.accepted_by_policy as f64 / consulted.max(1) as f64,
    );
    report.put("server_node.passed_on", servers.passed_on as f64);
    report.put(
        "server_node.duplicates_ignored",
        servers.duplicates_ignored as f64,
    );
    drop(run);

    for (name, value) in micro::run_all() {
        report.put(name, value);
    }
    Ok(report)
}
