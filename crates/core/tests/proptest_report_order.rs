//! Regression: report assembly is deterministic when requests are left
//! unfinished.
//!
//! PR 6 caught `ClientNode::into_collector` draining its leftover
//! in-flight records in randomized `HashMap` order, so any run that
//! orphans flows (server churn under the random dispatcher with flow
//! recovery off) could serialize its unfinished records differently from
//! one process to the next.  The field is a `BTreeMap` now — these
//! replays pin the fixed path: runs that exercise the leftover drain must
//! be byte-identical across repeated executions *and* across every
//! execution mode.

use proptest::prelude::*;
use srlb_core::spec::{ExperimentSpec, PolicyKind, ScenarioEvent};
use srlb_core::{RunOutcome, Runner};
use srlb_metrics::RequestOutcome;
use srlb_sim::{ExecMode, PoolPolicy};

/// Serializes everything observable about an outcome, per-request records
/// included — the order leftover records were drained in is part of it.
/// `shard_plan` is left out: it describes how the run was executed, not
/// what it computed, and differs between modes by design.
fn fingerprint(outcome: &RunOutcome) -> String {
    let mut outcome = outcome.clone();
    outcome.shard_plan = None;
    format!("{outcome:?}")
}

/// A spec shaped to orphan established flows: the random dispatcher keeps
/// no flow→server consistency across rebuilds, recovery is off (the
/// default) and a mid-run server removal strands every flow pinned to the
/// removed server, so their requests end the run still in flight.
fn orphaning_spec(rho: f64, seed: u64, churn_at: f64, server: u32) -> ExperimentSpec {
    ExperimentSpec::poisson_paper(
        rho,
        PolicyKind::Explicit {
            dispatcher: srlb_core::DispatcherConfig::Random { k: 2 },
            acceptance: srlb_server::PolicyConfig::Static { threshold: 4 },
        },
    )
    .with_queries(100)
    .with_seed(seed)
    .at(churn_at, ScenarioEvent::RemoveServer { server })
}

fn unfinished_count(outcome: &RunOutcome) -> usize {
    outcome
        .collector
        .records()
        .iter()
        .filter(|r| r.outcome == RequestOutcome::Unfinished)
        .count()
}

/// Deterministic guard that the generator actually reaches the leftover
/// drain: with this pinned spec some requests must end unfinished, and
/// their records — sent in request-id order — must drain back out in that
/// same order.
#[test]
fn pinned_orphaning_run_exercises_the_leftover_drain() {
    let outcome = Runner::new(orphaning_spec(0.8, 7, 0.15, 1))
        .unwrap()
        .with_exec(ExecMode::SerialStep)
        .run();
    assert!(
        unfinished_count(&outcome) > 0,
        "spec was expected to orphan at least one flow"
    );
    // Leftovers drain after all terminal records, ordered by request id;
    // ids are assigned in arrival order, so their send times ascend.
    let unfinished_sent: Vec<f64> = outcome
        .collector
        .records()
        .iter()
        .filter(|r| r.outcome == RequestOutcome::Unfinished)
        .map(|r| r.sent_at_seconds)
        .collect();
    let mut sorted = unfinished_sent.clone();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(unfinished_sent, sorted, "leftover drain must be id-ordered");
}

proptest! {
    /// Random orphaning runs serialize identically on repeated execution
    /// (per-instance hash randomness would already break this) and across
    /// all execution modes.
    #[test]
    fn leftover_drain_is_identical_across_exec_modes(
        rho in 0.5f64..0.9,
        seed in 0u64..400,
        churn_at in 0.1f64..0.5,
        server in 0u32..4,
    ) {
        let spec = orphaning_spec(rho, seed, churn_at, server);
        let reference_outcome = Runner::new(spec.clone())
            .unwrap()
            .with_exec(ExecMode::SerialStep)
            .run();
        let reference = fingerprint(&reference_outcome);
        // Same mode, fresh process state: a randomized container anywhere
        // in the report path would diverge here.
        let rerun = Runner::new(spec.clone())
            .unwrap()
            .with_exec(ExecMode::SerialStep)
            .run();
        prop_assert_eq!(&fingerprint(&rerun), &reference, "rerun diverged");
        for exec in [
            ExecMode::Batched,
            ExecMode::Sharded { threads: 1 },
            ExecMode::Sharded { threads: 2 },
            ExecMode::Sharded { threads: 4 },
        ] {
            // Forced, so the sharded arms run the worker pool on a one-core
            // host too instead of collapsing to the batched loop.
            let outcome = Runner::new(spec.clone())
                .unwrap()
                .with_exec(exec)
                .with_pool_policy(PoolPolicy::Force)
                .run();
            prop_assert_eq!(
                &fingerprint(&outcome),
                &reference,
                "{:?} diverged from the serial loop",
                exec
            );
        }
    }
}
