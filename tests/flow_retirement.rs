//! Flow state ends at the retransmission horizon: servers retire the
//! connection records, and unbounded sweep-less load-balancer tables the
//! entries, that no packet can touch any more.
//!
//! Retirement must change no output, so these tests check the two things
//! that could go wrong: a retired flow being touched again (debug builds
//! count every segment and lookup that reaches a retired flow, and the
//! count must be zero on every committed spec), and state still growing
//! with the length of the run.

use std::path::{Path, PathBuf};

use srlb::core::spec::{ExperimentSpec, WorkloadSpec};
use srlb::core::{RunOutcome, Runner};

fn spec_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs")
}

fn load(stem: &str) -> ExperimentSpec {
    let text = std::fs::read_to_string(spec_dir().join(format!("{stem}.json"))).unwrap();
    serde_json::from_str(&text).unwrap()
}

/// Sets the Poisson query count.
fn with_queries(mut spec: ExperimentSpec, queries: usize) -> ExperimentSpec {
    match &mut spec.workload {
        WorkloadSpec::Poisson { queries: q, .. } | WorkloadSpec::PoissonRate { queries: q, .. } => {
            *q = queries;
        }
        other => panic!("not a Poisson workload: {other:?}"),
    }
    spec
}

fn run(spec: ExperimentSpec) -> RunOutcome {
    Runner::new(spec).expect("committed specs are valid").run()
}

/// Debug builds count every segment and lookup that reaches a retired
/// flow; release builds keep no audit.
#[cfg(debug_assertions)]
mod audit {
    use super::*;

    /// Caps the workload the way `figures -- run` scales a spec: at most
    /// `queries` Poisson queries or `hours` of the Wikipedia replay.
    fn scaled(mut spec: ExperimentSpec, queries: usize, hours: f64) -> ExperimentSpec {
        match &mut spec.workload {
            WorkloadSpec::Poisson { queries: q, .. }
            | WorkloadSpec::PoissonRate { queries: q, .. } => {
                *q = (*q).min(queries);
            }
            WorkloadSpec::Wikipedia { hours: h, .. } => *h = h.min(hours),
            WorkloadSpec::Trace { .. } => {}
        }
        spec
    }

    /// The `--tiny` scale of `figures -- run` (and `--quick`'s, for the one
    /// spec that retransmits enough to matter).
    const TINY: (usize, f64) = (500, 0.05);
    const QUICK: (usize, f64) = (2_000, 0.25);

    #[test]
    fn no_segment_reaches_a_retired_flow_on_any_committed_spec() {
        let mut stems: Vec<String> = std::fs::read_dir(spec_dir())
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        stems.sort();
        assert_eq!(stems.len(), 8, "{stems:?}");
        let runs = stems
            .iter()
            .map(|stem| (stem.as_str(), TINY))
            .chain([("lossy_poisson", QUICK)]);
        for (stem, (queries, hours)) in runs {
            let outcome = run(scaled(load(stem), queries, hours));
            println!(
                "{stem} ({queries} queries): {} sent, {} resident connections, {} resident LB entries, {} retired hits",
                outcome.collector.len(),
                outcome.resident_connections,
                outcome.resident_lb_entries,
                outcome.retired_hits
            );
            assert_eq!(
                outcome.retired_hits, 0,
                "{stem}: a retired flow was touched"
            );
        }
    }
}

/// Resident server connections and LB entries at the end of `stem` run at
/// 1×, 2× and 4× `base` queries.
fn residency(stem: &str, base: usize) -> Vec<(usize, usize)> {
    [1, 2, 4]
        .iter()
        .map(|&times| {
            let outcome = run(with_queries(load(stem), base * times));
            println!(
                "{stem} at {times}x ({} queries): {} resident connections, {} resident LB entries",
                base * times,
                outcome.resident_connections,
                outcome.resident_lb_entries
            );
            #[cfg(debug_assertions)]
            assert_eq!(
                outcome.retired_hits, 0,
                "{stem}: a retired flow was touched"
            );
            (outcome.resident_connections, outcome.resident_lb_entries)
        })
        .collect()
}

/// Flat, not linear: four times the queries may leave at most a little
/// more state than one time, where keeping every flow would leave four
/// times as much.
fn assert_flat(stem: &str, counts: &[(usize, usize)]) {
    let (conns, entries) = counts[0];
    for &(c, e) in &counts[1..] {
        assert!(
            c <= conns * 3 / 2 + 16,
            "{stem}: connections grow: {counts:?}"
        );
        assert!(
            e <= entries * 3 / 2 + 16,
            "{stem}: LB entries grow: {counts:?}"
        );
    }
}

#[test]
fn resident_flow_state_stays_flat_as_runs_grow() {
    // Fault-free: the horizon is a millisecond of path latency, so only the
    // flows still in flight at the end stay.
    let counts = residency("poisson_rho089", 2_000);
    assert_flat("poisson_rho089", &counts);
    assert!(counts[2].0 < 200, "{counts:?}");

    // 1% loss: the horizon spans the client's 13.86 s retransmission
    // budget, about 3 000 flows at this rate; 6 000 queries take 28 s.
    let counts = residency("lossy_poisson", 6_000);
    assert_flat("lossy_poisson", &counts);
}
