//! Parses every line of the committed `BENCH_history.jsonl`: the append-only
//! trajectory of the repository's benchmark (`benchmark/`, `BENCHMARK.json`)
//! across perf PRs — one JSON object per line, oldest first.
//!
//! A row is what a reader needs to compare two PRs without digging through
//! README prose: which commit, on how many cores, under which pool policy,
//! and the six end-to-end medians of each workload.  A metric the source
//! prose did not record is `null`, never a guess.

use std::collections::BTreeMap;

use serde::Deserialize;

/// One line of `BENCH_history.jsonl`.
#[derive(Debug, Deserialize)]
struct HistoryRow {
    /// Format version of the row.
    schema: u32,
    /// The PR the row describes.
    pr: u32,
    /// The measured commit (short hash); `null` for the row committed *by*
    /// the PR it describes, which `parent` then identifies.
    commit: Option<String>,
    /// The commit the PR was measured against.
    parent: String,
    /// The PR in whose session the row was measured (a PR's "before" column
    /// is its parent's row).
    session_pr: u32,
    /// `std::thread::available_parallelism()` of the measuring host.
    host_cores: usize,
    /// Benchmark seed of the medians.
    seed: u64,
    /// How the medians were taken, and where the numbers come from.
    protocol: String,
    /// Per workload: execution mode, pool policy and the six medians.
    workloads: BTreeMap<String, WorkloadRow>,
}

#[derive(Debug, Deserialize)]
struct WorkloadRow {
    /// As the benchmark stamps them: `batched` / `sharded2`, `never` / `force`.
    exec_mode: String,
    pool_policy: String,
    /// The parent commit's `requests_per_s` median in the same session — the
    /// base of the PR's speed-up; `null` where no parent was measured.
    parent_requests_per_s: Option<f64>,
    /// Metric name → median, `null` where the source did not record it.
    end_to_end: BTreeMap<String, Option<f64>>,
}

/// The workloads and end-to-end metrics `BENCHMARK.json` declares.
const WORKLOADS: [&str; 5] = [
    "lossy_bounded",
    "poisson_paper",
    "rackzone_batched",
    "rackzone_sharded2",
    "wiki_replay",
];
const END_TO_END: [&str; 6] = [
    "completed_share",
    "peak_rss_mb",
    "requests_per_s",
    "setup_s",
    "sim_mean_response_ms",
    "sim_p99_response_ms",
];

#[test]
fn every_history_line_parses_and_rows_are_complete_and_ordered() {
    let path = srlb_bench::micro::workspace_root().join("BENCH_history.jsonl");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} is missing: {e}", path.display()));
    let rows: Vec<HistoryRow> = text
        .lines()
        .enumerate()
        .map(|(n, line)| {
            serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("BENCH_history.jsonl line {}: {e}", n + 1))
        })
        .collect();
    assert!(rows.len() >= 4, "seeded with the PR 11 / 12 / 15 / 16 rows");

    for row in &rows {
        assert_eq!(row.schema, 1, "PR {}", row.pr);
        assert!(row.host_cores >= 1 && !row.parent.is_empty() && !row.protocol.is_empty());
        assert!(row.commit.as_deref().is_none_or(|c| !c.is_empty()));
        assert!(row.session_pr >= row.pr);
        let names: Vec<&str> = row.workloads.keys().map(String::as_str).collect();
        assert_eq!(names, WORKLOADS, "PR {}: every declared workload", row.pr);
        for (name, workload) in &row.workloads {
            assert!(!workload.exec_mode.is_empty() && !workload.pool_policy.is_empty());
            let metrics: Vec<&str> = workload.end_to_end.keys().map(String::as_str).collect();
            assert_eq!(metrics, END_TO_END, "PR {} {name}: all six metrics", row.pr);
            let rate = workload.end_to_end["requests_per_s"];
            assert!(
                rate.is_some_and(|r| r > 0.0),
                "PR {} {name}: requests_per_s is what every row records",
                row.pr
            );
            assert!(workload.parent_requests_per_s.is_none_or(|r| r > 0.0));
            assert!(workload
                .end_to_end
                .values()
                .flatten()
                .all(|v| v.is_finite()));
        }
    }
    // Append-only: rows are in PR order, and one seed runs through the file
    // so that neighbouring rows compare like with like.
    assert!(rows.windows(2).all(|pair| pair[0].pr < pair[1].pr));
    assert!(rows.iter().all(|row| row.seed == rows[0].seed));
}
