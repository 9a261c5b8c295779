//! Regenerates the paper's figures and runs committed experiment specs.
//!
//! ```text
//! cargo run -p srlb-bench --release --bin figures -- all             # every figure, paper scale
//! cargo run -p srlb-bench --release --bin figures -- fig2 --quick    # one figure, reduced scale
//! cargo run -p srlb-bench --release --bin figures -- all --jobs 4    # explicit worker count
//! cargo run -p srlb-bench --release --bin figures -- all --sim-threads 2  # shard each simulation
//! cargo run -p srlb-bench --release --bin figures -- bench-micro     # write BENCH_micro.json
//! cargo run -p srlb-bench --release --bin figures -- bench-macro     # write BENCH_macro.json
//! cargo run -p srlb-bench --release --bin figures -- bench-check     # sharded-vs-serial perf guard
//! cargo run -p srlb-bench --release --bin figures -- run examples/specs/poisson_rho089.json
//! cargo run -p srlb-bench --release --bin figures -- run <spec> --tiny  # scaled-down smoke run
//! cargo run -p srlb-bench --release --bin figures -- write-specs    # regenerate examples/specs/
//! ```
//!
//! Each figure's series is printed to stdout (policy labels, x/y columns)
//! and written as CSV under `target/figures/`, so the curves can be plotted
//! and compared against the paper's Figures 2–8 (plus fig9, a deferred
//! fault-injection figure with no paper counterpart).
//!
//! The `(policy, ρ)` sweep runs across `--jobs` worker threads (default:
//! the machine's available parallelism).  Results are assembled in input order, so the output is
//! byte-identical whatever the worker count; `--jobs 1` forces the fully
//! serial, single-threaded schedule for constrained CI runners.
//!
//! Orthogonally, `--sim-threads N` shards every *individual* simulation
//! across `N` worker threads (the conservative-window parallel event core;
//! the flag travels to every runner as an `ExecMode` value).  Simulation
//! outputs are byte-identical at every thread count, so `--jobs` ×
//! `--sim-threads` is a pure throughput matrix.
//!
//! A report or CSV that cannot be written is an error (exit status 1): CI
//! byte-diffs these files, and a stale one must not pass for a fresh one.

#![warn(unreachable_pub)]

use srlb_bench::output::fmt;
use srlb_bench::{
    default_jobs, fig2_mean_response, fig3_cdf_high_load, fig4_load_fairness, fig5_cdf_low_load,
    fig6_wiki_median, fig8_wiki_cdf, fig9_rackzone_hunting, write_bench_micro, write_csv, Scale,
    Sweep,
};
use srlb_sim::ExecMode;

const SEED: u64 = 42;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let tiny = args.iter().any(|a| a == "--tiny");
    let scale = if tiny {
        Scale::Tiny
    } else if quick {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let (jobs, sim_threads, which) = parse_args(&args);
    let sweep = Sweep {
        scale,
        seed: SEED,
        jobs: jobs.unwrap_or_else(default_jobs),
        exec: match sim_threads {
            Some(threads) if threads > 1 => ExecMode::Sharded { threads },
            _ => ExecMode::Batched,
        },
    };

    // `run <spec.json>` and `write-specs [dir]` take positional operands of
    // their own, so they are dispatched before figure-name validation.
    if which.first() == Some(&"run") {
        run_spec_command(&which[1..], sweep);
        return;
    }
    if which.first() == Some(&"write-specs") {
        write_specs_command(&which[1..]);
        return;
    }

    const KNOWN: [&str; 13] = [
        "all",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "bench-micro",
        "bench-macro",
        "bench-check",
        "scenarios",
    ];
    if let Some(unknown) = which.iter().find(|name| !KNOWN.contains(name)) {
        eprintln!(
            "error: unknown command `{unknown}` (expected `run <spec.json>`, `write-specs` or \
             one of: {KNOWN:?})"
        );
        std::process::exit(2);
    }

    if which.contains(&"bench-micro") {
        run_bench_micro();
        return;
    }

    if which.contains(&"bench-check") {
        run_bench_check();
        return;
    }

    if which.contains(&"bench-macro") {
        run_bench_macro(sweep);
        return;
    }

    if which.contains(&"scenarios") {
        run_scenarios_sweep(sweep);
        return;
    }

    let all = which.is_empty() || which.contains(&"all");
    let want = |name: &str| all || which.contains(&name);

    println!(
        "# SRLB figure harness (scale: {scale:?}, seed: {SEED}, jobs: {}, sim: {:?})",
        sweep.jobs, sweep.exec
    );

    if want("fig2") {
        run_fig2(sweep);
    }
    if want("fig3") {
        run_poisson_cdf("fig3", 0.88, fig3_cdf_high_load(sweep));
    }
    if want("fig4") {
        run_fig4(sweep);
    }
    if want("fig5") {
        run_poisson_cdf("fig5", 0.61, fig5_cdf_low_load(sweep));
    }
    if want("fig6") || want("fig7") {
        run_fig6_and_7(sweep);
    }
    if want("fig8") {
        run_fig8(sweep);
    }
    if want("fig9") {
        run_fig9(sweep);
    }
}

/// Splits the command line into the optional `--jobs` worker count, the
/// optional `--sim-threads` per-simulation shard count (both accepting
/// `--flag 4` and `--flag=4`) and the positional figure names.  Only the
/// token actually consumed as a flag's value is removed from the
/// positionals; a malformed value aborts loudly instead of being silently
/// reinterpreted.
fn parse_args(args: &[String]) -> (Option<usize>, Option<usize>, Vec<&str>) {
    let mut jobs = None;
    let mut sim_threads = None;
    let mut which = Vec::new();
    let bad = |flag: &str, value: &str| -> ! {
        eprintln!("error: {flag} expects a positive integer, got `{value}`");
        std::process::exit(2);
    };
    let parse = |flag: &str, value: &str| -> usize {
        match value.parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => bad(flag, value),
        }
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(value) = arg.strip_prefix("--jobs=") {
            jobs = Some(parse("--jobs", value));
        } else if arg == "--jobs" {
            let Some(value) = args.get(i + 1) else {
                bad("--jobs", "<missing>");
            };
            jobs = Some(parse("--jobs", value));
            i += 1; // consume the value token
        } else if let Some(value) = arg.strip_prefix("--sim-threads=") {
            sim_threads = Some(parse("--sim-threads", value));
        } else if arg == "--sim-threads" {
            let Some(value) = args.get(i + 1) else {
                bad("--sim-threads", "<missing>");
            };
            sim_threads = Some(parse("--sim-threads", value));
            i += 1; // consume the value token
        } else if !arg.starts_with("--") {
            which.push(arg);
        }
        i += 1;
    }
    (jobs, sim_threads, which)
}

/// `figures -- run <spec.json> [--quick|--tiny]`: execute one committed
/// [`srlb_core::spec::ExperimentSpec`], print the summary and write a
/// machine-readable report next to the figure CSVs.
fn run_spec_command(operands: &[&str], sweep: Sweep) {
    let scale = sweep.scale;
    let [path] = operands else {
        eprintln!("error: `run` expects exactly one spec file, got {operands:?}");
        std::process::exit(2);
    };
    let path = std::path::Path::new(path);
    println!(
        "# SRLB spec runner (spec: {}, scale: {scale:?})",
        path.display()
    );
    let report = match srlb_bench::run_spec_file(path, scale, sweep.exec) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: could not run {}: {err}", path.display());
            std::process::exit(1);
        }
    };
    println!(
        "{:<22} {:<12} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "spec", "policy", "sent", "done", "resets", "mean-ms", "p99-ms", "dur-s"
    );
    println!(
        "{:<22} {:<12} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9.1}",
        report.name,
        report.label,
        report.sent,
        report.completed,
        report.resets,
        report
            .mean_response_ms
            .map_or("-".to_string(), |ms| format!("{ms:.1}")),
        report
            .p99_response_ms
            .map_or("-".to_string(), |ms| format!("{ms:.1}")),
        report.duration_seconds,
    );
    for phase in &report.phases {
        println!(
            "  phase {:<20} sent {:>6} done {:>6} resets {:>5} p99 {:>8.1} ms fairness {:>5.3}",
            phase.label,
            phase.sent,
            phase.completed,
            phase.resets,
            phase.p99_response_ms,
            phase.fairness,
        );
    }
    if let Some(plan) = &report.shard_plan {
        // Stdout only: the plan names the execution mode, which the
        // byte-diffed report JSON must stay blind to.
        println!("  shard plan: {plan}");
    }
    let dir = std::path::Path::new(srlb_bench::FIGURES_DIR);
    report_write(srlb_bench::write_spec_report(dir, &report));
}

/// `figures -- write-specs [dir]`: regenerate the canonical example specs
/// (default: `examples/specs/` at the workspace root).
fn write_specs_command(operands: &[&str]) {
    let dir = match operands {
        [] => srlb_bench::micro::workspace_root().join("examples/specs"),
        [dir] => std::path::PathBuf::from(dir),
        more => {
            eprintln!("error: `write-specs` expects at most one directory, got {more:?}");
            std::process::exit(2);
        }
    };
    match srlb_bench::write_example_specs(&dir) {
        Ok(paths) => {
            for path in paths {
                println!("  -> wrote {}", path.display());
            }
        }
        Err(err) => {
            eprintln!("error: could not write specs: {err}");
            std::process::exit(1);
        }
    }
}

/// `figures -- bench-macro [--quick|--tiny]`: the million-flow flow-state
/// macro-bench plus the load-aware policy ablation.  Full scale writes the
/// committed `BENCH_macro.json` at the workspace root; reduced scales
/// write under `target/figures/` with timing fields zeroed, so two runs
/// (any `--sim-threads`) are byte-identical — CI diffs them.
fn run_bench_macro(sweep: Sweep) {
    println!(
        "# SRLB macro-bench harness (scale: {:?}, seed: {SEED}, sim: {:?})",
        sweep.scale, sweep.exec
    );
    let report = srlb_bench::run_macro_bench(sweep);
    let fs = &report.flow_scale;
    println!(
        "flow-scale: {} flows -> {} x {} slots, timeout {:.0} ms",
        fs.distinct_flows,
        fs.instances,
        fs.capacity_per_instance,
        fs.idle_timeout_ns as f64 / 1e6,
    );
    println!(
        "  learns/s {:>12.0}   lookups/s {:>12.0}   resident {:>10} B",
        fs.learns_per_sec, fs.lookups_per_sec, fs.resident_bytes
    );
    println!(
        "  hits {:>8} misses {:>8} evicted(expired/idle/active) {}/{}/{} expired {:>8}",
        fs.lookup_hits,
        fs.lookup_misses,
        fs.evicted_expired,
        fs.evicted_idle,
        fs.evicted_active,
        fs.expired,
    );
    println!(
        "\n{:<12} {:>5} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "policy", "rho", "sent", "done", "mean-ms", "p95-ms", "p99-ms"
    );
    for cell in &report.ablation {
        println!(
            "{:<12} {:>5.2} {:>7} {:>7} {:>9.1} {:>9.1} {:>9.1}",
            cell.policy,
            cell.rho,
            cell.sent,
            cell.completed,
            cell.mean_response_ms,
            cell.p95_response_ms,
            cell.p99_response_ms,
        );
    }
    report_write(write_csv(
        "bench_macro_flow_scale",
        &[
            "distinct_flows",
            "capacity_per_instance",
            "lookup_hits",
            "lookup_misses",
            "evicted_expired",
            "evicted_idle",
            "evicted_active",
            "expired",
            "peak_occupancy",
            "resident_bytes",
        ],
        &[vec![
            fs.distinct_flows.to_string(),
            fs.capacity_per_instance.to_string(),
            fs.lookup_hits.to_string(),
            fs.lookup_misses.to_string(),
            fs.evicted_expired.to_string(),
            fs.evicted_idle.to_string(),
            fs.evicted_active.to_string(),
            fs.expired.to_string(),
            fs.peak_occupancy.to_string(),
            fs.resident_bytes.to_string(),
        ]],
    ));
    let rows: Vec<Vec<String>> = report
        .ablation
        .iter()
        .map(|c| {
            vec![
                c.policy.clone(),
                fmt(c.rho),
                c.sent.to_string(),
                c.completed.to_string(),
                fmt(c.mean_response_ms),
                fmt(c.p95_response_ms),
                fmt(c.p99_response_ms),
            ]
        })
        .collect();
    report_write(write_csv(
        "bench_macro_ablation",
        &[
            "policy",
            "rho",
            "sent",
            "completed",
            "mean_ms",
            "p95_ms",
            "p99_ms",
        ],
        &rows,
    ));
    let dir = if sweep.scale == Scale::Paper {
        srlb_bench::micro::workspace_root()
    } else {
        std::path::PathBuf::from(srlb_bench::FIGURES_DIR)
    };
    report_write(srlb_bench::write_bench_macro(&dir, &report));
}

fn run_bench_micro() {
    println!("# SRLB micro-bench harness (medians, ns/iter)");
    let written = write_bench_micro(&srlb_bench::micro::workspace_root());
    if let Ok(path) = &written {
        let content = std::fs::read_to_string(path).unwrap_or_default();
        println!("{}", content.trim_end());
    }
    report_write(written);
}

fn run_bench_check() {
    println!("# SRLB sharded-throughput guard");
    match srlb_bench::micro::check_sharded_throughput() {
        Ok(summary) => println!("  ok: {summary}"),
        Err(err) => {
            eprintln!("  !! {err}");
            std::process::exit(1);
        }
    }
}

fn run_scenarios_sweep(sweep: Sweep) {
    println!(
        "# SRLB dynamic-cluster scenario sweep (scale: {:?}, seed: {SEED}, jobs: {})",
        sweep.scale, sweep.jobs
    );
    let doc = srlb_bench::run_scenarios(sweep);
    println!(
        "{:<16} {:<22} {:>6} {:>6} {:>7} {:>7} {:>8} {:>8}",
        "scenario", "dispatcher", "sent", "done", "broken", "orphans", "rehunts", "recon-ms"
    );
    for report in &doc.scenarios {
        println!(
            "{:<16} {:<22} {:>6} {:>6} {:>7} {:>7} {:>8} {:>8}",
            report.name,
            report.dispatcher,
            report.sent,
            report.completed,
            report.broken_established,
            report.orphaned,
            report.rehunts,
            report
                .reconstruction_ms
                .map_or("-".to_string(), |ms| format!("{ms:.1}")),
        );
    }
    println!("\n## single-server churn remapping probes (8192 flows, 12-server base)");
    for remap in &doc.remap {
        println!(
            "{:<16} {:<12} moved {:>6} ({:>6.3}) collateral {:>5} ({:>6.3})",
            remap.dispatcher,
            remap.op,
            remap.moved,
            remap.moved_fraction,
            remap.collateral,
            remap.collateral_fraction,
        );
    }
    println!("\n## ECMP reshuffle sweep (dispatcher x LB tier size, one instance withdrawn)");
    println!(
        "{:<16} {:>4} {:>6} {:>6} {:>7} {:>7} {:>8}",
        "dispatcher", "lbs", "sent", "done", "broken", "orphans", "rehunts"
    );
    for cell in &doc.ecmp_reshuffle {
        println!(
            "{:<16} {:>4} {:>6} {:>6} {:>7} {:>7} {:>8}",
            cell.dispatcher,
            cell.lb_count,
            cell.report.sent,
            cell.report.completed,
            cell.report.broken_established,
            cell.report.orphaned,
            cell.report.rehunts,
        );
    }
    println!("\n## fault-injection sweep (lossy failover, incast, saturated uplink)");
    println!(
        "{:<20} {:<22} {:>6} {:>6} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "scenario", "dispatcher", "sent", "done", "resets", "drops", "queue", "retx", "aborted"
    );
    for report in &doc.faults {
        println!(
            "{:<20} {:<22} {:>6} {:>6} {:>7} {:>7} {:>7} {:>7} {:>7}",
            report.name,
            report.dispatcher,
            report.sent,
            report.completed,
            report.resets,
            report.dropped_injected,
            report.dropped_queue,
            report.retransmits,
            report.aborted,
        );
    }
    report_write(srlb_bench::write_bench_scenarios(
        &srlb_bench::micro::workspace_root(),
        &doc,
    ));
}

fn run_fig2(sweep: Sweep) {
    println!("\n## Figure 2 — mean response time vs load factor rho");
    let series = fig2_mean_response(sweep);
    let mut rows = Vec::new();
    println!("{:<8} {:>6} {:>12}", "policy", "rho", "mean (s)");
    for s in &series {
        for (rho, mean) in &s.points {
            println!("{:<8} {:>6.2} {:>12.4}", s.label, rho, mean);
            rows.push(vec![s.label.clone(), fmt(*rho), fmt(*mean)]);
        }
    }
    report_write(write_csv(
        "fig2_mean_response",
        &["policy", "rho", "mean_s"],
        &rows,
    ));
}

fn run_poisson_cdf(name: &str, rho: f64, series: Vec<srlb_bench::CdfSeries>) {
    println!(
        "\n## Figure {} — CDF of response time, rho = {rho}",
        &name[3..]
    );
    println!("{:<8} {:>12} {:>12}", "policy", "median (s)", "Q3 (s)");
    let mut rows = Vec::new();
    for s in &series {
        println!(
            "{:<8} {:>12.4} {:>12.4}",
            s.label, s.median_s, s.third_quartile_s
        );
        for (x, p) in &s.points {
            rows.push(vec![s.label.clone(), fmt(*x), fmt(*p)]);
        }
    }
    report_write(write_csv(name, &["policy", "response_s", "cdf"], &rows));
}

fn run_fig4(sweep: Sweep) {
    println!("\n## Figure 4 — instantaneous server load (mean & fairness), rho = 0.88");
    let series = fig4_load_fairness(sweep);
    let mut rows = Vec::new();
    for s in &series {
        let mean_of_means: f64 =
            s.points.iter().map(|p| p.1).sum::<f64>() / s.points.len().max(1) as f64;
        let mean_fairness: f64 =
            s.points.iter().map(|p| p.2).sum::<f64>() / s.points.len().max(1) as f64;
        println!(
            "{:<8} time-average busy workers: {:>6.2}   time-average fairness: {:>5.3}",
            s.label, mean_of_means, mean_fairness
        );
        for (t, mean, fairness) in &s.points {
            rows.push(vec![s.label.clone(), fmt(*t), fmt(*mean), fmt(*fairness)]);
        }
    }
    report_write(write_csv(
        "fig4_load_fairness",
        &["policy", "time_s", "mean_busy", "fairness"],
        &rows,
    ));
}

fn run_fig6_and_7(sweep: Sweep) {
    println!("\n## Figures 6 & 7 — Wikipedia replay: rate, median and deciles per bin");
    let series = fig6_wiki_median(sweep);
    let mut rows6 = Vec::new();
    let mut rows7 = Vec::new();
    for s in &series {
        let overall_median: f64 = {
            let mut medians: Vec<f64> = s.bins.iter().map(|b| b.2).filter(|m| *m > 0.0).collect();
            medians.sort_by(|a, b| a.partial_cmp(b).unwrap());
            medians.get(medians.len() / 2).copied().unwrap_or(0.0)
        };
        println!(
            "{:<8} bins: {:>4}   mean wiki-page rate: {:>6.1}/s   typical median: {:>6.3} s",
            s.label,
            s.bins.len(),
            s.bins.iter().map(|b| b.1).sum::<f64>() / s.bins.len().max(1) as f64,
            overall_median
        );
        for (start, rate, median) in &s.bins {
            rows6.push(vec![s.label.clone(), fmt(*start), fmt(*rate), fmt(*median)]);
        }
        for (start, deciles) in &s.deciles {
            let mut row = vec![s.label.clone(), fmt(*start)];
            row.extend(deciles.iter().map(|d| fmt(*d)));
            rows7.push(row);
        }
    }
    report_write(write_csv(
        "fig6_wiki_median",
        &["policy", "bin_start_s", "wiki_rate_per_s", "median_s"],
        &rows6,
    ));
    report_write(write_csv(
        "fig7_wiki_deciles",
        &[
            "policy",
            "bin_start_s",
            "d1",
            "d2",
            "d3",
            "d4",
            "d5",
            "d6",
            "d7",
            "d8",
            "d9",
        ],
        &rows7,
    ));
}

fn run_fig8(sweep: Sweep) {
    println!("\n## Figure 8 — CDF of wiki-page load time over the whole replay");
    let result = fig8_wiki_cdf(sweep);
    println!("{:<8} {:>12} {:>12}", "policy", "median (s)", "Q3 (s)");
    let mut rows = Vec::new();
    for s in &result.series {
        println!(
            "{:<8} {:>12.4} {:>12.4}",
            s.label, s.median_s, s.third_quartile_s
        );
        for (x, p) in &s.points {
            rows.push(vec![s.label.clone(), fmt(*x), fmt(*p)]);
        }
    }
    report_write(write_csv(
        "fig8_wiki_cdf",
        &["policy", "response_s", "cdf"],
        &rows,
    ));
}

fn run_fig9(sweep: Sweep) {
    println!("\n## Figure 9 — hunting cost vs rack placement x LB tier spread (1% loss column)");
    let cells = fig9_rackzone_hunting(sweep);
    println!(
        "{:<10} {:>4} {:>6} {:>6} {:>6} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7}",
        "topology",
        "lbs",
        "lossy",
        "sent",
        "done",
        "mean-ms",
        "p99-ms",
        "hunts",
        "rehunts",
        "drops",
        "retx"
    );
    let mut rows = Vec::new();
    for c in &cells {
        println!(
            "{:<10} {:>4} {:>6} {:>6} {:>6} {:>9.1} {:>9.1} {:>8} {:>8} {:>7} {:>7}",
            c.topology,
            c.lb_count,
            c.lossy,
            c.sent,
            c.completed,
            c.mean_response_ms,
            c.p99_response_ms,
            c.passed_on,
            c.rehunts,
            c.dropped_injected,
            c.retransmits,
        );
        rows.push(vec![
            c.topology.clone(),
            c.lb_count.to_string(),
            c.lossy.to_string(),
            c.sent.to_string(),
            c.completed.to_string(),
            fmt(c.mean_response_ms),
            fmt(c.p99_response_ms),
            c.passed_on.to_string(),
            c.rehunts.to_string(),
            c.dropped_injected.to_string(),
            c.retransmits.to_string(),
            c.aborted.to_string(),
        ]);
    }
    report_write(write_csv(
        "fig9_rackzone_hunting",
        &[
            "topology",
            "lb_count",
            "lossy",
            "sent",
            "completed",
            "mean_ms",
            "p99_ms",
            "passed_on",
            "rehunts",
            "dropped_injected",
            "retransmits",
            "aborted",
        ],
        &rows,
    ));
}

/// Reports where an output file landed — or exits with status 1 if it could
/// not be written, so a byte-diff downstream never compares a stale file.
fn report_write(result: std::io::Result<std::path::PathBuf>) {
    match result {
        Ok(path) => println!("  -> wrote {}", path.display()),
        Err(err) => {
            eprintln!("error: could not write output: {err}");
            std::process::exit(1);
        }
    }
}
