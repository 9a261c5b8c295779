//! The repository's benchmark: spec-run throughput on five workloads, with
//! a node-boundary traced budget.  See `benchmark/README.md`.
//!
//! ```text
//! srlb-benchmark run   [--seed N] [--seconds S] [--tiny]   every workload, every metric
//! srlb-benchmark agree [--seed N] [--seconds S] [--tiny]   two sets of runs must agree
//! srlb-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, for the driver
//! ```

mod lowering;
mod measure;
mod micro;
mod report;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use measure::{ChildReport, Plan};
use report::{Stamp, Summary, WorkloadResult, END_TO_END};
use workloads::{Workload, WORKLOADS};

/// Child processes per untraced measurement: that many samples of
/// `setup_s` and `peak_rss_mb`.
const CHILDREN: usize = 3;
/// Timed repetitions per measurement, whatever the time budget.
const MIN_REPETITIONS: usize = 5;
/// Default measuring time per workload; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 9;
const DEFAULT_SEED: u64 = 42;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    min_reps: usize,
    check_batched: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        tiny: false,
        min_reps: 1,
        check_batched: false,
    };
    while let Some(arg) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--min-reps" => {
                args.min_reps = value("a number")?
                    .parse()
                    .map_err(|e| format!("--min-reps: {e}"))?
            }
            "--tiny" => args.tiny = true,
            "--check-batched" => args.check_batched = true,
            command if !command.starts_with("--") && args.command.is_empty() => {
                args.command = command.to_string()
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

impl Args {
    fn named_workload(&self) -> Result<&'static Workload, String> {
        let name = self.workload.as_deref().ok_or("--workload is required")?;
        workloads::find(name).ok_or(format!("unknown workload {name}"))
    }
}

/// Runs one child of this executable and reads its report.
fn spawn_child(
    workload: &Workload,
    args: &Args,
    plan: &Plan,
    trace: bool,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("child")
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &plan.budget.as_secs_f64().to_string()])
        .args(["--min-reps", &plan.min_reps.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.tiny {
        command.arg("--tiny");
    }
    if plan.check_batched {
        command.arg("--check-batched");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} child ended with {}",
            workload.name, output.status
        ));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| format!("child output: {e}"))?;
    let line = text.lines().last().ok_or("child printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("child report: {e}"))
}

/// Measures one workload: `CHILDREN` untraced children sharing the time
/// budget, and/or one traced child with a budget of its own.
fn measure_workload(
    workload: &Workload,
    args: &Args,
    stamp: &Stamp,
    untraced: bool,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let budget = Duration::from_secs_f64(if args.tiny { 0.0 } else { args.seconds });
    let mut timed = Vec::new();
    if untraced {
        // `--tiny`: one child, two repetitions.
        let children = if args.tiny { 1 } else { CHILDREN };
        for child in 0..children {
            let plan = Plan {
                seed: args.seed,
                tiny: args.tiny,
                budget: budget / children as u32,
                min_reps: if args.tiny {
                    2
                } else {
                    MIN_REPETITIONS.div_ceil(children)
                },
                check_batched: child == 0,
            };
            timed.push(spawn_child(workload, args, &plan, false)?);
        }
    }
    let traced = if traced {
        let plan = Plan {
            seed: args.seed,
            tiny: args.tiny,
            budget,
            min_reps: 1,
            check_batched: false,
        };
        Some(spawn_child(workload, args, &plan, true)?)
    } else {
        None
    };
    Ok(WorkloadResult::new(
        workload,
        stamp,
        &timed,
        traced.as_ref(),
    ))
}

fn print_result(name: &str, result: &WorkloadResult) {
    println!(
        "\n== {name} ({}, pool {}, plan {}) ==",
        result.exec_mode,
        result.pool_policy,
        result.shard_plan.as_deref().unwrap_or("single core")
    );
    println!("   {}", result.why);
    if result.exec_mode.starts_with("sharded") && !result.parallel {
        println!("   host_single_core: NOT a parallel result");
    }
    println!(
        "   {} requests per repetition, {} failed, digest {}; {} timed repetitions in {} children",
        result.attempted, result.failed, result.digest, result.repetitions, result.children
    );
    for (metric, d) in &result.end_to_end {
        println!(
            "   {metric:<34} {:>16.6} {:<6} q1 {:.6} q3 {:.6} spread {:.2}% n={} (too few for a percentile above the median)",
            d.median, d.unit, d.q1, d.q3, d.spread() * 100.0, d.samples
        );
    }
    for (metric, m) in &result.per_layer {
        println!("   {metric:<34} {:>16.6} {}", m.value, m.unit);
    }
    for failure in &result.failures {
        println!("   CHECK FAILED: {failure}");
    }
}

/// `run`: every workload, untraced and traced, every metric by name.
fn run_all(args: &Args) -> Result<bool, String> {
    let stamp = Stamp::gather(args.seed, args.tiny);
    let mut results = BTreeMap::new();
    for workload in &WORKLOADS {
        let result = measure_workload(workload, args, &stamp, true, true)?;
        print_result(workload.name, &result);
        results.insert(workload.name.to_string(), result);
    }
    let summary = Summary::new(stamp, results);
    println!("\n{}", summary.to_json());
    Ok(summary.correct)
}

/// The driver's entry: one workload, end-to-end or per-layer metrics, and
/// as the last line the object the driver reads.
fn run_for_driver(args: &Args) -> Result<bool, String> {
    let workload = args.named_workload()?;
    let stamp = Stamp::gather(args.seed, args.tiny);
    let result = measure_workload(workload, args, &stamp, !args.trace, args.trace)?;
    let line = result.driver_line(args.trace);
    let summary = Summary::new(stamp, BTreeMap::from([(workload.name.to_string(), result)]));
    println!("{}", summary.to_json());
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(line.correct)
}

/// `agree`: the untraced set twice on the same build; every end-to-end
/// median of the second must be within its bound of the first, and the
/// exact metrics bit-equal.
fn agree(args: &Args) -> Result<bool, String> {
    let stamp = Stamp::gather(args.seed, args.tiny);
    let mut agreed = true;
    for workload in &WORKLOADS {
        let first = measure_workload(workload, args, &stamp, true, false)?;
        let second = measure_workload(workload, args, &stamp, true, false)?;
        println!("\n== {} ==", workload.name);
        for failure in first.failures.iter().chain(&second.failures) {
            println!("   CHECK FAILED: {failure}");
            agreed = false;
        }
        if first.digest != second.digest {
            println!("   DISAGREE: digest {} vs {}", first.digest, second.digest);
            agreed = false;
        }
        for metric in &END_TO_END {
            let (a, b) = (
                &first.end_to_end[metric.name],
                &second.end_to_end[metric.name],
            );
            let worse = stats::worse_by(metric.better, a.median, b.median);
            let ok = if metric.exact {
                a.median.to_bits() == b.median.to_bits()
            } else {
                // Neither side is privileged: each must be within the bound of the other.
                worse <= metric.bound
                    && stats::within_bound(metric.better, metric.bound, b.median, a.median)
            };
            println!(
                "   {:<22} {:>16.6} [{:.6}, {:.6}] n={} | {:>16.6} [{:.6}, {:.6}] n={} {:<5} second worse by {:+.2}% (bound {}) {}",
                metric.name, a.median, a.q1, a.q3, a.samples, b.median, b.q1, b.q3, b.samples,
                metric.unit, worse * 100.0,
                if metric.exact { "exact".to_string() } else { format!("{}%", metric.bound * 100.0) },
                if ok { "ok" } else { "DISAGREE" }
            );
            agreed &= ok;
        }
    }
    println!("\nagree: {}", if agreed { "PASS" } else { "FAIL" });
    Ok(agreed)
}

/// The internal `child` command: measure, print the report as one line.
fn child(args: &Args, process_start: Instant) -> Result<bool, String> {
    let workload = args.named_workload()?;
    let plan = Plan {
        seed: args.seed,
        tiny: args.tiny,
        budget: Duration::from_secs_f64(args.seconds),
        min_reps: args.min_reps,
        check_batched: args.check_batched,
    };
    let report = if args.trace {
        measure::traced(workload, &plan)?
    } else {
        measure::timed(workload, &plan, process_start)?
    };
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(true)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| match args.command.as_str() {
        "run" => run_all(&args),
        "agree" => agree(&args),
        "child" => child(&args, process_start),
        "" if args.workload.is_some() => run_for_driver(&args),
        other => Err(format!(
            "unknown command `{other}`: use `run`, `agree`, or `--workload <name> --seed <n> --seconds <s> --trace <0|1>`"
        )),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("srlb-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse("--workload wiki_replay --seed 7 --seconds 9 --trace 1").expect("parses");
        assert_eq!(args.command, "");
        assert_eq!(args.named_workload().expect("known").name, "wiki_replay");
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.tiny),
            (7, 9.0, true, false)
        );
    }

    #[test]
    fn subcommands_flags_and_defaults_parse() {
        let args = parse("run --tiny").expect("parses");
        assert_eq!(
            (args.command.as_str(), args.tiny, args.seed),
            ("run", true, DEFAULT_SEED)
        );
        assert!(parse("run --bogus").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--workload nope")
            .expect("parses")
            .named_workload()
            .is_err());
    }
}
