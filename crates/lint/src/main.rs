//! The `srlb-lint` command-line interface.
//!
//! ```text
//! srlb-lint [--format human|json] [--root DIR] [PATH…]
//! ```
//!
//! With no paths, lints the workspace's default scan set (the root
//! facade's `src/` and every `crates/*/src/` tree) under the workspace
//! scoping policy.  Explicit paths (files or directories) are linted
//! instead when given.  Exit code 0 means no findings, 1 means findings,
//! 2 means a usage or I/O error.

#![warn(unreachable_pub)]

use std::path::PathBuf;
use std::process::ExitCode;

use srlb_lint::{lint_paths, lint_workspace, scan_pub_users, Finding, LintConfig};

/// Report serialized by `--format json`.
#[derive(serde::Serialize)]
struct JsonReport {
    /// Schema version of this report.
    schema: u32,
    /// Number of findings (equals `findings.len()`).
    total: usize,
    /// Every finding, sorted by file, line and column.
    findings: Vec<Finding>,
}

fn main() -> ExitCode {
    let mut format_json = false;
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("human") => format_json = false,
                other => {
                    eprintln!("srlb-lint: --format expects `human` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("srlb-lint: --root expects a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: srlb-lint [--format human|json] [--root DIR] [PATH...]");
                return ExitCode::SUCCESS;
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("srlb-lint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match srlb_lint::scan::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("srlb-lint: no workspace Cargo.toml above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let mut config = LintConfig::workspace();
    match scan_pub_users(&root) {
        Ok(users) => config.pub_users = Some(users),
        Err(e) => {
            eprintln!("srlb-lint: {e}");
            return ExitCode::from(2);
        }
    }
    let result = if paths.is_empty() {
        lint_workspace(&root, &config)
    } else {
        lint_paths(&root, &paths, &config)
    };
    let mut findings = match result {
        Ok(f) => f,
        Err(e) => {
            eprintln!("srlb-lint: {e}");
            return ExitCode::from(2);
        }
    };
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });

    if format_json {
        let report = JsonReport {
            schema: 1,
            total: findings.len(),
            findings: findings.clone(),
        };
        match serde_json::to_string(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("srlb-lint: serialization failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        for f in &findings {
            println!(
                "{}:{}:{}: [{}] {}",
                f.file,
                f.line,
                f.col,
                f.rule.id(),
                f.message
            );
        }
        if findings.is_empty() {
            println!("srlb-lint: clean — no unsuppressed findings");
        } else {
            println!("srlb-lint: {} finding(s)", findings.len());
        }
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
