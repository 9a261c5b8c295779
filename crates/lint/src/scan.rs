//! Workspace discovery and file collection.
//!
//! The default scan covers the shipping source of every member crate —
//! the root facade's `src/` plus each `crates/*/src/` tree.  Vendored
//! external stand-ins under `vendor/` mirror upstream crate APIs and are
//! excluded; `tests/`, `benches/` and `examples/` are excluded because
//! they deliberately hold unordered reference models, wall-clock bench
//! harnesses and `unwrap`-heavy assertions (the same reasoning the rules
//! apply to `#[cfg(test)]` modules inside `src/`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{lint_source, Finding, LintConfig, PubUsers};

/// Finds the workspace root by walking up from `start` until a directory
/// holding a `Cargo.toml` with a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every `.rs` file under `dir`, recursively, in sorted order —
/// the lint's own output must be deterministic, so directory iteration
/// order (which the OS does not guarantee) is never observed.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace-relative, `/`-separated label used for rule scoping and
/// reports.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Lints the given files or directories (directories are walked
/// recursively), scoping rule paths relative to `root`.
pub fn lint_paths(root: &Path, paths: &[PathBuf], config: &LintConfig) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(p, &mut files)?;
        } else {
            files.push(p.clone());
        }
    }
    let mut findings = Vec::new();
    for file in &files {
        let source = fs::read_to_string(file)?;
        let label = relative_label(root, file);
        findings.extend(lint_source(&label, &source, config));
    }
    Ok(findings)
}

/// The workspace's package directories: `root` itself and every
/// `crates/*` member.
fn packages(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        out.extend(members);
    }
    Ok(out)
}

/// Lints the default scan set of the workspace rooted at `root`: `src/`
/// plus every `crates/*/src/` tree.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> io::Result<Vec<Finding>> {
    let existing: Vec<PathBuf> = packages(root)?
        .into_iter()
        .map(|p| p.join("src"))
        .filter(|p| p.is_dir())
        .collect();
    lint_paths(root, &existing, config)
}

/// Reads who names what across the workspace for `unused-pub`: every
/// package's `src/`, `tests/` and `examples/` trees, and those of the
/// frozen `benchmark/` package, whose imports must stay `pub`.
pub fn scan_pub_users(root: &Path) -> io::Result<PubUsers> {
    let mut files = Vec::new();
    let mut all = packages(root)?;
    all.push(root.join("benchmark"));
    for package in all {
        for dir in ["src", "tests", "examples"] {
            let dir = package.join(dir);
            if dir.is_dir() {
                collect_rs_files(&dir, &mut files)?;
            }
        }
    }
    let mut users = PubUsers::default();
    for file in &files {
        users.add_source(&relative_label(root, file), &fs::read_to_string(file)?);
    }
    Ok(users)
}
