//! Self-test: every seeded fixture trips exactly its intended rule.
//!
//! Each file under `tests/fixtures/` is named after a rule id (with `_`
//! for `-`) and must produce **exactly one** finding of **exactly that
//! rule** under the strict config (every path-sensitive rule armed).  The
//! meta-test also checks coverage both ways: every rule the analyzer
//! knows has a fixture, and no stray fixture file exists without a rule.

use std::collections::BTreeMap;
use std::path::PathBuf;

use srlb_lint::{lint_source, LintConfig, PubUsers, Rule};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// All rules the analyzer can report: the allowable rules plus the two
/// directive meta-rules.
fn all_rules() -> Vec<Rule> {
    let mut rules = Rule::allowable().to_vec();
    rules.push(Rule::UnusedAllow);
    rules.push(Rule::BadDirective);
    rules
}

/// Reads the fixture set as `rule-id -> source text`, failing on any file
/// whose stem does not name a rule.
fn load_fixtures() -> BTreeMap<String, String> {
    let dir = fixtures_dir();
    let mut out = BTreeMap::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs"),
            "stray non-Rust file in fixtures: {}",
            path.display()
        );
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 fixture name")
            .to_string();
        let rule_id = stem.replace('_', "-");
        assert!(
            all_rules().iter().any(|r| r.id() == rule_id),
            "fixture `{stem}.rs` does not correspond to any rule id"
        );
        let source = std::fs::read_to_string(&path).expect("fixture readable");
        out.insert(rule_id, source);
    }
    out
}

#[test]
fn every_rule_has_a_fixture_and_every_fixture_a_rule() {
    let fixtures = load_fixtures();
    let expected: Vec<&str> = all_rules().iter().map(|r| r.id()).collect();
    let actual: Vec<&str> = fixtures.keys().map(String::as_str).collect();
    let mut expected_sorted = expected.clone();
    expected_sorted.sort_unstable();
    assert_eq!(
        actual, expected_sorted,
        "fixture set must cover exactly the rule catalogue"
    );
}

#[test]
fn each_fixture_trips_exactly_its_rule() {
    let config = LintConfig::strict();
    for (rule_id, source) in load_fixtures() {
        let label = format!("tests/fixtures/{}.rs", rule_id.replace('-', "_"));
        let findings = lint_source(&label, &source, &config);
        assert_eq!(
            findings.len(),
            1,
            "fixture for `{rule_id}` must trip exactly one finding, got {findings:#?}"
        );
        assert_eq!(
            findings[0].rule.id(),
            rule_id,
            "fixture for `{rule_id}` tripped the wrong rule: {findings:#?}"
        );
    }
}

#[test]
fn fixtures_stay_silent_under_test_gating() {
    // Wrapping a hazard fixture in `#[cfg(test)] mod t { … }` silences it:
    // the determinism rules only see shipping code.
    let config = LintConfig::strict();
    for (rule_id, source) in load_fixtures() {
        if rule_id == "unused-allow" || rule_id == "bad-directive" {
            continue; // directive meta-rules fire regardless of gating
        }
        let gated = format!("#[cfg(test)]\nmod gated {{\n{source}\n}}\n");
        let findings = lint_source("tests/fixtures/gated.rs", &gated, &config);
        assert!(
            findings.is_empty(),
            "`{rule_id}` fixture should be silent under #[cfg(test)]: {findings:#?}"
        );
    }
}

#[test]
fn trailing_allow_suppresses_same_line() {
    let src = "fn f() -> std::time::Instant {\n    \
               std::time::Instant::now() // srlb-lint: allow(ambient-time) -- fixture\n}\n";
    let findings = lint_source("x.rs", src, &LintConfig::strict());
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn standalone_allow_suppresses_next_code_line() {
    let src = "fn f() -> std::time::Instant {\n    \
               // srlb-lint: allow(ambient-time) -- fixture\n    \
               std::time::Instant::now()\n}\n";
    let findings = lint_source("x.rs", src, &LintConfig::strict());
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn allow_of_wrong_rule_does_not_suppress() {
    let src = "fn f() -> std::time::Instant {\n    \
               std::time::Instant::now() // srlb-lint: allow(ambient-rand) -- wrong rule\n}\n";
    let findings = lint_source("x.rs", src, &LintConfig::strict());
    // The real finding survives AND the mismatched allow is unused.
    let mut ids: Vec<&str> = findings.iter().map(|f| f.rule.id()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec!["ambient-time", "unused-allow"], "{findings:#?}");
}

#[test]
fn directive_text_inside_a_string_is_inert() {
    // A directive-shaped string literal must neither suppress nor trip
    // bad-directive: directives live in line comments only.
    let src = "fn f() -> (&'static str, std::time::Instant) {\n    \
               (\"// srlb-lint: allow(ambient-time) -- in a string\", std::time::Instant::now())\n}\n";
    let findings = lint_source("x.rs", src, &LintConfig::strict());
    let ids: Vec<&str> = findings.iter().map(|f| f.rule.id()).collect();
    assert_eq!(ids, vec!["ambient-time"], "{findings:#?}");
}

#[test]
fn meta_rules_are_not_allowable() {
    for rule in [Rule::UnusedAllow, Rule::BadDirective] {
        assert!(
            !Rule::allowable().contains(&rule),
            "{} must not be suppressible",
            rule.id()
        );
    }
}

#[test]
fn workspace_config_scopes_rules_by_path() {
    let config = LintConfig::workspace();
    let panic_src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    // In a hot-path crate: flagged.
    assert_eq!(
        lint_source("crates/core/src/x.rs", panic_src, &config).len(),
        1
    );
    // Outside the panic scope (e.g. the bench crate): clean.
    assert!(lint_source("crates/bench/src/x.rs", panic_src, &config).is_empty());

    let spawn_src = "pub fn f() { std::thread::spawn(|| ()); }\n";
    // Sanctioned worker-pool module: clean; anywhere else — including the
    // sharded frontend, whose spawns moved into the pool — flagged.
    assert!(lint_source("crates/sim/src/pool.rs", spawn_src, &config).is_empty());
    assert_eq!(
        lint_source("crates/sim/src/shard.rs", spawn_src, &config).len(),
        1
    );
    assert_eq!(
        lint_source("crates/sim/src/core.rs", spawn_src, &config).len(),
        1
    );
}

/// A config whose `unused-pub` corpus holds the given `(path, source)`
/// files.
fn with_users(files: &[(&str, &str)]) -> LintConfig {
    let mut users = PubUsers::default();
    for (path, source) in files {
        users.add_source(path, source);
    }
    let mut config = LintConfig::workspace();
    config.pub_users = Some(users);
    config
}

const DECLARED: &str = "pub struct Ring;\n";

fn unused_pub_findings(config: &LintConfig) -> Vec<String> {
    lint_source("crates/core/src/ring.rs", DECLARED, config)
        .into_iter()
        .map(|f| f.rule.id().to_string())
        .collect::<Vec<_>>()
}

#[test]
fn a_name_only_the_frozen_benchmark_uses_stays_pub() {
    let config = with_users(&[("benchmark/src/lowering.rs", "use srlb_core::Ring;")]);
    assert!(unused_pub_findings(&config).is_empty());
}

#[test]
fn a_name_only_its_own_crate_uses_is_reported() {
    let config = with_users(&[
        ("crates/core/src/runner.rs", "fn f(_: crate::ring::Ring) {}"),
        ("crates/core/src/ring.rs", DECLARED),
    ]);
    assert_eq!(unused_pub_findings(&config), vec!["unused-pub"]);
}

#[test]
fn tests_examples_and_package_binaries_count_as_users() {
    for user in [
        "crates/core/tests/ring.rs",
        "examples/ring.rs",
        "tests/ring.rs",
        "crates/core/src/bin/ring.rs",
        "crates/core/src/main.rs",
        "crates/bench/src/figures.rs",
    ] {
        let config = with_users(&[(user, "Ring")]);
        assert!(unused_pub_findings(&config).is_empty(), "{user} names Ring");
    }
    // Comments and strings name nothing.
    let config = with_users(&[("tests/ring.rs", "// Ring\nconst S: &str = \"Ring\";")]);
    assert_eq!(unused_pub_findings(&config), vec!["unused-pub"]);
}

#[test]
fn an_unused_pub_allow_must_name_the_path_that_reaches_it() {
    let config = with_users(&[]);
    let reached = "// srlb-lint: allow(unused-pub) -- reached through srlb_core::Runner::ring\n\
                   pub struct Ring;\n";
    assert!(lint_source("crates/core/src/ring.rs", reached, &config).is_empty());
    let vague = "// srlb-lint: allow(unused-pub) -- someone might want it\npub struct Ring;\n";
    let mut ids: Vec<&str> = lint_source("crates/core/src/ring.rs", vague, &config)
        .iter()
        .map(|f| f.rule.id())
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec!["bad-directive", "unused-pub"]);
}

#[test]
fn every_pub_item_form_is_read_by_its_name() {
    let src = "pub const N: u32 = 1;\npub const fn f() {}\npub static S: u32 = 0;\n\
               pub type T = u32;\npub trait Tr {}\npub enum E {}\npub mod m {}\n\
               pub(crate) fn hidden() {}\npub use std::fmt;\nstruct F { pub field: u32 }\n";
    let names: Vec<String> = lint_source("crates/core/src/x.rs", src, &LintConfig::strict())
        .iter()
        .map(|f| f.message.split('`').nth(1).unwrap_or("").to_string())
        .collect();
    assert_eq!(
        names,
        ["pub N", "pub f", "pub S", "pub T", "pub Tr", "pub E", "pub m"]
    );
}
