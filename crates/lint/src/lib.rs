//! `srlb-lint`: the workspace determinism & hygiene analyzer.
//!
//! The whole value of this SRLB reproduction rests on one invariant:
//! every run is byte-identical across execution modes, and every
//! committed JSON artifact is byte-stable across PRs.  The proptest
//! replays and CI byte-diffs enforce that invariant *dynamically*; this
//! crate rejects the known hazard classes *statically*, at the source
//! level, so a latent nondeterminism bug (such as the randomized
//! `HashMap` drain order PR 6 caught in `ClientNode::into_collector`)
//! cannot sit in the tree waiting for a replay to happen to catch it.
//!
//! The analyzer is a small hand-rolled lexer ([`lexer`]) plus
//! token-pattern rules ([`rules`]) — no registry access is available in
//! the build container, so it depends on nothing beyond the vendored
//! serde stand-ins (for `--format json`).  See the repository README's
//! "Static analysis" section for the rule catalogue and the allow
//! directive grammar.

#![warn(unreachable_pub)]

pub mod lexer;
pub mod rules;
pub mod scan;

pub use rules::{lint_source, Finding, LintConfig, PubUsers, Rule};
pub use scan::{lint_paths, lint_workspace, scan_pub_users};
