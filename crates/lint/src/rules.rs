//! Token-pattern lint rules and the per-file analysis driver.
//!
//! Every rule here guards one of the workspace's structural invariants:
//!
//! * **Determinism** (`unordered-iter`, `ambient-time`, `ambient-rand`,
//!   `thread-spawn`): simulation outputs must be byte-identical across
//!   `SerialStep`/`Batched`/`Sharded{n}` and across machines, so no code
//!   may observe `HashMap`/`HashSet` iteration order, wall-clock time,
//!   ambient randomness, or spawn threads outside the sanctioned
//!   sharding/sweep modules.
//! * **Serde byte-stability** (`serde-no-skip`): a `#[serde(default)]`
//!   field without a paired `skip_serializing_if` re-serializes its
//!   default into every artifact, silently changing committed JSON bytes
//!   the moment the axis is introduced.
//! * **Panic hygiene** (`panic-hygiene`): `unwrap`/`expect`/`panic!` in
//!   the hot-path crates (`core`, `sim`, `net`) must each be justified.
//! * **Public surface** (`unused-pub`): a `pub` item whose name no other
//!   crate, no `tests/` or `examples/` directory and no `benchmark/src`
//!   file mentions is `pub` for nobody; it becomes `pub(crate)`, goes, or
//!   names the public path that reaches it.
//!
//! A finding is suppressed only by an inline directive on the same line or
//! the line directly above it (line comments only):
//!
//! ```text
//! // srlb-lint: allow(unordered-iter) -- equality is order-independent
//! ```
//!
//! The justification after `--` is mandatory, and an allow that matches no
//! finding is itself an error (`unused-allow`), so stale suppressions
//! cannot accumulate.

use std::collections::{BTreeMap, BTreeSet};

use serde::Serialize;

use crate::lexer::{lex, Token, TokenKind};

/// Identifiers of the lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration over a `HashMap`/`HashSet` in nondeterministic order.
    UnorderedIter,
    /// Ambient wall-clock time (`Instant::now`, `SystemTime::now`).
    AmbientTime,
    /// Ambient randomness (`thread_rng`, `from_entropy`, `OsRng`).
    AmbientRand,
    /// `std::thread::{spawn, scope, Builder}` outside the sanctioned
    /// sharding/sweep modules.
    ThreadSpawn,
    /// `#[serde(default)]` field without a paired `skip_serializing_if`.
    SerdeNoSkip,
    /// `unwrap`/`expect`/`panic!` in a hot-path crate.
    PanicHygiene,
    /// A `pub` item named by no other crate, test, example or benchmark.
    UnusedPub,
    /// An allow directive that suppressed nothing.
    UnusedAllow,
    /// A malformed allow directive (bad grammar, unknown rule, or missing
    /// justification).
    BadDirective,
}

impl Serialize for Rule {
    /// Serializes as the stable kebab-case rule id.
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(serde::Value::Str(self.id().to_string()))
    }
}

impl Rule {
    /// The stable string id used in directives and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::AmbientTime => "ambient-time",
            Rule::AmbientRand => "ambient-rand",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::SerdeNoSkip => "serde-no-skip",
            Rule::PanicHygiene => "panic-hygiene",
            Rule::UnusedPub => "unused-pub",
            Rule::UnusedAllow => "unused-allow",
            Rule::BadDirective => "bad-directive",
        }
    }

    /// The rules an allow directive may name (the meta rules about
    /// directives themselves are not suppressible).
    pub fn allowable() -> &'static [Rule] {
        &[
            Rule::UnorderedIter,
            Rule::AmbientTime,
            Rule::AmbientRand,
            Rule::ThreadSpawn,
            Rule::SerdeNoSkip,
            Rule::PanicHygiene,
            Rule::UnusedPub,
        ]
    }

    fn from_id(id: &str) -> Option<Rule> {
        Rule::allowable().iter().copied().find(|r| r.id() == id)
    }
}

/// One lint finding.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// The rule that fired.
    pub rule: Rule,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Human-readable description of the hazard.
    pub message: String,
}

/// Scoping configuration: which paths each path-sensitive rule applies to.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path prefixes the `panic-hygiene` rule applies to.
    pub panic_scope: Vec<String>,
    /// Exact relative paths where `thread-spawn` is sanctioned (the
    /// sharded event core and the experiment sweep pool).
    pub sanctioned_threads: Vec<String>,
    /// Who names what, for `unused-pub`; the rule is off without it.
    pub pub_users: Option<PubUsers>,
}

impl LintConfig {
    /// The workspace policy: panic hygiene gates the hot-path crates, and
    /// threads may only be spawned by the sharded event core and the
    /// experiment sweep pool.
    pub fn workspace() -> Self {
        LintConfig {
            panic_scope: vec![
                "crates/core/src".to_string(),
                "crates/sim/src".to_string(),
                "crates/net/src".to_string(),
            ],
            sanctioned_threads: vec![
                "crates/sim/src/pool.rs".to_string(),
                "crates/bench/src/parallel.rs".to_string(),
            ],
            pub_users: None,
        }
    }

    /// Every rule applies to every path — used by the fixture self-tests.
    /// Nothing outside the linted file names anything, so every `pub` item
    /// is reported.
    pub fn strict() -> Self {
        LintConfig {
            panic_scope: vec![String::new()],
            sanctioned_threads: Vec::new(),
            pub_users: Some(PubUsers::default()),
        }
    }

    fn panics_in_scope(&self, file: &str) -> bool {
        self.panic_scope
            .iter()
            .any(|p| file.starts_with(p.as_str()))
    }

    fn threads_sanctioned(&self, file: &str) -> bool {
        self.sanctioned_threads
            .iter()
            .any(|p| file.ends_with(p.as_str()))
    }
}

/// The identifiers each compilation unit's code names, for `unused-pub`.
///
/// A unit is a library crate's `src/` tree, one package binary
/// (`src/main.rs` or `src/bin/<name>`), one `tests/` or `examples/`
/// directory, or `benchmark/src`.  Comments and string literals name
/// nothing; `#[cfg(test)]` code does.
#[derive(Debug, Clone, Default)]
pub struct PubUsers {
    /// Identifier → the units whose code names it.
    units: BTreeMap<String, BTreeSet<String>>,
}

impl PubUsers {
    /// Records every identifier in `source`, read from the
    /// workspace-relative path `file`.
    pub fn add_source(&mut self, file: &str, source: &str) {
        let unit = unit_of(file);
        for t in lex(source) {
            if t.kind == TokenKind::Ident {
                self.units.entry(t.text).or_default().insert(unit.clone());
            }
        }
    }

    /// True when some unit other than `unit` names `name`.
    fn named_outside(&self, name: &str, unit: &str) -> bool {
        self.units
            .get(name)
            .is_some_and(|units| units.iter().any(|u| u != unit))
    }
}

/// The compilation unit a workspace-relative path belongs to (see
/// [`PubUsers`]): everything up to its `tests`/`examples` directory, its
/// binary, or its `src` directory.
fn unit_of(file: &str) -> String {
    let parts: Vec<&str> = file.split('/').collect();
    for (k, part) in parts.iter().enumerate() {
        let upto = |n: usize| parts[..n].join("/");
        match *part {
            "tests" | "examples" => return upto(k + 1),
            "src" => {
                return match parts.get(k + 1) {
                    Some(&"main.rs") => upto(k + 2),
                    Some(&"bin") if k + 2 < parts.len() => {
                        format!("{}/{}", upto(k + 2), parts[k + 2].trim_end_matches(".rs"))
                    }
                    _ => upto(k + 1),
                }
            }
            _ => {}
        }
    }
    file.to_string()
}

/// A parsed `srlb-lint: allow(...)` directive.
struct Directive {
    rule: Rule,
    /// Line the directive suppresses findings on.
    target_line: u32,
    /// Line the directive itself sits on (for `unused-allow` reports).
    own_line: u32,
    used: bool,
}

/// Lints one file's source text.  `file` is the workspace-relative path
/// used for scoping and reporting (always with `/` separators).
pub fn lint_source(file: &str, source: &str, config: &LintConfig) -> Vec<Finding> {
    let tokens = lex(source);
    let code: Vec<Token> =
        strip_test_items(tokens.iter().filter(|t| !t.is_comment()).cloned().collect());

    let mut findings = Vec::new();
    let mut directives = parse_directives(file, &tokens, &code, &mut findings);

    let mut raw = Vec::new();
    unordered_iter(file, &code, &mut raw);
    ambient_time(file, &code, &mut raw);
    ambient_rand(file, &code, &mut raw);
    if !config.threads_sanctioned(file) {
        thread_spawn(file, &code, &mut raw);
    }
    serde_no_skip(file, &code, &mut raw);
    if config.panics_in_scope(file) {
        panic_hygiene(file, &code, &mut raw);
    }
    if let Some(users) = &config.pub_users {
        unused_pub(file, &code, users, &mut raw);
    }

    for finding in raw {
        let allowed = directives
            .iter_mut()
            .find(|d| d.rule == finding.rule && d.target_line == finding.line);
        match allowed {
            Some(d) => d.used = true,
            None => findings.push(finding),
        }
    }
    for d in &directives {
        if !d.used {
            findings.push(Finding {
                file: file.to_string(),
                rule: Rule::UnusedAllow,
                line: d.own_line,
                col: 1,
                message: format!(
                    "allow({}) suppresses nothing on line {}; remove the stale directive",
                    d.rule.id(),
                    d.target_line
                ),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// Extracts allow directives from line comments.  A directive trailing
/// code applies to its own line; a directive alone on its line applies to
/// the next line carrying code.  Malformed directives become
/// `bad-directive` findings.
fn parse_directives(
    file: &str,
    tokens: &[Token],
    code: &[Token],
    findings: &mut Vec<Finding>,
) -> Vec<Directive> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("srlb-lint:") else {
            continue;
        };
        let mut bad = |message: String| {
            findings.push(Finding {
                file: file.to_string(),
                rule: Rule::BadDirective,
                line: t.line,
                col: t.col,
                message,
            });
        };
        let rest = rest.trim();
        let Some(args) = rest.strip_prefix("allow(") else {
            bad(format!(
                "malformed directive `{body}`: expected `allow(<rule>) -- <justification>`"
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("malformed directive: missing `)` after the rule name".to_string());
            continue;
        };
        let rule_id = args[..close].trim();
        let Some(rule) = Rule::from_id(rule_id) else {
            bad(format!(
                "unknown rule `{rule_id}`; expected one of {}",
                Rule::allowable()
                    .iter()
                    .map(|r| r.id())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            continue;
        };
        let tail = args[close + 1..].trim();
        let Some(justification) = tail.strip_prefix("--") else {
            bad(format!(
                "allow({rule_id}) is missing its mandatory `-- <justification>`"
            ));
            continue;
        };
        if justification.trim().is_empty() {
            bad(format!(
                "allow({rule_id}) has an empty justification after `--`"
            ));
            continue;
        }
        if rule == Rule::UnusedPub && !justification.trim().starts_with("reached through ") {
            bad("allow(unused-pub) must say `-- reached through <pub path>`".to_string());
            continue;
        }
        // Trailing directive (code earlier on the same line) covers its own
        // line; a standalone comment covers the next line that holds code.
        let trailing = code.iter().any(|c| c.line == t.line && c.col < t.col);
        let target_line = if trailing {
            t.line
        } else {
            code.iter()
                .map(|c| c.line)
                .filter(|&l| l > t.line)
                .min()
                .unwrap_or(t.line)
        };
        out.push(Directive {
            rule,
            target_line,
            own_line: t.line,
            used: false,
        });
    }
    out
}

/// Removes tokens inside `#[cfg(test)]`- or `#[test]`-gated items, so the
/// determinism rules only see shipping code (tests deliberately hold
/// unordered reference models and panic on violated expectations).
fn strip_test_items(code: Vec<Token>) -> Vec<Token> {
    let mut skip = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if !(code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let Some(attr_end) = matching_bracket(&code, i + 1) else {
            break;
        };
        if !attr_is_test_gate(&code[i + 2..attr_end]) {
            i = attr_end + 1;
            continue;
        }
        // Skip the gating attribute, any further attributes, and the item
        // they decorate (to its closing `}` or terminating `;`).
        let mut j = attr_end + 1;
        while j < code.len()
            && code[j].is_punct('#')
            && code.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching_bracket(&code, j + 1) {
                Some(end) => j = end + 1,
                None => break,
            }
        }
        let mut depth = 0usize;
        while j < code.len() {
            if code[j].is_punct('{') {
                depth += 1;
            } else if code[j].is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            } else if code[j].is_punct(';') && depth == 0 {
                break;
            }
            j += 1;
        }
        for s in skip.iter_mut().take((j + 1).min(code.len())).skip(i) {
            *s = true;
        }
        i = j + 1;
    }
    code.into_iter()
        .zip(skip)
        .filter(|(_, s)| !s)
        .map(|(t, _)| t)
        .collect()
}

/// True when the attribute body (tokens between `[` and `]`) gates the
/// item to test builds: `cfg(test)` or plain `test`.
fn attr_is_test_gate(body: &[Token]) -> bool {
    if body.len() == 1 && body[0].is_ident("test") {
        return true;
    }
    body.len() >= 4
        && body[0].is_ident("cfg")
        && body[1].is_punct('(')
        && body[2].is_ident("test")
        && body[3].is_punct(')')
}

/// Index of the `]` matching the `[` at `open`, tracking nesting.
fn matching_bracket(code: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Methods whose results depend on a hash map's internal ordering.
const UNORDERED_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

fn unordered_iter(file: &str, code: &[Token], out: &mut Vec<Finding>) {
    let map_idents = collect_map_idents(code);
    if map_idents.is_empty() {
        return;
    }
    let mut flagged_lines = BTreeSet::new();
    // Form 1: `name.iter()` / `self.name.drain()` — an unordered method
    // called with a map-typed identifier as the receiver.
    for i in 2..code.len() {
        if code[i].kind == TokenKind::Ident
            && UNORDERED_METHODS.contains(&code[i].text.as_str())
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
            && code[i - 1].is_punct('.')
            && code[i - 2].kind == TokenKind::Ident
            && map_idents.contains(&code[i - 2].text)
        {
            flagged_lines.insert(code[i].line);
            out.push(Finding {
                file: file.to_string(),
                rule: Rule::UnorderedIter,
                line: code[i].line,
                col: code[i].col,
                message: format!(
                    "`{}.{}()` iterates a HashMap/HashSet in nondeterministic order; \
                     use an ordered collection or sort the results",
                    code[i - 2].text,
                    code[i].text
                ),
            });
        }
    }
    // Form 2: `for x in &name` — direct iteration of the map itself.
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("for") {
            i += 1;
            continue;
        }
        // The loop header runs to the first `{` outside parentheses.
        let mut j = i + 1;
        let mut paren = 0usize;
        let mut last_ident: Option<usize> = None;
        while j < code.len() {
            let t = &code[j];
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren = paren.saturating_sub(1);
            } else if t.is_punct('{') && paren == 0 {
                break;
            } else if t.kind == TokenKind::Ident {
                last_ident = Some(j);
            }
            j += 1;
        }
        if let Some(k) = last_ident {
            if map_idents.contains(&code[k].text) && !flagged_lines.contains(&code[k].line) {
                out.push(Finding {
                    file: file.to_string(),
                    rule: Rule::UnorderedIter,
                    line: code[k].line,
                    col: code[k].col,
                    message: format!(
                        "`for … in {}` iterates a HashMap/HashSet in nondeterministic \
                         order; use an ordered collection or sort first",
                        code[k].text
                    ),
                });
            }
        }
        i = j + 1;
    }
}

/// Identifiers (locals, parameters, fields) declared with a `HashMap` or
/// `HashSet` type, collected from type ascriptions (`name: HashMap<…>`,
/// with optional path, reference and `mut` prefixes) and constructor
/// assignments (`name = HashMap::new()`).
fn collect_map_idents(code: &[Token]) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for i in 0..code.len() {
        if !(code[i].is_ident("HashMap") || code[i].is_ident("HashSet")) {
            continue;
        }
        // Constructor assignment: `name = HashMap::…`.
        if i >= 2 && code[i - 1].is_punct('=') && code[i - 2].kind == TokenKind::Ident {
            idents.insert(code[i - 2].text.clone());
            continue;
        }
        // Type ascription: strip `std :: collections ::`-style path
        // segments, then `&`/`mut`/lifetime prefixes, then expect
        // `name :` (a single colon).
        let mut j = i;
        while j >= 2 && code[j - 1].is_punct(':') && code[j - 2].is_punct(':') {
            j -= 2;
            if j >= 1 && code[j - 1].kind == TokenKind::Ident {
                j -= 1;
            }
        }
        while j >= 1
            && (code[j - 1].is_punct('&')
                || code[j - 1].is_ident("mut")
                || code[j - 1].kind == TokenKind::Lifetime)
        {
            j -= 1;
        }
        // Constructor assignment through a full path:
        // `name = std::collections::HashMap::new()`.
        if j >= 2 && code[j - 1].is_punct('=') && code[j - 2].kind == TokenKind::Ident {
            idents.insert(code[j - 2].text.clone());
            continue;
        }
        if j >= 2
            && code[j - 1].is_punct(':')
            && !(j >= 3 && code[j - 2].is_punct(':'))
            && code[j - 2].kind == TokenKind::Ident
        {
            idents.insert(code[j - 2].text.clone());
        }
    }
    idents
}

fn ambient_time(file: &str, code: &[Token], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if (code[i].is_ident("Instant") || code[i].is_ident("SystemTime"))
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(Finding {
                file: file.to_string(),
                rule: Rule::AmbientTime,
                line: code[i].line,
                col: code[i].col,
                message: format!(
                    "`{}::now()` reads the wall clock; simulated code must use \
                     `SimTime` so runs replay identically",
                    code[i].text
                ),
            });
        }
    }
}

fn ambient_rand(file: &str, code: &[Token], out: &mut Vec<Finding>) {
    for t in code {
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("OsRng") {
            out.push(Finding {
                file: file.to_string(),
                rule: Rule::AmbientRand,
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` draws ambient randomness; derive every stream from the \
                     experiment seed instead",
                    t.text
                ),
            });
        }
    }
}

fn thread_spawn(file: &str, code: &[Token], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if code[i].is_ident("thread")
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 3).is_some_and(|t| {
                t.is_ident("spawn") || t.is_ident("scope") || t.is_ident("Builder")
            })
        {
            out.push(Finding {
                file: file.to_string(),
                rule: Rule::ThreadSpawn,
                line: code[i].line,
                col: code[i].col,
                message: format!(
                    "`thread::{}` outside the sanctioned sharding/sweep modules; \
                     parallelism must stay behind the deterministic frontends",
                    code[i + 3].text
                ),
            });
        }
    }
}

/// A parsed attribute: token span and, when it is a `#[serde(…)]` attr,
/// the argument tokens.
struct Attr {
    start: usize,
    end: usize,
    serde_args: Option<(usize, usize)>,
}

fn serde_no_skip(file: &str, code: &[Token], out: &mut Vec<Finding>) {
    // Collect every attribute with its span.
    let mut attrs: Vec<Attr> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let Some(end) = matching_bracket(code, i + 1) else {
                break;
            };
            let serde_args = if code.get(i + 2).is_some_and(|t| t.is_ident("serde"))
                && code.get(i + 3).is_some_and(|t| t.is_punct('('))
            {
                Some((i + 4, end - 1)) // tokens strictly inside serde(…)
            } else {
                None
            };
            attrs.push(Attr {
                start: i,
                end,
                serde_args,
            });
            i = end + 1;
        } else {
            i += 1;
        }
    }
    // Group attributes decorating the same item (token-adjacent spans).
    let mut g = 0;
    while g < attrs.len() {
        let mut h = g;
        while h + 1 < attrs.len() && attrs[h + 1].start == attrs[h].end + 1 {
            h += 1;
        }
        let group = &attrs[g..=h];
        // The decorated item follows the last attribute; fields look like
        // `[pub [(…)]] name :` while containers start with `struct`/`enum`.
        let mut j = group[group.len() - 1].end + 1;
        if code.get(j).is_some_and(|t| t.is_ident("pub")) {
            j += 1;
            if code.get(j).is_some_and(|t| t.is_punct('(')) {
                while j < code.len() && !code[j].is_punct(')') {
                    j += 1;
                }
                j += 1;
            }
        }
        let is_field = code.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
            && !code[j].is_ident("struct")
            && !code[j].is_ident("enum")
            && !code[j].is_ident("fn")
            && code.get(j + 1).is_some_and(|t| t.is_punct(':'));
        if is_field {
            let mut default_at: Option<&Token> = None;
            let mut has_skip = false;
            for a in group {
                let Some((lo, hi)) = a.serde_args else {
                    continue;
                };
                let mut depth = 0usize;
                for k in lo..=hi {
                    let t = &code[k];
                    if t.is_punct('(') {
                        depth += 1;
                    } else if t.is_punct(')') {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && t.kind == TokenKind::Ident {
                        if t.is_ident("default")
                            && code.get(k + 1).is_some_and(|n| {
                                n.is_punct(',')
                                    || n.is_punct(')')
                                    || n.is_punct(']')
                                    || n.is_punct('=')
                            })
                        {
                            default_at.get_or_insert(t);
                        } else if t.is_ident("skip_serializing_if")
                            || t.is_ident("skip_serializing")
                        {
                            has_skip = true;
                        }
                    }
                }
            }
            if let Some(d) = default_at {
                if !has_skip {
                    out.push(Finding {
                        file: file.to_string(),
                        rule: Rule::SerdeNoSkip,
                        line: d.line,
                        col: d.col,
                        message: format!(
                            "field `{}` has #[serde(default)] without skip_serializing_if; \
                             the default will re-serialize and change committed artifact bytes",
                            code[j].text
                        ),
                    });
                }
            }
        }
        g = h + 1;
    }
}

fn panic_hygiene(file: &str, code: &[Token], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        let t = &code[i];
        let method_call = (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 1
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('));
        let macro_call = t.is_ident("panic") && code.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if method_call || macro_call {
            let what = if macro_call {
                "panic!".to_string()
            } else {
                format!(".{}()", t.text)
            };
            out.push(Finding {
                file: file.to_string(),
                rule: Rule::PanicHygiene,
                line: t.line,
                col: t.col,
                message: format!(
                    "`{what}` in a hot-path crate; return an error or justify the \
                     invariant with an allow directive"
                ),
            });
        }
    }
}

/// Keywords that declare a named item after `pub` (or `pub const`).
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "static", "type", "mod"];

/// The name token of the item a bare `pub` at `code[at]` declares, or
/// `None` for `pub(…)`, `pub use`, a field and the like.
fn pub_item_name(code: &[Token], at: usize) -> Option<&Token> {
    let mut j = at + 1;
    if code.get(j)?.is_ident("const") {
        j += 1;
        if !code.get(j)?.is_ident("fn") {
            return code.get(j); // `pub const NAME: …`
        }
    }
    let keyword = code.get(j)?;
    if keyword.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&keyword.text.as_str()) {
        code.get(j + 1)
    } else {
        None
    }
}

fn unused_pub(file: &str, code: &[Token], users: &PubUsers, out: &mut Vec<Finding>) {
    let unit = unit_of(file);
    for i in 0..code.len() {
        if !code[i].is_ident("pub") {
            continue;
        }
        let Some(name) = pub_item_name(code, i) else {
            continue;
        };
        if name.kind != TokenKind::Ident || users.named_outside(&name.text, &unit) {
            continue;
        }
        out.push(Finding {
            file: file.to_string(),
            rule: Rule::UnusedPub,
            line: name.line,
            col: name.col,
            message: format!(
                "`pub {}` is named by no other crate, test, example or benchmark/src; \
                 make it pub(crate), delete it, or name the pub path that reaches it",
                name.text
            ),
        });
    }
}
