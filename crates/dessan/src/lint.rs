//! The source-level determinism lint.
//!
//! Since dessan v2 this is a syntax-aware scan: files are tokenized by the
//! hand-rolled lossless lexer ([`crate::lex`]), structured into fn/impl/
//! test-region items with line spans ([`crate::items`]), and linked into a
//! workspace call graph ([`crate::callgraph`]). Eleven rule classes:
//!
//! | id                        | hazard                                              |
//! |---------------------------|-----------------------------------------------------|
//! | `wall-clock`              | `std::time::{Instant,SystemTime}` in simulated code |
//! | `ad-hoc-rng`              | `thread_rng` / `rand::random` outside `SimRng`      |
//! | `hash-order`              | `HashMap`/`HashSet` in report/table/render paths    |
//! | `env-read`                | `std::env::var` outside `config`/`cli` modules      |
//! | `unsafe-no-safety`        | `unsafe` without a nearby `// SAFETY:` comment      |
//! | `unwrap-in-sim`           | `unwrap()`/`expect()` in sim-crate non-test code    |
//! | `unit-extract`            | `.as_ns()`/`.as_secs()` in a unit-bearing crate     |
//! | `hot-path-alloc`          | allocation in, or reachable from, a `doebench::hot` function ([`crate::effects`]) |
//! | `effect-contract`         | a fn's call closure violates its `doebench::effects(...)` contract ([`crate::effects`]) |
//! | `lock-order`              | lock-order cycle, double-lock, or condvar protocol misuse ([`crate::locks`]) |
//! | `key-coverage`            | a spec/query struct field missing from the canonical cache key ([`crate::keycov`]) |
//!
//! The first four rules, `unit-extract` and the effect scan share one
//! hazard vocabulary, `HAZARDS`; each applies its own scoping.
//! `unit-extract` keeps every bare `f64` time in the unit-bearing crates
//! in µs (`as_us`); mixing typed quantities is a compile error
//! (`SimDuration`, `doe_machines::units`), so only the extraction to a
//! non-canonical `f64` needs a rule. `hot-path-alloc` and
//! `effect-contract` read one interprocedural fixpoint over the call
//! graph (the effect summaries), `lock-order` is a must-hold walk over
//! each body's statement tree ([`crate::locks`]), and
//! `key-coverage` a structural proof over struct definitions and the
//! canonical serialization functions.
//!
//! A function becomes hot by carrying a `doebench::hot` marker comment
//! before (or on) its `fn` line. `Box::new`, `vec!`, `format!`,
//! `.to_string()`, `.to_owned()` and `.clone()` are allocations
//! (`.clone_from(...)` reuses its destination buffer and is fine), and
//! `hot-path-alloc` flags a hot fn that allocates in its own body or in
//! any fn it calls, any depth away (`// doebench::cold-call` cuts an
//! edge, `#[cold]` a callee).
//!
//! Justified sites are waived *in source*, next to the code they excuse:
//! a comment that leads with `dessan::allow(<rule>): <reason>` on the
//! offending line or the line above, or an inner doc comment
//! (`//! dessan::allow(<rule>): <reason>`) for a whole file. The reason
//! is mandatory.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
// dessan::allow(wall-clock): host-clock import feeds only the --timings scoreboard.
use std::time::{Duration, Instant};

use crate::callgraph::{self, WsFile};

/// The crates whose non-test code must be panic-free (`unwrap-in-sim`).
const SIM_CRATES: [&str; 6] = ["simtime", "gpurt", "mpisim", "ompsim", "gpusim", "memmodel"];

/// The crates whose arithmetic carries physical units (`unit-extract`).
const UNIT_CRATES: [&str; 4] = ["memmodel", "simtime", "mpisim", "machines"];

/// A lint rule class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Wall-clock reads in simulated code.
    WallClock,
    /// Ad-hoc randomness outside the seeded `SimRng`.
    AdHocRng,
    /// Hash-ordered iteration in an output path.
    HashOrder,
    /// Environment reads outside configuration modules.
    EnvRead,
    /// `unsafe` without a `// SAFETY:` justification.
    UnsafeNoSafety,
    /// `unwrap()`/`expect()` in sim-crate non-test code.
    UnwrapInSim,
    /// A bare `f64` extracted in a unit other than µs (`.as_ns()`,
    /// `.as_secs()`) in a unit-bearing crate.
    UnitExtract,
    /// Heap allocation in a `doebench::hot` function's body or call
    /// closure.
    HotPathAlloc,
    /// A function's transitive call closure exhibits an effect its
    /// declared `doebench::effects(...)` contract forbids.
    EffectContract,
    /// Lock-acquisition-order cycle, double-lock on one field, guard held
    /// across a foreign `Condvar::wait`, or `wait` outside a recheck loop.
    LockOrder,
    /// A named field of a key-bearing struct does not flow into the
    /// canonical cache-key derivation.
    KeyCoverage,
}

impl Rule {
    /// The stable identifier used in reports and waivers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::AdHocRng => "ad-hoc-rng",
            Rule::HashOrder => "hash-order",
            Rule::EnvRead => "env-read",
            Rule::UnsafeNoSafety => "unsafe-no-safety",
            Rule::UnwrapInSim => "unwrap-in-sim",
            Rule::UnitExtract => "unit-extract",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::EffectContract => "effect-contract",
            Rule::LockOrder => "lock-order",
            Rule::KeyCoverage => "key-coverage",
        }
    }

    /// Every rule, in report order.
    pub const ALL: [Rule; 11] = [
        Rule::WallClock,
        Rule::AdHocRng,
        Rule::HashOrder,
        Rule::EnvRead,
        Rule::UnsafeNoSafety,
        Rule::UnwrapInSim,
        Rule::UnitExtract,
        Rule::HotPathAlloc,
        Rule::EffectContract,
        Rule::LockOrder,
        Rule::KeyCoverage,
    ];

    /// Position in [`Rule::ALL`], for stable report ordering.
    pub(crate) fn order(self) -> usize {
        Rule::ALL
            .iter()
            .position(|r| *r == self)
            .unwrap_or(usize::MAX)
    }
}

/// One pattern of the hazard vocabulary: `(rule, display, pattern,
/// reads)`. `rule` is the token rule that reports it; `display` is how
/// findings spell it; `pattern` is the code-token sequence (`::` is two
/// `:` tokens: the lexer emits single-char punctuation); `reads` marks a
/// pattern that produces a value (a clock reading, a random draw, an env
/// var) rather than only naming a type — such sites carry an effect.
pub(crate) type Hazard = (Rule, &'static str, &'static [&'static str], bool);

/// The hazard vocabulary shared by the token rules and the direct effect
/// scan ([`crate::effects`]), in reporting precedence: where several
/// patterns of one rule start on a line, the first names the finding.
pub(crate) const HAZARDS: [Hazard; 12] = [
    (
        Rule::WallClock,
        "std::time::Instant",
        &["std", ":", ":", "time", ":", ":", "Instant"],
        false,
    ),
    (
        Rule::WallClock,
        "std::time::SystemTime",
        &["std", ":", ":", "time", ":", ":", "SystemTime"],
        false,
    ),
    (
        Rule::WallClock,
        "Instant::now",
        &["Instant", ":", ":", "now"],
        true,
    ),
    (
        Rule::WallClock,
        "SystemTime::now",
        &["SystemTime", ":", ":", "now"],
        true,
    ),
    (Rule::AdHocRng, "thread_rng", &["thread_rng"], true),
    (
        Rule::AdHocRng,
        "rand::random",
        &["rand", ":", ":", "random"],
        true,
    ),
    (Rule::EnvRead, "env::var", &["env", ":", ":", "var"], true),
    (Rule::EnvRead, "env::vars", &["env", ":", ":", "vars"], true),
    (Rule::HashOrder, "HashMap", &["HashMap"], false),
    (Rule::HashOrder, "HashSet", &["HashSet"], false),
    (
        Rule::UnitExtract,
        ".as_ns()",
        &[".", "as_ns", "(", ")"],
        false,
    ),
    (
        Rule::UnitExtract,
        ".as_secs()",
        &[".", "as_secs", "(", ")"],
        false,
    ),
];

/// Does `name` name a hash container (iteration order unspecified)?
pub(crate) fn is_hash_container(name: &str) -> bool {
    HAZARDS
        .iter()
        .any(|&(rule, _, pattern, _)| rule == Rule::HashOrder && pattern == [name])
}

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintFinding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found.
    pub message: String,
    /// Call chain for call-graph findings (the reporting fn first, the fn
    /// holding the site last); empty for the token-level rules. The
    /// human-readable message already narrates it — this field is for
    /// `--format json`.
    pub chain: Vec<String>,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Replace comments and string/char literals with spaces, preserving line
/// structure. This is the legacy v1 scanner, kept verbatim as the
/// differential-testing oracle for [`crate::lex::blank_non_code`] — the
/// rules themselves no longer use it.
pub fn strip_comments_and_strings(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let bytes: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Str;
                    out.push(' ');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        st = St::RawStr(hashes);
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes with a
                    // quote after one (possibly escaped) character.
                    let is_char_lit = match next {
                        Some('\\') => true,
                        Some(_) => bytes.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char_lit {
                        st = St::Char;
                    }
                    out.push(' ');
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.push(' ');
                    i += 2;
                    continue;
                }
            }
            St::Str => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '\\' {
                    if next == Some('\n') {
                        out.push('\n');
                    } else {
                        out.push(' ');
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    st = St::Code;
                }
            }
            St::RawStr(hashes) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && bytes.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        for _ in i + 1..j {
                            out.push(' ');
                        }
                        i = j;
                        st = St::Code;
                        continue;
                    }
                }
            }
            St::Char => {
                out.push(' ');
                if c == '\\' {
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    st = St::Code;
                }
            }
        }
        i += 1;
    }
    out
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…`).
pub(crate) fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

/// File stem of a path (`world.rs` → `world`).
fn stem_of(path: &str) -> &str {
    Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("")
}

/// Is this file part of a rendered-output path (tables, reports, charts)?
/// Hash-ordered iteration there can silently reorder rendered rows.
fn is_output_path(path: &str) -> bool {
    let stem = stem_of(path);
    stem.starts_with("table")
        || matches!(stem, "render" | "chart" | "compare" | "report" | "bundle")
        || crate_of(path) == "report"
}

/// Lint one file's source text as a one-file workspace: every rule runs,
/// the call-graph rules over the calls this file resolves by itself.
/// `path` must be workspace-relative (`crates/<crate>/src/...`) so crate-
/// and module-scoped rules resolve.
pub fn lint_file(path: &str, src: &str) -> Vec<LintFinding> {
    let ws = [callgraph::ws_file(path, src)];
    let mut findings = lint_workspace(&ws, &mut Vec::new());
    findings.sort_by_key(|f| (f.line, f.rule.order()));
    findings
}

/// The token rules over one already-lexed and parsed file.
fn lint_parsed(file: &WsFile) -> Vec<LintFinding> {
    let (path, src, tokens, its) = (&file.path, &file.src, &file.tokens, &file.items);
    let krate = crate_of(path);
    let stem = stem_of(path);
    let in_sim_crate = SIM_CRATES.contains(&krate);
    let in_unit_crate = UNIT_CRATES.contains(&krate);
    let env_exempt = krate == "cli" || matches!(stem, "config" | "env" | "cli");
    let output_path = is_output_path(path);
    let original_lines: Vec<&str> = src.lines().collect();

    // Code-token text/line streams for sequence matching.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind.is_code())
        .collect();
    let texts: Vec<&str> = code.iter().map(|&i| tokens[i].text(src)).collect();
    let tok_lines: Vec<usize> = code.iter().map(|&i| tokens[i].line).collect();
    // Lines where the code-token sequence `pattern` starts.
    let seq_lines = |pattern: &[&str]| -> BTreeSet<usize> {
        let mut lines = BTreeSet::new();
        if texts.len() >= pattern.len() {
            for k in 0..=texts.len() - pattern.len() {
                if (0..pattern.len()).all(|j| texts[k + j] == pattern[j]) {
                    lines.insert(tok_lines[k]);
                }
            }
        }
        lines
    };
    let in_test = |line: usize| its.test_lines.get(line - 1).copied().unwrap_or(false);

    let mut findings = Vec::new();
    let mut push = |rule: Rule, line: usize, message: String| {
        if !its.waived(rule.id(), line) {
            findings.push(LintFinding {
                rule,
                path: path.to_string(),
                line,
                message,
                chain: Vec::new(),
            });
        }
    };

    // wall-clock, ad-hoc-rng, hash-order, env-read, unit-extract: the
    // hazard table. Hash containers matter only where iteration order
    // reaches rendered output; env reads belong in config/cli modules;
    // unit extractions matter in the unit-bearing crates, test regions
    // included (a calibration assertion in ns is the same slip). One
    // finding per rule and line, first pattern wins.
    let mut claimed = BTreeSet::new();
    for &(rule, disp, pattern, _) in &HAZARDS {
        let applies = match rule {
            Rule::HashOrder => output_path,
            Rule::EnvRead => !env_exempt,
            Rule::UnitExtract => in_unit_crate,
            _ => true,
        };
        if !applies {
            continue;
        }
        for line in seq_lines(pattern) {
            if !claimed.insert((rule.order(), line)) {
                continue;
            }
            let message = match rule {
                Rule::WallClock => format!("wall-clock read `{disp}` breaks run-to-run determinism; use simulated time (`SimTime`) or waive native-measurement code with `// dessan::allow(wall-clock): <reason>`"),
                Rule::AdHocRng => format!("unseeded randomness `{disp}`; derive a stream from `SimRng` instead"),
                Rule::HashOrder => format!("`{disp}` in an output path; iteration order is unspecified — use `BTreeMap`/`BTreeSet` or sort explicitly"),
                Rule::UnitExtract => format!("`{disp}` extracts a bare f64 in a non-canonical unit; f64 times here are µs (`as_us`) — compare `SimDuration`s or `doe_machines::units` values, or waive an output/conversion site with `// dessan::allow(unit-extract): <reason>`"),
                _ => format!("environment read `{disp}` outside a config/cli module makes behaviour depend on ambient state"),
            };
            push(rule, line, message);
        }
    }

    // unsafe-no-safety: every unsafe site needs a written justification
    // within the preceding 3 lines.
    for line in seq_lines(&["unsafe"]) {
        let idx = line - 1;
        let window_start = idx.saturating_sub(3);
        let justified = original_lines
            .get(window_start..=idx.min(original_lines.len().saturating_sub(1)))
            .unwrap_or(&[])
            .iter()
            .any(|l| l.contains("SAFETY:") || l.contains("# Safety"));
        if !justified {
            push(
                Rule::UnsafeNoSafety,
                line,
                "`unsafe` without a `// SAFETY:` comment within the preceding 3 lines".to_string(),
            );
        }
    }

    // unwrap-in-sim: sim-crate non-test code must propagate errors.
    if in_sim_crate {
        let mut claimed = BTreeSet::new();
        for (disp, pat) in [
            (".unwrap()", &[".", "unwrap", "("][..]),
            (".expect(", &[".", "expect", "("][..]),
        ] {
            for line in seq_lines(pat) {
                if !in_test(line) && claimed.insert(line) {
                    push(
                        Rule::UnwrapInSim,
                        line,
                        format!("`{disp}` in non-test code of a simulated runtime crate; return a typed error instead"),
                    );
                }
            }
        }
    }

    findings
}

/// The outcome of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations, ordered by path, line and rule.
    pub findings: Vec<LintFinding>,
    /// Files scanned.
    pub files: usize,
    /// Per-phase wall time, in run order, for `--timings`.
    pub timings: Vec<(&'static str, Duration)>,
}

impl LintReport {
    /// Zero exit code?
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Read the host clock for the `--timings` scoreboard.
fn phase_clock() -> Instant {
    // dessan::allow(wall-clock): measures the linter's own phases, never simulated code.
    Instant::now()
}

/// Every rule over a parsed workspace: the per-file rules, then the
/// call-graph and cross-file analyses. The effect summaries are computed
/// once and read by both `hot-path-alloc` and `effect-contract`. Appends
/// each phase's wall time to `timings`.
fn lint_workspace(ws: &[WsFile], timings: &mut Vec<(&'static str, Duration)>) -> Vec<LintFinding> {
    let mut clock = phase_clock();
    let mut lap = |name: &'static str| {
        let now = phase_clock();
        timings.push((name, now - clock));
        clock = now;
    };
    let mut out = Vec::new();
    for file in ws {
        out.extend(lint_parsed(file));
    }
    lap("per-file rules");
    let sums = crate::effects::summaries(ws);
    lap("effect summaries");
    out.extend(crate::effects::hot_alloc_findings(ws, &sums));
    lap("hot-path-alloc");
    out.extend(crate::effects::contract_findings(ws, &sums));
    lap("effect-contract");
    out.extend(crate::locks::findings(ws));
    lap("lock-order");
    out.extend(crate::keycov::findings(ws));
    lap("key-coverage");
    out
}

/// Lint every `crates/*/src/**/*.rs` under `root`.
pub fn run(root: &Path) -> std::io::Result<LintReport> {
    let mut crate_dirs: Vec<_> = std::fs::read_dir(root.join("crates"))?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut report = LintReport::default();
    let mut ws: Vec<WsFile> = Vec::new();
    let mut t_parse = Duration::ZERO;
    for cd in crate_dirs {
        let src = cd.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        for f in files {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&f)?;
            let t0 = phase_clock();
            ws.push(callgraph::ws_file(&rel, &text));
            t_parse += t0.elapsed();
        }
    }
    report.files = ws.len();
    report.timings.push(("lex+parse", t_parse));
    report.findings = lint_workspace(&ws, &mut report.timings);
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule.order()).cmp(&(&b.path, b.line, b.rule.order())));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<Rule> {
        lint_file(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_flagged() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let r = rules_of("crates/foo/src/lib.rs", src);
        assert_eq!(r, vec![Rule::WallClock, Rule::WallClock]);
    }

    #[test]
    fn ad_hoc_rng_flagged() {
        let src = "fn f() { let x: f64 = rand::random(); let mut r = thread_rng(); }\n";
        let r = rules_of("crates/foo/src/lib.rs", src);
        assert_eq!(r, vec![Rule::AdHocRng]);
    }

    #[test]
    fn hash_iteration_flagged_only_in_output_paths() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of("crates/report/src/lib.rs", src),
            vec![Rule::HashOrder]
        );
        assert_eq!(
            rules_of("crates/core/src/table4.rs", src),
            vec![Rule::HashOrder]
        );
        assert_eq!(rules_of("crates/topo/src/node.rs", src), vec![]);
    }

    #[test]
    fn env_read_flagged_outside_config_and_cli() {
        let src = "fn f() { let _ = std::env::var(\"X\"); }\n";
        assert_eq!(
            rules_of("crates/benchlib/src/par.rs", src),
            vec![Rule::EnvRead]
        );
        assert_eq!(rules_of("crates/cli/src/main.rs", src), vec![]);
        assert_eq!(rules_of("crates/osu/src/config.rs", src), vec![]);
        assert_eq!(rules_of("crates/ompsim/src/env.rs", src), vec![]);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bare = "fn f() { unsafe { work() } }\n";
        assert_eq!(
            rules_of("crates/foo/src/lib.rs", bare),
            vec![Rule::UnsafeNoSafety]
        );
        let justified =
            "// SAFETY: chunks are disjoint by construction.\nfn f() { unsafe { work() } }\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", justified), vec![]);
        let doc = "/// # Safety\n/// Caller must uphold X.\npub unsafe fn g() {}\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", doc), vec![]);
    }

    #[test]
    fn unwrap_flagged_in_sim_crates_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); }\n";
        assert_eq!(
            rules_of("crates/mpisim/src/world.rs", src),
            vec![Rule::UnwrapInSim]
        );
        assert_eq!(rules_of("crates/core/src/table4.rs", src), vec![]);
    }

    #[test]
    fn unit_extract_flagged_in_unit_crates_including_tests() {
        let src = "fn f(d: SimDuration) -> f64 { d.as_ns() + d.as_us() }\n#[cfg(test)]\nmod tests {\n    fn t() { assert!(d().as_secs() > 0.0); }\n}\n";
        assert_eq!(
            rules_of("crates/mpisim/src/fabric.rs", src),
            vec![Rule::UnitExtract, Rule::UnitExtract]
        );
        assert_eq!(rules_of("crates/gpurt/src/runtime.rs", src), vec![]);
    }

    #[test]
    fn unwrap_unflagged_inside_cfg_test_module() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert_eq!(rules_of("crates/gpurt/src/runtime.rs", src), vec![]);
    }

    #[test]
    fn code_after_test_module_is_scanned_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\nfn g(x: Option<u32>) { x.unwrap(); }\n";
        let f = lint_file("crates/gpurt/src/runtime.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn comments_strings_and_doctests_do_not_trip_rules() {
        let src = "//! let t = Instant::now();\n// thread_rng in prose\nfn f() { let s = \"Instant::now\"; let _ = s; }\nfn g() { let c = 'x'; let _ = c; }\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", src), vec![]);
    }

    #[test]
    fn raw_strings_are_stripped() {
        let src = "fn f() { let s = r#\"std::time::Instant \"quoted\" \"#; let _ = s; }\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", src), vec![]);
    }

    #[test]
    fn lifetimes_do_not_confuse_the_scanner() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() { let t = std::time::Instant::now(); let _ = t; }\n";
        let r = rules_of("crates/foo/src/lib.rs", src);
        assert_eq!(r, vec![Rule::WallClock]);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n";
        assert_eq!(rules_of("crates/mpisim/src/world.rs", src), vec![]);
    }

    #[test]
    fn hot_marker_flags_allocations_in_the_next_fn_only() {
        let src = "\
// doebench::hot
fn fast(&mut self) {
    let x = data.clone();
    self.buf.clone_from(&data);
}
fn slow(&mut self) {
    let y = Box::new(1);
    let s = format!(\"x\");
}
";
        let f = lint_file("crates/mpisim/src/world.rs", src);
        let hot: Vec<_> = f
            .iter()
            .filter(|f| f.rule == Rule::HotPathAlloc)
            .map(|f| f.line)
            .collect();
        // `.clone()` in the hot fn fires; `.clone_from` does not; the
        // unmarked fn is free to allocate.
        assert_eq!(hot, vec![3]);
    }

    #[test]
    fn hot_marker_in_test_region_is_ignored() {
        let src =
            "#[cfg(test)]\nmod tests {\n    // doebench::hot\n    fn t() { let x = vec![1]; }\n}\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", src), vec![]);
    }

    // Regression tests for the v1 `hot_region_lines` latch bug class: the
    // old brace-counting latch lost track of one-line bodies and of `fn`
    // keywords that only existed inside literals.

    #[test]
    fn one_line_hot_fn_is_flagged() {
        let src = "// doebench::hot\nfn fast() -> Vec<u8> { vec![0u8; 8] }\n";
        let f = lint_file("crates/foo/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HotPathAlloc);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn nested_closures_inside_hot_fn_stay_hot() {
        let src = "\
// doebench::hot
fn pump(xs: &[u32]) {
    xs.iter().for_each(|x| {
        let label = format!(\"{x}\");
        let _ = label;
    });
}
";
        let f = lint_file("crates/foo/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HotPathAlloc);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn fn_keyword_in_string_does_not_end_hot_region() {
        let src = "\
// doebench::hot
fn fast() {
    let s = \"} fn decoy() {\";
    let v = vec![1];
    let _ = (s, v);
}
fn cool() {
    let v = vec![2];
    let _ = v;
}
";
        let f = lint_file("crates/foo/src/lib.rs", src);
        // Only the real hot body's allocation fires; the decoy string
        // neither ends the hot region nor starts a new fn.
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn fn_keyword_in_comment_tail_does_not_open_an_item() {
        let src = "\
// doebench::hot
fn fast() { // closes like fn ghost() {
    let v = vec![1];
    let _ = v;
}
";
        let f = lint_file("crates/foo/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn in_source_waiver_suppresses_with_reason_only() {
        let with_reason = "// dessan::allow(wall-clock): native backend measures real elapsed time.\nfn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", with_reason), vec![]);
        let reasonless = "// dessan::allow(wall-clock):\nfn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(
            rules_of("crates/foo/src/lib.rs", reasonless),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn waiver_mentioned_in_prose_does_not_waive() {
        let src = "// Unlike the native backend, which uses dessan::allow(wall-clock): here, this must not read the clock.\nfn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(
            rules_of("crates/mpisim/src/x.rs", src),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn waiver_quoted_in_a_doc_comment_does_not_waive() {
        let src = "/// Waive with `dessan::allow(wall-clock): <reason>` next to the site.\nfn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(
            rules_of("crates/mpisim/src/x.rs", src),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn file_level_waiver_covers_every_site() {
        let src = "//! dessan::allow(unwrap-in-sim): panics are this module's documented contract.\nfn f(x: Option<u32>) { x.unwrap(); }\nfn g(y: Option<u32>) { y.unwrap(); }\n";
        assert_eq!(rules_of("crates/simtime/src/time.rs", src), vec![]);
    }

    #[test]
    fn run_flags_a_seeded_fixture_and_accepts_a_clean_tree() {
        let dir = std::env::temp_dir().join(format!("dessan-lint-fixture-{}", std::process::id()));
        let src = dir.join("crates/fix/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "use std::time::Instant;\nfn f() { let _ = std::env::var(\"HOME\"); }\n",
        )
        .unwrap();
        let report = run(&dir).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.files, 1);

        // Waiving both sites in source makes the same tree clean.
        std::fs::write(
            src.join("lib.rs"),
            "// dessan::allow(wall-clock): fixture.\nuse std::time::Instant;\n// dessan::allow(env-read): fixture.\nfn f() { let _ = std::env::var(\"HOME\"); }\n",
        )
        .unwrap();
        let report = run(&dir).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.files, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_reports_transitive_findings_across_files() {
        let dir =
            std::env::temp_dir().join(format!("dessan-transitive-fixture-{}", std::process::id()));
        let src = dir.join("crates/fix/src");
        std::fs::create_dir_all(&src).unwrap();
        // Hot fn -> helper (other file) -> allocating helper, two levels.
        std::fs::write(
            src.join("lib.rs"),
            "mod helpers;\n// doebench::hot\nfn pump() {\n    step();\n}\nfn step() {\n    crate::helpers::grow();\n}\n",
        )
        .unwrap();
        std::fs::write(
            src.join("helpers.rs"),
            "pub fn grow() {\n    let v = vec![0u8; 64];\n    let _ = v;\n}\n",
        )
        .unwrap();
        let report = run(&dir).unwrap();
        let transitive: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::HotPathAlloc)
            .collect();
        assert_eq!(transitive.len(), 1, "findings: {:?}", report.findings);
        assert_eq!(transitive[0].path, "crates/fix/src/lib.rs");
        assert_eq!(transitive[0].line, 4);
        assert_eq!(transitive[0].chain, vec!["pump", "step", "grow"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
