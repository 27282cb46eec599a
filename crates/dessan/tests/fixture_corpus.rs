//! Fixture-corpus regression test for the dataflow analyses.
//!
//! Each file under `tests/fixtures/` is a small Rust source exercising a
//! CFG, dataflow or call-graph edge case (lock cycles, guards across
//! waits, key-coverage holes, effect chains, hot-path allocations at any
//! depth) or a scoped token rule. The first line is
//! a `//@ path: crates/<crate>/src/<name>.rs` header giving the *pretend*
//! workspace path the file is linted under (crate scoping — unit-extract
//! only runs in unit-bearing crates, env-read exemptions, etc.).
//!
//! Expected findings are trailing `//~ rule-id` markers on the exact
//! line the finding is reported at; a line may carry several
//! whitespace-separated ids after one `//~`. The assertion is
//! bidirectional: every marker must be matched by a finding and every
//! finding by a marker, so both false negatives AND false positives in
//! the analyses fail this test.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// `(line, rule-id)` expectations from `//~` markers.
fn expectations(src: &str) -> BTreeSet<(usize, String)> {
    let mut out = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        for id in line[pos + 3..].split_whitespace() {
            out.insert((i + 1, id.to_string()));
        }
    }
    out
}

fn pretend_path(src: &str, file: &Path) -> String {
    let first = src.lines().next().unwrap_or("");
    first
        .strip_prefix("//@ path:")
        .map(|p| p.trim().to_string())
        .unwrap_or_else(|| panic!("{}: missing `//@ path:` header", file.display()))
}

#[test]
fn fixture_corpus_matches_expectations_exactly() {
    let dir = fixtures_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures dir exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 10,
        "fixture corpus unexpectedly small ({} files)",
        entries.len()
    );

    let mut failures = Vec::new();
    for path in &entries {
        let src = std::fs::read_to_string(path).expect("readable fixture");
        let expected = expectations(&src);
        let lint_path = pretend_path(&src, path);
        let actual: BTreeSet<(usize, String)> = dessan::lint::lint_file(&lint_path, &src)
            .into_iter()
            .map(|f| (f.line, f.rule.id().to_string()))
            .collect();
        for miss in expected.difference(&actual) {
            failures.push(format!(
                "{}:{}: expected `{}` was NOT reported (false negative)",
                path.display(),
                miss.0,
                miss.1
            ));
        }
        for extra in actual.difference(&expected) {
            failures.push(format!(
                "{}:{}: unexpected `{}` finding (false positive)",
                path.display(),
                extra.0,
                extra.1
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn fixtures_cover_all_dataflow_rules() {
    // The corpus must keep exercising every dataflow- and call-graph-backed
    // rule and the crate-scoped `unit-extract`; a new rule without a
    // fixture fails here until one is added.
    let mut seen = BTreeSet::new();
    for entry in std::fs::read_dir(fixtures_dir())
        .expect("fixtures dir")
        .flatten()
    {
        let src = std::fs::read_to_string(entry.path()).expect("readable fixture");
        for (_, id) in expectations(&src) {
            seen.insert(id);
        }
    }
    for required in [
        "hot-path-alloc",
        "unit-extract",
        "effect-contract",
        "lock-order",
        "key-coverage",
    ] {
        assert!(seen.contains(required), "no fixture exercises `{required}`");
    }
}
