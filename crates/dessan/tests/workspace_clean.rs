//! The pristine workspace is lint-clean, and the lint scans every source
//! file under `crates/*/src`.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// `.rs` files under `dir`, any depth.
fn count_rs(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("readable entry").path())
        .map(|p| {
            if p.is_dir() {
                count_rs(&p)
            } else {
                usize::from(p.extension().is_some_and(|e| e == "rs"))
            }
        })
        .sum()
}

#[test]
fn pristine_workspace_has_no_findings_and_every_file_is_scanned() {
    let root = workspace_root();
    let report = dessan::lint::run(&root).expect("workspace scans");
    let listed: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.is_clean(),
        "lint findings on the pristine workspace:\n{}",
        listed.join("\n")
    );

    let want: usize = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|e| e.expect("readable entry").path().join("src"))
        .filter(|src| src.is_dir())
        .map(|src| count_rs(&src))
        .sum();
    assert_eq!(report.files, want, "files scanned vs crates/*/src/**/*.rs");
}
