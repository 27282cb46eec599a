//! Workspace determinism lint gate.
//!
//! ```text
//! cargo run --release -p dessan --bin dessan-lint \
//!     [--format json|text] [--timings] [workspace-root]
//! ```
//!
//! Scans `crates/*/src/**/*.rs`, prints violations, and exits nonzero if
//! any remain. Justified sites carry in-source
//! `dessan::allow(<rule>): <reason>` waivers. `--timings` prints a
//! per-phase wall-time scoreboard to stderr (host clock — never simulated
//! time).
//!
//! Exit codes: `0` clean, `1` findings, `2` scan/internal errors
//! (unreadable root, bad CLI arguments).
//!
//! `--format json` emits a single machine-readable object on stdout:
//!
//! ```json
//! {
//!   "files": 114,
//!   "violations": 1,
//!   "rules": ["wall-clock", "…", "effect-contract", "lock-order", "key-coverage"],
//!   "findings": [
//!     {"rule": "hot-path-alloc", "path": "crates/mpisim/src/world.rs",
//!      "line": 766, "message": "…", "chain": ["pingpong", "check_findings"]}
//!   ]
//! }
//! ```

use std::path::PathBuf;

/// JSON string escaping per RFC 8259 (no serde in this workspace).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: impl Iterator<Item = String>) -> String {
    let inner: Vec<String> = items.collect();
    format!("[{}]", inner.join(","))
}

fn usage_exit() -> ! {
    eprintln!("usage: dessan-lint [--format json|text] [--timings] [workspace-root]");
    std::process::exit(2);
}

fn main() {
    let mut format_json = false;
    let mut timings = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                _ => usage_exit(),
            },
            "--format=json" => format_json = true,
            "--format=text" => format_json = false,
            "--timings" => timings = true,
            a if a.starts_with('-') => usage_exit(),
            a if root.is_none() => root = Some(PathBuf::from(a)),
            _ => usage_exit(),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    let report = match dessan::lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dessan-lint: cannot scan {}: {e}", root.display());
            std::process::exit(2);
        }
    };

    if timings {
        let total: std::time::Duration = report.timings.iter().map(|(_, d)| *d).sum();
        eprintln!("dessan-lint phase timings (host clock):");
        for (name, d) in &report.timings {
            eprintln!("  {:>9.3} ms  {name}", d.as_secs_f64() * 1e3);
        }
        eprintln!(
            "  {:>9.3} ms  total (analysis only)",
            total.as_secs_f64() * 1e3
        );
    }

    if format_json {
        let findings = json_list(report.findings.iter().map(|f| {
            format!(
                "{{\"rule\":{},\"path\":{},\"line\":{},\"message\":{},\"chain\":{}}}",
                json_str(f.rule.id()),
                json_str(&f.path),
                f.line,
                json_str(&f.message),
                json_list(f.chain.iter().map(|h| json_str(h))),
            )
        }));
        let rules = json_list(dessan::lint::Rule::ALL.iter().map(|r| json_str(r.id())));
        println!(
            "{{\"files\":{},\"violations\":{},\"rules\":{},\"findings\":{}}}",
            report.files,
            report.findings.len(),
            rules,
            findings,
        );
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        eprintln!(
            "dessan-lint: {} file(s), {} violation(s)",
            report.files,
            report.findings.len()
        );
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}
