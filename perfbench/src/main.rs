//! The repository's benchmark: three closed-loop workloads over the
//! public entry points of `doebench` and `doebenchd`, reporting
//! end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --all [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form runs one workload and prints a summary, then the result
//! as one JSON object on the last line. `--all` runs every workload, each
//! in its own process, untraced and then traced, and exits non-zero if
//! any output check or traffic cross-check failed.

mod calib;
mod daemon;
mod paper_suite;
mod report;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use doebench::report::json::{self, Json};

/// Workload names, in report order.
const WORKLOADS: [&str; 3] = ["paper-suite", "daemon-hit", "daemon-seed-sweep"];

const USAGE: &str = "usage: perfbench --workload <paper-suite|daemon-hit|daemon-seed-sweep> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --all [--seed <n>] [--seconds <s>]";

struct Args {
    all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        all: false,
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--all" {
            a.all = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = Some(value),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()?.max(1),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if !a.all && a.workload.is_none() {
        return Err("--workload or --all is required".into());
    }
    Ok(a)
}

fn run_one(workload: &str, a: &Args) -> report::RunResult {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    match workload {
        "paper-suite" => paper_suite::run(a.seed, a.seconds, a.trace),
        "daemon-hit" => daemon::hit(a.seed, a.seconds, a.trace, nproc),
        "daemon-seed-sweep" => daemon::seed_sweep(a.seed, a.seconds, a.trace),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Run every workload in a child process, untraced then traced, and
/// relay each summary. True when every run was correct and complete.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w, "--trace", trace])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .output()
                .map_err(|e| format!("{w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for l in lines {
                println!("{l}");
            }
            let result = json::parse(last).map_err(|e| format!("{w}: no result line ({e})"))?;
            let correct = matches!(result.get("correct"), Some(Json::Bool(true)));
            let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            if !out.status.success() || !correct || failed != 0.0 {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                println!("  FAILED: {w} --trace {trace}");
                ok = false;
            }
            println!();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.all {
        return match run_all(&a) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let w = a.workload.as_deref().expect("checked by parse_args");
    let result = run_one(w, &a);
    let header = format!(
        "perfbench {w} seed={} seconds={} trace={} pool={} nproc={}",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        doebench::benchlib::par::effective_jobs(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report::print(&header, &result);
    ExitCode::SUCCESS
}
