//! `doebench` — command-line driver for the DOE Top500 microbenchmark
//! suite.
//!
//! ```text
//! doebench table4 [machine...] [--full] [--md|--csv|--json]
//! doebench compare [--full] [--outdir DIR]
//! doebench serve [--port N]          start the query daemon
//! doebench query <shorthand|json>    ask a daemon (or --local)
//! doebench help                      the full command list
//! ```
//!
//! Every subcommand's flags are declared in a [`args::CmdSpec`] and
//! parsed by the typed parser in [`args`]; usage text is generated from
//! the same declarations. The table subcommands are thin clients of
//! `doebench::query` — the same typed [`Query`] path the daemon serves,
//! so CLI output and daemon bodies are byte-identical by construction.

mod args;

use std::io::Write as _;

use args::{CmdSpec, Flag, Parsed};
use doebench::omp::EnvCombo;
use doebench::query::{self, MachineSel, Query, QueryParams, TableId};
use doebench::report::{Format, Table};
use doebench::{experiments, figures, Campaign};

// Flags shared by every subcommand (campaign scope + worker pool).
const FULL: Flag = Flag::bool("full", "run the paper's 100-repetition protocol");
const CHECK: Flag = Flag::bool(
    "check",
    "run the happens-before sanitizer; exit 1 on findings",
);
const JOBS: Flag = Flag::uint("jobs", "N", 1, "worker threads (default: all cores)");

// Output-format flags (mutually exclusive).
const MD: Flag = Flag::excl("md", "render as markdown", &["csv", "json"]);
const CSV: Flag = Flag::excl("csv", "render as CSV", &["md", "json"]);
const JSON: Flag = Flag::excl("json", "render as canonical JSON", &["md", "csv"]);

const BASE: [Flag; 3] = [FULL, CHECK, JOBS];
const TABLE_FLAGS: [Flag; 6] = [FULL, CHECK, JOBS, MD, CSV, JSON];
const TEXT_FLAGS: [Flag; 5] = [FULL, CHECK, JOBS, MD, CSV];
// For commands whose output the repetition protocol does not change.
const FIXED_BASE: [Flag; 2] = [CHECK, JOBS];
const FIXED_TEXT_FLAGS: [Flag; 4] = [CHECK, JOBS, MD, CSV];

/// All subcommands, in help order.
const COMMANDS: &[CmdSpec] = &[
    CmdSpec {
        name: "table1",
        positionals: "",
        about: "OMP_* sweep combinations",
        flags: &FIXED_TEXT_FLAGS,
    },
    CmdSpec {
        name: "table4",
        positionals: "[machine...]",
        about: "CPU machines: mem BW + MPI latency",
        flags: &TABLE_FLAGS,
    },
    CmdSpec {
        name: "table5",
        positionals: "[machine...]",
        about: "GPU machines: device BW + MPI latency",
        flags: &TABLE_FLAGS,
    },
    CmdSpec {
        name: "table6",
        positionals: "[machine...]",
        about: "GPU machines: Comm|Scope",
        flags: &TABLE_FLAGS,
    },
    CmdSpec {
        name: "table7",
        positionals: "",
        about: "min-max summary per accelerator",
        flags: &TABLE_FLAGS,
    },
    CmdSpec {
        name: "compare",
        positionals: "",
        about: "all tables, paper vs measured (markdown)",
        flags: &[
            FULL,
            CHECK,
            JOBS,
            Flag::string("outdir", "DIR", "write the artifact bundle here"),
        ],
    },
    CmdSpec {
        name: "check",
        positionals: "",
        about: "self-verify the headline claims",
        flags: &BASE,
    },
    CmdSpec {
        name: "machines",
        positionals: "",
        about: "system inventory (Tables 2-3)",
        flags: &[
            CHECK,
            JOBS,
            MD,
            CSV,
            Flag::excl("cpu", "CPU machines only", &["gpu"]),
            Flag::excl("gpu", "accelerator machines only", &["cpu"]),
        ],
    },
    CmdSpec {
        name: "env",
        positionals: "",
        about: "software environments (Tables 8-9)",
        flags: &[
            CHECK,
            JOBS,
            MD,
            CSV,
            Flag::excl("cpu", "CPU machines only", &["gpu"]),
            Flag::excl("gpu", "accelerator machines only", &["cpu"]),
        ],
    },
    CmdSpec {
        name: "figure",
        positionals: "<1|2|3>",
        about: "node diagrams (Figures 1-3)",
        flags: &[
            CHECK,
            JOBS,
            Flag::bool("dot", "emit Graphviz instead of ASCII"),
        ],
    },
    CmdSpec {
        name: "explain",
        positionals: "[machine]",
        about: "the model algebra behind a row",
        flags: &FIXED_BASE,
    },
    CmdSpec {
        name: "sweep",
        positionals: "[machine]",
        about: "OSU latency curve (table or SVG)",
        flags: &[
            FULL,
            CHECK,
            JOBS,
            MD,
            CSV,
            Flag::string("svg", "PATH", "write an SVG chart instead of a table"),
        ],
    },
    CmdSpec {
        name: "trace",
        positionals: "[machine]",
        about: "chrome://tracing timeline of a run",
        flags: &[
            CHECK,
            JOBS,
            Flag::string("out", "PATH", "write the JSON timeline here"),
        ],
    },
    CmdSpec {
        name: "native",
        positionals: "[elems]",
        about: "BabelStream on this host",
        flags: &FIXED_TEXT_FLAGS,
    },
    CmdSpec {
        name: "table4-native",
        positionals: "",
        about: "this host's Table 4 row",
        flags: &TEXT_FLAGS,
    },
    CmdSpec {
        name: "latency",
        positionals: "",
        about: "pointer-chase latency on this host",
        flags: &FIXED_TEXT_FLAGS,
    },
    CmdSpec {
        name: "internode",
        positionals: "",
        about: "inter-node study (future work 1)",
        flags: &FIXED_TEXT_FLAGS,
    },
    CmdSpec {
        name: "collectives",
        positionals: "[machine]",
        about: "executed intra-node collectives",
        flags: &FIXED_TEXT_FLAGS,
    },
    CmdSpec {
        name: "extensions",
        positionals: "",
        about: "AMD/Arm/HBM CPUs (future work 3)",
        flags: &TEXT_FLAGS,
    },
    CmdSpec {
        name: "variants",
        positionals: "[machine]",
        about: "MPI implementations (future work 4)",
        flags: &TEXT_FLAGS,
    },
    CmdSpec {
        name: "serve",
        positionals: "",
        about: "start the benchmark-query daemon",
        flags: &[
            CHECK,
            JOBS,
            Flag::uint("port", "N", 0, "TCP port (default 7733; 0 = ephemeral)"),
        ],
    },
    CmdSpec {
        name: "query",
        positionals: "<shorthand|json>",
        about: "send a query to a daemon (or --local)",
        flags: &[
            CHECK,
            JOBS,
            Flag::string(
                "addr",
                "HOST:PORT",
                "daemon address (default 127.0.0.1:7733)",
            ),
            Flag::string("format", "F", "ascii|md|csv|json (default ascii)"),
            Flag::bool("local", "answer in-process instead of asking a daemon"),
        ],
    },
];

fn spec_for(cmd: &str) -> Option<&'static CmdSpec> {
    let canonical = match cmd {
        "experiments" => "compare",
        other => other,
    };
    COMMANDS.iter().find(|s| s.name == canonical)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map(String::as_str).unwrap_or("help");
    if matches!(cmd, "help" | "--help" | "-h") {
        print_help();
        return;
    }
    let Some(spec) = spec_for(cmd) else {
        eprintln!("unknown command: {cmd}\n");
        print_help();
        std::process::exit(2);
    };
    if argv[1..].iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", spec.help());
        return;
    }
    let p = args::parse(spec, &argv[1..]).unwrap_or_else(|e| die(&e));

    let checked = p.has("check");
    if checked {
        // Must happen before any world is constructed: runtimes snapshot
        // the flag at creation time.
        doebench::dessan::set_checks_enabled(true);
    }
    if let Some(jobs) = p.uint("jobs") {
        doebench::benchlib::set_jobs(jobs as usize);
    }
    let full = p.has("full");
    let campaign = if full {
        Campaign::paper()
    } else {
        Campaign::quick()
    };

    run_command(spec, &p, &campaign, full);

    if checked {
        let findings = doebench::dessan::take_global_findings();
        if !findings.is_empty() {
            eprintln!("doebench --check: {} sanitizer finding(s):", findings.len());
            for f in &findings {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!("doebench --check: no sanitizer findings");
    }
}

/// The selected output format (`Ascii` when no format flag was given).
fn format_of(p: &Parsed) -> Format {
    if p.has("md") {
        Format::Markdown
    } else if p.has("csv") {
        Format::Csv
    } else if p.has("json") {
        Format::Json
    } else {
        Format::Ascii
    }
}

/// Render a legacy string-table in the selected text format.
fn render_table(p: &Parsed, t: Table) -> String {
    match format_of(p) {
        Format::Markdown => t.to_markdown(),
        Format::Csv => t.to_csv(),
        _ => t.to_ascii(),
    }
}

/// Run a table query through the same typed path the daemon serves.
fn print_table_query(id: TableId, p: &Parsed, full: bool) {
    let machines = if p.positionals.is_empty() {
        MachineSel::All
    } else {
        MachineSel::Named(p.positionals.clone())
    };
    let q = Query::Table {
        id,
        machines,
        params: if full {
            QueryParams::paper()
        } else {
            QueryParams::quick()
        },
    };
    let result = query::run_query(&q).unwrap_or_else(|e| die(&e.to_string()));
    print!("{}", result.body(format_of(p)));
}

fn no_positionals(spec: &CmdSpec, p: &Parsed) {
    if !p.positionals.is_empty() {
        die(&format!(
            "{} takes no positional arguments\n{}",
            spec.name,
            spec.usage()
        ));
    }
}

fn run_command(spec: &'static CmdSpec, p: &Parsed, campaign: &Campaign, full: bool) {
    match spec.name {
        "table1" => {
            no_positionals(spec, p);
            let mut t = Table::new(
                "Table 1: OpenMP environment combinations",
                &["OMP_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES"],
            );
            for c in EnvCombo::table1() {
                let s = c.to_string();
                let cells: Vec<String> = s
                    .split_whitespace()
                    .map(|kv| kv.split('=').nth(1).unwrap_or("-").to_string())
                    .collect();
                t.push_row(cells);
            }
            print!("{}", render_table(p, t));
        }
        "table4" => print_table_query(TableId::Table4, p, full),
        "table5" => print_table_query(TableId::Table5, p, full),
        "table6" => print_table_query(TableId::Table6, p, full),
        "table7" => {
            no_positionals(spec, p);
            print_table_query(TableId::Table7, p, full);
        }
        "check" => {
            no_positionals(spec, p);
            // Self-verification: regenerate and test the headline claims.
            let claims = doebench::verify::run_checks(campaign);
            let mut failures = 0;
            for c in &claims {
                let status = if c.pass { "PASS" } else { "FAIL" };
                if !c.pass {
                    failures += 1;
                }
                println!("[{status}] {}", c.name);
                println!("       {}", c.detail);
            }
            println!(
                "\n{}/{} headline claims reproduced",
                claims.len() - failures,
                claims.len()
            );
            if failures > 0 {
                std::process::exit(1);
            }
        }
        "compare" => {
            no_positionals(spec, p);
            let results = experiments::run_all(campaign);
            match p.str("outdir") {
                Some(dir) => {
                    let written =
                        doebench::bundle::write_bundle(&results, std::path::Path::new(dir))
                            .unwrap_or_else(|e| die(&format!("write bundle to {dir}: {e}")));
                    eprintln!("{} artifacts written to {dir}", written.len());
                }
                None => print!("{}", experiments::render_markdown(&results)),
            }
        }
        "machines" => {
            no_positionals(spec, p);
            let mut t = Table::new(
                "Tables 2-3: US DOE systems above rank 150, June 2023 Top500",
                &[
                    "Rank/Name",
                    "Location",
                    "CPU",
                    "Accelerator",
                    "Devices",
                    "Cores",
                ],
            );
            for m in doebench::machines::all_machines() {
                if (p.has("cpu") && m.is_accelerated()) || (p.has("gpu") && !m.is_accelerated()) {
                    continue;
                }
                t.push_row(vec![
                    m.table_label(),
                    m.location.to_string(),
                    m.cpu_model.to_string(),
                    m.accelerator_model.unwrap_or("-").to_string(),
                    m.topo.device_count().to_string(),
                    m.topo.core_count().to_string(),
                ]);
            }
            print!("{}", render_table(p, t));
        }
        "env" => {
            no_positionals(spec, p);
            let mut t = Table::new(
                "Tables 8-9: software environments",
                &["Rank/Name", "Compiler", "Device Library", "MPI"],
            );
            for m in doebench::machines::all_machines() {
                if (p.has("cpu") && m.is_accelerated()) || (p.has("gpu") && !m.is_accelerated()) {
                    continue;
                }
                t.push_row(vec![
                    m.table_label(),
                    m.software.compiler.to_string(),
                    m.software.device_library.unwrap_or("-").to_string(),
                    m.software.mpi.to_string(),
                ]);
            }
            print!("{}", render_table(p, t));
        }
        "explain" => {
            // The model algebra behind one machine's table rows.
            let machine = p
                .positionals
                .first()
                .map(String::as_str)
                .unwrap_or("Frontier");
            match doebench::explain::machine_report(machine) {
                Some(r) => print!("{r}"),
                None => die(&format!("unknown machine: {machine}")),
            }
        }
        "figure" => {
            let n: u8 = p
                .positionals
                .first()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| die(&spec.usage()));
            let out = if p.has("dot") {
                figures::render_dot(n)
            } else {
                figures::render_ascii(n)
            };
            match out {
                Some(s) => print!("{s}"),
                None => die("figure must be 1, 2, or 3"),
            }
        }
        "native" => {
            let elems: usize = p
                .positionals
                .first()
                .and_then(|s| s.parse().ok())
                .unwrap_or(4 * 1024 * 1024);
            let rep =
                doebench::babelstream::run_native(&doebench::babelstream::NativeStreamConfig {
                    elems,
                    iters: 20,
                    nthreads: None,
                });
            let mut t = Table::new(
                format!(
                    "BabelStream (native, {} threads, {} doubles, verified: {})",
                    rep.nthreads, elems, rep.verified
                ),
                &["Kernel", "Mean GB/s", "Best GB/s"],
            );
            for (op, s) in &rep.per_op {
                t.push_row(vec![
                    op.to_string(),
                    format!("{:.2}", s.mean),
                    format!("{:.2}", s.max),
                ]);
            }
            print!("{}", render_table(p, t));
        }
        "sweep" => {
            // OSU message-size latency curve on one machine, as a table or
            // a standalone SVG chart.
            let machine = p.positionals.first().map(String::as_str).unwrap_or("Eagle");
            let m = doebench::machines::by_name(machine)
                .unwrap_or_else(|| die(&format!("unknown machine: {machine}")));
            let mut cfg = doebench::osu::OsuConfig::paper();
            cfg.reps = if full { 100 } else { 10 };
            cfg.small_iters = if full { 1000 } else { 100 };
            cfg.large_iters = if full { 100 } else { 10 };
            let socket =
                doebench::osu::on_socket_pair(&m.topo).unwrap_or_else(|| die("machine too small"));
            let node =
                doebench::osu::on_node_pair(&m.topo).unwrap_or_else(|| die("machine too small"));
            // The two sweeps are independent runs: they fan out over the
            // worker pool.
            let mut sweeps =
                doebench::sched::run_cells(&[(socket, 1), (node, 2)], |&(cores, seed)| {
                    doebench::osu::osu_latency(&m.topo, &m.mpi, cores, &cfg, seed)
                })
                .into_iter();
            let (Some(lat_s), Some(lat_n)) = (sweeps.next(), sweeps.next()) else {
                unreachable!("one sweep per pair");
            };
            if let Some(path) = p.str("svg") {
                let mut chart = doebench::report::LineChart::new(
                    format!("OSU point-to-point latency on {}", m.name),
                    "message size (bytes)",
                    "one-way latency (us)",
                );
                chart.log_x = true;
                chart.log_y = true;
                let series = |pts: &[doebench::osu::LatencyPoint]| -> Vec<(f64, f64)> {
                    pts.iter()
                        .map(|pt| (pt.bytes.max(1) as f64, pt.one_way_us.mean))
                        .collect()
                };
                chart.push_series("on-socket", series(&lat_s));
                chart.push_series("on-node", series(&lat_n));
                std::fs::write(path, chart.to_svg())
                    .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
                eprintln!("chart written to {path}");
            } else {
                let mut t = Table::new(
                    format!("OSU latency sweep on {}", m.name),
                    &["Bytes", "On-Socket (us)", "On-Node (us)"],
                );
                for (s, n) in lat_s.iter().zip(&lat_n) {
                    t.push_row(vec![
                        s.bytes.to_string(),
                        format!("{:.3}", s.one_way_us.mean),
                        format!("{:.3}", n.one_way_us.mean),
                    ]);
                }
                print!("{}", render_table(p, t));
            }
        }
        "trace" => {
            // Record a short simulated Comm|Scope-style sequence on a
            // machine and emit a chrome://tracing / Perfetto JSON timeline.
            let machine = p
                .positionals
                .first()
                .map(String::as_str)
                .unwrap_or("Frontier");
            let m = doebench::machines::by_name(machine)
                .unwrap_or_else(|| die(&format!("unknown machine: {machine}")));
            if !m.is_accelerated() {
                die("trace requires an accelerator machine");
            }
            let mut rt = doebench::gpurt::GpuRuntime::new(
                m.topo.clone(),
                m.gpu_models.into(),
                campaign.seed,
            );
            rt.enable_tracing();
            let dev = rt.current_device();
            let s = rt.default_stream(dev).expect("stream");
            let numa = m.topo.device(dev).expect("device").local_numa;
            let host = doebench::gpurt::Buffer::pinned_host(numa, 1 << 30);
            let devb = doebench::gpurt::Buffer::device(dev, 1 << 30);
            for _ in 0..8 {
                rt.launch_empty(&s).expect("launch");
            }
            rt.device_synchronize().expect("sync");
            for bytes in [128u64, 1 << 20, 1 << 26] {
                rt.memcpy_async(&devb, &host, bytes, &s).expect("h2d");
                rt.memcpy_async(&host, &devb, bytes, &s).expect("d2h");
            }
            rt.stream_synchronize(&s).expect("sync");
            let trace = rt.take_trace().expect("tracing enabled");
            let json = trace.to_chrome_json();
            match p.str("out") {
                Some(path) => {
                    std::fs::write(path, &json)
                        .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
                    eprintln!("{} spans written to {path}", trace.len());
                }
                None => println!("{json}"),
            }
        }
        "table4-native" => {
            no_positionals(spec, p);
            // The paper's Table 4 protocol on *this* machine.
            let cfg = if full {
                doebench::babelstream::NativeTable4Config::paper()
            } else {
                doebench::babelstream::NativeTable4Config {
                    elems: 8 * 1024 * 1024,
                    iters: 10,
                    reps: 5,
                }
            };
            let rep = doebench::babelstream::run_native_table4(&cfg);
            let mut t = Table::new(
                format!(
                    "This host's Table 4 row ({} cores x {} SMT detected)",
                    rep.topology.physical_cores,
                    rep.topology.smt()
                ),
                &["Single (GB/s)", "All (GB/s)", "Best kernel", "Best threads"],
            );
            t.push_row(vec![
                doebench::report::pm_summary(&rep.single),
                doebench::report::pm_summary(&rep.all),
                rep.best_op.to_string(),
                rep.best_threads.to_string(),
            ]);
            print!("{}", render_table(p, t));
        }
        "latency" => {
            no_positionals(spec, p);
            // Native pointer-chase: memory latency of this host.
            let pts = doebench::babelstream::run_pointer_chase(
                &doebench::babelstream::ChaseConfig::sweep(),
            );
            let mut t = Table::new(
                "Memory latency on this host (dependent pointer chase)",
                &["Working set", "ns/load"],
            );
            for pt in pts {
                t.push_row(vec![
                    format!("{} KiB", pt.bytes / 1024),
                    format!("{:.2}", pt.ns_per_load),
                ]);
            }
            print!("{}", render_table(p, t));
        }
        "extensions" => {
            no_positionals(spec, p);
            // Future work 3: the Intel/AMD/Arm comparison.
            print!(
                "{}",
                render_table(p, doebench::studies::cpu_vendor_table(campaign))
            );
        }
        "variants" => {
            // Future work 4: MPI implementation comparison.
            let machine = p
                .positionals
                .first()
                .map(String::as_str)
                .unwrap_or("Summit");
            match doebench::studies::mpi_variant_table(machine, campaign) {
                Some(t) => print!("{}", render_table(p, t)),
                None => die(&format!("unknown machine: {machine}")),
            }
        }
        "collectives" => {
            // Executed intra-node collectives on one machine.
            let machine = p
                .positionals
                .first()
                .map(String::as_str)
                .unwrap_or("Frontier");
            match doebench::studies::intranode_collectives_table(machine, campaign) {
                Some(t) => print!("{}", render_table(p, t)),
                None => die(&format!("unknown or too-small machine: {machine}")),
            }
        }
        "internode" => {
            no_positionals(spec, p);
            // Future work 1: inter-node latency/bandwidth, contention,
            // and collectives.
            print!(
                "{}",
                render_table(p, doebench::studies::internode_latency_table(1))
            );
            println!("\nContention (\"there goes the neighborhood\"):");
            for (flows, bw) in doebench::studies::contention_series(2, 7) {
                println!("  {flows} background flows: {bw:>6.2} GB/s");
            }
            println!();
            print!(
                "{}",
                render_table(p, doebench::studies::internode_collectives_table(4))
            );
            println!("\nPlacement study (8-rank ring allreduce, 1 MiB):");
            println!(
                "{:<24} {:>12} {:>12}",
                "placement", "quiet (us)", "noisy (us)"
            );
            for (name, quiet, noisy) in doebench::studies::placement_study(3, 8, 1 << 20) {
                println!("{name:<24} {quiet:>12.1} {noisy:>12.1}");
            }
        }
        "serve" => {
            no_positionals(spec, p);
            let port = p.uint("port").unwrap_or(doebenchd::DEFAULT_PORT as u64);
            if port > u16::MAX as u64 {
                die(&format!("--port must be at most {}", u16::MAX));
            }
            let mut server = doebenchd::Server::start(port as u16)
                .unwrap_or_else(|e| die(&format!("bind port {port}: {e}")));
            eprintln!("doebenchd listening on http://{}", server.addr());
            eprintln!("try: doebench query table4 --addr {}", server.addr());
            server.join();
        }
        "query" => run_query_command(spec, p),
        other => unreachable!("unrouted command {other}"),
    }
}

fn run_query_command(spec: &CmdSpec, p: &Parsed) {
    let text = p.positionals.join(" ");
    if text.is_empty() {
        die(&spec.usage());
    }
    let format_name = p.str("format").unwrap_or("ascii");
    let format = Format::parse(format_name)
        .unwrap_or_else(|| die(&format!("unknown format '{format_name}'")));
    let is_json_doc = text.trim_start().starts_with('{');

    if p.has("local") {
        let q = if is_json_doc {
            Query::parse(&text)
        } else {
            Query::parse_shorthand(&text)
        }
        .unwrap_or_else(|e| die(&format!("bad query: {e}")));
        let result = query::run_query(&q).unwrap_or_else(|e| die(&e.to_string()));
        write_stdout(result.body(format).as_bytes());
        eprintln!("cache: none (computed locally, key {})", result.key);
        return;
    }

    let addr = p.str("addr").unwrap_or("127.0.0.1:7733");
    let resp = if is_json_doc {
        doebenchd::client::query_json(addr, &text, format_name)
    } else {
        doebenchd::client::query_shorthand(addr, &text, format_name)
    }
    .unwrap_or_else(|e| die(&format!("{e} (is a daemon running? try: doebench serve)")));
    if resp.status != 200 {
        eprint!("{}", resp.text());
        std::process::exit(1);
    }
    write_stdout(&resp.body);
    let h = |name: &str| resp.header(name).unwrap_or("?").to_string();
    eprintln!(
        "cache: {} ({} cached, {} executed, {} coalesced; key {})",
        h("x-doebench-cache"),
        h("x-doebench-cells-cached"),
        h("x-doebench-cells-executed"),
        h("x-doebench-cells-coalesced"),
        h("x-doebench-key"),
    );
}

/// Write exact bytes to stdout (bodies must survive unmodified so
/// `cmp` against offline output holds in CI).
fn write_stdout(bytes: &[u8]) {
    let mut out = std::io::stdout();
    out.write_all(bytes).expect("write stdout");
    out.flush().expect("flush stdout");
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn print_help() {
    println!("doebench - latency & bandwidth microbenchmarks of US DOE Top500 systems\n");
    println!("usage: doebench <command> [args] [flags]\n");
    println!("commands:");
    for spec in COMMANDS {
        let head = if spec.positionals.is_empty() {
            spec.name.to_string()
        } else {
            format!("{} {}", spec.name, spec.positionals)
        };
        println!("  doebench {head:<34} {}", spec.about);
    }
    println!(
        "\ncommon flags:\n\
         \x20 --full        run the paper's 100-repetition protocol\n\
         \x20 --jobs N      worker threads (default: all cores; DOEBENCH_JOBS env)\n\
         \x20 --check       run the happens-before sanitizer;\n\
         \x20               exits 1 on any race/deadlock/leak finding\n\
         \x20 --md | --csv | --json   alternative table renderings\n\n\
         `doebench <command> --help` prints that command's generated usage."
    );
}
