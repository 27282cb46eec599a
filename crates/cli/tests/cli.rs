//! End-to-end tests of the `doebench` binary: real process spawns, real
//! argument parsing, real output.

use std::process::Command;

fn doebench(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_doebench"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_lists_every_command() {
    let (stdout, _, ok) = doebench(&["help"]);
    assert!(ok);
    for cmd in [
        "table1",
        "table4",
        "table5",
        "table6",
        "table7",
        "compare",
        "check",
        "machines",
        "env",
        "figure",
        "sweep",
        "trace",
        "native",
        "internode",
        "collectives",
        "extensions",
        "variants",
        "explain",
    ] {
        assert!(stdout.contains(&format!("doebench {cmd}")), "missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = doebench(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn table1_prints_the_eight_combos() {
    let (stdout, _, ok) = doebench(&["table1"]);
    assert!(ok);
    assert_eq!(stdout.matches("#cores").count(), 3);
    assert_eq!(stdout.matches("#threads").count(), 3);
}

#[test]
fn machines_filters_by_category() {
    let (cpu, _, ok) = doebench(&["machines", "--cpu"]);
    assert!(ok);
    assert!(cpu.contains("29. Trinity") && !cpu.contains("1. Frontier"));
    let (gpu, _, ok) = doebench(&["machines", "--gpu"]);
    assert!(ok);
    assert!(gpu.contains("1. Frontier") && !gpu.contains("141. Manzano"));
}

#[test]
fn figure_validates_its_argument() {
    let (stdout, _, ok) = doebench(&["figure", "2"]);
    assert!(ok);
    assert!(stdout.contains("Summit"));
    let (_, _, ok) = doebench(&["figure", "9"]);
    assert!(!ok);
    let (dot, _, ok) = doebench(&["figure", "1", "--dot"]);
    assert!(ok);
    assert!(dot.starts_with("graph"));
}

#[test]
fn env_matches_tables_8_and_9() {
    let (stdout, _, ok) = doebench(&["env"]);
    assert!(ok);
    assert!(stdout.contains("cray-mpich/8.1.23")); // Frontier
    assert!(stdout.contains("openmpi/1.10")); // Manzano
    assert!(stdout.contains("cuda/11.7")); // Perlmutter
}

#[test]
fn explain_renders_and_rejects() {
    let (stdout, _, ok) = doebench(&["explain", "Polaris"]);
    assert!(ok);
    assert!(stdout.contains("launch"));
    assert!(stdout.contains("(paper:"));
    let (_, _, ok) = doebench(&["explain", "nonesuch"]);
    assert!(!ok);
}

#[test]
fn csv_rendering_flag_applies() {
    let (stdout, _, ok) = doebench(&["machines", "--csv"]);
    assert!(ok);
    assert!(stdout.starts_with("Rank/Name,"));
    assert!(stdout.lines().count() >= 14);
}

#[test]
fn conflicting_format_flags_are_rejected() {
    let (_, stderr, ok) = doebench(&["machines", "--md", "--csv"]);
    assert!(!ok);
    assert!(stderr.contains("conflicts with"), "{stderr}");
}

#[test]
fn jobs_zero_is_rejected_cleanly() {
    let (_, stderr, ok) = doebench(&["table1", "--jobs", "0"]);
    assert!(!ok);
    assert!(stderr.contains("at least 1"), "{stderr}");
}

#[test]
fn unknown_flag_prints_generated_usage() {
    let (_, stderr, ok) = doebench(&["table4", "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --frobnicate"), "{stderr}");
    assert!(stderr.contains("usage: doebench table4"), "{stderr}");
}

#[test]
fn full_is_an_unknown_flag_where_the_protocol_changes_nothing() {
    for cmd in [
        "table1",
        "internode",
        "collectives",
        "native",
        "latency",
        "machines",
        "env",
        "figure",
        "explain",
        "trace",
    ] {
        let (stdout, stderr, ok) = doebench(&[cmd, "--full"]);
        assert!(!ok, "{cmd} accepted --full");
        assert!(stdout.is_empty(), "{cmd}: {stdout}");
        assert!(stderr.contains("unknown flag --full"), "{cmd}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: doebench {cmd}")),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn per_command_help_is_generated() {
    let (stdout, _, ok) = doebench(&["table4", "--help"]);
    assert!(ok);
    assert!(stdout.contains("usage: doebench table4 [machine...]"));
    assert!(stdout.contains("--json"));
}

#[test]
fn table4_accepts_a_machine_subset() {
    let (stdout, _, ok) = doebench(&["table4", "Eagle"]);
    assert!(ok);
    assert!(stdout.contains("127. Eagle"));
    assert!(!stdout.contains("29. Trinity"));
    let (_, stderr, ok) = doebench(&["table4", "NoSuchMachine"]);
    assert!(!ok);
    assert!(stderr.contains("unknown machine"), "{stderr}");
}

#[test]
fn local_query_matches_the_table_subcommand() {
    let (direct, _, ok) = doebench(&["table4"]);
    assert!(ok);
    let (queried, stderr, ok) = doebench(&["query", "--local", "table4"]);
    assert!(ok);
    assert_eq!(direct, queried, "query path must be byte-identical");
    assert!(stderr.contains("computed locally"), "{stderr}");
    let (json, _, ok) = doebench(&["query", "--local", "table4", "--format", "json"]);
    assert!(ok);
    assert!(json.starts_with("{\"code_version\""), "{json}");
}

/// FNV-1a 64 digests of the inter-node study's stdout in every output
/// format, and of `--check`'s stderr ("no sanitizer findings"). `--full`
/// and `--check` print the plain bytes: the study has no paper profile,
/// and the sanitizer only observes.
#[test]
fn internode_output_is_pinned() {
    use doebench::query::fnv1a64;
    const PLAIN: u64 = 0xc9f2c54a6dc1cd3f;
    for (args, want) in [
        (&["internode"][..], PLAIN),
        (&["internode", "--md"], 0xaa7ac4a9f27c5134),
        (&["internode", "--csv"], 0xa83ebf49cb1e3e1d),
        (&["internode", "--check"], PLAIN),
    ] {
        let (stdout, stderr, ok) = doebench(args);
        assert!(ok, "{args:?}: {stderr}");
        let got = fnv1a64(stdout.as_bytes());
        assert_eq!(got, want, "{args:?} stdout moved: {got:#018x}");
        if args.contains(&"--check") {
            let got = fnv1a64(stderr.as_bytes());
            assert_eq!(
                got, 0x0b6dbb78c70cecdf,
                "stderr moved: {got:#018x} {stderr}"
            );
        }
    }
}

/// FNV-1a 64 digests of the executed intra-node collectives table on the
/// default machine (Frontier) and on Manzano, in every output format, and
/// of `--check`'s stderr ("no sanitizer findings"). `--check` prints the
/// plain bytes: the sanitizer only observes.
#[test]
fn collectives_output_is_pinned() {
    use doebench::query::fnv1a64;
    const FRONTIER: u64 = 0x5c61f5e03105c277;
    const MANZANO: u64 = 0x1e54166cdc3efb24;
    for (args, want) in [
        (&["collectives"][..], FRONTIER),
        (&["collectives", "--md"], 0xc5876b47662c6b8d),
        (&["collectives", "--csv"], 0x9d03792e6a8aa87a),
        (&["collectives", "--check"], FRONTIER),
        (&["collectives", "Manzano"], MANZANO),
        (&["collectives", "Manzano", "--md"], 0x7978199d7514215e),
        (&["collectives", "Manzano", "--csv"], 0x656dd3bbc3f79f5a),
        (&["collectives", "Manzano", "--check"], MANZANO),
    ] {
        let (stdout, stderr, ok) = doebench(args);
        assert!(ok, "{args:?}: {stderr}");
        let got = fnv1a64(stdout.as_bytes());
        assert_eq!(got, want, "{args:?} stdout moved: {got:#018x}");
        if args.contains(&"--check") {
            let got = fnv1a64(stderr.as_bytes());
            assert_eq!(
                got, 0x0b6dbb78c70cecdf,
                "{args:?} stderr moved: {got:#018x} {stderr}"
            );
        }
    }
}

/// FNV-1a 64 digests of the latency sweep, the MPI-variant study and the
/// CPU-vendor study, in both protocols where the command has two. These
/// commands run their benchmarks directly, outside the query path's cell
/// fan-out, so no other test pins their bytes.
#[test]
fn direct_study_outputs_are_pinned() {
    use doebench::query::fnv1a64;
    for (args, want) in [
        (&["sweep", "Frontier"][..], 0x735975b7f68ed67c),
        (&["sweep", "--full", "Frontier"], 0x2e51642609b9e5d9),
        (&["variants", "Summit"], 0xee742074aaebf3bb),
        (&["variants", "--full", "Summit"], 0x2d2283f207352f02),
        (&["extensions"], 0x48f2ca0ccdd69675),
    ] {
        let (stdout, stderr, ok) = doebench(args);
        assert!(ok, "{args:?}: {stderr}");
        let got = fnv1a64(stdout.as_bytes());
        assert_eq!(got, want, "{args:?} stdout moved: {got:#018x}");
    }
}

/// FNV-1a 64 digests of `doebench trace <m>`'s Chrome JSON for every
/// accelerator machine in the catalog: span names, tracks and the µs
/// `ts`/`dur` of every simulated launch and copy.
#[test]
fn trace_output_is_pinned() {
    use doebench::query::fnv1a64;
    for (machine, want) in [
        ("Frontier", 0x0d0e089a06e4358a),
        ("Summit", 0xc9b329fe8901668b),
        ("Sierra", 0x0aadd134670fd748),
        ("Perlmutter", 0x63e2857688f50f0b),
        ("Polaris", 0x1f55d38e29ee5ec7),
        ("Lassen", 0xcbe15f2171e7f2de),
        ("RZVernal", 0x264df8265d24b313),
        ("Tioga", 0xdb2a061fa222e136),
    ] {
        let (stdout, stderr, ok) = doebench(&["trace", machine]);
        assert!(ok, "{machine}: {stderr}");
        let got = fnv1a64(stdout.as_bytes());
        assert_eq!(got, want, "{machine} trace moved: {got:#018x}");
    }
}
