//! Golden response-body digests: the rendered JSON body of a fixed set of
//! queries, pinned as FNV-1a 64 constants.
//!
//! The determinism, `--check` and queue/shard A/B tests compare two runs
//! of the *same* code on the quick campaign. These digests compare the
//! code against the bodies it produced before the simulated ping-pong
//! gained its steady-state fast-forward, and they reach what the quick
//! campaign does not: every sweepable machine across the whole OSU size
//! ladder (eager and rendezvous sizes, at two seeds) and one sweep at the
//! paper's iteration counts (1000 / 100 round trips per rep).
//!
//! A digest changes only when a body changes. If a change is meant to
//! move results, update the constants from the failure message and say
//! why in the commit.

use doebench::machines::all_machines;
use doebench::osu::{on_node_pair, on_socket_pair};
use doebench::query::{fnv1a64, run_query, Query};
use doebench::report::Format;

/// Every sweepable machine (one with both an on-socket and an on-node
/// core pair); the quick sweeps below cover each at seeds 1 and 2.
const SWEEPABLE: &[&str] = &[
    "Frontier",
    "Summit",
    "Sierra",
    "Perlmutter",
    "Polaris",
    "Trinity",
    "Lassen",
    "Theta",
    "Sawtooth",
    "RZVernal",
    "Eagle",
    "Tioga",
    "Manzano",
];

/// (shorthand query, FNV-1a 64 of its JSON body).
const GOLDEN: &[(&str, u64)] = &[
    ("table4", 0x4a9420eb5a0052c3),
    ("table5", 0xfb4565410b0e2998),
    ("table6", 0x72f23c2a7ca1b64f),
    ("table7", 0x7a2af07ba8eda560),
    ("sweep Frontier seed=1", 0x0bb5fb4ca2eac13b),
    ("sweep Frontier seed=2", 0x9e031c7f10e1938b),
    ("sweep Summit seed=1", 0xe3b26d0d64d254eb),
    ("sweep Summit seed=2", 0xb91ba7ac9c2785d7),
    ("sweep Sierra seed=1", 0x13d01f2024fd48be),
    ("sweep Sierra seed=2", 0xdc20fb4b47c02d87),
    ("sweep Perlmutter seed=1", 0x891d5c07cd26195c),
    ("sweep Perlmutter seed=2", 0xc180fd3eb96cd139),
    ("sweep Polaris seed=1", 0x00fefb477bf3cfa6),
    ("sweep Polaris seed=2", 0x7af3f7fffeccfcd6),
    ("sweep Trinity seed=1", 0x75ed0ea920e4915c),
    ("sweep Trinity seed=2", 0xe5c84eecb0d9d85e),
    ("sweep Lassen seed=1", 0xf52225ba64c557ce),
    ("sweep Lassen seed=2", 0x4170fc3e053e5ce5),
    ("sweep Theta seed=1", 0xcde2635efc21da65),
    ("sweep Theta seed=2", 0x82bba9f7007f39ff),
    ("sweep Sawtooth seed=1", 0x847e2ba1b982a8d4),
    ("sweep Sawtooth seed=2", 0xf6afd18e9f630999),
    ("sweep RZVernal seed=1", 0x6993840ffe0ad64c),
    ("sweep RZVernal seed=2", 0x3053a8fd3da3c8a8),
    ("sweep Eagle seed=1", 0xb53aeb46213a53ba),
    ("sweep Eagle seed=2", 0xe2ff778c666d8efa),
    ("sweep Tioga seed=1", 0x0f5aa524d07b1e55),
    ("sweep Tioga seed=2", 0x4a424bdd97687452),
    ("sweep Manzano seed=1", 0x12f9b83176a2647f),
    ("sweep Manzano seed=2", 0x6fe8801914472306),
    ("sweep@paper Theta", 0x3f7cffb9c7f182d3),
];

fn body_digest(shorthand: &str) -> u64 {
    let q = Query::parse_shorthand(shorthand).expect("golden query parses");
    let r = run_query(&q).expect("golden query runs");
    fnv1a64(r.body(Format::Json).as_bytes())
}

#[test]
fn response_bodies_match_golden_digests() {
    let sweepable: Vec<String> = all_machines()
        .into_iter()
        .filter(|m| on_socket_pair(&m.topo).is_some() && on_node_pair(&m.topo).is_some())
        .map(|m| m.name.to_string())
        .collect();
    assert_eq!(
        sweepable, SWEEPABLE,
        "the sweepable machine set changed; extend the golden sweeps"
    );
    for name in SWEEPABLE {
        for seed in [1, 2] {
            let q = format!("sweep {name} seed={seed}");
            assert!(
                GOLDEN.iter().any(|&(g, _)| g == q),
                "no golden digest for '{q}'"
            );
        }
    }

    let got: Vec<(&str, u64)> = GOLDEN.iter().map(|&(q, _)| (q, body_digest(q))).collect();
    let listing: String = got
        .iter()
        .map(|(q, d)| format!("    (\"{q}\", {d:#018x}),\n"))
        .collect();
    assert!(
        got == GOLDEN,
        "response bodies moved; current digests:\n{listing}"
    );
}
