//! Pinned cache keys: the plan key and every cell key of a fixed set of
//! queries, as FNV-1a 64 constants.
//!
//! `integration_golden` pins what the daemon answers; this file pins the
//! addresses it files those answers under. A daemon restarted on new code
//! serves a cached cell only if its key derivation (code version, table,
//! machine name, machine-spec digest, campaign digest, sweep config
//! digest) produces the same bytes, so a change to how machines are
//! resolved or digested must leave every constant below in place.
//!
//! Each entry pins the plan's `key` and the FNV-1a 64 of its cells'
//! `key.canon` strings joined by newlines. A constant changes only when
//! a key changes. If a change is meant to move keys (a new
//! `CODE_VERSION`, a new machine parameter), update the constants from
//! the failure message and say why in the commit.

use doebench::query::{fnv1a64, plan, Query};

/// (shorthand query, plan key, FNV-1a 64 of the newline-joined cell keys).
const PINNED: &[(&str, u64, u64)] = &[
    ("table4", 0x73748bdd025c7e27, 0x9899144dc4ed0ee2),
    ("table5", 0xdfc69904b2ae0da8, 0x68cdc2e074ac6006),
    ("table6", 0x17d29070811b7a85, 0xb8577c437ac811b8),
    ("table7", 0x872dc56b3c82495e, 0xbd7186f9b417c7df),
    ("suite", 0x663ed3ad5005cdf6, 0x24a197e8a0d26854),
    ("table4@paper", 0xa65d3eb1a6645e5f, 0x78cf587753de65ef),
    ("table5@paper", 0xa8be8a9d671d28cc, 0x2d64d7dfe5460d08),
    ("table6@paper", 0x3118992dabf65b0d, 0x0c07033a7c737192),
    ("table7@paper", 0x5c145891f0f699b2, 0xc6500676f0bdeb8b),
    ("suite@paper", 0x0872bcb3c3cf5090, 0x8acd28c16f1afd5d),
    ("sweep Eagle Theta", 0x6c0832227d8a81bc, 0xc961b3d7f15a4239),
    (
        "sweep@paper Frontier Summit",
        0xe6b6fa203ef44076,
        0x47848a09f7f9e716,
    ),
    (
        "table4 set Eagle.mpi_shm_latency_us=0.3",
        0x0f97eaa9e4b72715,
        0xe6957e17f64753d1,
    ),
    (
        "table5 set Frontier.gpu_launch_us=2.5",
        0x91c6a2738e025c4f,
        0x56c264134b477970,
    ),
];

fn keys(shorthand: &str) -> (u64, u64) {
    let q = Query::parse_shorthand(shorthand).expect("pinned query parses");
    let p = plan(&q).expect("pinned query plans");
    let canon: Vec<&str> = p.cells().iter().map(|c| c.key.canon.as_str()).collect();
    (p.key, fnv1a64(canon.join("\n").as_bytes()))
}

#[test]
fn plan_and_cell_keys_match_pinned_digests() {
    let got: Vec<(&str, u64, u64)> = PINNED
        .iter()
        .map(|&(q, _, _)| {
            let (plan_key, cells) = keys(q);
            (q, plan_key, cells)
        })
        .collect();
    let listing: String = got
        .iter()
        .map(|(q, k, c)| format!("    (\"{q}\", {k:#018x}, {c:#018x}),\n"))
        .collect();
    assert!(got == PINNED, "cache keys moved; current keys:\n{listing}");
}
