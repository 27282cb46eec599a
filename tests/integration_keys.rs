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
//! Each entry pins the plan's `key`, the FNV-1a 64 of its cells'
//! `key.canon` strings joined by newlines, and the FNV-1a 64 of its
//! cells' `key.hash` values (little-endian, concatenated). `key.hash`
//! picks the daemon's cache shard, so a hash that drifts from run to run
//! scatters one cell over shards even when `canon` holds still. A
//! constant changes only when a key changes. If a change is meant to
//! move keys (a new `CODE_VERSION`, a new machine parameter), update the
//! constants from the failure message and say why in the commit.

use doebench::query::{fnv1a64, plan, Query};

/// (shorthand query, plan key, FNV-1a 64 of the newline-joined cell keys,
/// FNV-1a 64 of the cells' shard hashes).
#[rustfmt::skip]
const PINNED: &[(&str, u64, u64, u64)] = &[
    ("table4", 0x73748bdd025c7e27, 0x9899144dc4ed0ee2, 0xf57f8f22c4f78ae2),
    ("table5", 0xdfc69904b2ae0da8, 0x68cdc2e074ac6006, 0xb02a1e82e6d070b9),
    ("table6", 0x17d29070811b7a85, 0xb8577c437ac811b8, 0x0d3cf849e95d5bf1),
    ("table7", 0x872dc56b3c82495e, 0xbd7186f9b417c7df, 0x7ccb8ff2441bb3bd),
    ("suite", 0x663ed3ad5005cdf6, 0x24a197e8a0d26854, 0xd93f7b45346695fa),
    ("table4@paper", 0xa65d3eb1a6645e5f, 0x78cf587753de65ef, 0xd891244632dd4d9a),
    ("table5@paper", 0xa8be8a9d671d28cc, 0x2d64d7dfe5460d08, 0x5f84bf4ffa015a08),
    ("table6@paper", 0x3118992dabf65b0d, 0x0c07033a7c737192, 0xa8c03f027e94ab99),
    ("table7@paper", 0x5c145891f0f699b2, 0xc6500676f0bdeb8b, 0xdfe8ee191c423be4),
    ("suite@paper", 0x0872bcb3c3cf5090, 0x8acd28c16f1afd5d, 0xb87ec21bb3fa0dff),
    ("sweep Eagle Theta", 0x6c0832227d8a81bc, 0xc961b3d7f15a4239, 0x1c817c9120d983f6),
    ("sweep@paper Frontier Summit", 0xe6b6fa203ef44076, 0x47848a09f7f9e716, 0x56e2f0af86fe0fcf),
    ("table4 set Eagle.mpi_shm_latency_us=0.3", 0x0f97eaa9e4b72715, 0xe6957e17f64753d1, 0x8560148f08a55bec),
    ("table5 set Frontier.gpu_launch_us=2.5", 0x91c6a2738e025c4f, 0x56c264134b477970, 0xfa8bb593eab3f0c3),
];

fn keys(shorthand: &str) -> (u64, u64, u64) {
    let q = Query::parse_shorthand(shorthand).expect("pinned query parses");
    let p = plan(&q).expect("pinned query plans");
    let canon: Vec<&str> = p.cells().iter().map(|c| c.key.canon.as_str()).collect();
    let hashes: Vec<u8> = p
        .cells()
        .iter()
        .flat_map(|c| c.key.hash.to_le_bytes())
        .collect();
    (
        p.key,
        fnv1a64(canon.join("\n").as_bytes()),
        fnv1a64(&hashes),
    )
}

#[test]
fn plan_and_cell_keys_match_pinned_digests() {
    let got: Vec<(&str, u64, u64, u64)> = PINNED
        .iter()
        .map(|&(q, ..)| {
            let (plan_key, cells, shards) = keys(q);
            (q, plan_key, cells, shards)
        })
        .collect();
    let listing: String = got
        .iter()
        .map(|(q, k, c, h)| format!("    (\"{q}\", {k:#018x}, {c:#018x}, {h:#018x}),\n"))
        .collect();
    assert!(got == PINNED, "cache keys moved; current keys:\n{listing}");
}
