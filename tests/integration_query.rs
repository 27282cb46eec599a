//! Cache-key contract tests for the typed query API.
//!
//! The daemon's correctness rests on two properties proven here:
//!
//! 1. **Canonical serialization is injective and byte-stable** — two
//!    distinct queries never serialize to the same bytes (else the
//!    cache would alias unrelated results), and re-serializing a parsed
//!    query reproduces the exact input bytes (else the same query could
//!    occupy two cache keys).
//! 2. **Content hashes track spec content precisely** — flipping any
//!    single machine-spec field changes that machine's digest and cell
//!    keys, while every other machine's keys stay bit-identical (the
//!    precise-invalidation contract).

use doe_simtime::SimDuration;
use doebench::query::{
    machine_digest, plan, run_query, MachineSel, OverrideField, Profile, Query, QueryParams,
    SpecOverride, TableId,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Random query generation
// ---------------------------------------------------------------------

const CPU_NAMES: [&str; 5] = ["Trinity", "Theta", "Sawtooth", "Eagle", "Manzano"];
const GPU_NAMES: [&str; 8] = [
    "Summit",
    "Sierra",
    "Lassen",
    "Perlmutter",
    "Polaris",
    "Frontier",
    "RZVernal",
    "Tioga",
];

fn some_names(pool: &'static [&'static str]) -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(proptest::sample::select(pool.to_vec()), 1..4).prop_map(|names| {
        let mut out: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        out.dedup();
        out
    })
}

fn params_strategy() -> impl Strategy<Value = QueryParams> {
    let profile = prop_oneof![Just(Profile::Quick), Just(Profile::Paper)];
    let seed = prop_oneof![Just(None), (0u64..u64::MAX).prop_map(Some),];
    let overrides = proptest::collection::vec(
        (
            proptest::sample::select(GPU_NAMES.to_vec()),
            proptest::sample::select(vec![
                OverrideField::HostPeakBwGbS,
                OverrideField::MpiShmLatencyUs,
                OverrideField::GpuLaunchUs,
                OverrideField::GpuPeakBwGbS,
            ]),
            1u64..10_000,
        ),
        0..3,
    )
    .prop_map(|triples| {
        triples
            .into_iter()
            .map(|(machine, field, v)| SpecOverride {
                machine: machine.to_string(),
                field,
                value: v as f64 / 8.0,
            })
            .collect()
    });
    (profile, seed, overrides).prop_map(|(profile, seed, overrides)| QueryParams {
        profile,
        seed,
        overrides,
    })
}

fn query_strategy() -> impl Strategy<Value = Query> {
    let table = (
        prop_oneof![
            Just((TableId::Table4, &CPU_NAMES[..])),
            Just((TableId::Table5, &GPU_NAMES[..])),
            Just((TableId::Table6, &GPU_NAMES[..])),
        ],
        0u64..3,
        params_strategy(),
    )
        .prop_map(|((id, pool), sel, params)| {
            // `sel` picks All vs a pseudo-random named subset drawn from
            // the pool by slicing (dedup keeps canonical behavior).
            let machines = if sel == 0 {
                MachineSel::All
            } else {
                MachineSel::Named(
                    pool.iter()
                        .take(sel as usize)
                        .map(|s| s.to_string())
                        .collect(),
                )
            };
            Query::Table {
                id,
                machines,
                params,
            }
        });
    let sweep = (some_names(&CPU_NAMES), params_strategy())
        .prop_map(|(machines, params)| Query::Sweep { machines, params });
    let suite = params_strategy().prop_map(|params| Query::Suite { params });
    prop_oneof![table.boxed(), sweep.boxed(), suite.boxed()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Round-trip: parse(canonical(q)) == q, and the re-serialization is
    /// byte-identical (one query, one cache key — forever).
    #[test]
    fn canonical_serialization_is_byte_stable(q in query_strategy()) {
        let canon = q.canonical();
        let parsed = Query::parse(&canon).expect("canonical form parses");
        prop_assert_eq!(&parsed, &q);
        prop_assert_eq!(parsed.canonical(), canon);
    }

    /// Injectivity: distinct queries never share a serialization (the
    /// cache key is derived from these bytes).
    #[test]
    fn canonical_serialization_is_injective(a in query_strategy(), b in query_strategy()) {
        if a != b {
            prop_assert_ne!(a.canonical(), b.canonical());
        } else {
            prop_assert_eq!(a.canonical(), b.canonical());
        }
    }

    /// Whitespace and key order do not matter on the way in; the
    /// canonical form is still recovered exactly.
    #[test]
    fn parse_accepts_reordered_fields(seed in 0u64..u64::MAX) {
        let scrambled = format!(
            "{{ \"seed\": \"{seed:#x}\", \"kind\": \"table\",\n  \"machines\": \"all\",
               \"table\": \"table4\", \"profile\": \"paper\", \"overrides\": [] }}"
        );
        let q = Query::parse(&scrambled).expect("scrambled form parses");
        let expect = Query::Table {
            id: TableId::Table4,
            machines: MachineSel::All,
            params: QueryParams { profile: Profile::Paper, seed: Some(seed), overrides: vec![] },
        };
        prop_assert_eq!(&q, &expect);
        prop_assert_eq!(Query::parse(&q.canonical()).unwrap().canonical(), q.canonical());
    }
}

// ---------------------------------------------------------------------
// Seeded machine-spec mutations: every field flip must move the digest
// ---------------------------------------------------------------------

/// One targeted mutation of a machine spec.
struct Mutation {
    name: &'static str,
    apply: fn(&mut doe_machines::Machine),
}

/// Mutators covering every model family a spec digest must observe.
fn mutations() -> Vec<Mutation> {
    vec![
        Mutation {
            name: "host peak bandwidth",
            apply: |m| m.host_mem.peak_bw_gb_s += 1.0,
        },
        Mutation {
            name: "host sustained efficiency",
            apply: |m| m.host_mem.sustained_efficiency *= 0.99,
        },
        Mutation {
            name: "host per-core bandwidth",
            apply: |m| m.host_mem.per_core_bw_gb_s += 0.5,
        },
        Mutation {
            name: "stream jitter",
            apply: |m| m.host_stream_jitter.rel_sigma += 0.001,
        },
        Mutation {
            name: "mpi shm latency",
            apply: |m| m.mpi.shm_latency = SimDuration::from_us(123.4),
        },
        Mutation {
            name: "mpi send overhead",
            apply: |m| m.mpi.send_overhead = SimDuration::from_us(9.9),
        },
        Mutation {
            name: "mpi recv overhead",
            apply: |m| m.mpi.recv_overhead = SimDuration::from_us(8.8),
        },
        Mutation {
            name: "gpu launch overhead",
            apply: |m| {
                if let Some(g) = m.gpu_models.first_mut() {
                    g.launch_overhead = SimDuration::from_us(77.0);
                }
            },
        },
        Mutation {
            name: "gpu sync overhead",
            apply: |m| {
                if let Some(g) = m.gpu_models.first_mut() {
                    g.sync_overhead = SimDuration::from_us(66.0);
                }
            },
        },
        Mutation {
            name: "gpu hbm bandwidth",
            apply: |m| {
                if let Some(g) = m.gpu_models.first_mut() {
                    g.hbm.peak_bw_gb_s += 10.0;
                }
            },
        },
    ]
}

#[test]
fn every_spec_field_flip_changes_the_digest() {
    for base_name in ["Frontier", "Eagle"] {
        let base = doe_machines::by_name(base_name).unwrap();
        let base_digest = machine_digest(&base);
        for mutation in mutations() {
            let mut mutated = base.clone();
            (mutation.apply)(&mut mutated);
            if mutated.gpu_models.is_empty() && mutation.name.starts_with("gpu") {
                continue; // mutation is a no-op on a CPU machine
            }
            assert_ne!(
                machine_digest(&mutated),
                base_digest,
                "{base_name}: mutating {} must change the digest",
                mutation.name
            );
        }
        // Digest is a pure function: an untouched clone matches.
        assert_eq!(machine_digest(&base.clone()), base_digest);
    }
}

#[test]
fn override_moves_only_the_target_machines_cell_keys() {
    let base = Query::Table {
        id: TableId::Table6,
        machines: MachineSel::All,
        params: QueryParams::quick(),
    };
    for field in [
        OverrideField::GpuLaunchUs,
        OverrideField::GpuSyncUs,
        OverrideField::GpuPeakBwGbS,
        OverrideField::MpiShmLatencyUs,
        OverrideField::HostPeakBwGbS,
    ] {
        let tweaked = Query::Table {
            id: TableId::Table6,
            machines: MachineSel::All,
            params: QueryParams {
                overrides: vec![SpecOverride {
                    machine: "Frontier".into(),
                    field,
                    value: 432.1,
                }],
                ..QueryParams::quick()
            },
        };
        let p0 = plan(&base).unwrap();
        let p1 = plan(&tweaked).unwrap();
        assert_eq!(p0.cells().len(), p1.cells().len());
        let mut frontier_cells = 0;
        for (c0, c1) in p0.cells().iter().zip(p1.cells()) {
            assert_eq!(c0.key.machine, c1.key.machine);
            if c0.key.machine == "Frontier" {
                frontier_cells += 1;
                assert_ne!(
                    c0.key.canon, c1.key.canon,
                    "{field:?} override must move Frontier's key"
                );
                assert_ne!(c0.key.hash, c1.key.hash);
            } else {
                assert_eq!(
                    c0.key.canon, c1.key.canon,
                    "{field:?} override must not move {}'s key",
                    c0.key.machine
                );
            }
        }
        assert!(frontier_cells > 0);
    }
}

#[test]
fn profile_and_seed_partition_the_key_space() {
    let mk = |profile, seed| Query::Table {
        id: TableId::Table4,
        machines: MachineSel::All,
        params: QueryParams {
            profile,
            seed,
            overrides: vec![],
        },
    };
    let quick = plan(&mk(Profile::Quick, None)).unwrap();
    let paper = plan(&mk(Profile::Paper, None)).unwrap();
    let seeded = plan(&mk(Profile::Quick, Some(7))).unwrap();
    for ((q, p), s) in quick.cells().iter().zip(paper.cells()).zip(seeded.cells()) {
        assert_ne!(q.key.canon, p.key.canon, "campaign config is in the key");
        assert_ne!(q.key.canon, s.key.canon, "master seed is in the key");
    }
    assert_ne!(quick.key, paper.key);
    assert_ne!(quick.key, seeded.key);
}

// ---------------------------------------------------------------------
// Hostile input: the parsers answer every byte string with Ok or Err
// ---------------------------------------------------------------------

/// Valid shorthand forms the mutation fuzzer starts from.
const SHORTHANDS: &[&str] = &[
    "table4",
    "table5@paper Frontier",
    "sweep Eagle Theta seed=0x2a",
    "suite set Frontier.gpu_launch_us=2.5",
    "table6 machines=Summit,Polaris profile=paper",
    "tables@quick seed=17",
];

/// Fragments the fuzzer splices in: JSON structure, escapes (including
/// lone and mismatched surrogates), extreme numbers, and shorthand
/// syntax.
const SPLICES: &[&str] = &[
    "\"",
    "\\",
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\\u",
    "\\uD800",
    "\\uDBFF\\u0041",
    "\\uDC00",
    "\\uD83D\\uDE00",
    "\\u+0041",
    "1e999",
    "-0",
    "0.",
    "nul",
    "@",
    "=",
    ".",
    " set ",
    "seed=",
    "0x",
    "machines=,",
    "\u{FFFD}",
    "\u{0}",
];

/// Apply `edits` to `seed`'s bytes, then read them back as lossy UTF-8,
/// as the daemon does with a request's query bytes.
fn mutate(seed: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(op, at, b) in edits {
        let at = at % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = b,
            1 => bytes.insert(at, b),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                let splice = SPLICES[b as usize % SPLICES.len()].as_bytes();
                bytes.splice(at..at, splice.iter().copied());
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Both parsers on `text`: neither may panic, and whatever parses must
/// survive a round trip through its canonical form.
fn parse_both(text: &str) {
    let parsed = [Query::parse(text), Query::parse_shorthand(text)];
    for q in parsed.into_iter().flatten() {
        let again = Query::parse(&q.canonical()).expect("canonical form parses");
        assert_eq!(again, q, "from {text:?}");
    }
}

fn edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    proptest::collection::vec((0u8..5, any::<usize>(), any::<u8>()), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        parse_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parsers_never_panic_on_mutated_json_queries(q in query_strategy(), edits in edits()) {
        parse_both(&mutate(&q.canonical(), &edits));
    }

    #[test]
    fn parsers_never_panic_on_mutated_shorthand(
        seed in proptest::sample::select(SHORTHANDS.to_vec()),
        edits in edits(),
    ) {
        parse_both(&mutate(seed, &edits));
    }
}

// ---------------------------------------------------------------------
// Override ranges
// ---------------------------------------------------------------------

/// A quick one-machine table with up to four in-range overrides on that
/// machine, each at a bound or uniform in between: a CPU machine's
/// Table 4 row takes host and MPI fields, a GPU machine's Table 5 or 6
/// row any field.
fn in_range_query() -> impl Strategy<Value = String> {
    let fields = proptest::collection::vec(
        (
            proptest::sample::select(OverrideField::ALL.to_vec()),
            0u8..4,
            0.0f64..1.0,
        ),
        1..5,
    );
    (any::<bool>(), any::<usize>(), 0u8..2, fields).prop_map(|(gpu, pick, table, fields)| {
        let (machine, table) = if gpu {
            (
                GPU_NAMES[pick % GPU_NAMES.len()],
                ["table5", "table6"][table as usize],
            )
        } else {
            (CPU_NAMES[pick % CPU_NAMES.len()], "table4")
        };
        let mut q = format!("{table} {machine}");
        for (field, at, frac) in fields {
            if !gpu && field.as_str().starts_with("gpu_") {
                continue;
            }
            let (lo, hi, _) = field.range();
            let value = match at {
                0 => lo,
                1 => hi,
                _ => lo + (hi - lo) * frac,
            };
            q.push_str(&format!(" set {machine}.{}={value:?}", field.as_str()));
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the parsers accept runs: no in-range override overflows
    /// a cell's clock or otherwise panics.
    #[test]
    fn in_range_overrides_run(shorthand in in_range_query()) {
        let q = Query::parse_shorthand(&shorthand).expect("in-range override parses");
        run_query(&q).expect("in-range override runs");
    }
}
