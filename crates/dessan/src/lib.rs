//! `dessan` — **de**terminism **s**tatic analysis + **san**itizer.
//!
//! The correctness-tooling layer of the suite, in two halves:
//!
//! 1. **Source-level determinism lint** ([`lint`]): a syntax-aware scan of
//!    the workspace — a lossless lexer ([`lex`]), an item-level parser
//!    ([`items`]), and a heuristic call graph ([`callgraph`]) — that
//!    rejects the hazard classes that can silently break the campaign's
//!    bit-identical-output guarantee (wall-clock reads, unseeded RNG,
//!    hash-ordered rendering, ambient env reads, unjustified `unsafe`,
//!    panics in simulated runtimes, allocations in or reachable from
//!    `// doebench::hot` functions, and bare `f64`s extracted in ns or s
//!    in the unit-bearing crates). Run it with
//!    `cargo run --release -p dessan --bin dessan-lint` (add
//!    `--format json` for machine-readable output); justified sites carry
//!    in-source `dessan::allow(<rule>): <reason>` waivers next to the code
//!    they excuse. The token rules and the effect scan share one hazard
//!    vocabulary ([`lint`]'s `HAZARDS` table). Contracts the compiler,
//!    the sanitizer or a runtime test already enforces get no lint: mixed
//!    units do not type-check (`SimDuration`, the `doe_machines::units`
//!    newtypes), a `GpuEvent` exists only once `event_record` has made
//!    it, an unanswered send or an unannotated racy copy is a `--check`
//!    finding, and a nondeterministic table cell or cache key fails the
//!    golden digests and the pinned keys. A call-graph fixpoint layer adds
//!    interprocedural effect summaries ([`effects`]: per-function effect
//!    sets, read both by the hot-path-alloc rule and by the check of
//!    declared `// doebench::effects(...)` contracts), lock-order/condvar
//!    protocol checking ([`locks`]: double-lock, global acquisition-order
//!    cycles, guard-across-wait, wait-outside-loop, by one must-held walk
//!    over each body's statement tree), and cache-key field-coverage
//!    proofs ([`keycov`]: every field of the key structs must flow into
//!    the canonical key derivation).
//!
//! 2. **Dynamic happens-before sanitizer** ([`checks`], [`vc`]): vector
//!    clocks attached to ompsim threads, mpisim ranks, and gpurt
//!    host/streams, joined on the runtimes' synchronization operations.
//!    Conflicting buffer accesses without a happens-before edge are
//!    reported as races; rendezvous send cycles are reported as deadlocks.
//!    Enabled by `doebench --check`; checks observe without perturbing
//!    simulated time, so checked runs render byte-identical tables.

pub mod callgraph;
mod cfg;
pub mod checks;
pub mod effects;
pub mod items;
pub mod keycov;
pub mod lex;
pub mod lint;
pub mod locks;
pub mod vc;

pub use checks::{
    checks_enabled, set_checks_enabled, take_global_findings, verify_claimed_cover,
    verify_partition, AccessHistory, AccessKind, Finding, ForkJoin, RuntimeChecks,
};
pub use lint::{lint_file, LintFinding, LintReport, Rule};
pub use vc::VectorClock;
