//! Seeded-mutation smoke tests for every lint rule.
//!
//! Each seed takes a REAL workspace source file, verifies the pristine
//! text carries no finding of the rule under test, applies a small
//! mutation of the kind the rule exists to catch (break a unit
//! conversion, render a wall-clock reading into a table cell, allocate in
//! a hot fn, forget a key field), and asserts the mutant is flagged. This
//! is the end-to-end guarantee that the checkers detect the bug classes
//! they claim to — not just on fixtures, but on the actual code they
//! gate. Every rule needs at least one seed.
//!
//! DESIGN.md §13.6 lists, for every seed, the runtime test that fails
//! when the mutant is compiled and the workspace tests run, or "none".
//! A rule earns its place with a seed no runtime test catches, or with a
//! stated reason it reaches further than any test can.

use std::path::{Path, PathBuf};

use dessan::lint::Rule;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
    dessan::lint::lint_file(path, src)
        .into_iter()
        .map(|f| f.rule.id())
        .collect()
}

/// One seeded mutation: replace `from` (present exactly once) in the
/// workspace file `file` with `to`, and expect a `rule` finding.
struct Seed {
    rule: Rule,
    file: &'static str,
    from: &'static str,
    to: &'static str,
}

impl Seed {
    fn assert_detected(&self) {
        let (rel, from, to, rule) = (self.file, self.from, self.to, self.rule.id());
        let pristine = std::fs::read_to_string(workspace_root().join(rel))
            .unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert_eq!(
            pristine.matches(from).count(),
            1,
            "{rel}: mutation site `{from}` must appear exactly once (file drifted?)"
        );
        let before = rules_of(rel, &pristine);
        assert!(
            !before.contains(&rule),
            "{rel}: pristine file already has a `{rule}` finding: {before:?}"
        );
        let after = rules_of(rel, &pristine.replacen(from, to, 1));
        assert!(
            after.contains(&rule),
            "{rel}: `{rule}` missed the seeded mutation `{from}` -> `{to}`; found {after:?}"
        );
    }
}

/// Declares the seeds: each `test_name: Rule in "file", from => to;`
/// becomes one `#[test]` and one entry of `SEEDS`.
macro_rules! seeds {
    ($($test:ident: $rule:ident in $file:literal, $from:expr => $to:expr;)*) => {
        const SEEDS: &[Seed] = &[$(Seed { rule: Rule::$rule, file: $file, from: $from, to: $to }),*];
        $(
            #[test]
            fn $test() {
                Seed { rule: Rule::$rule, file: $file, from: $from, to: $to }.assert_detected();
            }
        )*
    };
}

/// `MpiSim::advance`, where the token-rule seeds land.
const MPI_ADVANCE: &str = "        *c += d;\n        Ok(())";
/// The top of the hot `MpiSim::pingpong`.
const PINGPONG_ENTRY: &str = "let fast = self.fast_forwards();";

seeds! {
    // The on-socket MPI calibration sums three µs components; extracting
    // one as ns silently skews the sum by 1000x.
    broken_unit_conversion_is_caught_by_unit_extract: UnitExtract in "crates/machines/src/cpu.rs",
        "+ m.mpi.shm_latency.as_us()" => "+ m.mpi.shm_latency.as_ns()";

    // A bare `f64` in ns where Chrome's trace format wants µs: every
    // span in an exported timeline comes out 1000x too long.
    unit_slip_in_trace_duration_is_caught_by_unit_extract: UnitExtract in "crates/simtime/src/trace.rs",
        "s.duration.as_us()," => "s.duration.as_ns(),";

    // Rendering a host-clock reading into a table cell makes the table
    // bytes differ from run to run.
    wall_clock_timestamp_is_caught_by_wall_clock: WallClock in "crates/core/src/table4.rs",
        "                CellValue::Text(r.peak.to_string()),\n"
        => "                CellValue::Text(std::time::Instant::now().elapsed().as_nanos().to_string()),\n";

    // A host-clock reading folded into a cell's shard hash files the same
    // cell under a new shard on every run.
    wall_clock_in_cache_key_is_caught_by_wall_clock: WallClock in "crates/core/src/query.rs",
        "            hash: fnv1a64(canon.as_bytes()),\n"
        => "            hash: fnv1a64(&std::time::Instant::now().elapsed().as_nanos().to_le_bytes()),\n";

    // Dropping the `value` pair from the canonical query serialization
    // makes two overrides that differ only in value share one cache key.
    unhashed_override_field_is_caught_by_key_coverage: KeyCoverage in "crates/core/src/query.rs",
        "                        (\"value\", Json::Num(o.value)),\n" => "";

    // A new override field that `Query::to_json` never renders: two
    // overrides that differ only in it share one cache key.
    forgotten_override_field_is_caught_by_key_coverage: KeyCoverage in "crates/core/src/query.rs",
        "    pub value: f64,\n}\n\nimpl SpecOverride {"
        => "    pub value: f64,\n    /// Repetitions the override applies to.\n    pub reps: u32,\n}\n\nimpl SpecOverride {";

    // A second `.lock()` on the same shard while the first guard is live
    // self-deadlocks (std Mutex is not reentrant).
    reacquired_shard_lock_is_caught_by_lock_order: LockOrder in "crates/doebenchd/src/cache.rs",
        "fn evict_inflight(&self, key: &Key, flight: &Arc<Flight<V>>) {\n        \
         let mut map = self.shard(key).lock().unwrap();"
        => "fn evict_inflight(&self, key: &Key, flight: &Arc<Flight<V>>) {\n        \
            let mut map = self.shard(key).lock().unwrap();\n        \
            let map2 = self.shard(key).lock().unwrap();\n        drop(map2);";

    // Rewriting the canonical `loop { match … wait }` as a single `if`
    // check is unsound under spurious wakeups.
    wait_stripped_of_its_loop_is_caught_by_lock_order: LockOrder in "crates/doebenchd/src/cache.rs",
        "        let mut st = flight.state.lock().unwrap();\n        \
         loop {\n            \
         match &*st {\n                \
         FlightState::Finished(v) => return v.clone(),\n                \
         FlightState::Pending => st = flight.done.wait(st).unwrap(),\n            \
         }\n        }"
        => "        let mut st = flight.state.lock().unwrap();\n        \
            if let FlightState::Pending = &*st {\n            \
            st = flight.done.wait(st).unwrap();\n        }\n        \
            match &*st {\n            \
            FlightState::Finished(v) => v.clone(),\n            \
            FlightState::Pending => None,\n        }";

    // The fork-join pool's join, de-looped: a spurious wakeup returns
    // while a helper still runs the caller's borrowed work.
    pool_join_stripped_of_its_loop_is_caught_by_lock_order: LockOrder in "crates/benchlib/src/par.rs",
        "        while team.active > 0 {\n            team = self.left.wait(team)"
        => "        if team.active > 0 {\n            team = self.left.wait(team)";

    // `Cache::acquire` declares `effects(no-block)`; an injected sleep is
    // an OS-level block on every daemon cache lookup.
    sleep_in_hot_drain_is_caught_by_effect_contract: EffectContract in "crates/doebenchd/src/cache.rs",
        "        let mut map = self.inner.shard(key).lock().unwrap();\n        match map.get(&key.canon) {"
        => "        std::thread::sleep(std::time::Duration::from_millis(1));\n        \
            let mut map = self.inner.shard(key).lock().unwrap();\n        match map.get(&key.canon) {";

    // Reading the host clock while advancing a simulated rank clock.
    host_clock_in_advance_is_caught_by_wall_clock: WallClock in "crates/mpisim/src/world.rs",
        MPI_ADVANCE => "        let _host = std::time::Instant::now();\n        *c += d;\n        Ok(())";

    // Unseeded jitter: a different draw on every run.
    unseeded_jitter_is_caught_by_ad_hoc_rng: AdHocRng in "crates/mpisim/src/world.rs",
        MPI_ADVANCE => "        *c += d * rand::random::<u64>();\n        Ok(())";

    // An ambient knob read deep inside the runtime.
    env_knob_is_caught_by_env_read: EnvRead in "crates/mpisim/src/world.rs",
        MPI_ADVANCE => "        let _scale = std::env::var(\"MPI_SCALE\");\n        *c += d;\n        Ok(())";

    // An out-of-range rank panics instead of returning `InvalidRank`.
    unwrapped_rank_lookup_is_caught_by_unwrap_in_sim: UnwrapInSim in "crates/mpisim/src/world.rs",
        "let c = self.clocks.get_mut(r.0).ok_or(MpiError::InvalidRank(r.0))?;"
        => "let c = self.clocks.get_mut(r.0).unwrap();";

    // JSON objects stored in a hash map render their keys in arbitrary
    // order.
    hashed_json_object_is_caught_by_hash_order: HashOrder in "crates/report/src/json.rs",
        "    Obj(BTreeMap<String, Json>)," => "    Obj(std::collections::HashMap<String, Json>),";

    // The native STREAM copy kernel loses the justification of its
    // `unsafe`.
    unjustified_unsafe_is_caught_by_unsafe_no_safety: UnsafeNoSafety in "crates/babelstream/src/native.rs",
        "        // SAFETY: `parallel_for`'s static schedule hands each worker a\n        \
         // distinct chunk of 0..len, so `r` is in bounds for `c` (same\n        \
         // length as `a`) and no other worker holds a slice overlapping it.\n        \
         let c = unsafe { cp.slice(r.clone()) };\n        c.copy_from_slice(&a[r]);"
        => "        let c = unsafe { cp.slice(r.clone()) };\n        c.copy_from_slice(&a[r]);";

    // A scratch buffer allocated on every ping-pong call.
    alloc_in_pingpong_is_caught_by_hot_path_alloc: HotPathAlloc in "crates/mpisim/src/world.rs",
        PINGPONG_ENTRY => "let fast = self.fast_forwards();\n        \
                           let scratch = vec![0u8; 64];\n        drop(scratch);";

    // A `format!` in the JSON stat-cell writer allocates for every
    // statistic of every rendered cache hit.
    format_in_json_stat_writer_is_caught_by_hot_path_alloc: HotPathAlloc in "crates/report/src/result.rs",
        "(\"n\", s.n as f64)," => "(\"n\", format!(\"{}\", s.n).len() as f64),";

    // The hot ping-pong loop calls the allocating, non-hot
    // `check_findings`.
    allocating_helper_in_pingpong_is_caught_by_hot_path_alloc: HotPathAlloc in "crates/mpisim/src/world.rs",
        PINGPONG_ENTRY => "let fast = self.fast_forwards();\n        \
                           let _ = self.check_findings();";
}

#[test]
fn every_rule_has_a_seed() {
    for rule in Rule::ALL {
        assert!(
            SEEDS.iter().any(|s| s.rule == rule),
            "no mutation seed exercises `{}`; add one to `seeds!`",
            rule.id()
        );
    }
}

#[test]
fn unmutated_targets_are_clean_across_all_rules() {
    // The mutation targets must stay finding-free in their pristine form
    // for every rule, not just the one under test — otherwise a mutation
    // "detection" could be noise from an unrelated pre-existing finding.
    for rel in SEEDS.iter().map(|s| s.file) {
        let src = std::fs::read_to_string(workspace_root().join(rel))
            .unwrap_or_else(|e| panic!("{rel}: {e}"));
        let found = rules_of(rel, &src);
        assert!(
            found.is_empty(),
            "{rel}: pristine file has findings: {found:?}"
        );
    }
}
