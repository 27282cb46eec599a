//! Seeded-mutation smoke tests for the dataflow analyses.
//!
//! Each test takes a REAL workspace source file, verifies the pristine
//! text carries no finding of the rule under test, applies a one-line
//! mutation of the kind the rule exists to catch (drop a recv, reorder
//! an event_record, strip a buffer annotation, break a unit conversion,
//! render a wall-clock reading into a table cell), and asserts the mutant is
//! flagged. This is the end-to-end guarantee that the checkers detect
//! the bug classes they claim to — not just on fixtures, but on the
//! actual code they gate.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// Load a workspace file, assert the mutation pattern is present exactly
/// once, and return `(pristine, mutant)` texts.
fn mutate(rel: &str, from: &str, to: &str) -> (String, String) {
    let path = workspace_root().join(rel);
    let pristine = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
    assert_eq!(
        pristine.matches(from).count(),
        1,
        "{rel}: mutation site `{from}` must appear exactly once (file drifted?)"
    );
    let mutant = pristine.replacen(from, to, 1);
    (pristine, mutant)
}

fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
    dessan::lint::lint_file(path, src)
        .into_iter()
        .map(|f| f.rule.id())
        .collect()
}

fn assert_mutation_detected(rel: &str, from: &str, to: &str, rule: &str) {
    let (pristine, mutant) = mutate(rel, from, to);
    let before = rules_of(rel, &pristine);
    assert!(
        !before.contains(&rule),
        "{rel}: pristine file already has a `{rule}` finding: {before:?}"
    );
    let after = rules_of(rel, &mutant);
    assert!(
        after.contains(&rule),
        "{rel}: `{rule}` missed the seeded mutation `{from}` -> `{to}`; found {after:?}"
    );
}

#[test]
fn dropped_recv_is_caught_by_send_wait() {
    // `exchange` posts two nonblocking sends and collects both; deleting
    // one recv leaves its partner send in flight forever.
    assert_mutation_detected(
        "crates/osu/src/collectives.rs",
        "world.recv(a, b, bytes).expect(\"recv\");",
        "",
        "protocol-send-wait",
    );
}

#[test]
fn reordered_event_record_is_caught_by_event_order() {
    // Swap the record and the wait: the cross-stream pipeline now waits
    // on an event that has not been recorded yet.
    assert_mutation_detected(
        "crates/gpurt/src/testkit.rs",
        "let done = rt.event_record(&s1)?;\n    rt.stream_wait_event(&s2, &done)?;",
        "rt.stream_wait_event(&s2, &done)?;\n    let done = rt.event_record(&s1)?;",
        "protocol-event-order",
    );
}

#[test]
fn stripped_annotation_is_caught_by_buffer_annotate() {
    // Without annotate_kernel_buffers between the launch and the copy,
    // the race detector cannot attribute the copy's buffers.
    assert_mutation_detected(
        "crates/gpurt/src/testkit.rs",
        "rt.annotate_kernel_buffers(&s1, &[], &[shared]);\n",
        "",
        "protocol-buffer-annotate",
    );
}

#[test]
fn broken_unit_conversion_is_caught_by_units_flow() {
    // The on-socket MPI calibration sums three µs components; extracting
    // one as ns silently skews the sum by 1000x.
    assert_mutation_detected(
        "crates/machines/src/cpu.rs",
        "+ m.mpi.shm_latency.as_us()",
        "+ m.mpi.shm_latency.as_ns()",
        "units-flow",
    );
}

#[test]
fn wall_clock_timestamp_is_caught_by_nondet_taint() {
    // Rendering a host-clock reading into a table cell makes the table
    // bytes differ from run to run.
    assert_mutation_detected(
        "crates/core/src/table4.rs",
        "                CellValue::Text(r.peak.to_string()),\n",
        "                CellValue::Text(Instant::now().elapsed().as_nanos().to_string()),\n",
        "nondet-taint",
    );
}

#[test]
fn unhashed_override_field_is_caught_by_key_coverage() {
    // Dropping the `value` pair from the canonical query serialization
    // makes two overrides that differ only in value share one cache key.
    assert_mutation_detected(
        "crates/core/src/query.rs",
        "                        (\"value\", Json::Num(o.value)),\n",
        "",
        "key-coverage",
    );
}

#[test]
fn reacquired_shard_lock_is_caught_by_lock_order() {
    // A second `.lock()` on the same shard while the first guard is live
    // self-deadlocks (std Mutex is not reentrant).
    assert_mutation_detected(
        "crates/doebenchd/src/cache.rs",
        "fn evict_inflight(&self, key: &Key, flight: &Arc<Flight<V>>) {\n        \
         let mut map = self.shard(key).lock().unwrap();",
        "fn evict_inflight(&self, key: &Key, flight: &Arc<Flight<V>>) {\n        \
         let mut map = self.shard(key).lock().unwrap();\n        \
         let map2 = self.shard(key).lock().unwrap();\n        drop(map2);",
        "lock-order",
    );
}

#[test]
fn wait_stripped_of_its_loop_is_caught_by_lock_order() {
    // Rewriting the canonical `loop { match … wait }` as a single `if`
    // check is unsound under spurious wakeups.
    assert_mutation_detected(
        "crates/doebenchd/src/cache.rs",
        "        let mut st = flight.state.lock().unwrap();\n        \
         loop {\n            \
         match &*st {\n                \
         FlightState::Finished(v) => return v.clone(),\n                \
         FlightState::Pending => st = flight.done.wait(st).unwrap(),\n            \
         }\n        }",
        "        let mut st = flight.state.lock().unwrap();\n        \
         if let FlightState::Pending = &*st {\n            \
         st = flight.done.wait(st).unwrap();\n        }\n        \
         match &*st {\n            \
         FlightState::Finished(v) => v.clone(),\n            \
         FlightState::Pending => None,\n        }",
        "lock-order",
    );
}

#[test]
fn sleep_in_hot_drain_is_caught_by_effect_contract() {
    // `Cache::acquire` declares `effects(no-block)`; an injected sleep is
    // an OS-level block on every daemon cache lookup.
    assert_mutation_detected(
        "crates/doebenchd/src/cache.rs",
        "        let mut map = self.inner.shard(key).lock().unwrap();\n        match map.get(&key.canon) {",
        "        std::thread::sleep(std::time::Duration::from_millis(1));\n        \
         let mut map = self.inner.shard(key).lock().unwrap();\n        match map.get(&key.canon) {",
        "effect-contract",
    );
}

#[test]
fn unmutated_targets_are_clean_across_all_rules() {
    // The mutation targets must stay finding-free in their pristine form
    // for every rule, not just the one under test — otherwise a mutation
    // "detection" could be noise from an unrelated pre-existing finding.
    for rel in [
        "crates/osu/src/collectives.rs",
        "crates/gpurt/src/testkit.rs",
        "crates/machines/src/cpu.rs",
        "crates/core/src/table4.rs",
        "crates/core/src/query.rs",
        "crates/doebenchd/src/cache.rs",
    ] {
        let src = std::fs::read_to_string(workspace_root().join(rel))
            .unwrap_or_else(|e| panic!("{rel}: {e}"));
        let found = rules_of(rel, &src);
        assert!(
            found.is_empty(),
            "{rel}: pristine file has findings: {found:?}"
        );
    }
}
