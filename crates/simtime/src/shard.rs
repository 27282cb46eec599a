//! Process-wide sharded-engine counters, kept for existing readers.
//!
//! The simulator runs every table path on one event core per world and
//! gets its parallelism from the campaign scheduler, one level up. No
//! sharded engine exists any more, so the counters below never move.

/// `(windows, cross_events, merge_batches)` of sharded execution since
/// process start. Always `(0, 0, 0)`: nothing in the workspace runs a
/// sharded engine. Profilers that report these counters read it.
pub fn global_shard_counters() -> (u64, u64, u64) {
    (0, 0, 0)
}
