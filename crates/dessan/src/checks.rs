//! The dynamic sanitizer harness: a [`RuntimeChecks`] handle the simulated
//! runtimes thread through their operations, plus the [`AccessHistory`]
//! race detector built on [`VectorClock`](crate::VectorClock).
//!
//! The handle is deliberately passive — it never perturbs simulated time
//! or consumes randomness, so a `--check` run renders byte-identical
//! tables to an unchecked run. Findings accumulate locally (for tests that
//! interrogate one world) and flush into a process-global sink on drop (so
//! the CLI can fail a whole campaign with one exit code).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::vc::VectorClock;

/// Process-global switch consulted by runtime constructors. Set from the
/// CLI (`--check` / `DOEBENCH_CHECK=1`) before any world is built.
static CHECKS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-global findings sink, flushed by [`RuntimeChecks::drop`].
static FINDINGS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Enable or disable sanitizer checks for subsequently-created runtimes.
pub fn set_checks_enabled(on: bool) {
    CHECKS_ENABLED.store(on, Ordering::SeqCst);
}

/// Whether newly-created runtimes should run with checks on.
pub fn checks_enabled() -> bool {
    CHECKS_ENABLED.load(Ordering::SeqCst)
}

/// Drain every finding flushed so far, sorted and deduplicated so the
/// report is stable regardless of worker-thread interleaving.
pub fn take_global_findings() -> Vec<String> {
    let mut sink = FINDINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<String> = std::mem::take(&mut *sink);
    out.sort();
    out.dedup();
    out
}

/// One sanitizer diagnosis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (`race`, `deadlock`, `msg-leak`, `omp-chunks`).
    pub rule: &'static str,
    /// Human-readable description of the hazard.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.message)
    }
}

/// The sanitizer handle a runtime owns for its lifetime.
///
/// Disabled handles are free: every recording method early-returns, so the
/// hot paths cost one branch when `--check` is off.
#[derive(Debug, Default)]
pub struct RuntimeChecks {
    enabled: bool,
    findings: Vec<Finding>,
}

impl RuntimeChecks {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        RuntimeChecks {
            enabled: false,
            findings: Vec::new(),
        }
    }

    /// A handle that records findings.
    pub fn enabled() -> Self {
        RuntimeChecks {
            enabled: true,
            findings: Vec::new(),
        }
    }

    /// Record a finding (no-op when disabled).
    pub fn report(&mut self, rule: &'static str, message: String) {
        if self.enabled {
            self.findings.push(Finding { rule, message });
        }
    }

    /// Findings recorded so far by this handle.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// True when enabled and nothing was flagged.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl Drop for RuntimeChecks {
    fn drop(&mut self) {
        if self.findings.is_empty() {
            return;
        }
        let mut sink = FINDINGS.lock().unwrap_or_else(|e| e.into_inner());
        sink.extend(self.findings.drain(..).map(|f| f.to_string()));
    }
}

/// How an access touches a shared object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// The object's bytes are read.
    Read,
    /// The object's bytes are written.
    Write,
}

/// A FastTrack-style per-object access history.
///
/// Keeps the clock of the last write plus one read clock per accessor
/// (joined, so a task's repeated reads collapse into one entry). A new
/// access races iff a conflicting prior access is not ordered before it
/// by the accessor's current vector clock. Entries reuse their clock and
/// label buffers, so a steady read/write cycle is allocation-free.
#[derive(Clone, Debug, Default)]
pub struct AccessHistory {
    last_write: Option<(VectorClock, String)>,
    /// Read entries; only the first `live` are current, the rest are
    /// buffers retired by a write and kept for the next reads.
    reads: Vec<(usize, VectorClock, String)>,
    live: usize,
}

impl AccessHistory {
    /// A history with no recorded accesses.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an access by task `who` at clock `now`; `label` names the
    /// operation for diagnostics. Returns a message per race detected.
    pub fn record(
        &mut self,
        kind: AccessKind,
        who: usize,
        now: &VectorClock,
        label: &str,
    ) -> Vec<String> {
        let mut races = Vec::new();
        // Every access conflicts with an unordered prior write.
        if let Some((wc, wl)) = &self.last_write {
            if !wc.leq(now) {
                races.push(format!(
                    "{} is concurrent with previous write {} (write clock {} vs access clock {})",
                    label, wl, wc, now
                ));
            }
        }
        let reads = &mut self.reads[..self.live];
        match kind {
            AccessKind::Read => {
                // Reads never conflict with reads; remember the latest
                // read clock per task.
                match reads.iter_mut().find(|(t, _, _)| *t == who) {
                    Some((_, rc, rl)) => {
                        rc.join(now);
                        relabel(rl, label);
                    }
                    None => {
                        match self.reads.get_mut(self.live) {
                            Some((t, rc, rl)) => {
                                *t = who;
                                rc.clone_from(now);
                                relabel(rl, label);
                            }
                            None => self.reads.push((who, now.clone(), label.to_string())),
                        }
                        self.live += 1;
                    }
                }
            }
            AccessKind::Write => {
                for (_, rc, rl) in reads.iter() {
                    if !rc.leq(now) {
                        races.push(format!(
                            "{} is concurrent with previous read {} (read clock {} vs write clock {})",
                            label, rl, rc, now
                        ));
                    }
                }
                // The write supersedes all prior history: anything ordered
                // before this write is ordered before later conflicts too.
                match &mut self.last_write {
                    Some((wc, wl)) => {
                        wc.clone_from(now);
                        relabel(wl, label);
                    }
                    None => self.last_write = Some((now.clone(), label.to_string())),
                }
                self.live = 0;
            }
        }
        races
    }
}

/// Overwrite a label in place, keeping its buffer.
fn relabel(dst: &mut String, label: &str) {
    dst.clear();
    dst.push_str(label);
}

/// Fork-join bookkeeping for the OpenMP-like backend: verifies that a
/// static region's chunks partition the index space (the invariant the
/// `SendPtr` slices in `doe-babelstream` rest on) and that the join makes
/// every worker's clock happen-before the continuation.
pub struct ForkJoin {
    master: VectorClock,
    workers: Vec<VectorClock>,
}

impl ForkJoin {
    /// Fork `nworkers` workers off a fresh master clock.
    pub fn fork(nworkers: usize) -> Self {
        let mut master = VectorClock::new();
        master.tick(0);
        let workers = (1..=nworkers)
            .map(|i| {
                let mut w = master.clone();
                w.tick(i);
                w
            })
            .collect();
        ForkJoin { master, workers }
    }

    /// Join every worker back into the master; afterwards each worker's
    /// clock happens-before the master's continuation. Returns an error
    /// message if the join law is violated (which would indicate clock
    /// corruption, not a user bug).
    pub fn join_all(mut self) -> Result<(), String> {
        for w in &self.workers {
            self.master.join(w);
        }
        self.master.tick(0);
        for (i, w) in self.workers.iter().enumerate() {
            if !w.happens_before(&self.master) {
                return Err(format!(
                    "worker {} clock {} does not happen-before joined master {}",
                    i + 1,
                    w,
                    self.master
                ));
            }
        }
        Ok(())
    }
}

/// Verify that `chunks` exactly partition `[0, n)` in order: contiguous,
/// non-overlapping, complete. Returns a message describing the first
/// violation, if any.
pub fn verify_partition(chunks: &[std::ops::Range<usize>], n: usize) -> Option<String> {
    let mut expect = 0usize;
    for (i, c) in chunks.iter().enumerate() {
        if c.start != expect {
            return Some(format!(
                "chunk {} covers {}..{} but {} was expected next ({})",
                i,
                c.start,
                c.end,
                expect,
                if c.start < expect { "overlap" } else { "gap" }
            ));
        }
        if c.end < c.start {
            return Some(format!("chunk {i} is inverted: {}..{}", c.start, c.end));
        }
        expect = c.end;
    }
    if expect != n {
        return Some(format!("chunks end at {expect} but the range ends at {n}"));
    }
    None
}

/// Verify that a set of dynamically-claimed ranges covers `[0, n)` exactly
/// once. The ranges may arrive in any order (workers race to claim them);
/// the check sorts a copy.
pub fn verify_claimed_cover(claimed: &[std::ops::Range<usize>], n: usize) -> Option<String> {
    let mut sorted: Vec<_> = claimed.to_vec();
    sorted.sort_by_key(|r| (r.start, r.end));
    verify_partition(&sorted, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock_at(i: usize, n: u64) -> VectorClock {
        let mut c = VectorClock::new();
        for _ in 0..n {
            c.tick(i);
        }
        c
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let mut h = RuntimeChecks::disabled();
        h.report("race", "should vanish".into());
        assert!(h.findings().is_empty());
        assert!(h.is_clean());
    }

    #[test]
    fn enabled_handle_records_and_flushes_on_drop() {
        take_global_findings(); // isolate from other tests
        {
            let mut h = RuntimeChecks::enabled();
            h.report("race", "w-w on buffer".into());
            assert_eq!(h.findings().len(), 1);
            assert!(!h.is_clean());
        }
        let global = take_global_findings();
        assert!(global.iter().any(|f| f.contains("w-w on buffer")));
    }

    #[test]
    fn unordered_writes_race() {
        let mut hist = AccessHistory::new();
        let a = clock_at(0, 1);
        let b = clock_at(1, 1);
        assert!(hist.record(AccessKind::Write, 0, &a, "write A").is_empty());
        let races = hist.record(AccessKind::Write, 1, &b, "write B");
        assert_eq!(races.len(), 1, "{races:?}");
    }

    #[test]
    fn ordered_writes_do_not_race() {
        let mut hist = AccessHistory::new();
        let a = clock_at(0, 1);
        assert!(hist.record(AccessKind::Write, 0, &a, "write A").is_empty());
        // B synchronized with A (joined its clock) before writing.
        let mut b = clock_at(1, 1);
        b.join(&a);
        assert!(hist.record(AccessKind::Write, 1, &b, "write B").is_empty());
    }

    #[test]
    fn concurrent_reads_do_not_race_but_unordered_write_after_read_does() {
        let mut hist = AccessHistory::new();
        let r1 = clock_at(0, 1);
        let r2 = clock_at(1, 1);
        assert!(hist.record(AccessKind::Read, 0, &r1, "read A").is_empty());
        assert!(hist.record(AccessKind::Read, 1, &r2, "read B").is_empty());
        // A third task writes without having synchronized with either reader.
        let w = clock_at(2, 1);
        let races = hist.record(AccessKind::Write, 2, &w, "write C");
        assert_eq!(races.len(), 2, "{races:?}");
    }

    #[test]
    fn write_supersedes_older_history() {
        let mut hist = AccessHistory::new();
        let a = clock_at(0, 1);
        hist.record(AccessKind::Write, 0, &a, "write A");
        let mut b = clock_at(1, 1);
        b.join(&a);
        hist.record(AccessKind::Write, 1, &b, "write B");
        // C orders itself after B only; the A write is transitively ordered.
        let mut c = clock_at(2, 1);
        c.join(&b);
        assert!(hist.record(AccessKind::Write, 2, &c, "write C").is_empty());
    }

    #[test]
    fn fork_join_law_holds() {
        assert_eq!(ForkJoin::fork(4).join_all(), Ok(()));
        assert_eq!(ForkJoin::fork(0).join_all(), Ok(()));
    }

    #[test]
    fn partition_checker_accepts_exact_cover() {
        assert_eq!(verify_partition(&[0..3, 3..6, 6..8], 8), None);
        assert_eq!(verify_partition(&[], 0), None);
        // Empty chunks are fine (more threads than work).
        assert_eq!(verify_partition(&[0..2, 2..2, 2..2], 2), None);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a one-chunk partition IS a single range
    fn partition_checker_flags_gap_overlap_and_shortfall() {
        assert!(verify_partition(&[0..3, 4..6], 6).unwrap().contains("gap"));
        assert!(verify_partition(&[0..3, 2..6], 6)
            .unwrap()
            .contains("overlap"));
        assert!(verify_partition(&[0..3], 6).unwrap().contains("ends at"));
    }

    #[test]
    fn claimed_cover_accepts_out_of_order_claims() {
        assert_eq!(verify_claimed_cover(&[4..8, 0..4], 8), None);
        assert!(verify_claimed_cover(&[0..4, 0..4], 8).is_some());
    }
}
