//! A native fork-join backend: real threads on the host machine.
//!
//! Used when `doebench` measures the machine it is running on (the suite's
//! original purpose) rather than a simulated DOE system. The execution
//! model mirrors `#pragma omp parallel for schedule(static)`: the index
//! space is split into one contiguous chunk per thread, workers run the
//! chunk, and the region joins before returning — so each timed kernel has
//! exactly one fork-join, like BabelStream's OpenMP backend.
//!
//! Threads are spawned per region via `std::thread::scope`, which keeps
//! the implementation safe (no lifetime erasure) at a small,
//! OpenMP-comparable region overhead.

use std::ops::Range;

/// A native parallel backend with a fixed thread count.
#[derive(Debug, Clone, Copy)]
pub struct NativeBackend {
    nthreads: usize,
}

impl NativeBackend {
    /// A backend with `nthreads` worker threads (≥ 1).
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads >= 1, "need at least one thread");
        NativeBackend { nthreads }
    }

    /// A backend using all available parallelism on the host.
    pub fn host_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        NativeBackend { nthreads: n }
    }

    /// The configured thread count.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Split `[0, n)` into `nthreads` near-equal contiguous chunks
    /// (static schedule). Chunks may be empty when `n < nthreads`.
    pub fn static_chunks(&self, n: usize) -> Vec<Range<usize>> {
        let t = self.nthreads;
        let base = n / t;
        let rem = n % t;
        let mut out = Vec::with_capacity(t);
        let mut start = 0;
        for i in 0..t {
            let len = base + usize::from(i < rem);
            out.push(start..start + len);
            start += len;
        }
        out
    }

    /// Run `body` over `[0, n)` with a static schedule; one fork-join.
    pub fn parallel_for<F>(&self, n: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if self.nthreads == 1 {
            body(0..n);
            return;
        }
        let chunks = self.static_chunks(n);
        let fj = dessan::checks_enabled().then(|| dessan::ForkJoin::fork(self.nthreads - 1));
        std::thread::scope(|s| {
            // The calling thread takes the first chunk, like an OpenMP
            // master thread participating in the team.
            for chunk in chunks.iter().skip(1).cloned() {
                let body = &body;
                s.spawn(move || body(chunk));
            }
            body(chunks[0].clone());
        });
        if let Some(fj) = fj {
            Self::sanitize_static_region("parallel_for", &chunks, n, fj);
        }
    }

    /// `--check` hook for a completed static region: the chunks must
    /// partition the index space (the invariant `SendPtr` disjointness in
    /// `doe-babelstream` rests on), and the fork-join vector clocks must
    /// order every worker before the continuation.
    fn sanitize_static_region(
        region: &str,
        chunks: &[Range<usize>],
        n: usize,
        fj: dessan::ForkJoin,
    ) {
        let mut checks = dessan::RuntimeChecks::enabled();
        if let Some(msg) = dessan::verify_partition(chunks, n) {
            checks.report("omp-chunks", format!("{region}(n={n}): {msg}"));
        }
        if let Err(msg) = fj.join_all() {
            checks.report("omp-join", format!("{region}(n={n}): {msg}"));
        }
    }

    /// Parallel map-reduce over `[0, n)`: each thread folds its chunk with
    /// `map`, results combine with `reduce`.
    pub fn parallel_reduce<R, M, Rd>(&self, n: usize, identity: R, map: M, reduce: Rd) -> R
    where
        R: Send,
        M: Fn(Range<usize>) -> R + Sync,
        Rd: Fn(R, R) -> R,
    {
        if self.nthreads == 1 {
            return reduce(identity, map(0..n));
        }
        let chunks = self.static_chunks(n);
        let fj = dessan::checks_enabled().then(|| dessan::ForkJoin::fork(self.nthreads - 1));
        let partials = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .skip(1)
                .cloned()
                .map(|chunk| {
                    let map = &map;
                    s.spawn(move || map(chunk))
                })
                .collect();
            let mut results = vec![map(chunks[0].clone())];
            for h in handles {
                // A worker panic is the caller's panic: re-raise it on the
                // joining thread instead of wrapping it in a new one.
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        });
        if let Some(fj) = fj {
            Self::sanitize_static_region("parallel_reduce", &chunks, n, fj);
        }
        partials.into_iter().fold(identity, &reduce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn static_chunks_cover_range_exactly() {
        let b = NativeBackend::new(4);
        let chunks = b.static_chunks(10);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0], 0..3);
        assert_eq!(chunks[1], 3..6);
        assert_eq!(chunks[2], 6..8);
        assert_eq!(chunks[3], 8..10);
    }

    #[test]
    fn parallel_for_touches_every_index_once() {
        let b = NativeBackend::new(4);
        let n = 10_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        b.parallel_for(n, |range| {
            for i in range {
                counters[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_reduce_sums_correctly() {
        let b = NativeBackend::new(3);
        let n = 1_000usize;
        let total = b.parallel_reduce(
            n,
            0u64,
            |range| range.map(|i| i as u64).sum::<u64>(),
            |a, c| a + c,
        );
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn single_thread_runs_inline() {
        let b = NativeBackend::new(1);
        let hits = AtomicUsize::new(0);
        b.parallel_for(5, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn tiny_ranges_with_many_threads() {
        let b = NativeBackend::new(8);
        let counter = AtomicUsize::new(0);
        b.parallel_for(3, |r| {
            counter.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    /// Serializes tests that toggle the process-global check switch or
    /// drain the global findings sink.
    static CHECK_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn sanitized_regions_run_clean_under_checks() {
        // One test at a time owns the process-global switch: enable, run
        // every region shape, drain, restore. Other tests in this binary
        // only ever see extra (clean) checking while this runs.
        let _guard = CHECK_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        dessan::set_checks_enabled(true);
        let b = NativeBackend::new(4);
        let hits = AtomicUsize::new(0);
        b.parallel_for(1_000, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        let sum = b.parallel_reduce(100, 0usize, |r| r.sum::<usize>(), |a, c| a + c);
        dessan::set_checks_enabled(false);
        assert_eq!(hits.load(Ordering::Relaxed), 1_000);
        assert_eq!(sum, 4950);
        let findings = dessan::take_global_findings();
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn corrupted_partition_is_flagged() {
        let _guard = CHECK_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        // Negative fixture: feed the checker a gapped "partition" directly.
        let fj = dessan::ForkJoin::fork(1);
        NativeBackend::sanitize_static_region("fixture", &[0..3, 4..8], 8, fj);
        let findings = dessan::take_global_findings();
        assert!(
            findings
                .iter()
                .any(|f| f.contains("omp-chunks") && f.contains("gap")),
            "missing gap finding: {findings:?}"
        );
    }

    #[test]
    fn host_parallelism_is_positive() {
        assert!(NativeBackend::host_parallelism().nthreads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        NativeBackend::new(0);
    }

    proptest! {
        #[test]
        fn prop_chunks_partition(n in 0usize..10_000, t in 1usize..64) {
            let b = NativeBackend::new(t);
            let chunks = b.static_chunks(n);
            prop_assert_eq!(chunks.len(), t);
            let mut expect = 0;
            for c in &chunks {
                prop_assert_eq!(c.start, expect);
                expect = c.end;
            }
            prop_assert_eq!(expect, n);
            // Near-equal: sizes differ by at most one.
            let min = chunks.iter().map(|c| c.len()).min().unwrap();
            let max = chunks.iter().map(|c| c.len()).max().unwrap();
            prop_assert!(max - min <= 1);
        }

        #[test]
        fn prop_reduce_matches_serial(n in 0usize..5_000, t in 1usize..8) {
            let b = NativeBackend::new(t);
            let total = b.parallel_reduce(
                n,
                0u64,
                |range| range.map(|i| (i as u64).wrapping_mul(2654435761)).sum::<u64>(),
                |a, c| a.wrapping_add(c),
            );
            let serial: u64 = (0..n).map(|i| (i as u64).wrapping_mul(2654435761)).sum();
            prop_assert_eq!(total, serial);
        }
    }
}
