//! Deterministic parallel execution of independent benchmark work.
//!
//! The paper's protocol is embarrassingly parallel: every (machine,
//! benchmark, rep) cell derives an independent seed, so cells can run on
//! any thread in any order as long as results land back in their original
//! slots. This module provides that guarantee: [`parallel_map_indexed`]
//! splits `0..n` into contiguous chunks across a `std::thread::scope`
//! worker pool and writes each result into a pre-sized buffer indexed by
//! `i`, so the output `Vec` is bit-identical to the serial `(0..n).map(f)`
//! regardless of thread count. [`run_reps_par`] is the rep-loop instance
//! of it, the parallel twin of [`crate::run_reps`].
//!
//! Worker count resolution (first match wins):
//! 1. an explicit [`set_jobs`] call (the CLI's `--jobs N`);
//! 2. the `DOEBENCH_JOBS` environment variable;
//! 3. `std::thread::available_parallelism()`.
//!
//! Nested calls degrade to serial: a `parallel_map_indexed` reached from
//! inside a worker runs inline on that worker, so fanning a campaign grid
//! out at the cell level does not multiply threads per rep loop.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::stats::Samples;

/// Explicit jobs override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while this thread is a pool worker (or the caller's share of
    /// one fork-join); nested parallel calls then run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Set the worker count explicitly (the CLI's `--jobs N`).
///
/// Takes precedence over `DOEBENCH_JOBS` and auto-detection. `jobs = 1`
/// selects the serial path exactly; `0` clears the override.
pub fn set_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// The worker count parallel runs will use right now.
///
/// Resolution order: [`set_jobs`] override, then the `DOEBENCH_JOBS`
/// environment variable (ignored when unparsable or zero), then
/// `available_parallelism()`; at least 1.
pub fn effective_jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    // Resolved once per process: `available_parallelism()` re-reads the
    // cgroup filesystem on every call (microseconds), and every parallel
    // region asks.
    static AUTO_JOBS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO_JOBS.get_or_init(|| {
        // dessan::allow(env-read): documented worker-count override knob, read once at startup.
        if let Ok(v) = std::env::var("DOEBENCH_JOBS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Split `[0, n)` into `parts` near-equal contiguous chunk lengths.
fn chunk_lens(n: usize, parts: usize) -> Vec<usize> {
    let base = n / parts;
    let rem = n % parts;
    (0..parts).map(|i| base + usize::from(i < rem)).collect()
}

/// Map `f` over `0..n`, preserving index order exactly.
///
/// With more than one effective job this forks a `std::thread::scope`
/// pool: indices split into contiguous chunks, one worker per chunk, each
/// writing into its disjoint slice of the pre-sized output buffer — so
/// the result is the same `Vec` the serial loop produces, element for
/// element. The calling thread works the first chunk. With one job, on
/// `n <= 1`, or when already inside a pool worker, it is exactly the
/// serial loop.
pub fn parallel_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs().min(n.max(1));
    if jobs <= 1 || n <= 1 || IN_POOL.with(|p| p.get()) {
        return (0..n).map(f).collect();
    }

    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);

    std::thread::scope(|s| {
        let f = &f;
        let mut rest = out.as_mut_slice();
        let mut start = 0;
        let mut first: Option<(usize, &mut [Option<T>])> = None;
        for (w, len) in chunk_lens(n, jobs).into_iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            if w == 0 {
                first = Some((start, chunk));
            } else {
                s.spawn(move || {
                    IN_POOL.with(|p| p.set(true));
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(f(start + off));
                    }
                    IN_POOL.with(|p| p.set(false));
                });
            }
            start += len;
        }
        // The calling thread takes the first chunk, like a team master.
        let (base, chunk) = first.expect("jobs >= 1");
        IN_POOL.with(|p| p.set(true));
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(f(base + off));
        }
        IN_POOL.with(|p| p.set(false));
    });

    out.into_iter()
        .map(|slot| slot.expect("every index filled"))
        .collect()
}

/// Parallel twin of [`crate::run_reps`]: run `reps` independent benchmark
/// executions across the worker pool, collecting one observation per run
/// in rep order.
///
/// The closure must derive all randomness from the rep index it receives
/// (per-rep seeds, per-rep sim worlds); given that, the returned
/// [`Samples`] is bit-identical to `run_reps` for every job count.
pub fn run_reps_par(reps: usize, run: impl Fn(usize) -> f64 + Sync) -> Samples {
    assert!(reps > 0, "need at least one repetition");
    parallel_map_indexed(reps, run).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Serializes tests that touch the process-global jobs override.
    static JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Run `body` with the jobs override pinned, restoring it after.
    fn with_jobs<R>(jobs: usize, body: impl FnOnce() -> R) -> R {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        struct Reset(usize);
        impl Drop for Reset {
            fn drop(&mut self) {
                JOBS_OVERRIDE.store(self.0, Ordering::Relaxed);
            }
        }
        let _reset = Reset(JOBS_OVERRIDE.load(Ordering::Relaxed));
        set_jobs(jobs);
        body()
    }

    #[test]
    fn chunks_cover_everything() {
        assert_eq!(chunk_lens(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(chunk_lens(3, 8), vec![1, 1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(chunk_lens(0, 2), vec![0, 0]);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let serial: Vec<u64> = (0..1000).map(|i| (i as u64).wrapping_mul(31)).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let par = with_jobs(jobs, || {
                parallel_map_indexed(1000, |i| (i as u64).wrapping_mul(31))
            });
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn run_reps_par_matches_run_reps() {
        let f = |i: usize| (i as f64).sin() * 1e3;
        let serial = crate::run_reps(257, f);
        let par = with_jobs(8, || run_reps_par(257, f));
        assert_eq!(par.summary(), serial.summary());
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_panics() {
        run_reps_par(0, |_| 0.0);
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let out = with_jobs(4, || {
            parallel_map_indexed(8, |i| {
                // Inner call must not fork again; it still must be correct.
                let inner = parallel_map_indexed(5, |j| j * 10);
                inner[i % 5]
            })
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 0, 10, 20]);
    }

    #[test]
    fn effective_jobs_is_positive() {
        assert!(with_jobs(0, effective_jobs) >= 1);
        assert_eq!(with_jobs(7, effective_jobs), 7);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// run_reps_par equals run_reps for arbitrary rep and job counts.
        #[test]
        fn prop_par_equals_serial(reps in 1usize..300, jobs in 1usize..17) {
            let f = |i: usize| ((i as f64) * 0.73).cos() * 41.0;
            let serial = crate::run_reps(reps, f);
            let par = with_jobs(jobs, || run_reps_par(reps, f));
            prop_assert_eq!(par.summary(), serial.summary());
        }
    }
}
