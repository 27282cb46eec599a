//! Deterministic parallel execution of independent benchmark work.
//!
//! The paper's protocol is embarrassingly parallel: every (machine,
//! benchmark, rep) cell derives an independent seed, so cells can run on
//! any thread in any order as long as results land back in their original
//! slots. This module provides that guarantee: [`parallel_map_indexed`]
//! hands `0..n` to a process-wide pool of parked helper threads; the
//! caller and its helpers claim indices from one atomic counter and write
//! each result into the slot of its index, so the output `Vec` is
//! bit-identical to the serial `(0..n).map(f)` whatever the thread count
//! and whichever thread ran which index. Its one caller outside tests is
//! the campaign scheduler, `doebench::sched::run_cells`; rep loops are
//! plain serial loops ([`crate::run_reps`]).
//!
//! Worker count resolution (first match wins):
//! 1. an explicit [`set_jobs`] call (the CLI's `--jobs N`);
//! 2. the `DOEBENCH_JOBS` environment variable;
//! 3. `std::thread::available_parallelism()`.
//!
//! The pool spawns its helpers on first use, `jobs - 1` of them, and
//! grows (never shrinks) when a later call asks for more; a call with
//! fewer jobs lets only `jobs - 1` helpers join. No thread is spawned per
//! call, so a fork-join costs a wake-up rather than a thread creation.
//!
//! One fork-join holds the pool at a time. A call that finds it busy (a
//! second daemon connection fanning out while the first still is) runs
//! inline on its own thread. Nested calls degrade to serial: a
//! `parallel_map_indexed` reached from inside a fork-join runs inline,
//! so a cell that fans out over its sub-benchmarks runs them inline when
//! it is itself one cell of a wider fan-out. A panic in `f` reaches the
//! caller once every helper has left the job, and the pool stays usable.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Explicit jobs override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on pool helpers, and on a caller while it works its own share
    /// of a fork-join; nested parallel calls then run inline.
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

/// One fork-join's work as a helper sees it: claim indices until none
/// are left. It never unwinds; a panic in `f` is caught inside it.
type Work = &'static (dyn Fn() + Sync);

/// The pool's shared state.
struct Team {
    /// Helper threads spawned so far; never decreases.
    helpers: usize,
    /// A caller holds the pool, from posting its work to the end of its
    /// join.
    busy: bool,
    /// The posted work, while helpers may still join it.
    work: Option<Work>,
    /// How many more helpers may join the posted work.
    seats: usize,
    /// Helpers running the posted work right now.
    active: usize,
}

/// The process-wide fork-join pool.
struct Pool {
    team: Mutex<Team>,
    /// Signalled once per seat when work is posted.
    posted: Condvar,
    /// Signalled when the last helper leaves the work.
    left: Condvar,
}

static POOL: Pool = Pool {
    team: Mutex::new(Team {
        helpers: 0,
        busy: false,
        work: None,
        seats: 0,
        active: 0,
    }),
    posted: Condvar::new(),
    left: Condvar::new(),
};

impl Pool {
    /// The team state. No code panics while holding it (only counter
    /// updates run under the lock), so a poisoned lock still holds
    /// consistent state.
    fn lock(&self) -> MutexGuard<'_, Team> {
        self.team.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim the pool and post `work` with `seats` helper seats, spawning
    /// the helpers the pool lacks. False, with nothing posted, when
    /// another caller holds the pool.
    fn post(&'static self, work: Work, seats: usize) -> bool {
        let mut team = self.lock();
        if team.busy {
            return false;
        }
        if team.helpers < seats {
            self.grow(&mut team, seats);
        }
        team.busy = true;
        team.work = Some(work);
        team.seats = seats;
        drop(team);
        for _ in 0..seats {
            self.posted.notify_one();
        }
        true
    }

    /// Spawn helpers until there are `seats`. This runs once per larger
    /// jobs count, not once per call; each helper blocks only on its own
    /// thread.
    #[cold]
    fn grow(&'static self, team: &mut Team, seats: usize) {
        while team.helpers < seats {
            let spawned = std::thread::Builder::new()
                .name("doebench-par".into())
                .spawn(move || self.helper());
            // Without the thread the seat stays empty: the caller and the
            // other helpers still claim every index.
            if spawned.is_err() {
                break;
            }
            team.helpers += 1;
        }
    }

    /// A helper's life: wait for a seat, run the work, leave, forever.
    /// Helpers are never joined; they park on `posted` between jobs and
    /// end with the process.
    fn helper(&self) {
        IN_POOL.with(|p| p.set(true));
        loop {
            let work = self.take_seat();
            work();
            let mut team = self.lock();
            team.active -= 1;
            if team.active == 0 {
                self.left.notify_one();
            }
        }
    }

    /// Wait until a seat is open, then take it.
    fn take_seat(&self) -> Work {
        let mut team = self.lock();
        while team.seats == 0 {
            team = self
                .posted
                .wait(team)
                .unwrap_or_else(PoisonError::into_inner);
        }
        team.seats -= 1;
        team.active += 1;
        team.work.expect("seats are open only while work is posted")
    }

    /// Close the seats, wait until every helper that joined has left, and
    /// release the pool. After this no helper holds the posted work.
    fn join(&self) {
        let mut team = self.lock();
        team.seats = 0;
        team.work = None;
        while team.active > 0 {
            team = self.left.wait(team).unwrap_or_else(PoisonError::into_inner);
        }
        team.busy = false;
    }
}

/// Joins the pool when dropped, so the frame that posted work cannot be
/// left, by return or unwind, while a helper still runs it.
struct JoinOnDrop;

impl Drop for JoinOnDrop {
    fn drop(&mut self) {
        POOL.join();
    }
}

/// Map `f` over `0..n`, preserving index order exactly.
///
/// With more than one effective job the calling thread posts the map to
/// the process-wide pool and works it alongside up to `jobs - 1` helpers:
/// each claims the next unclaimed index from one atomic counter and
/// stores `f(i)` in slot `i` of a pre-sized buffer — so the result is the
/// same `Vec` the serial loop produces, element for element, however the
/// indices fell to threads. With one job, on `n <= 1`, when already
/// inside a fork-join, or when another caller holds the pool, it is
/// exactly the serial loop.
///
/// If `f` panics, the remaining indices are abandoned and the first
/// panic resumes on the caller once every helper has left.
pub fn parallel_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let serial = || (0..n).map(&f).collect();
    let jobs = effective_jobs().min(n.max(1));
    if jobs <= 1 || n <= 1 || IN_POOL.with(|p| p.get()) {
        return serial();
    }

    // The counter publishes nothing: each result travels through its
    // slot's mutex, and the join's lock orders every helper's writes
    // before the caller's reads.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = || {
        let run = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let value = f(i);
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        }));
        if let Err(payload) = run {
            // Stop the other threads claiming; keep the first panic.
            next.store(n, Ordering::Relaxed);
            panicked
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    };
    let local: &(dyn Fn() + Sync) = &work;
    // SAFETY: only the lifetime is erased. Helpers reach `work` only via
    // `Team::work`, between `post` and `join`; `join` waits until none runs
    // it, and `_join` below joins before `work` drops, on return or unwind.
    let erased: Work = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Work>(local) };
    if !POOL.post(erased, jobs - 1) {
        return serial();
    }
    {
        let _join = JoinOnDrop;
        // The calling thread works alongside the helpers, like a team
        // master.
        IN_POOL.with(|p| p.set(true));
        work();
        IN_POOL.with(|p| p.set(false));
    }

    if let Some(payload) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index filled")
        })
        .collect()
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
    fn a_panic_reaches_the_caller_after_every_helper_left() {
        let running = AtomicUsize::new(0);
        let caught = with_jobs(4, || {
            panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map_indexed(64, |i| {
                    running.fetch_add(1, Ordering::SeqCst);
                    if i == 5 {
                        running.fetch_sub(1, Ordering::SeqCst);
                        panic!("index {i} failed");
                    }
                    // Keep the other indices in flight while the panic
                    // travels.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    running.fetch_sub(1, Ordering::SeqCst);
                    i
                })
            }))
        });
        assert_eq!(
            running.load(Ordering::SeqCst),
            0,
            "a helper outlived the call"
        );
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("index 5 failed")
        );
        // The pool is released and still maps correctly.
        let serial: Vec<usize> = (0..100).map(|i| i * 3).collect();
        assert_eq!(
            with_jobs(4, || parallel_map_indexed(100, |i| i * 3)),
            serial
        );
    }

    #[test]
    fn concurrent_callers_each_get_the_serial_result() {
        const CALLERS: usize = 4;
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let serial: Vec<u64> = (0..500).map(f).collect();
        let start = std::sync::Barrier::new(CALLERS);
        with_jobs(4, || {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..CALLERS)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            (0..20)
                                .map(|_| parallel_map_indexed(500, f))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    for out in h.join().expect("caller thread") {
                        assert_eq!(out, serial);
                    }
                }
            })
        });
    }

    #[test]
    fn the_pool_grows_when_jobs_rise() {
        let serial: Vec<usize> = (0..300).map(|i| i ^ 0x55).collect();
        assert_eq!(
            with_jobs(2, || parallel_map_indexed(300, |i| i ^ 0x55)),
            serial
        );
        assert_eq!(
            with_jobs(8, || parallel_map_indexed(300, |i| i ^ 0x55)),
            serial
        );
        assert!(POOL.lock().helpers >= 7, "the pool grew to seven helpers");
    }

    #[test]
    fn effective_jobs_is_positive() {
        assert!(with_jobs(0, effective_jobs) >= 1);
        assert_eq!(with_jobs(7, effective_jobs), 7);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The parallel map equals the serial map for arbitrary lengths
        /// and job counts.
        #[test]
        fn prop_par_equals_serial(n in 0usize..300, jobs in 1usize..17) {
            let f = |i: usize| ((i as f64) * 0.73).cos() * 41.0;
            let serial: Vec<f64> = (0..n).map(f).collect();
            let par = with_jobs(jobs, || parallel_map_indexed(n, f));
            prop_assert_eq!(par, serial);
        }
    }
}
