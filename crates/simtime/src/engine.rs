//! In-order command-queue semantics.
//!
//! CUDA/HIP streams and DMA copy engines share one scheduling rule: commands
//! issue in order, each starting when both (a) it has been submitted and
//! (b) the previous command has finished. [`Engine`] tracks the queue tail
//! and answers "when would this work complete?".

use crate::time::{SimDuration, SimTime};

/// An in-order execution engine (a stream or a copy engine).
#[derive(Clone, Debug, Default)]
pub struct Engine {
    busy_until: SimTime,
}

impl Engine {
    /// An idle engine.
    #[inline]
    pub fn new() -> Self {
        Engine::default()
    }

    /// Enqueue work of the given duration, submitted at `now`.
    /// Returns `(start, completion)` instants.
    #[inline]
    pub fn enqueue(&mut self, now: SimTime, duration: SimDuration) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        (start, end)
    }

    /// Enqueue `n` commands of `duration` each, the `i`-th (from 1)
    /// submitted at `first + (i − 1)·interval`: the same tail as `n`
    /// [`Self::enqueue`] calls, in O(1). Returns the new tail.
    ///
    /// Each command's start is `max(tail, submit)`. The gap `tail − submit`
    /// changes by `duration − interval` per command while the engine is
    /// busy and resets to `duration` after an idle start, so the `max`
    /// switches sides at most once and the tail after `n` is the largest
    /// of three chains: all back to back from the old tail, all back to
    /// back from the first submission, or the last submission plus one
    /// command. Integer picoseconds throughout, so the result is exact.
    pub fn enqueue_train(
        &mut self,
        first: SimTime,
        interval: SimDuration,
        duration: SimDuration,
        n: u64,
    ) -> SimTime {
        if n > 0 {
            let run = duration * n;
            let last = first + interval * (n - 1) + duration;
            self.busy_until = (self.busy_until + run).max(first + run).max(last);
        }
        self.busy_until
    }

    /// The instant the queue drains (equals a past instant when idle).
    #[inline]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Extend the queue tail to an externally-computed instant: the
    /// completion of a command another resource times (e.g. a shared
    /// wire), or a pure dependency (a stream waiting on another stream's
    /// event). Never moves the tail backwards.
    #[inline]
    pub fn occupy_until(&mut self, end: SimTime) {
        self.busy_until = self.busy_until.max(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(x: f64) -> SimDuration {
        SimDuration::from_us(x)
    }

    #[test]
    fn idle_engine_starts_immediately() {
        let mut e = Engine::new();
        let now = SimTime::ZERO + us(10.0);
        let (start, end) = e.enqueue(now, us(3.0));
        assert_eq!(start, now);
        assert_eq!(end, now + us(3.0));
    }

    #[test]
    fn busy_engine_queues_in_order() {
        let mut e = Engine::new();
        let t0 = SimTime::ZERO;
        let (_, end1) = e.enqueue(t0, us(5.0));
        // Submitted while the first is still running:
        let (start2, end2) = e.enqueue(t0 + us(1.0), us(2.0));
        assert_eq!(start2, end1);
        assert_eq!(end2, end1 + us(2.0));
        assert_eq!(e.busy_until(), end2);
    }

    proptest! {
        /// Completion times are non-decreasing in submission order, and every
        /// command runs for exactly its duration after a non-earlier start.
        #[test]
        fn prop_inorder_execution(durs in proptest::collection::vec(0u64..10_000, 1..50)) {
            let mut e = Engine::new();
            let mut last_end = SimTime::ZERO;
            let mut now = SimTime::ZERO;
            for (i, &d) in durs.iter().enumerate() {
                // Interleave submission times: sometimes before the queue drains.
                if i % 3 == 0 {
                    now += SimDuration::from_ps(d / 2 + 1);
                }
                let dur = SimDuration::from_ps(d);
                let (start, end) = e.enqueue(now, dur);
                prop_assert!(start >= now);
                prop_assert!(start >= last_end.min(start));
                prop_assert_eq!(end, start + dur);
                prop_assert!(end >= last_end);
                last_end = end;
            }
            prop_assert_eq!(e.busy_until(), last_end);
        }

        /// A train equals its `n` single enqueues, from an idle, exactly
        /// drained or busy tail.
        #[test]
        fn prop_train_matches_enqueues(
            tail in 0u64..2_000_000,
            first in 0u64..2_000_000,
            interval in 0u64..5_000,
            duration in 0u64..5_000,
            n in 0u64..300,
        ) {
            let first = SimTime::ZERO + SimDuration::from_ps(first);
            let (interval, duration) = (SimDuration::from_ps(interval), SimDuration::from_ps(duration));
            let mut one = Engine::new();
            one.occupy_until(SimTime::ZERO + SimDuration::from_ps(tail));
            let mut train = one.clone();
            let mut at = first;
            for i in 0..n {
                if i > 0 {
                    at += interval;
                }
                one.enqueue(at, duration);
            }
            prop_assert_eq!(train.enqueue_train(first, interval, duration, n), one.busy_until());
        }
    }
}
