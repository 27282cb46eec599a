//! The host-side virtual clock.
//!
//! Simulated runtimes are written in the style of the real runtimes they
//! replace: a call like `stream.synchronize()` *blocks the host* until the
//! device drains. In the simulation the "host" is a [`Clock`] that each
//! blocking call advances. Timestamps read from the clock play the role of
//! `clock_gettime` in the original benchmarks.

use crate::time::{SimDuration, SimTime};

/// A monotonically advancing virtual clock.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// A clock at the simulation epoch.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// A clock starting at an arbitrary instant.
    pub fn starting_at(t: SimTime) -> Self {
        Clock { now: t }
    }

    /// The current virtual instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance by `d` and return the new instant.
    #[inline]
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        self.now += d;
        self.now
    }

    /// Jump forward to `t`. A no-op if `t` is in the past — the clock never
    /// moves backwards (mirrors waiting on an already-complete event).
    #[inline]
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        self.now = self.now.max(t);
        self.now
    }

    /// Run `f` and return its result together with the virtual time it took,
    /// measured as the clock movement across the call.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Clock) -> T) -> (T, SimDuration) {
        let start = self.now;
        let out = f(self);
        (out, self.now.since(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = Clock::new();
        c.advance(SimDuration::from_us(1.0));
        c.advance(SimDuration::from_us(2.0));
        assert_eq!(c.now().as_us(), 3.0);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut c = Clock::new();
        c.advance(SimDuration::from_us(5.0));
        c.advance_to(SimTime::from_ps(10)); // in the past
        assert_eq!(c.now().as_us(), 5.0);
        c.advance_to(SimTime::ZERO + SimDuration::from_us(8.0));
        assert_eq!(c.now().as_us(), 8.0);
    }

    #[test]
    fn timed_measures_clock_movement() {
        let mut c = Clock::new();
        let (val, dt) = c.timed(|c| {
            c.advance(SimDuration::from_ns(250.0));
            42
        });
        assert_eq!(val, 42);
        assert_eq!(dt, SimDuration::from_ns(250.0));
    }

    #[test]
    fn starting_at_offsets_epoch() {
        let t = SimTime::from_ps(123);
        assert_eq!(Clock::starting_at(t).now(), t);
    }
}
