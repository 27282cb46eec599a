//! The outer-repetition and adaptive-iteration loops.

use doe_simtime::SimDuration;

use crate::stats::Samples;

/// Run `reps` independent benchmark executions ("binary runs" in the
/// paper's methodology), collecting one observation per run.
///
/// The closure receives the run index, so callers can derive per-run
/// jitter seeds from it.
pub fn run_reps(reps: usize, mut run: impl FnMut(usize) -> f64) -> Samples {
    assert!(reps > 0, "need at least one repetition");
    (0..reps).map(&mut run).collect()
}

/// The seed of run `rep` of a benchmark seeded `seed`: distinct runs get
/// well-spread seeds, so each run's world draws its own noise.
#[inline]
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Configuration of the google/benchmark-style adaptive iteration search.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Target cumulative measured time per test.
    pub min_time: SimDuration,
    /// Iteration count ceiling (google/benchmark defaults to 1e9).
    pub max_iters: u64,
    /// Initial iteration count.
    pub start_iters: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            // google/benchmark's default --benchmark_min_time is 0.5s.
            min_time: SimDuration::from_secs(0.5),
            max_iters: 1_000_000_000,
            start_iters: 1,
        }
    }
}

/// Determine how many iterations to average, google/benchmark style:
/// run `iters` iterations, and if the cumulative time is below
/// [`AdaptiveConfig::min_time`], grow the count (by the observed ratio,
/// ×1.4 slack, capped at ×10) and retry. Returns `(iterations, per-iter
/// time)` of the final, accepted batch.
///
/// `run_batch(iters)` must execute exactly `iters` iterations and return
/// the cumulative elapsed time.
pub fn adaptive_iterations(
    cfg: AdaptiveConfig,
    mut run_batch: impl FnMut(u64) -> SimDuration,
) -> (u64, SimDuration) {
    let mut iters = cfg.start_iters.max(1);
    loop {
        let elapsed = run_batch(iters);
        if elapsed >= cfg.min_time || iters >= cfg.max_iters {
            return (iters, elapsed.div_exact(iters));
        }
        let grow = if elapsed.is_zero() {
            10.0
        } else {
            let ratio = cfg.min_time.as_secs() / elapsed.as_secs() * 1.4;
            ratio.clamp(1.1, 10.0)
        };
        let next = ((iters as f64 * grow).ceil() as u64).max(iters + 1);
        iters = next.min(cfg.max_iters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn run_reps_collects_each_run() {
        let s = run_reps(10, |i| i as f64);
        assert_eq!(s.len(), 10);
        assert_eq!(s.summary().mean, 4.5);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_panics() {
        run_reps(0, |_| 0.0);
    }

    #[test]
    fn adaptive_grows_until_min_time() {
        // Each iteration takes 1 ms; min_time 0.5 s needs >= 500 iters.
        let cfg = AdaptiveConfig::default();
        let mut calls = 0;
        let (iters, per) = adaptive_iterations(cfg, |n| {
            calls += 1;
            SimDuration::from_ms(n as f64)
        });
        assert!(iters >= 500, "iters={iters}");
        assert!((per.as_ns() - 1_000_000.0).abs() < 1.0);
        assert!(calls > 1 && calls < 30, "calls={calls}");
    }

    #[test]
    fn adaptive_accepts_first_batch_when_slow() {
        let cfg = AdaptiveConfig::default();
        let (iters, per) = adaptive_iterations(cfg, |n| SimDuration::from_secs(n as f64));
        assert_eq!(iters, 1);
        assert_eq!(per.as_secs(), 1.0);
    }

    #[test]
    fn adaptive_respects_max_iters_on_zero_cost() {
        let cfg = AdaptiveConfig {
            min_time: SimDuration::from_secs(1.0),
            max_iters: 1000,
            start_iters: 1,
        };
        let (iters, per) = adaptive_iterations(cfg, |_| SimDuration::ZERO);
        assert_eq!(iters, 1000);
        assert_eq!(per, SimDuration::ZERO);
    }

    proptest! {
        /// The accepted batch always meets min_time or the iteration cap.
        #[test]
        fn prop_adaptive_terminates_with_valid_batch(per_iter_ns in 1u64..10_000_000) {
            let cfg = AdaptiveConfig {
                min_time: SimDuration::from_ms(10.0),
                max_iters: 1_000_000,
                start_iters: 1,
            };
            let (iters, per) = adaptive_iterations(cfg, |n| {
                SimDuration::from_ps(n * per_iter_ns * 1000)
            });
            let total = per * iters;
            prop_assert!(total >= cfg.min_time || iters == cfg.max_iters);
            // Per-iteration estimate within rounding of the true cost.
            prop_assert!((per.as_ns() - per_iter_ns as f64).abs() <= 1.0);
        }
    }
}
