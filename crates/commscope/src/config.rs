//! Comm|Scope campaign configuration.

use doe_benchlib::AdaptiveConfig;
use doe_simtime::SimDuration;

/// Configuration of a Comm|Scope campaign.
#[derive(Clone, Copy, Debug)]
pub struct CommScopeConfig {
    /// Outer "binary runs" (paper: 100).
    pub reps: usize,
    /// Adaptive inner-iteration search (google/benchmark).
    pub adaptive: AdaptiveConfig,
    /// Transfer size for latency measurements (paper: 128 B).
    pub latency_bytes: u64,
    /// Transfer size for bandwidth measurements (paper: 1 GiB).
    pub bandwidth_bytes: u64,
}

impl CommScopeConfig {
    /// The paper's campaign.
    ///
    /// The adaptive target is shorter than google/benchmark's default
    /// 0.5 s: per-operation costs in the simulator are deterministic up to
    /// common-mode jitter, so a 10 ms (virtual) batch already averages
    /// thousands of operations, matching the statistical role of the
    /// original's longer batches. The target no longer sets the
    /// simulation cost: a copy or wait search simulates two iterations
    /// and a launch search one launch, and every batch's time follows in
    /// closed form (`search::per_iteration`, DESIGN.md §3). The target is
    /// kept so the reported iteration counts and times stay the ones
    /// every table was made with.
    pub fn paper() -> Self {
        CommScopeConfig {
            reps: 100,
            adaptive: AdaptiveConfig {
                min_time: SimDuration::from_ms(10.0),
                max_iters: 1_000_000,
                start_iters: 4,
            },
            latency_bytes: 128,
            bandwidth_bytes: 1 << 30,
        }
    }

    /// A reduced campaign for fast tests.
    pub fn quick() -> Self {
        CommScopeConfig {
            reps: 8,
            adaptive: AdaptiveConfig {
                min_time: SimDuration::from_ms(1.0),
                max_iters: 10_000,
                start_iters: 2,
            },
            latency_bytes: 128,
            bandwidth_bytes: 1 << 26,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_uses_the_papers_sizes() {
        let c = CommScopeConfig::paper();
        assert_eq!(c.latency_bytes, 128);
        assert_eq!(c.bandwidth_bytes, 1024 * 1024 * 1024);
        assert_eq!(c.reps, 100);
    }
}
