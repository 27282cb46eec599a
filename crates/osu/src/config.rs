//! OSU benchmark parameters (defaults from OSU Micro-Benchmarks 7.1.1).

/// Parameters of an OSU point-to-point campaign.
#[derive(Clone, Debug)]
pub struct OsuConfig {
    /// Message sizes in bytes.
    pub sizes: Vec<u64>,
    /// Timed iterations for small messages (OSU default: 1000).
    pub small_iters: u32,
    /// Timed iterations for large messages (OSU default: 100).
    pub large_iters: u32,
    /// Boundary between small and large (OSU default: 8 KiB).
    pub large_threshold: u64,
    /// Warmup iterations before timing. `osu_latency` runs them only on a
    /// world that does not fast-forward (under `--check`): its timed loop
    /// starts after a barrier, which no warm-up result reaches.
    pub warmup: u32,
    /// Outer "binary runs" aggregated into mean ± σ (paper: 100).
    pub reps: usize,
}

impl OsuConfig {
    /// The paper's campaign: sizes 0 and 1 B … 4 MiB by powers of two.
    pub fn paper() -> Self {
        let mut sizes = vec![0u64];
        let mut s = 1u64;
        while s <= 4 * 1024 * 1024 {
            sizes.push(s);
            s *= 2;
        }
        OsuConfig {
            sizes,
            small_iters: 1000,
            large_iters: 100,
            large_threshold: 8 * 1024,
            warmup: 10,
            reps: 100,
        }
    }

    /// The latency-table campaign: just the headline zero-byte point.
    pub fn table_point() -> Self {
        OsuConfig {
            sizes: vec![0],
            ..Self::paper()
        }
    }

    /// A reduced campaign for fast tests.
    pub fn quick() -> Self {
        OsuConfig {
            sizes: vec![0, 8, 1024, 65_536],
            small_iters: 50,
            large_iters: 10,
            large_threshold: 8 * 1024,
            warmup: 2,
            reps: 10,
        }
    }

    /// Iterations used for a message of `bytes`.
    pub fn iters_for(&self, bytes: u64) -> u32 {
        if bytes <= self.large_threshold {
            self.small_iters
        } else {
            self.large_iters
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_cover_zero_to_4mib() {
        let c = OsuConfig::paper();
        assert_eq!(c.sizes[0], 0);
        assert_eq!(c.sizes[1], 1);
        assert_eq!(*c.sizes.last().unwrap(), 4 * 1024 * 1024);
    }

    #[test]
    fn iteration_split_matches_osu_defaults() {
        let c = OsuConfig::paper();
        assert_eq!(c.iters_for(0), 1000);
        assert_eq!(c.iters_for(8 * 1024), 1000);
        assert_eq!(c.iters_for(8 * 1024 + 1), 100);
        assert_eq!(c.iters_for(1 << 20), 100);
    }

    #[test]
    fn table_point_is_zero_byte_only() {
        let c = OsuConfig::table_point();
        assert_eq!(c.sizes, vec![0]);
        assert_eq!(c.reps, 100);
    }
}
