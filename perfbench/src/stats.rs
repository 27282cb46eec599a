//! Order statistics, outcome accounting and the seeded generator behind
//! every workload's inputs.

/// 1-based nearest rank of the `p`-th percentile among `n` samples: the
/// smallest rank with at least `p`% of the samples at or below it.
pub fn nearest_rank(n: usize, p: u32) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    (p as usize * n).div_ceil(100).max(1)
}

/// Samples strictly above the `p`-th percentile: the tail that supports it.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - nearest_rank(n, p)
}

/// The highest of `candidates` with at least `min_beyond` samples beyond
/// it, if any.
pub fn highest_supported(n: usize, candidates: &[u32], min_beyond: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= min_beyond)
        .max()
}

/// A latency (or other) sample set reported by order statistics.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Add one observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Append another sample set.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Nearest-rank percentile; `None` on an empty set.
    pub fn percentile(&mut self, p: u32) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        Some(self.values[nearest_rank(self.values.len(), p) - 1])
    }

    /// The nearest-rank median.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50)
    }

    /// Sum of the observations (0 on an empty set).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// Operations attempted and failed. A failed operation is one that
/// returned a non-200 status, errored, or failed its output check; it
/// contributes no latency sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started inside the measured window.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Add another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted operations that failed (0 when none ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// SplitMix64: the benchmark's only source of pseudo-randomness, so one
/// seed always yields the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(100, 90), 90);
        assert_eq!(nearest_rank(100, 50), 50);
        assert_eq!(nearest_rank(10, 50), 5);
        assert_eq!(nearest_rank(10, 90), 9);
        assert_eq!(nearest_rank(11, 90), 10);
        assert_eq!(nearest_rank(1, 1), 1);
        assert_eq!(nearest_rank(3, 100), 3);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond_it() {
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(highest_supported(100, &[50, 90, 99], 10), Some(90));
        assert_eq!(highest_supported(1000, &[50, 90, 99], 10), Some(99));
        assert_eq!(highest_supported(15, &[50, 90, 99], 10), None);
        assert_eq!(highest_supported(20, &[50, 90, 99], 10), Some(50));
        assert_eq!(highest_supported(0, &[50, 90, 99], 0), None);
    }

    #[test]
    fn percentiles_select_the_nearest_rank_sample() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(v as f64);
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.percentile(90), Some(90.0));
        assert_eq!(s.percentile(100), Some(100.0));
        s.push(0.5);
        assert_eq!(s.len(), 101);
        assert_eq!(s.percentile(1), Some(1.0));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn sample_counts_add_up_across_merges() {
        let mut a = Samples::default();
        let mut b = Samples::default();
        for v in 0..7 {
            a.push(v as f64);
        }
        for v in 0..5 {
            b.push(v as f64);
        }
        a.extend(&b);
        assert_eq!(a.len(), 12);
        assert_eq!(a.sum(), 31.0);
        assert_eq!(a.percentile(100), Some(6.0));
        assert_eq!(a.percentile(1), Some(0.0));
    }

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        for i in 0..8 {
            t.record(i % 4 != 0);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 8,
                failed: 2
            }
        );
        assert_eq!(t.failed_frac(), 0.25);
        t.merge(Tally {
            attempted: 2,
            failed: 0,
        });
        assert_eq!(t.failed_frac(), 0.2);
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(6) < 6));
    }
}
