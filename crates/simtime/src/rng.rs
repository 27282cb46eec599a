//! Deterministic pseudo-random numbers for the simulation.
//!
//! Reproducibility is a hard requirement: the paper reports mean ± σ over
//! 100 "binary runs", and we want `doebench table5` to print the same
//! numbers on every invocation. [`SimRng`] is a small, self-contained
//! xoshiro256**-style generator seeded by SplitMix64, with a string-keyed
//! stream-derivation helper so independent subsystems (machine × benchmark
//! × run-index) get decorrelated but stable streams.

/// SplitMix64 step — used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a offset basis: the hash of the empty label.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Continue an FNV-1a hash `h` over `bytes`. FNV-1a folds one byte at a
/// time, so hashing two strings in sequence equals hashing their
/// concatenation.
#[inline]
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic xoshiro256** pseudo-random generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second Gaussian variate from Box–Muller.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Seed from a single `u64`.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Derive a stream for a labelled subsystem. Streams derived with
    /// different labels or indices are statistically independent; the same
    /// `(seed, label, index)` always produces the same stream.
    ///
    /// The label is the concatenation of its parts, hashed in sequence:
    /// `&["mpi/", name]` keys the same stream as the one-part label
    /// `&[&format!("mpi/{name}")]`, without building that string.
    pub fn stream(seed: u64, label: &[&str], index: u64) -> Self {
        Self::labelled(seed, Self::label_hash(label), index)
    }

    /// The hash of `label` that [`Self::stream`] keys a stream by. A world
    /// that draws from one label under a new seed on every re-arm hashes
    /// it once, at construction, and derives each stream with
    /// [`Self::labelled`].
    pub fn label_hash(label: &[&str]) -> u64 {
        label
            .iter()
            .fold(FNV_OFFSET, |h, part| fnv1a_extend(h, part.as_bytes()))
    }

    /// The stream [`Self::stream`] derives for `(seed, label, index)`,
    /// given `hash = Self::label_hash(label)`.
    pub fn labelled(seed: u64, hash: u64, index: u64) -> Self {
        let key = hash ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::from_seed(seed ^ key.rotate_left(17))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift (unbiased
    /// enough for simulation jitter; not for cryptography).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "SimRng::below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// One Box–Muller pair: `(r·cosθ, r·sinθ)`.
    #[inline]
    fn gauss_pair(&mut self) -> (f64, f64) {
        // Avoid u == 0 so ln() stays finite.
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        (r * theta.cos(), r * theta.sin())
    }

    /// Standard normal variate via Box–Muller (cached pair).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        let (c, s) = self.gauss_pair();
        self.gauss_spare = Some(s);
        c
    }

    /// Fill `out` with standard normal variates.
    ///
    /// Produces exactly the sequence that `out.len()` calls to
    /// [`Self::gaussian`] would — same draws, same spare state afterwards —
    /// but writes each Box–Muller pair straight into two adjacent slots
    /// instead of round-tripping half of every pair through the spare
    /// cache. This is the form the per-rep noise loop uses.
    pub fn fill_gaussian(&mut self, out: &mut [f64]) {
        if out.is_empty() {
            return;
        }
        let mut i = 0;
        if let Some(z) = self.gauss_spare.take() {
            out[0] = z;
            i = 1;
        }
        while i + 1 < out.len() {
            let (c, s) = self.gauss_pair();
            out[i] = c;
            out[i + 1] = s;
            i += 2;
        }
        if i < out.len() {
            let (c, s) = self.gauss_pair();
            out[i] = c;
            self.gauss_spare = Some(s);
        }
    }

    /// Fill `out` with uniform variates in `[0, 1)`.
    pub fn fill_uniform(&mut self, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = self.uniform();
        }
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        mean + sigma * self.gaussian()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn streams_are_stable_and_distinct() {
        let a1: Vec<u64> = {
            let mut r = SimRng::stream(7, &["frontier/osu"], 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = SimRng::stream(7, &["frontier/osu"], 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::stream(7, &["frontier/osu"], 4);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn label_parts_hash_as_their_concatenation() {
        let draws = |label: &[&str]| -> Vec<u64> {
            let mut r = SimRng::stream(7, label, 3);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let whole = draws(&["frontier/osu"]);
        assert_eq!(draws(&["frontier/", "osu"]), whole);
        assert_eq!(draws(&["", "frontier/osu", ""]), whole);
        assert_eq!(draws(&["f", "rontier", "/", "osu"]), whole);
        assert_eq!(draws(&[]), draws(&[""]));
        assert_ne!(draws(&["frontier/", "osv"]), whole);
        let hash = SimRng::label_hash(&["frontier/", "osu"]);
        let mut r = SimRng::labelled(7, hash, 3);
        assert_eq!((0..4).map(|_| r.next_u64()).collect::<Vec<_>>(), whole);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = SimRng::from_seed(9);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut r = SimRng::from_seed(1234);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut r = SimRng::from_seed(5);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::from_seed(1).below(0);
    }

    #[test]
    fn fill_gaussian_matches_sequential_draws() {
        // Any split of 9 draws across batches must reproduce the scalar
        // sequence, including the spare carried across batch boundaries.
        let seq: Vec<f64> = {
            let mut r = SimRng::from_seed(77);
            (0..9).map(|_| r.gaussian()).collect()
        };
        for split in 0..=9 {
            let mut r = SimRng::from_seed(77);
            let mut buf = vec![0.0; 9];
            r.fill_gaussian(&mut buf[..split]);
            r.fill_gaussian(&mut buf[split..]);
            assert_eq!(buf, seq, "split at {split}");
        }
    }

    #[test]
    fn fill_uniform_matches_sequential_draws() {
        let seq: Vec<f64> = {
            let mut r = SimRng::from_seed(11);
            (0..7).map(|_| r.uniform()).collect()
        };
        let mut r = SimRng::from_seed(11);
        let mut buf = vec![0.0; 7];
        r.fill_uniform(&mut buf);
        assert_eq!(buf, seq);
    }

    proptest! {
        #[test]
        fn prop_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
            let mut r = SimRng::from_seed(seed);
            for _ in 0..32 {
                prop_assert!(r.below(n) < n);
            }
        }

        #[test]
        fn prop_uniform_range_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, span in 1e-3f64..1e6) {
            let mut r = SimRng::from_seed(seed);
            let hi = lo + span;
            for _ in 0..32 {
                let x = r.uniform_range(lo, hi);
                prop_assert!(x >= lo && x < hi);
            }
        }
    }
}
