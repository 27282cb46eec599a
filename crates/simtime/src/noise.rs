//! Measurement-noise models.
//!
//! Real microbenchmarks never return the same number twice: OS jitter,
//! DVFS, cache state, and NIC arbitration perturb every operation. The
//! paper's Tables 4–6 report a standard deviation over 100 executions of
//! each benchmark binary. [`Jitter`] reproduces that: each primitive cost
//! `c` is resampled as `c·(1+ε) + a`, with `ε ~ N(0, σ_rel)` and
//! `a ~ N(0, σ_abs)`, both truncated at ±4σ so a single unlucky draw cannot
//! produce a nonsensical (e.g. negative) cost.

use crate::rng::SimRng;
use crate::time::{round_nonneg, SimDuration};

/// Truncation point for noise draws, in standard deviations.
const TRUNC_SIGMA: f64 = 4.0;

/// A multiplicative + additive Gaussian jitter model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Relative (multiplicative) standard deviation, e.g. `0.01` = 1 %.
    pub rel_sigma: f64,
    /// Additive standard deviation.
    pub abs_sigma: SimDuration,
}

impl Jitter {
    /// No noise at all — the model's deterministic backbone.
    pub const NONE: Jitter = Jitter {
        rel_sigma: 0.0,
        abs_sigma: SimDuration::ZERO,
    };

    /// Purely relative jitter.
    pub fn relative(rel_sigma: f64) -> Self {
        assert!((0.0..0.25).contains(&rel_sigma), "rel_sigma out of range");
        Jitter {
            rel_sigma,
            abs_sigma: SimDuration::ZERO,
        }
    }

    /// Relative plus additive jitter.
    pub fn new(rel_sigma: f64, abs_sigma: SimDuration) -> Self {
        assert!((0.0..0.25).contains(&rel_sigma), "rel_sigma out of range");
        Jitter {
            rel_sigma,
            abs_sigma,
        }
    }

    /// Sample a perturbed version of `cost`.
    ///
    /// The result is guaranteed non-negative; with the ±4σ truncation and
    /// `rel_sigma < 0.25` the multiplicative factor stays within (0, 2).
    pub fn sample(&self, cost: SimDuration, rng: &mut SimRng) -> SimDuration {
        if self.rel_sigma == 0.0 && self.abs_sigma.is_zero() {
            return cost;
        }
        let eps = truncated_gaussian(rng) * self.rel_sigma;
        let add = truncated_gaussian(rng) * self.abs_sigma.as_ps() as f64;
        let ps = cost.as_ps() as f64 * (1.0 + eps) + add;
        SimDuration::from_ps(round_nonneg(ps))
    }

    /// Sample a perturbed scalar (e.g. a bandwidth in GB/s).
    pub fn sample_scalar(&self, value: f64, rng: &mut SimRng) -> f64 {
        if self.rel_sigma == 0.0 {
            return value;
        }
        let eps = truncated_gaussian(rng) * self.rel_sigma;
        (value * (1.0 + eps)).max(0.0)
    }

    /// Fill `out` with perturbed versions of `cost` — one independent draw
    /// per slot, identical to `out.len()` sequential [`Self::sample`]
    /// calls on the same generator.
    ///
    /// The batched form exists for the repetition loop: a campaign that
    /// needs 100 noisy instances of the same primitive cost pulls them all
    /// in one call against a caller-reused buffer instead of allocating or
    /// branching per rep.
    pub fn sample_into(&self, cost: SimDuration, rng: &mut SimRng, out: &mut [SimDuration]) {
        if self.rel_sigma == 0.0 && self.abs_sigma.is_zero() {
            out.fill(cost);
            return;
        }
        let cost_ps = cost.as_ps() as f64;
        let abs_ps = self.abs_sigma.as_ps() as f64;
        for slot in out.iter_mut() {
            let eps = truncated_gaussian(rng) * self.rel_sigma;
            let add = truncated_gaussian(rng) * abs_ps;
            let ps = cost_ps * (1.0 + eps) + add;
            *slot = SimDuration::from_ps(round_nonneg(ps));
        }
    }

    /// Fill `out` with perturbed versions of `value` — the scalar analogue
    /// of [`Self::sample_into`], identical to sequential
    /// [`Self::sample_scalar`] calls.
    pub fn sample_scalar_into(&self, value: f64, rng: &mut SimRng, out: &mut [f64]) {
        if self.rel_sigma == 0.0 {
            out.fill(value);
            return;
        }
        for slot in out.iter_mut() {
            let eps = truncated_gaussian(rng) * self.rel_sigma;
            *slot = (value * (1.0 + eps)).max(0.0);
        }
    }
}

fn truncated_gaussian(rng: &mut SimRng) -> f64 {
    loop {
        let z = rng.gaussian();
        if z.abs() <= TRUNC_SIGMA {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn none_is_identity() {
        let mut rng = SimRng::from_seed(1);
        let c = SimDuration::from_us(3.0);
        assert_eq!(Jitter::NONE.sample(c, &mut rng), c);
    }

    #[test]
    fn sample_mean_tracks_cost() {
        let j = Jitter::relative(0.05);
        let mut rng = SimRng::from_seed(2);
        let c = SimDuration::from_us(10.0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| j.sample(c, &mut rng).as_us()).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn sample_sigma_tracks_rel_sigma() {
        let j = Jitter::relative(0.02);
        let mut rng = SimRng::from_seed(3);
        let c = SimDuration::from_us(100.0);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| j.sample(c, &mut rng).as_us()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        let rel = sd / mean;
        assert!((rel - 0.02).abs() < 0.003, "rel sd={rel}");
    }

    #[test]
    fn additive_noise_applies_to_zero_cost() {
        let j = Jitter::new(0.0, SimDuration::from_ns(10.0));
        let mut rng = SimRng::from_seed(4);
        let samples: Vec<u64> = (0..100)
            .map(|_| j.sample(SimDuration::ZERO, &mut rng).as_ps())
            .collect();
        assert!(samples.iter().any(|&s| s > 0));
    }

    #[test]
    #[should_panic(expected = "rel_sigma out of range")]
    fn oversized_rel_sigma_rejected() {
        let _ = Jitter::relative(0.5);
    }

    #[test]
    fn sample_into_matches_sequential_sampling() {
        let j = Jitter::new(0.03, SimDuration::from_ns(5.0));
        let c = SimDuration::from_us(7.0);
        let seq: Vec<SimDuration> = {
            let mut rng = SimRng::from_seed(21);
            (0..64).map(|_| j.sample(c, &mut rng)).collect()
        };
        let mut rng = SimRng::from_seed(21);
        let mut buf = vec![SimDuration::ZERO; 64];
        j.sample_into(c, &mut rng, &mut buf);
        assert_eq!(buf, seq);
    }

    #[test]
    fn sample_scalar_into_matches_sequential_sampling() {
        let j = Jitter::relative(0.05);
        let seq: Vec<f64> = {
            let mut rng = SimRng::from_seed(22);
            (0..64).map(|_| j.sample_scalar(200.0, &mut rng)).collect()
        };
        let mut rng = SimRng::from_seed(22);
        let mut buf = vec![0.0; 64];
        j.sample_scalar_into(200.0, &mut rng, &mut buf);
        assert_eq!(buf, seq);
    }

    #[test]
    fn sample_into_with_no_noise_fills_cost() {
        let mut rng = SimRng::from_seed(23);
        let c = SimDuration::from_us(1.5);
        let mut buf = vec![SimDuration::ZERO; 8];
        Jitter::NONE.sample_into(c, &mut rng, &mut buf);
        assert!(buf.iter().all(|&d| d == c));
    }

    /// [`Jitter::sample`] as it rounded with the `round` libcall.
    fn libm_sample(j: &Jitter, cost: SimDuration, rng: &mut SimRng) -> SimDuration {
        if j.rel_sigma == 0.0 && j.abs_sigma.is_zero() {
            return cost;
        }
        let eps = truncated_gaussian(rng) * j.rel_sigma;
        let add = truncated_gaussian(rng) * j.abs_sigma.as_ps() as f64;
        let ps = cost.as_ps() as f64 * (1.0 + eps) + add;
        SimDuration::from_ps(if ps <= 0.0 { 0 } else { ps.round() as u64 })
    }

    proptest! {
        #[test]
        fn prop_sampling_rounds_as_libm(
            seed in any::<u64>(),
            ps in prop_oneof![0u64..1 << 20, any::<u64>()],
            rel in 0.0f64..0.24,
            abs_ps in 0u64..1 << 24,
        ) {
            let j = Jitter::new(rel, SimDuration::from_ps(abs_ps));
            let cost = SimDuration::from_ps(ps);
            let mut want_rng = SimRng::from_seed(seed);
            let want: Vec<SimDuration> =
                (0..16).map(|_| libm_sample(&j, cost, &mut want_rng)).collect();
            let mut rng = SimRng::from_seed(seed);
            let got: Vec<SimDuration> = (0..16).map(|_| j.sample(cost, &mut rng)).collect();
            prop_assert_eq!(&got, &want);
            let mut rng = SimRng::from_seed(seed);
            let mut buf = [SimDuration::ZERO; 16];
            j.sample_into(cost, &mut rng, &mut buf);
            prop_assert_eq!(&buf[..], &want[..]);
        }

        #[test]
        fn prop_samples_never_negative_and_bounded(
            seed in any::<u64>(),
            us in 0.0f64..1e4,
            rel in 0.0f64..0.2,
        ) {
            let j = Jitter::relative(rel);
            let mut rng = SimRng::from_seed(seed);
            let c = SimDuration::from_us(us);
            for _ in 0..16 {
                let s = j.sample(c, &mut rng);
                // With ±4σ truncation the factor is within [1-4·rel, 1+4·rel].
                let hi = c.as_ps() as f64 * (1.0 + 4.0 * rel) + 2.0;
                prop_assert!((s.as_ps() as f64) <= hi);
            }
        }

        #[test]
        fn prop_scalar_sampling_nonnegative(seed in any::<u64>(), v in 0.0f64..1e5, rel in 0.0f64..0.2) {
            let j = Jitter::relative(rel);
            let mut rng = SimRng::from_seed(seed);
            for _ in 0..16 {
                prop_assert!(j.sample_scalar(v, &mut rng) >= 0.0);
            }
        }
    }
}
